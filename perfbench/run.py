#!/usr/bin/env python3
"""LASSI benchmark runner.

Run from the repository root:

    python3 perfbench/run.py --workload grid-cold --seed 1 --seconds 20 --trace 0

It builds the benchmark binary and the repository's `worker` binary from
source (into $CARGO_TARGET_DIR, default `.bench_build`), then starts one
fresh `lassi-perfbench` process per repetition until `--seconds` are used:
the process-wide program cache and report memo have no public reset, so a
second repetition inside one process would measure a warm memo. Repetition
i runs inputs derived from (seed, i). Inputs 0 run twice: first with the
output checks on, then measured; every count the two pin must agree exactly.
The checked repetition (and the first process start of the run) does not
count in the figures, so every input counts once.

`--trace 0` prints every end-to-end metric; `--trace 1` adds the untraced
and traced drives and prints every per-layer metric with the end-to-end
metric it moves, the tracing overhead, the registry cross-check and the
per-program VM profile. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("grid-cold", "repair-storm")

END_TO_END = (
    ("scenarios_per_s", "1/s"),
    ("sweep_p50_ms", "ms"),
    ("sweep_p95_ms", "ms"),
    ("setup_s", "s"),
)

APPS = ("matrix-rotate", "jacobi", "layout", "atomicCost", "dense-embedding",
        "pathfinder", "bsearch", "entropy", "colorwheel", "randomAccess")
STAGES = ("parse", "sema", "compile", "llm", "execute", "similarity")
ROUTES = ("sweeps", "run", "records", "metrics", "work_lease", "work_heartbeat", "work_complete")

SPS = "scenarios_per_s"
SWEEP = "sweep_p50_ms, sweep_p95_ms"

# (name, unit, the end-to-end metric it should move)
PER_LAYER = (
    [("lang.parse_calls", "count", SPS), ("lang.parse_s", "s", SPS), ("lang.parse_kb_per_s", "kB/s", SPS),
     ("sema.check_calls", "count", SPS), ("sema.check_s", "s", SPS), ("sema.reject_ratio", "ratio", SPS),
     ("llm.calls", "count", SPS), ("llm.complete_s", "s", SPS), ("llm.prompt_tokens", "count", SPS),
     ("llm.response_tokens", "count", SPS),
     ("runtime.lower_calls", "count", SPS), ("runtime.lower_s", "s", SPS), ("runtime.vm_runs", "count", SPS),
     ("runtime.vm_s", "s", SPS), ("runtime.vm_steps", "count", SPS), ("runtime.vm_steps_per_s", "1/s", SPS)]
    + [(f"runtime.vm_ms.{app}.{d}", "ms", SPS) for app in APPS for d in ("cuda", "omp")]
    + [(f"core.stage_s.{stage}", "s", SPS) for stage in STAGES]
    + [("core.report_memo_hits", "count", SPS), ("core.report_memo_misses", "count", SPS),
       ("core.report_memo_entries", "count", SPS), ("core.report_memo_bytes", "bytes", "bench.peak_rss_mb"),
       ("core.report_memo_dup_runs", "count", SPS), ("core.program_cache_hits", "count", SPS),
       ("core.program_cache_misses", "count", SPS), ("core.program_cache_bytes", "bytes", "bench.peak_rss_mb"),
       ("core.repair_rounds", "count", SPS),
       ("metrics.similarity_calls", "count", SPS), ("metrics.similarity_s", "s", SPS),
       ("harness.queue_wait_s", "s", SPS), ("harness.job_p50_ms", "ms", SPS),
       ("harness.job_p95_ms", "ms", SWEEP), ("harness.worker_busy_ratio", "ratio", SPS),
       ("harness.scenario_cache_hit_ratio", "ratio", SWEEP), ("harness.cache_flush_s", "s", SPS),
       ("harness.artifact_write_s", "s", SWEEP),
       ("server.submit_p50_ms", "ms", SWEEP), ("server.polls_per_sweep", "count", SWEEP),
       ("server.read_p95_ms", "ms", SWEEP), ("server.metrics_scrape_ms", "ms", SWEEP)]
    + [(f"server.handler_s.{route}", "s", SWEEP) for route in ROUTES]
    + [("fleet.leases_granted", "count", SPS), ("fleet.heartbeats", "count", SPS),
       ("fleet.jobs_requeued", "count", SPS), ("fleet.duplicate_completions", "count", SPS),
       ("fleet.remote_records", "count", SPS), ("fleet.lease_handler_s", "s", SPS),
       ("fleet.complete_handler_s", "s", SPS), ("fleet.remote_to_local_ratio", "ratio", SPS),
       ("bench.peak_rss_mb", "MB", "(memory; see README)"),
       ("bench.trace_overhead", "ratio", "(traced vs untraced drive)"),
       ("bench.registry_mismatches", "count", "(registry cross-check)")]
)

MIN_REPS = 2           # measured repetitions, besides the checked one
RUN_BUDGET_S = 170     # one invocation, builds excluded, stays under this
REP_TIMEOUT_S = 120
NPROC = len(os.sched_getaffinity(0))
WORKERS = max(1, NPROC - 1)  # busy worker threads; see util::workers()


def log(message):
    print(message, file=sys.stderr, flush=True)


def mix(x):
    """SplitMix64, the same derivation the benchmark binary uses."""
    z = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def rep_seed(seed, index):
    return mix(seed ^ mix(index + 1)) & ((1 << 53) - 1)


def build(env):
    """Build the benchmark and the repository's worker from this checkout."""
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path",
         os.path.join("perfbench", "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "lassi-bench", "--bin", "worker"],
    ):
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(1)


class Runner:
    def __init__(self, args, bench_bin, worker_bin, scratch, deadline):
        self.args = args
        self.bench_bin = bench_bin
        self.worker_bin = worker_bin
        self.scratch = scratch
        self.deadline = deadline
        self.count = 0

    def run(self, mode, workload, seed, **flags):
        """One fresh process; returns its report, or None if it crashed."""
        self.count += 1
        out = os.path.join(self.scratch, f"r{self.count}")
        cmd = [self.bench_bin, mode, "--workload", workload, "--seed", str(seed), "--out", out]
        for key, value in flags.items():
            cmd += ["--" + key.replace("_", "-"), str(value)]
        if workload == "fleet-drain":
            cmd += ["--worker-bin", self.worker_bin]
        timeout = max(1.0, min(REP_TIMEOUT_S, self.deadline - time.monotonic()))
        spawned = time.time_ns()
        # A process group of its own, so a timeout also stops the workers a
        # fleet repetition started.
        proc = subprocess.Popen(cmd + ["--spawned", str(spawned)], stdout=subprocess.PIPE,
                                start_new_session=True, text=True)
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            log(f"perfbench: {mode} seed {seed} timed out after {timeout:.0f}s")
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            log(f"perfbench: {mode} seed {seed} exited {proc.returncode}")
            return None
        try:
            return json.loads(lines[-1])
        except ValueError:
            log(f"perfbench: {mode} seed {seed} printed no result")
            return None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def nearest_rank(samples, p):
    ordered = sorted(samples)
    rank = -(-p * len(ordered) // 100)
    return ordered[max(1, min(int(rank), len(ordered))) - 1]


def commit():
    if not os.path.isdir(".git"):
        return "unknown"
    result = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True)
    return result.stdout.strip() or "unknown"


def measure(args, runner):
    """Repetitions until the time is used; returns (reports by kind, failures)."""
    started = time.monotonic()
    reps = {"check": [], "rep": [], "drive0": [], "drive1": [], "fleet": []}
    failures = []
    durations = []

    def one(kind, seed_index):
        t = time.monotonic()
        workload = args.workload
        if kind in ("check", "rep"):
            mode, extra = "rep", {"checks": int(kind == "check")}
        elif kind == "fleet":
            mode, workload, extra = "rep", "fleet-drain", {"checks": 1}
        else:
            mode, extra = "drive", {"traced": kind[-1]}
            if kind == "drive1":
                extra["spans"] = os.path.abspath(os.path.join(".bench_out", f"spans-{args.workload}.jsonl"))
        report = runner.run(mode, workload, rep_seed(args.seed, seed_index), **extra)
        durations.append(time.monotonic() - t)
        if report is None:
            failures.append(f"{kind} {seed_index} crashed or timed out")
        else:
            report["seed_index"] = seed_index
            reps[kind].append(report)

    # Inputs 0 twice: their pinned counts and records must repeat exactly.
    one("check", 0)
    one("rep", 0)
    if args.trace:
        one("drive0", 0)
        one("drive1", 0)
    if args.trace and args.workload == "grid-cold":
        # The fleet and server layers: inputs 0 drained by worker processes
        # through the server, checked against a local pool of the same grids.
        one("fleet", 0)
    index = 1
    while True:
        elapsed = time.monotonic() - started
        step = statistics.median(durations) * (3 if args.trace else 1)
        enough = len(reps["rep"]) + len(failures) >= MIN_REPS
        if enough and elapsed + step > args.seconds:
            break
        if time.monotonic() + step > runner.deadline:
            break
        one("rep", index)
        if args.trace:
            one("drive0", index)
            one("drive1", index)
        index += 1
    return reps, failures


def check_pins(reps, failures):
    """Same inputs must give the same shape and the same records."""
    by_index = {}
    for kind, reports in reps.items():
        for report in reports:
            by_index.setdefault(report["seed_index"], []).append((kind, report))
    for index, group in sorted(by_index.items()):
        pins = [(k, r["pins"]) for k, r in group if k in ("check", "rep")]
        for kind, other in pins[1:]:
            if other != pins[0][1]:
                failures.append(f"inputs {index}: pinned counts changed between repetitions: {pins[0][1]} vs {other}")
        hashes = {r["records_hash"] for _, r in group if r.get("records_hash")}
        if len(hashes) > 1:
            failures.append(f"inputs {index}: records differ between repetitions or drives: {sorted(hashes)}")


def steal_factor(report):
    """Share of a repetition's timed wall this machine actually ran.

    On a shared host the hypervisor takes CPU time from this machine while
    its CPUs have work waiting (`steal` in /proc/stat). Over the timed
    region that is delay other tenants imposed on the CPUs the workers kept
    busy, so times are scaled by (wall - steal / workers) / wall; neighbours
    on the host then move the figures less.
    """
    timed = report["metrics"]["timed_s"]
    stolen = report["metrics"].get("steal_s", 0.0) / WORKERS
    return max(0.5, 1.0 - stolen / timed) if timed > 0 else 1.0


def rep_value(name, report):
    """One end-to-end metric of one repetition; times corrected for steal."""
    if name == "scenarios_per_s":
        return report["metrics"]["scenarios"] / (report["metrics"]["timed_s"] * steal_factor(report))
    if name in ("sweep_p50_ms", "sweep_p95_ms"):
        return nearest_rank(report["sweep_ms"], 50 if name == "sweep_p50_ms" else 95) * steal_factor(report)
    return report["metrics"][name]


def end_to_end(name, reports):
    """One end-to-end metric of the run: the median of its measured
    repetitions' values. A burst of load on a shared host slows a few
    repetitions, and a heavy generated program a few more; the median of
    many short repetitions moves with neither.
    """
    values = [rep_value(name, r) for r in reports]
    return statistics.median(values) if values else 0.0


def print_end_to_end(reports, metrics):
    """The run record: each metric with the quartiles of its per-repetition values."""
    print(f"{'metric':<18} {'value':>12} {'rep q1':>12} {'rep median':>12} {'rep q3':>12} {'n':>5}  unit")
    for name, unit in END_TO_END:
        q1, q2, q3 = quartiles([rep_value(name, r) for r in reports]) if reports else (0.0, 0.0, 0.0)
        print(f"{name:<18} {metrics[name]['value']:>12.4f} {q1:>12.4f} {q2:>12.4f} {q3:>12.4f} "
              f"{len(reports):>5}  {unit}")
    stolen = sum(r["metrics"].get("steal_s", 0.0) for r in reports)
    timed = sum(r["metrics"]["timed_s"] for r in reports)
    print(f"hypervisor steal during timed work: {stolen:.2f} CPU-s over {timed:.2f} s of wall on {NPROC} CPUs")


def median_of(reports, name):
    values = [r["metrics"][name] for r in reports if name in r["metrics"]]
    return statistics.median(values) if values else None


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates")
            and os.path.isfile(os.path.join("perfbench", "Cargo.toml"))):
        log("perfbench: run from the repository root (needs Cargo.toml, crates/ and perfbench/)")
        sys.exit(2)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(dict(os.environ, CARGO_TARGET_DIR=target))

    deadline = time.monotonic() + RUN_BUDGET_S
    scratch = os.path.abspath(os.path.join(".bench_out", f"{args.workload}-{args.seed}-{os.getpid()}"))
    os.makedirs(scratch, exist_ok=True)
    runner = Runner(args, os.path.join(target, "release", "lassi-perfbench"),
                    os.path.join(target, "release", "worker"), scratch, deadline)
    try:
        reps, failures = measure(args, runner)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    check_pins(reps, failures)

    all_reports = [r for reports in reps.values() for r in reports]
    attempted = sum(r["attempted"] for r in all_reports) + len(failures)
    failed = sum(r["failed"] for r in all_reports) + len(failures)
    for report in all_reports:
        for error in report["errors"]:
            log(f"perfbench: failure: {error}")
    for failure in failures:
        log(f"perfbench: failure: {failure}")

    print(f"workload {args.workload}  seed {args.seed}  nproc {NPROC}  commit {commit()}  "
          f"repetitions {len(reps['rep'])} (+1 checked)  seconds {args.seconds}  trace {args.trace}")
    metrics = {}
    if not args.trace:
        for name, unit in END_TO_END:
            metrics[name] = {"value": end_to_end(name, reps["rep"]), "unit": unit}
        print_end_to_end(reps["rep"], metrics)
    else:
        layer_reports = reps["check"] + reps["rep"] + reps["drive1"] + reps["fleet"]
        untraced = [r["metrics"]["drive_scenarios_per_s"] for r in reps["drive0"]]
        traced = [r["metrics"]["drive_scenarios_per_s"] for r in reps["drive1"]]
        overhead = statistics.median(untraced) / statistics.median(traced) - 1 if untraced and traced else 0.0
        mismatches = [m for r in all_reports for m in r["mismatches"]]
        print(f"{'metric':<38} {'median':>14}  {'unit':<6} moves")
        for name, unit, moves in PER_LAYER:
            if name == "bench.trace_overhead":
                value = overhead
            elif name == "bench.registry_mismatches":
                value = float(max((len(r["mismatches"]) for r in all_reports), default=0))
            elif name == "bench.peak_rss_mb":
                value = max((r["metrics"][name] for r in reps["check"] + reps["rep"]), default=0.0)
            else:
                value = median_of(layer_reports, name)
                value = 0.0 if value is None else value
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:<38} {value:>14.4f}  {unit:<6} {moves}")
        print(f"tracing overhead: untraced drive {statistics.median(untraced) if untraced else 0:.1f} "
              f"vs traced {statistics.median(traced) if traced else 0:.1f} scenarios/s")
        print("registry cross-check: " + ("counts match" if not mismatches else f"{len(mismatches)} differences"))
        for message in sorted(set(mismatches)):
            print(f"  {message}")
        if reps["drive1"]:
            print("top programs by VM time (inputs 0):")
            for row in reps["drive1"][0]["profile"]:
                print(f"  {row['program']:<34} {row['vm_ms']:>10.3f} ms {row['steps']:>10} steps  "
                      f"{row['uses']:>4} uses  {'ok' if row['ok'] else 'error'}")
    result = {"correct": failed == 0, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
