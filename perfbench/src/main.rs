//! `lassi-perfbench`: one measured repetition of a benchmark workload.
//!
//! `run.py` builds this binary and starts it once per repetition, so every
//! repetition runs in a fresh process: `progcache` is process-wide with no
//! public reset, and a second repetition in one process would measure a
//! warm memo.
//!
//! ```text
//! lassi-perfbench rep   --workload W --seed N --checks 0|1 --out DIR
//!                       --spawned UNIX_NS [--worker-bin PATH]
//! lassi-perfbench drive --workload W --seed N --traced 0|1 --out DIR [--spans FILE]
//! ```
//!
//! `rep` runs the workload end to end and reports its end-to-end metrics
//! plus the per-layer values visible from outside (registry, memo counters,
//! job outputs, HTTP timings). `drive` runs the workload's distinct
//! scenarios straight through `Lassi`; traced, it also times every layer
//! call (see `drive.rs`). The last stdout line is one JSON object that
//! `run.py` aggregates across repetitions.

mod check;
mod drive;
mod fleet;
mod local;
mod service;
mod util;
mod workload;

use std::path::PathBuf;

use util::Report;
use workload::Workload;

struct Args {
    mode: String,
    workload: Workload,
    seed: u64,
    checks: bool,
    traced: bool,
    out: PathBuf,
    spans: Option<PathBuf>,
    worker_bin: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut raw = std::env::args().skip(1);
    let mode = raw.next().ok_or("missing mode (rep | drive)")?;
    let mut args = Args {
        mode,
        workload: Workload::GridCold,
        seed: 0,
        checks: false,
        traced: false,
        out: PathBuf::new(),
        spans: None,
        worker_bin: None,
    };
    let mut workload = None;
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} `{value}`"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => args.seed = number()?,
            "--checks" => args.checks = number()? != 0,
            "--traced" => args.traced = number()? != 0,
            "--out" => args.out = PathBuf::from(&value),
            "--spans" => args.spans = Some(PathBuf::from(&value)),
            "--worker-bin" => args.worker_bin = Some(PathBuf::from(&value)),
            "--spawned" => {
                let ns = value
                    .parse::<u128>()
                    .map_err(|_| format!("bad --spawned `{value}`"))?;
                let _ = util::SPAWNED_UNIX_NS.set(ns);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    if args.out.as_os_str().is_empty() {
        return Err("--out is required".into());
    }
    Ok(args)
}

fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("cannot create {}: {e}", args.out.display()))?;
    match (args.mode.as_str(), args.workload) {
        ("rep", Workload::GridCold | Workload::RepairStorm) => {
            local::run(args.workload, args.seed, args.checks, &args.out, report)
        }
        ("rep", Workload::FleetDrain) => {
            let worker = args
                .worker_bin
                .as_deref()
                .ok_or("fleet-drain needs --worker-bin")?;
            fleet::run(args.seed, args.checks, worker, &args.out, report)
        }
        ("drive", workload) => {
            let jobs = match workload {
                Workload::GridCold | Workload::FleetDrain => {
                    workload::jobs_of(&workload::grids(args.seed, false))
                }
                Workload::RepairStorm => workload::jobs_of(&workload::grids(args.seed, true)),
            };
            let spans = args
                .spans
                .clone()
                .unwrap_or_else(|| args.out.join("spans.jsonl"));
            drive::run(&jobs, args.traced, &spans, report)
        }
        (mode, _) => Err(format!("unknown mode `{mode}`")),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("lassi-perfbench: {message}");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    if let Err(message) = run(&args, &mut report) {
        report.fail(message);
    }
    println!("{}", report.to_json().to_compact());
}
