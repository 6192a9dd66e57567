//! The fleet drain of `grid-cold`'s traced run (`rep --workload
//! fleet-drain`): `grid-cold`'s grids submitted to an in-process server
//! with as many of the repository's `worker` processes registered as
//! `grid-cold` has harness workers, so every scenario goes through
//! `harness::lease` and `/v1/work/*` and each worker pays its own cold
//! memos. It is also the only path that reads the server's HTTP surface:
//! submissions, run polls, record-set reads and a `/v1/metrics` scrape.
//! Not a workload of its own: with the server, a worker process and the
//! poller all busy it moved too much with load on a shared host.

use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use lassi_core::TranslationRecord;
use lassi_harness::{Harness, HarnessOptions, Json};

use crate::check;
use crate::service::{self, Service, Session};
use crate::util::{self, Report};
use crate::workload;

/// Poll interval for run progress while the fleet drains.
const POLL_INTERVAL: Duration = Duration::from_millis(10);

/// Jobs per lease (the worker's default).
const LEASE_CAPACITY: &str = "4";

/// Scenarios re-run on the reference interpreter when checks are on.
const REFERENCE_SAMPLE: usize = 1;

/// The worker processes; killed and reaped on drop, on every exit path.
struct Fleet(Vec<Child>);

impl Fleet {
    fn spawn(worker_bin: &Path, addr: &str, count: usize) -> Result<Fleet, String> {
        let mut fleet = Fleet(Vec::with_capacity(count));
        for w in 0..count {
            let child = Command::new(worker_bin)
                .args(["--addr", addr, "--worker-id", &format!("bench-w{w}")])
                .args(["--capacity", LEASE_CAPACITY, "--poll-ms", "10"])
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .map_err(|e| format!("cannot spawn {}: {e}", worker_bin.display()))?;
            fleet.0.push(child);
        }
        Ok(fleet)
    }

    fn peak_rss_mb(&self) -> f64 {
        self.0
            .iter()
            .map(|c| util::peak_rss_mb(Some(c.id())))
            .fold(0.0, f64::max)
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

pub fn run(
    seed: u64,
    checks: bool,
    worker_bin: &Path,
    out: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let workers = util::workers();
    let grids = workload::grids(seed, false);

    let mut service = Service::start(out, workers)?;
    let fleet = Fleet::spawn(worker_bin, &service.addr, workers)?;
    let state = std::sync::Arc::clone(&service.state);
    let registered = service::wait_until(Duration::from_secs(30), || {
        state.fleet_snapshot().workers_active >= workers as u64
    });
    if !registered {
        return Err(format!("{workers} workers did not register"));
    }
    report.metric("setup_s", util::since_spawn());
    util::cold_guard(report)?;

    // ---------------------------------------------------------------- timed
    let steal = util::steal_seconds();
    let started = Instant::now();
    let mut session = Session::new(&service.addr);
    let mut runs = Vec::with_capacity(grids.len());
    let mut submit_ms = Vec::with_capacity(grids.len());
    for (i, grid) in grids.iter().enumerate() {
        let id = format!("fleet-{i}");
        let body = format!(r#"{{"seed": {}, "run_id": "{id}"}}"#, grid.base.seed);
        report.attempted += 1;
        let submitted = Instant::now();
        match service::submit(&mut session, &id, &body) {
            Ok(()) => runs.push((id, 0u64, None::<Json>)),
            Err(e) => report.fail(e),
        }
        submit_ms.push(util::ms(submitted.elapsed()));
    }
    let mut polls = 0u64;
    // Per-scenario completion times, from the runs' progress counters.
    let mut done_ms = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(120);
    while runs.iter().any(|(_, _, view)| view.is_none()) && Instant::now() < deadline {
        for (id, completed, view) in runs.iter_mut().filter(|r| r.2.is_none()) {
            report.attempted += 1;
            polls += 1;
            match service::run_view(&mut session, id) {
                Ok(current) => {
                    let now = current
                        .get("progress")
                        .and_then(|p| p.get("completed"))
                        .and_then(Json::as_u64)
                        .unwrap_or(0);
                    let at = util::ms(started.elapsed());
                    done_ms.extend((*completed..now).map(|_| at));
                    *completed = now;
                    if service::is_done(&current) {
                        *view = Some(current);
                    }
                }
                Err(e) => {
                    report.fail(e);
                    *view = Some(Json::Null);
                }
            }
        }
        std::thread::sleep(POLL_INTERVAL);
    }
    let wall = started.elapsed();
    // ---------------------------------------------------------- end timed
    report.metric("steal_s", util::steal_seconds() - steal);

    report.metric(
        "bench.peak_rss_mb",
        util::peak_rss_mb(None).max(fleet.peak_rss_mb()),
    );
    let scenarios: usize = grids.iter().map(|g| g.len()).sum();
    report.attempted += scenarios as u64;
    let finished = runs
        .iter()
        .filter(|r| r.2.as_ref().is_some_and(service::is_done))
        .count();
    if finished < grids.len() {
        report.failed += ((grids.len() - finished) * grids[0].len()) as u64;
        report.errors.push(format!(
            "{} of {} fleet runs did not finish",
            grids.len() - finished,
            grids.len()
        ));
    }
    report.metric("scenarios", done_ms.len() as f64);
    report.metric("timed_s", wall.as_secs_f64());
    report.sweep_ms = done_ms;

    let scraped = Instant::now();
    let scrape = service
        .get("/v1/metrics")
        .map(|r| r.text())
        .unwrap_or_default();
    report.metric("server.metrics_scrape_ms", util::ms(scraped.elapsed()));
    report.metric("server.submit_p50_ms", util::percentile(&submit_ms, 50.0));
    report.metric(
        "server.polls_per_sweep",
        polls as f64 / grids.len().max(1) as f64,
    );
    let fleet_count = |name: &str| -> u64 {
        runs.iter()
            .filter_map(|(_, _, view)| view.as_ref()?.get("fleet")?.get(name)?.as_u64())
            .sum()
    };
    let leases = fleet_count("leases_granted");
    let snapshot = state.fleet_snapshot();
    report.cross_check(
        "lassi_leases_granted_total",
        leases,
        service::scrape_sum(&scrape, "lassi_leases_granted_total") as u64,
    );
    report.cross_check(
        "lassi_remote_records_accepted_total",
        scenarios as u64,
        service::scrape_sum(&scrape, "lassi_remote_records_accepted_total") as u64,
    );
    report.metric("fleet.leases_granted", snapshot.leases_granted as f64);
    report.metric("fleet.heartbeats", snapshot.heartbeats as f64);
    report.metric("fleet.jobs_requeued", snapshot.jobs_requeued as f64);
    report.metric(
        "fleet.duplicate_completions",
        snapshot.duplicate_completions as f64,
    );
    report.metric("fleet.remote_records", snapshot.records_accepted as f64);
    report.metric(
        "fleet.lease_handler_s",
        service::handler_seconds("/v1/work/lease"),
    );
    report.metric(
        "fleet.complete_handler_s",
        service::handler_seconds("/v1/work/complete"),
    );
    util::report_stage_seconds(report);
    util::report_memo_counters(report);
    drop(fleet);

    // Every record set read over HTTP must equal its artifact file on disk;
    // the artifact's record sets, concatenated in cell order, are the
    // records in job order.
    let mut read_ms = Vec::new();
    let mut remote: Vec<TranslationRecord> = Vec::with_capacity(scenarios);
    for (grid, (id, _, _)) in grids.iter().zip(&runs) {
        let artifact = match state.store().load_run(id) {
            Ok(artifact) => artifact,
            Err(e) => {
                report.fail(format!("artifact {id} does not load: {e}"));
                continue;
            }
        };
        for cell in grid.cells() {
            let set = cell.slug();
            let read = Instant::now();
            let fetched = session.send("GET", &format!("/v1/runs/{id}/records/{set}"), None);
            read_ms.push(util::ms(read.elapsed()));
            let disk = std::fs::read(
                state
                    .store()
                    .run_dir(id)
                    .join(format!("records-{set}.json")),
            )
            .unwrap_or_default();
            report.check(
                matches!(&fetched, Ok(resp) if resp.is_success() && resp.body == disk),
                || format!("GET records of {id}/{set} differs from its artifact on disk"),
            );
            match artifact.records(&set) {
                Ok(records) => remote.extend(records),
                Err(e) => report.fail(format!("artifact {id}/{set}: {e}")),
            }
        }
    }
    report.metric("server.read_p95_ms", util::percentile(&read_ms, 95.0));
    for (route, suffix) in service::ROUTES {
        report.metric(
            format!("server.handler_s.{suffix}"),
            service::handler_seconds(route),
        );
    }
    service.stop()?;
    report.records_hash = Some(util::records_hash(&remote));
    report.pin("fleet.leases_granted", leases);
    let rounds: u64 = remote.iter().map(|r| r.self_corrections as u64).sum();
    report.pin("core.repair_rounds", rounds);
    report.metric("core.repair_rounds", rounds as f64);
    if !checks {
        return Ok(());
    }
    // The fleet's artifact must equal a local-pool run of the same grids.
    // The local run also gives the remote/local throughput ratio; this
    // process ran no scenario yet, so its memos are as cold as the fleet's.
    let jobs = workload::jobs_of(&grids);
    let pool = Harness::new(HarnessOptions::default().with_workers(workers));
    let local_started = Instant::now();
    let local = pool.submit(jobs.clone()).collect_ordered();
    let local_sps = local.len() as f64 / local_started.elapsed().as_secs_f64();
    report.metric(
        "fleet.remote_to_local_ratio",
        (scenarios as f64 / wall.as_secs_f64()) / local_sps,
    );
    check::same_records("fleet artifact vs local pool", &local, &remote, report);
    check::reference_sample(&jobs, &local, REFERENCE_SAMPLE, seed, report);
    Ok(())
}
