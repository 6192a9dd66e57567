//! `grid-cold` and `repair-storm`: paper grids through `Harness::submit` on
//! a fresh throwaway scenario cache, then `SweepGrid::write_artifact` and a
//! cache flush — what the `sweep` CLI does for one cold invocation.

use std::path::Path;
use std::time::Instant;

use lassi_harness::{ArtifactStore, Harness, HarnessOptions, JobOutput, ScenarioCache};

use crate::check;
use crate::util::{self, Report};
use crate::workload::{self, Workload};

/// Scenarios re-run on the reference interpreter when checks are on.
const REFERENCE_SAMPLE: usize = 2;

pub fn run(
    workload: Workload,
    seed: u64,
    checks: bool,
    out: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let workers = util::workers();
    let grids = workload::grids(seed, workload == Workload::RepairStorm);
    let jobs = workload::jobs_of(&grids);

    let cache = ScenarioCache::on_disk(out.join("cache"))
        .map_err(|e| format!("cannot create scenario cache: {e}"))?;
    let harness = Harness::new(HarnessOptions::default().with_workers(workers)).with_cache(cache);
    let store = ArtifactStore::new(out.join("artifacts"));
    report.metric("setup_s", util::since_spawn());

    util::cold_guard(report)?;
    let start_snapshot = harness.cache_snapshot();
    report.check(start_snapshot == Default::default(), || {
        format!("cold guard: scenario cache not empty at start ({start_snapshot:?})")
    });

    // Submission order is a seeded shuffle, so the few heavy scenarios land
    // anywhere in the batch and the completion-time percentiles follow the
    // batch's length rather than where its seed put them.
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    let mut rng = util::Rng::new(util::mix(seed ^ 0x5348_5546));
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let shuffled: Vec<_> = order.iter().map(|&i| jobs[i].clone()).collect();

    // ---------------------------------------------------------------- timed
    let steal = util::steal_seconds();
    let started = Instant::now();
    let mut outputs: Vec<JobOutput> = Vec::with_capacity(jobs.len());
    let mut done_ms = Vec::with_capacity(jobs.len());
    let drained = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        for mut output in harness.submit(shuffled) {
            done_ms.push(util::ms(started.elapsed()));
            output.index = order[output.index];
            outputs.push(output);
        }
    }));
    let drained_at = started.elapsed();
    let snapshot = harness.cache_snapshot();
    let mut per_grid: Vec<Vec<JobOutput>> = vec![Vec::new(); grids.len()];
    let grid_len = grids.first().map_or(1, |g| g.len());
    for output in &outputs {
        let mut local = output.clone();
        local.index = output.index % grid_len;
        per_grid[output.index / grid_len].push(local);
    }
    let write_started = Instant::now();
    for (i, grid) in grids.iter().enumerate() {
        if let Err(e) = grid.write_artifact(
            &store,
            &format!("grid-{i}"),
            true,
            &grid.jobs(),
            &per_grid[i],
            snapshot,
            &[],
        ) {
            report.fail(format!("artifact write for grid {i} failed: {e}"));
        }
    }
    let artifact_write = write_started.elapsed();
    let flush_started = Instant::now();
    harness.flush_cache();
    let flush = flush_started.elapsed();
    let wall = started.elapsed();
    // ---------------------------------------------------------- end timed
    report.metric("steal_s", util::steal_seconds() - steal);

    report.metric("bench.peak_rss_mb", util::peak_rss_mb(None));
    report.metric("scenarios", outputs.len() as f64);
    report.metric("timed_s", wall.as_secs_f64());
    report.sweep_ms = done_ms;

    report.attempted += jobs.len() as u64;
    if drained.is_err() {
        report.fail("a harness worker panicked");
    }
    let lost = jobs.len().saturating_sub(outputs.len());
    if lost > 0 {
        report.failed += lost as u64;
        report
            .errors
            .push(format!("{lost} of {} jobs lost", jobs.len()));
    }
    outputs.sort_by_key(|o| o.index);
    let records: Vec<_> = outputs.iter().map(|o| o.record.clone()).collect();
    let ordered = outputs.iter().enumerate().all(|(i, o)| o.index == i);
    report.check(ordered && records.len() == jobs.len(), || {
        "outputs do not cover every submitted job exactly once".into()
    });
    let hits = outputs.iter().filter(|o| o.from_cache).count() as u64;
    report.check(hits == 0, || {
        format!("cold pass served {hits} scenarios from the cache")
    });
    report.cross_check("scenario-cache hits", hits, snapshot.hits);
    report.cross_check(
        "scenario-cache misses",
        jobs.len() as u64 - hits,
        snapshot.misses,
    );
    for (i, grid) in grids.iter().enumerate() {
        let run_id = format!("grid-{i}");
        let expected = grid.group_by_cell(&grid.jobs(), &per_grid[i]);
        check::artifact_matches(&store, &run_id, &expected, report);
    }
    if checks {
        check::reference_sample(&jobs, &records, REFERENCE_SAMPLE, seed, report);
    }

    let rounds: u64 = records.iter().map(|r| r.self_corrections as u64).sum();
    let programs = lassi_core::progcache::report_stats();
    report.pin("core.repair_rounds", rounds);
    report.pin("runtime.vm_programs", programs.entries);
    report.pin("harness.scenario_cache_hits", hits);
    report.records_hash = Some(util::records_hash(&records));

    // Per-layer values this process can see from outside.
    report.metric("core.repair_rounds", rounds as f64);
    util::report_stage_seconds(report);
    util::report_memo_counters(report);
    let queue_wait: f64 = outputs.iter().map(|o| o.queue_seconds).sum();
    let job_ms: Vec<f64> = outputs.iter().map(|o| o.wall_seconds * 1e3).collect();
    let busy: f64 = outputs.iter().map(|o| o.wall_seconds).sum();
    report.metric("harness.queue_wait_s", queue_wait);
    report.metric("harness.job_p50_ms", util::percentile(&job_ms, 50.0));
    report.metric("harness.job_p95_ms", util::percentile(&job_ms, 95.0));
    report.metric(
        "harness.worker_busy_ratio",
        busy / (workers as f64 * drained_at.as_secs_f64()),
    );
    report.metric("harness.scenario_cache_hit_ratio", snapshot.hit_rate());
    report.metric("harness.cache_flush_s", flush.as_secs_f64());
    report.metric("harness.artifact_write_s", artifact_write.as_secs_f64());
    Ok(())
}
