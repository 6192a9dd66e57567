//! Multi-client correctness: one shared `Harness` + `ScenarioCache` used by
//! N threads submitting overlapping grids concurrently (the HTTP service's
//! exact usage pattern) must produce record sets identical to a serial run,
//! with cache counters that account for every lookup.

use std::sync::Arc;
use std::thread;

use lassi_core::{Direction, PipelineConfig};
use lassi_harness::{Harness, HarnessOptions, Job, ScenarioCache, SweepGrid};
use lassi_hecbench::{application, Application};
use lassi_llm::{gpt4, ModelSpec};

fn config() -> PipelineConfig {
    PipelineConfig {
        timing_runs: 1,
        ..PipelineConfig::default()
    }
}

/// Client `i`'s grid: a two-application window starting at `i`, wrapping
/// around a four-application list — adjacent clients overlap on one app.
fn client_jobs(i: usize) -> Vec<Job> {
    let names = ["layout", "entropy", "bsearch", "colorwheel"];
    let apps: Vec<Application> = (0..2)
        .map(|k| application(names[(i + k) % names.len()]).expect("known app"))
        .collect();
    let models: Vec<ModelSpec> = vec![gpt4()];
    SweepGrid::single(config(), models, apps, vec![Direction::CudaToOmp]).jobs()
}

#[test]
fn concurrent_clients_match_serial_runs_and_counters_add_up() {
    const CLIENTS: usize = 4;

    // Serial baseline: every client's grid, run without any harness or
    // cache in the picture.
    let serial: Vec<Vec<_>> = (0..CLIENTS)
        .map(|i| client_jobs(i).iter().map(Job::run).collect())
        .collect();

    let dir = std::env::temp_dir().join(format!("lassi-concurrent-clients-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let harness = Arc::new(
        Harness::new(HarnessOptions::default().with_workers(CLIENTS))
            .with_cache(ScenarioCache::on_disk(&dir).expect("cache dir")),
    );

    let concurrent: Vec<Vec<_>> = {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let harness = Arc::clone(&harness);
                thread::spawn(move || harness.submit(client_jobs(i)).collect_ordered())
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    };

    // Identical records, per client, in submission order.
    for (i, (serial_records, concurrent_records)) in serial.iter().zip(&concurrent).enumerate() {
        assert_eq!(
            serial_records, concurrent_records,
            "client {i}'s concurrent records differ from its serial run"
        );
    }

    // Counter bookkeeping: every submitted job was exactly one hit or one
    // miss, every miss was stored, and every distinct scenario missed at
    // least once (two clients racing the same cold key may both miss, so
    // misses can exceed the distinct count but never the total).
    let total: u64 = (0..CLIENTS).map(|i| client_jobs(i).len() as u64).sum();
    let distinct = {
        let mut keys: Vec<u64> = (0..CLIENTS)
            .flat_map(|i| {
                client_jobs(i)
                    .iter()
                    .map(|j| j.cache_key().0)
                    .collect::<Vec<_>>()
            })
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys.len() as u64
    };
    let snap = harness.cache_snapshot();
    assert_eq!(
        snap.hits + snap.misses,
        total,
        "every lookup must be counted exactly once"
    );
    assert_eq!(snap.stores, snap.misses, "every miss is stored");
    assert!(
        snap.misses >= distinct && snap.misses <= total,
        "misses {} outside [{distinct}, {total}]",
        snap.misses
    );

    // A warm resubmission from yet another client is pure hits and returns
    // the same records again.
    let before = harness.cache_snapshot();
    let warm = harness.submit(client_jobs(0)).collect_ordered();
    assert_eq!(warm, serial[0]);
    let delta_misses = harness.cache_snapshot().misses - before.misses;
    assert_eq!(delta_misses, 0, "warm client must be served from cache");

    drop(harness);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
