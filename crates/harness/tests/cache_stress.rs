//! Stress the scenario cache: N threads hammering M keys concurrently must
//! keep the counter invariants exact (`hits + misses == lookups`,
//! `stores == misses` under store-on-miss), and concurrent stores must each
//! leave a complete file on disk that a fresh cache instance reads back —
//! without dropping the original.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

use lassi_core::{Direction, PipelineConfig, TranslationRecord};
use lassi_harness::{Job, ScenarioCache, ScenarioKey};
use lassi_hecbench::application;
use lassi_llm::gpt4;

const THREADS: usize = 8;
const KEYS: usize = 64;
const ROUNDS: usize = 4;

fn test_dir(label: &str) -> PathBuf {
    std::env::temp_dir().join(format!("lassi-cache-stress-{}-{label}", std::process::id()))
}

fn sample_record() -> TranslationRecord {
    Job::new(
        application("layout").expect("layout exists"),
        gpt4(),
        Direction::CudaToOmp,
        PipelineConfig {
            timing_runs: 1,
            ..PipelineConfig::default()
        },
    )
    .run()
}

/// Synthetic, distinct keys.
fn keys() -> Vec<ScenarioKey> {
    (0..KEYS as u64)
        .map(|i| ScenarioKey((i << 32) | i))
        .collect()
}

#[test]
fn concurrent_threads_keep_counters_exact() {
    let dir = test_dir("counters");
    let _ = std::fs::remove_dir_all(&dir);
    let cache = Arc::new(ScenarioCache::on_disk(&dir).expect("cache dir"));
    let record = sample_record();
    let lookups = Arc::new(AtomicU64::new(0));

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let cache = Arc::clone(&cache);
            let record = record.clone();
            let lookups = Arc::clone(&lookups);
            thread::spawn(move || {
                // Each thread walks the key set from a different offset so
                // the cache sees genuinely interleaved traffic, storing on
                // miss exactly like a harness worker.
                let keys = keys();
                for round in 0..ROUNDS {
                    for i in 0..KEYS {
                        let key = keys[(i + t + round) % KEYS];
                        lookups.fetch_add(1, Ordering::Relaxed);
                        if cache.lookup(key).is_none() {
                            cache.store(key, &record);
                        }
                    }
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("stress thread");
    }

    let snap = cache.snapshot();
    let total = lookups.load(Ordering::Relaxed);
    assert_eq!(total, (THREADS * ROUNDS * KEYS) as u64);
    assert_eq!(
        snap.hits + snap.misses,
        total,
        "every lookup is exactly one hit or one miss"
    );
    assert_eq!(snap.stores, snap.misses, "store-on-miss stores every miss");
    // Every distinct key missed at least once; racing threads may both miss
    // the same cold key, but never more often than once per thread.
    assert!(snap.misses >= KEYS as u64);
    assert!(snap.misses <= (KEYS * THREADS) as u64);
    // After the stress, every key is on disk: a sweep re-walk is all hits.
    let before = cache.snapshot();
    for key in keys() {
        assert!(cache.lookup(key).is_some());
    }
    let delta = cache.snapshot().since(before);
    assert_eq!((delta.hits, delta.misses), (KEYS as u64, 0));

    drop(cache);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn concurrent_stores_are_complete_files() {
    let dir = test_dir("files");
    let _ = std::fs::remove_dir_all(&dir);
    let cache = Arc::new(ScenarioCache::on_disk(&dir).expect("cache dir"));
    let record = sample_record();

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let cache = Arc::clone(&cache);
            let record = record.clone();
            thread::spawn(move || {
                for key in keys()
                    .into_iter()
                    .skip(t * (KEYS / THREADS))
                    .take(KEYS / THREADS)
                {
                    cache.store(key, &record);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("store thread");
    }

    // Stores are synchronous: every file is complete once the threads join.
    let files = std::fs::read_dir(&dir)
        .expect("read cache dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
        .count();
    assert_eq!(files, KEYS, "every store is a complete file");

    // A fresh instance (separate process stand-in) reads them all back.
    let fresh = ScenarioCache::on_disk(&dir).expect("fresh cache");
    for key in keys() {
        assert_eq!(fresh.lookup(key).as_ref(), Some(&record));
    }
    let snap = fresh.snapshot();
    assert_eq!((snap.hits, snap.misses), (KEYS as u64, 0));

    drop(fresh);
    drop(cache);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
