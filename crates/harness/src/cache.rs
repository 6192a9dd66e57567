//! Content-addressed scenario cache.
//!
//! A scenario's [`TranslationRecord`] is fully determined by the application
//! sources, the model fingerprint, the direction, the derived per-scenario
//! seed and the pipeline configuration — the pipeline is deterministic, so a
//! cached record is *exact*, not approximate. The cache key hashes all of
//! those with FNV-1a (hand-rolled: `DefaultHasher` is explicitly not stable
//! across Rust releases, and disk entries must outlive a toolchain bump —
//! a changed hash only costs a miss, a *reused* wrong hash would corrupt).
//!
//! Two backings share one interface: a process-local in-memory map, and an
//! optional on-disk layer (one JSON file per scenario) that lets repeated
//! sweep *invocations* skip already-computed scenarios. Hit/miss counters
//! prove the speedup (`sweep smoke` asserts a warm rerun is 100% hits).
//!
//! The map sits behind one (non-poisoning) `parking_lot::Mutex` that is only
//! ever held across a map operation and a refcount bump. Disk writes are
//! synchronous write-then-rename, outside the lock: a reader never sees a
//! torn file, an entry is on disk once [`ScenarioCache::store`] returns, and
//! a crash before that is just a future miss.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use lassi_core::TranslationRecord;
use lassi_hecbench::Machine;

use crate::codec::{record_from_json, record_to_json};
use crate::json;
use crate::scheduler::Job;

pub use lassi_hecbench::fnv1a64;

/// The content-addressed identity of one scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScenarioKey(pub u64);

impl ScenarioKey {
    /// Hex form used as the on-disk file stem.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Derive the cache key for a job from everything that determines its record,
/// including the [`Machine::fingerprint`] of the simulated platform every
/// pipeline runs on.
///
/// The leading version tag covers the *pipeline semantics* too: bump it when
/// a code change alters what a record would contain for identical inputs
/// (v2: the Sim-T tokenizer stopped gluing `.` into identifiers, shifting
/// similarity scores; v3: executions moved to the bytecode VM and the key
/// gained the engine token; v4: repair prompts render structured coded
/// diagnostics and records carry per-attempt diagnostic history), so stale
/// disk entries miss instead of resurfacing scores the current code would
/// never produce.
pub fn scenario_key(job: &Job) -> ScenarioKey {
    let config = &job.config;
    let canonical = format!(
        "v4;engine={};app={};cuda={:016x};omp={:016x};model={};dir={};seed={};msc={};runs={};\
         step={};hostop={:016x};startup={:016x};machine={:016x}",
        config.engine.label(),
        job.application.name,
        fnv1a64(job.application.cuda_source.as_bytes()),
        fnv1a64(job.application.omp_source.as_bytes()),
        job.model.fingerprint(),
        job.direction.slug(),
        job.scenario_seed(),
        config.max_self_corrections,
        config.timing_runs,
        config.run_config.step_limit,
        config.run_config.host_op_seconds.to_bits(),
        config.run_config.startup_seconds.to_bits(),
        Machine::a100().fingerprint(),
    );
    ScenarioKey(fnv1a64(canonical.as_bytes()))
}

/// A point-in-time copy of the counters (for per-pass deltas).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheSnapshot {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to a pipeline run.
    pub misses: u64,
    /// Records written into the cache.
    pub stores: u64,
}

impl CacheSnapshot {
    /// Hit fraction in `[0, 1]`; 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter-wise difference against an earlier snapshot.
    pub fn since(&self, earlier: CacheSnapshot) -> CacheSnapshot {
        CacheSnapshot {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            stores: self.stores - earlier.stores,
        }
    }
}

/// The scenario cache: an in-memory map, optionally backed by a directory of
/// `<key>.json` files. Records are held behind `Arc`s so deep clones (the
/// records carry the scenario's source strings) happen outside the lock.
#[derive(Default)]
pub struct ScenarioCache {
    dir: Option<PathBuf>,
    map: Mutex<HashMap<u64, Arc<TranslationRecord>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
}

impl ScenarioCache {
    /// Process-local cache with no persistence.
    pub fn in_memory() -> Self {
        ScenarioCache::default()
    }

    /// Disk-backed cache rooted at `dir` (created if missing). Entries
    /// survive across processes, which is what makes a second `sweep`
    /// invocation 100% hits.
    pub fn on_disk(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ScenarioCache {
            dir: Some(dir),
            ..ScenarioCache::default()
        })
    }

    /// The backing directory, if this cache persists to disk.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Look a scenario up, counting the hit or miss.
    pub fn lookup(&self, key: ScenarioKey) -> Option<TranslationRecord> {
        // Only the refcount bump happens under the lock; the deep clone the
        // caller receives is made after it is released.
        let resident = self.map.lock().get(&key.0).map(Arc::clone);
        if let Some(record) = resident {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some((*record).clone());
        }
        if let Some(record) = self.disk_lookup(key) {
            let shared = Arc::new(record);
            self.map.lock().insert(key.0, Arc::clone(&shared));
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some((*shared).clone());
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    fn disk_lookup(&self, key: ScenarioKey) -> Option<TranslationRecord> {
        let text = std::fs::read_to_string(self.entry_path(key)?).ok()?;
        // A corrupt or truncated entry is treated as a miss and will be
        // overwritten by the recomputed record.
        let value = json::parse(&text).ok()?;
        record_from_json(&value).ok()
    }

    /// Store a freshly computed record under its key: into the map (later
    /// lookups in this process hit), then — for a disk-backed cache — to
    /// `<key>.json` by write-then-rename, outside the lock. Each write goes
    /// through its own temporary file, so two stores of one key never
    /// rename a half-written file into place. Write failures are tolerated:
    /// a missing entry is just a future miss.
    pub fn store(&self, key: ScenarioKey, record: &TranslationRecord) {
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        self.stores.fetch_add(1, Ordering::Relaxed);
        self.map.lock().insert(key.0, Arc::new(record.clone()));
        if let Some(path) = self.entry_path(key) {
            let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
            let tmp = path.with_extension(format!("{}-{seq}.tmp", std::process::id()));
            if std::fs::write(&tmp, record_to_json(record).to_pretty()).is_ok() {
                let _ = std::fs::rename(&tmp, &path);
            }
        }
    }

    fn entry_path(&self, key: ScenarioKey) -> Option<PathBuf> {
        Some(self.dir.as_ref()?.join(format!("{}.json", key.hex())))
    }

    /// Current counter values. Each counter is exact, so the invariant
    /// `hits + misses == lookups` holds.
    pub fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::Job;
    use lassi_core::{Direction, PipelineConfig};
    use lassi_hecbench::application;
    use lassi_llm::gpt4;
    use std::sync::atomic::AtomicUsize;

    fn test_dir(label: &str) -> PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "lassi-cache-test-{}-{label}-{n}",
            std::process::id()
        ))
    }

    fn job(app: &str, msc: u32) -> Job {
        Job::new(
            application(app).unwrap(),
            gpt4(),
            Direction::CudaToOmp,
            PipelineConfig {
                max_self_corrections: msc,
                timing_runs: 1,
                ..PipelineConfig::default()
            },
        )
    }

    #[test]
    fn keys_separate_every_dimension() {
        let base = scenario_key(&job("layout", 40));
        assert_eq!(base, scenario_key(&job("layout", 40)), "stable");
        assert_ne!(base, scenario_key(&job("entropy", 40)), "application");
        assert_ne!(base, scenario_key(&job("layout", 10)), "config override");
        let mut other_dir = job("layout", 40);
        other_dir.direction = Direction::OmpToCuda;
        assert_ne!(base, scenario_key(&other_dir), "direction");
        let mut other_model = job("layout", 40);
        other_model.model.profile.p_compile_fault += 0.01;
        assert_ne!(base, scenario_key(&other_model), "model profile");
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn memory_cache_counts_hits_and_misses() {
        let cache = ScenarioCache::in_memory();
        let key = scenario_key(&job("layout", 40));
        assert!(cache.lookup(key).is_none());
        let record = job("layout", 40).run();
        cache.store(key, &record);
        assert_eq!(cache.lookup(key).as_ref(), Some(&record));
        let snap = cache.snapshot();
        assert_eq!((snap.hits, snap.misses, snap.stores), (1, 1, 1));
        assert!((snap.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn disk_cache_persists_across_instances() {
        let dir = test_dir("persist");
        let key = scenario_key(&job("entropy", 40));
        let record = job("entropy", 40).run();
        {
            let cache = ScenarioCache::on_disk(&dir).unwrap();
            cache.store(key, &record);
        }
        let fresh = ScenarioCache::on_disk(&dir).unwrap();
        assert_eq!(fresh.lookup(key).as_ref(), Some(&record));
        assert_eq!(fresh.snapshot().hits, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stores_are_visible_on_disk_when_store_returns() {
        let dir = test_dir("store");
        let cache = ScenarioCache::on_disk(&dir).unwrap();
        let key = scenario_key(&job("layout", 40));
        let record = job("layout", 40).run();
        cache.store(key, &record);
        // Without dropping `cache`, the entry must already be a complete
        // JSON file another cache instance can read.
        let fresh = ScenarioCache::on_disk(&dir).unwrap();
        assert_eq!(fresh.lookup(key).as_ref(), Some(&record));
        drop(cache);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_disk_entries_degrade_to_misses() {
        let dir = test_dir("corrupt");
        let cache = ScenarioCache::on_disk(&dir).unwrap();
        let key = scenario_key(&job("layout", 40));
        std::fs::write(dir.join(format!("{}.json", key.hex())), "{ not json").unwrap();
        assert!(cache.lookup(key).is_none());
        assert_eq!(cache.snapshot().misses, 1);
        drop(cache);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
