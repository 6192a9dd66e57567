//! Content-addressed scenario cache.
//!
//! A scenario's [`TranslationRecord`] is fully determined by the code that
//! computes it, the application sources, the model fingerprint, the
//! direction, the derived per-scenario seed and the pipeline configuration —
//! the pipeline is deterministic, so a cached record is *exact*, not
//! approximate. The cache key hashes all of those with FNV-1a (hand-rolled:
//! `DefaultHasher` is explicitly not stable across Rust releases, and disk
//! entries must outlive a toolchain bump — a changed hash only costs a miss,
//! a *reused* wrong hash would corrupt). The code enters as the build's
//! source fingerprint (`build.rs`), so an edit to any crate that can shape a
//! record misses instead of replaying what the old code computed.
//!
//! The cache is its directory: one `<key>.json` file per scenario and no
//! resident copy, so its memory use does not grow with the number of
//! entries, repeated sweep *invocations* skip already-computed scenarios,
//! and deleting an entry file takes effect on the next lookup. Hit/miss
//! counters prove the speedup (`sweep smoke` asserts a warm rerun is 100%
//! hits). Stores are synchronous write-then-rename and never fsync: a reader
//! never sees a torn file, and an entry survives a process crash once
//! [`ScenarioCache::store`] returns. A power loss may leave an empty or torn
//! entry, which [`ScenarioCache::lookup`] reads as a miss.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use lassi_core::TranslationRecord;

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

/// Derive the cache key for a job from everything that determines its
/// record: the source fingerprint, the application sources, the model
/// fingerprint, the direction, the derived seed and the configuration but
/// its engine, whose two settings give bit-identical reports.
pub fn scenario_key(job: &Job) -> ScenarioKey {
    let config = &job.config;
    let canonical = format!(
        "src={};app={};cuda={:016x};omp={:016x};model={};dir={};seed={};msc={};runs={};\
         step={};hostop={:016x};startup={:016x}",
        env!("LASSI_SOURCE_FINGERPRINT"),
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

/// The scenario cache: a directory of `<key>.json` files plus exact
/// hit/miss/store counters.
pub struct ScenarioCache {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
}

impl ScenarioCache {
    /// Cache rooted at `dir` (created if missing). Entries survive across
    /// processes, which is what makes a second `sweep` invocation 100% hits.
    pub fn on_disk(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ScenarioCache {
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
        })
    }

    /// The backing directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Look a scenario up, counting the hit or miss. A missing, corrupt or
    /// truncated entry is a miss, and will be overwritten by the recomputed
    /// record.
    pub fn lookup(&self, key: ScenarioKey) -> Option<TranslationRecord> {
        let record = std::fs::read_to_string(self.entry_path(key))
            .ok()
            .and_then(|text| json::parse(&text).ok())
            .and_then(|value| record_from_json(&value).ok());
        let counter = if record.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        record
    }

    /// Store a freshly computed record under its key, as `<key>.json` by
    /// write-then-rename. Each write goes through its own temporary file,
    /// so two stores of one key never rename a half-written file into
    /// place, and a failed write or rename removes it again. Failures are
    /// otherwise tolerated: a missing entry is just a future miss.
    pub fn store(&self, key: ScenarioKey, record: &TranslationRecord) {
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        self.stores.fetch_add(1, Ordering::Relaxed);
        let path = self.entry_path(key);
        let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = path.with_extension(format!("{}-{seq}.tmp", std::process::id()));
        let written = std::fs::write(&tmp, record_to_json(record).to_pretty())
            .and_then(|()| std::fs::rename(&tmp, &path));
        if written.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    fn entry_path(&self, key: ScenarioKey) -> PathBuf {
        self.dir.join(format!("{}.json", key.hex()))
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
    fn both_engines_share_one_key() {
        let mut reference = job("layout", 40);
        reference.config.engine = lassi_core::ExecEngine::Reference;
        assert_eq!(scenario_key(&job("layout", 40)), scenario_key(&reference));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn cache_counts_hits_and_misses() {
        let dir = test_dir("count");
        let cache = ScenarioCache::on_disk(&dir).unwrap();
        let key = scenario_key(&job("layout", 40));
        assert!(cache.lookup(key).is_none());
        let record = job("layout", 40).run();
        cache.store(key, &record);
        assert_eq!(cache.lookup(key).as_ref(), Some(&record));
        let snap = cache.snapshot();
        assert_eq!((snap.hits, snap.misses, snap.stores), (1, 1, 1));
        assert!((snap.hit_rate() - 0.5).abs() < 1e-12);
        drop(cache);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn removing_an_entry_file_makes_the_next_lookup_miss() {
        let dir = test_dir("remove");
        let cache = ScenarioCache::on_disk(&dir).unwrap();
        let key = scenario_key(&job("layout", 40));
        cache.store(key, &job("layout", 40).run());
        assert!(cache.lookup(key).is_some());
        std::fs::remove_file(dir.join(format!("{}.json", key.hex()))).unwrap();
        assert!(
            cache.lookup(key).is_none(),
            "the directory is the only copy"
        );
        let snap = cache.snapshot();
        assert_eq!((snap.hits, snap.misses), (1, 1));
        drop(cache);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_stores_leave_no_temporary_file() {
        let dir = test_dir("tmp");
        let cache = ScenarioCache::on_disk(&dir).unwrap();
        let key = scenario_key(&job("layout", 40));
        // A non-empty directory where the entry belongs: the write of the
        // temporary file succeeds, the rename over it fails.
        let entry = dir.join(format!("{}.json", key.hex()));
        std::fs::create_dir(&entry).unwrap();
        std::fs::write(entry.join("occupied"), "x").unwrap();
        cache.store(key, &job("layout", 40).run());
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|name| name.to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "leaked {leftovers:?}");
        assert!(cache.lookup(key).is_none());
        drop(cache);
        std::fs::remove_dir_all(&dir).unwrap();
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
