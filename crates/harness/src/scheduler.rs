//! The experiment service: a worker pool that runs a submitted job list,
//! streaming [`TranslationRecord`]s back as scenarios complete.
//!
//! A [`Job`] is one (application × model × direction × config) scenario —
//! the same unit [`lassi_core::run_scenario`] executes. [`Harness::submit`]
//! shares the job list with its workers, and each worker claims the next
//! unclaimed index, so jobs start in submission order. A worker consults
//! the optional [`ScenarioCache`] before running the pipeline, and completed
//! [`JobOutput`]s arrive on a channel in completion order with per-job
//! wall-clock timing split into queue wait (submission → claim) and
//! execution (claim → record). Submission order is restored by
//! [`JobStream::collect_ordered`], so sweeps render tables identically to
//! a sequential [`lassi_core::run_scenario`] loop. Cancellation stops
//! further claims and lets in-flight scenarios finish. Every completion
//! feeds the process-wide metrics registry (`lassi_jobs_completed_total`,
//! `lassi_job_queue_wait_seconds`, `lassi_job_execute_seconds`).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Instant;

use lassi_core::{run_scenario, Direction, PipelineConfig, TranslationRecord};
use lassi_hecbench::Application;
use lassi_llm::ModelSpec;

use crate::cache::{scenario_key, CacheSnapshot, ScenarioCache, ScenarioKey};
use crate::grid::SweepGrid;

/// One schedulable scenario.
#[derive(Debug, Clone)]
pub struct Job {
    /// The benchmark application.
    pub application: Application,
    /// The simulated model.
    pub model: ModelSpec,
    /// Translation direction.
    pub direction: Direction,
    /// Full pipeline configuration (grid sweeps override fields per job).
    pub config: PipelineConfig,
}

impl Job {
    /// Build a job.
    pub fn new(
        application: Application,
        model: ModelSpec,
        direction: Direction,
        config: PipelineConfig,
    ) -> Job {
        Job {
            application,
            model,
            direction,
            config,
        }
    }

    /// The deterministic seed this job's pipeline instance will use.
    pub fn scenario_seed(&self) -> u64 {
        self.config
            .model_scenario_seed(self.model.name, self.application.name, self.direction)
    }

    /// The content-addressed cache key.
    pub fn cache_key(&self) -> ScenarioKey {
        scenario_key(self)
    }

    /// Run the scenario synchronously (what a worker does on a cache miss).
    pub fn run(&self) -> TranslationRecord {
        run_scenario(&self.model, &self.application, self.direction, &self.config)
    }
}

/// A completed job, streamed back to the submitter.
#[derive(Debug, Clone)]
pub struct JobOutput {
    /// Submission index (0-based), for re-establishing submission order.
    pub index: usize,
    /// The job's direction (handy when one stream mixes directions).
    pub direction: Direction,
    /// The scenario record.
    pub record: TranslationRecord,
    /// Wall-clock seconds this job took on its worker (cache hits ~0).
    pub wall_seconds: f64,
    /// Seconds from the job's submission until a worker claimed it.
    pub queue_seconds: f64,
    /// True when the record came from the scenario cache.
    pub from_cache: bool,
}

/// Tuning knobs for the service.
#[derive(Debug, Clone)]
pub struct HarnessOptions {
    /// Worker threads. Defaults to `available_parallelism`; a submission
    /// never starts more workers than it has jobs.
    pub workers: usize,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        let workers = thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        HarnessOptions { workers }
    }
}

impl HarnessOptions {
    /// Override the worker count (0 means "default").
    pub fn with_workers(mut self, workers: usize) -> Self {
        if workers > 0 {
            self.workers = workers;
        }
        self
    }
}

/// The scheduler's handles into the process-wide metrics registry,
/// registered once per submission and cloned into every worker (handles
/// are `Arc`s over atomics, so recording is lock-free on the hot path).
#[derive(Clone)]
struct SchedulerMetrics {
    queue_wait: lassi_obs::Histogram,
    execute: lassi_obs::Histogram,
    completed_hit: lassi_obs::Counter,
    completed_run: lassi_obs::Counter,
}

impl SchedulerMetrics {
    fn register() -> SchedulerMetrics {
        let registry = lassi_obs::global();
        SchedulerMetrics {
            queue_wait: registry.histogram(
                "lassi_job_queue_wait_seconds",
                "Time from a job's submission until a worker claimed it.",
                &[],
                lassi_obs::LATENCY_SECONDS,
            ),
            execute: registry.histogram(
                "lassi_job_execute_seconds",
                "Time a worker spent producing a job's record (cache hits included).",
                &[],
                lassi_obs::LATENCY_SECONDS,
            ),
            completed_hit: registry.counter(
                "lassi_jobs_completed_total",
                "Completed scheduler jobs, by cache provenance.",
                &[("result", "cache_hit")],
            ),
            completed_run: registry.counter(
                "lassi_jobs_completed_total",
                "Completed scheduler jobs, by cache provenance.",
                &[("result", "executed")],
            ),
        }
    }

    fn record(&self, queue_seconds: f64, wall_seconds: f64, from_cache: bool) {
        self.queue_wait.observe(queue_seconds);
        self.execute.observe(wall_seconds);
        if from_cache {
            self.completed_hit.inc();
        } else {
            self.completed_run.inc();
        }
    }
}

/// Cooperative cancellation handle shared by a stream and its workers: the
/// only signal that stops a submission early.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// Request cancellation: unclaimed jobs never start, in-flight jobs
    /// finish.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// The experiment service: owns the worker configuration and an optional
/// shared scenario cache.
pub struct Harness {
    options: HarnessOptions,
    cache: Option<Arc<ScenarioCache>>,
}

impl Default for Harness {
    fn default() -> Self {
        Harness::new(HarnessOptions::default())
    }
}

impl Harness {
    /// A harness with explicit options and no cache.
    pub fn new(options: HarnessOptions) -> Self {
        Harness {
            options,
            cache: None,
        }
    }

    /// Attach a scenario cache (shared by all subsequent submissions).
    pub fn with_cache(mut self, cache: ScenarioCache) -> Self {
        self.cache = Some(Arc::new(cache));
        self
    }

    /// The attached cache, if any.
    pub fn cache(&self) -> Option<&ScenarioCache> {
        self.cache.as_deref()
    }

    /// Cache counters, defaulting to zeros when no cache is attached.
    pub fn cache_snapshot(&self) -> CacheSnapshot {
        self.cache
            .as_deref()
            .map(ScenarioCache::snapshot)
            .unwrap_or_default()
    }

    /// A no-op: cache stores reach disk before [`ScenarioCache::store`]
    /// returns. Kept only because the benchmark under `perfbench/` still
    /// calls it.
    pub fn flush_cache(&self) {}

    /// Submit a batch of jobs and stream their outputs as they complete.
    pub fn submit(&self, jobs: Vec<Job>) -> JobStream {
        let submitted = Instant::now();
        let jobs: Arc<[Job]> = jobs.into();
        let total = jobs.len();
        let next = Arc::new(AtomicUsize::new(0));
        let cancel = CancelToken::default();
        let (tx, rx) = mpsc::channel::<JobOutput>();
        let metrics = SchedulerMetrics::register();

        // Never spawn more workers than there are jobs: a warm two-scenario
        // submission on a many-core service must not pay dozens of thread
        // spawns for threads that would find nothing to claim.
        let workers = self.options.workers.max(1).min(total);
        let handles = (0..workers)
            .map(|_| {
                let jobs = Arc::clone(&jobs);
                let next = Arc::clone(&next);
                let cancel = cancel.clone();
                let cache = self.cache.clone();
                let tx = tx.clone();
                let metrics = metrics.clone();
                thread::spawn(move || {
                    while !cancel.is_cancelled() {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(index) else {
                            break;
                        };
                        let started = Instant::now();
                        let queue_seconds = (started - submitted).as_secs_f64();
                        let (record, from_cache) = run_cached(job, cache.as_deref());
                        let wall_seconds = started.elapsed().as_secs_f64();
                        metrics.record(queue_seconds, wall_seconds, from_cache);
                        let output = JobOutput {
                            index,
                            direction: job.direction,
                            record,
                            wall_seconds,
                            queue_seconds,
                            from_cache,
                        };
                        if tx.send(output).is_err() {
                            break;
                        }
                    }
                })
            })
            .collect();

        JobStream {
            rx,
            cancel,
            handles,
            total,
        }
    }

    /// Convenience: run one full direction sweep (the Table VI/VII shape)
    /// through the scheduler and return records in submission order.
    pub fn run_direction_with(
        &self,
        direction: Direction,
        config: &PipelineConfig,
        models: &[ModelSpec],
        apps: &[Application],
    ) -> Vec<TranslationRecord> {
        let grid = SweepGrid::single(
            config.clone(),
            models.to_vec(),
            apps.to_vec(),
            vec![direction],
        );
        self.submit(grid.jobs()).collect_ordered()
    }
}

/// A job's record, and whether it came from `cache`: a miss runs the
/// pipeline and stores the result.
fn run_cached(job: &Job, cache: Option<&ScenarioCache>) -> (TranslationRecord, bool) {
    let Some(cache) = cache else {
        return (job.run(), false);
    };
    let key = job.cache_key();
    if let Some(record) = cache.lookup(key) {
        return (record, true);
    }
    let record = job.run();
    cache.store(key, &record);
    (record, false)
}

/// A stream of job outputs in completion order. Iterate it for streaming
/// consumption, or use [`JobStream::collect_ordered`] for submission order.
/// Dropping the stream early cancels the jobs no worker has claimed yet.
pub struct JobStream {
    rx: mpsc::Receiver<JobOutput>,
    cancel: CancelToken,
    handles: Vec<thread::JoinHandle<()>>,
    total: usize,
}

impl JobStream {
    /// How many jobs were submitted.
    pub fn total(&self) -> usize {
        self.total
    }

    /// A handle that cancels this stream from another thread.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Cancel: unclaimed jobs never start; in-flight jobs still produce
    /// outputs.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Drain the stream and return the outputs sorted back into submission
    /// order (completion order is nondeterministic under concurrency).
    ///
    /// Panics if a worker panicked (re-raising its payload) or if a
    /// non-cancelled stream came up short — a silently missing record must
    /// not end up rendered as a complete table.
    pub fn collect_outputs(mut self) -> Vec<JobOutput> {
        let mut outputs: Vec<JobOutput> = Vec::with_capacity(self.total);
        while let Ok(output) = self.rx.recv() {
            outputs.push(output);
        }
        // The channel only closes once every worker is gone.
        self.join_workers_propagating();
        if !self.cancel.is_cancelled() && outputs.len() != self.total {
            panic!(
                "harness lost {} of {} job outputs without a cancellation",
                self.total - outputs.len(),
                self.total
            );
        }
        outputs.sort_by_key(|o| o.index);
        outputs
    }

    /// Drain the stream into submission-ordered records.
    pub fn collect_ordered(self) -> Vec<TranslationRecord> {
        self.collect_outputs()
            .into_iter()
            .map(|o| o.record)
            .collect()
    }

    /// Join everything, re-raising the first worker panic (if any).
    fn join_workers_propagating(&mut self) {
        let mut panic_payload = None;
        for handle in self.handles.drain(..) {
            if let Err(payload) = handle.join() {
                panic_payload.get_or_insert(payload);
            }
        }
        if let Some(payload) = panic_payload {
            std::panic::resume_unwind(payload);
        }
    }

    /// Join everything, swallowing panics (the drop path must not panic).
    fn join_workers_quietly(&mut self) {
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Iterator for JobStream {
    type Item = JobOutput;

    fn next(&mut self) -> Option<JobOutput> {
        match self.rx.recv() {
            Ok(output) => Some(output),
            Err(_) => {
                self.join_workers_propagating();
                None
            }
        }
    }
}

impl Drop for JobStream {
    fn drop(&mut self) {
        // An abandoned stream must not leave detached workers grinding
        // through a large grid.
        self.cancel.cancel();
        self.join_workers_quietly();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lassi_hecbench::application;
    use lassi_llm::gpt4;

    fn small_config() -> PipelineConfig {
        PipelineConfig {
            timing_runs: 1,
            ..PipelineConfig::default()
        }
    }

    fn small_apps() -> Vec<Application> {
        vec![
            application("layout").unwrap(),
            application("entropy").unwrap(),
        ]
    }

    /// One direction over GPT-4 and [`small_apps`], in job order.
    fn small_jobs(direction: Direction) -> Vec<Job> {
        SweepGrid::single(small_config(), vec![gpt4()], small_apps(), vec![direction]).jobs()
    }

    #[test]
    fn harness_sweep_matches_blocking_sweep() {
        let config = small_config();
        let models = vec![gpt4()];
        let apps = small_apps();
        let harness = Harness::new(HarnessOptions::default().with_workers(2));
        let concurrent = harness.run_direction_with(Direction::CudaToOmp, &config, &models, &apps);
        // The same scenarios one after another, in model-major order.
        let blocking: Vec<TranslationRecord> = models
            .iter()
            .flat_map(|model| apps.iter().map(move |app| (model, app)))
            .map(|(model, app)| run_scenario(model, app, Direction::CudaToOmp, &config))
            .collect();
        assert_eq!(concurrent, blocking);
    }

    #[test]
    fn outputs_report_timing_and_cache_provenance() {
        let dir =
            std::env::temp_dir().join(format!("lassi-scheduler-provenance-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let harness = Harness::new(HarnessOptions::default().with_workers(2))
            .with_cache(ScenarioCache::on_disk(&dir).unwrap());
        let jobs = small_jobs(Direction::CudaToOmp);

        let cold: Vec<JobOutput> = harness.submit(jobs.clone()).collect_outputs();
        assert_eq!(cold.len(), jobs.len());
        assert!(cold.iter().all(|o| !o.from_cache));
        assert!(cold.iter().all(|o| o.wall_seconds >= 0.0));
        assert!(cold.iter().all(|o| o.queue_seconds >= 0.0));

        let warm: Vec<JobOutput> = harness.submit(jobs.clone()).collect_outputs();
        assert!(
            warm.iter().all(|o| o.from_cache),
            "warm pass must be all hits"
        );
        for (a, b) in cold.iter().zip(&warm) {
            assert_eq!(a.record, b.record, "cached records are exact");
        }
        let snap = harness.cache_snapshot();
        assert_eq!(snap.hits as usize, jobs.len());
        assert_eq!(snap.misses as usize, jobs.len());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cancellation_discards_queued_work() {
        let config = small_config();
        // 16 jobs, 1 worker: cancelling after the first output must
        // prevent most of the remaining jobs from running.
        let jobs: Vec<Job> = (0..16)
            .map(|_| {
                Job::new(
                    application("layout").unwrap(),
                    gpt4(),
                    Direction::CudaToOmp,
                    config.clone(),
                )
            })
            .collect();
        let harness = Harness::new(HarnessOptions { workers: 1 });
        let total = jobs.len();
        let mut stream = harness.submit(jobs);
        let first = stream.next().expect("at least one output");
        assert_eq!(first.record.application, "layout");
        stream.cancel();
        let rest: Vec<JobOutput> = stream.collect();
        assert!(
            1 + rest.len() < total,
            "cancel must drop queued jobs (got {} of {total})",
            1 + rest.len()
        );
    }

    #[test]
    fn queue_wait_runs_from_submission_to_claim() {
        // On one worker, job i is claimed only after jobs 0..i finished,
        // so its wait since submission covers all of their work.
        let jobs: Vec<Job> = [
            Direction::CudaToOmp,
            Direction::OmpToCuda,
            Direction::CudaToOmp,
        ]
        .into_iter()
        .flat_map(small_jobs)
        .collect();
        let outputs = Harness::new(HarnessOptions { workers: 1 })
            .submit(jobs)
            .collect_outputs();
        assert_eq!(outputs.len(), 6);
        let mut before = 0.0;
        for output in &outputs {
            assert!(
                output.queue_seconds >= before,
                "job {} waited {}s behind {}s of earlier work",
                output.index,
                output.queue_seconds,
                before
            );
            before += output.wall_seconds;
        }
    }

    #[test]
    fn cancel_from_another_thread_delivers_distinct_indices() {
        let config = small_config();
        let jobs: Vec<Job> = (0..40)
            .map(|_| {
                Job::new(
                    application("layout").unwrap(),
                    gpt4(),
                    Direction::CudaToOmp,
                    config.clone(),
                )
            })
            .collect();
        let stream = Harness::new(HarnessOptions { workers: 4 }).submit(jobs);
        let token = stream.cancel_token();
        let canceller = thread::spawn(move || {
            thread::sleep(std::time::Duration::from_millis(5));
            token.cancel();
        });
        let mut seen: Vec<usize> = stream.map(|output| output.index).collect();
        canceller.join().unwrap();
        let delivered = seen.len();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), delivered, "an index was delivered twice");
        assert!(seen.iter().all(|&index| index < 40), "{seen:?}");
    }

    #[test]
    fn streaming_iteration_sees_every_output() {
        let harness = Harness::new(HarnessOptions::default().with_workers(2));
        let jobs = small_jobs(Direction::OmpToCuda);
        let total = jobs.len();
        let mut seen = Vec::new();
        for output in harness.submit(jobs) {
            seen.push(output.index);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..total).collect::<Vec<_>>());
    }

    #[test]
    fn worker_override_replaces_the_worker_count() {
        assert_eq!(HarnessOptions::default().with_workers(1).workers, 1);
        assert_eq!(HarnessOptions::default().with_workers(3).workers, 3);
        // A zero worker override leaves the default worker count alone.
        let default_workers = HarnessOptions::default().workers;
        assert_eq!(
            HarnessOptions::default().with_workers(0).workers,
            default_workers
        );
    }

    #[test]
    fn job_seed_matches_config_derivation() {
        let config = small_config();
        let job = Job::new(
            application("layout").unwrap(),
            gpt4(),
            Direction::OmpToCuda,
            config.clone(),
        );
        assert_eq!(
            job.scenario_seed(),
            config.model_scenario_seed("GPT-4", "layout", Direction::OmpToCuda)
        );
    }
}
