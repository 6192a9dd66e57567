//! The experiment service: a bounded job queue drained by a worker pool,
//! streaming [`TranslationRecord`]s back as scenarios complete.
//!
//! A [`Job`] is one (application × model × direction × config) scenario —
//! the same unit [`lassi_core::run_scenario`] executes. The [`Harness`]
//! feeds jobs through a [`BoundedQueue`] (backpressure against huge grids),
//! each worker consults the optional [`ScenarioCache`] before running the
//! pipeline, and completed [`JobOutput`]s arrive on a channel in completion
//! order with per-job wall-clock timing split into queue wait (push → pop)
//! and execution (pop → record). Submission order is preserved in
//! [`JobStream::collect_ordered`], so sweeps render tables identically to
//! a sequential [`lassi_core::run_scenario`] loop. Cancellation discards queued work and
//! lets in-flight scenarios finish. Every completion feeds the process-wide
//! metrics registry (`lassi_jobs_completed_total`,
//! `lassi_job_queue_wait_seconds`, `lassi_job_execute_seconds`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Instant;

use lassi_core::{run_scenario, Direction, PipelineConfig, TranslationRecord};
use lassi_hecbench::Application;
use lassi_llm::ModelSpec;

use crate::cache::{scenario_key, CacheSnapshot, ScenarioCache, ScenarioKey};
use crate::queue::BoundedQueue;

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
    /// Seconds the job sat in the bounded queue before a worker popped it.
    pub queue_seconds: f64,
    /// True when the record came from the scenario cache.
    pub from_cache: bool,
}

/// Tuning knobs for the service.
#[derive(Debug, Clone)]
pub struct HarnessOptions {
    /// Worker threads. Defaults to `available_parallelism`.
    pub workers: usize,
    /// Bounded queue capacity. `None` (the default) derives `2 × workers`
    /// at submission time, so overriding the worker count *after*
    /// construction still yields a queue proportional to the pool —
    /// `--workers 1` on a many-core machine must not keep a huge default
    /// capacity and defeat backpressure.
    pub queue_capacity: Option<usize>,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        let workers = thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        HarnessOptions {
            workers,
            queue_capacity: None,
        }
    }
}

impl HarnessOptions {
    /// Override the worker count (0 means "default"). An auto-derived queue
    /// capacity follows the new count; an explicit one is preserved.
    pub fn with_workers(mut self, workers: usize) -> Self {
        if workers > 0 {
            self.workers = workers;
        }
        self
    }

    /// Pin the bounded queue capacity explicitly (clamped to ≥ 1).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = Some(capacity.max(1));
        self
    }

    /// The capacity the bounded queue is created with: the explicit value
    /// when one was set, otherwise `2 × workers`.
    pub fn effective_queue_capacity(&self) -> usize {
        self.queue_capacity.unwrap_or(self.workers.max(1) * 2)
    }
}

/// A job in the bounded queue, stamped with its enqueue instant so the
/// popping worker can report queue wait separately from execution time.
struct QueuedJob {
    index: usize,
    job: Job,
    enqueued: Instant,
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
                "Time a job sat in the bounded queue before a worker popped it.",
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

/// Cooperative cancellation handle shared by the feeder and the workers.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// Request cancellation: queued jobs are discarded, in-flight jobs finish.
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

    /// Attach an already-shared scenario cache. This is what a long-lived
    /// service uses: the same `Arc` can feed the harness *and* e.g. a
    /// cache-stats endpoint, without the harness owning the only handle.
    pub fn with_shared_cache(mut self, cache: Arc<ScenarioCache>) -> Self {
        self.cache = Some(cache);
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
        let total = jobs.len();
        let queue = Arc::new(BoundedQueue::<QueuedJob>::new(
            self.options.effective_queue_capacity(),
        ));
        let cancel = CancelToken::default();
        let (tx, rx) = mpsc::channel::<JobOutput>();
        let metrics = SchedulerMetrics::register();

        // Never spawn more workers than there are jobs: a warm two-scenario
        // submission on a many-core service must not pay dozens of thread
        // spawns for threads that would pop an empty queue and exit.
        let workers = self.options.workers.min(total).max(1);
        let mut handles = Vec::with_capacity(workers + 1);

        // Feeder: pushes into the bounded queue (blocking on backpressure),
        // then closes it so workers drain and exit.
        {
            let queue = Arc::clone(&queue);
            let cancel = cancel.clone();
            handles.push(thread::spawn(move || {
                for (index, job) in jobs.into_iter().enumerate() {
                    let queued = QueuedJob {
                        index,
                        job,
                        enqueued: Instant::now(),
                    };
                    if cancel.is_cancelled() || queue.push(queued).is_err() {
                        break;
                    }
                }
                queue.close();
            }));
        }

        for _ in 0..workers {
            let queue = Arc::clone(&queue);
            let cancel = cancel.clone();
            let cache = self.cache.clone();
            let tx = tx.clone();
            let metrics = metrics.clone();
            handles.push(thread::spawn(move || {
                while let Some(QueuedJob {
                    index,
                    job,
                    enqueued,
                }) = queue.pop()
                {
                    if cancel.is_cancelled() {
                        queue.close_and_clear();
                        break;
                    }
                    let started = Instant::now();
                    let queue_seconds = (started - enqueued).as_secs_f64();
                    let (record, from_cache) = match &cache {
                        Some(cache) => {
                            let key = job.cache_key();
                            match cache.lookup(key) {
                                Some(record) => (record, true),
                                None => {
                                    let record = job.run();
                                    cache.store(key, &record);
                                    (record, false)
                                }
                            }
                        }
                        None => (job.run(), false),
                    };
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
                    // The receiver dropping early is a form of cancellation.
                    if tx.send(output).is_err() {
                        queue.close_and_clear();
                        break;
                    }
                }
            }));
        }
        drop(tx);

        JobStream {
            rx,
            cancel,
            queue,
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
        let jobs = direction_jobs(direction, config, models, apps);
        self.submit(jobs).collect_ordered()
    }
}

/// Build the jobs for one direction in the paper's (model-major) sweep order.
pub fn direction_jobs(
    direction: Direction,
    config: &PipelineConfig,
    models: &[ModelSpec],
    apps: &[Application],
) -> Vec<Job> {
    models
        .iter()
        .flat_map(|model| {
            apps.iter()
                .map(move |app| Job::new(app.clone(), model.clone(), direction, config.clone()))
        })
        .collect()
}

/// A stream of job outputs in completion order. Iterate it for streaming
/// consumption, or use [`JobStream::collect_ordered`] for submission order.
/// Dropping the stream early cancels the remaining queued work.
pub struct JobStream {
    rx: mpsc::Receiver<JobOutput>,
    cancel: CancelToken,
    queue: Arc<BoundedQueue<QueuedJob>>,
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

    /// Cancel: discard queued jobs; in-flight jobs still produce outputs.
    pub fn cancel(&self) {
        self.cancel.cancel();
        self.queue.close_and_clear();
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
        // The channel only closes once every worker is gone. If workers died
        // on a panic the feeder may still be blocked pushing into a full
        // queue — close it so the join below cannot deadlock.
        self.queue.close();
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
                self.queue.close();
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
        self.queue.close_and_clear();
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
        let config = small_config();
        let harness = Harness::new(HarnessOptions::default().with_workers(2))
            .with_cache(ScenarioCache::in_memory());
        let jobs = direction_jobs(Direction::CudaToOmp, &config, &[gpt4()], &small_apps());

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
    }

    #[test]
    fn cancellation_discards_queued_work() {
        let config = small_config();
        // 16 jobs, 1 worker, tiny queue: cancelling after the first output
        // must prevent most of the remaining jobs from running.
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
        let harness = Harness::new(HarnessOptions {
            workers: 1,
            queue_capacity: Some(2),
        });
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
    fn streaming_iteration_sees_every_output() {
        let config = small_config();
        let harness = Harness::new(HarnessOptions::default().with_workers(2));
        let jobs = direction_jobs(Direction::OmpToCuda, &config, &[gpt4()], &small_apps());
        let total = jobs.len();
        let mut seen = Vec::new();
        for output in harness.submit(jobs) {
            seen.push(output.index);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..total).collect::<Vec<_>>());
    }

    #[test]
    fn worker_override_recomputes_queue_capacity() {
        // `--workers 1` on a many-core machine must shrink the queue with
        // the pool; the old `max(existing, workers * 2)` kept the huge
        // default capacity and defeated backpressure.
        let opts = HarnessOptions::default().with_workers(1);
        assert_eq!(opts.effective_queue_capacity(), 2);
        let opts = HarnessOptions::default().with_workers(3);
        assert_eq!(opts.effective_queue_capacity(), 6);
        // An explicit capacity survives a later worker override, and a
        // zero worker override leaves the default worker count alone.
        let opts = HarnessOptions::default()
            .with_queue_capacity(64)
            .with_workers(1);
        assert_eq!(opts.effective_queue_capacity(), 64);
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
