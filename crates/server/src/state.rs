//! Shared service state: one long-lived [`Harness`] (worker pool + scenario
//! cache) and one [`ArtifactStore`], plus the machinery behind asynchronous
//! sweep submission — a registry of run resources ([`RunStatus`] per run), a
//! bounded queue of accepted runs, and the background sweep-executor thread
//! pool that pulls queued runs and feeds them through the job scheduler.
//!
//! Submission ([`AppState::submit_sweep`]) only validates, reserves the run
//! directory, persists `state.json` (`queued`) and enqueues — constant-time
//! regardless of grid size, which is what lets `POST /v1/sweeps` answer
//! `202 Accepted` in milliseconds. Executors own the expensive part: they
//! advance runs `queued → running`, stream scenario outputs (counting live
//! progress), write the artifact and land the run in a terminal state, with
//! every transition persisted beside the artifact.
//!
//! While a worker is live, an executor drains its run through the fleet
//! instead: the run's [`LeaseTable`] is the one record of its grants,
//! expiries, requeues and duplicates, and [`AppState::fleet_snapshot`]
//! sums those tables (live runs plus retired ones). The draining executor
//! does not poll. It sleeps on the run's condvar until the earliest lease
//! deadline, and a grant, a completion, a cancel or a shutdown wakes it.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use lassi_core::TranslationRecord;
use lassi_harness::{
    ArtifactStore, CancelToken, FleetStats, Harness, Job, JobOutput, JobWrite, LeaseError,
    LeaseTable, RunState, RunStatus, ScannedRun, SweepGrid,
};
use lassi_obs::{EventRing, TraceEvent, TraceSink};
use parking_lot::{Condvar, Mutex};

/// Default number of sweep-executor threads — the number of sweeps that
/// *run* concurrently (each drives its own worker pool; the scenario cache
/// is shared). Queued runs beyond this wait their turn.
pub const DEFAULT_SWEEP_EXECUTORS: usize = 2;

/// Cap on accepted-but-not-started runs: past this, submission answers
/// `429` instead of letting the backlog (and its reserved run directories)
/// grow without bound.
pub const MAX_QUEUED_RUNS: usize = 256;

/// Capacity of the in-memory debug-event ring served by
/// `GET /v1/debug/events` — old events are evicted, never blocked on.
pub const DEBUG_EVENT_CAPACITY: usize = 1024;

/// Default lease time-to-live handed to remote workers: a worker that
/// neither heartbeats nor completes within this window is presumed dead
/// and its jobs are reclaimed. Tests shrink it to exercise expiry fast.
pub const DEFAULT_LEASE_TTL_MS: u64 = 10_000;

/// A worker counts toward the live fleet while its last contact (any
/// `/v1/work/*` call) is fresher than this many lease TTLs.
const WORKER_LIVENESS_TTLS: u64 = 3;

/// Why [`AppState::submit_sweep`] refused a sweep.
#[derive(Debug)]
pub enum SubmitError {
    /// The server is draining; no new runs are accepted.
    Draining,
    /// [`MAX_QUEUED_RUNS`] runs are already waiting.
    QueueFull,
    /// The client-chosen run id is already taken.
    RunExists(String),
    /// Reserving the run directory or persisting `state.json` failed.
    Io(io::Error),
}

/// Why [`AppState::cancel_run`] refused a cancellation.
#[derive(Debug)]
pub enum CancelError {
    /// No such run.
    NotFound,
    /// The run is already terminal (carries the state it is in).
    NotCancellable(RunState),
}

/// Why `POST /v1/work/complete` refused a completion.
#[derive(Debug)]
pub enum CompleteError {
    /// No active run holds that lease (unknown id, or the run finished).
    UnknownLease(String),
    /// The returned records do not match the leased jobs (wrong count, or
    /// a record's application/model disagrees with the job it claims to
    /// answer) — the lease is failed and its jobs requeued.
    Invalid(String),
}

/// One batch of jobs granted to a worker, ready to serialize onto the wire.
pub struct LeaseGrant {
    /// The lease id the worker heartbeats and completes against.
    pub lease_id: String,
    /// The run the jobs belong to.
    pub run_id: String,
    /// Milliseconds until the lease expires unless extended.
    pub ttl_ms: u64,
    /// `(submission index, job spec)` pairs under the lease.
    pub jobs: Vec<(usize, Job)>,
}

/// Point-in-time fleet accounting for `/v1/metrics`.
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetSnapshot {
    /// Leases granted to remote workers since the process started.
    pub leases_granted: u64,
    /// Leases expired (deadline missed or corrupt completion) and reclaimed.
    pub leases_expired: u64,
    /// Job indices requeued by reclaims.
    pub jobs_requeued: u64,
    /// Records dropped first-write-wins.
    pub duplicate_completions: u64,
    /// Records from remote workers accepted as a job's first write.
    pub records_accepted: u64,
    /// Heartbeat extensions served.
    pub heartbeats: u64,
    /// Workers that contacted the server within the liveness window.
    pub workers_active: u64,
    /// Leases currently held by workers across all draining runs.
    pub leases_active: u64,
    /// Runs currently being drained by the fleet.
    pub remote_runs: u64,
}

/// The process-wide fleet counters no lease table keeps.
#[derive(Default)]
struct FleetCounters {
    records_accepted: AtomicU64,
    heartbeats: AtomicU64,
}

/// A run being drained by remote workers: the lease table, the
/// first-write-wins output slots the completions land in, and the
/// condvar its drain waits on.
struct RemoteRun {
    run_id: String,
    jobs: Vec<Job>,
    table: Mutex<LeaseTable>,
    /// Notified under `table` when a lease is granted, settled or failed,
    /// and when the run is cancelled or the server drains.
    wake: std::sync::Condvar,
    outputs: Mutex<Vec<Option<JobOutput>>>,
}

impl RemoteRun {
    /// Wake the drain after setting a flag it reads. Taking the table lock
    /// first means a drain between its checks and its wait cannot miss it.
    fn wake(&self) {
        let _table = self.table.lock();
        self.wake.notify_all();
    }
}

/// The runs the fleet is draining, and the summed stats of the drains
/// already retired: together, the process's lease accounting.
#[derive(Default)]
struct FleetRuns {
    live: Vec<Arc<RemoteRun>>,
    retired: FleetStats,
}

/// Check a completion body against the jobs its lease holds: the record
/// count must match, and each record must identify the scenario it claims
/// to answer. Catches truncated and chaos-corrupted completions before
/// they can reach the artifact.
fn validate_completion(
    leased: &[usize],
    jobs: &[Job],
    records: &[TranslationRecord],
) -> Result<(), String> {
    if records.len() != leased.len() {
        return Err(format!(
            "lease holds {} jobs but the completion carries {} records",
            leased.len(),
            records.len()
        ));
    }
    for (&index, record) in leased.iter().zip(records) {
        let job = &jobs[index];
        if record.application != job.application.name || record.model != job.model.name {
            return Err(format!(
                "record for job {index} claims `{}`/`{}` but the lease holds `{}`/`{}`",
                record.application, record.model, job.application.name, job.model.name
            ));
        }
    }
    Ok(())
}

/// Milliseconds since the Unix epoch (0 if the clock is before it).
fn unix_now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// A run waiting for an executor.
struct QueuedRun {
    run_id: String,
    grid: SweepGrid,
}

/// The queue executors pull from. `open` flips false on drain: executors
/// finish their current run and exit instead of pulling more work.
struct RunQueue {
    items: VecDeque<QueuedRun>,
    open: bool,
}

/// Live bookkeeping for one run resource. The persisted [`RunStatus`] is
/// the durable truth; the atomics carry what changes too often to persist
/// (per-scenario progress, live wall-clock).
struct RunEntry {
    status: Mutex<RunStatus>,
    /// Scenarios completed so far (bumped per streamed output).
    completed: AtomicUsize,
    /// The running sweep's cancel token, present only while executing.
    cancel: Mutex<Option<CancelToken>>,
    /// A client asked for cancellation (consulted by the executor when the
    /// output stream comes up short, to pick `cancelled` over `failed`).
    cancel_requested: AtomicBool,
    /// When the executor started the sweep (live wall-clock source).
    started: Mutex<Option<Instant>>,
    /// The run's structured trace: lifecycle events accumulate here (with
    /// times relative to submission) and land in the artifact's
    /// `trace.jsonl` alongside the per-job spans.
    trace: TraceSink,
}

/// Everything the request handlers share, kept behind one `Arc`.
pub struct AppState {
    harness: Harness,
    store: ArtifactStore,
    run_counter: AtomicU64,
    shutdown: AtomicBool,
    queue: Mutex<RunQueue>,
    queue_signal: Condvar,
    runs: Mutex<HashMap<String, Arc<RunEntry>>>,
    executors: Mutex<Vec<JoinHandle<()>>>,
    executors_started: AtomicBool,
    /// Recent trace events across all runs, for `GET /v1/debug/events`.
    events: EventRing,
    /// Executors currently inside a run (vs. waiting on the queue).
    busy_executors: AtomicUsize,
    /// Size of the executor pool once started.
    executor_count: AtomicUsize,
    /// Runs currently drained by the fleet (lease/work calls search these).
    remote_runs: Mutex<FleetRuns>,
    /// Worker id → last contact, for fleet liveness.
    workers: Mutex<HashMap<String, Instant>>,
    /// Lease time-to-live handed to workers.
    lease_ttl_ms: AtomicU64,
    /// Heartbeats and remote records for `/v1/metrics`.
    fleet: FleetCounters,
}

impl AppState {
    /// Wrap a harness and an artifact store into service state.
    pub fn new(harness: Harness, store: ArtifactStore) -> AppState {
        AppState {
            harness,
            store,
            run_counter: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            queue: Mutex::new(RunQueue {
                items: VecDeque::new(),
                open: true,
            }),
            queue_signal: Condvar::new(),
            runs: Mutex::new(HashMap::new()),
            executors: Mutex::new(Vec::new()),
            executors_started: AtomicBool::new(false),
            events: EventRing::new(DEBUG_EVENT_CAPACITY),
            busy_executors: AtomicUsize::new(0),
            executor_count: AtomicUsize::new(0),
            remote_runs: Mutex::default(),
            workers: Mutex::new(HashMap::new()),
            lease_ttl_ms: AtomicU64::new(DEFAULT_LEASE_TTL_MS),
            fleet: FleetCounters::default(),
        }
    }

    /// The in-memory debug-event ring (`GET /v1/debug/events`).
    pub fn events(&self) -> &EventRing {
        &self.events
    }

    /// Accepted-but-not-started runs waiting for an executor.
    pub fn queue_depth(&self) -> usize {
        self.queue.lock().items.len()
    }

    /// `(busy, total)` sweep executors — busy means inside a run.
    pub fn executor_counts(&self) -> (usize, usize) {
        (
            self.busy_executors.load(Ordering::Relaxed),
            self.executor_count.load(Ordering::Relaxed),
        )
    }

    /// Record a run-lifecycle transition as a structured trace event: into
    /// the process-wide debug ring always, and into the run's own trace
    /// sink (re-stamped on the run's submission-relative clock) when the
    /// run still has a live registry entry.
    fn record_transition(
        &self,
        entry: Option<&RunEntry>,
        run_id: &str,
        state: RunState,
        reason: Option<&str>,
    ) {
        let mut event = TraceEvent::event("runstate", self.events.now_us())
            .with("run_id", run_id)
            .with("state", state.slug());
        if let Some(reason) = reason {
            event = event.with("reason", reason);
        }
        if let Some(entry) = entry {
            let mut run_event = event.clone();
            run_event.t_us = entry.trace.now_us();
            entry.trace.push(run_event);
        }
        self.events.push(event);
    }

    /// The shared experiment service.
    pub fn harness(&self) -> &Harness {
        &self.harness
    }

    /// The shared artifact store.
    pub fn store(&self) -> &ArtifactStore {
        &self.store
    }

    /// Next server-assigned run id (`srv-000001`, `srv-000002`, …).
    pub fn next_run_id(&self) -> String {
        let n = self.run_counter.fetch_add(1, Ordering::Relaxed) + 1;
        format!("srv-{n:06}")
    }

    /// Has a cooperative shutdown been requested?
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Override the lease TTL handed to workers (tests shrink it so
    /// expiry/reclaim paths run in milliseconds instead of tens of
    /// seconds).
    pub fn set_lease_ttl_ms(&self, ttl_ms: u64) {
        self.lease_ttl_ms.store(ttl_ms.max(1), Ordering::Relaxed);
    }

    /// The lease TTL currently handed to workers.
    pub fn lease_ttl_ms(&self) -> u64 {
        self.lease_ttl_ms.load(Ordering::Relaxed)
    }

    /// Is at least one worker live (contacted the server within the
    /// liveness window)? Decides whether a popped run is drained by the
    /// fleet or by the local pool — with zero registered workers this is
    /// always false and the server behaves exactly as it did without the
    /// work-pull protocol.
    pub fn fleet_available(&self) -> bool {
        self.fleet_live_for().is_some()
    }

    fn liveness_window(&self) -> Duration {
        Duration::from_millis(self.lease_ttl_ms() * WORKER_LIVENESS_TTLS)
    }

    /// How long until the freshest worker leaves the liveness window;
    /// `None` once the whole fleet is dark.
    fn fleet_live_for(&self) -> Option<Duration> {
        let freshest = self.workers.lock().values().map(Instant::elapsed).min()?;
        self.liveness_window().checked_sub(freshest)
    }

    fn live_remote_runs(&self) -> Vec<Arc<RemoteRun>> {
        self.remote_runs.lock().live.clone()
    }

    /// Wake the fleet drain of `run_id` (of every run with `None`) so it
    /// re-reads the cancel and shutdown flags.
    fn wake_drains(&self, run_id: Option<&str>) {
        for remote in self.live_remote_runs() {
            if run_id.is_none_or(|id| id == remote.run_id) {
                remote.wake();
            }
        }
    }

    /// Record a `/v1/work/*` contact from a worker (implicit registration:
    /// the first lease poll is what makes a worker part of the fleet).
    fn touch_worker(&self, worker: &str) {
        self.workers
            .lock()
            .insert(worker.to_string(), Instant::now());
    }

    /// Push a lease lifecycle event into the debug ring.
    fn lease_event(&self, action: &str, run_id: &str, lease_id: &str, worker: &str, jobs: u64) {
        self.events.push(
            TraceEvent::event("lease", self.events.now_us())
                .with("action", action)
                .with("run_id", run_id)
                .with("lease_id", lease_id)
                .with("worker", worker)
                .with("jobs", jobs),
        );
    }

    /// `POST /v1/work/lease`: register the worker and hand it a batch of
    /// up to `capacity` jobs from the first fleet-drained run with pending
    /// work. `None` means no work right now — the worker should back off
    /// and poll again.
    pub fn lease_work(&self, worker: &str, capacity: usize) -> Option<LeaseGrant> {
        self.touch_worker(worker);
        let ttl_ms = self.lease_ttl_ms();
        let now_ms = unix_now_ms();
        for remote in self.live_remote_runs() {
            let mut table = remote.table.lock();
            let Some(lease) = table.grant(worker, capacity, now_ms, ttl_ms) else {
                continue;
            };
            let grant = LeaseGrant {
                lease_id: lease.lease_id.clone(),
                run_id: remote.run_id.clone(),
                ttl_ms,
                jobs: lease
                    .jobs
                    .iter()
                    .map(|&index| (index, remote.jobs[index].clone()))
                    .collect(),
            };
            // The drain's wait now ends at this lease's deadline at latest.
            remote.wake.notify_all();
            drop(table);
            self.lease_event(
                "granted",
                &grant.run_id,
                &grant.lease_id,
                worker,
                grant.jobs.len() as u64,
            );
            return Some(grant);
        }
        None
    }

    /// `POST /v1/work/heartbeat`: extend an active lease's deadline by one
    /// TTL. Returns the TTL granted; a lease already settled or reclaimed
    /// (the worker stalled past its deadline) is refused so the worker
    /// knows to drop the batch and re-lease.
    pub fn heartbeat_work(&self, worker: &str, lease_id: &str) -> Result<u64, LeaseError> {
        self.touch_worker(worker);
        let ttl_ms = self.lease_ttl_ms();
        let now_ms = unix_now_ms();
        let mut refusal = LeaseError::UnknownLease(lease_id.to_string());
        for remote in self.live_remote_runs() {
            match remote.table.lock().heartbeat(lease_id, now_ms, ttl_ms) {
                Ok(_) => {
                    self.fleet.heartbeats.fetch_add(1, Ordering::Relaxed);
                    return Ok(ttl_ms);
                }
                Err(LeaseError::UnknownLease(_)) => continue,
                Err(e) => refusal = e,
            }
        }
        Err(refusal)
    }

    /// `POST /v1/work/complete`: settle a lease with the records its
    /// worker computed. Records are validated against the leased jobs
    /// (count and application/model identity) — a corrupt completion fails
    /// the lease and requeues its jobs rather than poisoning the artifact.
    /// Valid records land first-write-wins; duplicates (a stale worker
    /// whose lease was reclaimed, racing the re-execution) are counted and
    /// dropped. Returns `(accepted, duplicates)`.
    pub fn complete_work(
        &self,
        worker: &str,
        lease_id: &str,
        records: Vec<TranslationRecord>,
    ) -> Result<(usize, usize), CompleteError> {
        self.touch_worker(worker);
        let remote = self
            .live_remote_runs()
            .into_iter()
            .find(|remote| {
                remote
                    .table
                    .lock()
                    .leases()
                    .iter()
                    .any(|l| l.lease_id == lease_id)
            })
            .ok_or_else(|| CompleteError::UnknownLease(lease_id.to_string()))?;
        let mut table = remote.table.lock();
        let leased: Vec<usize> = table
            .leases()
            .iter()
            .find(|l| l.lease_id == lease_id)
            .expect("lease found above")
            .jobs
            .clone();
        if let Err(reason) = validate_completion(&leased, &remote.jobs, &records) {
            // Fail-and-requeue only an active lease; a stale corrupt
            // completion (lease already reclaimed) is simply dropped.
            if let Ok(requeued) = table.fail_lease(lease_id) {
                remote.wake.notify_all();
                self.lease_event(
                    "failed",
                    &remote.run_id,
                    lease_id,
                    worker,
                    requeued.len() as u64,
                );
            }
            return Err(CompleteError::Invalid(reason));
        }

        let (jobs, _was_active) = table
            .settle(lease_id)
            .expect("lease found above stays known");
        let mut accepted = 0usize;
        let mut duplicates = 0usize;
        {
            let mut slots = remote.outputs.lock();
            for (index, record) in jobs.into_iter().zip(records) {
                match table.record_job(index) {
                    // A remote completion carries no timing.
                    JobWrite::Fresh => {
                        slots[index] = Some(JobOutput {
                            index,
                            direction: remote.jobs[index].direction,
                            record,
                            wall_seconds: 0.0,
                            queue_seconds: 0.0,
                            from_cache: false,
                        });
                        accepted += 1;
                    }
                    JobWrite::Duplicate => duplicates += 1,
                }
            }
        }
        remote.wake.notify_all();
        drop(table);
        self.fleet
            .records_accepted
            .fetch_add(accepted as u64, Ordering::Relaxed);
        self.lease_event(
            "completed",
            &remote.run_id,
            lease_id,
            worker,
            accepted as u64,
        );
        Ok((accepted, duplicates))
    }

    /// Point-in-time fleet accounting for the metrics endpoint. The lease
    /// counters are the sum of every drain's lease table, live or retired.
    pub fn fleet_snapshot(&self) -> FleetSnapshot {
        let window = self.liveness_window();
        let workers_active = self
            .workers
            .lock()
            .values()
            .filter(|last| last.elapsed() <= window)
            .count() as u64;
        let runs = self.remote_runs.lock();
        let mut leases = runs.retired;
        let mut leases_active = 0;
        for remote in &runs.live {
            let table = remote.table.lock();
            leases = leases + table.stats();
            leases_active += table.active_leases() as u64;
        }
        FleetSnapshot {
            leases_granted: leases.leases_granted,
            leases_expired: leases.leases_expired,
            jobs_requeued: leases.jobs_requeued,
            duplicate_completions: leases.duplicate_completions,
            records_accepted: self.fleet.records_accepted.load(Ordering::Relaxed),
            heartbeats: self.fleet.heartbeats.load(Ordering::Relaxed),
            workers_active,
            leases_active,
            remote_runs: runs.live.len() as u64,
        }
    }

    /// Accept a sweep for asynchronous execution: reserve the run id
    /// (atomically claiming its directory), persist the initial `queued`
    /// state and enqueue the run for the executor pool. Does no sweep work
    /// itself — the whole call is a couple of file-system operations, so
    /// submission latency is independent of grid size.
    pub fn submit_sweep(
        &self,
        grid: SweepGrid,
        requested_id: Option<String>,
    ) -> Result<RunStatus, SubmitError> {
        if self.shutting_down() {
            return Err(SubmitError::Draining);
        }
        // Reserve before any other work, so a colliding client-chosen id —
        // even one submitted concurrently — is a fast 409.
        let run_id = match requested_id {
            Some(id) => match self.store.reserve_run(&id) {
                Ok(()) => id,
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    return Err(SubmitError::RunExists(id));
                }
                Err(e) => return Err(SubmitError::Io(e)),
            },
            None => loop {
                let id = self.next_run_id();
                match self.store.reserve_run(&id) {
                    Ok(()) => break id,
                    Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
                    Err(e) => return Err(SubmitError::Io(e)),
                }
            },
        };
        let release = |run_id: &str| {
            let _ = std::fs::remove_dir_all(self.store.run_dir(run_id));
        };

        let status = RunStatus::queued(&run_id, grid.len());
        if let Err(e) = status.save(&self.store.run_dir(&run_id)) {
            release(&run_id);
            return Err(SubmitError::Io(e));
        }
        let entry = Arc::new(RunEntry {
            status: Mutex::new(status.clone()),
            completed: AtomicUsize::new(0),
            cancel: Mutex::new(None),
            cancel_requested: AtomicBool::new(false),
            started: Mutex::new(None),
            trace: TraceSink::new(),
        });
        self.runs.lock().insert(run_id.clone(), Arc::clone(&entry));
        self.record_transition(Some(&entry), &run_id, RunState::Queued, None);
        {
            let mut queue = self.queue.lock();
            if !queue.open {
                // Shutdown raced in between the check above and here.
                drop(queue);
                self.runs.lock().remove(&run_id);
                release(&run_id);
                return Err(SubmitError::Draining);
            }
            if queue.items.len() >= MAX_QUEUED_RUNS {
                drop(queue);
                self.runs.lock().remove(&run_id);
                release(&run_id);
                return Err(SubmitError::QueueFull);
            }
            queue.items.push_back(QueuedRun {
                run_id: run_id.clone(),
                grid,
            });
        }
        self.queue_signal.notify_one();
        Ok(status)
    }

    /// The queryable status of a run: live registry first (with fresh
    /// progress counts and wall-clock), then `state.json` from disk (runs
    /// from a previous process).
    pub fn run_status(&self, id: &str) -> Option<RunStatus> {
        if let Some(entry) = self.runs.lock().get(id).cloned() {
            let mut status = entry.status.lock().clone();
            if status.state == RunState::Running {
                status.completed = entry.completed.load(Ordering::Relaxed);
                status.wall_seconds = entry
                    .started
                    .lock()
                    .map(|started| started.elapsed().as_secs_f64());
            }
            return Some(status);
        }
        RunStatus::load(&self.store.run_dir(id)).ok()
    }

    /// Every known run as `(id, state, created_unix)`, sorted by id — the
    /// source for the paginated `GET /v1/runs`. Disk is the base (it has
    /// runs from previous processes); the live registry overlays it with
    /// fresher states.
    pub fn list_run_summaries(&self) -> io::Result<Vec<(String, RunState, Option<u64>)>> {
        let mut rows: Vec<(String, RunState, Option<u64>)> = self
            .store
            .scan_runs()?
            .into_iter()
            .map(|(id, scanned)| match scanned {
                ScannedRun::Status(status) => (id, status.state, status.created_unix),
                // No readable state.json (recovery repairs it at startup;
                // a fresh crash still lists as failed, never vanishes).
                ScannedRun::Corrupt(_) => (id, RunState::Failed, None),
            })
            .collect();
        let runs = self.runs.lock();
        for row in rows.iter_mut() {
            if let Some(entry) = runs.get(&row.0) {
                let status = entry.status.lock();
                row.1 = status.state;
                row.2 = status.created_unix;
            }
        }
        Ok(rows)
    }

    /// Cancel a run. A `queued` run is cancelled on the spot (the executor
    /// will skip it); a `running` run gets its [`CancelToken`] fired and
    /// lands in `cancelled` once its in-flight scenarios finish —
    /// cancellation is cooperative, so a run whose scenarios all completed
    /// before the token took effect still finishes `done`. Returns the
    /// status as of the cancel request.
    pub fn cancel_run(&self, id: &str) -> Result<RunStatus, CancelError> {
        let Some(entry) = self.runs.lock().get(id).cloned() else {
            // Runs from a previous process are terminal by construction
            // (recovery failed any that were live when it died).
            return match self.run_status(id) {
                Some(status) => Err(CancelError::NotCancellable(status.state)),
                None => Err(CancelError::NotFound),
            };
        };
        let mut status = entry.status.lock();
        match status.state {
            RunState::Queued => {
                entry.cancel_requested.store(true, Ordering::SeqCst);
                status
                    .finish(RunState::Cancelled, "cancelled by client before start")
                    .expect("queued → cancelled is legal");
                let _ = status.save(&self.store.run_dir(id));
                self.record_transition(
                    Some(&entry),
                    id,
                    RunState::Cancelled,
                    Some("cancelled by client before start"),
                );
                Ok(status.clone())
            }
            RunState::Running => {
                entry.cancel_requested.store(true, Ordering::SeqCst);
                if let Some(token) = entry.cancel.lock().as_ref() {
                    token.cancel();
                }
                let event =
                    TraceEvent::event("cancel_requested", self.events.now_us()).with("run_id", id);
                self.events.push(event);
                let requested = status.clone();
                // A fleet drain locks its table, then the status: wake it
                // only once the status is released.
                drop(status);
                self.wake_drains(Some(id));
                Ok(requested)
            }
            terminal => Err(CancelError::NotCancellable(terminal)),
        }
    }

    /// Request shutdown with the drain semantics the run lifecycle needs:
    /// refuse new submissions, stop pulling queued runs (each is marked
    /// `failed` with a reason, persisted), and cancel running sweeps (their
    /// queued jobs are discarded, in-flight scenarios finish, and the
    /// executor marks them `failed` — the client did not ask for the stop).
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.events
            .push(TraceEvent::event("drain", self.events.now_us()));
        let drained: Vec<QueuedRun> = {
            let mut queue = self.queue.lock();
            queue.open = false;
            queue.items.drain(..).collect()
        };
        self.queue_signal.notify_all();
        for run in &drained {
            if let Some(entry) = self.runs.lock().get(&run.run_id).cloned() {
                let mut status = entry.status.lock();
                if status.state == RunState::Queued {
                    status
                        .finish(RunState::Failed, "server drained before the run started")
                        .expect("queued → failed is legal");
                    let _ = status.save(&self.store.run_dir(&run.run_id));
                    self.record_transition(
                        Some(&entry),
                        &run.run_id,
                        RunState::Failed,
                        Some("server drained before the run started"),
                    );
                }
            }
        }
        let entries: Vec<Arc<RunEntry>> = self.runs.lock().values().cloned().collect();
        for entry in entries {
            if let Some(token) = entry.cancel.lock().as_ref() {
                token.cancel();
            }
        }
        self.wake_drains(None);
    }

    /// Number of runs currently in a non-terminal state (tests and
    /// introspection).
    pub fn live_runs(&self) -> usize {
        self.runs
            .lock()
            .values()
            .filter(|entry| !entry.status.lock().state.is_terminal())
            .count()
    }

    /// Spawn the sweep-executor pool (idempotent; first call wins). Runs
    /// startup recovery first: any run left `queued`/`running` on disk by a
    /// previous process provably lost its executor and is marked `failed`
    /// with a reason, so the API never reports phantom progress.
    pub fn start_executors(self: &Arc<AppState>, count: usize) {
        if self.executors_started.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Err(e) = self.recover_runs() {
            eprintln!("lassi-server: run recovery failed: {e}");
        }
        self.executor_count.store(count.max(1), Ordering::Relaxed);
        let mut handles = self.executors.lock();
        for i in 0..count.max(1) {
            let state = Arc::clone(self);
            let handle = thread::Builder::new()
                .name(format!("sweep-executor-{i}"))
                .spawn(move || executor_loop(&state))
                .expect("spawn sweep executor");
            handles.push(handle);
        }
    }

    /// Mark runs orphaned by a previous process as `failed`, and repair
    /// runs a crash left without a readable `state.json` (torn mid-write,
    /// or lost while the artifact was being written): each is rewritten
    /// as a clean `failed` state with the damage in the reason, and never
    /// panics the scan. Returns how many runs were recovered.
    pub fn recover_runs(&self) -> io::Result<usize> {
        let mut recovered = 0;
        for (id, scanned) in self.store.scan_runs()? {
            let dir = self.store.run_dir(&id);
            match scanned {
                ScannedRun::Status(mut status) => {
                    if status.state.is_terminal() {
                        continue;
                    }
                    status
                        .finish(
                            RunState::Failed,
                            "server restarted before the run finished".to_string(),
                        )
                        .expect("queued/running → failed is legal");
                    let _ = status.save(&dir);
                    recovered += 1;
                }
                ScannedRun::Corrupt(err) => {
                    let mut status = RunStatus::queued(&id, 0);
                    status
                        .finish(
                            RunState::Failed,
                            format!("{err} (crash mid-write?); marked failed by recovery"),
                        )
                        .expect("queued → failed is legal");
                    let _ = status.save(&dir);
                    recovered += 1;
                }
            }
        }
        Ok(recovered)
    }

    /// Wait for every executor to exit (the queue must already be closed
    /// via [`AppState::begin_shutdown`], or this blocks forever).
    pub fn join_executors(&self) {
        let handles: Vec<JoinHandle<()>> = self.executors.lock().drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// Forget a run's registry entry (after its directory is deleted), so
    /// listings don't resurrect it from memory.
    pub fn forget_run(&self, id: &str) {
        self.runs.lock().remove(id);
    }

    /// One executor's run-to-completion of a single queued run, with a
    /// panic fence: a panicking scenario must fail its run, not kill the
    /// executor thread and wedge the queue behind it.
    fn execute(&self, run: QueuedRun) {
        let run_id = run.run_id.clone();
        self.busy_executors.fetch_add(1, Ordering::Relaxed);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.execute_inner(&run);
        }));
        self.busy_executors.fetch_sub(1, Ordering::Relaxed);
        if outcome.is_err() {
            eprintln!("lassi-server: sweep `{run_id}` panicked");
            if let Some(entry) = self.runs.lock().get(&run_id).cloned() {
                let mut status = entry.status.lock();
                if !status.state.is_terminal() {
                    let _ = status.finish(RunState::Failed, "sweep panicked; see server log");
                    let _ = status.save(&self.store.run_dir(&run_id));
                    self.record_transition(
                        Some(&entry),
                        &run_id,
                        RunState::Failed,
                        Some("sweep panicked; see server log"),
                    );
                }
            }
        }
    }

    fn execute_inner(&self, run: &QueuedRun) {
        let Some(entry) = self.runs.lock().get(&run.run_id).cloned() else {
            return;
        };
        let dir = self.store.run_dir(&run.run_id);
        {
            let mut status = entry.status.lock();
            // Cancelled (or drain-failed) while queued: nothing to do.
            if status.state != RunState::Queued {
                return;
            }
            status
                .advance(RunState::Running)
                .expect("queued → running is legal");
            *entry.started.lock() = Some(Instant::now());
            let _ = status.save(&dir);
        }
        self.record_transition(Some(&entry), &run.run_id, RunState::Running, None);

        // The per-run cache delta is measured around the submission; under
        // concurrent runs the counters interleave, so the delta is
        // attributed, not exact — /v1/cache/stats has the authoritative
        // totals.
        let jobs = run.grid.jobs();
        let total = jobs.len();
        let before = self.harness.cache_snapshot();
        // Scheduling mode: a live worker fleet drains the run through the
        // lease table; otherwise (the zero-worker fleet) the local pool
        // does, exactly as before the work-pull protocol existed.
        let (outputs, fleet) = if total > 0 && self.fleet_available() {
            self.drain_remote(run, &entry, &jobs)
        } else {
            (self.drain_local(&entry, jobs.clone()), None)
        };

        let wall = entry
            .started
            .lock()
            .map(|started| started.elapsed().as_secs_f64());
        let mut status = entry.status.lock();
        status.completed = outputs.len();
        status.wall_seconds = wall;
        status.fleet = fleet;
        if outputs.len() == total {
            let delta = self.harness.cache_snapshot().since(before);
            // The completion event goes into the sink *before* the artifact
            // write, so it makes it into `trace.jsonl`; the terminal
            // runstate transition below necessarily post-dates the file.
            entry.trace.push(
                TraceEvent::event("run_complete", entry.trace.now_us())
                    .with("run_id", run.run_id.as_str())
                    .with("scenarios", outputs.len() as u64),
            );
            match run.grid.write_artifact(
                &self.store,
                &run.run_id,
                true,
                &jobs,
                &outputs,
                delta,
                &entry.trace.snapshot(),
            ) {
                Ok(_) => {
                    status
                        .advance(RunState::Done)
                        .expect("running → done is legal");
                    self.record_transition(Some(&entry), &run.run_id, RunState::Done, None);
                }
                Err(e) => {
                    let reason = format!("cannot write artifact: {e}");
                    let _ = status.finish(RunState::Failed, reason.clone());
                    self.record_transition(
                        Some(&entry),
                        &run.run_id,
                        RunState::Failed,
                        Some(&reason),
                    );
                }
            }
        } else if entry.cancel_requested.load(Ordering::SeqCst) {
            let _ = status.finish(RunState::Cancelled, "cancelled by client");
            self.record_transition(
                Some(&entry),
                &run.run_id,
                RunState::Cancelled,
                Some("cancelled by client"),
            );
        } else {
            let _ = status.finish(
                RunState::Failed,
                "server drained mid-run; partial outputs discarded",
            );
            self.record_transition(
                Some(&entry),
                &run.run_id,
                RunState::Failed,
                Some("server drained mid-run; partial outputs discarded"),
            );
        }
        let _ = status.save(&dir);
    }

    /// Run `jobs` through the local worker pool under the run's cancel,
    /// counting each output into the run's live progress. Used for a whole
    /// run (no fleet) and for the jobs a dark fleet left behind.
    fn drain_local(&self, entry: &RunEntry, jobs: Vec<Job>) -> Vec<JobOutput> {
        let mut outputs = Vec::with_capacity(jobs.len());
        let stream = self.harness.submit(jobs);
        let token = stream.cancel_token();
        *entry.cancel.lock() = Some(token.clone());
        // Re-check after publishing the token: a cancel or drain that raced
        // in before the token existed must still take effect.
        if entry.cancel_requested.load(Ordering::SeqCst) || self.shutting_down() {
            token.cancel();
        }
        for output in stream {
            outputs.push(output);
            entry.completed.fetch_add(1, Ordering::Relaxed);
        }
        *entry.cancel.lock() = None;
        outputs
    }

    /// Drain a run through the worker fleet: publish a lease table, let
    /// `/v1/work/*` hand out and settle leases, and reclaim expired leases
    /// into the requeue set until every job has its record (or the run is
    /// cancelled/drained). Between those events the drain sleeps on the
    /// run's condvar until the earliest lease deadline. If the whole fleet
    /// goes dark mid-run the remaining jobs fall back to the local pool:
    /// graceful degradation in the other direction.
    fn drain_remote(
        &self,
        run: &QueuedRun,
        entry: &RunEntry,
        jobs: &[Job],
    ) -> (Vec<JobOutput>, Option<FleetStats>) {
        let total = jobs.len();
        let remote = Arc::new(RemoteRun {
            run_id: run.run_id.clone(),
            jobs: jobs.to_vec(),
            table: Mutex::new(LeaseTable::new(&run.run_id, total)),
            wake: std::sync::Condvar::new(),
            outputs: Mutex::new(vec![None; total]),
        });
        self.remote_runs.lock().live.push(Arc::clone(&remote));
        self.events.push(
            TraceEvent::event("remote_drain", self.events.now_us())
                .with("run_id", run.run_id.as_str())
                .with("jobs", total as u64),
        );

        let mut table = remote.table.lock();
        loop {
            let requeued = table.reclaim_expired(unix_now_ms());
            if !requeued.is_empty() {
                self.lease_event("reclaimed", &run.run_id, "-", "-", requeued.len() as u64);
            }
            entry
                .completed
                .store(table.completed_count(), Ordering::Relaxed);
            entry.status.lock().fleet = Some(table.stats());
            if table.is_complete()
                || entry.cancel_requested.load(Ordering::SeqCst)
                || self.shutting_down()
            {
                break;
            }
            let wait = match table.next_deadline_ms() {
                Some(deadline_ms) => {
                    Duration::from_millis(deadline_ms.saturating_sub(unix_now_ms()))
                }
                // Jobs pending, none in flight: wait for a grant until the
                // freshest worker leaves the liveness window.
                None => match self.fleet_live_for() {
                    Some(live_for) => live_for,
                    None => {
                        // Every worker is presumed dead: finish the run
                        // ourselves rather than stall.
                        drop(table);
                        self.local_fallback(&remote, entry);
                        table = remote.table.lock();
                        continue;
                    }
                },
            };
            table = remote
                .wake
                .wait_timeout(table, wait)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        drop(table);

        let stats = {
            // Retire the run under the lock `fleet_snapshot` sums under, so
            // no scraped counter ever goes backwards.
            let mut runs = self.remote_runs.lock();
            runs.live.retain(|r| !Arc::ptr_eq(r, &remote));
            let stats = remote.table.lock().stats();
            runs.retired = runs.retired + stats;
            stats
        };
        let outputs = std::mem::take(&mut *remote.outputs.lock());
        (outputs.into_iter().flatten().collect(), Some(stats))
    }

    /// Run every still-pending job of a fleet-drained run through the
    /// local pool, under a lease of its own so the partition of pending and
    /// in-flight jobs (and the first-write-wins rule against late stale
    /// workers) stays uniform. It is not counted as a worker lease.
    fn local_fallback(&self, remote: &RemoteRun, entry: &RunEntry) {
        let (lease_id, indices) = {
            let mut table = remote.table.lock();
            let Some(lease) = table.grant_local("local-pool", unix_now_ms()) else {
                return;
            };
            (lease.lease_id.clone(), lease.jobs.clone())
        };
        self.lease_event(
            "granted",
            &remote.run_id,
            &lease_id,
            "local-pool",
            indices.len() as u64,
        );

        let subset = indices.iter().map(|&i| remote.jobs[i].clone()).collect();
        let outputs = self.drain_local(entry, subset);
        let finished = outputs.len();
        let mut table = remote.table.lock();
        for mut output in outputs {
            let index = indices[output.index];
            output.index = index;
            if table.record_job(index) == JobWrite::Fresh {
                remote.outputs.lock()[index] = Some(output);
            }
        }
        if finished == indices.len() {
            let _ = table.settle(&lease_id);
        } else {
            // Cancelled mid-fallback: put the unfinished jobs back so the
            // table's partition invariant holds for whoever reads it. Like
            // the grant, this reclaim is not counted in the fleet stats.
            let _ = table.fail_lease(&lease_id);
        }
    }
}

/// The executor thread body: pull queued runs until the queue is closed
/// *and* empty, executing each to a terminal state.
fn executor_loop(state: &Arc<AppState>) {
    loop {
        let next = {
            let mut queue = state.queue.lock();
            loop {
                if let Some(run) = queue.items.pop_front() {
                    break Some(run);
                }
                if !queue.open {
                    break None;
                }
                queue = state.queue_signal.wait(queue);
            }
        };
        match next {
            Some(run) => state.execute(run),
            None => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lassi_core::PipelineConfig;
    use lassi_harness::{HarnessOptions, STATE_FILE};
    use lassi_hecbench::application;
    use lassi_llm::gpt4;
    use std::time::Duration;

    fn test_store(name: &str) -> ArtifactStore {
        let dir = std::env::temp_dir().join(format!("lassi-state-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ArtifactStore::new(dir)
    }

    fn tiny_grid() -> SweepGrid {
        SweepGrid::single(
            PipelineConfig::default(),
            vec![gpt4()],
            vec![application("layout").unwrap()],
            vec![lassi_core::Direction::CudaToOmp],
        )
    }

    fn state(store_name: &str) -> Arc<AppState> {
        let harness = Harness::new(HarnessOptions::default().with_workers(2));
        Arc::new(AppState::new(harness, test_store(store_name)))
    }

    #[test]
    fn run_ids_are_unique_and_ordered() {
        let s = state("ids");
        assert_eq!(s.next_run_id(), "srv-000001");
        assert_eq!(s.next_run_id(), "srv-000002");
    }

    #[test]
    fn executor_drives_a_submitted_run_to_done() {
        let s = state("exec");
        s.start_executors(1);
        let status = s.submit_sweep(tiny_grid(), Some("unit-1".into())).unwrap();
        assert_eq!(status.state, RunState::Queued);
        assert_eq!(status.total, 1);

        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let status = s.run_status("unit-1").expect("run must stay queryable");
            if status.state.is_terminal() {
                assert_eq!(status.state, RunState::Done, "reason: {:?}", status.reason);
                assert_eq!(status.completed, 1);
                assert!(status.wall_seconds.is_some());
                break;
            }
            assert!(Instant::now() < deadline, "run never finished");
            thread::sleep(Duration::from_millis(20));
        }
        // The terminal state is persisted beside the artifact.
        let on_disk = RunStatus::load(&s.store().run_dir("unit-1")).unwrap();
        assert_eq!(on_disk.state, RunState::Done);

        // Duplicate ids are refused at submission time.
        assert!(matches!(
            s.submit_sweep(tiny_grid(), Some("unit-1".into())),
            Err(SubmitError::RunExists(_))
        ));

        s.begin_shutdown();
        s.join_executors();
    }

    #[test]
    fn cancel_while_queued_is_immediate_and_shutdown_fails_queued_runs() {
        // No executors: everything submitted stays queued.
        let s = state("cancel");
        s.submit_sweep(tiny_grid(), Some("will-cancel".into()))
            .unwrap();
        s.submit_sweep(tiny_grid(), Some("will-drain".into()))
            .unwrap();
        assert_eq!(s.live_runs(), 2);

        let status = s.cancel_run("will-cancel").unwrap();
        assert_eq!(status.state, RunState::Cancelled);
        assert!(matches!(
            s.cancel_run("will-cancel"),
            Err(CancelError::NotCancellable(RunState::Cancelled))
        ));
        assert!(matches!(
            s.cancel_run("no-such-run"),
            Err(CancelError::NotFound)
        ));

        s.begin_shutdown();
        let drained = s.run_status("will-drain").unwrap();
        assert_eq!(drained.state, RunState::Failed);
        assert!(drained.reason.as_deref().unwrap().contains("drained"));
        // …and the failure is durable, not just in memory.
        let on_disk = RunStatus::load(&s.store().run_dir("will-drain")).unwrap();
        assert_eq!(on_disk.state, RunState::Failed);

        // New submissions are refused while draining.
        assert!(matches!(
            s.submit_sweep(tiny_grid(), None),
            Err(SubmitError::Draining)
        ));
    }

    fn two_job_grid() -> SweepGrid {
        SweepGrid::single(
            PipelineConfig::default(),
            vec![gpt4()],
            vec![application("layout").unwrap()],
            vec![
                lassi_core::Direction::CudaToOmp,
                lassi_core::Direction::OmpToCuda,
            ],
        )
    }

    fn wait_terminal(s: &Arc<AppState>, id: &str) -> RunStatus {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let status = s.run_status(id).expect("run must stay queryable");
            if status.state.is_terminal() {
                return status;
            }
            assert!(Instant::now() < deadline, "run `{id}` never finished");
            thread::sleep(Duration::from_millis(20));
        }
    }

    fn lease_counters(snapshot: &FleetSnapshot) -> FleetStats {
        FleetStats {
            leases_granted: snapshot.leases_granted,
            leases_expired: snapshot.leases_expired,
            jobs_requeued: snapshot.jobs_requeued,
            duplicate_completions: snapshot.duplicate_completions,
        }
    }

    /// Lease the next batch, then give the drain time to sleep again
    /// after the grant woke it, so the next event must wake it anew.
    fn next_lease(s: &AppState, worker: &str) -> LeaseGrant {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(grant) = s.lease_work(worker, 4) {
                thread::sleep(Duration::from_millis(200));
                return grant;
            }
            assert!(Instant::now() < deadline, "no lease granted");
            thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn fleet_drain_wakes_on_completion_cancel_and_shutdown() {
        // No lease expires under a 60 s TTL, so a drain that missed its
        // wake-up would sit out a whole TTL.
        let s = state("wake");
        s.set_lease_ttl_ms(60_000);
        assert!(s.lease_work("w1", 4).is_none());
        s.start_executors(1);
        let prompt = Duration::from_secs(2);

        s.submit_sweep(tiny_grid(), Some("wake-done".into()))
            .unwrap();
        let grant = next_lease(&s, "w1");
        let records = grant.jobs.iter().map(|(_, job)| job.run()).collect();
        s.complete_work("w1", &grant.lease_id, records).unwrap();
        let settled = Instant::now();
        assert_eq!(wait_terminal(&s, "wake-done").state, RunState::Done);
        assert!(settled.elapsed() < prompt, "{:?}", settled.elapsed());

        s.submit_sweep(tiny_grid(), Some("wake-cancel".into()))
            .unwrap();
        next_lease(&s, "w1");
        let cancelled = Instant::now();
        s.cancel_run("wake-cancel").unwrap();
        assert_eq!(wait_terminal(&s, "wake-cancel").state, RunState::Cancelled);
        assert!(cancelled.elapsed() < prompt, "{:?}", cancelled.elapsed());

        s.submit_sweep(tiny_grid(), Some("wake-drain".into()))
            .unwrap();
        next_lease(&s, "w1");
        let drained = Instant::now();
        s.begin_shutdown();
        s.join_executors();
        assert!(drained.elapsed() < prompt, "{:?}", drained.elapsed());
        assert_eq!(s.run_status("wake-drain").unwrap().state, RunState::Failed);
    }

    #[test]
    fn fleet_drains_a_run_with_first_write_wins_duplicates() {
        let s = state("fleet");
        s.set_lease_ttl_ms(60_000);
        // The first lease poll registers the worker; there is no work yet.
        assert!(s.lease_work("w1", 4).is_none());
        assert!(s.fleet_available());
        s.start_executors(1);
        s.submit_sweep(two_job_grid(), Some("fleet-1".into()))
            .unwrap();

        // Pull one job at a time so the run stays incomplete between
        // leases (needed to pin the duplicate path deterministically).
        let deadline = Instant::now() + Duration::from_secs(30);
        let grant = loop {
            if let Some(grant) = s.lease_work("w1", 1) {
                break grant;
            }
            assert!(Instant::now() < deadline, "no lease granted");
            thread::sleep(Duration::from_millis(10));
        };
        assert_eq!(grant.run_id, "fleet-1");
        assert_eq!(grant.jobs.len(), 1);
        assert!(s.heartbeat_work("w1", &grant.lease_id).is_ok());

        // A corrupt completion is refused, the lease failed and requeued.
        let (_, job) = &grant.jobs[0];
        let mut corrupt = job.run();
        corrupt.application = "chaos-corrupted".into();
        assert!(matches!(
            s.complete_work("w1", &grant.lease_id, vec![corrupt]),
            Err(CompleteError::Invalid(_))
        ));
        assert!(matches!(
            s.heartbeat_work("w1", &grant.lease_id),
            Err(LeaseError::NotActive { .. })
        ));

        // Re-lease the requeued job and complete it for real.
        let grant2 = s.lease_work("w1", 1).expect("requeued job must re-lease");
        let record = grant2.jobs[0].1.run();
        assert_eq!(
            s.complete_work("w1", &grant2.lease_id, vec![record.clone()])
                .unwrap(),
            (1, 0)
        );
        // A stale duplicate of the same completion is dropped,
        // first-write-wins.
        assert_eq!(
            s.complete_work("w1", &grant2.lease_id, vec![record])
                .unwrap(),
            (0, 1)
        );

        // Drain the second job and let the run finish.
        let grant3 = s.lease_work("w1", 4).expect("second job must lease");
        let records: Vec<TranslationRecord> =
            grant3.jobs.iter().map(|(_, job)| job.run()).collect();
        s.complete_work("w1", &grant3.lease_id, records).unwrap();

        let status = wait_terminal(&s, "fleet-1");
        assert_eq!(status.state, RunState::Done, "reason: {:?}", status.reason);
        let fleet = status.fleet.expect("fleet-drained run must carry stats");
        assert!(fleet.leases_granted >= 3, "{fleet:?}");
        assert_eq!(fleet.leases_expired, 1, "{fleet:?}");
        assert_eq!(fleet.jobs_requeued, 1, "{fleet:?}");
        assert_eq!(fleet.duplicate_completions, 1, "{fleet:?}");
        // …and the stats are durable in state.json, not just in memory.
        let on_disk = RunStatus::load(&s.store().run_dir("fleet-1")).unwrap();
        assert_eq!(on_disk.fleet, Some(fleet));
        // The process-wide counters are the sum of the (here: one) run's.
        let snapshot = s.fleet_snapshot();
        assert_eq!(lease_counters(&snapshot), fleet);
        assert_eq!(snapshot.records_accepted, 2);

        s.begin_shutdown();
        s.join_executors();
    }

    #[test]
    fn dead_fleet_leases_expire_and_the_local_pool_finishes_the_run() {
        let s = state("reclaim");
        s.set_lease_ttl_ms(100);
        assert!(s.lease_work("ghost", 4).is_none());
        s.start_executors(1);
        s.submit_sweep(tiny_grid(), Some("fleet-2".into())).unwrap();

        // The ghost worker takes the only job and is never heard from
        // again: its lease must expire, the job requeue, and — with the
        // whole fleet dark — the local pool must finish the run.
        let deadline = Instant::now() + Duration::from_secs(30);
        while s.lease_work("ghost", 4).is_none() {
            assert!(Instant::now() < deadline, "no lease granted");
            thread::sleep(Duration::from_millis(10));
        }

        let status = wait_terminal(&s, "fleet-2");
        assert_eq!(status.state, RunState::Done, "reason: {:?}", status.reason);
        let fleet = status.fleet.expect("fleet stats present");
        // The ghost's lease only: the local pool's is no worker lease.
        assert_eq!(fleet.leases_granted, 1, "{fleet:?}");
        assert!(fleet.leases_expired >= 1, "{fleet:?}");
        assert!(fleet.jobs_requeued >= 1, "{fleet:?}");
        let snapshot = s.fleet_snapshot();
        assert_eq!(lease_counters(&snapshot), fleet);
        // The local pool's records are not remote records.
        assert_eq!(snapshot.records_accepted, 0);
        // The local pool's output keeps its measured execution time.
        let events = lassi_harness::read_trace(&s.store().run_dir("fleet-2")).unwrap();
        let span = events.iter().find(|ev| ev.name == "job").expect("job span");
        assert!(
            matches!(span.field("execute_us"), Some(lassi_obs::FieldValue::Int(us)) if *us > 0),
            "{span:?}"
        );

        s.begin_shutdown();
        s.join_executors();
    }

    #[test]
    fn recovery_repairs_torn_state_files() {
        let s = state("torn");
        // Simulate a crash mid-write: state.json cut off half-way (the
        // partial write that never reached the rename).
        let dir = s.store().run_dir("tornrun");
        std::fs::create_dir_all(&dir).unwrap();
        let state_json = RunStatus::queued("tornrun", 8).to_json().to_pretty();
        std::fs::write(dir.join("state.json"), &state_json[..state_json.len() / 2]).unwrap();

        assert_eq!(s.recover_runs().unwrap(), 1);
        let status = s.run_status("tornrun").expect("repaired run is queryable");
        assert_eq!(status.state, RunState::Failed);
        let reason = status.reason.expect("tear must be explained");
        assert!(reason.contains("torn"), "{reason}");
        // The run lists as failed rather than vanishing.
        let rows = s.list_run_summaries().unwrap();
        assert!(rows
            .iter()
            .any(|(id, state, _)| id == "tornrun" && *state == RunState::Failed));
        // Recovery is idempotent: the rewritten state is clean.
        assert_eq!(s.recover_runs().unwrap(), 0);
    }

    #[test]
    fn recovery_fails_runs_whose_artifact_write_was_interrupted() {
        let s = state("interrupted");
        // A crash after the artifact write replaced the run directory and
        // wrote the records and manifest, but before the final state.json.
        let grid = tiny_grid();
        let jobs = grid.jobs();
        let outputs = s.harness().submit(jobs.clone()).collect_outputs();
        grid.write_artifact(
            s.store(),
            "cut",
            false,
            &jobs,
            &outputs,
            Default::default(),
            &[],
        )
        .unwrap();
        std::fs::remove_file(s.store().run_dir("cut").join(STATE_FILE)).unwrap();
        assert!(s.store().run_dir("cut").join("manifest.json").is_file());

        assert_eq!(s.recover_runs().unwrap(), 1);
        let status = s.run_status("cut").expect("interrupted run is queryable");
        assert_eq!(status.state, RunState::Failed);
        let reason = status.reason.expect("the interruption is explained");
        assert!(reason.contains("interrupted"), "{reason}");
        let rows = s.list_run_summaries().unwrap();
        assert!(rows
            .iter()
            .any(|(id, state, _)| id == "cut" && *state == RunState::Failed));
        assert_eq!(s.recover_runs().unwrap(), 0);
    }

    #[test]
    fn recovery_fails_runs_orphaned_by_a_previous_process() {
        let s = state("recover");
        s.submit_sweep(tiny_grid(), Some("orphan".into())).unwrap();

        // Simulate a restart: a fresh AppState over the same store root,
        // with no memory of the queued run.
        let restarted = Arc::new(AppState::new(
            Harness::default(),
            ArtifactStore::new(s.store().run_dir("orphan").parent().unwrap()),
        ));
        assert_eq!(restarted.recover_runs().unwrap(), 1);
        let status = restarted.run_status("orphan").unwrap();
        assert_eq!(status.state, RunState::Failed);
        assert!(status.reason.as_deref().unwrap().contains("restarted"));
    }
}
