//! Shared service state: one long-lived [`Harness`] (worker pool + scenario
//! cache) and one [`ArtifactStore`], plus the machinery behind asynchronous
//! sweep submission — a registry of live runs with a bounded queue, and the
//! sweep-executor thread pool that pulls queued runs through the scheduler.
//!
//! Submission ([`AppState::submit_sweep`]) only validates, reserves the run
//! directory, persists `state.json` (`queued`) and enqueues — constant-time
//! regardless of grid size, which is what lets `POST /v1/sweeps` answer
//! `202 Accepted` in milliseconds. Executors own the expensive part: they
//! advance runs `queued → running`, stream scenario outputs (counting live
//! progress), write the artifact and land the run in a terminal state, with
//! every transition persisted beside the artifact. Once a run's terminal
//! `state.json` is on disk the registry lets it go, and disk answers for it.
//!
//! While a worker is live, an executor drains its run through the fleet
//! instead: the run's [`LeaseTable`] is the one record of its grants,
//! expiries, requeues and duplicates, and [`AppState::fleet_snapshot`]
//! sums those tables (live runs plus retired ones). The draining executor
//! sleeps on the run's condvar until the earliest lease deadline, and a
//! grant, a completion, a cancel or a shutdown wakes it.
//!
//! Locks come in two levels, taken in this order only: the registry (live
//! runs, queue, draining flag, retired lease stats), then one run (status,
//! cancel token, lease table). Each has one condvar: the registry's wakes
//! idle executors, a run's wakes its fleet drain and is notified only under
//! the run's lock, so a drain cannot miss a wake-up. The worker-contact
//! map, the executor handles, the debug ring and the run trace are leaves:
//! nothing is taken under them.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, MutexGuard, PoisonError};
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

/// The process-wide run bookkeeping, behind the one level-1 lock.
#[derive(Default)]
struct Registry {
    /// Runs not yet terminal on disk, in submission order.
    runs: Vec<Arc<RunEntry>>,
    /// Accepted runs waiting for an executor, oldest first. A run
    /// cancelled while queued stays here until an executor skips it.
    queue: VecDeque<Arc<RunEntry>>,
    /// Shutdown was requested: no new runs, executors exit once idle.
    draining: bool,
    /// Summed lease stats of the fleet drains already finished.
    retired: FleetStats,
}

/// One live run: its request, its mutable [`Run`] behind the level-2
/// lock, the condvar its fleet drain sleeps on (notified under `run`), and
/// its trace: lifecycle events, stamped relative to submission, that land
/// in the artifact's `trace.jsonl` beside the per-job spans.
struct RunEntry {
    id: String,
    grid: SweepGrid,
    run: Mutex<Run>,
    wake: std::sync::Condvar,
    trace: TraceSink,
}

/// Everything a run owns that changes while it is live.
struct Run {
    /// The persisted state, with the live `completed` count.
    status: RunStatus,
    /// When the executor started the sweep (live wall-clock source).
    started: Option<Instant>,
    /// Fired by a client cancel or a shutdown; the running local stream's
    /// own token once one starts, so firing it stops the stream.
    cancel: CancelToken,
    /// A client asked for cancellation (picks `cancelled` over `failed`
    /// when the outputs come up short).
    cancel_requested: bool,
    /// The lease table while the fleet drains the run.
    fleet: Option<FleetDrain>,
}

/// A run being drained by remote workers: the jobs, the lease table, and
/// the first-write-wins output slots the completions land in.
struct FleetDrain {
    jobs: Vec<Job>,
    table: LeaseTable,
    outputs: Vec<Option<JobOutput>>,
}

impl FleetDrain {
    /// Land a job's output first-write-wins; `false` for a duplicate.
    fn land(&mut self, output: JobOutput) -> bool {
        let index = output.index;
        let fresh = self.table.record_job(index) == JobWrite::Fresh;
        if fresh {
            self.outputs[index] = Some(output);
        }
        fresh
    }
}

impl Run {
    /// Take one lifecycle step: set the state (a fresh status is already
    /// `queued`), persist `state.json`, and record the step in the run's
    /// trace and the debug ring. Callers make only legal steps.
    fn transition(
        &mut self,
        app: &AppState,
        trace: &TraceSink,
        to: RunState,
        reason: Option<&str>,
    ) -> io::Result<()> {
        if to != RunState::Queued {
            let step = self.status.advance(to);
            step.expect("callers take only legal lifecycle steps");
            self.status.reason = reason.map(str::to_string);
        }
        let mut event = TraceEvent::event("runstate", app.events.now_us())
            .with("run_id", self.status.run_id.as_str())
            .with("state", to.slug());
        if let Some(reason) = reason {
            event = event.with("reason", reason);
        }
        let mut run_event = event.clone();
        run_event.t_us = trace.now_us();
        trace.push(run_event);
        app.events.push(event);
        self.status.save(&app.store.run_dir(&self.status.run_id))
    }
}

/// Everything the request handlers share, kept behind one `Arc`.
pub struct AppState {
    harness: Harness,
    store: ArtifactStore,
    run_counter: AtomicU64,
    registry: Mutex<Registry>,
    /// Signalled when a run is queued or the server drains.
    queued: Condvar,
    executors: Mutex<Vec<JoinHandle<()>>>,
    /// Recent trace events across all runs, for `GET /v1/debug/events`.
    events: EventRing,
    /// Size of the executor pool; 0 until started.
    executor_count: AtomicUsize,
    /// Worker id → last contact, for fleet liveness.
    workers: Mutex<HashMap<String, Instant>>,
    /// Lease time-to-live handed to workers.
    lease_ttl_ms: AtomicU64,
    /// Heartbeat extensions served, for `/v1/metrics`.
    heartbeats: AtomicU64,
    /// Remote records accepted as first writes, for `/v1/metrics`.
    records_accepted: AtomicU64,
}

impl AppState {
    /// Wrap a harness and an artifact store into service state.
    pub fn new(harness: Harness, store: ArtifactStore) -> AppState {
        AppState {
            harness,
            store,
            run_counter: AtomicU64::new(0),
            registry: Mutex::default(),
            queued: Condvar::new(),
            executors: Mutex::new(Vec::new()),
            events: EventRing::new(DEBUG_EVENT_CAPACITY),
            executor_count: AtomicUsize::new(0),
            workers: Mutex::new(HashMap::new()),
            lease_ttl_ms: AtomicU64::new(DEFAULT_LEASE_TTL_MS),
            heartbeats: AtomicU64::new(0),
            records_accepted: AtomicU64::new(0),
        }
    }

    /// The in-memory debug-event ring (`GET /v1/debug/events`).
    pub fn events(&self) -> &EventRing {
        &self.events
    }

    /// Accepted-but-not-started runs waiting for an executor.
    pub fn queue_depth(&self) -> usize {
        self.registry.lock().queue.len()
    }

    /// `(busy, total)` sweep executors — busy means inside a `running` run.
    pub fn executor_counts(&self) -> (usize, usize) {
        let busy = self.count_live(|state| state == RunState::Running);
        (busy, self.executor_count.load(Ordering::Relaxed))
    }

    /// Live runs whose state satisfies `pred`.
    fn count_live(&self, pred: impl Fn(RunState) -> bool) -> usize {
        let live = self.live();
        live.iter()
            .filter(|entry| pred(entry.run.lock().status.state))
            .count()
    }

    /// The live run `id`, if the registry still holds it.
    fn find(&self, id: &str) -> Option<Arc<RunEntry>> {
        self.live().into_iter().find(|entry| entry.id == id)
    }

    /// Every live run, in submission order.
    fn live(&self) -> Vec<Arc<RunEntry>> {
        self.registry.lock().runs.clone()
    }

    /// Land `entry` in a terminal state. Once `state.json` says so, disk
    /// answers for the run and the registry lets it go; if the write
    /// failed, the entry stays and keeps answering.
    fn finish(
        &self,
        entry: &Arc<RunEntry>,
        mut run: MutexGuard<'_, Run>,
        to: RunState,
        reason: Option<&str>,
    ) -> RunStatus {
        let saved = run.transition(self, &entry.trace, to, reason).is_ok();
        let status = run.status.clone();
        drop(run);
        if saved {
            let mut registry = self.registry.lock();
            registry.runs.retain(|live| !Arc::ptr_eq(live, entry));
        }
        status
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
        self.registry.lock().draining
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

    /// Record a `/v1/work/*` contact from a worker (implicit registration:
    /// the first lease poll is what makes a worker part of the fleet), and
    /// forget workers dark for longer than the liveness window, so ids the
    /// fleet no longer uses do not pile up.
    fn touch_worker(&self, worker: &str) {
        let window = self.liveness_window();
        let mut workers = self.workers.lock();
        workers.retain(|_, last| last.elapsed() <= window);
        workers.insert(worker.to_string(), Instant::now());
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

    /// Call `f` under each fleet-drained live run's lock, in submission
    /// order, until it answers `Some`; `f` wakes the drain if it must.
    fn find_drain<T>(
        &self,
        mut f: impl FnMut(&RunEntry, &mut FleetDrain) -> Option<T>,
    ) -> Option<T> {
        self.live().iter().find_map(|entry| {
            let mut run = entry.run.lock();
            f(entry, run.fleet.as_mut()?)
        })
    }

    /// `POST /v1/work/lease`: register the worker and hand it a batch of
    /// up to `capacity` jobs from the first fleet-drained run with pending
    /// work. `None` means no work right now — the worker should back off
    /// and poll again.
    pub fn lease_work(&self, worker: &str, capacity: usize) -> Option<LeaseGrant> {
        self.touch_worker(worker);
        let ttl_ms = self.lease_ttl_ms();
        let now_ms = unix_now_ms();
        self.find_drain(|entry, drain| {
            let lease = drain.table.grant(worker, capacity, now_ms, ttl_ms)?;
            let job = |&index: &usize| (index, drain.jobs[index].clone());
            let jobs: Vec<(usize, Job)> = lease.jobs.iter().map(job).collect();
            // The drain's wait now ends at this lease's deadline at latest.
            entry.wake.notify_all();
            let (lease_id, run_id) = (lease.lease_id.clone(), entry.id.clone());
            self.lease_event("granted", &run_id, &lease_id, worker, jobs.len() as u64);
            let grant = LeaseGrant {
                lease_id,
                run_id,
                ttl_ms,
                jobs,
            };
            Some(grant)
        })
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
        let extended = self.find_drain(|_, drain| {
            let outcome = drain.table.heartbeat(lease_id, now_ms, ttl_ms);
            if let Err(e) = outcome {
                if !matches!(e, LeaseError::UnknownLease(_)) {
                    refusal = e;
                }
                return None;
            }
            self.heartbeats.fetch_add(1, Ordering::Relaxed);
            Some(ttl_ms)
        });
        extended.ok_or(refusal)
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
        mut records: Vec<TranslationRecord>,
    ) -> Result<(usize, usize), CompleteError> {
        self.touch_worker(worker);
        let settled = self.find_drain(|entry, drain| {
            let leases = drain.table.leases();
            let leased = leases.iter().find(|l| l.lease_id == lease_id)?.jobs.clone();
            if let Err(reason) = validate_completion(&leased, &drain.jobs, &records) {
                // Fail-and-requeue only an active lease; a stale corrupt
                // completion (lease already reclaimed) is simply dropped.
                if let Ok(requeued) = drain.table.fail_lease(lease_id) {
                    entry.wake.notify_all();
                    let jobs = requeued.len() as u64;
                    self.lease_event("failed", &entry.id, lease_id, worker, jobs);
                }
                return Some(Err(CompleteError::Invalid(reason)));
            }
            let (jobs, _was_active) =
                (drain.table.settle(lease_id)).expect("lease found above stays known");
            let mut accepted = 0;
            for (index, record) in jobs.iter().zip(std::mem::take(&mut records)) {
                // A remote completion carries no timing.
                accepted += usize::from(drain.land(JobOutput {
                    index: *index,
                    direction: drain.jobs[*index].direction,
                    record,
                    wall_seconds: 0.0,
                    queue_seconds: 0.0,
                    from_cache: false,
                }));
            }
            let duplicates = jobs.len() - accepted;
            entry.wake.notify_all();
            self.records_accepted
                .fetch_add(accepted as u64, Ordering::Relaxed);
            self.lease_event("completed", &entry.id, lease_id, worker, accepted as u64);
            Some(Ok((accepted, duplicates)))
        });
        settled.unwrap_or_else(|| Err(CompleteError::UnknownLease(lease_id.to_string())))
    }

    /// Point-in-time fleet accounting for the metrics endpoint. The lease
    /// counters sum every drain's table, live or retired, under the registry
    /// lock, so no counter ever goes backwards between two scrapes.
    pub fn fleet_snapshot(&self) -> FleetSnapshot {
        let window = self.liveness_window();
        let workers = self.workers.lock();
        let workers_active = workers.values().filter(|t| t.elapsed() <= window).count() as u64;
        drop(workers);
        let registry = self.registry.lock();
        let mut leases = registry.retired;
        let (mut leases_active, mut remote_runs) = (0, 0);
        for entry in &registry.runs {
            if let Some(drain) = &entry.run.lock().fleet {
                leases = leases + drain.table.stats();
                leases_active += drain.table.active_leases() as u64;
                remote_runs += 1;
            }
        }
        FleetSnapshot {
            leases_granted: leases.leases_granted,
            leases_expired: leases.leases_expired,
            jobs_requeued: leases.jobs_requeued,
            duplicate_completions: leases.duplicate_completions,
            records_accepted: self.records_accepted.load(Ordering::Relaxed),
            heartbeats: self.heartbeats.load(Ordering::Relaxed),
            workers_active,
            leases_active,
            remote_runs,
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
        let run_id = loop {
            let id = requested_id.clone().unwrap_or_else(|| self.next_run_id());
            match self.store.reserve_run(&id) {
                Ok(()) => break id,
                Err(e) if e.kind() != io::ErrorKind::AlreadyExists => {
                    return Err(SubmitError::Io(e))
                }
                Err(_) if requested_id.is_some() => return Err(SubmitError::RunExists(id)),
                // A server-assigned id taken by an earlier process: next.
                Err(_) => continue,
            }
        };
        let refuse = |error: SubmitError| {
            let _ = std::fs::remove_dir_all(self.store.run_dir(&run_id));
            Err(error)
        };

        let mut run = Run {
            status: RunStatus::queued(&run_id, grid.len()),
            started: None,
            cancel: CancelToken::default(),
            cancel_requested: false,
            fleet: None,
        };
        let trace = TraceSink::new();
        if let Err(e) = run.transition(self, &trace, RunState::Queued, None) {
            return refuse(SubmitError::Io(e));
        }
        let status = run.status.clone();
        let entry = Arc::new(RunEntry {
            id: run_id.clone(),
            grid,
            run: Mutex::new(run),
            wake: std::sync::Condvar::new(),
            trace,
        });
        let mut registry = self.registry.lock();
        if registry.draining {
            // Shutdown raced in between the check above and here.
            return refuse(SubmitError::Draining);
        }
        if registry.queue.len() >= MAX_QUEUED_RUNS {
            return refuse(SubmitError::QueueFull);
        }
        registry.runs.push(Arc::clone(&entry));
        registry.queue.push_back(entry);
        drop(registry);
        self.queued.notify_one();
        Ok(status)
    }

    /// The queryable status of a run: the live registry first (with fresh
    /// progress counts and wall-clock), then `state.json` from disk
    /// (finished runs, and runs from a previous process).
    pub fn run_status(&self, id: &str) -> Option<RunStatus> {
        let Some(entry) = self.find(id) else {
            return RunStatus::load(&self.store.run_dir(id)).ok();
        };
        let run = entry.run.lock();
        let mut status = run.status.clone();
        if status.state == RunState::Running {
            status.wall_seconds = run.started.map(|t| t.elapsed().as_secs_f64());
        }
        Some(status)
    }

    /// Every known run as `(id, state, created_unix)`, sorted by id — the
    /// source for the paginated `GET /v1/runs`. Disk is the base (it has
    /// runs from previous processes); the live registry overlays it with
    /// fresher states, and fills in a run whose directory is empty while
    /// its artifact is rewritten.
    pub fn list_run_summaries(&self) -> io::Result<Vec<(String, RunState, Option<u64>)>> {
        let on_disk = self.store.scan_runs()?;
        let mut rows: Vec<_> = (on_disk.into_iter())
            .map(|(id, scanned)| match scanned {
                ScannedRun::Status(status) => (id, status.state, status.created_unix),
                // No readable state.json (recovery repairs it at startup;
                // a fresh crash still lists as failed, never vanishes).
                ScannedRun::Corrupt(_) => (id, RunState::Failed, None),
            })
            .collect();
        for entry in self.live() {
            let run = entry.run.lock();
            let row = (entry.id.clone(), run.status.state, run.status.created_unix);
            match rows.binary_search_by(|(id, _, _)| id.cmp(&entry.id)) {
                Ok(at) => rows[at] = row,
                Err(at) => rows.insert(at, row),
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
        let Some(entry) = self.find(id) else {
            // Runs on disk only are terminal: finished here, or failed by
            // recovery if a previous process died with them live.
            return match self.run_status(id) {
                Some(status) => Err(CancelError::NotCancellable(status.state)),
                None => Err(CancelError::NotFound),
            };
        };
        let mut run = entry.run.lock();
        match run.status.state {
            RunState::Queued => {
                run.cancel_requested = true;
                let reason = Some("cancelled by client before start");
                Ok(self.finish(&entry, run, RunState::Cancelled, reason))
            }
            RunState::Running => {
                run.cancel_requested = true;
                run.cancel.cancel();
                entry.wake.notify_all();
                let event =
                    TraceEvent::event("cancel_requested", self.events.now_us()).with("run_id", id);
                self.events.push(event);
                Ok(run.status.clone())
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
        let live = {
            let mut registry = self.registry.lock();
            registry.draining = true;
            registry.queue.clear();
            registry.runs.clone()
        };
        self.events
            .push(TraceEvent::event("drain", self.events.now_us()));
        self.queued.notify_all();
        for entry in live {
            let run = entry.run.lock();
            if run.status.state == RunState::Queued {
                let reason = Some("server drained before the run started");
                self.finish(&entry, run, RunState::Failed, reason);
            } else {
                run.cancel.cancel();
                entry.wake.notify_all();
            }
        }
    }

    /// Number of runs currently in a non-terminal state (tests and
    /// introspection).
    pub fn live_runs(&self) -> usize {
        self.count_live(|state| !state.is_terminal())
    }

    /// Spawn the sweep-executor pool (idempotent; first call wins). Runs
    /// startup recovery first: any run left `queued`/`running` on disk by a
    /// previous process provably lost its executor and is marked `failed`
    /// with a reason, so the API never reports phantom progress.
    pub fn start_executors(self: &Arc<AppState>, count: usize) {
        if self.executor_count.swap(count.max(1), Ordering::SeqCst) > 0 {
            return;
        }
        if let Err(e) = self.recover_runs() {
            eprintln!("lassi-server: run recovery failed: {e}");
        }
        let mut handles = self.executors.lock();
        for i in 0..count.max(1) {
            let state = Arc::clone(self);
            let handle = thread::Builder::new()
                .name(format!("sweep-executor-{i}"))
                .spawn(move || {
                    while let Some(entry) = state.next_queued() {
                        state.execute(&entry);
                    }
                })
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
            let (mut status, reason) = match scanned {
                ScannedRun::Status(status) if status.state.is_terminal() => continue,
                ScannedRun::Status(status) => {
                    let reason = "server restarted before the run finished".to_string();
                    (status, reason)
                }
                ScannedRun::Corrupt(err) => {
                    let reason = format!("{err} (crash mid-write?); marked failed by recovery");
                    (RunStatus::queued(&id, 0), reason)
                }
            };
            status
                .finish(RunState::Failed, reason)
                .expect("queued/running → failed is legal");
            let _ = status.save(&self.store.run_dir(&id));
            recovered += 1;
        }
        Ok(recovered)
    }

    /// Wait for every executor to exit (the queue must already be closed
    /// via [`AppState::begin_shutdown`], or this blocks forever).
    pub fn join_executors(&self) {
        let handles = std::mem::take(&mut *self.executors.lock());
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// Block until a run is queued; `None` once the server drains.
    fn next_queued(&self) -> Option<Arc<RunEntry>> {
        let mut registry = self.registry.lock();
        loop {
            if let Some(entry) = registry.queue.pop_front() {
                return Some(entry);
            }
            if registry.draining {
                return None;
            }
            registry = self.queued.wait(registry);
        }
    }

    /// One executor's run-to-completion of a single queued run, with a
    /// panic fence: a panicking scenario must fail its run, not kill the
    /// executor thread and wedge the queue behind it.
    fn execute(&self, entry: &Arc<RunEntry>) {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.execute_inner(entry);
        }));
        if outcome.is_err() {
            eprintln!("lassi-server: sweep `{}` panicked", entry.id);
            self.detach_fleet(entry);
            let run = entry.run.lock();
            if !run.status.state.is_terminal() {
                let reason = Some("sweep panicked; see server log");
                self.finish(entry, run, RunState::Failed, reason);
            }
        }
    }

    fn execute_inner(&self, entry: &Arc<RunEntry>) {
        {
            let mut run = entry.run.lock();
            // Cancelled (or drain-failed) while queued: nothing to do.
            if run.status.state != RunState::Queued {
                return;
            }
            run.started = Some(Instant::now());
            let _ = run.transition(self, &entry.trace, RunState::Running, None);
        }

        // The per-run cache delta is measured around the submission; under
        // concurrent runs the counters interleave, so the delta is
        // attributed, not exact — /v1/cache/stats has the authoritative
        // totals.
        let jobs = entry.grid.jobs();
        let total = jobs.len();
        let before = self.harness.cache_snapshot();
        // Scheduling mode: a live worker fleet drains the run through the
        // lease table; otherwise (the zero-worker fleet) the local pool
        // does, exactly as before the work-pull protocol existed.
        let (outputs, fleet) = if total > 0 && self.fleet_available() {
            self.drain_remote(entry, &jobs)
        } else {
            (self.drain_local(entry, jobs.clone()), None)
        };

        let written = (outputs.len() == total).then(|| {
            let delta = self.harness.cache_snapshot().since(before);
            // The completion event goes into the sink *before* the artifact
            // write, so it makes it into `trace.jsonl`; the terminal
            // runstate transition below necessarily post-dates the file.
            entry.trace.push(
                TraceEvent::event("run_complete", entry.trace.now_us())
                    .with("run_id", entry.id.as_str())
                    .with("scenarios", total as u64),
            );
            // Written without the run lock, so reads of this run (and the
            // registry walks that lock every run) never wait on disk.
            let (store, trace) = (&self.store, entry.trace.snapshot());
            (entry.grid).write_artifact(store, &entry.id, true, &jobs, &outputs, delta, &trace)
        });
        let mut run = entry.run.lock();
        run.status.completed = outputs.len();
        run.status.wall_seconds = run.started.map(|started| started.elapsed().as_secs_f64());
        run.status.fleet = fleet;
        let (to, reason) = match written {
            Some(Ok(_)) => (RunState::Done, String::new()),
            Some(Err(e)) => (RunState::Failed, format!("cannot write artifact: {e}")),
            None if run.cancel_requested => (RunState::Cancelled, "cancelled by client".into()),
            None => (
                RunState::Failed,
                "server drained mid-run; partial outputs discarded".into(),
            ),
        };
        // Only a run that did not finish carries a reason.
        let reason = (to != RunState::Done).then_some(reason.as_str());
        self.finish(entry, run, to, reason);
    }

    /// Run `jobs` through the local worker pool under the run's cancel,
    /// counting each output into the run's live progress. Used for a whole
    /// run (no fleet) and for the jobs a dark fleet left behind.
    fn drain_local(&self, entry: &RunEntry, jobs: Vec<Job>) -> Vec<JobOutput> {
        let stream = self.harness.submit(jobs);
        let mut run = entry.run.lock();
        let token = stream.cancel_token();
        // A cancel or drain that fired the run's token before this stream
        // existed must still take effect.
        if run.cancel.is_cancelled() {
            token.cancel();
        }
        run.cancel = token;
        drop(run);
        let count = |_: &JobOutput| entry.run.lock().status.completed += 1;
        stream.inspect(count).collect()
    }

    /// Drain a run through the worker fleet: attach a lease table, let
    /// `/v1/work/*` hand out and settle leases, and reclaim expired leases
    /// into the requeue set until every job has its record (or the run is
    /// cancelled/drained). Between those events the drain sleeps on the
    /// run's condvar until the earliest lease deadline. If the whole fleet
    /// goes dark mid-run the remaining jobs fall back to the local pool:
    /// graceful degradation in the other direction.
    fn drain_remote(&self, entry: &RunEntry, jobs: &[Job]) -> (Vec<JobOutput>, Option<FleetStats>) {
        let total = jobs.len();
        let mut run = entry.run.lock();
        run.fleet = Some(FleetDrain {
            jobs: jobs.to_vec(),
            table: LeaseTable::new(&entry.id, total),
            outputs: vec![None; total],
        });
        self.events.push(
            TraceEvent::event("remote_drain", self.events.now_us())
                .with("run_id", entry.id.as_str())
                .with("jobs", total as u64),
        );
        loop {
            let Run {
                status,
                cancel,
                fleet,
                ..
            } = &mut *run;
            let table = &mut fleet
                .as_mut()
                .expect("attached until this drain ends")
                .table;
            let requeued = table.reclaim_expired(unix_now_ms());
            if !requeued.is_empty() {
                self.lease_event("reclaimed", &entry.id, "-", "-", requeued.len() as u64);
            }
            status.completed = table.completed_count();
            status.fleet = Some(table.stats());
            if table.is_complete() || cancel.is_cancelled() {
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
                        run = self.local_fallback(entry, run);
                        continue;
                    }
                },
            };
            run = entry
                .wake
                .wait_timeout(run, wait)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        drop(run);
        let drain = self
            .detach_fleet(entry)
            .expect("attached until this drain ends");
        let stats = drain.table.stats();
        (drain.outputs.into_iter().flatten().collect(), Some(stats))
    }

    /// End a run's fleet drain: stop leasing its jobs and fold its stats
    /// into the retired total under the registry lock, which
    /// [`AppState::fleet_snapshot`] sums under too.
    fn detach_fleet(&self, entry: &RunEntry) -> Option<FleetDrain> {
        let mut registry = self.registry.lock();
        let drain = entry.run.lock().fleet.take()?;
        registry.retired = registry.retired + drain.table.stats();
        Some(drain)
    }

    /// Run every still-pending job of a fleet-drained run through the
    /// local pool, under a lease of its own so the partition of pending and
    /// in-flight jobs (and the first-write-wins rule against late stale
    /// workers) stays uniform. It is not counted as a worker lease. The
    /// run's lock is released while the pool runs.
    fn local_fallback<'a>(
        &self,
        entry: &'a RunEntry,
        mut run: MutexGuard<'a, Run>,
    ) -> MutexGuard<'a, Run> {
        let drain = run.fleet.as_mut().expect("attached until the drain ends");
        let Some(lease) = drain.table.grant_local("local-pool", unix_now_ms()) else {
            return run;
        };
        let (lease_id, indices) = (lease.lease_id.clone(), lease.jobs.clone());
        let subset = indices.iter().map(|&i| drain.jobs[i].clone()).collect();
        drop(run);
        let jobs = indices.len() as u64;
        self.lease_event("granted", &entry.id, &lease_id, "local-pool", jobs);

        let outputs = self.drain_local(entry, subset);
        let finished = outputs.len();
        let mut run = entry.run.lock();
        let drain = run.fleet.as_mut().expect("attached until the drain ends");
        for mut output in outputs {
            output.index = indices[output.index];
            drain.land(output);
        }
        if finished == indices.len() {
            let _ = drain.table.settle(&lease_id);
        } else {
            // Cancelled mid-fallback: put the unfinished jobs back so the
            // table's partition invariant holds for whoever reads it. Like
            // the grant, this reclaim is not counted in the fleet stats.
            let _ = drain.table.fail_lease(&lease_id);
        }
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lassi_core::PipelineConfig;
    use lassi_harness::{HarnessOptions, STATE_FILE};
    use lassi_hecbench::application;
    use lassi_llm::gpt4;
    use std::sync::atomic::AtomicBool;
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

    #[test]
    fn workers_dark_past_the_liveness_window_are_forgotten() {
        let s = state("dark");
        s.set_lease_ttl_ms(1);
        for i in 0..100 {
            assert!(s.lease_work(&format!("w{i}"), 1).is_none());
        }
        thread::sleep(Duration::from_millis(20));
        assert!(s.lease_work("last", 1).is_none());
        assert_eq!(s.workers.lock().len(), 1);
    }

    fn six_job_grid() -> SweepGrid {
        SweepGrid::single(
            PipelineConfig::default(),
            vec![gpt4()],
            ["layout", "bsearch", "entropy"]
                .iter()
                .map(|name| application(name).unwrap())
                .collect(),
            vec![
                lassi_core::Direction::CudaToOmp,
                lassi_core::Direction::OmpToCuda,
            ],
        )
    }

    /// The slowest call a contended thread made must stay well under any
    /// lock-convoy or missed-wake-up stall.
    const CALL_BOUND: Duration = Duration::from_secs(5);

    /// Time `call`, failing the test if it blocked past [`CALL_BOUND`].
    fn bounded<T>(what: &str, call: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = call();
        assert!(
            started.elapsed() < CALL_BOUND,
            "{what} blocked {:?}",
            started.elapsed()
        );
        out
    }

    /// One fleet-drained run under contention: 4 workers lease, heartbeat
    /// and complete (each worker's first grant, and every third after it,
    /// gets a corrupt completion; every even grant's completion is sent
    /// twice), 2 threads poll the run and
    /// the listing, and 1 thread scrapes the fleet snapshot, whose lease
    /// counters must never go backwards. With `cancel`, no worker ever
    /// completes job 0, so the run cannot finish before it is cancelled.
    fn contended_fleet_drain(name: &str, cancel: bool) -> RunStatus {
        let s = state(name);
        s.set_lease_ttl_ms(60_000);
        let workers: Vec<String> = (0..4).map(|i| format!("{name}-w{i}")).collect();
        for worker in &workers {
            assert!(s.lease_work(worker, 1).is_none());
        }
        s.start_executors(1);
        let total = s
            .submit_sweep(six_job_grid(), Some(name.into()))
            .unwrap()
            .total;
        let stop = Arc::new(AtomicBool::new(false));
        let mut threads = Vec::new();
        for worker in workers {
            let (s, stop) = (Arc::clone(&s), Arc::clone(&stop));
            threads.push(thread::spawn(move || {
                let mut grants = 0;
                while !stop.load(Ordering::SeqCst) {
                    let Some(grant) = bounded("lease", || s.lease_work(&worker, 1)) else {
                        thread::sleep(Duration::from_millis(2));
                        continue;
                    };
                    grants += 1;
                    let _ = bounded("heartbeat", || s.heartbeat_work(&worker, &grant.lease_id));
                    if cancel && grant.jobs.iter().any(|(index, _)| *index == 0) {
                        continue;
                    }
                    let records: Vec<_> = grant.jobs.iter().map(|(_, job)| job.run()).collect();
                    if grants % 3 == 1 {
                        let mut corrupt = records.clone();
                        corrupt[0].model = "chaos-corrupted".into();
                        let refused = bounded("complete", || {
                            s.complete_work(&worker, &grant.lease_id, corrupt)
                        });
                        assert!(matches!(refused, Err(CompleteError::Invalid(_))));
                        continue;
                    }
                    let copies = if grants % 2 == 0 { 2 } else { 1 };
                    for _ in 0..copies {
                        let records = records.clone();
                        let _ = bounded("complete", || {
                            s.complete_work(&worker, &grant.lease_id, records)
                        });
                    }
                }
            }));
        }
        for poller in 0..2 {
            let (s, stop, id) = (Arc::clone(&s), Arc::clone(&stop), name.to_string());
            threads.push(thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    let status = bounded("run_status", || s.run_status(&id)).unwrap();
                    assert!(status.completed <= status.total, "{status:?}");
                    if poller == 1 {
                        let rows = bounded("list", || s.list_run_summaries()).unwrap();
                        assert!(rows.iter().any(|(row, _, _)| *row == id));
                    }
                    thread::sleep(Duration::from_millis(1));
                }
            }));
        }
        let (scraper, scraper_stop) = (Arc::clone(&s), Arc::clone(&stop));
        threads.push(thread::spawn(move || {
            let mut last = FleetSnapshot::default();
            while !scraper_stop.load(Ordering::SeqCst) {
                let now = bounded("fleet_snapshot", || scraper.fleet_snapshot());
                let counters = |snap: &FleetSnapshot| {
                    [
                        snap.leases_granted,
                        snap.leases_expired,
                        snap.jobs_requeued,
                        snap.duplicate_completions,
                        snap.records_accepted,
                        snap.heartbeats,
                    ]
                };
                for (before, after) in counters(&last).into_iter().zip(counters(&now)) {
                    assert!(after >= before, "{last:?} then {now:?}");
                }
                last = now;
                thread::sleep(Duration::from_millis(1));
            }
        }));

        let status = if cancel {
            let deadline = Instant::now() + Duration::from_secs(60);
            while s.run_status(name).unwrap().completed < total - 1 {
                assert!(Instant::now() < deadline, "the drain made no progress");
                thread::sleep(Duration::from_millis(5));
            }
            let cancelled = Instant::now();
            s.cancel_run(name).unwrap();
            loop {
                let status = s.run_status(name).unwrap();
                if status.state.is_terminal() {
                    let waited = cancelled.elapsed();
                    assert!(waited < Duration::from_secs(2), "{waited:?}");
                    break status;
                }
                assert!(
                    cancelled.elapsed() < Duration::from_secs(2),
                    "cancel never landed"
                );
                thread::sleep(Duration::from_millis(5));
            }
        } else {
            wait_terminal(&s, name)
        };
        stop.store(true, Ordering::SeqCst);
        for handle in threads {
            handle.join().expect("a contending thread failed");
        }
        s.begin_shutdown();
        s.join_executors();
        status
    }

    #[test]
    fn contended_fleet_drain_reaches_done() {
        let status = contended_fleet_drain("contend-done", false);
        assert_eq!(status.state, RunState::Done, "reason: {:?}", status.reason);
        assert_eq!(status.completed, 6);
        // At least the first grant was completed corrupt and requeued.
        let fleet = status.fleet.expect("fleet-drained run carries stats");
        assert!(fleet.leases_expired >= 1, "{fleet:?}");
        assert_eq!(fleet.jobs_requeued, fleet.leases_expired, "{fleet:?}");
    }

    #[test]
    fn contended_fleet_drain_cancels_promptly() {
        let status = contended_fleet_drain("contend-cancel", true);
        assert_eq!(
            status.state,
            RunState::Cancelled,
            "reason: {:?}",
            status.reason
        );
    }
}
