//! The lease table behind the remote worker fleet.
//!
//! When remote workers drain a run, every batch of scenario jobs they pull
//! travels under a *time-bounded lease*: `POST /v1/work/lease` grants one,
//! heartbeats move its deadline, and `POST /v1/work/complete` settles it.
//! A worker that dies or stalls simply stops heartbeating: its lease
//! passes its deadline, is reclaimed, and the jobs it held go back to the
//! requeue set for another worker. Because the simulator is deterministic,
//! re-executing a requeued job reproduces the identical record, so
//! duplicate completions (a stale worker settling a lease that was already
//! reclaimed) are resolved first-write-wins without ever changing the
//! artifact.
//!
//! ```text
//!                       complete  ┌───────────┐
//!             ┌────────┐ ───────▶ │ completed │
//!  grant ───▶ │ active │          └───────────┘
//!             └────────┘ ───────▶ ┌───────────┐
//!              ▲      │  deadline │ reclaimed │  (jobs requeued)
//!              └──────┘  passes   └───────────┘
//!             heartbeat  or corrupt completion
//! ```
//!
//! [`LeaseTable`] is the bookkeeping for one run: the requeue set of
//! unleased job indices, the leases in flight, the first-write-wins
//! completion bitmap, and the run's [`FleetStats`]. Those stats are the
//! fleet's only record of grants, expiries, requeues and duplicates: the
//! server's process-wide counters are their sum. The table lives only in
//! memory: a run's records are what persist, and re-executing a scenario
//! reproduces its record, so nothing a restarted process could read back
//! from a lease file would change the artifact. The table is deliberately
//! clock-free: every operation takes `now_ms` from the caller, which keeps
//! the whole machine deterministic under test.

use std::collections::VecDeque;
use std::fmt;
use std::ops::Add;

use crate::json::Json;

/// Lifecycle states of one lease.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LeaseState {
    /// Held by a worker until its deadline (heartbeats move the deadline).
    Active,
    /// The worker returned records for every job under the lease.
    Completed,
    /// The deadline passed (worker died or stalled) or the completion was
    /// corrupt; the lease's uncompleted jobs were requeued.
    Reclaimed,
}

impl LeaseState {
    /// The display spelling (`active`, `completed`, `reclaimed`).
    pub fn slug(self) -> &'static str {
        match self {
            LeaseState::Active => "active",
            LeaseState::Completed => "completed",
            LeaseState::Reclaimed => "reclaimed",
        }
    }
}

impl fmt::Display for LeaseState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.slug())
    }
}

/// Why a lease operation was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeaseError {
    /// No lease with that id in the table.
    UnknownLease(String),
    /// The lease exists but is no longer active (already settled or
    /// reclaimed out from under a slow worker).
    NotActive {
        /// The lease in question.
        lease_id: String,
        /// Its current (non-active) state.
        state: LeaseState,
    },
}

impl fmt::Display for LeaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LeaseError::UnknownLease(id) => write!(f, "unknown lease `{id}`"),
            LeaseError::NotActive { lease_id, state } => {
                write!(f, "lease `{lease_id}` is {state}, not active")
            }
        }
    }
}

impl std::error::Error for LeaseError {}

/// First-write-wins verdict for one delivered job record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobWrite {
    /// First record for this job index — keep it.
    Fresh,
    /// The job was already completed (a requeued twin or a stale worker
    /// raced us) — drop the record, the first write stands.
    Duplicate,
}

/// Per-run fleet accounting, surfaced by `GET /v1/runs/{id}` so a
/// degraded-but-succeeding run is visible without reading traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetStats {
    /// Leases handed to remote workers (including re-grants of requeued
    /// jobs); the server's own local-pool lease is not counted.
    pub leases_granted: u64,
    /// Leases that expired (deadline passed) or were failed for a corrupt
    /// completion, then reclaimed.
    pub leases_expired: u64,
    /// Job indices pushed back into the requeue set by reclaims.
    pub jobs_requeued: u64,
    /// Records dropped because the job already had a first write.
    pub duplicate_completions: u64,
}

impl FleetStats {
    /// Serialize to the `state.json` sub-object.
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("leases_granted".into(), Json::uint(self.leases_granted)),
            ("leases_expired".into(), Json::uint(self.leases_expired)),
            ("jobs_requeued".into(), Json::uint(self.jobs_requeued)),
            (
                "duplicate_completions".into(),
                Json::uint(self.duplicate_completions),
            ),
        ])
    }

    /// Decode the sub-object; missing counters default to zero.
    pub fn from_json(value: &Json) -> FleetStats {
        let count = |name: &str| value.get(name).and_then(Json::as_u64).unwrap_or(0);
        FleetStats {
            leases_granted: count("leases_granted"),
            leases_expired: count("leases_expired"),
            jobs_requeued: count("jobs_requeued"),
            duplicate_completions: count("duplicate_completions"),
        }
    }
}

impl Add for FleetStats {
    type Output = FleetStats;

    fn add(self, other: FleetStats) -> FleetStats {
        FleetStats {
            leases_granted: self.leases_granted + other.leases_granted,
            leases_expired: self.leases_expired + other.leases_expired,
            jobs_requeued: self.jobs_requeued + other.jobs_requeued,
            duplicate_completions: self.duplicate_completions + other.duplicate_completions,
        }
    }
}

/// One lease: a batch of job indices held by a worker until a deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct Lease {
    /// Table-scoped id, e.g. `lease-smoke-0003` (embeds the run id so ids
    /// from different runs never collide at the server).
    pub lease_id: String,
    /// The worker that pulled the batch.
    pub worker: String,
    /// Current lifecycle state.
    pub state: LeaseState,
    /// Submission indices of the jobs under this lease.
    pub jobs: Vec<usize>,
    /// Milliseconds-since-epoch the lease was granted.
    pub granted_unix_ms: u64,
    /// Milliseconds-since-epoch the lease expires unless extended.
    pub deadline_unix_ms: u64,
}

/// The lease bookkeeping for one run: requeue set, in-flight leases, and
/// the first-write-wins completion bitmap.
#[derive(Debug, Clone, PartialEq)]
pub struct LeaseTable {
    run_id: String,
    total: usize,
    /// Job indices awaiting a lease (initially `0..total`; reclaims push
    /// uncompleted jobs back here).
    pending: VecDeque<usize>,
    /// `completed[i]` — job `i` has its first (and final) record.
    completed: Vec<bool>,
    leases: Vec<Lease>,
    next_lease: u64,
    stats: FleetStats,
}

impl LeaseTable {
    /// A fresh table for a run of `total` jobs, all pending.
    pub fn new(run_id: impl Into<String>, total: usize) -> LeaseTable {
        LeaseTable {
            run_id: run_id.into(),
            total,
            pending: (0..total).collect(),
            completed: vec![false; total],
            leases: Vec::new(),
            next_lease: 0,
            stats: FleetStats::default(),
        }
    }

    /// The run this table belongs to.
    pub fn run_id(&self) -> &str {
        &self.run_id
    }

    /// Jobs the run expands to.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Jobs waiting in the requeue set.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Jobs with a first write recorded.
    pub fn completed_count(&self) -> usize {
        self.completed.iter().filter(|&&c| c).count()
    }

    /// Leases currently holding jobs.
    pub fn active_leases(&self) -> usize {
        self.active().count()
    }

    /// The earliest deadline among the active leases, if any: the instant
    /// the next [`LeaseTable::reclaim_expired`] can find work.
    pub fn next_deadline_ms(&self) -> Option<u64> {
        self.active().map(|l| l.deadline_unix_ms).min()
    }

    fn active(&self) -> impl Iterator<Item = &Lease> {
        self.leases.iter().filter(|l| l.state == LeaseState::Active)
    }

    /// Every job has its record.
    pub fn is_complete(&self) -> bool {
        self.completed.iter().all(|&c| c)
    }

    /// Fleet accounting so far.
    pub fn stats(&self) -> FleetStats {
        self.stats
    }

    /// All leases, in grant order.
    pub fn leases(&self) -> &[Lease] {
        &self.leases
    }

    fn find(&mut self, lease_id: &str) -> Result<&mut Lease, LeaseError> {
        self.leases
            .iter_mut()
            .find(|l| l.lease_id == lease_id)
            .ok_or_else(|| LeaseError::UnknownLease(lease_id.to_string()))
    }

    fn find_active(&mut self, lease_id: &str) -> Result<&mut Lease, LeaseError> {
        let lease = self.find(lease_id)?;
        match lease.state {
            LeaseState::Active => Ok(lease),
            state => Err(LeaseError::NotActive {
                lease_id: lease_id.to_string(),
                state,
            }),
        }
    }

    /// Grant up to `capacity` pending jobs to `worker` under a lease
    /// expiring at `now_ms + ttl_ms`, counted in `leases_granted`. Returns
    /// `None` when nothing is pending (all jobs leased out or completed).
    pub fn grant(
        &mut self,
        worker: &str,
        capacity: usize,
        now_ms: u64,
        ttl_ms: u64,
    ) -> Option<&Lease> {
        if self.pending.is_empty() {
            return None;
        }
        self.stats.leases_granted += 1;
        self.lease_out(worker, capacity, now_ms, ttl_ms)
    }

    /// Lease every pending job to the server's own pool, `worker`, with no
    /// deadline. The jobs leave the requeue set and their records are
    /// first-write-wins as under [`LeaseTable::grant`], but this is no
    /// worker lease, so `leases_granted` does not count it.
    pub fn grant_local(&mut self, worker: &str, now_ms: u64) -> Option<&Lease> {
        self.lease_out(worker, self.pending.len(), now_ms, u64::MAX / 2)
    }

    fn lease_out(
        &mut self,
        worker: &str,
        capacity: usize,
        now_ms: u64,
        ttl_ms: u64,
    ) -> Option<&Lease> {
        if self.pending.is_empty() {
            return None;
        }
        let take = capacity.max(1).min(self.pending.len());
        let jobs: Vec<usize> = self.pending.drain(..take).collect();
        let lease_id = format!("lease-{}-{:04}", self.run_id, self.next_lease);
        self.next_lease += 1;
        self.leases.push(Lease {
            lease_id,
            worker: worker.to_string(),
            state: LeaseState::Active,
            jobs,
            granted_unix_ms: now_ms,
            deadline_unix_ms: now_ms.saturating_add(ttl_ms),
        });
        self.leases.last()
    }

    /// Extend an active lease's deadline to `now_ms + ttl_ms`. Returns the
    /// new deadline.
    pub fn heartbeat(
        &mut self,
        lease_id: &str,
        now_ms: u64,
        ttl_ms: u64,
    ) -> Result<u64, LeaseError> {
        let lease = self.find_active(lease_id)?;
        lease.deadline_unix_ms = now_ms.saturating_add(ttl_ms);
        Ok(lease.deadline_unix_ms)
    }

    /// Settle a lease whose worker returned records. An active lease moves
    /// to `completed`; a lease already reclaimed (the worker was presumed
    /// dead, its jobs requeued) settles *late* — its records may still be
    /// delivered first-write-wins via [`LeaseTable::record_job`]. Returns
    /// the lease's job indices and whether it was still active.
    pub fn settle(&mut self, lease_id: &str) -> Result<(Vec<usize>, bool), LeaseError> {
        let lease = self.find(lease_id)?;
        let jobs = lease.jobs.clone();
        if lease.state == LeaseState::Active {
            lease.state = LeaseState::Completed;
            Ok((jobs, true))
        } else {
            Ok((jobs, false))
        }
    }

    /// Record one job's completion, first-write-wins. A `Fresh` write marks
    /// the job done (and pulls it out of the requeue set if a reclaim had
    /// put it back); a `Duplicate` is counted and must be dropped.
    pub fn record_job(&mut self, index: usize) -> JobWrite {
        if index >= self.total || self.completed[index] {
            self.stats.duplicate_completions += 1;
            return JobWrite::Duplicate;
        }
        self.completed[index] = true;
        self.pending.retain(|&j| j != index);
        JobWrite::Fresh
    }

    /// Expire and reclaim every active lease whose deadline has passed,
    /// requeueing its uncompleted jobs. Returns the requeued indices.
    pub fn reclaim_expired(&mut self, now_ms: u64) -> Vec<usize> {
        let expired: Vec<String> = self
            .leases
            .iter()
            .filter(|l| l.state == LeaseState::Active && l.deadline_unix_ms <= now_ms)
            .map(|l| l.lease_id.clone())
            .collect();
        let mut requeued = Vec::new();
        for id in expired {
            requeued.extend(self.reclaim(&id));
        }
        requeued
    }

    /// Fail an active lease immediately (corrupt completion): reclaimed
    /// like a deadline miss, without waiting.
    pub fn fail_lease(&mut self, lease_id: &str) -> Result<Vec<usize>, LeaseError> {
        self.find_active(lease_id)?;
        Ok(self.reclaim(lease_id))
    }

    fn reclaim(&mut self, lease_id: &str) -> Vec<usize> {
        let lease = self.find(lease_id).expect("reclaim of a known lease");
        lease.state = LeaseState::Reclaimed;
        let jobs = lease.jobs.clone();
        self.stats.leases_expired += 1;
        let mut requeued = Vec::new();
        for job in jobs {
            if !self.completed[job] && !self.pending.contains(&job) {
                self.pending.push_back(job);
                requeued.push(job);
            }
        }
        self.stats.jobs_requeued += requeued.len() as u64;
        requeued
    }

    /// Test-facing invariant: no schedule of grants, expiries and
    /// completions may lose or duplicate a job. Every uncompleted job sits
    /// in exactly one place — the requeue set or exactly one active lease —
    /// and completed jobs are never requeued.
    pub fn check_invariant(&self) -> Result<(), String> {
        for job in 0..self.total {
            let in_pending = self.pending.iter().filter(|&&j| j == job).count();
            let in_active = self.active().filter(|l| l.jobs.contains(&job)).count();
            if self.completed[job] {
                if in_pending != 0 {
                    return Err(format!("completed job {job} still in the requeue set"));
                }
            } else if in_pending + in_active != 1 {
                return Err(format!(
                    "job {job} held {in_pending}× pending + {in_active}× active (want exactly 1)"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grant_heartbeat_complete_happy_path() {
        let mut table = LeaseTable::new("happy", 6);
        assert_eq!(table.pending_count(), 6);

        let lease = table.grant("w1", 4, 1_000, 500).unwrap();
        let id = lease.lease_id.clone();
        assert_eq!(lease.state, LeaseState::Active);
        assert_eq!(lease.jobs, vec![0, 1, 2, 3]);
        assert_eq!(lease.deadline_unix_ms, 1_500);
        assert_eq!(table.pending_count(), 2);
        assert_eq!(table.active_leases(), 1);

        // Heartbeats only move the deadline.
        assert_eq!(table.heartbeat(&id, 1_400, 500), Ok(1_900));
        assert_eq!(table.heartbeat(&id, 1_800, 500), Ok(2_300));
        assert_eq!(table.leases()[0].state, LeaseState::Active);
        assert_eq!(table.next_deadline_ms(), Some(2_300));

        let (jobs, was_active) = table.settle(&id).unwrap();
        assert!(was_active);
        assert_eq!(jobs, vec![0, 1, 2, 3]);
        for job in jobs {
            assert_eq!(table.record_job(job), JobWrite::Fresh);
        }
        assert_eq!(table.completed_count(), 4);
        assert!(!table.is_complete());

        // The remaining two jobs drain under a second lease.
        let lease2 = table.grant("w2", 8, 2_000, 500).unwrap();
        let id2 = lease2.lease_id.clone();
        assert_eq!(lease2.jobs, vec![4, 5]);
        assert!(
            table.grant("w3", 8, 2_000, 500).is_none(),
            "nothing pending"
        );
        let (jobs2, _) = table.settle(&id2).unwrap();
        jobs2.iter().for_each(|&j| {
            table.record_job(j);
        });
        assert!(table.is_complete());
        assert_eq!(table.stats().leases_granted, 2);
        assert_eq!(table.stats().leases_expired, 0);
        table.check_invariant().unwrap();
    }

    #[test]
    fn a_local_lease_takes_every_pending_job_uncounted() {
        let mut table = LeaseTable::new("local", 5);
        table.grant("w1", 2, 1_000, 500).unwrap();
        let lease = table.grant_local("local-pool", 1_000).unwrap();
        let id = lease.lease_id.clone();
        assert_eq!(lease.jobs, vec![2, 3, 4]);
        assert_eq!(table.pending_count(), 0);
        assert_eq!(table.stats().leases_granted, 1);
        table.check_invariant().unwrap();
        assert!(table.grant_local("local-pool", 1_000).is_none());
        for job in [2, 3, 4] {
            assert_eq!(table.record_job(job), JobWrite::Fresh);
        }
        assert_eq!(table.record_job(2), JobWrite::Duplicate);
        assert!(table.settle(&id).unwrap().1, "still active");
        table.check_invariant().unwrap();
    }

    #[test]
    fn expiry_reclaims_and_requeues_only_uncompleted_jobs() {
        let mut table = LeaseTable::new("reclaim", 4);
        let id = table.grant("w1", 4, 0, 100).unwrap().lease_id.clone();
        // A late partial write lands for job 1 before the deadline passes.
        assert_eq!(table.record_job(1), JobWrite::Fresh);

        assert!(table.reclaim_expired(99).is_empty(), "deadline not reached");
        let requeued = table.reclaim_expired(100);
        assert_eq!(requeued, vec![0, 2, 3], "completed job 1 must not requeue");
        assert_eq!(table.leases()[0].state, LeaseState::Reclaimed);
        assert_eq!(table.pending_count(), 3);
        assert_eq!(table.stats().leases_expired, 1);
        assert_eq!(table.stats().jobs_requeued, 3);
        table.check_invariant().unwrap();

        // Heartbeat and repeat-expiry on the reclaimed lease are refused.
        assert_eq!(
            table.heartbeat(&id, 200, 100),
            Err(LeaseError::NotActive {
                lease_id: id.clone(),
                state: LeaseState::Reclaimed,
            })
        );
        assert_eq!(
            table.fail_lease(&id).unwrap_err().to_string(),
            "lease `lease-reclaim-0000` is reclaimed, not active"
        );
        assert!(table.reclaim_expired(10_000).is_empty());
        assert_eq!(
            table.heartbeat("lease-reclaim-9999", 0, 1),
            Err(LeaseError::UnknownLease("lease-reclaim-9999".into()))
        );
    }

    #[test]
    fn duplicate_completions_resolve_first_write_wins() {
        let mut table = LeaseTable::new("dup", 3);
        let stale = table.grant("w1", 3, 0, 100).unwrap().lease_id.clone();
        table.reclaim_expired(100);

        // The requeued jobs complete under a second worker's lease.
        let fresh = table.grant("w2", 3, 200, 100).unwrap().lease_id.clone();
        let (jobs, was_active) = table.settle(&fresh).unwrap();
        assert!(was_active);
        for job in jobs {
            assert_eq!(table.record_job(job), JobWrite::Fresh);
        }

        // The presumed-dead worker then settles its reclaimed lease: the
        // lease stays reclaimed and every record is a duplicate.
        let (jobs, was_active) = table.settle(&stale).unwrap();
        assert!(!was_active);
        assert_eq!(table.leases()[0].state, LeaseState::Reclaimed);
        for job in jobs {
            assert_eq!(table.record_job(job), JobWrite::Duplicate);
        }
        assert_eq!(table.stats().duplicate_completions, 3);
        assert!(table.is_complete());
        table.check_invariant().unwrap();
    }

    #[test]
    fn late_write_pulls_a_requeued_job_back_out_of_the_queue() {
        let mut table = LeaseTable::new("late", 2);
        let stale = table.grant("w1", 2, 0, 100).unwrap().lease_id.clone();
        table.reclaim_expired(100);
        assert_eq!(table.pending_count(), 2);

        // The stale worker's completion arrives before anyone re-leases.
        let (jobs, was_active) = table.settle(&stale).unwrap();
        assert!(!was_active);
        for job in jobs {
            assert_eq!(table.record_job(job), JobWrite::Fresh);
        }
        assert_eq!(
            table.pending_count(),
            0,
            "completed jobs left the requeue set"
        );
        assert!(table.is_complete());
        assert!(table.grant("w2", 4, 300, 100).is_none());
        table.check_invariant().unwrap();
    }

    #[test]
    fn fail_lease_requeues_immediately() {
        let mut table = LeaseTable::new("corrupt", 3);
        let id = table.grant("w1", 2, 0, 60_000).unwrap().lease_id.clone();
        let requeued = table.fail_lease(&id).unwrap();
        assert_eq!(requeued, vec![0, 1]);
        assert_eq!(table.leases()[0].state, LeaseState::Reclaimed);
        assert_eq!(table.stats().leases_expired, 1);
        assert!(table.fail_lease(&id).is_err(), "already reclaimed");
        table.check_invariant().unwrap();
    }
}
