//! # lassi-harness
//!
//! The concurrent experiment service for the LASSI reproduction. Where
//! `lassi-core::experiment` runs one blocking sweep shape (the paper's
//! 2×40 grid), this crate turns scenario execution into a *service* with
//! three pillars:
//!
//! * [`scheduler`] — a [`Job`] per scenario; a worker pool claims a
//!   submitted job list in order and streams [`JobOutput`]s back as they
//!   complete, with cooperative cancellation and per-job wall-clock timing,
//! * [`cache`] — a content-addressed scenario cache (stable FNV-1a over
//!   application sources, model fingerprint, direction, derived seed,
//!   config and simulated-machine fingerprint) that is its directory: one
//!   JSON file per scenario and no resident copy, so repeated and
//!   overlapping sweeps skip already-computed scenarios across processes —
//!   cached records are exact because the pipeline is deterministically
//!   seeded,
//! * [`store`] + [`json`] + [`codec`] — a dependency-free JSON artifact
//!   store (`artifacts/run-<id>/` with a manifest, record sets, a trace
//!   and a lifecycle file) that re-renders tables byte-identically without
//!   re-running. Aggregate statistics are computed from the records.
//!   The records are the only stored copy of each diagnostic; the `diag.v1`
//!   document and the trace's `diag` events are rendered from them on read.
//!
//! [`grid`] expands config-grid sweeps (e.g. `max_self_corrections ×
//! timing_runs × model subset`) into jobs — the `sweep` binary in
//! `lassi-bench` is a thin CLI over it. [`runstate`] adds the run
//! lifecycle state machine (`queued → running → done | failed |
//! cancelled`, persisted as `state.json` beside the artifact) that powers
//! asynchronous sweep submission in `lassi-server`, and [`lease`] the
//! time-bounded, in-memory lease table (`active → completed | reclaimed`)
//! behind the remote worker fleet.

pub mod cache;
pub mod codec;
pub mod grid;
pub mod json;
pub mod lease;
pub mod runstate;
pub mod scheduler;
pub mod store;
pub mod trace;

pub use cache::{fnv1a64, scenario_key, CacheSnapshot, ScenarioCache, ScenarioKey};
pub use grid::{GridCell, SweepGrid};
pub use json::Json;
pub use lease::{FleetStats, JobWrite, Lease, LeaseError, LeaseState, LeaseTable};
pub use runstate::{IllegalTransition, RunState, RunStatus, STATE_FILE};
pub use scheduler::{CancelToken, Harness, HarnessOptions, Job, JobOutput, JobStream};
pub use store::{
    detect_git_commit, is_slug, ArtifactError, ArtifactStore, RunArtifact, RunManifest, RunWriter,
    ScannedRun, SCHEMA_VERSION,
};
pub use trace::{
    event_from_json, event_to_json, job_span, parse_trace, read_trace, write_trace, TRACE_FILE,
};
