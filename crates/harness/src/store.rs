//! The JSON artifact store: `artifacts/run-<id>/` directories holding a run
//! manifest and record sets — everything needed to re-render tables without
//! re-running the sweep. Aggregate statistics are not stored: they are a
//! pure function of the records, so every reader computes them on load.
//!
//! Layout of one run directory:
//!
//! ```text
//! artifacts/run-<id>/
//!   manifest.json             # RunManifest: seed, config grid, version, cache stats
//!   records-<set>.json        # TranslationRecord array per record set
//!   trace.jsonl               # trace.v1 lifecycle events + one job span per scenario
//!   state.json                # RunStatus lifecycle file
//!   table4.json               # Table IV rows (table4 binary only)
//! ```
//!
//! Record-set names are grid-cell slugs (e.g. `cuda-to-omp-msc40-runs3`,
//! see [`crate::GridCell::slug`]) and are listed in the manifest, so a
//! loader can enumerate a run without globbing.
//!
//! Each record carries its own per-round diagnostics history, so the
//! records are the only stored copy of every finding. The `diag.v1`
//! document and the trace's `diag` events are views rendered from them on
//! read ([`RunArtifact::diagnostics_view`], [`RunArtifact::trace_view`]).

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use lassi_core::{Table4Row, TranslationRecord};
use lassi_obs::{FieldValue, TraceKind};

use crate::codec::{
    self, manifest_from_json, manifest_to_json, records_from_json, records_to_json, CodecError,
};
use crate::json::{self, Json, ParseError};
use crate::runstate::RunStatus;
use crate::trace;

/// Artifact schema version; bump on breaking layout changes. Version 2
/// stopped storing `diagnostics.json` and the trace's `diag` events.
pub const SCHEMA_VERSION: u32 = 2;

/// Everything recorded about a run besides the records themselves.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Artifact schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Caller-chosen run identifier (the `<id>` in `run-<id>/`).
    pub run_id: String,
    /// `lassi-harness` package version that wrote the artifact.
    pub package_version: String,
    /// `git rev-parse --short HEAD` at write time, when available.
    pub git_commit: Option<String>,
    /// Unix timestamp at write time; `None` keeps golden files stable.
    pub created_unix: Option<u64>,
    /// Base RNG seed of the sweep.
    pub seed: u64,
    /// Grid values swept for `timing_runs`.
    pub timing_runs: Vec<u32>,
    /// Grid values swept for `max_self_corrections`.
    pub max_self_corrections: Vec<u32>,
    /// Model names in sweep order.
    pub models: Vec<String>,
    /// Application names in sweep order.
    pub applications: Vec<String>,
    /// Direction slugs in sweep order.
    pub directions: Vec<String>,
    /// Record-set slugs present in the run directory.
    pub record_sets: Vec<String>,
    /// Total scenarios executed (or served from cache).
    pub scenarios: usize,
    /// Cache hits during the run (0 when no cache was attached).
    pub cache_hits: u64,
    /// Cache misses during the run.
    pub cache_misses: u64,
}

impl RunManifest {
    /// A manifest with only identity fields filled in; callers set the rest.
    pub fn new(run_id: impl Into<String>, seed: u64) -> RunManifest {
        RunManifest {
            schema_version: SCHEMA_VERSION,
            run_id: run_id.into(),
            package_version: env!("CARGO_PKG_VERSION").to_string(),
            git_commit: None,
            created_unix: None,
            seed,
            timing_runs: Vec::new(),
            max_self_corrections: Vec::new(),
            models: Vec::new(),
            applications: Vec::new(),
            directions: Vec::new(),
            record_sets: Vec::new(),
            scenarios: 0,
            cache_hits: 0,
            cache_misses: 0,
        }
    }
}

/// Longest slug [`is_slug`] accepts, in bytes: a `run-<id>` directory name
/// (or a `.tmp` sibling of a file in it) stays well inside the 255-byte
/// file-name limit of common file systems.
const MAX_SLUG_BYTES: usize = 128;

/// True for identifiers safe to embed in a filename: 1 to 128 bytes of
/// ASCII `[A-Za-z0-9._-]`, not composed entirely of dots (`.`/`..`), which
/// rules out traversal, empty segments, separators and names the file
/// system would refuse as too long. This is the single definition both the
/// artifact store and the HTTP router validate against.
pub fn is_slug(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= MAX_SLUG_BYTES
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
        && !s.bytes().all(|b| b == b'.')
}

/// Best-effort `git rev-parse --short HEAD`, for the manifest version field.
pub fn detect_git_commit() -> Option<String> {
    let output = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()?;
    if !output.status.success() {
        return None;
    }
    let commit = String::from_utf8(output.stdout).ok()?.trim().to_string();
    (!commit.is_empty()).then_some(commit)
}

/// Anything that can go wrong reading an artifact back.
#[derive(Debug)]
pub enum ArtifactError {
    /// Filesystem failure.
    Io(io::Error),
    /// The file was not valid JSON.
    Json(ParseError),
    /// The JSON did not match the schema.
    Codec(CodecError),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "artifact I/O error: {e}"),
            ArtifactError::Json(e) => write!(f, "artifact JSON error: {e}"),
            ArtifactError::Codec(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<io::Error> for ArtifactError {
    fn from(e: io::Error) -> Self {
        ArtifactError::Io(e)
    }
}

impl From<ParseError> for ArtifactError {
    fn from(e: ParseError) -> Self {
        ArtifactError::Json(e)
    }
}

impl From<CodecError> for ArtifactError {
    fn from(e: CodecError) -> Self {
        ArtifactError::Codec(e)
    }
}

/// The root of the artifact tree (default `artifacts/`).
pub struct ArtifactStore {
    root: PathBuf,
}

impl Default for ArtifactStore {
    fn default() -> Self {
        ArtifactStore::new("artifacts")
    }
}

impl ArtifactStore {
    /// A store rooted at `root` (not created until a run is written).
    pub fn new(root: impl Into<PathBuf>) -> Self {
        ArtifactStore { root: root.into() }
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The directory a run id maps to.
    pub fn run_dir(&self, run_id: &str) -> PathBuf {
        self.root.join(format!("run-{run_id}"))
    }

    /// The conventional scenario-cache directory inside this store.
    pub fn cache_dir(&self) -> PathBuf {
        self.root.join("cache")
    }

    /// The directory of a run id that may reach the filesystem: ids that
    /// are not plain slugs ([`is_slug`]) are refused with
    /// [`io::ErrorKind::InvalidInput`], since an id with a path separator
    /// or `..` would resolve outside the store root.
    fn checked_run_dir(&self, run_id: &str) -> io::Result<PathBuf> {
        if !is_slug(run_id) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("run id `{run_id}` is not a valid slug"),
            ));
        }
        Ok(self.run_dir(run_id))
    }

    /// Create a *fresh* run directory and return a writer for it.
    ///
    /// Errors with [`io::ErrorKind::AlreadyExists`] when `run-<id>/` is
    /// already present: silently reusing it would mix record files from
    /// different runs into one artifact. Callers that intentionally
    /// regenerate a fixed run id use [`ArtifactStore::create_or_replace_run`].
    /// Non-slug ids are [`io::ErrorKind::InvalidInput`].
    pub fn create_run(&self, run_id: &str) -> io::Result<RunWriter> {
        let dir = self.checked_run_dir(run_id)?;
        if dir.exists() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!(
                    "run directory {} already exists; pick a fresh run id \
                     or replace the run explicitly",
                    dir.display()
                ),
            ));
        }
        std::fs::create_dir_all(&dir)?;
        Ok(RunWriter { dir })
    }

    /// Create a run directory, deleting any previous run under the same id
    /// first — the whole directory is replaced, never merged, so no stale
    /// record set from an earlier run can survive into the new artifact.
    /// Non-slug ids are refused before anything is removed.
    pub fn create_or_replace_run(&self, run_id: &str) -> io::Result<RunWriter> {
        let dir = self.checked_run_dir(run_id)?;
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(RunWriter { dir })
    }

    /// Load a run by id.
    pub fn load_run(&self, run_id: &str) -> Result<RunArtifact, ArtifactError> {
        RunArtifact::load(self.run_dir(run_id))
    }

    /// Atomically claim `run-<id>` by creating its (empty) directory.
    ///
    /// Unlike [`ArtifactStore::create_run`]'s exists-then-create sequence,
    /// the single `create_dir` makes this race-free: of two concurrent
    /// claimants exactly one succeeds and the other gets
    /// [`io::ErrorKind::AlreadyExists`]. The HTTP service reserves the id
    /// this way *before* running a sweep, then writes into the claimed
    /// directory with [`ArtifactStore::create_or_replace_run`]. Non-slug
    /// ids are [`io::ErrorKind::InvalidInput`].
    pub fn reserve_run(&self, run_id: &str) -> io::Result<()> {
        let dir = self.checked_run_dir(run_id)?;
        std::fs::create_dir_all(&self.root)?;
        std::fs::create_dir(dir)
    }

    /// Delete a run directory and everything in it.
    ///
    /// Refuses ids that are not plain slugs ([`is_slug`]) with
    /// [`io::ErrorKind::InvalidInput`] — an id with a path separator or
    /// `..` must never reach the filesystem — and maps a missing run to
    /// [`io::ErrorKind::NotFound`]. A run that is still *live* is refused
    /// with [`io::ErrorKind::Other`]: a directory whose `state.json` says
    /// `queued`/`running`, or a bare reservation with neither a manifest
    /// nor a lifecycle file, may still be computed into — deleting it
    /// would let a second client re-reserve the id and race the first
    /// sweep's artifact write. Deletable runs are completed artifacts
    /// (manifest on disk) and terminally `failed`/`cancelled` runs (only a
    /// `state.json` remains). The scenario cache (`cache/`) is
    /// structurally out of reach: runs live under `run-<id>`, and this
    /// method only ever removes such a directory.
    pub fn delete_run(&self, run_id: &str) -> io::Result<()> {
        let dir = self.checked_run_dir(run_id)?;
        if !dir.is_dir() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("run `{run_id}` does not exist"),
            ));
        }
        if !dir.join("manifest.json").is_file() {
            let terminal = matches!(
                RunStatus::load(&dir), Ok(status) if status.state.is_terminal()
            );
            if !terminal {
                return Err(io::Error::other(format!(
                    "run `{run_id}` is still live (reserved, queued or \
                     running); refusing to delete an in-flight run"
                )));
            }
        }
        std::fs::remove_dir_all(dir)
    }

    /// The run ids present under the store root, sorted lexicographically.
    ///
    /// Only directories named `run-<id>` that contain a `manifest.json`
    /// count: the scenario cache (`cache/`), stray files and half-written
    /// runs are skipped. A missing store root is an empty store, not an
    /// error — nothing has been written yet.
    pub fn list_runs(&self) -> io::Result<Vec<String>> {
        let entries = match std::fs::read_dir(&self.root) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let mut runs = Vec::new();
        for entry in entries {
            let entry = entry?;
            if !entry.file_type()?.is_dir() {
                continue;
            }
            let name = entry.file_name();
            let Some(id) = name.to_str().and_then(|n| n.strip_prefix("run-")) else {
                continue;
            };
            if !id.is_empty() && entry.path().join("manifest.json").is_file() {
                runs.push(id.to_string());
            }
        }
        runs.sort();
        Ok(runs)
    }

    /// Every run the store knows about — including queued, running, failed
    /// and cancelled runs that only have a `state.json` — as
    /// `(id, ScannedRun)`, sorted by id.
    ///
    /// A run directory without a readable `state.json` surfaces as
    /// [`ScannedRun::Corrupt`], so recovery can mark the run `failed` with a
    /// clear reason instead of silently skipping — or panicking over — it:
    /// a torn or truncated `state.json` (a crash mid-write that never
    /// reached the rename), or files but no `state.json` at all (a crash
    /// while an artifact was being written, which replaces the whole
    /// directory). Only an empty directory, a bare reservation, is skipped.
    pub fn scan_runs(&self) -> io::Result<Vec<(String, ScannedRun)>> {
        let entries = match std::fs::read_dir(&self.root) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let mut runs = Vec::new();
        for entry in entries {
            let entry = entry?;
            if !entry.file_type()?.is_dir() {
                continue;
            }
            let name = entry.file_name();
            let Some(id) = name.to_str().and_then(|n| n.strip_prefix("run-")) else {
                continue;
            };
            if id.is_empty() {
                continue;
            }
            match RunStatus::load(&entry.path()) {
                Ok(status) => runs.push((id.to_string(), ScannedRun::Status(status))),
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    if std::fs::read_dir(entry.path())?.next().is_some() {
                        let reason = "artifact write was interrupted: files but no state.json";
                        runs.push((id.to_string(), ScannedRun::Corrupt(reason.into())));
                    }
                }
                Err(e) => runs.push((
                    id.to_string(),
                    ScannedRun::Corrupt(format!("state.json was torn or truncated: {e}")),
                )),
            }
        }
        runs.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(runs)
    }
}

/// What [`ArtifactStore::scan_runs`] found inside one `run-<id>/`.
#[derive(Debug, Clone, PartialEq)]
pub enum ScannedRun {
    /// A readable `state.json`.
    Status(RunStatus),
    /// A non-empty directory whose `state.json` is missing, torn,
    /// truncated or malformed; the string says which.
    Corrupt(String),
}

/// Writes the files of one run directory.
pub struct RunWriter {
    dir: PathBuf,
}

impl RunWriter {
    /// The run directory being written.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn write_file(&self, name: &str, value: &Json) -> io::Result<()> {
        std::fs::write(self.dir.join(name), pretty_text(value))
    }

    /// Write `manifest.json`.
    pub fn write_manifest(&self, manifest: &RunManifest) -> io::Result<()> {
        self.write_file("manifest.json", &manifest_to_json(manifest))
    }

    /// Write one record set as `records-<set>.json`.
    pub fn write_records(&self, set: &str, records: &[TranslationRecord]) -> io::Result<()> {
        self.write_file(&format!("records-{set}.json"), &records_to_json(records))
    }

    /// Write Table IV rows as `table4.json`.
    pub fn write_table4(&self, rows: &[Table4Row]) -> io::Result<()> {
        let value = Json::Array(rows.iter().map(codec::table4_row_to_json).collect());
        self.write_file("table4.json", &value)
    }
}

/// The text of a pretty-printed artifact file: the value plus a newline.
fn pretty_text(value: &Json) -> String {
    let mut text = value.to_pretty();
    text.push('\n');
    text
}

/// The direction slug a record set's name starts with: grid cells are
/// `<direction>-msc<N>-runs<M>` ([`crate::GridCell::slug`]). A set named
/// after the bare direction comes only from an older artifact, written
/// when the table binaries chose their own set names.
pub fn set_direction(set: &str) -> &str {
    set.split_once("-msc")
        .map_or(set, |(direction, _)| direction)
}

/// A run directory loaded back from disk.
#[derive(Debug)]
pub struct RunArtifact {
    dir: PathBuf,
    /// The parsed manifest.
    pub manifest: RunManifest,
}

impl RunArtifact {
    /// Load `manifest.json` from a run directory.
    pub fn load(dir: impl Into<PathBuf>) -> Result<RunArtifact, ArtifactError> {
        let dir = dir.into();
        let text = std::fs::read_to_string(dir.join("manifest.json"))?;
        let manifest = manifest_from_json(&json::parse(&text)?)?;
        Ok(RunArtifact { dir, manifest })
    }

    /// The run directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn read_json(&self, name: &str) -> Result<Json, ArtifactError> {
        let text = std::fs::read_to_string(self.dir.join(name))?;
        Ok(json::parse(&text)?)
    }

    /// Load one record set.
    pub fn records(&self, set: &str) -> Result<Vec<TranslationRecord>, ArtifactError> {
        Ok(records_from_json(
            &self.read_json(&format!("records-{set}.json"))?,
        )?)
    }

    /// Every record with the record set it sits in, in manifest order:
    /// job order for a grid artifact, since [`crate::SweepGrid::jobs`] is
    /// cell-major. The views rendered from these need the current schema,
    /// because a schema-1 directory also stores them, and its trace would
    /// be served with every finding twice.
    fn scenarios(&self) -> Result<Vec<(&str, TranslationRecord)>, ArtifactError> {
        if self.manifest.schema_version != SCHEMA_VERSION {
            return Err(CodecError(format!(
                "run `{}` has artifact schema {}; its diagnostics views need \
                 schema {SCHEMA_VERSION}, so re-run the sweep",
                self.manifest.run_id, self.manifest.schema_version
            ))
            .into());
        }
        let mut scenarios = Vec::with_capacity(self.manifest.scenarios);
        for set in &self.manifest.record_sets {
            for record in self.records(set)? {
                scenarios.push((set.as_str(), record));
            }
        }
        Ok(scenarios)
    }

    /// The run's `diag.v1` diagnostics document, rendered from its records:
    /// one entry per scenario with findings, in job order. A clean
    /// first-try success has nothing to report and is omitted.
    pub fn diagnostics_view(&self) -> Result<String, ArtifactError> {
        let scenarios = self
            .scenarios()?
            .into_iter()
            .filter(|(_, record)| !record.diagnostics.is_empty())
            .map(|(set, record)| {
                let attempts = record
                    .diagnostics
                    .iter()
                    .map(codec::attempt_diagnostics_to_json)
                    .collect();
                Json::Object(vec![
                    ("application".into(), Json::Str(record.application)),
                    ("model".into(), Json::Str(record.model)),
                    ("direction".into(), Json::Str(set_direction(set).into())),
                    ("cell".into(), Json::Str(set.into())),
                    ("attempts".into(), Json::Array(attempts)),
                ])
            })
            .collect();
        Ok(pretty_text(&Json::Object(vec![
            (
                "v".into(),
                Json::Str(lassi_lang::diag::codec::VERSION.into()),
            ),
            ("scenarios".into(), Json::Array(scenarios)),
        ])))
    }

    /// The run's `trace.jsonl` with one `diag` event per finding inserted
    /// directly after the `job` span of the scenario it belongs to, stamped
    /// at the span's end. Spans and records are both in job order, so the
    /// n-th span belongs to the n-th record.
    pub fn trace_view(&self) -> Result<String, ArtifactError> {
        let scenarios = self.scenarios()?;
        let mut records = scenarios.iter();
        let mut events = Vec::new();
        for event in trace::read_trace(&self.dir)? {
            if event.kind != TraceKind::Span || event.name != "job" {
                events.push(event);
                continue;
            }
            let index = match event.field("index") {
                Some(FieldValue::Int(index)) => usize::try_from(*index).ok(),
                _ => None,
            };
            let (Some(index), Some((set, record))) = (index, records.next()) else {
                return Err(CodecError(format!(
                    "job span at t_us {} has no index or no record in run `{}`",
                    event.t_us, self.manifest.run_id
                ))
                .into());
            };
            let end_us = event.t_us + event.dur_us.unwrap_or(0);
            events.push(event);
            for attempt in &record.diagnostics {
                for diag in &attempt.diagnostics {
                    events.push(trace::diag_event(
                        end_us,
                        index,
                        set_direction(set),
                        record,
                        attempt,
                        diag,
                    ));
                }
            }
        }
        Ok(trace::trace_text(&events))
    }

    /// Load Table IV rows.
    pub fn table4(&self) -> Result<Vec<Table4Row>, ArtifactError> {
        self.read_json("table4.json")?
            .as_array()
            .ok_or_else(|| CodecError("table4.json must be an array".into()).into())
            .and_then(|rows| {
                rows.iter()
                    .map(|r| codec::table4_row_from_json(r).map_err(ArtifactError::from))
                    .collect()
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lassi_core::{Direction, PipelineConfig};
    use lassi_hecbench::application;
    use lassi_llm::gpt4;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn test_root(label: &str) -> PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "lassi-store-test-{}-{label}-{n}",
            std::process::id()
        ))
    }

    #[test]
    fn run_round_trips_through_disk() {
        let root = test_root("roundtrip");
        let store = ArtifactStore::new(&root);
        let config = PipelineConfig {
            timing_runs: 1,
            ..PipelineConfig::default()
        };
        let record = lassi_core::run_scenario(
            &gpt4(),
            &application("layout").unwrap(),
            Direction::CudaToOmp,
            &config,
        );
        let records = vec![record];

        let mut manifest = RunManifest::new("test", config.seed);
        manifest.timing_runs = vec![1];
        manifest.max_self_corrections = vec![config.max_self_corrections];
        manifest.models = vec!["GPT-4".into()];
        manifest.applications = vec!["layout".into()];
        manifest.directions = vec![Direction::CudaToOmp.slug().into()];
        manifest.record_sets = vec!["cuda-to-omp".into()];
        manifest.scenarios = 1;

        let writer = store.create_run("test").unwrap();
        writer.write_manifest(&manifest).unwrap();
        writer.write_records("cuda-to-omp", &records).unwrap();

        let loaded = store.load_run("test").unwrap();
        assert_eq!(loaded.manifest, manifest);
        assert_eq!(loaded.records("cuda-to-omp").unwrap(), records);

        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn table4_rows_round_trip() {
        let root = test_root("table4");
        let store = ArtifactStore::new(&root);
        let rows = vec![Table4Row {
            category: "Math".into(),
            application: "jacobi".into(),
            runtime_args: "[]".into(),
            cuda_seconds: 0.25,
            omp_seconds: 1.5,
        }];
        let writer = store.create_run("t4").unwrap();
        writer.write_table4(&rows).unwrap();
        writer.write_manifest(&RunManifest::new("t4", 0)).unwrap();
        let loaded = store.load_run("t4").unwrap();
        assert_eq!(loaded.table4().unwrap(), rows);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn creating_an_existing_run_errors_and_replace_starts_clean() {
        let root = test_root("collision");
        let store = ArtifactStore::new(&root);
        let writer = store.create_run("dup").unwrap();
        writer.write_manifest(&RunManifest::new("dup", 0)).unwrap();
        std::fs::write(writer.dir().join("records-stale.json"), "[]").unwrap();

        // A second run under the same id must not merge into the first.
        match store.create_run("dup") {
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::AlreadyExists),
            Ok(_) => panic!("colliding create_run must error"),
        }

        // Replacing wipes the stale files rather than mixing them in.
        let writer = store.create_or_replace_run("dup").unwrap();
        writer.write_manifest(&RunManifest::new("dup", 1)).unwrap();
        assert!(!writer.dir().join("records-stale.json").exists());
        assert_eq!(store.load_run("dup").unwrap().manifest.seed, 1);

        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn reserve_run_claims_atomically_and_is_not_listed() {
        let root = test_root("reserve");
        let store = ArtifactStore::new(&root);
        store.reserve_run("claimed").unwrap();
        assert_eq!(
            store.reserve_run("claimed").unwrap_err().kind(),
            std::io::ErrorKind::AlreadyExists,
            "the second claimant must lose"
        );
        // A reserved-but-unwritten run has no manifest yet, so it does not
        // surface in listings.
        assert_eq!(store.list_runs().unwrap(), Vec::<String>::new());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn non_slug_run_ids_never_reach_the_filesystem() {
        let root = test_root("slugs");
        let store = ArtifactStore::new(root.join("store"));
        // A sibling of the store root that a traversing id would resolve
        // to, and which replacing that id would delete.
        let outside = root.join("escaped");
        std::fs::create_dir_all(&outside).unwrap();
        std::fs::write(outside.join("keep.txt"), "keep").unwrap();
        for bad in ["", ".", "..", "a/b", "x/../../escaped", "../escaped"] {
            let kinds = [
                store.create_run(bad).err().map(|e| e.kind()),
                store.create_or_replace_run(bad).err().map(|e| e.kind()),
                store.reserve_run(bad).err().map(|e| e.kind()),
            ];
            assert_eq!(
                kinds,
                [Some(std::io::ErrorKind::InvalidInput); 3],
                "{bad:?}"
            );
        }
        assert!(
            outside.join("keep.txt").is_file(),
            "nothing outside the root was touched"
        );
        assert!(
            !store.root().exists(),
            "no directory was created for a bad id"
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn list_runs_is_sorted_and_skips_non_run_entries() {
        let root = test_root("list");
        let store = ArtifactStore::new(&root);
        assert_eq!(store.list_runs().unwrap(), Vec::<String>::new());

        for id in ["zeta", "alpha", "mid"] {
            let writer = store.create_run(id).unwrap();
            writer.write_manifest(&RunManifest::new(id, 0)).unwrap();
        }
        // Non-run clutter that must be skipped: the scenario cache, a stray
        // file, a run directory with no manifest, and an unrelated directory.
        std::fs::create_dir_all(root.join("cache")).unwrap();
        std::fs::create_dir_all(root.join("run-halfwritten")).unwrap();
        std::fs::create_dir_all(root.join("not-a-run")).unwrap();
        std::fs::write(root.join("run-file"), "not a directory").unwrap();

        assert_eq!(store.list_runs().unwrap(), vec!["alpha", "mid", "zeta"]);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn delete_run_removes_exactly_one_run() {
        let root = test_root("delete");
        let store = ArtifactStore::new(&root);
        for id in ["keep", "gone"] {
            let writer = store.create_run(id).unwrap();
            writer.write_manifest(&RunManifest::new(id, 0)).unwrap();
        }
        std::fs::create_dir_all(store.cache_dir()).unwrap();

        store.delete_run("gone").unwrap();
        assert_eq!(store.list_runs().unwrap(), vec!["keep"]);
        assert!(store.cache_dir().is_dir(), "the cache is untouched");

        // Missing runs are NotFound; malformed ids never hit the filesystem.
        assert_eq!(
            store.delete_run("gone").unwrap_err().kind(),
            std::io::ErrorKind::NotFound
        );
        for bad in ["", ".", "..", "a/b", "../keep"] {
            assert_eq!(
                store.delete_run(bad).unwrap_err().kind(),
                std::io::ErrorKind::InvalidInput,
                "{bad:?}"
            );
        }

        // A reserved (manifest-less) run is in flight: deleting it would
        // let a second client re-reserve the id mid-sweep, so it is refused.
        store.reserve_run("inflight").unwrap();
        assert_eq!(
            store.delete_run("inflight").unwrap_err().kind(),
            std::io::ErrorKind::Other
        );
        assert!(store.run_dir("inflight").is_dir(), "reservation survives");

        assert_eq!(store.list_runs().unwrap(), vec!["keep"]);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn scan_runs_surfaces_torn_state_files() {
        let root = test_root("scan");
        let store = ArtifactStore::new(&root);

        let good = root.join("run-good");
        std::fs::create_dir_all(&good).unwrap();
        crate::runstate::RunStatus::queued("good", 4)
            .save(&good)
            .unwrap();

        // A crash while an artifact was being written: the directory was
        // replaced, its files written, but the final `state.json` never.
        let interrupted = root.join("run-interrupted");
        std::fs::create_dir_all(&interrupted).unwrap();
        std::fs::write(interrupted.join("manifest.json"), "{}\n").unwrap();

        // A torn write: the process died mid-`state.json.tmp` and the
        // rename never happened — but a *partial* direct write is the
        // worst case, so simulate that.
        let torn = root.join("run-torn");
        std::fs::create_dir_all(&torn).unwrap();
        let full = crate::runstate::RunStatus::queued("torn", 4)
            .to_json()
            .to_pretty();
        std::fs::write(torn.join("state.json"), &full[..full.len() / 2]).unwrap();

        // A bare reservation stays invisible.
        std::fs::create_dir_all(root.join("run-bare")).unwrap();

        let scanned = store.scan_runs().unwrap();
        let ids: Vec<&str> = scanned.iter().map(|(id, _)| id.as_str()).collect();
        assert_eq!(ids, ["good", "interrupted", "torn"]);
        assert!(matches!(&scanned[0].1, ScannedRun::Status(s) if s.run_id == "good"));
        assert!(
            matches!(&scanned[1].1, ScannedRun::Corrupt(reason) if reason.contains("interrupted")),
            "files without state.json must surface as corrupt: {:?}",
            scanned[1].1
        );
        assert!(
            matches!(&scanned[2].1, ScannedRun::Corrupt(reason) if reason.contains("torn")),
            "torn state.json must surface, not be skipped: {:?}",
            scanned[2].1
        );

        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn loading_a_missing_run_is_an_io_error() {
        let store = ArtifactStore::new(test_root("missing"));
        match store.load_run("nope") {
            Err(ArtifactError::Io(_)) => {}
            other => panic!("expected Io error, got {other:?}"),
        }
    }
}
