//! Config-grid sweeps: the cartesian product of models × applications ×
//! directions × configuration overrides, flattened into scheduler jobs.
//!
//! This is what opens workloads beyond the paper's fixed 2×40 grid — e.g.
//! sweeping `max_self_corrections × timing_runs` over a model subset to map
//! how the self-correction budget trades off against wall-clock. Overlapping
//! grids share scenario-cache entries, so refining a sweep only pays for the
//! new cells.

use lassi_core::{Direction, PipelineConfig, TranslationRecord};
use lassi_hecbench::Application;
use lassi_llm::ModelSpec;
use lassi_obs::TraceEvent;

use crate::cache::CacheSnapshot;
use crate::runstate::RunStatus;
use crate::scheduler::{Job, JobOutput};
use crate::store::{detect_git_commit, ArtifactError, ArtifactStore, RunManifest};

/// A sweep specification. Every `Vec` dimension must be non-empty.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    /// Base configuration; grid dimensions override its fields per job.
    pub base: PipelineConfig,
    /// Models to sweep.
    pub models: Vec<ModelSpec>,
    /// Applications to sweep.
    pub apps: Vec<Application>,
    /// Directions to sweep.
    pub directions: Vec<Direction>,
    /// `max_self_corrections` values to sweep.
    pub max_self_corrections: Vec<u32>,
    /// `timing_runs` values to sweep.
    pub timing_runs: Vec<u32>,
}

impl SweepGrid {
    /// A 1×1 grid over the base config's own values.
    pub fn single(
        base: PipelineConfig,
        models: Vec<ModelSpec>,
        apps: Vec<Application>,
        directions: Vec<Direction>,
    ) -> SweepGrid {
        SweepGrid {
            max_self_corrections: vec![base.max_self_corrections],
            timing_runs: vec![base.timing_runs],
            base,
            models,
            apps,
            directions,
        }
    }

    /// Number of scenarios the grid expands to.
    pub fn len(&self) -> usize {
        self.models.len()
            * self.apps.len()
            * self.directions.len()
            * self.max_self_corrections.len()
            * self.timing_runs.len()
    }

    /// True when any dimension is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The distinct (direction, msc, timing_runs) cells, in iteration order —
    /// each cell becomes one artifact record set.
    pub fn cells(&self) -> Vec<GridCell> {
        let mut cells = Vec::new();
        for &direction in &self.directions {
            for &msc in &self.max_self_corrections {
                for &runs in &self.timing_runs {
                    cells.push(GridCell {
                        direction,
                        max_self_corrections: msc,
                        timing_runs: runs,
                    });
                }
            }
        }
        cells
    }

    /// Expand the grid into jobs, cell-major then model-major (the paper's
    /// sweep order within each cell, so tables render identically).
    pub fn jobs(&self) -> Vec<Job> {
        let mut jobs = Vec::with_capacity(self.len());
        for cell in self.cells() {
            let config = PipelineConfig {
                max_self_corrections: cell.max_self_corrections,
                timing_runs: cell.timing_runs,
                ..self.base.clone()
            };
            for model in &self.models {
                for app in &self.apps {
                    jobs.push(Job::new(
                        app.clone(),
                        model.clone(),
                        cell.direction,
                        config.clone(),
                    ));
                }
            }
        }
        jobs
    }

    /// The run manifest describing a sweep over this grid, with one record
    /// set per [`SweepGrid::cells`] entry, named by [`GridCell::slug`].
    pub fn manifest(&self, run_id: &str, scenarios: usize, snapshot: CacheSnapshot) -> RunManifest {
        let mut manifest = RunManifest::new(run_id, self.base.seed);
        manifest.git_commit = detect_git_commit();
        manifest.created_unix = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| Some(d.as_secs()))
            .unwrap_or(None);
        manifest.timing_runs = self.timing_runs.clone();
        manifest.max_self_corrections = self.max_self_corrections.clone();
        manifest.models = self.models.iter().map(|m| m.name.to_string()).collect();
        manifest.applications = self.apps.iter().map(|a| a.name.to_string()).collect();
        manifest.directions = self
            .directions
            .iter()
            .map(|d| d.slug().to_string())
            .collect();
        manifest.record_sets = self.cells().iter().map(GridCell::slug).collect();
        manifest.scenarios = scenarios;
        manifest.cache_hits = snapshot.hits;
        manifest.cache_misses = snapshot.misses;
        manifest
    }

    /// Group sweep outputs by grid cell, in [`SweepGrid::cells`] order.
    /// `jobs` must be the job list the outputs were produced from (the
    /// output's `index` field points into it). Within a cell, records are
    /// ordered by job submission index, not worker completion order, so the
    /// artifact bytes are deterministic however the pool schedules jobs.
    pub fn group_by_cell(
        &self,
        jobs: &[Job],
        outputs: &[JobOutput],
    ) -> Vec<(GridCell, Vec<TranslationRecord>)> {
        let mut per_cell: Vec<(GridCell, Vec<TranslationRecord>)> =
            self.cells().into_iter().map(|c| (c, Vec::new())).collect();
        let mut ordered: Vec<&JobOutput> = outputs.iter().collect();
        ordered.sort_by_key(|output| output.index);
        for output in ordered {
            let cell = self.cell_of(&jobs[output.index]);
            let slot = per_cell
                .iter_mut()
                .find(|(c, _)| *c == cell)
                .expect("every job belongs to a grid cell");
            slot.1.push(output.record.clone());
        }
        per_cell
    }

    /// Write one run artifact for a completed sweep over this grid: a
    /// record set per grid cell, the run's `trace.jsonl`, plus the manifest
    /// and `state.json`. This is the only writer of scenario artifacts —
    /// the table binaries, the `sweep` CLI and the HTTP service all go
    /// through it, so their artifacts are interchangeable (`--replay`,
    /// `sweep verify` and `GET /v1/runs/{id}` all read the same layout).
    /// Aggregate statistics are not stored; readers compute them from the
    /// records.
    ///
    /// `trace` carries the caller's run-lifecycle events (runstate
    /// transitions, drains); one `job` span per output is appended before
    /// writing, so a completed run's trace always holds exactly one span
    /// per scenario regardless of which front end drove the sweep. The
    /// records' diagnostics are stored only in the records: the `diag.v1`
    /// document and the trace's `diag` events are rendered from them on
    /// read ([`crate::RunArtifact::diagnostics_view`],
    /// [`crate::RunArtifact::trace_view`]).
    ///
    /// `replace` wipes a previous run under the same (fixed) id; without it
    /// a colliding run id is an `AlreadyExists` error rather than a silent
    /// merge. Returns the per-cell records for later verification.
    #[allow(clippy::too_many_arguments)]
    pub fn write_artifact(
        &self,
        store: &ArtifactStore,
        run_id: &str,
        replace: bool,
        jobs: &[Job],
        outputs: &[JobOutput],
        snapshot: CacheSnapshot,
        trace: &[TraceEvent],
    ) -> Result<Vec<(GridCell, Vec<TranslationRecord>)>, ArtifactError> {
        let per_cell = self.group_by_cell(jobs, outputs);
        let writer = if replace {
            store.create_or_replace_run(run_id)
        } else {
            store.create_run(run_id)
        }?;
        for (cell, records) in &per_cell {
            writer.write_records(&cell.slug(), records)?;
        }
        writer.write_manifest(&self.manifest(run_id, outputs.len(), snapshot))?;
        // Diagnostics metrics are counted here — at artifact-write time, not
        // in the pipeline — so cache-hit scenarios count exactly like
        // executed ones and the exposition agrees with the artifact. The
        // rounds histogram is registered unconditionally so the family
        // renders even for an all-clean run.
        let registry = lassi_obs::global();
        let rounds = registry.histogram(
            "lassi_self_correction_rounds",
            "Self-correction rounds spent per completed scenario.",
            &[],
            &[0.0, 1.0, 2.0, 3.0, 5.0, 10.0, 20.0, 40.0],
        );
        let mut events: Vec<TraceEvent> = trace.to_vec();
        let mut ordered: Vec<&JobOutput> = outputs.iter().collect();
        ordered.sort_by_key(|output| output.index);
        // One `job` span per scenario, in submission order and back to
        // back: each span's duration and queue-wait vs execute split are
        // the worker's real measurements, while the sequential layout keeps
        // the file deterministic under any worker schedule.
        let mut start_us = 0u64;
        for output in &ordered {
            let span = crate::trace::job_span(start_us, &jobs[output.index], output);
            start_us += span.dur_us.unwrap_or(0);
            events.push(span);
            rounds.observe(output.record.self_corrections as f64);
            for attempt in &output.record.diagnostics {
                for diag in &attempt.diagnostics {
                    registry
                        .counter(
                            "lassi_diagnostics_total",
                            "Structured findings recorded in run artifacts, \
                             by severity, code and stage.",
                            &[
                                ("severity", diag.severity.label()),
                                ("code", diag.code_str()),
                                ("stage", &attempt.stage),
                            ],
                        )
                        .inc();
                }
            }
        }
        crate::trace::write_trace(writer.dir(), &events)?;
        // A fully-written artifact is a terminally `done` run; persisting
        // the lifecycle file here keeps CLI-written runs queryable through
        // the same `state.json` contract the async service uses. Callers
        // with richer timing (the sweep executor) overwrite it afterwards.
        RunStatus::done(run_id, outputs.len()).save(writer.dir())?;
        Ok(per_cell)
    }

    /// The cell a job belongs to.
    pub fn cell_of(&self, job: &Job) -> GridCell {
        GridCell {
            direction: job.direction,
            max_self_corrections: job.config.max_self_corrections,
            timing_runs: job.config.timing_runs,
        }
    }
}

/// One configuration cell of a grid sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GridCell {
    /// Translation direction.
    pub direction: Direction,
    /// Self-correction cap for this cell.
    pub max_self_corrections: u32,
    /// Timed executions averaged per runtime measurement.
    pub timing_runs: u32,
}

impl GridCell {
    /// Filename-safe record-set slug, e.g. `cuda-to-omp-msc40-runs1`.
    pub fn slug(&self) -> String {
        format!(
            "{}-msc{}-runs{}",
            self.direction.slug(),
            self.max_self_corrections,
            self.timing_runs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lassi_hecbench::application;
    use lassi_llm::{codestral, gpt4};

    fn grid() -> SweepGrid {
        SweepGrid {
            base: PipelineConfig::default(),
            models: vec![gpt4(), codestral()],
            apps: vec![
                application("layout").unwrap(),
                application("entropy").unwrap(),
            ],
            directions: vec![Direction::CudaToOmp, Direction::OmpToCuda],
            max_self_corrections: vec![10, 40],
            timing_runs: vec![1],
        }
    }

    #[test]
    fn grid_expands_to_the_full_product() {
        let g = grid();
        assert_eq!(g.len(), 2 * 2 * 2 * 2);
        let jobs = g.jobs();
        assert_eq!(jobs.len(), g.len());
        assert_eq!(g.cells().len(), 4);
        // Every job's config reflects its cell overrides.
        for job in &jobs {
            assert!(matches!(job.config.max_self_corrections, 10 | 40));
            assert_eq!(job.config.timing_runs, 1);
        }
        // Cells partition the jobs evenly.
        for cell in g.cells() {
            let n = jobs.iter().filter(|j| g.cell_of(j) == cell).count();
            assert_eq!(n, 4, "{}", cell.slug());
        }
    }

    #[test]
    fn cell_slugs_are_distinct_and_filename_safe() {
        let g = grid();
        let slugs: Vec<String> = g.cells().iter().map(GridCell::slug).collect();
        for (i, a) in slugs.iter().enumerate() {
            assert!(a.chars().all(|c| c.is_ascii_alphanumeric() || c == '-'));
            for b in &slugs[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn job_spans_are_back_to_back_under_sub_microsecond_timings() {
        // Each pair's rounded sum differs from the sum of its rounded
        // parts (0.4 + 0.4 µs is 1 µs together, 0 µs apart; 0.6 + 0.6 µs
        // is 1 µs together, 2 µs apart), so advancing the timeline by the
        // rounded sum instead of the span's own duration leaves gaps and
        // overlaps.
        let timings = [(0.6, 0.6), (0.4, 0.4), (1.5, 0.2), (0.4, 0.4)];
        let g = grid();
        let jobs = g.jobs();
        let record = lassi_core::run_scenario(
            &jobs[0].model,
            &jobs[0].application,
            jobs[0].direction,
            &jobs[0].config,
        );
        let outputs: Vec<JobOutput> = jobs
            .iter()
            .enumerate()
            .map(|(index, job)| {
                let (queue_us, execute_us) = timings[index % timings.len()];
                JobOutput {
                    index,
                    direction: job.direction,
                    record: record.clone(),
                    wall_seconds: execute_us / 1e6,
                    queue_seconds: queue_us / 1e6,
                    from_cache: false,
                }
            })
            .collect();
        let root = std::env::temp_dir().join(format!("lassi-grid-spans-{}", std::process::id()));
        let store = ArtifactStore::new(&root);
        let snapshot = CacheSnapshot::default();
        g.write_artifact(&store, "spans", true, &jobs, &outputs, snapshot, &[])
            .unwrap();
        let events = crate::trace::read_trace(&store.run_dir("spans")).unwrap();
        let spans: Vec<&TraceEvent> = events.iter().filter(|ev| ev.name == "job").collect();
        assert_eq!(spans.len(), jobs.len());
        let mut end_us = 0;
        for span in spans {
            assert_eq!(
                span.t_us, end_us,
                "{span:?} does not start where the last ended"
            );
            end_us = span.t_us + span.dur_us.unwrap();
        }
        // The run directory holds exactly the manifest, the lifecycle file,
        // the trace and one record set per cell.
        let mut files: Vec<String> = std::fs::read_dir(store.run_dir("spans"))
            .unwrap()
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .collect();
        files.sort();
        let mut expected: Vec<String> = g
            .cells()
            .iter()
            .map(|cell| format!("records-{}.json", cell.slug()))
            .chain(["manifest.json", "state.json", "trace.jsonl"].map(String::from))
            .collect();
        expected.sort();
        assert_eq!(files, expected);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn single_grid_matches_base_config() {
        let base = PipelineConfig::default();
        let g = SweepGrid::single(
            base.clone(),
            vec![gpt4()],
            vec![application("layout").unwrap()],
            vec![Direction::CudaToOmp],
        );
        assert_eq!(g.len(), 1);
        assert_eq!(
            g.jobs()[0].config.max_self_corrections,
            base.max_self_corrections
        );
    }
}
