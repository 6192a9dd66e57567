//! # lassi-bench
//!
//! Benchmark harness for the LASSI reproduction:
//!
//! * **table-regeneration binaries** (`cargo run -p lassi-bench --bin <name>
//!   --release`): `table4`, `table5`, `table6`, `table7`, `summary`,
//!   `prompts` and `case_studies` print the corresponding tables / statistics
//!   from the paper. The scenario-driven ones (`table4`, `table6`, `table7`,
//!   `summary`) run through the `lassi-harness` experiment service, save a
//!   JSON artifact under `artifacts/run-<id>/` (`table6`, `table7` and
//!   `summary` through the same [`SweepGrid::write_artifact`] writer as
//!   `sweep`), and accept `--replay <run-dir>` to re-render a saved
//!   artifact byte-identically without re-running anything.
//! * **`sweep`**: arbitrary config-grid sweeps (models × apps × directions ×
//!   `max_self_corrections` × `timing_runs`) with a persistent scenario
//!   cache; `sweep --smoke` is the self-checking CI entry point.
//! * **criterion benches** (`cargo bench -p lassi-bench`): `frontend`,
//!   `simulators`, `pipeline`, `bytecode` and `similarity` measure the
//!   wall-clock cost of the front-end, the two execution substrates, the
//!   end-to-end pipeline, the bytecode VM against the reference
//!   interpreter, and the similarity metrics.

use std::path::{Path, PathBuf};

use lassi_core::{direction_table, Direction, PipelineConfig, TranslationRecord};
use lassi_harness::store::set_direction;
use lassi_harness::{
    ArtifactStore, GridCell, Harness, HarnessOptions, RunArtifact, ScenarioCache, SweepGrid,
};

/// Shared pipeline configuration used by every table binary so the numbers in
/// the tables are regenerated identically run-to-run.
pub fn default_config() -> PipelineConfig {
    PipelineConfig::default()
}

/// Format seconds the way the paper's tables do (four decimal places).
pub fn fmt_seconds(seconds: f64) -> String {
    format!("{seconds:.4}")
}

/// Flags shared by the harness-backed binaries.
#[derive(Debug, Clone)]
pub struct CommonArgs {
    /// `--replay <run-dir>`: render from a saved artifact, run nothing.
    pub replay: Option<PathBuf>,
    /// `--artifacts <dir>`: artifact root (default `artifacts/`).
    pub artifacts: PathBuf,
    /// `--no-cache` disables the scenario cache; default is a disk cache at
    /// `<artifacts>/cache`.
    pub use_cache: bool,
    /// `--workers <n>`: worker threads (0 = all cores).
    pub workers: usize,
    /// Everything not consumed above, in order.
    pub rest: Vec<String>,
}

impl Default for CommonArgs {
    fn default() -> Self {
        CommonArgs {
            replay: None,
            artifacts: PathBuf::from("artifacts"),
            use_cache: true,
            workers: 0,
            rest: Vec::new(),
        }
    }
}

/// Parse the shared flags out of an argument list. Unrecognised arguments
/// are preserved in `rest` for the binary's own flags.
pub fn parse_common_args<I: IntoIterator<Item = String>>(args: I) -> Result<CommonArgs, String> {
    let mut parsed = CommonArgs::default();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--replay" => {
                let dir = iter.next().ok_or("--replay needs a run directory")?;
                parsed.replay = Some(PathBuf::from(dir));
            }
            "--artifacts" => {
                let dir = iter.next().ok_or("--artifacts needs a directory")?;
                parsed.artifacts = PathBuf::from(dir);
            }
            "--no-cache" => parsed.use_cache = false,
            "--workers" => {
                let n = iter.next().ok_or("--workers needs a count")?;
                parsed.workers = n.parse().map_err(|_| format!("bad worker count `{n}`"))?;
            }
            _ => parsed.rest.push(arg),
        }
    }
    Ok(parsed)
}

/// The artifact store the shared flags select.
pub fn artifact_store(common: &CommonArgs) -> ArtifactStore {
    ArtifactStore::new(&common.artifacts)
}

/// Build the experiment service the shared flags select (worker count plus
/// an optional disk cache under the artifact root).
pub fn build_harness(common: &CommonArgs) -> Result<Harness, String> {
    let options = HarnessOptions::default().with_workers(common.workers);
    let harness = Harness::new(options);
    if common.use_cache {
        let dir = artifact_store(common).cache_dir();
        let cache = ScenarioCache::on_disk(&dir)
            .map_err(|e| format!("cannot open scenario cache at {}: {e}", dir.display()))?;
        Ok(harness.with_cache(cache))
    } else {
        Ok(harness)
    }
}

/// Run `grid` on the harness the shared flags select and save it as
/// `run-<run_id>` through [`SweepGrid::write_artifact`], replacing any
/// previous run under that fixed id. Returns the records per grid cell.
/// The note goes to stderr so live and replayed stdout stay
/// byte-comparable.
pub fn run_grid(
    common: &CommonArgs,
    grid: &SweepGrid,
    run_id: &str,
) -> Result<Vec<(GridCell, Vec<TranslationRecord>)>, String> {
    let harness = build_harness(common)?;
    let jobs = grid.jobs();
    let outputs = harness.submit(jobs.clone()).collect_outputs();
    let snapshot = harness.cache_snapshot();
    let store = artifact_store(common);
    let per_cell = grid
        .write_artifact(&store, run_id, true, &jobs, &outputs, snapshot, &[])
        .map_err(|e| e.to_string())?;
    eprintln!(
        "artifact saved to {} (cache: {} hits / {} misses); \
         re-render with --replay {0}",
        store.run_dir(run_id).display(),
        snapshot.hits,
        snapshot.misses,
    );
    Ok(per_cell)
}

/// The record sets of a saved run, in manifest order, each with the
/// direction its name starts with. Reads both the grid-cell set names
/// [`SweepGrid::write_artifact`] writes and the bare-direction names of
/// older table-binary artifacts.
pub fn replay_record_sets(dir: &Path) -> Result<Vec<(Direction, Vec<TranslationRecord>)>, String> {
    let artifact = RunArtifact::load(dir).map_err(|e| e.to_string())?;
    artifact
        .manifest
        .record_sets
        .iter()
        .map(|set| {
            let direction = Direction::from_slug(set_direction(set))
                .ok_or_else(|| format!("record set `{set}` names no direction"))?;
            let records = artifact.records(set).map_err(|e| e.to_string())?;
            Ok((direction, records))
        })
        .collect()
}

/// Shared driver for `table6` / `table7`: run one direction sweep through
/// the harness and save an artifact, or `--replay` a saved one (any run
/// with exactly one record set in `direction`). Returns the rendered table
/// for stdout.
pub fn direction_table_bin(
    direction: Direction,
    run_id: &str,
    args: Vec<String>,
) -> Result<String, String> {
    let common = parse_common_args(args)?;
    if let Some(extra) = common.rest.first() {
        return Err(format!("unknown argument `{extra}`"));
    }

    let records = if let Some(dir) = &common.replay {
        let mut sets = replay_record_sets(dir)?
            .into_iter()
            .filter(|(set_direction, _)| *set_direction == direction);
        match (sets.next(), sets.next()) {
            (Some((_, records)), None) => records,
            _ => {
                return Err(format!(
                    "{} holds no single {} record set",
                    dir.display(),
                    direction.slug()
                ))
            }
        }
    } else {
        let grid = SweepGrid::single(
            default_config(),
            lassi_llm::all_models(),
            lassi_hecbench::applications(),
            vec![direction],
        );
        let mut per_cell = run_grid(&common, &grid, run_id)?;
        per_cell.remove(0).1
    };
    Ok(direction_table(direction, &records))
}

/// Seconds since the Unix epoch (artifact manifests, run ids).
pub fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_matches_table_style() {
        assert_eq!(fmt_seconds(1.24401), "1.2440");
        assert_eq!(fmt_seconds(0.0032), "0.0032");
    }

    #[test]
    fn default_config_is_reproducible() {
        assert_eq!(default_config().seed, PipelineConfig::default().seed);
    }

    #[test]
    fn common_args_parse_and_preserve_rest() {
        let args = [
            "--workers",
            "4",
            "--smoke",
            "--artifacts",
            "out",
            "--no-cache",
            "--models",
            "GPT-4",
        ]
        .map(String::from);
        let parsed = parse_common_args(args).unwrap();
        assert_eq!(parsed.workers, 4);
        assert_eq!(parsed.artifacts, PathBuf::from("out"));
        assert!(!parsed.use_cache);
        assert!(parsed.replay.is_none());
        assert_eq!(parsed.rest, vec!["--smoke", "--models", "GPT-4"]);
    }

    #[test]
    fn replay_renders_both_artifact_layouts() {
        let direction = Direction::OmpToCuda;
        let config = PipelineConfig {
            timing_runs: 1,
            ..default_config()
        };
        let apps = vec![
            lassi_hecbench::application("layout").unwrap(),
            lassi_hecbench::application("entropy").unwrap(),
        ];
        let grid = SweepGrid::single(config, vec![lassi_llm::gpt4()], apps, vec![direction]);
        let jobs = grid.jobs();
        let records: Vec<TranslationRecord> = jobs.iter().map(lassi_harness::Job::run).collect();
        let expected = direction_table(direction, &records);
        let root = std::env::temp_dir().join(format!("lassi-bench-replay-{}", std::process::id()));
        let store = ArtifactStore::new(&root);

        // The older table-binary layout: a bare-direction record set and
        // no trace or lifecycle file.
        let writer = store.create_run("older").unwrap();
        let mut manifest = grid.manifest("older", records.len(), Default::default());
        manifest.record_sets = vec![direction.slug().to_string()];
        writer.write_manifest(&manifest).unwrap();
        writer.write_records(direction.slug(), &records).unwrap();

        // The layout `SweepGrid::write_artifact` writes.
        let outputs: Vec<lassi_harness::JobOutput> = records
            .iter()
            .enumerate()
            .map(|(index, record)| lassi_harness::JobOutput {
                index,
                direction,
                record: record.clone(),
                wall_seconds: 0.0,
                queue_seconds: 0.0,
                from_cache: false,
            })
            .collect();
        grid.write_artifact(
            &store,
            "grid",
            false,
            &jobs,
            &outputs,
            Default::default(),
            &[],
        )
        .unwrap();

        for id in ["older", "grid"] {
            let dir = store.run_dir(id).display().to_string();
            let replayed =
                direction_table_bin(direction, "unused", vec!["--replay".into(), dir]).unwrap();
            assert_eq!(replayed, expected, "{id}");
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn common_args_report_missing_values() {
        assert!(parse_common_args(["--replay".to_string()]).is_err());
        assert!(parse_common_args(["--workers".into(), "many".into()]).is_err());
    }
}
