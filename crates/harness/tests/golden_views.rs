//! Golden pins for the views rendered from a run's records: the `diag.v1`
//! diagnostics document and the trace with its `diag` events. The golden
//! files are the `diagnostics.json` and `trace.jsonl` that schema-1
//! artifacts stored for the same grid, so the rendered views must match
//! them byte for byte.
//!
//! The grid crosses an always-fault/always-repair model (every scenario
//! self-corrects once) with a model that never faults, over both
//! directions, so the views cover scenarios with and without findings in
//! two record sets. Job timings are whole microseconds, which keeps the
//! trace's span layout independent of rounding.

use lassi_core::{Direction, PipelineConfig};
use lassi_harness::{ArtifactStore, Harness, HarnessOptions, JobOutput, SweepGrid};
use lassi_hecbench::application;
use lassi_llm::{codestral, gpt4};
use lassi_obs::TraceEvent;

const GOLDEN_DIAGNOSTICS: &str = include_str!("golden/diagnostics-view.json");
const GOLDEN_TRACE: &str = include_str!("golden/trace-view.jsonl");

/// Write the fixed grid's artifact into a fresh store and return it.
fn golden_run(label: &str) -> (ArtifactStore, std::path::PathBuf) {
    let mut faulty = gpt4();
    faulty.profile.p_compile_fault = 1.0;
    faulty.profile.p_runtime_fault = 0.0;
    faulty.profile.p_semantic_fault = 0.0;
    faulty.profile.p_perf_regression = 0.0;
    faulty.profile.p_repair_success = 1.0;
    faulty.profile.p_repair_regression = 0.0;
    let mut clean = codestral();
    clean.profile.p_compile_fault = 0.0;
    clean.profile.p_runtime_fault = 0.0;
    clean.profile.p_semantic_fault = 0.0;
    clean.profile.p_perf_regression = 0.0;
    let grid = SweepGrid::single(
        PipelineConfig {
            timing_runs: 1,
            seed: 5,
            ..PipelineConfig::default()
        },
        vec![faulty, clean],
        vec![application("entropy").expect("entropy exists")],
        vec![Direction::CudaToOmp, Direction::OmpToCuda],
    );
    let jobs = grid.jobs();
    let harness = Harness::new(HarnessOptions::default().with_workers(1));
    let mut outputs: Vec<JobOutput> = harness.submit(jobs.clone()).collect_outputs();
    for output in &mut outputs {
        output.queue_seconds = (3 + 2 * output.index) as f64 / 1e6;
        output.wall_seconds = (250 + 41 * output.index) as f64 / 1e6;
        output.from_cache = output.index == 3;
    }
    let lifecycle = [TraceEvent::event("runstate", 0)
        .with("from", "queued")
        .with("to", "running")];
    let root =
        std::env::temp_dir().join(format!("lassi-golden-views-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = ArtifactStore::new(&root);
    grid.write_artifact(
        &store,
        "golden",
        true,
        &jobs,
        &outputs,
        harness.cache_snapshot(),
        &lifecycle,
    )
    .expect("artifact writes");
    (store, root)
}

#[test]
fn rendered_views_match_the_golden_files() {
    let (store, root) = golden_run("match");
    let artifact = store.load_run("golden").expect("artifact loads");
    assert_eq!(artifact.diagnostics_view().unwrap(), GOLDEN_DIAGNOSTICS);
    assert_eq!(artifact.trace_view().unwrap(), GOLDEN_TRACE);
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn only_the_records_store_the_findings() {
    let (store, root) = golden_run("stored");
    let dir = store.run_dir("golden");
    assert!(!dir.join("diagnostics.json").exists());
    let stored = lassi_harness::read_trace(&dir).expect("trace parses");
    assert!(stored.iter().all(|event| event.name != "diag"));
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn views_refuse_an_older_schema() {
    let (store, root) = golden_run("schema");
    let dir = store.run_dir("golden");
    // A schema-1 artifact stored its trace's `diag` events already;
    // rendering them again would list every finding twice.
    let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
    let current = format!("\"schema_version\": {}", lassi_harness::SCHEMA_VERSION);
    assert!(manifest.contains(&current), "{manifest}");
    std::fs::write(
        dir.join("manifest.json"),
        manifest.replace(&current, "\"schema_version\": 1"),
    )
    .unwrap();
    let artifact = store.load_run("golden").expect("the manifest still loads");
    assert!(artifact.diagnostics_view().is_err());
    assert!(artifact.trace_view().is_err());
    std::fs::remove_dir_all(&root).unwrap();
}
