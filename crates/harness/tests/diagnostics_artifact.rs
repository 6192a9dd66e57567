//! Integration pin for the diagnostics telemetry chain: a model that always
//! injects a compile fault and then always repairs it must leave at least
//! one stable-coded finding in every view of the run artifact — the record
//! set, the rendered `diag.v1` document, and the `diag` events of the
//! rendered trace — with agreeing counts.

use std::path::PathBuf;

use lassi_core::{Direction, PipelineConfig, ScenarioStatus};
use lassi_harness::{parse_trace, ArtifactStore, Harness, HarnessOptions, SweepGrid};
use lassi_hecbench::application;
use lassi_llm::gpt4;

fn test_root() -> PathBuf {
    std::env::temp_dir().join(format!("lassi-diag-artifact-{}", std::process::id()))
}

#[test]
fn faulty_model_findings_reach_every_artifact_view() {
    // The deterministic always-fault / always-repair profile from the core
    // pipeline tests: every scenario self-corrects at least once, so the
    // diagnostics document can never legitimately be empty.
    let mut spec = gpt4();
    spec.profile.p_compile_fault = 1.0;
    spec.profile.p_runtime_fault = 0.0;
    spec.profile.p_semantic_fault = 0.0;
    spec.profile.p_perf_regression = 0.0;
    spec.profile.p_repair_success = 1.0;
    spec.profile.p_repair_regression = 0.0;

    let config = PipelineConfig {
        timing_runs: 1,
        seed: 5,
        ..PipelineConfig::default()
    };
    let grid = SweepGrid::single(
        config,
        vec![spec],
        vec![application("entropy").expect("entropy exists")],
        vec![Direction::CudaToOmp],
    );
    let harness = Harness::new(HarnessOptions::default().with_workers(2));
    let jobs = grid.jobs();
    let outputs = harness.submit(jobs.clone()).collect_outputs();
    assert_eq!(outputs.len(), 1);
    let record = &outputs[0].record;
    assert_eq!(
        record.status,
        ScenarioStatus::Success,
        "{:?}",
        record.status
    );
    assert!(record.self_corrections >= 1, "the fault forces a repair");
    assert!(
        !record.diagnostics.is_empty(),
        "the record carries its per-attempt history"
    );

    let root = test_root();
    let _ = std::fs::remove_dir_all(&root);
    let store = ArtifactStore::new(&root);
    grid.write_artifact(
        &store,
        "diagpin",
        true,
        &jobs,
        &outputs,
        harness.cache_snapshot(),
        &[],
    )
    .expect("artifact writes");

    // View 1: the record's own history, counted as individual findings.
    let record_findings: usize = record
        .diagnostics
        .iter()
        .map(|attempt| attempt.diagnostics.len())
        .sum();
    assert!(record_findings >= 1);
    for attempt in &record.diagnostics {
        for diag in &attempt.diagnostics {
            assert!(
                diag.code_str().contains('/'),
                "stable `area/slug` code, got `{}`",
                diag.code_str()
            );
        }
    }

    // View 2: the diagnostics document rendered from the records.
    let artifact = store.load_run("diagpin").expect("artifact loads");
    let text = artifact.diagnostics_view().expect("diagnostics render");
    let doc = lassi_harness::json::parse(&text).expect("diagnostics parse");
    assert_eq!(doc.get("v").and_then(|v| v.as_str()), Some("diag.v1"));
    let scenarios = doc
        .get("scenarios")
        .and_then(|v| v.as_array())
        .expect("scenarios array");
    assert_eq!(scenarios.len(), 1, "one faulty scenario, one entry");
    let doc_findings: usize = scenarios
        .iter()
        .flat_map(|s| s.get("attempts").and_then(|v| v.as_array()).unwrap())
        .map(|attempt| {
            attempt
                .get("diagnostics")
                .and_then(|v| v.as_array())
                .expect("diagnostics array")
                .len()
        })
        .sum();
    assert_eq!(doc_findings, record_findings, "document mirrors the record");

    // View 3: one `diag` trace event per finding, anchored to the job span.
    let events = parse_trace(&artifact.trace_view().expect("trace renders")).expect("trace parses");
    let diag_events = events.iter().filter(|ev| ev.name == "diag").count();
    assert_eq!(diag_events, record_findings, "trace mirrors the record");

    std::fs::remove_dir_all(&root).unwrap();
}
