//! Each program text is checked once per scenario.
//!
//! A scenario that translates cleanly checks three programs: the source
//! baseline, the reference baseline and the one generated attempt, so it
//! adds exactly three samples to `lassi_stage_seconds{stage="sema"}`. A
//! repair that returns the program that just failed reuses that program's
//! verdict instead of parsing and checking the same bytes again.
//!
//! This is a test binary of its own because the metrics registry is
//! process-wide: another test's scenario running in parallel would add
//! samples to the same series. The tests here take turns for the same
//! reason.

use std::sync::Mutex;

use lassi_core::{Lassi, PipelineConfig, ScenarioStatus};
use lassi_hecbench::application;
use lassi_lang::Dialect;
use lassi_llm::{models, ModelSpec, SimulatedLlm};

static REGISTRY: Mutex<()> = Mutex::new(());

fn stage_samples(stage: &str) -> u64 {
    lassi_obs::global()
        .histogram_snapshot("lassi_stage_seconds", &[("stage", stage)])
        .map_or(0, |h| h.count)
}

/// GPT-4 with every fault off; callers switch on the ones they test.
fn faultless_gpt4() -> ModelSpec {
    let mut spec = models::gpt4();
    spec.profile.p_compile_fault = 0.0;
    spec.profile.p_runtime_fault = 0.0;
    spec.profile.p_semantic_fault = 0.0;
    spec.profile.p_perf_regression = 0.0;
    spec.profile.p_repair_regression = 0.0;
    spec
}

#[test]
fn a_clean_scenario_checks_each_program_once() {
    let _turn = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let llm = SimulatedLlm::with_seed(faultless_gpt4(), 1);
    let mut pipeline = Lassi::new(llm, PipelineConfig::default());
    let app = application("layout").unwrap();

    let before = stage_samples("sema");
    let record = pipeline.translate_application(&app, Dialect::CudaLite);
    assert_eq!(record.status, ScenarioStatus::Success);
    assert_eq!(record.self_corrections, 0);
    assert_eq!(stage_samples("sema") - before, 3);
}

#[test]
fn an_unchanged_repair_reuses_the_failed_verdict() {
    let _turn = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let mut spec = faultless_gpt4();
    spec.profile.p_compile_fault = 1.0;
    spec.profile.p_repair_success = 0.0;
    let config = PipelineConfig::default();
    let cap = config.max_self_corrections;
    let mut pipeline = Lassi::new(SimulatedLlm::with_seed(spec, 5), config);
    let app = application("entropy").unwrap();

    let before = stage_samples("parse");
    let record = pipeline.translate_application(&app, Dialect::CudaLite);
    assert_eq!(record.status, ScenarioStatus::CompileGaveUp);
    assert_eq!(record.self_corrections, cap);

    let rounds: Vec<u32> = record.diagnostics.iter().map(|a| a.round).collect();
    assert_eq!(rounds, (0..=cap).collect::<Vec<_>>());
    let first = &record.diagnostics[0];
    for attempt in &record.diagnostics {
        assert_eq!(attempt.stage, first.stage);
        assert_eq!(attempt.diagnostics, first.diagnostics);
    }
    // The two baselines and the one generated program.
    assert_eq!(stage_samples("parse") - before, 3);
}
