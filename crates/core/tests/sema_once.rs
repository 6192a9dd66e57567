//! Sema runs once per checked program. A scenario that translates cleanly
//! checks three programs: the source baseline, the reference baseline and
//! the one generated attempt, so it adds exactly three samples to
//! `lassi_stage_seconds{stage="sema"}`.
//!
//! This is a test binary of its own because the metrics registry is
//! process-wide: another test's scenario running in parallel would add
//! samples to the same series.

use lassi_core::{Lassi, PipelineConfig, ScenarioStatus};
use lassi_hecbench::application;
use lassi_lang::Dialect;
use lassi_llm::{models, SimulatedLlm};

fn sema_samples() -> u64 {
    lassi_obs::global()
        .histogram_snapshot("lassi_stage_seconds", &[("stage", "sema")])
        .map_or(0, |h| h.count)
}

#[test]
fn a_clean_scenario_checks_each_program_once() {
    let mut spec = models::gpt4();
    spec.profile.p_compile_fault = 0.0;
    spec.profile.p_runtime_fault = 0.0;
    spec.profile.p_semantic_fault = 0.0;
    spec.profile.p_perf_regression = 0.0;
    spec.profile.p_repair_regression = 0.0;
    let mut pipeline = Lassi::new(SimulatedLlm::with_seed(spec, 1), PipelineConfig::default());
    let app = application("layout").unwrap();

    let before = sema_samples();
    let record = pipeline.translate_application(&app, Dialect::CudaLite);
    assert_eq!(record.status, ScenarioStatus::Success);
    assert_eq!(record.self_corrections, 0);
    assert_eq!(sema_samples() - before, 3);
}
