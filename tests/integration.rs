//! Cross-crate integration tests: front-end → compiler → simulators → LLM →
//! pipeline, exercised through the public `lassi` façade the way a downstream
//! user would.

use lassi::pipeline::{scenario_outcomes, Direction, Lassi, PipelineConfig};
use lassi::prelude::*;

/// A "perfect" model variant used when a test needs a deterministic success.
fn perfect(name: &str) -> SimulatedLlm {
    let mut spec = model_by_name(name).expect("model exists");
    spec.profile.p_compile_fault = 0.0;
    spec.profile.p_runtime_fault = 0.0;
    spec.profile.p_semantic_fault = 0.0;
    spec.profile.p_perf_regression = 0.0;
    spec.profile.p_repair_regression = 0.0;
    SimulatedLlm::with_seed(spec, 99)
}

#[test]
fn every_reference_application_runs_in_both_dialects_with_matching_output() {
    for app in applications() {
        let cuda = run_application(&app, Dialect::CudaLite)
            .unwrap_or_else(|e| panic!("{} CUDA reference failed: {e}", app.name));
        let omp = run_application(&app, Dialect::OmpLite)
            .unwrap_or_else(|e| panic!("{} OpenMP reference failed: {e}", app.name));
        assert_eq!(cuda.stdout, omp.stdout, "output mismatch for {}", app.name);
        assert!(cuda.simulated_seconds > 0.0 && omp.simulated_seconds > 0.0);
    }
}

#[test]
fn table_iv_shape_matches_the_paper() {
    // The paper's Table IV: jacobi and dense-embedding are dramatically slower
    // in OpenMP, bsearch and colorwheel are faster in OpenMP.
    let runtime = |name: &str, dialect| {
        run_application(&application(name).unwrap(), dialect)
            .unwrap()
            .simulated_seconds
    };
    assert!(runtime("jacobi", Dialect::OmpLite) > 3.0 * runtime("jacobi", Dialect::CudaLite));
    assert!(
        runtime("dense-embedding", Dialect::OmpLite)
            > 2.0 * runtime("dense-embedding", Dialect::CudaLite)
    );
    assert!(runtime("bsearch", Dialect::OmpLite) < runtime("bsearch", Dialect::CudaLite));
    assert!(runtime("colorwheel", Dialect::OmpLite) < runtime("colorwheel", Dialect::CudaLite));
}

#[test]
fn perfect_model_translates_every_application_cuda_to_openmp() {
    // One timed run per execution keeps this sweep fast in debug builds.
    let config = PipelineConfig {
        timing_runs: 1,
        ..PipelineConfig::default()
    };
    for app in applications() {
        let mut pipeline = Lassi::new(perfect("GPT-4"), config.clone());
        let record = pipeline.translate_application(&app, Dialect::CudaLite);
        assert_eq!(
            record.status,
            ScenarioStatus::Success,
            "{} CUDA->OpenMP failed: {:?}\n{}",
            app.name,
            record.status,
            record.generated_code.unwrap_or_default()
        );
        assert_eq!(record.self_corrections, 0);
    }
}

#[test]
fn perfect_model_translates_every_application_openmp_to_cuda() {
    let config = PipelineConfig {
        timing_runs: 1,
        ..PipelineConfig::default()
    };
    for app in applications() {
        let mut pipeline = Lassi::new(perfect("GPT-4"), config.clone());
        let record = pipeline.translate_application(&app, Dialect::OmpLite);
        assert_eq!(
            record.status,
            ScenarioStatus::Success,
            "{} OpenMP->CUDA failed: {:?}\n{}",
            app.name,
            record.status,
            record.generated_code.unwrap_or_default()
        );
        assert_eq!(record.self_corrections, 0);
    }
}

#[test]
fn generated_code_is_similar_but_not_identical_to_the_reference() {
    let app = application("layout").unwrap();
    let mut pipeline = Lassi::new(perfect("GPT-4"), PipelineConfig::default());
    let record = pipeline.translate_application(&app, Dialect::CudaLite);
    let sim_t = record.sim_t.expect("successful translation has Sim-T");
    let sim_l = record.sim_l.expect("successful translation has Sim-L");
    assert!(sim_t > 0.3 && sim_t <= 1.0);
    assert!(sim_l > 0.1 && sim_l <= 1.0);
    let generated = record.generated_code.unwrap();
    assert_ne!(generated.trim(), app.omp_source.trim());
}

#[test]
fn faulty_models_produce_na_rows_and_self_corrections() {
    // A model that always produces an unrecoverable semantic fault must end
    // in an N/A outcome, never in a false success.
    let mut spec = model_by_name("DeepSeek Coder v2").unwrap();
    spec.profile.p_compile_fault = 0.0;
    spec.profile.p_runtime_fault = 0.0;
    spec.profile.p_semantic_fault = 1.0;
    spec.profile.p_perf_regression = 0.0;
    let llm = SimulatedLlm::with_seed(spec, 17);
    let app = application("atomicCost").unwrap();
    let mut pipeline = Lassi::new(llm, PipelineConfig::default());
    let record = pipeline.translate_application(&app, Dialect::CudaLite);
    assert!(
        record.status.is_na(),
        "semantic fault must not count as success"
    );
    assert!(record.ratio.is_none());
}

#[test]
fn small_two_model_sweep_produces_paper_style_statistics() {
    let config = PipelineConfig::default();
    let apps: Vec<Application> = ["layout", "entropy"]
        .iter()
        .map(|n| application(n).unwrap())
        .collect();
    let models = vec![
        model_by_name("GPT-4").unwrap(),
        model_by_name("Codestral").unwrap(),
    ];
    let harness = Harness::new(HarnessOptions::default());
    let records = harness.run_direction_with(Direction::CudaToOmp, &config, &models, &apps);
    assert_eq!(records.len(), 4);
    let stats = AggregateStats::from_outcomes(&scenario_outcomes(&records));
    assert!(stats.success_rate >= 0.0 && stats.success_rate <= 1.0);
    assert_eq!(stats.total, 4);
}

#[test]
fn pipeline_records_are_reproducible_for_a_fixed_seed() {
    let config = PipelineConfig::default();
    let app = application("pathfinder").unwrap();
    let run = || {
        let seed = config.model_scenario_seed("Codestral", app.name, Direction::OmpToCuda);
        let llm = SimulatedLlm::with_seed(model_by_name("Codestral").unwrap(), seed);
        let mut pipeline = Lassi::new(llm, config.clone());
        pipeline.translate_application(&app, Dialect::OmpLite)
    };
    let a = run();
    let b = run();
    assert_eq!(a.status, b.status);
    assert_eq!(a.self_corrections, b.self_corrections);
    assert_eq!(a.generated_code, b.generated_code);
    assert_eq!(a.generated_runtime, b.generated_runtime);
}
