//! End-to-end pipeline benchmarks: translation engine, one full LASSI
//! scenario per direction (the unit of work behind Tables VI and VII), one
//! scenario stuck in the self-correction loop, and the per-direction
//! aggregate computation.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use lassi_core::{scenario_outcomes, Direction, Lassi, PipelineConfig, ScenarioStatus};
use lassi_hecbench::application;
use lassi_lang::Dialect;
use lassi_llm::{gpt4, translate_program, CapabilityProfile, SimulatedLlm};
use lassi_metrics::AggregateStats;

fn bench_pipeline(c: &mut Criterion) {
    let layout = application("layout").unwrap();
    let entropy = application("entropy").unwrap();

    c.bench_function("translate_engine_layout_cuda_to_omp", |b| {
        let program = layout.parse(Dialect::CudaLite).unwrap();
        b.iter(|| black_box(translate_program(&program, Dialect::OmpLite).unwrap()))
    });

    c.bench_function("pipeline_scenario_table6_layout_gpt4", |b| {
        let config = PipelineConfig::default();
        b.iter(|| {
            let seed = config.model_scenario_seed("GPT-4", "layout", Direction::OmpToCuda);
            let llm = SimulatedLlm::with_seed(gpt4(), seed);
            let mut pipeline = Lassi::new(llm, config.clone());
            black_box(pipeline.translate_application(&layout, Dialect::OmpLite))
        })
    });

    c.bench_function("pipeline_scenario_table7_entropy_gpt4", |b| {
        let config = PipelineConfig::default();
        b.iter(|| {
            let seed = config.model_scenario_seed("GPT-4", "entropy", Direction::CudaToOmp);
            let llm = SimulatedLlm::with_seed(gpt4(), seed);
            let mut pipeline = Lassi::new(llm, config.clone());
            black_box(pipeline.translate_application(&entropy, Dialect::CudaLite))
        })
    });

    c.bench_function("repair_round", |b| {
        // The repair-loop shape: a GPT-4 that always slips a compile fault,
        // rarely repairs it and often adds another, so the scenario spends
        // its time in correction rounds (llm, parse, sema) while the report
        // memo absorbs the repeated runs of the same programs.
        let jacobi = application("jacobi").unwrap();
        let mut model = gpt4();
        model.profile = CapabilityProfile {
            p_compile_fault: 1.0,
            p_runtime_fault: 0.0,
            p_semantic_fault: 0.0,
            p_perf_regression: 0.0,
            p_perf_improvement: 0.0,
            p_repair_success: 0.1,
            p_repair_regression: 0.3,
        };
        let config = PipelineConfig::default();
        let seed = config.model_scenario_seed("GPT-4", "jacobi", Direction::CudaToOmp);
        b.iter(|| {
            let llm = SimulatedLlm::with_seed(model.clone(), seed);
            let mut pipeline = Lassi::new(llm, config.clone());
            black_box(pipeline.translate_application(&jacobi, Dialect::CudaLite))
        })
    });

    c.bench_function("summary_aggregation", |b| {
        // Aggregate over a synthetic record set shaped like one direction.
        let config = PipelineConfig::default();
        let seed = config.model_scenario_seed("GPT-4", "layout", Direction::OmpToCuda);
        let llm = SimulatedLlm::with_seed(gpt4(), seed);
        let mut pipeline = Lassi::new(llm, config);
        let record = pipeline.translate_application(&layout, Dialect::OmpLite);
        assert!(record.status == ScenarioStatus::Success || record.status.is_na());
        let records = vec![record; 40];
        b.iter(|| black_box(AggregateStats::from_outcomes(&scenario_outcomes(&records))))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_pipeline
}
criterion_main!(benches);
