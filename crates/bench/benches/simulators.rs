//! Execution-substrate benchmarks: reference runs of Table IV applications on
//! the simulated A100 machine, through CUDA and through OpenMP.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use lassi_hecbench::{application, run_application};
use lassi_lang::Dialect;

fn bench_simulators(c: &mut Criterion) {
    // One representative application per substrate behaviour class.
    for name in ["matrix-rotate", "bsearch", "entropy"] {
        let app = application(name).unwrap();
        c.bench_function(format!("table4_{name}_cuda"), |b| {
            b.iter(|| black_box(run_application(&app, Dialect::CudaLite).unwrap()))
        });
        c.bench_function(format!("table4_{name}_openmp"), |b| {
            b.iter(|| black_box(run_application(&app, Dialect::OmpLite).unwrap()))
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_simulators
}
criterion_main!(benches);
