//! Execution-engine benchmarks: the same Table IV programs run by the
//! reference tree-walking interpreter and by the register-bytecode VM
//! (steady-state, compiled once — the shape the compiled-program cache gives
//! the pipeline), plus the one-time cost of lowering itself.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use lassi_hecbench::{application, Machine};
use lassi_lang::Dialect;
use lassi_runtime::HostInterpreter;

fn bench_bytecode(c: &mut Criterion) {
    let machine = Machine::a100();
    // The representative applications the simulator bench uses — a
    // kernel-heavy grid workload, a tiny host-parallel workload and a
    // reduction-heavy workload — plus jacobi, the most execution-heavy
    // program of the grid (60 launches × 4096 threads per run), and
    // colorwheel, the heaviest per device thread.
    for name in [
        "matrix-rotate",
        "bsearch",
        "entropy",
        "jacobi",
        "colorwheel",
    ] {
        let app = application(name).unwrap();
        for (dialect, tag) in [(Dialect::CudaLite, "cuda"), (Dialect::OmpLite, "openmp")] {
            let program = app.parse(dialect).unwrap();
            lassi_sema::compile(&program).unwrap();
            let compiled = lassi_runtime::compile(&program, 0);

            c.bench_function(format!("interp_{name}_{tag}"), |b| {
                b.iter(|| {
                    let mut interp = HostInterpreter::new(&program, Machine::run_config());
                    black_box(interp.run(&machine, &[]).unwrap())
                })
            });
            c.bench_function(format!("vm_{name}_{tag}"), |b| {
                b.iter(|| {
                    black_box(
                        lassi_runtime::run_compiled(
                            &compiled,
                            &Machine::run_config(),
                            &machine,
                            &[],
                        )
                        .unwrap(),
                    )
                })
            });
            c.bench_function(format!("lower_{name}_{tag}"), |b| {
                b.iter(|| black_box(lassi_runtime::compile(&program, 0)))
            });
        }
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_bytecode
}
criterion_main!(benches);
