//! Execution-engine benchmarks: the same Table IV programs run by the
//! reference tree-walking interpreter and by the register-bytecode VM
//! (steady-state, compiled once outside the timed loop), plus the one-time
//! cost of lowering itself, and two VM entry-overhead cases: an empty kernel
//! (the per-thread cost of starting a thread, which the empty kernel's
//! lockstep blocks pay once per block) and a host loop of one statement
//! (the per-statement cost).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use lassi_hecbench::{application, Machine};
use lassi_lang::{parse, Dialect};
use lassi_runtime::HostInterpreter;

/// 100 launches of 40 x 256 threads that do nothing: 1,024,000 thread
/// starts.
const EMPTY_KERNEL: &str = r#"
__global__ void empty(int n) { }
int main() {
    for (int r = 0; r < 100; r++) { empty<<<40, 256>>>(r); }
    return 0;
}
"#;

/// One million iterations of a one-statement loop body.
const HOST_LOOP: &str = r#"
int main() {
    long s = 0;
    for (int i = 0; i < 1000000; i++) { s += i; }
    printf("%ld\n", s);
    return 0;
}
"#;

fn bench_bytecode(c: &mut Criterion) {
    let machine = Machine::a100();
    // The representative applications the simulator bench uses — a
    // kernel-heavy grid workload, a tiny host-parallel workload and a
    // reduction-heavy workload — plus jacobi, the most execution-heavy
    // program of the grid (60 launches × 4096 threads per run), colorwheel,
    // the heaviest per device thread, pathfinder, whose blocks and chunks
    // run in lockstep, and dense-embedding, whose in-place update of `out`
    // makes each launch and region give lockstep up and run sequentially.
    for name in [
        "matrix-rotate",
        "bsearch",
        "entropy",
        "jacobi",
        "colorwheel",
        "pathfinder",
        "dense-embedding",
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

fn bench_entry_overhead(c: &mut Criterion) {
    let machine = Machine::a100();
    for (name, src) in [
        ("vm_empty_kernel_1m_threads", EMPTY_KERNEL),
        ("vm_host_loop_1m_iterations", HOST_LOOP),
    ] {
        let program = parse(src, Dialect::CudaLite).unwrap();
        lassi_sema::compile(&program).unwrap();
        let compiled = lassi_runtime::compile(&program, 0);
        c.bench_function(name, |b| {
            b.iter(|| {
                black_box(
                    lassi_runtime::run_compiled(&compiled, &Machine::run_config(), &machine, &[])
                        .unwrap(),
                )
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_bytecode, bench_entry_overhead
}
criterion_main!(benches);
