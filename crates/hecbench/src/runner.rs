//! Reference runner: helpers for compiling and executing benchmark programs
//! on the bytecode VM, on the paper's machine ([`Machine`]), the way the
//! LASSI pipeline's "source code preparation" step does.

use lassi_lang::{Dialect, Program};
use lassi_runtime::{ExecError, ExecutionReport, Machine};

use crate::apps::Application;

/// 64-bit FNV-1a. Scenario seeds, memo keys and scenario-cache keys all hash
/// with it because the derivation must be stable across Rust releases —
/// `std`'s `DefaultHasher` explicitly is not (a toolchain bump would
/// silently re-seed every scenario, changing every record, table and
/// committed baseline).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Errors from running a benchmark source.
#[derive(Debug)]
pub enum RunError {
    /// The program did not compile; the diagnostics are compiler-style text.
    Compile(Vec<lassi_lang::Diagnostic>),
    /// The program compiled but failed at runtime.
    Execute(ExecError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Compile(diags) => {
                write!(
                    f,
                    "compile error: {}",
                    lassi_lang::diag::render_diagnostics(diags)
                )
            }
            RunError::Execute(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RunError {}

/// Semantic-check an already-parsed program, lower it to register bytecode
/// and execute it on the default machine.
pub fn run_program(program: &Program) -> Result<ExecutionReport, RunError> {
    lassi_sema::compile(program).map_err(RunError::Compile)?;
    let compiled = lassi_runtime::compile(program, 0);
    lassi_runtime::run_compiled(&compiled, &Machine::run_config(), &Machine::a100(), &[])
        .map_err(RunError::Execute)
}

/// Parse, compile and execute source text in the given dialect.
pub fn run_source(source: &str, dialect: Dialect) -> Result<ExecutionReport, RunError> {
    let program = lassi_lang::parse(source, dialect).map_err(|d| RunError::Compile(vec![d]))?;
    run_program(&program)
}

/// Run one reference benchmark application in one dialect.
pub fn run_application(app: &Application, dialect: Dialect) -> Result<ExecutionReport, RunError> {
    run_source(app.source(dialect), dialect)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::application;
    use lassi_runtime::HostInterpreter;

    /// [`run_program`] on the reference tree-walking interpreter: the
    /// oracle the VM's reports must match bit for bit.
    fn run_reference(program: &Program) -> Result<ExecutionReport, RunError> {
        lassi_sema::compile(program).map_err(RunError::Compile)?;
        let mut interp = HostInterpreter::new(program, Machine::run_config());
        interp.run(&Machine::a100(), &[]).map_err(RunError::Execute)
    }

    #[test]
    fn non_ascii_output_prints_verbatim() {
        let src = "int main() { printf(\"café %d\\n\", 1); return 0; }";
        let report = run_source(src, Dialect::CudaLite).unwrap();
        assert_eq!(report.stdout, "café 1\n");
    }

    #[test]
    fn bsearch_openmp_is_faster_than_cuda() {
        // Table IV: bsearch runs in 0.3273 s (CUDA) vs 0.0140 s (OpenMP).
        let app = application("bsearch").unwrap();
        let cuda = run_application(&app, Dialect::CudaLite).unwrap();
        let omp = run_application(&app, Dialect::OmpLite).unwrap();
        assert_eq!(cuda.stdout, omp.stdout);
        assert!(
            omp.simulated_seconds < cuda.simulated_seconds,
            "OpenMP bsearch should be faster ({} vs {})",
            omp.simulated_seconds,
            cuda.simulated_seconds
        );
    }

    #[test]
    fn jacobi_cuda_is_much_faster_than_openmp() {
        // Table IV: jacobi runs in 0.8641 s (CUDA) vs 57.3354 s (OpenMP).
        let app = application("jacobi").unwrap();
        let cuda = run_application(&app, Dialect::CudaLite).unwrap();
        let omp = run_application(&app, Dialect::OmpLite).unwrap();
        assert_eq!(cuda.stdout, omp.stdout);
        assert!(
            omp.simulated_seconds > cuda.simulated_seconds * 3.0,
            "OpenMP jacobi should be several times slower ({} vs {})",
            omp.simulated_seconds,
            cuda.simulated_seconds
        );
    }

    #[test]
    fn atomic_cost_outputs_match() {
        let app = application("atomicCost").unwrap();
        let cuda = run_application(&app, Dialect::CudaLite).unwrap();
        let omp = run_application(&app, Dialect::OmpLite).unwrap();
        assert_eq!(cuda.stdout, omp.stdout);
        assert!(cuda.stdout.contains("total 20000.0"));
    }

    #[test]
    fn cross_block_float_atomics_are_deterministic() {
        // Every thread (iteration) adds a different term, so the f64 total
        // depends on the order the adds land in. Launches run on the calling
        // thread — blocks, then threads, in index order; OpenMP chunks in
        // order — so the total is the sequential fold, run after run.
        let expected = (0..1024).fold(0.0f64, |acc, i| acc + 1.0 / (i + 1) as f64);
        let cuda = r#"
        __global__ void harmonic(double* total) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            atomicAdd(total, 1.0 / (i + 1));
        }
        int main() {
            double* h_total = (double*)malloc(sizeof(double));
            double* d_total;
            cudaMalloc(&d_total, sizeof(double));
            cudaMemset(d_total, 0, sizeof(double));
            harmonic<<<16, 64>>>(d_total);
            cudaMemcpy(h_total, d_total, sizeof(double), cudaMemcpyDeviceToHost);
            printf("%.17e\n", h_total[0]);
            cudaFree(d_total);
            free(h_total);
            return 0;
        }
        "#;
        let omp = r#"
        int main() {
            double* total = (double*)malloc(sizeof(double));
            total[0] = 0.0;
            #pragma omp target teams distribute parallel for map(tofrom: total[0:1])
            for (int i = 0; i < 1024; i++) {
                #pragma omp atomic
                total[0] += 1.0 / (i + 1);
            }
            printf("%.17e\n", total[0]);
            free(total);
            return 0;
        }
        "#;
        for (src, dialect) in [(cuda, Dialect::CudaLite), (omp, Dialect::OmpLite)] {
            let program = lassi_lang::parse(src, dialect).unwrap();
            for run in [run_reference, run_program, run_reference, run_program] {
                let stdout = run(&program).unwrap().stdout;
                let total: f64 = stdout.trim().parse().unwrap();
                assert_eq!(total.to_bits(), expected.to_bits(), "{dialect:?}: {stdout}");
            }
        }
    }

    #[test]
    fn bytecode_engine_matches_interpreter_on_every_app() {
        // The two engines must agree bit-for-bit on every reference
        // benchmark in both dialects: stdout, steps, cost counters, memory
        // stats and the simulated clock.
        for app in crate::apps::applications() {
            for dialect in [Dialect::CudaLite, Dialect::OmpLite] {
                let program = lassi_lang::parse(app.source(dialect), dialect).unwrap();
                let reference = run_reference(&program);
                let compiled = run_program(&program);
                match (reference, compiled) {
                    (Ok(a), Ok(b)) => {
                        let tag = format!("{} ({dialect:?})", app.name);
                        assert_eq!(a.stdout, b.stdout, "stdout: {tag}");
                        assert_eq!(a.exit_code, b.exit_code, "exit_code: {tag}");
                        assert_eq!(a.steps, b.steps, "steps: {tag}");
                        assert_eq!(a.lane_steps, b.lane_steps, "lane steps: {tag}");
                        assert_eq!(a.cost, b.cost, "cost: {tag}");
                        assert_eq!(a.memory, b.memory, "memory: {tag}");
                        assert_eq!(
                            a.simulated_seconds.to_bits(),
                            b.simulated_seconds.to_bits(),
                            "simulated_seconds: {tag}"
                        );
                        assert_eq!(
                            a.parallel_seconds.to_bits(),
                            b.parallel_seconds.to_bits(),
                            "parallel_seconds: {tag}"
                        );
                    }
                    (Err(a), Err(b)) => {
                        assert_eq!(a.to_string(), b.to_string(), "{}", app.name)
                    }
                    (a, b) => panic!(
                        "{} ({dialect:?}): engines disagree: interpreter={a:?} vm={b:?}",
                        app.name
                    ),
                }
            }
        }
    }

    #[test]
    fn lockstep_eligibility_of_the_reference_kernels_and_regions() {
        // Every kernel and region body of the reference programs is
        // eligible to run in lockstep except those with atomics;
        // `dense-embedding`'s is eligible and gives up at run time, since
        // it loads and stores `out` in one launch.
        for app in crate::apps::applications() {
            let atomic = matches!(app.name, "atomicCost" | "entropy" | "randomAccess");
            for dialect in [Dialect::CudaLite, Dialect::OmpLite] {
                let compiled = lassi_runtime::compile(&app.parse(dialect).unwrap(), 0);
                let kernels = compiled.kernels.iter().map(|k| k.lockstep.is_some());
                let regions = compiled.regions.iter().map(|r| r.lockstep.is_some());
                let marks: Vec<bool> = kernels.chain(regions).collect();
                assert!(!marks.is_empty(), "{} ({dialect:?})", app.name);
                assert!(
                    marks.iter().all(|&m| m != atomic),
                    "{} ({dialect:?}): {marks:?}",
                    app.name
                );
            }
        }
    }

    #[test]
    fn each_work_sharing_pragma_lowers_to_one_region() {
        // `main` is the host unit and no reference program calls it, so it
        // is lowered once: one region and one `ParallelFor` per pragma.
        use lassi_lang::{OmpDirectiveKind, StmtKind};
        use lassi_runtime::bytecode::Instr;
        for app in crate::apps::applications() {
            for dialect in [Dialect::CudaLite, Dialect::OmpLite] {
                let program = app.parse(dialect).unwrap();
                let mut pragmas = 0;
                for f in program.functions() {
                    f.body.walk(&mut |s| {
                        if let StmtKind::Pragma(p) = &s.kind {
                            pragmas += matches!(
                                p.directive.kind,
                                OmpDirectiveKind::ParallelFor
                                    | OmpDirectiveKind::TargetTeamsDistributeParallelFor
                            ) as usize;
                        }
                    });
                }
                let compiled = lassi_runtime::compile(&program, 0);
                let parallel_fors = compiled
                    .code
                    .iter()
                    .filter(|i| matches!(i, Instr::ParallelFor { .. }))
                    .count();
                let tag = format!("{} ({dialect:?})", app.name);
                assert_eq!(parallel_fors, compiled.regions.len(), "{tag}");
                assert_eq!(parallel_fors, pragmas, "{tag}");
            }
        }
    }

    #[test]
    fn reference_programs_lower_to_at_most_2480_instructions() {
        // Operand loads, literal steps and compare-and-branch pairs fold
        // into their consumers, and `main` is lowered once, as the host
        // unit. With `main` lowered twice these programs came to 8632
        // instructions unfolded and 4709 folded, so a silently disabled
        // folding pass or a second copy of `main` fails here.
        let total: usize = crate::apps::applications()
            .iter()
            .flat_map(|app| [Dialect::CudaLite, Dialect::OmpLite].map(|d| app.parse(d).unwrap()))
            .map(|program| lassi_runtime::compile(&program, 0).code.len())
            .sum();
        assert!(total <= 2480, "{total} instructions");
    }

    #[test]
    fn reference_programs_lower_to_operator_and_typed_store_instructions() {
        // Only the operators without an instruction of their own may take
        // the generic encoding, only non-scalar bindings the generic
        // coercing store, and a `return` charges its steps itself.
        use lassi_lang::{BinOp, Type};
        use lassi_runtime::bytecode::Instr;
        for app in crate::apps::applications() {
            for dialect in [Dialect::CudaLite, Dialect::OmpLite] {
                let compiled = lassi_runtime::compile(&app.parse(dialect).unwrap(), 0);
                for instr in &compiled.code {
                    match instr {
                        Instr::Binary(op, _) | Instr::BinaryK(op, _) => assert!(
                            matches!(
                                op,
                                BinOp::Or
                                    | BinOp::Shl
                                    | BinOp::Shr
                                    | BinOp::BitAnd
                                    | BinOp::BitOr
                                    | BinOp::BitXor
                            ),
                            "{} ({dialect:?}): generic {instr:?}",
                            app.name
                        ),
                        Instr::StoreVar { ty, .. } => assert!(
                            !matches!(
                                compiled.ty(*ty),
                                Type::Int | Type::Long | Type::Bool | Type::Float | Type::Double
                            ),
                            "{} ({dialect:?}): untyped store {instr:?}",
                            app.name
                        ),
                        _ => {}
                    }
                }
                for pair in compiled.code.windows(2) {
                    assert!(
                        !matches!(pair, [Instr::Charge { .. }, Instr::Ret { .. }]),
                        "{} ({dialect:?}): a return's steps not folded into it: {pair:?}",
                        app.name
                    );
                }
            }
        }
    }

    #[test]
    fn variables_keep_their_values_across_launches_and_cuda_malloc() {
        // The VM reads variables in place, so neither the launch geometry
        // conversion nor a `cudaMalloc` in the middle of an expression may
        // change what a variable read sees.
        let src = r#"
        __global__ void fill(int* out, int n) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) { out[i] = i * 2; }
        }
        int main() {
            int threads = 4;
            int blocks = 3;
            int n = blocks * threads;
            int* d_out;
            cudaMalloc(&d_out, n * sizeof(int));
            fill<<<blocks, threads>>>(d_out, n);
            int* first = d_out + cudaMalloc(&d_out, n * sizeof(int));
            fill<<<blocks, threads>>>(d_out, threads + blocks);
            int* h = (int*)malloc(n * sizeof(int));
            cudaMemcpy(h, first, n * sizeof(int), cudaMemcpyDeviceToHost);
            int* second = d_out + threads;
            int geometry = threads * 100 + blocks;
            printf("%d %d %d\n", geometry, h[n - 1], second - d_out);
            cudaMemcpy(h, d_out, n * sizeof(int), cudaMemcpyDeviceToHost);
            printf("%d %d\n", h[6], h[7]);
            return 0;
        }
        "#;
        let program = lassi_lang::parse(src, Dialect::CudaLite).unwrap();
        let a = run_reference(&program).unwrap();
        let b = run_program(&program).unwrap();
        assert_eq!(a.stdout, "403 22 4\n12 0\n");
        assert_eq!(a.stdout, b.stdout);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.lane_steps, b.lane_steps);
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.memory, b.memory);
        assert_eq!(a.simulated_seconds.to_bits(), b.simulated_seconds.to_bits());
    }

    #[test]
    fn run_source_reports_compile_errors() {
        let err = run_source(
            "int main() { undeclared = 1; return 0; }",
            Dialect::CudaLite,
        )
        .expect_err("should fail");
        assert!(err.to_string().contains("compile error"));
    }

    #[test]
    fn run_source_reports_runtime_errors() {
        let err = run_source(
            "int main() { int a[4]; a[9] = 1; return 0; }",
            Dialect::CudaLite,
        )
        .expect_err("should fail");
        assert!(err.to_string().contains("out of bounds"));
    }
}
