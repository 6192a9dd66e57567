//! The host interpreter: runs a ParC program's `main` end to end and
//! produces an [`ExecutionReport`] — the stand-in for "compile the benchmark,
//! run it, capture stdout and measure the runtime" in the LASSI paper.

use lassi_lang::{Program, Type};

use crate::backend::ParallelBackend;
use crate::cost::CostCounter;
use crate::env::Env;
use crate::error::ExecError;
use crate::eval::{ControlFlow, Evaluator};
use crate::memory::{Memory, MemoryStats};
use crate::value::Value;

/// Knobs for a single program execution.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Maximum number of interpreter steps before the run is killed.
    pub step_limit: u64,
    /// Seconds charged per host scalar operation by the simulated-time model.
    pub host_op_seconds: f64,
    /// Fixed process start-up time (loader, CUDA context creation, ...).
    pub startup_seconds: f64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            step_limit: 200_000_000,
            host_op_seconds: 1.2e-9,
            startup_seconds: 2.0e-3,
        }
    }
}

/// Everything observed from one program execution.
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    /// Captured standard output.
    pub stdout: String,
    /// `main`'s return value.
    pub exit_code: i64,
    /// Deterministic simulated runtime in seconds (host + device + transfers).
    pub simulated_seconds: f64,
    /// Seconds attributed to parallel constructs and transfers only.
    pub parallel_seconds: f64,
    /// Dynamic operation counts over the whole run.
    pub cost: CostCounter,
    /// Memory usage statistics.
    pub memory: MemoryStats,
    /// Number of interpreter steps executed.
    pub steps: u64,
}

/// Runs `main` for one program against a parallel backend.
pub struct HostInterpreter<'p> {
    program: &'p Program,
    config: RunConfig,
    /// The memory of the run (exposed so callers can inspect buffers afterwards).
    pub memory: Memory,
}

impl<'p> HostInterpreter<'p> {
    /// Create an interpreter for `program`.
    pub fn new(program: &'p Program, config: RunConfig) -> Self {
        HostInterpreter {
            program,
            config,
            memory: Memory::new(),
        }
    }

    /// Execute `main(argv...)`. `args` are the benchmark's runtime arguments;
    /// they are exposed to the program through `argc`/`argv`-free convention:
    /// ParC benchmark programs read their parameters from plain `int`
    /// variables, so runtime arguments are bound as `arg0`, `arg1`, ... when a
    /// program declares them as globals-by-convention (see `lassi-hecbench`).
    pub fn run(
        &mut self,
        backend: &dyn ParallelBackend,
        args: &[i64],
    ) -> Result<ExecutionReport, ExecError> {
        let main = self
            .program
            .main()
            .ok_or_else(|| ExecError::other("program has no 'main' function"))?;

        let mut eval = Evaluator::for_host(self.program, backend, self.config.step_limit);
        let mut env = Env::new();
        for (i, v) in args.iter().enumerate() {
            env.declare(&format!("arg{i}"), Type::Long, Value::Int(*v));
        }

        let flow = eval.exec_block(&main.body, &mut env, &self.memory)?;
        let exit_code = match flow {
            ControlFlow::Return(v) => v.as_int(),
            _ => 0,
        };
        if exit_code != 0 {
            return Err(ExecError::NonZeroExit { code: exit_code });
        }

        let host_ops = eval.cost.total_ops();
        let host_seconds = host_ops as f64 * self.config.host_op_seconds;
        let simulated_seconds = self.config.startup_seconds + host_seconds + eval.extra_seconds;
        let total_cost = eval.cost + eval.parallel_cost;

        Ok(ExecutionReport {
            stdout: eval.stdout.clone(),
            exit_code,
            simulated_seconds,
            parallel_seconds: eval.extra_seconds,
            cost: total_cost,
            memory: self.memory.stats(),
            steps: eval.steps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lassi_lang::{parse, Dialect};

    struct HostOnly;
    impl ParallelBackend for HostOnly {}

    fn run_src(src: &str) -> Result<ExecutionReport, ExecError> {
        let program = parse(src, Dialect::CudaLite).unwrap();
        let mut interp = HostInterpreter::new(&program, RunConfig::default());
        interp.run(&HostOnly, &[])
    }

    #[test]
    fn captures_stdout_and_exit_code() {
        let report = run_src(
            r#"int main() { int n = 3; printf("n=%d\n", n); printf("n2=%d\n", n * n); return 0; }"#,
        )
        .unwrap();
        assert_eq!(report.stdout, "n=3\nn2=9\n");
        assert_eq!(report.exit_code, 0);
    }

    #[test]
    fn nonzero_exit_is_an_error() {
        let err = run_src("int main() { return 2; }").unwrap_err();
        assert_eq!(err.category(), "non_zero_exit");
    }

    #[test]
    fn simulated_time_scales_with_work() {
        let small = run_src(
            "int main() { double s = 0.0; for (int i = 0; i < 100; i++) { s += i; } printf(\"%f\\n\", s); return 0; }",
        )
        .unwrap();
        let large = run_src(
            "int main() { double s = 0.0; for (int i = 0; i < 100000; i++) { s += i; } printf(\"%f\\n\", s); return 0; }",
        )
        .unwrap();
        assert!(large.simulated_seconds > small.simulated_seconds);
        assert!(large.steps > small.steps);
    }

    #[test]
    fn runtime_args_are_bound() {
        let program = parse(
            "int main() { long n = arg0; printf(\"%ld\\n\", n * 2); return 0; }",
            Dialect::CudaLite,
        )
        .unwrap();
        let mut interp = HostInterpreter::new(&program, RunConfig::default());
        let report = interp.run(&HostOnly, &[21]).unwrap();
        assert_eq!(report.stdout, "42\n");
    }

    #[test]
    fn runtime_error_propagates() {
        let err = run_src("int main() { int a[2]; a[5] = 1; return 0; }").unwrap_err();
        assert_eq!(err.category(), "out_of_bounds");
    }

    #[test]
    fn memory_stats_reported() {
        let report =
            run_src("int main() { double* a = (double*)malloc(80); free(a); return 0; }").unwrap();
        assert_eq!(report.memory.allocations, 1);
        assert!(report.memory.allocated_bytes >= 80);
    }
}
