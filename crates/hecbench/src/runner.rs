//! Reference runner: a combined machine backend (GPU simulator + OpenMP
//! runtime simulator) and helpers for compiling and executing benchmark
//! programs the way the LASSI pipeline's "source code preparation" step does.

use lassi_gpusim::GpuSimulator;
use lassi_lang::{Dialect, Program};
use lassi_ompsim::OmpSimulator;
use lassi_runtime::{
    CompiledKernelLaunch, CompiledParallelFor, ExecError, ExecutionReport, HostInterpreter,
    KernelLaunchRequest, LaunchStats, Memory, ParallelBackend, ParallelForRequest, RunConfig,
};

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

/// The simulated experimental platform from the paper: a multi-core host with
/// an NVIDIA A100, reachable both through CUDA and through OpenMP offload.
pub struct Machine {
    gpu: GpuSimulator,
    omp: OmpSimulator,
}

impl Machine {
    /// The default A100-class machine.
    pub fn a100() -> Self {
        Machine {
            gpu: GpuSimulator::a100(),
            omp: OmpSimulator::a100_offload(),
        }
    }

    /// Content fingerprint of every simulation parameter: FNV-1a over the
    /// `Debug` form of the GPU cost model and the OpenMP spec. Keys of
    /// persisted results fold it in, so editing any device or cost-model
    /// parameter misses instead of replaying stale runtimes. Should the
    /// `Debug` format ever change, the only cost is a cache miss.
    pub fn fingerprint(&self) -> u64 {
        fnv1a64(format!("{:?};{:?}", self.gpu.cost_model(), self.omp.spec()).as_bytes())
    }

    /// Run configuration used for every benchmark execution (a small fixed
    /// start-up cost plus deterministic per-operation costs).
    pub fn run_config() -> RunConfig {
        RunConfig {
            step_limit: 200_000_000,
            host_op_seconds: 1.2e-9,
            startup_seconds: 5.0e-5,
        }
    }
}

impl Default for Machine {
    fn default() -> Self {
        Machine::a100()
    }
}

impl ParallelBackend for Machine {
    fn launch_kernel(
        &self,
        req: &KernelLaunchRequest<'_>,
        mem: &Memory,
    ) -> Result<LaunchStats, ExecError> {
        self.gpu.launch_kernel(req, mem)
    }

    fn parallel_for(
        &self,
        req: &ParallelForRequest<'_>,
        mem: &Memory,
    ) -> Result<LaunchStats, ExecError> {
        self.omp.parallel_for(req, mem)
    }

    fn launch_compiled_kernel(
        &self,
        req: &CompiledKernelLaunch<'_>,
        mem: &Memory,
    ) -> Result<LaunchStats, ExecError> {
        self.gpu.launch_compiled_kernel(req, mem)
    }

    fn compiled_parallel_for(
        &self,
        req: &CompiledParallelFor<'_>,
        mem: &Memory,
    ) -> Result<LaunchStats, ExecError> {
        self.omp.compiled_parallel_for(req, mem)
    }

    fn memcpy_seconds(&self, bytes: u64) -> f64 {
        self.gpu.memcpy_seconds(bytes)
    }
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

/// Compile (semantic-check) and execute an already-parsed program on the
/// default machine.
pub fn run_program(program: &Program) -> Result<ExecutionReport, RunError> {
    lassi_sema::compile(program).map_err(RunError::Compile)?;
    let machine = Machine::a100();
    let mut interp = HostInterpreter::new(program, Machine::run_config());
    interp.run(&machine, &[]).map_err(RunError::Execute)
}

/// Like [`run_program`], but through the bytecode engine: semantic-check,
/// lower to register bytecode and execute on the default machine. Reports are
/// bit-identical to [`run_program`]'s.
pub fn run_program_compiled(program: &Program) -> Result<ExecutionReport, RunError> {
    lassi_sema::compile(program).map_err(RunError::Compile)?;
    let machine = Machine::a100();
    let compiled = lassi_runtime::compile(program, 0);
    lassi_runtime::run_compiled(&compiled, &Machine::run_config(), &machine, &[])
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
    fn bytecode_engine_matches_interpreter_on_every_app() {
        // The two engines must agree bit-for-bit on every reference
        // benchmark in both dialects: stdout, steps, cost counters, memory
        // stats and the simulated clock.
        for app in crate::apps::applications() {
            for dialect in [Dialect::CudaLite, Dialect::OmpLite] {
                let program = lassi_lang::parse(app.source(dialect), dialect).unwrap();
                let reference = run_program(&program);
                let compiled = run_program_compiled(&program);
                match (reference, compiled) {
                    (Ok(a), Ok(b)) => {
                        let tag = format!("{} ({dialect:?})", app.name);
                        assert_eq!(a.stdout, b.stdout, "stdout: {tag}");
                        assert_eq!(a.exit_code, b.exit_code, "exit_code: {tag}");
                        assert_eq!(a.steps, b.steps, "steps: {tag}");
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
    fn fingerprint_tracks_every_simulation_parameter() {
        use lassi_gpusim::DeviceSpec;
        use lassi_ompsim::OmpSpec;
        let machine = |device: DeviceSpec, omp: OmpSpec| Machine {
            gpu: GpuSimulator::new(device),
            omp: OmpSimulator::new(omp),
        };
        let base = machine(DeviceSpec::a100(), OmpSpec::a100_offload()).fingerprint();
        assert_eq!(base, Machine::a100().fingerprint(), "stable");
        let device = DeviceSpec {
            mem_bandwidth: DeviceSpec::a100().mem_bandwidth * 1.01,
            ..DeviceSpec::a100()
        };
        assert_ne!(
            base,
            machine(device, OmpSpec::a100_offload()).fingerprint(),
            "device spec"
        );
        let omp = OmpSpec {
            host_cores: 32,
            ..OmpSpec::a100_offload()
        };
        assert_ne!(
            base,
            machine(DeviceSpec::a100(), omp).fingerprint(),
            "OpenMP spec"
        );
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
