//! The simulated experimental platform from the paper: a multi-core host
//! with an NVIDIA A100, reached both through CUDA and through OpenMP
//! offload.
//!
//! The runtime runs every kernel launch and work-sharing loop itself, on
//! either engine, so generated code produces real stdout and real runtime
//! failures (out-of-bounds, illegal host-pointer dereference, barrier
//! divergence) for the execution self-correction loop. What ran comes here
//! as operation counts and memory traffic, and the [`Machine`] turns them
//! into simulated seconds: kernels price on its GPU (`DeviceSpec`),
//! work-sharing regions on its OpenMP runtime (`OmpSpec`), and copies,
//! OpenMP `map`s included, over the GPU's host link.
//!
//! ## Kernels: a roofline with an occupancy correction
//!
//! ```text
//! t_kernel = launch_overhead
//!          + max(compute_time, memory_time)
//!          + atomic_serialization_time
//! ```
//!
//! where compute and memory rates are scaled by the achieved occupancy
//! (resident threads / device capacity) and by warp efficiency (blocks
//! smaller than a warp waste lanes). This is deliberately simple — the goal
//! is that *relative* behaviour is right: serializing a kernel to one thread
//! per block slows it by orders of magnitude, adding redundant transfers
//! shows up, and small kernels are dominated by launch overhead, so
//! translated programs show the same qualitative slowdowns the paper
//! reports (e.g. the 20× `bsearch` regression).
//!
//! ## Work-sharing regions: host threads and `target` offload
//!
//! `OmpSpec` decides how many worker threads a region gets
//! (`omp_get_num_threads()` inside it) and converts the region's compute and
//! memory-traffic counts to simulated seconds, using either the host-CPU
//! model (plain `parallel for`) or the offload model (`target teams
//! distribute parallel for`). The offload model charges the characteristic
//! per-region launch overhead, and the host charges every `map` as a copy,
//! which together make naive OpenMP offload codes slow (the `jacobi` /
//! `dense-embedding` pattern from the paper's Table IV).

use lassi_lang::{Expr, OmpClause, OmpDirective};

use crate::cost::CostCounter;
use crate::interp::RunConfig;
use crate::value::Dim3Val;

/// The paper's machine: the GPU that runs kernels and the OpenMP runtime
/// that runs work-sharing regions.
pub struct Machine {
    /// The CUDA device.
    pub(crate) gpu: DeviceSpec,
    /// The OpenMP host and offload runtime.
    pub(crate) omp: OmpSpec,
}

impl Machine {
    /// The default A100-class machine.
    pub fn a100() -> Self {
        Machine {
            gpu: DeviceSpec::a100(),
            omp: OmpSpec::a100_offload(),
        }
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

    /// Simulated duration of an explicit host↔device copy of `bytes`
    /// bytes, or of one OpenMP `map` of them.
    pub(crate) fn memcpy_seconds(&self, bytes: u64) -> f64 {
        self.gpu.memcpy_seconds(bytes)
    }
}

impl Default for Machine {
    fn default() -> Self {
        Machine::a100()
    }
}

/// Static description of a simulated GPU.
///
/// The default values approximate an NVIDIA A100-SXM4-40GB, the device used
/// for every measurement in the LASSI paper. The absolute numbers only have
/// to be plausible — the reproduction compares *relative* runtimes — but
/// keeping them close to the data sheet makes the simulated times land in a
/// familiar range.
pub(crate) struct DeviceSpec {
    /// Number of streaming multiprocessors.
    sm_count: u32,
    /// Maximum resident threads per SM.
    max_threads_per_sm: u32,
    /// Peak single-precision throughput in FLOP/s.
    peak_flops: f64,
    /// Peak integer throughput in OP/s.
    peak_iops: f64,
    /// Special-function (sqrt, exp, ...) throughput in OP/s.
    peak_sfu_ops: f64,
    /// Global-memory bandwidth in bytes/s.
    mem_bandwidth: f64,
    /// Serialized atomic throughput in OP/s.
    atomic_throughput: f64,
    /// Host↔device transfer bandwidth in bytes/s (PCIe gen4 x16 effective).
    pcie_bandwidth: f64,
    /// Fixed cost of one kernel launch, in seconds.
    kernel_launch_overhead: f64,
    /// Fixed cost of one host↔device transfer call, in seconds.
    memcpy_latency: f64,
}

impl DeviceSpec {
    /// An NVIDIA A100-40GB-like device.
    fn a100() -> Self {
        DeviceSpec {
            sm_count: 108,
            max_threads_per_sm: 2048,
            peak_flops: 19.5e12,
            peak_iops: 19.5e12,
            peak_sfu_ops: 4.9e12,
            mem_bandwidth: 1.555e12,
            atomic_throughput: 2.0e9,
            pcie_bandwidth: 20.0e9,
            kernel_launch_overhead: 6.0e-6,
            memcpy_latency: 9.0e-6,
        }
    }

    /// Maximum number of concurrently resident threads on the whole device.
    fn max_resident_threads(&self) -> u64 {
        self.sm_count as u64 * self.max_threads_per_sm as u64
    }

    /// Fraction of the device actually occupied by this launch, in (0, 1].
    fn occupancy(&self, grid: Dim3Val, block: Dim3Val) -> f64 {
        let total_threads = grid.count().saturating_mul(block.count());
        let resident = self.max_resident_threads();
        let occ = total_threads as f64 / resident as f64;
        occ.clamp(1.0 / resident as f64, 1.0)
    }

    /// Fraction of warp lanes doing useful work, in (0, 1].
    fn warp_efficiency(&self, block: Dim3Val) -> f64 {
        let t = block.count().min(32) as f64;
        (t / 32.0).clamp(1.0 / 32.0, 1.0)
    }

    /// Simulated duration of an explicit host↔device copy.
    fn memcpy_seconds(&self, bytes: u64) -> f64 {
        self.memcpy_latency + bytes as f64 / self.pcie_bandwidth
    }

    /// Simulated seconds of one launch of `grid` x `block` threads that
    /// executed `cost` in total.
    pub(crate) fn kernel_seconds(&self, grid: Dim3Val, block: Dim3Val, cost: &CostCounter) -> f64 {
        let parallel_fraction = self.occupancy(grid, block) * self.warp_efficiency(block);
        let eff_flops = self.peak_flops * parallel_fraction;
        let eff_iops = self.peak_iops * parallel_fraction;
        let eff_sfu = self.peak_sfu_ops * parallel_fraction;
        // Memory bandwidth saturates with far fewer threads than the ALUs;
        // give it a gentler penalty.
        let mem_fraction = (parallel_fraction * 4.0).clamp(0.0, 1.0);
        let eff_bw = self.mem_bandwidth * mem_fraction.max(1e-6);

        let compute_time = cost.flops as f64 / eff_flops
            + cost.int_ops as f64 / eff_iops
            + cost.special_ops as f64 / eff_sfu
            + cost.branches as f64 / eff_iops;
        let memory_time = cost.total_bytes() as f64 / eff_bw;
        let atomic_time = cost.atomics as f64 / self.atomic_throughput;

        self.kernel_launch_overhead + compute_time.max(memory_time) + atomic_time
    }
}

/// Static description of the OpenMP execution environment: a multi-core host
/// plus an offload target device reached through `#pragma omp target`.
pub(crate) struct OmpSpec {
    /// Host CPU cores available to `parallel for`.
    host_cores: u32,
    /// Per-core scalar throughput in OP/s.
    core_ops_per_sec: f64,
    /// Host memory bandwidth in bytes/s.
    host_mem_bandwidth: f64,
    /// Cost of opening a host parallel region, in seconds.
    parallel_region_overhead: f64,
    /// Extra cost per dynamically scheduled chunk, in seconds.
    dynamic_chunk_overhead: f64,

    /// Peak throughput of the offload device in OP/s. Lower than the raw GPU
    /// peak because `omp target` code generation is less efficient than
    /// hand-written CUDA (this matches the gap HeCBench reports).
    offload_peak_ops: f64,
    /// Offload device memory bandwidth in bytes/s.
    offload_mem_bandwidth: f64,
    /// Maximum concurrently resident device threads.
    offload_max_threads: u64,
    /// Fixed cost of launching one `target` region, in seconds.
    offload_region_overhead: f64,
    /// Default threads per team when no `thread_limit`/`num_threads` clause
    /// is given.
    default_team_threads: u32,
    /// Serialized atomic throughput on the offload device, in OP/s.
    atomic_throughput: f64,
}

impl OmpSpec {
    /// A dual-socket host with an A100-class offload device, matching the
    /// paper's experimental platform.
    fn a100_offload() -> Self {
        OmpSpec {
            host_cores: 64,
            core_ops_per_sec: 3.2e9,
            host_mem_bandwidth: 2.0e11,
            parallel_region_overhead: 6.0e-6,
            dynamic_chunk_overhead: 2.5e-7,
            offload_peak_ops: 11.0e12,
            offload_mem_bandwidth: 1.3e12,
            offload_max_threads: 108 * 2048,
            offload_region_overhead: 4.5e-5,
            default_team_threads: 128,
            atomic_throughput: 1.4e9,
        }
    }
}

/// Parallelism resources granted to one work-sharing region, extracted from
/// the directive's clauses.
pub(crate) struct RegionResources {
    /// Worker threads that execute loop iterations.
    pub(crate) threads: u64,
    /// True when the region uses dynamic scheduling.
    dynamic: bool,
}

/// Extract a literal integer from a clause expression when possible. Clause
/// expressions in the benchmark programs are always literals or simple
/// constants; anything else falls back to `None` (use the default).
fn clause_int(e: &Expr) -> Option<u64> {
    match e {
        Expr::IntLit(v) if *v > 0 => Some(*v as u64),
        _ => None,
    }
}

impl OmpSpec {
    /// Determine how many workers a directive gets and how it is scheduled.
    pub(crate) fn region_resources(
        &self,
        directive: &OmpDirective,
        offload: bool,
        iterations: u64,
    ) -> RegionResources {
        let mut num_threads: Option<u64> = None;
        let mut num_teams: Option<u64> = None;
        let mut thread_limit: Option<u64> = None;
        let mut dynamic = false;
        for clause in &directive.clauses {
            match clause {
                OmpClause::NumThreads(e) => num_threads = clause_int(e),
                OmpClause::NumTeams(e) => num_teams = clause_int(e),
                OmpClause::ThreadLimit(e) => thread_limit = clause_int(e),
                OmpClause::Schedule { kind, .. } => {
                    dynamic = matches!(kind, lassi_lang::ScheduleKind::Dynamic);
                }
                _ => {}
            }
        }
        let threads = if offload {
            let per_team = thread_limit
                .or(num_threads)
                .unwrap_or(self.default_team_threads as u64)
                .max(1);
            let teams = num_teams
                .unwrap_or_else(|| iterations.div_ceil(per_team).max(1))
                .max(1);
            (per_team * teams).min(self.offload_max_threads).max(1)
        } else {
            num_threads.unwrap_or(self.host_cores as u64).clamp(1, 4096)
        };
        RegionResources { threads, dynamic }
    }

    /// Simulated seconds of a region of `iterations` iterations, granted
    /// `resources` by [`OmpSpec::region_resources`], that executed `cost` in
    /// total, excluding `map` transfers, which the host charges as copies.
    pub(crate) fn region_seconds(
        &self,
        resources: &RegionResources,
        offload: bool,
        iterations: u64,
        cost: &CostCounter,
    ) -> f64 {
        let ops = cost.total_ops() as f64;
        let bytes = cost.total_bytes() as f64;
        let (overhead, peak_ops, bandwidth, capacity) = if offload {
            (
                self.offload_region_overhead,
                self.offload_peak_ops,
                self.offload_mem_bandwidth,
                self.offload_max_threads as f64,
            )
        } else {
            (
                self.parallel_region_overhead,
                self.core_ops_per_sec * self.host_cores as f64,
                self.host_mem_bandwidth,
                self.host_cores as f64,
            )
        };
        let utilization = (resources.threads as f64 / capacity).clamp(1.0 / capacity, 1.0);
        let mem_utilization = (utilization * 4.0).clamp(1.0 / capacity, 1.0);
        let compute = ops / (peak_ops * utilization);
        let memory = bytes / (bandwidth * mem_utilization);
        let atomics = cost.atomics as f64 / self.atomic_throughput;
        let schedule = if resources.dynamic {
            iterations as f64 * self.dynamic_chunk_overhead / resources.threads as f64
                + iterations as f64 * 2.0e-9
        } else {
            0.0
        };
        overhead + compute.max(memory) + atomics + schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lassi_lang::{OmpDirectiveKind, ScheduleKind};

    fn cost(flops: u64, bytes: u64, atomics: u64) -> CostCounter {
        CostCounter {
            flops,
            bytes_read: bytes,
            atomics,
            ..Default::default()
        }
    }

    /// `region_seconds` of `directive`, with the resources it grants.
    fn seconds(
        spec: &OmpSpec,
        directive: &OmpDirective,
        offload: bool,
        iterations: u64,
        cost: &CostCounter,
    ) -> f64 {
        let resources = spec.region_resources(directive, offload, iterations);
        spec.region_seconds(&resources, offload, iterations, cost)
    }

    fn directive(clauses: Vec<OmpClause>) -> OmpDirective {
        OmpDirective {
            kind: OmpDirectiveKind::TargetTeamsDistributeParallelFor,
            clauses,
        }
    }

    #[test]
    fn a100_resident_threads() {
        let d = DeviceSpec::a100();
        assert_eq!(d.max_resident_threads(), 108 * 2048);
    }

    #[test]
    fn more_work_takes_longer() {
        let m = DeviceSpec::a100();
        let g = Dim3Val::linear(1024);
        let b = Dim3Val::linear(256);
        let t1 = m.kernel_seconds(g, b, &cost(1_000_000, 8_000_000, 0));
        let t2 = m.kernel_seconds(g, b, &cost(10_000_000, 80_000_000, 0));
        assert!(t2 > t1);
    }

    #[test]
    fn serialized_launch_is_much_slower() {
        let m = DeviceSpec::a100();
        let work = cost(50_000_000, 400_000_000, 0);
        let wide = m.kernel_seconds(Dim3Val::linear(4096), Dim3Val::linear(256), &work);
        let narrow = m.kernel_seconds(Dim3Val::linear(1), Dim3Val::linear(1), &work);
        assert!(
            narrow > wide * 100.0,
            "single-thread launch should be orders of magnitude slower ({narrow} vs {wide})"
        );
    }

    #[test]
    fn tiny_kernels_are_launch_bound() {
        let m = DeviceSpec::a100();
        let t = m.kernel_seconds(Dim3Val::linear(1), Dim3Val::linear(32), &cost(10, 80, 0));
        assert!(t >= m.kernel_launch_overhead);
        assert!(t < m.kernel_launch_overhead * 2.0);
    }

    #[test]
    fn atomics_serialize() {
        let m = DeviceSpec::a100();
        let g = Dim3Val::linear(1024);
        let b = Dim3Val::linear(256);
        let without = m.kernel_seconds(g, b, &cost(1_000_000, 8_000_000, 0));
        let with = m.kernel_seconds(g, b, &cost(1_000_000, 8_000_000, 1_000_000));
        assert!(with > without);
    }

    #[test]
    fn occupancy_clamps() {
        let m = DeviceSpec::a100();
        assert_eq!(
            m.occupancy(Dim3Val::linear(1_000_000), Dim3Val::linear(1024)),
            1.0
        );
        assert!(m.occupancy(Dim3Val::linear(1), Dim3Val::linear(1)) > 0.0);
        assert_eq!(m.warp_efficiency(Dim3Val::linear(256)), 1.0);
        assert!((m.warp_efficiency(Dim3Val::linear(8)) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn memcpy_has_latency_floor() {
        let m = Machine::a100();
        assert!(m.memcpy_seconds(0) >= m.gpu.memcpy_latency);
        assert!(m.memcpy_seconds(1 << 30) > m.memcpy_seconds(1 << 20));
    }

    #[test]
    fn default_offload_resources_scale_with_iterations() {
        let spec = OmpSpec::a100_offload();
        let d = directive(vec![]);
        let small = spec.region_resources(&d, true, 256);
        let large = spec.region_resources(&d, true, 1_000_000);
        assert!(large.threads > small.threads);
        assert!(large.threads <= spec.offload_max_threads);
    }

    #[test]
    fn num_threads_clause_limits_parallelism() {
        let spec = OmpSpec::a100_offload();
        let d = directive(vec![
            OmpClause::NumTeams(Expr::IntLit(1)),
            OmpClause::NumThreads(Expr::IntLit(1)),
        ]);
        let r = spec.region_resources(&d, true, 100_000);
        assert_eq!(r.threads, 1);
    }

    #[test]
    fn serialized_region_much_slower() {
        let spec = OmpSpec::a100_offload();
        let cost = CostCounter {
            flops: 10_000_000,
            bytes_read: 80_000_000,
            ..Default::default()
        };
        // 1000 teams of 100 threads against one team of one thread.
        let wide = directive(vec![
            OmpClause::NumTeams(Expr::IntLit(1000)),
            OmpClause::NumThreads(Expr::IntLit(100)),
        ]);
        let narrow = directive(vec![
            OmpClause::NumTeams(Expr::IntLit(1)),
            OmpClause::NumThreads(Expr::IntLit(1)),
        ]);
        assert_eq!(spec.region_resources(&wide, true, 100_000).threads, 100_000);
        let wide = seconds(&spec, &wide, true, 100_000, &cost);
        let narrow = seconds(&spec, &narrow, true, 100_000, &cost);
        assert!(narrow > wide * 50.0);
    }

    #[test]
    fn dynamic_schedule_costs_more() {
        let spec = OmpSpec::a100_offload();
        let d_static = directive(vec![OmpClause::Schedule {
            kind: ScheduleKind::Static,
            chunk: None,
        }]);
        let d_dynamic = directive(vec![OmpClause::Schedule {
            kind: ScheduleKind::Dynamic,
            chunk: None,
        }]);
        let cost = CostCounter {
            flops: 1_000_000,
            ..Default::default()
        };
        let iterations = 100_000;
        let ts = seconds(&spec, &d_static, true, iterations, &cost);
        let td = seconds(&spec, &d_dynamic, true, iterations, &cost);
        assert!(td > ts);
    }

    #[test]
    fn host_region_cheaper_than_offload_for_tiny_work() {
        let spec = OmpSpec::a100_offload();
        let d = OmpDirective {
            kind: OmpDirectiveKind::ParallelFor,
            clauses: vec![],
        };
        let cost = CostCounter {
            flops: 10_000,
            bytes_read: 1_000,
            ..Default::default()
        };
        let host = seconds(&spec, &d, false, 1_000, &cost);
        let off = seconds(&spec, &d, true, 1_000, &cost);
        assert!(
            host < off,
            "tiny loops should not benefit from offload ({host} vs {off})"
        );
    }
}
