//! Cost model for the simulated OpenMP runtime.

use lassi_lang::{Expr, OmpClause, OmpDirective};
use lassi_runtime::{CostCounter, RegionPricing};

/// Static description of the OpenMP execution environment: a multi-core host
/// plus an offload target device reached through `#pragma omp target`.
#[derive(Debug, Clone, PartialEq)]
pub struct OmpSpec {
    /// Descriptive name used in reports.
    pub name: String,
    /// Host CPU cores available to `parallel for`.
    pub host_cores: u32,
    /// Per-core scalar throughput in OP/s.
    pub core_ops_per_sec: f64,
    /// Host memory bandwidth in bytes/s.
    pub host_mem_bandwidth: f64,
    /// Cost of opening a host parallel region, in seconds.
    pub parallel_region_overhead: f64,
    /// Extra cost per dynamically scheduled chunk, in seconds.
    pub dynamic_chunk_overhead: f64,

    /// Peak throughput of the offload device in OP/s. Lower than the raw GPU
    /// peak because `omp target` code generation is less efficient than
    /// hand-written CUDA (this matches the gap HeCBench reports).
    pub offload_peak_ops: f64,
    /// Offload device memory bandwidth in bytes/s.
    pub offload_mem_bandwidth: f64,
    /// Maximum concurrently resident device threads.
    pub offload_max_threads: u64,
    /// Fixed cost of launching one `target` region, in seconds.
    pub offload_region_overhead: f64,
    /// Host↔device transfer bandwidth in bytes/s.
    pub transfer_bandwidth: f64,
    /// Fixed latency per transfer, in seconds.
    pub transfer_latency: f64,
    /// Default threads per team when no `thread_limit`/`num_threads` clause
    /// is given.
    pub default_team_threads: u32,
    /// Serialized atomic throughput on the offload device, in OP/s.
    pub atomic_throughput: f64,
}

impl OmpSpec {
    /// A dual-socket host with an A100-class offload device, matching the
    /// paper's experimental platform.
    pub fn a100_offload() -> Self {
        OmpSpec {
            name: "2x EPYC host + A100 offload (simulated)".to_string(),
            host_cores: 64,
            core_ops_per_sec: 3.2e9,
            host_mem_bandwidth: 2.0e11,
            parallel_region_overhead: 6.0e-6,
            dynamic_chunk_overhead: 2.5e-7,
            offload_peak_ops: 11.0e12,
            offload_mem_bandwidth: 1.3e12,
            offload_max_threads: 108 * 2048,
            offload_region_overhead: 4.5e-5,
            transfer_bandwidth: 16.0e9,
            transfer_latency: 1.1e-5,
            default_team_threads: 128,
            atomic_throughput: 1.4e9,
        }
    }

    /// Seconds to move `bytes` across the host↔device link once.
    pub fn transfer_seconds(&self, bytes: u64) -> f64 {
        self.transfer_latency + bytes as f64 / self.transfer_bandwidth
    }
}

impl Default for OmpSpec {
    fn default() -> Self {
        OmpSpec::a100_offload()
    }
}

/// Parallelism resources granted to one work-sharing region, extracted from
/// the directive's clauses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionResources {
    /// Worker threads that execute loop iterations.
    pub threads: u64,
    /// True when the region uses dynamic scheduling.
    pub dynamic: bool,
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
    pub fn region_resources(
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
}

impl RegionPricing for OmpSpec {
    fn threads(&self, directive: &OmpDirective, offload: bool, iterations: u64) -> u64 {
        self.region_resources(directive, offload, iterations)
            .threads
    }

    fn seconds(
        &self,
        directive: &OmpDirective,
        offload: bool,
        iterations: u64,
        cost: &CostCounter,
    ) -> f64 {
        let resources = self.region_resources(directive, offload, iterations);
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

    fn directive(clauses: Vec<OmpClause>) -> OmpDirective {
        OmpDirective {
            kind: OmpDirectiveKind::TargetTeamsDistributeParallelFor,
            clauses,
        }
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
        assert_eq!(spec.threads(&wide, true, 100_000), 100_000);
        let wide = spec.seconds(&wide, true, 100_000, &cost);
        let narrow = spec.seconds(&narrow, true, 100_000, &cost);
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
        let ts = spec.seconds(&d_static, true, iterations, &cost);
        let td = spec.seconds(&d_dynamic, true, iterations, &cost);
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
        let host = spec.seconds(&d, false, 1_000, &cost);
        let off = spec.seconds(&d, true, 1_000, &cost);
        assert!(
            host < off,
            "tiny loops should not benefit from offload ({host} vs {off})"
        );
    }

    #[test]
    fn transfer_seconds_has_latency_floor() {
        let spec = OmpSpec::a100_offload();
        assert!(spec.transfer_seconds(0) >= spec.transfer_latency);
        assert!(spec.transfer_seconds(1 << 30) > spec.transfer_seconds(1 << 10));
    }
}
