//! What the runtime asks of an execution platform: prices.
//!
//! The runtime runs every kernel launch and OpenMP work-sharing loop itself,
//! on either engine, through the one schedule in its `schedule` module. A
//! [`ParallelBackend`] only turns what ran into simulated seconds:
//! `lassi-gpusim` prices kernels ([`KernelPricing`]), `lassi-ompsim` prices
//! regions ([`RegionPricing`]), and the paper's machine, which offers both,
//! hands out both. A backend without a construct's cost model rejects the
//! construct before any of it runs.

use lassi_lang::OmpDirective;

use crate::cost::CostCounter;
use crate::value::Dim3Val;

/// Prices CUDA kernel launches.
pub trait KernelPricing {
    /// Simulated seconds of one launch of `grid` x `block` threads that
    /// executed `cost` in total.
    fn seconds(&self, grid: Dim3Val, block: Dim3Val, cost: &CostCounter) -> f64;
}

/// Prices OpenMP work-sharing regions.
pub trait RegionPricing {
    /// Worker threads granted to a region of `iterations` iterations under
    /// `directive` (`omp_get_num_threads()` inside it).
    fn threads(&self, directive: &OmpDirective, offload: bool, iterations: u64) -> u64;

    /// Simulated seconds of such a region that executed `cost` in total,
    /// excluding `map` transfers, which the host charges as copies.
    fn seconds(
        &self,
        directive: &OmpDirective,
        offload: bool,
        iterations: u64,
        cost: &CostCounter,
    ) -> f64;
}

/// Prices parallel constructs on behalf of the runtime.
///
/// Every method has a default, so single-purpose backends only provide
/// their half and host-only tests can use a unit struct.
pub trait ParallelBackend: Sync {
    /// The kernel cost model, or `None` when this backend runs no kernels.
    fn kernels(&self) -> Option<&dyn KernelPricing> {
        None
    }

    /// The OpenMP cost model, or `None` when this backend runs no regions.
    fn regions(&self) -> Option<&dyn RegionPricing> {
        None
    }

    /// Simulated duration of an explicit host↔device copy of `bytes` bytes.
    fn memcpy_seconds(&self, bytes: u64) -> f64 {
        // Default: 16 GB/s effective PCIe gen4 bandwidth + 8 µs latency.
        8.0e-6 + bytes as f64 / 16.0e9
    }

    /// Simulated duration of one host scalar operation.
    fn host_op_seconds(&self) -> f64 {
        1.0e-9
    }

    /// Short backend name used in diagnostics.
    fn name(&self) -> &'static str {
        "generic"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{compile, run_compiled};
    use crate::interp::{HostInterpreter, RunConfig};
    use lassi_lang::{parse, Dialect};

    struct Nothing;
    impl ParallelBackend for Nothing {}

    #[test]
    fn default_backend_rejects_parallel_constructs_before_they_run() {
        let cases = [
            (
                "__global__ void k(int* a) { a[0] = 1; } \
                 int main() { int* a; cudaMalloc(&a, 4); k<<<1, 32>>>(a); return 0; }",
                Dialect::CudaLite,
                "kernel launch of 'k' is not supported by backend 'generic'",
            ),
            (
                "int main() { int n = 4; long s = 0; \
                 #pragma omp parallel for reduction(+:s)\n\
                 for (int i = 0; i < n; i++) { s += i; } return 0; }",
                Dialect::OmpLite,
                "OpenMP 'parallel for' regions are not supported by backend 'generic'",
            ),
        ];
        for (src, dialect, message) in cases {
            let program = parse(src, dialect).unwrap();
            let config = RunConfig::default();
            let reference = HostInterpreter::new(&program, config.clone())
                .run(&Nothing, &[])
                .unwrap_err();
            let vm = run_compiled(&compile(&program, 0), &config, &Nothing, &[]).unwrap_err();
            assert_eq!(reference, crate::ExecError::other(message));
            assert_eq!(vm, reference);
        }
    }

    #[test]
    fn default_cost_helpers() {
        let b = Nothing;
        assert!(b.memcpy_seconds(1 << 20) > b.memcpy_seconds(0));
        assert!(b.host_op_seconds() > 0.0);
        assert_eq!(b.name(), "generic");
        assert!(b.kernels().is_none() && b.regions().is_none());
    }
}
