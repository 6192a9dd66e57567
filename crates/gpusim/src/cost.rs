//! Analytic kernel cost model.
//!
//! The model is a classical roofline with an occupancy correction:
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
//! shows up, and small kernels are dominated by launch overhead.

use crate::device::DeviceSpec;
use lassi_runtime::{CostCounter, Dim3Val, KernelPricing};

/// Converts aggregate kernel operation counts into simulated seconds.
#[derive(Debug, Clone)]
pub struct KernelCostModel {
    spec: DeviceSpec,
}

impl KernelCostModel {
    /// Model for a device.
    pub fn new(spec: DeviceSpec) -> Self {
        KernelCostModel { spec }
    }

    /// The device description.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Fraction of the device actually occupied by this launch, in (0, 1].
    pub fn occupancy(&self, grid: Dim3Val, block: Dim3Val) -> f64 {
        let total_threads = grid.count().saturating_mul(block.count());
        let resident = self.spec.max_resident_threads();
        let occ = total_threads as f64 / resident as f64;
        occ.clamp(1.0 / resident as f64, 1.0)
    }

    /// Fraction of warp lanes doing useful work, in (0, 1].
    pub fn warp_efficiency(&self, block: Dim3Val) -> f64 {
        let t = block.count().min(32) as f64;
        (t / 32.0).clamp(1.0 / 32.0, 1.0)
    }

    /// Simulated duration of an explicit host↔device copy.
    pub fn memcpy_seconds(&self, bytes: u64) -> f64 {
        self.spec.memcpy_latency + bytes as f64 / self.spec.pcie_bandwidth
    }
}

impl KernelPricing for KernelCostModel {
    /// Simulated kernel duration in seconds.
    fn seconds(&self, grid: Dim3Val, block: Dim3Val, cost: &CostCounter) -> f64 {
        let parallel_fraction = self.occupancy(grid, block) * self.warp_efficiency(block);
        let eff_flops = self.spec.peak_flops * parallel_fraction;
        let eff_iops = self.spec.peak_iops * parallel_fraction;
        let eff_sfu = self.spec.peak_sfu_ops * parallel_fraction;
        // Memory bandwidth saturates with far fewer threads than the ALUs;
        // give it a gentler penalty.
        let mem_fraction = (parallel_fraction * 4.0).clamp(0.0, 1.0);
        let eff_bw = self.spec.mem_bandwidth * mem_fraction.max(1e-6);

        let compute_time = cost.flops as f64 / eff_flops
            + cost.int_ops as f64 / eff_iops
            + cost.special_ops as f64 / eff_sfu
            + cost.branches as f64 / eff_iops;
        let memory_time = cost.total_bytes() as f64 / eff_bw;
        let atomic_time = cost.atomics as f64 / self.spec.atomic_throughput;

        self.spec.kernel_launch_overhead + compute_time.max(memory_time) + atomic_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> KernelCostModel {
        KernelCostModel::new(DeviceSpec::a100())
    }

    fn cost(flops: u64, bytes: u64, atomics: u64) -> CostCounter {
        CostCounter {
            flops,
            bytes_read: bytes,
            atomics,
            ..Default::default()
        }
    }

    #[test]
    fn more_work_takes_longer() {
        let m = model();
        let g = Dim3Val::linear(1024);
        let b = Dim3Val::linear(256);
        let t1 = m.seconds(g, b, &cost(1_000_000, 8_000_000, 0));
        let t2 = m.seconds(g, b, &cost(10_000_000, 80_000_000, 0));
        assert!(t2 > t1);
    }

    #[test]
    fn serialized_launch_is_much_slower() {
        let m = model();
        let work = cost(50_000_000, 400_000_000, 0);
        let wide = m.seconds(Dim3Val::linear(4096), Dim3Val::linear(256), &work);
        let narrow = m.seconds(Dim3Val::linear(1), Dim3Val::linear(1), &work);
        assert!(
            narrow > wide * 100.0,
            "single-thread launch should be orders of magnitude slower ({narrow} vs {wide})"
        );
    }

    #[test]
    fn tiny_kernels_are_launch_bound() {
        let m = model();
        let t = m.seconds(Dim3Val::linear(1), Dim3Val::linear(32), &cost(10, 80, 0));
        assert!(t >= m.spec().kernel_launch_overhead);
        assert!(t < m.spec().kernel_launch_overhead * 2.0);
    }

    #[test]
    fn atomics_serialize() {
        let m = model();
        let g = Dim3Val::linear(1024);
        let b = Dim3Val::linear(256);
        let without = m.seconds(g, b, &cost(1_000_000, 8_000_000, 0));
        let with = m.seconds(g, b, &cost(1_000_000, 8_000_000, 1_000_000));
        assert!(with > without);
    }

    #[test]
    fn occupancy_clamps() {
        let m = model();
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
        let m = model();
        assert!(m.memcpy_seconds(0) >= m.spec().memcpy_latency);
        assert!(m.memcpy_seconds(1 << 30) > m.memcpy_seconds(1 << 20));
    }
}
