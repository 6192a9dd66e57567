//! Operation and memory-traffic accounting.
//!
//! The evaluator increments a [`CostCounter`] as it executes; the device and
//! OpenMP cost models turn those counters into simulated seconds. Keeping the counters separate from wall-clock time
//! is what makes the reproduced runtimes deterministic.

/// Counts of dynamic operations executed by a region of code.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostCounter {
    /// Integer ALU operations.
    pub int_ops: u64,
    /// Floating-point operations.
    pub flops: u64,
    /// Bytes read from buffers.
    pub bytes_read: u64,
    /// Bytes written to buffers.
    pub bytes_written: u64,
    /// Atomic read-modify-write operations.
    pub atomics: u64,
    /// Taken branches / loop iterations.
    pub branches: u64,
    /// Function calls (user and builtin).
    pub calls: u64,
    /// Transcendental / special-function evaluations (`sqrt`, `exp`, ...).
    pub special_ops: u64,
}

impl CostCounter {
    /// A zeroed counter.
    pub fn new() -> Self {
        CostCounter::default()
    }

    /// Total scalar operations of any kind.
    pub fn total_ops(&self) -> u64 {
        self.int_ops + self.flops + self.atomics + self.branches + self.calls + self.special_ops
    }

    /// Total bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Accumulate another counter into this one.
    pub fn merge(&mut self, other: &CostCounter) {
        self.int_ops += other.int_ops;
        self.flops += other.flops;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.atomics += other.atomics;
        self.branches += other.branches;
        self.calls += other.calls;
        self.special_ops += other.special_ops;
    }

    /// Arithmetic intensity in FLOP per byte (0 when no traffic).
    pub fn arithmetic_intensity(&self) -> f64 {
        let bytes = self.total_bytes();
        if bytes == 0 {
            0.0
        } else {
            self.flops as f64 / bytes as f64
        }
    }
}

impl std::ops::Add for CostCounter {
    type Output = CostCounter;
    fn add(self, rhs: CostCounter) -> CostCounter {
        let mut out = self;
        out.merge(&rhs);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let a = CostCounter {
            int_ops: 1,
            flops: 2,
            bytes_read: 8,
            ..Default::default()
        };
        let b = CostCounter {
            int_ops: 3,
            bytes_written: 16,
            atomics: 1,
            ..Default::default()
        };
        let c = a + b;
        assert_eq!(c.int_ops, 4);
        assert_eq!(c.flops, 2);
        assert_eq!(c.total_bytes(), 24);
        assert_eq!(c.total_ops(), 7);
    }

    #[test]
    fn arithmetic_intensity() {
        let c = CostCounter {
            flops: 100,
            bytes_read: 40,
            bytes_written: 10,
            ..Default::default()
        };
        assert!((c.arithmetic_intensity() - 2.0).abs() < 1e-12);
        assert_eq!(CostCounter::new().arithmetic_intensity(), 0.0);
    }
}
