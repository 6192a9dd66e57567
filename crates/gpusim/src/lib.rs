//! # lassi-gpusim
//!
//! A simulated NVIDIA A100-class GPU: the analytic cost model that prices
//! CudaLite kernel launches.
//!
//! The simulator plays the role the physical A100 plays in the LASSI paper's
//! runtime measurements. `lassi-runtime` runs every launch itself, on either
//! engine, so generated code produces real stdout and real runtime failures
//! (out-of-bounds, illegal host-pointer dereference, barrier divergence) for
//! the execution self-correction loop. What ran comes here as operation
//! counts and memory traffic, and an SM/occupancy/bandwidth model
//! ([`DeviceSpec`], [`KernelCostModel`]) turns them into simulated seconds,
//! so translated programs that serialize work or add extra transfers show
//! the same qualitative slowdowns the paper reports (e.g. the 20× `bsearch`
//! regression).

pub mod cost;
pub mod device;

pub use cost::KernelCostModel;
pub use device::DeviceSpec;
