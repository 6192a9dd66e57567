//! # lassi-ompsim
//!
//! A simulated OpenMP runtime (host threads + `target` offload): the cost
//! model that prices OmpLite work-sharing regions. It is the counterpart of
//! `lassi-gpusim` for the other half of the LASSI translation pair.
//!
//! `lassi-runtime` runs every work-sharing loop itself, on either engine,
//! with OpenMP reduction semantics (private copies initialised to the
//! identity, combined at the end), so translated programs produce real
//! output and real runtime errors. [`OmpSpec`] decides how many worker
//! threads a region gets (`omp_get_num_threads()` inside it) and converts
//! the region's compute and memory-traffic counts to simulated seconds,
//! using either the host-CPU model (plain `parallel for`) or the offload
//! model (`target teams distribute parallel for`). The offload model charges
//! the characteristic per-region launch overhead and per-`map` transfer
//! costs that make naive OpenMP offload codes slow (the `jacobi` /
//! `dense-embedding` pattern from the paper's Table IV).

pub mod cost;

pub use cost::OmpSpec;
