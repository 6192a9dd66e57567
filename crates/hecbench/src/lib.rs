//! # lassi-hecbench
//!
//! The ten HeCBench-style benchmark applications used in the LASSI paper
//! (Table IV), hand-written in both ParC dialects (CudaLite and OmpLite), plus
//! a combined "machine" backend and the reference runner, which checks,
//! lowers and runs a program on the bytecode VM ([`run_application`],
//! [`run_source`]).
//!
//! The applications cover the same nine computational categories the paper
//! selects from HeCBench, use the paper's application names, and are designed
//! so the *relative* CUDA-vs-OpenMP runtimes reproduce the qualitative shape
//! of Table IV (e.g. `jacobi` and `dense-embedding` map data every iteration
//! in the OpenMP version and are therefore far slower than their CUDA
//! counterparts, while `bsearch` and `colorwheel` are tiny host-parallel
//! workloads where the CUDA version pays per-frame transfer and launch
//! overhead).
//!
//! Every application prints a deterministic, integer-valued checksum so that
//! output comparison between the original and LASSI-generated code is exact.

pub mod apps;
pub mod runner;

pub use apps::{application, applications, Application};
pub use runner::{fnv1a64, run_application, run_source, Machine};

#[cfg(test)]
mod tests {
    use super::*;
    use lassi_lang::Dialect;

    #[test]
    fn ten_applications_in_nine_categories() {
        let apps = applications();
        assert_eq!(apps.len(), 10);
        let categories: std::collections::HashSet<&str> = apps.iter().map(|a| a.category).collect();
        assert_eq!(
            categories.len(),
            9,
            "paper uses ten applications across nine categories"
        );
    }

    #[test]
    fn all_sources_parse_and_compile() {
        for app in applications() {
            for dialect in [Dialect::CudaLite, Dialect::OmpLite] {
                let program = app
                    .parse(dialect)
                    .unwrap_or_else(|e| panic!("{} ({dialect}) failed to parse: {e}", app.name));
                lassi_sema::compile(&program).unwrap_or_else(|e| {
                    panic!("{} ({dialect}) failed to compile: {:?}", app.name, e)
                });
            }
        }
    }

    #[test]
    fn matrix_rotate_outputs_match_across_dialects() {
        let app = application("matrix-rotate").unwrap();
        let cuda = run_application(&app, Dialect::CudaLite).expect("cuda run");
        let omp = run_application(&app, Dialect::OmpLite).expect("omp run");
        assert_eq!(cuda.stdout, omp.stdout);
        assert!(!cuda.stdout.is_empty());
    }
}
