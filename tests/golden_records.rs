//! Golden record hashes: a cold subset of the paper grid runs through
//! `Harness::submit`, and each scenario's record is hashed (FNV-1a over its
//! compact codec form, as `lassi-perfbench` hashes whole record sets) and
//! compared to `tests/golden/record-hashes.txt`.
//!
//! The tier-1 subset is 3 applications x 4 models x both directions. The apps
//! are chosen for coverage: `matrix-rotate` has the `collapse(2)` loop nest,
//! `atomicCost` the atomic reduction into a shared total, and `pathfinder`
//! the `target data` region around a per-row offload. An ignored test runs
//! the whole 80-scenario paper grid against `tests/golden/paper-grid-hashes.txt`.
//!
//! The same subset runs again with every model degraded the way
//! `lassi-perfbench`'s `repair-storm` workload degrades it (a compile fault
//! every time, 10% repair success, 30% repair regression, no other fault),
//! against `tests/golden/repair-storm-hashes.txt`. The default models rarely
//! need repair, so this is the test that pins records of the
//! self-correction loop.
//!
//! A third test pins the Table IV reference runs (10 applications x both
//! dialects on the paper's machine) against `tests/golden/table4.txt`: the
//! bits of each run's simulated seconds, its host and lane steps and an
//! FNV-1a of its stdout, so any change in how a run is priced shows here.
//!
//! A failure here means some scenario's record changed: its status, its
//! generated code, its diagnostics or any number in it. A change that means
//! to alter records replaces the golden file with the text the failure
//! message prints, and says so in its change description.

use lassi::harness::codec::record_to_json;
use lassi::harness::fnv1a64;
use lassi::llm::ModelSpec;
use lassi::prelude::*;

const GOLDEN: &str = include_str!("golden/record-hashes.txt");
const PAPER_GRID_GOLDEN: &str = include_str!("golden/paper-grid-hashes.txt");
const TABLE4_GOLDEN: &str = include_str!("golden/table4.txt");
const REPAIR_STORM_GOLDEN: &str = include_str!("golden/repair-storm-hashes.txt");
const APPS: [&str; 3] = ["matrix-rotate", "atomicCost", "pathfinder"];

/// The tier-1 subset of applications.
fn subset() -> Vec<Application> {
    APPS.iter()
        .map(|name| application(name).expect("benchmark exists"))
        .collect()
}

/// Run `apps` x `models` x both directions cold through `Harness::submit`
/// and render one line per scenario with its record hash.
fn record_hashes(models: Vec<ModelSpec>, apps: Vec<Application>) -> String {
    let grid = SweepGrid::single(
        PipelineConfig::default(),
        models,
        apps,
        Direction::both().to_vec(),
    );
    let jobs = grid.jobs();
    let outputs = Harness::new(HarnessOptions::default())
        .submit(jobs.clone())
        .collect_outputs();
    assert_eq!(outputs.len(), jobs.len(), "every job completes");
    assert!(outputs.iter().all(|o| !o.from_cache), "no cache attached");

    let mut actual = String::new();
    for (job, output) in jobs.iter().zip(&outputs) {
        let compact = record_to_json(&output.record).to_compact();
        actual.push_str(&format!(
            "{} {} {} {:016x}\n",
            job.direction.slug(),
            job.model.slug(),
            job.application.name,
            fnv1a64(compact.as_bytes())
        ));
    }
    actual
}

#[test]
fn cold_subset_grid_reproduces_the_golden_record_hashes() {
    let actual = record_hashes(all_models(), subset());
    assert_eq!(
        actual, GOLDEN,
        "record hashes differ from tests/golden/record-hashes.txt; actual:\n{actual}"
    );
}

/// A model that always injects a compile fault and rarely repairs it, as
/// `lassi-perfbench`'s `repair-storm` workload degrades every model.
fn degrade(mut model: ModelSpec) -> ModelSpec {
    model.profile.p_compile_fault = 1.0;
    model.profile.p_repair_success = 0.1;
    model.profile.p_repair_regression = 0.3;
    model.profile.p_runtime_fault = 0.0;
    model.profile.p_semantic_fault = 0.0;
    model.profile.p_perf_regression = 0.0;
    model
}

#[test]
fn degraded_models_reproduce_the_repair_storm_golden() {
    let models = all_models().into_iter().map(degrade).collect();
    let actual = record_hashes(models, subset());
    assert_eq!(
        actual, REPAIR_STORM_GOLDEN,
        "record hashes differ from tests/golden/repair-storm-hashes.txt; actual:\n{actual}"
    );
}

/// The whole paper grid: 10 applications x 4 models x both directions, 80
/// scenarios. It takes about 30 s in a debug build, so it is ignored by
/// default; run it with
/// `cargo test --release --test golden_records -- --ignored`.
#[test]
#[ignore]
fn cold_paper_grid_reproduces_the_golden_record_hashes() {
    let actual = record_hashes(all_models(), applications());
    assert_eq!(
        actual, PAPER_GRID_GOLDEN,
        "record hashes differ from tests/golden/paper-grid-hashes.txt; actual:\n{actual}"
    );
}

#[test]
fn reference_runs_reproduce_the_table4_golden() {
    let mut actual = String::new();
    for app in applications() {
        for dialect in [Dialect::CudaLite, Dialect::OmpLite] {
            let report = run_application(&app, dialect).expect("reference run");
            actual.push_str(&format!(
                "{} {} {:016x} {} {} {:016x}\n",
                app.name,
                dialect,
                report.simulated_seconds.to_bits(),
                report.steps,
                report.lane_steps,
                fnv1a64(report.stdout.as_bytes())
            ));
        }
    }
    assert_eq!(
        actual, TABLE4_GOLDEN,
        "reference runs differ from tests/golden/table4.txt; actual:\n{actual}"
    );
}
