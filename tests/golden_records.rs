//! Golden record hashes: a cold subset of the paper grid runs through
//! `Harness::submit`, and each scenario's record is hashed (FNV-1a over its
//! compact codec form, as `lassi-perfbench` hashes whole record sets) and
//! compared to `tests/golden/record-hashes.txt`.
//!
//! The subset is 3 applications x 4 models x both directions. The apps are
//! chosen for coverage: `matrix-rotate` has the `collapse(2)` loop nest,
//! `atomicCost` the atomic reduction into a shared total, and `pathfinder`
//! the `target data` region around a per-row offload.
//!
//! A failure here means some scenario's record changed: its status, its
//! generated code, its diagnostics or any number in it. A change that means
//! to alter records replaces the golden file with the text the failure
//! message prints, and says so in its change description.

use lassi::harness::codec::record_to_json;
use lassi::harness::fnv1a64;
use lassi::prelude::*;

const GOLDEN: &str = include_str!("golden/record-hashes.txt");
const APPS: [&str; 3] = ["matrix-rotate", "atomicCost", "pathfinder"];

#[test]
fn cold_subset_grid_reproduces_the_golden_record_hashes() {
    let grid = SweepGrid::single(
        PipelineConfig::default(),
        all_models(),
        APPS.iter()
            .map(|name| application(name).expect("benchmark exists"))
            .collect(),
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
    assert_eq!(
        actual, GOLDEN,
        "record hashes differ from tests/golden/record-hashes.txt; actual:\n{actual}"
    );
}
