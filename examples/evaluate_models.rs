//! Reproduce the §V headline comparison across all four models on a subset of
//! applications, in both directions — a faster version of the full 80-scenario
//! sweep that the `table6`/`table7` binaries run.
//!
//!     cargo run --release --example evaluate_models

use lassi::pipeline::{scenario_outcomes, Direction};
use lassi::prelude::*;

fn main() {
    let config = PipelineConfig::default();
    let harness = Harness::new(HarnessOptions::default());
    let apps: Vec<Application> = ["matrix-rotate", "layout", "entropy", "bsearch"]
        .iter()
        .map(|n| application(n).expect("benchmark exists"))
        .collect();

    for direction in Direction::both() {
        println!(
            "=== {} ({} applications x 4 models) ===",
            direction.label(),
            apps.len()
        );
        let records = harness.run_direction_with(direction, &config, &all_models(), &apps);
        for model in all_models() {
            let model_records: Vec<_> = records
                .iter()
                .filter(|r| r.model == model.name)
                .cloned()
                .collect();
            let stats = AggregateStats::from_outcomes(&scenario_outcomes(&model_records));
            println!(
                "  {:<20} success {:>5.1}%   zero-corrections {:>5.1}%   mean corr {:.2}",
                model.name,
                stats.success_rate * 100.0,
                stats.first_try_rate * 100.0,
                stats.mean_self_corrections
            );
        }
        println!();
    }
}
