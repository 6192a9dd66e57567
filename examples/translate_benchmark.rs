//! Translate every HeCBench application in one direction with a single model
//! and print a Table VI/VII-style panel — the per-model slice of the paper's
//! evaluation.
//!
//!     cargo run --release --example translate_benchmark -- "Wizard Coder"

use lassi::pipeline::{direction_table, Direction};
use lassi::prelude::*;

fn main() {
    let model_name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "Codestral".to_string());
    let model = model_by_name(&model_name).unwrap_or_else(|| {
        eprintln!("unknown model '{model_name}', falling back to Codestral");
        model_by_name("Codestral").unwrap()
    });
    let config = PipelineConfig::default();
    let records = Harness::new(HarnessOptions::default()).run_direction_with(
        Direction::OmpToCuda,
        &config,
        std::slice::from_ref(&model),
        &applications(),
    );
    print!("{}", direction_table(Direction::OmpToCuda, &records));

    let stats = AggregateStats::from_outcomes(&scenario_outcomes(&records));
    println!("\n{stats}");
}
