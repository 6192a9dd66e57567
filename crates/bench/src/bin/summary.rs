//! Regenerate the §V headline statistics for both translation directions
//! (success rate, within-10% rate, Sim-T >= 0.6 rate, zero-self-correction
//! rate), executed on the `lassi-harness` worker pool.
//!
//! The run's records are saved to `artifacts/run-summary/`; the statistics
//! are computed from them, live or on `--replay <run-dir>`, which
//! re-renders a saved artifact without running anything. Other flags:
//! `--artifacts <dir>`, `--no-cache`, `--workers <n>`.

use lassi_core::{scenario_outcomes, Direction, TranslationRecord};
use lassi_harness::SweepGrid;
use lassi_metrics::AggregateStats;

/// One direction's block of the report.
fn render(direction: Direction, records: &[TranslationRecord]) -> String {
    let stats = AggregateStats::from_outcomes(&scenario_outcomes(records));
    format!("=== {} ===\n{stats}\n\n", direction.label())
}

fn run() -> Result<String, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let common = lassi_bench::parse_common_args(args)?;
    if let Some(extra) = common.rest.first() {
        return Err(format!("unknown argument `{extra}`"));
    }

    let sets = match &common.replay {
        Some(dir) => lassi_bench::replay_record_sets(dir)?,
        None => {
            let grid = SweepGrid::single(
                lassi_bench::default_config(),
                lassi_llm::all_models(),
                lassi_hecbench::applications(),
                Direction::both().to_vec(),
            );
            lassi_bench::run_grid(&common, &grid, "summary")?
                .into_iter()
                .map(|(cell, records)| (cell.direction, records))
                .collect()
        }
    };
    Ok(sets
        .iter()
        .map(|(direction, records)| render(*direction, records))
        .collect())
}

fn main() {
    match run() {
        Ok(text) => print!("{text}"),
        Err(message) => {
            eprintln!("summary: {message}");
            std::process::exit(2);
        }
    }
}
