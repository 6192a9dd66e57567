//! The workloads' inputs, all derived from the workload seed.

use lassi_core::{Direction, PipelineConfig};
use lassi_harness::{Job, SweepGrid};
use lassi_hecbench::applications;
use lassi_llm::{all_models, ModelSpec};

use crate::util::mix;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    GridCold,
    RepairStorm,
    FleetDrain,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "grid-cold" => Some(Workload::GridCold),
            "repair-storm" => Some(Workload::RepairStorm),
            "fleet-drain" => Some(Workload::FleetDrain),
            _ => None,
        }
    }
}

/// Paper grids per repetition of `grid-cold`, `repair-storm` and
/// `fleet-drain`. Each is 10 apps × 4 models × 2 directions = 80 scenarios
/// under its own base seed, so seeds average out fault-path luck while one
/// repetition stays a few seconds long.
pub const GRID_SEEDS: u64 = 3;

/// Base seeds of the paper grids a repetition runs. Kept below 2^53 so they
/// survive any JSON number parser unchanged.
pub fn grid_seeds(seed: u64) -> Vec<u64> {
    (0..GRID_SEEDS)
        .map(|i| mix(seed ^ mix(i + 1)) & ((1 << 53) - 1))
        .collect()
}

/// `repair-storm`'s model: always slips at compile time, rarely repairs,
/// often regresses, and never injects runtime, semantic or performance
/// faults — the paper's 34-round Codestral case, for every model.
fn degrade(mut model: ModelSpec) -> ModelSpec {
    model.profile.p_compile_fault = 1.0;
    model.profile.p_repair_success = 0.1;
    model.profile.p_repair_regression = 0.3;
    model.profile.p_runtime_fault = 0.0;
    model.profile.p_semantic_fault = 0.0;
    model.profile.p_perf_regression = 0.0;
    model
}

/// The paper grids of one repetition, one per derived seed.
pub fn grids(seed: u64, degraded: bool) -> Vec<SweepGrid> {
    let models: Vec<ModelSpec> = if degraded {
        all_models().into_iter().map(degrade).collect()
    } else {
        all_models()
    };
    grid_seeds(seed)
        .into_iter()
        .map(|grid_seed| {
            SweepGrid::single(
                PipelineConfig {
                    seed: grid_seed,
                    ..PipelineConfig::default()
                },
                models.clone(),
                applications(),
                Direction::both().to_vec(),
            )
        })
        .collect()
}

/// Every job of a list of grids, concatenated in grid order.
pub fn jobs_of(grids: &[SweepGrid]) -> Vec<Job> {
    grids.iter().flat_map(SweepGrid::jobs).collect()
}
