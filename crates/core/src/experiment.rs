//! The evaluation driver: sweeps applications × models × directions and
//! renders the paper's tables (IV, VI, VII and the §V summary statistics).

use rayon::prelude::*;

use lassi_hecbench::{applications, run_application, Application};
use lassi_lang::Dialect;
use lassi_llm::{all_models, ModelSpec, SimulatedLlm};
use lassi_metrics::ScenarioOutcome;

use crate::config::PipelineConfig;
use crate::pipeline::{average_of_runs, Lassi, TranslationRecord};

/// A translation direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// OpenMP → CUDA (Table VI).
    OmpToCuda,
    /// CUDA → OpenMP (Table VII).
    CudaToOmp,
}

impl Direction {
    /// Both directions, in the paper's order.
    pub fn both() -> [Direction; 2] {
        [Direction::OmpToCuda, Direction::CudaToOmp]
    }

    /// Source dialect of this direction.
    pub fn source(self) -> Dialect {
        match self {
            Direction::OmpToCuda => Dialect::OmpLite,
            Direction::CudaToOmp => Dialect::CudaLite,
        }
    }

    /// Target dialect of this direction.
    pub fn target(self) -> Dialect {
        self.source().other()
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Direction::OmpToCuda => "OpenMP to CUDA",
            Direction::CudaToOmp => "CUDA to OpenMP",
        }
    }

    /// Filename-safe identifier (artifact record sets, cache keys).
    pub fn slug(self) -> &'static str {
        match self {
            Direction::OmpToCuda => "omp-to-cuda",
            Direction::CudaToOmp => "cuda-to-omp",
        }
    }

    /// Inverse of [`Direction::slug`].
    pub fn from_slug(slug: &str) -> Option<Direction> {
        match slug {
            "omp-to-cuda" => Some(Direction::OmpToCuda),
            "cuda-to-omp" => Some(Direction::CudaToOmp),
            _ => None,
        }
    }
}

/// One row of Table IV.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4Row {
    /// Category (Table IV column 1).
    pub category: String,
    /// Application name.
    pub application: String,
    /// Runtime arguments as reported in the paper.
    pub runtime_args: String,
    /// Simulated CUDA runtime in seconds.
    pub cuda_seconds: f64,
    /// Simulated OpenMP runtime in seconds.
    pub omp_seconds: f64,
}

/// Reproduce Table IV: run every reference application once in both
/// dialects and report the average of `timing_runs` (identical,
/// deterministic) executions.
pub fn run_table4(config: &PipelineConfig) -> Vec<Table4Row> {
    applications()
        .par_iter()
        .map(|app| {
            let avg = |dialect| {
                let report = run_application(app, dialect)
                    .unwrap_or_else(|e| panic!("{} reference failed: {e}", app.name));
                average_of_runs(report.simulated_seconds, config.timing_runs)
            };
            Table4Row {
                category: app.category.to_string(),
                application: app.name.to_string(),
                runtime_args: format!("{:?}", app.runtime_args),
                cuda_seconds: avg(Dialect::CudaLite),
                omp_seconds: avg(Dialect::OmpLite),
            }
        })
        .collect()
}

/// Run every (application × model) scenario for one direction — one full
/// Table VI or Table VII sweep (40 scenarios).
pub fn run_direction(direction: Direction, config: &PipelineConfig) -> Vec<TranslationRecord> {
    run_direction_with(direction, config, &all_models(), &applications())
}

/// Run a direction for an explicit set of models and applications (used by
/// the examples and by tests that need a smaller sweep).
///
/// This is the *blocking* sweep path: every scenario is a [`run_scenario`]
/// call fanned out with `par_iter`. The `lassi-harness` crate wraps the same
/// [`run_scenario`] entry point in a job queue with caching, streaming and
/// cancellation — prefer it for anything interactive or repeated.
pub fn run_direction_with(
    direction: Direction,
    config: &PipelineConfig,
    models: &[ModelSpec],
    apps: &[Application],
) -> Vec<TranslationRecord> {
    let scenarios: Vec<(ModelSpec, Application)> = models
        .iter()
        .flat_map(|m| apps.iter().map(move |a| (m.clone(), a.clone())))
        .collect();
    scenarios
        .par_iter()
        .map(|(model, app)| run_scenario(model, app, direction, config))
        .collect()
}

/// Run exactly one (model, application, direction) scenario with the
/// deterministic per-scenario seed derived from `config`. This is the unit
/// of work the harness scheduler enqueues; `run_direction*` are thin sweeps
/// over it.
pub fn run_scenario(
    model: &ModelSpec,
    app: &Application,
    direction: Direction,
    config: &PipelineConfig,
) -> TranslationRecord {
    let seed = config.model_scenario_seed(model.name, app.name, direction);
    let llm = SimulatedLlm::with_seed(model.clone(), seed);
    let mut pipeline = Lassi::new(llm, config.clone());
    pipeline.translate_application(app, direction.source())
}

/// Convert records into the metric outcomes used for the summary statistics.
pub fn scenario_outcomes(records: &[TranslationRecord]) -> Vec<ScenarioOutcome> {
    records
        .iter()
        .map(|r| ScenarioOutcome {
            application: r.application.clone(),
            model: r.model.clone(),
            success: !r.status.is_na(),
            runtime_seconds: r.generated_runtime,
            ratio: r.ratio,
            sim_t: r.sim_t,
            sim_l: r.sim_l,
            self_corrections: if r.status.is_na() {
                None
            } else {
                Some(r.self_corrections)
            },
        })
        .collect()
}

/// Render a direction's records as a Table VI/VII-style text table
/// (applications as rows, one panel per model).
pub fn direction_table(direction: Direction, records: &[TranslationRecord]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{} translation results\n", direction.label()));
    let mut models: Vec<&str> = records.iter().map(|r| r.model.as_str()).collect();
    models.dedup();
    let mut seen = Vec::new();
    for model in models {
        if seen.contains(&model) {
            continue;
        }
        seen.push(model);
        out.push_str(&format!(
            "\n  {model}\n  {:<18} {:>12} {:>8} {:>7} {:>7} {:>10}\n",
            "application", "Runtime (s)", "Ratio", "Sim-T", "Sim-L", "Self-corr"
        ));
        for r in records.iter().filter(|r| r.model == model) {
            let fmt_opt = |v: Option<f64>, prec: usize| match v {
                Some(x) => format!("{x:.prec$}"),
                None => "N/A".to_string(),
            };
            out.push_str(&format!(
                "  {:<18} {:>12} {:>8} {:>7} {:>7} {:>10}\n",
                r.application,
                fmt_opt(r.generated_runtime, 4),
                fmt_opt(r.ratio, 4),
                fmt_opt(r.sim_t, 2),
                fmt_opt(r.sim_l, 2),
                if r.status.is_na() {
                    "N/A".to_string()
                } else {
                    r.self_corrections.to_string()
                },
            ));
        }
    }
    out
}

/// Render Table IV as text.
pub fn table4_text(rows: &[Table4Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<42} {:<18} {:<22} {:>12} {:>12}\n",
        "Category", "Application", "Runtime args", "CUDA (s)", "OpenMP (s)"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<42} {:<18} {:<22} {:>12.4} {:>12.4}\n",
            r.category, r.application, r.runtime_args, r.cuda_seconds, r.omp_seconds
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lassi_hecbench::application;
    use lassi_llm::gpt4;

    #[test]
    fn direction_helpers() {
        assert_eq!(Direction::OmpToCuda.source(), Dialect::OmpLite);
        assert_eq!(Direction::OmpToCuda.target(), Dialect::CudaLite);
        assert_eq!(Direction::CudaToOmp.label(), "CUDA to OpenMP");
        assert_eq!(Direction::both().len(), 2);
    }

    #[test]
    fn small_sweep_produces_consistent_records() {
        let config = PipelineConfig::default();
        let apps = vec![
            application("layout").unwrap(),
            application("entropy").unwrap(),
        ];
        let models = vec![gpt4()];
        let records = run_direction_with(Direction::CudaToOmp, &config, &models, &apps);
        assert_eq!(records.len(), 2);
        let outcomes = scenario_outcomes(&records);
        assert_eq!(outcomes.len(), 2);
        let table = direction_table(Direction::CudaToOmp, &records);
        assert!(table.contains("GPT-4"));
        assert!(table.contains("layout"));
    }

    #[test]
    fn sweep_is_deterministic_for_fixed_seed() {
        let config = PipelineConfig::default();
        let apps = vec![application("entropy").unwrap()];
        let models = vec![gpt4()];
        let a = run_direction_with(Direction::OmpToCuda, &config, &models, &apps);
        let b = run_direction_with(Direction::OmpToCuda, &config, &models, &apps);
        assert_eq!(a[0].status, b[0].status);
        assert_eq!(a[0].self_corrections, b[0].self_corrections);
        assert_eq!(a[0].generated_code, b[0].generated_code);
    }
}
