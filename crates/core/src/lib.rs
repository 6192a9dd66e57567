//! # lassi-core
//!
//! The LASSI pipeline itself (Fig. 1 of the paper): an automated,
//! self-correcting loop that drives an LLM to translate a parallel program
//! from one language to the other, recompiling and re-executing the generated
//! code and feeding every error back to the model until the code runs.
//!
//! The crate is organised exactly like the architecture figure:
//!
//! * [`pipeline::Lassi`] — one pipeline instance bound to a chat model and the
//!   simulated machine. [`pipeline::Lassi::translate_application`] performs
//!   source-code preparation, language-context preparation (with
//!   self-prompted summaries), code generation, the compile self-correction
//!   loop, the execution self-correction loop, output comparison and metric
//!   collection for a single (application, direction) scenario.
//! * [`experiment`] — the evaluation driver that sweeps the 10 HeCBench
//!   applications × 4 LLMs × 2 directions (80 scenarios) and renders the
//!   paper's tables.
//! * [`config`] — pipeline knobs (iteration caps, seeds, runtime model).

pub mod config;
pub mod experiment;
pub mod pipeline;
pub mod progcache;

pub use config::{ExecEngine, PipelineConfig};
pub use experiment::{
    direction_table, run_direction, run_direction_with, run_scenario, run_table4,
    scenario_outcomes, table4_text, Direction, Table4Row,
};
pub use pipeline::{
    average_of_runs, AttemptDiagnostics, Lassi, ScenarioStatus, TranslationRecord, STAGE_NAMES,
};
pub use progcache::ProgramCacheStats;

#[cfg(test)]
mod tests {
    use super::*;
    use lassi_hecbench::application;
    use lassi_lang::Dialect;
    use lassi_llm::{gpt4, SimulatedLlm};

    #[test]
    fn single_scenario_end_to_end() {
        let app = application("matrix-rotate").unwrap();
        let config = PipelineConfig {
            seed: 7,
            ..PipelineConfig::default()
        };
        let llm = SimulatedLlm::with_seed(
            gpt4(),
            config.scenario_seed("matrix-rotate", Direction::OmpToCuda),
        );
        let mut pipeline = Lassi::new(llm, config);
        let record = pipeline.translate_application(&app, Dialect::OmpLite);
        // Whatever the stochastic outcome, the record must be internally consistent.
        if record.status == ScenarioStatus::Success {
            assert!(record.generated_runtime.is_some());
            assert!(record.ratio.is_some());
            assert!(record.sim_t.is_some());
        } else {
            assert!(record.ratio.is_none());
        }
        assert!(record.reference_runtime > 0.0);
    }
}
