//! Pipeline configuration.

use lassi_runtime::RunConfig;

use crate::experiment::Direction;

// Scenario seeds feed the simulated LLM *and* the harness scenario-cache
// keys, so their derivation uses the toolchain-stable FNV-1a.
pub(crate) use lassi_hecbench::fnv1a64;

/// Which execution engine runs the pipeline's programs.
///
/// Both engines produce bit-identical [`lassi_runtime::ExecutionReport`]s,
/// so the choice only affects wall-clock speed and which code path runs.
/// Production runs the VM; `Reference` stays for the differential tests and
/// perfbench's oracle sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecEngine {
    /// Memoize each checked program's execution report process-wide; a miss
    /// lowers it to register bytecode and runs the dispatch-loop VM. The
    /// default.
    #[default]
    Bytecode,
    /// The original tree-walking interpreter (`lassi_runtime::eval`, run by
    /// `lassi_runtime::interp::HostInterpreter`).
    Reference,
}

/// Knobs for the LASSI pipeline.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Maximum number of self-correction iterations (compile + execute
    /// combined) before the pipeline gives up on a scenario (reported as N/A).
    pub max_self_corrections: u32,
    /// Base RNG seed; each (model, application, direction) scenario derives a
    /// stable seed from it so the whole evaluation is reproducible.
    pub seed: u64,
    /// Execution configuration used for every program the pipeline runs.
    pub run_config: RunConfig,
    /// Number of timed executions averaged for the reported runtime (the
    /// paper averages three runs).
    pub timing_runs: u32,
    /// Execution engine for every program the pipeline runs.
    pub engine: ExecEngine,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            max_self_corrections: 40,
            seed: 20240704,
            run_config: lassi_hecbench::Machine::run_config(),
            timing_runs: 3,
            engine: ExecEngine::Bytecode,
        }
    }
}

impl PipelineConfig {
    /// Derive the deterministic seed for one scenario. Stable across Rust
    /// releases (FNV-1a over a canonical string), so cached results and
    /// regenerated tables survive toolchain bumps.
    pub fn scenario_seed(&self, application: &str, direction: Direction) -> u64 {
        let canonical = format!("{:016x};{application};{}", self.seed, direction.label());
        fnv1a64(canonical.as_bytes())
    }

    /// Derive the deterministic seed for one scenario with a specific model.
    pub fn model_scenario_seed(&self, model: &str, application: &str, direction: Direction) -> u64 {
        let canonical = format!(
            "{:016x};{model}",
            self.scenario_seed(application, direction)
        );
        fnv1a64(canonical.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `scenario_seed("jacobi", CudaToOmp)` under the default base seed.
    const SCENARIO_SEED_PIN: u64 = 0x583d_45d4_3982_8dcf;
    /// `model_scenario_seed("GPT-4", "jacobi", CudaToOmp)` likewise.
    const MODEL_SEED_PIN: u64 = 0x5825_ba3a_ce6a_2308;

    #[test]
    fn seeds_are_stable_and_distinct() {
        let config = PipelineConfig::default();
        let a = config.model_scenario_seed("GPT-4", "jacobi", Direction::CudaToOmp);
        let b = config.model_scenario_seed("GPT-4", "jacobi", Direction::CudaToOmp);
        assert_eq!(a, b);
        let c = config.model_scenario_seed("GPT-4", "jacobi", Direction::OmpToCuda);
        let d = config.model_scenario_seed("Codestral", "jacobi", Direction::CudaToOmp);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn seed_derivation_is_pinned() {
        // Scenario seeds are content-addressed into the harness cache and
        // drive every simulated record; these pins catch any accidental
        // change to the derivation (which would invalidate caches and shift
        // every regenerated table). Regenerate by printing the values if the
        // derivation changes deliberately.
        let config = PipelineConfig::default();
        assert_eq!(
            config.scenario_seed("jacobi", Direction::CudaToOmp),
            SCENARIO_SEED_PIN
        );
        assert_eq!(
            config.model_scenario_seed("GPT-4", "jacobi", Direction::CudaToOmp),
            MODEL_SEED_PIN
        );
    }

    #[test]
    fn defaults_match_paper_setup() {
        let config = PipelineConfig::default();
        assert_eq!(config.timing_runs, 3);
        assert!(
            config.max_self_corrections >= 34,
            "must allow the pathological Codestral case"
        );
    }
}
