//! # lassi-llm
//!
//! The simulated LLM substrate used by the LASSI pipeline reproduction.
//!
//! The paper drives four real models (GPT-4, Codestral 22B, Wizard Coder 33B
//! and DeepSeek Coder v2 16B) through Ollama / an API. Those models are not
//! available here, so this crate provides a **deterministic simulated LLM**
//! with the same interface the pipeline needs:
//!
//! * [`tokenizer`] — approximate token counting, used to enforce each model's
//!   context window (Table V) and to report prompt and response sizes (the
//!   Sim-T similarity metric tokenizes with `lassi_metrics::tokenize_code`),
//! * [`prompts`] — the prompt dictionary: system prompts (Table I),
//!   translation prompts (Table II), self-correction prompts (Table III) and
//!   the programming-language knowledge passages,
//! * [`models`] — the four model configurations with per-model *capability
//!   profiles* that control how often the simulated model slips,
//! * [`translate`] — a real AST-level CUDA ↔ OpenMP translation engine (the
//!   "competent" core of the simulated model),
//! * [`faults`] — the fault classes the simulated model can inject into an
//!   otherwise correct translation (syntax slips, wrong API names, missing
//!   declarations, out-of-bounds indexing, serialization, restructuring, ...),
//! * [`session`] — [`session::SimulatedLlm`], the chat-style wrapper that
//!   receives prompt text, extracts the code block, translates, injects
//!   profile-driven faults, and on correction prompts repairs (or fails to
//!   repair) them — reproducing the behaviour the LASSI self-correcting loops
//!   are designed to handle.

pub mod faults;
pub mod models;
pub mod prompts;
pub mod session;
pub mod tokenizer;
pub mod translate;

pub use faults::{Fault, FaultKind};
pub use models::{
    all_models, codestral, deepseek_coder, gpt4, model_by_name, wizard_coder, CapabilityProfile,
    ModelSpec,
};
pub use prompts::PromptDictionary;
pub use session::{ChatModel, LlmResponse, SimulatedLlm};
pub use tokenizer::count_tokens;
pub use translate::{translate_program, TranslationError};

#[cfg(test)]
mod tests {
    use super::*;
    use lassi_lang::{parse, Dialect};

    #[test]
    fn translate_round_trip_produces_other_dialect() {
        let cuda = r#"
        __global__ void scale(float* out, const float* in, int n) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) { out[i] = 2.0 * in[i]; }
        }
        int main() {
            int n = 256;
            float* h_in = (float*)malloc(n * sizeof(float));
            float* h_out = (float*)malloc(n * sizeof(float));
            for (int i = 0; i < n; i++) { h_in[i] = i; }
            float* d_in;
            float* d_out;
            cudaMalloc(&d_in, n * sizeof(float));
            cudaMalloc(&d_out, n * sizeof(float));
            cudaMemcpy(d_in, h_in, n * sizeof(float), cudaMemcpyHostToDevice);
            scale<<<(n + 255) / 256, 256>>>(d_out, d_in, n);
            cudaDeviceSynchronize();
            cudaMemcpy(h_out, d_out, n * sizeof(float), cudaMemcpyDeviceToHost);
            double sum = 0.0;
            for (int i = 0; i < n; i++) { sum += h_out[i]; }
            printf("sum %.1f\n", sum);
            free(h_in);
            free(h_out);
            return 0;
        }
        "#;
        let program = parse(cuda, Dialect::CudaLite).unwrap();
        let translated = translate_program(&program, Dialect::OmpLite).unwrap();
        assert_eq!(translated.dialect, Dialect::OmpLite);
        let printed = lassi_lang::print_program(&translated);
        assert!(printed.contains("#pragma omp target teams distribute parallel for"));
        assert!(!printed.contains("cudaMalloc"));
        // The translated program must compile.
        lassi_sema::compile(&translated).expect("translated program compiles");
    }
}
