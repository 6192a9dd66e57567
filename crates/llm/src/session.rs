//! The chat-style simulated LLM.
//!
//! [`SimulatedLlm`] exposes the same surface a hosted model exposes to the
//! LASSI pipeline — "here is a prompt, give me text back" — and implements it
//! with the translation engine plus profile-driven fault injection and
//! repair. The pipeline never looks inside: it extracts the code block from
//! the response, compiles it, runs it, and feeds errors back, exactly as it
//! would with GPT-4 or an Ollama-hosted model.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use lassi_lang::{parse, Dialect};

use crate::faults::{apply_faults, maybe_fault, sample_fault, Fault, FaultCategory};
use crate::models::ModelSpec;
use crate::prompts::extract_code_block;
use crate::tokenizer::count_tokens;
use crate::translate::translate_program;

/// A single completion returned by a model.
#[derive(Debug, Clone)]
pub struct LlmResponse {
    /// The full response text (the pipeline extracts the ``` code block).
    pub text: String,
    /// Approximate number of tokens in the prompt.
    pub prompt_tokens: usize,
    /// Approximate number of tokens in the response.
    pub response_tokens: usize,
    /// Whether the prompt exceeded the model's context window and had to be
    /// truncated (degrades quality, like the real thing).
    pub context_overflow: bool,
}

/// Anything that can play the LLM role in the pipeline.
pub trait ChatModel {
    /// The model's display name.
    fn name(&self) -> &str;
    /// The model's context window, in tokens.
    fn context_tokens(&self) -> usize;
    /// Produce a completion for `system_prompt` + `user_prompt`.
    fn complete(&mut self, system_prompt: &str, user_prompt: &str) -> LlmResponse;
}

struct SessionState {
    clean_source: String,
    faults: Vec<Fault>,
}

/// The simulated LLM: translation engine + capability profile + session state.
pub struct SimulatedLlm {
    model: ModelSpec,
    rng: StdRng,
    state: Option<SessionState>,
    last_translation_diagnostic: Option<lassi_lang::Diagnostic>,
}

impl SimulatedLlm {
    /// Create a simulated model with an explicit RNG seed (scenario-specific
    /// seeds make the whole 80-scenario evaluation reproducible).
    pub fn with_seed(model: ModelSpec, seed: u64) -> Self {
        SimulatedLlm {
            model,
            rng: StdRng::seed_from_u64(seed),
            state: None,
            last_translation_diagnostic: None,
        }
    }

    /// The model specification.
    pub fn spec(&self) -> &ModelSpec {
        &self.model
    }

    /// Why the translation engine rejected the last source program, if it
    /// did: a coded diagnostic naming the offending construct
    /// (`llm/unsupported-construct`) or the front-end failure. `None` after
    /// a clean translation.
    pub fn last_translation_diagnostic(&self) -> Option<&lassi_lang::Diagnostic> {
        self.last_translation_diagnostic.as_ref()
    }

    /// Faults still present in the last generated code (test/diagnostic hook).
    pub fn active_fault_labels(&self) -> Vec<&'static str> {
        self.state
            .as_ref()
            .map_or_else(Vec::new, |s| s.faults.iter().map(|f| f.label()).collect())
    }

    fn render(&self) -> String {
        let Some(state) = &self.state else {
            return String::new();
        };
        apply_faults(&state.clean_source, &state.faults)
    }

    fn respond_with_code(&self, code: &str, prompt_tokens: usize, overflow: bool) -> LlmResponse {
        let text = format!("```\n{}\n```", code.trim_end());
        LlmResponse {
            response_tokens: count_tokens(&text),
            text,
            prompt_tokens,
            context_overflow: overflow,
        }
    }

    fn handle_translation(
        &mut self,
        user_prompt: &str,
        prompt_tokens: usize,
        overflow: bool,
    ) -> LlmResponse {
        let Some(source) = extract_code_block(user_prompt) else {
            return LlmResponse {
                text: "I could not find a code block to translate.".to_string(),
                prompt_tokens,
                response_tokens: 8,
                context_overflow: overflow,
            };
        };
        let source_dialect = detect_dialect(&source);
        let target = source_dialect.other();
        let parsed = parse(&source, source_dialect);
        self.last_translation_diagnostic = None;
        let translated_source = match parsed.and_then(|p| {
            translate_program(&p, target).map_err(|e| {
                // `e` names the offending construct ("unsupported construct:
                // reduction operator '&' is not supported", ...).
                lassi_lang::Diagnostic::error(0, e.to_string())
                    .with_code("llm/unsupported-construct")
            })
        }) {
            Ok(program) => lassi_lang::print_program(&program),
            Err(diagnostic) => {
                // The model "fails to understand" the program: it answers with
                // the original code lightly rearranged, which will never
                // compile in the target language. This is one of the N/A paths.
                // The coded diagnostic stays inspectable instead of vanishing.
                self.last_translation_diagnostic = Some(diagnostic);
                source.clone()
            }
        };

        // Inject profile-driven faults into the clean translation.
        let profile = self.model.profile;
        let mut faults: Vec<Fault> = Vec::new();
        if let Some(f) = maybe_fault(
            &translated_source,
            FaultCategory::Compile,
            profile.p_compile_fault,
            &mut self.rng,
        ) {
            faults.push(f);
        }
        // A second, independent compile slip is possible for weaker models.
        if let Some(f) = maybe_fault(
            &translated_source,
            FaultCategory::Compile,
            profile.p_compile_fault * 0.35,
            &mut self.rng,
        ) {
            faults.push(f);
        }
        if let Some(f) = maybe_fault(
            &translated_source,
            FaultCategory::Runtime,
            profile.p_runtime_fault,
            &mut self.rng,
        ) {
            faults.push(f);
        }
        let semantic_p = if overflow {
            // Truncated context: the model loses part of the program.
            (profile.p_semantic_fault * 3.0).min(0.95)
        } else {
            profile.p_semantic_fault
        };
        if let Some(f) = maybe_fault(
            &translated_source,
            FaultCategory::Semantic,
            semantic_p,
            &mut self.rng,
        ) {
            faults.push(f);
        }
        if let Some(f) = maybe_fault(
            &translated_source,
            FaultCategory::Performance,
            profile.p_perf_regression,
            &mut self.rng,
        ) {
            faults.push(f);
        }

        self.state = Some(SessionState {
            clean_source: translated_source,
            faults,
        });
        let rendered = self.render();
        self.respond_with_code(&rendered, prompt_tokens, overflow)
    }

    fn handle_correction(
        &mut self,
        user_prompt: &str,
        prompt_tokens: usize,
        overflow: bool,
    ) -> LlmResponse {
        let is_execution_error = user_prompt.contains("execution error");
        let profile = self.model.profile;

        if self.state.is_none() {
            // The model is asked to fix code it never produced (e.g. the
            // pipeline was driven manually); adopt the code from the prompt.
            if let Some(code) = extract_code_block(user_prompt) {
                self.state = Some(SessionState {
                    clean_source: code,
                    faults: Vec::new(),
                });
            }
        }

        let repair_succeeds = self.rng.gen_bool(profile.p_repair_success);
        let introduces_new = self.rng.gen_bool(profile.p_repair_regression);

        if let Some(state) = &mut self.state {
            if repair_succeeds && !state.faults.is_empty() {
                // Prefer fixing a fault of the category the error message is about.
                let preferred = if is_execution_error {
                    [
                        FaultCategory::Runtime,
                        FaultCategory::Semantic,
                        FaultCategory::Compile,
                    ]
                } else {
                    [
                        FaultCategory::Compile,
                        FaultCategory::Runtime,
                        FaultCategory::Semantic,
                    ]
                };
                let idx = preferred
                    .iter()
                    .find_map(|cat| state.faults.iter().position(|f| f.category == *cat))
                    .unwrap_or(0);
                state.faults.remove(idx);
            }
            if introduces_new {
                if let Some(f) =
                    sample_fault(&state.clean_source, FaultCategory::Compile, &mut self.rng)
                {
                    state.faults.push(f);
                }
            }
        }

        let rendered = self.render();
        self.respond_with_code(&rendered, prompt_tokens, overflow)
    }

    fn handle_description(&mut self, user_prompt: &str, prompt_tokens: usize) -> LlmResponse {
        let text = match extract_code_block(user_prompt) {
            Some(code) => {
                let dialect = detect_dialect(&code);
                let kernels = code.matches("__global__").count();
                let pragmas = code.matches("#pragma omp").count();
                let lines = code.lines().count();
                format!(
                    "This is a {lines}-line {} program. It allocates its working buffers, initializes \
them on the host, and performs its main computation using {} before printing checksum values with \
printf. The parallel work iterates over the problem size with a guarded global index.",
                    dialect.display_name(),
                    if dialect == Dialect::CudaLite {
                        format!("{kernels} CUDA kernel(s) launched with explicit grid/block geometry")
                    } else {
                        format!("{pragmas} OpenMP target offload region(s)")
                    }
                )
            }
            None => "The prompt did not include a program to describe.".to_string(),
        };
        LlmResponse {
            response_tokens: count_tokens(&text),
            text,
            prompt_tokens,
            context_overflow: false,
        }
    }

    fn handle_knowledge_summary(&mut self, user_prompt: &str, prompt_tokens: usize) -> LlmResponse {
        let target = if user_prompt.contains("CUDA programming model") {
            Dialect::CudaLite
        } else {
            Dialect::OmpLite
        };
        let text = match target {
            Dialect::CudaLite => "Key points: kernels are __global__ void functions launched as \
kernel<<<(N + 255) / 256, 256>>>(...); compute the global index from blockIdx, blockDim and \
threadIdx and guard it against N; manage device memory with cudaMalloc/cudaMemcpy/cudaFree; \
synchronize with cudaDeviceSynchronize; use atomicAdd for concurrent updates."
                .to_string(),
            Dialect::OmpLite => {
                "Key points: offload loops with #pragma omp target teams distribute parallel for; \
move data with map(to:/from:/tofrom:) array sections or keep it resident with target data; use \
reduction(+:var) for sums, schedule(static) for regular loops, and #pragma omp atomic for \
concurrent updates; bound parallelism with num_teams/thread_limit."
                    .to_string()
            }
        };
        LlmResponse {
            response_tokens: count_tokens(&text),
            text,
            prompt_tokens,
            context_overflow: false,
        }
    }
}

/// Guess which dialect a piece of source text is written in.
pub fn detect_dialect(source: &str) -> Dialect {
    if source.contains("#pragma omp") {
        Dialect::OmpLite
    } else {
        Dialect::CudaLite
    }
}

impl ChatModel for SimulatedLlm {
    fn name(&self) -> &str {
        self.model.name
    }

    fn context_tokens(&self) -> usize {
        self.model.context_tokens
    }

    fn complete(&mut self, system_prompt: &str, user_prompt: &str) -> LlmResponse {
        let prompt_tokens = count_tokens(system_prompt) + count_tokens(user_prompt);
        let overflow = prompt_tokens > self.model.context_tokens;

        if user_prompt.contains("Summarize the following programming language reference") {
            return self.handle_knowledge_summary(user_prompt, prompt_tokens);
        }
        if user_prompt.contains("Describe what the following program computes") {
            return self.handle_description(user_prompt, prompt_tokens);
        }
        if user_prompt.contains("Re-factor the above code with a fix") {
            return self.handle_correction(user_prompt, prompt_tokens, overflow);
        }
        if user_prompt.contains("Generate new code to refactor") {
            return self.handle_translation(user_prompt, prompt_tokens, overflow);
        }
        LlmResponse {
            text: "Please provide a program to translate.".to_string(),
            prompt_tokens,
            response_tokens: 7,
            context_overflow: overflow,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{all_models, gpt4};
    use crate::prompts;
    use crate::prompts::PromptDictionary;

    const CUDA_SRC: &str = r#"
__global__ void scale(float* out, const float* in, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { out[i] = 2.0 * in[i]; }
}
int main() {
    int n = 64;
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
    return 0;
}
"#;

    fn translation_prompt() -> String {
        PromptDictionary::build_translation_prompt(
            Dialect::CudaLite,
            Dialect::OmpLite,
            "summary",
            "a vector scaling benchmark",
            CUDA_SRC,
        )
    }

    #[test]
    fn translation_response_contains_openmp_code_block() {
        let mut llm = SimulatedLlm::with_seed(gpt4(), 3);
        let resp = llm.complete(prompts::SYSTEM_CUDA_TO_OPENMP, &translation_prompt());
        let code = extract_code_block(&resp.text).expect("code block");
        assert!(code.contains("#pragma omp") || code.contains("__global__"));
        assert!(resp.prompt_tokens > 100);
        assert!(!resp.context_overflow);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SimulatedLlm::with_seed(gpt4(), 42);
        let mut b = SimulatedLlm::with_seed(gpt4(), 42);
        let ra = a.complete(prompts::SYSTEM_CUDA_TO_OPENMP, &translation_prompt());
        let rb = b.complete(prompts::SYSTEM_CUDA_TO_OPENMP, &translation_prompt());
        assert_eq!(ra.text, rb.text);
    }

    #[test]
    fn different_seeds_can_differ() {
        let outputs: Vec<String> = (0..16)
            .map(|seed| {
                let mut llm = SimulatedLlm::with_seed(all_models()[1].clone(), seed);
                llm.complete(prompts::SYSTEM_CUDA_TO_OPENMP, &translation_prompt())
                    .text
            })
            .collect();
        let unique: std::collections::HashSet<&String> = outputs.iter().collect();
        assert!(unique.len() > 1, "fault injection should vary across seeds");
    }

    #[test]
    fn correction_prompt_makes_progress() {
        // Use a seed/profile that injects at least one fault, then check that
        // repeated corrections eventually reproduce the clean translation.
        let mut llm = SimulatedLlm::with_seed(all_models()[1].clone(), 11);
        let first = llm.complete(prompts::SYSTEM_CUDA_TO_OPENMP, &translation_prompt());
        let mut code = extract_code_block(&first.text).unwrap();
        for _ in 0..40 {
            if llm.active_fault_labels().is_empty() {
                break;
            }
            let prompt = PromptDictionary::build_compile_correction_prompt(
                &code,
                "clang++ -O3 -fopenmp",
                "error: use of undeclared identifier",
            );
            let resp = llm.complete(prompts::SYSTEM_CUDA_TO_OPENMP, &prompt);
            code = extract_code_block(&resp.text).unwrap();
        }
        assert!(
            llm.active_fault_labels().is_empty(),
            "faults remain: {:?}",
            llm.active_fault_labels()
        );
    }

    #[test]
    fn description_and_summary_requests_answered() {
        let mut llm = SimulatedLlm::with_seed(gpt4(), 5);
        let desc = llm.complete(
            prompts::SYSTEM_GENERAL,
            &PromptDictionary::build_code_description_prompt(CUDA_SRC),
        );
        assert!(desc.text.contains("CUDA kernel"));
        let summary = llm.complete(
            prompts::SYSTEM_GENERAL,
            &PromptDictionary::build_knowledge_summary_prompt(Dialect::CudaLite),
        );
        assert!(summary.text.contains("cudaMalloc"));
    }

    #[test]
    fn rejected_translation_leaves_a_coded_diagnostic() {
        // A program with no main: the translation engine refuses it, the
        // model answers with the untranslated source, and the refusal stays
        // inspectable as a coded diagnostic naming the offending construct.
        let src = "__global__ void k(float* a) { a[0] = 1.0; }";
        let prompt = PromptDictionary::build_translation_prompt(
            Dialect::CudaLite,
            Dialect::OmpLite,
            "summary",
            "a kernel with no driver",
            src,
        );
        let mut llm = SimulatedLlm::with_seed(gpt4(), 3);
        let resp = llm.complete(prompts::SYSTEM_CUDA_TO_OPENMP, &prompt);
        let code = extract_code_block(&resp.text).unwrap();
        assert!(code.contains("__global__"), "untranslated source echoed");
        let diag = llm
            .last_translation_diagnostic()
            .expect("refusal diagnostic");
        assert_eq!(diag.code, "llm/unsupported-construct");
        assert!(
            diag.message.contains("no main function"),
            "{}",
            diag.message
        );
        // A clean translation clears it.
        let resp = llm.complete(prompts::SYSTEM_CUDA_TO_OPENMP, &translation_prompt());
        assert!(extract_code_block(&resp.text).is_some());
        assert!(llm.last_translation_diagnostic().is_none());
    }

    #[test]
    fn detect_dialect_heuristics() {
        assert_eq!(detect_dialect("#pragma omp parallel for"), Dialect::OmpLite);
        assert_eq!(detect_dialect("__global__ void k()"), Dialect::CudaLite);
    }

    #[test]
    fn context_overflow_is_flagged() {
        let mut tiny = gpt4();
        tiny.context_tokens = 50;
        let mut llm = SimulatedLlm::with_seed(tiny, 9);
        let resp = llm.complete(prompts::SYSTEM_CUDA_TO_OPENMP, &translation_prompt());
        assert!(resp.context_overflow);
    }
}
