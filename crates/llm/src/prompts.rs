//! The LASSI prompt dictionary.
//!
//! Reproduces, verbatim, the prompt text from the paper:
//!
//! * Table I — system prompts (general purpose, CUDA→OpenMP, OpenMP→CUDA),
//! * Table II — target-language-specific translation prompts,
//! * Table III — compilation / execution self-correction prompts,
//!
//! plus condensed stand-ins for the programming-language knowledge the paper
//! injects (Chapter 5 of the CUDA C++ Programming Guide and the OpenMP 4.0
//! reference card), and the "self-prompting" requests used to summarise that
//! knowledge and the source code before translation.

use lassi_lang::Dialect;

/// The general-purpose system prompt (Table I, row 1).
pub const SYSTEM_GENERAL: &str = "You are a professional coding AI assistant that specializes in \
translating parallelized code between coding frameworks.";

/// CUDA → OpenMP system prompt (Table I, row 2).
pub const SYSTEM_CUDA_TO_OPENMP: &str = "You are a professional coding AI assistant that \
specializes in translating parallelized CUDA code to C++ code using OpenMP directives. Always \
provide the complete and fully functional translated code without placeholders, comments, or \
references suggesting that parts of the original code should be included. Ensure every part of \
the translated code is explicitly written out. Surround your new generated code with the three \
characters```.";

/// OpenMP → CUDA system prompt (Table I, row 3).
pub const SYSTEM_OPENMP_TO_CUDA: &str = "You are a professional coding AI assistant that \
specializes in translating parallelized C++ code using OpenMP directives to the CUDA framework. \
Always provide the complete and fully functional translated code without placeholders, comments, \
or references suggesting that parts of the original code should be included. Ensure every part of \
the translated code is explicitly written out. Surround your new generated code with the three \
characters```.";

/// OpenMP → CUDA translation prompt (Table II, row 1).
pub const TRANSLATE_OPENMP_TO_CUDA: &str = "Generate new code to refactor the following \
parallelized C++ program written with OpenMP to instead use the CUDA framework. Provide the \
complete translated CUDA code without any placeholders, comments, or references suggesting that \
parts of the original code should be included. Every part of the translated code should be \
explicitly written out. Avoid explanation of the code.";

/// CUDA → OpenMP translation prompt (Table II, row 2).
pub const TRANSLATE_CUDA_TO_OPENMP: &str = "Generate new code to refactor the following \
parallelized CUDA program to instead use C++ code written with OpenMP directives. To enable GPU \
offloading, use the 'omp pragma' directive 'target teams' for distributing 'for' loop \
computations. Use static scheduling when needed and avoid dynamic scheduling. Provide the \
complete translated C++ code without any placeholders, comments, or references suggesting that \
parts of the original code should be included. Every part of the translated code should be \
explicitly written out. Avoid explanation of the code.";

/// A condensed stand-in for Chapter 5 of the CUDA C++ Programming Guide
/// (the paper injects roughly 4,053 tokens of it as domain knowledge).
pub const CUDA_KNOWLEDGE: &str = "CUDA programming model summary. A kernel is declared with the \
__global__ qualifier and returns void. Kernels are launched with the execution configuration \
syntax kernel<<<gridDim, blockDim>>>(arguments); gridDim and blockDim may be integers or dim3 \
values. Inside a kernel the built-in variables threadIdx, blockIdx, blockDim and gridDim identify \
each thread; a global index is typically computed as blockIdx.x * blockDim.x + threadIdx.x and \
guarded against the problem size. Device memory is managed with cudaMalloc and cudaFree, and data \
moves between host and device with cudaMemcpy using cudaMemcpyHostToDevice or \
cudaMemcpyDeviceToHost. cudaDeviceSynchronize waits for kernels to finish. Shared memory is \
declared with __shared__ and synchronized with __syncthreads. Atomic updates use atomicAdd, \
atomicMin and atomicMax. Blocks are limited to 1024 threads; choose the block size (commonly 256) \
and compute the grid size as (N + blockSize - 1) / blockSize.";

/// A condensed stand-in for the OpenMP 4.0 C/C++ reference card
/// (the paper injects roughly 7,290 tokens of it).
pub const OPENMP_KNOWLEDGE: &str = "OpenMP target offload summary. Work is offloaded to an \
attached device with #pragma omp target; loops are distributed across teams and threads with \
#pragma omp target teams distribute parallel for. Data movement is controlled with map clauses: \
map(to: a[0:n]) copies data to the device, map(from: b[0:n]) copies results back, map(tofrom: ...) \
does both, and #pragma omp target data creates a structured region that keeps data resident \
across multiple target regions. Reductions use reduction(op: var) with +, *, min or max. \
num_teams, thread_limit and num_threads bound the parallelism; schedule(static) divides \
iterations evenly while schedule(dynamic) assigns chunks on demand and adds runtime overhead. \
collapse(n) merges n perfectly nested loops. Atomic updates use #pragma omp atomic. Host-only \
parallelism uses #pragma omp parallel for. omp_get_wtime returns wall-clock time.";

/// The self-prompting request used to summarise the language knowledge.
pub const SELF_PROMPT_KNOWLEDGE_SUMMARY: &str = "Summarize the following programming language \
reference so that you can use it later when translating code. Keep every API name exact.";

/// The self-prompting request used to summarise the source code.
pub const SELF_PROMPT_CODE_DESCRIPTION: &str = "Describe what the following program computes and \
how it is parallelized, in a short paragraph. Keep every identifier exact.";

/// The prompt dictionary: every piece of prompt text used by the pipeline,
/// keyed by translation direction. New target languages are added by
/// extending this dictionary, without touching the pipeline itself.
#[derive(Debug, Clone)]
pub struct PromptDictionary;

impl PromptDictionary {
    /// System prompt for a translation direction (Table I).
    pub fn system_prompt(source: Dialect, target: Dialect) -> &'static str {
        match (source, target) {
            (Dialect::CudaLite, Dialect::OmpLite) => SYSTEM_CUDA_TO_OPENMP,
            (Dialect::OmpLite, Dialect::CudaLite) => SYSTEM_OPENMP_TO_CUDA,
            _ => SYSTEM_GENERAL,
        }
    }

    /// Translation prompt for a direction (Table II).
    pub fn translation_prompt(source: Dialect, target: Dialect) -> &'static str {
        match (source, target) {
            (Dialect::OmpLite, Dialect::CudaLite) => TRANSLATE_OPENMP_TO_CUDA,
            _ => TRANSLATE_CUDA_TO_OPENMP,
        }
    }

    /// Domain-knowledge passage for the *target* language.
    pub fn language_knowledge(target: Dialect) -> &'static str {
        match target {
            Dialect::CudaLite => CUDA_KNOWLEDGE,
            Dialect::OmpLite => OPENMP_KNOWLEDGE,
        }
    }

    /// The full translation prompt (§III-C): knowledge context, the LLM's own
    /// summaries, and the translation request wrapping the source code.
    pub fn build_translation_prompt(
        source: Dialect,
        target: Dialect,
        knowledge_summary: &str,
        code_description: &str,
        source_code: &str,
    ) -> String {
        format!(
            "{knowledge}\n\n{summary}\n\nThink carefully before developing the following code that \
you describe as: {description}. Now, {translate}:\n```\n{code}\n```\n",
            knowledge = Self::language_knowledge(target),
            summary = knowledge_summary,
            description = code_description,
            translate = Self::translation_prompt(source, target),
            code = source_code,
        )
    }

    /// Compile-error self-correction prompt (Table III, row 1).
    pub fn build_compile_correction_prompt(
        generated_code: &str,
        compiler_command: &str,
        error_output: &str,
    ) -> String {
        format!(
            "```\n{generated_code}\n```\n-- The above code was compiled with `{compiler_command}` \
and produced the following compile error: {error_output}. Re-factor the above code with a fix to \
eliminate the stated error."
        )
    }

    /// Execution-error self-correction prompt (Table III, row 2).
    pub fn build_execution_correction_prompt(
        generated_code: &str,
        compiler_command: &str,
        error_output: &str,
    ) -> String {
        format!(
            "```\n{generated_code}\n```\n-- The above code was executed after a successful compile \
with `{compiler_command}` and produced the following execution error: {error_output}. Re-factor \
the above code with a fix to eliminate the stated error."
        )
    }

    /// The self-prompt asking the model to summarise the knowledge passage.
    pub fn build_knowledge_summary_prompt(target: Dialect) -> String {
        format!(
            "{SELF_PROMPT_KNOWLEDGE_SUMMARY}\n\n{}",
            Self::language_knowledge(target)
        )
    }

    /// The self-prompt asking the model to describe the source code.
    pub fn build_code_description_prompt(source_code: &str) -> String {
        format!("{SELF_PROMPT_CODE_DESCRIPTION}\n```\n{source_code}\n```\n")
    }
}

/// Extract the last ``` fenced code block from a chunk of text (prompt or
/// response). Returns `None` when no complete fence pair exists.
pub fn extract_code_block(text: &str) -> Option<String> {
    let mut last = None;
    let mut rest = text;
    while let Some(start) = rest.find("```") {
        let after = &rest[start + 3..];
        // Skip an optional language tag on the fence line.
        let body_start = after.find('\n').map(|p| p + 1).unwrap_or(0);
        let body = &after[body_start..];
        let Some(end) = body.find("```") else {
            break;
        };
        let block = body[..end].trim();
        if !block.is_empty() {
            last = Some(block);
        }
        rest = &body[end + 3..];
    }
    last.map(str::to_owned)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_prompts_match_direction() {
        assert!(
            PromptDictionary::system_prompt(Dialect::CudaLite, Dialect::OmpLite)
                .contains("CUDA code to C++ code using OpenMP")
        );
        assert!(
            PromptDictionary::system_prompt(Dialect::OmpLite, Dialect::CudaLite)
                .contains("OpenMP directives to the CUDA framework")
        );
        assert_eq!(
            PromptDictionary::system_prompt(Dialect::CudaLite, Dialect::CudaLite),
            SYSTEM_GENERAL
        );
    }

    #[test]
    fn translation_prompt_mentions_target_guidance() {
        let p = PromptDictionary::translation_prompt(Dialect::CudaLite, Dialect::OmpLite);
        assert!(p.contains("target teams"));
        assert!(p.contains("static scheduling"));
        let q = PromptDictionary::translation_prompt(Dialect::OmpLite, Dialect::CudaLite);
        assert!(q.contains("CUDA framework"));
    }

    #[test]
    fn full_prompt_contains_all_four_parts() {
        let prompt = PromptDictionary::build_translation_prompt(
            Dialect::OmpLite,
            Dialect::CudaLite,
            "SUMMARY-MARKER",
            "DESCRIPTION-MARKER",
            "int main() { return 0; }",
        );
        assert!(prompt.contains("CUDA programming model summary"));
        assert!(prompt.contains("SUMMARY-MARKER"));
        assert!(prompt.contains("DESCRIPTION-MARKER"));
        assert!(prompt.contains("int main() { return 0; }"));
        assert!(prompt.contains("Think carefully"));
    }

    #[test]
    fn correction_prompts_embed_error_text() {
        let c = PromptDictionary::build_compile_correction_prompt("CODE", "nvcc -O3", "error: x");
        assert!(c.contains("compile error: error: x"));
        assert!(c.contains("Re-factor"));
        let e = PromptDictionary::build_execution_correction_prompt("CODE", "nvcc -O3", "boom");
        assert!(e.contains("execution error: boom"));
    }

    #[test]
    fn repair_prompt_renders_structured_diagnostics_byte_stably() {
        // Golden test: the repair prompt built from structured diagnostics
        // (code + span + notes) is pinned byte for byte. The scenario cache
        // key follows these bytes through the source fingerprint, so a
        // change here misses every cached record.
        use lassi_lang::diag::{render_structured, Diagnostic};
        let diags = vec![
            Diagnostic::warning(
                3,
                "'omp_get_wtime' requires linking against the OpenMP runtime",
            )
            .with_code("sema/omp-runtime-in-cuda"),
            Diagnostic::error(14, "use of undeclared identifier 'd_out'")
                .with_code("sema/undeclared-ident")
                .with_note(7, "'d_out' was freed here"),
        ];
        let build = || {
            PromptDictionary::build_compile_correction_prompt(
                "int main() { return 0; }",
                "nvcc -O3",
                &render_structured(&diags),
            )
        };
        let golden = "```\nint main() { return 0; }\n```\n-- The above code was compiled with \
`nvcc -O3` and produced the following compile error: \
error[sema/undeclared-ident]: line 14: use of undeclared identifier 'd_out'\n\
\x20 note: line 7: 'd_out' was freed here\n\
warning[sema/omp-runtime-in-cuda]: line 3: 'omp_get_wtime' requires linking against the OpenMP \
runtime. Re-factor the above code with a fix to eliminate the stated error.";
        assert_eq!(build(), golden);
        // Deterministic: identical input renders to identical bytes.
        assert_eq!(build(), build());
    }

    #[test]
    fn extract_code_block_finds_last_block() {
        let text = "intro\n```\nfirst block\n```\nmiddle\n```cpp\nsecond block\n```\ntail";
        assert_eq!(extract_code_block(text).unwrap(), "second block");
        assert_eq!(extract_code_block("no fences here"), None);
    }

    #[test]
    fn extract_code_block_skips_a_trailing_empty_block() {
        let text = "```\nint x;\n```\nthen\n```cpp\n  \n```\n```\n```";
        assert_eq!(extract_code_block(text).unwrap(), "int x;");
        assert_eq!(extract_code_block("```\n\n```"), None);
    }

    #[test]
    fn extract_code_block_ignores_an_unterminated_fence() {
        let text = "```\nfirst\n```\n```\nnever closed";
        assert_eq!(extract_code_block(text).unwrap(), "first");
        assert_eq!(extract_code_block("```\nnever closed"), None);
    }

    #[test]
    fn knowledge_token_budget_is_modest() {
        // The stand-in passages must fit comfortably inside even the smallest
        // context window used in the paper (16,384 tokens for Wizard Coder).
        let cuda = crate::tokenizer::count_tokens(CUDA_KNOWLEDGE);
        let omp = crate::tokenizer::count_tokens(OPENMP_KNOWLEDGE);
        assert!(cuda > 50 && cuda < 4_053);
        assert!(omp > 50 && omp < 7_290);
    }
}
