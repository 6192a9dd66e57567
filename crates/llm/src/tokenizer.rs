//! Approximate tokenizer.
//!
//! LASSI only needs token counts to check that a constructed prompt fits
//! each model's context window (Table V) and to report prompt and response
//! sizes. A word/punctuation count with a sub-word heuristic tracks real BPE
//! tokenizers closely enough for that. (The Sim-T similarity metric
//! tokenizes code separately, with `lassi_metrics::tokenize_code`.)

/// Approximate the number of LLM tokens in `text`.
///
/// A word is a maximal run of alphanumeric or `_` characters. It costs one
/// token per started 4 characters, matching the common "~4 characters per
/// token" rule of thumb for code-heavy text, so words of up to 4 characters
/// are one token. Every other non-whitespace character is a token of its
/// own; whitespace only separates. One pass over the text, with no
/// allocation.
pub fn count_tokens(text: &str) -> usize {
    if text.is_ascii() {
        count(text.bytes().map(|b| ASCII_CLASS[usize::from(b)]))
    } else {
        count(text.chars().map(class_of))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Word,
    Space,
    Other,
}

fn class_of(c: char) -> Class {
    if c.is_alphanumeric() || c == '_' {
        Class::Word
    } else if c.is_whitespace() {
        Class::Space
    } else {
        Class::Other
    }
}

/// [`class_of`] for every ASCII character, looked up rather than computed
/// (`char::is_whitespace` also counts the vertical tab, `u8::is_ascii_whitespace`
/// does not).
const ASCII_CLASS: [Class; 128] = {
    let mut table = [Class::Other; 128];
    let mut b = 0;
    while b < 128 {
        let c = b as u8;
        if c.is_ascii_alphanumeric() || c == b'_' {
            table[b] = Class::Word;
        } else if matches!(c, b'\t' | b'\n' | 0x0b | 0x0c | b'\r' | b' ') {
            table[b] = Class::Space;
        }
        b += 1;
    }
    table
};

fn count(classes: impl Iterator<Item = Class>) -> usize {
    let mut tokens = 0;
    let mut word = 0usize;
    for class in classes {
        if class == Class::Word {
            word += 1;
        } else {
            tokens += word.div_ceil(4) + usize::from(class == Class::Other);
            word = 0;
        }
    }
    tokens + word.div_ceil(4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lassi_hecbench::applications;
    use lassi_lang::{print_program, Dialect};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use crate::prompts::PromptDictionary;
    use crate::translate::translate_program;

    /// The allocating splitter `count_tokens` replaced: one owned `String`
    /// per token. Kept as the oracle the one-pass count must match exactly.
    fn tokenize(text: &str) -> Vec<String> {
        let mut tokens = Vec::new();
        let mut current = String::new();
        for c in text.chars() {
            if c.is_alphanumeric() || c == '_' {
                current.push(c);
            } else {
                if !current.is_empty() {
                    tokens.push(std::mem::take(&mut current));
                }
                if !c.is_whitespace() {
                    tokens.push(c.to_string());
                }
            }
        }
        if !current.is_empty() {
            tokens.push(current);
        }
        tokens
    }

    /// The count `count_tokens` used to compute over [`tokenize`].
    fn oracle_count(text: &str) -> usize {
        tokenize(text)
            .iter()
            .map(|t| {
                if t.chars().count() <= 4 {
                    1
                } else {
                    t.chars().count().div_ceil(4)
                }
            })
            .sum()
    }

    fn assert_matches_oracle(text: &str) {
        assert_eq!(count_tokens(text), oracle_count(text), "text: {text:?}");
    }

    #[test]
    fn tokenize_code_line() {
        let toks = tokenize("out[i] = a[i] + b[i];");
        assert_eq!(
            toks,
            vec!["out", "[", "i", "]", "=", "a", "[", "i", "]", "+", "b", "[", "i", "]", ";"]
        );
        assert_eq!(count_tokens("out[i] = a[i] + b[i];"), 15);
    }

    #[test]
    fn ascii_table_agrees_with_the_char_predicates() {
        for (b, class) in ASCII_CLASS.iter().enumerate() {
            assert_eq!(*class, class_of(char::from(b as u8)), "byte {b:#04x}");
        }
    }

    #[test]
    fn count_scales_with_length() {
        let short = count_tokens("int x = 1;");
        let long = count_tokens(&"int x = 1;\n".repeat(100));
        assert!(long > short * 50);
    }

    #[test]
    fn long_identifiers_cost_more() {
        assert!(count_tokens("extraordinarily_long_identifier_name") > 1);
        assert_eq!(count_tokens("i"), 1);
    }

    #[test]
    fn empty_text_has_no_tokens() {
        assert_eq!(count_tokens(""), 0);
        assert_eq!(count_tokens("   \n\t \u{a0}\u{2003}"), 0);
        assert!(tokenize("   \n\t ").is_empty());
    }

    #[test]
    fn word_cost_steps_every_four_chars() {
        for (len, cost) in [(1, 1), (4, 1), (5, 2), (8, 2), (9, 3)] {
            let word = "w".repeat(len);
            assert_eq!(count_tokens(&word), cost, "{len}-char word");
            assert_eq!(count_tokens(&format!("({word})")), cost + 2);
            assert_matches_oracle(&word);
        }
    }

    #[test]
    fn unicode_words_and_separators_match_the_oracle() {
        for text in [
            "café_π٣ = 1;",
            "éééé ééééé",
            "π\u{a0}π\u{2003}ππππππππ",
            "a\u{b}b\u{c}c\r\nd",
            "\u{1c}x\u{1f}\u{85}y",
            "__ _ ____ _____",
            "naïve→résumé",
            "٣٣٣٣٣٣٣٣٣",
        ] {
            assert_matches_oracle(text);
        }
    }

    #[test]
    fn seeded_random_strings_match_the_oracle() {
        // Word characters (ASCII, Latin, Greek, Arabic-Indic digits, `_`),
        // ASCII and Unicode whitespace (vertical tab, NBSP, em space),
        // punctuation and control characters that are neither.
        const ALPHABET: [char; 22] = [
            'a', 'Z', '7', '_', 'é', 'π', '٣', ' ', '\n', '\t', '\r', '\u{b}', '\u{a0}',
            '\u{2003}', ';', '(', '*', '"', '\u{1c}', '→', '#', '\u{0}',
        ];
        let mut rng = StdRng::seed_from_u64(0x7ec0);
        for _ in 0..2_000 {
            let mut text = String::new();
            for _ in 0..rng.gen_range(0..24) {
                // Runs of one character carry word lengths across the
                // 4-character steps.
                let c = ALPHABET[rng.gen_range(0..ALPHABET.len())];
                text.extend(std::iter::repeat_n(c, rng.gen_range(1..11)));
            }
            assert_matches_oracle(&text);
            let ascii: String = text.chars().filter(char::is_ascii).collect();
            assert_matches_oracle(&ascii);
        }
    }

    #[test]
    fn reference_sources_and_their_prompts_match_the_oracle() {
        for app in applications() {
            for dialect in [Dialect::CudaLite, Dialect::OmpLite] {
                let source = app.source(dialect);
                let target = dialect.other();
                let program = app.parse(dialect).expect("reference parses");
                let translated =
                    print_program(&translate_program(&program, target).expect("translates"));
                let compiler = target.compiler_command();
                for text in [
                    source.to_string(),
                    PromptDictionary::build_translation_prompt(
                        dialect,
                        target,
                        PromptDictionary::language_knowledge(target),
                        app.category,
                        source,
                    ),
                    PromptDictionary::build_compile_correction_prompt(
                        &translated,
                        compiler,
                        "error: use of undeclared identifier 'd_out_tmp'",
                    ),
                    PromptDictionary::build_execution_correction_prompt(
                        &translated,
                        compiler,
                        "Segmentation fault (core dumped)",
                    ),
                ] {
                    assert_matches_oracle(&text);
                }
            }
        }
    }
}
