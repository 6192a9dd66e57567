//! Fault classes the simulated LLM can introduce into an otherwise correct
//! translation, and the text transformations that realise them.
//!
//! Each fault is recorded with enough information to be applied
//! deterministically to the clean translated source, so the simulated model
//! can *repair* a translation during the self-correction loop by dropping
//! faults from its list and re-rendering — exactly the observable behaviour
//! (error → re-prompt → new code) the LASSI pipeline is built around.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// What a fault does to the generated program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultCategory {
    /// The program no longer compiles.
    Compile,
    /// The program compiles but fails at runtime.
    Runtime,
    /// The program runs but produces different output (N/A in the tables).
    Semantic,
    /// The program is correct but slower.
    Performance,
}

/// Concrete fault kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Remove the trailing `;` from a statement line.
    DropSemicolon {
        /// Index of the affected line in the clean source.
        line: usize,
    },
    /// Misspell one occurrence of an identifier.
    MisspellIdentifier {
        /// Original identifier.
        from: String,
        /// Misspelled replacement.
        to: String,
    },
    /// Use a wrong API name (e.g. `cudaMemCopy`).
    WrongApiName {
        /// Correct name appearing in the clean source.
        from: String,
        /// The wrong name the model writes.
        to: String,
    },
    /// Delete a variable declaration line entirely.
    RemoveDeclaration {
        /// Index of the declaration line.
        line: usize,
    },
    /// Replace a `i < bound` guard with `i <= bound` (off-by-one overrun).
    LoosenBoundsCheck {
        /// Index of the line containing the guard.
        line: usize,
    },
    /// Drop a `map(...)` clause from an offload pragma.
    DropMapClause {
        /// Index of the pragma line.
        line: usize,
    },
    /// Drop the copy-back `cudaMemcpy(..., cudaMemcpyDeviceToHost)` call.
    DropCopyBack {
        /// Index of the memcpy line.
        line: usize,
    },
    /// Serialize the parallel work (thread_limit/num_threads/block size → 1).
    SerializeParallelism,
    /// Perturb a numeric constant so the output changes.
    PerturbConstant {
        /// The literal text being replaced.
        from: String,
        /// Its replacement.
        to: String,
    },
}

/// A fault instance: kind plus its category.
#[derive(Debug, Clone, PartialEq)]
pub struct Fault {
    /// What the fault is.
    pub kind: FaultKind,
    /// How it manifests.
    pub category: FaultCategory,
}

impl Fault {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self.kind {
            FaultKind::DropSemicolon { .. } => "drop_semicolon",
            FaultKind::MisspellIdentifier { .. } => "misspell_identifier",
            FaultKind::WrongApiName { .. } => "wrong_api_name",
            FaultKind::RemoveDeclaration { .. } => "remove_declaration",
            FaultKind::LoosenBoundsCheck { .. } => "loosen_bounds_check",
            FaultKind::DropMapClause { .. } => "drop_map_clause",
            FaultKind::DropCopyBack { .. } => "drop_copy_back",
            FaultKind::SerializeParallelism => "serialize_parallelism",
            FaultKind::PerturbConstant { .. } => "perturb_constant",
        }
    }

    /// Apply this fault to source text.
    pub fn apply(&self, source: &str) -> String {
        let mut lines = split_lines(source);
        self.apply_lines(&mut lines);
        join_lines(&lines)
    }

    /// Apply this fault in place to source text split into lines, as
    /// [`str::lines`] splits it.
    pub fn apply_lines(&self, lines: &mut Vec<String>) {
        match &self.kind {
            FaultKind::DropSemicolon { line } => {
                if let Some(l) = lines.get_mut(*line) {
                    if let Some(pos) = l.rfind(';') {
                        l.remove(pos);
                    }
                }
            }
            FaultKind::MisspellIdentifier { from, to } | FaultKind::WrongApiName { from, to } => {
                // Replace the *last* whole-word occurrence so declarations
                // stay intact and the use site becomes undefined.
                for l in lines.iter_mut().rev() {
                    if let Some(new) = replace_last_word(l, from, to) {
                        *l = new;
                        break;
                    }
                }
            }
            FaultKind::RemoveDeclaration { line } | FaultKind::DropCopyBack { line } => {
                if *line < lines.len() {
                    lines.remove(*line);
                }
            }
            FaultKind::LoosenBoundsCheck { line } => {
                if let Some(l) = lines.get_mut(*line) {
                    if let Some(pos) = l.find(" < ") {
                        l.replace_range(pos..pos + 3, " <= ");
                    }
                }
            }
            FaultKind::DropMapClause { line } => {
                if let Some(l) = lines.get_mut(*line) {
                    if let Some(start) = l.find(" map(") {
                        if let Some(rel_end) = l[start + 1..].find(')') {
                            l.replace_range(start..start + 1 + rel_end + 1, "");
                        }
                    }
                }
            }
            FaultKind::SerializeParallelism => {
                for l in lines.iter_mut() {
                    if l.contains("#pragma omp") {
                        *l = l
                            .replace("thread_limit(256)", "thread_limit(1)")
                            .replace("thread_limit(128)", "thread_limit(1)")
                            .replace("thread_limit(512)", "thread_limit(1)")
                            .replace("num_threads(256)", "num_threads(1)")
                            .replace("num_threads(128)", "num_threads(1)");
                        if !l.contains("thread_limit(") && !l.contains("num_threads(") {
                            l.push_str(" num_teams(1) thread_limit(1)");
                        }
                    }
                    if l.contains("<<<") {
                        // kernel<<<grid, block>>>  →  kernel<<<grid, 1>>>
                        if let (Some(comma), Some(end)) = (l.find(", "), l.find(">>>")) {
                            if comma < end {
                                l.replace_range(comma..end, ", 1");
                            }
                        }
                    }
                }
            }
            FaultKind::PerturbConstant { from, to } => {
                for l in lines.iter_mut().rev() {
                    if let Some(pos) = l.find(from.as_str()) {
                        l.replace_range(pos..pos + from.len(), to);
                        break;
                    }
                }
            }
        }
    }
}

/// Apply `faults` in order to `source` with one split and one join: the
/// same bytes as folding [`Fault::apply`] over them. With no faults,
/// `source` comes back unchanged.
pub(crate) fn apply_faults(source: &str, faults: &[Fault]) -> String {
    if faults.is_empty() {
        return source.to_string();
    }
    let mut lines = split_lines(source);
    for (i, fault) in faults.iter().enumerate() {
        if i > 0 {
            resplit(&mut lines);
        }
        fault.apply_lines(&mut lines);
    }
    join_lines(&lines)
}

fn split_lines(source: &str) -> Vec<String> {
    source.lines().map(str::to_owned).collect()
}

fn join_lines(lines: &[String]) -> String {
    let mut text = lines.join("\n");
    text.push('\n');
    text
}

/// Make `lines` what the fold's next `split_lines(&join_lines(lines))` would
/// give. That only differs when there are no lines, or when a line holds a
/// line break or ends in `\r`, which none of the sampled faults produce.
fn resplit(lines: &mut Vec<String>) {
    if lines.is_empty() || lines.iter().any(|l| l.contains('\n') || l.ends_with('\r')) {
        *lines = split_lines(&join_lines(lines));
    }
}

fn is_word_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

fn replace_last_word(line: &str, from: &str, to: &str) -> Option<String> {
    if from.is_empty() {
        return None;
    }
    let mut result = None;
    let mut search_start = 0usize;
    while let Some(rel) = line[search_start..].find(from) {
        let start = search_start + rel;
        let end = start + from.len();
        let before_ok = start == 0 || !is_word_char(line[..start].chars().next_back().unwrap());
        let after_ok = end >= line.len() || !is_word_char(line[end..].chars().next().unwrap());
        if before_ok && after_ok {
            result = Some(start);
        }
        search_start = end;
    }
    result.map(|start| {
        let mut s = line.to_string();
        s.replace_range(start..start + from.len(), to);
        s
    })
}

/// Pick a fault of the requested category that is applicable to `source`.
/// Returns `None` when no site for that category exists in the code.
pub fn sample_fault(source: &str, category: FaultCategory, rng: &mut StdRng) -> Option<Fault> {
    let lines: Vec<&str> = source.lines().collect();
    match category {
        FaultCategory::Compile => {
            let mut candidates: Vec<Fault> = Vec::new();
            // Statement lines whose semicolon can be dropped.
            let stmt_lines: Vec<usize> = lines
                .iter()
                .enumerate()
                .filter(|(_, l)| l.trim_end().ends_with(';') && !l.contains("for ("))
                .map(|(i, _)| i)
                .collect();
            if let Some(&line) = stmt_lines.choose(rng) {
                candidates.push(Fault {
                    kind: FaultKind::DropSemicolon { line },
                    category,
                });
            }
            // Misspell a declared pointer or scalar.
            for ident in collect_declared_identifiers(&lines) {
                candidates.push(Fault {
                    kind: FaultKind::MisspellIdentifier {
                        to: format!("{ident}_tmp"),
                        from: ident,
                    },
                    category,
                });
            }
            for (api, wrong) in [
                ("cudaMemcpy", "cudaMemCopy"),
                ("cudaMalloc", "cudaMallocManagedX"),
                ("__syncthreads", "__synchthreads"),
                ("atomicAdd", "atomicAddFloat"),
                (
                    "omp target teams distribute parallel for",
                    "omp target team distribute parallel for",
                ),
            ] {
                if source.contains(api) {
                    candidates.push(Fault {
                        kind: FaultKind::WrongApiName {
                            from: api.to_string(),
                            to: wrong.to_string(),
                        },
                        category,
                    });
                }
            }
            let decl_lines: Vec<usize> = lines
                .iter()
                .enumerate()
                .filter(|(_, l)| {
                    let t = l.trim_start();
                    (t.starts_with("int ") || t.starts_with("float* ") || t.starts_with("double* "))
                        && t.ends_with(';')
                        && !t.contains("for ")
                })
                .map(|(i, _)| i)
                .collect();
            if let Some(&line) = decl_lines.choose(rng) {
                candidates.push(Fault {
                    kind: FaultKind::RemoveDeclaration { line },
                    category,
                });
            }
            candidates.choose(rng).cloned()
        }
        FaultCategory::Runtime => {
            let mut candidates: Vec<Fault> = Vec::new();
            let guard_lines: Vec<usize> = lines
                .iter()
                .enumerate()
                .filter(|(_, l)| l.contains("if (") && l.contains(" < "))
                .map(|(i, _)| i)
                .collect();
            if let Some(&line) = guard_lines.choose(rng) {
                candidates.push(Fault {
                    kind: FaultKind::LoosenBoundsCheck { line },
                    category,
                });
            }
            let map_lines: Vec<usize> = lines
                .iter()
                .enumerate()
                .filter(|(_, l)| l.contains("#pragma omp target") && l.contains("map("))
                .map(|(i, _)| i)
                .collect();
            if let Some(&line) = map_lines.choose(rng) {
                candidates.push(Fault {
                    kind: FaultKind::DropMapClause { line },
                    category,
                });
            }
            candidates.choose(rng).cloned()
        }
        FaultCategory::Semantic => {
            let mut candidates: Vec<Fault> = Vec::new();
            let copy_back: Vec<usize> = lines
                .iter()
                .enumerate()
                .filter(|(_, l)| l.contains("cudaMemcpyDeviceToHost"))
                .map(|(i, _)| i)
                .collect();
            if let Some(&line) = copy_back.choose(rng) {
                candidates.push(Fault {
                    kind: FaultKind::DropCopyBack { line },
                    category,
                });
            }
            for constant in ["2.0", "1.0", "0.5", "3.0", "100"] {
                if source.contains(constant) {
                    candidates.push(Fault {
                        kind: FaultKind::PerturbConstant {
                            from: constant.to_string(),
                            to: perturb(constant),
                        },
                        category,
                    });
                }
            }
            candidates.choose(rng).cloned()
        }
        FaultCategory::Performance => {
            if source.contains("#pragma omp") || source.contains("<<<") {
                Some(Fault {
                    kind: FaultKind::SerializeParallelism,
                    category,
                })
            } else {
                None
            }
        }
    }
}

fn perturb(constant: &str) -> String {
    format!("{constant}7")
}

fn collect_declared_identifiers(lines: &[&str]) -> Vec<String> {
    let mut out = Vec::new();
    for l in lines {
        let t = l.trim_start();
        for prefix in ["float* ", "double* ", "int* ", "long* "] {
            if let Some(rest) = t.strip_prefix(prefix) {
                let name: String = rest.chars().take_while(|c| is_word_char(*c)).collect();
                if name.len() > 2 && !out.contains(&name) {
                    out.push(name);
                }
            }
        }
    }
    out
}

/// Draw a fault of category `category` with probability `p`; used by the
/// session when composing a translation response.
pub fn maybe_fault(
    source: &str,
    category: FaultCategory,
    p: f64,
    rng: &mut StdRng,
) -> Option<Fault> {
    if rng.gen_bool(p.clamp(0.0, 1.0)) {
        sample_fault(source, category, rng)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    const SAMPLE: &str = "int main() {\n    int n = 128;\n    float* d_out;\n    double sum = 2.0;\n    cudaMemcpy(h, d_out, n, cudaMemcpyDeviceToHost);\n    if (i < n) {\n    }\n    #pragma omp target teams distribute parallel for map(to: a[0:n]) thread_limit(256)\n    printf(\"%f\\n\", sum);\n    return 0;\n}\n";

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn drop_semicolon_removes_one() {
        let f = Fault {
            kind: FaultKind::DropSemicolon { line: 1 },
            category: FaultCategory::Compile,
        };
        let out = f.apply(SAMPLE);
        assert!(out.contains("int n = 128\n"));
    }

    #[test]
    fn misspell_changes_use_site_only() {
        let f = Fault {
            kind: FaultKind::MisspellIdentifier {
                from: "d_out".into(),
                to: "d_out_tmp".into(),
            },
            category: FaultCategory::Compile,
        };
        let out = f.apply(SAMPLE);
        // Declaration (first occurrence) intact, last use misspelled.
        assert!(out.contains("float* d_out;"));
        assert!(out.contains("d_out_tmp"));
    }

    #[test]
    fn loosen_bounds_check() {
        let f = Fault {
            kind: FaultKind::LoosenBoundsCheck { line: 5 },
            category: FaultCategory::Runtime,
        };
        let out = f.apply(SAMPLE);
        assert!(out.contains("if (i <= n)"));
    }

    #[test]
    fn drop_map_clause() {
        let f = Fault {
            kind: FaultKind::DropMapClause { line: 7 },
            category: FaultCategory::Runtime,
        };
        let out = f.apply(SAMPLE);
        assert!(!out.contains("map(to: a[0:n])"));
        assert!(out.contains("#pragma omp target teams distribute parallel for"));
    }

    #[test]
    fn serialize_parallelism_drops_thread_budget() {
        let f = Fault {
            kind: FaultKind::SerializeParallelism,
            category: FaultCategory::Performance,
        };
        let out = f.apply(SAMPLE);
        assert!(out.contains("thread_limit(1)"));
    }

    #[test]
    fn drop_copy_back_removes_line() {
        let f = Fault {
            kind: FaultKind::DropCopyBack { line: 4 },
            category: FaultCategory::Semantic,
        };
        let out = f.apply(SAMPLE);
        assert!(!out.contains("cudaMemcpyDeviceToHost"));
    }

    #[test]
    fn perturb_constant_changes_output_value() {
        let f = Fault {
            kind: FaultKind::PerturbConstant {
                from: "2.0".into(),
                to: "2.07".into(),
            },
            category: FaultCategory::Semantic,
        };
        let out = f.apply(SAMPLE);
        assert!(out.contains("sum = 2.07;"));
    }

    #[test]
    fn sampling_finds_applicable_sites() {
        let mut r = rng();
        for category in [
            FaultCategory::Compile,
            FaultCategory::Runtime,
            FaultCategory::Semantic,
            FaultCategory::Performance,
        ] {
            let fault = sample_fault(SAMPLE, category, &mut r);
            assert!(fault.is_some(), "no fault found for {category:?}");
            assert_eq!(fault.unwrap().category, category);
        }
    }

    #[test]
    fn sampling_handles_code_without_sites() {
        let mut r = rng();
        let plain = "int main() {\n    return 0;\n}\n";
        assert!(sample_fault(plain, FaultCategory::Performance, &mut r).is_none());
        assert!(sample_fault(plain, FaultCategory::Runtime, &mut r).is_none());
    }

    #[test]
    fn maybe_fault_respects_probability() {
        let mut r = rng();
        assert!(maybe_fault(SAMPLE, FaultCategory::Compile, 0.0, &mut r).is_none());
        assert!(maybe_fault(SAMPLE, FaultCategory::Compile, 1.0, &mut r).is_some());
    }

    fn fault(kind: FaultKind) -> Fault {
        Fault {
            kind,
            category: FaultCategory::Compile,
        }
    }

    /// What rendering did before [`apply_faults`]: one split and join per fault.
    fn fold(source: &str, faults: &[Fault]) -> String {
        faults
            .iter()
            .fold(source.to_string(), |text, f| f.apply(&text))
    }

    fn assert_matches_fold(source: &str, faults: &[Fault]) {
        assert_eq!(
            apply_faults(source, faults),
            fold(source, faults),
            "source {source:?}, faults {faults:?}"
        );
    }

    /// One fault of every kind with a site in [`SAMPLE`].
    fn every_kind() -> Vec<Fault> {
        [
            FaultKind::DropSemicolon { line: 1 },
            FaultKind::MisspellIdentifier {
                from: "d_out".into(),
                to: "d_out_tmp".into(),
            },
            FaultKind::WrongApiName {
                from: "cudaMemcpy".into(),
                to: "cudaMemCopy".into(),
            },
            FaultKind::RemoveDeclaration { line: 2 },
            FaultKind::LoosenBoundsCheck { line: 5 },
            FaultKind::DropMapClause { line: 7 },
            FaultKind::DropCopyBack { line: 4 },
            FaultKind::SerializeParallelism,
            FaultKind::PerturbConstant {
                from: "2.0".into(),
                to: "2.07".into(),
            },
        ]
        .into_iter()
        .map(fault)
        .collect()
    }

    #[test]
    fn no_faults_return_the_source_unchanged() {
        for source in [SAMPLE, "int x;", "a\r\nb", ""] {
            assert_eq!(apply_faults(source, &[]), source);
        }
    }

    #[test]
    fn one_split_render_matches_the_fold_for_every_kind_and_pair() {
        let blank_lines = SAMPLE.replace("{\n", "{\n\n").replace(";\n", ";\n\n");
        let sources = [
            SAMPLE,
            SAMPLE.trim_end_matches('\n'),
            blank_lines.as_str(),
            &format!("\n\n{SAMPLE}\n\n"),
        ];
        let kinds = every_kind();
        for source in sources {
            assert_matches_fold(source, &kinds);
            assert_matches_fold(source, &kinds.iter().rev().cloned().collect::<Vec<_>>());
            for a in &kinds {
                assert_matches_fold(source, std::slice::from_ref(a));
                for b in &kinds {
                    assert_matches_fold(source, &[a.clone(), b.clone()]);
                }
            }
        }
    }

    #[test]
    fn removed_lines_shift_later_line_indexed_faults() {
        for removal in [
            FaultKind::RemoveDeclaration { line: 1 },
            FaultKind::DropCopyBack { line: 1 },
        ] {
            let faults = [
                fault(removal),
                fault(FaultKind::DropSemicolon { line: 1 }),
                fault(FaultKind::LoosenBoundsCheck { line: 4 }),
                fault(FaultKind::DropMapClause { line: 6 }),
            ];
            let out = apply_faults(SAMPLE, &faults);
            assert_eq!(out, fold(SAMPLE, &faults));
            // Line 1 is now the `d_out` declaration, and the guard and the
            // pragma each moved up one line.
            assert!(!out.contains("int n = 128"));
            assert!(out.contains("    float* d_out\n"));
            assert!(out.contains("if (i <= n)"));
            assert!(!out.contains("map(to: a[0:n])"));
        }
    }

    #[test]
    fn one_split_render_matches_the_fold_on_degenerate_text() {
        let kinds = every_kind();
        let crlf = SAMPLE.replace('\n', "\r\n");
        for source in ["", "\n", "\n\n", "x;\r\r\ny;\r", crlf.as_str()] {
            assert_matches_fold(source, &kinds);
        }
        // Faults the sampler never draws: a line break in a replacement, and
        // an empty pattern after the last line is gone.
        let split = fault(FaultKind::MisspellIdentifier {
            from: "d_out".into(),
            to: "d_\nout".into(),
        });
        assert_matches_fold(SAMPLE, &[split, kinds[0].clone(), kinds[4].clone()]);
        let faults = [
            fault(FaultKind::RemoveDeclaration { line: 0 }),
            fault(FaultKind::PerturbConstant {
                from: String::new(),
                to: "x".into(),
            }),
            fault(FaultKind::MisspellIdentifier {
                from: String::new(),
                to: "y".into(),
            }),
        ];
        assert_matches_fold("int x;", &faults);
    }

    #[test]
    fn stacked_sampled_faults_on_translated_references_match_the_fold() {
        use lassi_lang::print_program;
        use rand::Rng;

        const CATEGORIES: [FaultCategory; 4] = [
            FaultCategory::Compile,
            FaultCategory::Runtime,
            FaultCategory::Semantic,
            FaultCategory::Performance,
        ];
        for app in lassi_hecbench::applications() {
            for dialect in [lassi_lang::Dialect::CudaLite, lassi_lang::Dialect::OmpLite] {
                let program = app.parse(dialect).expect("reference parses");
                let translated = crate::translate::translate_program(&program, dialect.other())
                    .expect("reference translates");
                let clean = print_program(&translated);
                for seed in 0..8 {
                    let mut r = StdRng::seed_from_u64(seed);
                    let faults: Vec<Fault> = (0..2 + r.gen_range(0..5))
                        .filter_map(|_| {
                            let category = CATEGORIES[r.gen_range(0..CATEGORIES.len())];
                            sample_fault(&clean, category, &mut r)
                        })
                        .collect();
                    assert_matches_fold(&clean, &faults);
                }
            }
        }
    }

    #[test]
    fn labels_are_stable() {
        let f = Fault {
            kind: FaultKind::SerializeParallelism,
            category: FaultCategory::Performance,
        };
        assert_eq!(f.label(), "serialize_parallelism");
    }
}
