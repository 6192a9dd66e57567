//! Code similarity metrics (Sim-T and Sim-L) over interned symbol sequences.
//!
//! Both metrics compare *symbols* (code tokens for Sim-T, trimmed lines for
//! Sim-L), never the underlying text: a [`SymbolTable`] interns each distinct
//! string to a `u32` once, so the hot comparison loops are integer equality
//! over `&[u32]` instead of `String` equality over freshly allocated token
//! vectors. The Ratcliff–Obershelp match count is computed *iteratively* with
//! an explicit work stack and two reusable DP rows — no per-call allocation
//! storms and no unbounded recursion on adversarial inputs (the old recursive
//! implementation overflowed the stack on long alternating sequences; it is
//! preserved in [`reference`](mod@reference) for property tests and
//! benchmarks).
//!
//! A [`SimilarityEngine`] bundles the table with the scratch buffers. Batch
//! consumers (the pipeline, harness workers) keep one engine per thread via
//! [`with_engine`]; the free [`sim_t`]/[`sim_l`] functions route through that
//! thread-local engine, so even casual callers reuse scratch. Scores are
//! bit-for-bit identical to the reference implementation: interning preserves
//! equality, the iterative traversal visits the same subproblems, and the
//! final division is the same `f64` expression.

use std::cell::RefCell;
use std::collections::HashMap;

/// Interns strings to dense `u32` symbols. Equal strings get equal symbols,
/// so sequence comparison never touches text again.
#[derive(Debug, Default)]
pub struct SymbolTable {
    map: HashMap<String, u32>,
}

impl SymbolTable {
    /// An empty table.
    pub fn new() -> Self {
        SymbolTable::default()
    }

    /// The symbol for `text`, allocating one if it is new.
    pub fn intern(&mut self, text: &str) -> u32 {
        if let Some(&id) = self.map.get(text) {
            return id;
        }
        let id = u32::try_from(self.map.len()).expect("symbol space exhausted");
        self.map.insert(text.to_string(), id);
        id
    }

    /// Number of distinct symbols interned so far.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drop every interned symbol (ids are only meaningful within one
    /// comparison, so clearing between comparisons is always safe).
    pub fn clear(&mut self) {
        self.map.clear();
    }
}

/// Tokenize `code` the way the Sim-T metric expects, feeding each token to
/// `emit` as a borrowed slice of the input (no per-token allocation).
///
/// Identifiers/numbers are tokens, every punctuation character is its own
/// token, whitespace only separates. A `.` stays inside a token only when
/// that token is a numeric literal (it started with an ASCII digit): `1.5`
/// is one token, while `a.b` is the three tokens `a`, `.`, `b` — the same
/// three whether or not whitespace surrounds the dot.
fn scan_tokens(code: &str, mut emit: impl FnMut(&str)) {
    let mut run_start: Option<usize> = None;
    let mut run_is_numeric = false;
    for (i, c) in code.char_indices() {
        let glues =
            c.is_alphanumeric() || c == '_' || (c == '.' && run_start.is_some() && run_is_numeric);
        if glues {
            if run_start.is_none() {
                run_start = Some(i);
                run_is_numeric = c.is_ascii_digit();
            }
        } else {
            if let Some(start) = run_start.take() {
                emit(&code[start..i]);
            }
            if !c.is_whitespace() {
                emit(&code[i..i + c.len_utf8()]);
            }
        }
    }
    if let Some(start) = run_start {
        emit(&code[start..]);
    }
}

/// Tokenize code into owned strings (convenience / test surface; the hot
/// paths intern via [`SimilarityEngine`] instead).
pub fn tokenize_code(code: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    scan_tokens(code, |t| tokens.push(t.to_string()));
    tokens
}

/// Occurrence list of one symbol in `b`, valid only when its `epoch`
/// matches the scratch's current comparison (stale lists are never cleared
/// eagerly — the epoch stamp makes them invisible).
#[derive(Debug, Default)]
struct OccEntry {
    epoch: u64,
    positions: Vec<usize>,
}

/// Reusable scratch for the iterative Ratcliff–Obershelp traversal: sparse
/// DP rows (only match cells are ever written, tracked in the `touched`
/// lists so clearing costs O(matches), not O(|b|)), per-symbol occurrence
/// lists for `b` indexed densely by symbol id (no hashing in the row loop),
/// and the explicit subproblem stack that replaces recursion.
#[derive(Debug, Default)]
struct RoScratch {
    prev: Vec<usize>,
    curr: Vec<usize>,
    touched_prev: Vec<usize>,
    touched_curr: Vec<usize>,
    /// Positions of each symbol in `b`, ascending, indexed by symbol id.
    occ: Vec<OccEntry>,
    /// Current comparison number (stamps `occ` entries).
    epoch: u64,
    /// Pending `(a_lo, a_hi, b_lo, b_hi)` subranges.
    stack: Vec<(usize, usize, usize, usize)>,
}

/// Find the longest contiguous matching block between `a[a_lo..a_hi]` and
/// `b[b_lo..b_hi]` (absolute indices). Instead of scanning every (i, j)
/// cell, each row visits only the positions where `b` holds `a[i]` — the
/// occurrence lists in `scratch.occ` — so the cost is proportional to the
/// number of *matching* cells. Ties resolve exactly like the reference
/// implementation: `a`-major then `b`-major scan, strictly longer wins.
fn longest_common_block(
    a: &[u32],
    scratch: &mut RoScratch,
    (a_lo, a_hi): (usize, usize),
    (b_lo, b_hi): (usize, usize),
) -> (usize, usize, usize) {
    let mut best = (0usize, 0usize, 0usize);
    // Rows were zeroed at comparison start; re-zero only what the previous
    // subproblem touched.
    for idx in scratch.touched_prev.drain(..) {
        scratch.prev[idx] = 0;
    }
    for idx in scratch.touched_curr.drain(..) {
        scratch.curr[idx] = 0;
    }
    for (i, &a_sym) in a.iter().enumerate().take(a_hi).skip(a_lo) {
        let entry = &scratch.occ[a_sym as usize];
        if entry.epoch == scratch.epoch {
            let positions = &entry.positions;
            let start = positions.partition_point(|&j| j < b_lo);
            for &j in &positions[start..] {
                if j >= b_hi {
                    break;
                }
                let len = scratch.prev[j] + 1;
                scratch.curr[j + 1] = len;
                scratch.touched_curr.push(j + 1);
                if len > best.2 {
                    best = (i + 1 - len, j + 1 - len, len);
                }
            }
        }
        // Advance one row: zero the old previous row, then promote the
        // current one (its touched list travels with it).
        for idx in scratch.touched_prev.drain(..) {
            scratch.prev[idx] = 0;
        }
        std::mem::swap(&mut scratch.prev, &mut scratch.curr);
        std::mem::swap(&mut scratch.touched_prev, &mut scratch.touched_curr);
    }
    best
}

/// Total length of recursively matched longest contiguous common blocks —
/// the `M` of Ratcliff–Obershelp — computed with an explicit work stack.
/// `sym_space` is the engine's current symbol count (every id in `a`/`b` is
/// below it), sizing the dense occurrence index.
fn ratcliff_matches(a: &[u32], b: &[u32], sym_space: usize, scratch: &mut RoScratch) -> usize {
    // Occurrence lists and full-width zeroed rows for this comparison.
    scratch.epoch += 1;
    if scratch.occ.len() < sym_space {
        scratch.occ.resize_with(sym_space, OccEntry::default);
    }
    for (j, &sym) in b.iter().enumerate() {
        let entry = &mut scratch.occ[sym as usize];
        if entry.epoch != scratch.epoch {
            entry.epoch = scratch.epoch;
            entry.positions.clear();
        }
        entry.positions.push(j);
    }
    scratch.touched_prev.clear();
    scratch.touched_curr.clear();
    scratch.prev.clear();
    scratch.prev.resize(b.len() + 1, 0);
    scratch.curr.clear();
    scratch.curr.resize(b.len() + 1, 0);

    let mut total = 0usize;
    scratch.stack.clear();
    scratch.stack.push((0, a.len(), 0, b.len()));
    while let Some((a_lo, a_hi, b_lo, b_hi)) = scratch.stack.pop() {
        if a_lo >= a_hi || b_lo >= b_hi {
            continue;
        }
        let (ai, bi, len) = longest_common_block(a, scratch, (a_lo, a_hi), (b_lo, b_hi));
        if len == 0 {
            continue;
        }
        total += len;
        scratch.stack.push((a_lo, ai, b_lo, bi));
        scratch.stack.push((ai + len, a_hi, bi + len, b_hi));
    }
    total
}

/// Symbol-table growth bound: past this many distinct symbols the engine
/// resets its table before the next comparison. Symbols never escape a
/// single comparison, so the reset cannot change any score — it only stops
/// a long-lived worker thread from accumulating text forever.
const MAX_INTERNED_SYMBOLS: usize = 1 << 20;

/// A symbol table plus every scratch buffer the metrics need — one per
/// thread (see [`with_engine`]) or one per comparison batch.
#[derive(Debug, Default)]
pub struct SimilarityEngine {
    symbols: SymbolTable,
    seq_a: Vec<u32>,
    seq_b: Vec<u32>,
    ro: RoScratch,
    line_counts: HashMap<u32, usize>,
}

impl SimilarityEngine {
    /// A fresh engine with empty buffers.
    pub fn new() -> Self {
        SimilarityEngine::default()
    }

    /// The engine's symbol table (exposed for diagnostics/tests).
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    fn maybe_reset(&mut self) {
        if self.symbols.len() > MAX_INTERNED_SYMBOLS {
            self.symbols.clear();
        }
    }

    /// Ratcliff–Obershelp similarity over code tokens: `2·M / (|a| + |b|)`
    /// where `M` is the total length of recursively matched longest
    /// contiguous common blocks. Returns a value in `[0, 1]`.
    pub fn sim_t(&mut self, a: &str, b: &str) -> f64 {
        self.maybe_reset();
        let (symbols, seq_a, seq_b) = (&mut self.symbols, &mut self.seq_a, &mut self.seq_b);
        seq_a.clear();
        scan_tokens(a, |t| seq_a.push(symbols.intern(t)));
        seq_b.clear();
        scan_tokens(b, |t| seq_b.push(symbols.intern(t)));
        if seq_a.is_empty() && seq_b.is_empty() {
            return 1.0;
        }
        if seq_a.is_empty() || seq_b.is_empty() {
            return 0.0;
        }
        let matches = ratcliff_matches(seq_a, seq_b, self.symbols.len(), &mut self.ro);
        2.0 * matches as f64 / (seq_a.len() + seq_b.len()) as f64
    }

    /// Line-based similarity: identical (trimmed, non-empty) lines appearing
    /// in both programs — order-insensitive, counted with multiplicity —
    /// divided by the line count of the longer program.
    pub fn sim_l(&mut self, a: &str, b: &str) -> f64 {
        self.maybe_reset();
        let (symbols, seq_a, seq_b) = (&mut self.symbols, &mut self.seq_a, &mut self.seq_b);
        seq_a.clear();
        for line in a.lines().map(str::trim).filter(|l| !l.is_empty()) {
            seq_a.push(symbols.intern(line));
        }
        seq_b.clear();
        for line in b.lines().map(str::trim).filter(|l| !l.is_empty()) {
            seq_b.push(symbols.intern(line));
        }
        if seq_a.is_empty() && seq_b.is_empty() {
            return 1.0;
        }
        let longer = seq_a.len().max(seq_b.len());
        self.line_counts.clear();
        for &line in seq_b.iter() {
            *self.line_counts.entry(line).or_insert(0) += 1;
        }
        let mut matched = 0usize;
        for line in seq_a.iter() {
            if let Some(c) = self.line_counts.get_mut(line) {
                if *c > 0 {
                    *c -= 1;
                    matched += 1;
                }
            }
        }
        matched as f64 / longer as f64
    }
}

thread_local! {
    static THREAD_ENGINE: RefCell<SimilarityEngine> = RefCell::new(SimilarityEngine::new());
}

/// Run `f` with this thread's shared [`SimilarityEngine`]. Harness workers
/// and the pipeline use this so every comparison on a thread reuses one
/// symbol table and one set of scratch buffers.
pub fn with_engine<R>(f: impl FnOnce(&mut SimilarityEngine) -> R) -> R {
    THREAD_ENGINE.with(|engine| f(&mut engine.borrow_mut()))
}

/// Token-based similarity (Sim-T) via the thread-local engine.
pub fn sim_t(a: &str, b: &str) -> f64 {
    with_engine(|engine| engine.sim_t(a, b))
}

/// Line-based similarity (Sim-L) via the thread-local engine.
pub fn sim_l(a: &str, b: &str) -> f64 {
    with_engine(|engine| engine.sim_l(a, b))
}

/// The pre-interning implementations: recursive Ratcliff–Obershelp over
/// `Vec<String>` tokens, allocating per call. Kept as the oracle for the
/// bit-for-bit property suite and the old-vs-new benchmark — not for
/// production use (per-comparison allocation storms; recursion depth grows
/// with the number of matched blocks and *overflows the stack* on long
/// alternating sequences). Uses the fixed tokenizer, so any score difference
/// against the interned engine is an algorithm bug, not a token-definition
/// disagreement.
pub mod reference {
    use super::tokenize_code;

    /// Reference Sim-T: recursive Ratcliff–Obershelp over owned tokens.
    pub fn sim_t(a: &str, b: &str) -> f64 {
        let ta = tokenize_code(a);
        let tb = tokenize_code(b);
        if ta.is_empty() && tb.is_empty() {
            return 1.0;
        }
        if ta.is_empty() || tb.is_empty() {
            return 0.0;
        }
        let matches = ratcliff_matches(&ta, &tb);
        2.0 * matches as f64 / (ta.len() + tb.len()) as f64
    }

    fn ratcliff_matches(a: &[String], b: &[String]) -> usize {
        if a.is_empty() || b.is_empty() {
            return 0;
        }
        let (a_start, b_start, len) = longest_common_block(a, b);
        if len == 0 {
            return 0;
        }
        len + ratcliff_matches(&a[..a_start], &b[..b_start])
            + ratcliff_matches(&a[a_start + len..], &b[b_start + len..])
    }

    fn longest_common_block(a: &[String], b: &[String]) -> (usize, usize, usize) {
        let mut best = (0usize, 0usize, 0usize);
        let mut prev = vec![0usize; b.len() + 1];
        for (i, a_tok) in a.iter().enumerate() {
            let mut current = vec![0usize; b.len() + 1];
            for (j, b_tok) in b.iter().enumerate() {
                if a_tok == b_tok {
                    let len = prev[j] + 1;
                    current[j + 1] = len;
                    if len > best.2 {
                        best = (i + 1 - len, j + 1 - len, len);
                    }
                }
            }
            prev = current;
        }
        best
    }

    /// Reference Sim-L: per-call `HashMap` over borrowed lines.
    pub fn sim_l(a: &str, b: &str) -> f64 {
        use std::collections::HashMap;
        let lines_a: Vec<&str> = a.lines().map(str::trim).filter(|l| !l.is_empty()).collect();
        let lines_b: Vec<&str> = b.lines().map(str::trim).filter(|l| !l.is_empty()).collect();
        if lines_a.is_empty() && lines_b.is_empty() {
            return 1.0;
        }
        let longer = lines_a.len().max(lines_b.len());
        if longer == 0 {
            return 0.0;
        }
        let mut counts: HashMap<&str, usize> = HashMap::new();
        for l in &lines_b {
            *counts.entry(*l).or_insert(0) += 1;
        }
        let mut matched = 0usize;
        for l in &lines_a {
            if let Some(c) = counts.get_mut(*l) {
                if *c > 0 {
                    *c -= 1;
                    matched += 1;
                }
            }
        }
        matched as f64 / longer as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_code_scores_one() {
        let code = "int main() {\n  return 0;\n}\n";
        assert!((sim_t(code, code) - 1.0).abs() < 1e-12);
        assert!((sim_l(code, code) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_code_scores_zero() {
        assert_eq!(sim_t("alpha beta gamma", "delta epsilon zeta"), 0.0);
        assert_eq!(sim_l("a\nb\nc", "x\ny\nz"), 0.0);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(sim_t("", ""), 1.0);
        assert_eq!(sim_t("int x;", ""), 0.0);
        assert_eq!(sim_l("", ""), 1.0);
    }

    #[test]
    fn sim_t_is_symmetric_and_bounded() {
        let a = "for (int i = 0; i < n; i++) { out[i] = a[i] + b[i]; }";
        let b = "for (int j = 0; j < n; j++) { out[j] = a[j] * b[j]; }";
        let ab = sim_t(a, b);
        let ba = sim_t(b, a);
        assert!((ab - ba).abs() < 1e-12);
        assert!(ab > 0.5 && ab < 1.0);
    }

    #[test]
    fn sim_l_ignores_order() {
        let a = "x = 1;\ny = 2;\nz = 3;";
        let b = "z = 3;\nx = 1;\ny = 2;";
        assert!((sim_l(a, b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sim_l_counts_multiplicity() {
        let a = "x++;\nx++;\nx++;";
        let b = "x++;";
        assert!((sim_l(a, b) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn partially_similar_code_lands_in_between() {
        let original = r#"
        int main() {
            int n = 128;
            double sum = 0.0;
            for (int i = 0; i < n; i++) { sum += i; }
            printf("%f\n", sum);
            return 0;
        }
        "#;
        let translated = r#"
        int main() {
            int n = 128;
            double sum = 0.0;
            double* buffer = (double*)malloc(n * sizeof(double));
            for (int i = 0; i < n; i++) { buffer[i] = i; }
            for (int i = 0; i < n; i++) { sum += buffer[i]; }
            printf("%f\n", sum);
            free(buffer);
            return 0;
        }
        "#;
        let t = sim_t(original, translated);
        let l = sim_l(original, translated);
        assert!(t > 0.3 && t < 1.0, "sim_t = {t}");
        assert!(l > 0.3 && l < 1.0, "sim_l = {l}");
    }

    #[test]
    fn tokenizer_splits_punctuation() {
        assert_eq!(
            tokenize_code("a[i]+=1;"),
            vec!["a", "[", "i", "]", "+", "=", "1", ";"]
        );
    }

    #[test]
    fn tokenizer_splits_member_access_whitespace_insensitively() {
        // `a.b` must tokenize exactly like `a . b`: the Sim-T token
        // definition cannot depend on whitespace around member access.
        assert_eq!(tokenize_code("a.b"), vec!["a", ".", "b"]);
        assert_eq!(tokenize_code("a . b"), vec!["a", ".", "b"]);
        assert_eq!(tokenize_code("a.b"), tokenize_code("a .b"));
        assert!((sim_t("s.x = 1;", "s . x = 1;") - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tokenizer_keeps_dots_in_numeric_literals_only() {
        assert_eq!(tokenize_code("1.5"), vec!["1.5"]);
        assert_eq!(tokenize_code("x = 1.5;"), vec!["x", "=", "1.5", ";"]);
        // A leading dot cannot start a literal; an identifier never glues one.
        assert_eq!(tokenize_code(".5"), vec![".", "5"]);
        assert_eq!(tokenize_code("a1.5"), vec!["a1", ".", "5"]);
    }

    #[test]
    fn engine_scores_match_free_functions() {
        let mut engine = SimilarityEngine::new();
        let a = "float x = out.field + 1.25;";
        let b = "float y = out . field + 1.25;";
        assert_eq!(engine.sim_t(a, b).to_bits(), sim_t(a, b).to_bits());
        assert_eq!(engine.sim_l(a, b).to_bits(), sim_l(a, b).to_bits());
        // Reuse across comparisons must not disturb scores.
        assert_eq!(engine.sim_t(a, a), 1.0);
        assert_eq!(engine.sim_t("", ""), 1.0);
    }

    #[test]
    fn symbol_table_interns_stably() {
        let mut table = SymbolTable::new();
        let a = table.intern("alpha");
        let b = table.intern("beta");
        assert_ne!(a, b);
        assert_eq!(table.intern("alpha"), a);
        assert_eq!(table.len(), 2);
        table.clear();
        assert!(table.is_empty());
    }

    #[test]
    fn deep_alternating_input_survives_a_tiny_stack() {
        // `a` alternates `x uK` while `b` is all `x`, so every match is a
        // length-1 block and the reference recursion descends once per
        // match — ~700 frames here, beyond the 64 KiB thread stack below
        // (which is why the reference itself cannot be invoked in this
        // test: overflowing a Rust stack aborts the whole process). The
        // iterative engine keeps its work stack on the heap and must
        // finish with the exact score: M = n blocks over 2n + n tokens.
        let n = 700usize;
        let mut a = String::new();
        for i in 0..n {
            a.push_str("x u");
            a.push_str(&(i % 97).to_string());
            a.push(' ');
        }
        let b = "x ".repeat(n);
        let score = std::thread::Builder::new()
            .stack_size(64 * 1024)
            .spawn(move || SimilarityEngine::new().sim_t(&a, &b))
            .expect("spawn tiny-stack thread")
            .join()
            .expect("no overflow on the iterative engine");
        let expected = 2.0 * n as f64 / (3 * n) as f64;
        assert!((score - expected).abs() < 1e-12, "score = {score}");
    }
}
