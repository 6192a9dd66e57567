//! Diagnostics shared by the lexer, parser and semantic analyzer.
//!
//! A [`Diagnostic`] carries a severity, a stable machine-readable *code*
//! (`sema/undeclared-ident`, `lex/unterminated-string`, ...), a message, an
//! optional source span (1-based line and column, 0 when unknown) and any
//! number of attached [`Note`]s, so that error text handed back to the
//! simulated LLM looks like real compiler output
//! (`error: line 12: use of undeclared identifier 'd_out'`) while the
//! telemetry pipeline can aggregate findings by code instead of by message
//! text.
//!
//! This crate has no JSON dependency: the `diag.v1` encoding lives in
//! `lassi-harness`'s artifact codec, and [`codec::VERSION`] is its tag.

use std::fmt;

/// Severity of a diagnostic message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational note attached to another diagnostic.
    Note,
    /// Suspicious but accepted construct.
    Warning,
    /// The program is rejected.
    Error,
}

impl Severity {
    /// Stable lowercase label (`"error"`, `"warning"`, `"note"`), used both
    /// for display and for the `diag.v1` wire form and metric labels.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }

    /// Inverse of [`Severity::label`].
    pub fn from_label(s: &str) -> Option<Severity> {
        match s {
            "note" => Some(Severity::Note),
            "warning" => Some(Severity::Warning),
            "error" => Some(Severity::Error),
            _ => None,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The code used when an emission site never classified its diagnostic.
pub const UNCLASSIFIED_CODE: &str = "diag/unclassified";

/// A secondary remark attached to a [`Diagnostic`] (e.g. "previously
/// defined here").
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Note {
    /// 1-based source line the note refers to, 0 when unknown.
    pub line: u32,
    /// Human-readable remark.
    pub message: String,
}

/// A single compiler-style diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// How severe the diagnostic is.
    pub severity: Severity,
    /// Stable machine code (`area/kind`, e.g. `sema/undeclared-ident`).
    /// Empty when the emission site did not classify the finding; readers
    /// should use [`Diagnostic::code_str`], which substitutes
    /// [`UNCLASSIFIED_CODE`].
    pub code: String,
    /// 1-based source line the diagnostic refers to, 0 when unknown.
    pub line: u32,
    /// 1-based source column the diagnostic refers to, 0 when unknown.
    pub column: u32,
    /// Human-readable message.
    pub message: String,
    /// Attached secondary remarks.
    pub notes: Vec<Note>,
}

impl Diagnostic {
    fn new(severity: Severity, line: u32, message: impl Into<String>) -> Self {
        Diagnostic {
            severity,
            code: String::new(),
            line,
            column: 0,
            message: message.into(),
            notes: Vec::new(),
        }
    }

    /// Create an error diagnostic at `line`.
    pub fn error(line: u32, message: impl Into<String>) -> Self {
        Diagnostic::new(Severity::Error, line, message)
    }

    /// Create a warning diagnostic at `line`.
    pub fn warning(line: u32, message: impl Into<String>) -> Self {
        Diagnostic::new(Severity::Warning, line, message)
    }

    /// Create a note diagnostic at `line`.
    pub fn note(line: u32, message: impl Into<String>) -> Self {
        Diagnostic::new(Severity::Note, line, message)
    }

    /// Attach a stable machine code (builder style).
    pub fn with_code(mut self, code: impl Into<String>) -> Self {
        self.code = code.into();
        self
    }

    /// Attach a code only if no emission site classified this diagnostic yet.
    pub fn with_default_code(mut self, code: &str) -> Self {
        if self.code.is_empty() {
            self.code = code.to_string();
        }
        self
    }

    /// Attach a 1-based source column (builder style).
    pub fn with_column(mut self, column: u32) -> Self {
        self.column = column;
        self
    }

    /// Attach a secondary note (builder style).
    pub fn with_note(mut self, line: u32, message: impl Into<String>) -> Self {
        self.notes.push(Note {
            line,
            message: message.into(),
        });
        self
    }

    /// The machine code, substituting [`UNCLASSIFIED_CODE`] when unset.
    pub fn code_str(&self) -> &str {
        if self.code.is_empty() {
            UNCLASSIFIED_CODE
        } else {
            &self.code
        }
    }

    /// True when this diagnostic rejects the program.
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "{}: line {}: {}", self.severity, self.line, self.message)
        } else {
            write!(f, "{}: {}", self.severity, self.message)
        }
    }
}

/// Stable ordering for rendering a batch: errors first, then by line.
fn sorted(diags: &[Diagnostic]) -> Vec<&Diagnostic> {
    let mut sorted: Vec<&Diagnostic> = diags.iter().collect();
    sorted.sort_by_key(|d| (std::cmp::Reverse(d.severity), d.line));
    sorted
}

/// Render a batch of diagnostics the way a command-line compiler would,
/// one per line, errors first.
pub fn render_diagnostics(diags: &[Diagnostic]) -> String {
    sorted(diags)
        .iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

/// Render a batch in the structured form fed to the repair prompt: every
/// finding carries its machine code and best available span, with notes
/// indented underneath. Deterministic: errors first, then by line, and the
/// same input always produces the same bytes.
///
/// ```text
/// error[sema/undeclared-ident]: line 14: use of undeclared identifier 'x'
///   note: line 2: previously defined here
/// ```
pub fn render_structured(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in sorted(diags) {
        if !out.is_empty() {
            out.push('\n');
        }
        out.push_str(&format!("{}[{}]: ", d.severity, d.code_str()));
        if d.line > 0 && d.column > 0 {
            out.push_str(&format!("line {}, col {}: ", d.line, d.column));
        } else if d.line > 0 {
            out.push_str(&format!("line {}: ", d.line));
        }
        out.push_str(&d.message);
        for note in &d.notes {
            if note.line > 0 {
                out.push_str(&format!("\n  note: line {}: {}", note.line, note.message));
            } else {
                out.push_str(&format!("\n  note: {}", note.message));
            }
        }
    }
    out
}

/// The `diag.v1` wire form. `lassi-harness`'s artifact codec encodes each
/// diagnostic as one JSON object with a fixed field order (`severity`,
/// `code`, `line`, `column`, `message`, `notes`), and a run's diagnostics
/// document carries this tag once at its top level.
pub mod codec {
    /// Schema tag of the `diag.v1` diagnostics document.
    pub const VERSION: &str = "diag.v1";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_line() {
        let d = Diagnostic::error(14, "use of undeclared identifier 'foo'");
        assert_eq!(
            d.to_string(),
            "error: line 14: use of undeclared identifier 'foo'"
        );
    }

    #[test]
    fn display_without_line() {
        let d = Diagnostic::warning(0, "unused variable 'x'");
        assert_eq!(d.to_string(), "warning: unused variable 'x'");
    }

    #[test]
    fn render_orders_errors_first() {
        let diags = vec![
            Diagnostic::warning(3, "w"),
            Diagnostic::error(9, "e2"),
            Diagnostic::error(2, "e1"),
        ];
        let out = render_diagnostics(&diags);
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].contains("e1"));
        assert!(lines[1].contains("e2"));
        assert!(lines[2].contains("w"));
    }

    #[test]
    fn severity_ordering() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Note);
    }

    #[test]
    fn is_error_flag() {
        assert!(Diagnostic::error(1, "x").is_error());
        assert!(!Diagnostic::note(1, "x").is_error());
    }

    #[test]
    fn structured_rendering_carries_code_span_and_notes() {
        let diags = vec![
            Diagnostic::warning(3, "unused variable 'y'").with_code("sema/unused-variable"),
            Diagnostic::error(14, "use of undeclared identifier 'x'")
                .with_code("sema/undeclared-ident")
                .with_column(7)
                .with_note(2, "'x' was freed here"),
        ];
        assert_eq!(
            render_structured(&diags),
            "error[sema/undeclared-ident]: line 14, col 7: use of undeclared identifier 'x'\n\
             \x20 note: line 2: 'x' was freed here\n\
             warning[sema/unused-variable]: line 3: unused variable 'y'"
        );
    }

    #[test]
    fn structured_rendering_substitutes_unclassified_code() {
        let out = render_structured(&[Diagnostic::error(0, "boom")]);
        assert_eq!(out, "error[diag/unclassified]: boom");
    }
}
