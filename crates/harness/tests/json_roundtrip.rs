//! Property tests for the JSON artifact layer: any `TranslationRecord` or
//! `diag.v1` diagnostic the pipeline can produce must survive serialize →
//! parse → decode unchanged, including `None` fields, uncoded diagnostics,
//! awkward-but-finite floats and strings full of characters that need
//! escaping.

use lassi_core::{AttemptDiagnostics, ScenarioStatus, TranslationRecord};
use lassi_harness::codec::{
    diagnostic_from_json, diagnostic_to_json, record_from_json, record_to_json,
};
use lassi_harness::json::{parse, Json};
use lassi_lang::diag::UNCLASSIFIED_CODE;
use lassi_lang::{Diagnostic, Dialect, Severity};
use proptest::prelude::*;

fn status_from_index(i: u32) -> ScenarioStatus {
    match i % 5 {
        0 => ScenarioStatus::Success,
        1 => ScenarioStatus::BaselineFailed,
        2 => ScenarioStatus::CompileGaveUp,
        3 => ScenarioStatus::ExecuteGaveUp,
        _ => ScenarioStatus::OutputMismatch,
    }
}

fn severity_from_index(i: u32) -> Severity {
    match i % 3 {
        0 => Severity::Note,
        1 => Severity::Warning,
        _ => Severity::Error,
    }
}

fn stage_from_index(i: u32) -> &'static str {
    match i % 4 {
        0 => "parse",
        1 => "sema",
        2 => "execute",
        _ => "llm",
    }
}

// Characters that exercise the escaper: quotes, backslashes, braces,
// newlines, tabs — the shapes generated ParC code actually contains.
const CODE_PATTERN: &str = "[a-zA-Z0-9 _(){}<>#*&+=.:;,!/\"\\\\\\n\\t-]{0,200}";
// Diagnostic message shapes real emissions contain: identifiers in quotes,
// punctuation, escapes, newlines and tabs.
const MESSAGE_PATTERN: &str = "[a-zA-Z0-9 _'(){}<>#*&+=.:;,!/\"\\\\\\n\\t-]{0,120}";

fn opt_f64(range: std::ops::Range<f64>) -> BoxedStrategy<Option<f64>> {
    prop_oneof![Just(None), range.prop_map(Some)].boxed()
}

fn opt_code() -> BoxedStrategy<Option<String>> {
    prop_oneof![Just(None), CODE_PATTERN.prop_map(Some)].boxed()
}

// One arbitrary attempt's diagnostics: coded or uncoded, with or without a
// column span and notes — every shape the pipeline can emit.
fn attempts() -> BoxedStrategy<Vec<AttemptDiagnostics>> {
    let diag = (
        (0u32..6, "[a-z/-]{0,16}", 0u32..500),
        (
            0u32..120,
            "[a-zA-Z0-9 '_().\\n-]{0,60}",
            proptest::collection::vec((0u32..500, "[a-zA-Z0-9 '_-]{0,40}"), 0..3),
        ),
    )
        .prop_map(|((sev, code, line), (column, message, notes))| {
            let mut d = Diagnostic {
                severity: severity_from_index(sev),
                code,
                line,
                column,
                message,
                notes: Vec::new(),
            };
            for (line, message) in notes {
                d = d.with_note(line, message);
            }
            d
        });
    proptest::collection::vec(
        (0u32..10, 0u32..8, proptest::collection::vec(diag, 0..4)),
        0..4,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(round, stage, diagnostics)| AttemptDiagnostics {
                round,
                stage: stage_from_index(stage).to_string(),
                diagnostics,
            })
            .collect()
    })
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn record_round_trips_for_arbitrary_contents(
        (name_a, name_m, status_ix, corrections) in (
            "[a-zA-Z0-9 _-]{0,40}",
            "[a-zA-Z0-9 ._-]{0,40}",
            0u32..10,
            0u32..100,
        ),
        (code, generated_runtime, reference_runtime, source_runtime) in (
            opt_code(),
            opt_f64(0.0..1.0e6),
            1.0e-9..1.0e6,
            1.0e-9..1.0e6,
        ),
        (ratio, sim_t, sim_l) in (
            opt_f64(0.0..1.0e3),
            opt_f64(0.0..1.0),
            opt_f64(0.0..1.0),
        ),
        (prompt_tokens, response_tokens, flip) in (0usize..1_000_000, 0usize..1_000_000, 0u32..2),
        diagnostics in attempts(),
    ) {
        let (source_dialect, target_dialect) = if flip == 0 {
            (Dialect::CudaLite, Dialect::OmpLite)
        } else {
            (Dialect::OmpLite, Dialect::CudaLite)
        };
        let record = TranslationRecord {
            application: name_a,
            model: name_m,
            source_dialect,
            target_dialect,
            status: status_from_index(status_ix),
            self_corrections: corrections,
            generated_code: code,
            generated_runtime,
            reference_runtime,
            source_runtime,
            ratio,
            sim_t,
            sim_l,
            prompt_tokens,
            response_tokens,
            diagnostics,
        };

        // Compact and pretty renderings must both decode to the same record.
        let compact = record_to_json(&record).to_compact();
        let decoded = record_from_json(&parse(&compact).unwrap()).unwrap();
        prop_assert_eq!(&decoded, &record);

        let pretty = record_to_json(&record).to_pretty();
        let decoded = record_from_json(&parse(&pretty).unwrap()).unwrap();
        prop_assert_eq!(&decoded, &record);

        // Serialization is deterministic: the same record always renders to
        // the same bytes (this is what byte-identical --replay relies on).
        prop_assert_eq!(record_to_json(&record).to_pretty(), pretty);
    }

    #[test]
    fn diagnostic_round_trips_for_arbitrary_contents(
        (severity_ix, line, column) in (0u32..3, 0u32..100_000, 0u32..10_000),
        code_tail in "[a-z/-]{1,24}",
        message in MESSAGE_PATTERN,
        notes in proptest::collection::vec((0u32..100_000, MESSAGE_PATTERN), 0..4),
    ) {
        let mut d = Diagnostic {
            severity: severity_from_index(severity_ix),
            code: format!("sema/{code_tail}"),
            line,
            column,
            message,
            notes: Vec::new(),
        };
        for (note_line, note_message) in notes {
            d = d.with_note(note_line, note_message);
        }

        let compact = diagnostic_to_json(&d).to_compact();
        let back = diagnostic_from_json(&parse(&compact).unwrap()).unwrap();
        prop_assert_eq!(&back, &d);
        let pretty = diagnostic_to_json(&d).to_pretty();
        prop_assert_eq!(&diagnostic_from_json(&parse(&pretty).unwrap()).unwrap(), &d);

        // Encoding is byte-deterministic.
        prop_assert_eq!(diagnostic_to_json(&back).to_compact(), compact);
    }

    #[test]
    fn unclassified_diagnostics_keep_their_empty_code(message in MESSAGE_PATTERN) {
        let d = Diagnostic::error(3, message);
        let text = diagnostic_to_json(&d).to_compact();
        let back = diagnostic_from_json(&parse(&text).unwrap()).unwrap();
        prop_assert_eq!(&back, &d);
        // The placeholder is a rendering of the empty code, not stored.
        prop_assert!(back.code.is_empty());
        prop_assert_eq!(back.code_str(), UNCLASSIFIED_CODE);
    }

    #[test]
    fn arbitrary_strings_survive_json_escaping(s in "[a-zA-Z0-9 \"\\\\\\n\\t\\r{}:,/._-]{0,300}") {
        let value = Json::Str(s.clone());
        prop_assert_eq!(parse(&value.to_compact()).unwrap(), Json::Str(s.clone()));
        prop_assert_eq!(parse(&value.to_pretty()).unwrap(), Json::Str(s));
    }

    #[test]
    fn finite_floats_round_trip_bit_exact(mantissa in -1.0e9..1.0e9, scale in -300.0f64..300.0) {
        let x: f64 = mantissa * 10f64.powf(scale % 30.0);
        prop_assert!(x.is_finite());
        let text = Json::Float(x).to_compact();
        match parse(&text).unwrap() {
            Json::Float(back) => prop_assert_eq!(back.to_bits(), x.to_bits()),
            other => prop_assert!(false, "{} parsed as {:?}", text, other),
        }
    }
}

#[test]
fn record_with_every_none_field_round_trips() {
    let record = TranslationRecord {
        application: String::new(),
        model: String::new(),
        source_dialect: Dialect::CudaLite,
        target_dialect: Dialect::OmpLite,
        status: ScenarioStatus::BaselineFailed,
        self_corrections: 0,
        generated_code: None,
        generated_runtime: None,
        reference_runtime: 0.0,
        source_runtime: 0.0,
        ratio: None,
        sim_t: None,
        sim_l: None,
        prompt_tokens: 0,
        response_tokens: 0,
        diagnostics: Vec::new(),
    };
    let text = record_to_json(&record).to_pretty();
    let back = record_from_json(&parse(&text).unwrap()).unwrap();
    assert_eq!(back, record);
}
