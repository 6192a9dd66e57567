//! Conversions between the workspace's record types and [`Json`] values.
//!
//! Every `*_to_json` / `*_from_json` pair is a loss-free round trip: the
//! reconstructed value compares equal to the original (floats bit-for-bit,
//! see `json` module docs). The JSON field order is fixed, so serializing
//! the same value twice yields byte-identical text — that property is what
//! lets `table6 --replay` re-render a saved run byte-identically.

use lassi_core::{AttemptDiagnostics, Direction, ScenarioStatus, TranslationRecord};
use lassi_lang::{Diagnostic, Dialect, Severity};

use crate::json::Json;
use crate::store::RunManifest;

/// A decode failure: the JSON was well-formed but did not match the schema.
#[derive(Debug, Clone, PartialEq)]
pub struct CodecError(pub String);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "artifact schema error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

fn field<'a>(value: &'a Json, key: &str) -> Result<&'a Json, CodecError> {
    value
        .get(key)
        .ok_or_else(|| CodecError(format!("missing field `{key}`")))
}

fn str_field(value: &Json, key: &str) -> Result<String, CodecError> {
    field(value, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| CodecError(format!("field `{key}` must be a string")))
}

fn f64_field(value: &Json, key: &str) -> Result<f64, CodecError> {
    let v = field(value, key)?;
    // Non-finite floats serialize as `null` (JSON has no NaN literal); a
    // required float field decodes that back to NaN rather than erroring,
    // so a degenerate record survives a store/load round trip.
    if v.is_null() {
        return Ok(f64::NAN);
    }
    v.as_f64()
        .ok_or_else(|| CodecError(format!("field `{key}` must be a number")))
}

fn u32_field(value: &Json, key: &str) -> Result<u32, CodecError> {
    field(value, key)?
        .as_u32()
        .ok_or_else(|| CodecError(format!("field `{key}` must be a u32")))
}

fn u64_field(value: &Json, key: &str) -> Result<u64, CodecError> {
    field(value, key)?
        .as_u64()
        .ok_or_else(|| CodecError(format!("field `{key}` must be a u64")))
}

fn usize_field(value: &Json, key: &str) -> Result<usize, CodecError> {
    field(value, key)?
        .as_usize()
        .ok_or_else(|| CodecError(format!("field `{key}` must be a usize")))
}

fn opt_f64_field(value: &Json, key: &str) -> Result<Option<f64>, CodecError> {
    let v = field(value, key)?;
    if v.is_null() {
        return Ok(None);
    }
    v.as_f64()
        .map(Some)
        .ok_or_else(|| CodecError(format!("field `{key}` must be a number or null")))
}

fn opt_str_field(value: &Json, key: &str) -> Result<Option<String>, CodecError> {
    let v = field(value, key)?;
    if v.is_null() {
        return Ok(None);
    }
    v.as_str()
        .map(|s| Some(s.to_string()))
        .ok_or_else(|| CodecError(format!("field `{key}` must be a string or null")))
}

fn str_array_field(value: &Json, key: &str) -> Result<Vec<String>, CodecError> {
    field(value, key)?
        .as_array()
        .ok_or_else(|| CodecError(format!("field `{key}` must be an array")))?
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| CodecError(format!("field `{key}` must contain strings")))
        })
        .collect()
}

fn u32_array_field(value: &Json, key: &str) -> Result<Vec<u32>, CodecError> {
    field(value, key)?
        .as_array()
        .ok_or_else(|| CodecError(format!("field `{key}` must be an array")))?
        .iter()
        .map(|v| {
            v.as_u32()
                .ok_or_else(|| CodecError(format!("field `{key}` must contain u32s")))
        })
        .collect()
}

/// Serialize a [`Dialect`].
pub fn dialect_to_str(dialect: Dialect) -> &'static str {
    match dialect {
        Dialect::CudaLite => "cuda-lite",
        Dialect::OmpLite => "omp-lite",
    }
}

/// Deserialize a [`Dialect`].
pub fn dialect_from_str(s: &str) -> Result<Dialect, CodecError> {
    match s {
        "cuda-lite" => Ok(Dialect::CudaLite),
        "omp-lite" => Ok(Dialect::OmpLite),
        other => Err(CodecError(format!("unknown dialect `{other}`"))),
    }
}

/// Serialize a [`ScenarioStatus`].
pub fn status_to_str(status: ScenarioStatus) -> &'static str {
    match status {
        ScenarioStatus::Success => "success",
        ScenarioStatus::BaselineFailed => "baseline-failed",
        ScenarioStatus::CompileGaveUp => "compile-gave-up",
        ScenarioStatus::ExecuteGaveUp => "execute-gave-up",
        ScenarioStatus::OutputMismatch => "output-mismatch",
    }
}

/// Deserialize a [`ScenarioStatus`].
pub fn status_from_str(s: &str) -> Result<ScenarioStatus, CodecError> {
    match s {
        "success" => Ok(ScenarioStatus::Success),
        "baseline-failed" => Ok(ScenarioStatus::BaselineFailed),
        "compile-gave-up" => Ok(ScenarioStatus::CompileGaveUp),
        "execute-gave-up" => Ok(ScenarioStatus::ExecuteGaveUp),
        "output-mismatch" => Ok(ScenarioStatus::OutputMismatch),
        other => Err(CodecError(format!("unknown scenario status `{other}`"))),
    }
}

/// Serialize a [`Diagnostic`] as a `diag.v1` object. It carries no version
/// tag of its own: the enclosing document carries it once.
pub fn diagnostic_to_json(d: &Diagnostic) -> Json {
    Json::Object(vec![
        ("severity".into(), Json::Str(d.severity.label().into())),
        ("code".into(), Json::Str(d.code.clone())),
        ("line".into(), Json::Int(d.line as i128)),
        ("column".into(), Json::Int(d.column as i128)),
        ("message".into(), Json::Str(d.message.clone())),
        (
            "notes".into(),
            Json::Array(
                d.notes
                    .iter()
                    .map(|n| {
                        Json::Object(vec![
                            ("line".into(), Json::Int(n.line as i128)),
                            ("message".into(), Json::Str(n.message.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Deserialize a [`Diagnostic`].
pub fn diagnostic_from_json(v: &Json) -> Result<Diagnostic, CodecError> {
    let label = str_field(v, "severity")?;
    let severity = Severity::from_label(&label)
        .ok_or_else(|| CodecError(format!("unknown severity `{label}`")))?;
    let notes = field(v, "notes")?
        .as_array()
        .ok_or_else(|| CodecError("field `notes` must be an array".into()))?
        .iter()
        .map(|n| {
            Ok(lassi_lang::Note {
                line: u32_field(n, "line")?,
                message: str_field(n, "message")?,
            })
        })
        .collect::<Result<Vec<_>, CodecError>>()?;
    Ok(Diagnostic {
        severity,
        code: str_field(v, "code")?,
        line: u32_field(v, "line")?,
        column: u32_field(v, "column")?,
        message: str_field(v, "message")?,
        notes,
    })
}

/// Serialize one attempt's worth of pipeline diagnostics.
pub fn attempt_diagnostics_to_json(a: &AttemptDiagnostics) -> Json {
    Json::Object(vec![
        ("round".into(), Json::Int(a.round as i128)),
        ("stage".into(), Json::Str(a.stage.clone())),
        (
            "diagnostics".into(),
            Json::Array(a.diagnostics.iter().map(diagnostic_to_json).collect()),
        ),
    ])
}

/// Deserialize one attempt's worth of pipeline diagnostics.
pub fn attempt_diagnostics_from_json(v: &Json) -> Result<AttemptDiagnostics, CodecError> {
    let diagnostics = field(v, "diagnostics")?
        .as_array()
        .ok_or_else(|| CodecError("field `diagnostics` must be an array".into()))?
        .iter()
        .map(diagnostic_from_json)
        .collect::<Result<Vec<_>, CodecError>>()?;
    Ok(AttemptDiagnostics {
        round: u32_field(v, "round")?,
        stage: str_field(v, "stage")?,
        diagnostics,
    })
}

/// Serialize a [`TranslationRecord`].
pub fn record_to_json(r: &TranslationRecord) -> Json {
    Json::Object(vec![
        ("application".into(), Json::Str(r.application.clone())),
        ("model".into(), Json::Str(r.model.clone())),
        (
            "source_dialect".into(),
            Json::Str(dialect_to_str(r.source_dialect).into()),
        ),
        (
            "target_dialect".into(),
            Json::Str(dialect_to_str(r.target_dialect).into()),
        ),
        ("status".into(), Json::Str(status_to_str(r.status).into())),
        (
            "self_corrections".into(),
            Json::Int(r.self_corrections as i128),
        ),
        (
            "generated_code".into(),
            Json::opt_str(r.generated_code.as_deref()),
        ),
        (
            "generated_runtime".into(),
            Json::opt_float(r.generated_runtime),
        ),
        ("reference_runtime".into(), Json::Float(r.reference_runtime)),
        ("source_runtime".into(), Json::Float(r.source_runtime)),
        ("ratio".into(), Json::opt_float(r.ratio)),
        ("sim_t".into(), Json::opt_float(r.sim_t)),
        ("sim_l".into(), Json::opt_float(r.sim_l)),
        ("prompt_tokens".into(), Json::Int(r.prompt_tokens as i128)),
        (
            "response_tokens".into(),
            Json::Int(r.response_tokens as i128),
        ),
        (
            "diagnostics".into(),
            Json::Array(
                r.diagnostics
                    .iter()
                    .map(attempt_diagnostics_to_json)
                    .collect(),
            ),
        ),
    ])
}

/// Deserialize a [`TranslationRecord`].
pub fn record_from_json(v: &Json) -> Result<TranslationRecord, CodecError> {
    Ok(TranslationRecord {
        application: str_field(v, "application")?,
        model: str_field(v, "model")?,
        source_dialect: dialect_from_str(&str_field(v, "source_dialect")?)?,
        target_dialect: dialect_from_str(&str_field(v, "target_dialect")?)?,
        status: status_from_str(&str_field(v, "status")?)?,
        self_corrections: u32_field(v, "self_corrections")?,
        generated_code: opt_str_field(v, "generated_code")?,
        generated_runtime: opt_f64_field(v, "generated_runtime")?,
        reference_runtime: f64_field(v, "reference_runtime")?,
        source_runtime: f64_field(v, "source_runtime")?,
        ratio: opt_f64_field(v, "ratio")?,
        sim_t: opt_f64_field(v, "sim_t")?,
        sim_l: opt_f64_field(v, "sim_l")?,
        prompt_tokens: usize_field(v, "prompt_tokens")?,
        response_tokens: usize_field(v, "response_tokens")?,
        diagnostics: field(v, "diagnostics")?
            .as_array()
            .ok_or_else(|| CodecError("field `diagnostics` must be an array".into()))?
            .iter()
            .map(attempt_diagnostics_from_json)
            .collect::<Result<Vec<_>, CodecError>>()?,
    })
}

/// Serialize a slice of records as a JSON array.
pub fn records_to_json(records: &[TranslationRecord]) -> Json {
    Json::Array(records.iter().map(record_to_json).collect())
}

/// Deserialize an array of records.
pub fn records_from_json(v: &Json) -> Result<Vec<TranslationRecord>, CodecError> {
    v.as_array()
        .ok_or_else(|| CodecError("record set must be a JSON array".into()))?
        .iter()
        .map(record_from_json)
        .collect()
}

/// Serialize a [`lassi_core::Table4Row`].
pub fn table4_row_to_json(r: &lassi_core::Table4Row) -> Json {
    Json::Object(vec![
        ("category".into(), Json::Str(r.category.clone())),
        ("application".into(), Json::Str(r.application.clone())),
        ("runtime_args".into(), Json::Str(r.runtime_args.clone())),
        ("cuda_seconds".into(), Json::Float(r.cuda_seconds)),
        ("omp_seconds".into(), Json::Float(r.omp_seconds)),
    ])
}

/// Deserialize a [`lassi_core::Table4Row`].
pub fn table4_row_from_json(v: &Json) -> Result<lassi_core::Table4Row, CodecError> {
    Ok(lassi_core::Table4Row {
        category: str_field(v, "category")?,
        application: str_field(v, "application")?,
        runtime_args: str_field(v, "runtime_args")?,
        cuda_seconds: f64_field(v, "cuda_seconds")?,
        omp_seconds: f64_field(v, "omp_seconds")?,
    })
}

/// Serialize a [`RunManifest`].
pub fn manifest_to_json(m: &RunManifest) -> Json {
    Json::Object(vec![
        ("schema_version".into(), Json::Int(m.schema_version as i128)),
        ("run_id".into(), Json::Str(m.run_id.clone())),
        (
            "package_version".into(),
            Json::Str(m.package_version.clone()),
        ),
        ("git_commit".into(), Json::opt_str(m.git_commit.as_deref())),
        (
            "created_unix".into(),
            m.created_unix.map(Json::uint).unwrap_or(Json::Null),
        ),
        ("seed".into(), Json::uint(m.seed)),
        (
            "timing_runs".into(),
            Json::Array(
                m.timing_runs
                    .iter()
                    .map(|&v| Json::Int(v as i128))
                    .collect(),
            ),
        ),
        (
            "max_self_corrections".into(),
            Json::Array(
                m.max_self_corrections
                    .iter()
                    .map(|&v| Json::Int(v as i128))
                    .collect(),
            ),
        ),
        (
            "models".into(),
            Json::Array(m.models.iter().map(|s| Json::Str(s.clone())).collect()),
        ),
        (
            "applications".into(),
            Json::Array(
                m.applications
                    .iter()
                    .map(|s| Json::Str(s.clone()))
                    .collect(),
            ),
        ),
        (
            "directions".into(),
            Json::Array(m.directions.iter().map(|s| Json::Str(s.clone())).collect()),
        ),
        (
            "record_sets".into(),
            Json::Array(m.record_sets.iter().map(|s| Json::Str(s.clone())).collect()),
        ),
        ("scenarios".into(), Json::Int(m.scenarios as i128)),
        ("cache_hits".into(), Json::uint(m.cache_hits)),
        ("cache_misses".into(), Json::uint(m.cache_misses)),
    ])
}

/// Deserialize a [`RunManifest`].
pub fn manifest_from_json(v: &Json) -> Result<RunManifest, CodecError> {
    let created_unix =
        {
            let c = field(v, "created_unix")?;
            if c.is_null() {
                None
            } else {
                Some(c.as_u64().ok_or_else(|| {
                    CodecError("field `created_unix` must be a u64 or null".into())
                })?)
            }
        };
    Ok(RunManifest {
        schema_version: u32_field(v, "schema_version")?,
        run_id: str_field(v, "run_id")?,
        package_version: str_field(v, "package_version")?,
        git_commit: opt_str_field(v, "git_commit")?,
        created_unix,
        seed: u64_field(v, "seed")?,
        timing_runs: u32_array_field(v, "timing_runs")?,
        max_self_corrections: u32_array_field(v, "max_self_corrections")?,
        models: str_array_field(v, "models")?,
        applications: str_array_field(v, "applications")?,
        directions: str_array_field(v, "directions")?,
        record_sets: str_array_field(v, "record_sets")?,
        scenarios: usize_field(v, "scenarios")?,
        cache_hits: u64_field(v, "cache_hits")?,
        cache_misses: u64_field(v, "cache_misses")?,
    })
}

/// Serialize both directions' variants of everything a run needs.
pub fn direction_to_str(direction: Direction) -> &'static str {
    direction.slug()
}

/// Deserialize a [`Direction`] slug.
pub fn direction_from_str(s: &str) -> Result<Direction, CodecError> {
    Direction::from_slug(s).ok_or_else(|| CodecError(format!("unknown direction `{s}`")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn sample_record() -> TranslationRecord {
        TranslationRecord {
            application: "layout".into(),
            model: "GPT-4".into(),
            source_dialect: Dialect::CudaLite,
            target_dialect: Dialect::OmpLite,
            status: ScenarioStatus::Success,
            self_corrections: 3,
            generated_code: Some("int main() {\n  printf(\"x\\n\");\n}".into()),
            generated_runtime: Some(0.1 + 0.2),
            reference_runtime: 1.5,
            source_runtime: 2.25,
            ratio: Some(1.0 / 3.0),
            sim_t: Some(0.61),
            sim_l: None,
            prompt_tokens: 1234,
            response_tokens: 567,
            diagnostics: vec![AttemptDiagnostics {
                round: 0,
                stage: "sema".into(),
                diagnostics: vec![
                    Diagnostic::error(14, "use of undeclared identifier 'd_out'")
                        .with_code("sema/undeclared-ident")
                        .with_column(7)
                        .with_note(2, "'d_out' was freed here"),
                    Diagnostic::warning(3, "runtime call").with_code("sema/omp-runtime-in-cuda"),
                ],
            }],
        }
    }

    #[test]
    fn record_round_trips_through_text() {
        let record = sample_record();
        let text = record_to_json(&record).to_pretty();
        let back = record_from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(back, record);
    }

    #[test]
    fn na_record_round_trips() {
        let mut record = sample_record();
        record.status = ScenarioStatus::CompileGaveUp;
        record.generated_code = None;
        record.generated_runtime = None;
        record.ratio = None;
        record.sim_t = None;
        record.sim_l = None;
        let back =
            record_from_json(&parse(&record_to_json(&record).to_compact()).unwrap()).unwrap();
        assert_eq!(back, record);
    }

    #[test]
    fn non_finite_record_round_trips_without_panicking() {
        let mut record = sample_record();
        record.reference_runtime = f64::NAN;
        record.source_runtime = f64::INFINITY;
        record.ratio = Some(f64::NAN);
        let text = record_to_json(&record).to_pretty();
        let back = record_from_json(&parse(&text).unwrap()).unwrap();
        // Required float fields decode `null` back to NaN…
        assert!(back.reference_runtime.is_nan());
        assert!(back.source_runtime.is_nan(), "∞ collapses to null → NaN");
        // …optional float fields cannot distinguish `None` from a
        // serialized NaN, so they decode to the paper's N/A.
        assert_eq!(back.ratio, None);
        // Writing the decoded record again is stable (no panic, same text).
        assert_eq!(record_to_json(&back).to_pretty(), text);
    }

    #[test]
    fn statuses_and_dialects_cover_every_variant() {
        for status in [
            ScenarioStatus::Success,
            ScenarioStatus::BaselineFailed,
            ScenarioStatus::CompileGaveUp,
            ScenarioStatus::ExecuteGaveUp,
            ScenarioStatus::OutputMismatch,
        ] {
            assert_eq!(status_from_str(status_to_str(status)).unwrap(), status);
        }
        for dialect in [Dialect::CudaLite, Dialect::OmpLite] {
            assert_eq!(dialect_from_str(dialect_to_str(dialect)).unwrap(), dialect);
        }
        for direction in Direction::both() {
            assert_eq!(
                direction_from_str(direction_to_str(direction)).unwrap(),
                direction
            );
        }
        assert!(status_from_str("nope").is_err());
        assert!(dialect_from_str("fortran").is_err());
    }

    #[test]
    fn diagnostics_round_trip_with_notes_and_spans() {
        let attempt = AttemptDiagnostics {
            round: 2,
            stage: "execute".into(),
            diagnostics: vec![
                Diagnostic::error(0, "step limit exceeded").with_code("exec/runtime-error")
            ],
        };
        let back = attempt_diagnostics_from_json(
            &parse(&attempt_diagnostics_to_json(&attempt).to_pretty()).unwrap(),
        )
        .unwrap();
        assert_eq!(back, attempt);
        // An uncoded diagnostic keeps its empty code verbatim: the codec is
        // loss-free, and the placeholder is only a rendering.
        let raw = Diagnostic::note(5, "fyi");
        let back =
            diagnostic_from_json(&parse(&diagnostic_to_json(&raw).to_compact()).unwrap()).unwrap();
        assert_eq!(back, raw);
        assert!(back.code.is_empty());
    }

    #[test]
    fn schema_violations_are_reported_not_panicked() {
        let missing = parse(r#"{"application": "x"}"#).unwrap();
        assert!(record_from_json(&missing).is_err());
    }
}
