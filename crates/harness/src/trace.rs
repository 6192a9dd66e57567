//! Serialization of `lassi-obs` trace events through the hand-rolled JSON
//! layer: one compact JSON object per line (`trace.jsonl`) in a run
//! directory, read back for `GET /v1/runs/{id}/trace` and the smoke tests.
//!
//! The file stores lifecycle events and one `job` span per scenario. The
//! per-finding `diag` events are not stored: they are copies of the
//! records' diagnostics, re-inserted on read by
//! [`crate::RunArtifact::trace_view`].
//!
//! One line of the versioned `trace.v1` schema:
//!
//! ```text
//! {"v":"trace.v1","kind":"span","name":"job","t_us":120,"dur_us":4500,
//!  "fields":{"application":"layout","queue_wait_us":80,"from_cache":false}}
//! ```
//!
//! `dur_us` is omitted for instantaneous events. Field values are the
//! scalars [`FieldValue`] covers — booleans, 64-bit integers, floats
//! (bit-exact through the codec) and strings — so a write→parse round
//! trip reproduces the events exactly.

use std::io;
use std::path::Path;

use lassi_core::{AttemptDiagnostics, TranslationRecord};
use lassi_obs::{FieldValue, TraceEvent, TraceKind, TRACE_SCHEMA};

use crate::codec::CodecError;
use crate::json::{self, Json};
use crate::scheduler::{Job, JobOutput};
use crate::store::ArtifactError;

/// File name of a run's trace inside its `run-<id>/` directory.
pub const TRACE_FILE: &str = "trace.jsonl";

/// Build the canonical `job` span for one completed scheduler output.
///
/// The span starts at the sink-relative instant `start_us`. Its duration
/// is the job's full submission-to-record life: queue wait (submission
/// until a worker claimed the job, which includes the work of the jobs
/// claimed before it) plus execution time. That split is carried in the
/// `queue_wait_us` and `execute_us` fields. Every completed run's
/// `trace.jsonl` contains exactly one of these per scenario.
pub fn job_span(start_us: u64, job: &Job, output: &JobOutput) -> TraceEvent {
    let queue_us = (output.queue_seconds * 1e6).round() as u64;
    let execute_us = (output.wall_seconds * 1e6).round() as u64;
    TraceEvent::span("job", start_us, queue_us + execute_us)
        .with("index", output.index)
        .with("application", job.application.name)
        .with("model", job.model.name)
        .with("direction", job.direction.slug())
        .with("queue_wait_us", queue_us)
        .with("execute_us", execute_us)
        .with("from_cache", output.from_cache)
}

/// Build one `diag` event for a single structured finding of the
/// scenario at job `index`.
///
/// Stamped at the owning job span's end instant: the finding is observed
/// when the record lands, and anchoring every diagnostic of a scenario to
/// one instant keeps the trace deterministic under any worker schedule.
pub(crate) fn diag_event(
    t_us: u64,
    index: usize,
    direction: &str,
    record: &TranslationRecord,
    attempt: &AttemptDiagnostics,
    diag: &lassi_lang::Diagnostic,
) -> TraceEvent {
    TraceEvent::event("diag", t_us)
        .with("index", index)
        .with("application", record.application.as_str())
        .with("model", record.model.as_str())
        .with("direction", direction)
        .with("round", attempt.round as u64)
        .with("stage", attempt.stage.as_str())
        .with("code", diag.code_str())
        .with("severity", diag.severity.label())
        .with("line", diag.line as u64)
}

/// Serialize one trace event to its JSON line value.
pub fn event_to_json(event: &TraceEvent) -> Json {
    let mut object = vec![
        ("v".to_string(), Json::Str(TRACE_SCHEMA.to_string())),
        ("kind".to_string(), Json::Str(event.kind.slug().to_string())),
        ("name".to_string(), Json::Str(event.name.clone())),
        ("t_us".to_string(), Json::uint(event.t_us)),
    ];
    if let Some(dur) = event.dur_us {
        object.push(("dur_us".to_string(), Json::uint(dur)));
    }
    let fields = event
        .fields
        .iter()
        .map(|(key, value)| {
            let json = match value {
                FieldValue::Bool(b) => Json::Bool(*b),
                FieldValue::Int(i) => Json::Int(*i as i128),
                FieldValue::Float(f) => Json::Float(*f),
                FieldValue::Str(s) => Json::Str(s.clone()),
            };
            (key.clone(), json)
        })
        .collect();
    object.push(("fields".to_string(), Json::Object(fields)));
    Json::Object(object)
}

/// Inverse of [`event_to_json`].
pub fn event_from_json(value: &Json) -> Result<TraceEvent, CodecError> {
    let expect = |key: &str| {
        value
            .get(key)
            .ok_or_else(|| CodecError(format!("trace event missing `{key}`")))
    };
    let version = expect("v")?
        .as_str()
        .ok_or_else(|| CodecError("trace event `v` must be a string".into()))?;
    if version != TRACE_SCHEMA {
        return Err(CodecError(format!(
            "unsupported trace schema `{version}` (expected `{TRACE_SCHEMA}`)"
        )));
    }
    let kind_slug = expect("kind")?
        .as_str()
        .ok_or_else(|| CodecError("trace event `kind` must be a string".into()))?;
    let kind = TraceKind::from_slug(kind_slug)
        .ok_or_else(|| CodecError(format!("unknown trace kind `{kind_slug}`")))?;
    let name = expect("name")?
        .as_str()
        .ok_or_else(|| CodecError("trace event `name` must be a string".into()))?
        .to_string();
    let t_us = expect("t_us")?
        .as_u64()
        .ok_or_else(|| CodecError("trace event `t_us` must be a u64".into()))?;
    let dur_us = match value.get("dur_us") {
        None => None,
        Some(v) => Some(
            v.as_u64()
                .ok_or_else(|| CodecError("trace event `dur_us` must be a u64".into()))?,
        ),
    };
    let Some(Json::Object(raw_fields)) = value.get("fields") else {
        return Err(CodecError("trace event `fields` must be an object".into()));
    };
    let mut fields = Vec::with_capacity(raw_fields.len());
    for (key, v) in raw_fields {
        let field = match v {
            Json::Bool(b) => FieldValue::Bool(*b),
            Json::Int(i) => FieldValue::Int(
                i64::try_from(*i)
                    .map_err(|_| CodecError(format!("trace field `{key}` out of i64 range")))?,
            ),
            Json::Float(f) => FieldValue::Float(*f),
            Json::Str(s) => FieldValue::Str(s.clone()),
            other => {
                return Err(CodecError(format!(
                    "trace field `{key}` has unsupported type ({other:?})"
                )))
            }
        };
        fields.push((key.clone(), field));
    }
    Ok(TraceEvent {
        kind,
        name,
        t_us,
        dur_us,
        fields,
    })
}

/// Render events as `trace.jsonl` text: one compact object per line.
pub(crate) fn trace_text(events: &[TraceEvent]) -> String {
    let mut text = String::new();
    for event in events {
        text.push_str(&event_to_json(event).to_compact());
        text.push('\n');
    }
    text
}

/// Write a run's trace as `trace.jsonl` into `dir`. An empty event list
/// still writes the (empty) file, so "the run has a trace" is an invariant
/// of completed runs, not a special case.
pub fn write_trace(dir: &Path, events: &[TraceEvent]) -> io::Result<()> {
    std::fs::write(dir.join(TRACE_FILE), trace_text(events))
}

/// Read a `trace.jsonl` back from a run directory.
pub fn read_trace(dir: &Path) -> Result<Vec<TraceEvent>, ArtifactError> {
    parse_trace(&std::fs::read_to_string(dir.join(TRACE_FILE))?)
}

/// Parse the text of a `trace.jsonl` file (blank lines are ignored).
pub fn parse_trace(text: &str) -> Result<Vec<TraceEvent>, ArtifactError> {
    let mut events = Vec::new();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        events.push(event_from_json(&json::parse(line)?)?);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn test_dir(label: &str) -> PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "lassi-trace-test-{}-{label}-{n}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::event("runstate", 0)
                .with("from", "queued")
                .with("to", "running"),
            TraceEvent::span("job", 120, 4500)
                .with("application", "layout")
                .with("model", "GPT-4")
                .with("direction", "cuda-to-omp")
                .with("index", 0usize)
                .with("queue_wait_us", 80u64)
                .with("execute_us", 4420u64)
                .with("from_cache", false)
                .with("wall_seconds", 0.00442),
            TraceEvent::event("runstate", 5000)
                .with("from", "running")
                .with("to", "done"),
        ]
    }

    #[test]
    fn events_round_trip_through_the_codec() {
        for event in sample_events() {
            let json = event_to_json(&event);
            let reparsed = json::parse(&json.to_compact()).unwrap();
            assert_eq!(event_from_json(&reparsed).unwrap(), event);
        }
    }

    #[test]
    fn trace_file_round_trips() {
        let dir = test_dir("roundtrip");
        let events = sample_events();
        write_trace(&dir, &events).unwrap();
        let loaded = read_trace(&dir).unwrap();
        assert_eq!(loaded, events);
        // The file is genuine JSONL: one parseable object per line.
        let text = std::fs::read_to_string(dir.join(TRACE_FILE)).unwrap();
        assert_eq!(text.lines().count(), events.len());
        for line in text.lines() {
            assert!(json::parse(line).is_ok());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_trace_still_writes_a_file() {
        let dir = test_dir("empty");
        write_trace(&dir, &[]).unwrap();
        assert!(dir.join(TRACE_FILE).is_file());
        assert_eq!(read_trace(&dir).unwrap(), Vec::new());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn schema_and_shape_errors_are_rejected() {
        let bad_version = r#"{"v":"trace.v0","kind":"event","name":"x","t_us":0,"fields":{}}"#;
        assert!(parse_trace(bad_version).is_err());
        let bad_kind = r#"{"v":"trace.v1","kind":"blob","name":"x","t_us":0,"fields":{}}"#;
        assert!(parse_trace(bad_kind).is_err());
        let missing_fields = r#"{"v":"trace.v1","kind":"event","name":"x","t_us":0}"#;
        assert!(parse_trace(missing_fields).is_err());
        let nested_field =
            r#"{"v":"trace.v1","kind":"event","name":"x","t_us":0,"fields":{"a":[1]}}"#;
        assert!(parse_trace(nested_field).is_err());
        let not_json = "{ nope";
        assert!(parse_trace(not_json).is_err());
    }

    #[test]
    fn float_fields_are_bit_exact() {
        let event = TraceEvent::event("f", 1)
            .with("v", 0.1_f64)
            .with("tiny", 5e-324_f64)
            .with("big", 1.7976931348623157e308_f64);
        let line = event_to_json(&event).to_compact();
        let back = event_from_json(&json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, event);
    }
}
