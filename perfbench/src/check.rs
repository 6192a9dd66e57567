//! Output checks, run outside the timed region.

use lassi_core::{ExecEngine, TranslationRecord};
use lassi_harness::codec::record_to_json;
use lassi_harness::{ArtifactStore, GridCell, Job};

use crate::util::{Report, Rng};

fn codec(record: &TranslationRecord) -> String {
    record_to_json(record).to_compact()
}

/// Re-run a seeded sample of `jobs` on the reference interpreter — an
/// oracle independent of the bytecode VM and its memo — and require each
/// record to match the measured one in codec form (derived `PartialEq`
/// would call a NaN-carrying record unequal to itself).
pub fn reference_sample(
    jobs: &[Job],
    measured: &[TranslationRecord],
    count: usize,
    seed: u64,
    report: &mut Report,
) {
    if jobs.is_empty() {
        return;
    }
    let mut rng = Rng::new(seed);
    for _ in 0..count.min(jobs.len()) {
        let index = rng.below(jobs.len());
        let mut job = jobs[index].clone();
        job.config.engine = ExecEngine::Reference;
        let oracle = job.run();
        report.check(codec(&oracle) == codec(&measured[index]), || {
            format!(
                "record {index} ({} / {} / {}) differs from the reference interpreter's",
                job.application.name,
                job.model.name,
                job.direction.slug()
            )
        });
    }
}

/// Require every record set of a run artifact on disk to equal the
/// expected per-cell records.
pub fn artifact_matches(
    store: &ArtifactStore,
    run_id: &str,
    expected: &[(GridCell, Vec<TranslationRecord>)],
    report: &mut Report,
) {
    let artifact = match store.load_run(run_id) {
        Ok(artifact) => artifact,
        Err(e) => return report.fail(format!("artifact {run_id} does not load: {e}")),
    };
    for (cell, records) in expected {
        let what = format!("artifact {run_id}/{}", cell.slug());
        match artifact.records(&cell.slug()) {
            Ok(on_disk) => same_records(&what, records, &on_disk, report),
            Err(e) => report.fail(format!("{what} does not load: {e}")),
        }
    }
}

/// Require two record lists to be identical in codec form.
pub fn same_records(
    what: &str,
    expected: &[TranslationRecord],
    actual: &[TranslationRecord],
    report: &mut Report,
) {
    report.check(expected.len() == actual.len(), || {
        format!(
            "{what}: {} records expected, {} found",
            expected.len(),
            actual.len()
        )
    });
    for (i, (a, b)) in expected.iter().zip(actual).enumerate() {
        report.check(codec(a) == codec(b), || {
            format!("{what}: record {i} differs")
        });
    }
}
