//! Golden-file test pinning the translation engine's output on the reference
//! programs: `print_program(translate_program(reference, other))` for every
//! Table IV application in both directions, compared byte for byte against
//! `tests/golden/<app>.<source>-to-<target>.txt`.
//!
//! The pipeline's translation prompt always carries a clean reference
//! source, so these 20 programs are the whole input set the simulated model's
//! competent core sees. A failure here means the translator's output changed.
//! If that was the intent, replace the named golden file with the text the
//! failure message prints, and say so in the change description.

use std::path::PathBuf;

use lassi_hecbench::applications;
use lassi_lang::{print_program, Dialect};
use lassi_llm::translate_program;

fn slug(dialect: Dialect) -> &'static str {
    match dialect {
        Dialect::CudaLite => "cuda",
        Dialect::OmpLite => "omp",
    }
}

#[test]
fn reference_translations_match_the_golden_files() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut checked = 0;
    let mut mismatches = Vec::new();
    for app in applications() {
        for source in [Dialect::CudaLite, Dialect::OmpLite] {
            let target = source.other();
            let program = app.parse(source).expect("reference parses");
            let translated = translate_program(&program, target)
                .unwrap_or_else(|e| panic!("{} {source} -> {target}: {e}", app.name));
            let actual = print_program(&translated);
            let name = format!("{}.{}-to-{}.txt", app.name, slug(source), slug(target));
            let golden = std::fs::read_to_string(dir.join(&name)).unwrap_or_default();
            if actual != golden {
                mismatches.push(format!("--- {name} (actual) ---\n{actual}"));
            }
            checked += 1;
        }
    }
    assert_eq!(checked, 20, "10 applications x 2 directions");
    assert!(
        mismatches.is_empty(),
        "{} of {checked} translations differ from tests/golden:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}
