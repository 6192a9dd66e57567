//! Regenerate Table IV: reference runtimes of the ten HeCBench applications
//! in CUDA and OpenMP on the simulated A100 machine.
//!
//! The rows are saved to `artifacts/run-table4/table4.json`;
//! `--replay <run-dir>` re-renders a saved artifact byte-identically
//! without re-running. Also accepts `--artifacts <dir>`.

use lassi_core::{run_table4, table4_text, Table4Row};
use lassi_harness::{detect_git_commit, RunArtifact, RunManifest, RunStatus};

fn rows() -> Result<Vec<Table4Row>, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let common = lassi_bench::parse_common_args(args)?;
    if let Some(extra) = common.rest.first() {
        return Err(format!("unknown argument `{extra}`"));
    }

    if let Some(dir) = &common.replay {
        let artifact = RunArtifact::load(dir).map_err(|e| e.to_string())?;
        return artifact.table4().map_err(|e| e.to_string());
    }

    let config = lassi_bench::default_config();
    let rows = run_table4(&config);

    let store = lassi_bench::artifact_store(&common);
    let writer = store
        .create_or_replace_run("table4")
        .map_err(|e| e.to_string())?;
    let mut manifest = RunManifest::new("table4", config.seed);
    manifest.git_commit = detect_git_commit();
    manifest.created_unix = Some(lassi_bench::unix_now());
    manifest.timing_runs = vec![config.timing_runs];
    manifest.applications = rows.iter().map(|r| r.application.clone()).collect();
    manifest.scenarios = rows.len();
    writer
        .write_manifest(&manifest)
        .map_err(|e| e.to_string())?;
    writer.write_table4(&rows).map_err(|e| e.to_string())?;
    // The lifecycle file goes last: a run directory without one is an
    // interrupted write.
    RunStatus::done("table4", rows.len())
        .save(writer.dir())
        .map_err(|e| e.to_string())?;
    eprintln!(
        "artifact saved to {}; re-render with --replay {0}",
        writer.dir().display()
    );
    Ok(rows)
}

fn main() {
    match rows() {
        Ok(rows) => {
            println!(
                "Table IV: runtimes of selected HeCBench applications on the simulated A100\n"
            );
            print!("{}", table4_text(&rows));
        }
        Err(message) => {
            eprintln!("table4: {message}");
            std::process::exit(2);
        }
    }
}
