//! `sweep` — run arbitrary config-grid sweeps on the `lassi-harness`
//! experiment service, with a persistent scenario cache and a JSON artifact
//! per run.
//!
//! ```text
//! sweep run  [--models L] [--apps L] [--directions L|both]
//!            [--max-self-corrections L] [--timing-runs L] [--seed N]
//!            [--run-id ID] [--artifacts DIR] [--no-cache] [--workers N]
//!            [--timings] [--diag-summary]
//! sweep full [--max-self-corrections L] [--timing-runs L] [--seed N]
//!            [--artifacts DIR] [--workers N] [--timings] [--diag-summary]
//! sweep smoke [--artifacts DIR] [--workers N] [--diag-summary]
//! sweep verify <run-dir>
//! sweep list [--artifacts DIR]
//! sweep delete <run-id> [--artifacts DIR]
//! ```
//!
//! Lists are comma-separated. Every (direction, max_self_corrections,
//! timing_runs) cell of the grid becomes one record set in the artifact.
//!
//! `--timings` (on `run` and `full`) prints a per-stage pipeline timing
//! table — parse / sema / compile / llm / execute / similarity — from the
//! process-wide `lassi-obs` metrics registry after the sweep, followed by
//! the execution-report memo's counters and the execute stage's share of
//! instrumented stage time.
//!
//! `--diag-summary` (on `run`, `full` and `smoke`) prints the sweep's
//! structured findings aggregated per stable diagnostic code after the
//! records are written: a grep-stable `diagnostics:` headline (total
//! findings, scenarios that produced any, repair rounds spent) followed by
//! one row per code with its severity, finding count, scenario count and
//! the deepest self-correction round it appeared in. The table is computed
//! from the same records the artifact stores, so it always agrees with
//! the run's rendered `diag.v1` document.
//!
//! `full` runs the paper's complete Table-IV grid — every application ×
//! every model × both directions (10 × 4 × 2 = 80 scenarios per config
//! cell) — twice through the worker pool and the scenario cache (cold, then
//! warm), saves the artifact as `run-fullgrid/` (replacing any previous
//! one) and verifies it round-trips. The grid dimensions are fixed by
//! definition; narrowing flags (`--models`, `--apps`, `--directions`) are
//! rejected. Performance is measured by `perfbench/`, not here.
//!
//! `smoke` is the self-checking CI entry point over a tiny 2-application
//! × 1-model grid. The cold/warm measurement runs against a *throwaway*
//! cache directory so "cold" genuinely means 0% hits and "warm" 100% — a
//! pre-warmed shared cache must not be able to fake the cold numbers (it
//! once did: the committed `cold_cache_hit_rate` read 1.0). A third,
//! separate pass then goes through the persistent shared cache at
//! `<artifacts>/cache`; because that cache survives the process, a *second*
//! `sweep smoke` invocation reports 100% hits on this shared pass — CI
//! asserts exactly that. The artifact is written from the shared pass and
//! verified to round-trip (including a byte-identical table re-rendering).
//!
//! `verify <run-dir>` reloads a saved artifact with the round-trip loader,
//! checks the manifest's scenario count against the record sets, and
//! renders the diagnostics document and trace views from the records. A
//! run with record sets must have its `trace.jsonl`.
//!
//! `list` prints the run ids present in the artifact store, one per line.
//!
//! `delete <run-id>` removes one run directory from the artifact store
//! (the first piece of artifact GC — the same operation the server exposes
//! as `DELETE /v1/runs/{id}`). The scenario cache is never touched.

use std::time::Instant;

use lassi_core::{direction_table, scenario_outcomes, Direction, PipelineConfig};
use lassi_harness::codec::record_to_json;
use lassi_harness::{CacheSnapshot, GridCell, Harness, Job, JobOutput, RunArtifact, SweepGrid};
use lassi_hecbench::{application, applications, Application};
use lassi_llm::{all_models, model_by_name, ModelSpec};
use lassi_metrics::AggregateStats;

/// What the invocation asks for — one subcommand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// `sweep run`: an arbitrary config-grid sweep.
    Run,
    /// `sweep full`: the paper's complete Table-IV grid, cold then warm.
    Full,
    /// `sweep smoke`: the self-checking CI smoke over a tiny grid.
    Smoke,
    /// `sweep list`: run ids in the artifact store.
    List,
    /// `sweep delete <run-id>`: remove one run directory.
    Delete,
    /// `sweep verify <run-dir>`: round-trip-check a saved artifact.
    Verify,
}

impl Mode {
    fn from_word(word: &str) -> Option<Mode> {
        match word {
            "run" => Some(Mode::Run),
            "full" => Some(Mode::Full),
            "smoke" => Some(Mode::Smoke),
            "list" => Some(Mode::List),
            "delete" => Some(Mode::Delete),
            "verify" => Some(Mode::Verify),
            _ => None,
        }
    }

    fn word(self) -> &'static str {
        match self {
            Mode::Run => "run",
            Mode::Full => "full",
            Mode::Smoke => "smoke",
            Mode::List => "list",
            Mode::Delete => "delete",
            Mode::Verify => "verify",
        }
    }

    /// Does this subcommand take a positional operand, and what is it?
    fn operand_name(self) -> Option<&'static str> {
        match self {
            Mode::Delete => Some("<run-id>"),
            Mode::Verify => Some("<run-dir>"),
            _ => None,
        }
    }
}

struct SweepArgs {
    common: lassi_bench::CommonArgs,
    mode: Mode,
    /// The positional operand for `delete` / `verify`.
    operand: Option<String>,
    models: Vec<ModelSpec>,
    apps: Vec<Application>,
    directions: Vec<Direction>,
    /// True once --models/--apps/--directions narrowed the product
    /// (incompatible with `full`, which is the full product by definition).
    narrowed: bool,
    max_self_corrections: Vec<u32>,
    timing_runs: Vec<u32>,
    seed: Option<u64>,
    run_id: Option<String>,
    /// Print the per-stage pipeline timing table after the sweep.
    timings: bool,
    /// Print the per-code structured-findings table after the sweep.
    diag_summary: bool,
}

fn parse_list<T, E: std::fmt::Display>(
    raw: &str,
    what: &str,
    parse: impl Fn(&str) -> Result<T, E>,
) -> Result<Vec<T>, String> {
    let items: Result<Vec<T>, String> = raw
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| parse(s).map_err(|e| format!("bad {what} `{s}`: {e}")))
        .collect();
    let items = items?;
    if items.is_empty() {
        return Err(format!("empty {what} list"));
    }
    Ok(items)
}

/// The usage hint every argument error ends with.
const SUBCOMMANDS: &str = "subcommands: run, full, smoke, list, delete <run-id>, verify <run-dir>";

fn parse_args() -> Result<SweepArgs, String> {
    let common = lassi_bench::parse_common_args(std::env::args().skip(1))?;
    let mut args = SweepArgs {
        common: common.clone(),
        mode: Mode::Run,
        operand: None,
        models: all_models(),
        apps: applications(),
        directions: Direction::both().to_vec(),
        narrowed: false,
        max_self_corrections: vec![PipelineConfig::default().max_self_corrections],
        timing_runs: vec![PipelineConfig::default().timing_runs],
        seed: None,
        run_id: None,
        timings: false,
        diag_summary: false,
    };
    let mut iter = common.rest.into_iter();
    // The subcommand word leads; everything after it is flags (plus the
    // operand for `delete` / `verify`).
    args.mode = match iter.next() {
        Some(word) => Mode::from_word(&word)
            .ok_or_else(|| format!("unknown subcommand `{word}` ({SUBCOMMANDS})"))?,
        None => return Err(format!("missing subcommand ({SUBCOMMANDS})")),
    };
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| iter.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--models" => {
                args.models = parse_list(&value("--models")?, "model", |s| {
                    model_by_name(s).ok_or("unknown model")
                })?;
                args.narrowed = true;
            }
            "--apps" => {
                args.apps = parse_list(&value("--apps")?, "application", |s| {
                    application(s).ok_or("unknown application")
                })?;
                args.narrowed = true;
            }
            "--directions" => {
                let raw = value("--directions")?;
                if raw == "both" {
                    args.directions = Direction::both().to_vec();
                } else {
                    args.directions = parse_list(&raw, "direction", |s| {
                        Direction::from_slug(s).ok_or("use omp-to-cuda / cuda-to-omp / both")
                    })?;
                }
                args.narrowed = true;
            }
            "--max-self-corrections" | "--msc" => {
                args.max_self_corrections =
                    parse_list(&value("--max-self-corrections")?, "cap", str::parse::<u32>)?;
            }
            "--timing-runs" => {
                args.timing_runs =
                    parse_list(&value("--timing-runs")?, "timing-runs", str::parse::<u32>)?;
            }
            "--seed" => {
                let raw = value("--seed")?;
                args.seed = Some(raw.parse().map_err(|_| format!("bad seed `{raw}`"))?);
            }
            "--run-id" => args.run_id = Some(value("--run-id")?),
            "--timings" => args.timings = true,
            "--diag-summary" => args.diag_summary = true,
            other if !other.starts_with('-') => {
                // Positional operand — only `delete` / `verify` take one.
                if args.mode.operand_name().is_some() && args.operand.is_none() {
                    args.operand = Some(other.to_string());
                } else {
                    return Err(format!("unexpected argument `{other}` ({SUBCOMMANDS})"));
                }
            }
            other => {
                return Err(format!(
                    "unknown argument `{other}` (see --help in the docs)"
                ))
            }
        }
    }
    match args.mode.operand_name() {
        Some(name) if args.operand.is_none() => {
            Err(format!("`sweep {}` needs {name}", args.mode.word()))
        }
        _ => Ok(args),
    }
}

/// One harness pass over the grid's jobs; returns submission-ordered outputs,
/// wall-clock and the pass's cache-counter delta.
fn run_pass(harness: &Harness, jobs: Vec<Job>) -> (Vec<JobOutput>, f64, CacheSnapshot) {
    let before = harness.cache_snapshot();
    let started = Instant::now();
    let outputs = harness.submit(jobs).collect_outputs();
    let wall = started.elapsed().as_secs_f64();
    (outputs, wall, harness.cache_snapshot().since(before))
}

fn pass_line(label: &str, outputs: &[JobOutput], wall: f64, delta: CacheSnapshot) -> String {
    format!(
        "{label} pass: {} scenarios, wall {:.3}s, cache hits {}/{} ({:.1}%)",
        outputs.len(),
        wall,
        delta.hits,
        delta.hits + delta.misses,
        delta.hit_rate() * 100.0,
    )
}

/// Write one run artifact via the shared [`SweepGrid::write_artifact`]
/// writer (the same one the HTTP service uses, so artifacts are
/// interchangeable). Returns the per-cell records for later verification.
fn write_artifact(
    args: &SweepArgs,
    grid: &SweepGrid,
    run_id: &str,
    replace: bool,
    jobs: &[Job],
    outputs: &[JobOutput],
    snapshot: CacheSnapshot,
) -> Result<Vec<(GridCell, Vec<lassi_core::TranslationRecord>)>, String> {
    let store = lassi_bench::artifact_store(&args.common);
    // No extra lifecycle events from the CLI — `write_artifact` itself
    // synthesises the one-job-span-per-scenario timeline in `trace.jsonl`.
    let per_cell = grid
        .write_artifact(&store, run_id, replace, jobs, outputs, snapshot, &[])
        .map_err(|e| e.to_string())?;
    eprintln!("artifact saved to {}", store.run_dir(run_id).display());
    Ok(per_cell)
}

/// Reload an artifact and check every record set round-trips: records
/// parse, the manifest's scenario count matches them, and the diagnostics
/// and trace views render from the records. Every artifact with record
/// sets has a `trace.jsonl`; only one without (`table4`) may lack it.
fn verify_artifact(dir: &std::path::Path) -> Result<String, String> {
    let artifact = RunArtifact::load(dir).map_err(|e| e.to_string())?;
    let mut records_total = 0;
    for set in &artifact.manifest.record_sets {
        records_total += artifact.records(set).map_err(|e| e.to_string())?.len();
    }
    if records_total != artifact.manifest.scenarios {
        return Err(format!(
            "manifest claims {} scenarios but record sets hold {records_total}",
            artifact.manifest.scenarios
        ));
    }
    artifact
        .diagnostics_view()
        .map_err(|e| format!("diagnostics view: {e}"))?;
    if !artifact.manifest.record_sets.is_empty() {
        artifact
            .trace_view()
            .map_err(|e| format!("trace view: {e}"))?;
    }
    Ok(format!(
        "artifact OK: {} record sets, {records_total} records, schema v{}",
        artifact.manifest.record_sets.len(),
        artifact.manifest.schema_version
    ))
}

/// One cold pass then one warm pass over the grid's jobs, with the shared
/// gate both self-checking modes enforce: the warm pass must be 100% cache
/// hits and must reproduce the cold records exactly. "Exactly" is judged on
/// the serialized (codec) form — derived `PartialEq` would declare a
/// NaN-carrying record unequal to itself, failing precisely the degenerate
/// records the artifact store is built to tolerate. Returns the cold pass's
/// outputs and cache-counter delta.
fn cold_then_warm(
    harness: &Harness,
    grid: &SweepGrid,
) -> Result<(Vec<JobOutput>, CacheSnapshot), String> {
    let (cold_out, cold_wall, cold_delta) = run_pass(harness, grid.jobs());
    println!("{}", pass_line("cold", &cold_out, cold_wall, cold_delta));
    let (warm_out, warm_wall, warm_delta) = run_pass(harness, grid.jobs());
    println!("{}", pass_line("warm", &warm_out, warm_wall, warm_delta));

    if warm_delta.hits as usize != warm_out.len() || warm_delta.misses != 0 {
        return Err(format!(
            "warm pass must be 100% cache hits, got {}/{}",
            warm_delta.hits,
            warm_delta.hits + warm_delta.misses
        ));
    }
    for (cold, warm) in cold_out.iter().zip(&warm_out) {
        let cold_text = record_to_json(&cold.record).to_compact();
        let warm_text = record_to_json(&warm.record).to_compact();
        if cold_text != warm_text {
            return Err(format!(
                "cache returned a different record for {}",
                cold.record.application
            ));
        }
    }
    Ok((cold_out, cold_delta))
}

/// Per-stage pipeline timings accumulated in the process-wide metrics
/// registry while this process ran scenarios: `(stage, samples, total
/// seconds)` in pipeline order. Cache-served scenarios never enter the
/// pipeline, so only genuinely-executed work shows up here.
fn stage_rows() -> Vec<(&'static str, u64, f64)> {
    let registry = lassi_obs::global();
    lassi_core::STAGE_NAMES
        .iter()
        .filter_map(|stage| {
            registry
                .histogram_snapshot("lassi_stage_seconds", &[("stage", stage)])
                .map(|snapshot| (*stage, snapshot.count, snapshot.sum))
        })
        .collect()
}

/// The `--timings` table: where pipeline wall-clock went, stage by stage,
/// followed by the execution-report memo's counters and the execute stage's
/// share of instrumented stage time (CI greps the share
/// line to assert the bytecode engine keeps execution off the critical
/// path).
fn print_stage_table() {
    let rows = stage_rows();
    if rows.is_empty() {
        println!("stage timings: none recorded (all scenarios cache-served?)");
        return;
    }
    println!(
        "{:<12} {:>9} {:>11} {:>10}",
        "stage", "samples", "total s", "mean ms"
    );
    let mut stage_total = 0.0;
    let mut execute_total = 0.0;
    for (stage, count, sum) in rows {
        let mean_ms = if count > 0 {
            sum / count as f64 * 1e3
        } else {
            0.0
        };
        println!("{stage:<12} {count:>9} {sum:>11.3} {mean_ms:>10.3}");
        stage_total += sum;
        if stage == "execute" {
            execute_total = sum;
        }
    }
    let reports = lassi_core::progcache::report_stats();
    println!(
        "report cache: {} hits / {} misses ({:.1}% hit rate), {} entries, ~{} bytes",
        reports.hits,
        reports.misses,
        reports.hit_rate() * 100.0,
        reports.entries,
        reports.approx_bytes
    );
    let execute_share = if stage_total > 0.0 {
        execute_total / stage_total * 100.0
    } else {
        0.0
    };
    println!("execute share of stage time: {execute_share:.1}%");
}

/// One row of the `--diag-summary` table: a stable diagnostic code with its
/// severity label, total findings, scenarios it appeared in, and the
/// deepest self-correction round that produced it.
struct DiagRow {
    code: String,
    severity: &'static str,
    count: usize,
    scenarios: usize,
    max_round: u32,
}

/// The `--diag-summary` table: every structured finding in the sweep's
/// records, aggregated per stable code. Computed from the same records the
/// artifact stores, so the numbers always agree with the rendered `diag.v1`
/// document; the headline is grep-stable (`^diagnostics: `) for CI.
fn print_diag_summary(per_cell: &[(GridCell, Vec<lassi_core::TranslationRecord>)]) {
    let mut findings = 0usize;
    let mut flagged_scenarios = 0usize;
    let mut repair_rounds = 0u64;
    let mut rows: Vec<DiagRow> = Vec::new();
    for (_, records) in per_cell {
        for record in records {
            repair_rounds += record.self_corrections as u64;
            let mut codes_here: Vec<&str> = Vec::new();
            for attempt in &record.diagnostics {
                for diag in &attempt.diagnostics {
                    findings += 1;
                    let code = diag.code_str();
                    let first_in_scenario = !codes_here.contains(&code);
                    match rows.iter_mut().find(|row| row.code == code) {
                        Some(row) => {
                            row.count += 1;
                            row.scenarios += usize::from(first_in_scenario);
                            row.max_round = row.max_round.max(attempt.round);
                        }
                        None => rows.push(DiagRow {
                            code: code.to_string(),
                            severity: diag.severity.label(),
                            count: 1,
                            scenarios: 1,
                            max_round: attempt.round,
                        }),
                    }
                    if first_in_scenario {
                        codes_here.push(code);
                    }
                }
            }
            if !codes_here.is_empty() {
                flagged_scenarios += 1;
            }
        }
    }
    println!(
        "diagnostics: {findings} findings across {flagged_scenarios} \
         scenarios, {repair_rounds} repair rounds"
    );
    if rows.is_empty() {
        return;
    }
    // Busiest codes first; ties break on the code so reruns are
    // byte-identical.
    rows.sort_by(|a, b| b.count.cmp(&a.count).then(a.code.cmp(&b.code)));
    println!(
        "{:<28} {:<8} {:>7} {:>10} {:>10}",
        "code", "severity", "count", "scenarios", "max round"
    );
    for row in rows {
        println!(
            "{:<28} {:<8} {:>7} {:>10} {:>10}",
            row.code, row.severity, row.count, row.scenarios, row.max_round
        );
    }
}

fn smoke(args: &SweepArgs) -> Result<(), String> {
    let base = PipelineConfig {
        timing_runs: 1,
        ..PipelineConfig::default()
    };
    let grid = SweepGrid::single(
        base,
        vec![model_by_name("GPT-4").expect("GPT-4 exists")],
        vec![
            application("layout").expect("layout exists"),
            application("entropy").expect("entropy exists"),
        ],
        vec![Direction::CudaToOmp],
    );
    let shared_harness = lassi_bench::build_harness(&args.common)?;
    if shared_harness.cache().is_none() {
        return Err("`sweep smoke` needs the scenario cache (drop --no-cache)".into());
    }
    let options = lassi_harness::HarnessOptions::default().with_workers(args.common.workers);

    // Cold/warm measurement over a *throwaway* disk cache, so the cold pass
    // cannot be faked by a cache warmed in an earlier invocation: cold must
    // be 0% hits, warm 100%.
    let fresh_dir =
        std::env::temp_dir().join(format!("lassi-smoke-fresh-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&fresh_dir);
    let fresh_cache = lassi_harness::ScenarioCache::on_disk(&fresh_dir)
        .map_err(|e| format!("cannot create throwaway cache: {e}"))?;
    let fresh_harness = lassi_harness::Harness::new(options).with_cache(fresh_cache);
    let measured = cold_then_warm(&fresh_harness, &grid);
    // Clean the throwaway cache up on the error path too, before `?` bails.
    let _ = std::fs::remove_dir_all(&fresh_dir);
    let (_, cold_delta) = measured?;
    if cold_delta.hits != 0 {
        return Err(format!(
            "cold pass on a fresh cache must have 0 hits, got {}",
            cold_delta.hits
        ));
    }

    // A separate pass through the *persistent* shared cache under
    // <artifacts>/cache. It misses on the first invocation and must be 100%
    // hits on the second (CI asserts the `shared pass` line), and it is the
    // pass the artifact is written from.
    let (shared_out, shared_wall, shared_delta) = run_pass(&shared_harness, grid.jobs());
    println!(
        "{}",
        pass_line("shared", &shared_out, shared_wall, shared_delta)
    );

    let jobs = grid.jobs();
    let per_cell = write_artifact(
        args,
        &grid,
        "smoke",
        true,
        &jobs,
        &shared_out,
        shared_harness.cache_snapshot(),
    )?;

    // Round-trip check: reload the artifact and require the re-rendered
    // table to be byte-identical to the live rendering.
    let store = lassi_bench::artifact_store(&args.common);
    let run_dir = store.run_dir("smoke");
    println!("{}", verify_artifact(&run_dir)?);
    let artifact = RunArtifact::load(&run_dir).map_err(|e| e.to_string())?;
    for (cell, live_records) in &per_cell {
        let loaded = artifact.records(&cell.slug()).map_err(|e| e.to_string())?;
        if loaded != *live_records {
            return Err(format!(
                "record set {} changed across save/load",
                cell.slug()
            ));
        }
        let live_table = direction_table(cell.direction, live_records);
        let replayed_table = direction_table(cell.direction, &loaded);
        if live_table != replayed_table {
            return Err(format!(
                "replayed table for {} is not byte-identical",
                cell.slug()
            ));
        }
    }
    println!("replayed tables byte-identical to live rendering");

    if args.diag_summary {
        print_diag_summary(&per_cell);
    }
    Ok(())
}

fn full_sweep(args: &SweepArgs) -> Result<(), String> {
    let mut base = PipelineConfig::default();
    if let Some(seed) = args.seed {
        base.seed = seed;
    }
    let grid = SweepGrid {
        base,
        models: args.models.clone(),
        apps: args.apps.clone(),
        directions: args.directions.clone(),
        max_self_corrections: args.max_self_corrections.clone(),
        timing_runs: args.timing_runs.clone(),
    };
    if grid.is_empty() {
        return Err("the sweep grid is empty".into());
    }
    let run_id = args
        .run_id
        .clone()
        .unwrap_or_else(|| format!("sweep-{}", lassi_bench::unix_now()));
    eprintln!(
        "sweeping {} scenarios over {} grid cells (run id: {run_id})",
        grid.len(),
        grid.cells().len()
    );

    let harness = lassi_bench::build_harness(&args.common)?;
    let jobs = grid.jobs();
    let (outputs, wall, delta) = run_pass(&harness, jobs.clone());
    println!("{}", pass_line("sweep", &outputs, wall, delta));

    let per_cell = write_artifact(
        args,
        &grid,
        &run_id,
        false,
        &jobs,
        &outputs,
        harness.cache_snapshot(),
    )?;
    for (cell, records) in &per_cell {
        let stats = AggregateStats::from_outcomes(&scenario_outcomes(records));
        println!("\n=== {} ===\n{stats}", cell.slug());
    }
    if args.diag_summary {
        print_diag_summary(&per_cell);
    }
    if args.timings {
        print_stage_table();
    }
    Ok(())
}

/// The complete paper grid — every application × every model × both
/// directions — run cold then warm through the worker pool and the scenario
/// cache.
fn full_grid(args: &SweepArgs) -> Result<(), String> {
    if args.narrowed {
        return Err(
            "`sweep full` runs the complete application × model × direction grid; \
             drop --models/--apps/--directions (use --max-self-corrections / \
             --timing-runs to sweep config cells)"
                .into(),
        );
    }
    if args.run_id.is_some() {
        return Err(
            "`sweep full` always writes (and replaces) run-fullgrid/; drop \
             --run-id, or use `sweep run` for custom run ids"
                .into(),
        );
    }
    let mut base = PipelineConfig::default();
    if let Some(seed) = args.seed {
        base.seed = seed;
    }
    let grid = SweepGrid {
        base,
        models: all_models(),
        apps: applications(),
        directions: Direction::both().to_vec(),
        max_self_corrections: args.max_self_corrections.clone(),
        timing_runs: args.timing_runs.clone(),
    };
    let harness = lassi_bench::build_harness(&args.common)?;
    if harness.cache().is_none() {
        return Err("`sweep full` needs the scenario cache (drop --no-cache)".into());
    }
    let workers = lassi_harness::HarnessOptions::default()
        .with_workers(args.common.workers)
        .workers;
    eprintln!(
        "full grid: {} applications × {} models × {} directions × {} config \
         cells = {} scenarios on {workers} workers",
        grid.apps.len(),
        grid.models.len(),
        grid.directions.len(),
        grid.max_self_corrections.len() * grid.timing_runs.len(),
        grid.len(),
    );

    let (cold_out, _) = cold_then_warm(&harness, &grid)?;

    let jobs = grid.jobs();
    let per_cell = write_artifact(
        args,
        &grid,
        "fullgrid",
        true,
        &jobs,
        &cold_out,
        harness.cache_snapshot(),
    )?;
    let store = lassi_bench::artifact_store(&args.common);
    println!("{}", verify_artifact(&store.run_dir("fullgrid"))?);

    for (cell, records) in &per_cell {
        let stats = AggregateStats::from_outcomes(&scenario_outcomes(records));
        println!("\n=== {} ===\n{stats}", cell.slug());
    }
    if args.diag_summary {
        print_diag_summary(&per_cell);
    }
    if args.timings {
        print_stage_table();
    }
    Ok(())
}

/// `sweep list`: the run ids in the artifact store, one per line on stdout.
fn list_runs(args: &SweepArgs) -> Result<(), String> {
    let store = lassi_bench::artifact_store(&args.common);
    let runs = store.list_runs().map_err(|e| e.to_string())?;
    eprintln!("{} run(s) in {}", runs.len(), store.root().display());
    for id in runs {
        println!("{id}");
    }
    Ok(())
}

/// `sweep delete <run-id>`: remove one run directory (artifact GC, CLI side).
fn delete_run(args: &SweepArgs, run_id: &str) -> Result<(), String> {
    let store = lassi_bench::artifact_store(&args.common);
    store
        .delete_run(run_id)
        .map_err(|e| format!("cannot delete run `{run_id}`: {e}"))?;
    println!("deleted {}", store.run_dir(run_id).display());
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("sweep: {message}");
            std::process::exit(2);
        }
    };
    let operand = || args.operand.as_deref().expect("validated by parse_args");
    let result = match args.mode {
        Mode::Verify => {
            verify_artifact(std::path::Path::new(operand())).map(|report| println!("{report}"))
        }
        Mode::Delete => delete_run(&args, operand()),
        Mode::List => list_runs(&args),
        Mode::Smoke => smoke(&args),
        Mode::Full => full_grid(&args),
        Mode::Run => full_sweep(&args),
    };
    if let Err(message) = result {
        eprintln!("sweep: {message}");
        std::process::exit(1);
    }
}
