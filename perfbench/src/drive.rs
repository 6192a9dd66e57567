//! The per-layer run. It drives a workload's distinct scenarios through
//! `Lassi` directly (what `run_scenario` does), optionally with a timing
//! `ChatModel` wrapper, on as many threads as the harness has workers.
//! Afterwards, outside the timed drive, it replays the pipeline's calls on the exact inputs the drive saw
//! — the baseline sources and every code block the wrapper saw the model
//! return — timing `parse`, `sema`, bytecode lowering, the VM and similarity
//! one call at a time. Every span is kept in memory and written when the
//! run ends. No tracing lives inside the program: every span is taken from
//! the outside, around a call into a public function.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use lassi_core::{Lassi, TranslationRecord};
use lassi_harness::{Job, Json};
use lassi_hecbench::{applications, Machine};
use lassi_lang::{Dialect, Program};
use lassi_llm::prompts::extract_code_block;
use lassi_llm::{ChatModel, LlmResponse, SimulatedLlm};
use lassi_runtime::RunConfig;

use crate::util::{self, Report};

/// Programs listed in the per-program VM profile.
const PROFILE_TOP: usize = 10;

/// One model call seen by the wrapper.
#[derive(Clone)]
struct Call {
    start_us: f64,
    seconds: f64,
    prompt_tokens: usize,
    response_tokens: usize,
    text: String,
}

/// Times every `complete` call and keeps the response text.
struct TimingModel {
    inner: SimulatedLlm,
    epoch: Instant,
    calls: Vec<Call>,
}

impl ChatModel for TimingModel {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn context_tokens(&self) -> usize {
        self.inner.context_tokens()
    }

    fn complete(&mut self, system_prompt: &str, user_prompt: &str) -> LlmResponse {
        let started = Instant::now();
        let response = self.inner.complete(system_prompt, user_prompt);
        self.calls.push(Call {
            start_us: (started - self.epoch).as_secs_f64() * 1e6,
            seconds: started.elapsed().as_secs_f64(),
            prompt_tokens: response.prompt_tokens,
            response_tokens: response.response_tokens,
            text: response.text.clone(),
        });
        response
    }
}

/// One finished scenario of a drive: its record and the wrapper's calls.
type Finished = (TranslationRecord, Vec<Call>);

/// Run every job through `Lassi` on `util::workers()` threads; returns the
/// records in job order, the wrapper's calls per job (empty when untraced)
/// and the drive's wall time.
fn drive(
    jobs: &[Job],
    traced: bool,
    epoch: Instant,
) -> (Vec<TranslationRecord>, Vec<Vec<Call>>, f64) {
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Finished>>> = Mutex::new((0..jobs.len()).map(|_| None).collect());
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..util::workers() {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(index) else { break };
                let llm = SimulatedLlm::with_seed(job.model.clone(), job.scenario_seed());
                let source = job.direction.source();
                let done = if traced {
                    let model = TimingModel {
                        inner: llm,
                        epoch,
                        calls: Vec::new(),
                    };
                    let mut pipeline = Lassi::new(model, job.config.clone());
                    let record = pipeline.translate_application(&job.application, source);
                    let calls = pipeline.model().calls.clone();
                    (record, calls)
                } else {
                    let mut pipeline = Lassi::new(llm, job.config.clone());
                    (
                        pipeline.translate_application(&job.application, source),
                        Vec::new(),
                    )
                };
                slots
                    .lock()
                    .expect("no drive thread panics holding the slots")[index] = Some(done);
            });
        }
    });
    let wall = started.elapsed().as_secs_f64();
    let (records, calls) = slots
        .into_inner()
        .expect("drive threads joined")
        .into_iter()
        .map(|slot| slot.expect("every job ran"))
        .unzip();
    (records, calls, wall)
}

/// A timed layer call kept for the span file.
struct Span {
    layer: &'static str,
    op: &'static str,
    scenario: usize,
    start_us: f64,
    dur_us: f64,
}

/// A distinct program the VM ran during the replay.
struct ProgramRun {
    label: String,
    ok: bool,
    steps: u64,
    vm_s: f64,
    lower_s: f64,
    uses: u64,
    used: bool,
}

/// Per-layer totals of the replay, plus the pipeline-shaped call counts
/// the registry cross-check compares against `lassi_stage_seconds`.
#[derive(Default)]
struct Layers {
    parse_calls: u64,
    parse_s: f64,
    parse_bytes: u64,
    sema_calls: u64,
    sema_s: f64,
    sema_rejects: u64,
    compile_calls: u64,
    execute_calls: u64,
    similarity_calls: u64,
    similarity_s: f64,
    llm_calls: u64,
    llm_s: f64,
    prompt_tokens: u64,
    response_tokens: u64,
    shape_errors: Vec<String>,
}

struct Replay {
    epoch: Instant,
    config: RunConfig,
    machine: Machine,
    layers: Layers,
    programs: HashMap<u64, ProgramRun>,
    spans: Vec<Span>,
    scenario: usize,
}

impl Replay {
    fn span(&mut self, layer: &'static str, op: &'static str, started: Instant) -> f64 {
        let seconds = started.elapsed().as_secs_f64();
        self.spans.push(Span {
            layer,
            op,
            scenario: self.scenario,
            start_us: (started - self.epoch).as_secs_f64() * 1e6,
            dur_us: seconds * 1e6,
        });
        seconds
    }

    fn parse(&mut self, source: &str, dialect: Dialect) -> Option<Program> {
        let started = Instant::now();
        let parsed = std::hint::black_box(lassi_lang::parse(source, dialect));
        self.layers.parse_s += self.span("lang", "parse", started);
        self.layers.parse_calls += 1;
        self.layers.parse_bytes += source.len() as u64;
        parsed.ok()
    }

    fn sema(&mut self, program: &Program) -> bool {
        let started = Instant::now();
        let ok = std::hint::black_box(lassi_sema::compile(program)).is_ok();
        self.layers.sema_s += self.span("sema", "check", started);
        self.layers.sema_calls += 1;
        self.layers.sema_rejects += u64::from(!ok);
        ok
    }

    /// Lower and run a program once per distinct key, as the memoized
    /// pipeline does; returns whether it ran without error.
    fn lower_and_run(&mut self, program: &Program, label: impl FnOnce() -> String) -> bool {
        let key = lassi_core::progcache::cache_key(program, &self.config, 0);
        if !self.programs.contains_key(&key) {
            let started = Instant::now();
            let compiled = std::hint::black_box(lassi_runtime::compile(program, 0));
            let lower_s = self.span("runtime", "lower", started);
            let started = Instant::now();
            let outcome = lassi_runtime::run_compiled(&compiled, &self.config, &self.machine, &[]);
            let vm_s = self.span("runtime", "vm", started);
            self.programs.insert(
                key,
                ProgramRun {
                    label: label(),
                    ok: outcome.is_ok(),
                    steps: outcome.as_ref().map_or(0, |r| r.steps),
                    vm_s,
                    lower_s,
                    uses: 0,
                    used: false,
                },
            );
        }
        let run = self.programs.get_mut(&key).expect("inserted above");
        run.uses += 1;
        run.used = true;
        run.ok
    }

    /// The pipeline's `compile_and_run`: sema, one bytecode lookup, then
    /// `timing_runs` executions, stopping at the first error.
    fn compile_and_run(
        &mut self,
        program: &Program,
        timing_runs: u32,
        label: impl FnOnce() -> String,
    ) -> bool {
        if !self.sema(program) {
            return false;
        }
        self.layers.compile_calls += 1;
        let ok = self.lower_and_run(program, label);
        self.layers.execute_calls += if ok { u64::from(timing_runs.max(1)) } else { 1 };
        ok
    }

    /// Replay one scenario's calls in the order `translate_application`
    /// makes them.
    fn scenario(&mut self, job: &Job, record: &TranslationRecord, calls: &[Call]) {
        for call in calls {
            self.layers.llm_calls += 1;
            self.layers.llm_s += call.seconds;
            self.layers.prompt_tokens += call.prompt_tokens as u64;
            self.layers.response_tokens += call.response_tokens as u64;
            self.spans.push(Span {
                layer: "llm",
                op: "complete",
                scenario: self.scenario,
                start_us: call.start_us,
                dur_us: call.seconds * 1e6,
            });
        }
        let app = &job.application;
        let source_dialect = job.direction.source();
        let target_dialect = source_dialect.other();
        let reference_code = app.source(target_dialect);
        let runs = job.config.timing_runs;
        let cap = job.config.max_self_corrections;
        let baseline = |d: Dialect| move || format!("{}.{} (baseline)", app.name, dialect_slug(d));

        let mut next = 2;
        let mut rounds = 0;
        let mut reached_output = false;
        let mut code = String::new();
        let baselines_ok = [source_dialect, target_dialect].into_iter().all(|d| {
            self.parse(app.source(d), d)
                .is_some_and(|p| self.compile_and_run(&p, runs, baseline(d)))
        });
        if let (true, Some(first)) = (
            baselines_ok,
            calls.get(next).and_then(|c| extract_code_block(&c.text)),
        ) {
            next += 1;
            code = first;
            let take_repair = |code: &mut String, next: &mut usize| {
                if let Some(new_code) = calls.get(*next).and_then(|c| extract_code_block(&c.text)) {
                    *code = new_code;
                }
                *next += 1;
            };
            loop {
                let program = loop {
                    let checked = self.parse(&code, target_dialect).filter(|p| self.sema(p));
                    if checked.is_some() || rounds >= cap {
                        break checked;
                    }
                    rounds += 1;
                    take_repair(&mut code, &mut next);
                };
                let Some(program) = program else { break };
                let label = || format!("{}.{} generated", app.name, dialect_slug(target_dialect));
                if self.compile_and_run(&program, runs, label) {
                    reached_output = true;
                    break;
                }
                if rounds >= cap {
                    break;
                }
                rounds += 1;
                take_repair(&mut code, &mut next);
            }
        } else if baselines_ok {
            next += 1;
        }
        if reached_output {
            let started = Instant::now();
            lassi_metrics::with_engine(|engine| {
                std::hint::black_box(engine.sim_t(reference_code, &code));
                std::hint::black_box(engine.sim_l(reference_code, &code));
            });
            self.layers.similarity_s += self.span("metrics", "similarity", started);
            self.layers.similarity_calls += 1;
        }
        let expected_calls = if baselines_ok { next } else { 0 };
        if expected_calls != calls.len() || rounds != record.self_corrections {
            self.layers.shape_errors.push(format!(
                "scenario {} ({} / {}): replay made {expected_calls} model calls and {rounds} repair rounds, \
                 the pipeline made {} and {}",
                self.scenario,
                app.name,
                job.model.name,
                calls.len(),
                record.self_corrections
            ));
        }
    }
}

fn dialect_slug(dialect: Dialect) -> &'static str {
    match dialect {
        Dialect::CudaLite => "cuda",
        Dialect::OmpLite => "omp",
    }
}

/// Drive `jobs` untraced (`traced == false`: only `scenarios_per_s` of the
/// drive) or traced (every per-layer metric of lang, sema, llm, runtime and
/// metrics, the VM profile and the registry cross-check).
pub fn run(
    jobs: &[Job],
    traced: bool,
    spans_path: &Path,
    report: &mut Report,
) -> Result<(), String> {
    util::cold_guard(report)?;
    let epoch = Instant::now();
    let (records, calls, wall) = drive(jobs, traced, epoch);
    report.attempted += jobs.len() as u64;
    report.metric("drive_scenarios_per_s", jobs.len() as f64 / wall);
    report.records_hash = Some(util::records_hash(&records));
    if !traced {
        return Ok(());
    }

    let mut replay = Replay {
        epoch,
        config: jobs
            .first()
            .map(|j| j.config.run_config.clone())
            .unwrap_or_else(Machine::run_config),
        machine: Machine::a100(),
        layers: Layers::default(),
        programs: HashMap::new(),
        spans: Vec::new(),
        scenario: 0,
    };
    // The twenty reference programs, timed whether or not the workload's
    // scenarios need all of them: `runtime.vm_ms.<app>.<dialect>`.
    let mut baseline_ms = Vec::new();
    for app in applications() {
        for dialect in [Dialect::CudaLite, Dialect::OmpLite] {
            let program = lassi_lang::parse(app.source(dialect), dialect)
                .map_err(|d| format!("{} baseline does not parse: {d:?}", app.name))?;
            let key = lassi_core::progcache::cache_key(&program, &replay.config, 0);
            replay.lower_and_run(&program, || {
                format!("{}.{} (baseline)", app.name, dialect_slug(dialect))
            });
            let run = replay.programs.get_mut(&key).expect("just ran");
            run.uses = 0;
            run.used = false;
            baseline_ms.push((
                format!("runtime.vm_ms.{}.{}", app.name, dialect_slug(dialect)),
                run.vm_s * 1e3,
            ));
        }
    }
    for (index, ((job, record), job_calls)) in jobs.iter().zip(&records).zip(&calls).enumerate() {
        replay.scenario = index;
        replay.scenario(job, record, job_calls);
    }

    let layers = &replay.layers;
    let used: Vec<&ProgramRun> = replay.programs.values().filter(|p| p.used).collect();
    let vm_s: f64 = used.iter().map(|p| p.vm_s).sum();
    let steps: u64 = used.iter().map(|p| p.steps).sum();
    report.metric("lang.parse_calls", layers.parse_calls as f64);
    report.metric("lang.parse_s", layers.parse_s);
    report.metric(
        "lang.parse_kb_per_s",
        layers.parse_bytes as f64 / 1e3 / layers.parse_s.max(1e-12),
    );
    report.metric("sema.check_calls", layers.sema_calls as f64);
    report.metric("sema.check_s", layers.sema_s);
    report.metric(
        "sema.reject_ratio",
        layers.sema_rejects as f64 / layers.sema_calls.max(1) as f64,
    );
    report.metric("llm.calls", layers.llm_calls as f64);
    report.metric("llm.complete_s", layers.llm_s);
    report.metric("llm.prompt_tokens", layers.prompt_tokens as f64);
    report.metric("llm.response_tokens", layers.response_tokens as f64);
    report.metric("runtime.lower_calls", used.len() as f64);
    report.metric("runtime.lower_s", used.iter().map(|p| p.lower_s).sum());
    report.metric("runtime.vm_runs", used.len() as f64);
    report.metric("runtime.vm_s", vm_s);
    report.metric("runtime.vm_steps", steps as f64);
    report.metric("runtime.vm_steps_per_s", steps as f64 / vm_s.max(1e-12));
    for (name, value) in baseline_ms {
        report.metric(name, value);
    }
    report.metric("metrics.similarity_calls", layers.similarity_calls as f64);
    report.metric("metrics.similarity_s", layers.similarity_s);

    // Per-program VM profile: where the VM time of this workload goes.
    let mut ranked = used.clone();
    ranked.sort_by(|a, b| b.vm_s.total_cmp(&a.vm_s));
    report.profile = ranked
        .iter()
        .take(PROFILE_TOP)
        .map(|p| {
            Json::Object(vec![
                ("program".into(), Json::Str(p.label.clone())),
                ("vm_ms".into(), Json::Float(p.vm_s * 1e3)),
                ("steps".into(), Json::uint(p.steps)),
                ("uses".into(), Json::uint(p.uses)),
                ("ok".into(), Json::Bool(p.ok)),
            ])
        })
        .collect();

    // Registry cross-check: the replay's pipeline-shaped counts against the
    // stage histograms and memo counters the drive left in this process.
    for message in &layers.shape_errors {
        report.mismatches.push(message.clone());
    }
    let stage = |name: &str| util::histogram_totals("lassi_stage_seconds", &[("stage", name)]).0;
    report.cross_check(
        "lassi_stage_seconds{stage=parse} samples",
        layers.parse_calls,
        stage("parse"),
    );
    report.cross_check(
        "lassi_stage_seconds{stage=sema} samples",
        layers.sema_calls,
        stage("sema"),
    );
    report.cross_check(
        "lassi_stage_seconds{stage=compile} samples",
        layers.compile_calls,
        stage("compile"),
    );
    report.cross_check(
        "lassi_stage_seconds{stage=execute} samples",
        layers.execute_calls,
        stage("execute"),
    );
    report.cross_check(
        "lassi_stage_seconds{stage=llm} samples",
        layers.llm_calls,
        stage("llm"),
    );
    report.cross_check(
        "lassi_stage_seconds{stage=similarity} samples",
        layers.similarity_calls,
        stage("similarity"),
    );
    let programs = lassi_core::progcache::stats();
    let reports = lassi_core::progcache::report_stats();
    report.cross_check(
        "program cache lookups",
        layers.compile_calls,
        programs.hits + programs.misses,
    );
    report.cross_check("program cache entries", used.len() as u64, programs.entries);
    report.cross_check(
        "report memo lookups",
        layers.execute_calls,
        reports.hits + reports.misses,
    );
    report.cross_check("report memo entries", used.len() as u64, reports.entries);

    write_spans(spans_path, &replay.spans)
        .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))
}

fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for span in spans {
        let line = Json::Object(vec![
            ("layer".into(), Json::Str(span.layer.into())),
            ("op".into(), Json::Str(span.op.into())),
            ("scenario".into(), Json::uint(span.scenario as u64)),
            ("start_us".into(), Json::Float(span.start_us)),
            ("dur_us".into(), Json::Float(span.dur_us)),
        ]);
        writeln!(out, "{}", line.to_compact())?;
    }
    out.flush()
}
