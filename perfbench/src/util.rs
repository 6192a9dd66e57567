//! Measurement plumbing shared by every workload: the per-repetition report,
//! percentiles, seed mixing, peak-RSS and registry reads.

use std::time::Duration;

use lassi_harness::Json;

/// Everything one repetition measured, printed as one JSON line for
/// `run.py` to aggregate.
#[derive(Default)]
pub struct Report {
    /// Named scalar measurements (end-to-end and per-layer).
    pub metrics: Vec<(String, f64)>,
    /// Per-unit latencies in milliseconds (`sweep_p50_ms` / `sweep_p95_ms`
    /// are percentiles over these, pooled across repetitions).
    pub sweep_ms: Vec<f64>,
    /// Counts that must repeat exactly for a given seed.
    pub pins: Vec<(String, u64)>,
    /// Operations attempted: scenarios, HTTP requests and output checks.
    pub attempted: u64,
    /// Operations that failed (panics, lost jobs, non-2xx, mismatches).
    pub failed: u64,
    /// One line per failure.
    pub errors: Vec<String>,
    /// Registry cross-check differences (reported, not failures).
    pub mismatches: Vec<String>,
    /// Top programs by VM time (traced drive only).
    pub profile: Vec<Json>,
    /// FNV-1a over the codec form of every record, in job order.
    pub records_hash: Option<u64>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    pub fn pin(&mut self, name: &str, value: u64) {
        self.pins.push((name.to_string(), value));
    }

    pub fn fail(&mut self, message: impl Into<String>) {
        self.failed += 1;
        self.errors.push(message.into());
    }

    /// Count one attempted check and record it as failed when `ok` is false.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(message());
        }
    }

    /// Compare a count the benchmark made itself with the one the program's
    /// registry or counters report for the same run.
    pub fn cross_check(&mut self, what: &str, bench: u64, registry: u64) {
        if bench != registry {
            self.mismatches.push(format!(
                "{what}: benchmark counted {bench}, registry says {registry}"
            ));
        }
    }

    pub fn to_json(&self) -> Json {
        let floats = |pairs: &[(String, f64)]| {
            Json::Object(
                pairs
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Float(*v)))
                    .collect(),
            )
        };
        let strings =
            |items: &[String]| Json::Array(items.iter().cloned().map(Json::Str).collect());
        Json::Object(vec![
            ("metrics".into(), floats(&self.metrics)),
            (
                "sweep_ms".into(),
                Json::Array(self.sweep_ms.iter().map(|v| Json::Float(*v)).collect()),
            ),
            (
                "pins".into(),
                Json::Object(
                    self.pins
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::uint(*v)))
                        .collect(),
                ),
            ),
            ("attempted".into(), Json::uint(self.attempted)),
            ("failed".into(), Json::uint(self.failed)),
            ("errors".into(), strings(&self.errors)),
            ("mismatches".into(), strings(&self.mismatches)),
            ("profile".into(), Json::Array(self.profile.clone())),
            (
                "records_hash".into(),
                self.records_hash
                    .map(|h| Json::Str(format!("{h:016x}")))
                    .unwrap_or(Json::Null),
            ),
        ])
    }
}

/// Harness workers and fleet size: one less than the core count, at least
/// one. The benchmark's own threads (the submitter, the scenario cache's
/// writer, the server's connection handlers, the poller) then have a core
/// to run on, and a repetition's wall time measures the program rather than
/// how the scheduler shares too few cores among too many threads: on a
/// 2-core machine, `repair-storm` runs spread ±11% around their median with
/// two workers and ±2% with one.
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get().saturating_sub(1))
        .max(1)
}

/// SplitMix64: derives independent, reproducible seeds from the workload
/// seed without pulling in an RNG crate.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small deterministic generator over [`mix`].
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        mix(self.0)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Nearest-rank percentile of unsorted samples (0.0 when empty).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `(count, sum)` of a registry histogram series, zeros when absent.
pub fn histogram_totals(name: &str, labels: &[(&str, &str)]) -> (u64, f64) {
    lassi_obs::global()
        .histogram_snapshot(name, labels)
        .map(|s| (s.count, s.sum))
        .unwrap_or((0, 0.0))
}

/// Peak resident set (`VmHWM`) of a process in MB; `None` means this one.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:").and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
            })
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// CPU time the hypervisor has taken from this machine's CPUs since boot,
/// summed over CPUs, in seconds (`steal` in `/proc/stat`, in 1/100 s).
/// Steal accrues only while a CPU has work waiting, so over a timed region
/// it is the delay other tenants of the host imposed on it.
pub fn steal_seconds() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let line = stat.lines().next()?;
            line.split_whitespace().nth(8)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Milliseconds in a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// When the parent started this process, in Unix nanoseconds (`--spawned`).
pub static SPAWNED_UNIX_NS: std::sync::OnceLock<u128> = std::sync::OnceLock::new();

/// Seconds from the parent starting this process to now: `setup_s` ends
/// when the workload is ready to take its first request. Falls back to 0
/// when no spawn time was given.
pub fn since_spawn() -> f64 {
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    SPAWNED_UNIX_NS
        .get()
        .map_or(0.0, |spawned| now.saturating_sub(*spawned) as f64 / 1e9)
}

/// FNV-1a over the compact codec form of records, in order.
pub fn records_hash<'a>(
    records: impl IntoIterator<Item = &'a lassi_core::TranslationRecord>,
) -> u64 {
    let mut text = String::new();
    for record in records {
        text.push_str(&lassi_harness::codec::record_to_json(record).to_compact());
        text.push('\n');
    }
    lassi_harness::fnv1a64(text.as_bytes())
}

/// `lassi_stage_seconds` totals for every pipeline stage of this process:
/// `core.stage_s.<stage>` per-layer metrics.
pub fn report_stage_seconds(report: &mut Report) {
    for stage in lassi_core::STAGE_NAMES {
        let (_, sum) = histogram_totals("lassi_stage_seconds", &[("stage", stage)]);
        report.metric(format!("core.stage_s.{stage}"), sum);
    }
}

/// The `core.*` memo counters of this process.
pub fn report_memo_counters(report: &mut Report) {
    let programs = lassi_core::progcache::stats();
    let reports = lassi_core::progcache::report_stats();
    report.metric("core.report_memo_hits", reports.hits as f64);
    report.metric("core.report_memo_misses", reports.misses as f64);
    report.metric("core.report_memo_entries", reports.entries as f64);
    report.metric("core.report_memo_bytes", reports.approx_bytes as f64);
    report.metric(
        "core.report_memo_dup_runs",
        reports.misses.saturating_sub(reports.entries) as f64,
    );
    report.metric("core.program_cache_hits", programs.hits as f64);
    report.metric("core.program_cache_misses", programs.misses as f64);
    report.metric("core.program_cache_bytes", programs.approx_bytes as f64);
}

/// Refuse to measure a "cold" workload over warm process-wide memos.
pub fn cold_guard(report: &mut Report) -> Result<(), String> {
    let programs = lassi_core::progcache::stats();
    let reports = lassi_core::progcache::report_stats();
    let warm = programs.hits
        + programs.misses
        + programs.entries
        + reports.hits
        + reports.misses
        + reports.entries;
    report.check(warm == 0, || {
        format!("cold guard: progcache counters are non-zero at start ({programs:?}, {reports:?})")
    });
    if warm == 0 {
        Ok(())
    } else {
        Err("refusing a cold workload over a warm memo".into())
    }
}
