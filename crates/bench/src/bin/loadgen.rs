//! `loadgen` — drive a running `lassi-server` with N concurrent clients
//! over overlapping sweep grids, in a cold phase then a warm phase, and
//! record submission latency and end-to-end sweep latency separately.
//!
//! ```text
//! loadgen --addr HOST:PORT [--clients N] [--requests R] [--artifacts DIR]
//!         [--smoke] [--shutdown] [--run-prefix P] [--timings]
//! ```
//!
//! Backpressure refusals (`429 queue_full`, `503 draining`) are honoured:
//! the client sleeps for the response's `Retry-After` (jittered to 50–150%
//! so refused clients spread out) and resends, counting the waits in the
//! phase report.
//!
//! `--timings` prints a client-side request-latency table after the load:
//! every request sent over a [`ClientSession`] is observed into the
//! process-wide `lassi-obs` registry (`lassi_client_request_seconds`, by
//! method), the same registry the server side exposes at `GET /v1/metrics`.
//!
//! Sweep submission is asynchronous: `POST /v1/sweeps` answers `202
//! Accepted` with a `Location` pointing at the run resource, and the sweep
//! executes on the server's executor pool. Each client therefore submits
//! all `R` of its sweeps up front — measuring **submit latency**, the time
//! to the `202` — and then polls `GET /v1/runs/{id}` until every run is
//! `done`, measuring **end-to-end sweep latency** from the submit instant
//! to the poll that observed `done`. The two distributions answer different
//! questions (is the control plane responsive? how long does the work
//! take?) and each phase line on stdout reports both, together with the
//! number of requests sent (submissions + polls).
//!
//! Client `c`'s `r`-th sweep covers an *overlapping* two-application window
//! of the benchmark list, so concurrent clients contend for the same
//! scenario-cache entries. The warm phase resubmits the same grids (fresh
//! run ids): every scenario must then be served from the shared scenario
//! cache.
//!
//! Every client holds **one keep-alive connection for the whole phase** —
//! submissions and polls alike ride it. If the server closes a reused
//! connection **at a request boundary** (idle timeout, request cap, drain —
//! provable because no response byte arrived), the client retries that
//! request once on a fresh connection and counts the retry; any other
//! failure is a hard error, never a retry, because the server may already
//! be executing the non-idempotent sweep.
//!
//! `--smoke` is the self-checking CI mode. It asserts that
//!
//! * every submission is answered `202` with a `Location` header, and the
//!   submit p50 stays under 100 ms in both phases (the answer must not be
//!   gated on sweep execution),
//! * every run polls through to `done`,
//! * the warm phase adds **zero** cache misses and exactly
//!   `scenarios-per-phase` hits (via `GET /v1/cache/stats` before/after),
//! * each phase opened at most one connection per client (keep-alive held
//!   across submits *and* polls),
//! * the paginated `GET /v1/runs?limit=` walk reassembles exactly the
//!   unpaginated listing and contains every run the load created,
//! * a fetched run manifest (`GET /v1/runs/{id}/manifest`) and record set
//!   are **byte-identical** to the files in the server's artifact store
//!   (requires `--artifacts` pointing at the server's directory),
//! * the served trace (`GET /v1/runs/{id}/trace`) and diagnostics document
//!   (`…/diagnostics`) are byte-identical to the views rendered from that
//!   artifact, and the trace holds one `job` span per scenario,
//! * `DELETE /v1/runs/{id}` removes a run, and the error envelope
//!   (`{"error": {"code", "message", "status"}}`) carries the expected
//!   machine-readable codes (`run_not_found`, `run_exists`).
//!
//! `--shutdown` sends `POST /v1/shutdown` at the end so a scripted server
//! process exits. Fleet and HTTP cost are measured by `perfbench/`.

use std::time::{Duration, Instant};

use lassi_harness::Json;
use lassi_server::http;
use lassi_server::http::ClientConnection;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct LoadgenArgs {
    common: lassi_bench::CommonArgs,
    addr: String,
    clients: usize,
    requests: usize,
    smoke: bool,
    shutdown: bool,
    run_prefix: String,
    timings: bool,
}

fn parse_args() -> Result<LoadgenArgs, String> {
    let common = lassi_bench::parse_common_args(std::env::args().skip(1))?;
    let mut args = LoadgenArgs {
        common: common.clone(),
        addr: String::new(),
        clients: 4,
        requests: 2,
        smoke: false,
        shutdown: false,
        run_prefix: "lg".into(),
        timings: false,
    };
    let mut iter = common.rest.into_iter();
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| iter.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--clients" => {
                let raw = value("--clients")?;
                args.clients = raw
                    .parse()
                    .map_err(|_| format!("bad client count `{raw}`"))?;
            }
            "--requests" => {
                let raw = value("--requests")?;
                args.requests = raw
                    .parse()
                    .map_err(|_| format!("bad request count `{raw}`"))?;
            }
            "--smoke" => args.smoke = true,
            "--shutdown" => args.shutdown = true,
            "--run-prefix" => args.run_prefix = value("--run-prefix")?,
            "--timings" => args.timings = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.addr.is_empty() {
        return Err("--addr HOST:PORT is required".into());
    }
    if args.clients == 0 || args.requests == 0 {
        return Err("--clients and --requests must be at least 1".into());
    }
    Ok(args)
}

/// Number of applications in each submitted sweep window.
const APPS_PER_REQUEST: usize = 2;

/// Socket read timeout. Submissions answer immediately now, so this is a
/// wire timeout, not a work timeout; how long a *sweep* may take is bounded
/// separately by [`SWEEP_DEADLINE`] in the poll loop.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// How long a client waits for all of its submitted sweeps to finish.
const SWEEP_DEADLINE: Duration = Duration::from_secs(600);

/// Poll-interval bounds: start fast (a tiny sweep may be done in
/// milliseconds), back off exponentially to the cap. The cap stays far
/// under the server's 5 s keep-alive idle timeout so polling never lets
/// the connection go idle.
const POLL_INTERVAL_FLOOR: Duration = Duration::from_millis(5);
const POLL_INTERVAL_CAP: Duration = Duration::from_millis(50);

/// The sweep body client `c` submits as its `r`-th request of `phase`:
/// a two-application window starting at `c + r`, wrapping around the
/// benchmark list — adjacent clients overlap on one application.
fn sweep_body(app_names: &[String], prefix: &str, phase: &str, c: usize, r: usize) -> String {
    let apps: Vec<String> = (0..APPS_PER_REQUEST)
        .map(|k| format!("\"{}\"", app_names[(c + r + k) % app_names.len()]))
        .collect();
    format!(
        r#"{{"models": ["GPT-4"], "apps": [{}], "directions": ["cuda-to-omp"],
           "timing_runs": [1], "run_id": "{prefix}-{phase}-c{c}-r{r}"}}"#,
        apps.join(", ")
    )
}

/// The `code` slug out of a structured error envelope.
fn error_code(resp: &http::ClientResponse) -> Result<String, String> {
    let value = lassi_harness::json::parse(&resp.text())
        .map_err(|e| format!("error body is not JSON: {e} — {}", resp.text()))?;
    value
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(|c| c.as_str())
        .map(str::to_string)
        .ok_or_else(|| format!("no error.code in {}", resp.text()))
}

/// How many `Retry-After` waits one request may accumulate before the
/// refusal is surfaced to the caller as the final response.
const MAX_BACKOFF_WAITS: usize = 10;

/// One client's keep-alive session: a lazily (re)opened connection plus the
/// accounting the phase summary reports.
struct ClientSession {
    addr: String,
    conn: Option<ClientConnection>,
    connections_opened: usize,
    requests_sent: usize,
    retries: usize,
    /// `Retry-After` backoff sleeps taken after 429/503 refusals.
    backoff_waits: usize,
    /// Jitter source for the backoff sleeps (seeded per client so a burst
    /// of refused clients does not retry in lockstep).
    rng: StdRng,
}

impl ClientSession {
    fn new(addr: String, seed: u64) -> ClientSession {
        ClientSession {
            addr,
            conn: None,
            connections_opened: 0,
            requests_sent: 0,
            retries: 0,
            backoff_waits: 0,
            rng: StdRng::seed_from_u64(seed ^ 0x6C6F6164),
        }
    }

    fn connect(&mut self) -> Result<&mut ClientConnection, String> {
        if self.conn.is_none() {
            let conn = ClientConnection::connect(self.addr.as_str(), READ_TIMEOUT)
                .map_err(|e| format!("cannot connect to {}: {e}", self.addr))?;
            self.conn = Some(conn);
            self.connections_opened += 1;
        }
        Ok(self.conn.as_mut().expect("just connected"))
    }

    /// Jitter a backoff delay to 50–150% of `base` so refused clients
    /// spread out instead of retrying in lockstep.
    fn jitter(&mut self, base: Duration) -> Duration {
        let millis = base.as_millis().max(1) as usize;
        Duration::from_millis(self.rng.gen_range(millis / 2..millis + millis / 2 + 1) as u64)
    }

    /// Send one request, honouring backpressure: a `429 queue_full` or
    /// `503 draining` answer sleeps for the response's `Retry-After`
    /// (jittered; an exponential fallback covers a missing header) and
    /// resends, up to [`MAX_BACKOFF_WAITS`] times before surfacing the
    /// refusal to the caller. Sweep submission is idempotent under a fixed
    /// `run_id` — a refused request was never enqueued — so resending after
    /// a refusal is always safe.
    fn send(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> Result<http::ClientResponse, String> {
        let mut fallback = Duration::from_millis(100);
        let mut waits = 0;
        loop {
            let resp = self.send_raw(method, path, body)?;
            if (resp.status == 429 || resp.status == 503) && waits < MAX_BACKOFF_WAITS {
                let base = resp
                    .header("retry-after")
                    .and_then(|s| s.parse::<u64>().ok())
                    .map(Duration::from_secs)
                    .unwrap_or(fallback);
                let wait = self.jitter(base);
                self.backoff_waits += 1;
                waits += 1;
                eprintln!(
                    "loadgen: {method} {path} refused ({}); backing off {wait:?} \
                     ({waits}/{MAX_BACKOFF_WAITS})",
                    resp.status
                );
                std::thread::sleep(wait);
                fallback = (fallback * 2).min(Duration::from_secs(5));
                continue;
            }
            return Ok(resp);
        }
    }

    /// Send one request over the session's connection. If the server closed
    /// the reused connection *at the request boundary* (idle timeout,
    /// request cap, drain — provable because not one response byte
    /// arrived), retry exactly once on a fresh connection — counted — and
    /// fail fast with a clear error otherwise. A response timeout or a
    /// failure mid-response is never retried: the server may already be
    /// executing the (non-idempotent) sweep, and a resubmission under the
    /// same run id would only turn into a confusing 409.
    fn send_raw(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> Result<http::ClientResponse, String> {
        // A close the server is allowed to perform between requests
        // surfaces as one of these on the write or the first read; anything
        // else means the request may have been (or is being) processed.
        fn closed_at_boundary(e: &std::io::Error) -> bool {
            matches!(
                e.kind(),
                std::io::ErrorKind::UnexpectedEof
                    | std::io::ErrorKind::ConnectionReset
                    | std::io::ErrorKind::ConnectionAborted
                    | std::io::ErrorKind::BrokenPipe
            )
        }
        let reused = self.conn.is_some();
        let started = Instant::now();
        for attempt in 0..2 {
            match self.connect()?.send(method, path, body) {
                Ok(resp) => {
                    self.requests_sent += 1;
                    // Same registry the server exposes at /v1/metrics; here
                    // it backs the client-side `--timings` table.
                    lassi_obs::global()
                        .histogram(
                            "lassi_client_request_seconds",
                            "Client-observed request latency, by method.",
                            &[("method", method)],
                            lassi_obs::LATENCY_SECONDS,
                        )
                        .observe(started.elapsed().as_secs_f64());
                    if resp.closes_connection() {
                        // The server announced the close (request cap or
                        // drain); reconnect lazily before the next request.
                        self.conn = None;
                    }
                    return Ok(resp);
                }
                Err(e) => {
                    self.conn = None;
                    if reused && attempt == 0 && closed_at_boundary(&e) {
                        self.retries += 1;
                        eprintln!(
                            "loadgen: server closed a reused connection on {method} {path}; \
                             retrying once on a fresh connection"
                        );
                        continue;
                    }
                    let what = if attempt == 1 {
                        "retry on a fresh connection failed"
                    } else if reused {
                        "reused connection failed and the error does not prove the \
                         server skipped the request, so it is not retried"
                    } else {
                        "fresh connection failed"
                    };
                    return Err(format!("{method} {path} to {}: {what}: {e}", self.addr));
                }
            }
        }
        unreachable!("every second attempt returns")
    }
}

/// One phase's measurements.
struct PhaseOutcome {
    wall_seconds: f64,
    /// Time to the `202 Accepted` per submission, milliseconds, sorted.
    submit_ms: Vec<f64>,
    /// Submit instant → the poll that observed `done`, milliseconds, sorted.
    sweep_ms: Vec<f64>,
    /// Every run id created during the phase.
    run_ids: Vec<String>,
    /// TCP connections opened across all clients (keep-alive means this
    /// stays at one per client unless the server closed one mid-phase).
    connections_opened: usize,
    /// Every request sent (submissions + polls), for req/conn accounting.
    requests_sent: usize,
    /// Requests retried on a fresh connection after a mid-phase close.
    retries: usize,
    /// `Retry-After` backoff sleeps taken after 429/503 refusals.
    backoff_waits: usize,
}

/// Nearest-rank percentile over sorted ascending samples.
fn percentile_ms(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

impl PhaseOutcome {
    fn sweeps(&self) -> usize {
        self.run_ids.len()
    }

    fn sweeps_per_second(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.sweeps() as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    fn requests_per_connection(&self) -> f64 {
        if self.connections_opened > 0 {
            self.requests_sent as f64 / self.connections_opened as f64
        } else {
            0.0
        }
    }
}

/// Run one phase: `clients` threads, each submitting `requests` sweeps up
/// front over one keep-alive connection — timing each `202` — and then
/// polling every run on that same connection until all are `done`.
fn run_phase(
    args: &LoadgenArgs,
    app_names: &[String],
    phase: &'static str,
) -> Result<PhaseOutcome, String> {
    struct ClientResult {
        submit_ms: Vec<f64>,
        sweep_ms: Vec<f64>,
        run_ids: Vec<String>,
        connections_opened: usize,
        requests_sent: usize,
        retries: usize,
        backoff_waits: usize,
    }

    let started = Instant::now();
    let mut handles = Vec::new();
    for c in 0..args.clients {
        let addr = args.addr.clone();
        let prefix = args.run_prefix.clone();
        let names = app_names.to_vec();
        let requests = args.requests;
        handles.push(std::thread::spawn(
            move || -> Result<ClientResult, String> {
                let mut session = ClientSession::new(addr, c as u64);
                let mut submit_ms = Vec::with_capacity(requests);
                // (run id, submit instant) for every accepted sweep.
                let mut pending: Vec<(String, Instant)> = Vec::with_capacity(requests);
                for r in 0..requests {
                    let body = sweep_body(&names, &prefix, phase, c, r);
                    let sent = Instant::now();
                    let resp = session
                        .send("POST", "/v1/sweeps", Some(body.as_bytes()))
                        .map_err(|e| format!("client {c} submit {r}: {e}"))?;
                    submit_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                    if resp.status != 202 {
                        return Err(format!(
                            "client {c} submit {r}: expected 202 Accepted, got {} — {}",
                            resp.status,
                            resp.text()
                        ));
                    }
                    let view = lassi_harness::json::parse(&resp.text())
                        .map_err(|e| format!("client {c} submit {r}: bad body: {e}"))?;
                    let run_id = view
                        .get("id")
                        .and_then(|v| v.as_str())
                        .ok_or_else(|| format!("client {c} submit {r}: body lacks id"))?
                        .to_string();
                    let location = resp
                        .header("location")
                        .ok_or_else(|| format!("client {c} submit {r}: no Location header"))?;
                    if location != format!("/v1/runs/{run_id}") {
                        return Err(format!(
                            "client {c} submit {r}: Location `{location}` does not \
                             point at run `{run_id}`"
                        ));
                    }
                    pending.push((run_id, sent));
                }

                // Poll every accepted run to completion over the same
                // connection, backing off while nothing changes.
                let mut sweep_ms = Vec::with_capacity(requests);
                let mut run_ids = Vec::with_capacity(requests);
                let deadline = Instant::now() + SWEEP_DEADLINE;
                let mut interval = POLL_INTERVAL_FLOOR;
                while !pending.is_empty() {
                    let mut still_pending = Vec::with_capacity(pending.len());
                    for (run_id, submitted) in pending {
                        let resp = session
                            .send("GET", &format!("/v1/runs/{run_id}"), None)
                            .map_err(|e| format!("client {c} poll {run_id}: {e}"))?;
                        if !resp.is_success() {
                            return Err(format!(
                                "client {c} poll {run_id}: HTTP {} — {}",
                                resp.status,
                                resp.text()
                            ));
                        }
                        let view = lassi_harness::json::parse(&resp.text())
                            .map_err(|e| format!("client {c} poll {run_id}: {e}"))?;
                        match view.get("state").and_then(|s| s.as_str()) {
                            Some("done") => {
                                sweep_ms.push(submitted.elapsed().as_secs_f64() * 1e3);
                                run_ids.push(run_id);
                            }
                            Some("queued" | "running") => still_pending.push((run_id, submitted)),
                            state => {
                                return Err(format!(
                                    "client {c}: run {run_id} ended {state:?} \
                                     (reason: {:?}) instead of done",
                                    view.get("reason").and_then(|r| r.as_str())
                                ))
                            }
                        }
                    }
                    pending = still_pending;
                    if !pending.is_empty() {
                        if Instant::now() > deadline {
                            return Err(format!(
                                "client {c}: {} sweep(s) still unfinished after {:?}",
                                pending.len(),
                                SWEEP_DEADLINE
                            ));
                        }
                        std::thread::sleep(interval);
                        interval = (interval * 2).min(POLL_INTERVAL_CAP);
                    }
                }
                Ok(ClientResult {
                    submit_ms,
                    sweep_ms,
                    run_ids,
                    connections_opened: session.connections_opened,
                    requests_sent: session.requests_sent,
                    retries: session.retries,
                    backoff_waits: session.backoff_waits,
                })
            },
        ));
    }
    let mut submit_ms = Vec::new();
    let mut sweep_ms = Vec::new();
    let mut run_ids = Vec::new();
    let mut connections_opened = 0;
    let mut requests_sent = 0;
    let mut retries = 0;
    let mut backoff_waits = 0;
    for handle in handles {
        let client = handle.join().map_err(|_| "client thread panicked")??;
        submit_ms.extend(client.submit_ms);
        sweep_ms.extend(client.sweep_ms);
        run_ids.extend(client.run_ids);
        connections_opened += client.connections_opened;
        requests_sent += client.requests_sent;
        retries += client.retries;
        backoff_waits += client.backoff_waits;
    }
    let wall_seconds = started.elapsed().as_secs_f64();
    submit_ms.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    sweep_ms.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    Ok(PhaseOutcome {
        wall_seconds,
        submit_ms,
        sweep_ms,
        run_ids,
        connections_opened,
        requests_sent,
        retries,
        backoff_waits,
    })
}

/// `GET /v1/cache/stats` → (hits, misses).
fn cache_stats(addr: &str) -> Result<(u64, u64), String> {
    let resp = http::request(addr, "GET", "/v1/cache/stats", None)
        .map_err(|e| format!("cache stats: {e}"))?;
    if !resp.is_success() {
        return Err(format!("cache stats: HTTP {}", resp.status));
    }
    let value =
        lassi_harness::json::parse(&resp.text()).map_err(|e| format!("cache stats: {e}"))?;
    let field = |name: &str| {
        value
            .get(name)
            .and_then(|v| v.as_u64())
            .ok_or_else(|| format!("cache stats: missing `{name}`"))
    };
    Ok((field("hits")?, field("misses")?))
}

fn phase_line(label: &str, outcome: &PhaseOutcome) -> String {
    format!(
        "{label} phase: {} sweeps in {:.3}s ({:.1} sweeps/s), e2e p50 {:.3}ms / \
         p99 {:.3}ms, {} requests over {} connections ({:.1} req/conn, \
         {} retries, {} retry-after waits)",
        outcome.sweeps(),
        outcome.wall_seconds,
        outcome.sweeps_per_second(),
        percentile_ms(&outcome.sweep_ms, 50.0),
        percentile_ms(&outcome.sweep_ms, 99.0),
        outcome.requests_sent,
        outcome.connections_opened,
        outcome.requests_per_connection(),
        outcome.retries,
        outcome.backoff_waits,
    )
}

/// Walk `GET /v1/runs?limit=` pages to the end; returns every listed id in
/// order and checks the pages reassemble exactly the unpaginated listing.
fn paginated_run_ids(addr: &str, limit: usize) -> Result<Vec<String>, String> {
    let ids_of = |value: &Json| -> Result<Vec<String>, String> {
        value
            .get("runs")
            .and_then(|v| v.as_array())
            .ok_or("listing lacks `runs`")?
            .iter()
            .map(|row| {
                row.get("id")
                    .and_then(|v| v.as_str())
                    .map(str::to_string)
                    .ok_or_else(|| format!("run row lacks `id`: {}", row.to_compact()))
            })
            .collect()
    };
    let fetch = |path: &str| -> Result<Json, String> {
        let resp = http::request(addr, "GET", path, None).map_err(|e| format!("{path}: {e}"))?;
        if !resp.is_success() {
            return Err(format!("{path}: HTTP {} — {}", resp.status, resp.text()));
        }
        lassi_harness::json::parse(&resp.text()).map_err(|e| format!("{path}: {e}"))
    };

    let mut walked: Vec<String> = Vec::new();
    let mut after: Option<String> = None;
    loop {
        let path = match &after {
            None => format!("/v1/runs?limit={limit}"),
            Some(cursor) => format!("/v1/runs?limit={limit}&after={cursor}"),
        };
        let page = fetch(&path)?;
        let ids = ids_of(&page)?;
        if ids.len() > limit {
            return Err(format!("page {path} exceeds its limit: {} ids", ids.len()));
        }
        walked.extend(ids);
        match page.get("next") {
            Some(Json::Str(cursor)) => after = Some(cursor.clone()),
            _ => break,
        }
    }
    let full = ids_of(&fetch("/v1/runs")?)?;
    if walked != full {
        return Err(format!(
            "paginated walk ({} ids) differs from the unpaginated listing ({} ids)",
            walked.len(),
            full.len()
        ));
    }
    Ok(walked)
}

/// Fetch `path` and require the body to be byte-identical to `expected`,
/// which is read from or rendered out of the server's artifact store
/// (`source` names it in the error).
fn check_bytes_match(
    addr: &str,
    path: &str,
    expected: &[u8],
    source: &str,
) -> Result<usize, String> {
    let resp = http::request(addr, "GET", path, None).map_err(|e| format!("GET {path}: {e}"))?;
    if !resp.is_success() {
        return Err(format!("GET {path}: HTTP {}", resp.status));
    }
    if resp.body != expected {
        return Err(format!(
            "GET {path} returned {} bytes that differ from {source} ({} bytes)",
            resp.body.len(),
            expected.len()
        ));
    }
    Ok(expected.len())
}

/// [`check_bytes_match`] against the file at `disk_path`.
fn check_file_match(addr: &str, path: &str, disk_path: &std::path::Path) -> Result<usize, String> {
    let disk = std::fs::read(disk_path)
        .map_err(|e| format!("cannot read {}: {e}", disk_path.display()))?;
    check_bytes_match(addr, path, &disk, &disk_path.display().to_string())
}

fn run(args: &LoadgenArgs) -> Result<(), String> {
    let addr = args.addr.as_str();

    // Liveness before loading.
    let health =
        http::request(addr, "GET", "/v1/healthz", None).map_err(|e| format!("healthz: {e}"))?;
    if !health.is_success() {
        return Err(format!("healthz: HTTP {}", health.status));
    }

    let app_names: Vec<String> = lassi_hecbench::applications()
        .iter()
        .map(|a| a.name.to_string())
        .collect();
    let scenarios_per_phase = args.clients * args.requests * APPS_PER_REQUEST;
    println!(
        "loadgen: {} clients x {} async sweeps/phase against http://{addr} \
         ({APPS_PER_REQUEST} scenarios per sweep, keep-alive submit + poll)",
        args.clients, args.requests
    );

    let (hits0, misses0) = cache_stats(addr)?;
    let cold = run_phase(args, &app_names, "cold")?;
    println!("{}", phase_line("cold", &cold));
    let (hits1, misses1) = cache_stats(addr)?;
    let warm = run_phase(args, &app_names, "warm")?;
    println!("{}", phase_line("warm", &warm));
    let (hits2, misses2) = cache_stats(addr)?;

    let cold_hits = hits1 - hits0;
    let cold_misses = misses1 - misses0;
    let warm_hits = hits2 - hits1;
    let warm_misses = misses2 - misses1;
    println!(
        "cache: cold {cold_hits} hits / {cold_misses} misses, \
         warm {warm_hits} hits / {warm_misses} misses"
    );
    println!(
        "submit latency: cold p50 {:.3}ms / p99 {:.3}ms, warm p50 {:.3}ms / p99 {:.3}ms",
        percentile_ms(&cold.submit_ms, 50.0),
        percentile_ms(&cold.submit_ms, 99.0),
        percentile_ms(&warm.submit_ms, 50.0),
        percentile_ms(&warm.submit_ms, 99.0),
    );
    println!(
        "connections: cold {} opened / {} sweeps, warm {} opened / {} sweeps",
        cold.connections_opened,
        cold.sweeps(),
        warm.connections_opened,
        warm.sweeps(),
    );

    if args.smoke {
        // The 202 must come from validation + enqueue, never from sweep
        // execution: a control plane answering under 100 ms while the cold
        // sweeps take seconds is the tentpole property of the async API.
        for (label, outcome) in [("cold", &cold), ("warm", &warm)] {
            let submit_p50 = percentile_ms(&outcome.submit_ms, 50.0);
            if submit_p50 >= 100.0 {
                return Err(format!(
                    "{label} phase submit p50 is {submit_p50:.3}ms; an async \
                     submission must answer in under 100ms"
                ));
            }
        }

        // Warm sweeps must be served from the scenario cache, not re-run.
        if warm_misses != 0 {
            return Err(format!(
                "warm phase caused {warm_misses} cache misses; expected 0"
            ));
        }
        if warm_hits != scenarios_per_phase as u64 {
            return Err(format!(
                "warm phase hit the cache {warm_hits} times; expected {scenarios_per_phase}"
            ));
        }
        if cold_misses == 0 {
            return Err("cold phase had no cache misses; the cache was pre-warmed \
                 and these numbers would be meaningless — point the server at a \
                 fresh --artifacts directory"
                .into());
        }

        // Keep-alive must hold across submissions *and* polls: one
        // connection per client per phase (retries may add one, but must
        // not in a clean run).
        for (label, outcome) in [("cold", &cold), ("warm", &warm)] {
            if outcome.connections_opened > args.clients {
                return Err(format!(
                    "{label} phase opened {} connections for {} clients; \
                     keep-alive is not being honoured",
                    outcome.connections_opened, args.clients
                ));
            }
        }

        // The paginated walk must reassemble the full listing and contain
        // every run the load created.
        let listed = paginated_run_ids(addr, 3)?;
        for run_id in cold.run_ids.iter().chain(&warm.run_ids) {
            if !listed.iter().any(|id| id == run_id) {
                return Err(format!("paginated GET /v1/runs does not list `{run_id}`"));
            }
        }

        // Byte-identity: a fetched manifest and record set must match the
        // artifact store exactly.
        let store = lassi_bench::artifact_store(&args.common);
        let run_id = &cold.run_ids[0];
        let run_dir = store.run_dir(run_id);
        if !run_dir.exists() {
            return Err(format!(
                "{} does not exist; pass the server's --artifacts directory \
                 to loadgen for the byte-identity check",
                run_dir.display()
            ));
        }
        check_file_match(
            addr,
            &format!("/v1/runs/{run_id}/manifest"),
            &run_dir.join("manifest.json"),
        )?;
        let artifact = store.load_run(run_id).map_err(|e| e.to_string())?;
        let mut record_bytes = 0;
        for set in &artifact.manifest.record_sets {
            record_bytes += check_file_match(
                addr,
                &format!("/v1/runs/{run_id}/records/{set}"),
                &run_dir.join(format!("records-{set}.json")),
            )?;
        }

        // A done run's trace view must render, parse as trace.v1 JSONL,
        // hold exactly one `job` span per scenario (each with its
        // queue-wait vs execute split), and be served byte-identically by
        // the trace endpoint. The diagnostics document is served
        // byte-identically to its rendered view too.
        let trace_text = artifact
            .trace_view()
            .map_err(|e| format!("trace for {run_id}: {e}"))?;
        let trace = lassi_harness::parse_trace(&trace_text)
            .map_err(|e| format!("trace for {run_id}: {e}"))?;
        let job_spans: Vec<_> = trace
            .iter()
            .filter(|ev| ev.kind == lassi_obs::TraceKind::Span && ev.name == "job")
            .collect();
        if job_spans.len() != APPS_PER_REQUEST {
            return Err(format!(
                "trace for {run_id} holds {} job spans; expected one per \
                 scenario ({APPS_PER_REQUEST})",
                job_spans.len()
            ));
        }
        for span in &job_spans {
            for field in ["queue_wait_us", "execute_us"] {
                if span.field(field).is_none() {
                    return Err(format!("job span in {run_id}'s trace lacks `{field}`"));
                }
            }
        }
        check_bytes_match(
            addr,
            &format!("/v1/runs/{run_id}/trace"),
            trace_text.as_bytes(),
            "the rendered trace view",
        )?;
        let diagnostics = artifact
            .diagnostics_view()
            .map_err(|e| format!("diagnostics for {run_id}: {e}"))?;
        check_bytes_match(
            addr,
            &format!("/v1/runs/{run_id}/diagnostics"),
            diagnostics.as_bytes(),
            "the rendered diagnostics view",
        )?;

        // Resubmitting a finished run id must be refused with the
        // machine-readable `run_exists` code, not re-executed.
        let dup = sweep_body(&app_names, &args.run_prefix, "cold", 0, 0);
        let resp = http::request(addr, "POST", "/v1/sweeps", Some(dup.as_bytes()))
            .map_err(|e| format!("duplicate submit: {e}"))?;
        if resp.status != 409 || error_code(&resp)? != "run_exists" {
            return Err(format!(
                "duplicate submit: expected 409 run_exists, got {} — {}",
                resp.status,
                resp.text()
            ));
        }

        // Artifact GC: DELETE one warm run and require it gone from disk
        // and from the listing; a second DELETE must answer with the
        // `run_not_found` envelope.
        let victim = &warm.run_ids[0];
        let resp = http::request(addr, "DELETE", &format!("/v1/runs/{victim}"), None)
            .map_err(|e| format!("DELETE {victim}: {e}"))?;
        if !resp.is_success() {
            return Err(format!(
                "DELETE {victim}: HTTP {} — {}",
                resp.status,
                resp.text()
            ));
        }
        if store.run_dir(victim).exists() {
            return Err(format!("run `{victim}` still on disk after DELETE"));
        }
        let listed = paginated_run_ids(addr, 3)?;
        if listed.iter().any(|id| id == victim) {
            return Err(format!("GET /v1/runs still lists deleted `{victim}`"));
        }
        let resp = http::request(addr, "DELETE", &format!("/v1/runs/{victim}"), None)
            .map_err(|e| format!("second DELETE {victim}: {e}"))?;
        if resp.status != 404 || error_code(&resp)? != "run_not_found" {
            return Err(format!(
                "second DELETE {victim}: expected 404 run_not_found, got {} — {}",
                resp.status,
                resp.text()
            ));
        }

        println!(
            "smoke checks passed: submits under 100ms, warm phase 100% cache \
             hits, keep-alive ({} + {} connections for {} sweeps), pagination \
             walk consistent, run-{run_id} manifest + {} record sets \
             byte-identical ({record_bytes} bytes), trace.jsonl parsed with \
             one job span per scenario, trace and diagnostics views \
             byte-identical, DELETE /v1/runs/{victim} \
             cleaned up with envelope codes",
            cold.connections_opened,
            warm.connections_opened,
            cold.sweeps() + warm.sweeps(),
            artifact.manifest.record_sets.len()
        );
    }

    if args.timings {
        print_client_timings();
    }

    if args.shutdown {
        let resp = http::request(addr, "POST", "/v1/shutdown", None)
            .map_err(|e| format!("shutdown: {e}"))?;
        if !resp.is_success() {
            return Err(format!("shutdown: HTTP {}", resp.status));
        }
        println!("server asked to shut down");
    }
    Ok(())
}

/// The `--timings` table: client-observed request latency by method, from
/// the in-process `lassi-obs` registry [`ClientSession::send`] feeds.
fn print_client_timings() {
    let registry = lassi_obs::global();
    println!(
        "{:<8} {:>9} {:>11} {:>10}",
        "method", "requests", "total s", "mean ms"
    );
    for method in ["GET", "POST", "DELETE"] {
        let Some(snapshot) =
            registry.histogram_snapshot("lassi_client_request_seconds", &[("method", method)])
        else {
            continue;
        };
        if snapshot.count == 0 {
            continue;
        }
        let mean_ms = snapshot.sum / snapshot.count as f64 * 1e3;
        println!(
            "{method:<8} {:>9} {:>11.3} {mean_ms:>10.3}",
            snapshot.count, snapshot.sum
        );
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("loadgen: {message}");
            std::process::exit(2);
        }
    };
    if let Err(message) = run(&args) {
        eprintln!("loadgen: {message}");
        std::process::exit(1);
    }
}
