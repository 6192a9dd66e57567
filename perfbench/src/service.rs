//! An in-process `lassi_server::Server` on an ephemeral port, and the
//! keep-alive HTTP client the load generators use against it.

use std::io;
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lassi_harness::{ArtifactStore, Harness, HarnessOptions, Json, ScenarioCache};
use lassi_server::{http, AppState, ClientConnection, ClientResponse, Server};

/// Client socket timeout; a cold fleet grid is seconds, never this long.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// A running server; dropping it drains the server and joins its thread.
pub struct Service {
    pub addr: String,
    pub state: Arc<AppState>,
    thread: Option<JoinHandle<io::Result<()>>>,
}

impl Service {
    /// Fresh artifact store and scenario cache under `dir`; the harness
    /// pool and the sweep executors are both sized to `workers`.
    pub fn start(dir: &Path, workers: usize) -> Result<Service, String> {
        let cache = ScenarioCache::on_disk(dir.join("cache"))
            .map_err(|e| format!("cannot create scenario cache: {e}"))?;
        let harness =
            Harness::new(HarnessOptions::default().with_workers(workers)).with_cache(cache);
        let state = Arc::new(AppState::new(
            harness,
            ArtifactStore::new(dir.join("artifacts")),
        ));
        let server = Server::bind("127.0.0.1:0", Arc::clone(&state))
            .map_err(|e| format!("cannot bind: {e}"))?
            .with_sweep_executors(workers);
        let addr = server.local_addr().to_string();
        let thread = std::thread::spawn(move || server.run());
        let service = Service {
            addr,
            state,
            thread: Some(thread),
        };
        let healthy = http::request(service.addr.as_str(), "GET", "/v1/healthz", None)
            .map(|r| r.is_success())
            .unwrap_or(false);
        if !healthy {
            return Err("server did not answer /v1/healthz".into());
        }
        Ok(service)
    }

    /// One request on a fresh connection.
    pub fn get(&self, path: &str) -> Result<ClientResponse, String> {
        http::request_with_timeout(self.addr.as_str(), "GET", path, None, IO_TIMEOUT)
            .map_err(|e| format!("GET {path}: {e}"))
    }

    /// Drain the server and wait for it to exit.
    pub fn stop(&mut self) -> Result<(), String> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        let _ = http::request_with_timeout(
            self.addr.as_str(),
            "POST",
            "/v1/shutdown",
            Some(b"{}"),
            IO_TIMEOUT,
        );
        match thread.join() {
            Ok(result) => result.map_err(|e| format!("server error: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// One client's keep-alive connection, reopened when the server closes it
/// at a request boundary (idle timeout, per-connection request cap).
pub struct Session {
    addr: String,
    conn: Option<ClientConnection>,
}

impl Session {
    pub fn new(addr: &str) -> Session {
        Session {
            addr: addr.to_string(),
            conn: None,
        }
    }

    /// Send one request. A GET is idempotent and retries on a fresh
    /// connection after any transport error (a stop/continue of this
    /// process makes a socket read with a timeout fail with `EINTR`); other
    /// methods retry only when a reused connection was closed at the
    /// request boundary, where the server provably saw nothing.
    pub fn send(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> Result<ClientResponse, String> {
        let attempts = if method == "GET" { 3 } else { 2 };
        let mut last_error = String::new();
        for attempt in 0..attempts {
            let reused = self.conn.is_some();
            if self.conn.is_none() {
                let conn = ClientConnection::connect(self.addr.as_str(), IO_TIMEOUT)
                    .map_err(|e| format!("connect {}: {e}", self.addr))?;
                self.conn = Some(conn);
            }
            let conn = self.conn.as_mut().expect("connected above");
            match conn.send(method, path, body) {
                Ok(resp) => {
                    if resp.closes_connection() {
                        self.conn = None;
                    }
                    return Ok(resp);
                }
                Err(e) => {
                    self.conn = None;
                    let at_boundary = matches!(
                        e.kind(),
                        io::ErrorKind::UnexpectedEof
                            | io::ErrorKind::ConnectionReset
                            | io::ErrorKind::BrokenPipe
                    );
                    last_error = format!("{method} {path}: {e}");
                    if method != "GET" && !(reused && at_boundary && attempt == 0) {
                        break;
                    }
                }
            }
        }
        Err(last_error)
    }
}

/// Submit a sweep under a client-chosen run id. When the answer is lost
/// the run may still have been accepted, so its resource decides.
pub fn submit(session: &mut Session, run_id: &str, body: &str) -> Result<(), String> {
    let resp = match session.send("POST", "/v1/sweeps", Some(body.as_bytes())) {
        Ok(resp) => resp,
        Err(e) => {
            return match session.send("GET", &format!("/v1/runs/{run_id}"), None) {
                Ok(view) if view.is_success() => Ok(()),
                _ => Err(e),
            }
        }
    };
    if resp.status == 202 {
        Ok(())
    } else {
        Err(format!(
            "submit {run_id}: HTTP {} — {}",
            resp.status,
            resp.text()
        ))
    }
}

/// `GET /v1/runs/{id}`, parsed; fails on non-2xx and on `failed`/`cancelled`.
pub fn run_view(session: &mut Session, run_id: &str) -> Result<Json, String> {
    let resp = session.send("GET", &format!("/v1/runs/{run_id}"), None)?;
    if !resp.is_success() {
        return Err(format!("poll {run_id}: HTTP {}", resp.status));
    }
    let view =
        lassi_harness::json::parse(&resp.text()).map_err(|e| format!("poll {run_id}: {e}"))?;
    match view.get("state").and_then(Json::as_str) {
        Some("queued" | "running" | "done") => Ok(view),
        state => Err(format!(
            "run {run_id} ended {state:?} ({:?})",
            view.get("reason").and_then(Json::as_str)
        )),
    }
}

pub fn is_done(view: &Json) -> bool {
    view.get("state").and_then(Json::as_str) == Some("done")
}

/// Sum of every sample of a metric family in a Prometheus text scrape
/// (`name` or `name{...}` lines).
pub fn scrape_sum(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let (series, value) = line.rsplit_once(' ')?;
            let family = series.split('{').next()?;
            (family == name)
                .then(|| value.parse::<f64>().ok())
                .flatten()
        })
        .sum()
}

/// Wait until `ready` holds, polling every millisecond up to `limit`.
pub fn wait_until(limit: Duration, mut ready: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + limit;
    while Instant::now() < deadline {
        if ready() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    ready()
}

/// HTTP routes the workloads exercise, as `(route pattern, metric suffix)`.
pub const ROUTES: &[(&str, &str)] = &[
    ("/v1/sweeps", "sweeps"),
    ("/v1/runs/{id}", "run"),
    ("/v1/runs/{id}/records/{set}", "records"),
    ("/v1/metrics", "metrics"),
    ("/v1/work/lease", "work_lease"),
    ("/v1/work/heartbeat", "work_heartbeat"),
    ("/v1/work/complete", "work_complete"),
];

/// Seconds the server spent handling a route, over every method.
pub fn handler_seconds(route: &str) -> f64 {
    ["GET", "POST", "DELETE"]
        .iter()
        .map(|method| {
            crate::util::histogram_totals(
                "lassi_http_request_seconds",
                &[("method", method), ("route", route)],
            )
            .1
        })
        .sum()
}
