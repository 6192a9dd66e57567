//! # lassi-server
//!
//! A dependency-free HTTP/1.1 front end for the `lassi-harness` experiment
//! service. Where every previous consumer of the pipeline was a one-shot
//! CLI — the scenario cache died with the process — this crate keeps one
//! [`Harness`](lassi_harness::Harness) (worker pool + scenario cache) and
//! one [`ArtifactStore`](lassi_harness::ArtifactStore) alive behind a
//! network socket, so the cache's speedup is amortised across many clients.
//!
//! ## Endpoints
//!
//! | Method | Path | Purpose |
//! |--------|------|---------|
//! | `POST` | `/v1/sweeps` | Validate + enqueue a models × apps × directions × config grid; `202 Accepted` with `Location: /v1/runs/{id}` in milliseconds, executed by the background sweep-executor pool. |
//! | `GET` | `/v1/runs` | Paginated run listing (`?limit=&after=`): `{"runs": [{id, state, created}], "next": …}`. |
//! | `GET` | `/v1/runs/{id}` | The run resource: lifecycle state (`queued/running/done/failed/cancelled`) + progress. |
//! | `POST` | `/v1/runs/{id}/cancel` | Cancel a queued or running run (wires into the sweep's `CancelToken`). |
//! | `DELETE` | `/v1/runs/{id}` | Delete a terminal run's directory (live runs are a 409). |
//! | `GET` | `/v1/runs/{id}/manifest` | The run manifest — raw artifact bytes. |
//! | `GET` | `/v1/runs/{id}/records/{set}` | One record set — raw artifact bytes, chunked. |
//! | `GET` | `/v1/runs/{id}/trace` | The run's `trace.jsonl` — one `trace.v1` event per line: runstate transitions plus one `job` span per scenario, starting at its claim (queue wait) and lasting its execution, each followed by its scenario's `diag` events rendered from the records. |
//! | `GET` | `/v1/runs/{id}/diagnostics` | The run's `diag.v1` document of structured findings per scenario and attempt, rendered from the records. |
//! | `GET` | `/v1/cache/stats` | Scenario-cache counters (`attached`, `hits`, `misses`, `stores`, `hit_rate`) plus the deterministic execution-report memo (`report_cache`: hits, misses, hit rate, entries and approximate bytes). |
//! | `GET` | `/v1/metrics` | Prometheus-style text exposition of the process-wide `lassi_` metrics registry. |
//! | `GET` | `/v1/debug/events` | The most recent trace events from a bounded in-memory ring (lossy by design). |
//! | `GET` | `/v1/healthz` | Liveness. |
//! | `POST` | `/v1/work/lease` | A remote worker pulls a batch of scenario jobs under a time-bounded lease (`{worker_id, capacity}` → lease id + deadline + job specs). |
//! | `POST` | `/v1/work/heartbeat` | Extend a held lease's deadline before it expires and its jobs are requeued. |
//! | `POST` | `/v1/work/complete` | Return a lease's `record.v1` records; duplicates resolve first-write-wins, invalid completions fail the lease and requeue its jobs. |
//! | `POST` | `/v1/shutdown` | Cooperative drain: refuse new sweeps, fail queued runs with a reason, cancel running ones, finish in-flight scenarios, exit. |
//!
//! Every non-2xx response carries the structured error envelope
//! `{"error": {"code": "<slug>", "message": "...", "status": N}}`.
//! Backpressure refusals (`429 queue_full`, `503 draining`) also carry a
//! `Retry-After` header so well-behaved clients back off instead of
//! hammering the socket.
//!
//! ## Concurrency model
//!
//! Thread-per-connection behind a bounded [connection budget](Server): when
//! `max_connections` handlers are busy the acceptor blocks, TCP backlog
//! absorbs the burst, and clients queue instead of overwhelming the
//! process. Inside, each sweep feeds the harness's *bounded* job queue, so
//! backpressure composes end-to-end: socket → connection budget → job
//! queue → worker pool.
//!
//! ## Keep-alive
//!
//! Each connection runs a request loop: HTTP/1.1 requests keep the socket
//! open by default (`Connection: close` opts out, HTTP/1.0 must opt *in*
//! with `Connection: keep-alive`), so a client session pays one TCP
//! handshake instead of one per request. The loop closes the connection
//! when the client asks, after [`DEFAULT_MAX_REQUESTS_PER_CONNECTION`]
//! requests (so one client cannot pin a connection slot forever), after
//! [`DEFAULT_IDLE_TIMEOUT`] with no next request, or when a cooperative
//! shutdown begins — the in-flight request still finishes and is answered
//! with `Connection: close`, then the loop exits and the budget slot frees.

pub mod handlers;
pub mod http;
pub mod router;
pub mod state;

use std::io::{self, BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

pub use handlers::{
    DEFAULT_LEASE_CAPACITY, DEFAULT_RUNS_PAGE, MAX_LEASE_CAPACITY, MAX_RUNS_PAGE,
    MAX_SCENARIOS_PER_SWEEP, RETRY_AFTER_DRAINING, RETRY_AFTER_QUEUE_FULL,
};
pub use http::{
    request, request_with_timeout, ClientConnection, ClientResponse, Request, Response,
};
pub use state::{
    AppState, CancelError, CompleteError, FleetSnapshot, LeaseGrant, SubmitError,
    DEBUG_EVENT_CAPACITY, DEFAULT_LEASE_TTL_MS, DEFAULT_SWEEP_EXECUTORS, MAX_QUEUED_RUNS,
};

/// Default cap on concurrently-served connections.
pub const DEFAULT_MAX_CONNECTIONS: usize = 64;

/// Default idle read timeout: how long a keep-alive connection may sit
/// between requests before the server closes it and frees the slot.
pub const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(5);

/// Default cap on requests served over one connection before the server
/// closes it (announced via `Connection: close` on the final response).
pub const DEFAULT_MAX_REQUESTS_PER_CONNECTION: usize = 1024;

/// How often an idle connection re-checks the shutdown flag while waiting
/// for its next request — bounds how long an idle keep-alive client can
/// delay a cooperative drain.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// A counting gate over connection-handler threads: `acquire` blocks while
/// the budget is exhausted, and `wait_idle` is the drain barrier shutdown
/// uses. Built on the non-poisoning `parking_lot` shim so a panicking
/// handler releases its slot (via `Permit`'s `Drop`) without wedging the
/// acceptor.
struct ConnectionGate {
    count: Mutex<usize>,
    changed: Condvar,
    max: usize,
    /// Mirror of `count` for `/v1/metrics` (`lassi_http_open_connections`),
    /// updated on acquire/release so scrapes never take the gate's lock.
    open: lassi_obs::Gauge,
}

impl ConnectionGate {
    fn new(max: usize) -> Arc<ConnectionGate> {
        let max = max.max(1);
        let registry = lassi_obs::global();
        registry
            .gauge(
                "lassi_http_connection_budget",
                "Configured cap on concurrently-served connections.",
                &[],
            )
            .set(max as i64);
        let open = registry.gauge(
            "lassi_http_open_connections",
            "Connections currently holding a handler slot.",
            &[],
        );
        open.set(0);
        Arc::new(ConnectionGate {
            count: Mutex::new(0),
            changed: Condvar::new(),
            max,
            open,
        })
    }

    fn acquire(self: &Arc<ConnectionGate>) -> Permit {
        let mut count = self.count.lock();
        while *count >= self.max {
            count = self.changed.wait(count);
        }
        *count += 1;
        self.open.inc();
        Permit {
            gate: Arc::clone(self),
        }
    }

    fn wait_idle(&self) {
        let mut count = self.count.lock();
        while *count > 0 {
            count = self.changed.wait(count);
        }
    }
}

struct Permit {
    gate: Arc<ConnectionGate>,
}

impl Drop for Permit {
    fn drop(&mut self) {
        *self.gate.count.lock() -= 1;
        self.gate.open.dec();
        self.gate.changed.notify_all();
    }
}

/// Per-connection keep-alive policy, shared by every handler thread.
#[derive(Debug, Clone, Copy)]
struct KeepAlivePolicy {
    idle_timeout: Duration,
    max_requests: usize,
}

/// The HTTP service: a bound listener plus the shared [`AppState`].
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    state: Arc<AppState>,
    max_connections: usize,
    keep_alive: KeepAlivePolicy,
    sweep_executors: usize,
}

impl Server {
    /// Bind to `addr` (e.g. `127.0.0.1:0` for an ephemeral port).
    pub fn bind(addr: impl ToSocketAddrs, state: Arc<AppState>) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        Ok(Server {
            listener,
            local_addr,
            state,
            max_connections: DEFAULT_MAX_CONNECTIONS,
            keep_alive: KeepAlivePolicy {
                idle_timeout: DEFAULT_IDLE_TIMEOUT,
                max_requests: DEFAULT_MAX_REQUESTS_PER_CONNECTION,
            },
            sweep_executors: state::DEFAULT_SWEEP_EXECUTORS,
        })
    }

    /// Override how many sweeps execute concurrently (clamped to ≥ 1).
    pub fn with_sweep_executors(mut self, count: usize) -> Server {
        self.sweep_executors = count.max(1);
        self
    }

    /// Override the connection budget (clamped to ≥ 1).
    pub fn with_max_connections(mut self, max: usize) -> Server {
        self.max_connections = max.max(1);
        self
    }

    /// Override the work-lease TTL (clamped to ≥ 1 ms). Short TTLs make
    /// chaos tests reclaim dead workers fast; the default is
    /// [`DEFAULT_LEASE_TTL_MS`].
    pub fn with_lease_ttl_ms(self, ttl_ms: u64) -> Server {
        self.state.set_lease_ttl_ms(ttl_ms.max(1));
        self
    }

    /// Override how long a keep-alive connection may idle between requests
    /// before the server closes it (clamped to ≥ 1 ms).
    pub fn with_idle_timeout(mut self, idle_timeout: Duration) -> Server {
        self.keep_alive.idle_timeout = idle_timeout.max(Duration::from_millis(1));
        self
    }

    /// Override how many requests one connection may carry before the
    /// server closes it (clamped to ≥ 1).
    pub fn with_max_requests_per_connection(mut self, max: usize) -> Server {
        self.keep_alive.max_requests = max.max(1);
        self
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared state.
    pub fn state(&self) -> &Arc<AppState> {
        &self.state
    }

    /// Serve until a cooperative shutdown (`POST /v1/shutdown`) drains the
    /// service: in-flight connections and sweeps finish, then this returns.
    pub fn run(&self) -> io::Result<()> {
        // The sweep-executor pool drains the run queue in the background;
        // startup recovery (failing runs orphaned by a previous process)
        // happens inside the first call.
        self.state.start_executors(self.sweep_executors);
        let gate = ConnectionGate::new(self.max_connections);
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _peer)) => stream,
                Err(e) => {
                    if self.state.shutting_down() {
                        break;
                    }
                    // accept() errors are about the *attempted* connection
                    // (peer reset in the backlog, fd pressure, EINTR), not
                    // the listener: a long-lived server must not die — and
                    // skip the drain barrier — over one of them. The pause
                    // keeps fd-exhaustion from spinning the acceptor.
                    eprintln!("lassi-server: accept error (retrying): {e}");
                    thread::sleep(std::time::Duration::from_millis(50));
                    continue;
                }
            };
            if self.state.shutting_down() {
                // The wake-up connection (or a late client) during drain.
                drop(stream);
                break;
            }
            // Backpressure: block the acceptor until a handler slot frees.
            let permit = gate.acquire();
            let state = Arc::clone(&self.state);
            let local_addr = self.local_addr;
            let keep_alive = self.keep_alive;
            thread::spawn(move || {
                handle_connection(&stream, &state, keep_alive, permit);
                if state.shutting_down() {
                    // Poke the acceptor out of its blocking `accept` so it
                    // notices the shutdown flag.
                    let _ = TcpStream::connect(local_addr);
                }
            });
        }
        gate.wait_idle();
        // The connections are drained; now wait for the executors. Shutdown
        // closed the run queue and cancelled running sweeps, so each
        // executor finishes its current (cancelled) run quickly and exits.
        self.state.join_executors();
        Ok(())
    }
}

/// What happened while waiting for the next request on a kept-alive
/// connection.
enum NextRequest {
    /// Bytes are available: parse a request.
    Ready,
    /// The peer closed (or errored) the connection at a request boundary.
    Closed,
    /// No request arrived within the idle timeout.
    IdleTimeout,
    /// A cooperative shutdown began while idle.
    Draining,
}

/// Wait for the first byte of the next request, polling in [`IDLE_POLL`]
/// slices so an idle connection notices a shutdown quickly instead of
/// pinning the drain barrier for the whole idle timeout.
fn wait_for_request(
    reader: &mut BufReader<&TcpStream>,
    stream: &TcpStream,
    policy: KeepAlivePolicy,
    state: &AppState,
) -> NextRequest {
    // A monotonic deadline, not accumulated poll slices: an `Interrupted`
    // read returns in microseconds and must not be charged a whole slice
    // of the idle budget.
    let deadline = std::time::Instant::now() + policy.idle_timeout;
    loop {
        if state.shutting_down() {
            return NextRequest::Draining;
        }
        let slice = IDLE_POLL.min(policy.idle_timeout);
        let _ = stream.set_read_timeout(Some(slice));
        match reader.fill_buf() {
            // A pipelined request may already be buffered; otherwise this
            // blocks up to one poll slice for fresh bytes.
            Ok([]) => return NextRequest::Closed,
            Ok(_) => return NextRequest::Ready,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                if std::time::Instant::now() >= deadline {
                    return NextRequest::IdleTimeout;
                }
            }
            Err(_) => return NextRequest::Closed,
        }
    }
}

/// Serve one connection's request loop: parse, dispatch, respond, repeat
/// while keep-alive applies; parse failures get a 400 and a close. The
/// permit rides along so the budget slot frees exactly when handling ends.
fn handle_connection(
    stream: &TcpStream,
    state: &AppState,
    policy: KeepAlivePolicy,
    _permit: Permit,
) {
    let _ = stream.set_write_timeout(Some(http::IO_TIMEOUT));
    // One buffered reader for the connection's whole lifetime: bytes of a
    // pipelined next request buffered behind the current one must not be
    // lost between loop iterations.
    let mut reader = BufReader::new(stream);
    let mut served = 0usize;
    // A non-Ready wait ends the loop: nothing is in flight at a request
    // boundary (peer closed, idle timeout, drain), so close silently.
    while let NextRequest::Ready = wait_for_request(&mut reader, stream, policy, state) {
        // Mid-request reads get the normal I/O timeout: a peer that stalls
        // inside a request is misbehaving, not idle.
        let _ = stream.set_read_timeout(Some(http::IO_TIMEOUT));
        let (response, keep_alive) = match http::read_request_from(&mut reader) {
            Ok(request) => {
                served += 1;
                let keep = request.wants_keep_alive() && served < policy.max_requests;
                (handlers::handle(state, &request), keep)
            }
            // A malformed request leaves the stream position unknown, so
            // the connection cannot be reused.
            Err(e) => (
                Response::error(400, "bad_request", &format!("bad request: {e}")),
                false,
            ),
        };
        // Re-check the flag after handling: if this very request started
        // the shutdown (or one raced in), announce the close.
        let keep_alive = keep_alive && !state.shutting_down();
        let mut out = io::BufWriter::new(stream);
        if response.write_to(&mut out, keep_alive).is_err() || !keep_alive {
            break;
        }
    }
}
