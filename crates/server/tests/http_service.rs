//! End-to-end test of the HTTP service over real TCP: submit sweeps
//! asynchronously, poll run resources through their lifecycle, fetch
//! artifacts byte-identically, cancel runs mid-flight, watch cache
//! counters, keep connections alive across requests, and drain cleanly.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use lassi_harness::{
    ArtifactStore, Harness, HarnessOptions, Json, RunState, RunStatus, ScenarioCache,
};
use lassi_server::{http, AppState, ClientConnection, Server};

fn test_root(label: &str) -> PathBuf {
    std::env::temp_dir().join(format!("lassi-server-test-{}-{label}", std::process::id()))
}

/// Spin up a full server (2 workers, disk cache) on an ephemeral port,
/// after applying `configure` to the bound server (keep-alive knobs,
/// executor count).
fn start_server_with(
    root: &PathBuf,
    configure: impl FnOnce(Server) -> Server,
) -> (SocketAddr, thread::JoinHandle<()>, Arc<AppState>) {
    let store = ArtifactStore::new(root);
    let cache = ScenarioCache::on_disk(store.cache_dir()).expect("cache dir");
    let harness = Harness::new(HarnessOptions::default().with_workers(2)).with_cache(cache);
    let state = Arc::new(AppState::new(harness, store));
    let server = configure(
        Server::bind("127.0.0.1:0", Arc::clone(&state))
            .expect("bind")
            .with_max_connections(8),
    );
    let addr = server.local_addr();
    let state_handle = Arc::clone(server.state());
    let join = thread::spawn(move || server.run().expect("server run"));
    (addr, join, state_handle)
}

/// Spin up a full server with the default keep-alive policy.
fn start_server(root: &PathBuf) -> (SocketAddr, thread::JoinHandle<()>, Arc<AppState>) {
    start_server_with(root, |server| server)
}

fn get_json(addr: SocketAddr, path: &str) -> (u16, Json) {
    let resp = http::request(addr, "GET", path, None).expect("request");
    let value = lassi_harness::json::parse(&resp.text()).expect("json body");
    (resp.status, value)
}

/// The `code` slug of a structured error envelope.
fn error_code(resp: &http::ClientResponse) -> String {
    let value = lassi_harness::json::parse(&resp.text()).expect("error body is json");
    value
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(|c| c.as_str())
        .unwrap_or_else(|| panic!("no error code in {}", resp.text()))
        .to_string()
}

fn state_of(view: &Json) -> String {
    view.get("state")
        .and_then(|s| s.as_str())
        .expect("state field")
        .to_string()
}

/// Poll `GET /v1/runs/{id}` until the run reaches a terminal state.
/// Returns the distinct states observed (in order) and the final view.
fn poll_to_terminal(addr: SocketAddr, id: &str, timeout: Duration) -> (Vec<String>, Json) {
    let deadline = Instant::now() + timeout;
    let mut observed: Vec<String> = Vec::new();
    loop {
        let (status, view) = get_json(addr, &format!("/v1/runs/{id}"));
        assert_eq!(status, 200, "poll of `{id}`: {view:?}");
        let state = state_of(&view);
        if observed.last() != Some(&state) {
            observed.push(state.clone());
        }
        if RunState::from_slug(&state)
            .expect("known state")
            .is_terminal()
        {
            return (observed, view);
        }
        assert!(
            Instant::now() < deadline,
            "run `{id}` did not reach a terminal state; saw {observed:?}"
        );
        thread::sleep(Duration::from_millis(25));
    }
}

/// Assert an observed state sequence walks the lifecycle forward only.
fn assert_lifecycle_order(observed: &[String]) {
    let rank = |s: &str| match s {
        "queued" => 0,
        "running" => 1,
        "done" | "failed" | "cancelled" => 2,
        other => panic!("unknown state `{other}`"),
    };
    for pair in observed.windows(2) {
        assert!(
            rank(&pair[0]) < rank(&pair[1]),
            "lifecycle went backwards: {observed:?}"
        );
    }
}

#[test]
fn serves_sweeps_and_artifacts_end_to_end() {
    let root = test_root("e2e");
    let _ = std::fs::remove_dir_all(&root);
    let (addr, join, _state) = start_server(&root);

    // Liveness.
    let (status, health) = get_json(addr, "/v1/healthz");
    assert_eq!(status, 200);
    assert_eq!(health.get("status").and_then(|v| v.as_str()), Some("ok"));

    // No runs yet; the paginated envelope is present from the start.
    let (status, runs) = get_json(addr, "/v1/runs");
    assert_eq!(status, 200);
    assert_eq!(
        runs.get("runs").and_then(|v| v.as_array()).unwrap().len(),
        0
    );
    assert!(matches!(runs.get("next"), Some(Json::Null)));

    // Submit a tiny sweep with a client-chosen run id: the response is an
    // immediate 202 pointing at the run resource, not the finished sweep.
    let body = br#"{
        "models": ["GPT-4"],
        "apps": ["layout", "entropy"],
        "directions": ["cuda-to-omp"],
        "timing_runs": [1],
        "run_id": "itest"
    }"#;
    let resp = http::request(addr, "POST", "/v1/sweeps", Some(body)).expect("submit");
    assert_eq!(resp.status, 202, "{}", resp.text());
    assert_eq!(resp.header("location"), Some("/v1/runs/itest"));
    let accepted = lassi_harness::json::parse(&resp.text()).expect("accepted body");
    assert_eq!(accepted.get("id").and_then(|v| v.as_str()), Some("itest"));
    let submit_state = state_of(&accepted);
    assert!(
        submit_state == "queued" || submit_state == "running",
        "submission must answer before the sweep finishes, got `{submit_state}`"
    );
    let progress = accepted.get("progress").expect("progress");
    assert_eq!(progress.get("total").and_then(|v| v.as_u64()), Some(2));

    // Poll the resource through its lifecycle to `done`.
    let (observed, done) = poll_to_terminal(addr, "itest", Duration::from_secs(120));
    assert_lifecycle_order(&observed);
    assert_eq!(state_of(&done), "done", "reason: {:?}", done.get("reason"));
    let progress = done.get("progress").expect("progress");
    assert_eq!(progress.get("completed").and_then(|v| v.as_u64()), Some(2));
    assert_eq!(progress.get("total").and_then(|v| v.as_u64()), Some(2));
    assert!(
        done.get("wall_seconds").and_then(|v| v.as_f64()).is_some(),
        "terminal runs report wall clock"
    );

    // The manifest endpoint serves the exact bytes on disk.
    let manifest_path = root.join("run-itest").join("manifest.json");
    let on_disk = std::fs::read(&manifest_path).expect("manifest on disk");
    let fetched = http::request(addr, "GET", "/v1/runs/itest/manifest", None).expect("manifest");
    assert_eq!(fetched.status, 200);
    assert_eq!(fetched.body, on_disk, "GET manifest == disk bytes");
    let manifest = lassi_harness::json::parse(&fetched.text()).expect("manifest json");
    let sets: Vec<String> = manifest
        .get("record_sets")
        .and_then(|v| v.as_array())
        .unwrap()
        .iter()
        .map(|s| s.as_str().unwrap().to_string())
        .collect();
    assert_eq!(sets.len(), 1);

    // Records come back chunked and byte-identical to the artifact store.
    let records_path = root
        .join("run-itest")
        .join(format!("records-{}.json", sets[0]));
    let records_disk = std::fs::read(&records_path).expect("records on disk");
    let records = http::request(
        addr,
        "GET",
        &format!("/v1/runs/itest/records/{}", sets[0]),
        None,
    )
    .expect("get records");
    assert_eq!(records.status, 200);
    assert!(
        records
            .headers
            .iter()
            .any(|(n, v)| n == "transfer-encoding" && v == "chunked"),
        "record sets are served chunked"
    );
    assert_eq!(records.body, records_disk, "records == disk bytes");

    // Cache stats: the cold sweep was all misses.
    let (_, stats) = get_json(addr, "/v1/cache/stats");
    assert_eq!(stats.get("attached").and_then(|v| v.as_bool()), Some(true));
    let misses0 = stats.get("misses").and_then(|v| v.as_u64()).unwrap();
    assert_eq!(misses0, 2, "two scenarios, both cold");

    // Same grid again (server-assigned id): warm, zero new misses.
    let warm_body = br#"{
        "models": ["GPT-4"],
        "apps": ["layout", "entropy"],
        "directions": ["cuda-to-omp"],
        "timing_runs": [1]
    }"#;
    let warm = http::request(addr, "POST", "/v1/sweeps", Some(warm_body)).expect("warm submit");
    assert_eq!(warm.status, 202, "{}", warm.text());
    let warm_view = lassi_harness::json::parse(&warm.text()).unwrap();
    let warm_id = warm_view
        .get("id")
        .and_then(|v| v.as_str())
        .unwrap()
        .to_string();
    assert!(warm_id.starts_with("srv-"), "server-assigned id: {warm_id}");
    assert_eq!(
        warm.header("location").unwrap(),
        format!("/v1/runs/{warm_id}")
    );
    let (_, warm_done) = poll_to_terminal(addr, &warm_id, Duration::from_secs(120));
    assert_eq!(state_of(&warm_done), "done");
    let (_, warm_manifest) = get_json(addr, &format!("/v1/runs/{warm_id}/manifest"));
    assert_eq!(
        warm_manifest.get("cache_hits").and_then(|v| v.as_u64()),
        Some(2),
        "warm run is served from the scenario cache"
    );
    let (_, stats) = get_json(addr, "/v1/cache/stats");
    assert_eq!(
        stats.get("misses").and_then(|v| v.as_u64()),
        Some(misses0),
        "warm submit added no misses"
    );
    // The warm run's records are byte-identical to the cold run's.
    let cold_records = std::fs::read(&records_path).unwrap();
    let warm_records = std::fs::read(
        root.join(format!("run-{warm_id}"))
            .join(format!("records-{}.json", sets[0])),
    )
    .unwrap();
    assert_eq!(cold_records, warm_records, "cache returns exact records");

    // Both runs are listed with state + created, sorted by id.
    let (_, runs) = get_json(addr, "/v1/runs");
    let listed: Vec<(String, String)> = runs
        .get("runs")
        .and_then(|v| v.as_array())
        .unwrap()
        .iter()
        .map(|row| {
            (
                row.get("id").and_then(|v| v.as_str()).unwrap().to_string(),
                state_of(row),
            )
        })
        .collect();
    assert_eq!(
        listed,
        vec![
            ("itest".to_string(), "done".to_string()),
            (warm_id.clone(), "done".to_string())
        ]
    );

    // Pagination: limit=1 yields the first run plus a `next` cursor; the
    // cursor fetches the rest; the pages reassemble the full listing.
    let (_, page1) = get_json(addr, "/v1/runs?limit=1");
    let first: Vec<&Json> = page1
        .get("runs")
        .and_then(|v| v.as_array())
        .unwrap()
        .iter()
        .collect();
    assert_eq!(first.len(), 1);
    assert_eq!(first[0].get("id").and_then(|v| v.as_str()), Some("itest"));
    let next = page1.get("next").and_then(|v| v.as_str()).expect("cursor");
    assert_eq!(next, "itest");
    let (_, page2) = get_json(addr, &format!("/v1/runs?limit=1&after={next}"));
    let second: Vec<&Json> = page2
        .get("runs")
        .and_then(|v| v.as_array())
        .unwrap()
        .iter()
        .collect();
    assert_eq!(second.len(), 1);
    assert_eq!(
        second[0].get("id").and_then(|v| v.as_str()),
        Some(warm_id.as_str())
    );
    assert!(
        matches!(page2.get("next"), Some(Json::Null)),
        "last page has no cursor: {page2:?}"
    );

    // Cancelling a finished run is a conflict, with a machine-readable code.
    let resp = http::request(addr, "POST", "/v1/runs/itest/cancel", None).unwrap();
    assert_eq!(resp.status, 409);
    assert_eq!(error_code(&resp), "not_cancellable");

    // DELETE removes a run and only that run; deleting again is a 404.
    let resp = http::request(addr, "DELETE", &format!("/v1/runs/{warm_id}"), None).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert!(
        !root.join(format!("run-{warm_id}")).exists(),
        "deleted run directory is gone"
    );
    let (_, runs) = get_json(addr, "/v1/runs");
    let listed: Vec<String> = runs
        .get("runs")
        .and_then(|v| v.as_array())
        .unwrap()
        .iter()
        .map(|row| row.get("id").and_then(|v| v.as_str()).unwrap().to_string())
        .collect();
    assert_eq!(listed, vec!["itest"], "the other run survives the delete");
    assert!(
        root.join("cache").is_dir(),
        "the scenario cache is untouched"
    );
    let resp = http::request(addr, "DELETE", &format!("/v1/runs/{warm_id}"), None).unwrap();
    assert_eq!(resp.status, 404, "double delete is NotFound");
    assert_eq!(error_code(&resp), "run_not_found");

    // Error paths all carry the structured envelope with stable codes.
    let resp = http::request(addr, "GET", "/v1/runs/does-not-exist", None).unwrap();
    assert_eq!(resp.status, 404);
    assert_eq!(error_code(&resp), "run_not_found");
    let resp = http::request(addr, "DELETE", "/v1/runs/..", None).unwrap();
    assert_eq!(resp.status, 400, "traversal delete is rejected");
    assert_eq!(error_code(&resp), "invalid_slug");
    let resp = http::request(addr, "GET", "/nope", None).unwrap();
    assert_eq!(resp.status, 404);
    assert_eq!(error_code(&resp), "not_found");
    let resp = http::request(addr, "POST", "/v1/healthz", None).unwrap();
    assert_eq!(resp.status, 405);
    assert_eq!(error_code(&resp), "method_not_allowed");
    let resp = http::request(addr, "POST", "/v1/sweeps", Some(b"{\"apps\": []}")).unwrap();
    assert_eq!(resp.status, 400);
    assert_eq!(error_code(&resp), "invalid_sweep");
    let resp = http::request(addr, "GET", "/v1/runs?limit=0", None).unwrap();
    assert_eq!(resp.status, 400);
    assert_eq!(error_code(&resp), "invalid_query");
    let resp = http::request(addr, "POST", "/v1/sweeps", Some(body)).unwrap();
    assert_eq!(resp.status, 409, "duplicate client-chosen run id");
    assert_eq!(error_code(&resp), "run_exists");

    // Cooperative shutdown: the server drains and `run` returns.
    let resp = http::request(addr, "POST", "/v1/shutdown", None).expect("shutdown");
    assert_eq!(resp.status, 200);
    join.join().expect("server thread exits cleanly");

    // After drain, new connections are refused or dropped.
    let late = http::request(addr, "GET", "/v1/healthz", None);
    assert!(late.is_err(), "server socket is closed after drain");

    let _ = std::fs::remove_dir_all(&root);
}

const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

#[test]
fn run_lifecycle_cancel_and_drain() {
    let root = test_root("lifecycle");
    let _ = std::fs::remove_dir_all(&root);
    // ONE executor: submissions beyond the first provably queue behind it,
    // which is what makes the queued-cancel and drain assertions
    // deterministic.
    let (addr, join, _state) = start_server_with(&root, |s| s.with_sweep_executors(1));

    let sweep = |apps: &str, msc: &str, run_id: &str| {
        format!(
            r#"{{"models": ["GPT-4"], "apps": [{apps}],
                "directions": ["cuda-to-omp", "omp-to-cuda"],
                "max_self_corrections": [{msc}], "timing_runs": [1],
                "run_id": "{run_id}"}}"#
        )
    };

    // Runs A and C: 10 apps × 2 directions × 2 msc = 40 scenarios — long
    // enough that each is still mid-flight when it is cancelled or drained
    // below, even when sibling tests have already warmed the process-wide
    // report memo.
    let all_apps = r#""matrix-rotate", "jacobi", "layout", "atomicCost", "dense-embedding",
        "pathfinder", "bsearch", "entropy", "colorwheel", "randomAccess""#;
    let a = sweep(all_apps, "10, 40", "run-a");
    let resp = http::request(addr, "POST", "/v1/sweeps", Some(a.as_bytes())).unwrap();
    assert_eq!(resp.status, 202, "{}", resp.text());

    // Run B queues behind A on the single executor.
    let b = sweep(r#""layout""#, "10", "run-b");
    let resp = http::request(addr, "POST", "/v1/sweeps", Some(b.as_bytes())).unwrap();
    assert_eq!(resp.status, 202, "{}", resp.text());
    let (_, view) = get_json(addr, "/v1/runs/run-b");
    assert_eq!(state_of(&view), "queued", "B waits behind A");

    // Cancelling a queued run is immediate and durable.
    let resp = http::request(addr, "POST", "/v1/runs/run-b/cancel", None).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    let cancelled = lassi_harness::json::parse(&resp.text()).unwrap();
    assert_eq!(state_of(&cancelled), "cancelled");
    let (_, view) = get_json(addr, "/v1/runs/run-b");
    assert_eq!(state_of(&view), "cancelled");
    assert!(view
        .get("reason")
        .and_then(|r| r.as_str())
        .unwrap()
        .contains("cancelled by client"));
    let resp = http::request(addr, "POST", "/v1/runs/run-b/cancel", None).unwrap();
    assert_eq!(resp.status, 409, "double cancel conflicts");
    assert_eq!(error_code(&resp), "not_cancellable");
    // A cancelled-before-start run is deletable (nothing is writing to it).
    let resp = http::request(addr, "DELETE", "/v1/runs/run-b", None).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());

    // Wait for A to be running, then cancel it mid-flight.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (_, view) = get_json(addr, "/v1/runs/run-a");
        if state_of(&view) == "running" {
            break;
        }
        assert!(Instant::now() < deadline, "A never started: {view:?}");
        thread::sleep(Duration::from_millis(10));
    }
    // A live run cannot be deleted out from under its executor.
    let resp = http::request(addr, "DELETE", "/v1/runs/run-a", None).unwrap();
    assert_eq!(resp.status, 409);
    assert_eq!(error_code(&resp), "run_active");
    let resp = http::request(addr, "POST", "/v1/runs/run-a/cancel", None).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    let (_, final_a) = poll_to_terminal(addr, "run-a", Duration::from_secs(120));
    assert_eq!(state_of(&final_a), "cancelled");
    assert!(final_a
        .get("reason")
        .and_then(|r| r.as_str())
        .unwrap()
        .contains("cancelled by client"));
    let completed = final_a
        .get("progress")
        .and_then(|p| p.get("completed"))
        .and_then(|v| v.as_u64())
        .unwrap();
    assert!(
        completed < 40,
        "cancellation discards queued scenarios (completed {completed}/40)"
    );

    // Run C occupies the executor; run D queues behind it. A drain must
    // cancel running C and fail queued D, each with a persisted reason.
    let c = sweep(all_apps, "10, 40", "run-c");
    let resp = http::request(addr, "POST", "/v1/sweeps", Some(c.as_bytes())).unwrap();
    assert_eq!(resp.status, 202, "{}", resp.text());
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (_, view) = get_json(addr, "/v1/runs/run-c");
        if state_of(&view) == "running" {
            break;
        }
        assert!(Instant::now() < deadline, "C never started: {view:?}");
        thread::sleep(Duration::from_millis(10));
    }
    let d = sweep(r#""entropy""#, "10", "run-d");
    let resp = http::request(addr, "POST", "/v1/sweeps", Some(d.as_bytes())).unwrap();
    assert_eq!(resp.status, 202, "{}", resp.text());
    let (_, view) = get_json(addr, "/v1/runs/run-d");
    assert_eq!(state_of(&view), "queued");

    let resp = http::request(addr, "POST", "/v1/shutdown", None).unwrap();
    assert_eq!(resp.status, 200);
    join.join().expect("server drains");

    // After the drain the lifecycle files on disk tell the story.
    let store = ArtifactStore::new(&root);
    let d_status = RunStatus::load(&store.run_dir("run-d")).unwrap();
    assert_eq!(d_status.state, RunState::Failed);
    assert!(
        d_status
            .reason
            .as_deref()
            .unwrap()
            .contains("drained before the run started"),
        "queued runs fail with a drain reason, got {:?}",
        d_status.reason
    );
    let c_status = RunStatus::load(&store.run_dir("run-c")).unwrap();
    assert_eq!(c_status.state, RunState::Failed);
    assert!(
        c_status.reason.as_deref().unwrap().contains("drained"),
        "running runs fail with a drain reason, got {:?}",
        c_status.reason
    );
    // Cancelled A kept its client-cancel reason.
    let a_status = RunStatus::load(&store.run_dir("run-a")).unwrap();
    assert_eq!(a_status.state, RunState::Cancelled);

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn keep_alive_serves_many_requests_on_one_socket() {
    let root = test_root("keepalive");
    let _ = std::fs::remove_dir_all(&root);
    let (addr, join, _state) = start_server(&root);

    // Many sequential requests over ONE connection: every response arrives,
    // announces keep-alive, and is byte-identical to its one-shot twin.
    let one_shot = http::request(addr, "GET", "/v1/healthz", None).expect("one-shot");
    let mut conn = ClientConnection::connect(addr, CLIENT_TIMEOUT).expect("connect");
    for i in 0..50 {
        let resp = conn
            .send("GET", "/v1/healthz", None)
            .expect("keep-alive send");
        assert_eq!(resp.status, 200, "request {i}");
        assert!(!resp.closes_connection(), "request {i} keeps the socket");
        assert_eq!(resp.body, one_shot.body, "request {i} body is identical");
    }
    // The whole async flow rides the same socket: submit, poll to done,
    // then fetch the records (served chunked) without reconnecting.
    let body = br#"{"models": ["GPT-4"], "apps": ["layout"],
                   "directions": ["cuda-to-omp"], "timing_runs": [1],
                   "run_id": "ka"}"#;
    let resp = conn.send("POST", "/v1/sweeps", Some(body)).expect("sweep");
    assert_eq!(resp.status, 202, "{}", resp.text());
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let view = conn.send("GET", "/v1/runs/ka", None).expect("poll");
        assert_eq!(view.status, 200);
        let parsed = lassi_harness::json::parse(&view.text()).unwrap();
        let state = state_of(&parsed);
        if state == "done" {
            break;
        }
        assert!(
            state == "queued" || state == "running",
            "unexpected state `{state}`: {}",
            view.text()
        );
        assert!(Instant::now() < deadline, "run never finished");
        thread::sleep(Duration::from_millis(25));
    }
    let manifest = conn
        .send("GET", "/v1/runs/ka/manifest", None)
        .expect("manifest over keep-alive");
    assert_eq!(manifest.status, 200);
    let manifest = lassi_harness::json::parse(&manifest.text()).expect("manifest json");
    let set = manifest
        .get("record_sets")
        .and_then(|v| v.as_array())
        .and_then(|sets| sets.first())
        .and_then(|s| s.as_str())
        .expect("one record set")
        .to_string();
    let records = conn
        .send("GET", &format!("/v1/runs/ka/records/{set}"), None)
        .expect("records over keep-alive");
    assert_eq!(records.status, 200);
    assert!(
        records
            .headers
            .iter()
            .any(|(n, v)| n == "transfer-encoding" && v == "chunked"),
        "chunked framing works mid-connection"
    );
    let on_disk = std::fs::read(root.join("run-ka").join(format!("records-{set}.json"))).unwrap();
    assert_eq!(records.body, on_disk, "chunked body is byte-identical");

    // An explicit Connection: close (the one-shot client) still closes.
    let resp = http::request(addr, "GET", "/v1/healthz", None).expect("one-shot");
    assert!(resp.closes_connection());

    let resp = conn.send("POST", "/v1/shutdown", None).expect("shutdown");
    assert_eq!(resp.status, 200);
    assert!(
        resp.closes_connection(),
        "the shutdown response announces the close"
    );
    join.join().expect("server drains");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn idle_keep_alive_connections_are_closed() {
    let root = test_root("idle");
    let _ = std::fs::remove_dir_all(&root);
    let (addr, join, _state) =
        start_server_with(&root, |s| s.with_idle_timeout(Duration::from_millis(200)));

    let mut conn = ClientConnection::connect(addr, CLIENT_TIMEOUT).expect("connect");
    let resp = conn.send("GET", "/v1/healthz", None).expect("first send");
    assert_eq!(resp.status, 200);
    assert!(!resp.closes_connection());

    // Sit idle past the timeout: the server closes the socket, so the next
    // send fails instead of hanging.
    thread::sleep(Duration::from_millis(800));
    assert!(
        conn.send("GET", "/v1/healthz", None).is_err(),
        "idle-timed-out connection must be closed by the server"
    );

    // The server itself is fine — fresh connections still work.
    let resp = http::request(addr, "POST", "/v1/shutdown", None).expect("shutdown");
    assert_eq!(resp.status, 200);
    join.join().expect("server drains");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn per_connection_request_cap_closes_politely() {
    let root = test_root("reqcap");
    let _ = std::fs::remove_dir_all(&root);
    let (addr, join, _state) = start_server_with(&root, |s| s.with_max_requests_per_connection(3));

    let mut conn = ClientConnection::connect(addr, CLIENT_TIMEOUT).expect("connect");
    for i in 0..2 {
        let resp = conn.send("GET", "/v1/healthz", None).expect("send");
        assert!(!resp.closes_connection(), "request {i} is under the cap");
    }
    // The capped request is still answered — with an announced close.
    let resp = conn.send("GET", "/v1/healthz", None).expect("capped send");
    assert_eq!(resp.status, 200);
    assert!(resp.closes_connection(), "the cap announces the close");
    assert!(
        conn.send("GET", "/v1/healthz", None).is_err(),
        "the socket is closed after the cap"
    );

    let resp = http::request(addr, "POST", "/v1/shutdown", None).expect("shutdown");
    assert_eq!(resp.status, 200);
    join.join().expect("server drains");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn drain_during_keep_alive_finishes_in_flight_and_exits_quickly() {
    let root = test_root("drainka");
    let _ = std::fs::remove_dir_all(&root);
    let (addr, join, state) = start_server(&root);

    // A keep-alive client parks idle on the connection...
    let mut parked = ClientConnection::connect(addr, CLIENT_TIMEOUT).expect("connect");
    let resp = parked.send("GET", "/v1/healthz", None).expect("send");
    assert!(!resp.closes_connection());

    // ...while another client begins the drain. The parked (idle) client
    // must not pin the drain barrier anywhere near the 5 s idle timeout.
    let begun = Instant::now();
    let resp = http::request(addr, "POST", "/v1/shutdown", None).expect("shutdown");
    assert_eq!(resp.status, 200);
    join.join().expect("server drains");
    assert!(
        begun.elapsed() < Duration::from_secs(3),
        "idle keep-alive connection delayed the drain by {:?}",
        begun.elapsed()
    );
    assert!(state.shutting_down());

    // The parked connection was closed at a request boundary.
    assert!(parked.send("GET", "/v1/healthz", None).is_err());
    let _ = std::fs::remove_dir_all(&root);
}

/// Sum every series of one counter family in a Prometheus exposition.
fn family_sum(exposition: &str, family: &str) -> u64 {
    exposition
        .lines()
        .filter(|line| {
            line.starts_with(&format!("{family}{{")) || line.starts_with(&format!("{family} "))
        })
        .map(|line| {
            line.rsplit(' ')
                .next()
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or_else(|| panic!("unparseable sample line `{line}`")) as u64
        })
        .sum()
}

#[test]
fn observability_progress_trace_metrics_and_debug_events() {
    let root = test_root("obs");
    let _ = std::fs::remove_dir_all(&root);
    let (addr, join, _state) = start_server(&root);

    // An 8-scenario run gives the poll loop below enough samples to watch
    // progress climb rather than jump 0 -> total in one step.
    let body = br#"{
        "models": ["GPT-4"],
        "apps": ["layout", "entropy"],
        "directions": ["cuda-to-omp", "omp-to-cuda"],
        "max_self_corrections": [10, 40],
        "timing_runs": [1],
        "run_id": "obs"
    }"#;
    let resp = http::request(addr, "POST", "/v1/sweeps", Some(body)).expect("submit");
    assert_eq!(resp.status, 202, "{}", resp.text());

    // Satellite: `progress.completed` is monotone non-decreasing under
    // polling, never exceeds `total`, and lands exactly on it when done.
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut samples: Vec<u64> = Vec::new();
    loop {
        let (status, view) = get_json(addr, "/v1/runs/obs");
        assert_eq!(status, 200);
        let progress = view.get("progress").expect("progress");
        let completed = progress
            .get("completed")
            .and_then(|v| v.as_u64())
            .expect("completed");
        let total = progress.get("total").and_then(|v| v.as_u64()).unwrap();
        assert_eq!(total, 8);
        assert!(completed <= total, "completed {completed} > total {total}");
        if let Some(&last) = samples.last() {
            assert!(
                completed >= last,
                "progress went backwards: {completed} after {samples:?}"
            );
        }
        samples.push(completed);
        if RunState::from_slug(&state_of(&view)).unwrap().is_terminal() {
            assert_eq!(state_of(&view), "done", "{view:?}");
            break;
        }
        assert!(Instant::now() < deadline, "run never finished");
        thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(*samples.last().unwrap(), 8, "done means all jobs counted");

    // The trace endpoint serves the rendered trace view byte-identically,
    // and the parsed timeline carries one job span per scenario with the
    // queue-wait/execute split plus the runstate lifecycle events.
    let resp = http::request(addr, "GET", "/v1/runs/obs/trace", None).expect("trace");
    assert_eq!(resp.status, 200);
    let artifact = ArtifactStore::new(&root).load_run("obs").unwrap();
    let rendered = artifact.trace_view().unwrap();
    assert_eq!(resp.body, rendered.as_bytes(), "trace == rendered view");
    let events = lassi_harness::parse_trace(&resp.text()).expect("trace parses");
    let job_spans: Vec<_> = events
        .iter()
        .filter(|ev| ev.kind == lassi_obs::TraceKind::Span && ev.name == "job")
        .collect();
    assert_eq!(job_spans.len(), 8, "one job span per scenario");
    for span in &job_spans {
        assert!(span.field("queue_wait_us").is_some(), "queue-wait split");
        assert!(span.field("execute_us").is_some(), "execute split");
        assert!(span.field("application").is_some(), "scenario labels");
    }
    let states: Vec<&str> = events
        .iter()
        .filter(|ev| ev.name == "runstate")
        .filter_map(|ev| match ev.field("state") {
            Some(lassi_obs::FieldValue::Str(s)) => Some(s.as_str()),
            _ => None,
        })
        .collect();
    assert_eq!(states, ["queued", "running"], "lifecycle events in order");
    assert!(
        events.iter().any(|ev| ev.name == "run_complete"),
        "completion event recorded before the artifact write"
    );
    // Traces 404 with the envelope for runs that never produced one.
    let resp = http::request(addr, "GET", "/v1/runs/absent/trace", None).unwrap();
    assert_eq!(resp.status, 404);
    assert_eq!(error_code(&resp), "run_not_found");

    // The diagnostics document is served byte-identically to the rendered
    // view, parses as `diag.v1`, and its finding count agrees with the
    // `diag` events in the run's trace — two views of the same structured
    // findings. The obs grid deterministically self-corrects the entropy
    // omp-to-cuda scenarios, so the document is never empty.
    let resp = http::request(addr, "GET", "/v1/runs/obs/diagnostics", None).expect("diagnostics");
    assert_eq!(resp.status, 200);
    let rendered = artifact.diagnostics_view().unwrap();
    assert_eq!(
        resp.body,
        rendered.as_bytes(),
        "diagnostics == rendered view"
    );
    let doc = lassi_harness::json::parse(&resp.text()).expect("diagnostics parse");
    assert_eq!(doc.get("v").and_then(|v| v.as_str()), Some("diag.v1"));
    let doc_scenarios = doc.get("scenarios").and_then(|v| v.as_array()).unwrap();
    assert!(
        !doc_scenarios.is_empty(),
        "a grid with self-corrections must report findings"
    );
    let mut doc_findings = 0usize;
    for scenario in doc_scenarios {
        for key in ["application", "model", "direction", "cell"] {
            assert!(
                scenario.get(key).and_then(|v| v.as_str()).is_some(),
                "scenario entries carry `{key}`"
            );
        }
        let attempts = scenario
            .get("attempts")
            .and_then(|v| v.as_array())
            .expect("attempts array");
        assert!(!attempts.is_empty(), "listed scenarios carry history");
        for attempt in attempts {
            let diags = attempt
                .get("diagnostics")
                .and_then(|v| v.as_array())
                .expect("diagnostics array");
            for diag in diags {
                let code = diag.get("code").and_then(|v| v.as_str()).expect("code");
                assert!(code.contains('/'), "stable `area/slug` code, got `{code}`");
            }
            doc_findings += diags.len();
        }
    }
    assert!(doc_findings > 0, "listed scenarios carry findings");
    let diag_events = events.iter().filter(|ev| ev.name == "diag").count();
    assert_eq!(diag_events, doc_findings, "trace mirrors the document");
    // Absent runs get the structured envelope here too.
    let resp = http::request(addr, "GET", "/v1/runs/absent/diagnostics", None).unwrap();
    assert_eq!(resp.status, 404);
    assert_eq!(error_code(&resp), "run_not_found");

    // /v1/metrics agrees with /v1/cache/stats — one registry, two views.
    let (_, stats) = get_json(addr, "/v1/cache/stats");
    let hits = stats.get("hits").and_then(|v| v.as_u64()).unwrap();
    let misses = stats.get("misses").and_then(|v| v.as_u64()).unwrap();
    assert_eq!(hits + misses, 8, "every scenario consulted the cache");
    // The flat shape: scenario-cache counters plus the report memo, nothing
    // else.
    let Json::Object(fields) = &stats else {
        panic!("cache stats is an object: {stats:?}")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "attached",
            "hits",
            "misses",
            "stores",
            "hit_rate",
            "report_cache"
        ]
    );
    let reports = stats.get("report_cache").expect("report memo counters");
    for key in ["hits", "misses", "entries", "approx_bytes"] {
        assert!(
            reports.get(key).and_then(|v| v.as_u64()).is_some(),
            "report_cache carries `{key}`"
        );
    }

    let resp = http::request(addr, "GET", "/v1/metrics", None).expect("metrics");
    assert_eq!(resp.status, 200);
    assert!(resp
        .headers
        .iter()
        .any(|(n, v)| n == "content-type" && v.starts_with("text/plain")));
    let exposition = resp.text();
    assert!(
        exposition.contains("# TYPE lassi_http_requests_total counter"),
        "typed request counter family"
    );
    assert!(
        exposition.contains("route=\"/v1/runs/{id}\""),
        "poll requests label the route PATTERN, not each run id"
    );
    assert!(
        exposition.contains("# TYPE lassi_http_request_seconds histogram"),
        "latency histogram family"
    );
    assert_eq!(
        family_sum(&exposition, "lassi_cache_hits_total"),
        hits,
        "metrics mirror cache hits"
    );
    assert_eq!(
        family_sum(&exposition, "lassi_cache_misses_total"),
        misses,
        "metrics mirror cache misses"
    );
    assert!(
        !exposition.contains("lassi_cache_hits_total{"),
        "one unlabelled series per cache counter"
    );
    // >= rather than ==: the scheduler counter lives in the process-global
    // registry, and the other tests in this binary run jobs concurrently.
    assert!(
        family_sum(&exposition, "lassi_jobs_completed_total") >= 8,
        "scheduler counted every job"
    );
    // The diagnostics counter covers at least this run's findings (>=: the
    // registry is process-global and sibling tests also sweep), and the
    // self-correction rounds histogram renders even for all-clean runs.
    assert!(
        exposition.contains("# TYPE lassi_diagnostics_total counter"),
        "typed diagnostics counter family"
    );
    assert!(
        family_sum(&exposition, "lassi_diagnostics_total") >= doc_findings as u64,
        "every artifact finding is counted"
    );
    assert!(
        exposition.contains("# TYPE lassi_self_correction_rounds histogram"),
        "rounds histogram family"
    );

    // The debug ring holds the runstate transitions with run ids.
    let (status, debug) = get_json(addr, "/v1/debug/events");
    assert_eq!(status, 200);
    assert_eq!(
        debug.get("capacity").and_then(|v| v.as_u64()),
        Some(lassi_server::DEBUG_EVENT_CAPACITY as u64)
    );
    let ring = debug.get("events").and_then(|v| v.as_array()).unwrap();
    let obs_states: Vec<String> = ring
        .iter()
        .filter(|ev| ev.get("name").and_then(|n| n.as_str()) == Some("runstate"))
        .filter(|ev| {
            ev.get("fields")
                .and_then(|f| f.get("run_id"))
                .and_then(|v| v.as_str())
                == Some("obs")
        })
        .map(|ev| {
            ev.get("fields")
                .and_then(|f| f.get("state"))
                .and_then(|v| v.as_str())
                .unwrap()
                .to_string()
        })
        .collect();
    assert_eq!(
        obs_states,
        ["queued", "running", "done"],
        "the ring sees the terminal transition the file trace cannot"
    );

    let resp = http::request(addr, "POST", "/v1/shutdown", None).expect("shutdown");
    assert_eq!(resp.status, 200);
    join.join().expect("server drains");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn concurrent_clients_share_one_cache() {
    let root = test_root("concurrent");
    let _ = std::fs::remove_dir_all(&root);
    let (addr, join, state) = start_server(&root);

    // Four clients submit overlapping one-app grids concurrently, then
    // each polls its own run to completion.
    let apps = ["layout", "entropy", "layout", "entropy"];
    let mut clients = Vec::new();
    for (i, app) in apps.iter().enumerate() {
        let body = format!(
            r#"{{"models": ["GPT-4"], "apps": ["{app}"],
                "directions": ["cuda-to-omp"], "timing_runs": [1],
                "run_id": "client-{i}"}}"#
        );
        clients.push(thread::spawn(move || {
            let resp =
                http::request(addr, "POST", "/v1/sweeps", Some(body.as_bytes())).expect("submit");
            assert_eq!(resp.status, 202, "{}", resp.text());
            poll_to_terminal(addr, &format!("client-{i}"), Duration::from_secs(120))
        }));
    }
    for client in clients {
        let (observed, view) = client.join().expect("client thread");
        assert_lifecycle_order(&observed);
        assert_eq!(state_of(&view), "done", "{view:?}");
    }

    // 4 runs of 1 scenario each over 2 distinct scenarios: the counters
    // must account for every lookup, and every distinct scenario missed at
    // least once.
    let snapshot = state.harness().cache_snapshot();
    assert_eq!(snapshot.hits + snapshot.misses, 4);
    assert!(snapshot.misses >= 2 && snapshot.misses <= 4);
    assert_eq!(snapshot.stores, snapshot.misses);

    let resp = http::request(addr, "POST", "/v1/shutdown", None).expect("shutdown");
    assert_eq!(resp.status, 200);
    join.join().expect("server thread exits cleanly");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn an_overlong_run_id_is_a_bad_request() {
    let root = test_root("longid");
    let _ = std::fs::remove_dir_all(&root);
    let (addr, join, _state) = start_server(&root);

    // Past the slug cap, the id is refused before any directory is made
    // (a file-system "name too long" error would be a 500).
    let body = format!(
        r#"{{"models": ["GPT-4"], "apps": ["layout"], "directions": ["cuda-to-omp"],
            "run_id": "{}"}}"#,
        "a".repeat(300)
    );
    let resp = http::request(addr, "POST", "/v1/sweeps", Some(body.as_bytes())).unwrap();
    assert_eq!(resp.status, 400, "{}", resp.text());
    assert_eq!(error_code(&resp), "invalid_sweep");

    let resp = http::request(addr, "POST", "/v1/shutdown", None).expect("shutdown");
    assert_eq!(resp.status, 200);
    join.join().expect("server drains");
    let _ = std::fs::remove_dir_all(&root);
}
