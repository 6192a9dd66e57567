//! `serve` — run `lassi-server`, the HTTP front end for the experiment
//! service, over a long-lived harness + scenario cache + artifact store.
//!
//! ```text
//! serve [--host ADDR] [--port N] [--artifacts DIR] [--workers N]
//!       [--no-cache] [--max-connections N] [--addr-file PATH]
//!       [--idle-timeout-ms N] [--max-requests-per-connection N]
//!       [--sweep-executors N] [--lease-ttl-ms N]
//! ```
//!
//! `--port 0` (the default) binds an ephemeral port; the bound address is
//! printed on stdout and, with `--addr-file`, written atomically to a file
//! so scripts (CI, `loadgen`) can wait for it and read it. The process
//! serves until a client `POST`s `/v1/shutdown`, then drains in-flight
//! connections and sweeps, and exits 0 (scenario-cache entries are already
//! on disk: every store is a synchronous write-then-rename).
//!
//! Connections are HTTP/1.1 keep-alive by default: `--idle-timeout-ms`
//! bounds how long one may sit between requests, and
//! `--max-requests-per-connection` bounds how many requests it may carry
//! before the server closes it.
//!
//! Sweep submission is asynchronous: `POST /v1/sweeps` answers `202` at
//! once and `--sweep-executors` sets how many accepted sweeps may execute
//! concurrently (each one still fans out over `--workers` threads).
//!
//! When remote workers are polling `/v1/work/lease`, queued runs drain
//! through the fleet instead of the local pool; `--lease-ttl-ms` sets how
//! long a granted lease lives without a heartbeat before its jobs are
//! reclaimed (short TTLs make chaos suites reclaim dead workers fast).

use std::sync::Arc;
use std::time::Duration;

use lassi_server::{
    AppState, Server, DEFAULT_IDLE_TIMEOUT, DEFAULT_LEASE_TTL_MS, DEFAULT_MAX_CONNECTIONS,
    DEFAULT_MAX_REQUESTS_PER_CONNECTION, DEFAULT_SWEEP_EXECUTORS,
};

struct ServeArgs {
    common: lassi_bench::CommonArgs,
    host: String,
    port: u16,
    max_connections: usize,
    idle_timeout: Duration,
    max_requests_per_connection: usize,
    sweep_executors: usize,
    lease_ttl_ms: u64,
    addr_file: Option<String>,
}

fn parse_args() -> Result<ServeArgs, String> {
    let common = lassi_bench::parse_common_args(std::env::args().skip(1))?;
    let mut args = ServeArgs {
        common: common.clone(),
        host: "127.0.0.1".into(),
        port: 0,
        max_connections: DEFAULT_MAX_CONNECTIONS,
        idle_timeout: DEFAULT_IDLE_TIMEOUT,
        max_requests_per_connection: DEFAULT_MAX_REQUESTS_PER_CONNECTION,
        sweep_executors: DEFAULT_SWEEP_EXECUTORS,
        lease_ttl_ms: DEFAULT_LEASE_TTL_MS,
        addr_file: None,
    };
    let mut iter = common.rest.into_iter();
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| iter.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--host" => args.host = value("--host")?,
            "--port" => {
                let raw = value("--port")?;
                args.port = raw.parse().map_err(|_| format!("bad port `{raw}`"))?;
            }
            "--max-connections" => {
                let raw = value("--max-connections")?;
                args.max_connections = raw
                    .parse()
                    .map_err(|_| format!("bad connection count `{raw}`"))?;
            }
            "--idle-timeout-ms" => {
                let raw = value("--idle-timeout-ms")?;
                let ms: u64 = raw
                    .parse()
                    .map_err(|_| format!("bad idle timeout `{raw}`"))?;
                args.idle_timeout = Duration::from_millis(ms);
            }
            "--max-requests-per-connection" => {
                let raw = value("--max-requests-per-connection")?;
                args.max_requests_per_connection = raw
                    .parse()
                    .map_err(|_| format!("bad request cap `{raw}`"))?;
            }
            "--sweep-executors" => {
                let raw = value("--sweep-executors")?;
                let count: usize = raw
                    .parse()
                    .map_err(|_| format!("bad executor count `{raw}`"))?;
                if count == 0 {
                    return Err("--sweep-executors must be at least 1".into());
                }
                args.sweep_executors = count;
            }
            "--lease-ttl-ms" => {
                let raw = value("--lease-ttl-ms")?;
                args.lease_ttl_ms = raw
                    .parse::<u64>()
                    .ok()
                    .filter(|ms| *ms >= 1)
                    .ok_or(format!("bad lease TTL `{raw}`"))?;
            }
            "--addr-file" => args.addr_file = Some(value("--addr-file")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if common.replay.is_some() {
        return Err("--replay makes no sense for serve".into());
    }
    Ok(args)
}

fn run(args: &ServeArgs) -> Result<(), String> {
    let harness = lassi_bench::build_harness(&args.common)?;
    let store = lassi_bench::artifact_store(&args.common);
    let state = Arc::new(AppState::new(harness, store));
    let server = Server::bind((args.host.as_str(), args.port), state)
        .map_err(|e| format!("cannot bind {}:{}: {e}", args.host, args.port))?
        .with_max_connections(args.max_connections)
        .with_idle_timeout(args.idle_timeout)
        .with_max_requests_per_connection(args.max_requests_per_connection)
        .with_sweep_executors(args.sweep_executors)
        .with_lease_ttl_ms(args.lease_ttl_ms);
    let addr = server.local_addr();
    println!("lassi-server listening on http://{addr}");
    println!(
        "artifacts: {}; cache: {}; sweep executors: {}",
        args.common.artifacts.display(),
        if args.common.use_cache { "disk" } else { "off" },
        args.sweep_executors,
    );

    if let Some(path) = &args.addr_file {
        // Write-then-rename so a watcher never reads a half-written file.
        let tmp = format!("{path}.tmp");
        std::fs::write(&tmp, addr.to_string())
            .and_then(|()| std::fs::rename(&tmp, path))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }

    let result = server.run().map_err(|e| format!("server error: {e}"));
    if let Some(path) = &args.addr_file {
        let _ = std::fs::remove_file(path);
    }
    result?;
    println!("lassi-server drained; exiting");
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("serve: {message}");
            std::process::exit(2);
        }
    };
    if let Err(message) = run(&args) {
        eprintln!("serve: {message}");
        std::process::exit(1);
    }
}
