//! URL routing: map `(method, path)` onto typed [`Route`]s.
//!
//! Path parameters (run ids, record-set names) are validated here so no
//! handler ever joins attacker-controlled segments into a filesystem path:
//! only `[A-Za-z0-9._-]` slugs that are not all dots are accepted, which
//! rules out `..`, empty segments and separators.

/// A recognised endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Route {
    /// `GET /v1/healthz`
    Healthz,
    /// `GET /v1/cache/stats`
    CacheStats,
    /// `GET /v1/runs`
    ListRuns,
    /// `GET /v1/runs/{id}` — the run resource: lifecycle state + progress.
    GetRun(String),
    /// `DELETE /v1/runs/{id}` — remove one run's artifact directory.
    DeleteRun(String),
    /// `POST /v1/runs/{id}/cancel` — cancel a queued or running run.
    CancelRun(String),
    /// `GET /v1/runs/{id}/manifest` — the manifest, byte-identical to disk.
    GetManifest(String),
    /// `GET /v1/runs/{id}/records/{set}` — one record set, byte-identical.
    GetRecords(String, String),
    /// `GET /v1/runs/{id}/trace` — the run's `trace.jsonl` with the `diag`
    /// events rendered from its records.
    GetTrace(String),
    /// `GET /v1/runs/{id}/diagnostics` — the run's `diag.v1` document,
    /// rendered from its records.
    GetDiagnostics(String),
    /// `GET /v1/metrics` — Prometheus-style text exposition.
    Metrics,
    /// `GET /v1/debug/events` — recent trace events from the in-memory ring.
    DebugEvents,
    /// `POST /v1/sweeps` — submit a sweep grid.
    SubmitSweep,
    /// `POST /v1/work/lease` — a worker pulls a batch of jobs under a lease.
    LeaseWork,
    /// `POST /v1/work/heartbeat` — a worker extends a lease it holds.
    HeartbeatWork,
    /// `POST /v1/work/complete` — a worker returns records for a lease.
    CompleteWork,
    /// `POST /v1/shutdown` — cooperative drain.
    Shutdown,
}

/// Why a request did not map to a [`Route`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// No such path.
    NotFound,
    /// The path exists but not with this method.
    MethodNotAllowed,
    /// A path parameter was not a valid slug.
    BadSlug(String),
}

/// True for path parameters safe to embed in a filename. Delegates to the
/// artifact store's [`lassi_harness::is_slug`] so the router and the store
/// can never drift apart on what a valid run id is.
pub fn is_slug(s: &str) -> bool {
    lassi_harness::is_slug(s)
}

/// Resolve a request to a route.
pub fn route(method: &str, path: &str) -> Result<Route, RouteError> {
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    let get = |r: Route| match method {
        "GET" => Ok(r),
        _ => Err(RouteError::MethodNotAllowed),
    };
    let post = |r: Route| match method {
        "POST" => Ok(r),
        _ => Err(RouteError::MethodNotAllowed),
    };
    let slug = |s: &str| -> Result<String, RouteError> {
        if is_slug(s) {
            Ok(s.to_string())
        } else {
            Err(RouteError::BadSlug(s.to_string()))
        }
    };
    match segments.as_slice() {
        ["v1", "healthz"] => get(Route::Healthz),
        ["v1", "cache", "stats"] => get(Route::CacheStats),
        ["v1", "runs"] => get(Route::ListRuns),
        ["v1", "runs", id] => {
            let id = slug(id)?;
            match method {
                "GET" => Ok(Route::GetRun(id)),
                "DELETE" => Ok(Route::DeleteRun(id)),
                _ => Err(RouteError::MethodNotAllowed),
            }
        }
        ["v1", "runs", id, "cancel"] => post(Route::CancelRun(slug(id)?)),
        ["v1", "runs", id, "manifest"] => get(Route::GetManifest(slug(id)?)),
        ["v1", "runs", id, "trace"] => get(Route::GetTrace(slug(id)?)),
        ["v1", "runs", id, "diagnostics"] => get(Route::GetDiagnostics(slug(id)?)),
        ["v1", "runs", id, "records", set] => {
            let id = slug(id)?;
            let set = slug(set)?;
            get(Route::GetRecords(id, set))
        }
        ["v1", "metrics"] => get(Route::Metrics),
        ["v1", "debug", "events"] => get(Route::DebugEvents),
        ["v1", "sweeps"] => post(Route::SubmitSweep),
        ["v1", "work", "lease"] => post(Route::LeaseWork),
        ["v1", "work", "heartbeat"] => post(Route::HeartbeatWork),
        ["v1", "work", "complete"] => post(Route::CompleteWork),
        ["v1", "shutdown"] => post(Route::Shutdown),
        _ => Err(RouteError::NotFound),
    }
}

/// The static route pattern a request resolved to — the `route` label of
/// the per-request metrics. Parameterised segments stay as placeholders so
/// the label set is bounded regardless of how many runs exist.
pub fn route_pattern(resolved: &Result<Route, RouteError>) -> &'static str {
    match resolved {
        Ok(Route::Healthz) => "/v1/healthz",
        Ok(Route::CacheStats) => "/v1/cache/stats",
        Ok(Route::ListRuns) => "/v1/runs",
        Ok(Route::GetRun(_)) | Ok(Route::DeleteRun(_)) => "/v1/runs/{id}",
        Ok(Route::CancelRun(_)) => "/v1/runs/{id}/cancel",
        Ok(Route::GetManifest(_)) => "/v1/runs/{id}/manifest",
        Ok(Route::GetTrace(_)) => "/v1/runs/{id}/trace",
        Ok(Route::GetDiagnostics(_)) => "/v1/runs/{id}/diagnostics",
        Ok(Route::GetRecords(_, _)) => "/v1/runs/{id}/records/{set}",
        Ok(Route::Metrics) => "/v1/metrics",
        Ok(Route::DebugEvents) => "/v1/debug/events",
        Ok(Route::SubmitSweep) => "/v1/sweeps",
        Ok(Route::LeaseWork) => "/v1/work/lease",
        Ok(Route::HeartbeatWork) => "/v1/work/heartbeat",
        Ok(Route::CompleteWork) => "/v1/work/complete",
        Ok(Route::Shutdown) => "/v1/shutdown",
        Err(_) => "unmatched",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_every_endpoint() {
        assert_eq!(route("GET", "/v1/healthz"), Ok(Route::Healthz));
        assert_eq!(route("GET", "/v1/cache/stats"), Ok(Route::CacheStats));
        assert_eq!(route("GET", "/v1/runs"), Ok(Route::ListRuns));
        assert_eq!(route("GET", "/v1/runs/"), Ok(Route::ListRuns), "trailing /");
        assert_eq!(
            route("GET", "/v1/runs/smoke"),
            Ok(Route::GetRun("smoke".into()))
        );
        assert_eq!(
            route("GET", "/v1/runs/smoke/records/cuda-to-omp-msc40-runs1"),
            Ok(Route::GetRecords(
                "smoke".into(),
                "cuda-to-omp-msc40-runs1".into()
            ))
        );
        assert_eq!(
            route("GET", "/v1/runs/smoke/manifest"),
            Ok(Route::GetManifest("smoke".into()))
        );
        assert_eq!(
            route("POST", "/v1/runs/smoke/cancel"),
            Ok(Route::CancelRun("smoke".into()))
        );
        assert_eq!(route("POST", "/v1/sweeps"), Ok(Route::SubmitSweep));
        assert_eq!(route("POST", "/v1/work/lease"), Ok(Route::LeaseWork));
        assert_eq!(
            route("POST", "/v1/work/heartbeat"),
            Ok(Route::HeartbeatWork)
        );
        assert_eq!(route("POST", "/v1/work/complete"), Ok(Route::CompleteWork));
        assert_eq!(route("POST", "/v1/shutdown"), Ok(Route::Shutdown));
        assert_eq!(route("GET", "/v1/metrics"), Ok(Route::Metrics));
        assert_eq!(route("GET", "/v1/debug/events"), Ok(Route::DebugEvents));
        assert_eq!(
            route("GET", "/v1/runs/smoke/trace"),
            Ok(Route::GetTrace("smoke".into()))
        );
        assert_eq!(
            route("GET", "/v1/runs/smoke/diagnostics"),
            Ok(Route::GetDiagnostics("smoke".into()))
        );
        assert!(matches!(
            route("GET", "/v1/runs/../diagnostics"),
            Err(RouteError::BadSlug(_))
        ));
    }

    #[test]
    fn route_patterns_are_static_and_parameterised() {
        assert_eq!(
            route_pattern(&route("GET", "/v1/runs/any-run-id")),
            "/v1/runs/{id}"
        );
        assert_eq!(
            route_pattern(&route("GET", "/v1/runs/x/records/y")),
            "/v1/runs/{id}/records/{set}"
        );
        assert_eq!(route_pattern(&route("GET", "/v1/metrics")), "/v1/metrics");
        assert_eq!(
            route_pattern(&route("POST", "/v1/work/lease")),
            "/v1/work/lease"
        );
        assert_eq!(route_pattern(&route("GET", "/nope")), "unmatched");
        assert_eq!(
            route_pattern(&route("POST", "/v1/runs/x/trace")),
            "unmatched",
            "method errors fold into one label value"
        );
    }

    #[test]
    fn wrong_method_is_405_not_404() {
        assert_eq!(
            route("POST", "/v1/healthz"),
            Err(RouteError::MethodNotAllowed)
        );
        assert_eq!(
            route("GET", "/v1/sweeps"),
            Err(RouteError::MethodNotAllowed)
        );
        assert_eq!(
            route("GET", "/v1/work/lease"),
            Err(RouteError::MethodNotAllowed)
        );
        assert_eq!(
            route("PUT", "/v1/runs/x"),
            Err(RouteError::MethodNotAllowed)
        );
        assert_eq!(
            route("DELETE", "/v1/runs"),
            Err(RouteError::MethodNotAllowed)
        );
        assert_eq!(
            route("GET", "/v1/runs/x/cancel"),
            Err(RouteError::MethodNotAllowed)
        );
        assert_eq!(
            route("POST", "/v1/runs/x/manifest"),
            Err(RouteError::MethodNotAllowed)
        );
    }

    #[test]
    fn delete_run_routes_with_a_validated_slug() {
        assert_eq!(
            route("DELETE", "/v1/runs/old-run"),
            Ok(Route::DeleteRun("old-run".into()))
        );
        assert!(matches!(
            route("DELETE", "/v1/runs/.."),
            Err(RouteError::BadSlug(_))
        ));
    }

    #[test]
    fn unknown_paths_are_404() {
        for path in [
            "/",
            "/v1",
            "/v2/healthz",
            "/v1/runs/a/b",
            "/v1/runs/a/records",
        ] {
            assert_eq!(route("GET", path), Err(RouteError::NotFound), "{path}");
        }
    }

    #[test]
    fn traversal_and_junk_slugs_are_rejected() {
        assert!(matches!(
            route("GET", "/v1/runs/.."),
            Err(RouteError::BadSlug(_))
        ));
        assert!(matches!(
            route("GET", "/v1/runs/ok/records/%2e%2e"),
            Err(RouteError::BadSlug(_))
        ));
        assert!(is_slug("run_1.2-x"));
        assert!(!is_slug(""));
        assert!(!is_slug("."));
        assert!(!is_slug("a b"));
        assert!(!is_slug("a/b"));
    }
}
