//! Request routing, handlers, and cost-aware admission classification.
//!
//! Every request is classified *before* any queue is involved, using
//! what the suite's three-tier lookup (memo → trace store → full sim)
//! already knows about its cost:
//!
//! - **inline** — the answer is already memoized (or is trivially cheap:
//!   `/healthz`, `/metrics`, `/admin/shutdown`, parse errors). Rendered
//!   on the reactor thread in microseconds; no queue, no worker.
//! - **replay** — the (benchmark, CPU) trace exists, so the bundle is a
//!   cheap trace replay. Routed to the replay worker pool.
//! - **cold** — no trace anywhere: a full multi-second simulation.
//!   Routed to the cold lane's own bounded pool, so a cold grid can
//!   saturate *its* queue (`503` + `Retry-After`) without warm or replay
//!   traffic ever queuing behind it.
//!
//! `/v1/run` misses additionally dedup at the HTTP layer: concurrent
//! requests for the same key attach to one in-flight job (see
//! `reactor.rs`) and all receive the same rendered response.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};

use softwatt::experiments::{DiskSetup, RunKey, UnknownWorkload, WorkloadKey};
use softwatt::{Benchmark, CpuModel, ExperimentSuite};

use crate::http::{Request, Response};
use crate::json::{self, Value};

/// Seconds suggested to clients bounced by backpressure.
pub const RETRY_AFTER_S: u32 = 1;

/// The admission lane a request is classified into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Answered on the reactor thread (memo hit or trivial route).
    Inline,
    /// Trace replay on the replay worker pool.
    Replay,
    /// Full simulation on the cold worker pool.
    Cold,
}

impl Lane {
    /// The label used in metrics and the `X-Softwatt-Lane` header.
    pub fn label(self) -> &'static str {
        match self {
            Lane::Inline => "inline",
            Lane::Replay => "replay",
            Lane::Cold => "cold",
        }
    }

    /// Counter: requests served on this lane.
    pub fn served(self) -> &'static str {
        match self {
            Lane::Inline => "serve.lane.inline.served",
            Lane::Replay => "serve.lane.replay.served",
            Lane::Cold => "serve.lane.cold.served",
        }
    }

    /// Histogram: admission-to-response latency (µs) on this lane.
    pub fn latency(self) -> &'static str {
        match self {
            Lane::Inline => "serve.lane.inline.latency_us",
            Lane::Replay => "serve.lane.replay.latency_us",
            Lane::Cold => "serve.lane.cold.latency_us",
        }
    }
}

/// The route a request resolved to, used for metrics labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `GET /healthz`
    Healthz,
    /// `GET /metrics`
    Metrics,
    /// `POST /v1/run`
    Run,
    /// `POST /v1/batch`
    Batch,
    /// `GET /v1/figures/{name}`
    Figure,
    /// `GET /v1/traces/{hash}` — raw `swtrace` bytes for the fabric's
    /// peer-to-peer trace transfer.
    Traces,
    /// `POST /admin/shutdown`
    Shutdown,
    /// Anything else.
    Unknown,
}

impl Route {
    /// Classifies a request target (method checks come later: a wrong
    /// method on a known path is `405`, not `404`).
    pub fn of(target: &str) -> Route {
        let path = target.split('?').next().unwrap_or(target);
        match path {
            "/healthz" => Route::Healthz,
            "/metrics" => Route::Metrics,
            "/v1/run" => Route::Run,
            "/v1/batch" => Route::Batch,
            "/admin/shutdown" => Route::Shutdown,
            _ if path.starts_with("/v1/figures/") => Route::Figure,
            _ if path.starts_with("/v1/traces/") => Route::Traces,
            _ => Route::Unknown,
        }
    }

    /// Static counter name for requests on this route.
    pub fn counter(self) -> &'static str {
        match self {
            Route::Healthz => "serve.requests.healthz",
            Route::Metrics => "serve.requests.metrics",
            Route::Run => "serve.requests.run",
            Route::Batch => "serve.requests.batch",
            Route::Figure => "serve.requests.figure",
            Route::Traces => "serve.requests.traces",
            Route::Shutdown => "serve.requests.shutdown",
            Route::Unknown => "serve.requests.unknown",
        }
    }

    /// Static histogram name for this route's latency (µs, log-2 binned).
    pub fn latency(self) -> &'static str {
        match self {
            Route::Healthz => "serve.latency_us.healthz",
            Route::Metrics => "serve.latency_us.metrics",
            Route::Run => "serve.latency_us.run",
            Route::Batch => "serve.latency_us.batch",
            Route::Figure => "serve.latency_us.figure",
            Route::Traces => "serve.latency_us.traces",
            Route::Shutdown => "serve.latency_us.shutdown",
            Route::Unknown => "serve.latency_us.unknown",
        }
    }

    /// The only method this route answers (`None` for unknown paths).
    fn method(self) -> Option<&'static str> {
        match self {
            Route::Healthz | Route::Metrics | Route::Figure | Route::Traces => Some("GET"),
            Route::Run | Route::Batch | Route::Shutdown => Some("POST"),
            Route::Unknown => None,
        }
    }
}

/// Everything a handler needs.
pub struct Ctx {
    /// The shared memoizing experiment suite.
    pub suite: Arc<ExperimentSuite>,
    /// Set by `/admin/shutdown` (and signals); the reactor polls it.
    pub shutdown: Arc<AtomicBool>,
    /// Rendered `/v1/run` bodies by key. Bundles are immutable once
    /// memoized, so the rendered JSON never invalidates — and a warm hit
    /// on the reactor thread becomes a lock + memcpy instead of
    /// re-formatting dozens of floats per request.
    rendered: Mutex<HashMap<RunKey, Arc<String>>>,
    /// Rendered figure/table bodies by name. Figures read only memoized
    /// bundles, so a render never invalidates; after the first (possibly
    /// cold) render every later request is answered inline on the
    /// reactor. Arc-wrapped so admission can hand the cache to the
    /// worker closure that fills it.
    figures: Arc<Mutex<HashMap<String, Arc<String>>>>,
}

impl Ctx {
    /// Wraps the shared suite and shutdown flag.
    pub fn new(suite: Arc<ExperimentSuite>, shutdown: Arc<AtomicBool>) -> Ctx {
        Ctx {
            suite,
            shutdown,
            rendered: Mutex::new(HashMap::new()),
            figures: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// The cached rendered body for figure `name`, if any.
    fn figure_body(&self, name: &str) -> Option<Arc<String>> {
        let cache = self.figures.lock().expect("figure cache lock");
        cache.get(name).map(Arc::clone)
    }

    /// The cached rendered body for `key`, rendering (and caching) it
    /// from `bundle` on first touch.
    fn run_body(&self, key: RunKey, bundle: &softwatt::experiments::RunBundle) -> Arc<String> {
        let mut cache = self.rendered.lock().expect("render cache lock");
        if let Some(body) = cache.get(&key) {
            return Arc::clone(body);
        }
        let body = Arc::new(softwatt::json::run_bundle(key, bundle));
        cache.insert(key, Arc::clone(&body));
        body
    }
}

/// What admission decided for one request.
pub enum Outcome {
    /// Answered now, on the reactor thread.
    Ready(Response),
    /// A `/v1/run` memo miss: compute `key` on `lane`, deduplicating
    /// concurrent requests for the same key into one job.
    Shared {
        /// The lane the job runs on.
        lane: Lane,
        /// The run key; doubles as the dedup identity.
        key: RunKey,
    },
    /// Keyless compute (batch, figures): run `work` on `lane`.
    Work {
        /// The lane the job runs on.
        lane: Lane,
        /// Produces the response on a worker thread.
        work: Box<dyn FnOnce() -> Response + Send + 'static>,
    },
}

/// Renders one `/v1/run` answer; workers call this for deduped jobs,
/// admission calls it inline for memo hits. Both go through the render
/// cache, so a worker's first render pre-pays every later inline hit.
pub fn run_response(ctx: &Ctx, key: RunKey, lane: Lane) -> Response {
    let bundle = ctx.suite.run_key(key);
    let resp = Response::json(200, ctx.run_body(key, &bundle).as_str()).with_lane(lane.label());
    match ctx.suite.trace_source(key.workload, key.cpu) {
        Some(source) => resp.with_source(source),
        None => resp,
    }
}

/// Whether every (workload, CPU) pair in `keys` already has a trace —
/// i.e. the whole set derives by replay without one full simulation.
fn all_traces_ready(suite: &ExperimentSuite, keys: &[RunKey]) -> bool {
    let pairs: HashSet<(WorkloadKey, CpuModel)> =
        keys.iter().map(|k| (k.workload, k.cpu)).collect();
    pairs.iter().all(|&(w, c)| suite.trace_ready(w, c))
}

/// Dispatches one parsed request: answers it inline or classifies it
/// onto a compute lane.
pub fn dispatch(ctx: &Ctx, route: Route, req: &Request) -> Outcome {
    if let Some(method) = route.method() {
        if req.method != method {
            return Outcome::Ready(Response::error(
                405,
                "method_not_allowed",
                &format!("{} only answers {method}", req.target),
            ));
        }
    }
    match route {
        Route::Healthz => Outcome::Ready(Response::json(200, "{\"status\": \"ok\"}")),
        Route::Metrics => Outcome::Ready(Response::json(200, softwatt_obs::to_json())),
        Route::Shutdown => {
            ctx.shutdown
                .store(true, std::sync::atomic::Ordering::SeqCst);
            Outcome::Ready(Response::json(200, "{\"status\": \"shutting down\"}"))
        }
        Route::Run => match parse_run_query(&ctx.suite, &req.body) {
            Ok(key) => {
                // Warm hit: the bundle is memoized, render it right here
                // on the reactor thread — no queue, no worker, no lock
                // beyond the memo peek and the render-cache lookup.
                if let Some(bundle) = ctx.suite.bundle_if_ready(key) {
                    let resp = Response::json(200, ctx.run_body(key, &bundle).as_str())
                        .with_lane(Lane::Inline.label());
                    let resp = match ctx.suite.trace_source(key.workload, key.cpu) {
                        Some(source) => resp.with_source(source),
                        None => resp,
                    };
                    return Outcome::Ready(resp);
                }
                let lane = if ctx.suite.trace_ready(key.workload, key.cpu) {
                    Lane::Replay
                } else {
                    Lane::Cold
                };
                Outcome::Shared { lane, key }
            }
            Err(resp) => Outcome::Ready(*resp),
        },
        Route::Batch => match parse_batch(&ctx.suite, &req.body) {
            Ok((keys, jobs)) => {
                let lane = if all_traces_ready(&ctx.suite, &keys) {
                    Lane::Replay
                } else {
                    Lane::Cold
                };
                let suite = Arc::clone(&ctx.suite);
                Outcome::Work {
                    lane,
                    work: Box::new(move || {
                        suite.prewarm(&keys, jobs);
                        Response::json(200, render_batch(&suite, &keys)).with_lane(lane.label())
                    }),
                }
            }
            Err(resp) => Outcome::Ready(*resp),
        },
        Route::Figure => {
            let path = req.target.split('?').next().unwrap_or(&req.target);
            let name = path["/v1/figures/".len()..].to_string();
            if !softwatt::json::FIGURES.contains(&name.as_str()) {
                return Outcome::Ready(Response::error(
                    404,
                    "unknown_figure",
                    &format!("no figure '{name}'; see /v1/figures index in README"),
                ));
            }
            if let Some(body) = ctx.figure_body(&name) {
                return Outcome::Ready(
                    Response::json(200, body.as_str()).with_lane(Lane::Inline.label()),
                );
            }
            // First render of this figure: replay-cheap exactly when the
            // whole grid's traces are, cold otherwise. The render is
            // cached by name, so one worker render pre-pays every later
            // inline hit — a node that never touches the full grid (a
            // cluster member owning only part of the ring) must not
            // cold-admit the same figure forever.
            let lane = if all_traces_ready(&ctx.suite, &ctx.suite.paper_grid()) {
                Lane::Replay
            } else {
                Lane::Cold
            };
            let suite = Arc::clone(&ctx.suite);
            let cache = Arc::clone(&ctx.figures);
            Outcome::Work {
                lane,
                work: Box::new(move || match softwatt::json::figure(&suite, &name) {
                    Some(body) => {
                        let body = Arc::new(body);
                        cache
                            .lock()
                            .expect("figure cache lock")
                            .insert(name, Arc::clone(&body));
                        Response::json(200, body.as_str()).with_lane(lane.label())
                    }
                    None => Response::error(500, "internal", "figure rendering failed"),
                }),
            }
        }
        Route::Traces => trace_transfer(ctx, req),
        Route::Unknown => Outcome::Ready(Response::error(404, "not_found", "unknown path")),
    }
}

/// `GET /v1/traces/{hash:016x}?workload={label}&cpu={name}` — the fabric's
/// peer-to-peer trace transfer. Returns the raw `swtrace` bytes
/// (trailing checksum included; the fetching peer re-verifies before
/// trusting them). The URL hash must match the key this server derives
/// for the named (workload, CPU) pair — a mismatch means config drift
/// between peers, answered `404` so the fetcher simulates locally rather
/// than caching a wrong trace. Serving resolves through local tiers only
/// (memo → store → capture), never a peer fetch of its own, bounding
/// misdirected keys to one hop.
fn trace_transfer(ctx: &Ctx, req: &Request) -> Outcome {
    let (path, query) = match req.target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (req.target.as_str(), ""),
    };
    let hex = &path["/v1/traces/".len()..];
    let hash = match (hex.len(), u64::from_str_radix(hex, 16)) {
        (16, Ok(hash)) => hash,
        _ => {
            return Outcome::Ready(Response::error(
                400,
                "bad_trace_key",
                "trace key must be 16 hex digits",
            ));
        }
    };
    let mut workload_label = None;
    let mut cpu_name = None;
    for pair in query.split('&') {
        match pair.split_once('=') {
            Some(("workload", v)) => workload_label = Some(v),
            Some(("cpu", v)) => cpu_name = Some(v),
            _ => {}
        }
    }
    let (Some(label), Some(cpu_name)) = (workload_label, cpu_name) else {
        return Outcome::Ready(Response::error(
            400,
            "bad_query",
            "'workload' and 'cpu' query parameters are required",
        ));
    };
    let workload = match ctx.suite.resolve(label) {
        Ok(workload) => workload,
        Err(why) => {
            let message = match why {
                UnknownWorkload::Label => format!("no workload '{label}'"),
                UnknownWorkload::Unregistered => {
                    format!("spec '{label}' is not registered on this node")
                }
            };
            return Outcome::Ready(Response::error(404, "unknown_workload", &message));
        }
    };
    let Some(cpu) = CpuModel::from_name(cpu_name) else {
        return Outcome::Ready(Response::error(
            404,
            "unknown_cpu",
            &format!("no CPU model '{cpu_name}'"),
        ));
    };
    let key = ctx.suite.trace_key(workload, cpu);
    if key.hash() != hash {
        return Outcome::Ready(Response::error(
            404,
            "trace_key_mismatch",
            "this node derives a different trace key for that pair (config drift?)",
        ));
    }
    // A present trace is a cheap encode (replay lane); a miss captures
    // by full simulation and belongs on the cold lane with the other
    // multi-second work.
    let lane = if ctx.suite.trace_ready(workload, cpu) {
        Lane::Replay
    } else {
        Lane::Cold
    };
    let suite = Arc::clone(&ctx.suite);
    Outcome::Work {
        lane,
        work: Box::new(move || {
            let bytes = suite.trace_share_bytes(workload, cpu);
            let resp = Response::binary(200, bytes).with_lane(lane.label());
            match suite.trace_source(workload, cpu) {
                Some(source) => resp.with_source(source),
                None => resp,
            }
        }),
    }
}

fn bad_request(code: &str, message: &str) -> Box<Response> {
    Box::new(Response::error(400, code, message))
}

/// Resolves the workload half of a query object. Exactly one of:
///
/// - `"benchmark": "<name>"` — one of the six canned paper benchmarks
///   (the pre-spec API, bytes unchanged);
/// - `"spec": {softwatt-spec-v1 object}` — an inline user spec, decoded
///   strictly, validated, and registered with the suite (so the returned
///   key is always simulatable without panicking);
/// - `"workload": "spec:<hash>"` — a spec registered by an earlier
///   request in this process, or a canned benchmark name.
fn workload_from_value(
    suite: &ExperimentSuite,
    value: &Value,
) -> Result<WorkloadKey, Box<Response>> {
    let present = ["benchmark", "spec", "workload"]
        .iter()
        .filter(|f| value.get(f).is_some())
        .count();
    if present > 1 {
        return Err(bad_request(
            "bad_query",
            "give exactly one of 'benchmark', 'spec', or 'workload'",
        ));
    }
    if let Some(v) = value.get("benchmark") {
        let name = v
            .as_str()
            .ok_or_else(|| bad_request("bad_query", "'benchmark' must be a string"))?;
        let benchmark = Benchmark::from_name(name)
            .ok_or_else(|| bad_request("unknown_benchmark", &format!("no benchmark '{name}'")))?;
        return Ok(WorkloadKey::Canned(benchmark));
    }
    if let Some(v) = value.get("spec") {
        let spec = json::spec_from_value(v).map_err(|e| bad_request("invalid_spec", &e))?;
        return suite
            .register_spec(spec)
            .map_err(|e| bad_request("invalid_spec", &e));
    }
    if let Some(v) = value.get("workload") {
        let label = v
            .as_str()
            .ok_or_else(|| bad_request("bad_query", "'workload' must be a string"))?;
        return suite.resolve(label).map_err(|why| {
            let message = match why {
                UnknownWorkload::Label => format!("no workload '{label}'"),
                UnknownWorkload::Unregistered => {
                    format!("spec '{label}' is not registered; post it inline via 'spec' first")
                }
            };
            bad_request("unknown_workload", &message)
        });
    }
    Err(bad_request(
        "missing_field",
        "one of 'benchmark', 'spec', or 'workload' is required",
    ))
}

/// Parses one `{"benchmark" | "spec" | "workload", "cpu"?, "disk"?}` query
/// object into a [`RunKey`].
fn key_from_value(suite: &ExperimentSuite, value: &Value) -> Result<RunKey, Box<Response>> {
    if !matches!(value, Value::Obj(_)) {
        return Err(bad_request("bad_query", "each query must be a JSON object"));
    }
    let workload = workload_from_value(suite, value)?;
    let cpu = match value.get("cpu") {
        None => CpuModel::Mxs,
        Some(v) => match v.as_str() {
            Some(name) => CpuModel::from_name(name)
                .ok_or_else(|| bad_request("unknown_cpu", &format!("no CPU model '{name}'")))?,
            None => return Err(bad_request("bad_query", "'cpu' must be a string")),
        },
    };
    let disk = match value.get("disk") {
        None => DiskSetup::Conventional,
        Some(v) => match v.as_str() {
            Some(name) => DiskSetup::from_name(name)
                .ok_or_else(|| bad_request("unknown_disk", &format!("no disk setup '{name}'")))?,
            None => return Err(bad_request("bad_query", "'disk' must be a string")),
        },
    };
    Ok(RunKey {
        workload,
        cpu,
        disk,
    })
}

fn parse_body(body: &[u8]) -> Result<Value, Box<Response>> {
    json::parse(body).map_err(|e| bad_request("bad_json", &e))
}

/// Parses a `/v1/run` body into its run key. Unknown top-level fields
/// are ignored.
fn parse_run_query(suite: &ExperimentSuite, body: &[u8]) -> Result<RunKey, Box<Response>> {
    key_from_value(suite, &parse_body(body)?)
}

/// Parses a batch body: `{"queries": [query...], "jobs"?: N}`. Returns the
/// queries in order (duplicates included — the suite memoizes) plus the
/// parallelism to prewarm with.
fn parse_batch(
    suite: &ExperimentSuite,
    body: &[u8],
) -> Result<(Vec<RunKey>, usize), Box<Response>> {
    let doc = parse_body(body)?;
    let queries = match doc.get("queries") {
        Some(v) => v
            .as_arr()
            .ok_or_else(|| bad_request("bad_query", "'queries' must be an array"))?,
        None => return Err(bad_request("missing_field", "'queries' is required")),
    };
    if queries.is_empty() {
        return Err(bad_request("bad_query", "'queries' must not be empty"));
    }
    let keys = queries
        .iter()
        .map(|q| key_from_value(suite, q))
        .collect::<Result<Vec<_>, _>>()?;
    let jobs = match doc.get("jobs") {
        None => 1,
        Some(v) => match v.as_f64() {
            Some(n) if (1.0..=64.0).contains(&n) && n.fract() == 0.0 => n as usize,
            _ => {
                return Err(bad_request(
                    "bad_query",
                    "'jobs' must be an integer between 1 and 64",
                ));
            }
        },
    };
    Ok((keys, jobs))
}

/// Renders the batch response after the prewarm: one bundle per query (in
/// request order) plus the suite's dedup accounting.
fn render_batch(suite: &ExperimentSuite, keys: &[RunKey]) -> String {
    let unique: HashSet<RunKey> = keys.iter().copied().collect();
    let mut out = String::with_capacity(keys.len() * 512);
    out.push_str("{\"schema\": \"softwatt-batch-v1\", \"results\": [");
    for (i, &key) in keys.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let bundle = suite.run_key(key);
        out.push_str(&softwatt::json::run_bundle(key, &bundle));
    }
    out.push_str(&format!(
        "], \"unique_keys\": {}, \"runs_executed\": {}, \"replays_derived\": {}, \
         \"store_loads\": {}}}",
        unique.len(),
        suite.runs_executed(),
        suite.replays_derived(),
        suite.store_loads()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use softwatt::SystemConfig;

    #[test]
    fn route_classification() {
        assert_eq!(Route::of("/healthz"), Route::Healthz);
        assert_eq!(Route::of("/metrics"), Route::Metrics);
        assert_eq!(Route::of("/v1/run"), Route::Run);
        assert_eq!(Route::of("/v1/batch"), Route::Batch);
        assert_eq!(Route::of("/v1/figures/fig6"), Route::Figure);
        assert_eq!(Route::of("/v1/figures/fig6?x=1"), Route::Figure);
        assert_eq!(Route::of("/admin/shutdown"), Route::Shutdown);
        assert_eq!(Route::of("/nope"), Route::Unknown);
        assert_eq!(Route::of("/v1/run?scale=2"), Route::Run);
        assert_eq!(
            Route::of("/v1/traces/0011223344556677?workload=jess&cpu=mxs"),
            Route::Traces
        );
    }

    #[test]
    fn trace_transfer_validates_before_any_work() {
        let suite = parse_suite();
        let suite = Arc::new(suite);
        let ctx = Ctx::new(Arc::clone(&suite), Arc::new(AtomicBool::new(false)));
        let get = |target: &str| Request {
            method: "GET".into(),
            target: target.into(),
            http11: true,
            headers: Vec::new(),
            body: Vec::new(),
        };
        let ready = |target: &str| match dispatch(&ctx, Route::Traces, &get(target)) {
            Outcome::Ready(resp) => resp,
            _ => panic!("{target} must be answered inline"),
        };

        // Bad hash, missing params, unknown names, unregistered specs.
        assert_eq!(ready("/v1/traces/xyz?workload=jess&cpu=mxs").status, 400);
        assert_eq!(ready("/v1/traces/0011223344556677").status, 400);
        let r = ready("/v1/traces/0011223344556677?workload=doom&cpu=mxs");
        assert_eq!(r.status, 404);
        assert!(r.body.contains("unknown_workload"));
        let r = ready("/v1/traces/0011223344556677?workload=jess&cpu=arm");
        assert_eq!(r.status, 404);
        let r = ready("/v1/traces/0011223344556677?workload=spec:00000000000000ff&cpu=mxs");
        assert_eq!(r.status, 404);

        // A hash that does not match this node's derivation: refused, so
        // config drift can never serve a wrong trace.
        let r = ready("/v1/traces/0011223344556677?workload=jess&cpu=mxs");
        assert_eq!(r.status, 404);
        assert!(r.body.contains("trace_key_mismatch"), "{}", r.body);

        // The genuine key classifies as work (cold here: no trace yet).
        let key = suite.trace_key(WorkloadKey::Canned(Benchmark::Jess), CpuModel::Mxs);
        let target = format!("/v1/traces/{:016x}?workload=jess&cpu=mxs", key.hash());
        assert!(matches!(
            dispatch(&ctx, Route::Traces, &get(&target)),
            Outcome::Work {
                lane: Lane::Cold,
                ..
            }
        ));

        // Wrong method on a known path is 405, not 404.
        let mut post = get(&target);
        post.method = "POST".into();
        match dispatch(&ctx, Route::Traces, &post) {
            Outcome::Ready(resp) => assert_eq!(resp.status, 405),
            _ => panic!("wrong method must be refused inline"),
        }
    }

    fn parse_suite() -> ExperimentSuite {
        // Parsing never simulates, so the scale does not matter; a large
        // one keeps any accidental simulation cheap enough to notice.
        ExperimentSuite::new(SystemConfig {
            time_scale: 500_000.0,
            ..SystemConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn run_key_parsing_defaults_and_errors() {
        let suite = parse_suite();
        let key = parse_run_query(&suite, br#"{"benchmark": "jess"}"#).unwrap();
        assert_eq!(key.workload, WorkloadKey::Canned(Benchmark::Jess));
        assert_eq!(key.cpu, CpuModel::Mxs);
        assert_eq!(key.disk, DiskSetup::Conventional);

        let key = parse_run_query(
            &suite,
            br#"{"benchmark": "db", "cpu": "mipsy", "disk": "sleep"}"#,
        )
        .unwrap();
        assert_eq!(key.workload, WorkloadKey::Canned(Benchmark::Db));
        assert_eq!(key.cpu, CpuModel::Mipsy);
        assert_eq!(key.disk, DiskSetup::SleepExt);

        for (body, code) in [
            (&br#"not json"#[..], "bad_json"),
            (br#"{}"#, "missing_field"),
            (br#"{"benchmark": "quake"}"#, "unknown_benchmark"),
            (br#"{"benchmark": "jess", "cpu": "arm"}"#, "unknown_cpu"),
            (br#"{"benchmark": "jess", "disk": "ssd"}"#, "unknown_disk"),
            (br#"{"benchmark": 7}"#, "bad_query"),
            (br#"{"benchmark": "jess", "workload": "jess"}"#, "bad_query"),
            (br#"{"workload": "spec:zz"}"#, "unknown_workload"),
            (
                br#"{"workload": "spec:00000000000000ff"}"#,
                "unknown_workload",
            ),
            (br#"{"spec": {"name": "x"}}"#, "invalid_spec"),
            (br#"{"spec": "jess"}"#, "invalid_spec"),
        ] {
            let resp = parse_run_query(&suite, body).unwrap_err();
            assert_eq!(resp.status, 400);
            assert!(resp.body.contains(code), "{} for {:?}", resp.body, body);
        }
    }

    #[test]
    fn inline_specs_register_and_resolve_by_hash() {
        let suite = parse_suite();
        let spec = Benchmark::Jess.spec();
        let mut body = String::from(r#"{"disk": "idle", "spec": "#);
        body.push_str(&softwatt::json::benchmark_spec(&spec));
        body.push('}');
        let key = parse_run_query(&suite, body.as_bytes()).unwrap();
        let expect = WorkloadKey::Spec(spec.content_hash());
        assert_eq!(key.workload, expect, "inline spec keys by content hash");
        assert_eq!(key.disk, DiskSetup::IdleOnly);
        assert_eq!(
            suite.spec_for(key.workload).as_deref(),
            Some(&spec),
            "the decoded spec round-tripped into the registry"
        );

        // Once registered, the hash label addresses it...
        let by_label = format!(r#"{{"workload": "{}"}}"#, key.workload.label());
        let key2 = parse_run_query(&suite, by_label.as_bytes()).unwrap();
        assert_eq!(key2.workload, expect);

        // ...and an invalid spec is rejected with the validator's message.
        let mut invalid = spec.clone();
        invalid.phases[0].frac = -0.5;
        let mut body = String::from(r#"{"spec": "#);
        body.push_str(&softwatt::json::benchmark_spec(&invalid));
        body.push('}');
        let resp = parse_run_query(&suite, body.as_bytes()).unwrap_err();
        assert_eq!(resp.status, 400);
        assert!(resp.body.contains("invalid_spec"), "{}", resp.body);
    }

    #[test]
    fn batch_parsing() {
        let suite = parse_suite();
        let (keys, jobs) = parse_batch(
            &suite,
            br#"{"queries": [{"benchmark": "jess"}, {"benchmark": "jess"}], "jobs": 2}"#,
        )
        .unwrap();
        assert_eq!(keys.len(), 2, "duplicates preserved for the response");
        assert_eq!(jobs, 2);

        for body in [
            &br#"{"queries": []}"#[..],
            br#"{"jobs": 2}"#,
            br#"{"queries": [{}]}"#,
            br#"{"queries": [{"benchmark": "jess"}], "jobs": 0}"#,
            br#"{"queries": [{"benchmark": "jess"}], "jobs": 1.5}"#,
            br#"{"queries": "jess"}"#,
        ] {
            assert!(parse_batch(&suite, body).is_err(), "{:?} should fail", body);
        }
    }

    #[test]
    fn admission_classifies_by_suite_knowledge() {
        let suite = Arc::new(
            ExperimentSuite::new(SystemConfig {
                time_scale: 500_000.0,
                ..SystemConfig::default()
            })
            .unwrap(),
        );
        let ctx = Ctx::new(Arc::clone(&suite), Arc::new(AtomicBool::new(false)));
        let req = |body: &str| Request {
            method: "POST".into(),
            target: "/v1/run".into(),
            http11: true,
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        };

        // Nothing computed yet: a run is a cold full simulation.
        let outcome = dispatch(&ctx, Route::Run, &req(r#"{"benchmark": "jess"}"#));
        assert!(matches!(
            outcome,
            Outcome::Shared {
                lane: Lane::Cold,
                ..
            }
        ));

        // Simulate it: the exact key is now a warm inline hit...
        let key = RunKey::canned(Benchmark::Jess, CpuModel::Mxs, DiskSetup::Conventional);
        suite.run_key(key);
        match dispatch(&ctx, Route::Run, &req(r#"{"benchmark": "jess"}"#)) {
            Outcome::Ready(resp) => {
                assert_eq!(resp.status, 200);
                assert_eq!(resp.lane, Some("inline"));
            }
            _ => panic!("memoized key must be served inline"),
        }

        // ...and a sibling disk policy of the same (benchmark, CPU) pair
        // is a replay (the trace exists, the bundle does not).
        let outcome = dispatch(
            &ctx,
            Route::Run,
            &req(r#"{"benchmark": "jess", "disk": "idle"}"#),
        );
        assert!(matches!(
            outcome,
            Outcome::Shared {
                lane: Lane::Replay,
                ..
            }
        ));
    }

    #[test]
    fn legacy_fidelity_field_is_ignored() {
        let req = |body: String| Request {
            method: "POST".into(),
            target: "/v1/run".into(),
            http11: true,
            headers: Vec::new(),
            body: body.into_bytes(),
        };
        // Classifies both queries before either is computed, then answers
        // both: (status, lane, body) per query.
        let answer_pair = |ctx: &Ctx, fields: &str, fidelity: &str| {
            let outcomes = [
                format!("{{{fields}}}"),
                format!("{{{fields}, \"fidelity\": {fidelity}}}"),
            ]
            .map(|body| dispatch(ctx, Route::Run, &req(body)));
            outcomes.map(|outcome| {
                let resp = match outcome {
                    Outcome::Ready(resp) => resp,
                    Outcome::Shared { lane, key } => run_response(ctx, key, lane),
                    Outcome::Work { .. } => panic!("a /v1/run query is never keyless work"),
                };
                (resp.status, resp.lane, resp.body)
            })
        };
        for fidelity in [r#""surrogate""#, r#""replay""#, r#""full""#, "3"] {
            let ctx = Ctx::new(Arc::new(parse_suite()), Arc::new(AtomicBool::new(false)));
            // Cold, then a replay of the captured trace, then a memo hit.
            for (fields, lane) in [
                (r#""benchmark": "jess""#, "cold"),
                (r#""benchmark": "jess", "disk": "idle""#, "replay"),
                (r#""benchmark": "jess""#, "inline"),
            ] {
                let [plain, legacy] = answer_pair(&ctx, fields, fidelity);
                assert_eq!(plain.0, 200, "{fields}");
                assert_eq!(plain.1, Some(lane), "{fields}");
                assert_eq!(legacy, plain, "fidelity {fidelity} on {fields}");
            }
        }
    }
}
