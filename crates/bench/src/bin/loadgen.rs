//! Load generator for the softwatt-serve service.
//!
//! Hammers a server with a deterministic mixed workload — single runs
//! rotating over every benchmark/disk pair, figure renders, health and
//! metrics probes — from N concurrent keep-alive connections, and writes
//! throughput, latency percentiles (overall and per admission lane), and
//! status counts as JSON.
//!
//! The driver is epoll-multiplexed: one thread owns every connection
//! (closed loop, one outstanding request each), so hundreds of
//! connections cost hundreds of sockets, not hundreds of OS threads.
//! That is what makes 200+ connections honest on a small box — with
//! thread-per-connection the scheduler noise of the clients themselves
//! dominates the tail latencies being measured.
//!
//! Usage: `loadgen [--addr HOST:PORT | --cluster HOST:PORT,...]
//! [--scale S] [--connections N] [--requests N] [--warmup N]
//! [--workers N|auto] [--cold-grid] [--inline-spec]
//! [--trace-cache DIR] [--out FILE]`
//! (defaults: no addr — spawn an in-process server over real TCP —
//! scale 50000 for fast simulations, 8 connections x 40 requests,
//! 0 warm-up requests, workers = available parallelism, out
//! `BENCH_server.json`, or `BENCH_cluster.json` with `--cluster`).
//!
//! `--cluster` aims the same closed loop at several external servers at
//! once: connections round-robin over the listed nodes, and the report
//! gains a `cluster` section with each node's full-sim / capture /
//! peer-fetch counters scraped from its `/metrics` — the numbers that
//! prove a peered fabric ran the cold paper grid with exactly 13 full
//! simulations cluster-wide (see `DESIGN.md` §14).
//!
//! `503` backpressure is retried in place: the connection holds its
//! request index and re-sends after a capped exponential backoff that
//! honors the server's `Retry-After` hint, with deterministic jitter so
//! reruns stay reproducible. Retries are attributed to the lane of the
//! response that finally landed (`lanes.*.retries` in the report);
//! `status.503` counts only requests still bounced after the retry
//! budget.
//!
//! `--warmup N` sends N unrecorded requests per connection (the same
//! deterministic mix, same indices) before the measured phase; their
//! latencies are reported separately so cold-start and steady-state tails
//! can be told apart. A barrier between the phases keeps warm-up traffic
//! out of the measured wall-clock.
//!
//! `--cold-grid` stresses the tiered admission: while the measured mix
//! runs, one extra connection submits the full paper grid as a cold
//! `POST /v1/batch`, and three more ask for the same cold key at once —
//! the duplicate-run probe behind the `serve.dedup_attached` metric. The
//! point the report makes is that warm (inline-lane) percentiles stay
//! flat while all of that churns on the cold lane.
//!
//! `--inline-spec` swaps one run slot in ten for a `POST /v1/run` whose
//! body carries a full user-defined workload spec (softwatt-spec-v1)
//! instead of a canned benchmark name. The first such request costs a
//! full simulation; every later one (including from other connections)
//! must resolve through the spec's content hash to the memo or replay
//! tiers, so the lane attribution shows the spec path riding the same
//! admission machinery as the canned keys.
//!
//! `--trace-cache DIR` hands the in-process server a persistent trace
//! store and warm-starts it from disk, exactly like `softwatt-serve
//! --trace-cache`; with `--addr` the flag is ignored (the external server
//! owns its cache). Lane attribution reads each response's
//! `X-Softwatt-Lane` header; the queue high-water marks and dedup count
//! come from one `GET /metrics` probe after the measured phase.

use std::fmt::Write as _;
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use softwatt::experiments::DiskSetup;
use softwatt::{Benchmark, CpuModel, ExperimentSuite, SystemConfig};
use softwatt_bench::parse_count_or_auto;
use softwatt_serve::client::Client;
use softwatt_serve::http;
use softwatt_serve::sys::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use softwatt_serve::{ServeConfig, Server};

/// Generous request timeout: the first run on a cold key simulates for
/// real, and a cold-grid batch is many of those back to back.
const TIMEOUT: Duration = Duration::from_secs(300);

/// Retry budget per request: enough to ride out a multi-second cold
/// grid at the capped backoff without ever spinning unbounded.
const MAX_RETRIES: u32 = 300;

/// Ceiling on how long one backoff sleep can get, however large a
/// `Retry-After` the server hints.
const BACKOFF_CAP_MS: u64 = 2_000;

/// splitmix64 finalizer: the jitter mixer (same construction the fabric
/// ring uses to spread FNV-1a values).
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Backoff before retry number `attempt` (0-based): exponential from
/// 2 ms, capped at the server's `Retry-After` hint (itself capped at
/// [`BACKOFF_CAP_MS`]), landing deterministically in the upper half of
/// the window — jitter comes from mixing `seed` with the attempt, so a
/// rerun sleeps the identical schedule but concurrent clients spread
/// out instead of thundering back together.
fn backoff_delay(attempt: u32, retry_after_s: Option<u64>, seed: u64) -> Duration {
    let hint_ms = retry_after_s.map_or(1_000, |s| s.saturating_mul(1_000));
    let cap = hint_ms.clamp(1, BACKOFF_CAP_MS);
    let base = (2u64 << attempt.min(16)).min(cap);
    let jitter = mix64(seed ^ u64::from(attempt)) % (base / 2 + 1);
    Duration::from_millis(base / 2 + jitter)
}

/// The cold key three `--cold-grid` connections request simultaneously:
/// the grid's own mipsy cell. The probes race the concurrent batch for
/// it, so the total full-simulation count stays exactly 13 (the
/// invariant CI's cluster gate reads from `cluster_totals.runs_executed`).
const DEDUP_BODY: &str = r#"{"benchmark": "jess", "cpu": "mipsy"}"#;
/// How many connections send [`DEDUP_BODY`] at once.
const DEDUP_CONNS: usize = 3;

/// Whether the request mix swaps one run slot in ten for an inline-spec
/// post (`--inline-spec`). Global because the mix function is pure
/// per-index; set once before the mux starts.
static INLINE_SPEC: AtomicBool = AtomicBool::new(false);

/// The spec body those slots post: canned jess content under a custom
/// name, so the server sees a user-defined workload it has never heard
/// of and must admit through the spec codec and validation gate.
fn inline_spec_json() -> &'static str {
    static SPEC: OnceLock<String> = OnceLock::new();
    SPEC.get_or_init(|| {
        let mut spec = Benchmark::Jess.spec();
        spec.name = "loadgen-inline".to_string();
        softwatt::json::benchmark_spec(&spec)
    })
}

/// One worker's tally. Warm-up latencies are kept apart from the measured
/// ones; warm-up statuses are not counted at all. Measured latencies are
/// additionally attributed to the admission lane the server reported.
#[derive(Default)]
struct Tally {
    latencies_us: Vec<u64>,
    warmup_latencies_us: Vec<u64>,
    inline_us: Vec<u64>,
    replay_us: Vec<u64>,
    cold_us: Vec<u64>,
    ok_2xx: u64,
    client_4xx: u64,
    backpressure_503: u64,
    server_5xx: u64,
    transport_errors: u64,
    /// `503` bounces absorbed by in-place retries, attributed to the
    /// lane of the response that finally landed: inline, replay, cold
    /// (same order as the latency vectors above).
    lane_retries: [u64; 3],
    /// Retried `503`s whose final response carried no lane (still
    /// bounced after the budget, or answered by a lane-less route).
    retries_unattributed: u64,
    /// Responses by `X-Softwatt-Source`: where the trace behind the
    /// answer came from (local store, a fabric peer, or a fresh sim).
    source_local: u64,
    source_peer: u64,
    source_sim: u64,
}

/// What the `--cold-grid` side traffic observed.
struct ColdGridStats {
    batch_status: u16,
    batch_wall_s: f64,
    /// `503` bounces absorbed before the batch was admitted.
    batch_retries: u32,
    /// (status, lane, retries) per duplicate-key run, in completion
    /// order.
    dedup: Vec<(u16, String, u32)>,
}

fn main() {
    let mut addr: Option<String> = None;
    let mut cluster: Vec<String> = Vec::new();
    let mut scale = 50_000.0f64;
    let mut connections = 8usize;
    let mut requests = 40usize;
    let mut warmup = 0usize;
    let mut workers = softwatt_bench::auto_parallelism();
    let mut cold_grid = false;
    let mut inline_spec = false;
    let mut trace_cache: Option<String> = None;
    let mut out: Option<String> = None;
    fn usage_exit(msg: &str) -> ! {
        eprintln!("{msg}");
        eprintln!(
            "usage: loadgen [--addr HOST:PORT | --cluster HOST:PORT,...] [--scale S] \
             [--connections N] [--requests N] [--warmup N] [--workers N|auto] [--cold-grid] \
             [--inline-spec] [--trace-cache DIR] [--out FILE]"
        );
        std::process::exit(2);
    }
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| usage_exit(&format!("{flag} needs a value")))
        };
        let mut count = |flag: &str, what: &str| {
            parse_count_or_auto(flag, Some(value(flag)), what).unwrap_or_else(|e| usage_exit(&e))
        };
        match arg.as_str() {
            "--addr" => addr = Some(value("--addr")),
            "--cluster" => {
                cluster = value("--cluster")
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(String::from)
                    .collect();
            }
            "--scale" => match value("--scale").parse() {
                Ok(v) if v > 0.0 => scale = v,
                _ => usage_exit("--scale needs a positive number"),
            },
            "--connections" => connections = count("--connections", "connection count"),
            "--requests" => requests = count("--requests", "request count"),
            "--warmup" => match value("--warmup").parse() {
                // 0 is fine: it just means "no warm-up phase".
                Ok(v) => warmup = v,
                Err(_) => usage_exit("--warmup needs a request count"),
            },
            "--workers" => workers = count("--workers", "thread count"),
            "--cold-grid" => cold_grid = true,
            "--inline-spec" => inline_spec = true,
            "--trace-cache" => trace_cache = Some(value("--trace-cache")),
            "--out" => out = Some(value("--out")),
            other => usage_exit(&format!("unknown flag {other}")),
        }
    }
    if addr.is_some() && !cluster.is_empty() {
        usage_exit("--addr and --cluster are mutually exclusive");
    }
    let cluster_mode = !cluster.is_empty();
    let out = out.unwrap_or_else(|| {
        String::from(if cluster_mode {
            "BENCH_cluster.json"
        } else {
            "BENCH_server.json"
        })
    });

    // Target(s): external server(s), or an in-process one over real TCP.
    let mut caching = false;
    let (targets, local_server) = match (addr, cluster_mode) {
        (addr, true) | (addr @ Some(_), false) => {
            if trace_cache.is_some() {
                eprintln!("loadgen: --trace-cache ignored with --addr (the server owns its cache)");
            }
            let listed = if let Some(addr) = addr {
                vec![addr]
            } else {
                cluster
            };
            let targets: Vec<SocketAddr> = listed
                .iter()
                .map(|a| {
                    a.parse()
                        .unwrap_or_else(|_| usage_exit("--addr/--cluster need HOST:PORT"))
                })
                .collect();
            (targets, None)
        }
        (None, false) => {
            // The in-process server's lane/queue metrics feed the report.
            softwatt_obs::set_enabled(true);
            let system = SystemConfig {
                time_scale: scale,
                ..SystemConfig::default()
            };
            let mut suite = ExperimentSuite::new(system).unwrap_or_else(|e| usage_exit(&e));
            match softwatt_bench::open_trace_store(trace_cache.take()) {
                Ok(Some(store)) => {
                    caching = true;
                    let dir = store.dir().display().to_string();
                    suite = suite.with_trace_store(store);
                    let loaded = suite.prewarm_from_store(&suite.paper_grid());
                    eprintln!("loadgen: warm start, {loaded} trace(s) loaded from {dir}");
                }
                Ok(None) => {}
                Err(e) => usage_exit(&e),
            }
            let suite = Arc::new(suite);
            let config = ServeConfig {
                workers,
                max_connections: (connections + DEDUP_CONNS + 16).max(1024),
                ..ServeConfig::default()
            };
            let server = Server::bind("127.0.0.1:0", Arc::clone(&suite), config)
                .unwrap_or_else(|e| usage_exit(&e));
            let target = server.local_addr().unwrap_or_else(|e| usage_exit(&e));
            let handle = server.shutdown_handle();
            let thread = std::thread::spawn(move || server.run());
            (vec![target], Some((suite, handle, thread)))
        }
    };
    let shown: Vec<String> = targets.iter().map(|t| t.to_string()).collect();
    eprintln!(
        "loadgen: {connections} connection(s) x {requests} request(s) \
         (+{warmup} warm-up{}) against {} (scale {scale}x)",
        if cold_grid {
            ", cold grid in flight"
        } else {
            ""
        },
        shown.join(", "),
    );

    INLINE_SPEC.store(inline_spec, Ordering::Relaxed);
    let (mut total, wall_s, cold_stats) =
        run_mux(&targets, connections, requests, warmup, cold_grid);

    // One metrics probe per node before shutdown: queue high-water
    // marks and dedup for the report's `server` section (first node),
    // fabric counters for the `cluster` section (every node).
    let metrics_bodies: Vec<Option<String>> = targets
        .iter()
        .map(|t| {
            Client::connect(*t, TIMEOUT)
                .ok()
                .and_then(|mut c| c.request("GET", "/metrics", "").ok())
                .map(|resp| resp.body)
        })
        .collect();
    let metrics_body = metrics_bodies[0].clone();

    // (runs_executed, replays_derived, store_loads)
    let mut server_stats: Option<(u64, u64, u64)> = None;
    if let Some((suite, handle, thread)) = local_server {
        handle.trigger();
        thread.join().expect("server thread panicked");
        server_stats = Some((
            suite.runs_executed() as u64,
            suite.replays_derived() as u64,
            suite.store_loads() as u64,
        ));
    }

    total.latencies_us.sort_unstable();
    total.warmup_latencies_us.sort_unstable();
    total.inline_us.sort_unstable();
    total.replay_us.sort_unstable();
    total.cold_us.sort_unstable();
    let sent = (connections * requests) as u64;
    let answered = total.latencies_us.len() as u64;
    let warmed = total.warmup_latencies_us.len() as u64;

    let retries_total: u64 = total.lane_retries.iter().sum::<u64>() + total.retries_unattributed;
    let mut json = String::with_capacity(4096);
    let _ = write!(
        json,
        "{{\n  \"schema\": \"softwatt-bench-server-v6\",\n  \"time_scale\": {scale},\n  \
         \"connections\": {connections},\n  \"requests_per_connection\": {requests},\n  \
         \"warmup_per_connection\": {warmup},\n  \"trace_cache\": {caching},\n  \
         \"cold_grid\": {cold_grid},\n  \
         \"inline_spec\": {inline_spec},\n  \"cluster\": {cluster_mode},\n  \
         \"requests_sent\": {sent},\n  \"responses\": {answered},\n  \
         \"wall_s\": {wall_s:.6},\n  \"throughput_rps\": {:.2},\n  \
         \"latency_us\": {},\n  \
         \"lanes\": {{\"inline\": {}, \"replay\": {}, \"cold\": {}}},\n  \
         \"retries_503\": {{\"total\": {retries_total}, \"unattributed\": {}}},\n  \
         \"source\": {{\"local\": {}, \"peer\": {}, \"sim\": {}}},\n  \
         \"warmup\": {{\"responses\": {warmed}, \"latency_us\": {}}},\n  \
         \"status\": {{\"2xx\": {}, \"4xx\": {}, \"503\": {}, \"5xx\": {}, \
         \"transport_errors\": {}}}",
        answered as f64 / wall_s.max(1e-9),
        latency_json(&total.latencies_us),
        lane_json(&total.inline_us, total.lane_retries[0]),
        lane_json(&total.replay_us, total.lane_retries[1]),
        lane_json(&total.cold_us, total.lane_retries[2]),
        total.retries_unattributed,
        total.source_local,
        total.source_peer,
        total.source_sim,
        latency_json(&total.warmup_latencies_us),
        total.ok_2xx,
        total.client_4xx,
        total.backpressure_503,
        total.server_5xx,
        total.transport_errors,
    );
    if let Some(stats) = &cold_stats {
        let dedup: Vec<String> = stats
            .dedup
            .iter()
            .map(|(status, lane, retries)| {
                format!("{{\"status\": {status}, \"lane\": \"{lane}\", \"retries\": {retries}}}")
            })
            .collect();
        let _ = write!(
            json,
            ",\n  \"cold_grid_traffic\": {{\"batch_status\": {}, \"batch_wall_s\": {:.6}, \
             \"batch_retries\": {}, \"dedup_runs\": [{}]}}",
            stats.batch_status,
            stats.batch_wall_s,
            stats.batch_retries,
            dedup.join(", "),
        );
    }
    if cluster_mode {
        // Counters a node never touched are simply absent from its
        // `/metrics`, so absent reads as zero when summing.
        let scrape = |body: &Option<String>, name: &str| -> u64 {
            body.as_deref()
                .and_then(|b| metric_value(b, name))
                .unwrap_or(0)
        };
        let mut nodes = Vec::new();
        let mut runs_total = 0u64;
        let mut peer_hits_total = 0u64;
        for (target, body) in targets.iter().zip(&metrics_bodies) {
            let full_sims = scrape(body, "suite.full_sims");
            let captures = scrape(body, "suite.captures");
            // `runs_executed` mirrors the suite atomic: every full
            // simulation, whether it answered a run or captured a trace.
            let runs = full_sims + captures;
            let peer_hits = scrape(body, "trace_store.peer_hits");
            runs_total += runs;
            peer_hits_total += peer_hits;
            nodes.push(format!(
                "{{\"addr\": \"{target}\", \"reachable\": {}, \"runs_executed\": {runs}, \
                 \"full_sims\": {full_sims}, \"captures\": {captures}, \"replays\": {}, \
                 \"peer_hits\": {peer_hits}, \"peer_misses\": {}, \"peer_errors\": {}, \
                 \"store_hits\": {}}}",
                body.is_some(),
                scrape(body, "suite.replays"),
                scrape(body, "trace_store.peer_misses"),
                scrape(body, "trace_store.peer_errors"),
                scrape(body, "trace_store.hits"),
            ));
        }
        let _ = write!(
            json,
            ",\n  \"cluster_nodes\": [{}],\n  \
             \"cluster_totals\": {{\"runs_executed\": {runs_total}, \
             \"peer_hits\": {peer_hits_total}}}",
            nodes.join(", "),
        );
    }
    // `/metrics` omits counters that never incremented, so a missing key
    // in a successful scrape means zero; `null` is reserved for the probe
    // itself failing (server already gone, connect refused, ...).
    let metric = |name: &str| -> String {
        metrics_body.as_deref().map_or_else(
            || "null".into(),
            |body| metric_value(body, name).unwrap_or(0).to_string(),
        )
    };
    let _ = write!(
        json,
        ",\n  \"server\": {{\"dedup_attached\": {}, \"queue_depth_max\": \
         {{\"replay\": {}, \"cold\": {}}}, \"connections_open_max\": {}, \
         \"runs_executed\": {}, \"replays_derived\": {}, \"store_loads\": {}}}\n}}\n",
        metric("serve.dedup_attached"),
        metric("serve.lane.replay.queue_depth_max"),
        metric("serve.lane.cold.queue_depth_max"),
        metric("serve.connections.open_max"),
        server_stats.map_or_else(|| "null".into(), |(r, ..)| r.to_string()),
        server_stats.map_or_else(|| "null".into(), |(_, d, _)| d.to_string()),
        server_stats.map_or_else(|| "null".into(), |(.., l)| l.to_string()),
    );
    print!("{json}");
    if let Err(e) = std::fs::File::create(&out).and_then(|mut f| f.write_all(json.as_bytes())) {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    }
    if let Some((runs, replays, loads)) = server_stats {
        eprintln!(
            "loadgen: suite tallies — {runs} full simulation(s), {replays} replay(s), \
             {loads} store load(s)"
        );
    }
    eprintln!("wrote {out}");
}

/// Nearest-rank percentile of an already-sorted latency list.
fn pct(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank]
}

/// `{"p50": …, "p90": …, "p99": …, "max": …}` for a sorted list.
fn latency_json(sorted: &[u64]) -> String {
    format!(
        "{{\"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}}",
        pct(sorted, 0.50),
        pct(sorted, 0.90),
        pct(sorted, 0.99),
        sorted.last().copied().unwrap_or(0),
    )
}

/// One lane's report entry: response count, the `503` bounces absorbed
/// before those responses landed, and the latency percentiles.
fn lane_json(sorted: &[u64], retries: u64) -> String {
    format!(
        "{{\"responses\": {}, \"retries\": {retries}, \"latency_us\": {}}}",
        sorted.len(),
        latency_json(sorted)
    )
}

/// Pulls one `"name": value` number out of the `/metrics` JSON body
/// (integer counters and `1.0`-style gauges both normalize to `u64`).
fn metric_value(body: &str, name: &str) -> Option<u64> {
    let needle = format!("\"{name}\": ");
    let at = body.find(&needle)? + needle.len();
    let raw: String = body[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .collect();
    raw.parse::<f64>().ok().map(|v| v as u64)
}

/// The deterministic request mix for request `i` on connection `conn`:
/// mostly single runs rotating over the benchmark/disk grid, with
/// figure, health, and metrics probes folded in. No randomness — reruns
/// are reproducible and the memo hit pattern is stable.
fn request_for(conn: usize, i: usize) -> (&'static str, String, String) {
    let n = conn * 7919 + i; // offset per connection so mixes interleave
    match n % 10 {
        0 => ("GET", "/healthz".into(), String::new()),
        5 => {
            let figures = ["fig6", "fig9", "table4", "validation"];
            let name = figures[(n / 10) % figures.len()];
            ("GET", format!("/v1/figures/{name}"), String::new())
        }
        9 => ("GET", "/metrics".into(), String::new()),
        slot => {
            let benchmark = Benchmark::ALL[n % Benchmark::ALL.len()];
            let disk = [DiskSetup::Conventional, DiskSetup::IdleOnly][(n / 6) % 2];
            // Slot 7 posts a full inline spec when `--inline-spec` is on:
            // identical content every time, so the first request is the
            // only full simulation and the rest resolve by content hash.
            if slot == 7 && INLINE_SPEC.load(Ordering::Relaxed) {
                let body = format!(
                    "{{\"spec\": {}, \"disk\": \"{}\"}}",
                    inline_spec_json(),
                    disk.name()
                );
                return ("POST", "/v1/run".into(), body);
            }
            let body = format!(
                "{{\"benchmark\": \"{}\", \"disk\": \"{}\"}}",
                benchmark.name(),
                disk.name()
            );
            ("POST", "/v1/run".into(), body)
        }
    }
}

/// Where a multiplexed connection is in the run.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Sending its unrecorded warm-up mix.
    Warmup,
    /// Warm-up finished; idle until every connection gets here (the
    /// epoll-loop equivalent of the old thread barrier).
    Ready,
    /// Sending the measured mix.
    Measured,
    /// All requests answered (or the connection gave up).
    Done,
}

/// One closed-loop connection owned by the mux driver: at most one
/// request outstanding, reconnecting whenever the server closes on it.
/// With `--cluster` each connection is pinned to one node for its whole
/// life (`target`), so keep-alive and lane attribution stay per-node.
struct MuxConn {
    stream: Option<TcpStream>,
    target: SocketAddr,
    id: usize,
    phase: Phase,
    /// Next request index within the current phase.
    index: usize,
    write_buf: Vec<u8>,
    write_pos: usize,
    read_buf: Vec<u8>,
    sent_at: Instant,
    /// A request is in flight (written or being written).
    awaiting: bool,
    /// `503` bounces absorbed so far for the *current* request index.
    retries: u32,
    /// When set, the current index re-sends at this instant (backoff).
    retry_at: Option<Instant>,
    interest: u32,
}

impl MuxConn {
    fn connect(target: SocketAddr, id: usize, phase: Phase, epoll: &Epoll) -> MuxConn {
        let stream = TcpStream::connect(target).ok().and_then(|s| {
            s.set_nodelay(true).ok()?;
            s.set_nonblocking(true).ok()?;
            epoll
                .add(s.as_raw_fd(), EPOLLIN | EPOLLRDHUP, id as u64)
                .ok()?;
            Some(s)
        });
        MuxConn {
            stream,
            target,
            id,
            phase,
            index: 0,
            write_buf: Vec::new(),
            write_pos: 0,
            read_buf: Vec::new(),
            sent_at: Instant::now(),
            awaiting: false,
            retries: 0,
            retry_at: None,
            interest: EPOLLIN | EPOLLRDHUP,
        }
    }

    /// Drops the current stream and dials a fresh one (the server closed
    /// on us, or the old socket broke).
    fn reconnect(&mut self, epoll: &Epoll) -> bool {
        if let Some(old) = self.stream.take() {
            epoll.delete(old.as_raw_fd());
        }
        self.read_buf.clear();
        self.write_buf.clear();
        self.write_pos = 0;
        self.awaiting = false;
        *self = MuxConn {
            id: self.id,
            phase: self.phase,
            index: self.index,
            retries: self.retries,
            retry_at: self.retry_at,
            ..MuxConn::connect(self.target, self.id, self.phase, epoll)
        };
        self.stream.is_some()
    }

    /// Loads the next request of the current phase into the write buffer
    /// and pushes as much of it as the socket takes right now.
    fn issue(&mut self, epoll: &Epoll) {
        let (method, path, body) = request_for(self.id, self.index);
        self.write_buf = http::format_request(method, &path, &body);
        self.write_pos = 0;
        self.sent_at = Instant::now();
        self.awaiting = true;
        self.flush(epoll);
    }

    /// Writes pending request bytes; adjusts `EPOLLOUT` interest to match
    /// whether any remain.
    fn flush(&mut self, epoll: &Epoll) {
        let Some(stream) = self.stream.as_mut() else {
            return;
        };
        while self.write_pos < self.write_buf.len() {
            match stream.write(&self.write_buf[self.write_pos..]) {
                Ok(0) => break,
                Ok(n) => self.write_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break, // the read side will surface the failure
            }
        }
        let want = if self.write_pos < self.write_buf.len() {
            EPOLLIN | EPOLLOUT | EPOLLRDHUP
        } else {
            EPOLLIN | EPOLLRDHUP
        };
        if want != self.interest {
            self.interest = want;
            let _ = epoll.modify(stream.as_raw_fd(), want, self.id as u64);
        }
    }

    /// Reads whatever the socket has. `Ok(true)` means the peer closed.
    fn fill(&mut self, scratch: &mut [u8]) -> io::Result<bool> {
        let Some(stream) = self.stream.as_mut() else {
            return Ok(true);
        };
        loop {
            match stream.read(scratch) {
                Ok(0) => return Ok(true),
                Ok(n) => self.read_buf.extend_from_slice(&scratch[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

/// Drives every connection through warm-up and the measured phase off one
/// epoll loop. Returns the tally, the measured wall-clock seconds, and —
/// with `--cold-grid` — what the cold side traffic saw. Connections
/// round-robin over `targets` (one entry except with `--cluster`); the
/// cold side traffic aims at the first node.
fn run_mux(
    targets: &[SocketAddr],
    connections: usize,
    requests: usize,
    warmup: usize,
    cold_grid: bool,
) -> (Tally, f64, Option<ColdGridStats>) {
    let epoll = Epoll::new().expect("epoll");
    let start_phase = if warmup > 0 {
        Phase::Warmup
    } else {
        Phase::Ready
    };
    let mut conns: Vec<MuxConn> = (0..connections)
        .map(|id| MuxConn::connect(targets[id % targets.len()], id, start_phase, &epoll))
        .collect();
    let mut tally = Tally::default();
    for conn in &mut conns {
        if conn.stream.is_none() {
            // Could not even dial: everything it would have sent is lost.
            tally.transport_errors += requests as u64;
            conn.phase = Phase::Done;
        } else if conn.phase == Phase::Warmup {
            conn.issue(&epoll);
        }
    }

    let mut measured_started: Option<Instant> = None;
    let mut cold_handle = None;
    let mut scratch = vec![0u8; 64 * 1024];
    let mut events = vec![EpollEvent { events: 0, data: 0 }; 256];
    let wall_s = loop {
        // The "barrier": once no connection is still warming up, start the
        // clock, launch the cold side traffic inside the measured window,
        // and release the measured mix everywhere at once.
        if measured_started.is_none() && conns.iter().all(|c| c.phase != Phase::Warmup) {
            measured_started = Some(Instant::now());
            if cold_grid {
                let cold_target = targets[0];
                cold_handle = Some(
                    std::thread::Builder::new()
                        .name("loadgen-cold-grid".into())
                        .spawn(move || run_cold_grid(cold_target))
                        .expect("spawn cold grid"),
                );
            }
            for conn in &mut conns {
                if conn.phase == Phase::Ready {
                    conn.phase = Phase::Measured;
                    conn.index = 0;
                    if conn.stream.is_some() || conn.reconnect(&epoll) {
                        conn.issue(&epoll);
                    } else {
                        tally.transport_errors += requests as u64;
                        conn.phase = Phase::Done;
                    }
                }
            }
        }
        if conns.iter().all(|c| c.phase == Phase::Done) {
            break measured_started.map_or(0.0, |s| s.elapsed().as_secs_f64());
        }

        let n = epoll.wait(&mut events, 100);
        for ev in events.iter().take(n) {
            let ev = *ev;
            let (token, ready) = (ev.data as usize, ev.events);
            let Some(conn) = conns.get_mut(token) else {
                continue;
            };
            if conn.phase == Phase::Done || !conn.awaiting {
                continue;
            }
            if ready & EPOLLOUT != 0 {
                conn.flush(&epoll);
            }
            let mut broken = ready & (EPOLLERR | EPOLLHUP) != 0;
            if ready & (EPOLLIN | EPOLLRDHUP) != 0 {
                match conn.fill(&mut scratch) {
                    Ok(eof) => broken |= eof,
                    Err(_) => broken = true,
                }
            }
            step(conn, &mut tally, broken, warmup, requests, &epoll);
        }

        // Stuck-request guard: a response overdue past the client timeout
        // counts as a transport error and the connection is replaced.
        let now = Instant::now();
        for conn in &mut conns {
            if conn.phase != Phase::Done
                && conn.awaiting
                && now.duration_since(conn.sent_at) > TIMEOUT
            {
                fail_request(conn, &mut tally, warmup, requests, &epoll);
            }
        }

        // Backoff expiry: re-send the held request index of any
        // connection whose retry window elapsed (redialing if the server
        // closed the bounced socket).
        for conn in &mut conns {
            if conn.phase == Phase::Done || conn.retry_at.is_none_or(|at| now < at) {
                continue;
            }
            conn.retry_at = None;
            if conn.stream.is_some() || conn.reconnect(&epoll) {
                conn.issue(&epoll);
            } else {
                fail_request(conn, &mut tally, warmup, requests, &epoll);
            }
        }
    };
    let cold_stats = cold_handle.map(|h| h.join().expect("cold grid panicked"));
    (tally, wall_s, cold_stats)
}

/// Consumes any complete response on `conn` (recording it), then issues
/// the next request or advances the phase; `broken` routes through the
/// transport-error path when no full response arrived first.
fn step(
    conn: &mut MuxConn,
    tally: &mut Tally,
    broken: bool,
    warmup: usize,
    requests: usize,
    epoll: &Epoll,
) {
    let head = match http::parse_response_head(&conn.read_buf, &http::Limits::default()) {
        Ok(Some(head)) if (conn.read_buf.len() - head.head_len) as u64 >= head.content_length => {
            head
        }
        Ok(_) if !broken => return,
        // A broken socket under an incomplete response, or a head that can
        // never parse: the request is lost either way.
        _ => {
            fail_request(conn, tally, warmup, requests, epoll);
            return;
        }
    };
    conn.read_buf
        .drain(..head.head_len + head.content_length as usize);
    conn.awaiting = false;
    let us = conn.sent_at.elapsed().as_micros() as u64;
    match conn.phase {
        Phase::Warmup => tally.warmup_latencies_us.push(us),
        Phase::Measured => {
            // In-place retry: a retryable `503` holds the request index
            // and re-sends after backoff instead of counting as an
            // answer, pacing off the server's `Retry-After` hint.
            if head.status == 503 && conn.retries < MAX_RETRIES {
                let seed = mix64(((conn.id as u64) << 32) ^ conn.index as u64);
                let retry_after = head.header("retry-after").and_then(|v| v.parse().ok());
                let delay = backoff_delay(conn.retries, retry_after, seed);
                conn.retries += 1;
                conn.retry_at = Some(Instant::now() + delay);
                if head.closes() {
                    if let Some(old) = conn.stream.take() {
                        epoll.delete(old.as_raw_fd());
                    }
                    conn.read_buf.clear();
                }
                return;
            }
            tally.latencies_us.push(us);
            let lane_idx = match head.header("x-softwatt-lane") {
                Some("inline") => {
                    tally.inline_us.push(us);
                    Some(0)
                }
                Some("replay") => {
                    tally.replay_us.push(us);
                    Some(1)
                }
                Some("cold") => {
                    tally.cold_us.push(us);
                    Some(2)
                }
                _ => None, // health/metrics probes and errors carry no lane
            };
            if conn.retries > 0 {
                match lane_idx {
                    Some(i) => tally.lane_retries[i] += u64::from(conn.retries),
                    None => tally.retries_unattributed += u64::from(conn.retries),
                }
                conn.retries = 0;
            }
            match head.header("x-softwatt-source") {
                Some("local") => tally.source_local += 1,
                Some("peer") => tally.source_peer += 1,
                Some("sim") => tally.source_sim += 1,
                _ => {}
            }
            match head.status {
                200..=299 => tally.ok_2xx += 1,
                503 => tally.backpressure_503 += 1,
                400..=499 => tally.client_4xx += 1,
                _ => tally.server_5xx += 1,
            }
        }
        Phase::Ready | Phase::Done => {}
    }
    advance(conn, tally, head.closes(), warmup, requests, epoll);
}

/// Moves `conn` to its next request (or next phase) after a response.
/// `closed` means the server sent `Connection: close`, so the socket is
/// spent regardless of what comes next.
fn advance(
    conn: &mut MuxConn,
    tally: &mut Tally,
    closed: bool,
    warmup: usize,
    requests: usize,
    epoll: &Epoll,
) {
    conn.index += 1;
    conn.retries = 0;
    conn.retry_at = None;
    let phase_len = if conn.phase == Phase::Warmup {
        warmup
    } else {
        requests
    };
    if closed {
        // Drop the spent socket now; whoever needs one next redials.
        if let Some(old) = conn.stream.take() {
            epoll.delete(old.as_raw_fd());
        }
        conn.read_buf.clear();
    }
    if conn.index >= phase_len {
        conn.phase = if conn.phase == Phase::Warmup {
            Phase::Ready
        } else {
            Phase::Done
        };
        return;
    }
    if conn.stream.is_some() || conn.reconnect(epoll) {
        conn.issue(epoll);
    } else if conn.phase == Phase::Measured {
        tally.transport_errors += (requests - conn.index) as u64;
        conn.phase = Phase::Done;
    } else {
        // Warm-up casualties are not counted; sit out until the barrier.
        conn.phase = Phase::Ready;
    }
}

/// The transport-error path: the socket broke (or the response timed
/// out) under an in-flight request. Warm-up losses are uncounted, like
/// the thread driver before; measured losses count one error and the
/// connection redials for the next request.
fn fail_request(
    conn: &mut MuxConn,
    tally: &mut Tally,
    warmup: usize,
    requests: usize,
    epoll: &Epoll,
) {
    if conn.phase == Phase::Measured {
        tally.transport_errors += 1;
        // Bounces absorbed before the transport gave out still happened;
        // no lane ever answered, so they land unattributed.
        tally.retries_unattributed += u64::from(conn.retries);
    }
    if let Some(old) = conn.stream.take() {
        epoll.delete(old.as_raw_fd());
    }
    conn.read_buf.clear();
    conn.awaiting = false;
    advance(conn, tally, false, warmup, requests, epoll);
}

/// The paper grid as a `/v1/batch` body, mirroring
/// `ExperimentSuite::paper_grid` (which needs a suite handle this side of
/// the wire does not have).
fn paper_grid_body() -> String {
    let mut queries = Vec::new();
    let mut push = |benchmark: Benchmark, cpu: CpuModel, disk: DiskSetup| {
        queries.push(format!(
            "{{\"benchmark\": \"{}\", \"cpu\": \"{}\", \"disk\": \"{}\"}}",
            benchmark.name(),
            cpu.name(),
            disk.name()
        ));
    };
    for &benchmark in Benchmark::ALL.iter() {
        for disk in DiskSetup::ALL {
            push(benchmark, CpuModel::Mxs, disk);
        }
        push(benchmark, CpuModel::Mxs, DiskSetup::SleepExt);
        push(benchmark, CpuModel::MxsSingleIssue, DiskSetup::Conventional);
    }
    push(Benchmark::Jess, CpuModel::Mipsy, DiskSetup::Conventional);
    format!("{{\"queries\": [{}], \"jobs\": 2}}", queries.join(", "))
}

/// Retries a request through `503` backpressure bounces (the honest
/// client response to `Retry-After`): capped exponential backoff paced
/// by the server's hint, deterministic jitter, bounded attempt count.
/// Returns the final response plus how many bounces were absorbed.
fn request_with_retries(
    client: &mut Client,
    method: &str,
    path: &str,
    body: &str,
    salt: u64,
) -> (u16, String, u32) {
    // Seed the jitter off what is being requested plus the caller's
    // salt, so the three dedup runs (identical path and body) still
    // spread out instead of thundering back in lockstep.
    let seed = mix64(path.len() as u64 ^ ((body.len() as u64) << 20) ^ (salt << 40));
    let mut retries = 0u32;
    loop {
        let resp = client.request(method, path, body).expect("request");
        if resp.status == 503 && retries < MAX_RETRIES {
            let hint = resp.header("retry-after").and_then(|v| v.parse().ok());
            std::thread::sleep(backoff_delay(retries, hint, seed));
            retries += 1;
            continue;
        }
        let lane = resp.header("x-softwatt-lane").unwrap_or("").to_string();
        return (resp.status, lane, retries);
    }
}

/// The `--cold-grid` side traffic: one full-grid cold batch, plus three
/// simultaneous runs of the same cold key that should collapse into one
/// in-flight job (`serve.dedup_attached`). Both retry through the `503`s
/// a saturated cold queue hands out, so the batch is genuinely admitted
/// and in flight even when the mix's own cold traffic got there first.
fn run_cold_grid(target: SocketAddr) -> ColdGridStats {
    let batch = std::thread::Builder::new()
        .name("loadgen-batch".into())
        .spawn(move || {
            let mut client = Client::connect(target, TIMEOUT).expect("batch connect");
            let started = Instant::now();
            let (status, _lane, retries) =
                request_with_retries(&mut client, "POST", "/v1/batch", &paper_grid_body(), 0);
            (status, started.elapsed().as_secs_f64(), retries)
        })
        .expect("spawn batch");
    // Let the batch contend for the cold worker first: the duplicate runs
    // then queue (one) and attach (the rest), maximizing the dedup window.
    std::thread::sleep(Duration::from_millis(100));
    let dedup_handles: Vec<_> = (0..DEDUP_CONNS)
        .map(|i| {
            std::thread::Builder::new()
                .name(format!("loadgen-dedup-{i}"))
                .spawn(move || {
                    let mut client = Client::connect(target, TIMEOUT).expect("dedup connect");
                    request_with_retries(&mut client, "POST", "/v1/run", DEDUP_BODY, i as u64 + 1)
                })
                .expect("spawn dedup run")
        })
        .collect();
    let (batch_status, batch_wall_s, batch_retries) = batch.join().expect("batch panicked");
    let dedup = dedup_handles
        .into_iter()
        .map(|h| h.join().expect("dedup run panicked"))
        .collect();
    ColdGridStats {
        batch_status,
        batch_wall_s,
        batch_retries,
        dedup,
    }
}
