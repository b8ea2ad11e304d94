//! End-to-end tests over real TCP: response fidelity against in-process
//! results, lane classification, HTTP-layer dedup, backpressure,
//! pipelining, slow-loris reaping, graceful shutdown, and the structured
//! error surface.
//!
//! The obs registry is process-global and the test harness runs these in
//! parallel, so cross-suite metric assertions use `>=` on counters only
//! this test increments; exact counts come from each test's own suite
//! handle.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use softwatt::experiments::{DiskSetup, RunKey};
use softwatt::{Benchmark, CpuModel, ExperimentSuite, SystemConfig, WorkloadKey};
use softwatt_serve::client::Client;
use softwatt_serve::pool::Pool;
use softwatt_serve::{ServeConfig, Server, ShutdownHandle};

/// Big time-scale factor = short, fast simulated runs (test fidelity).
const FAST_SCALE: f64 = 500_000.0;

struct TestServer {
    suite: Arc<ExperimentSuite>,
    addr: SocketAddr,
    shutdown: ShutdownHandle,
    thread: JoinHandle<()>,
    replay_pool: Arc<Pool>,
    cold_pool: Arc<Pool>,
}

impl TestServer {
    fn start(config: ServeConfig) -> TestServer {
        // Process-wide; tests asserting on /metrics need recording on.
        softwatt_obs::set_enabled(true);
        let system = SystemConfig {
            time_scale: FAST_SCALE,
            ..SystemConfig::default()
        };
        let suite = Arc::new(ExperimentSuite::new(system).expect("valid config"));
        let server = Server::bind("127.0.0.1:0", Arc::clone(&suite), config).expect("bind");
        let addr = server.local_addr().expect("local addr");
        let shutdown = server.shutdown_handle();
        let replay_pool = server.pool();
        let cold_pool = server.cold_pool();
        let thread = std::thread::spawn(move || server.run());
        TestServer {
            suite,
            addr,
            shutdown,
            thread,
            replay_pool,
            cold_pool,
        }
    }

    fn client(&self) -> Client {
        Client::connect(self.addr, Duration::from_secs(300)).expect("connect")
    }

    fn stop(self) {
        self.shutdown.trigger();
        self.thread.join().expect("server thread");
    }
}

/// Parks a pool's only worker on a job that blocks until the returned
/// sender fires; returns once the worker has picked it up. Requires a
/// one-worker pool to be meaningful.
fn park_worker(pool: &Pool) -> mpsc::Sender<()> {
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let (started_tx, started_rx) = mpsc::channel::<()>();
    pool.try_submit(Box::new(move || {
        started_tx.send(()).expect("report parked");
        release_rx.recv().expect("await release");
    }))
    .expect("park job accepted");
    started_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("worker picks up the parking job");
    release_tx
}

/// Reads the integer value of one counter out of a `/metrics` body.
fn counter(metrics_body: &str, name: &str) -> u64 {
    let needle = format!("\"{name}\": ");
    let at = metrics_body
        .find(&needle)
        .unwrap_or_else(|| panic!("counter {name} missing from {metrics_body}"));
    metrics_body[at + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("counter value")
}

#[test]
fn run_response_is_byte_identical_to_in_process() {
    let server = TestServer::start(ServeConfig::default());
    let mut client = server.client();

    let resp = client
        .request(
            "POST",
            "/v1/run",
            r#"{"benchmark": "jess", "disk": "idle"}"#,
        )
        .expect("run request");
    assert_eq!(resp.status, 200, "{}", resp.body);
    // A fresh suite knows nothing about this key: full simulation.
    assert_eq!(resp.header("x-softwatt-lane"), Some("cold"));

    // The same query answered in-process, through the same shared suite,
    // must render to exactly the same bytes.
    let key = RunKey::canned(Benchmark::Jess, CpuModel::Mxs, DiskSetup::IdleOnly);
    let bundle = server.suite.run_key(key);
    assert_eq!(resp.body, softwatt::json::run_bundle(key, &bundle));

    // Keep-alive: the same connection serves a second request, and the
    // memo makes it an inline hit with identical bytes.
    let again = client
        .request(
            "POST",
            "/v1/run",
            r#"{"benchmark": "jess", "disk": "idle"}"#,
        )
        .expect("second request on the same connection");
    assert_eq!(again.body, resp.body);
    assert_eq!(again.header("x-softwatt-lane"), Some("inline"));

    // A sibling disk policy of a simulated pair replays the trace.
    let sibling = client
        .request(
            "POST",
            "/v1/run",
            r#"{"benchmark": "jess", "disk": "sleep"}"#,
        )
        .expect("sibling disk request");
    assert_eq!(sibling.status, 200, "{}", sibling.body);
    assert_eq!(sibling.header("x-softwatt-lane"), Some("replay"));

    // Figures render through the same suite too.
    let fig = client
        .request("GET", "/v1/figures/validation", "")
        .expect("figure request");
    assert_eq!(fig.status, 200);
    assert_eq!(
        fig.body,
        softwatt::json::figure(&server.suite, "validation").expect("known figure")
    );

    server.stop();
}

#[test]
fn inline_spec_runs_get_the_full_tier_treatment() {
    let server = TestServer::start(ServeConfig::default());
    let mut client = server.client();

    // A user workload: canned jess content under a custom name, posted
    // inline in the canonical spec codec.
    let mut spec = Benchmark::Jess.spec();
    spec.name = "jess-tuned".to_string();
    let body = format!(
        r#"{{"spec": {}, "disk": "idle"}}"#,
        softwatt::json::benchmark_spec(&spec)
    );

    let resp = client.request("POST", "/v1/run", &body).expect("spec run");
    assert_eq!(resp.status, 200, "{}", resp.body);
    // A fresh suite has never seen this spec: full simulation.
    assert_eq!(resp.header("x-softwatt-lane"), Some("cold"));

    // The handler registered the spec in the shared suite, so the same
    // key answered in-process must render to exactly the same bytes.
    let key = RunKey {
        workload: WorkloadKey::Spec(spec.content_hash()),
        cpu: CpuModel::Mxs,
        disk: DiskSetup::IdleOnly,
    };
    let bundle = server.suite.run_key(key);
    assert_eq!(resp.body, softwatt::json::run_bundle(key, &bundle));

    // Re-posting the identical spec is a memo hit on the inline lane with
    // identical bytes — the lane classification is stable.
    let again = client.request("POST", "/v1/run", &body).expect("re-post");
    assert_eq!(again.status, 200, "{}", again.body);
    assert_eq!(again.header("x-softwatt-lane"), Some("inline"));
    assert_eq!(again.body, resp.body);

    // A sibling disk policy of the registered spec replays its trace.
    let sibling_body = format!(
        r#"{{"spec": {}, "disk": "sleep"}}"#,
        softwatt::json::benchmark_spec(&spec)
    );
    let sibling = client
        .request("POST", "/v1/run", &sibling_body)
        .expect("sibling disk request");
    assert_eq!(sibling.status, 200, "{}", sibling.body);
    assert_eq!(sibling.header("x-softwatt-lane"), Some("replay"));

    // Once registered, the spec is addressable by its content-hash label
    // without re-sending the body.
    let by_label = client
        .request(
            "POST",
            "/v1/run",
            &format!(
                r#"{{"workload": "{}", "disk": "idle"}}"#,
                key.workload.label()
            ),
        )
        .expect("run by spec label");
    assert_eq!(by_label.status, 200, "{}", by_label.body);
    assert_eq!(by_label.header("x-softwatt-lane"), Some("inline"));
    assert_eq!(by_label.body, resp.body);

    // An invalid spec is a structured 400, not a panic or a 500.
    spec.phases[0].frac = -0.25;
    let invalid = client
        .request(
            "POST",
            "/v1/run",
            &format!(r#"{{"spec": {}}}"#, softwatt::json::benchmark_spec(&spec)),
        )
        .expect("invalid spec request");
    assert_eq!(invalid.status, 400, "{}", invalid.body);
    assert!(
        invalid.body.contains("\"code\": \"invalid_spec\""),
        "{}",
        invalid.body
    );

    assert_eq!(
        server.suite.runs_executed(),
        1,
        "one simulation served every inline-spec request"
    );
    server.stop();
}

#[test]
fn batch_of_paper_grid_simulates_each_cpu_pair_once() {
    let server = TestServer::start(ServeConfig::default());
    let grid = server.suite.paper_grid();
    assert_eq!(grid.len(), 37, "the paper grid");

    let queries: Vec<String> = grid
        .iter()
        .map(|k| {
            format!(
                r#"{{"benchmark": "{}", "cpu": "{}", "disk": "{}"}}"#,
                k.workload.label(),
                k.cpu.name(),
                k.disk.name()
            )
        })
        .collect();
    let body = format!(r#"{{"queries": [{}], "jobs": 2}}"#, queries.join(", "));

    let mut client = server.client();
    let resp = client.request("POST", "/v1/batch", &body).expect("batch");
    assert_eq!(resp.status, 200, "{}", resp.body);
    // A fresh grid needs full simulations: the batch rode the cold lane
    // (one cold worker; the prewarm's own `jobs` threading parallelizes).
    assert_eq!(resp.header("x-softwatt-lane"), Some("cold"));

    // 37 keys collapse to 13 full simulations (one per benchmark/CPU
    // pair); the rest are replay-derived. The shared handle proves the
    // server hit the same memo.
    assert_eq!(server.suite.runs_executed(), 13);
    assert!(resp.body.contains("\"schema\": \"softwatt-batch-v1\""));
    assert!(resp.body.contains("\"unique_keys\": 37"), "{}", resp.body);
    assert!(resp.body.contains("\"runs_executed\": 13"), "{}", resp.body);
    // Every bundle (including the 13 captured keys' own) is derived by
    // replaying a trace, so the replay count covers the whole grid.
    assert!(
        resp.body.contains("\"replays_derived\": 37"),
        "{}",
        resp.body
    );
    // All 37 result bundles made it into the response, in request order.
    assert_eq!(
        resp.body.matches("\"schema\": \"softwatt-run-v1\"").count(),
        37
    );

    // Now that every trace exists, the same batch is replay-class.
    let again = client.request("POST", "/v1/batch", &body).expect("rerun");
    assert_eq!(again.status, 200);
    assert_eq!(again.header("x-softwatt-lane"), Some("replay"));
    assert_eq!(server.suite.runs_executed(), 13, "no re-simulation");

    server.stop();
}

#[test]
fn concurrent_identical_cold_runs_dedup_into_one_job() {
    let server = TestServer::start(ServeConfig {
        cold_workers: 1,
        cold_queue_depth: 4,
        ..ServeConfig::default()
    });
    let release = park_worker(&server.cold_pool);

    // Three connections ask for the same cold key while the cold worker
    // is parked: the first creates the in-flight job, the rest attach.
    let mut clients: Vec<Client> = (0..3).map(|_| server.client()).collect();
    for c in &mut clients {
        c.send_request("POST", "/v1/run", r#"{"benchmark": "javac"}"#)
            .expect("send identical run");
    }
    std::thread::sleep(Duration::from_millis(300));
    release.send(()).expect("release cold worker");

    let bodies: Vec<String> = clients
        .iter_mut()
        .map(|c| {
            let resp = c.read_response().expect("deduped response");
            assert_eq!(resp.status, 200, "{}", resp.body);
            assert_eq!(resp.header("x-softwatt-lane"), Some("cold"));
            resp.body.clone()
        })
        .collect();
    assert_eq!(bodies[0], bodies[1]);
    assert_eq!(bodies[1], bodies[2]);
    assert_eq!(
        server.suite.runs_executed(),
        1,
        "one simulation served all three requests"
    );

    // The dedup shows up on /metrics: two requests attached to the first
    // one's job (>= because the registry is process-global).
    let metrics = clients[0]
        .request("GET", "/metrics", "")
        .expect("metrics")
        .body;
    assert!(counter(&metrics, "serve.dedup_attached") >= 2, "{metrics}");
    assert!(
        counter(&metrics, "serve.lane.cold.served") >= 3,
        "{metrics}"
    );
    assert!(
        metrics.contains("\"serve.lane.cold.queue_depth_max\""),
        "{metrics}"
    );
    assert!(
        metrics.contains("\"serve.lane.cold.latency_us\""),
        "{metrics}"
    );

    server.stop();
}

#[test]
fn saturated_cold_lane_bounces_503_while_warm_stays_inline() {
    let server = TestServer::start(ServeConfig {
        cold_workers: 1,
        cold_queue_depth: 1,
        ..ServeConfig::default()
    });
    // Warm one key up front through the shared suite handle.
    let warm_key = RunKey::canned(Benchmark::Compress, CpuModel::Mxs, DiskSetup::Conventional);
    server.suite.run_key(warm_key);

    let release = park_worker(&server.cold_pool);

    // Fill the cold queue's single slot with a real request (sent, not
    // yet answered — it sits queued behind the parked worker).
    let mut queued = server.client();
    queued
        .send_request("POST", "/v1/run", r#"{"benchmark": "jess"}"#)
        .expect("send queued request");
    std::thread::sleep(Duration::from_millis(300));

    // The next *distinct* cold request must bounce immediately with
    // Retry-After (an identical one would dedup-attach instead).
    let mut bounced = server.client();
    let resp = bounced
        .request("POST", "/v1/run", r#"{"benchmark": "db"}"#)
        .expect("bounced request");
    assert_eq!(resp.status, 503, "{}", resp.body);
    assert_eq!(resp.header("retry-after"), Some("1"));
    assert!(resp.body.contains("\"code\": \"overloaded\""));

    // Warm traffic never queues behind the saturated cold lane: the
    // memoized key answers inline, on the same connection the 503 came
    // back on, while the cold worker is still parked.
    let warm = bounced
        .request("POST", "/v1/run", r#"{"benchmark": "compress"}"#)
        .expect("warm request under cold saturation");
    assert_eq!(warm.status, 200, "{}", warm.body);
    assert_eq!(warm.header("x-softwatt-lane"), Some("inline"));
    let health = bounced.request("GET", "/healthz", "").expect("healthz");
    assert_eq!(health.status, 200);

    // Releasing the worker drains the queued request successfully...
    release.send(()).expect("release worker");
    let drained = queued.read_response().expect("queued response");
    assert_eq!(drained.status, 200, "{}", drained.body);

    // ...and the lane is fully recovered, not wedged.
    let after = bounced
        .request("POST", "/v1/run", r#"{"benchmark": "db"}"#)
        .expect("post-recovery request");
    assert_eq!(after.status, 200, "{}", after.body);

    server.stop();
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let server = TestServer::start(ServeConfig::default());
    // Warm a key so the pipelined run resolves inline.
    let key = RunKey::canned(Benchmark::Mtrt, CpuModel::Mxs, DiskSetup::Conventional);
    server.suite.run_key(key);

    // All three requests hit the wire before any response is read.
    let mut client = server.client();
    client
        .send_request("GET", "/healthz", "")
        .expect("pipeline healthz");
    client
        .send_request("POST", "/v1/run", r#"{"benchmark": "mtrt"}"#)
        .expect("pipeline run");
    client
        .send_request("GET", "/v1/figures/validation", "")
        .expect("pipeline figure");

    let first = client.read_response().expect("first response");
    assert_eq!(first.status, 200);
    assert!(first.body.contains("\"status\": \"ok\""), "{}", first.body);
    let second = client.read_response().expect("second response");
    assert_eq!(second.status, 200);
    assert!(
        second.body.contains("\"schema\": \"softwatt-run-v1\""),
        "{}",
        second.body
    );
    let third = client.read_response().expect("third response");
    assert_eq!(third.status, 200);
    assert_eq!(
        third.body,
        softwatt::json::figure(&server.suite, "validation").expect("known figure")
    );

    server.stop();
}

#[test]
fn requests_split_across_arbitrary_byte_boundaries_parse() {
    let server = TestServer::start(ServeConfig::default());
    server.suite.run_key(RunKey::canned(
        Benchmark::Jack,
        CpuModel::Mxs,
        DiskSetup::Conventional,
    ));

    let raw = b"POST /v1/run HTTP/1.1\r\nContent-Length: 21\r\n\r\n{\"benchmark\": \"jack\"}";
    let mut stream = TcpStream::connect(server.addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    // One byte per write, each flushed: the server sees the request in
    // as many fragments as the kernel delivers.
    for b in raw {
        stream.write_all(&[*b]).expect("dribble byte");
        stream.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        let n = stream.read(&mut chunk).expect("read response");
        assert!(n > 0, "server closed before the response head arrived");
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
    }
    let text = String::from_utf8_lossy(&buf);
    assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
    assert!(text.contains("X-Softwatt-Lane: inline\r\n"), "{text}");

    server.stop();
}

#[test]
fn slow_loris_is_reaped_without_consuming_a_worker() {
    let server = TestServer::start(ServeConfig {
        workers: 1,
        cold_workers: 1,
        read_timeout: Duration::from_millis(400),
        ..ServeConfig::default()
    });
    // Park BOTH lanes: if the loris connection needed any worker, the
    // 408 below could never be written.
    let release_replay = park_worker(&server.replay_pool);
    let release_cold = park_worker(&server.cold_pool);

    let mut loris = TcpStream::connect(server.addr).expect("connect");
    loris
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let started = Instant::now();
    // Dribble a partial head one byte at a time, forever (from the
    // sender's point of view). Each byte is "progress", but the head's
    // total budget is fixed — the reactor must reap the connection.
    let mut reply = Vec::new();
    let mut partial = b"GET /healthz HTTP/1.1\r\nHost: x\r\nX-Slow: ".iter();
    loop {
        if let Some(b) = partial.next() {
            if loris.write_all(&[*b]).is_err() {
                break; // server already closed on us: also a pass
            }
        }
        std::thread::sleep(Duration::from_millis(50));
        assert!(
            started.elapsed() < Duration::from_secs(8),
            "loris was never reaped"
        );
        // Poll for the server's verdict without blocking the dribble.
        loris
            .set_read_timeout(Some(Duration::from_millis(1)))
            .expect("short timeout");
        let mut chunk = [0u8; 1024];
        match loris.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => reply.extend_from_slice(&chunk[..n]),
            Err(_) => {}
        }
    }
    let text = String::from_utf8_lossy(&reply);
    assert!(text.starts_with("HTTP/1.1 408"), "{text}");
    assert!(
        started.elapsed() < Duration::from_secs(8),
        "reap took too long"
    );

    // Both workers are still parked — the loris never touched a pool.
    release_replay.send(()).expect("replay worker still parked");
    release_cold.send(()).expect("cold worker still parked");

    // The reap is visible on /metrics.
    let metrics = server
        .client()
        .request("GET", "/metrics", "")
        .expect("metrics")
        .body;
    assert!(
        counter(&metrics, "serve.conns.reaped_partial") >= 1,
        "{metrics}"
    );

    server.stop();
}

#[test]
fn graceful_shutdown_drains_inflight_requests() {
    let server = TestServer::start(ServeConfig {
        cold_workers: 1,
        cold_queue_depth: 4,
        ..ServeConfig::default()
    });
    let release = park_worker(&server.cold_pool);

    // An in-flight request, queued behind the parked cold worker.
    let mut inflight = server.client();
    inflight
        .send_request("POST", "/v1/run", r#"{"benchmark": "jess"}"#)
        .expect("send in-flight request");
    std::thread::sleep(Duration::from_millis(300));

    // Shutdown arrives while that request is still queued.
    server.shutdown.trigger();
    std::thread::sleep(Duration::from_millis(100));
    release.send(()).expect("release worker");

    // The drain completes the request — a full 200, flagged as the last
    // response on the connection — before the server exits.
    let resp = inflight.read_response().expect("drained response");
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"schema\": \"softwatt-run-v1\""));
    assert_eq!(resp.header("connection"), Some("close"));

    server.thread.join().expect("server thread exits");
}

#[test]
fn admin_shutdown_endpoint_stops_the_server() {
    let server = TestServer::start(ServeConfig::default());
    let mut client = server.client();
    let resp = client
        .request("POST", "/admin/shutdown", "")
        .expect("shutdown request");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("connection"), Some("close"));
    server.thread.join().expect("server thread exits");
}

#[test]
fn structured_errors_cover_the_4xx_surface() {
    let server = TestServer::start(ServeConfig {
        max_body_bytes: 256,
        ..ServeConfig::default()
    });
    let mut client = server.client();

    let cases: [(&str, &str, &str, u16, &str); 7] = [
        ("POST", "/v1/run", "not json", 400, "bad_json"),
        ("POST", "/v1/run", "{}", 400, "missing_field"),
        (
            "POST",
            "/v1/run",
            r#"{"benchmark": "quake"}"#,
            400,
            "unknown_benchmark",
        ),
        (
            "POST",
            "/v1/run",
            r#"{"benchmark": "jess", "cpu": "arm"}"#,
            400,
            "unknown_cpu",
        ),
        ("GET", "/v1/figures/fig99", "", 404, "unknown_figure"),
        ("GET", "/v1/run", "", 405, "method_not_allowed"),
        ("GET", "/nope", "", 404, "not_found"),
    ];
    for (method, path, body, status, code) in cases {
        let resp = client.request(method, path, body).expect(path);
        assert_eq!(resp.status, status, "{method} {path}: {}", resp.body);
        assert!(
            resp.body.contains(&format!("\"code\": \"{code}\"")),
            "{method} {path}: {}",
            resp.body
        );
    }

    // Oversized body: 413, and the server closes the connection (it will
    // not read the rest of the payload).
    let big = "x".repeat(512);
    let resp = client
        .request("POST", "/v1/run", &big)
        .expect("oversized request");
    assert_eq!(resp.status, 413, "{}", resp.body);
    assert!(resp.body.contains("\"code\": \"body_too_large\""));
    assert_eq!(resp.header("connection"), Some("close"));

    server.stop();
}

#[test]
fn trace_transfers_bypass_a_saturated_cold_lane() {
    // The fabric-deadlock guard (DESIGN.md §14): `/v1/traces` runs on
    // its own pool, so a cold lane whose only worker is stuck — in a
    // real cluster, blocked fetching from a peer — can never starve the
    // transfers that peer is waiting for.
    let server = TestServer::start(ServeConfig {
        cold_workers: 1,
        cold_queue_depth: 4,
        ..ServeConfig::default()
    });
    let release = park_worker(&server.cold_pool);

    let workload = WorkloadKey::Canned(Benchmark::Jess);
    let hash = server.suite.trace_key(workload, CpuModel::Mxs).hash();
    let path = format!("/v1/traces/{hash:016x}?workload=jess&cpu=mxs");
    let start = Instant::now();
    let resp = server
        .client()
        .request_bytes("GET", &path, "")
        .expect("trace transfer");
    assert_eq!(resp.status, 200);
    assert!(!resp.body.is_empty(), "swtrace bytes");
    assert_eq!(resp.header("x-softwatt-source"), Some("sim"));
    assert!(
        start.elapsed() < Duration::from_secs(60),
        "transfer never queued behind the parked cold worker"
    );
    assert_eq!(server.suite.runs_executed(), 1, "captured on demand");

    release.send(()).expect("release cold worker");
    server.stop();
}

#[test]
fn figure_renders_once_then_serves_inline() {
    // Figures are deterministic over memoized bundles, so the rendered
    // body is cached by name: the first request pays the render on a
    // worker lane, every later one is answered inline on the reactor.
    // This is what keeps a cluster member that never sees the full paper
    // grid from cold-admitting the same figure forever.
    let server = TestServer::start(ServeConfig::default());
    let mut client = server.client();

    let first = client
        .request("GET", "/v1/figures/fig6", "")
        .expect("first figure request");
    assert_eq!(first.status, 200, "{}", first.body);
    assert_eq!(first.header("x-softwatt-lane"), Some("cold"));

    let again = client
        .request("GET", "/v1/figures/fig6", "")
        .expect("second figure request");
    assert_eq!(again.status, 200);
    assert_eq!(again.header("x-softwatt-lane"), Some("inline"));
    assert_eq!(again.body, first.body, "cache serves the same render");

    server.stop();
}
