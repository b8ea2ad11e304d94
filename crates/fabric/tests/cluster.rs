//! Two peered servers over real TCP: cluster-wide single-flight on a
//! cold grid, answers byte-identical to a single node's, the
//! `X-Softwatt-Source` surface, and degradation when the fabric is
//! broken (dead owner) — clients must never see an error.
//!
//! Ports are reserved by binding `:0` first and rebinding the freed
//! port, because ring membership must be known *before* the suites are
//! built (every member hashes the same advertised addresses).

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use softwatt::experiments::{DiskSetup, RunKey};
use softwatt::{Benchmark, CpuModel, ExperimentSuite, SystemConfig, TraceStore};
use softwatt_fabric::{PeerClient, DEFAULT_FETCH_TIMEOUT};
use softwatt_serve::client::Client;
use softwatt_serve::{ServeConfig, Server, ShutdownHandle};

/// Big time-scale factor = short, fast simulated runs (test fidelity).
const FAST_SCALE: f64 = 500_000.0;

fn reserve_port() -> u16 {
    TcpListener::bind("127.0.0.1:0")
        .expect("reserve")
        .local_addr()
        .expect("addr")
        .port()
}

fn fast_config() -> SystemConfig {
    SystemConfig {
        time_scale: FAST_SCALE,
        ..SystemConfig::default()
    }
}

fn temp_store(name: &str) -> TraceStore {
    let dir = std::env::temp_dir().join(format!("swcluster-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    TraceStore::open(dir).expect("store")
}

struct Node {
    suite: Arc<ExperimentSuite>,
    addr: SocketAddr,
    shutdown: ShutdownHandle,
    thread: JoinHandle<()>,
}

impl Node {
    /// One cluster member: its own suite, its own shared-nothing trace
    /// store, and a ring over `self_port` + `peer_ports`.
    fn start(name: &str, self_port: u16, peer_ports: &[u16]) -> Node {
        softwatt_obs::set_enabled(true);
        let peers: Vec<String> = peer_ports
            .iter()
            .map(|p| format!("127.0.0.1:{p}"))
            .collect();
        let fabric = PeerClient::new(format!("127.0.0.1:{self_port}"), &peers, FETCH_TIMEOUT);
        let suite = Arc::new(
            ExperimentSuite::new(fast_config())
                .expect("valid config")
                .with_trace_store(temp_store(name))
                .with_peer_source(Arc::new(fabric)),
        );
        let server = Server::bind(
            format!("127.0.0.1:{self_port}"),
            Arc::clone(&suite),
            ServeConfig::default(),
        )
        .expect("bind");
        let addr = server.local_addr().expect("local addr");
        let shutdown = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.run());
        Node {
            suite,
            addr,
            shutdown,
            thread,
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

/// Tests run with runs that finish in well under a second, so a short
/// fetch budget keeps the dead-owner test quick without ever firing in
/// the healthy-cluster one.
const FETCH_TIMEOUT: Duration = Duration::from_secs(30);

/// The six canned benchmarks on the default CPU: six distinct trace
/// pairs, small enough to keep the test fast.
const BENCHMARKS: [&str; 6] = ["compress", "jess", "db", "javac", "mtrt", "jack"];

#[test]
fn cold_grid_is_single_flight_across_the_cluster() {
    let (port_a, port_b) = (reserve_port(), reserve_port());
    let a = Node::start("sfa", port_a, &[port_b]);
    let b = Node::start("sfb", port_b, &[port_a]);
    let mut ca = a.client();
    let mut cb = b.client();

    // Every benchmark asked of BOTH nodes: without the fabric that is
    // two full simulations per pair; with it, one capture at the owner
    // and one peer fetch at the other.
    let mut sources = Vec::new();
    for bench in BENCHMARKS {
        let body = format!(r#"{{"benchmark": "{bench}"}}"#);
        for client in [&mut ca, &mut cb] {
            let resp = client.request("POST", "/v1/run", &body).expect("run");
            assert_eq!(resp.status, 200, "{bench}: {}", resp.body);
            sources.push(
                resp.header("x-softwatt-source")
                    .expect("source header")
                    .to_string(),
            );
        }
    }
    assert_eq!(
        a.suite.runs_executed() + b.suite.runs_executed(),
        BENCHMARKS.len(),
        "each pair simulated exactly once cluster-wide"
    );
    assert_eq!(
        a.suite.peer_loads() + b.suite.peer_loads(),
        BENCHMARKS.len(),
        "the non-owner fetched instead of simulating"
    );
    assert_eq!(
        sources.iter().filter(|s| *s == "sim").count(),
        BENCHMARKS.len()
    );
    assert_eq!(
        sources.iter().filter(|s| *s == "peer").count(),
        BENCHMARKS.len()
    );

    // A fetched trace persists locally: the non-owner replays siblings
    // from its own store without touching the fabric again.
    let before = a.suite.peer_loads() + b.suite.peer_loads();
    for bench in BENCHMARKS {
        let body = format!(r#"{{"benchmark": "{bench}", "disk": "standby2"}}"#);
        for client in [&mut ca, &mut cb] {
            let resp = client.request("POST", "/v1/run", &body).expect("sibling");
            assert_eq!(resp.status, 200);
        }
    }
    assert_eq!(a.suite.peer_loads() + b.suite.peer_loads(), before);
    assert_eq!(
        a.suite.runs_executed() + b.suite.runs_executed(),
        BENCHMARKS.len(),
        "siblings replay, never re-simulate"
    );

    a.stop();
    b.stop();
}

#[test]
fn results_are_byte_stable_across_cluster_shapes() {
    // A mixed grid: two disks on one trace pair, a second benchmark and
    // the other CPU model — three distinct trace pairs in all.
    let grid = [
        (Benchmark::Jess, CpuModel::Mxs, DiskSetup::Conventional),
        (Benchmark::Jess, CpuModel::Mxs, DiskSetup::Standby2s),
        (Benchmark::Db, CpuModel::Mxs, DiskSetup::Conventional),
        (Benchmark::Jess, CpuModel::Mipsy, DiskSetup::Conventional),
    ];
    let single = ExperimentSuite::new(fast_config()).expect("valid config");
    let (port_a, port_b) = (reserve_port(), reserve_port());
    let a = Node::start("shape-a", port_a, &[port_b]);
    let b = Node::start("shape-b", port_b, &[port_a]);
    let mut ca = a.client();
    let mut cb = b.client();

    for (bench, cpu, disk) in grid {
        let key = RunKey::canned(bench, cpu, disk);
        let expected = softwatt::json::run_bundle(key, &single.run_key(key));
        assert!(expected.contains("softwatt-run-v1"), "{key:?}: run bundle");
        assert!(expected.contains(bench.name()), "{key:?}: right workload");
        let body = format!(
            r#"{{"benchmark": "{}", "cpu": "{}", "disk": "{}"}}"#,
            bench.name(),
            cpu.name(),
            disk.name()
        );
        for client in [&mut ca, &mut cb] {
            let resp = client.request("POST", "/v1/run", &body).expect("run");
            assert_eq!(resp.status, 200, "{key:?}: {}", resp.body);
            assert_eq!(resp.body, expected, "{key:?}: differs from a single node");
        }
    }
    assert_eq!(
        a.suite.runs_executed() + b.suite.runs_executed(),
        3,
        "every trace pair computed exactly once cluster-wide"
    );

    a.stop();
    b.stop();
}

#[test]
fn dead_owner_degrades_to_local_sim_without_client_errors() {
    // A ring whose only peer never existed: every remote-owned key hits
    // a connection refusal and must fall back to a local simulation.
    let (port_a, ghost) = (reserve_port(), reserve_port());
    let a = Node::start("dead", port_a, &[ghost]);
    let mut client = a.client();

    for bench in BENCHMARKS {
        let body = format!(r#"{{"benchmark": "{bench}"}}"#);
        let resp = client.request("POST", "/v1/run", &body).expect("run");
        assert_eq!(resp.status, 200, "{bench}: {}", resp.body);
        assert_eq!(
            resp.header("x-softwatt-source"),
            Some("sim"),
            "{bench}: degraded to a local simulation"
        );
    }
    assert_eq!(a.suite.runs_executed(), BENCHMARKS.len());
    assert_eq!(a.suite.peer_loads(), 0);
    a.stop();
}

#[test]
fn fetch_timeout_is_generous_but_bounded() {
    // Guards the documented contract: a dead owner costs milliseconds
    // (connect refusal), not the full fetch budget.
    assert!(DEFAULT_FETCH_TIMEOUT >= Duration::from_secs(60));
    let start = std::time::Instant::now();
    let ghost = reserve_port();
    let fabric = PeerClient::new(
        "127.0.0.1:1",
        &[format!("127.0.0.1:{ghost}")],
        DEFAULT_FETCH_TIMEOUT,
    );
    let key = softwatt::TraceKey::derive(
        &SystemConfig::default(),
        softwatt::Benchmark::Jess,
        softwatt::CpuModel::Mxs,
    );
    use softwatt::PeerSource as _;
    let _ = fabric.fetch(&key, "jess", "mxs");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "refused connect returns immediately"
    );
}
