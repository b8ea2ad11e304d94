//! The SoftWatt power-estimation query service.
//!
//! Boots one shared, memoizing [`ExperimentSuite`] and serves it over
//! HTTP/1.1 (see the `softwatt-serve` crate and `DESIGN.md` §server):
//! `POST /v1/run`, `POST /v1/batch`, `GET /v1/figures/{name}`,
//! `GET /healthz`, `GET /metrics`, `POST /admin/shutdown`.
//!
//! Usage: `softwatt-serve [--addr HOST:PORT] [--scale S] [--workers N|auto]
//! [--queue-depth N] [--cold-workers N|auto] [--cold-queue-depth N]
//! [--max-connections N] [--trace-cache DIR] [--trace-cache-max-bytes N]
//! [--peers HOST:PORT,...] [--advertise HOST:PORT]
//! [--metrics] [--metrics-out FILE] [--log-level LEVEL]`
//! (defaults: addr `127.0.0.1:0` — an ephemeral port — scale 2000, the
//! committed-fidelity setting; pass e.g. `--scale 50000` for a fast
//! smoke instance).
//!
//! `--peers` joins the distributed trace fabric: the listed servers plus
//! this one form a consistent-hash ring over trace keys, and a local
//! trace miss fetches the owning peer's `swtrace` bytes before
//! falling back to simulation (see `DESIGN.md` §14), so a `/v1/batch`
//! sent to every peer spreads a cold grid by ring ownership. Requires a
//! fixed port (`--addr HOST:PORT` or `--advertise HOST:PORT`) so every
//! member hashes the same membership. `--trace-cache-max-bytes`
//! soft-caps the trace cache directory, evicting oldest-mtime entries on
//! write.
//!
//! `--trace-cache DIR` (or `SOFTWATT_TRACE_CACHE`) attaches the
//! persistent trace store and warm-starts the service: every paper-grid
//! trace the store already has is loaded *before* the `listening on` line
//! is printed, so first-touch requests replay instead of simulating —
//! this is what turns the cold-start p99 tail into a warm one.
//!
//! The one stdout line is `listening on HOST:PORT`, printed once the
//! socket is bound, so scripts can discover the ephemeral port. SIGINT /
//! SIGTERM (and `POST /admin/shutdown`) drain in-flight work, flush the
//! observability outputs, and exit 0.

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use softwatt::{ExperimentSuite, SystemConfig};
use softwatt_bench::{parse_count_or_auto, ObsFlags};
use softwatt_fabric::PeerClient;
use softwatt_serve::{ServeConfig, Server, ShutdownHandle};

/// Set by the signal handler; a watcher thread forwards it to the server.
static SIGNALED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    // Only an atomic store: async-signal-safe.
    SIGNALED.store(true, Ordering::SeqCst);
}

/// Routes SIGINT and SIGTERM to [`on_signal`]. `std` already links libc,
/// so declaring `signal(2)` directly avoids any new dependency.
#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

fn main() {
    let mut addr = String::from("127.0.0.1:0");
    let mut scale = 2000.0f64;
    let mut config = ServeConfig::default();
    let mut obs = ObsFlags::default();
    let mut trace_cache = None;
    let mut trace_cache_max_bytes = None;
    let mut peers: Vec<String> = Vec::new();
    let mut advertise = None;
    fn usage_exit(msg: &str) -> ! {
        eprintln!("{msg}");
        eprintln!(
            "usage: softwatt-serve [--addr HOST:PORT] [--scale S] [--workers N|auto] \
             [--queue-depth N] [--cold-workers N|auto] [--cold-queue-depth N] \
             [--max-connections N] [--trace-cache DIR] [--trace-cache-max-bytes N] \
             [--peers HOST:PORT,...] [--advertise HOST:PORT] {}",
            ObsFlags::USAGE
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
            "--addr" => addr = value("--addr"),
            "--scale" => match value("--scale").parse() {
                Ok(v) if v > 0.0 => scale = v,
                _ => usage_exit("--scale needs a positive number"),
            },
            "--trace-cache" => trace_cache = Some(value("--trace-cache")),
            "--trace-cache-max-bytes" => match value("--trace-cache-max-bytes").parse::<u64>() {
                Ok(v) if v > 0 => trace_cache_max_bytes = Some(v),
                _ => usage_exit("--trace-cache-max-bytes needs a positive byte count"),
            },
            "--peers" => {
                peers = value("--peers")
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(String::from)
                    .collect();
            }
            "--advertise" => advertise = Some(value("--advertise")),
            "--workers" => config.workers = count("--workers", "thread count"),
            "--queue-depth" => config.queue_depth = count("--queue-depth", "queue capacity"),
            "--cold-workers" => config.cold_workers = count("--cold-workers", "thread count"),
            "--cold-queue-depth" => {
                config.cold_queue_depth = count("--cold-queue-depth", "queue capacity");
            }
            "--max-connections" => {
                config.max_connections = count("--max-connections", "connection count");
            }
            other => match obs.try_parse(other, || Some(value(other))) {
                Ok(true) => {}
                Ok(false) => usage_exit(&format!("unknown flag {other}")),
                Err(e) => usage_exit(&e),
            },
        }
    }
    obs.activate();

    let system = SystemConfig {
        time_scale: scale,
        ..SystemConfig::default()
    };
    let mut suite = match ExperimentSuite::new(system) {
        Ok(suite) => suite,
        Err(e) => {
            eprintln!("invalid configuration: {e}");
            std::process::exit(2);
        }
    };
    match softwatt_bench::open_trace_store(trace_cache) {
        Ok(Some(store)) => {
            let store = store.with_max_bytes(trace_cache_max_bytes);
            let dir = store.dir().display().to_string();
            suite = suite.with_trace_store(store);
            // Warm start: pull whatever the store already has for the paper
            // grid into the memo now, so it happens before the `listening
            // on` line rather than inside a request's latency budget. Pairs
            // the store lacks are simulated (and persisted) on first touch.
            let loaded = suite.prewarm_from_store(&suite.paper_grid());
            eprintln!("warm start: {loaded} trace(s) loaded from {dir}");
        }
        Ok(None) => {}
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
    if !peers.is_empty() {
        // The ring identity must be known before bind: every cluster
        // member hashes the same advertised addresses, so an ephemeral
        // port (unknowable to peers) cannot join a fabric.
        let self_node = advertise.clone().unwrap_or_else(|| addr.clone());
        if self_node.ends_with(":0") {
            eprintln!(
                "--peers needs a fixed port: pass --addr HOST:PORT or --advertise HOST:PORT \
                 matching what the peers were given"
            );
            std::process::exit(2);
        }
        let fabric = PeerClient::new(
            self_node.clone(),
            &peers,
            softwatt_fabric::DEFAULT_FETCH_TIMEOUT,
        );
        eprintln!(
            "fabric: {} node(s) in the ring, advertising as {self_node}",
            fabric.ring().len()
        );
        suite = suite.with_peer_source(Arc::new(fabric));
    }
    let suite = Arc::new(suite);
    let server = match Server::bind(addr.as_str(), suite, config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    let bound = match server.local_addr() {
        Ok(addr) => addr,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };

    install_signal_handlers();
    spawn_signal_watcher(server.shutdown_handle());

    // The contract with scripts: exactly one stdout line with the bound
    // address (the port is ephemeral by default), flushed immediately.
    println!("listening on {bound}");
    let _ = std::io::stdout().flush();
    eprintln!(
        "softwatt-serve: scale {scale}x, endpoints /healthz /metrics /v1/run /v1/batch \
         /v1/figures/* /admin/shutdown"
    );

    server.run();
    eprintln!("softwatt-serve: drained, shutting down");
    if let Err(e) = obs.finish() {
        eprintln!("{e}");
        std::process::exit(1);
    }
}

/// Polls the signal flag and forwards it to the server's shutdown handle.
/// The thread is never joined: the process exits right after `run()`
/// returns.
fn spawn_signal_watcher(handle: ShutdownHandle) {
    std::thread::Builder::new()
        .name("signal-watcher".into())
        .spawn(move || loop {
            if SIGNALED.load(Ordering::SeqCst) {
                handle.trigger();
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        })
        .expect("spawn signal watcher");
}
