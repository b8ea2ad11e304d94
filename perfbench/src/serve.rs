//! `serve_open`: `softwatt-serve --scale 50000`, warm-started from a
//! trace store filled before timing, under the open-loop traffic of
//! [`crate::gen`]. Every response body is checked against the bytes
//! `softwatt::json` renders in-process for the same key.

use std::io::{self, BufRead as _, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use softwatt::experiments::{ExperimentSuite, RunKey};
use softwatt::{CpuModel, SystemConfig, TraceStore};

use crate::gen::{self, Ask, Lane, Plan, Record, Schedule};
use crate::summary::{median, tail_percentile};
use crate::sys;
use crate::{Env, Metrics, Outcome};

/// The server's time scale.
pub const SCALE: f64 = 50_000.0;
/// Offered inline rate, requests per second: about 0.3x the 205,000 at
/// which one pipelined connection saturated the server on the 2-core
/// machine the benchmark was tuned on (at half that rate the tail was
/// unsteady from run to run).
pub const RATE: f64 = 64000.0;
/// The latency limit a request must meet to count toward goodput.
pub const LIMIT: Duration = Duration::from_millis(1);
/// Server starts timed per run for `setup_s`.
const START_PROBES: usize = 9;
/// How long responses may trail the last due time.
const DRAIN: Duration = Duration::from_secs(10);

pub fn config() -> SystemConfig {
    SystemConfig {
        time_scale: SCALE,
        ..SystemConfig::default()
    }
}

/// Copies every entry of the filled store into a fresh directory, so a
/// run's captures never leak into the next run's warm start.
fn copy_store(from: &Path, to: &Path) -> io::Result<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let path = entry?.path();
        if path.extension().is_some_and(|e| e == "swtrace") {
            std::fs::copy(&path, to.join(path.file_name().expect("file name")))?;
        }
    }
    Ok(())
}

/// The in-process answers the served bodies must equal.
pub struct Reference {
    pub suite: ExperimentSuite,
    pub grid: Vec<RunKey>,
    pub runs: Vec<String>,
    pub committed: Vec<u64>,
    pub figures: Vec<String>,
}

impl Reference {
    /// Renders every paper-grid bundle and figure from a private copy of
    /// the filled store.
    pub fn build(filled: &Path, dir: &Path) -> io::Result<Reference> {
        copy_store(filled, dir)?;
        let suite = ExperimentSuite::new(config())
            .map_err(io::Error::other)?
            .with_trace_store(TraceStore::open(dir)?);
        let grid = suite.paper_grid();
        suite.prewarm_from_store(&grid);
        let mut runs = Vec::new();
        let mut committed = Vec::new();
        for &key in &grid {
            let bundle = suite.run_key(key);
            runs.push(softwatt::json::run_bundle(key, &bundle));
            committed.push(bundle.run.committed);
        }
        let figures = softwatt::json::FIGURES
            .iter()
            .map(|name| softwatt::json::figure(&suite, name).expect("known figure"))
            .collect();
        Ok(Reference {
            suite,
            grid,
            runs,
            committed,
            figures,
        })
    }

    /// The expected body for a request whose answer is known up front.
    fn body(&self, ask: &Ask) -> Option<&[u8]> {
        match ask {
            Ask::Grid(k) => Some(self.runs[*k].as_bytes()),
            Ask::Figure(f) => Some(self.figures[*f].as_bytes()),
            Ask::Spec(..) => None,
        }
    }

    /// The in-process body and committed count for a spec request.
    fn spec_answer(&self, plan: &Plan, ask: &Ask) -> Option<(String, u64)> {
        let Ask::Spec(i, disk) = ask else { return None };
        let workload = self.suite.register_spec(plan.specs[*i].clone()).ok()?;
        let key = RunKey {
            workload,
            cpu: CpuModel::Mxs,
            disk: *disk,
        };
        let bundle = self.suite.run_key(key);
        Some((
            softwatt::json::run_bundle(key, &bundle),
            bundle.run.committed,
        ))
    }
}

struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Server {
    /// Spawns the server and returns it with the seconds until it printed
    /// `listening on`.
    fn start(env: &Env, store: &Path) -> io::Result<(Server, f64)> {
        let t = Instant::now();
        let mut child = Command::new(&env.serve)
            .args(["--addr", "127.0.0.1:0", "--scale", &SCALE.to_string()])
            .arg("--trace-cache")
            .arg(store)
            .env_remove("SOFTWATT_TRACE_CACHE")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut line = String::new();
        let read = BufReader::new(child.stdout.take().expect("piped stdout")).read_line(&mut line);
        let secs = t.elapsed().as_secs_f64();
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok((Server { child, addr }, secs)),
            (read, _) => {
                sys::signal(child.id(), sys::SIGKILL);
                sys::reap(child.id())?;
                read?;
                Err(io::Error::other(format!("server said {line:?}")))
            }
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    fn stop(self, sig: i32) -> io::Result<Option<i32>> {
        sys::signal(self.pid(), sig);
        Ok(sys::reap(self.pid())?.code)
    }
}

/// Everything one server session measured.
pub struct Session {
    pub setups_s: Vec<f64>,
    pub warmup: Vec<Record>,
    pub inline: Vec<Record>,
    pub background: Vec<Record>,
    pub plan: Plan,
    pub seconds: f64,
    /// Per background request: body matched the in-process answer, and
    /// that answer's committed instruction count.
    pub background_ok: Vec<(bool, u64)>,
    pub server_cpu_s: f64,
    pub server_rss_mb: f64,
    pub server_exit: Option<i32>,
}

/// Starts the server (timing several starts), warms every grid key and
/// figure, then runs `seconds` of open-loop traffic and stops it.
pub fn session(env: &Env, reference: &Reference, seed: u64, seconds: f64) -> io::Result<Session> {
    let filled = env.filled_store(SCALE)?;
    let store: PathBuf = env.scratch.join("serve-store");
    copy_store(&filled, &store)?;
    let plan = gen::plan(seed, RATE, seconds, &reference.grid);
    let mut setups_s = Vec::new();
    let mut server = None;
    for i in 0..START_PROBES {
        let (s, secs) = Server::start(env, &store)?;
        setups_s.push(secs);
        if i + 1 < START_PROBES {
            s.stop(sys::SIGKILL)?;
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("one start kept");
    let addr = server.addr;
    let result = (|| {
        // Warm-up: first touch of every grid key replays its stored trace
        // and renders; first touch of every figure renders it. Afterwards
        // the inline mix is answered from the render caches.
        let warm = Schedule::burst(gen::inline_table(&reference.grid));
        let warmup = gen::drive(
            TcpStream::connect(addr)?,
            &warm,
            Instant::now(),
            DRAIN,
            &|ask| reference.body(ask),
        )?;
        let inline_conn = TcpStream::connect(addr)?;
        let background_conn = TcpStream::connect(addr)?;
        let cpu0 = sys::cpu_seconds(server.pid()).unwrap_or(0.0);
        let start = Instant::now() + Duration::from_millis(20);
        let (inline, background) = std::thread::scope(|s| {
            let bg =
                s.spawn(|| gen::drive(background_conn, &plan.background, start, DRAIN, &|_| None));
            let inline = gen::drive(inline_conn, &plan.inline, start, DRAIN, &|ask| {
                reference.body(ask)
            });
            (inline, bg.join().expect("generator thread"))
        });
        let server_cpu_s = sys::cpu_seconds(server.pid()).unwrap_or(0.0) - cpu0;
        let server_rss_mb = sys::peak_rss_mb(server.pid()).unwrap_or(0.0);
        Ok::<_, io::Error>((warmup, inline?, background?, server_cpu_s, server_rss_mb))
    })();
    let server_exit = server.stop(sys::SIGTERM)?;
    let _ = std::fs::remove_dir_all(&store);
    let (warmup, inline, background, server_cpu_s, server_rss_mb) = result?;
    let mut background_ok = vec![(false, 0); plan.background.len()];
    for (i, body) in &background.kept {
        if let Some((want, committed)) = reference.spec_answer(&plan, plan.background.ask(*i)) {
            background_ok[*i] = (*body == want.into_bytes(), committed);
        }
    }
    Ok(Session {
        setups_s,
        warmup: warmup.records,
        inline: inline.records,
        background: background.records,
        plan,
        seconds,
        background_ok,
        server_cpu_s,
        server_rss_mb,
        server_exit,
    })
}

impl Session {
    fn window(&self) -> impl Iterator<Item = &Record> {
        self.inline.iter().chain(&self.background)
    }

    /// Every window request: whether it got a 2xx with a verified body,
    /// its record, and — for `/v1/run` — the committed instruction count
    /// of the energy result it carries.
    fn verified(&self, reference: &Reference) -> Vec<(bool, &Record, Option<u64>)> {
        let inline = self.inline.iter().enumerate().map(|(i, rec)| {
            let committed = match self.plan.inline.ask(i) {
                Ask::Grid(k) => Some(reference.committed[*k]),
                _ => None,
            };
            (rec.verified(), rec, committed)
        });
        let background =
            self.background
                .iter()
                .zip(&self.background_ok)
                .map(|(rec, &(ok, committed))| {
                    ((200..300).contains(&rec.status) && ok, rec, Some(committed))
                });
        inline.chain(background).collect()
    }

    /// Requests attempted and failed, warm-up and the server's exit
    /// included. A failure is a transport error, a non-2xx status, a body
    /// mismatch, or a server exit other than 0.
    pub fn tally(&self, reference: &Reference) -> (u64, u64) {
        let warm_bad = self.warmup.iter().filter(|r| !r.verified()).count();
        let window_bad = self
            .verified(reference)
            .iter()
            .filter(|(ok, _, _)| !ok)
            .count();
        let exit_bad = usize::from(self.server_exit != Some(0));
        (
            (self.warmup.len() + self.inline.len() + self.background.len() + 1) as u64,
            (warm_bad + window_bad + exit_bad) as u64,
        )
    }

    /// The last response's arrival, from the window start.
    pub fn wall_s(&self) -> f64 {
        self.window()
            .filter_map(Record::done)
            .max()
            .unwrap_or_default()
            .as_secs_f64()
    }

    /// Responses per lane, window only.
    pub fn lane_count(&self, lane: Lane) -> u64 {
        self.window().filter(|r| r.lane == lane).count() as u64
    }

    /// Answered window requests.
    pub fn answered(&self) -> u64 {
        self.window().filter(|r| r.done().is_some()).count() as u64
    }

    /// Due-time latency of every answered window request, in µs, sorted.
    fn latencies(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .window()
            .filter_map(|r| Some(r.latency()?.as_secs_f64() * 1e6))
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The nearest-rank `p`-quantile of due-time latency over every
    /// answered window request, in µs.
    pub fn latency_us(&self, p: f64) -> f64 {
        let latencies = self.latencies();
        tail_percentile(&latencies, p).unwrap_or_else(|| {
            println!(
                "serve_open: too few latency samples for p{}; reporting the maximum",
                p * 100.0
            );
            latencies.last().copied().unwrap_or_default()
        })
    }

    /// The end-to-end metrics of this session.
    pub fn metrics(&self, reference: &Reference) -> Metrics {
        let verified = self.verified(reference);
        let good = verified
            .iter()
            .filter(|(ok, rec, _)| *ok && rec.latency().is_some_and(|l| l <= LIMIT))
            .count();
        let results: Vec<u64> = verified
            .iter()
            .filter_map(|(ok, _, committed)| committed.filter(|_| *ok))
            .collect();
        let committed: u64 = results.iter().sum();
        let wall = self.wall_s();
        println!(
            "serve_open: {} requests offered at {RATE} rps over {} s; {} latency samples; \
             {good} within {LIMIT:?} with verified bodies",
            self.plan.inline.len() + self.plan.background.len(),
            self.seconds,
            self.answered(),
        );
        for lane in [Lane::Inline, Lane::Replay, Lane::Cold] {
            let mut v: Vec<f64> = self
                .window()
                .filter(|r| r.lane == lane)
                .filter_map(|r| Some(r.latency()?.as_secs_f64() * 1e6))
                .collect();
            v.sort_by(f64::total_cmp);
            println!(
                "serve_open: lane {lane:?}: {} responses, median {:.1} us, max {:.1} us",
                v.len(),
                median(&v).unwrap_or_default(),
                v.last().copied().unwrap_or_default()
            );
        }
        let mut m = Metrics::default();
        m.set("setup_s", median(&self.setups_s).expect("probes ran"));
        m.set("wall_s", wall);
        m.set("sim_minstr_per_s", committed as f64 / 1e6 / wall);
        m.set("replays_per_s", results.len() as f64 / wall);
        m.set("peak_rss_mb", self.server_rss_mb);
        m.set("latency_p50_us", self.latency_us(0.5));
        println!("serve_open: latency p99 {:.1} us", self.latency_us(0.99));
        m.set("goodput_rps", good as f64 / self.seconds);
        m
    }
}

/// The untraced `serve_open` run.
pub fn run(env: &Env, seed: u64, seconds: f64) -> io::Result<Outcome> {
    let reference = Reference::build(&env.filled_store(SCALE)?, &env.scratch.join("ref-store"))?;
    let s = session(env, &reference, seed, seconds)?;
    let (attempted, failed) = s.tally(&reference);
    Ok(Outcome {
        attempted,
        failed,
        metrics: s.metrics(&reference),
    })
}
