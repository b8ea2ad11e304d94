//! The open-loop traffic for `serve_open`: a seeded request plan split
//! across two keep-alive connections, and the loop that sends each
//! request when it is due and times its response from that due time.
//!
//! Connection 0 carries the inline mix (paper-grid `/v1/run` queries and
//! `/v1/figures/*`); connection 1 carries the cold lane (never-seen user
//! specs) and the replay lane (new disk setups on specs already
//! captured). Responses on one connection arrive in request order, so a
//! capture on connection 1 can never hold up an inline answer.

use std::io::{self, Read as _, Write as _};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd as _;
use std::time::{Duration, Instant};

use softwatt::experiments::{DiskSetup, RunKey};
use softwatt::{Benchmark, BenchmarkSpec};

use crate::summary::Rng;
use crate::sys;

/// Share of inline requests that fetch a figure instead of a run: the
/// repository's `loadgen` mix sends a figure in one slot of ten (its
/// health and metrics probe slots are grid runs here).
const FIGURE_SHARE: f64 = 0.1;
/// Seconds between never-seen specs on the cold lane. No recorded
/// traffic fixes this rate; one jess-shaped capture every 2 s keeps
/// captures rare next to the inline stream while giving a 30 s window
/// over a dozen of them.
const COLD_EVERY_S: f64 = 2.0;
/// The disk setups each captured spec is then replayed through, and the
/// delay after its capture request at which each is sent (spread evenly
/// over the cold interval). Four replays per capture is close to
/// `loadgen`'s off-grid mix, which replays 18 keys for its 4 cold ones.
const REPLAYS: [(DiskSetup, f64); 4] = [
    (DiskSetup::IdleOnly, 0.4),
    (DiskSetup::Standby2s, 0.8),
    (DiskSetup::Standby4s, 1.2),
    (DiskSetup::SleepExt, 1.6),
];

/// What a request asks for, which fixes how its answer is checked.
#[derive(Debug, Clone, PartialEq)]
pub enum Ask {
    /// `/v1/run` for the paper-grid key at this index.
    Grid(usize),
    /// `/v1/figures/{name}` for `softwatt::json::FIGURES[i]`.
    Figure(usize),
    /// `/v1/run` for the plan's spec `i` on `disk` (the first request for
    /// a spec posts it and is a capture; later ones replay it).
    Spec(usize, DiskSetup),
}

/// One connection's requests in send order. Distinct requests are stored
/// once in `table`; each scheduled request is a due time and a table
/// index, so a window of millions of requests stays small.
#[derive(Debug, Clone, Default)]
pub struct Schedule {
    /// Distinct requests: what each asks for, and its HTTP/1.1 bytes.
    pub table: Vec<(Ask, Vec<u8>)>,
    /// Due time of each request, in ns from the start of the window.
    pub due_ns: Vec<u64>,
    /// Table index of each request.
    pub pick: Vec<u32>,
}

impl Schedule {
    /// Every table entry once, all due at the start (a warm-up burst).
    pub fn burst(table: Vec<(Ask, Vec<u8>)>) -> Schedule {
        let n = table.len();
        Schedule {
            table,
            due_ns: vec![0; n],
            pick: (0..n as u32).collect(),
        }
    }

    /// Number of scheduled requests.
    pub fn len(&self) -> usize {
        self.pick.len()
    }

    /// What request `i` asks for.
    pub fn ask(&self, i: usize) -> &Ask {
        &self.table[self.pick[i] as usize].0
    }

    /// The bytes of request `i`.
    pub fn bytes(&self, i: usize) -> &[u8] {
        &self.table[self.pick[i] as usize].1
    }

    fn push(&mut self, due: f64, entry: usize) {
        self.due_ns.push((due * 1e9).round() as u64);
        self.pick.push(entry as u32);
    }
}

/// The whole window's traffic.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Connection 0: the inline mix.
    pub inline: Schedule,
    /// Connection 1: cold captures and replays of them.
    pub background: Schedule,
    /// The user specs the cold lane posts, in order.
    pub specs: Vec<BenchmarkSpec>,
}

fn http(method: &str, path: &str, body: &str) -> Vec<u8> {
    let mut out = format!("{method} {path} HTTP/1.1\r\nHost: perfbench\r\n");
    if !body.is_empty() {
        out.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    out.push_str("\r\n");
    out.push_str(body);
    out.into_bytes()
}

/// Every paper-grid `/v1/run` query and every figure request: the
/// inline connection's table (grid keys first, in grid order).
pub fn inline_table(grid: &[RunKey]) -> Vec<(Ask, Vec<u8>)> {
    let runs = grid.iter().enumerate().map(|(k, &key)| {
        // The API accepts its own key rendering back as a query.
        (
            Ask::Grid(k),
            http("POST", "/v1/run", &softwatt::json::run_key(key)),
        )
    });
    let figures = softwatt::json::FIGURES.iter().enumerate().map(|(f, name)| {
        (
            Ask::Figure(f),
            http("GET", &format!("/v1/figures/{name}"), ""),
        )
    });
    runs.chain(figures).collect()
}

/// A never-seen user spec: jess's spec (the cheapest canned capture),
/// renamed and cut to 5-7.5% of its duration, jittered, so each has a new
/// content hash and its capture takes a few milliseconds of a worker:
/// the cold lane then occupies well under 1% of the window, and the
/// reported p99 is the inline tail unless captures start to hold up
/// inline answers.
fn user_spec(rng: &mut Rng, seed: u64, index: usize) -> BenchmarkSpec {
    let mut spec = Benchmark::Jess.spec();
    spec.name = format!("pb-{seed:x}-{index}");
    spec.duration_s *= rng.range(0.05, 0.075);
    spec.validate().expect("jittered canned spec stays valid");
    spec
}

fn spec_request(spec: &BenchmarkSpec, disk: DiskSetup, first: bool) -> Vec<u8> {
    let workload = if first {
        format!("\"spec\": {}", softwatt::json::benchmark_spec(spec))
    } else {
        format!("\"workload\": \"spec:{:016x}\"", spec.content_hash())
    };
    let body = format!(
        "{{{workload}, \"cpu\": \"mxs\", \"disk\": \"{}\"}}",
        disk.name()
    );
    http("POST", "/v1/run", &body)
}

/// Builds the window's traffic from `seed`: `rate` inline requests per
/// second at even spacing for `seconds`, plus one new spec every
/// [`COLD_EVERY_S`] and its [`REPLAYS`].
pub fn plan(seed: u64, rate: f64, seconds: f64, grid: &[RunKey]) -> Plan {
    let mut rng = Rng::new(seed, 0x5e7e);
    let mut inline = Schedule {
        table: inline_table(grid),
        ..Schedule::default()
    };
    for i in 0..(rate * seconds).round() as usize {
        let entry = if rng.unit() < FIGURE_SHARE {
            grid.len() + rng.below(softwatt::json::FIGURES.len())
        } else {
            rng.below(grid.len())
        };
        inline.push(i as f64 / rate, entry);
    }
    let mut background = Schedule::default();
    let mut specs = Vec::new();
    let mut at = 0.25;
    while at + REPLAYS[REPLAYS.len() - 1].1 < seconds {
        let index = specs.len();
        let spec = user_spec(&mut rng, seed, index);
        let first = std::iter::once((DiskSetup::Conventional, 0.0));
        for (disk, after) in first.chain(REPLAYS) {
            let bytes = spec_request(&spec, disk, after == 0.0);
            background.table.push((Ask::Spec(index, disk), bytes));
            background.push(at + after, background.table.len() - 1);
        }
        specs.push(spec);
        at += COLD_EVERY_S;
    }
    Plan {
        inline,
        background,
        specs,
    }
}

/// The lane a response reports in `X-Softwatt-Lane`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Lane {
    /// No lane header, or a label the benchmark does not expect.
    #[default]
    None,
    /// Answered on the reactor.
    Inline,
    /// Trace replay on a worker.
    Replay,
    /// Full simulation on a worker.
    Cold,
}

/// How a response body compared with the expected bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Check {
    /// No expectation was given; the body was kept for a later check.
    #[default]
    Kept,
    /// Byte-identical.
    Match,
    /// Different.
    Mismatch,
}

/// Marks a time that never happened.
const NEVER: u64 = u64::MAX;

/// What happened to one request (times in ns from the window start).
#[derive(Debug, Clone, Copy)]
pub struct Record {
    /// When it was due.
    pub due_ns: u64,
    /// When its response was complete ([`NEVER`] if it never came).
    done_ns: u64,
    /// How late it was handed to the socket (saturating; [`u32::MAX`]
    /// if it never was).
    lag_ns: u32,
    /// HTTP status (0 if no response).
    pub status: u16,
    /// Reported lane.
    pub lane: Lane,
    /// Body check.
    pub check: Check,
}

impl Record {
    /// Latency from the due time, not the send time: a stalled generator
    /// or a backed-up connection charges its wait to every request
    /// behind it.
    pub fn latency(&self) -> Option<Duration> {
        (self.done_ns != NEVER)
            .then(|| Duration::from_nanos(self.done_ns.saturating_sub(self.due_ns)))
    }

    /// When the response was complete, from the window start.
    pub fn done(&self) -> Option<Duration> {
        (self.done_ns != NEVER).then(|| Duration::from_nanos(self.done_ns))
    }

    /// How late the request left the generator.
    pub fn send_lag(&self) -> Option<Duration> {
        (self.lag_ns != u32::MAX).then(|| Duration::from_nanos(u64::from(self.lag_ns)))
    }

    /// A 2xx whose body matched.
    pub fn verified(&self) -> bool {
        (200..300).contains(&self.status) && self.check == Check::Match
    }
}

/// One connection's records, plus the bodies that were kept because no
/// expectation was given (by request index).
pub struct Driven {
    pub records: Vec<Record>,
    pub kept: Vec<(usize, Vec<u8>)>,
}

/// A parsed response head plus where its body lies in the buffer.
struct Head {
    status: u16,
    lane: Lane,
    body: std::ops::Range<usize>,
}

fn parse_response(buf: &[u8]) -> Option<Head> {
    let head_len = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_len]).ok()?;
    let mut lines = head.split("\r\n");
    let status = lines.next()?.split_whitespace().nth(1)?.parse().ok()?;
    let mut len = 0usize;
    let mut lane = Lane::None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            len = value.parse().ok()?;
        } else if name.eq_ignore_ascii_case("x-softwatt-lane") {
            lane = match value {
                "inline" => Lane::Inline,
                "replay" => Lane::Replay,
                "cold" => Lane::Cold,
                _ => Lane::None,
            };
        }
    }
    (buf.len() >= head_len + len).then_some(Head {
        status,
        lane,
        body: head_len..head_len + len,
    })
}

/// Sends `schedule` over `stream` on time from `start` (pipelined: a
/// request never waits for an earlier answer) and collects every response
/// until all are in or `drain` has passed after the last due time.
/// `expected(ask)` gives the body an answer must equal, or `None` to keep
/// the body for a later check.
pub fn drive<'a>(
    mut stream: TcpStream,
    schedule: &Schedule,
    start: Instant,
    drain: Duration,
    expected: &dyn Fn(&Ask) -> Option<&'a [u8]>,
) -> io::Result<Driven> {
    sys::tight_timer_slack();
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    let fd = stream.as_raw_fd();
    let n = schedule.len();
    let mut records: Vec<Record> = schedule
        .due_ns
        .iter()
        .map(|&due_ns| Record {
            due_ns,
            done_ns: NEVER,
            lag_ns: u32::MAX,
            status: 0,
            lane: Lane::None,
            check: Check::Kept,
        })
        .collect();
    let mut kept = Vec::new();
    let last_due = schedule.due_ns.last().copied().unwrap_or(0);
    let deadline = start + Duration::from_nanos(last_due) + drain;
    let ns = |t: Instant| t.saturating_duration_since(start).as_nanos() as u64;
    let (mut next_send, mut next_recv) = (0usize, 0usize);
    let mut out: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut out_pos = 0usize;
    let mut inbuf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut in_pos = 0usize;
    let mut chunk = vec![0u8; 1 << 16];
    'outer: while next_recv < n {
        let now = ns(Instant::now());
        while next_send < n && schedule.due_ns[next_send] <= now {
            out.extend_from_slice(schedule.bytes(next_send));
            let lag = now - schedule.due_ns[next_send];
            records[next_send].lag_ns = lag.min(u64::from(u32::MAX - 1)) as u32;
            next_send += 1;
        }
        while out_pos < out.len() {
            match stream.write(&out[out_pos..]) {
                Ok(k) => out_pos += k,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break 'outer,
            }
        }
        if out_pos == out.len() {
            out.clear();
            out_pos = 0;
        }
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => break 'outer,
                Ok(k) => inbuf.extend_from_slice(&chunk[..k]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break 'outer,
            }
        }
        let arrived = ns(Instant::now());
        while next_recv < next_send {
            let Some(head) = parse_response(&inbuf[in_pos..]) else {
                break;
            };
            let body = &inbuf[in_pos + head.body.start..in_pos + head.body.end];
            let rec = &mut records[next_recv];
            rec.done_ns = arrived;
            rec.status = head.status;
            rec.lane = head.lane;
            rec.check = match expected(schedule.ask(next_recv)) {
                Some(want) if body == want => Check::Match,
                Some(_) => Check::Mismatch,
                None => {
                    kept.push((next_recv, body.to_vec()));
                    Check::Kept
                }
            };
            in_pos += head.body.end;
            next_recv += 1;
        }
        if in_pos > 0 && in_pos * 2 >= inbuf.len() {
            inbuf.drain(..in_pos);
            in_pos = 0;
        }
        let now = Instant::now();
        if next_recv == n || now >= deadline {
            break;
        }
        let wake = match schedule.due_ns.get(next_send) {
            Some(&due) => start + Duration::from_nanos(due),
            None => deadline,
        };
        let events = if out.is_empty() {
            sys::POLLIN
        } else {
            sys::POLLIN | sys::POLLOUT
        };
        let wait = wake.saturating_duration_since(now);
        if !wait.is_zero() {
            sys::poll_one(fd, events, wait)?;
        }
    }
    Ok(Driven { records, kept })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn grid() -> Vec<RunKey> {
        let config = softwatt::SystemConfig {
            time_scale: 50_000.0,
            ..softwatt::SystemConfig::default()
        };
        softwatt::ExperimentSuite::new(config).unwrap().paper_grid()
    }

    /// Every request's due time and bytes, in send order.
    fn sequence(s: &Schedule) -> Vec<(u64, Vec<u8>)> {
        (0..s.len())
            .map(|i| (s.due_ns[i], s.bytes(i).to_vec()))
            .collect()
    }

    #[test]
    fn a_seed_yields_a_byte_identical_request_sequence() {
        let g = grid();
        let a = plan(42, 2000.0, 5.0, &g);
        let b = plan(42, 2000.0, 5.0, &g);
        assert_eq!(sequence(&a.inline), sequence(&b.inline));
        assert_eq!(sequence(&a.background), sequence(&b.background));
        let c = plan(43, 2000.0, 5.0, &g);
        assert_ne!(sequence(&a.inline), sequence(&c.inline));
        assert_ne!(sequence(&a.background), sequence(&c.background));
    }

    #[test]
    fn cold_and_replay_requests_stay_off_the_inline_connection() {
        let g = grid();
        let p = plan(7, 1000.0, 10.0, &g);
        assert_eq!(p.inline.len(), 10_000);
        let inline_asks: Vec<&Ask> = (0..p.inline.len()).map(|i| p.inline.ask(i)).collect();
        assert!(inline_asks
            .iter()
            .all(|a| matches!(a, Ask::Grid(_) | Ask::Figure(_))));
        assert!(inline_asks.iter().any(|a| matches!(a, Ask::Figure(_))));
        for (_, bytes) in &p.inline.table {
            let text = String::from_utf8_lossy(bytes);
            assert!(!text.contains("\"spec\"") && !text.contains("spec:"));
        }
        assert!(p.background.len() > 0);
        // Each spec is posted once (its capture) and then replayed through
        // every other disk setup, later, on the background connection.
        for (i, spec) in p.specs.iter().enumerate() {
            let mine: Vec<usize> = (0..p.background.len())
                .filter(|&r| matches!(p.background.ask(r), Ask::Spec(j, _) if *j == i))
                .collect();
            assert_eq!(mine.len(), 1 + REPLAYS.len());
            assert_eq!(
                p.background.ask(mine[0]),
                &Ask::Spec(i, DiskSetup::Conventional)
            );
            let first = String::from_utf8_lossy(p.background.bytes(mine[0])).into_owned();
            assert!(first.contains(&spec.name));
            assert!(mine
                .windows(2)
                .all(|w| p.background.due_ns[w[0]] < p.background.due_ns[w[1]]));
        }
    }

    /// A pipelining server: answers each request, in order, with a fixed
    /// body.
    fn stub_server(listener: TcpListener) {
        let (mut s, _) = listener.accept().unwrap();
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            while let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                buf.drain(..end + 4);
                let resp =
                    "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nX-Softwatt-Lane: inline\r\n\r\nok";
                s.write_all(resp.as_bytes()).unwrap();
            }
            match s.read(&mut chunk) {
                Ok(0) | Err(_) => return,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
            }
        }
    }

    #[test]
    fn latency_is_timed_from_the_due_time_not_the_send_time() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || stub_server(listener));
        let mut schedule = Schedule {
            table: inline_table(&grid())[..1].to_vec(),
            ..Schedule::default()
        };
        for i in 0..40 {
            schedule.push(i as f64 * 1e-3, 0);
        }
        // The generator starts 200 ms behind schedule: every request goes
        // out late, as after a stall.
        let start = Instant::now() - Duration::from_millis(200);
        let stream = TcpStream::connect(addr).unwrap();
        let want: &[u8] = b"ok";
        let driven = drive(stream, &schedule, start, Duration::from_secs(5), &|_| {
            Some(want)
        })
        .unwrap();
        server.join().unwrap();
        assert!(driven.kept.is_empty());
        for r in &driven.records {
            assert!(r.verified());
            assert_eq!(r.lane, Lane::Inline);
            let lag = r.send_lag().unwrap();
            assert!(lag >= Duration::from_millis(160), "sent on time: {lag:?}");
            // Measured from the send, latency would be microseconds; from
            // the due time it carries the whole lag.
            assert!(r.latency().unwrap() >= lag);
        }
    }
}
