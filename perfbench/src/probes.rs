//! Standalone per-layer probes: each times one layer's public functions
//! on the inputs the workloads feed it, outside the simulator loop.

use std::sync::Arc;
use std::time::Instant;

use softwatt::experiments::RunBundle;
use softwatt::{Benchmark, SystemConfig};
use softwatt_isa::{InstrSource as _, OpClass};
use softwatt_mem::MemHierarchy;
use softwatt_serve::{http, json};
use softwatt_stats::StatsCollector;
use softwatt_workloads::Workload;

use crate::gen::Plan;
use crate::serve::Reference;

/// Instructions generated per timed batch (then replayed through the
/// memory hierarchy).
const BATCH: usize = 1 << 16;

/// Host ns per instruction for `Workload::new` plus draining
/// `next_instr` over the six canned specs at the paper harness's scale,
/// and host ns per `MemHierarchy::fetch`/`data_access` over the same
/// pc/address stream.
pub fn workload_and_mem(scale: f64) -> (f64, f64) {
    let config = SystemConfig {
        time_scale: scale,
        ..SystemConfig::default()
    };
    let clocking = config.clocking();
    let (mut gen_ns, mut mem_ns) = (0u128, 0u128);
    let (mut instrs, mut accesses) = (0u64, 0u64);
    let mut batch = Vec::with_capacity(BATCH);
    for &b in &Benchmark::ALL {
        let mut stats = StatsCollector::new(clocking, config.sample_interval_cycles);
        let mut mem = MemHierarchy::new(config.mem);
        let t = Instant::now();
        let mut workload = Workload::new(b.spec(), clocking, config.seed);
        gen_ns += t.elapsed().as_nanos();
        loop {
            batch.clear();
            let t = Instant::now();
            while batch.len() < BATCH {
                match workload.next_instr(&mut stats) {
                    Some(i) => batch.push(i),
                    None => break,
                }
            }
            gen_ns += t.elapsed().as_nanos();
            if batch.is_empty() {
                break;
            }
            instrs += batch.len() as u64;
            let t = Instant::now();
            for i in &batch {
                std::hint::black_box(mem.fetch(i.pc, &mut stats));
                if let Some(addr) = i.mem_addr {
                    std::hint::black_box(mem.data_access(addr, i.op == OpClass::Store, &mut stats));
                    accesses += 1;
                }
            }
            mem_ns += t.elapsed().as_nanos();
            accesses += batch.len() as u64;
        }
    }
    (
        gen_ns as f64 / instrs.max(1) as f64,
        mem_ns as f64 / accesses.max(1) as f64,
    )
}

/// Host ns per `softwatt::json::run_bundle` over the paper-grid bundles,
/// and per `softwatt::json::figure` over every figure.
pub fn render(reference: &Reference, reps: usize) -> (f64, f64) {
    let bundles: Vec<Arc<RunBundle>> = reference
        .grid
        .iter()
        .map(|&k| reference.suite.run_key(k))
        .collect();
    let t = Instant::now();
    for _ in 0..reps {
        for (&key, bundle) in reference.grid.iter().zip(&bundles) {
            std::hint::black_box(softwatt::json::run_bundle(key, bundle));
        }
    }
    let run_ns = t.elapsed().as_nanos() as f64 / (reps * bundles.len()) as f64;
    let reps = reps.div_ceil(10);
    let t = Instant::now();
    for _ in 0..reps {
        for name in softwatt::json::FIGURES {
            std::hint::black_box(softwatt::json::figure(&reference.suite, name));
        }
    }
    let figure_ns = t.elapsed().as_nanos() as f64 / (reps * softwatt::json::FIGURES.len()) as f64;
    (run_ns, figure_ns)
}

/// Host ns per `serve::http::parse_request` over the plan's request
/// bytes, per `serve::json::parse` (plus `spec_from_value` for posted
/// specs) over their bodies, and the share of requests with a body.
pub fn parse(plan: &Plan, max_requests: usize) -> (f64, f64, f64) {
    let inline = (0..plan.inline.len().min(max_requests)).map(|i| plan.inline.bytes(i));
    let background = (0..plan.background.len()).map(|i| plan.background.bytes(i));
    let requests: Vec<&[u8]> = inline.chain(background).collect();
    let limits = http::Limits::default();
    let t = Instant::now();
    let parsed: Vec<http::Request> = requests
        .iter()
        .map(|bytes| {
            let (req, used) = http::parse_request(bytes, &limits)
                .expect("well-formed request")
                .expect("complete request");
            debug_assert_eq!(used, bytes.len());
            req
        })
        .collect();
    let http_ns = t.elapsed().as_nanos() as f64 / requests.len().max(1) as f64;
    let bodies: Vec<&[u8]> = parsed
        .iter()
        .filter(|r| !r.body.is_empty())
        .map(|r| r.body.as_slice())
        .collect();
    let t = Instant::now();
    for body in &bodies {
        let value = json::parse(body).expect("well-formed body");
        if let Some(spec) = value.get("spec") {
            std::hint::black_box(json::spec_from_value(spec).expect("valid spec"));
        }
        std::hint::black_box(value);
    }
    let json_ns = t.elapsed().as_nanos() as f64 / bodies.len().max(1) as f64;
    let body_share = bodies.len() as f64 / requests.len().max(1) as f64;
    (http_ns, json_ns, body_share)
}

/// Host ns per span: one pair of clock reads, as every span takes.
pub fn span_cost_ns() -> f64 {
    const PAIRS: u32 = 100_000;
    let t = Instant::now();
    for _ in 0..PAIRS {
        std::hint::black_box(Instant::now().elapsed());
    }
    t.elapsed().as_nanos() as f64 / f64::from(PAIRS)
}
