//! The traced run (`--trace 1`): every per-layer metric, each measured on
//! the workload its table row names, with spans recorded from this crate
//! around calls into each layer's public functions — nothing inside the
//! program changes. For `paper_cold` one untraced harness execution is
//! run too, so the two `bench.*` metrics can compare the traced pass
//! against it; `policy_sweep` and `serve_open` have their untraced
//! counterparts in the passes every traced run makes.

use std::io;
use std::time::Instant;

use softwatt::{CpuModel, TraceKey, TraceStore};

use crate::gen::Lane;
use crate::summary::tail_percentile;
use crate::{paper, probes, serve, sweep};
use crate::{Env, Metrics, Outcome, Workload};

/// Sweeps per pass in the sweep comparison.
const SWEEPS: usize = 4;
/// Longest serve session in a traced run, seconds.
const SERVE_SECONDS: f64 = 10.0;

/// Runs the layer profile; `workload` selects the untraced pass the two
/// `bench.*` metrics compare against.
pub fn run(env: &Env, workload: Workload, seed: u64, seconds: f64) -> io::Result<Outcome> {
    let mut m = Metrics::default();
    let mut attempted = 0u64;
    let mut failed = 0u64;

    // paper_cold: the capture ledger.
    let untraced_harness = match workload {
        Workload::PaperCold => {
            let run = paper::execute(env, paper::SCALE, &std::fs::read(paper::GOLDEN)?)?;
            attempted += 1;
            failed += u64::from(!run.ok);
            Some(run.wall_s)
        }
        _ => None,
    };
    let ledger = paper::ledger(paper::SCALE);
    ledger.print(untraced_harness);
    m.set("core.capture_s", ledger.rows.iter().map(|r| r.host_s).sum());
    m.set("core.capture_count", ledger.rows.len() as f64);
    for (name, cpu) in [
        ("cpu.ns_per_cycle.mipsy", CpuModel::Mipsy),
        ("cpu.ns_per_cycle.mxs1", CpuModel::MxsSingleIssue),
        ("cpu.ns_per_cycle.mxs", CpuModel::Mxs),
    ] {
        m.set(name, ledger.ns_per_cycle(cpu));
    }
    let c = ledger.counts;
    for (name, v) in [
        ("cpu.cycles", c.cycles),
        ("cpu.instrs", c.instrs),
        ("mem.icache_miss", c.icache_miss),
        ("mem.dcache_miss", c.dcache_miss),
        ("mem.l2_miss", c.l2_miss),
        ("os.kernel_cycles", c.kernel_cycles),
        ("disk.requests", c.disk_requests),
        ("disk.spinups", c.disk_spinups),
    ] {
        m.set(name, v as f64);
    }
    let (instr_ns, access_ns) = probes::workload_and_mem(paper::SCALE);
    m.set("workloads.instr_ns", instr_ns);
    m.set("mem.access_ns", access_ns);

    // policy_sweep: decode, then the same sweeps untraced and traced.
    let dir = env.filled_store(sweep::SCALE)?;
    let (traces, decode_s) = sweep::load(&dir)?;
    let store = TraceStore::open(&dir)?;
    let base = sweep::base_config();
    let bytes: u64 = traces
        .iter()
        .map(|t| {
            let path = store.entry_path(&TraceKey::derive(&base, t.benchmark, t.cpu));
            std::fs::metadata(path).map_or(0, |meta| meta.len())
        })
        .sum();
    m.set(
        "stats.decode_ns",
        decode_s.iter().sum::<f64>() * 1e9 / decode_s.len() as f64,
    );
    m.set("stats.trace_bytes", bytes as f64);
    let policies = sweep::policies(seed);
    let untraced = sweep::sweeps(&traces, &policies, f64::INFINITY, SWEEPS)?;
    let mut spans = sweep::Spans::default();
    let t = Instant::now();
    for _ in 0..SWEEPS {
        for tr in &traces {
            for &policy in &policies {
                let traced = sweep::replay_traced(tr, policy, &mut spans);
                attempted += 1;
                failed += u64::from(!(traced.1.is_finite() && traced.1 > 0.0));
            }
        }
    }
    let traced_sweep_s = t.elapsed().as_secs_f64();
    // The span-assembled result must be the public replay's, exactly.
    for tr in &traces {
        let mut scratch = sweep::Spans::default();
        let ok = sweep::same_run(
            &sweep::replay_traced(tr, policies[2], &mut scratch),
            &sweep::replay(tr, policies[2]),
        );
        attempted += 1;
        failed += u64::from(!ok);
    }
    let per = |s: f64| s * 1e9 / spans.results as f64;
    m.set("disk.replay_ns", per(spans.disk_s));
    m.set("stats.replay_ns", per(spans.stats_s));
    m.set("power.post_ns", per(spans.power_s));
    println!(
        "profile: sweep of {} results: untraced {:.4} s, traced {:.4} s; spans disk {:.4} s, \
         stats {:.4} s, power {:.4} s",
        spans.results,
        untraced.sweep_s.iter().sum::<f64>(),
        traced_sweep_s,
        spans.disk_s,
        spans.stats_s,
        spans.power_s
    );

    // serve_open: a server session, then in-process render and parse
    // probes on its inputs.
    let reference = serve::Reference::build(
        &env.filled_store(serve::SCALE)?,
        &env.scratch.join("ref-store"),
    )?;
    let session = serve::session(env, &reference, seed, seconds.min(SERVE_SECONDS))?;
    let (a, f) = session.tally(&reference);
    attempted += a;
    failed += f;
    for (name, lane) in [
        ("serve.lane.inline", Lane::Inline),
        ("serve.lane.replay", Lane::Replay),
        ("serve.lane.cold", Lane::Cold),
    ] {
        m.set(name, session.lane_count(lane) as f64);
    }
    m.set("serve.latency_p99_us", session.latency_us(0.99));
    m.set(
        "serve.cpu_us_per_req",
        session.server_cpu_s * 1e6 / session.answered().max(1) as f64,
    );
    let mut lags: Vec<f64> = session
        .inline
        .iter()
        .chain(&session.background)
        .filter_map(|r| r.send_lag())
        .map(|d| d.as_secs_f64() * 1e6)
        .collect();
    lags.sort_by(f64::total_cmp);
    let last = lags.last().copied().unwrap_or(0.0);
    m.set(
        "serve.send_lag_p50_us",
        tail_percentile(&lags, 0.5).unwrap_or(last),
    );
    m.set(
        "serve.send_lag_p99_us",
        tail_percentile(&lags, 0.99).unwrap_or(last),
    );
    let t = Instant::now();
    let (render_ns, figure_ns) = probes::render(&reference, 200);
    m.set("core.render_ns", render_ns);
    m.set("core.figure_ns", figure_ns);
    let (http_ns, json_ns, body_share) = probes::parse(&session.plan, 50_000);
    m.set("serve.http_parse_ns", http_ns);
    m.set("serve.json_parse_ns", json_ns);
    let probes_ns = t.elapsed().as_nanos() as f64;
    let cpu_ns_per_req = session.server_cpu_s * 1e9 / session.answered().max(1) as f64;
    let parse_ns_per_req = http_ns + json_ns * body_share;
    println!(
        "profile: server CPU {cpu_ns_per_req:.0} ns per request, of which parse spans \
         {parse_ns_per_req:.0} ns"
    );

    // The traced pass against the named workload's untraced pass.
    let (residual, overhead) = match workload {
        Workload::PaperCold => {
            let u = untraced_harness.expect("ran above");
            (
                100.0 * (u - ledger.attributed_s()) / u,
                100.0 * (ledger.wall_s - u) / u,
            )
        }
        Workload::PolicySweep => {
            let u: f64 = untraced.sweep_s.iter().sum();
            let spans_s = spans.disk_s + spans.stats_s + spans.power_s;
            (100.0 * (u - spans_s) / u, 100.0 * (traced_sweep_s - u) / u)
        }
        // The session itself carries no spans, so its requests are timed
        // exactly as untraced; what the traced pass adds is the probes'
        // own clock reads (four spans). Server CPU per request is the
        // untraced figure the parse spans are held against: inline
        // answers come from the render cache, so parsing is the span
        // work each request does.
        Workload::ServeOpen => (
            100.0 * (cpu_ns_per_req - parse_ns_per_req) / cpu_ns_per_req,
            100.0 * 4.0 * probes::span_cost_ns() / probes_ns,
        ),
    };
    m.set("bench.trace_residual_pct", residual);
    m.set("bench.trace_overhead_pct", overhead);
    Ok(Outcome {
        attempted,
        failed,
        metrics: m,
    })
}
