//! Serialize-free JSON emission for run bundles and paper artifacts.
//!
//! The serving layer (`softwatt-serve`) exposes the experiment suite over
//! HTTP; its response bodies are assembled here so that a response is
//! *byte-identical* to the same query rendered in-process (the
//! `crates/serve` integration tests pin that equivalence). Like the
//! `softwatt-obs` export, everything is hand-assembled — the workspace has
//! no serde — and floats use Rust's shortest round-trip representation so
//! identical results serialize to identical bytes.

use std::fmt::Write as _;

use softwatt_power::UnitGroup;
use softwatt_stats::Mode;
use softwatt_workloads::BenchmarkSpec;

use crate::budget::{system_budget, SystemBudget};
use crate::experiments::{ExperimentSuite, RunBundle, RunKey};

/// The figure/table names [`figure`] understands, in presentation order.
pub const FIGURES: [&str; 7] = [
    "validation",
    "fig5",
    "fig6",
    "fig7",
    "fig9",
    "table2",
    "table4",
];

/// Appends `s` as a JSON string literal.
fn push_str_lit(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("write to string");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends a float as a JSON number (`{:?}` is the shortest representation
/// that round-trips, and is valid JSON for every finite value); non-finite
/// values become `null`.
fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        write!(out, "{v:?}").expect("write to string");
    } else {
        out.push_str("null");
    }
}

fn push_key(out: &mut String, key: &str) {
    push_str_lit(out, key);
    out.push_str(": ");
}

fn push_budget(out: &mut String, budget: &SystemBudget) {
    out.push_str("{\"groups\": {");
    for (i, (g, w)) in budget.groups.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_key(out, g.label());
        push_f64(out, w);
    }
    out.push_str("}, \"disk_w\": ");
    push_f64(out, budget.disk_w);
    out.push_str(", \"total_w\": ");
    push_f64(out, budget.total_w());
    out.push_str(", \"disk_pct\": ");
    push_f64(out, budget.disk_pct());
    out.push('}');
}

/// Renders a [`RunKey`] as the object the serving API accepts back as a
/// query: `{"benchmark", "cpu", "disk"}` for canned workloads (bytes
/// unchanged from before specs existed), `{"workload": "spec:<hash>",
/// "cpu", "disk"}` for registered user specs.
pub fn run_key(key: RunKey) -> String {
    let mut out = String::new();
    match key.workload.canned() {
        Some(benchmark) => {
            out.push_str("{\"benchmark\": ");
            push_str_lit(&mut out, benchmark.name());
        }
        None => {
            out.push_str("{\"workload\": ");
            push_str_lit(&mut out, &key.workload.label());
        }
    }
    out.push_str(", \"cpu\": ");
    push_str_lit(&mut out, key.cpu.name());
    out.push_str(", \"disk\": ");
    push_str_lit(&mut out, key.disk.name());
    out.push('}');
    out
}

/// Renders a [`BenchmarkSpec`] in the canonical `softwatt-spec-v1` shape —
/// the same shape `softwatt-serve` parses back from `POST /v1/run` bodies,
/// so emit → parse → emit is byte-stable (the serve tests pin the round
/// trip).
pub fn benchmark_spec(spec: &BenchmarkSpec) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("{\"schema\": \"softwatt-spec-v1\", \"name\": ");
    push_str_lit(&mut out, &spec.name);
    out.push_str(", \"duration_s\": ");
    push_f64(&mut out, spec.duration_s);
    out.push_str(", \"assumed_ipc\": ");
    push_f64(&mut out, spec.assumed_ipc);
    write!(
        out,
        ", \"class_files\": {}, \"class_file_bytes\": {}",
        spec.class_files, spec.class_file_bytes
    )
    .expect("write to string");
    out.push_str(", \"startup_compute_frac\": ");
    push_f64(&mut out, spec.startup_compute_frac);
    out.push_str(", \"cacheflush_per_kinstr\": ");
    push_f64(&mut out, spec.cacheflush_per_kinstr);
    out.push_str(", \"phases\": [");
    for (i, p) in spec.phases.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str("{\"name\": ");
        push_str_lit(&mut out, &p.name);
        for (field, v) in [
            ("frac", p.frac),
            ("load", p.load),
            ("store", p.store),
            ("branch", p.branch),
            ("fp", p.fp),
            ("mul", p.mul),
            ("dep_prob", p.dep_prob),
            ("branch_stability", p.branch_stability),
            ("hot_frac", p.hot_frac),
        ] {
            out.push_str(", ");
            push_key(&mut out, field);
            push_f64(&mut out, v);
        }
        write!(
            out,
            ", \"hot_bytes\": {}, \"span_bytes\": {}, \"loop_len\": {}, \"n_loops\": {}, \"stay_per_loop\": {}",
            p.hot_bytes, p.span_bytes, p.loop_len, p.n_loops, p.stay_per_loop
        )
        .expect("write to string");
        out.push_str(", \"syscalls\": {");
        for (j, (field, v)) in [
            ("read", p.syscalls.read),
            ("write", p.syscalls.write),
            ("open", p.syscalls.open),
            ("xstat", p.syscalls.xstat),
            ("du_poll", p.syscalls.du_poll),
            ("bsd", p.syscalls.bsd),
        ]
        .into_iter()
        .enumerate()
        {
            if j > 0 {
                out.push_str(", ");
            }
            push_key(&mut out, field);
            push_f64(&mut out, v);
        }
        write!(out, "}}, \"io_bytes_mean\": {}", p.syscalls.io_bytes_mean)
            .expect("write to string");
        out.push_str(", \"fresh_per_kinstr\": ");
        push_f64(&mut out, p.fresh_per_kinstr);
        out.push('}');
    }
    out.push_str("], \"io_bursts\": [");
    for (i, b) in spec.io_bursts.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str("{\"at_s\": ");
        push_f64(&mut out, b.at_s);
        write!(
            out,
            ", \"files\": {}, \"bytes_per_file\": {}}}",
            b.files, b.bytes_per_file
        )
        .expect("write to string");
    }
    out.push_str("]}");
    out
}

/// Renders one memoized run — counters, per-mode cycle shares, the system
/// power budget, and the disk report — as the `/v1/run` response body.
pub fn run_bundle(key: RunKey, bundle: &RunBundle) -> String {
    let run = &bundle.run;
    let mut out = String::with_capacity(1024);
    out.push_str("{\"schema\": \"softwatt-run-v1\", \"key\": ");
    out.push_str(&run_key(key));
    write!(
        out,
        ", \"cycles\": {}, \"committed\": {}, \"user_instrs\": {}",
        run.cycles, run.committed, run.user_instrs
    )
    .expect("write to string");
    out.push_str(", \"duration_s\": ");
    push_f64(&mut out, run.duration_s);
    out.push_str(", \"ipc\": ");
    push_f64(&mut out, run.ipc());
    out.push_str(", \"modes\": {");
    for (i, mode) in Mode::ALL.into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_key(&mut out, mode.label());
        let cycles = run.mode_cycles(mode);
        write!(out, "{{\"cycles\": {cycles}, \"pct\": ").expect("write to string");
        push_f64(&mut out, 100.0 * cycles as f64 / run.cycles.max(1) as f64);
        out.push('}');
    }
    out.push_str("}, \"budget\": ");
    push_budget(&mut out, &system_budget(&bundle.model, run));
    write!(
        out,
        ", \"disk\": {{\"requests\": {}, \"spinups\": {}, \"spindowns\": {}, \"energy_j\": ",
        run.disk.requests, run.disk.spinups, run.disk.spindowns
    )
    .expect("write to string");
    push_f64(&mut out, run.disk.energy_j);
    out.push_str("}}");
    out
}

/// Renders one paper artifact by name (see [`FIGURES`]); `None` for an
/// unknown name. Computes through the suite memo, so repeated requests are
/// lookups.
pub fn figure(suite: &ExperimentSuite, name: &str) -> Option<String> {
    let mut out = String::with_capacity(1024);
    write!(
        out,
        "{{\"schema\": \"softwatt-figure-v1\", \"figure\": \"{name}\", \"rows\": "
    )
    .expect("write to string");
    match name {
        "validation" => {
            let v = suite.validation();
            out.push_str("{\"modeled_w\": ");
            push_f64(&mut out, v.modeled_w());
            out.push_str(", \"groups\": {");
            for (i, (g, w)) in v.breakdown.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                push_key(&mut out, g.label());
                push_f64(&mut out, w);
            }
            out.push_str("}}");
        }
        "fig5" | "fig7" => {
            let budget = if name == "fig5" {
                suite.fig5_budget_conventional()
            } else {
                suite.fig7_budget_lowpower()
            };
            push_budget(&mut out, &budget);
        }
        "fig6" => {
            let fig = suite.fig6_mode_power();
            out.push('{');
            for (i, mode) in Mode::ALL.into_iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                push_key(&mut out, mode.label());
                out.push('{');
                for (j, g) in UnitGroup::ALL.into_iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    push_key(&mut out, g.label());
                    push_f64(&mut out, fig.per_mode[mode.index()].get(g));
                }
                out.push_str(", \"total_w\": ");
                push_f64(&mut out, fig.total_w(mode));
                out.push('}');
            }
            out.push('}');
        }
        "fig9" => {
            out.push('[');
            for (i, row) in suite.fig9_disk_study().iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str("{\"benchmark\": ");
                push_str_lit(&mut out, row.benchmark.name());
                out.push_str(", \"cells\": [");
                for (j, c) in row.cells.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    out.push_str("{\"disk\": ");
                    push_str_lit(&mut out, c.setup.name());
                    out.push_str(", \"disk_energy_j\": ");
                    push_f64(&mut out, c.disk_energy_j);
                    write!(
                        out,
                        ", \"idle_cycles\": {}, \"total_cycles\": {}, \"spinups\": {}, \"spindowns\": {}}}",
                        c.idle_cycles, c.total_cycles, c.spinups, c.spindowns
                    )
                    .expect("write to string");
                }
                out.push_str("]}");
            }
            out.push(']');
        }
        "table2" => {
            out.push('[');
            for (i, row) in suite.table2_mode_breakdown().iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str("{\"benchmark\": ");
                push_str_lit(&mut out, row.benchmark.name());
                for (field, values) in [
                    ("cycles_pct", &row.cycles_pct),
                    ("energy_pct", &row.energy_pct),
                ] {
                    out.push_str(", ");
                    push_key(&mut out, field);
                    out.push('{');
                    for (j, mode) in Mode::ALL.into_iter().enumerate() {
                        if j > 0 {
                            out.push_str(", ");
                        }
                        push_key(&mut out, mode.label());
                        push_f64(&mut out, values[mode.index()]);
                    }
                    out.push('}');
                }
                out.push('}');
            }
            out.push(']');
        }
        "table4" => {
            out.push('[');
            for (i, row) in suite.table4_kernel_services().iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str("{\"benchmark\": ");
                push_str_lit(&mut out, row.benchmark.name());
                out.push_str(", \"services\": [");
                for (j, e) in row.entries.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    out.push_str("{\"service\": ");
                    push_str_lit(&mut out, e.service.name());
                    write!(
                        out,
                        ", \"invocations\": {}, \"cycles_pct\": ",
                        e.invocations
                    )
                    .expect("write to string");
                    push_f64(&mut out, e.cycles_pct);
                    out.push_str(", \"energy_pct\": ");
                    push_f64(&mut out, e.energy_pct);
                    out.push('}');
                }
                out.push_str("]}");
            }
            out.push(']');
        }
        _ => return None,
    }
    out.push('}');
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_literals_are_escaped() {
        let mut s = String::new();
        push_str_lit(&mut s, "a\"b\\c\nd");
        assert_eq!(s, "\"a\\\"b\\\\c\\u000ad\"");
    }

    #[test]
    fn floats_render_as_json_numbers() {
        let mut s = String::new();
        push_f64(&mut s, 2.5);
        s.push(' ');
        push_f64(&mut s, 3.0);
        s.push(' ');
        push_f64(&mut s, f64::NAN);
        assert_eq!(s, "2.5 3.0 null");
    }

    #[test]
    fn unknown_figure_is_none() {
        let suite = ExperimentSuite::new(crate::SystemConfig {
            time_scale: 500_000.0,
            ..crate::SystemConfig::default()
        })
        .unwrap();
        assert!(figure(&suite, "fig42").is_none());
        // Every advertised name renders (cheap at this tiny scale thanks
        // to the memo: one trace per (benchmark, cpu) pair).
        for name in FIGURES {
            let body = figure(&suite, name).unwrap_or_else(|| panic!("{name} missing"));
            assert!(
                body.starts_with('{') && body.ends_with('}'),
                "{name}: {body}"
            );
            assert!(body.contains("softwatt-figure-v1"), "{name}");
        }
    }
}
