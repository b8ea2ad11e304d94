//! Export: the stable machine-readable JSON document behind
//! `--metrics-out`, and the human summary table behind `--metrics`.
//!
//! The document is hand-assembled (this crate is zero-dependency, like the
//! rest of the workspace's JSON output) with one schema marker,
//! `softwatt-obs-v1`; metric maps are emitted in name order so identical
//! registry states serialize to identical bytes.

use std::fmt::Write as _;

use crate::registry::{self, Snapshot};

/// Schema identifier of the exported document.
pub const SCHEMA: &str = "softwatt-obs-v1";

/// Appends `s` as a JSON string literal: quotes and backslashes escaped,
/// control characters as `\u00XX`, everything else verbatim.
pub fn push_json_string(out: &mut String, s: &str) {
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
pub fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        write!(out, "{v:?}").expect("write to string");
    } else {
        out.push_str("null");
    }
}

/// Serializes the entire registry as one JSON document.
pub fn to_json() -> String {
    let mut counters = String::new();
    let mut gauges = String::new();
    let mut histograms = String::new();
    registry::visit(|metric| match metric {
        Snapshot::Counter(name, c) => {
            if !counters.is_empty() {
                counters.push_str(",\n");
            }
            counters.push_str("    ");
            push_json_string(&mut counters, name);
            write!(counters, ": {}", c.get()).expect("write to string");
        }
        Snapshot::Gauge(name, g) => {
            if !gauges.is_empty() {
                gauges.push_str(",\n");
            }
            gauges.push_str("    ");
            push_json_string(&mut gauges, name);
            gauges.push_str(": ");
            push_json_f64(&mut gauges, g.get());
        }
        Snapshot::Histogram(name, h) => {
            if !histograms.is_empty() {
                histograms.push_str(",\n");
            }
            histograms.push_str("    ");
            push_json_string(&mut histograms, name);
            write!(
                histograms,
                ": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"buckets\": [",
                h.count(),
                h.sum(),
                h.min().map_or_else(|| "null".into(), |v| v.to_string()),
                h.max().map_or_else(|| "null".into(), |v| v.to_string()),
            )
            .expect("write to string");
            for (i, (bucket, n)) in h.nonzero_buckets().into_iter().enumerate() {
                if i > 0 {
                    histograms.push_str(", ");
                }
                write!(histograms, "[{bucket}, {n}]").expect("write to string");
            }
            histograms.push_str("]}");
        }
    });
    format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"enabled\": {},\n  \"counters\": {{\n{counters}\n  }},\n  \"gauges\": {{\n{gauges}\n  }},\n  \"histograms\": {{\n{histograms}\n  }}\n}}\n",
        crate::enabled()
    )
}

/// Renders the registry as an aligned human-readable table (the
/// `--metrics` summary). Histogram sums and extrema of `*_ns` metrics are
/// shown in milliseconds.
pub fn summary_table() -> String {
    let mut out = String::from("metric                                    value\n");
    let ns_ms = |name: &str, v: u64| {
        if name.ends_with("_ns") {
            format!("{:.3}ms", v as f64 / 1e6)
        } else {
            v.to_string()
        }
    };
    registry::visit(|metric| match metric {
        Snapshot::Counter(name, c) => {
            writeln!(out, "{name:<40} {}", c.get()).expect("write to string");
        }
        Snapshot::Gauge(name, g) => {
            writeln!(out, "{name:<40} {}", g.get()).expect("write to string");
        }
        Snapshot::Histogram(name, h) => {
            let detail = match (h.min(), h.max()) {
                (Some(min), Some(max)) if h.count() > 1 => format!(
                    "  (mean {}, min {}, max {})",
                    ns_ms(name, h.sum() / h.count()),
                    ns_ms(name, min),
                    ns_ms(name, max)
                ),
                _ => String::new(),
            };
            writeln!(
                out,
                "{name:<40} n={} sum={}{detail}",
                h.count(),
                ns_ms(name, h.sum()),
            )
            .expect("write to string");
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_strings_are_escaped() {
        let mut s = String::new();
        push_json_string(&mut s, "a\"b\\c\nd");
        assert_eq!(s, "\"a\\\"b\\\\c\\u000ad\"");
    }

    #[test]
    fn floats_render_as_json_numbers() {
        let mut s = String::new();
        push_json_f64(&mut s, 1.5);
        s.push(' ');
        push_json_f64(&mut s, 3.0);
        s.push(' ');
        push_json_f64(&mut s, f64::NAN);
        assert_eq!(s, "1.5 3.0 null");
    }
}
