//! Metric vocabulary and the result line.
//!
//! The names and units here are the ones `BENCHMARK.json` lists. An
//! untraced run prints every end-to-end metric; a traced run prints
//! every per-layer metric. A per-layer metric whose layer a workload
//! does not drive reads 0 on that workload (WORKLOADS.md says which
//! metrics belong to which workload).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::{median, tail};

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("invocations_per_wall_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("served_ratio", "ratio"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("ttfc_p50_ms", "ms"),
    ("ttfc_tail_ms", "ms"),
    ("cold_start_p50_ms", "ms"),
    ("cold_start_tail_ms", "ms"),
    ("cold_fraction", "ratio"),
];

/// Virtual-time span names whose self time `cold_sweep` reports as
/// `core.span_self_ms.<name>` (from `TrialRunner::traced_trial`).
pub const SELF_TIME_SPANS: [&str; 13] = [
    "startup",
    "criu_restore",
    "sys_clone",
    "image_parse",
    "restore_vmas",
    "restore_eager_copy",
    "restore_cow_map",
    "restore_lazy_register",
    "uffd_prefetch",
    "restore_fds",
    "criu_restore_set",
    "first_request",
    "other",
];

/// Per-layer metrics: `(name, unit)`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed: [(&str, &str); 48] = [
        // Benchmark-wide: span coverage and tracing cost.
        ("bench.uncovered_pct", "%"),
        ("bench.trace_overhead_inv_per_s", "1/s"),
        // cold_sweep, wall.
        ("core.machine_setup_ms", "ms"),
        ("core.vanilla_start_ms", "ms"),
        ("core.prebake_start_ms.eager", "ms"),
        ("core.prebake_start_ms.prefetch", "ms"),
        ("core.prebake_start_ms.cow", "ms"),
        ("functions.first_request_ms", "ms"),
        ("criu.image_parse_ms", "ms"),
        ("criu.image_parse_mib_per_s", "MiB/s"),
        ("criu.dump_ms", "ms"),
        ("criu.dump_mib_per_s", "MiB/s"),
        ("lazy.record_ms", "ms"),
        // cold_sweep, virtual.
        ("core.phase.clone_ms", "ms"),
        ("core.phase.exec_ms", "ms"),
        ("core.phase.rts_ms", "ms"),
        ("core.phase.appinit_ms", "ms"),
        ("sim.major_faults", "count"),
        ("sim.minor_faults", "count"),
        ("sim.cow_breaks", "count"),
        ("lazy.faults_avoided", "count"),
        ("criu.extents_restored", "count"),
        ("criu.dedup_ratio", "ratio"),
        ("core.vanilla_first_response_p50_ms", "ms"),
        // gateway_mix, wall.
        ("gateway.arrive_cached_us", "us"),
        ("gateway.arrive_backend_us", "us"),
        ("gateway.finish_ms", "ms"),
        ("functions.render_us", "us"),
        // gateway_mix, virtual.
        ("gateway.queue_wait_p50_ms", "ms"),
        ("gateway.queue_wait_tail_ms", "ms"),
        ("gateway.service_p50_ms", "ms"),
        ("gateway.deferred", "count"),
        ("gateway.peak_queue", "count"),
        ("platform.cold_starts", "count"),
        // gateway_mix and fleet_trace.
        ("gateway.cache_hit_ratio", "ratio"),
        ("gateway.shed", "count"),
        // fleet_trace, wall.
        ("fleet.run_stream_s", "s"),
        ("platform.loadgen_s", "s"),
        ("fleet.events_per_wall_s", "1/s"),
        ("obs.overhead_pct", "%"),
        // fleet_trace, virtual.
        ("fleet.events_per_invocation", "ratio"),
        ("fleet.queue_delay_p50_ms", "ms"),
        ("fleet.queue_delay_tail_ms", "ms"),
        ("registry.egress_mib", "MiB"),
        ("registry.dedup_ratio", "ratio"),
        ("registry.pull_hit_ratio", "ratio"),
        ("fleet.replicas_started", "count"),
        ("fleet.cold_starts", "count"),
    ];
    let mut out: Vec<(String, &'static str)> =
        fixed.iter().map(|&(n, u)| (n.to_owned(), u)).collect();
    for span in SELF_TIME_SPANS {
        out.push((format!("core.span_self_ms.{span}"), "ms"));
    }
    out
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Invocations (or trials) attempted.
    pub attempted: u64,
    /// Invocations that errored or returned a wrong output. Shed
    /// invocations are refused, not failed; they lower `served_ratio`.
    pub failed: u64,
    /// Correctness-gate violations, one line each.
    pub violations: Vec<String>,
    /// End-to-end values by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer values by name.
    pub layer: BTreeMap<String, f64>,
}

impl Outcome {
    /// Records a gate violation.
    pub fn violate(&mut self, what: String) {
        self.violations.push(what);
    }

    /// Sets a per-layer value.
    pub fn layer(&mut self, name: &str, value: f64) {
        self.layer.insert(name.to_owned(), value);
    }
}

/// Renders the result line. `trace` selects the per-layer set. Missing
/// end-to-end values are gate violations (the caller checks first).
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    let mut metrics = String::new();
    let mut push = |name: &str, unit: &str, value: f64| {
        if !metrics.is_empty() {
            metrics.push(',');
        }
        let value = if value.is_finite() { value } else { 0.0 };
        let _ = write!(
            metrics,
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            number(value)
        );
    };
    if trace {
        for (name, unit) in per_layer() {
            push(
                &name,
                unit,
                outcome.layer.get(&name).copied().unwrap_or(0.0),
            );
        }
    } else {
        for (name, unit) in END_TO_END {
            push(name, unit, outcome.e2e.get(name).copied().unwrap_or(0.0));
        }
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        outcome.violations.is_empty() && outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed
    )
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Records `<prefix>_p50_ms` and `<prefix>_tail_ms`, printing which
/// percentile the tail is and how many samples lie beyond it.
pub fn put_latency(out: &mut Outcome, prefix: &'static str, sorted_ms: &[f64]) {
    let (p50, tail_key) = match prefix {
        "latency" => ("latency_p50_ms", "latency_tail_ms"),
        "ttfc" => ("ttfc_p50_ms", "ttfc_tail_ms"),
        "cold_start" => ("cold_start_p50_ms", "cold_start_tail_ms"),
        other => unreachable!("no end-to-end latency metric {other}"),
    };
    out.e2e.insert(p50, median(sorted_ms).unwrap_or(0.0));
    match tail(sorted_ms) {
        Some(t) => {
            println!(
                "{tail_key}: {} = {} ms ({} of {} samples beyond)",
                t.label, t.value, t.beyond, t.count
            );
            out.e2e.insert(tail_key, t.value);
        }
        None => out.violate(format!(
            "{tail_key}: {} samples leave no percentile with 10 beyond",
            sorted_ms.len()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_unique_and_valid() {
        let names = per_layer();
        let set: std::collections::BTreeSet<&String> = names.iter().map(|(n, _)| n).collect();
        assert_eq!(set.len(), names.len());
        for (n, u) in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
            assert!(u.len() <= 16);
        }
    }

    #[test]
    fn result_line_carries_every_metric() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.e2e.insert("setup_s", 1.5);
        let line = result_line(&o, false);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":3,\"failed\":0,"));
        for (n, _) in END_TO_END {
            assert!(line.contains(&format!("\"{n}\":")));
        }
        assert!(line.contains("\"setup_s\":{\"value\":1.5,\"unit\":\"s\"}"));
        o.violate("x".to_owned());
        assert!(result_line(&o, true).starts_with("{\"correct\":false"));
    }
}
