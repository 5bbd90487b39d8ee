//! The reported metrics: their names and units, the per-layer aggregation
//! of a traced run, and the result line.

use std::collections::BTreeMap;

use crate::trace::Span;

/// End-to-end metrics of an untraced run, with unit, in reporting order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("fail_ratio", "ratio"),
    ("claim_err_pct", "%"),
];

/// Spans recorded around calls into each crate: `<crate>.<public fn>[.<arm>]`.
pub const SPANS: [&str; 20] = [
    "fleet.with_jobs",
    "fleet.calibrate_profiles_with_socs",
    "fleet.calibrate_devices",
    "fleet.run_events.robust",
    "fleet.run_events.round_robin",
    "fleet.rollout_run",
    "analyze.monitor_fleet_log",
    "serde_json.to_string",
    "serde_json.from_str",
    "core.build",
    "core.try_prefill",
    "core.try_decode",
    "core.run_observed",
    "core.to_chrome_json",
    "profiler.with_predicted_profiler",
    "workloads.simulate_queue",
    "tensor.quant_divergence",
    "tensor.with_mode",
    "tensor.prefill",
    "tensor.decode_step",
];

/// Stats of each span, with unit.
pub const SPAN_STATS: [(&str, &str); 5] = [
    ("s", "s"),
    ("calls", "count"),
    ("allocs", "count"),
    ("alloc_bytes", "B"),
    ("peak_heap_bytes", "B"),
];

/// Calls that only run inside a larger call: the traced run also calls
/// them alone, and reports the rest of the larger call as `<outer>.rest.s`.
pub const RESTS: [(&str, &[&str]); 2] = [
    (
        "fleet.with_jobs",
        &[
            "fleet.calibrate_profiles_with_socs",
            "fleet.calibrate_devices",
        ],
    ),
    (
        "tensor.quant_divergence",
        &["tensor.with_mode", "tensor.prefill", "tensor.decode_step"],
    ),
];

/// Work counted at the layer boundaries, per pass, with unit and which
/// direction is better.
pub const COUNTS: [(&str, &str, &str); 14] = [
    ("fleet.calib_sessions", "count", "lower"),
    ("fleet.calib_faulted", "count", "lower"),
    ("fleet.events", "count", "lower"),
    ("fleet.retries", "count", "lower"),
    ("fleet.served_per_dispatch", "ratio", "higher"),
    ("fleet.rollout_events", "count", "lower"),
    ("fleet.saturated_quantiles", "count", "lower"),
    ("analyze.monitor_instances", "count", "lower"),
    ("serde_json.bytes", "B", "lower"),
    ("core.sessions", "count", "lower"),
    ("core.sim_tokens", "count", "lower"),
    ("core.timeline_spans", "count", "lower"),
    ("core.chrome_bytes", "B", "lower"),
    ("tensor.matmul_flops", "flop", "lower"),
];

/// Every per-layer metric as `(name, unit, better)`, in reporting order.
pub fn per_layer_metrics() -> Vec<(String, &'static str, &'static str)> {
    let mut m = Vec::new();
    for span in SPANS {
        for (stat, unit) in SPAN_STATS {
            m.push((format!("{span}.{stat}"), unit, "lower"));
        }
    }
    for (outer, _) in RESTS {
        m.push((format!("{outer}.rest.s"), "s", "lower"));
    }
    for (name, unit, better) in COUNTS {
        m.push((name.to_string(), unit, better));
    }
    m.push(("trace.coverage_pct".into(), "%", "higher"));
    m.push(("trace.overhead_pct".into(), "%", "lower"));
    m
}

/// What a traced run recorded.
#[derive(Debug, Default)]
pub struct Traced {
    /// Spans of each traced pass.
    pub passes: Vec<Vec<Span>>,
    /// Host seconds of each traced pass.
    pub walls: Vec<f64>,
    /// Host seconds of each untraced pass of the same run.
    pub untraced_walls: Vec<f64>,
    /// Counts summed over the traced passes.
    pub counts: BTreeMap<&'static str, f64>,
    /// Spans of the calls made alone, once per traced pass.
    pub probe: Vec<Span>,
    /// Counts of the calls made alone, summed.
    pub probe_counts: BTreeMap<&'static str, f64>,
}

impl Traced {
    /// Per-layer values, by name, per traced pass: the pass spans and
    /// counts, and the calls made alone.
    pub fn metrics(&self) -> BTreeMap<String, f64> {
        let passes = self.walls.len().max(1) as f64;
        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        for (name, _, _) in per_layer_metrics() {
            out.insert(name, 0.0);
        }
        let mut add = |s: &Span, per: f64| {
            let stats = [
                ("s", s.dur_ns() as f64 / 1e9 / per),
                ("calls", 1.0 / per),
                ("allocs", s.allocs as f64 / per),
                ("alloc_bytes", s.alloc_bytes as f64 / per),
            ];
            for (stat, v) in stats {
                *out.entry(format!("{}.{stat}", s.name)).or_insert(0.0) += v;
            }
            let peak = out
                .entry(format!("{}.peak_heap_bytes", s.name))
                .or_insert(0.0);
            *peak = peak.max(s.peak_heap_bytes as f64);
        };
        for s in self.passes.iter().flatten() {
            add(s, passes);
        }
        for s in &self.probe {
            add(s, passes);
        }
        for (outer, inner) in RESTS {
            let s = |n: &str| out[&format!("{n}.s")];
            let rest = s(outer) - inner.iter().map(|n| s(n)).sum::<f64>();
            out.insert(format!("{outer}.rest.s"), rest);
        }
        for (name, v) in &self.counts {
            out.insert(name.to_string(), v / passes);
        }
        for (name, v) in &self.probe_counts {
            out.insert(name.to_string(), v / passes);
        }
        out.insert("trace.coverage_pct".into(), self.coverage_pct());
        let overhead = if self.untraced_walls.is_empty() {
            0.0
        } else {
            (crate::stats::median(&self.walls) / crate::stats::median(&self.untraced_walls) - 1.0)
                * 100.0
        };
        out.insert("trace.overhead_pct".into(), overhead);
        out
    }

    /// Share of traced pass wall time that spans cover, from self time.
    pub fn coverage_pct(&self) -> f64 {
        let covered: u64 = self
            .passes
            .iter()
            .map(|p| crate::trace::covered_ns(p))
            .sum();
        let wall: f64 = self.walls.iter().sum();
        if wall > 0.0 {
            covered as f64 / 1e9 / wall * 100.0
        } else {
            0.0
        }
    }
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            assert!(v.is_finite(), "{name} = {v} is not a JSON number");
            format!("{name:?}: {{\"value\": {v:?}, \"unit\": {unit:?}}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}
