//! Turn a workload's [`Outcome`] into the printed report: one row per
//! (kernel, device), the `X_limit` violations, the deterministic digest,
//! and the final JSON line.

use std::fmt::Write as _;

use crate::common::{geomean, median, peak_rss_mb, percentile, tail, Outcome, Sample};
use crate::trace::Tracer;
use crate::Args;

/// A metric name, value and unit.
type Metric = (&'static str, f64, &'static str);

fn end_to_end(out: &Outcome) -> (Vec<Metric>, f64) {
    let mut lat = out.latencies_ms.clone();
    lat.sort_by(f64::total_cmp);
    let (tail_ms, tail_pct) = tail(&lat);
    let q = quality(out);
    let mut metrics = vec![
        ("setup_s", out.setup_s, "s"),
        ("ops_per_s", out.ops_per_s, "1/s"),
        ("op_ms_p50", percentile(&lat, 50.0), "ms"),
        ("op_ms_tail", tail_ms, "ms"),
        (
            "failed_frac",
            out.failed as f64 / out.attempted.max(1) as f64,
            "frac",
        ),
        ("peak_rss_mb", peak_rss_mb(), "MiB"),
    ];
    metrics.extend(q);
    (metrics, tail_pct)
}

/// The deterministic quality metrics of the run's samples.
fn quality(out: &Outcome) -> Vec<Metric> {
    let s = || out.samples.iter().map(|(_, s)| s);
    let n = out.samples.len().max(1) as f64;
    vec![
        (
            "energy_saving_pct",
            (1.0 - geomean(s().map(|s| s.energy))) * 100.0,
            "%",
        ),
        (
            "power_saving_pct",
            (1.0 - geomean(s().map(|s| s.power))) * 100.0,
            "%",
        ),
        (
            "time_overhead_pct",
            (geomean(s().map(|s| s.time)) - 1.0) * 100.0,
            "%",
        ),
        (
            "model_error_pct",
            s().map(|s| s.model_err).sum::<f64>() / n * 100.0,
            "%",
        ),
        (
            "battery_life_ext_pct",
            (geomean(s().map(|s| s.battery)) - 1.0) * 100.0,
            "%",
        ),
        (
            "xlimit_violation_frac",
            out.violations.len() as f64 / out.profiled.max(1) as f64,
            "frac",
        ),
    ]
}

/// Per-operation means of the deterministic counts.
fn counts(out: &Outcome) -> Vec<Metric> {
    let c = &out.counts;
    let per = |v: u64| v as f64 / out.counted_ops.max(1) as f64;
    vec![
        ("minicc.insts_out", per(c.insts_out), "count/op"),
        ("core.params.blocks", per(c.param_blocks), "count/op"),
        ("core.model.rows", per(c.model_rows), "count/op"),
        ("core.model.cols", per(c.model_cols), "count/op"),
        ("ilp.solves", per(c.solves), "count/op"),
        ("ilp.nodes", per(c.nodes), "count/op"),
        ("ilp.lp_pivots", per(c.lp_pivots), "count/op"),
        ("ilp.root_pivots", per(c.root_pivots), "count/op"),
        ("ilp.warm_pivots", per(c.warm_pivots), "count/op"),
        ("ilp.cold_pivots", per(c.cold_pivots), "count/op"),
        ("ilp.cuts_added", per(c.cuts_added), "count/op"),
        (
            "ilp.chained_frac",
            c.chained as f64 / c.solves.max(1) as f64,
            "frac",
        ),
        ("ilp.unproven", per(c.unproven), "count/op"),
        (
            "core.transform.relocated_bytes",
            per(c.relocated_bytes),
            "B/op",
        ),
        ("core.frontier.steps", per(c.frontier_steps), "count/op"),
        ("mcu.sim_mcycles", per(c.sim_cycles) / 1e6, "Mcycles/op"),
    ]
}

/// Every per-layer metric: self times from the traced operations, counts
/// from the deterministic part, and what the workload measured itself.
fn per_layer(out: &Outcome, tr: &Tracer) -> Vec<Metric> {
    let self_ms = tr.self_ms();
    let busy =
        |span: &str| self_ms.get(span).copied().unwrap_or(0.0) / out.traced_ops.max(1) as f64;
    let mut metrics = vec![
        ("minicc.busy_ms", busy("minicc"), "ms/op"),
        ("core.params.busy_ms", busy("core.params"), "ms/op"),
        ("core.model.busy_ms", busy("core.model"), "ms/op"),
        ("ilp.busy_ms", busy("ilp"), "ms/op"),
        ("core.transform.busy_ms", busy("core.transform"), "ms/op"),
        (
            "core.frontier.validate_busy_ms",
            busy("core.frontier.validate"),
            "ms/op",
        ),
        ("mcu.decode.busy_ms", busy("mcu.decode"), "ms/op"),
        ("mcu.run.busy_ms", busy("mcu.run"), "ms/op"),
    ];
    metrics.extend(counts(out));
    let c = &out.counts;
    let per_op = |v: u64| v as f64 / out.counted_ops.max(1) as f64;
    let run_s = busy("mcu.run") / 1e3;
    let ilp_ms = out.layer.get("ilp.busy_ms").copied().unwrap_or(busy("ilp"));
    let pivots = per_op(c.lp_pivots);
    metrics.extend([
        (
            "ilp.us_per_pivot",
            if pivots > 0.0 {
                ilp_ms * 1e3 / pivots
            } else {
                0.0
            },
            "us",
        ),
        (
            "mcu.mcycles_per_s",
            if run_s > 0.0 {
                per_op(c.timed_cycles) / 1e6 / run_s
            } else {
                0.0
            },
            "Mcycles/s",
        ),
        ("mcu.run_errors", out.run_errors as f64, "count"),
    ]);
    for (name, unit) in [
        ("serve.admit_wait_ms", "ms"),
        ("serve.queue_ms_p95", "ms"),
        ("serve.solve_ms_p95", "ms"),
        ("serve.session_hit_rate", "frac"),
        ("serve.memo_hit_rate", "frac"),
        ("serve.evictions", "count"),
        ("serve.degraded_frac", "frac"),
        ("serve.errors", "count"),
        ("bench.generator_lag_ms_p95", "ms"),
        ("bench.trace_overhead_pct", "%"),
    ] {
        metrics.push((name, out.layer.get(name).copied().unwrap_or(0.0), unit));
    }
    // A workload that measures a layer itself overrides the span figure.
    for m in &mut metrics {
        if let Some(&v) = out.layer.get(m.0) {
            m.1 = v;
        }
    }
    metrics
}

/// Express the traced self times and rates on the reference host (see
/// [`crate::common::HostSpeed`]).
fn on_reference_host(metrics: &mut [Metric], scale: f64) {
    for (_, value, unit) in metrics.iter_mut() {
        match *unit {
            "s" | "ms" | "ms/op" | "us" => *value *= scale,
            "1/s" | "Mcycles/s" => *value /= scale,
            _ => {}
        }
    }
}

fn json_metrics(metrics: &[Metric]) -> String {
    let mut s = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push('}');
    s
}

/// Print the report; the last line is the JSON result.  Returns whether
/// every operation was correct.
pub fn print(args: &Args, out: &Outcome, tr: &Tracer) -> bool {
    println!(
        "workload {} seed {} seconds {} trace {} host_cores {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    println!(
        "{:<14} {:<10} {:>6} {:>10} {:>9} {:>9} {:>9}",
        "kernel", "device", "samples", "p50_ms", "energy", "power", "time"
    );
    for (&(kernel, device), lat) in &out.rows {
        let samples = || {
            out.samples
                .iter()
                .filter(move |(k, _)| *k == (kernel, device))
                .map(|(_, s)| s)
        };
        let ratio = |f: fn(&Sample) -> f64| {
            if samples().next().is_none() {
                "-".to_string()
            } else {
                format!("{:.4}", geomean(samples().map(f)))
            }
        };
        println!(
            "{kernel:<14} {device:<10} {:>6} {:>10.3} {:>9} {:>9} {:>9}",
            lat.len(),
            median(lat),
            ratio(|s| s.energy),
            ratio(|s| s.power),
            ratio(|s| s.time),
        );
    }
    println!(
        "xlimit violations: {} of {} profiled placements",
        out.violations.len(),
        out.profiled
    );
    for v in &out.violations {
        println!(
            "xlimit_violation {} {} {} x_limit {} measured {:.4}",
            v.kernel, v.level, v.device, v.x_limit, v.ratio
        );
    }
    if !out.pass_s.is_empty() {
        let passes: Vec<String> = out
            .pass_s
            .iter()
            .map(|(s, scale)| format!("{s:.3}x{scale:.3}"))
            .collect();
        println!("pass_seconds {}", passes.join(" "));
    }
    for why in &out.failures {
        println!("FAILED {why}");
    }
    let mut deterministic = quality(out);
    if out.deterministic_counts {
        deterministic.extend(counts(out));
    }
    println!("deterministic {}", json_metrics(&deterministic));

    let scale = out.host.scale();
    let (e2e, tail) = end_to_end(out);
    println!(
        "end_to_end {} tail_percentile {tail:.2} samples {} host_scale {scale:.4}",
        json_metrics(&e2e),
        out.latencies_ms.len()
    );
    let metrics = if args.trace {
        let mut layer = per_layer(out, tr);
        on_reference_host(&mut layer, scale);
        layer
    } else {
        e2e
    };
    let correct = out.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        json_metrics(&metrics)
    );
    correct
}
