//! Whole-run benchmark of the PULSE engines.
//!
//! One command runs one workload ([`workload::Workload`]) for a fixed
//! wall-clock budget, checks the outputs, and prints every metric by name
//! with its unit, ending with one JSON line. End-to-end metrics come from
//! plain (untraced) iterations; per-layer metrics come from probed
//! iterations that time each call into a layer from outside (see
//! [`probe`]). The engines are used only through their public API.

pub mod layers;
pub mod probe;
pub mod workload;

use layers::Layers;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use workload::{Iteration, Workload};

/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 42;
/// Seed kept out of tuning, for confirming a claimed change.
pub const HELD_OUT_SEED: u64 = 20_261_017;

/// End-to-end metrics, reported from plain iterations: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("goodput_rps", "1/s"),
    ("keepalive_cost_usd", "usd"),
    ("cold_start_pct", "%"),
    ("accuracy_pct", "%"),
    ("mean_service_s", "sim_s"),
    ("slo_met_pct", "%"),
    ("served_pct", "%"),
];

/// Per-layer metrics, reported from probed iterations: `(name, unit)`.
/// A layer a workload does not call reads 0.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("pulse-sim.step_minute.calls", "count"),
    ("pulse-sim.step_minute.s", "s"),
    ("pulse-sim.step_minute.self_s", "s"),
    ("pulse-sim.step_minute.p99_us", "us"),
    ("pulse-sim.step_minute.self_share", "ratio"),
    ("pulse-sim.step_minute.adjust_share", "ratio"),
    ("policy.adjust_minute.calls", "count"),
    ("policy.adjust_minute.s", "s"),
    ("policy.adjust_minute.p99_us", "us"),
    ("policy.adjust_minute.actions", "count"),
    ("policy.adjust_minute.peak_calls", "count"),
    ("policy.adjust_minute.alive_mean", "count"),
    ("policy.adjust_minute.share", "ratio"),
    ("policy.schedule_on_invocation.calls", "count"),
    ("policy.schedule_on_invocation.s", "s"),
    ("policy.cold_start_variant.calls", "count"),
    ("policy.cold_start_variant.s", "s"),
    ("policy.observe_minute.calls", "count"),
    ("policy.observe_minute.s", "s"),
    ("pulse-runtime.tick.count", "count"),
    ("pulse-runtime.tick.self_s", "s"),
    ("pulse-runtime.tick.p99_us", "us"),
    ("pulse-runtime.arrival.count", "count"),
    ("pulse-runtime.arrival.self_s", "s"),
    ("pulse-runtime.exec_done.count", "count"),
    ("pulse-runtime.exec_done.self_s", "s"),
    ("pulse-runtime.provision_done.count", "count"),
    ("pulse-runtime.provision_done.self_s", "s"),
    ("pulse-runtime.other.count", "count"),
    ("pulse-runtime.other.self_s", "s"),
    ("pulse-runtime.queue_depth_max", "count"),
    ("pulse-serve.admitted", "count"),
    ("pulse-serve.front_door_dropped", "count"),
    ("pulse-serve.engine_shed", "count"),
    ("pulse-serve.decision.count", "count"),
    ("pulse-serve.decision.mean_ns", "ns"),
    ("pulse-serve.tick.mean_ns", "ns"),
    ("pulse-serve.transport_s", "s"),
    ("pulse-trace.generate_s", "s"),
    ("pulse-trace.invocations", "count"),
    ("pulse-trace.function_minutes", "count"),
    ("pulse-trace.active_ratio", "ratio"),
    ("pulse-obs.actions_requested", "count"),
    ("pulse-obs.actions_applied", "count"),
    ("pulse-obs.applied_ratio", "ratio"),
    ("traced.run_s", "s"),
    ("traced.overhead_s", "s"),
];

/// What one benchmark invocation measured.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Iterations run (plain and probed).
    pub attempted: u64,
    /// Iterations with at least one failed output check.
    pub failed: u64,
    /// The failed checks, one line each (deduplicated).
    pub failures: Vec<String>,
    /// `(name, value, unit)`, in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable notes printed above the metric table.
    pub notes: String,
}

impl Measurement {
    /// True when every output check passed and every value is finite.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|m| m.1.is_finite())
    }

    /// The metric table, one `name value unit` line each.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(out, "{name:<40} {value:>18.6} {unit}");
        }
        out
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of `xs` (mean of the middle two for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    pulse_models::stats::percentile(xs, 50.0)
}

/// Peak resident set size of this process so far, MB: `VmHWM` of
/// `/proc/self/status` (Linux). Unlike `getrusage`'s `ru_maxrss`, it does
/// not carry over the footprint of the parent that spawned this process
/// (`cargo run`), which exceeds the smallest workload's own. NaN when
/// unavailable, which fails the run.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(f64::NAN)
}

/// Run `workload` for `seconds` of wall time and measure it.
///
/// Plain iterations repeat until the budget is spent (at least one). With
/// `traced`, a probed iteration follows each plain one and the result holds
/// the per-layer metrics; otherwise one probed iteration runs at the end,
/// to supply the counts a plain minute-engine run cannot report and to
/// check that probing changes no outcome. The peak RSS is read after the
/// first plain iteration, before any probe has run. Every iteration's
/// outcome must match the first plain one bit for bit.
pub fn measure(workload: Workload, seed: u64, seconds: u64, traced: bool) -> Measurement {
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut plain: Vec<Iteration> = Vec::new();
    let mut probed: Vec<Iteration> = Vec::new();
    let mut rss_mb = f64::NAN;
    loop {
        plain.push(workload.run_once(seed, false));
        if plain.len() == 1 {
            // The footprint of one whole run: later iterations only add
            // allocator fragmentation, which varies with their count.
            rss_mb = peak_rss_mb();
        }
        if traced {
            probed.push(workload.run_once(seed, true));
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    if probed.is_empty() {
        probed.push(workload.run_once(seed, true));
    }

    let reference = plain[0].outcome;
    let slo_met = probed[0].slo_met;
    let mut failures: Vec<String> = Vec::new();
    let mut failed = 0;
    for (i, it) in plain.iter().chain(&probed).enumerate() {
        let mut found = it.failures.clone();
        if !it.outcome.same_as(&reference) {
            found.push(format!(
                "iteration {i} outcome {:?} differs from the first {reference:?}",
                it.outcome
            ));
        }
        if it.slo_met.is_some() && it.slo_met != slo_met {
            found.push(format!(
                "iteration {i} SLO count {:?} differs from {slo_met:?}",
                it.slo_met
            ));
        }
        failed += u64::from(!found.is_empty());
        for f in found {
            if !failures.contains(&f) {
                failures.push(f);
            }
        }
    }

    let mut m = Measurement {
        attempted: (plain.len() + probed.len()) as u64,
        failed,
        failures,
        metrics: Vec::new(),
        notes: String::new(),
    };
    let plain_run_s = median(&plain.iter().map(|it| it.run_s).collect::<Vec<_>>());
    if traced {
        per_layer(&mut m, workload, &probed, plain_run_s);
    } else {
        end_to_end(&mut m, &plain, &probed[0], rss_mb);
    }
    m
}

fn end_to_end(m: &mut Measurement, plain: &[Iteration], probed: &Iteration, peak_rss_mb: f64) {
    let o = probed.outcome;
    let offered = o.offered.max(1) as f64;
    let served = o.served().max(1) as f64;
    let slo_met = probed.slo_met.unwrap_or(0) as f64;
    let phase_slo_met = probed.slo_met_phase.unwrap_or(0) as f64;
    let goodput: Vec<f64> = plain.iter().map(|it| phase_slo_met / it.run_s).collect();
    let values = [
        median(&plain.iter().map(|it| it.setup_s).collect::<Vec<_>>()),
        median(&plain.iter().map(|it| it.run_s).collect::<Vec<_>>()),
        peak_rss_mb,
        median(&goodput),
        o.cost_usd,
        100.0 * o.cold as f64 / offered,
        o.accuracy_sum_pct / served,
        o.service_s / served,
        100.0 * slo_met / offered,
        100.0 * o.served() as f64 / offered,
    ];
    m.metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect();
    let _ = writeln!(
        m.notes,
        "{} plain iterations; timings are medians. {} requests offered, {} served, {} within the {} s SLO.",
        plain.len(),
        o.offered,
        o.served(),
        slo_met,
        workload::SLO_S
    );
}

fn per_layer(m: &mut Measurement, workload: Workload, probed: &[Iteration], plain_run_s: f64) {
    let all: Vec<&Layers> = probed.iter().filter_map(|it| it.layers.as_ref()).collect();
    let traced_run_s = median(&probed.iter().map(|it| it.run_s).collect::<Vec<_>>());
    let mut merged = Layers::median_of(&all);
    merged.set("traced.run_s", traced_run_s);
    merged.set("traced.overhead_s", traced_run_s - plain_run_s);
    merged.set(
        "policy.adjust_minute.share",
        merged.get("policy.adjust_minute.s") / traced_run_s,
    );
    m.metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, merged.get(name), unit))
        .collect();

    let n = &mut m.notes;
    let _ = writeln!(
        n,
        "{} probed iterations; per-layer values are medians. Traced run {traced_run_s:.4} s vs untraced {plain_run_s:.4} s: tracing overhead {:.4} s.",
        probed.len(),
        traced_run_s - plain_run_s
    );
    let get = |k: &str| merged.get(k);
    match workload {
        Workload::Owk10k => {
            let _ = writeln!(
                n,
                "ROADMAP re-anchor: minute-engine self share {:.3} of step time (replace was 2.48 of 2.8 s = 0.886).",
                get("pulse-sim.step_minute.self_share")
            );
            let _ = writeln!(
                n,
                "stress: engine self time {:.3} s vs policy adjust {:.3} s and schedule {:.3} s.",
                get("pulse-sim.step_minute.self_s"),
                get("policy.adjust_minute.s"),
                get("policy.schedule_on_invocation.s")
            );
        }
        Workload::Pulse1kDay => {
            let _ = writeln!(
                n,
                "ROADMAP re-anchor: adjust share of minute-engine step time {:.3} (was 0.52 of 0.99 s = 0.525).",
                get("pulse-sim.step_minute.adjust_share")
            );
            let _ = writeln!(
                n,
                "stress: policy adjust {:.3} s vs schedule {:.3} s, cold-start {:.3} s, observe {:.3} s.",
                get("policy.adjust_minute.s"),
                get("policy.schedule_on_invocation.s"),
                get("policy.cold_start_variant.s"),
                get("policy.observe_minute.s")
            );
        }
        Workload::ServeHawkes1k => {
            let decision_s =
                get("pulse-serve.decision.count") * get("pulse-serve.decision.mean_ns") / 1e9;
            let arrival_path = decision_s + get("pulse-serve.transport_s");
            let _ = writeln!(
                n,
                "stress: arrival path (decisions {decision_s:.3} s + transport {:.3} s) is {:.3} of the run; policy adjust is {:.3}.",
                get("pulse-serve.transport_s"),
                arrival_path / traced_run_s,
                get("policy.adjust_minute.share")
            );
        }
    }
}
