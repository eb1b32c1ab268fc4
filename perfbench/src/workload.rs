//! The three whole-run workloads and the output checks each one makes.
//!
//! Every workload is one set-up (generate the inputs from the seed, build
//! the engine and the policy) followed by one measured phase that drives
//! the engine through its public session API (`session` + `step*` +
//! `finish`) or, for the live front door, through `serve_live`. A *plain*
//! iteration runs exactly that; a *probed* iteration wraps the policy in
//! [`TimedPolicy`], attaches a [`CountingSink`] and times every engine step
//! from outside, which yields the per-layer metrics.

use crate::layers::Layers;
use crate::probe::{elapsed_ns, CallStats, CountingSink, PolicyStats, TimedPolicy};
use pulse_core::types::PulseConfig;
use pulse_models::stats::{percentile, ratio_or_zero};
use pulse_models::ModelFamily;
use pulse_obs::TraceSink;
use pulse_runtime::{
    ClusterConfig, Event, FaultPlan, Runtime, RuntimeConfig, RuntimeSession, RuntimeSummary,
};
use pulse_serve::{serve_live, ArrivalStream, LiveOptions, LoadGenConfig, LoadMode, ServeConfig};
use pulse_sim::assignment::round_robin_assignment;
use pulse_sim::policies::{OpenWhiskFixed, PulsePolicy};
use pulse_sim::{KeepAlivePolicy, RunMetrics, SimSession, Simulator};
use pulse_trace::Trace;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The simulated-latency SLO, seconds: between GPT-Large's warm p99
/// (26.8 s) and its cold start (47.7 s).
pub const SLO_S: f64 = 30.0;

/// Engine admission bound of the live front door (requests waiting).
const SERVE_MAX_PENDING: usize = 4_096;

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// OpenWhisk, minute engine, 10k functions x 240 min: ledger-heavy.
    Owk10k,
    /// PULSE on both engines over one 1k-function day: policy-heavy.
    Pulse1kDay,
    /// PULSE behind the live front door, self-exciting arrivals:
    /// arrival-heavy.
    ServeHawkes1k,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::Owk10k,
        Workload::Pulse1kDay,
        Workload::ServeHawkes1k,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Owk10k => "owk-10k",
            Workload::Pulse1kDay => "pulse-1k-day",
            Workload::ServeHawkes1k => "serve-hawkes-1k",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Run one set-up plus one measured phase. `probed` selects the
    /// instrumented variant.
    pub fn run_once(self, seed: u64, probed: bool) -> Iteration {
        match self {
            Workload::Owk10k => owk_10k(seed, probed),
            Workload::Pulse1kDay => pulse_1k_day(seed, probed),
            Workload::ServeHawkes1k => serve_hawkes_1k(seed, probed),
        }
    }
}

/// Request outcomes of one engine run, in counts every engine can report.
#[derive(Debug, Clone, Copy, Default)]
pub struct Outcome {
    /// Requests offered to the system.
    pub offered: u64,
    /// Served warm.
    pub warm: u64,
    /// Served after a cold start.
    pub cold: u64,
    /// Not served: dropped at the front door, shed, or failed.
    pub failed: u64,
    /// Keep-alive cost, USD.
    pub cost_usd: f64,
    /// Accuracy summed over served requests, percentage points.
    pub accuracy_sum_pct: f64,
    /// Simulated service time summed over served requests, seconds.
    pub service_s: f64,
}

impl Outcome {
    /// From the minute engine's metrics. The minute engine serves every
    /// invocation.
    fn from_sim(m: &RunMetrics) -> Self {
        Self {
            offered: m.invocations(),
            warm: m.warm_starts,
            cold: m.cold_starts,
            failed: 0,
            cost_usd: m.keepalive_cost_usd,
            accuracy_sum_pct: m.accuracy_sum_pct,
            service_s: m.service_time_s,
        }
    }

    /// From the runtime's per-request records: warm, cold = `!warm &&
    /// !failed`, and failed. (`RuntimeSummary::cold_starts` would count
    /// shed requests as cold starts.) `dropped` front-door arrivals never
    /// reach the engine and count as offered and failed.
    fn from_runtime(s: &RuntimeSummary, dropped: u64) -> Self {
        let mut o = Self {
            offered: s.records.len() as u64 + dropped,
            failed: dropped,
            cost_usd: s.keepalive_cost_usd,
            ..Self::default()
        };
        for r in &s.records {
            if r.failed {
                o.failed += 1;
                continue;
            }
            if r.warm {
                o.warm += 1;
            } else {
                o.cold += 1;
            }
            o.accuracy_sum_pct += r.accuracy_pct;
            o.service_s += r.latency_ms() as f64 / 1000.0;
        }
        o
    }

    /// Requests served.
    pub fn served(&self) -> u64 {
        self.offered - self.failed
    }

    /// Bitwise equality: counts exactly, floats by their bits.
    pub fn same_as(&self, other: &Outcome) -> bool {
        self.offered == other.offered
            && self.warm == other.warm
            && self.cold == other.cold
            && self.failed == other.failed
            && self.cost_usd.to_bits() == other.cost_usd.to_bits()
            && self.accuracy_sum_pct.to_bits() == other.accuracy_sum_pct.to_bits()
            && self.service_s.to_bits() == other.service_s.to_bits()
    }
}

/// One set-up plus one measured phase.
#[derive(Debug, Clone)]
pub struct Iteration {
    /// Input generation plus engine and policy construction, seconds.
    pub setup_s: f64,
    /// The measured phase, seconds.
    pub run_s: f64,
    /// The outcome the workload reports.
    pub outcome: Outcome,
    /// Requests served within [`SLO_S`] across every engine run of the
    /// measured phase. `None` on a plain minute-engine iteration, whose
    /// metrics carry no per-request latency; probed iterations know the
    /// variant of every cold start and always fill it.
    pub slo_met_phase: Option<u64>,
    /// Requests served within [`SLO_S`] by the reported engine.
    pub slo_met: Option<u64>,
    /// Output checks that failed, one line each.
    pub failures: Vec<String>,
    /// Per-layer metrics (probed iterations only).
    pub layers: Option<Layers>,
}

impl Iteration {
    fn new(setup_s: f64, run_s: f64, outcome: Outcome, slo_met: Option<u64>) -> Self {
        Self {
            setup_s,
            run_s,
            outcome,
            slo_met_phase: None,
            slo_met,
            failures: Vec::new(),
            layers: None,
        }
    }
}

/// Per-step timing of the engines, taken around each `step_minute` /
/// `step` call, plus the trace sink the sessions report to. The policy's
/// share of a step is read off the [`TimedPolicy`] clock and subtracted to
/// give the step's self time.
#[derive(Default)]
struct StepProbe {
    clock: Arc<AtomicU64>,
    sink: CountingSink,
    sim_step: CallStats,
    sim_self_ns: u64,
    sim_samples: Vec<f64>,
    /// Runtime steps by event kind, in [`RT_KINDS`] order; `ns` holds self
    /// time.
    rt_kinds: [CallStats; 5],
    rt_tick_samples: Vec<f64>,
    rt_queue_max: u64,
}

const RT_KINDS: [&str; 5] = ["tick", "arrival", "exec_done", "provision_done", "other"];

impl StepProbe {
    /// Wrap `policy` so its time is charged to this probe's clock.
    fn wrap<P: KeepAlivePolicy>(&self, policy: P) -> TimedPolicy<P> {
        TimedPolicy::new(policy, Arc::clone(&self.clock))
    }
}

/// The one place a minute-engine session is opened.
fn open_sim<'a>(
    sim: &'a Simulator,
    policy: &'a mut dyn KeepAlivePolicy,
    sink: Option<&'a mut dyn TraceSink>,
) -> SimSession<'a> {
    match sink {
        Some(s) => sim.session_traced(policy, s),
        None => sim.session(policy),
    }
}

/// The one place a runtime session is opened: a reliable platform with
/// unlimited capacity and admission.
fn open_runtime<'a>(
    rt: &'a Runtime,
    policy: &'a mut dyn KeepAlivePolicy,
    sink: Option<&'a mut dyn TraceSink>,
) -> RuntimeSession<'a> {
    let plan = FaultPlan::none();
    let cluster = ClusterConfig::unlimited();
    match sink {
        Some(s) => rt.session_traced(policy, &plan, cluster, s),
        None => rt.session(policy, &plan, cluster),
    }
}

/// Drive a minute-engine run to completion, timing each step when probed.
fn drive_sim(
    sim: &Simulator,
    policy: &mut dyn KeepAlivePolicy,
    probe: Option<&mut StepProbe>,
) -> RunMetrics {
    let Some(p) = probe else {
        let mut session = open_sim(sim, policy, None);
        while session.step_minute().is_some() {}
        return session.finish();
    };
    let clock = Arc::clone(&p.clock);
    let mut session = open_sim(sim, policy, Some(&mut p.sink));
    loop {
        let before = clock.load(Ordering::Relaxed);
        let t0 = Instant::now();
        let stepped = session.step_minute();
        let ns = elapsed_ns(t0);
        if stepped.is_none() {
            break;
        }
        let in_policy = clock.load(Ordering::Relaxed) - before;
        p.sim_step.add(ns);
        p.sim_self_ns += ns.saturating_sub(in_policy);
        p.sim_samples.push(ns as f64);
    }
    session.finish()
}

/// Drive a runtime run to completion, timing each step by event kind when
/// probed.
fn drive_runtime(
    rt: &Runtime,
    policy: &mut dyn KeepAlivePolicy,
    probe: Option<&mut StepProbe>,
) -> RuntimeSummary {
    let Some(p) = probe else {
        let mut session = open_runtime(rt, policy, None);
        while session.step().is_some() {}
        return session.finish();
    };
    let clock = Arc::clone(&p.clock);
    let mut session = open_runtime(rt, policy, Some(&mut p.sink));
    loop {
        p.rt_queue_max = p.rt_queue_max.max(session.pending_events() as u64);
        let before = clock.load(Ordering::Relaxed);
        let t0 = Instant::now();
        let stepped = session.step();
        let ns = elapsed_ns(t0);
        let Some((_, event)) = stepped else { break };
        let in_policy = clock.load(Ordering::Relaxed) - before;
        let kind = match event {
            Event::MinuteTick { .. } => {
                p.rt_tick_samples.push(ns as f64);
                0
            }
            Event::Arrival { .. } => 1,
            Event::ExecDone { .. } => 2,
            Event::ProvisionDone { .. } => 3,
            _ => 4,
        };
        p.rt_kinds[kind].add(ns.saturating_sub(in_policy));
    }
    session.finish()
}

/// Requests the minute engine served within [`SLO_S`]. Its latency model
/// is deterministic: a warm request takes the alive variant's warm service
/// time and a cold start the launched variant's cold service time, so the
/// misses are exactly the cold starts whose variant's cold service time
/// exceeds the SLO — given that no variant's warm service time does, which
/// is checked.
fn sim_slo_met(
    m: &RunMetrics,
    families: &[ModelFamily],
    stats: &PolicyStats,
    failures: &mut Vec<String>,
) -> u64 {
    if families
        .iter()
        .flat_map(|f| &f.variants)
        .any(|v| v.warm_service_time_s > SLO_S)
    {
        failures.push(format!(
            "a warm service time exceeds the {SLO_S} s SLO; the minute engine's SLO count needs per-request variants"
        ));
    }
    if stats.cold_starts.len() as u64 != m.cold_starts {
        failures.push(format!(
            "policy probe saw {} cold starts, the minute engine counted {}",
            stats.cold_starts.len(),
            m.cold_starts
        ));
    }
    let misses = stats
        .cold_starts
        .iter()
        .filter(|&&(f, v)| families[f].variant(v).cold_service_time_s() > SLO_S)
        .count() as u64;
    m.invocations() - misses
}

/// Requests the runtime served within [`SLO_S`] of arrival.
fn runtime_slo_met(s: &RuntimeSummary) -> u64 {
    let slo_ms = (SLO_S * 1000.0) as u64;
    s.records
        .iter()
        .filter(|r| !r.failed && r.latency_ms() <= slo_ms)
        .count() as u64
}

/// Trace-shape metrics of the `pulse-trace` layer.
fn trace_layers(layers: &mut Layers, trace: &Trace, generate_ns: u64) {
    let cells = (trace.n_functions() * trace.minutes()) as u64;
    let active: u64 = trace
        .functions()
        .iter()
        .map(|f| f.per_minute.iter().filter(|&&c| c > 0).count() as u64)
        .sum();
    layers.set("pulse-trace.generate_s", generate_ns as f64 / 1e9);
    layers.set("pulse-trace.invocations", trace.total_invocations() as f64);
    layers.set("pulse-trace.function_minutes", cells as f64);
    layers.set(
        "pulse-trace.active_ratio",
        ratio_or_zero(active as f64, cells as f64),
    );
}

/// Policy-layer metrics.
fn policy_layers(layers: &mut Layers, s: &PolicyStats) {
    layers.set("policy.adjust_minute.calls", s.adjust.calls as f64);
    layers.set("policy.adjust_minute.s", s.adjust.secs());
    layers.set(
        "policy.adjust_minute.p99_us",
        percentile(&s.adjust_samples, 99.0) / 1e3,
    );
    layers.set("policy.adjust_minute.actions", s.actions as f64);
    layers.set("policy.adjust_minute.peak_calls", s.peak_calls as f64);
    layers.set(
        "policy.adjust_minute.alive_mean",
        ratio_or_zero(s.alive_sum as f64, s.adjust.calls as f64),
    );
    layers.set(
        "policy.schedule_on_invocation.calls",
        s.schedule.calls as f64,
    );
    layers.set("policy.schedule_on_invocation.s", s.schedule.secs());
    layers.set("policy.cold_start_variant.calls", s.cold_start.calls as f64);
    layers.set("policy.cold_start_variant.s", s.cold_start.secs());
    layers.set("policy.observe_minute.calls", s.observe.calls as f64);
    layers.set("policy.observe_minute.s", s.observe.secs());
}

/// Engine-step and trace-sink metrics. `sim_adjust_ns` is the
/// `adjust_minute` time spent inside minute-engine steps.
fn step_layers(layers: &mut Layers, p: &StepProbe, sim_adjust_ns: u64) {
    let step_ns = p.sim_step.ns as f64;
    layers.set("pulse-sim.step_minute.calls", p.sim_step.calls as f64);
    layers.set("pulse-sim.step_minute.s", p.sim_step.secs());
    layers.set("pulse-sim.step_minute.self_s", p.sim_self_ns as f64 / 1e9);
    layers.set(
        "pulse-sim.step_minute.self_share",
        ratio_or_zero(p.sim_self_ns as f64, step_ns),
    );
    layers.set(
        "pulse-sim.step_minute.adjust_share",
        ratio_or_zero(sim_adjust_ns as f64, step_ns),
    );
    layers.set(
        "pulse-sim.step_minute.p99_us",
        percentile(&p.sim_samples, 99.0) / 1e3,
    );
    for (kind, stats) in RT_KINDS.iter().zip(&p.rt_kinds) {
        layers.set(&format!("pulse-runtime.{kind}.count"), stats.calls as f64);
        layers.set(&format!("pulse-runtime.{kind}.self_s"), stats.secs());
    }
    layers.set(
        "pulse-runtime.tick.p99_us",
        percentile(&p.rt_tick_samples, 99.0) / 1e3,
    );
    layers.set(
        "pulse-runtime.queue_depth_max",
        p.rt_queue_max.max(p.sink.queue_depth_max) as f64,
    );
    let (req, app) = (p.sink.actions_requested, p.sink.actions_applied);
    layers.set("pulse-obs.actions_requested", req as f64);
    layers.set("pulse-obs.actions_applied", app as f64);
    layers.set(
        "pulse-obs.applied_ratio",
        ratio_or_zero(app as f64, req as f64),
    );
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Generate a fleet trace and its round-robin family assignment; returns
/// the trace generation time too.
fn fleet(n: usize, seed: u64, minutes: usize) -> (Trace, Vec<ModelFamily>, u64) {
    let t0 = Instant::now();
    let trace = pulse_trace::synth::azure_like_n_with_horizon(n, seed, minutes);
    let generate_ns = elapsed_ns(t0);
    let families = round_robin_assignment(&pulse_models::zoo::standard(), n);
    (trace, families, generate_ns)
}

/// Per-layer metrics of a probed iteration.
fn probed_layers(
    trace: &Trace,
    generate_ns: u64,
    stats: &PolicyStats,
    probe: &StepProbe,
    sim_adjust_ns: u64,
) -> Layers {
    let mut layers = Layers::default();
    trace_layers(&mut layers, trace, generate_ns);
    policy_layers(&mut layers, stats);
    step_layers(&mut layers, probe, sim_adjust_ns);
    layers
}

fn owk_10k(seed: u64, probed: bool) -> Iteration {
    let t0 = Instant::now();
    let (trace, families, generate_ns) = fleet(10_000, seed, 240);
    let total = trace.total_invocations();
    let policy = OpenWhiskFixed::new(&families);
    let sim = Simulator::new(trace, families);
    let setup_s = t0.elapsed().as_secs_f64();

    let mut failures = Vec::new();
    let mut it = if probed {
        let mut probe = StepProbe::default();
        let mut policy = probe.wrap(policy);
        let t1 = Instant::now();
        let m = drive_sim(&sim, &mut policy, Some(&mut probe));
        let run_s = t1.elapsed().as_secs_f64();
        let stats = policy.into_stats();
        let slo = sim_slo_met(&m, sim.families(), &stats, &mut failures);
        let mut it = Iteration::new(setup_s, run_s, Outcome::from_sim(&m), Some(slo));
        it.slo_met_phase = Some(slo);
        it.layers = Some(probed_layers(
            sim.trace(),
            generate_ns,
            &stats,
            &probe,
            stats.adjust.ns,
        ));
        it
    } else {
        let mut policy = policy;
        let t1 = Instant::now();
        let m = drive_sim(&sim, &mut policy, None);
        Iteration::new(
            setup_s,
            t1.elapsed().as_secs_f64(),
            Outcome::from_sim(&m),
            None,
        )
    };
    check_served(&mut failures, "minute engine", it.outcome.served(), total);
    it.failures = failures;
    it
}

fn pulse_1k_day(seed: u64, probed: bool) -> Iteration {
    let t0 = Instant::now();
    let (trace, families, generate_ns) = fleet(1_000, seed, 1_440);
    let total = trace.total_invocations();
    let sim = Simulator::new(trace.clone(), families.clone());
    let rt = Runtime::new(trace, families.clone(), RuntimeConfig::default());
    let sim_policy = PulsePolicy::new(families.clone(), PulseConfig::default());
    let rt_policy = PulsePolicy::new(families, PulseConfig::default());
    let setup_s = t0.elapsed().as_secs_f64();

    let mut failures = Vec::new();
    let (m, summary, run_s, probed_parts) = if probed {
        // One probe for both engines: the minute engine's steps land in its
        // pulse-sim fields, the runtime's in its pulse-runtime fields, and
        // the sink counts of both add up.
        let mut probe = StepProbe::default();
        let mut sim_policy = probe.wrap(sim_policy);
        let mut rt_policy = probe.wrap(rt_policy);
        let t1 = Instant::now();
        let m = drive_sim(&sim, &mut sim_policy, Some(&mut probe));
        let summary = drive_runtime(&rt, &mut rt_policy, Some(&mut probe));
        let run_s = t1.elapsed().as_secs_f64();
        let parts = (sim_policy.into_stats(), rt_policy.into_stats(), probe);
        (m, summary, run_s, Some(parts))
    } else {
        let (mut sim_policy, mut rt_policy) = (sim_policy, rt_policy);
        let t1 = Instant::now();
        let m = drive_sim(&sim, &mut sim_policy, None);
        let summary = drive_runtime(&rt, &mut rt_policy, None);
        (m, summary, t1.elapsed().as_secs_f64(), None)
    };

    let sim_outcome = Outcome::from_sim(&m);
    let rt_outcome = Outcome::from_runtime(&summary, 0);
    check_served(&mut failures, "minute engine", sim_outcome.served(), total);
    check_served(&mut failures, "runtime", rt_outcome.served(), total);
    let rt_accuracy: i64 = summary
        .records
        .iter()
        .filter(|r| !r.failed)
        .map(|r| hundredths(r.accuracy_pct))
        .sum();
    check_engines_agree(&mut failures, &sim_outcome, &rt_outcome, rt_accuracy);
    let rt_slo = runtime_slo_met(&summary);
    let mut it = Iteration::new(setup_s, run_s, rt_outcome, Some(rt_slo));
    if let Some((mut stats, rt_stats, probe)) = probed_parts {
        let sim_slo = sim_slo_met(&m, sim.families(), &stats, &mut failures);
        it.slo_met_phase = Some(sim_slo + rt_slo);
        let sim_adjust_ns = stats.adjust.ns;
        stats.merge(rt_stats);
        it.layers = Some(probed_layers(
            sim.trace(),
            generate_ns,
            &stats,
            &probe,
            sim_adjust_ns,
        ));
    }
    it.failures = failures;
    it
}

fn serve_hawkes_1k(seed: u64, probed: bool) -> Iteration {
    let t0 = Instant::now();
    let stream = ArrivalStream::generate(&LoadGenConfig {
        functions: 1_000,
        minutes: 60,
        mode: LoadMode::SelfExciting {
            base_rate: 15.0,
            excitation: 0.5,
            decay: 0.5,
        },
        seed,
    });
    let generate_ns = elapsed_ns(t0);
    let offered = stream.len() as u64;
    let families = round_robin_assignment(&pulse_models::zoo::standard(), stream.n_functions());
    let policy = PulsePolicy::new(families.clone(), PulseConfig::default());
    let config = ServeConfig::default().with_max_pending(SERVE_MAX_PENDING);
    // Unpaced producer and a channel that holds the whole stream: nothing is
    // dropped, so the outcomes are a pure function of the stream.
    let opts = LiveOptions {
        channel_capacity: stream.len().max(1),
        speedup: None,
    };
    let setup_s = t0.elapsed().as_secs_f64();
    // `serve_live` consumes the stream: take its trace shape first.
    let mut layers = Layers::default();
    if probed {
        trace_layers(&mut layers, stream.trace(), generate_ns);
    }

    let (report, run_ns, probe) = if probed {
        let mut probe = StepProbe::default();
        let mut policy = probe.wrap(policy);
        let t1 = Instant::now();
        let report = serve_live(
            stream,
            families,
            &mut policy,
            &config,
            &opts,
            "perfbench",
            Some(&mut probe.sink),
        );
        let run_ns = elapsed_ns(t1);
        (report, run_ns, Some((policy.into_stats(), probe)))
    } else {
        let mut policy = policy;
        let t1 = Instant::now();
        let report = serve_live(
            stream,
            families,
            &mut policy,
            &config,
            &opts,
            "perfbench",
            None,
        );
        (report, elapsed_ns(t1), None)
    };

    let mut failures = Vec::new();
    let dropped = report.front_door_dropped;
    let records = report.summary.records.len() as u64;
    if report.admitted + dropped != offered {
        failures.push(format!(
            "admitted {} + dropped {dropped} != stream length {offered}",
            report.admitted
        ));
    }
    if records != report.admitted {
        failures.push(format!(
            "served + failed = {records} != admitted {}",
            report.admitted
        ));
    }
    if dropped != 0 {
        failures.push(format!(
            "{dropped} arrivals dropped at the front door: the run measured refusal, not work"
        ));
    }
    let slo = runtime_slo_met(&report.summary);
    let outcome = Outcome::from_runtime(&report.summary, dropped);
    let mut it = Iteration::new(setup_s, secs(run_ns), outcome, Some(slo));
    it.slo_met_phase = Some(slo);
    if let Some((stats, probe)) = probe {
        policy_layers(&mut layers, &stats);
        step_layers(&mut layers, &probe, 0);
        let (d, t) = (&report.decision_ns, &report.tick_ns);
        layers.set("pulse-serve.admitted", report.admitted as f64);
        layers.set("pulse-serve.front_door_dropped", dropped as f64);
        layers.set("pulse-serve.engine_shed", report.engine_shed as f64);
        layers.set("pulse-serve.decision.count", d.count() as f64);
        layers.set("pulse-serve.decision.mean_ns", d.mean());
        layers.set("pulse-serve.tick.mean_ns", t.mean());
        layers.set(
            "pulse-serve.transport_s",
            secs(run_ns.saturating_sub(d.sum() + t.sum())),
        );
        it.layers = Some(layers);
    }
    it.failures = failures;
    it
}

fn check_served(failures: &mut Vec<String>, engine: &str, served: u64, total: u64) {
    if served != total {
        failures.push(format!(
            "{engine} served {served} invocations, the trace holds {total}"
        ));
    }
}

/// Accuracy total in whole hundredths of a point, the precision of the
/// model zoo's accuracy figures.
fn hundredths(accuracy_sum_pct: f64) -> i64 {
    (accuracy_sum_pct * 100.0).round() as i64
}

/// The engines must agree exactly on warm and cold counts, on the cost bits
/// and on the accuracy total. The engines add accuracy in different orders
/// (per function-minute vs per completed request), so the float sums differ
/// in their last bits; the accuracy check compares exact totals in the
/// zoo's precision instead, with the runtime side summed in integers.
fn check_engines_agree(
    failures: &mut Vec<String>,
    sim: &Outcome,
    rt: &Outcome,
    rt_accuracy_hundredths: i64,
) {
    let same = sim.warm == rt.warm
        && sim.cold == rt.cold
        && sim.cost_usd.to_bits() == rt.cost_usd.to_bits()
        && hundredths(sim.accuracy_sum_pct) == rt_accuracy_hundredths;
    if !same {
        failures.push(format!(
            "engines disagree: minute engine {} warm / {} cold / ${} / {} accuracy points, \
             runtime {} warm / {} cold / ${} / {} accuracy points",
            sim.warm,
            sim.cold,
            sim.cost_usd,
            sim.accuracy_sum_pct,
            rt.warm,
            rt.cold,
            rt.cost_usd,
            rt_accuracy_hundredths as f64 / 100.0
        ));
    }
}
