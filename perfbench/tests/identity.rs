//! The timing wrapper must not change the program it measures: a wrapped
//! run matches an unwrapped one bit for bit on both engines, and every
//! trait method — the defaulted ones included — reaches the inner policy.

use pulse_core::individual::KeepAliveSchedule;
use pulse_core::types::{FuncId, Minute, PulseConfig};
use pulse_models::{ModelFamily, VariantId};
use pulse_perfbench::probe::{CountingSink, TimedPolicy};
use pulse_runtime::{Runtime, RuntimeConfig, RuntimeSummary};
use pulse_sim::assignment::round_robin_assignment;
use pulse_sim::policies::{OpenWhiskFixed, PulsePolicy};
use pulse_sim::{KeepAlivePolicy, MinuteObservation, RunMetrics, Simulator};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn workload() -> (pulse_trace::Trace, Vec<ModelFamily>) {
    let trace = pulse_trace::synth::azure_like_n_with_horizon(40, 7, 600);
    let families = round_robin_assignment(&pulse_models::zoo::standard(), trace.n_functions());
    (trace, families)
}

fn sim_key(m: &RunMetrics) -> (u64, u64, u64, u64, u64) {
    (
        m.keepalive_cost_usd.to_bits(),
        m.warm_starts,
        m.cold_starts,
        m.accuracy_sum_pct.to_bits(),
        m.downgrades,
    )
}

fn runtime_key(s: &RuntimeSummary) -> (u64, u64, u64, u64, u64) {
    let accuracy: f64 = s.records.iter().map(|r| r.accuracy_pct).sum();
    (
        s.keepalive_cost_usd.to_bits(),
        s.warm_starts(),
        s.requests() - s.warm_starts(),
        accuracy.to_bits(),
        s.downgrades,
    )
}

/// Run `make()` plain and wrapped (with a counting sink attached to the
/// wrapped run, as the probed benchmark iterations do) on both engines.
fn assert_wrapping_is_transparent<P: KeepAlivePolicy>(make: impl Fn(&[ModelFamily]) -> P) {
    let (trace, families) = workload();
    let sim = Simulator::new(trace.clone(), families.clone());
    let rt = Runtime::new(trace, families.clone(), RuntimeConfig::default());
    let clock = Arc::new(AtomicU64::new(0));

    let plain = sim.run(&mut make(&families));
    let mut wrapped = TimedPolicy::new(make(&families), Arc::clone(&clock));
    let traced = sim.run_traced(&mut wrapped, &mut CountingSink::default());
    assert_eq!(sim_key(&plain), sim_key(&traced), "minute engine");
    assert!(plain.invocations() > 0);
    let stats = wrapped.into_stats();
    assert_eq!(stats.cold_starts.len() as u64, traced.cold_starts);
    assert_eq!(stats.adjust.calls, 600);
    assert!(clock.load(Ordering::Relaxed) > 0);

    let plain = rt.run(&mut make(&families));
    let mut wrapped = TimedPolicy::new(make(&families), Arc::clone(&clock));
    let traced = rt.run_traced(&mut wrapped, &mut CountingSink::default());
    assert_eq!(runtime_key(&plain), runtime_key(&traced), "runtime");
    assert_eq!(plain.records.len(), traced.records.len());
}

#[test]
fn wrapped_pulse_matches_unwrapped_on_both_engines() {
    assert_wrapping_is_transparent(|f| PulsePolicy::new(f.to_vec(), PulseConfig::default()));
}

#[test]
fn wrapped_openwhisk_matches_unwrapped_on_both_engines() {
    assert_wrapping_is_transparent(OpenWhiskFixed::new);
}

/// A policy whose every method, defaulted or not, leaves a mark.
#[derive(Default)]
struct Marker {
    observed: u64,
}

impl KeepAlivePolicy for Marker {
    fn name(&self) -> &str {
        "marker"
    }

    fn schedule_on_invocation(&mut self, _f: FuncId, t: Minute) -> KeepAliveSchedule {
        KeepAliveSchedule::constant(t, 0, 3)
    }

    fn cold_start_variant(&mut self, _f: FuncId, _t: Minute) -> VariantId {
        1
    }

    fn observe_minute(&mut self, _obs: &MinuteObservation) {
        self.observed += 1;
    }

    fn in_fallback(&self) -> bool {
        true
    }

    fn checkpoint_state(&self) -> Option<String> {
        Some(format!("observed={}", self.observed))
    }

    fn restore_state(&mut self, state: &str) -> Result<(), String> {
        Err(format!("marker saw {state:?}"))
    }
}

#[test]
fn every_trait_method_is_forwarded() {
    let mut p = TimedPolicy::new(Marker::default(), Arc::new(AtomicU64::new(0)));
    assert_eq!(p.name(), "marker");
    assert_eq!(
        p.schedule_on_invocation(0, 5),
        KeepAliveSchedule::constant(5, 0, 3)
    );
    assert_eq!(p.cold_start_variant(0, 5), 1);
    assert!(p
        .adjust_minute(5, &[], false, 0.0, &mut Vec::new())
        .is_empty());
    p.observe_minute(&MinuteObservation {
        minute: 5,
        requests: 1,
        slo_violations: 0,
        keepalive_mb: 0.0,
    });
    assert!(p.in_fallback());
    assert_eq!(p.checkpoint_state().as_deref(), Some("observed=1"));
    assert_eq!(p.restore_state("s"), Err("marker saw \"s\"".to_string()));
    let stats = p.into_stats();
    assert_eq!(
        (
            stats.schedule.calls,
            stats.cold_start.calls,
            stats.adjust.calls,
            stats.observe.calls
        ),
        (1, 1, 1, 1)
    );
    assert_eq!(stats.cold_starts, vec![(0, 1)]);
}

#[test]
fn wrapped_pulse_checkpoint_restores_mid_run() {
    let (trace, families) = workload();
    let sim = Simulator::new(trace, families.clone());
    let make = || {
        TimedPolicy::new(
            PulsePolicy::new(families.clone(), PulseConfig::default()),
            Arc::new(AtomicU64::new(0)),
        )
    };
    let whole = sim.run(&mut make());

    let mut first = make();
    let mut session = sim.session(&mut first);
    for _ in 0..300 {
        session.step_minute();
    }
    let snapshot = session.snapshot().expect("PULSE is checkpointable");
    let mut second = make();
    let mut resumed = sim
        .restore_session(&mut second, &snapshot)
        .expect("snapshot restores");
    while resumed.step_minute().is_some() {}
    assert_eq!(sim_key(&whole), sim_key(&resumed.finish()));
}
