//! Outside-in instrumentation: a timing wrapper around the keep-alive
//! policy, a counting trace sink, and the per-call aggregates both feed.
//!
//! Everything here observes calls the engines already make through their
//! public API; nothing is timed inside the engines themselves.

use pulse_core::global::{AliveModel, DowngradeAction};
use pulse_core::individual::KeepAliveSchedule;
use pulse_core::types::{FuncId, Minute};
use pulse_models::VariantId;
use pulse_obs::{ObsEvent, TraceSink};
use pulse_sim::{KeepAlivePolicy, MinuteObservation};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Wall nanoseconds since `t0`, saturating.
pub fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Count and busy time of one kind of call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CallStats {
    /// Calls made.
    pub calls: u64,
    /// Wall time spent inside them, ns.
    pub ns: u64,
}

impl CallStats {
    /// Record one call of `ns` nanoseconds.
    pub fn add(&mut self, ns: u64) {
        self.calls += 1;
        self.ns += ns;
    }

    /// Busy time, seconds.
    pub fn secs(&self) -> f64 {
        self.ns as f64 / 1e9
    }
}

/// What the policy did, as seen from outside it.
#[derive(Debug, Clone, Default)]
pub struct PolicyStats {
    /// `adjust_minute` calls (Algorithms 1 and 2).
    pub adjust: CallStats,
    /// Per-call `adjust_minute` wall time, ns (one per minute tick).
    pub adjust_samples: Vec<f64>,
    /// Downgrade/evict actions returned by `adjust_minute`.
    pub actions: u64,
    /// `adjust_minute` calls that returned at least one action.
    pub peak_calls: u64,
    /// Alive containers presented to `adjust_minute`, summed over calls.
    pub alive_sum: u64,
    /// `schedule_on_invocation` calls.
    pub schedule: CallStats,
    /// `cold_start_variant` calls.
    pub cold_start: CallStats,
    /// `observe_minute` calls.
    pub observe: CallStats,
    /// Every `(function, variant)` the policy chose for a cold start, in
    /// call order.
    pub cold_starts: Vec<(FuncId, VariantId)>,
}

impl PolicyStats {
    /// Add another run's statistics (e.g. the second engine's).
    pub fn merge(&mut self, other: PolicyStats) {
        for (x, y) in [
            (&mut self.adjust, other.adjust),
            (&mut self.schedule, other.schedule),
            (&mut self.cold_start, other.cold_start),
            (&mut self.observe, other.observe),
        ] {
            x.calls += y.calls;
            x.ns += y.ns;
        }
        self.adjust_samples.extend(other.adjust_samples);
        self.actions += other.actions;
        self.peak_calls += other.peak_calls;
        self.alive_sum += other.alive_sum;
        self.cold_starts.extend(other.cold_starts);
    }
}

/// A [`KeepAlivePolicy`] that forwards every trait method to `inner` and
/// times the calls. Besides the per-method [`PolicyStats`], the total
/// policy time is published on a shared clock, so a caller holding the
/// engine session (which borrows the policy) can read how much of one
/// engine step the policy took.
pub struct TimedPolicy<P> {
    inner: P,
    clock: Arc<AtomicU64>,
    stats: PolicyStats,
}

impl<P: KeepAlivePolicy> TimedPolicy<P> {
    /// Wrap `inner`, adding its wall time to `clock` (ns). The clock is a
    /// statistic only: it publishes no other data, so relaxed ordering
    /// suffices. Several wrappers may share one clock.
    pub fn new(inner: P, clock: Arc<AtomicU64>) -> Self {
        Self {
            inner,
            clock,
            stats: PolicyStats::default(),
        }
    }

    /// The collected statistics.
    pub fn into_stats(self) -> PolicyStats {
        self.stats
    }

    fn charge(&self, ns: u64) {
        self.clock.fetch_add(ns, Ordering::Relaxed);
    }
}

impl<P: KeepAlivePolicy> KeepAlivePolicy for TimedPolicy<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schedule_on_invocation(&mut self, f: FuncId, t: Minute) -> KeepAliveSchedule {
        let t0 = Instant::now();
        let out = self.inner.schedule_on_invocation(f, t);
        let ns = elapsed_ns(t0);
        self.stats.schedule.add(ns);
        self.charge(ns);
        out
    }

    fn cold_start_variant(&mut self, f: FuncId, t: Minute) -> VariantId {
        let t0 = Instant::now();
        let v = self.inner.cold_start_variant(f, t);
        let ns = elapsed_ns(t0);
        self.stats.cold_start.add(ns);
        self.stats.cold_starts.push((f, v));
        self.charge(ns);
        v
    }

    fn adjust_minute(
        &mut self,
        t: Minute,
        mem_history: &[f64],
        first_minute_of_period: bool,
        current_kam_mb: f64,
        alive: &mut Vec<AliveModel>,
    ) -> Vec<DowngradeAction> {
        let presented = alive.len() as u64;
        let t0 = Instant::now();
        let actions = self.inner.adjust_minute(
            t,
            mem_history,
            first_minute_of_period,
            current_kam_mb,
            alive,
        );
        let ns = elapsed_ns(t0);
        let s = &mut self.stats;
        s.adjust.add(ns);
        s.adjust_samples.push(ns as f64);
        s.actions += actions.len() as u64;
        s.peak_calls += u64::from(!actions.is_empty());
        s.alive_sum += presented;
        self.charge(ns);
        actions
    }

    fn observe_minute(&mut self, obs: &MinuteObservation) {
        let t0 = Instant::now();
        self.inner.observe_minute(obs);
        let ns = elapsed_ns(t0);
        self.stats.observe.add(ns);
        self.charge(ns);
    }

    fn in_fallback(&self) -> bool {
        self.inner.in_fallback()
    }

    fn checkpoint_state(&self) -> Option<String> {
        self.inner.checkpoint_state()
    }

    fn restore_state(&mut self, state: &str) -> Result<(), String> {
        self.inner.restore_state(state)
    }
}

/// A [`TraceSink`] that keeps counts, not events.
#[derive(Debug, Clone, Default)]
pub struct CountingSink {
    /// Events received.
    pub events: u64,
    /// Downgrade/evict actions the policy requested (summed `Adjust`).
    pub actions_requested: u64,
    /// Actions that moved a ledger slot (summed `Adjust`).
    pub actions_applied: u64,
    /// Deepest engine queue reported by a `ServeTick`.
    pub queue_depth_max: u64,
}

impl TraceSink for CountingSink {
    fn record(&mut self, event: &ObsEvent) {
        self.events += 1;
        match *event {
            ObsEvent::Adjust {
                requested, applied, ..
            } => {
                self.actions_requested += requested as u64;
                self.actions_applied += applied as u64;
            }
            ObsEvent::ServeTick { queue_depth, .. } => {
                self.queue_depth_max = self.queue_depth_max.max(queue_depth as u64);
            }
            _ => {}
        }
    }
}
