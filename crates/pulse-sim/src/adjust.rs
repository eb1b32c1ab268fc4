//! The per-minute adjust stage both engines run.
//!
//! At each minute the policy's cross-function layer (Algorithms 1+2 for
//! PULSE) sees the schedule demand and the alive set, and may downgrade or
//! evict models for that minute only. [`AdjustStage`] owns the state this
//! needs across minutes — the demand history feeding peak detection and the
//! "invoked since the last adjust" flag — plus the reusable footprint and
//! alive-set buffers, so the minute engine ([`crate::SimSession`]) and the
//! event-driven runtime run the exact same step.

use crate::policy::KeepAlivePolicy;
use crate::recover::RecoverError;
use pulse_core::global::{AliveModel, DowngradeAction};
use pulse_core::schedule::{begins_keepalive_period, MinuteFootprint, ScheduleLedger};
use pulse_core::types::Minute;
use pulse_models::ModelFamily;
use pulse_obs::{emit, ActionSource, ObsEvent, Record, RecordBuilder, TraceSink};

/// The adjust stage's cross-minute state and scratch buffers.
#[derive(Debug, Clone, Default)]
pub struct AdjustStage {
    /// Footprint buffer, refilled in place each minute by
    /// [`ScheduleLedger::fill_minute_footprint`]; later stages of the same
    /// minute may patch it ([`Self::footprint_mut`]).
    fp: MinuteFootprint,
    /// Copy of the alive set handed to the policy (which may mutate it
    /// arbitrarily while selecting victims).
    alive_scratch: Vec<AliveModel>,
    // `demand_history` records what the schedules *asked* to keep alive each
    // minute (pre-adjustment) and drives the policy's peak detection —
    // feeding post-flattening values back into the prior would drag the
    // detector's baseline into a death spiral (every flatten lowers the
    // prior, which makes the next minute a "peak" again). What was actually
    // kept alive (post-adjustment) drives billing and the reported series.
    demand_history: Vec<f64>,
    /// Whether any function was invoked since the last [`Self::run`].
    invoked: bool,
}

impl AdjustStage {
    /// A fresh stage with room for `minutes` of demand history.
    pub fn with_horizon(minutes: usize) -> Self {
        Self {
            demand_history: Vec::with_capacity(minutes),
            ..Self::default()
        }
    }

    /// Record an invocation: the next minute begins a keep-alive period.
    pub fn mark_invoked(&mut self) {
        self.invoked = true;
    }

    /// The footprint [`Self::run`] filled for its minute, for later stages
    /// of that minute to keep in sync through
    /// [`ScheduleLedger::patch_minute_footprint`].
    pub fn footprint_mut(&mut self) -> &mut MinuteFootprint {
        &mut self.fp
    }

    /// Run the stage for `minute`: fill the footprint, ask the policy for
    /// its cross-function actions against the schedule demand, and apply
    /// them to this minute of `ledger` one by one, reporting each action's
    /// applied/ignored outcome and the stage summary to `sink`. Returns the
    /// number of actions the policy requested.
    pub fn run(
        &mut self,
        minute: Minute,
        families: &[ModelFamily],
        ledger: &mut ScheduleLedger,
        policy: &mut dyn KeepAlivePolicy,
        sink: &mut Option<&mut dyn TraceSink>,
    ) -> usize {
        let invoked = std::mem::take(&mut self.invoked);
        ledger.fill_minute_footprint(families, minute, &mut self.fp);
        self.alive_scratch.clone_from(&self.fp.alive);
        let kam = self.fp.total_mb;
        let first_minute = begins_keepalive_period(invoked, kam, &self.demand_history);
        let actions = policy.adjust_minute(
            minute,
            &self.demand_history,
            first_minute,
            kam,
            &mut self.alive_scratch,
        );
        self.demand_history.push(kam);
        // Apply action-by-action (the exact loop `apply_actions` runs) so
        // each one's applied/ignored outcome can be reported.
        let mut applied = 0usize;
        for a in &actions {
            let moved = ledger.apply_action(minute, a);
            applied += usize::from(moved);
            emit(sink, || match *a {
                DowngradeAction::Downgrade { func, from, to } => ObsEvent::Downgrade {
                    minute,
                    func,
                    from,
                    to,
                    source: ActionSource::Policy,
                    applied: moved,
                },
                DowngradeAction::Evict { func, from } => ObsEvent::Evict {
                    minute,
                    func,
                    from,
                    source: ActionSource::Policy,
                    applied: moved,
                },
            });
        }
        emit(sink, || ObsEvent::Adjust {
            minute,
            requested: actions.len(),
            applied,
            keepalive_mb: kam,
        });
        actions.len()
    }

    /// Add the `invoked` flag to a snapshot header under construction.
    pub fn encode_header(&self, head: RecordBuilder) -> RecordBuilder {
        head.bool("invoked", self.invoked)
    }

    /// The snapshot's `demand` row.
    pub fn demand_row(&self) -> String {
        RecordBuilder::new("demand")
            .f64_list("history", &self.demand_history)
            .finish()
    }

    /// Decode a snapshot's `demand` row.
    pub fn decode_demand_row(rec: &Record) -> Result<Vec<f64>, RecoverError> {
        rec.f64_list("history").map_err(RecoverError::corrupt)
    }

    /// Rebuild the stage from a snapshot's header and its decoded `demand`
    /// row (`None` when the snapshot lacks one).
    pub fn restore(head: &Record, demand: Option<Vec<f64>>) -> Result<Self, RecoverError> {
        let demand_history =
            demand.ok_or_else(|| RecoverError::corrupt("snapshot lacks a demand row"))?;
        Ok(Self {
            demand_history,
            invoked: head.bool("invoked").map_err(RecoverError::corrupt)?,
            ..Self::default()
        })
    }
}
