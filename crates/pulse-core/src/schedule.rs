//! The schedule ledger: the one place that owns keep-alive slot semantics.
//!
//! Every engine in the workspace — the minute-resolution simulator
//! (`pulse-sim`), the event-driven runtime (`pulse-runtime`), and any future
//! online/sharded serving mode — accounts the same way: *which variant each
//! function's schedule holds at each minute* determines billing, downgrade
//! application (Algorithm 2) and warm/cold outcomes. This module extracts
//! that shared substrate so it is implemented once:
//!
//! * [`Slot`] — a typed per-minute slot: [`Slot::Alive`] with a variant, or
//!   [`Slot::Hole`] (a planned-but-dead minute, used by oracle and
//!   forecast-integrated policies that keep containers alive at
//!   non-contiguous minutes). The raw encoding inside
//!   [`KeepAliveSchedule`]'s plan vector is the [`HOLE`] sentinel; `Slot` is
//!   the only supported way to produce or consume it.
//! * [`ScheduleLedger`] — the per-function schedule table with the footprint
//!   and billing queries ([`ScheduleLedger::alive_variant_at`],
//!   [`ScheduleLedger::keep_alive_mb_at`],
//!   [`ScheduleLedger::keepalive_cost_usd_at`]) and the single
//!   downgrade/eviction routine ([`ScheduleLedger::apply_downgrade`],
//!   [`ScheduleLedger::apply_eviction`]) that engines previously hand-rolled.
//!
//! # Downgrade semantics
//!
//! Algorithm 2 downgrades are decisions for the peak minute `t` ("for every
//! time period t classified as peak"): [`ScheduleLedger::apply_downgrade`]
//! clamps minute `t` of the schedule only — if the demand is still peaked at
//! `t + 1`, the detector fires again there. The clamp never *raises* a slot:
//! a minute already at or below the requested rung (or a hole) is left
//! untouched, so repeated downgrade actions against the same minute are
//! monotone — the slot can only move down the ladder within the window.
//! [`ScheduleLedger::apply_eviction`] punches a [`Slot::Hole`] at minute `t`.
//!
//! # Incremental maintenance
//!
//! A ledger built with [`ScheduleLedger::for_families`] additionally keeps a
//! per-minute index of its alive sets so the per-minute hot path is
//! sub-linear in total function count:
//!
//! * every mutation ([`ScheduleLedger::replace`], [`ScheduleLedger::clear`],
//!   [`ScheduleLedger::apply_downgrade`], [`ScheduleLedger::apply_eviction`])
//!   updates a **running keep-alive MB total** per minute by delta and
//!   records the function in a **dirty set**. Membership costs `O(1)` per
//!   minute whatever the alive count: a minute's set is an *unordered* vec,
//!   an add is a push, and a removal is a `swap_remove` that re-points the
//!   one moved member through a per-function position map. Maintaining an
//!   invocation therefore costs `O(schedule length)`;
//! * reads ([`ScheduleLedger::metered_kam_mb`],
//!   [`ScheduleLedger::fill_minute_footprint`],
//!   [`ScheduleLedger::patch_minute_footprint`]) **sort on read**: a minute
//!   whose set a swap scrambled is sorted (and its members re-pointed)
//!   before it is visited, then a mutated minute's total is **pinned** by
//!   re-summing its alive set in ascending function order — the exact
//!   operand sequence of [`ScheduleLedger::keep_alive_mb_at`] — so billed
//!   values stay bit-identical to the legacy full sweep while costing
//!   `O(alive)` (plus an `O(n_functions / 64)` bitmap pass to sort a
//!   scrambled set) instead of `O(n_functions)`. An unmutated minute is
//!   never scrambled and answers from its pin in `O(1)`.
//!   The delta-maintained running value is kept only as a monitor
//!   ([`ScheduleLedger::running_kam_mb_at`]) and as a debug cross-check
//!   against the pin.
//!
//! The minute states live in a ring that starts at the retirement point
//! ([`ScheduleLedger::retire_minutes_before`]); retired states are reset and
//! reused for the minutes the ring grows into, so steady-state maintenance
//! allocates nothing. An empty minute answers exactly as an unplanned one.
//!
//! Ledgers built with [`ScheduleLedger::new`] have no index and answer every
//! query through the legacy full-sweep path, so existing callers and
//! snapshots are unaffected.

use crate::convert::{gap_to_index, len_to_u32, window_to_len};
use crate::global::{AliveModel, DowngradeAction};
use crate::individual::KeepAliveSchedule;
use crate::types::{FuncId, Minute};
use pulse_models::{CostModel, ModelFamily, VariantId};
use std::collections::VecDeque;

/// Raw in-plan marker for a "dead" minute inside a schedule: the container
/// is not alive even though the plan covers the minute. This is the storage
/// encoding of [`Slot::Hole`]; code outside this module should use [`Slot`]
/// rather than comparing against the sentinel (the `variant-sentinel` audit
/// rule enforces this).
pub const HOLE: VariantId = usize::MAX;

/// One minute of a keep-alive plan, typed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Slot {
    /// A container holding `VariantId` is kept alive during the minute.
    Alive(VariantId),
    /// The plan covers the minute but keeps nothing alive (oracle /
    /// forecast policies warm non-contiguous minutes).
    Hole,
}

impl Slot {
    /// Decode a raw plan entry ([`HOLE`] ⇒ [`Slot::Hole`]).
    pub fn from_raw(raw: VariantId) -> Self {
        if raw == HOLE {
            Slot::Hole
        } else {
            Slot::Alive(raw)
        }
    }

    /// Encode for plan storage ([`Slot::Hole`] ⇒ [`HOLE`]).
    pub fn into_raw(self) -> VariantId {
        match self {
            Slot::Alive(v) => v,
            Slot::Hole => HOLE,
        }
    }

    /// The kept-alive variant, `None` for a hole.
    pub fn alive(self) -> Option<VariantId> {
        match self {
            Slot::Alive(v) => Some(v),
            Slot::Hole => None,
        }
    }

    /// Whether this slot keeps nothing alive.
    pub fn is_hole(self) -> bool {
        matches!(self, Slot::Hole)
    }
}

/// The alive set and total keep-alive footprint of one minute, computed in
/// one pass so cross-function optimization and billing agree by
/// construction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MinuteFootprint {
    /// Kept-alive models at the minute, in function order, with
    /// `invocation_probability` zeroed (the policy fills it in).
    pub alive: Vec<AliveModel>,
    /// Total keep-alive memory at the minute, MB. Summed in ascending
    /// function order — engines bill from this exact value, so the addition
    /// order is part of the bit-identity contract.
    pub total_mb: f64,
}

/// One minute of the incremental index: the alive set plus a running total.
#[derive(Debug, Clone, Default)]
struct MinuteState {
    /// Alive functions at the minute, in no particular order while
    /// `unsorted`. Reads sort it first, so every visit is ascending — the
    /// order the legacy full sweep uses.
    funcs: Vec<FuncId>,
    /// Keep-alive MB at the minute. Between mutations and pins this is the
    /// delta-maintained running value; once pinned (and while `dirty` is
    /// false) it is the exact ascending-order sum.
    running_mb: f64,
    /// Whether `running_mb` has been updated by delta since the last pin
    /// (deltas are not bit-identical to re-summing, so billed reads re-pin).
    dirty: bool,
    /// Whether a push or `swap_remove` left `funcs` out of ascending order.
    /// Only a mutation scrambles the set and every mutation also sets
    /// `dirty`, so a clean minute is always sorted.
    unsorted: bool,
}

impl MinuteState {
    /// Back to the empty minute, keeping the set's allocation for reuse.
    fn reset(&mut self) {
        self.funcs.clear();
        self.running_mb = 0.0;
        self.dirty = false;
        self.unsorted = false;
    }
}

/// Where one function sits in the minute sets its current schedule covers.
#[derive(Debug, Clone, Default)]
struct Positions {
    /// First minute of the schedule (`invoked_at + 1`).
    first: Minute,
    /// `at[i]`: the function's index in the set of minute `first + i`.
    /// Meaningful only where that slot is alive and the minute indexed.
    /// Stored as `u32` to halve the map; a set never nears 2^32 members.
    at: Vec<u32>,
}

impl Positions {
    /// The function's index in minute `t`'s set.
    fn get(&self, t: Minute) -> Option<usize> {
        let at = self.at.get(gap_to_index(t.checked_sub(self.first)?))?;
        Some(gap_to_index(u64::from(*at)))
    }

    /// Record the function at index `at` of minute `t`'s set.
    fn set(&mut self, t: Minute, at: usize) {
        let offset = t.checked_sub(self.first).map(gap_to_index);
        if let Some(slot) = offset.and_then(|i| self.at.get_mut(i)) {
            *slot = len_to_u32(at);
        }
    }
}

/// The incremental side-structure of a [`ScheduleLedger::for_families`]
/// ledger: per-minute alive sets with delta-maintained totals, plus the
/// dirty-function set engines use to patch footprints in place.
#[derive(Debug, Clone, Default)]
struct LedgerIndex {
    /// Memory ladders snapshotted at construction (`mem[f][v]`), used for
    /// delta updates where no `families` slice is in scope.
    mem: Vec<Vec<f64>>,
    /// Minute states: `ring[i]` is minute `retired_before + i`. Minutes past
    /// the end are empty.
    ring: VecDeque<MinuteState>,
    /// Reset states retired off the ring's front, reused as it grows (at
    /// most as many as the ring holds, so a one-off spike is not retained).
    spare: Vec<MinuteState>,
    /// Minutes below this have been retired ([`ScheduleLedger::retire_minutes_before`]);
    /// queries against them fall back to the legacy sweep.
    retired_before: Minute,
    /// Per-function position map into the minute sets (`pos[f]`).
    pos: Vec<Positions>,
    /// One bit per function, all clear between reads: the bucket
    /// [`sort_members`] sorts a scrambled set through.
    mark: Vec<u64>,
    /// Functions mutated since the last footprint fill/patch, deduplicated.
    dirty: Vec<FuncId>,
    /// Membership mask for `dirty` (indexed by function).
    dirty_mark: Vec<bool>,
}

impl LedgerIndex {
    fn for_families(families: &[ModelFamily]) -> Self {
        Self {
            mem: families
                .iter()
                .map(|fam| {
                    (0..fam.n_variants())
                        .map(|v| fam.variant(v).memory_mb)
                        .collect()
                })
                .collect(),
            pos: vec![Positions::default(); families.len()],
            mark: vec![0; families.len().div_ceil(64)],
            dirty_mark: vec![false; families.len()],
            ..Self::default()
        }
    }

    fn mark_dirty(&mut self, f: FuncId) {
        if let Some(mark) = self.dirty_mark.get_mut(f) {
            if !*mark {
                *mark = true;
                self.dirty.push(f);
            }
        }
    }

    fn clear_dirty(&mut self) {
        for f in self.dirty.drain(..) {
            self.dirty_mark[f] = false;
        }
    }

    /// Ring index of minute `t`, `None` when it is retired.
    fn ring_index(&self, t: Minute) -> Option<usize> {
        t.checked_sub(self.retired_before).map(gap_to_index)
    }

    /// Minute `t`'s state with its set ascending (sorting and re-pointing
    /// its members if a swap scrambled it); `None` when the minute is empty
    /// or not indexed.
    fn read_state(&mut self, t: Minute) -> Option<&mut MinuteState> {
        let i = self.ring_index(t)?;
        let state = self.ring.get_mut(i).filter(|s| !s.funcs.is_empty())?;
        if state.unsorted {
            sort_members(&mut state.funcs, &mut self.mark);
            for (at, &f) in state.funcs.iter().enumerate() {
                self.pos[f].set(t, at);
            }
            state.unsorted = false;
        }
        Some(state)
    }

    /// Add `f` to minute `t`'s set (growing the ring to reach it) and
    /// return its position; `None` for a retired minute.
    fn insert(&mut self, f: FuncId, t: Minute, mb: f64) -> Option<usize> {
        let i = self.ring_index(t)?;
        while self.ring.len() <= i {
            self.ring.push_back(self.spare.pop().unwrap_or_default());
        }
        let state = &mut self.ring[i];
        state.unsorted |= state.funcs.last().is_some_and(|&g| g > f);
        state.funcs.push(f);
        state.running_mb += mb;
        state.dirty = true;
        Some(state.funcs.len() - 1)
    }

    /// Drop `f` (holding `mb`) from indexed minute `t`'s set in `O(1)`: the
    /// last member is swapped into its place and re-pointed.
    fn unlink(&mut self, f: FuncId, t: Minute, mb: f64) {
        let i = self.ring_index(t);
        let Some(state) = i.and_then(|i| self.ring.get_mut(i)) else {
            debug_assert!(false, "indexed minute {t} missing");
            return;
        };
        let Some(at) = self.pos[f]
            .get(t)
            .filter(|&at| state.funcs.get(at) == Some(&f))
        else {
            debug_assert!(false, "function {f} misplaced in indexed minute {t}");
            return;
        };
        state.funcs.swap_remove(at);
        if state.funcs.is_empty() {
            state.reset();
            return;
        }
        state.running_mb -= mb;
        state.dirty = true;
        if let Some(&moved) = state.funcs.get(at) {
            state.unsorted = true;
            self.pos[moved].set(t, at);
        }
    }

    /// Remove every alive minute of `sched` (for function `f`) from the index.
    fn remove_schedule(&mut self, f: FuncId, sched: &KeepAliveSchedule) {
        for (t, raw) in sched.iter() {
            if let Some(v) = Slot::from_raw(raw).alive() {
                if t >= self.retired_before {
                    self.unlink(f, t, self.mem[f][v]);
                }
            }
        }
    }

    /// Add every alive minute of `sched` (for function `f`) to the index,
    /// rewriting `f`'s position map to match the new plan.
    fn add_schedule(&mut self, f: FuncId, sched: &KeepAliveSchedule) {
        let mut pos = std::mem::take(&mut self.pos[f]);
        pos.first = sched.invoked_at + 1;
        pos.at.clear();
        pos.at.resize(window_to_len(sched.window()), 0);
        for (t, raw) in sched.iter() {
            if let Some(v) = Slot::from_raw(raw).alive() {
                if let Some(at) = self.insert(f, t, self.mem[f][v]) {
                    pos.set(t, at);
                }
            }
        }
        self.pos[f] = pos;
    }

    fn on_downgrade(&mut self, f: FuncId, t: Minute, from: VariantId, to: VariantId) {
        self.mark_dirty(f);
        let delta = self.mem[f][to] - self.mem[f][from];
        let i = self.ring_index(t);
        if let Some(state) = i.and_then(|i| self.ring.get_mut(i)) {
            debug_assert!(!state.funcs.is_empty(), "downgraded minute {t} empty");
            state.running_mb += delta;
            state.dirty = true;
        } else {
            debug_assert!(t < self.retired_before, "downgraded minute {t} not indexed");
        }
    }

    fn on_evict(&mut self, f: FuncId, t: Minute, from: VariantId) {
        self.mark_dirty(f);
        if t >= self.retired_before {
            self.unlink(f, t, self.mem[f][from]);
        }
    }
}

/// Sort a minute's set ascending in `O(len + n_functions / 64)` by bucketing
/// its (unique) members into the all-clear bitmap `mark` and reading them
/// back in bit order, which leaves `mark` clear again. On the nearly-sorted
/// sets swaps leave behind, `sort_unstable` measured ~14 ns a member at
/// 5.3k members; this costs ~2.5 ns.
fn sort_members(funcs: &mut Vec<FuncId>, mark: &mut [u64]) {
    for &f in funcs.iter() {
        mark[f / 64] |= 1 << (f % 64);
    }
    funcs.clear();
    for (w, word) in mark.iter_mut().enumerate() {
        let mut bits = std::mem::take(word);
        while bits != 0 {
            funcs.push(w * 64 + gap_to_index(u64::from(bits.trailing_zeros())));
            bits &= bits - 1;
        }
    }
}

/// Alive variant lookup usable while the index is mutably borrowed (free
/// function over the schedule table instead of a `&self` method).
fn variant_of(schedules: &[Option<KeepAliveSchedule>], f: FuncId, t: Minute) -> Option<VariantId> {
    schedules
        .get(f)
        .and_then(Option::as_ref)
        .and_then(|s| s.slot_at(t))
        .and_then(Slot::alive)
}

/// Per-function keep-alive schedules plus the footprint/billing/downgrade
/// semantics shared by every engine.
///
/// The ledger holds at most one schedule per function (each invocation
/// replaces the function's plan, exactly as the paper's individual
/// optimization prescribes) and answers minute-indexed queries against it.
#[derive(Debug, Clone, Default)]
pub struct ScheduleLedger {
    schedules: Vec<Option<KeepAliveSchedule>>,
    /// Incremental per-minute index; `None` for [`Self::new`] ledgers, which
    /// answer every query through the legacy full-sweep path.
    index: Option<LedgerIndex>,
}

impl ScheduleLedger {
    /// An empty ledger for `n_functions` functions (legacy full-sweep
    /// queries only; see [`Self::for_families`] for the incremental form).
    pub fn new(n_functions: usize) -> Self {
        Self {
            schedules: vec![None; n_functions],
            index: None,
        }
    }

    /// An empty ledger for `families.len()` functions with the incremental
    /// per-minute index enabled: mutations maintain per-minute alive sets,
    /// running totals, and a dirty-function set, making
    /// [`Self::metered_kam_mb`] / [`Self::fill_minute_footprint`] /
    /// [`Self::patch_minute_footprint`] sub-linear in total function count.
    /// Every `&self` query behaves exactly as on a [`Self::new`] ledger.
    ///
    /// The same `families` slice must be passed to all queries (as the
    /// legacy API already requires).
    pub fn for_families(families: &[ModelFamily]) -> Self {
        Self {
            schedules: vec![None; families.len()],
            index: Some(LedgerIndex::for_families(families)),
        }
    }

    /// Whether this ledger maintains the incremental per-minute index.
    pub fn is_incremental(&self) -> bool {
        self.index.is_some()
    }

    /// Number of functions tracked.
    pub fn n_functions(&self) -> usize {
        self.schedules.len()
    }

    /// The current schedule of `f`, if any.
    pub fn schedule(&self, f: FuncId) -> Option<&KeepAliveSchedule> {
        self.schedules.get(f).and_then(Option::as_ref)
    }

    /// Replace `f`'s plan (the policy's response to an invocation).
    pub fn replace(&mut self, f: FuncId, schedule: KeepAliveSchedule) {
        let Some(slot) = self.schedules.get_mut(f) else {
            return;
        };
        let old = slot.replace(schedule);
        if let Some(ix) = self.index.as_mut() {
            if let Some(old) = &old {
                ix.remove_schedule(f, old);
            }
            if let Some(new) = self.schedules[f].as_ref() {
                ix.add_schedule(f, new);
            }
            ix.mark_dirty(f);
        }
    }

    /// Drop `f`'s plan entirely (nothing kept alive until the next
    /// invocation).
    pub fn clear(&mut self, f: FuncId) {
        let Some(slot) = self.schedules.get_mut(f) else {
            return;
        };
        let old = slot.take();
        if let Some(ix) = self.index.as_mut() {
            if let Some(old) = &old {
                ix.remove_schedule(f, old);
                ix.mark_dirty(f);
            }
        }
    }

    /// The typed slot of `f` at minute `t`: [`Slot::Hole`] when the plan has
    /// a hole there, does not cover `t`, or does not exist. ("Expired" and
    /// "planned dead" are deliberately indistinguishable here — neither
    /// keeps anything alive, neither bills.)
    pub fn slot_at(&self, f: FuncId, t: Minute) -> Slot {
        self.schedule(f)
            .and_then(|s| s.slot_at(t))
            .unwrap_or(Slot::Hole)
    }

    /// Alive variant of `f` at minute `t` per its schedule (`None` when
    /// expired, absent, or a hole).
    pub fn alive_variant_at(&self, f: FuncId, t: Minute) -> Option<VariantId> {
        self.slot_at(f, t).alive()
    }

    /// Total keep-alive memory (MB) at minute `t`, summed in ascending
    /// function order.
    pub fn keep_alive_mb_at(&self, families: &[ModelFamily], t: Minute) -> f64 {
        (0..self.schedules.len())
            .filter_map(|f| {
                self.alive_variant_at(f, t)
                    .map(|v| families[f].variant(v).memory_mb)
            })
            .sum()
    }

    /// The alive set and footprint of minute `t` in one pass (the shape the
    /// cross-function adjustment and capacity-enforcement stages consume).
    pub fn minute_footprint(&self, families: &[ModelFamily], t: Minute) -> MinuteFootprint {
        let mut alive = Vec::new();
        let mut total_mb = 0.0f64;
        for (f, fam) in families.iter().enumerate().take(self.schedules.len()) {
            if let Some(v) = self.alive_variant_at(f, t) {
                total_mb += fam.variant(v).memory_mb;
                alive.push(AliveModel {
                    func: f,
                    variant: v,
                    invocation_probability: 0.0,
                });
            }
        }
        MinuteFootprint { alive, total_mb }
    }

    /// GB-s metering: the keep-alive cost (USD) billed for minute `t` under
    /// `cost`, from the post-adjustment schedule footprint.
    pub fn keepalive_cost_usd_at(
        &self,
        families: &[ModelFamily],
        cost: &CostModel,
        t: Minute,
    ) -> f64 {
        cost.keepalive_cost_usd_per_minutes(self.keep_alive_mb_at(families, t), 1.0)
    }

    /// Apply Algorithm 2's downgrade to minute `t` of `f`'s schedule: clamp
    /// the slot to `to` iff it is currently alive *above* `to`. Holes,
    /// expired plans and slots already at or below the rung are untouched
    /// (the persistent-downgrade rule: a downgraded slot can never be
    /// re-raised by a later, weaker action). Returns whether the slot moved.
    pub fn apply_downgrade(&mut self, f: FuncId, t: Minute, to: VariantId) -> bool {
        let from = match self.slot_at(f, t) {
            Slot::Alive(v) if v > to => Some(v),
            _ => None,
        };
        if let Some(from) = from {
            if let Some(s) = self.schedules.get_mut(f).and_then(Option::as_mut) {
                s.set_slot_at(t, Slot::Alive(to));
            }
            if let Some(ix) = self.index.as_mut() {
                ix.on_downgrade(f, t, from, to);
            }
        }
        from.is_some()
    }

    /// Apply an eviction to minute `t` of `f`'s schedule: punch a hole (the
    /// next invocation during `t` cold-starts). A no-op outside the window.
    /// Returns whether the slot actually changed (it was alive at `t`) —
    /// the event hook observability layers key off.
    pub fn apply_eviction(&mut self, f: FuncId, t: Minute) -> bool {
        let from = self.slot_at(f, t).alive();
        if let Some(from) = from {
            if let Some(s) = self.schedules.get_mut(f).and_then(Option::as_mut) {
                s.set_slot_at(t, Slot::Hole);
            }
            if let Some(ix) = self.index.as_mut() {
                ix.on_evict(f, t, from);
            }
        }
        from.is_some()
    }

    /// Apply one cross-function action to minute `t`. Returns whether the
    /// targeted slot actually moved (downgrades of holes/expired/already-
    /// lower slots and evictions of non-alive slots are ignored), so
    /// engines can report applied-vs-ignored actions faithfully.
    pub fn apply_action(&mut self, t: Minute, action: &DowngradeAction) -> bool {
        match *action {
            DowngradeAction::Downgrade { func, to, .. } => self.apply_downgrade(func, t, to),
            DowngradeAction::Evict { func, .. } => self.apply_eviction(func, t),
        }
    }

    /// Apply a batch of cross-function actions to minute `t`, in order.
    /// Returns how many actions moved a slot.
    pub fn apply_actions(&mut self, t: Minute, actions: &[DowngradeAction]) -> usize {
        actions.iter().filter(|a| self.apply_action(t, a)).count()
    }

    /// Whether minute `t` is answered by the incremental index (as opposed
    /// to the legacy full sweep).
    fn indexed_at(&self, t: Minute) -> bool {
        matches!(&self.index, Some(ix) if t >= ix.retired_before)
    }

    /// Total keep-alive memory (MB) at minute `t`, bit-identical to
    /// [`Self::keep_alive_mb_at`] but sub-linear on an incremental ledger:
    /// a mutated minute is **pinned** by re-summing its alive set in
    /// ascending function order (`O(alive)`, plus a sort if a mutation
    /// scrambled the set), an unmutated minute returns the previous pin
    /// (`O(1)`). Falls back to the full sweep on a non-incremental ledger or
    /// a retired minute.
    pub fn metered_kam_mb(&mut self, families: &[ModelFamily], t: Minute) -> f64 {
        if self.indexed_at(t) {
            if let Some(ix) = self.index.as_mut() {
                let Some(state) = ix.read_state(t) else {
                    // Empty alive set. The legacy sweep is a `Sum::sum`,
                    // whose f64 identity is -0.0 — returned as-is to stay
                    // bit-identical.
                    return -0.0;
                };
                if state.dirty {
                    pin_state(state, &self.schedules, families, t);
                }
                return state.running_mb;
            }
        }
        self.keep_alive_mb_at(families, t)
    }

    /// Fill `out` with the alive set and footprint of minute `t`, reusing
    /// its buffers — the incremental replacement for
    /// [`Self::minute_footprint`] (identical contents, no per-call
    /// allocation, `O(alive)` on an incremental ledger). Drains the
    /// dirty-function set: `out` is a faithful mirror of the ledger at `t`
    /// from here on, and [`Self::patch_minute_footprint`] can keep it so.
    pub fn fill_minute_footprint(
        &mut self,
        families: &[ModelFamily],
        t: Minute,
        out: &mut MinuteFootprint,
    ) {
        out.alive.clear();
        out.total_mb = 0.0;
        let indexed = self.indexed_at(t);
        if let Some(ix) = self.index.as_mut() {
            ix.clear_dirty();
            if indexed {
                let Some(state) = ix.read_state(t) else {
                    return; // empty minute: out stays empty with total 0.0
                };
                let mut total = 0.0f64;
                for &f in &state.funcs {
                    // The index only tracks alive slots; a miss here means
                    // the add/remove hooks and the schedule diverged.
                    let Some(v) = variant_of(&self.schedules, f, t) else {
                        debug_assert!(false, "indexed function {f} not alive at minute {t}");
                        continue;
                    };
                    total += families[f].variant(v).memory_mb;
                    out.alive.push(AliveModel {
                        func: f,
                        variant: v,
                        invocation_probability: 0.0,
                    });
                }
                debug_assert!(
                    (state.running_mb - total).abs() <= 1e-6 * total.abs().max(1.0),
                    "running total drifted from pin: {} vs {total}",
                    state.running_mb
                );
                state.running_mb = total;
                state.dirty = false;
                out.total_mb = total;
                return;
            }
        }
        let mut total = 0.0f64;
        for (f, fam) in families.iter().enumerate().take(self.schedules.len()) {
            if let Some(v) = variant_of(&self.schedules, f, t) {
                total += fam.variant(v).memory_mb;
                out.alive.push(AliveModel {
                    func: f,
                    variant: v,
                    invocation_probability: 0.0,
                });
            }
        }
        out.total_mb = total;
    }

    /// Bring a footprint previously produced by
    /// [`Self::fill_minute_footprint`] for the *same minute* back in sync
    /// with the ledger, touching only the functions mutated since — the
    /// dirty-set path the engines' later pipeline stages use instead of
    /// re-materializing the footprint. `out.total_mb` is re-pinned to the
    /// exact ascending-order sum. Falls back to a full refill on a
    /// non-incremental ledger.
    pub fn patch_minute_footprint(
        &mut self,
        families: &[ModelFamily],
        t: Minute,
        out: &mut MinuteFootprint,
    ) {
        let indexed = self.indexed_at(t);
        if indexed {
            if let Some(ix) = self.index.as_mut() {
                let mut dirty = std::mem::take(&mut ix.dirty);
                for &f in &dirty {
                    ix.dirty_mark[f] = false;
                    let now = variant_of(&self.schedules, f, t);
                    match (out.alive.binary_search_by_key(&f, |m| m.func), now) {
                        (Ok(i), Some(v)) => out.alive[i].variant = v,
                        (Ok(i), None) => {
                            out.alive.remove(i);
                        }
                        (Err(i), Some(v)) => out.alive.insert(
                            i,
                            AliveModel {
                                func: f,
                                variant: v,
                                invocation_probability: 0.0,
                            },
                        ),
                        (Err(_), None) => {}
                    }
                }
                dirty.clear();
                ix.dirty = dirty;
                out.total_mb = match ix.read_state(t) {
                    Some(state) => {
                        if state.dirty {
                            pin_state(state, &self.schedules, families, t);
                        }
                        state.running_mb
                    }
                    None => 0.0,
                };
                return;
            }
        }
        self.fill_minute_footprint(families, t, out);
    }

    /// Drop index state for minutes before `t` (both engines call this once
    /// per step so the index holds only the live keep-alive horizon).
    /// Queries against retired minutes fall back to the legacy sweep.
    pub fn retire_minutes_before(&mut self, t: Minute) {
        if let Some(ix) = self.index.as_mut() {
            if t > ix.retired_before {
                let n = gap_to_index(t - ix.retired_before).min(ix.ring.len());
                let keep = ix.ring.len() - n;
                for mut state in ix.ring.drain(..n) {
                    // Positions need no reset: a retired minute's slots in
                    // `pos` are never read again.
                    if ix.spare.len() < keep {
                        state.reset();
                        ix.spare.push(state);
                    }
                }
                ix.retired_before = t;
            }
        }
    }

    /// The delta-maintained running total for minute `t` without pinning —
    /// an `O(1)` monitor, within float-drift of the billed value
    /// but *not* bit-identical between mutations and pins. `None` when the
    /// ledger is not incremental or the minute is retired.
    pub fn running_kam_mb_at(&self, t: Minute) -> Option<f64> {
        let ix = self.index.as_ref()?;
        if t < ix.retired_before {
            return None;
        }
        let ring = ix.ring.get(gap_to_index(t - ix.retired_before));
        Some(ring.map_or(0.0, |s| s.running_mb))
    }

    /// Functions mutated since the last footprint fill/patch (unordered,
    /// deduplicated). Empty on a non-incremental ledger.
    pub fn dirty_functions(&self) -> &[FuncId] {
        self.index.as_ref().map_or(&[], |ix| &ix.dirty)
    }
}

/// Re-sum `state`'s alive set (sorted by [`LedgerIndex::read_state`]) in
/// ascending function order — the exact
/// operand sequence of [`ScheduleLedger::keep_alive_mb_at`] — and store the
/// pinned value.
fn pin_state(
    state: &mut MinuteState,
    schedules: &[Option<KeepAliveSchedule>],
    families: &[ModelFamily],
    t: Minute,
) {
    let mut total = 0.0f64;
    for &f in &state.funcs {
        // The index only tracks alive slots; a miss here means the
        // add/remove hooks and the schedule diverged.
        let Some(v) = variant_of(schedules, f, t) else {
            debug_assert!(false, "indexed function {f} not alive at minute {t}");
            continue;
        };
        total += families[f].variant(v).memory_mb;
    }
    debug_assert!(
        (state.running_mb - total).abs() <= 1e-6 * total.abs().max(1.0),
        "running total drifted from pin: {} vs {total}",
        state.running_mb
    );
    state.running_mb = total;
    state.dirty = false;
}

/// Algorithm 1's `t == 1` branch applies at the first minute of a keep-alive
/// period — i.e. the minute right after an invocation started a new period,
/// or the minute at which keep-alive demand resumes after an idle stretch.
/// There the prior keep-alive memory is the local-window average (or the
/// last non-zero level after inactivity), not the previous minute, so
/// routine schedule renewals are judged against the steady level rather
/// than minute-to-minute jitter. Both engines derive the flag identically
/// through this helper.
pub fn begins_keepalive_period(
    invoked_last_minute: bool,
    current_kam_mb: f64,
    demand_history: &[f64],
) -> bool {
    invoked_last_minute || (current_kam_mb > 0.0 && demand_history.last().is_none_or(|&m| m <= 0.0))
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests compare exact constructed values
#[allow(clippy::cast_possible_truncation, clippy::needless_range_loop)] // test-local sizes
mod tests {
    use super::*;
    use pulse_models::zoo;

    fn two_fn_ledger() -> (ScheduleLedger, Vec<ModelFamily>) {
        let fams = vec![zoo::gpt(), zoo::bert()];
        let mut ledger = ScheduleLedger::new(2);
        // f0: gpt-large (variant 2) minutes 1..=10; f1: bert-large minutes 1..=5.
        ledger.replace(0, KeepAliveSchedule::constant(0, 2, 10));
        ledger.replace(1, KeepAliveSchedule::constant(0, 1, 5));
        (ledger, fams)
    }

    #[test]
    fn slot_round_trips_through_raw() {
        assert_eq!(Slot::from_raw(HOLE), Slot::Hole);
        assert_eq!(Slot::from_raw(3), Slot::Alive(3));
        assert_eq!(Slot::Hole.into_raw(), HOLE);
        assert_eq!(Slot::Alive(7).into_raw(), 7);
        assert_eq!(Slot::Alive(2).alive(), Some(2));
        assert_eq!(Slot::Hole.alive(), None);
        assert!(Slot::Hole.is_hole());
        assert!(!Slot::Alive(0).is_hole());
    }

    #[test]
    fn alive_variant_filters_holes_and_expiry() {
        let (mut ledger, _) = two_fn_ledger();
        assert_eq!(ledger.alive_variant_at(0, 5), Some(2));
        assert_eq!(ledger.alive_variant_at(0, 0), None, "invocation minute");
        assert_eq!(ledger.alive_variant_at(0, 11), None, "expired");
        assert_eq!(ledger.alive_variant_at(1, 6), None, "short window");
        ledger.apply_eviction(0, 5);
        assert_eq!(ledger.alive_variant_at(0, 5), None, "hole");
        assert_eq!(ledger.slot_at(0, 5), Slot::Hole);
        assert_eq!(ledger.alive_variant_at(0, 6), Some(2), "hole is per-minute");
    }

    #[test]
    fn footprint_matches_per_function_sum() {
        let (ledger, fams) = two_fn_ledger();
        let mb = fams[0].variant(2).memory_mb + fams[1].variant(1).memory_mb;
        assert_eq!(ledger.keep_alive_mb_at(&fams, 3), mb);
        let fp = ledger.minute_footprint(&fams, 3);
        assert_eq!(fp.total_mb, mb);
        assert_eq!(fp.alive.len(), 2);
        assert_eq!(fp.alive[0].func, 0);
        assert_eq!(fp.alive[1].variant, 1);
        // Minute 7: only f0 still covered.
        assert_eq!(
            ledger.keep_alive_mb_at(&fams, 7),
            fams[0].variant(2).memory_mb
        );
    }

    #[test]
    fn metering_matches_cost_model() {
        let (ledger, fams) = two_fn_ledger();
        let cost = CostModel::aws_lambda();
        let expect = cost.keepalive_cost_usd_per_minutes(ledger.keep_alive_mb_at(&fams, 2), 1.0);
        assert_eq!(ledger.keepalive_cost_usd_at(&fams, &cost, 2), expect);
        assert_eq!(ledger.keepalive_cost_usd_at(&fams, &cost, 500), 0.0);
    }

    #[test]
    fn downgrade_clamps_only_above_and_only_at_t() {
        let (mut ledger, _) = two_fn_ledger();
        assert!(ledger.apply_downgrade(0, 4, 1));
        assert_eq!(ledger.alive_variant_at(0, 4), Some(1));
        assert_eq!(ledger.alive_variant_at(0, 3), Some(2), "t-1 untouched");
        assert_eq!(ledger.alive_variant_at(0, 5), Some(2), "t+1 untouched");
        // A weaker (higher-rung) action can never re-raise the slot.
        assert!(!ledger.apply_downgrade(0, 4, 1));
        assert!(ledger.apply_downgrade(0, 4, 0));
        assert!(!ledger.apply_downgrade(0, 4, 2));
        assert_eq!(ledger.alive_variant_at(0, 4), Some(0));
    }

    #[test]
    fn downgrade_ignores_holes_expired_and_unknown_functions() {
        let (mut ledger, _) = two_fn_ledger();
        ledger.apply_eviction(1, 2);
        assert!(!ledger.apply_downgrade(1, 2, 0), "hole stays a hole");
        assert_eq!(ledger.slot_at(1, 2), Slot::Hole);
        assert!(!ledger.apply_downgrade(1, 40, 0), "expired");
        assert!(!ledger.apply_downgrade(99, 2, 0), "unknown function");
        ledger.apply_eviction(99, 2); // must not panic
    }

    #[test]
    fn action_hooks_report_applied_vs_ignored() {
        let (mut ledger, _) = two_fn_ledger();
        // Eviction of an alive slot applies; of a hole/expired slot, not.
        assert!(ledger.apply_eviction(0, 5));
        assert!(!ledger.apply_eviction(0, 5), "already a hole");
        assert!(!ledger.apply_eviction(0, 40), "expired");
        assert!(!ledger.apply_eviction(99, 2), "unknown function");
        // The batch count matches per-action results: downgrade f0@3
        // applies, a repeat is ignored, the eviction of f1@3 applies.
        let actions = vec![
            DowngradeAction::Downgrade {
                func: 0,
                from: 2,
                to: 0,
            },
            DowngradeAction::Downgrade {
                func: 0,
                from: 2,
                to: 1,
            },
            DowngradeAction::Evict { func: 1, from: 1 },
        ];
        assert_eq!(ledger.apply_actions(3, &actions), 2);
    }

    #[test]
    fn apply_actions_matches_manual_application() {
        let (mut a, _) = two_fn_ledger();
        let (mut b, _) = two_fn_ledger();
        let actions = vec![
            DowngradeAction::Downgrade {
                func: 0,
                from: 2,
                to: 0,
            },
            DowngradeAction::Evict { func: 1, from: 1 },
        ];
        a.apply_actions(3, &actions);
        b.apply_downgrade(0, 3, 0);
        b.apply_eviction(1, 3);
        for f in 0..2 {
            for t in 0..12 {
                assert_eq!(a.slot_at(f, t), b.slot_at(f, t), "f={f} t={t}");
            }
        }
    }

    #[test]
    fn replace_and_clear() {
        let (mut ledger, _) = two_fn_ledger();
        assert!(ledger.schedule(0).is_some());
        ledger.clear(0);
        assert!(ledger.schedule(0).is_none());
        assert_eq!(ledger.alive_variant_at(0, 3), None);
        ledger.replace(0, KeepAliveSchedule::constant(2, 0, 3));
        assert_eq!(ledger.alive_variant_at(0, 3), Some(0));
        assert_eq!(ledger.n_functions(), 2);
    }

    /// Deterministic LCG so incremental-vs-legacy pinning can cover many
    /// action interleavings without a rand dependency in pulse-core.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            self.0 >> 33
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    fn zoo_families(n: usize) -> Vec<ModelFamily> {
        let all = [
            zoo::gpt(),
            zoo::bert(),
            zoo::densenet(),
            zoo::yolo(),
            zoo::resnet(),
        ];
        (0..n).map(|f| all[f % all.len()].clone()).collect()
    }

    /// Drive an incremental and a legacy ledger through the same random
    /// replace/clear/downgrade/evict sequence and require every read —
    /// metered total, filled footprint, patched footprint — to be
    /// bit-identical to the legacy ascending-order sweep.
    #[test]
    fn incremental_reads_are_bit_identical_to_full_sweep() {
        let fams = zoo_families(9);
        let mut inc = ScheduleLedger::for_families(&fams);
        let mut full = ScheduleLedger::new(fams.len());
        let mut rng = Lcg(0x5eed);
        let mut fp = MinuteFootprint::default();
        for step in 0..400u64 {
            let f = rng.below(fams.len() as u64) as usize;
            let t = rng.below(40);
            match rng.below(4) {
                0 => {
                    let v = rng.below(fams[f].n_variants() as u64) as usize;
                    let w = 1 + rng.below(10) as u32;
                    let s = KeepAliveSchedule::constant(t, v, w);
                    inc.replace(f, s.clone());
                    full.replace(f, s);
                }
                1 => {
                    let v = rng.below(fams[f].n_variants() as u64) as usize;
                    inc.apply_downgrade(f, t, v);
                    full.apply_downgrade(f, t, v);
                }
                2 => {
                    inc.apply_eviction(f, t);
                    full.apply_eviction(f, t);
                }
                _ => {
                    inc.clear(f);
                    full.clear(f);
                }
            }
            let probe = rng.below(52);
            assert_eq!(
                inc.metered_kam_mb(&fams, probe).to_bits(),
                full.keep_alive_mb_at(&fams, probe).to_bits(),
                "step {step} minute {probe}"
            );
            inc.fill_minute_footprint(&fams, probe, &mut fp);
            let want = full.minute_footprint(&fams, probe);
            assert_eq!(fp.alive, want.alive, "step {step} minute {probe}");
            assert_eq!(fp.total_mb.to_bits(), want.total_mb.to_bits());
        }
    }

    /// After a fill, further mutations must be re-syncable through the
    /// dirty-set patch without re-materializing the footprint.
    #[test]
    fn patch_keeps_footprint_in_sync() {
        let fams = zoo_families(6);
        let mut ledger = ScheduleLedger::for_families(&fams);
        for f in 0..6 {
            ledger.replace(f, KeepAliveSchedule::constant(0, fams[f].highest_id(), 10));
        }
        let mut fp = MinuteFootprint::default();
        ledger.fill_minute_footprint(&fams, 3, &mut fp);
        assert!(ledger.dirty_functions().is_empty(), "fill drains dirt");

        ledger.apply_downgrade(1, 3, 0);
        ledger.apply_eviction(4, 3);
        ledger.replace(2, KeepAliveSchedule::constant(3, 0, 5));
        ledger.clear(5);
        assert_eq!(ledger.dirty_functions().len(), 4, "deduplicated dirt");
        ledger.apply_downgrade(1, 3, 0); // ignored action: no new dirt needed

        ledger.patch_minute_footprint(&fams, 3, &mut fp);
        assert!(ledger.dirty_functions().is_empty(), "patch drains dirt");
        let want = ledger.minute_footprint(&fams, 3);
        assert_eq!(fp.alive, want.alive);
        assert_eq!(fp.total_mb.to_bits(), want.total_mb.to_bits());
    }

    /// Retiring minutes keeps reads correct (they fall back to the sweep)
    /// and bounds the index to the live horizon.
    #[test]
    fn retired_minutes_fall_back_to_sweep() {
        let fams = zoo_families(3);
        let mut ledger = ScheduleLedger::for_families(&fams);
        ledger.replace(0, KeepAliveSchedule::constant(0, 1, 10));
        ledger.replace(2, KeepAliveSchedule::constant(2, 0, 4));
        let before: Vec<u64> = (0..12)
            .map(|t| ledger.metered_kam_mb(&fams, t).to_bits())
            .collect();
        ledger.retire_minutes_before(6);
        assert!(ledger.running_kam_mb_at(5).is_none(), "retired");
        assert!(ledger.running_kam_mb_at(6).is_some());
        for (t, want) in before.iter().enumerate() {
            let t = t as Minute;
            assert_eq!(ledger.metered_kam_mb(&fams, t).to_bits(), *want, "t={t}");
            assert_eq!(
                ledger.metered_kam_mb(&fams, t).to_bits(),
                ledger.keep_alive_mb_at(&fams, t).to_bits()
            );
        }
        // Replacing a schedule that spans the retirement boundary only
        // indexes the live part; both sides still read correctly.
        ledger.replace(1, KeepAliveSchedule::constant(3, 1, 10));
        for t in 0..14 {
            assert_eq!(
                ledger.metered_kam_mb(&fams, t).to_bits(),
                ledger.keep_alive_mb_at(&fams, t).to_bits(),
                "t={t}"
            );
        }
    }

    /// Minutes retired while they still hold functions hand their states
    /// back to the ring; the minutes it re-grows into on those recycled
    /// states must answer exactly like a fresh ledger's.
    #[test]
    fn recycled_ring_slots_answer_like_a_fresh_ledger() {
        let fams = zoo_families(8);
        let mut ledger = ScheduleLedger::for_families(&fams);
        // Minutes 1..=6 hold every function, added in descending order so
        // each set is scrambled; minute 3 is read (sorted and pinned).
        for f in (0..8).rev() {
            ledger.replace(f, KeepAliveSchedule::constant(0, fams[f].highest_id(), 6));
        }
        ledger.apply_eviction(2, 4);
        ledger.metered_kam_mb(&fams, 3);
        ledger.retire_minutes_before(5);
        let ix = ledger.index.as_ref().unwrap();
        assert_eq!(
            (ix.ring.len(), ix.spare.len()),
            (2, 2),
            "populated states recycled"
        );
        assert!(ledger.running_kam_mb_at(4).is_none(), "retired");

        // Drop every old plan, then plan the same fleet on both ledgers;
        // the ring grows past minute 6 onto the recycled states.
        let mut fresh = ScheduleLedger::for_families(&fams);
        for f in 0..8 {
            ledger.clear(f);
        }
        for f in [6, 1, 4, 0] {
            let holes = (0..12).map(|i| {
                if i % 3 == f % 3 {
                    Slot::Hole
                } else {
                    Slot::Alive(1)
                }
            });
            let s = KeepAliveSchedule::from_slots(7 + f as Minute, holes);
            ledger.replace(f, s.clone());
            fresh.replace(f, s);
        }
        assert!(
            ledger.index.as_ref().unwrap().spare.is_empty(),
            "spares reused"
        );
        ledger.apply_eviction(4, 15);
        fresh.apply_eviction(4, 15);

        let (mut a, mut b) = (MinuteFootprint::default(), MinuteFootprint::default());
        for t in 5..30 {
            assert_eq!(
                ledger.running_kam_mb_at(t),
                fresh.running_kam_mb_at(t),
                "t={t}"
            );
            assert_eq!(
                ledger.metered_kam_mb(&fams, t).to_bits(),
                fresh.metered_kam_mb(&fams, t).to_bits(),
                "t={t}"
            );
            ledger.fill_minute_footprint(&fams, t, &mut a);
            fresh.fill_minute_footprint(&fams, t, &mut b);
            assert_eq!(a, b, "t={t}");
        }
        // Emptied and never-planned minutes both answer as the sweep does.
        assert_eq!(
            ledger.metered_kam_mb(&fams, 6).to_bits(),
            (-0.0f64).to_bits()
        );
        assert_eq!(ledger.running_kam_mb_at(6), Some(0.0));

        // Retiring past the ring's end empties it; growth restarts there.
        ledger.retire_minutes_before(100);
        fresh.retire_minutes_before(100);
        assert!(ledger.index.as_ref().unwrap().ring.is_empty());
        for l in [&mut ledger, &mut fresh] {
            l.replace(3, KeepAliveSchedule::constant(101, 2, 4));
        }
        for t in 99..108 {
            assert_eq!(
                ledger.metered_kam_mb(&fams, t).to_bits(),
                fresh.metered_kam_mb(&fams, t).to_bits(),
                "t={t}"
            );
        }
    }

    #[test]
    fn running_total_is_close_between_pins() {
        let fams = zoo_families(4);
        let mut ledger = ScheduleLedger::for_families(&fams);
        assert!(ledger.is_incremental());
        assert!(!ScheduleLedger::new(4).is_incremental());
        assert_eq!(ScheduleLedger::new(4).running_kam_mb_at(3), None);
        for f in 0..4 {
            ledger.replace(f, KeepAliveSchedule::constant(0, fams[f].highest_id(), 8));
        }
        ledger.apply_downgrade(0, 4, 0);
        ledger.apply_eviction(3, 4);
        let running = ledger.running_kam_mb_at(4).unwrap();
        let billed = ledger.metered_kam_mb(&fams, 4);
        assert!((running - billed).abs() <= 1e-6 * billed.max(1.0));
        assert_eq!(ledger.running_kam_mb_at(50), Some(0.0), "empty minute");
    }

    #[test]
    fn period_start_detection() {
        // An invocation last minute always starts a period.
        assert!(begins_keepalive_period(true, 0.0, &[]));
        // Demand resuming after zero history starts a period.
        assert!(begins_keepalive_period(false, 10.0, &[5.0, 0.0]));
        assert!(begins_keepalive_period(false, 10.0, &[]));
        // Steady demand does not.
        assert!(!begins_keepalive_period(false, 10.0, &[5.0]));
        // No demand at all does not.
        assert!(!begins_keepalive_period(false, 0.0, &[0.0]));
    }
}
