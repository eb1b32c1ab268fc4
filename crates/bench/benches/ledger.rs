//! Schedule-ledger hot path: the operations both engines now route through
//! `pulse_core::schedule::ScheduleLedger` once per simulated minute —
//! footprint metering over the whole fleet, downgrade/eviction application,
//! and the per-invocation schedule refresh.
//!
//! Run with `PULSE_BENCH_JSON=BENCH_ledger.json cargo bench --bench ledger`
//! to append machine-readable points to the trajectory file.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pulse_core::global::DowngradeAction;
use pulse_core::individual::KeepAliveSchedule;
use pulse_core::schedule::{MinuteFootprint, ScheduleLedger};
use pulse_core::types::{FuncId, Minute};
use pulse_models::{zoo, ModelFamily};
use pulse_trace::synth::azure_like_n_with_horizon;
use pulse_trace::Trace;

/// A fleet of `n` functions round-robined over the standard zoo, every
/// function planning its highest variant for a 10-minute window from t=0.
fn setup(n: usize) -> (Vec<ModelFamily>, ScheduleLedger) {
    let families = zoo::standard();
    let fams: Vec<_> = (0..n)
        .map(|i| families[i % families.len()].clone())
        .collect();
    let mut ledger = ScheduleLedger::new(n);
    for (f, fam) in fams.iter().enumerate() {
        ledger.replace(f, KeepAliveSchedule::constant(0, fam.highest_id(), 10));
    }
    (fams, ledger)
}

/// A sparse fleet: `n` functions, but only every `stride`-th one plans a
/// schedule covering the probed minute — the realistic fleet-scale shape
/// (most functions idle at any instant). `incremental` picks the indexed
/// ledger or the legacy sweep-only one.
fn setup_sparse(n: usize, stride: usize, incremental: bool) -> (Vec<ModelFamily>, ScheduleLedger) {
    let z = zoo::standard();
    let fams: Vec<_> = (0..n).map(|i| z[i % z.len()].clone()).collect();
    let mut ledger = if incremental {
        ScheduleLedger::for_families(&fams)
    } else {
        ScheduleLedger::new(n)
    };
    for (f, fam) in fams.iter().enumerate().step_by(stride) {
        ledger.replace(f, KeepAliveSchedule::constant(0, fam.highest_id(), 10));
    }
    (fams, ledger)
}

/// The fleet-scale synthetic trace (10k functions × 30 minutes) with the
/// zoo assigned round-robin.
fn azure_10k() -> (Trace, Vec<ModelFamily>) {
    let trace = azure_like_n_with_horizon(10_000, 42, 30);
    let z = zoo::standard();
    let fams = (0..trace.n_functions())
        .map(|i| z[i % z.len()].clone())
        .collect();
    (trace, fams)
}

/// A 10k-function incremental ledger seeded from the fleet-scale synthetic
/// trace: every function that fires in the generated window plans a
/// schedule, everyone else stays idle — the CI perf-smoke scenario.
fn setup_azure_10k() -> (Vec<ModelFamily>, ScheduleLedger) {
    let (trace, fams) = azure_10k();
    let mut ledger = ScheduleLedger::for_families(&fams);
    for (f, fun) in trace.functions().iter().enumerate() {
        if let Some(first) = (0..trace.minutes() as u64).find(|&m| fun.at(m) > 0) {
            ledger.replace(
                f,
                KeepAliveSchedule::constant(first, fams[f].highest_id(), 10),
            );
        }
    }
    (fams, ledger)
}

/// The same trace replayed under a fixed 10-minute keep-alive (every
/// invocation replaces its function's plan, billed minutes retire), the
/// ledger `owk-10k` maintains: ~6k functions alive at the first live
/// minute. Returns the minute of the last replay step and the functions
/// invoked in it.
fn setup_azure_10k_replayed() -> (ScheduleLedger, Minute, Vec<FuncId>) {
    let (trace, fams) = azure_10k();
    let mut ledger = ScheduleLedger::for_families(&fams);
    let mut invoked = Vec::new();
    let mut last = 0;
    for m in 0..trace.minutes() as Minute {
        invoked.clear();
        for (f, fun) in trace.functions().iter().enumerate() {
            if fun.at(m) > 0 {
                ledger.replace(f, KeepAliveSchedule::constant(m, fams[f].highest_id(), 10));
                invoked.push(f);
            }
        }
        ledger.retire_minutes_before(m);
        last = m;
    }
    (ledger, last, invoked)
}

fn bench(c: &mut Criterion) {
    // The per-minute metering pass: one ascending sweep building the alive
    // set and the summed footprint (stage 1 of both engines' minute tick).
    let mut group = c.benchmark_group("ledger_minute_footprint");
    for &n in &[12usize, 100, 1000] {
        let (fams, ledger) = setup(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| ledger.minute_footprint(&fams, 5))
        });
    }
    group.finish();

    // The billing-only query (no alive-set allocation), as used by the
    // simulator's post-adjustment meter.
    let mut group = c.benchmark_group("ledger_keep_alive_mb_at");
    for &n in &[12usize, 100, 1000] {
        let (fams, ledger) = setup(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| ledger.keep_alive_mb_at(&fams, 5))
        });
    }
    group.finish();

    // Applying a full fleet's worth of peak-flattening actions (alternating
    // one-rung downgrades and evictions) against minute t.
    c.bench_function("ledger_apply_actions_100", |b| {
        let actions: Vec<DowngradeAction> = (0..100)
            .map(|f| {
                if f % 2 == 0 {
                    DowngradeAction::Downgrade {
                        func: f,
                        from: 2,
                        to: 1,
                    }
                } else {
                    DowngradeAction::Evict { func: f, from: 0 }
                }
            })
            .collect();
        b.iter_batched(
            || setup(100).1,
            |mut ledger| ledger.apply_actions(5, &actions),
            criterion::BatchSize::SmallInput,
        )
    });

    // The per-invocation schedule refresh: replace one function's plan.
    c.bench_function("ledger_replace_schedule", |b| {
        let (_, mut ledger) = setup(100);
        b.iter(|| ledger.replace(37, KeepAliveSchedule::constant(9, 1, 10)))
    });

    // The same refresh at fleet scale: one invocation's plan replaced on the
    // replayed 10k-function ledger, cycling over the functions invoked in
    // its last minute. Cost must track the schedule length, not the ~6k
    // functions alive at each of the minutes it touches.
    c.bench_function("ledger_replace_azure_10k", |b| {
        let (mut ledger, last, invoked) = setup_azure_10k_replayed();
        let mut next = invoked.iter().copied().cycle();
        b.iter(|| {
            let f = next.next().unwrap_or(0);
            ledger.replace(f, KeepAliveSchedule::constant(last, 1, 10))
        })
    });

    // Incremental vs legacy on a sparse fleet (~5% of functions alive at
    // the probed minute): one schedule refresh followed by the minute
    // meter. The incremental path pays `O(alive)` on the pin, the sweep
    // pays `O(n)` regardless — sub-linear in total function count.
    let mut group = c.benchmark_group("ledger_metered_sparse_update");
    for &n in &[100usize, 1000, 10_000] {
        let (fams, mut ledger) = setup_sparse(n, 20, true);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                ledger.replace(0, KeepAliveSchedule::constant(0, 1, 10));
                ledger.metered_kam_mb(&fams, 5)
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("ledger_sweep_sparse_update");
    for &n in &[100usize, 1000, 10_000] {
        let (fams, mut ledger) = setup_sparse(n, 20, false);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                ledger.replace(0, KeepAliveSchedule::constant(0, 1, 10));
                ledger.keep_alive_mb_at(&fams, 5)
            })
        });
    }
    group.finish();

    // The clean-read fast path: an unmutated minute answers from the pinned
    // total in `O(1)`, no sweep at all.
    c.bench_function("ledger_metered_clean_1000", |b| {
        let (fams, mut ledger) = setup_sparse(1000, 20, true);
        ledger.metered_kam_mb(&fams, 5); // pin once
        b.iter(|| ledger.metered_kam_mb(&fams, 5))
    });

    // Footprint refill into a session-owned buffer — the engines' stage-1
    // replacement for the allocating `minute_footprint`.
    c.bench_function("ledger_fill_footprint_1000", |b| {
        let (fams, mut ledger) = setup_sparse(1000, 20, true);
        let mut fp = MinuteFootprint::default();
        b.iter(|| {
            ledger.fill_minute_footprint(&fams, 5, &mut fp);
            fp.total_mb
        })
    });

    // Dirty-set patch: one mutated function re-synced into an existing
    // footprint, as the later pipeline stages do.
    c.bench_function("ledger_patch_footprint_1000", |b| {
        let (fams, mut ledger) = setup_sparse(1000, 20, true);
        let mut fp = MinuteFootprint::default();
        ledger.fill_minute_footprint(&fams, 5, &mut fp);
        b.iter(|| {
            ledger.replace(0, KeepAliveSchedule::constant(0, 1, 10));
            ledger.patch_minute_footprint(&fams, 5, &mut fp);
            fp.total_mb
        })
    });

    // Fleet-scale smoke: a full maintenance round (schedule refresh, patch,
    // meter) on the 10k-function azure-like fleet. CI runs this case and
    // fails on panic or timeout.
    c.bench_function("ledger_azure_10k_maintenance", |b| {
        let (fams, mut ledger) = setup_azure_10k();
        let mut fp = MinuteFootprint::default();
        ledger.fill_minute_footprint(&fams, 5, &mut fp);
        b.iter(|| {
            ledger.replace(17, KeepAliveSchedule::constant(0, 1, 10));
            ledger.patch_minute_footprint(&fams, 5, &mut fp);
            ledger.metered_kam_mb(&fams, 5)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench
}
criterion_main!(benches);
