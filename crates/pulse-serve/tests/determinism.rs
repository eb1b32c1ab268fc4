//! The serving determinism suite: bit-identical load generation across
//! seeds, and the pinned serve-vs-batch equivalence — admitting a generated
//! stream in order into a zero-trace session (what the live front door does,
//! minus the wall clock) must match a batch `Runtime::session` run over the
//! binned trace bitwise, request timeouts and admission sheds included.

use pulse_core::types::PulseConfig;
use pulse_models::ModelFamily;
use pulse_obs::{MemorySink, ObsEvent, TraceSink};
use pulse_runtime::{FaultPlan, Runtime, RuntimeSummary};
use pulse_serve::engine::ServeConfig;
use pulse_serve::loadgen::{ArrivalStream, LoadGenConfig, LoadMode};
use pulse_sim::assignment::round_robin_assignment;
use pulse_sim::policies::{OpenWhiskFixed, PulsePolicy};
use pulse_sim::policy::KeepAlivePolicy;
use pulse_trace::{FunctionTrace, Trace};

const MODES: [LoadMode; 3] = [
    LoadMode::Poisson { rate_per_min: 4.0 },
    LoadMode::Bursty {
        quiet_min: 7,
        burst_len_min: 3,
        burst_rate: 5.0,
    },
    LoadMode::SelfExciting {
        base_rate: 0.6,
        excitation: 0.8,
        decay: 0.5,
    },
];

fn cfg(mode: LoadMode, seed: u64) -> LoadGenConfig {
    LoadGenConfig {
        functions: 12,
        minutes: 90,
        mode,
        seed,
    }
}

/// The stream admitted in order into a session over an all-zero trace of
/// the same shape: every request enters through `admit_at`, as on the live
/// path.
fn admitted(
    stream: &ArrivalStream,
    families: &[ModelFamily],
    policy: &mut dyn KeepAlivePolicy,
    config: &ServeConfig,
    sink: Option<&mut dyn TraceSink>,
) -> RuntimeSummary {
    let zeros = Trace::new(
        stream
            .trace()
            .functions()
            .iter()
            .map(|f| FunctionTrace::new(f.name.clone(), vec![0; stream.minutes()]))
            .collect(),
    );
    let rt = Runtime::new(zeros, families.to_vec(), config.runtime);
    let mut session = match sink {
        Some(s) => rt.session_traced(policy, &config.plan, config.cluster, s),
        None => rt.session(policy, &config.plan, config.cluster),
    };
    for a in stream.arrivals() {
        session.admit_at(a.at_ms, a.func);
    }
    session.finish()
}

/// The batch session over the stream's binned trace.
fn batch(
    stream: &ArrivalStream,
    families: &[ModelFamily],
    policy: &mut dyn KeepAlivePolicy,
    config: &ServeConfig,
    sink: Option<&mut dyn TraceSink>,
) -> RuntimeSummary {
    let rt = Runtime::new(stream.trace().clone(), families.to_vec(), config.runtime);
    match sink {
        Some(s) => rt.session_traced(policy, &config.plan, config.cluster, s),
        None => rt.session(policy, &config.plan, config.cluster),
    }
    .finish()
}

fn assert_bit_identical(served: &RuntimeSummary, batch: &RuntimeSummary, label: &str) {
    assert_eq!(served.records, batch.records, "{label}");
    assert_eq!(
        served.keepalive_cost_usd.to_bits(),
        batch.keepalive_cost_usd.to_bits(),
        "{label}"
    );
    assert_eq!(served.memory_at_tick_mb, batch.memory_at_tick_mb, "{label}");
    assert_eq!(served.shed_requests, batch.shed_requests, "{label}");
    assert_eq!(served.timeouts, batch.timeouts, "{label}");
}

#[test]
fn same_seed_means_bit_identical_streams() {
    for mode in MODES {
        let a = ArrivalStream::generate(&cfg(mode, 42));
        let b = ArrivalStream::generate(&cfg(mode, 42));
        assert_eq!(a, b, "{} stream not reproducible", mode.label());
    }
}

#[test]
fn different_seeds_mean_different_streams() {
    for mode in MODES {
        let a = ArrivalStream::generate(&cfg(mode, 42));
        let b = ArrivalStream::generate(&cfg(mode, 43));
        assert_ne!(a, b, "{} stream ignores the seed", mode.label());
    }
}

/// The pinned contract: admitting a generated stream is bitwise-identical
/// to the batch session on the binned trace — per-request records,
/// keep-alive cost bits, and the billed memory series — also under faults,
/// a request timeout and a binding admission bound, where each request's
/// SLO timer is queued right behind its arrival on both paths.
#[test]
fn admitted_stream_matches_batch_session_bitwise() {
    let faulted = ServeConfig {
        plan: FaultPlan::uniform(0.2, 0.1, 0.05, 7).with_timeout_ms(60_000),
        ..ServeConfig::default()
    }
    .with_max_pending(2);
    for config in [ServeConfig::default().with_max_pending(64), faulted] {
        for mode in MODES {
            let stream = ArrivalStream::generate(&cfg(mode, 9));
            let families = round_robin_assignment(&pulse_models::zoo::standard(), 12);

            let mut serve_policy = PulsePolicy::new(families.clone(), PulseConfig::default());
            let served = admitted(&stream, &families, &mut serve_policy, &config, None);
            let mut batch_policy = PulsePolicy::new(families.clone(), PulseConfig::default());
            let batch = batch(&stream, &families, &mut batch_policy, &config, None);

            if config.plan.request_timeout_ms.is_some() {
                assert!(batch.timeouts > 0, "{}: no timeout fired", mode.label());
                assert!(batch.shed_requests > 0, "{}: nothing shed", mode.label());
            }
            assert_bit_identical(&served, &batch, mode.label());
        }
    }
}

/// The equivalence holds for the fixed-keep-alive baseline policy too — the
/// contract is engine-level, not an artifact of one policy.
#[test]
fn admitted_stream_matches_batch_session_for_fixed_policy() {
    let stream = ArrivalStream::generate(&cfg(MODES[2], 17));
    let families = round_robin_assignment(&pulse_models::zoo::standard(), 12);
    let config = ServeConfig::default();

    let served = admitted(
        &stream,
        &families,
        &mut OpenWhiskFixed::new(&families),
        &config,
        None,
    );
    let batch = batch(
        &stream,
        &families,
        &mut OpenWhiskFixed::new(&families),
        &config,
        None,
    );

    assert_eq!(served.records, batch.records);
    assert_eq!(
        served.keepalive_cost_usd.to_bits(),
        batch.keepalive_cost_usd.to_bits()
    );
}

/// A traced admitted stream emits the same engine events a traced batch
/// run does — admission adds no telemetry of its own on the simulated
/// clock.
#[test]
fn traced_admitted_stream_matches_traced_batch_run() {
    let stream = ArrivalStream::generate(&cfg(MODES[0], 23));
    let families = round_robin_assignment(&pulse_models::zoo::standard(), 12);
    let config = ServeConfig::default().with_max_pending(32);

    let mut serve_sink = MemorySink::new();
    let mut serve_policy = PulsePolicy::new(families.clone(), PulseConfig::default());
    let _ = admitted(
        &stream,
        &families,
        &mut serve_policy,
        &config,
        Some(&mut serve_sink),
    );

    let mut batch_sink = MemorySink::new();
    let mut batch_policy = PulsePolicy::new(families.clone(), PulseConfig::default());
    let _ = batch(
        &stream,
        &families,
        &mut batch_policy,
        &config,
        Some(&mut batch_sink),
    );

    assert!(!serve_sink.events().is_empty());
    assert_eq!(serve_sink.events(), batch_sink.events());
    assert!(serve_sink
        .events()
        .iter()
        .all(|e| !e.kind().starts_with("serve_")));
    // The engine's arrival events line up with the stream itself.
    let arrivals: Vec<u64> = serve_sink
        .events()
        .iter()
        .filter_map(|e| match e {
            ObsEvent::Arrival { at_ms, .. } => Some(*at_ms),
            _ => None,
        })
        .collect();
    let shed: usize = serve_sink
        .events()
        .iter()
        .filter(|e| matches!(e, ObsEvent::Shed { .. }))
        .count();
    assert_eq!(arrivals.len() + shed, stream.len());
}
