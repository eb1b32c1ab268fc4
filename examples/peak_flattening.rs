//! Watching Algorithm 1 + Algorithm 2 flatten a keep-alive memory peak.
//!
//! Drives the PULSE engine directly (no simulator): a steady memory level, a
//! sudden invocation burst that doubles the demanded keep-alive memory, and
//! the utility-ordered downgrades that bring it back under the threshold —
//! printed step by step.
//!
//! ```text
//! cargo run --release --example peak_flattening
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)] // examples fail fast on demo input

use pulse::core::global::{AliveModel, DowngradeAction};
use pulse::core::{PulseConfig, PulseEngine};

fn main() {
    let zoo = pulse::models::zoo::standard();
    // Ten functions: two of each family, all warmed at their highest rung —
    // the state right after a synchronized invocation burst.
    let families: Vec<_> = (0..10).map(|i| zoo[i % zoo.len()].clone()).collect();
    let names: Vec<String> = families.iter().map(|f| f.highest().name.clone()).collect();
    let mut engine = PulseEngine::new(families.clone(), PulseConfig::default());

    // The burst hits at minute 100. Invocation histories make functions 0
    // and 1 very likely to fire then (nine of their ten gaps were 5 minutes,
    // and their last call was 5 minutes ago) and the rest unlikely (one of
    // their twenty gaps was 2 minutes, and their last call was 2 minutes
    // ago). The engine derives each model's `Ip` from these histories.
    let t = 100;
    for func in 0..families.len() {
        let (gaps, last) = if func < 2 {
            ([vec![4], vec![5; 9]].concat(), t - 5)
        } else {
            ([vec![2], vec![1; 19]].concat(), t - 2)
        };
        let mut arrival = last - gaps.iter().sum::<u64>();
        engine.record_invocation(func, arrival);
        for g in gaps {
            arrival += g;
            engine.record_invocation(func, arrival);
        }
    }
    for func in [0, 2] {
        println!(
            "Ip of f{func} at minute {t}: {:.2}",
            engine.invocation_probability_at(func, t)
        );
    }

    let mut alive: Vec<AliveModel> = families
        .iter()
        .enumerate()
        .map(|(func, f)| AliveModel {
            func,
            variant: f.highest_id(),
            invocation_probability: 0.0, // filled by the engine at a peak
        })
        .collect();

    let demand: f64 = families.iter().map(|f| f.highest().memory_mb).sum();
    let steady = demand / 2.0; // the burst doubled the steady level
    let history = vec![steady; 180];

    println!("\nsteady keep-alive memory : {steady:>9.0} MB");
    println!("burst demand             : {demand:>9.0} MB");
    println!(
        "flatten target (KM_T=10%): {:>9.0} MB\n",
        engine.peak_target(&history, true, demand).unwrap()
    );

    let outcome = engine
        .check_and_flatten(t, &history, true, demand, &mut alive)
        .expect("the burst is a peak");

    println!("downgrade sequence (lowest utility first):");
    for (i, a) in outcome.actions.iter().enumerate() {
        match a {
            DowngradeAction::Downgrade { func, from, to } => println!(
                "  {:>2}. downgrade f{func} ({}) rung {from} -> {to}",
                i + 1,
                names[*func]
            ),
            DowngradeAction::Evict { func, .. } => {
                println!("  {:>2}. evict     f{func} ({})", i + 1, names[*func])
            }
        }
    }
    println!(
        "\nflattened to {:.0} MB in {} steps; flattened={}",
        outcome.final_kam_mb,
        outcome.actions.len(),
        outcome.flattened
    );
    println!(
        "rungs of the high-probability functions after flattening: f0 -> {:?}, f1 -> {:?}",
        alive.iter().find(|m| m.func == 0).map(|m| m.variant),
        alive.iter().find(|m| m.func == 1).map(|m| m.variant),
    );
    println!("\nper-function downgrade counts (the priority structure):");
    for (f, name) in names.iter().enumerate() {
        println!("  f{f} ({name:>12}): {}", engine.priority().count(f));
    }
}
