//! `pulse-perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload for `S` seconds of wall time, prints the metric table
//! and, as the last line of standard output, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exits 1 when an output
//! check fails and 2 on a usage error.

use pulse_perfbench::workload::Workload;
use pulse_perfbench::{measure, DEFAULT_SEED};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: pulse-perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    )
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match number()? {
                    0 => false,
                    1 => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let m = measure(args.workload, args.seed, args.seconds, args.trace);
    println!(
        "workload {} seed {} ({} run)",
        args.workload.name(),
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    print!("{}", m.notes);
    for f in &m.failures {
        println!("CHECK FAILED: {f}");
    }
    print!("{}", m.table());
    println!("{}", m.json());
    if m.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
