//! Compare the last two points of every bench in the repository's
//! `BENCH_*.json` trajectories and report the ones that slowed down by more
//! than a stated noise bound.
//!
//! Each trajectory is JSON Lines appended by the `PULSE_BENCH_JSON` hook of
//! the vendored criterion, one `{"bench":..,"mean_ns":..}` object per point,
//! oldest first. For every bench name with at least two points the report
//! prints the previous and the latest `mean_ns` and their ratio, and flags a
//! regression when `latest > previous * (1 + NOISE_BOUND)`. Run it from the
//! repository root.
//!
//! ```bash
//! cargo run --release --example bench_diff
//! ```
//!
//! The noise bound is [`NOISE_BOUND`]. The report is informational: the
//! exit code is 0 after it and 2 on an I/O or parse error, never a verdict
//! on the numbers.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// A point slower than its predecessor by more than this fraction is
/// reported as a regression. A point is the mean of one batch of 10-30
/// iterations with no spread recorded, and repeat runs of the ledger suite
/// on a shared 2-core machine differ by 2x and more on sub-10 µs points, so a
/// tighter bound reports noise.
const NOISE_BOUND: f64 = 0.5;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_diff: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<(), String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(".")
        .map_err(|e| format!("current directory: {e}"))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    files.sort();

    let (mut compared, mut regressed) = (0usize, 0usize);
    for file in &files {
        println!("{}", file.file_name().unwrap_or_default().to_string_lossy());
        for (name, points) in read_points(file)? {
            let [.., prev, last] = points[..] else {
                continue;
            };
            compared += 1;
            let ratio = last / prev;
            let slow = ratio > 1.0 + NOISE_BOUND;
            regressed += usize::from(slow);
            let mark = if slow { "  REGRESSION" } else { "" };
            println!("  {name:<55} {prev:>14.0} ns -> {last:>14.0} ns  x{ratio:.2}{mark}");
        }
    }
    println!(
        "{compared} benches compared across {} files; {regressed} slowed by more than {:.0}%",
        files.len(),
        NOISE_BOUND * 100.0
    );
    Ok(())
}

/// Every point of one trajectory file, grouped by bench name in file order.
fn read_points(path: &Path) -> Result<BTreeMap<String, Vec<f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = || format!("{}:{}", path.display(), i + 1);
        let name = string_field(line, "bench").ok_or_else(|| format!("{}: no bench", at()))?;
        let mean = number_field(line, "mean_ns").ok_or_else(|| format!("{}: no mean_ns", at()))?;
        out.entry(name).or_default().push(mean);
    }
    Ok(out)
}

/// The string value of `"key":"..."` in a flat JSON object line.
fn string_field(line: &str, key: &str) -> Option<String> {
    let rest = &line[line.find(&format!("\"{key}\":\""))? + key.len() + 4..];
    let mut value = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(value),
            '\\' => value.push(chars.next()?),
            c => value.push(c),
        }
    }
    None
}

/// The numeric value of `"key":n` in a flat JSON object line.
fn number_field(line: &str, key: &str) -> Option<f64> {
    let rest = &line[line.find(&format!("\"{key}\":"))? + key.len() + 3..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}
