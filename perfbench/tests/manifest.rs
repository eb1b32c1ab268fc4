//! `BENCHMARK.json` at the repository root declares exactly the workloads
//! and metrics this benchmark prints, with the same units.

use pulse_perfbench::workload::Workload;
use pulse_perfbench::{END_TO_END, PER_LAYER};

fn manifest() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits next to the benchmark directory")
}

#[test]
fn manifest_names_every_workload_and_metric_with_its_unit() {
    let text = manifest();
    for w in Workload::ALL {
        assert!(
            text.contains(&format!("{{\"name\": \"{}\", \"why\"", w.name())),
            "workload {} missing",
            w.name()
        );
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(
            text.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "metric {name} [{unit}] missing"
        );
    }
    let declared = text.matches("\"unit\":").count();
    assert_eq!(
        declared,
        END_TO_END.len() + PER_LAYER.len(),
        "extra metrics declared"
    );
}
