//! Per-layer metric values of one probed iteration, by name.

use std::collections::BTreeMap;

/// Named per-layer values. A name never set reads 0: the layer was not
/// called on this workload.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    /// Set `name` to `value`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    /// The value of `name`, 0 when unset.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Per-name median over several iterations.
    pub fn median_of(all: &[&Layers]) -> Layers {
        let mut out = Layers::default();
        for name in all.iter().flat_map(|l| l.0.keys()) {
            if out.0.contains_key(name) {
                continue;
            }
            let values: Vec<f64> = all.iter().map(|l| l.get(name)).collect();
            out.set(name, crate::median(&values));
        }
        out
    }
}
