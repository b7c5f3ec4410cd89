//! The result line: one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`.

use crate::names::{valid_name, valid_unit};
use std::fmt::Write;

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_name`]).
    pub name: String,
    /// Measured value, with all its digits.
    pub value: f64,
    /// Unit (see [`valid_unit`]).
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    /// Every output check passed.
    pub correct: bool,
    /// Checked operations (campaigns and served segments).
    pub attempted: u64,
    /// Checked operations that errored or did not match their record.
    pub failed: u64,
    /// Reported metrics, in output order.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// Adds a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Names, units or values that break the output rules (bad charset,
    /// duplicates, non-finite values).
    pub fn problems(&self) -> Vec<String> {
        let mut out = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        for m in &self.metrics {
            if !valid_name(&m.name) {
                out.push(format!("invalid metric name {:?}", m.name));
            }
            if !valid_unit(m.unit) {
                out.push(format!("invalid unit {:?} of {}", m.unit, m.name));
            }
            if !m.value.is_finite() {
                out.push(format!("non-finite value of {}", m.name));
            }
            if !seen.insert(m.name.as_str()) {
                out.push(format!("duplicate metric {}", m.name));
            }
        }
        out
    }

    /// The single-line JSON result.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "{}: {{\"value\": {:?}, \"unit\": {}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            );
        }
        s.push_str("}}");
        s
    }
}
