//! Named metrics, the human-readable report and the final JSON line.

use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Samples the value was computed from.
    pub samples: u64,
}

/// The result of one benchmark invocation.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Metrics that go into the JSON line.
    pub metrics: Vec<Metric>,
    /// Reads or writes attempted.
    pub attempted: u64,
    /// Reads or writes that failed.
    pub failed: u64,
    /// Every check that did not hold.
    pub violations: Vec<String>,
}

impl Outcome {
    /// Adds a metric.
    pub fn push(&mut self, name: &'static str, unit: &'static str, value: f64, samples: u64) {
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    /// Records a failed check unless `holds`.
    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.violations.push(what());
        }
    }

    /// Whether every answer and every check was right.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    /// One line per metric: name, value, unit and sample count.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            writeln!(
                out,
                "  {:<32} {:>14.4} {:<8} n={}",
                m.name, m.value, m.unit, m.samples
            )
            .expect("writing to a String cannot fail");
        }
        out
    }

    /// The single JSON object the benchmark ends its output with.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with all its digits (`NaN` and infinities,
/// which JSON cannot carry, become 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        o.push("latency_ms", "ms", 1.25, 10);
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        o.check(false, || "broken".into());
        assert!(!o.correct());
        assert!(o.json().starts_with("{\"correct\": false"));
    }
}
