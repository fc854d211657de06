//! What one run reports: operation counts, the correctness verdict, and a
//! complete, ordered set of named metrics — written as hand-rolled JSON
//! (no registry access, so no serde).

use std::fmt::Write;

/// `(name, unit)` of every metric a run mode must report, in output order.
pub type MetricTable = &'static [(&'static str, &'static str)];

/// Operations attempted and failed. A `search`/`insert`/`delete`/`compact`
/// returning `Err`, or a result failing a correctness check, is one failed
/// operation.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Counts one operation; logs and counts its failure.
    pub fn note<T, E: std::fmt::Display>(&mut self, what: &str, res: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match res {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.failed <= 10 {
                    println!("FAILED {what}: {e}");
                }
                None
            }
        }
    }
}

/// A metric set that must end up holding exactly the names of its table.
pub struct Metrics {
    table: MetricTable,
    values: Vec<Option<f64>>,
}

impl Metrics {
    pub fn new(table: MetricTable) -> Self {
        Self {
            table,
            values: vec![None; table.len()],
        }
    }

    /// # Panics
    /// On a name outside the table, a second write, or a non-finite value
    /// — each is a bug in the benchmark, not a measurement.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .table
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the table"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(self.values[i].is_none(), "metric {name} set twice");
        self.values[i] = Some(value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        let i = self.table.iter().position(|(n, _)| *n == name)?;
        self.values[i]
    }

    /// Reports 0 for every metric `not_exercised` names: layers the
    /// workload does not touch (the output contract wants every name in
    /// every run). Any other metric left unset still panics at output.
    ///
    /// # Panics
    /// If such a metric was measured after all — the list is wrong.
    pub fn zero_where(&mut self, not_exercised: impl Fn(&str) -> bool) {
        for (&(name, _), v) in self.table.iter().zip(&mut self.values) {
            if not_exercised(name) {
                assert!(v.is_none(), "metric {name} is listed as not exercised");
                *v = Some(0.0);
            }
        }
    }

    fn iter(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        self.table
            .iter()
            .zip(&self.values)
            .map(|(&(name, unit), v)| {
                (
                    name,
                    unit,
                    v.unwrap_or_else(|| panic!("metric {name} was never set")),
                )
            })
    }
}

pub struct Report {
    pub ops: Ops,
    /// Every correctness check of the run passed (and `ops.failed == 0`).
    pub correct: bool,
    pub metrics: Metrics,
}

impl Report {
    /// The report of a run in which an operation failed: the counts, with
    /// `correct` false and every metric 0 — no number of a failed run can
    /// be read as a measurement.
    pub fn unmeasured(ops: Ops, table: MetricTable) -> Self {
        let mut metrics = Metrics::new(table);
        metrics.zero_where(|_| true);
        Self {
            ops,
            correct: false,
            metrics,
        }
    }

    pub fn is_correct(&self) -> bool {
        self.correct && self.ops.failed == 0
    }

    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.is_correct(),
            self.ops.attempted,
            self.ops.failed
        );
        for (i, (name, unit, value)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .unwrap();
        }
        out.push_str("}}");
        out
    }

    /// Human-readable metric listing for the run log.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        for (name, unit, value) in self.metrics.iter() {
            writeln!(out, "  {name:<32} {value:>16.6} {unit}").unwrap();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE: MetricTable = &[("a_us", "us"), ("b", "count")];

    #[test]
    fn json_shape() {
        let mut m = Metrics::new(TABLE);
        m.set("b", 3.0);
        m.set("a_us", 1.25);
        let r = Report {
            ops: Ops {
                attempted: 7,
                failed: 0,
            },
            correct: true,
            metrics: m,
        };
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": \
             {\"a_us\": {\"value\": 1.25, \"unit\": \"us\"}, \"b\": {\"value\": 3, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn a_failed_operation_makes_the_run_incorrect() {
        let mut ops = Ops::default();
        assert_eq!(ops.note("x", Ok::<_, String>(1)), Some(1));
        assert_eq!(ops.note("y", Err::<u8, _>("boom")), None);
        let r = Report::unmeasured(ops, TABLE);
        assert_eq!(
            r.to_json(),
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": \
             {\"a_us\": {\"value\": 0, \"unit\": \"us\"}, \"b\": {\"value\": 0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn only_unexercised_layers_read_zero() {
        let mut m = Metrics::new(TABLE);
        m.zero_where(|name| name == "b");
        assert_eq!(m.get("b"), Some(0.0));
        assert_eq!(m.get("a_us"), None);
    }

    #[test]
    #[should_panic(expected = "not exercised")]
    fn a_measured_metric_cannot_be_listed_as_unexercised() {
        let mut m = Metrics::new(TABLE);
        m.set("b", 2.0);
        m.zero_where(|name| name == "b");
    }

    #[test]
    #[should_panic(expected = "never set")]
    fn missing_metric_panics() {
        let r = Report {
            ops: Ops::default(),
            correct: true,
            metrics: Metrics::new(TABLE),
        };
        r.to_json();
    }
}
