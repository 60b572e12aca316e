//! Deltas between two scrapes of the daemon's `metrics` exposition.
//!
//! The exposition is cumulative. Counters are differenced directly;
//! histograms contribute a *mean* over the interval from their `count`
//! and `sum` deltas. Quantiles of a cumulative histogram cannot be
//! differenced, so none are read.

use std::collections::BTreeMap;

/// One parsed scrape: counters and gauges by name, histograms as
/// `(count, sum)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scrape {
    values: BTreeMap<String, f64>,
    histograms: BTreeMap<String, (f64, f64)>,
}

impl Scrape {
    /// Parses a `dsq-metrics v1` exposition document.
    ///
    /// # Errors
    ///
    /// The first line that is neither a comment nor a well-formed
    /// counter, gauge or histogram record.
    pub fn parse(text: &str) -> Result<Scrape, String> {
        let mut scrape = Scrape::default();
        for line in text.lines().filter(|l| !l.starts_with('#') && !l.trim().is_empty()) {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let bad = || format!("malformed exposition line `{line}`");
            match fields.as_slice() {
                ["counter" | "gauge", name, value] => {
                    scrape.values.insert(name.to_string(), value.parse().map_err(|_| bad())?);
                }
                ["histogram", name, "count", count, "sum", sum, ..] => {
                    let count = count.parse().map_err(|_| bad())?;
                    let sum = sum.parse().map_err(|_| bad())?;
                    scrape.histograms.insert(name.to_string(), (count, sum));
                }
                _ => return Err(bad()),
            }
        }
        Ok(scrape)
    }

    /// Counter `name` increase from `earlier` to `self` (0 when absent).
    pub fn counter_delta(&self, earlier: &Scrape, name: &str) -> f64 {
        let get = |s: &Scrape| s.values.get(name).copied().unwrap_or(0.0);
        get(self) - get(earlier)
    }

    /// Mean of the observations histogram `name` received between
    /// `earlier` and `self`, with their count; `(0, 0)` when none.
    pub fn mean_since(&self, earlier: &Scrape, name: &str) -> (f64, f64) {
        let get = |s: &Scrape| s.histograms.get(name).copied().unwrap_or((0.0, 0.0));
        let ((c1, s1), (c0, s0)) = (get(self), get(earlier));
        let count = c1 - c0;
        if count <= 0.0 {
            (0.0, 0.0)
        } else {
            ((s1 - s0) / count, count)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "# dsq-metrics v1\n\
        counter server.serve.hits 10\n\
        gauge server.outstanding 0\n\
        histogram server.stage.parse_ns count 4 sum 4000 min 900 max 1100 p50 1000 p90 1100 p99 1100 p999 1100\n";
    const AFTER: &str = "# dsq-metrics v1\n\
        counter server.serve.hits 25\n\
        gauge server.outstanding 1\n\
        histogram server.stage.parse_ns count 6 sum 10000 min 900 max 5000 p50 1000 p90 5000 p99 5000 p999 5000\n";

    #[test]
    fn deltas_use_counts_and_sums_not_quantiles() {
        let before = Scrape::parse(BEFORE).unwrap();
        let after = Scrape::parse(AFTER).unwrap();
        assert_eq!(after.counter_delta(&before, "server.serve.hits"), 15.0);
        assert_eq!(after.counter_delta(&before, "absent"), 0.0);
        // Two new observations summing to 6000 ns.
        assert_eq!(after.mean_since(&before, "server.stage.parse_ns"), (3000.0, 2.0));
        assert_eq!(before.mean_since(&before, "server.stage.parse_ns"), (0.0, 0.0));
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(Scrape::parse("counter x\n").is_err());
        assert!(Scrape::parse("histogram h count x sum 1\n").is_err());
        assert!(Scrape::parse("bogus line here\n").is_err());
    }
}
