//! The text exposition format.
//!
//! [`render_exposition`] turns a fixed set of named histograms and
//! counters into the `dsq-metrics v1` exposition — a byte-stable text
//! form suitable for diffing, parsing, and shipping over the wire:
//!
//! ```text
//! # dsq-metrics v1
//! counter <name> <value>
//! histogram <name> count <n> sum <s> min <lo> max <hi> p50 <a> p90 <b> p99 <c> p999 <d>
//! ```
//!
//! Lines after the header are sorted by metric name (bytewise
//! ascending, names are unique across kinds), so two renders of the
//! same state are byte-identical regardless of argument order.

use crate::hist::Histogram;
use std::collections::BTreeMap;

/// The exposition header; the first line of every render.
pub const EXPOSITION_HEADER: &str = "# dsq-metrics v1";

/// Renders the exposition text: the header, then one line per metric
/// sorted by name, each ending in a newline.
///
/// # Panics
///
/// Panics if a name is not lowercase `[a-z0-9._-]` (the line grammar
/// splits on spaces) or appears twice.
pub fn render_exposition(histograms: &[(&str, &Histogram)], counters: &[(&str, u64)]) -> String {
    let mut lines: BTreeMap<&str, String> = BTreeMap::new();
    let metrics = histograms
        .iter()
        .map(|&(name, h)| (name, histogram_line(name, h)))
        .chain(counters.iter().map(|&(name, value)| (name, format!("counter {name} {value}"))));
    for (name, line) in metrics {
        assert!(
            !name.is_empty()
                && name
                    .bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b"._-".contains(&b)),
            "metric names are lowercase [a-z0-9._-], got {name:?}"
        );
        assert!(lines.insert(name, line).is_none(), "metric {name:?} appears twice");
    }
    let mut out = String::from(EXPOSITION_HEADER);
    out.push('\n');
    for line in lines.values() {
        out.push_str(line);
        out.push('\n');
    }
    out
}

fn histogram_line(name: &str, h: &Histogram) -> String {
    format!(
        "histogram {name} count {} sum {} min {} max {} p50 {} p90 {} p99 {} p999 {}",
        h.count(),
        h.sum(),
        h.min(),
        h.max(),
        h.quantile(0.50),
        h.quantile(0.90),
        h.quantile(0.99),
        h.quantile(0.999),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "appears twice")]
    fn kind_collisions_panic() {
        render_exposition(&[("x.y", &Histogram::new())], &[("x.y", 1)]);
    }

    #[test]
    #[should_panic(expected = "lowercase")]
    fn malformed_names_panic() {
        render_exposition(&[], &[("Requests Total", 1)]);
    }

    #[test]
    fn render_is_sorted_and_byte_stable() {
        let mid = Histogram::new();
        mid.record(100);
        let a = render_exposition(&[("mid.lat", &mid)], &[("zeta.count", 9), ("alpha.n", 2)]);
        let b = render_exposition(&[("mid.lat", &mid)], &[("alpha.n", 2), ("zeta.count", 9)]);
        assert_eq!(a, b);
        let lines: Vec<&str> = a.lines().collect();
        assert_eq!(lines[0], EXPOSITION_HEADER);
        assert_eq!(lines[1], "counter alpha.n 2");
        assert!(lines[2].starts_with("histogram mid.lat count 1 sum 100 min 100 max 100 "));
        assert_eq!(lines[3], "counter zeta.count 9");
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn extra_counters_fold_into_sorted_order() {
        let text = render_exposition(&[], &[("c.three", 3), ("a.one", 1), ("b.two", 2)]);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            vec![EXPOSITION_HEADER, "counter a.one 1", "counter b.two 2", "counter c.three 3"]
        );
    }
}
