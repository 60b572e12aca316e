//! A versioned plain-text snapshot format for plan caches, so warm plans
//! survive process restarts and travel between processes.
//!
//! The serving layer (`dsq-service`) keys cached plans by the quantized
//! [`CanonicalKey`](crate::CanonicalKey) fingerprint of an instance. A
//! snapshot serializes each resident entry as the triple the cache needs
//! to rebuild itself: the fingerprint, the canonical-space plan with its
//! reference cost, and the **instance text** of the representative that
//! produced the entry. Carrying the instance (not just the fingerprint)
//! makes the format self-validating — a loader recomputes the fingerprint
//! from the instance under its own quantization and rejects entries that
//! do not hash back — and lets a cache configured for multi-probe lookup
//! re-derive its shifted-grid aliases.
//!
//! # Format
//!
//! Line-oriented, versioned, headed by the [`Quantization`] resolution so
//! a snapshot taken at one bucket width is rejected by a cache using
//! another (the fingerprints would be garbage there):
//!
//! ```text
//! dsq-plan-cache v1
//! resolution 0.05
//! entries 2
//! entry fingerprint 00a1b2c3d4e5f607 cost 1.2345 plan 2,0,1
//! dsq-instance v1
//! …instance lines…
//! end-entry
//! entry …
//! …
//! end-snapshot
//! ```
//!
//! Costs round-trip exactly: `f64` formatting in Rust emits the shortest
//! decimal that parses back to the identical bits. The trailing
//! `end-snapshot` line makes truncation detectable even after the last
//! entry.

use crate::canonical::Quantization;
use std::error::Error;
use std::fmt;

/// Header line of the snapshot format, version included.
pub const SNAPSHOT_HEADER: &str = "dsq-plan-cache v1";

/// One serialized cache entry: fingerprint, canonical plan + reference
/// cost, and the representative instance's text. Passive struct; fields
/// are public.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotEntry {
    /// The cache fingerprint the entry was stored under.
    pub fingerprint: u64,
    /// Bottleneck cost of the plan on the representative instance (the
    /// value bucket-hits validate against).
    pub cost: f64,
    /// The plan in canonical index space.
    pub canonical_plan: Vec<u32>,
    /// The representative instance, in the `dsq-instance` text format
    /// (see [`format_instance`](crate::format_instance)).
    pub instance: String,
}

/// A parsed (or to-be-written) plan-cache snapshot. Passive struct;
/// fields are public.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanSnapshot {
    /// Resolution of the [`Quantization`] the fingerprints were computed
    /// under.
    pub resolution: f64,
    /// The serialized entries, in the order they were written.
    pub entries: Vec<SnapshotEntry>,
}

/// Error raised by [`PlanSnapshot::parse`].
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// The header line is missing or names an unknown version.
    BadHeader,
    /// A line could not be parsed.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// The document ended before the declared entries (or the
    /// `end-snapshot` trailer) arrived.
    Truncated {
        /// Entries the header promised.
        expected: usize,
        /// Complete entries actually present.
        found: usize,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadHeader => {
                write!(f, "expected header line `{SNAPSHOT_HEADER}`")
            }
            SnapshotError::Malformed { line, reason } => write!(f, "line {line}: {reason}"),
            SnapshotError::Truncated { expected, found } => {
                write!(f, "snapshot truncated: expected {expected} entries, found {found}")
            }
        }
    }
}

impl Error for SnapshotError {}

impl PlanSnapshot {
    /// Renders the snapshot in the text format (see module docs). The
    /// output round-trips through [`PlanSnapshot::parse`] bit-exactly.
    pub fn to_text(&self) -> String {
        let mut out = String::from(SNAPSHOT_HEADER);
        out.push('\n');
        out.push_str(&format!("resolution {}\n", self.resolution));
        out.push_str(&format!("entries {}\n", self.entries.len()));
        for entry in &self.entries {
            out.push_str(&format!(
                "entry fingerprint {:016x} cost {} plan {}\n",
                entry.fingerprint,
                entry.cost,
                entry.canonical_plan.iter().map(u32::to_string).collect::<Vec<_>>().join(","),
            ));
            out.push_str(&entry.instance);
            if !entry.instance.ends_with('\n') {
                out.push('\n');
            }
            out.push_str("end-entry\n");
        }
        out.push_str("end-snapshot\n");
        out
    }

    /// Convenience constructor pairing a [`Quantization`] with entries.
    pub fn new(quantization: &Quantization, entries: Vec<SnapshotEntry>) -> Self {
        PlanSnapshot { resolution: quantization.resolution, entries }
    }

    /// Parses the text format (see module docs).
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] naming the offending line, a bad or
    /// missing header, or truncation (fewer complete entries than the
    /// header declared, or a missing `end-snapshot` trailer).
    pub fn parse(text: &str) -> Result<PlanSnapshot, SnapshotError> {
        let malformed = |line: usize, reason: &str| SnapshotError::Malformed {
            line,
            reason: reason.to_string(),
        };
        let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l));

        match lines.next() {
            Some((_, l)) if l.trim() == SNAPSHOT_HEADER => {}
            _ => return Err(SnapshotError::BadHeader),
        }
        let resolution: f64 = match lines.next() {
            Some((lineno, l)) => l
                .trim()
                .strip_prefix("resolution ")
                .and_then(|v| v.trim().parse().ok())
                .filter(|r: &f64| r.is_finite() && *r > 0.0 && *r < 1.0)
                .ok_or_else(|| malformed(lineno, "expected `resolution R` with R in (0, 1)"))?,
            None => return Err(malformed(2, "expected `resolution R` with R in (0, 1)")),
        };
        let expected: usize = match lines.next() {
            Some((lineno, l)) => l
                .trim()
                .strip_prefix("entries ")
                .and_then(|v| v.trim().parse().ok())
                .ok_or_else(|| malformed(lineno, "expected `entries N`"))?,
            None => return Err(malformed(3, "expected `entries N`")),
        };

        let mut entries: Vec<SnapshotEntry> = Vec::with_capacity(expected);
        let mut sealed = false;
        while let Some((lineno, line)) = lines.next() {
            let line = line.trim_end();
            if line == "end-snapshot" {
                sealed = true;
                if lines.next().is_some() {
                    return Err(malformed(lineno + 1, "content after end-snapshot"));
                }
                break;
            }
            let rest = line.strip_prefix("entry fingerprint ").ok_or_else(|| {
                malformed(lineno, "expected `entry fingerprint …` or `end-snapshot`")
            })?;
            let mut fields = rest.split_whitespace();
            let fingerprint = fields
                .next()
                .and_then(|f| u64::from_str_radix(f, 16).ok())
                .ok_or_else(|| malformed(lineno, "bad fingerprint"))?;
            let cost: f64 = match (fields.next(), fields.next()) {
                (Some("cost"), Some(v)) => v
                    .parse()
                    .ok()
                    .filter(|c: &f64| c.is_finite())
                    .ok_or_else(|| malformed(lineno, "bad entry cost"))?,
                _ => return Err(malformed(lineno, "bad entry cost")),
            };
            let canonical_plan: Vec<u32> = match (fields.next(), fields.next()) {
                (Some("plan"), Some(spec)) => spec
                    .split(',')
                    .map(|f| f.parse::<u32>())
                    .collect::<Result<_, _>>()
                    .map_err(|_| malformed(lineno, "bad canonical plan"))?,
                _ => return Err(malformed(lineno, "bad canonical plan")),
            };
            if fields.next().is_some() {
                return Err(malformed(lineno, "trailing fields after plan"));
            }

            let mut instance = String::new();
            let mut closed = false;
            for (_, body) in lines.by_ref() {
                if body.trim_end() == "end-entry" {
                    closed = true;
                    break;
                }
                instance.push_str(body);
                instance.push('\n');
            }
            if !closed {
                return Err(SnapshotError::Truncated { expected, found: entries.len() });
            }
            entries.push(SnapshotEntry { fingerprint, cost, canonical_plan, instance });
        }

        if !sealed || entries.len() != expected {
            return Err(SnapshotError::Truncated { expected, found: entries.len() });
        }
        Ok(PlanSnapshot { resolution, entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> PlanSnapshot {
        PlanSnapshot {
            resolution: 0.05,
            entries: vec![
                SnapshotEntry {
                    fingerprint: 0x00a1_b2c3_d4e5_f607,
                    cost: 1.0 / 3.0,
                    canonical_plan: vec![2, 0, 1],
                    instance: "dsq-instance v1\nname a\nn 1\nservice 0 1 0.5\nrow 0 0\n".into(),
                },
                SnapshotEntry {
                    fingerprint: u64::MAX,
                    cost: 7.25,
                    canonical_plan: vec![0],
                    instance: "dsq-instance v1\nname b\nn 1\nservice 0 2 0.5\nrow 0 0\n".into(),
                },
            ],
        }
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let snapshot = demo();
        let text = snapshot.to_text();
        let parsed = PlanSnapshot::parse(&text).expect("round trip parses");
        assert_eq!(parsed, snapshot);
        assert_eq!(parsed.entries[0].cost.to_bits(), (1.0f64 / 3.0).to_bits());
        // Idempotent: re-rendering the parse gives the same bytes.
        assert_eq!(parsed.to_text(), text);
    }

    #[test]
    fn empty_snapshots_round_trip() {
        let empty = PlanSnapshot::new(&Quantization::default(), Vec::new());
        let parsed = PlanSnapshot::parse(&empty.to_text()).expect("parses");
        assert_eq!(parsed, empty);
    }

    #[test]
    fn header_and_version_are_enforced() {
        assert_eq!(PlanSnapshot::parse(""), Err(SnapshotError::BadHeader));
        assert_eq!(PlanSnapshot::parse("dsq-plan-cache v2\n"), Err(SnapshotError::BadHeader));
        assert_eq!(PlanSnapshot::parse("dsq-instance v1\n"), Err(SnapshotError::BadHeader));
        assert_eq!(
            PlanSnapshot::parse("dsq-plan-cache v2\n").unwrap_err().to_string(),
            "expected header line `dsq-plan-cache v1`"
        );
    }

    #[test]
    fn truncation_is_detected() {
        let text = demo().to_text();
        // Chopping anywhere after the header must never parse: either a
        // truncation error or a malformed line, never a silent partial
        // snapshot.
        for cut in ["end-snapshot\n", "end-entry\n", "service 0 2 0.5\n"] {
            let truncated = &text[..text.rfind(cut).expect("marker present")];
            let err = PlanSnapshot::parse(truncated).expect_err("truncated must not parse");
            assert!(matches!(err, SnapshotError::Truncated { .. }), "cut at {cut:?} gave {err:?}");
        }
        let err = PlanSnapshot::parse(&text[..text.rfind("end-snapshot\n").unwrap()]).unwrap_err();
        assert_eq!(err.to_string(), "snapshot truncated: expected 2 entries, found 2");
    }

    #[test]
    fn corrupt_lines_are_rejected_with_positions() {
        let text = demo().to_text();
        let corrupted = text.replacen("entry fingerprint 00a1", "entry fingerprint zz", 1);
        match PlanSnapshot::parse(&corrupted) {
            Err(SnapshotError::Malformed { line, reason }) => {
                assert_eq!(line, 4);
                assert_eq!(reason, "bad fingerprint");
            }
            other => panic!("expected malformed fingerprint, got {other:?}"),
        }
        let corrupted = text.replacen("plan 2,0,1", "plan 2,x,1", 1);
        assert!(matches!(
            PlanSnapshot::parse(&corrupted),
            Err(SnapshotError::Malformed { reason, .. }) if reason == "bad canonical plan"
        ));
        let corrupted = text.replacen("resolution 0.05", "resolution 7", 1);
        assert!(matches!(
            PlanSnapshot::parse(&corrupted),
            Err(SnapshotError::Malformed { line: 2, .. })
        ));
        let trailing = format!("{text}junk\n");
        assert!(matches!(
            PlanSnapshot::parse(&trailing),
            Err(SnapshotError::Malformed { reason, .. }) if reason == "content after end-snapshot"
        ));
    }

    #[test]
    fn entry_count_mismatch_is_truncation() {
        let text = demo().to_text().replacen("entries 2", "entries 3", 1);
        assert_eq!(
            PlanSnapshot::parse(&text),
            Err(SnapshotError::Truncated { expected: 3, found: 2 })
        );
    }
}
