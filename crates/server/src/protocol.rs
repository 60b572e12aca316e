//! The newline-framed wire protocol.
//!
//! Requests are plain text. A client sends either a single-line verb or
//! an instance document terminated by `end`:
//!
//! ```text
//! request   = instance-doc | "ping" | "metrics" | "shutdown"
//!           | export-line | import-doc
//! instance-doc = "dsq-instance v1" LF …instance lines… "end" LF
//! export-line  = "export-partition vnodes " N " keep " N " backends " ADDR ("," ADDR)* LF
//! import-doc   = "import-partition" LF …snapshot lines… "end-snapshot" LF
//! ```
//!
//! Every request earns exactly one single-line response:
//!
//! ```text
//! response  = "ok source " SRC " cost " F64 " fingerprint " HEX16 " plan " I ("," I)*
//!                 [" tier " TIER]
//!           | "ok pong"
//!           | "ok metrics " N            ; N exposition lines stream after this line
//!           | "ok draining"
//!           | "ok partition " N           ; N snapshot entries stream after this line
//!           | "ok partition-restored " N
//!           | "busy retry-after-ms " N
//!           | "error " MESSAGE          ; one line, never empty
//! SRC       = "hit" | "warm" | "cold"
//! TIER      = "exact" | "heur"
//! ```
//!
//! Any other single-line verb is answered ``error unknown request `VERB` ``
//! and counted as a protocol error; the connection stays usable.
//!
//! The `metrics` verb scrapes the server's telemetry, every serving
//! counter included (`counter server.<group>.<token> N`). The
//! `ok metrics N` header is followed by exactly `N` lines of
//! `dsq-metrics v1` exposition text (the `# dsq-metrics v1` header line
//! included in the count) and then the literal trailer `end-metrics`.
//! The exposition itself is byte-stable — lines sorted by metric name —
//! so two scrapes of the same state are identical bytes; see
//! `dsq_telemetry::registry` for the line grammar
//! (`counter`/`histogram` records).
//!
//! The two partition verbs carry the warm-handoff path of a fleet
//! resize. `export-partition` asks the server to **remove and return**
//! every exact-tier cache entry whose canonical fingerprint is *not*
//! owned by ring slot `keep` on the consistent-hash ring built over
//! `backends` with `vnodes` virtual nodes per backend — i.e. "here is
//! the new fleet layout; hand over everything that is no longer
//! yours". A `keep` equal to the backend count names no slot at all —
//! the server keeps nothing, the full drain of a **leaving** backend
//! that is not part of the new layout. The `ok partition N` line is
//! followed by the exported
//! entries as a [`PlanSnapshot`](dsq_core::PlanSnapshot) text document,
//! which self-terminates with its own `end-snapshot` trailer (`N` is
//! redundant with the document's declared entry count; clients may
//! cross-check). `import-partition` streams such a document *to* the
//! server, which restores the entries into its cache and answers
//! `ok partition-restored N`. Backend addresses are whitespace-free by
//! construction (TCP `host:port` or Unix socket paths), which is what
//! lets the export line stay single-line.
//!
//! The tier token is **optional and trailing**: it is only emitted for
//! heuristic-tier plans, which only exist when the operator runs the
//! server with `--tiered`. Exact plans render byte-identically to the
//! pre-tier wire format, and a missing token parses as `exact` — so
//! old clients interoperate with non-tiered servers unchanged, and new
//! clients interoperate with both.
//!
//! Costs are Rust `f64` `Display` output, which round-trips bit-exactly
//! through `parse`; fingerprints are zero-padded lowercase hex. [`Response::to_line`] and [`Response::parse`] are exact inverses
//! for every value the server emits.

use dsq_service::{PlanTier, ServeSource};
use std::fmt;

/// End-of-request marker terminating an instance document.
pub const REQUEST_END: &str = "end";

/// The `import-partition` request verb (the snapshot document follows
/// on the next lines, terminated by the snapshot's own `end-snapshot`
/// trailer).
pub const IMPORT_PARTITION_VERB: &str = "import-partition";

/// The `metrics` request verb: scrape the server's telemetry.
pub const METRICS_VERB: &str = "metrics";

/// Trailer closing the exposition document after an `ok metrics N`
/// response.
pub const METRICS_END: &str = "end-metrics";

/// A parsed `export-partition` request line: the new fleet layout the
/// receiving server should keep slot [`keep`](Self::keep) of, handing
/// everything else over. Passive struct; fields are public.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExportRequest {
    /// Virtual nodes per backend on the consistent-hash ring.
    pub vnodes: usize,
    /// The ring slot (index into [`backends`](Self::backends)) the
    /// receiving server keeps; entries owned by any other slot are
    /// exported. May equal `backends.len()`: the server keeps nothing —
    /// the full drain of a backend leaving the fleet.
    pub keep: usize,
    /// The backend addresses spanning the ring, in fleet order.
    pub backends: Vec<String>,
}

impl ExportRequest {
    /// Renders the request as its wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        format!(
            "export-partition vnodes {} keep {} backends {}",
            self.vnodes,
            self.keep,
            self.backends.join(",")
        )
    }

    /// Parses an `export-partition` wire line.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] carrying the line when it does not match the
    /// grammar, names an empty backend, or keeps a slot beyond the
    /// backend count (`keep == backends.len()`, the drain form, is
    /// valid).
    pub fn parse(line: &str) -> Result<ExportRequest, ProtocolError> {
        let line = line.trim_end();
        let err = || ProtocolError(line.to_string());
        let rest = line.strip_prefix("export-partition ").ok_or_else(err)?;
        let mut fields = rest.split_whitespace();
        let vnodes: usize = match (fields.next(), fields.next()) {
            (Some("vnodes"), Some(v)) => v.parse().map_err(|_| err())?,
            _ => return Err(err()),
        };
        let keep: usize = match (fields.next(), fields.next()) {
            (Some("keep"), Some(v)) => v.parse().map_err(|_| err())?,
            _ => return Err(err()),
        };
        let backends: Vec<String> = match (fields.next(), fields.next()) {
            (Some("backends"), Some(spec)) => spec.split(',').map(str::to_string).collect(),
            _ => return Err(err()),
        };
        if fields.next().is_some()
            || vnodes == 0
            || keep > backends.len()
            || backends.iter().any(String::is_empty)
        {
            return Err(err());
        }
        Ok(ExportRequest { vnodes, keep, backends })
    }
}

/// Error raised by [`Response::parse`]: the offending line, verbatim.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolError(pub String);

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed protocol line: `{}`", self.0)
    }
}

impl std::error::Error for ProtocolError {}

/// One parsed server response. See the [module docs](self) for the
/// grammar.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A served plan, in the request instance's own service labels.
    Served {
        /// How the plan was obtained.
        source: ServeSource,
        /// Bottleneck cost on the exact request instance.
        cost: f64,
        /// The request's primary cache fingerprint.
        fingerprint: u64,
        /// The plan as service indices.
        plan: Vec<usize>,
        /// Quality tier: [`PlanTier::Heuristic`] for an unrefined
        /// tier-1 answer from a `--tiered` server, [`PlanTier::Exact`]
        /// otherwise (and for every line without a tier token).
        tier: PlanTier,
    },
    /// The admission queue was full; retry after the given hint.
    Busy {
        /// Server-suggested backoff in milliseconds.
        retry_after_ms: u64,
    },
    /// The request failed; the message is a single line.
    Error {
        /// What went wrong.
        message: String,
    },
    /// Reply to `ping`.
    Pong,
    /// Reply to `metrics`: this many exposition lines stream after this
    /// line (the `# dsq-metrics v1` header included), followed by the
    /// [`METRICS_END`] trailer.
    Metrics {
        /// Exposition lines in the document that follows.
        lines: u64,
    },
    /// Reply to `shutdown`: the server is draining.
    Draining,
    /// Reply to `export-partition`: this many exported snapshot entries
    /// stream after this line as a snapshot text document (terminated
    /// by its own `end-snapshot` trailer).
    Partition {
        /// Entries in the snapshot document that follows.
        entries: u64,
    },
    /// Reply to `import-partition`: this many entries were restored.
    PartitionRestored {
        /// Entries restored into the receiving cache.
        entries: u64,
    },
}

fn parse_source(name: &str) -> Option<ServeSource> {
    match name {
        "hit" => Some(ServeSource::CacheHit),
        "warm" => Some(ServeSource::WarmStart),
        "cold" => Some(ServeSource::Cold),
        _ => None,
    }
}

fn parse_tier(name: &str) -> Option<PlanTier> {
    match name {
        "exact" => Some(PlanTier::Exact),
        "heur" => Some(PlanTier::Heuristic),
        _ => None,
    }
}

impl Response {
    /// Renders the response as its wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            Response::Served { source, cost, fingerprint, plan, tier } => {
                let plan = plan.iter().map(usize::to_string).collect::<Vec<_>>().join(",");
                // Exact plans keep the pre-tier wire format byte for
                // byte (see the module docs): only tier-1 answers — a
                // `--tiered`-only phenomenon — carry the token.
                let tier = match tier {
                    PlanTier::Exact => String::new(),
                    PlanTier::Heuristic => format!(" tier {}", tier.name()),
                };
                format!(
                    "ok source {} cost {cost} fingerprint {fingerprint:016x} plan {plan}{tier}",
                    source.name()
                )
            }
            Response::Busy { retry_after_ms } => format!("busy retry-after-ms {retry_after_ms}"),
            Response::Error { message } => {
                // The frame is one line; a multi-line message would
                // desynchronize the stream.
                format!("error {}", message.replace('\n', "; "))
            }
            Response::Pong => "ok pong".into(),
            Response::Metrics { lines } => format!("ok metrics {lines}"),
            Response::Draining => "ok draining".into(),
            Response::Partition { entries } => format!("ok partition {entries}"),
            Response::PartitionRestored { entries } => {
                format!("ok partition-restored {entries}")
            }
        }
    }

    /// Parses a wire line.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] carrying the line when it matches no response
    /// form.
    pub fn parse(line: &str) -> Result<Response, ProtocolError> {
        let line = line.trim_end();
        let err = || ProtocolError(line.to_string());
        if let Some(message) = line.strip_prefix("error ") {
            return Ok(Response::Error { message: message.to_string() });
        }
        if let Some(rest) = line.strip_prefix("busy retry-after-ms ") {
            let retry_after_ms = rest.trim().parse().map_err(|_| err())?;
            return Ok(Response::Busy { retry_after_ms });
        }
        match line {
            "ok pong" => return Ok(Response::Pong),
            "ok draining" => return Ok(Response::Draining),
            _ => {}
        }
        if let Some(rest) = line.strip_prefix("ok partition-restored ") {
            let entries = rest.trim().parse().map_err(|_| err())?;
            return Ok(Response::PartitionRestored { entries });
        }
        if let Some(rest) = line.strip_prefix("ok partition ") {
            let entries = rest.trim().parse().map_err(|_| err())?;
            return Ok(Response::Partition { entries });
        }
        if let Some(rest) = line.strip_prefix("ok metrics ") {
            let lines = rest.trim().parse().map_err(|_| err())?;
            return Ok(Response::Metrics { lines });
        }
        if let Some(rest) = line.strip_prefix("ok source ") {
            let mut fields = rest.split_whitespace();
            let source = fields.next().and_then(parse_source).ok_or_else(err)?;
            let cost: f64 = match (fields.next(), fields.next()) {
                (Some("cost"), Some(v)) => v.parse().map_err(|_| err())?,
                _ => return Err(err()),
            };
            let fingerprint = match (fields.next(), fields.next()) {
                (Some("fingerprint"), Some(v)) => u64::from_str_radix(v, 16).map_err(|_| err())?,
                _ => return Err(err()),
            };
            let plan: Vec<usize> = match (fields.next(), fields.next()) {
                (Some("plan"), Some(spec)) => spec
                    .split(',')
                    .map(|f| f.parse::<usize>())
                    .collect::<Result<_, _>>()
                    .map_err(|_| err())?,
                _ => return Err(err()),
            };
            let tier = match (fields.next(), fields.next()) {
                (None, _) => PlanTier::Exact,
                (Some("tier"), Some(name)) => parse_tier(name).ok_or_else(err)?,
                _ => return Err(err()),
            };
            if fields.next().is_some() {
                return Err(err());
            }
            return Ok(Response::Served { source, cost, fingerprint, plan, tier });
        }
        Err(err())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responses_round_trip() {
        let cases = vec![
            Response::Served {
                source: ServeSource::CacheHit,
                cost: 1.0 / 3.0,
                fingerprint: 0x00ab_cdef_0123_4567,
                plan: vec![2, 0, 1],
                tier: PlanTier::Exact,
            },
            Response::Served {
                source: ServeSource::Cold,
                cost: 7.25,
                fingerprint: u64::MAX,
                plan: vec![0],
                tier: PlanTier::Exact,
            },
            Response::Served {
                source: ServeSource::Cold,
                cost: 2.5,
                fingerprint: 9,
                plan: vec![1, 0],
                tier: PlanTier::Heuristic,
            },
            Response::Served {
                source: ServeSource::CacheHit,
                cost: 2.5,
                fingerprint: 9,
                plan: vec![1, 0],
                tier: PlanTier::Heuristic,
            },
            Response::Busy { retry_after_ms: 50 },
            Response::Error { message: "cannot parse instance: line 3: bad cost".into() },
            Response::Pong,
            Response::Draining,
            Response::Partition { entries: 0 },
            Response::Partition { entries: 17 },
            Response::PartitionRestored { entries: 17 },
            Response::Metrics { lines: 0 },
            Response::Metrics { lines: 42 },
        ];
        for response in cases {
            let line = response.to_line();
            assert!(!line.contains('\n'));
            assert_eq!(Response::parse(&line).expect("round-trips"), response, "{line}");
        }
        // Cost bits survive the text round trip.
        let served = Response::Served {
            source: ServeSource::WarmStart,
            cost: 0.1 + 0.2,
            fingerprint: 1,
            plan: vec![0, 1],
            tier: PlanTier::Exact,
        };
        match Response::parse(&served.to_line()).expect("parses") {
            Response::Served { cost, .. } => {
                assert_eq!(cost.to_bits(), (0.1f64 + 0.2).to_bits())
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    /// Exact-tier lines keep the pre-tier wire format byte for byte
    /// (old clients parse everything a non-tiered server emits), a
    /// tier-less line parses as exact, and heuristic answers carry the
    /// trailing token.
    #[test]
    fn tier_token_is_backward_compatible() {
        let exact = Response::Served {
            source: ServeSource::Cold,
            cost: 1.5,
            fingerprint: 0xabc,
            plan: vec![1, 0, 2],
            tier: PlanTier::Exact,
        };
        assert_eq!(
            exact.to_line(),
            "ok source cold cost 1.5 fingerprint 0000000000000abc plan 1,0,2",
            "no tier token on exact plans"
        );
        assert_eq!(Response::parse(&exact.to_line()).expect("parses"), exact);

        let heur = Response::Served {
            source: ServeSource::Cold,
            cost: 1.5,
            fingerprint: 0xabc,
            plan: vec![1, 0, 2],
            tier: PlanTier::Heuristic,
        };
        assert_eq!(
            heur.to_line(),
            "ok source cold cost 1.5 fingerprint 0000000000000abc plan 1,0,2 tier heur"
        );
        assert_eq!(Response::parse(&heur.to_line()).expect("parses"), heur);
        // A new server may also spell the tier out explicitly; new
        // clients accept it.
        match Response::parse("ok source hit cost 1 fingerprint 0 plan 0 tier exact") {
            Ok(Response::Served { tier, .. }) => assert_eq!(tier, PlanTier::Exact),
            other => panic!("explicit exact tier must parse: {other:?}"),
        }
    }

    #[test]
    fn metrics_header_round_trips_and_rejects_malformed_counts() {
        let header = Response::Metrics { lines: 12 };
        assert_eq!(header.to_line(), "ok metrics 12");
        assert_eq!(Response::parse("ok metrics 12").expect("parses"), header);
        for line in ["ok metrics", "ok metrics x", "ok metrics -1", "ok metrics 1 2"] {
            assert!(Response::parse(line).is_err(), "{line:?} should not parse");
        }
    }

    #[test]
    fn multiline_error_messages_are_flattened() {
        let response = Response::Error { message: "line 1\nline 2".into() };
        assert_eq!(response.to_line(), "error line 1; line 2");
    }

    #[test]
    fn export_request_round_trips_and_rejects_malformed_lines() {
        let request = ExportRequest {
            vnodes: 64,
            keep: 1,
            backends: vec!["127.0.0.1:7001".into(), "127.0.0.1:7002".into(), "/tmp/c.sock".into()],
        };
        assert_eq!(
            request.to_line(),
            "export-partition vnodes 64 keep 1 backends 127.0.0.1:7001,127.0.0.1:7002,/tmp/c.sock"
        );
        assert_eq!(ExportRequest::parse(&request.to_line()).expect("round-trips"), request);
        // A single-backend layout is legal (it exports nothing).
        let solo = ExportRequest { vnodes: 1, keep: 0, backends: vec!["a".into()] };
        assert_eq!(ExportRequest::parse(&solo.to_line()).expect("parses"), solo);
        // `keep == backends.len()` is the drain form: a leaving backend
        // keeps no slot and hands everything over.
        let drain = ExportRequest { vnodes: 8, keep: 2, backends: vec!["a".into(), "b".into()] };
        assert_eq!(ExportRequest::parse(&drain.to_line()).expect("parses"), drain);
        for line in [
            "export-partition",
            "export-partition vnodes 64",
            "export-partition vnodes 64 keep 0",
            "export-partition vnodes 64 keep 0 backends",
            "export-partition vnodes 0 keep 0 backends a,b", // zero vnodes
            "export-partition vnodes 64 keep 3 backends a,b", // keep beyond the drain slot
            "export-partition vnodes 64 keep 0 backends a,,b", // empty backend
            "export-partition vnodes x keep 0 backends a,b",
            "export-partition vnodes 64 keep 0 backends a,b extra",
            "import-partition",
        ] {
            assert!(ExportRequest::parse(line).is_err(), "{line:?} should not parse");
        }
        let err = ExportRequest::parse("export-partition nope").unwrap_err();
        assert_eq!(err.to_string(), "malformed protocol line: `export-partition nope`");
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for line in [
            "",
            "ok",
            "ok partition",
            "ok partition x",
            "ok partition-restored many",
            "ok source hot cost 1 fingerprint 0 plan 0",
            "ok source hit cost x fingerprint 0 plan 0",
            "ok source hit cost 1 fingerprint zz plan 0",
            "ok source hit cost 1 fingerprint 0 plan 0,x",
            "ok source hit cost 1 fingerprint 0 plan 0 extra",
            "ok source hit cost 1 fingerprint 0 plan 0 tier",
            "ok source hit cost 1 fingerprint 0 plan 0 tier gold",
            "ok source hit cost 1 fingerprint 0 plan 0 tier heur extra",
            "busy retry-after-ms soon",
            "ok stats requests 1 hits 1 probe2 0 warm 0 cold 0 busy 0 hit-rate 1 entries 1",
        ] {
            assert!(Response::parse(line).is_err(), "{line:?} should not parse");
        }
        let err = Response::parse("ok").unwrap_err();
        assert_eq!(err.to_string(), "malformed protocol line: `ok`");
    }
}
