//! The server's telemetry: per-stage latency histograms over the
//! reactor path and the scrape-time exposition behind the `metrics`
//! protocol verb.
//!
//! Each [`Server`](crate::Server) owns its **own** histograms —
//! co-located daemons (and every test that runs several in-process
//! servers) must never mix latency streams.
//!
//! The request path is split into four measured stages; their means sum
//! to the client-observed round trip (minus wire time), which the
//! harness asserts end to end:
//!
//! ```text
//! client ──▶ parse ──▶ [admission queue] ──▶ plan ──▶ flush ──▶ client
//!            parse_ns   queue_wait_ns        plan_ns   flush_ns
//! ```

use crate::server::ServerStats;
use dsq_telemetry::{render_exposition, Histogram};

/// The four request-stage histograms plus the two shape distributions
/// (pipeline depth, write coalescing).
#[derive(Debug, Default)]
pub(crate) struct ServerMetrics {
    /// `parse_instance` on the reactor thread, per admitted document.
    pub(crate) parse_ns: Histogram,
    /// Admission (`try_send`) to worker dequeue.
    pub(crate) queue_wait_ns: Histogram,
    /// The planner call inside the worker (cache lookup or search).
    pub(crate) plan_ns: Histogram,
    /// Response ready (slot filled) to its bytes fully on the socket.
    pub(crate) flush_ns: Histogram,
    /// Pipeline depth observed at each admission (slots pending).
    pub(crate) pipeline_depth: Histogram,
    /// Responses promoted per write-buffer fill — the coalescing factor.
    pub(crate) coalesced: Histogram,
}

impl ServerMetrics {
    /// Renders the `dsq-metrics v1` exposition for a scrape: the
    /// histograms plus the serving counters, which live in
    /// [`ServerStats`] and are named `server.<group>.<token>` after its
    /// token table.
    pub(crate) fn exposition(&self, stats: &ServerStats) -> String {
        let names: Vec<(String, u64)> = stats
            .token_table()
            .iter()
            .map(|(group, token, value)| (format!("server.{group}.{token}"), *value))
            .collect();
        let counters: Vec<(&str, u64)> =
            names.iter().map(|(name, value)| (name.as_str(), *value)).collect();
        render_exposition(
            &[
                ("server.stage.parse_ns", &self.parse_ns),
                ("server.stage.queue_wait_ns", &self.queue_wait_ns),
                ("server.stage.plan_ns", &self.plan_ns),
                ("server.stage.flush_ns", &self.flush_ns),
                ("server.pipeline.depth", &self.pipeline_depth),
                ("server.flush.coalesced", &self.coalesced),
            ],
            &counters,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsq_telemetry::EXPOSITION_HEADER;

    #[test]
    fn exposition_carries_stages_and_folded_counters() {
        let metrics = ServerMetrics::default();
        metrics.parse_ns.record(1_000);
        metrics.queue_wait_ns.record(2_000);
        let stats = ServerStats { connections: 3, admitted: 2, ..ServerStats::default() };
        let text = metrics.exposition(&stats);
        assert!(text.starts_with(EXPOSITION_HEADER));
        assert!(text.contains("histogram server.stage.parse_ns count 1 "), "{text}");
        assert!(text.contains("counter server.serve.connections 3\n"), "{text}");
        assert!(text.contains("counter server.admission.admitted 2\n"), "{text}");
        assert!(text.contains("counter server.reactor.outstanding 0\n"), "{text}");
        assert!(!text.contains("gauge "), "{text}");
        // Byte-stable: a second scrape of unchanged state is identical.
        assert_eq!(text, metrics.exposition(&stats));
    }

    #[test]
    fn tiered_counters_appear_only_in_tiered_mode() {
        let metrics = ServerMetrics::default();
        let classic = metrics.exposition(&ServerStats::default());
        assert!(!classic.contains("server.tiered."), "{classic}");
        let tiered = ServerStats {
            tiered: Some(dsq_service::TieredStats::default()),
            ..ServerStats::default()
        };
        let text = metrics.exposition(&tiered);
        assert!(text.contains("counter server.tiered.heuristic-served 0\n"), "{text}");
    }
}
