//! E18 — End-to-end telemetry (extension): the log-linear histogram
//! answers quantile queries within its documented relative-error bound
//! and merges losslessly; an open-loop soak against a live daemon
//! completes with zero protocol errors and a bounded p99; and the
//! server's per-stage latency decomposition (parse, queue wait, plan,
//! and flush, read back over the `metrics` wire verb) accounts for the
//! client-observed round-trip time within tolerance — the stages nest
//! inside the RTT, and what they miss is bounded wire-and-wakeup slack.

use crate::runner::{Experiment, ExperimentContext};
use crate::table::{cell_f64, Table};
use dsq_server::{Client, ListenAddr, Response, Server, ServerConfig};
use dsq_service::ServeSource;
use dsq_telemetry::Histogram;
use dsq_workloads::{generate, DriftConfig, DriftStream, Family};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::num::NonZeroUsize;
use std::time::{Duration, Instant};

/// Registry entry.
pub fn experiment() -> Experiment {
    Experiment {
        id: "e18",
        title: "End-to-end telemetry: histogram bounds, stage accounting, open-loop soak (extension)",
        claim: "telemetry extension: the mergeable log-linear histogram reports every probed quantile within its documented relative-error bound and a merge is indistinguishable from recording into one histogram; the server's stage histograms (parse + queue wait + plan + flush) sum to the client-observed mean RTT within a bounded wire-and-wakeup slack; and an open-loop Poisson soak finishes with zero protocol errors and a bounded p99",
        run,
    }
}

fn quick_server() -> ServerConfig {
    ServerConfig {
        workers: NonZeroUsize::new(1).expect("non-zero"), // single-core CI
        poll_interval: Duration::from_millis(2),
        ..ServerConfig::default()
    }
}

/// The exact quantile a histogram estimates: the sample at rank
/// `ceil(p * len)` of the sorted data (1-indexed), the same rank rule
/// the histogram documents.
fn exact_quantile(sorted: &[u64], p: f64) -> u64 {
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// E18a: quantile accuracy on three shapes of data — uniform, a
/// heavy-tailed power mixture, and a point mass — plus the merge
/// identity: recording a stream split across two histograms and merging
/// them yields byte-identical quantiles to recording it into one.
fn accuracy(ctx: &ExperimentContext) -> Table {
    let samples_per_shape: usize = ctx.size(40_000, 8_000);
    let mut rng = StdRng::seed_from_u64(18);
    let shapes: [(&str, Vec<u64>); 3] = [
        (
            "uniform 1..1e6",
            (0..samples_per_shape).map(|_| rng.gen_range(1..1_000_000u64)).collect(),
        ),
        (
            "heavy tail (1.9^k)",
            (0..samples_per_shape).map(|_| 1.9f64.powi(rng.gen_range(0..30)) as u64 + 1).collect(),
        ),
        ("point mass 4096", vec![4096u64; samples_per_shape]),
    ];

    let mut table = Table::new(
        format!("E18a: histogram quantile error vs exact, {samples_per_shape} samples per shape"),
        ["shape", "quantile", "exact", "histogram", "relative error", "bound"],
    );
    let probe = [0.50, 0.90, 0.99, 0.999];
    for (name, samples) in &shapes {
        let whole = Histogram::new();
        let (left, right) = (Histogram::new(), Histogram::new());
        for (i, &v) in samples.iter().enumerate() {
            whole.record(v);
            if i % 2 == 0 { &left } else { &right }.record(v);
        }
        left.merge(&right);
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let bound = whole.relative_error_bound();
        for &p in &probe {
            let exact = exact_quantile(&sorted, p);
            let estimate = whole.quantile(p);
            let error = (estimate as f64 - exact as f64).abs() / exact as f64;
            assert!(
                error <= bound + 1e-12,
                "{name} p{p}: estimate {estimate} vs exact {exact} (error {error:.5} > bound {bound:.5})"
            );
            // The merge identity: the split-and-merged histogram holds
            // the same bucket tallies, so every quantile matches the
            // single-histogram answer exactly, not approximately.
            assert_eq!(
                left.quantile(p),
                estimate,
                "{name} p{p}: merge must be indistinguishable from recording into one histogram"
            );
            table.push_row([
                name.to_string(),
                format!("p{}", (p * 1000.0).round() / 10.0),
                exact.to_string(),
                estimate.to_string(),
                cell_f64(error, 5),
                cell_f64(bound, 5),
            ]);
        }
        assert_eq!((left.count(), left.sum()), (whole.count(), whole.sum()));
    }
    table.push_note(
        "asserted: every probed quantile lands within the histogram's documented relative-error bound (1/grid, 1/64 at the default grid), and merged counts, sums, and quantiles are bit-identical to a single-histogram recording",
    );
    table
}

/// Pulls `count` and `sum` off one `histogram NAME count N sum S ...`
/// line of the `# dsq-metrics v1` exposition document.
fn histogram_stat(exposition: &str, name: &str) -> (u64, u64) {
    let prefix = format!("histogram {name} count ");
    let line = exposition
        .lines()
        .find(|l| l.starts_with(&prefix))
        .unwrap_or_else(|| panic!("no `{name}` histogram in:\n{exposition}"));
    let mut tokens = line.split_whitespace().skip(3);
    let count = tokens.next().and_then(|v| v.parse().ok()).expect("count field");
    assert_eq!(tokens.next(), Some("sum"), "exposition grammar: {line}");
    let sum = tokens.next().and_then(|v| v.parse().ok()).expect("sum field");
    (count, sum)
}

/// E18b: the stage accounting claim. Drive a warm serve loop measuring
/// RTT client-side, read the server's stage histograms back over the
/// `metrics` verb, and check the decomposition: the four stages nest
/// inside every request's RTT (so their per-request mean sum cannot
/// exceed the mean RTT), and the unaccounted remainder — wire transfer
/// plus reactor wakeup — stays within a bounded slack. Hits are
/// answered on the reactor, so only the warm-up misses wait in the
/// queue; the hits add zero queue wait to the per-request means.
fn stage_accounting(ctx: &ExperimentContext) -> Table {
    let n: usize = ctx.size(7, 6);
    let rounds: usize = ctx.size(40, 15);
    let keys: Vec<_> = (0..8u64).map(|s| generate(Family::Clustered, n, 1800 + s)).collect();
    let server = Server::start(&ListenAddr::Tcp("127.0.0.1:0".into()), &quick_server())
        .expect("server starts");
    let mut client = Client::connect(server.listen_addr()).expect("connect");

    // Warm the cache first so the measured loop is the steady state the
    // hot-path overhead budget is written against.
    for key in &keys {
        assert!(matches!(client.optimize(key).expect("warm"), Response::Served { .. }));
    }
    let mut rtt_total = Duration::ZERO;
    let measured = (rounds * keys.len()) as u64;
    for round in 0..rounds {
        for key in &keys {
            let start = Instant::now();
            let response = client.optimize(key).expect("steady serve");
            rtt_total += start.elapsed();
            assert!(
                matches!(
                    response,
                    Response::Served { source: dsq_service::ServeSource::CacheHit, .. }
                ),
                "round {round}: the steady loop must stay on the hit path, got {response:?}"
            );
        }
    }
    let exposition = client.metrics().expect("metrics verb");

    let misses = keys.len() as u64;
    let total = measured + misses; // warmup requests recorded too
    let mut stage_mean_sum = 0.0f64;
    let mut table = Table::new(
        format!("E18b: per-stage decomposition of {measured} cache-hit RTTs, n = {n}"),
        ["stage", "count", "mean us", "share of RTT"],
    );
    let rtt_mean = rtt_total.as_secs_f64() * 1e9 / measured as f64;
    for (stage, passed) in
        [("parse_ns", total), ("queue_wait_ns", misses), ("plan_ns", total), ("flush_ns", total)]
    {
        let (count, sum) = histogram_stat(&exposition, &format!("server.stage.{stage}"));
        assert_eq!(count, passed, "every request must record each stage it passes exactly once");
        let mean = sum as f64 / total as f64;
        stage_mean_sum += mean;
        table.push_row([
            stage.to_string(),
            count.to_string(),
            cell_f64(mean / 1e3, 1),
            cell_f64(mean / rtt_mean, 3),
        ]);
    }
    table.push_row([
        "client RTT".to_string(),
        measured.to_string(),
        cell_f64(rtt_mean / 1e3, 1),
        cell_f64(1.0, 3),
    ]);

    // The nesting bound: each stage interval lies inside its request's
    // RTT window, so the stage means cannot sum past the mean RTT —
    // with a small allowance because the stage means also fold in the
    // slightly slower warmup requests the RTT loop did not time.
    assert!(
        stage_mean_sum <= rtt_mean * 1.10 + 200_000.0,
        "stages nest inside the RTT: stage sum {stage_mean_sum:.0}ns vs mean RTT {rtt_mean:.0}ns"
    );
    // The coverage bound: what the stages miss is wire transfer and the
    // reactor's completion wakeup, bounded slack on loopback — the
    // decomposition must account for the RTT, not a sliver of it.
    let slack = (rtt_mean * 0.5).max(5_000_000.0);
    assert!(
        rtt_mean <= stage_mean_sum + slack,
        "unaccounted RTT too large: mean RTT {rtt_mean:.0}ns vs stage sum {stage_mean_sum:.0}ns"
    );
    let stats = server.shutdown();
    assert_eq!(stats.protocol_errors, 0);
    table.push_note(format!(
        "asserted: each stage recorded exactly once per request that passes it (queue wait: the {misses} warm-up misses only; hits are answered on the reactor), per-request stage means sum to {:.1}us against a {:.1}us mean RTT — inside the nesting bound and covering it within max(50% of RTT, 5ms) wire-and-wakeup slack",
        stage_mean_sum / 1e3,
        rtt_mean / 1e3,
    ));
    table
}

/// E18c's request classes, each soaked on its own thread, connection
/// and Poisson schedule: drifting repeats (cache-friendly), a walk
/// across a quantization bucket edge (cache-adversarial), and the drift
/// stream sent as pipelined bursts.
const SOAK_CLASSES: [&str; 3] = ["drift", "boundary", "pipelined"];

/// Requests per pipelined burst.
const SOAK_BURST: usize = 8;

/// Cumulative Poisson arrival offsets: `requests` exponential
/// inter-arrival gaps at `rate` per second, deterministic in `seed`.
fn poisson_offsets(requests: usize, rate: f64, seed: u64) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut at = 0.0f64;
    (0..requests)
        .map(|_| {
            // Inverse-CDF sampling; 1-u keeps ln away from zero.
            let u: f64 = rng.gen();
            at += -(1.0 - u).ln() / rate;
            Duration::from_secs_f64(at)
        })
        .collect()
}

/// The response breakdown of one soak class.
#[derive(Debug, Default)]
struct Tally {
    sent: u64,
    hits: u64,
    warm: u64,
    cold: u64,
    busy: u64,
    errors: u64,
    /// Replies that are not an answer to an optimize request: a
    /// desynchronized stream, so anything above zero is a server bug.
    protocol_errors: u64,
}

impl Tally {
    fn observe(&mut self, response: &Response) {
        self.sent += 1;
        match response {
            Response::Served { source: ServeSource::CacheHit, .. } => self.hits += 1,
            Response::Served { source: ServeSource::WarmStart, .. } => self.warm += 1,
            Response::Served { source: ServeSource::Cold, .. } => self.cold += 1,
            Response::Busy { .. } => self.busy += 1,
            Response::Error { .. } => self.errors += 1,
            _ => self.protocol_errors += 1,
        }
    }
}

/// Drives soak class `k` against `addr`. Each request is timed from its
/// scheduled (Poisson) send time, so a stalling server shows up as tail
/// latency instead of slowing the generator down. A pipelined burst
/// cannot leave before its last member is due: it goes out at that
/// member's time, and every member is timed from it. Every pipelined
/// latency must cover at least the fastest of 50 pings on the same
/// connection, the regression guard for the burst timing.
fn soak_class(addr: &ListenAddr, k: usize, requests: usize, rate: f64) -> (Histogram, Tally) {
    let class = SOAK_CLASSES[k];
    let seed = 18 ^ (k as u64).rotate_left(29);
    let offsets = poisson_offsets(requests, rate, seed);
    let drift = match class {
        // The resolution matches the server cache's default
        // quantization, so the walk straddles its grid.
        "boundary" => DriftConfig::boundary_walk(Family::Clustered, 6, seed, requests, 0.05),
        _ => DriftConfig::new(Family::Clustered, 6, seed, requests),
    };
    let instances: Vec<_> = DriftStream::new(drift).collect();
    let mut client = Client::connect(addr).expect("connect");
    let pipelined = class == "pipelined";
    let floor = pipelined.then(|| {
        (0..50)
            .map(|_| {
                let sent = Instant::now();
                assert_eq!(client.ping().expect("ping"), Response::Pong);
                sent.elapsed()
            })
            .min()
            .expect("50 pings")
    });
    let burst = if pipelined { SOAK_BURST } else { 1 };
    let (latency, mut tally) = (Histogram::new(), Tally::default());
    let epoch = Instant::now();
    for (members, due) in instances.chunks(burst).zip(offsets.chunks(burst)) {
        let scheduled = epoch + due[due.len() - 1];
        if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let responses = if pipelined {
            client.optimize_pipelined(members).expect("pipelined burst")
        } else {
            vec![client.optimize(&members[0]).expect("optimize")]
        };
        let elapsed = scheduled.elapsed();
        if let Some(floor) = floor {
            assert!(
                elapsed >= floor,
                "{class}: a burst latency {elapsed:?} is below the fastest ping {floor:?}"
            );
        }
        for response in &responses {
            tally.observe(response);
            latency.record_duration(elapsed);
        }
    }
    (latency, tally)
}

/// E18c: a short open-loop soak. Poisson arrivals per request class
/// against a live daemon; the run must complete with zero protocol
/// errors, a fully accounted breakdown, and p99 under a CI-safe bound.
fn soak(ctx: &ExperimentContext) -> Table {
    let requests: usize = ctx.size(240, 80);
    let rate = 400.0;
    let p99_bound = Duration::from_millis(250);
    let server = Server::start(&ListenAddr::Tcp("127.0.0.1:0".into()), &quick_server())
        .expect("server starts");
    let addr = server.listen_addr();
    let classes: Vec<(Histogram, Tally)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SOAK_CLASSES.len())
            .map(|k| scope.spawn(move || soak_class(addr, k, requests, rate)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("soak class thread")).collect()
    });

    let mut table = Table::new(
        format!(
            "E18c: open-loop soak, {rate} req/s Poisson per class, {requests} requests per class"
        ),
        ["class", "sent", "hit", "warm", "cold", "busy", "p50 us", "p99 us", "p999 us"],
    );
    for (class, (latency, tally)) in SOAK_CLASSES.iter().zip(&classes) {
        let (p50, p99, p999) =
            (latency.quantile(0.50), latency.quantile(0.99), latency.quantile(0.999));
        assert_eq!(tally.sent, requests as u64, "open-loop: every scheduled request is sent");
        assert_eq!(
            tally.hits + tally.warm + tally.cold + tally.busy + tally.errors,
            tally.sent,
            "{class}: the breakdown must account for every request"
        );
        assert_eq!(tally.protocol_errors, 0, "{class}: zero protocol errors");
        assert!(p99 > 0, "{class}: a served class has non-zero p99");
        assert!(p50 <= p99 && p99 <= p999, "{class}: quantiles are monotone");
        assert!(
            p99 <= p99_bound.as_nanos() as u64,
            "{class}: p99 {p99}ns breaches the {p99_bound:?} soak bound"
        );
        table.push_row([
            class.to_string(),
            tally.sent.to_string(),
            tally.hits.to_string(),
            tally.warm.to_string(),
            tally.cold.to_string(),
            tally.busy.to_string(),
            cell_f64(p50 as f64 / 1e3, 1),
            cell_f64(p99 as f64 / 1e3, 1),
            cell_f64(p999 as f64 / 1e3, 1),
        ]);
    }
    assert_eq!(classes.len(), SOAK_CLASSES.len(), "all three classes soaked");
    let stats = server.shutdown();
    assert_eq!(stats.protocol_errors, 0, "the server agrees: nothing malformed on the wire");
    table.push_note(
        "asserted: every scheduled request sent and accounted for (hit + warm + cold + busy + error = sent), zero protocol errors on both ends, monotone per-class quantiles, p99 <= 250ms per class, and every pipelined latency at least the fastest of 50 pings on its connection; latency is measured from each request's scheduled (Poisson) send time, so server stalls cannot hide in generator back-pressure",
    );
    table
}

fn run(ctx: &ExperimentContext) -> Vec<Table> {
    vec![accuracy(ctx), stage_accounting(ctx), soak(ctx)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_offsets_are_monotonic_near_rate_and_deterministic() {
        let offsets = poisson_offsets(2_000, 1_000.0, 7);
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]), "offsets grow monotonically");
        // Mean inter-arrival of 2000 draws at 1000/s is 1ms ± a wide
        // tolerance (the variance of an exponential is its mean²).
        let span = offsets.last().unwrap().as_secs_f64();
        assert!((1.4..=2.6).contains(&span), "2000 arrivals at 1000/s span ~2s, got {span:.3}s");
        assert_eq!(offsets, poisson_offsets(2_000, 1_000.0, 7), "deterministic in the seed");
    }
}
