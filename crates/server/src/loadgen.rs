//! An open-loop load generator for the serving daemon: the soak-test
//! counterpart to the one-shot `dsq client` driver.
//!
//! A closed-loop driver (send, wait, send again) hides queueing: when
//! the server slows down, the driver slows its own arrivals and the
//! measured latencies flatter the tail — the classic *coordinated
//! omission* trap. This generator is **open-loop**: each request class
//! draws a Poisson arrival schedule up front (exponential inter-arrival
//! gaps at the configured rate) and every request's latency is measured
//! from its *scheduled* arrival time, so time a request spent waiting
//! behind a stalled connection is charged to the server, not silently
//! dropped.
//!
//! Three request classes model the serving workloads the cache design
//! targets, each on its own connection and schedule:
//!
//! * [`RequestClass::Drift`] — repeated queries whose statistics follow
//!   a mean-reverting walk ([`dsq_workloads::DriftStream`]): the
//!   cache-friendly steady state.
//! * [`RequestClass::Boundary`] — the adversarial boundary-walk stream
//!   (a parameter oscillating across a quantization bucket edge), which
//!   defeats single-probe caching and exercises the two-probe path.
//! * [`RequestClass::Pipelined`] — the drift stream sent as coalesced
//!   pipeline bursts, exercising the reactor's in-order completion and
//!   write-coalescing machinery.
//!
//! Latencies land in per-class [`dsq_telemetry::Histogram`]s; the
//! [`LoadgenReport`] carries p50/p99/p999 plus the serve-source
//! breakdown (hit / warm / cold / busy / error) and renders both a
//! human summary and a machine-readable `dsq-loadgen/v1` JSON document.

use crate::client::Client;
use crate::net::ListenAddr;
use crate::protocol::Response;
use dsq_service::ServeSource;
use dsq_telemetry::Histogram;
use dsq_workloads::{DriftConfig, DriftStream, Family};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::io;
use std::time::{Duration, Instant};

/// A traffic class the generator can drive; see the module docs for
/// what each one models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestClass {
    /// Mean-reverting drifting statistics (cache-friendly).
    Drift,
    /// Boundary-walking parameter (cache-adversarial).
    Boundary,
    /// Drifting statistics sent as pipeline bursts.
    Pipelined,
}

impl RequestClass {
    /// All classes, in report order.
    pub const ALL: [RequestClass; 3] =
        [RequestClass::Drift, RequestClass::Boundary, RequestClass::Pipelined];

    /// The class's wire/CLI name.
    pub fn name(self) -> &'static str {
        match self {
            RequestClass::Drift => "drift",
            RequestClass::Boundary => "boundary",
            RequestClass::Pipelined => "pipelined",
        }
    }

    /// Parses a CLI token (the inverse of [`name`](Self::name)).
    pub fn parse(token: &str) -> Option<RequestClass> {
        RequestClass::ALL.iter().copied().find(|class| class.name() == token)
    }
}

impl fmt::Display for RequestClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Parameters of a load-generation run. Passive struct; fields are
/// public.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenConfig {
    /// Mean arrival rate **per class**, requests per second.
    pub rate: f64,
    /// Requests each class sends.
    pub requests: usize,
    /// Services per generated instance.
    pub n: usize,
    /// Seed for the schedules and instance streams (runs are
    /// deterministic in it up to server timing).
    pub seed: u64,
    /// Classes to drive, each on its own connection and schedule.
    pub classes: Vec<RequestClass>,
    /// Burst size for [`RequestClass::Pipelined`].
    pub pipeline_depth: usize,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            rate: 500.0,
            requests: 1_000,
            n: 7,
            seed: 42,
            classes: RequestClass::ALL.to_vec(),
            pipeline_depth: 8,
        }
    }
}

/// Per-class outcome of a run: latency quantiles (nanoseconds, measured
/// from the scheduled arrival) and the response breakdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassReport {
    /// Which class this row describes.
    pub class: RequestClass,
    /// Requests actually sent.
    pub sent: u64,
    /// `ok source hit` / `ok source probe2` replies.
    pub hits: u64,
    /// `ok source warm` replies.
    pub warm: u64,
    /// `ok source cold` replies (cache misses).
    pub cold: u64,
    /// `busy retry-after-ms` replies (counted, not retried: the
    /// schedule is open-loop).
    pub busy: u64,
    /// `error` replies.
    pub errors: u64,
    /// Replies that desynchronized the protocol (unexpected variant for
    /// an optimize request). Anything above zero is a server bug.
    pub protocol_errors: u64,
    /// Median latency, nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile latency, nanoseconds.
    pub p99_ns: u64,
    /// 99.9th-percentile latency, nanoseconds.
    pub p999_ns: u64,
    /// Mean latency, nanoseconds.
    pub mean_ns: u64,
    /// Worst observed latency, nanoseconds.
    pub max_ns: u64,
}

impl ClassReport {
    fn from_histogram(class: RequestClass, latency: &Histogram, tally: Tally) -> ClassReport {
        ClassReport {
            class,
            sent: tally.sent,
            hits: tally.hits,
            warm: tally.warm,
            cold: tally.cold,
            busy: tally.busy,
            errors: tally.errors,
            protocol_errors: tally.protocol_errors,
            p50_ns: latency.quantile(0.50),
            p99_ns: latency.quantile(0.99),
            p999_ns: latency.quantile(0.999),
            mean_ns: latency.mean().round() as u64,
            max_ns: latency.max(),
        }
    }

    /// One human-readable summary line.
    fn summary_line(&self) -> String {
        format!(
            "{}: {} sent, p50 {} p99 {} p999 {} (hit {} warm {} cold {} busy {} error {} protocol-error {})",
            self.class,
            self.sent,
            format_ns(self.p50_ns),
            format_ns(self.p99_ns),
            format_ns(self.p999_ns),
            self.hits,
            self.warm,
            self.cold,
            self.busy,
            self.errors,
            self.protocol_errors,
        )
    }

    fn json_object(&self) -> String {
        format!(
            concat!(
                "{{\"class\": \"{}\", \"sent\": {}, \"hits\": {}, \"warm\": {}, ",
                "\"cold\": {}, \"busy\": {}, \"errors\": {}, \"protocol_errors\": {}, ",
                "\"p50_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \"mean_ns\": {}, \"max_ns\": {}}}"
            ),
            self.class,
            self.sent,
            self.hits,
            self.warm,
            self.cold,
            self.busy,
            self.errors,
            self.protocol_errors,
            self.p50_ns,
            self.p99_ns,
            self.p999_ns,
            self.mean_ns,
            self.max_ns,
        )
    }
}

/// The outcome of a [`LoadgenConfig::run`]: one [`ClassReport`] per
/// driven class, in [`LoadgenConfig::classes`] order.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenReport {
    /// Per-class results.
    pub classes: Vec<ClassReport>,
    /// Wall-clock span of the whole run.
    pub elapsed: Duration,
    /// The configured per-class arrival rate (for provenance).
    pub rate: f64,
}

impl LoadgenReport {
    /// Requests sent across every class.
    pub fn total_sent(&self) -> u64 {
        self.classes.iter().map(|c| c.sent).sum()
    }

    /// Protocol desyncs across every class (must be zero on a healthy
    /// server; the smoke harness asserts it).
    pub fn total_protocol_errors(&self) -> u64 {
        self.classes.iter().map(|c| c.protocol_errors).sum()
    }

    /// The human-readable multi-line summary the CLI prints.
    pub fn summary(&self) -> String {
        let mut lines: Vec<String> = self.classes.iter().map(ClassReport::summary_line).collect();
        lines.push(format!(
            "total: {} requests in {:.2}s ({} protocol errors)",
            self.total_sent(),
            self.elapsed.as_secs_f64(),
            self.total_protocol_errors(),
        ));
        lines.join("\n")
    }

    /// The machine-readable `dsq-loadgen/v1` document (one JSON object,
    /// pretty enough to diff).
    pub fn to_json(&self) -> String {
        let classes: Vec<String> =
            self.classes.iter().map(|c| format!("    {}", c.json_object())).collect();
        format!(
            "{{\n  \"schema\": \"dsq-loadgen/v1\",\n  \"rate_per_class\": {},\n  \"elapsed_ms\": {},\n  \"classes\": [\n{}\n  ]\n}}",
            self.rate,
            self.elapsed.as_millis(),
            classes.join(",\n"),
        )
    }
}

/// Running response-breakdown counts for one class.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    sent: u64,
    hits: u64,
    warm: u64,
    cold: u64,
    busy: u64,
    errors: u64,
    protocol_errors: u64,
}

impl Tally {
    fn observe(&mut self, response: &Response) {
        match response {
            Response::Served { source, .. } => match source {
                ServeSource::CacheHit => self.hits += 1,
                ServeSource::WarmStart => self.warm += 1,
                ServeSource::Cold => self.cold += 1,
            },
            Response::Busy { .. } => self.busy += 1,
            Response::Error { .. } => self.errors += 1,
            _ => self.protocol_errors += 1,
        }
    }
}

impl LoadgenConfig {
    /// Drives the configured classes against the server at `addr`
    /// concurrently (one thread, connection, and Poisson schedule per
    /// class) and collects the per-class report.
    ///
    /// # Errors
    ///
    /// Connection-level I/O failures (connect, write, read): the
    /// generator measures a *healthy* transport, so a torn connection
    /// aborts the run rather than skewing the tail. Protocol-level
    /// anomalies are **counted**, not returned.
    pub fn run(&self, addr: &ListenAddr) -> io::Result<LoadgenReport> {
        assert!(self.rate.is_finite() && self.rate > 0.0, "loadgen rate must be positive");
        assert!(self.pipeline_depth > 0, "pipeline depth must be at least 1");
        let started = Instant::now();
        let mut results: Vec<(usize, io::Result<ClassReport>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .classes
                .iter()
                .enumerate()
                .map(|(k, &class)| {
                    scope.spawn(move || {
                        let run = self.run_class(addr, class, k as u64);
                        (
                            k,
                            run.map(|(latency, tally)| {
                                ClassReport::from_histogram(class, &latency, tally)
                            }),
                        )
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("loadgen class thread panicked")).collect()
        });
        results.sort_by_key(|(k, _)| *k);
        let classes =
            results.into_iter().map(|(_, r)| r).collect::<io::Result<Vec<ClassReport>>>()?;
        Ok(LoadgenReport { classes, elapsed: started.elapsed(), rate: self.rate })
    }

    /// Drives one class to completion on its own connection, returning
    /// its latency histogram and response breakdown.
    fn run_class(
        &self,
        addr: &ListenAddr,
        class: RequestClass,
        class_index: u64,
    ) -> io::Result<(Histogram, Tally)> {
        let seed = self.seed ^ class_index.rotate_left(29);
        let schedule = poisson_schedule(self.requests, self.rate, seed);
        let stream = self.instance_stream(class, seed);
        let mut client = Client::connect(addr)?;
        let latency = Histogram::new();
        let mut tally = Tally::default();
        let epoch = Instant::now();
        match class {
            RequestClass::Drift | RequestClass::Boundary => {
                for (instance, offset) in stream.zip(schedule) {
                    let scheduled = epoch + offset;
                    sleep_until(scheduled);
                    let response = client.optimize(&instance)?;
                    tally.sent += 1;
                    tally.observe(&response);
                    latency.record_duration(scheduled.elapsed());
                }
            }
            RequestClass::Pipelined => {
                // Bursts of `pipeline_depth` coalesced into one frame;
                // a burst cannot leave before its *last* member has
                // arrived, so it goes out at that member's scheduled
                // slot and every member is timed from that send.
                let instances: Vec<_> = stream.collect();
                let offsets: Vec<_> = schedule.collect();
                for (burst, burst_offsets) in
                    instances.chunks(self.pipeline_depth).zip(offsets.chunks(self.pipeline_depth))
                {
                    let scheduled = epoch + burst_offsets[burst_offsets.len() - 1];
                    sleep_until(scheduled);
                    let responses = client.optimize_pipelined(burst)?;
                    let elapsed = scheduled.elapsed();
                    for response in &responses {
                        tally.sent += 1;
                        tally.observe(response);
                        latency.record_duration(elapsed);
                    }
                }
            }
        }
        Ok((latency, tally))
    }

    /// The instance stream backing `class`.
    fn instance_stream(&self, class: RequestClass, seed: u64) -> DriftStream {
        let config = match class {
            RequestClass::Drift | RequestClass::Pipelined => {
                DriftConfig::new(Family::Clustered, self.n, seed, self.requests)
            }
            // Resolution matches the server cache's default
            // quantization, so the walk actually straddles its grid.
            RequestClass::Boundary => {
                DriftConfig::boundary_walk(Family::Clustered, self.n, seed, self.requests, 0.05)
            }
        };
        DriftStream::new(config)
    }
}

/// Cumulative Poisson arrival offsets: `requests` exponential
/// inter-arrival gaps at `rate` per second, deterministic in `seed`.
fn poisson_schedule(requests: usize, rate: f64, seed: u64) -> impl Iterator<Item = Duration> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut at = 0.0f64;
    (0..requests).map(move |_| {
        // Inverse-CDF sampling; 1-u keeps ln away from zero.
        let u: f64 = rng.gen();
        at += -(1.0 - u).ln() / rate;
        Duration::from_secs_f64(at)
    })
}

/// Sleeps until `deadline` (no-op when already past it — the open-loop
/// schedule never waits for a late request, it just charges the delay).
fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if let Some(wait) = deadline.checked_duration_since(now).filter(|w| !w.is_zero()) {
        std::thread::sleep(wait);
    }
}

/// Nanoseconds to a compact human unit for the summary line.
fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{}us", ns / 1_000)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Server, ServerConfig};

    #[test]
    fn class_names_round_trip() {
        for class in RequestClass::ALL {
            assert_eq!(RequestClass::parse(class.name()), Some(class));
        }
        assert_eq!(RequestClass::parse("bogus"), None);
    }

    #[test]
    fn poisson_schedule_is_monotonic_and_near_rate() {
        let offsets: Vec<Duration> = poisson_schedule(2_000, 1_000.0, 7).collect();
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]), "offsets grow monotonically");
        // Mean inter-arrival of 2000 draws at 1000/s is 1ms ± a wide
        // tolerance (the variance of an exponential is its mean²).
        let span = offsets.last().unwrap().as_secs_f64();
        assert!((1.4..=2.6).contains(&span), "2000 arrivals at 1000/s span ~2s, got {span:.3}s");
        // Deterministic in the seed.
        let again: Vec<Duration> = poisson_schedule(2_000, 1_000.0, 7).collect();
        assert_eq!(offsets, again);
    }

    #[test]
    fn format_ns_picks_sane_units() {
        assert_eq!(format_ns(950), "950ns");
        assert_eq!(format_ns(8_500), "8us");
        assert_eq!(format_ns(2_500_000), "2.5ms");
        assert_eq!(format_ns(3_000_000_000), "3.00s");
    }

    #[test]
    fn report_renders_summary_and_versioned_json() {
        let report = LoadgenReport {
            classes: vec![ClassReport {
                class: RequestClass::Drift,
                sent: 10,
                hits: 6,
                warm: 1,
                cold: 2,
                busy: 1,
                errors: 0,
                protocol_errors: 0,
                p50_ns: 1_000,
                p99_ns: 9_000,
                p999_ns: 20_000,
                mean_ns: 2_000,
                max_ns: 25_000,
            }],
            elapsed: Duration::from_millis(1_500),
            rate: 100.0,
        };
        let summary = report.summary();
        assert!(summary.contains("drift: 10 sent, p50 1us p99 9us p999 20us"), "{summary}");
        assert!(summary.contains("hit 6 warm 1 cold 2 busy 1 error 0"), "{summary}");
        assert!(summary.contains("total: 10 requests"), "{summary}");
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"dsq-loadgen/v1\""), "{json}");
        assert!(json.contains("\"class\": \"drift\""), "{json}");
        assert!(json.contains("\"p999_ns\": 20000"), "{json}");
        assert_eq!(report.total_sent(), 10);
        assert_eq!(report.total_protocol_errors(), 0);
    }

    /// A short end-to-end run against a real in-process server: every
    /// request is answered, the breakdown adds up, and no class ever
    /// desynchronizes the protocol.
    #[test]
    fn short_open_loop_run_accounts_for_every_request() {
        let workers = std::num::NonZeroUsize::new(2).unwrap();
        let server = Server::start(
            &ListenAddr::Tcp("127.0.0.1:0".into()),
            &ServerConfig { workers, ..ServerConfig::default() },
        )
        .expect("server starts");
        let config = LoadgenConfig {
            rate: 2_000.0,
            requests: 60,
            n: 5,
            seed: 9,
            classes: RequestClass::ALL.to_vec(),
            pipeline_depth: 4,
        };
        let report = config.run(server.listen_addr()).expect("run completes");
        assert_eq!(report.classes.len(), 3, "one report per class, in order");
        for (expected, got) in RequestClass::ALL.iter().zip(&report.classes) {
            assert_eq!(*expected, got.class);
            assert_eq!(got.sent, 60, "{}: every request sent", got.class);
            assert_eq!(
                got.hits + got.warm + got.cold + got.busy + got.errors,
                got.sent,
                "{}: breakdown adds up",
                got.class
            );
            assert_eq!(got.protocol_errors, 0, "{}: no desyncs", got.class);
            assert!(got.p50_ns > 0, "{}: latencies were recorded", got.class);
            assert!(got.p50_ns <= got.p99_ns && got.p99_ns <= got.p999_ns);
        }
        server.shutdown();
    }

    /// Regression: a pipelined burst used to go out at its first
    /// member's slot while later members were timed from their own
    /// (later) slots, so their latencies clamped to zero and the class
    /// reported `p50 0ns`. Every pipelined latency now covers at least
    /// one real round trip.
    #[test]
    fn pipelined_latencies_cover_a_round_trip() {
        let server =
            Server::start(&ListenAddr::Tcp("127.0.0.1:0".into()), &ServerConfig::default())
                .expect("server starts");
        let mut client = Client::connect(server.listen_addr()).expect("connect");
        let min_ping = (0..50)
            .map(|_| {
                let sent = Instant::now();
                assert_eq!(client.ping().expect("ping"), Response::Pong);
                sent.elapsed()
            })
            .min()
            .expect("50 pings");
        let config = LoadgenConfig {
            rate: 2_000.0,
            requests: 64,
            n: 5,
            seed: 3,
            classes: vec![RequestClass::Pipelined],
            pipeline_depth: 8,
        };
        let (latency, tally) =
            config.run_class(server.listen_addr(), RequestClass::Pipelined, 0).expect("run");
        assert_eq!(tally.sent, 64);
        assert_eq!(latency.count(), 64);
        assert!(latency.min() > 0, "a pipelined latency read 0ns");
        let p50 = latency.quantile(0.50);
        assert!(
            u128::from(p50) >= min_ping.as_nanos(),
            "pipelined p50 {p50}ns is below the fastest ping {min_ping:?}"
        );
        server.shutdown();
    }
}
