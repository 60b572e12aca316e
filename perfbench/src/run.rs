//! One benchmark run: set the daemon up, measure, check, report.
//!
//! An untraced run (`--trace 0`) measures the end-to-end metrics; a
//! traced run (`--trace 1`) measures one untraced and one traced half
//! window against a single daemon and then replays the traced half's
//! requests through the in-process layers to give the per-layer
//! metrics.

use crate::check::{check, tampering_is_caught, Reply};
use crate::daemon::{cpu_seconds, Daemon};
use crate::load::{closed_loop, open_loop, pings, Clock, Conn, Record, Stop, WindowRun};
use crate::scrape::Scrape;
use crate::stats::{block_quantile, mean, median, quantile, ratio};
use crate::trace::{self_times_by_name, write_tsv, SpanId, Tracer};
use crate::workload::{Inputs, Mode, Workload};
use dsq_core::{format_instance, optimize_with, parse_instance, BnbConfig, CanonicalKey};
use dsq_server::Client;
use dsq_service::{PlanCache, ServeSource};
use std::collections::HashSet;
use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// Where sockets, span files and per-request timings go, relative to
/// the repository root the benchmark runs from. Kept short: a Unix
/// socket path is limited to 107 bytes.
const OUT_DIR: &str = "perfbench/out";

/// Daemons set up per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Consecutive requests per block: latency quantiles are taken per
/// block and the median over blocks is reported. A thousand samples
/// leave ten beyond each block's p99.
const BLOCK: usize = 1000;

/// Pings timed for the transport floor.
const PINGS: usize = 200;

/// Traced requests replayed through the in-process layers, at most.
const REPLAY_MAX: usize = 2000;

/// Generator lag p99 above which a run is flagged as generator-bound.
pub const LAG_P99_BOUND_US: f64 = 50.0;

/// What to run. Passive struct; fields are public.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value summarises.
    pub samples: usize,
}

/// The outcome of a run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Which workload ran.
    pub workload: Workload,
    /// Whether every output check and validity check passed.
    pub correct: bool,
    /// Optimize requests sent to the measured daemon.
    pub attempted: u64,
    /// Of those, requests without a correct plan.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable notes: provenance, flags and failures.
    pub notes: Vec<String>,
}

impl RunReport {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric { name, value, unit, samples });
    }
}

/// A live daemon with its control and load connections.
struct Session {
    daemon: Daemon,
    control: Client,
    conn: Conn,
}

impl Session {
    /// Spawns a daemon and warms its cache up; returns the session, the
    /// warm-up records and the time from spawn to warm.
    fn start(
        binary: &Path,
        socket: &Path,
        inputs: &Inputs,
        clock: &Clock,
    ) -> io::Result<(Session, WindowRun, Duration)> {
        let workload = inputs.workload;
        let begun = Instant::now();
        let daemon = Daemon::spawn(binary, socket, &workload.daemon_flags())?;
        let control = daemon.control()?;
        let mut conn = Conn::connect(socket)?;
        let warm = closed_loop(
            &mut conn,
            inputs,
            0,
            workload.warmup_depth(),
            Stop::Count(inputs.warmup),
            clock,
            &mut Tracer::new(false),
        );
        let setup = begun.elapsed();
        Ok((Session { daemon, control, conn }, warm, setup))
    }

    fn scrape(&mut self) -> io::Result<Scrape> {
        Scrape::parse(&self.control.metrics()?).map_err(io::Error::other)
    }

    fn stop(self) -> io::Result<()> {
        drop(self.conn);
        drop(self.control);
        self.daemon.shutdown()
    }
}

/// Runs one window of the workload's load shape.
fn window(
    session: &mut Session,
    inputs: &Inputs,
    index: usize,
    first_closed: usize,
    clock: &Clock,
    tracer: &mut Tracer,
) -> WindowRun {
    let window = &inputs.windows[index];
    match inputs.workload.mode() {
        Mode::OpenLoop { burst, .. } => {
            open_loop(&mut session.conn, inputs, window, burst, clock, tracer)
        }
        Mode::ClosedLoop { depth } => closed_loop(
            &mut session.conn,
            inputs,
            first_closed,
            depth,
            Stop::After(Duration::from_secs_f64(window.seconds)),
            clock,
            tracer,
        ),
    }
}

fn latencies_us(records: &[Record]) -> Vec<f64> {
    served(records).map(|r| r.latency_ns() as f64 / 1e3).collect()
}

fn served(records: &[Record]) -> impl Iterator<Item = &Record> {
    records.iter().filter(|r| r.reply.source().is_some())
}

/// Generator lag per burst, microseconds.
fn lags_us(records: &[Record]) -> Vec<f64> {
    let mut seen = HashSet::new();
    records
        .iter()
        .filter(|r| r.due_ns.is_some() && seen.insert(r.burst))
        .map(|r| r.lag_ns as f64 / 1e3)
        .collect()
}

/// Share of cold replies whose fingerprint already had a cold reply in
/// the same burst, with the number of cold replies.
fn cold_dup_frac(records: &[Record], open_loop: bool) -> (f64, usize) {
    let mut seen: HashSet<(usize, u64)> = HashSet::new();
    let (mut cold, mut dup) = (0usize, 0usize);
    for r in records {
        if r.reply.source() == Some(ServeSource::Cold) {
            cold += 1;
            let fingerprint = r.reply.fingerprint().unwrap_or(0);
            if open_loop && !seen.insert((r.burst, fingerprint)) {
                dup += 1;
            }
        }
    }
    (ratio(dup as f64, cold as f64), cold)
}

/// Runs the output check over `records` and folds the result into
/// `report`, along with the checker's tamper self-test and the
/// ping-floor validity check.
fn check_into(
    report: &mut RunReport,
    inputs: &Inputs,
    records: &[&Record],
    window: &[Record],
    ping_floor_ns: f64,
) {
    let config = inputs.workload.cache_config();
    let outcomes: Vec<(usize, &Reply)> = records.iter().map(|r| (r.id, &r.reply)).collect();
    let checked = check(&outcomes, |id| inputs.instance(id).into_owned(), &config);
    report.attempted = checked.tally.sent;
    report.failed = checked.tally.failed();
    let t = &checked.tally;
    report.notes.push(format!(
        "replies: sent {} hit {} warm {} cold {} busy {} error {} protocol {} transport {} wrong {} failed_frac {}",
        t.sent,
        t.hits,
        t.warm,
        t.cold,
        t.busy,
        t.errors,
        t.protocol,
        t.transport,
        t.wrong,
        ratio(t.failed() as f64, t.sent as f64)
    ));
    for (id, reason) in &checked.examples {
        report.notes.push(format!("FAILED request {id}: {reason}"));
    }
    if report.failed > 0 {
        report.correct = false;
    }
    match records.iter().find(|r| r.reply.source() == Some(ServeSource::Cold)) {
        Some(sample)
            if tampering_is_caught(&inputs.instance(sample.id), &sample.reply, &config) => {}
        _ => {
            report.correct = false;
            report.notes.push("INVALID: the output check let a tampered reply through".into());
        }
    }
    let floor_us = ping_floor_ns / 1e3;
    let fastest = latencies_us(window).into_iter().fold(f64::INFINITY, f64::min);
    if fastest < floor_us {
        report.correct = false;
        report.notes.push(format!(
            "INVALID: a latency of {fastest:.1} us is below the ping floor of {floor_us:.1} us"
        ));
    }
}

fn flag_lag(report: &mut RunReport, lags: &[f64]) {
    let p99 = quantile(lags, 0.99);
    if p99 > LAG_P99_BOUND_US {
        report.notes.push(format!(
            "FLAG: generator lag p99 {p99:.1} us exceeds {LAG_P99_BOUND_US} us; the generator, not the daemon, set the pace"
        ));
    }
}

/// Runs `options` against the `dsq` binary at `binary`.
///
/// # Errors
///
/// The daemon could not be started, scraped or drained.
pub fn run(options: &Options, binary: &Path) -> io::Result<RunReport> {
    std::fs::create_dir_all(OUT_DIR)?;
    let socket =
        Path::new(OUT_DIR).join(format!("{}.{}.sock", options.workload, std::process::id()));
    let mut report = RunReport {
        workload: options.workload,
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        notes: vec![format!(
            "workload {} seed {} seconds {} trace {} nproc {} git {} daemon `dsq serve --unix {} {}`",
            options.workload,
            options.seed,
            options.seconds,
            u8::from(options.trace),
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            crate::daemon::git_rev(),
            socket.display(),
            options.workload.daemon_flags().join(" "),
        )],
    };
    if options.trace {
        traced(options, binary, &socket, &mut report)?;
    } else {
        untraced(options, binary, &socket, &mut report)?;
    }
    Ok(report)
}

fn untraced(
    options: &Options,
    binary: &Path,
    socket: &Path,
    report: &mut RunReport,
) -> io::Result<()> {
    let inputs = Inputs::new(options.workload, options.seed, &[options.seconds]);
    let clock = Clock::new();
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut live = None;
    for k in 0..SETUP_REPEATS {
        let (session, warm, setup) = Session::start(binary, socket, &inputs, &clock)?;
        setups.push(setup.as_secs_f64());
        if k + 1 < SETUP_REPEATS {
            session.stop()?;
        } else {
            live = Some((session, warm));
        }
    }
    let (mut session, warm) = live.expect("at least one setup");
    let floor = pings(&mut session.control, PINGS, &mut Tracer::new(false))?;
    let pid = session.daemon.pid();
    let cpu0 = cpu_seconds(pid)?;
    let run = window(&mut session, &inputs, 0, inputs.warmup, &clock, &mut Tracer::new(false));
    let cpu1 = cpu_seconds(pid)?;
    let rss = session.daemon.peak_rss_mib()?;
    session.stop()?;

    let latencies = latencies_us(&run.records);
    let served_count = latencies.len();
    report.push("setup_s", median(&setups), "s", setups.len());
    let (p50, blocks) = block_quantile(&latencies, BLOCK, 0.50);
    report.push("latency_p50_us", p50, "us", served_count);
    report.push("throughput_rps", run.throughput(BLOCK).0, "1/s", served_count);
    let sent = run.records.len();
    report.push("server_cpu_us_per_req", ratio((cpu1 - cpu0) * 1e6, sent as f64), "us", sent);
    report.push("rss_peak_mb", rss, "MiB", 1);
    // Printed, not gated: on a virtual machine whose scheduler stalls
    // for milliseconds the tail moves with the host, not the code.
    report.notes.push(format!(
        "latency_p99_us {:.4} us n={served_count} (not in the JSON metrics); latency quantiles \
         are medians over {blocks} blocks of {BLOCK} requests",
        block_quantile(&latencies, BLOCK, 0.99).0
    ));
    let lags = lags_us(&run.records);
    flag_lag(report, &lags);
    report.notes.push(format!(
        "ping floor {:.1} us, generator lag p50 {:.2} us p99 {:.2} us over {} sends",
        quantile(&floor, 0.0) / 1e3,
        quantile(&lags, 0.5),
        quantile(&lags, 0.99),
        lags.len()
    ));
    // One file per workload, overwritten by the next run, so that many
    // runs do not pile up timings on disk.
    let requests_path = Path::new(OUT_DIR).join(format!("requests-{}.tsv", options.workload));
    write_records(&run.records, &requests_path)?;
    report.notes.push(format!("per-request timings written to {}", requests_path.display()));
    let all: Vec<&Record> = warm.records.iter().chain(&run.records).collect();
    check_into(report, &inputs, &all, &run.records, quantile(&floor, 0.0));
    Ok(())
}

/// Writes one line per request: id, burst, due, start, sent and done
/// times in nanoseconds (due `-` in a closed loop) and the serve source.
fn write_records(records: &[Record], path: &Path) -> io::Result<()> {
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tburst\tdue_ns\tstart_ns\tsent_ns\tdone_ns\tsource")?;
    for r in records {
        let due = r.due_ns.map_or("-".to_string(), |d| d.to_string());
        let source = r.reply.source().map_or("failed", ServeSource::name);
        writeln!(
            out,
            "{}\t{}\t{due}\t{}\t{}\t{}\t{source}",
            r.id, r.burst, r.start_ns, r.sent_ns, r.done_ns
        )?;
    }
    out.flush()
}

fn traced(
    options: &Options,
    binary: &Path,
    socket: &Path,
    report: &mut RunReport,
) -> io::Result<()> {
    let half = options.seconds / 2.0;
    let inputs = Inputs::new(options.workload, options.seed, &[half, half]);
    let clock = Clock::new();
    let (mut session, warm, _) = Session::start(binary, socket, &inputs, &clock)?;
    let floor = pings(&mut session.control, PINGS, &mut Tracer::new(false))?;

    // Untraced half: latency baseline, server stage means, cache deltas.
    let before = session.scrape()?;
    let plain = window(&mut session, &inputs, 0, inputs.warmup, &clock, &mut Tracer::new(false));
    let after = session.scrape()?;

    // Traced half, then timed pings, against the same daemon.
    let mut tracer = Tracer::new(true);
    let traced = window(&mut session, &inputs, 1, plain.next_id, &clock, &mut tracer);
    let ping_spans_from = tracer.spans().len();
    pings(&mut session.control, PINGS, &mut tracer)?;
    let ping_rtts: Vec<f64> =
        tracer.spans()[ping_spans_from..].iter().map(|s| s.duration_ns() as f64).collect();
    session.stop()?;

    let nodes = replay(&inputs, &warm.records, &traced.records, &mut tracer);
    let by_name = self_times_by_name(tracer.spans());
    let span_mean_us =
        |name: &str| by_name.get(name).map_or((0.0, 0), |v| (mean(v) / 1e3, v.len()));

    let push_span = |report: &mut RunReport, metric: &'static str, span: &str| {
        let (value, samples) = span_mean_us(span);
        report.push(metric, value, "us", samples);
    };
    push_span(report, "client.encode_us", "client.encode");
    push_span(report, "client.decode_us", "client.decode");
    report.push("event_loop.ping_rtt_us", median(&ping_rtts) / 1e3, "us", ping_rtts.len());
    push_span(report, "io.parse_us", "io.parse");
    push_span(report, "canonical.key_us", "canonical.key");
    push_span(report, "cache.serve_hit_us", "cache.serve_hit");
    push_span(report, "cache.serve_miss_us", "cache.serve_miss");
    let (search_us, searches) = span_mean_us("bnb.search");
    report.push("bnb.search_us", search_us, "us", searches);
    let total_nodes: u64 = nodes.iter().sum();
    report.push(
        "bnb.nodes_per_search",
        ratio(total_nodes as f64, nodes.len() as f64),
        "count",
        nodes.len(),
    );
    report.push(
        "bnb.ns_per_node",
        ratio(search_us * 1e3 * searches as f64, total_nodes as f64),
        "ns",
        searches,
    );

    let requests = after.counter_delta(&before, "server.serve.requests");
    let per_request = |name: &str| ratio(after.counter_delta(&before, name), requests);
    let samples = requests as usize;
    report.push("cache.hit_ratio", per_request("server.serve.hits"), "ratio", samples);
    report.push("cache.warm_ratio", per_request("server.serve.warm-starts"), "ratio", samples);
    report.push("cache.evictions_per_req", per_request("server.cache.evictions"), "count", samples);
    let open = matches!(inputs.workload.mode(), Mode::OpenLoop { .. });
    let (dup, colds) = cold_dup_frac(&plain.records, open);
    report.push("cache.cold_dup_frac", dup, "ratio", colds);

    let mut stage_sum_us = 0.0;
    for (metric, histogram) in [
        ("server.stage.parse_us", "server.stage.parse_ns"),
        ("server.stage.queue_wait_us", "server.stage.queue_wait_ns"),
        ("server.stage.plan_us", "server.stage.plan_ns"),
        ("server.stage.flush_us", "server.stage.flush_ns"),
    ] {
        let (mean_ns, count) = after.mean_since(&before, histogram);
        stage_sum_us += mean_ns / 1e3;
        report.push(metric, mean_ns / 1e3, "us", count as usize);
    }
    let (depth, depth_n) = after.mean_since(&before, "server.pipeline.depth");
    report.push("server.pipeline_depth_mean", depth, "count", depth_n as usize);
    let (coalesced, coalesced_n) = after.mean_since(&before, "server.flush.coalesced");
    report.push("server.coalesced_mean", coalesced, "count", coalesced_n as usize);
    let sent = plain.records.len() as f64;
    report.push(
        "server.busy_frac",
        ratio(after.counter_delta(&before, "server.admission.busy-rejections"), sent),
        "ratio",
        plain.records.len(),
    );
    let rtts: Vec<f64> = served(&plain.records).map(|r| r.rtt_ns() as f64 / 1e3).collect();
    report.push(
        "server.unattributed_frac",
        1.0 - ratio(stage_sum_us, mean(&rtts)),
        "ratio",
        rtts.len(),
    );

    let lags = lags_us(&plain.records);
    flag_lag(report, &lags);
    report.push("loadgen.lag_p50_us", quantile(&lags, 0.5), "us", lags.len());
    report.push("loadgen.lag_p99_us", quantile(&lags, 0.99), "us", lags.len());
    let untraced_p50 = block_quantile(&latencies_us(&plain.records), BLOCK, 0.5).0;
    let traced_p50 = block_quantile(&latencies_us(&traced.records), BLOCK, 0.5).0;
    report.push(
        "trace.overhead_frac",
        ratio(traced_p50 - untraced_p50, untraced_p50),
        "ratio",
        traced.records.len(),
    );

    let spans_path = Path::new(OUT_DIR).join(format!("trace-{}.tsv", options.workload));
    let mut file = io::BufWriter::new(std::fs::File::create(&spans_path)?);
    write_tsv(tracer.spans(), &mut file)?;
    io::Write::flush(&mut file)?;
    report.notes.push(format!(
        "{} spans written to {}",
        tracer.spans().len(),
        spans_path.display()
    ));

    let all: Vec<&Record> =
        warm.records.iter().chain(&plain.records).chain(&traced.records).collect();
    let window_records: Vec<Record> =
        plain.records.iter().chain(&traced.records).cloned().collect();
    check_into(report, &inputs, &all, &window_records, quantile(&floor, 0.0));
    Ok(())
}

/// Replays the traced requests through the in-process layers under
/// `replay` root spans: `parse_instance`, `CanonicalKey` plus
/// fingerprint, `PlanCache::serve` on a mirror cache built with the
/// daemon's cache configuration and warmed with the same requests, and
/// `optimize_with`. Returns the nodes each search visited.
fn replay(inputs: &Inputs, warm: &[Record], traced: &[Record], tracer: &mut Tracer) -> Vec<u64> {
    let config = inputs.workload.cache_config();
    let bnb = BnbConfig::paper();
    let mirror = PlanCache::new(config.clone());
    for record in warm {
        mirror.serve(&inputs.instance(record.id), &bnb);
    }
    let mut nodes = Vec::new();
    for record in traced.iter().take(REPLAY_MAX) {
        let text = format_instance(&inputs.instance(record.id));
        let request = record.id as u64;
        let root = tracer.open("replay", request, SpanId::NONE);
        let parsed = tracer
            .within("io.parse", request, root, || parse_instance(&text))
            .expect("generated instances parse");
        tracer.within("canonical.key", request, root, || {
            std::hint::black_box(CanonicalKey::new(&parsed, &config.quantization).fingerprint())
        });
        let serve = tracer.open("cache.serve", request, root);
        let served = mirror.serve(&parsed, &bnb);
        let name = if served.source == ServeSource::CacheHit {
            "cache.serve_hit"
        } else {
            "cache.serve_miss"
        };
        tracer.close_as(serve, name);
        let result = tracer.within("bnb.search", request, root, || optimize_with(&parsed, &bnb));
        nodes.push(result.stats().nodes_visited);
        tracer.close(root);
    }
    nodes
}
