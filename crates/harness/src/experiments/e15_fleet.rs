//! E15 — Fingerprint-sharded fleet (extension): routing requests across
//! two plan-serving daemons by canonical fingerprint partitions the
//! cache keyspace, so a working set that thrashes one server's LRU fits
//! a fleet of two; killing a replica mid-stream fails its partition over
//! to the survivor, and with every backend down the local cold fallback
//! still completes the stream. Every claim is asserted per request, not
//! just tabulated.

use crate::runner::{Experiment, ExperimentContext};
use crate::table::{cell_f64, Table};
use dsq_core::{optimize_with, BnbConfig, Quantization, QueryInstance};
use dsq_server::{ListenAddr, RemotePlanner, Server, ServerConfig};
use dsq_service::{CacheConfig, ColdPlanner, FleetPlanner, Planner, ServeSource};
use dsq_workloads::{DriftConfig, DriftStream, Family};
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};

/// Registry entry.
pub fn experiment() -> Experiment {
    Experiment {
        id: "e15",
        title: "Fingerprint-sharded fleet: cache partitioning, failover, fallback (extension)",
        claim: "fleet extension: sharding requests across plan-serving daemons by canonical fingerprint gives each backend a disjoint, stable keyspace (aggregate cache capacity scales with the fleet), failover completes the stream with correct plans when a replica is killed mid-stream, and a local cold fallback serves when every backend is down",
        run,
    }
}

/// Serving quantization shared by routing and the backend caches (the
/// e13/e14 serving knobs).
const RESOLUTION: f64 = 0.2;

/// Per-backend LRU capacity: deliberately **smaller** than the stream's
/// working set, so one server thrashes while the partitioned fleet fits.
const CAPACITY: usize = 8;

/// Distinct base queries cycled round-robin — the working set.
const WORKING_SET: usize = 12;

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dsq-e15-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create e15 temp dir");
    dir
}

fn server_config() -> ServerConfig {
    ServerConfig {
        workers: NonZeroUsize::new(1).expect("non-zero"), // single-core CI
        cache: CacheConfig {
            shards: 1,
            capacity_per_shard: CAPACITY,
            quantization: Quantization::new(RESOLUTION),
            probes: 1, // the adversary here is capacity, not boundaries
            ..CacheConfig::default()
        },
        ..ServerConfig::default()
    }
}

fn start_server(dir: &Path, tag: &str) -> Server {
    Server::start(&ListenAddr::Unix(dir.join(format!("e15-{tag}.sock"))), &server_config())
        .expect("server starts")
}

fn stream(n: usize, requests: usize) -> Vec<QueryInstance> {
    let config =
        DriftConfig { queries: WORKING_SET, ..DriftConfig::new(Family::BtspHard, n, 29, requests) };
    DriftStream::new(config).collect()
}

/// Drives `requests` through `planner`, asserting every served plan's
/// cost against the fresh optimum; returns (hits, warm, cold, max dev).
fn drive(
    planner: &dyn Planner,
    requests: &[QueryInstance],
    reference: &[f64],
    tolerance: f64,
) -> (u64, u64, u64, f64) {
    let (mut hits, mut warm, mut cold) = (0u64, 0u64, 0u64);
    let mut max_deviation = 0.0f64;
    for (inst, &optimal) in requests.iter().zip(reference) {
        let served = planner.plan(inst).expect("the fleet (or its fallback) always serves");
        let deviation = (served.cost - optimal) / optimal.abs().max(1e-300);
        max_deviation = max_deviation.max(deviation);
        assert!(
            deviation <= tolerance + 1e-9,
            "served plan deviates {deviation:.4} > tolerance {tolerance} on {}",
            inst.name()
        );
        match served.source {
            ServeSource::CacheHit => hits += 1,
            ServeSource::WarmStart => warm += 1,
            ServeSource::Cold => cold += 1,
        }
    }
    (hits, warm, cold, max_deviation)
}

fn fleet_over<'a>(servers: &[&Server], with_fallback: bool) -> FleetPlanner<'a> {
    let backends: Vec<Box<dyn Planner>> = servers
        .iter()
        .map(|s| Box::new(RemotePlanner::new(s.listen_addr().clone())) as Box<dyn Planner>)
        .collect();
    // Fixed ring labels: the default labels embed the pid-scoped socket
    // paths, which would reshuffle the keyspace split every run. Pinning
    // them keeps the 12-key partition (and so every assert below)
    // deterministic.
    let labels: Vec<String> = (0..servers.len()).map(|i| format!("shard-{i}")).collect();
    let fleet = FleetPlanner::new(backends, Quantization::new(RESOLUTION))
        .expect("the experiment always routes over at least one backend")
        .with_ring_labels(&labels);
    if with_fallback {
        fleet.with_fallback(Box::new(ColdPlanner::new(BnbConfig::paper())))
    } else {
        fleet
    }
}

/// E15a: the same drift stream against one server and against a
/// 2-server fleet with identical per-backend caches.
fn partitioning(ctx: &ExperimentContext, dir: &Path) -> Table {
    let n: usize = ctx.size(10, 8);
    let cycles: usize = ctx.size(12, 4);
    let requests = WORKING_SET * cycles;
    let stream = stream(n, requests);
    let tolerance = server_config().cache.validation_tolerance;
    let reference: Vec<f64> =
        stream.iter().map(|inst| optimize_with(inst, &BnbConfig::paper()).cost()).collect();

    let mut table = Table::new(
        format!(
            "E15a: btsp-hard drift, {WORKING_SET} base queries × {cycles} cycles, n = {n}, per-backend LRU capacity {CAPACITY}"
        ),
        ["mode", "requests", "hits", "warm", "cold", "hit rate", "max dev"],
    );

    // Single server: the 12-key round-robin working set cycles through
    // an 8-slot LRU, evicting every key before its reuse.
    let server = start_server(dir, "single");
    let single = fleet_over(&[&server], false);
    let (hits, warm, cold, max_dev) = drive(&single, &stream, &reference, tolerance);
    let single_rate = hits as f64 / requests as f64;
    table.push_row([
        "single server".into(),
        requests.to_string(),
        hits.to_string(),
        warm.to_string(),
        cold.to_string(),
        cell_f64(single_rate, 3),
        cell_f64(max_dev, 4),
    ]);
    server.shutdown();

    // Fleet of two: fingerprint routing splits the 12 keys across the
    // backends, so each partition fits its server's LRU.
    let server_a = start_server(dir, "a");
    let server_b = start_server(dir, "b");
    let fleet = fleet_over(&[&server_a, &server_b], false);
    // Precondition of the claim (asserted, so a workload change cannot
    // silently hollow the experiment): both partitions are non-empty
    // and small enough to fit one backend's cache.
    let mut partition = [0usize; 2];
    for inst in stream.iter().take(WORKING_SET) {
        partition[fleet.route(inst)] += 1;
    }
    assert!(
        partition.iter().all(|&keys| (1..=CAPACITY).contains(&keys)),
        "keyspace split {partition:?} must be non-trivial and fit the {CAPACITY}-slot caches"
    );
    let (hits, warm, cold, max_dev) = drive(&fleet, &stream, &reference, tolerance);
    let fleet_rate = hits as f64 / requests as f64;
    table.push_row([
        "fleet of 2".into(),
        requests.to_string(),
        hits.to_string(),
        warm.to_string(),
        cold.to_string(),
        cell_f64(fleet_rate, 3),
        cell_f64(max_dev, 4),
    ]);
    let fleet_stats = fleet.fleet_stats();
    for (label, server, served) in
        [("a", &server_a, fleet_stats.per_backend[0]), ("b", &server_b, fleet_stats.per_backend[1])]
    {
        let stats = server.stats();
        assert_eq!(stats.busy_rejections, 0, "a sequential client never overflows the queue");
        table.push_row([
            format!("  backend {label}"),
            served.to_string(),
            stats.cache.hits.to_string(),
            stats.cache.warm_starts.to_string(),
            stats.cache.misses.to_string(),
            cell_f64(stats.cache.hit_rate(), 3),
            "-".into(),
        ]);
    }
    server_a.shutdown();
    server_b.shutdown();

    // The headline partitioning claim: the fleet's steady-state hit
    // rate is at least the single server's on the same stream — and
    // since the partitions fit while the whole set does not, decisively
    // above it.
    assert!(
        fleet_rate >= single_rate,
        "fleet hit rate {fleet_rate:.3} fell below the single server's {single_rate:.3}"
    );
    assert!(single_rate < 0.2, "the working set must thrash one server, got {single_rate:.3}");
    assert!(fleet_rate > 0.6, "the partitioned fleet must mostly hit, got {fleet_rate:.3}");
    assert_eq!((fleet_stats.failovers, fleet_stats.fallbacks), (0, 0), "healthy fleet");
    table.push_note(
        "identical drift stream, identical per-backend cache configuration (1 shard × 8 entries, 20% quantization); the only difference is fingerprint routing across two backends",
    );
    table.push_note(
        "max dev = worst relative gap between a served plan's cost and the instance's fresh optimum, asserted ≤ the 5% validation tolerance on every request; fleet ≥ single hit rate asserted",
    );
    table
}

/// E15b: a replica killed mid-stream, then the whole fleet killed — the
/// stream must complete via failover, then via the local cold fallback.
fn failover(ctx: &ExperimentContext, dir: &Path) -> Table {
    let n: usize = ctx.size(10, 8);
    let cycles: usize = ctx.size(6, 2);
    let half = WORKING_SET * cycles;
    let tail: usize = ctx.size(12, 6);
    let stream = stream(n, 2 * half + tail);
    let tolerance = server_config().cache.validation_tolerance;
    let reference: Vec<f64> =
        stream.iter().map(|inst| optimize_with(inst, &BnbConfig::paper()).cost()).collect();

    let server_a = start_server(dir, "fo-a");
    let server_b = start_server(dir, "fo-b");
    let fleet = fleet_over(&[&server_a, &server_b], true);

    let mut table = Table::new(
        format!(
            "E15b: replica kill mid-stream, {} requests over fleet of 2 + cold fallback",
            2 * half + tail
        ),
        ["phase", "requests", "hits", "warm", "cold", "failovers", "fallbacks", "max dev"],
    );
    let mut row = |phase: &str, slice: std::ops::Range<usize>, outcome: (u64, u64, u64, f64)| {
        let stats = fleet.fleet_stats();
        table.push_row([
            phase.to_string(),
            slice.len().to_string(),
            outcome.0.to_string(),
            outcome.1.to_string(),
            outcome.2.to_string(),
            stats.failovers.to_string(),
            stats.fallbacks.to_string(),
            cell_f64(outcome.3, 4),
        ]);
    };

    // Phase 1: both replicas up.
    let outcome = drive(&fleet, &stream[..half], &reference[..half], tolerance);
    assert_eq!(fleet.fleet_stats().failovers, 0, "healthy fleet does not fail over");
    row("both up", 0..half, outcome);

    // Phase 2: kill replica B mid-stream. Its partition must fail over
    // to A — every request still served, still within tolerance.
    let homed_on_b: u64 = stream[half..2 * half].iter().map(|inst| fleet.route(inst) as u64).sum();
    server_b.shutdown();
    let outcome = drive(&fleet, &stream[half..2 * half], &reference[half..2 * half], tolerance);
    let stats = fleet.fleet_stats();
    assert_eq!(
        stats.failovers, homed_on_b,
        "every request homed on the dead replica must fail over, exactly"
    );
    assert!(stats.failovers >= 1, "the killed replica's partition must be non-empty");
    assert_eq!(stats.fallbacks, 0, "the surviving replica absorbs the whole stream");
    row("replica b killed", half..2 * half, outcome);

    // Phase 3: kill the last replica too; the local cold fallback
    // completes the stream.
    server_a.shutdown();
    let outcome = drive(&fleet, &stream[2 * half..], &reference[2 * half..], tolerance);
    let stats = fleet.fleet_stats();
    assert_eq!(stats.fallbacks, tail as u64, "every post-kill request lands on the fallback");
    assert_eq!(outcome.2, tail as u64, "the fallback optimizes cold");
    row("fleet killed", 2 * half..2 * half + tail, outcome);

    table.push_note(
        "the kill is a graceful-drain shutdown of the live process; the fleet's next request to it fails at the transport and is re-routed (failovers/fallbacks are cumulative counters)",
    );
    table.push_note(
        "every request of every phase is asserted within the validation tolerance of its fresh optimum — failover and fallback change where a plan comes from, never whether it is correct",
    );
    table
}

fn run(ctx: &ExperimentContext) -> Vec<Table> {
    let dir = temp_dir();
    let tables = vec![partitioning(ctx, &dir), failover(ctx, &dir)];
    std::fs::remove_dir_all(&dir).ok();
    tables
}
