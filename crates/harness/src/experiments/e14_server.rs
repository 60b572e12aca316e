//! E14 — Socket-served soak (extension): the long-lived `dsq-server`
//! daemon serves a drifting btsp-hard stream through a real Unix socket
//! within validation tolerance, restarts warm from a cache snapshot at
//! (almost) its steady-state hit rate, rejects with `busy` instead of
//! stalling when the admission queue is full, and recovers the hit rate
//! lost to boundary-walking parameters via multi-probe lookup.
//!
//! Every claim in that sentence is asserted, not just tabulated.

use crate::runner::{Experiment, ExperimentContext};
use crate::table::{cell_f64, Table};
use dsq_core::{optimize_with, BnbConfig, Quantization};
use dsq_server::{load_aware_retry_ms, Client, ListenAddr, Response, Server, ServerConfig};
use dsq_service::{CacheConfig, CachedPlanner, PlanCache, Planner, ServeSource};
use dsq_workloads::{DriftConfig, DriftStream, Family};
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Registry entry.
pub fn experiment() -> Experiment {
    Experiment {
        id: "e14",
        title: "Plan-serving daemon: socket soak, warm restart, admission (extension)",
        claim: "serving-daemon extension: a long-lived server in front of the plan cache serves drifting federated traffic through a real socket within validation tolerance, persists its cache across restarts, and sheds overload by rejecting instead of stalling",
        run,
    }
}

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dsq-e14-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create e14 temp dir");
    dir
}

fn server_config(snapshot: Option<PathBuf>) -> ServerConfig {
    ServerConfig {
        workers: NonZeroUsize::new(1).expect("non-zero"), // single-core CI
        cache: CacheConfig {
            quantization: Quantization::new(0.2), // E13's serving knobs
            probes: 2,
            ..CacheConfig::default()
        },
        snapshot_path: snapshot,
        snapshot_interval: Duration::from_secs(3600), // final write only
        ..ServerConfig::default()
    }
}

/// Drives `requests` through one client connection, asserting every
/// served plan against the instance's fresh optimum; returns
/// (hits, warm, cold, max deviation, wall seconds, cold-reference secs).
fn drive(
    client: &mut Client,
    requests: &[dsq_core::QueryInstance],
    tolerance: f64,
) -> (u64, u64, u64, f64, f64, f64) {
    let config = BnbConfig::paper();
    let reference_started = Instant::now();
    let reference: Vec<f64> =
        requests.iter().map(|inst| optimize_with(inst, &config).cost()).collect();
    let reference_elapsed = reference_started.elapsed().as_secs_f64();

    let (mut hits, mut warm, mut cold) = (0u64, 0u64, 0u64);
    let mut max_deviation = 0.0f64;
    let started = Instant::now();
    for (inst, &optimal) in requests.iter().zip(&reference) {
        match client.optimize(inst).expect("socket round trip") {
            Response::Served { source, cost, .. } => {
                let deviation = (cost - optimal) / optimal.abs().max(1e-300);
                max_deviation = max_deviation.max(deviation);
                assert!(
                    deviation <= tolerance + 1e-9,
                    "served plan deviates {deviation:.4} > tolerance {tolerance} on {}",
                    inst.name()
                );
                match source {
                    ServeSource::CacheHit => hits += 1,
                    ServeSource::WarmStart => warm += 1,
                    ServeSource::Cold => cold += 1,
                }
            }
            other => panic!("expected a served plan, got {other:?}"),
        }
    }
    (hits, warm, cold, max_deviation, started.elapsed().as_secs_f64(), reference_elapsed)
}

fn soak_and_restart(ctx: &ExperimentContext, dir: &std::path::Path) -> Table {
    let n: usize = ctx.size(12, 9);
    let half: usize = ctx.size(120, 24);
    let snapshot = dir.join("e14-cache.dsqc");
    std::fs::remove_file(&snapshot).ok();
    let config = server_config(Some(snapshot.clone()));
    let tolerance = config.cache.validation_tolerance;

    // One continuous drifting stream; the second half arrives after the
    // restart, so the restarted server faces *more* drifted statistics
    // than the snapshot was taken under.
    let stream: Vec<_> =
        DriftStream::new(DriftConfig::new(Family::BtspHard, n, 23, 2 * half)).collect();

    let mut table = Table::new(
        format!("E14a: btsp-hard drift soak over a Unix socket, n = {n}, {half} requests/phase"),
        ["phase", "requests", "hits", "warm", "cold", "hit rate", "max dev", "req/s", "vs cold"],
    );

    let mut phase_hit_rates = [0.0f64; 2];
    for (phase, label) in ["pre-restart", "warm restart"].iter().enumerate() {
        let server =
            Server::start(&ListenAddr::Unix(dir.join("e14.sock")), &config).expect("server starts");
        if phase == 1 {
            let restored = server.stats().restored_entries;
            assert!(restored > 0, "the restart must restore the snapshot");
        }
        let mut client = Client::connect(server.listen_addr()).expect("client connects");
        let slice = &stream[phase * half..(phase + 1) * half];
        let (hits, warm, cold, max_deviation, wall, reference) =
            drive(&mut client, slice, tolerance);
        let hit_rate = hits as f64 / half as f64;
        phase_hit_rates[phase] = hit_rate;
        table.push_row([
            label.to_string(),
            half.to_string(),
            hits.to_string(),
            warm.to_string(),
            cold.to_string(),
            cell_f64(hit_rate, 3),
            cell_f64(max_deviation, 4),
            cell_f64(half as f64 / wall, 0),
            format!("{:.2}×", reference / wall),
        ]);
        drop(client);
        let stats = server.shutdown();
        assert_eq!(stats.busy_rejections, 0, "a sequential client never overflows the queue");
        assert!(snapshot.exists(), "shutdown writes the snapshot");
    }

    // The headline persistence claim: a restarted process starts at the
    // steady-state hit rate (within 5 points), not cold.
    assert!(
        phase_hit_rates[1] >= phase_hit_rates[0] - 0.05,
        "warm-restart hit rate {} fell more than 5 points below pre-restart {}",
        phase_hit_rates[1],
        phase_hit_rates[0]
    );
    table.push_note(
        "one continuous drifting stream, split across a server restart; the second server restores the first one's final snapshot and must hold the hit rate within 5 points",
    );
    table.push_note(
        "max dev = worst relative gap between a served plan's cost and the instance's fresh optimum (asserted ≤ the 5% validation tolerance); vs cold = client wall-clock speedup over per-request cold optimization in-process",
    );
    std::fs::remove_file(&snapshot).ok();
    table
}

fn admission(ctx: &ExperimentContext, dir: &std::path::Path) -> Table {
    let n: usize = ctx.size(13, 10);
    let burst: usize = 8;
    let config = ServerConfig { queue_capacity: 1, retry_after_ms: 25, ..server_config(None) };
    let server =
        Server::start(&ListenAddr::Unix(dir.join("e14-adm.sock")), &config).expect("server starts");
    let addr = server.listen_addr().clone();

    // Connect everyone first, then release the burst together: with one
    // worker and a one-slot queue at most two requests can be absorbed
    // at any instant, so the burst must overflow.
    let instances: Vec<_> = (0..burst)
        .map(|seed| dsq_workloads::generate(Family::BtspHard, n, 60 + seed as u64))
        .collect();
    let barrier = Barrier::new(burst);
    let responses: Vec<Response> = std::thread::scope(|scope| {
        let handles: Vec<_> = instances
            .iter()
            .map(|instance| {
                let addr = &addr;
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    barrier.wait();
                    client.optimize(instance).expect("busy or served")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("burst thread")).collect()
    });

    let (mut served, mut busy) = (0u64, 0u64);
    for (instance, response) in instances.iter().zip(&responses) {
        match response {
            Response::Served { cost, .. } => {
                let fresh = optimize_with(instance, &BnbConfig::paper());
                assert_eq!(cost.to_bits(), fresh.cost().to_bits(), "admitted ⇒ exact");
                served += 1;
            }
            Response::Busy { retry_after_ms } => {
                // The hint is load-aware: scaled up from the 25 ms base
                // by the queue backlog, never below it, capped at 16×.
                assert!(
                    (25..=load_aware_retry_ms(25, usize::MAX, 1)).contains(retry_after_ms),
                    "hint {retry_after_ms} outside the load-aware envelope"
                );
                busy += 1;
            }
            other => panic!("expected busy or served, got {other:?}"),
        }
    }
    assert!(busy >= 1, "an {burst}-deep burst into a 1-slot queue must be partially rejected");
    assert!(served >= 1, "the worker must keep serving under overload");
    // The accept loop never stalled: the server answers immediately.
    let mut probe = Client::connect(&addr).expect("connect probe");
    assert_eq!(probe.ping().expect("ping"), Response::Pong);
    drop(probe);
    let stats = server.shutdown();
    assert_eq!(stats.busy_rejections, busy);

    let mut table = Table::new(
        format!("E14b: admission under an {burst}-wide simultaneous burst (1 worker, queue 1)"),
        ["burst", "served", "busy", "stalled"],
    );
    table.push_row([
        burst.to_string(),
        served.to_string(),
        busy.to_string(),
        "0 (asserted)".to_string(),
    ]);
    table.push_note(
        "every response is either an exact served plan or an immediate `busy retry-after-ms`; the accept loop stays responsive throughout (post-burst ping asserted)",
    );
    table
}

fn boundary_recovery(ctx: &ExperimentContext) -> Table {
    let n: usize = ctx.size(10, 7);
    let requests: usize = ctx.size(96, 48);
    let resolution = 0.2;
    // 8 bases whose walked parameter alternates across a bucket boundary
    // every occurrence → 16 live primary keys; capacity 15 forces the
    // single-probe cache to evict each key just before its reuse. The
    // 0.05-bucket amplitude keeps the *value* swing (~±0.5%) far inside
    // the validation tolerance: the adversary here is the fingerprint
    // flip, not plan staleness.
    let mut drift = DriftConfig::boundary_walk(Family::BtspHard, n, 31, requests, resolution);
    if let Some(walk) = &mut drift.boundary {
        walk.amplitude = 0.05;
    }
    let stream: Vec<_> = DriftStream::new(drift).collect();

    let mut table = Table::new(
        format!(
            "E14c: boundary-walking drift, n = {n}, {requests} requests over 8 base queries (1 shard × 15 entries)"
        ),
        ["probes", "hits", "probe2", "warm", "cold", "hit rate"],
    );
    let mut hit_rates = [0.0f64; 2];
    for (row, probes) in [1usize, 2].into_iter().enumerate() {
        let cache = PlanCache::new(CacheConfig {
            shards: 1,
            capacity_per_shard: 15,
            quantization: Quantization::new(resolution),
            probes,
            ..CacheConfig::default()
        });
        // Through the Planner seam, like `serve-batch`.
        let planner = CachedPlanner::new(&cache, BnbConfig::paper());
        for inst in &stream {
            planner.plan(inst).expect("local planners are infallible");
        }
        let stats = cache.stats();
        hit_rates[row] = stats.hit_rate();
        table.push_row([
            probes.to_string(),
            stats.hits.to_string(),
            stats.probe2_hits.to_string(),
            stats.warm_starts.to_string(),
            stats.misses.to_string(),
            cell_f64(stats.hit_rate(), 3),
        ]);
    }
    assert!(
        hit_rates[0] < 0.2,
        "single-probe lookup must thrash on the boundary walk, got hit rate {}",
        hit_rates[0]
    );
    assert!(
        hit_rates[1] > 0.75,
        "two-probe lookup must recover the hit rate, got {}",
        hit_rates[1]
    );
    table.push_note(
        "each base query's first cost oscillates across a fingerprint-bucket boundary, flipping the primary key every occurrence; with one probe the 16 live keys thrash the 15-entry cache, with two probes the stable shifted-grid alias answers",
    );
    table
}

fn run(ctx: &ExperimentContext) -> Vec<Table> {
    let dir = temp_dir();
    let tables = vec![soak_and_restart(ctx, &dir), admission(ctx, &dir), boundary_recovery(ctx)];
    std::fs::remove_dir_all(&dir).ok();
    tables
}
