//! E17 — Resilient fleet (extension): growing a plan-serving fleet with
//! a warm partition handoff keeps previously cached keys hitting without
//! recomputation (consistent hashing moves only the new backend's arc,
//! not the whole keyspace); a flapping backend is ejected by its circuit
//! breaker and readmitted by a successful half-open probe with exact
//! counter accounting; and a fault-injecting server never widens the
//! failure surface beyond typed errors — zero panics, zero protocol
//! errors, every request still served through the fallback.

use crate::runner::{Experiment, ExperimentContext};
use crate::table::{cell_f64, Table};
use dsq_core::{optimize_with, BnbConfig, PlanSnapshot, Quantization, QueryInstance};
use dsq_server::{
    Client, ExportRequest, FaultProfile, ListenAddr, RemotePlanner, Server, ServerConfig,
};
use dsq_service::{
    BreakerConfig, BreakerState, CacheConfig, ColdPlanner, FleetPlanner, HashRing, PlanError,
    Planner, ServeSource, ServedPlan, DEFAULT_VNODES,
};
use dsq_workloads::{generate, DriftConfig, DriftStream, Family};
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Registry entry.
pub fn experiment() -> Experiment {
    Experiment {
        id: "e17",
        title: "Resilient fleet: warm resize handoff, circuit breaking, chaos (extension)",
        claim: "resilience extension: growing the fleet with a consistent-hash partition handoff keeps every previously cached key serving as a warm hit (no recomputation, bit-identical costs), a flapping backend trips its circuit breaker and is readmitted by one successful half-open probe with exact counter accounting, and under injected response-frame faults the failure surface stays typed — no panic, zero protocol errors, every request served",
        run,
    }
}

/// Serving quantization shared by routing and the backend caches.
const RESOLUTION: f64 = 0.2;

/// Fixed working set of the grow scenario — large enough that the
/// three-way ring split leaves every backend a non-empty partition.
const GROW_SET: usize = 20;

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dsq-e17-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create e17 temp dir");
    dir
}

fn server_config() -> ServerConfig {
    ServerConfig {
        workers: NonZeroUsize::new(1).expect("non-zero"), // single-core CI
        cache: CacheConfig {
            shards: 1,
            capacity_per_shard: 2 * GROW_SET, // retention, not eviction, is under test
            quantization: Quantization::new(RESOLUTION),
            probes: 1,
            ..CacheConfig::default()
        },
        ..ServerConfig::default()
    }
}

fn start_server(dir: &Path, tag: &str, chaos: Option<FaultProfile>) -> Server {
    let config = ServerConfig { chaos, ..server_config() };
    Server::start(&ListenAddr::Unix(dir.join(format!("e17-{tag}.sock"))), &config)
        .expect("server starts")
}

/// Fixed ring labels, one per backend: the default labels embed the
/// pid-scoped socket paths, which would reshuffle the keyspace split
/// every run. Pinned labels make the grow's moved-key set (and so every
/// assert below) deterministic.
fn ring_labels(count: usize) -> Vec<String> {
    (0..count).map(|i| format!("node-{i}")).collect()
}

fn fleet_over<'a>(servers: &[&Server], with_fallback: bool) -> FleetPlanner<'a> {
    let backends: Vec<Box<dyn Planner>> = servers
        .iter()
        .map(|s| Box::new(RemotePlanner::new(s.listen_addr().clone())) as Box<dyn Planner>)
        .collect();
    let fleet = FleetPlanner::new(backends, Quantization::new(RESOLUTION))
        .expect("the experiment always routes over at least one backend")
        .with_ring_labels(&ring_labels(servers.len()));
    if with_fallback {
        fleet.with_fallback(Box::new(ColdPlanner::new(BnbConfig::paper())))
    } else {
        fleet
    }
}

/// Serves every key once, asserting each plan within `tolerance` of its
/// fresh optimum; returns the served outcomes plus a hit count.
fn cycle(
    planner: &dyn Planner,
    keys: &[QueryInstance],
    reference: &[f64],
    tolerance: f64,
) -> (Vec<ServedPlan>, u64) {
    let mut hits = 0u64;
    let served: Vec<ServedPlan> = keys
        .iter()
        .zip(reference)
        .map(|(inst, &optimal)| {
            let served = planner.plan(inst).expect("the fleet always serves");
            let deviation = (served.cost - optimal) / optimal.abs().max(1e-300);
            assert!(
                deviation <= tolerance + 1e-9,
                "served plan deviates {deviation:.4} > tolerance {tolerance} on {}",
                inst.name()
            );
            hits += u64::from(served.source == ServeSource::CacheHit);
            served
        })
        .collect();
    (served, hits)
}

/// E17a: grow a warm 2-backend fleet to 3 via `export-partition` /
/// `import-partition`. Every previously cached key must keep hitting —
/// same cost bits, no recomputation anywhere — because the handoff moved
/// exactly the arc the new backend now owns.
fn growth(ctx: &ExperimentContext, dir: &Path) -> Table {
    let n: usize = ctx.size(9, 7);
    let keys: Vec<QueryInstance> =
        (0..GROW_SET as u64).map(|i| generate(Family::Clustered, n, 500 + i)).collect();
    let reference: Vec<f64> =
        keys.iter().map(|inst| optimize_with(inst, &BnbConfig::paper()).cost()).collect();
    let tolerance = server_config().cache.validation_tolerance;

    let mut table = Table::new(
        format!("E17a: 2 → 3 fleet grow with warm partition handoff, {GROW_SET} keys, n = {n}"),
        ["phase", "requests", "hits", "cold", "hit rate", "moved keys"],
    );
    let mut row = |phase: &str, hits: u64, moved: String| {
        table.push_row([
            phase.to_string(),
            GROW_SET.to_string(),
            hits.to_string(),
            (GROW_SET as u64 - hits).to_string(),
            cell_f64(hits as f64 / GROW_SET as f64, 3),
            moved,
        ]);
    };

    let server_a = start_server(dir, "grow-a", None);
    let server_b = start_server(dir, "grow-b", None);
    let fleet2 = fleet_over(&[&server_a, &server_b], false);
    let (cold_served, cold_hits) = cycle(&fleet2, &keys, &reference, tolerance);
    assert_eq!(cold_hits, 0, "the first cycle is all cold");
    row("cold fill (fleet of 2)", cold_hits, "-".into());
    let (_, warm_hits) = cycle(&fleet2, &keys, &reference, tolerance);
    let pre_rate = warm_hits as f64 / GROW_SET as f64;
    assert_eq!(warm_hits as usize, GROW_SET, "a fixed working set hits fully once cached");
    let stats2 = fleet2.fleet_stats();
    assert_eq!((stats2.failovers, stats2.fallbacks), (0, 0), "healthy fleet");
    row("steady (fleet of 2)", warm_hits, "-".into());

    // Grow: announce the 3-backend layout to both incumbents and move
    // every entry the new ring re-homes. The export's ring labels must
    // be the same labels the clients route over, or the handoff would
    // park keys on arcs no client routes to.
    let server_c = start_server(dir, "grow-c", None);
    let servers = [&server_a, &server_b, &server_c];
    let labels = ring_labels(servers.len());
    let ring = HashRing::new(&labels);
    let mut moved_total = 0u64;
    for donor in 0..2usize {
        let mut client = Client::connect(servers[donor].listen_addr()).expect("connect donor");
        let request =
            ExportRequest { vnodes: DEFAULT_VNODES, keep: donor, backends: labels.clone() };
        let partition = client.export_partition(&request).expect("export partition");
        for inheritor in (0..servers.len()).filter(|&i| i != donor) {
            let entries: Vec<_> = partition
                .entries
                .iter()
                .filter(|e| ring.route(e.fingerprint) == inheritor)
                .cloned()
                .collect();
            if entries.is_empty() {
                continue;
            }
            // Growing the ring only reassigns arcs to the new vnodes, so
            // an entry that left its old home can only land on c.
            assert_eq!(
                inheritor, 2,
                "a grow-only resize moves keys exclusively onto the new backend"
            );
            let snapshot = PlanSnapshot { resolution: partition.resolution, entries };
            let mut receiver =
                Client::connect(servers[inheritor].listen_addr()).expect("connect inheritor");
            moved_total += receiver.import_partition(&snapshot).expect("import partition");
        }
    }

    let fleet3 = fleet_over(&servers, false);
    let owned_by_c = keys.iter().filter(|inst| fleet3.route(inst) == 2).count();
    // Precondition of the claim (asserted so a constant change cannot
    // hollow the experiment): the new backend owns a non-trivial slice.
    assert!(
        (1..GROW_SET).contains(&owned_by_c),
        "the new backend must own part (not all) of the {GROW_SET} keys, got {owned_by_c}"
    );
    assert_eq!(
        moved_total as usize, owned_by_c,
        "the handoff moves exactly the keys the new backend now owns"
    );

    let (post_served, post_hits) = cycle(&fleet3, &keys, &reference, tolerance);
    let post_rate = post_hits as f64 / GROW_SET as f64;
    // The acceptance bars: at least half the previously cached keys
    // still hit, and the hit rate is back within 5 points of the
    // pre-grow steady state within one cycle. With a warm handoff both
    // hold with room to spare — every key stays warm.
    assert!(
        post_hits as usize * 2 >= GROW_SET,
        "at least half the previously cached keys must survive the grow, got {post_hits}/{GROW_SET}"
    );
    assert!(
        post_rate >= pre_rate - 0.05,
        "hit rate must recover within 5 points in one cycle: {post_rate:.3} vs {pre_rate:.3}"
    );
    assert_eq!(post_hits as usize, GROW_SET, "a warm handoff keeps every key hitting");
    for (first, after) in cold_served.iter().zip(&post_served) {
        assert_eq!(
            after.cost.to_bits(),
            first.cost.to_bits(),
            "a handed-over key must serve the identical plan cost"
        );
    }
    let c_stats = server_c.stats();
    assert_eq!(c_stats.cache.misses, 0, "the new backend never recomputed a moved key");
    assert_eq!(c_stats.cache.hits as usize, owned_by_c, "c answered exactly its partition");
    let stats3 = fleet3.fleet_stats();
    assert_eq!(stats3.per_backend[2] as usize, owned_by_c, "routing agrees with the handoff ring");
    assert_eq!((stats3.failovers, stats3.fallbacks), (0, 0), "the grown fleet is healthy");
    row("first cycle after grow (fleet of 3)", post_hits, moved_total.to_string());

    // Contrast: modulo routing would have re-homed roughly 2/3 of the
    // keyspace on the same resize.
    let modulo_moved =
        post_served.iter().filter(|s| s.fingerprint % 2 != s.fingerprint % 3).count();
    server_a.shutdown();
    server_b.shutdown();
    server_c.shutdown();
    table.push_note(format!(
        "consistent hashing moved {moved_total} of {GROW_SET} keys (the new backend's arc); `fingerprint % N` routing would have re-homed {modulo_moved} of {GROW_SET} on the same 2 → 3 resize"
    ));
    table.push_note(
        "asserted: the handoff moves exactly the keys the new owner's ring arcs cover, every pre-grow key still serves as a cache hit with bit-identical cost, and the new backend records zero misses — nothing was recomputed",
    );
    table
}

/// A backend whose failures are a switch: `down` makes every request
/// fail with a typed transport error, exactly like an unplugged daemon,
/// without the nondeterminism of real sockets.
struct FlakyBackend {
    name: String,
    cold: ColdPlanner,
    down: Arc<AtomicBool>,
}

impl Planner for FlakyBackend {
    fn name(&self) -> &str {
        &self.name
    }

    fn plan(&self, instance: &QueryInstance) -> Result<ServedPlan, PlanError> {
        if self.down.load(Ordering::SeqCst) {
            return Err(PlanError::Transport(format!("{}: injected outage", self.name)));
        }
        self.cold.plan(instance)
    }
}

/// E17b: a flapping backend against the fleet's circuit breaker, with
/// exact counter accounting — threshold failures trip it, the cooldown
/// rejects without a connect attempt, one successful half-open probe
/// readmits it, and with every circuit open the fleet still fails typed.
fn breaker(ctx: &ExperimentContext) -> Table {
    let n: usize = ctx.size(8, 6);
    let config = BreakerConfig { failure_threshold: 2, cooldown_requests: 4 };
    let switches: Vec<Arc<AtomicBool>> = (0..3).map(|_| Arc::new(AtomicBool::new(false))).collect();
    let backends: Vec<Box<dyn Planner>> = switches
        .iter()
        .enumerate()
        .map(|(i, down)| {
            Box::new(FlakyBackend {
                name: format!("flaky-{i}"),
                cold: ColdPlanner::new(BnbConfig::paper()),
                down: Arc::clone(down),
            }) as Box<dyn Planner>
        })
        .collect();
    let fleet = FleetPlanner::new(backends, Quantization::new(RESOLUTION))
        .expect("three backends")
        .with_breaker(config);
    let key = generate(Family::Clustered, n, 900);
    let optimal = optimize_with(&key, &BnbConfig::paper()).cost();
    let home = fleet.route(&key);

    let mut table = Table::new(
        format!(
            "E17b: circuit breaker on a flapping backend (threshold {}, cooldown {} checks)",
            config.failure_threshold, config.cooldown_requests
        ),
        ["phase", "requests", "failovers", "trips", "rejected", "probes", "readmissions", "state"],
    );
    let serve_ok = |times: usize| {
        for _ in 0..times {
            let served = fleet.plan(&key).expect("a healthy replica or failover serves");
            assert_eq!(served.cost.to_bits(), optimal.to_bits(), "cold plans are exact");
        }
    };
    let mut row = |fleet: &FleetPlanner, phase: &str, requests: usize| {
        let stats = fleet.breaker_stats()[home];
        table.push_row([
            phase.to_string(),
            requests.to_string(),
            fleet.fleet_stats().failovers.to_string(),
            stats.trips.to_string(),
            stats.rejected.to_string(),
            stats.probes.to_string(),
            stats.readmissions.to_string(),
            fleet.breaker_states()[home].to_string(),
        ]);
    };

    // Healthy: the home backend serves, its breaker stays closed.
    serve_ok(1);
    assert_eq!(fleet.fleet_stats().per_backend[home], 1);
    assert_eq!(fleet.breaker_stats()[home], Default::default());
    row(&fleet, "healthy", 1);

    // Outage: exactly `failure_threshold` failures trip the circuit;
    // every request is still served by failover.
    switches[home].store(true, Ordering::SeqCst);
    serve_ok(config.failure_threshold as usize);
    assert_eq!(fleet.breaker_states()[home], BreakerState::Open, "threshold failures trip");
    assert_eq!(fleet.breaker_stats()[home].trips, 1);
    assert_eq!(fleet.fleet_stats().failovers, u64::from(config.failure_threshold));
    row(&fleet, "outage", config.failure_threshold as usize);

    // Recovery, cooldown window: the backend is back up, but the open
    // circuit rejects it without a connect attempt until the cooldown
    // elapses — `cooldown_requests - 1` rejections, then the next
    // eligibility check is the probe.
    switches[home].store(false, Ordering::SeqCst);
    let cooldown = config.cooldown_requests as usize - 1;
    serve_ok(cooldown);
    assert_eq!(fleet.breaker_states()[home], BreakerState::Open, "still cooling down");
    assert_eq!(fleet.breaker_stats()[home].rejected, cooldown as u64);
    row(&fleet, "cooling down", cooldown);

    // The probe: one request is admitted half-open, succeeds, and
    // readmits the backend — served by its home again.
    let before = fleet.fleet_stats().per_backend[home];
    serve_ok(1);
    let stats = fleet.breaker_stats()[home];
    assert_eq!(
        (stats.probes, stats.readmissions),
        (1, 1),
        "one successful half-open probe readmits the backend"
    );
    assert_eq!(fleet.breaker_states()[home], BreakerState::Closed);
    assert_eq!(fleet.fleet_stats().per_backend[home], before + 1, "home serves again");
    row(&fleet, "half-open probe", 1);

    // Total outage: with every backend down and no fallback, each walk
    // fails typed; once every circuit trips the fleet reports the
    // all-ejected error — an error, never a panic.
    for switch in &switches {
        switch.store(true, Ordering::SeqCst);
    }
    for _ in 0..config.failure_threshold {
        match fleet.plan(&key) {
            Err(PlanError::Transport(_)) => {}
            other => panic!("expected a typed transport error, got {other:?}"),
        }
    }
    match fleet.plan(&key) {
        Err(PlanError::Backend(message)) => {
            assert_eq!(message, "every backend is ejected by its circuit breaker");
        }
        other => panic!("expected the all-ejected error, got {other:?}"),
    }
    assert!(fleet.breaker_states().iter().all(|s| *s != BreakerState::Closed));
    row(&fleet, "every backend down", config.failure_threshold as usize + 1);

    table.push_note(
        "every counter is asserted exactly: trips = 1 after threshold consecutive failures, cooldown - 1 rejections without a connect attempt, one probe, one readmission, and the home backend serving again immediately after",
    );
    table.push_note(
        "with all circuits open and no fallback the fleet returns the typed all-ejected backend error — the failure surface never widens to a panic",
    );
    table
}

/// E17c: a daemon injecting drop/delay/truncate faults into its own
/// response frames, driven through a fleet with a cold fallback. Every
/// request is served, every fault surfaces as a typed error absorbed by
/// failover/fallback, and the server's request parsing stays pristine.
fn chaos(ctx: &ExperimentContext, dir: &Path) -> Table {
    let n: usize = ctx.size(7, 6);
    let requests: usize = ctx.size(64, 40);
    let chaos_seed = 11u64;
    let stream: Vec<QueryInstance> = DriftStream::new(DriftConfig {
        queries: 8,
        ..DriftConfig::new(Family::Euclidean, n, 53, requests)
    })
    .collect();
    let reference: Vec<f64> =
        stream.iter().map(|inst| optimize_with(inst, &BnbConfig::paper()).cost()).collect();
    let tolerance = server_config().cache.validation_tolerance;

    let server = start_server(dir, "chaos", Some(FaultProfile::moderate(chaos_seed)));
    let fleet = fleet_over(&[&server], true);
    let (mut hits, mut cold) = (0u64, 0u64);
    for (inst, &optimal) in stream.iter().zip(&reference) {
        let served = fleet.plan(inst).expect("the fallback absorbs every fault");
        let deviation = (served.cost - optimal) / optimal.abs().max(1e-300);
        assert!(deviation <= tolerance + 1e-9, "chaos must not corrupt a served plan");
        match served.source {
            ServeSource::CacheHit => hits += 1,
            _ => cold += 1,
        }
    }
    let stats = fleet.fleet_stats();
    let breaker = fleet.breaker_stats()[0];
    assert_eq!(stats.errors, 0, "with a fallback no request is lost under chaos");
    assert!(stats.fallbacks >= 1, "moderate chaos must surface at least one fault");
    assert!(hits >= 1, "the cache still warms through the fault schedule");
    let server_stats = server.shutdown();
    assert_eq!(
        server_stats.protocol_errors, 0,
        "egress-only faults must leave request parsing clean"
    );

    let mut table = Table::new(
        format!(
            "E17c: chaos battery, seed {chaos_seed} (drop 1/16, delay 1/8, truncate 1/24), {requests} requests over 1 chaotic backend + cold fallback"
        ),
        ["requests", "cache hits", "cold/fallback", "typed faults absorbed", "breaker trips", "protocol errors"],
    );
    table.push_row([
        requests.to_string(),
        hits.to_string(),
        cold.to_string(),
        stats.fallbacks.to_string(),
        breaker.trips.to_string(),
        server_stats.protocol_errors.to_string(),
    ]);
    table.push_note(
        "asserted: zero panics (the run completes), zero fleet errors (the fallback serves every faulted request), zero server protocol errors (faults are injected on the response path only), and every served plan within the validation tolerance of its fresh optimum",
    );
    table.push_note(
        "the fault schedule is a pure function of the chaos seed and the connection accept index, so this battery replays identically",
    );
    table
}

fn run(ctx: &ExperimentContext) -> Vec<Table> {
    let dir = temp_dir();
    let tables = vec![growth(ctx, &dir), breaker(ctx), chaos(ctx, &dir)];
    std::fs::remove_dir_all(&dir).ok();
    tables
}
