//! End-to-end tests of the daemon over real sockets: protocol round
//! trips, admission control, graceful drain, and warm restarts from
//! snapshot files.

use dsq_core::{optimize, Plan};
use dsq_server::{Client, ListenAddr, Response, Server, ServerConfig};
use dsq_service::{CacheStats, CachedPlanner, PlanCache, Planner};
use dsq_workloads::{generate, DriftConfig, DriftStream, Family};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::time::Duration;

fn temp_path(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let id = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!("dsq-server-{tag}-{}-{id}", std::process::id()))
}

fn tcp() -> ListenAddr {
    ListenAddr::Tcp("127.0.0.1:0".into())
}

#[test]
fn serves_optimal_plans_over_tcp() {
    let server = Server::start(&tcp(), &ServerConfig::default()).expect("start");
    let mut client = Client::connect(server.listen_addr()).expect("connect");
    for seed in 0..3 {
        let instance = generate(Family::Clustered, 7, seed);
        let fresh = optimize(&instance);
        match client.optimize(&instance).expect("round trip") {
            Response::Served { cost, plan, .. } => {
                assert_eq!(cost.to_bits(), fresh.cost().to_bits(), "seed {seed}");
                assert_eq!(&Plan::new(plan).expect("valid plan"), fresh.plan());
            }
            other => panic!("expected a served plan, got {other:?}"),
        }
    }
    // The same instance again: a validated cache hit, same bits.
    let instance = generate(Family::Clustered, 7, 0);
    match client.optimize(&instance).expect("round trip") {
        Response::Served { source, cost, .. } => {
            assert_eq!(source, dsq_service::ServeSource::CacheHit);
            assert_eq!(cost.to_bits(), optimize(&instance).cost().to_bits());
        }
        other => panic!("expected a hit, got {other:?}"),
    }
    let stats = server.shutdown();
    assert_eq!(stats.cache.requests(), 4);
    assert_eq!(stats.cache.hits, 1);
    assert_eq!(stats.admitted, 4);
    assert_eq!(stats.busy_rejections, 0);
}

#[test]
fn serves_over_unix_sockets_and_cleans_up_the_path() {
    let path = temp_path("sock");
    let addr = ListenAddr::Unix(path.clone());
    let server = Server::start(&addr, &ServerConfig::default()).expect("start");
    assert!(path.exists(), "socket file bound");
    let mut client = Client::connect(server.listen_addr()).expect("connect");
    assert_eq!(client.ping().expect("ping"), Response::Pong);
    let instance = generate(Family::Euclidean, 6, 3);
    assert!(matches!(client.optimize(&instance).expect("optimize"), Response::Served { .. }));
    server.shutdown();
    assert!(!path.exists(), "socket file unlinked on shutdown");
    // A stale (dead) socket file does not block a restart.
    std::fs::write(&path, b"").expect("plant stale file");
    let server = Server::start(&addr, &ServerConfig::default()).expect("rebinds over stale socket");
    server.shutdown();
}

#[test]
fn protocol_errors_keep_the_connection_usable() {
    let server = Server::start(&tcp(), &ServerConfig::default()).expect("start");
    let mut client = Client::connect(server.listen_addr()).expect("connect");
    // Unparseable instance: an error response, then normal service.
    match client.optimize_text("dsq-instance v1\nname broken\nn 2\n").expect("round trip") {
        Response::Error { message } => {
            assert!(message.starts_with("cannot parse instance:"), "{message}");
        }
        other => panic!("expected an error, got {other:?}"),
    }
    assert_eq!(client.ping().expect("still usable"), Response::Pong);
    let instance = generate(Family::HubSpoke, 5, 1);
    assert!(matches!(client.optimize(&instance).expect("serves"), Response::Served { .. }));
    let stats = server.shutdown();
    assert_eq!(stats.protocol_errors, 1);
}

/// Every serving counter reads back through `metrics`, each under its
/// `server.<group>.<token>` name and at its exact value.
#[test]
fn metrics_verb_reports_the_serving_counters() {
    let server = Server::start(&tcp(), &ServerConfig::default()).expect("start");
    let mut client = Client::connect(server.listen_addr()).expect("connect");
    let instance = generate(Family::Correlated, 6, 9);
    client.optimize(&instance).expect("cold");
    client.optimize(&instance).expect("hit");
    let text = client.metrics().expect("metrics");
    for line in [
        "counter server.serve.requests 2",
        "counter server.serve.hits 1",
        "counter server.serve.cold 1",
        "counter server.admission.busy-rejections 0",
        "counter server.serve.hit-rate-bp 5000",
        // The daemon probes two grids; its one cold insert is filed under both.
        "counter server.cache.entries 2",
    ] {
        assert!(text.lines().any(|l| l == line), "missing `{line}` in:\n{text}");
    }
    server.shutdown();
}

/// A client from before the `stats` verb was removed fails loudly: the
/// verb earns exactly one counted error line, in its pipeline slot, and
/// the connection keeps answering.
#[test]
fn a_removed_verb_is_an_unknown_request_not_a_hang() {
    let server = Server::start(&tcp(), &ServerConfig::default()).expect("start");
    let ListenAddr::Tcp(addr) = server.listen_addr() else { unreachable!("bound on TCP") };
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(b"ping\nstats\nping\n").expect("write frame");
    let mut reader = BufReader::new(stream);
    let replies: Vec<String> = (0..3)
        .map(|_| {
            let mut line = String::new();
            reader.read_line(&mut line).expect("reply");
            line
        })
        .collect();
    assert_eq!(replies, ["ok pong\n", "error unknown request `stats`\n", "ok pong\n"]);
    let text = Client::connect(server.listen_addr()).expect("connect").metrics().expect("metrics");
    assert!(text.contains("counter server.admission.protocol-errors 1\n"), "{text}");
    server.shutdown();
}

/// The `metrics` verb streams the telemetry exposition: stage
/// histograms carrying one sample per request that passed the stage and
/// the serving counters folded in, all through the framed
/// header/trailer grammar (which [`Client::metrics`] validates line by
/// line).
#[test]
fn metrics_verb_streams_stage_histograms_and_counters() {
    let server = Server::start(&tcp(), &ServerConfig::default()).expect("start");
    let mut client = Client::connect(server.listen_addr()).expect("connect");
    let instance = generate(Family::Correlated, 6, 9);
    client.optimize(&instance).expect("cold");
    client.optimize(&instance).expect("hit");
    let text = client.metrics().expect("metrics");
    assert!(text.starts_with("# dsq-metrics v1\n"), "{text}");
    // Parse, plan and flush saw both requests by scrape time (the
    // responses were flushed before the scrape could be admitted); only
    // the miss waited in the queue — the hit was answered on the reactor.
    for (stage, count) in [("parse_ns", 2), ("queue_wait_ns", 1), ("plan_ns", 2), ("flush_ns", 2)] {
        assert!(
            text.contains(&format!("histogram server.stage.{stage} count {count} ")),
            "{stage} must hold {count} samples:\n{text}"
        );
    }
    assert!(text.contains("histogram server.pipeline.depth count 2 "), "{text}");
    assert!(text.contains("counter server.serve.requests 2\n"), "{text}");
    assert!(text.contains("counter server.serve.hits 1\n"), "{text}");
    assert!(text.contains("counter server.cache.insertions "), "{text}");
    assert!(text.contains("counter server.reactor.outstanding 0\n"), "{text}");
    // The stage stopwatches measure real time: each histogram's sum is
    // positive, and the connection stays usable after the stream.
    assert!(text.lines().all(|l| !l.is_empty()), "no blank exposition lines:\n{text}");
    assert_eq!(client.ping().expect("still usable"), Response::Pong);
    server.shutdown();
}

/// Answering hits on the reactor changes no served plan: a sequential
/// drift stream through a live daemon gets, reply for reply, what the
/// in-process cached planner serves under the same cache configuration
/// — same source, cost bits, fingerprint, tier and plan — and both
/// caches end with identical counters.
#[test]
fn daemon_replies_match_the_in_process_cached_planner() {
    // A 1% validation tolerance (the default is 5%) lets the drift push
    // some entries out of tolerance, so the stream exercises warm starts
    // as well as hits and cold misses.
    let mut config = ServerConfig::default();
    config.cache.validation_tolerance = 0.01;
    let server = Server::start(&tcp(), &config).expect("start");
    let mut client = Client::connect(server.listen_addr()).expect("connect");
    let cache = PlanCache::new(config.cache.clone());
    let planner = CachedPlanner::new(&cache, config.bnb.clone());
    let stream = DriftStream::new(DriftConfig::new(Family::Clustered, 12, 15, 2000));
    for (i, instance) in stream.enumerate() {
        let expected = planner.plan(&instance).expect("local planners are infallible");
        match client.optimize(&instance).expect("round trip") {
            Response::Served { source, cost, fingerprint, plan, tier } => {
                assert_eq!(source, expected.source, "request {i}");
                assert_eq!(cost.to_bits(), expected.cost.to_bits(), "request {i}");
                assert_eq!(fingerprint, expected.fingerprint, "request {i}");
                assert_eq!(tier, expected.tier, "request {i}");
                assert_eq!(plan, expected.plan.indices(), "request {i}");
            }
            other => panic!("request {i}: expected served, got {other:?}"),
        }
    }
    let stats = server.shutdown();
    assert_eq!(stats.cache, cache.stats());
    let CacheStats { hits, warm_starts, misses, .. } = stats.cache;
    assert_eq!(hits + warm_starts + misses, 2000);
    assert!(hits > 0 && warm_starts > 0 && misses > 0, "{:?}", stats.cache);
}

/// The exposition's metric names, in order, are pinned: a renderer
/// change cannot silently drop a name a scraper reads (the benchmark
/// reads the `serve`, `cache.evictions`, `admission.busy-rejections`,
/// stage, pipeline-depth and coalescing names).
#[test]
fn metrics_exposition_names_are_pinned() {
    let server = Server::start(&tcp(), &ServerConfig::default()).expect("start");
    let mut client = Client::connect(server.listen_addr()).expect("connect");
    let instance = generate(Family::Correlated, 6, 9);
    client.optimize(&instance).expect("cold");
    client.optimize(&instance).expect("hit");
    let text = client.metrics().expect("metrics");
    let names: Vec<&str> =
        text.lines().skip(1).map(|line| line.split(' ').nth(1).expect("a name")).collect();
    assert_eq!(
        names,
        [
            "server.admission.admitted",
            "server.admission.busy-rejections",
            "server.admission.protocol-errors",
            "server.cache.entries",
            "server.cache.evictions",
            "server.cache.heuristic-entries",
            "server.cache.insertions",
            "server.flush.coalesced",
            "server.pipeline.depth",
            "server.reactor.connection-panics",
            "server.reactor.export-rollback-errors",
            "server.reactor.export-rollbacks",
            "server.reactor.outstanding",
            "server.reactor.pipeline-peak",
            "server.serve.cold",
            "server.serve.connections",
            "server.serve.hit-rate-bp",
            "server.serve.hits",
            "server.serve.probe2-hits",
            "server.serve.requests",
            "server.serve.warm-starts",
            "server.snapshots.errors",
            "server.snapshots.restored",
            "server.snapshots.written",
            "server.stage.flush_ns",
            "server.stage.parse_ns",
            "server.stage.plan_ns",
            "server.stage.queue_wait_ns",
        ],
        "{text}"
    );
    server.shutdown();
}

/// A full admission queue answers `busy` instead of blocking the accept
/// loop: with one worker and a one-slot queue, a burst of concurrent
/// requests can have at most one executing and one queued at any
/// instant, so most of the burst must be rejected immediately — and
/// every request that *was* admitted is answered exactly.
#[test]
fn full_queue_rejects_with_busy_instead_of_stalling() {
    let config = ServerConfig {
        workers: NonZeroUsize::new(1).expect("non-zero"),
        queue_capacity: 1,
        retry_after_ms: 7,
        ..ServerConfig::default()
    };
    let server = Server::start(&tcp(), &config).expect("start");
    let addr = server.listen_addr().clone();

    // Distinct btsp-hard queries: every one is a cold search costing
    // well over the microseconds the burst takes to submit.
    let burst: Vec<_> = (0..8).map(|seed| generate(Family::BtspHard, 13, 40 + seed)).collect();
    let responses: Vec<Response> = std::thread::scope(|scope| {
        let handles: Vec<_> = burst
            .iter()
            .map(|instance| {
                let addr = &addr;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    client.optimize(instance).expect("an immediate busy or a served plan")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("burst thread")).collect()
    });

    let mut busy = 0u64;
    let mut served = 0u64;
    for (instance, response) in burst.iter().zip(&responses) {
        match response {
            Response::Busy { retry_after_ms } => {
                // The hint is load-aware: base 7 ms when only the
                // executing job is outstanding at rejection time, scaled
                // up (capped at 16× base) when the queue slot is also
                // taken — both interleavings are legitimate here.
                assert!(
                    (7..=7 * 16).contains(retry_after_ms),
                    "hint {retry_after_ms} outside the load-aware range for base 7"
                );
                busy += 1;
            }
            Response::Served { cost, .. } => {
                let fresh = optimize(instance);
                assert_eq!(cost.to_bits(), fresh.cost().to_bits(), "admitted ⇒ exact");
                served += 1;
            }
            other => panic!("expected busy or served, got {other:?}"),
        }
    }
    assert_eq!(busy + served, 8);
    assert!(busy >= 1, "an 8-deep burst into a 1-slot queue must overflow");
    assert!(served >= 1, "the worker must still serve");

    // The server is not wedged: a rejected query retried after the burst
    // is served normally.
    let mut client = Client::connect(&addr).expect("connect");
    assert!(matches!(client.optimize(&burst[0]).expect("retry"), Response::Served { .. }));
    let stats = server.shutdown();
    assert_eq!(stats.busy_rejections, busy);
    assert_eq!(stats.admitted, served + 1);
}

/// Graceful drain: a shutdown issued while requests are in flight still
/// answers every admitted request.
#[test]
fn shutdown_drains_in_flight_requests() {
    let config = ServerConfig {
        workers: NonZeroUsize::new(1).expect("non-zero"),
        queue_capacity: 8,
        ..ServerConfig::default()
    };
    let server = Server::start(&tcp(), &config).expect("start");
    let addr = server.listen_addr().clone();
    let clients: Vec<_> = (0..3)
        .map(|seed| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                let instance = generate(Family::BtspHard, 12, seed);
                client.optimize(&instance).expect("served before drain completes")
            })
        })
        .collect();
    while server.stats().admitted < 1 {
        std::thread::yield_now();
    }
    let stats = server.shutdown();
    for handle in clients {
        // Admission raced the drain: each request was either served or
        // the connection closed before it was read — never a stall, and
        // an admitted request is always answered.
        if let Ok(Response::Served { cost, .. }) = handle.join() {
            assert!(cost.is_finite());
        }
    }
    assert!(stats.admitted >= 1);
}

/// The shutdown protocol verb reaches the embedder via
/// `wait_shutdown_requested`.
#[test]
fn shutdown_verb_signals_the_embedder() {
    let server = Server::start(&tcp(), &ServerConfig::default()).expect("start");
    assert!(!server.shutdown_requested());
    let mut client = Client::connect(server.listen_addr()).expect("connect");
    assert_eq!(client.shutdown_server().expect("verb"), Response::Draining);
    server.wait_shutdown_requested();
    assert!(server.shutdown_requested());
    server.shutdown();
}

/// Cache persistence across processes-worth of servers: a restarted
/// server answers previously-cold queries as validated hits.
#[test]
fn warm_restart_from_a_snapshot_file() {
    let snapshot = temp_path("snap");
    let config = ServerConfig {
        snapshot_path: Some(snapshot.clone()),
        snapshot_interval: Duration::from_secs(3600), // only the final write
        ..ServerConfig::default()
    };
    let instances: Vec<_> = (0..4).map(|s| generate(Family::Clustered, 7, 20 + s)).collect();

    let first = Server::start(&ListenAddr::Tcp("127.0.0.1:0".into()), &config).expect("start");
    let mut client = Client::connect(first.listen_addr()).expect("connect");
    let mut cold_costs = Vec::new();
    for instance in &instances {
        match client.optimize(instance).expect("cold serve") {
            Response::Served { source, cost, .. } => {
                assert_eq!(source, dsq_service::ServeSource::Cold);
                cold_costs.push(cost);
            }
            other => panic!("expected served, got {other:?}"),
        }
    }
    drop(client);
    let stats = first.shutdown();
    assert_eq!(stats.restored_entries, 0, "first boot is cold");
    assert!(stats.snapshots_written >= 1, "final snapshot written");
    assert!(snapshot.exists());

    let second = Server::start(&ListenAddr::Tcp("127.0.0.1:0".into()), &config).expect("restart");
    assert_eq!(second.stats().restored_entries, 4);
    let mut client = Client::connect(second.listen_addr()).expect("connect");
    for (instance, &cold_cost) in instances.iter().zip(&cold_costs) {
        match client.optimize(instance).expect("warm serve") {
            Response::Served { source, cost, .. } => {
                assert_eq!(source, dsq_service::ServeSource::CacheHit, "restart must hit");
                assert_eq!(cost.to_bits(), cold_cost.to_bits());
            }
            other => panic!("expected served, got {other:?}"),
        }
    }
    drop(client);
    second.shutdown();
    std::fs::remove_file(&snapshot).ok();
}

/// A corrupt snapshot file is refused loudly at startup.
#[test]
fn corrupt_snapshots_fail_startup() {
    let snapshot = temp_path("corrupt");
    std::fs::write(&snapshot, "dsq-plan-cache v9\n").expect("write corrupt snapshot");
    let config = ServerConfig { snapshot_path: Some(snapshot.clone()), ..ServerConfig::default() };
    let err = Server::start(&tcp(), &config).expect_err("must refuse");
    assert!(err.to_string().contains("cannot restore snapshot"), "{err}");
    std::fs::remove_file(&snapshot).ok();
}

/// Two live servers on one snapshot path would last-writer-wins each
/// other's atomic renames; the `.lock` PID file makes the second refuse
/// to start, and a clean shutdown releases the path for the next one.
#[test]
fn snapshot_paths_are_locked_against_a_second_live_server() {
    let snapshot = temp_path("locked");
    let config = ServerConfig { snapshot_path: Some(snapshot.clone()), ..ServerConfig::default() };
    let first = Server::start(&tcp(), &config).expect("first server starts");
    let err = Server::start(&tcp(), &config).expect_err("second server must refuse");
    assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);
    assert!(err.to_string().contains("locked by live process"), "{err}");
    // Snapshot-free servers are unaffected.
    Server::start(&tcp(), &ServerConfig::default()).expect("no-snapshot server starts").shutdown();
    first.shutdown();
    assert!(!dsq_server::lock_path(&snapshot).exists(), "shutdown releases the lock");
    // The path is reusable once the holder is gone.
    Server::start(&tcp(), &config).expect("restart after release").shutdown();
    std::fs::remove_file(&snapshot).ok();
}

/// The background writer persists without waiting for shutdown.
#[test]
fn periodic_snapshots_are_written() {
    let snapshot = temp_path("periodic");
    let config = ServerConfig {
        snapshot_path: Some(snapshot.clone()),
        snapshot_interval: Duration::from_millis(20),
        ..ServerConfig::default()
    };
    let server = Server::start(&tcp(), &config).expect("start");
    let mut client = Client::connect(server.listen_addr()).expect("connect");
    client.optimize(&generate(Family::Clustered, 6, 1)).expect("serve");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.stats().snapshots_written == 0 {
        assert!(std::time::Instant::now() < deadline, "no periodic snapshot within 5 s");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(snapshot.exists());
    server.shutdown();
    std::fs::remove_file(&snapshot).ok();
}

/// Instance documents are framed as raw bytes: non-ASCII names (legal
/// in the `dsq-instance` format) round-trip through the socket even
/// though read timeouts can split multi-byte characters.
#[test]
fn non_ascii_instance_names_round_trip() {
    let server = Server::start(&tcp(), &ServerConfig::default()).expect("start");
    let mut client = Client::connect(server.listen_addr()).expect("connect");
    let base = generate(Family::Clustered, 6, 2);
    let named = dsq_core::QueryInstance::builder()
        .name("café-请求-π")
        .services(base.services().to_vec())
        .comm(base.comm().clone())
        .build()
        .expect("valid instance");
    let fresh = optimize(&named);
    for _ in 0..2 {
        match client.optimize(&named).expect("round trip") {
            Response::Served { cost, .. } => {
                assert_eq!(cost.to_bits(), fresh.cost().to_bits());
            }
            other => panic!("expected served, got {other:?}"),
        }
    }
    let stats = server.shutdown();
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(stats.cache.hits, 1, "the repeat must hit");
}

/// Binding a Unix path that a live server owns is refused.
#[test]
fn live_unix_sockets_are_not_clobbered() {
    let path = temp_path("live");
    let addr = ListenAddr::Unix(path.clone());
    let server = Server::start(&addr, &ServerConfig::default()).expect("start");
    let err = Server::start(&addr, &ServerConfig::default()).expect_err("second bind must fail");
    assert!(err.to_string().contains("in use by a live server"), "{err}");
    server.shutdown();
}
