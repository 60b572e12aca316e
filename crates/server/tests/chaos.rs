//! Resilience battery: warm partition handoff between live daemons,
//! and fault-injection chaos runs asserting the failure surface stays
//! typed — clients see `PlanError`s / `io::Error`s, never panics, and
//! the server's own request parsing stays clean (zero protocol errors)
//! because faults are injected on the response path only.

use dsq_server::{
    Client, ExportRequest, FaultProfile, ListenAddr, RemotePlanner, Response, Server, ServerConfig,
};
use dsq_service::{HashRing, PlanError, Planner, DEFAULT_VNODES};
use dsq_workloads::{generate, Family};

fn tcp() -> ListenAddr {
    ListenAddr::Tcp("127.0.0.1:0".into())
}

/// The tentpole path end to end over real sockets: warm one daemon,
/// announce a two-backend layout, export the partition it no longer
/// owns, import it into the inheritor — moved keys hit warm on the new
/// owner, kept keys still hit on the old one, and a re-export is empty
/// (the handoff moved entries, it did not copy them).
#[test]
fn partition_handoff_moves_warm_entries_between_servers() {
    let donor = Server::start(&tcp(), &ServerConfig::default()).expect("start donor");
    let inheritor = Server::start(&tcp(), &ServerConfig::default()).expect("start inheritor");
    let backends = vec!["backend-a".to_string(), "backend-b".to_string()];
    let ring = HashRing::new(&backends);

    // Warm the donor and record every key's cold answer.
    let mut served: Vec<(dsq_core::QueryInstance, u64, f64)> = Vec::new();
    let mut client = Client::connect(donor.listen_addr()).expect("connect donor");
    for seed in 0..12 {
        let instance = generate(Family::Clustered, 7, 100 + seed);
        match client.optimize(&instance).expect("cold serve") {
            Response::Served { fingerprint, cost, .. } => {
                served.push((instance, fingerprint, cost));
            }
            other => panic!("expected served, got {other:?}"),
        }
    }
    let moved: Vec<&(dsq_core::QueryInstance, u64, f64)> =
        served.iter().filter(|(_, fp, _)| ring.route(*fp) != 0).collect();
    let kept: Vec<&(dsq_core::QueryInstance, u64, f64)> =
        served.iter().filter(|(_, fp, _)| ring.route(*fp) == 0).collect();
    assert!(!moved.is_empty() && !kept.is_empty(), "12 keys must straddle a 2-way split");

    // Handoff: the donor keeps slot 0, hands slot 1's keys over.
    let request = ExportRequest { vnodes: DEFAULT_VNODES, keep: 0, backends: backends.clone() };
    let partition = client.export_partition(&request).expect("export");
    let mut exported: Vec<u64> = partition.entries.iter().map(|e| e.fingerprint).collect();
    let mut expected: Vec<u64> = moved.iter().map(|(_, fp, _)| *fp).collect();
    exported.sort_unstable();
    expected.sort_unstable();
    assert_eq!(exported, expected, "exactly the un-owned keys are exported");

    let mut receiver = Client::connect(inheritor.listen_addr()).expect("connect inheritor");
    let restored = receiver.import_partition(&partition).expect("import");
    assert_eq!(restored, partition.entries.len() as u64);

    // Moved keys are warm on the inheritor: validated hits, same bits,
    // no recomputation.
    for (instance, _, cold_cost) in &moved {
        match receiver.optimize(instance).expect("warm serve") {
            Response::Served { source, cost, .. } => {
                assert_eq!(source, dsq_service::ServeSource::CacheHit, "handoff must stay warm");
                assert_eq!(cost.to_bits(), cold_cost.to_bits());
            }
            other => panic!("expected a hit, got {other:?}"),
        }
    }
    // Kept keys still hit on the donor.
    for (instance, _, cold_cost) in &kept {
        match client.optimize(instance).expect("kept serve") {
            Response::Served { source, cost, .. } => {
                assert_eq!(source, dsq_service::ServeSource::CacheHit);
                assert_eq!(cost.to_bits(), cold_cost.to_bits());
            }
            other => panic!("expected a hit, got {other:?}"),
        }
    }
    // The export was a move: repeating it finds nothing left to hand
    // over.
    let again = client.export_partition(&request).expect("re-export");
    assert!(again.entries.is_empty(), "a second export must be empty");

    let donor_stats = donor.shutdown();
    let inheritor_stats = inheritor.shutdown();
    assert_eq!(donor_stats.protocol_errors, 0);
    assert_eq!(inheritor_stats.protocol_errors, 0);
    assert_eq!(inheritor_stats.cache.misses, 0, "the inheritor never recomputed a moved key");
}

/// Malformed or degenerate layouts are refused with one error line and
/// the connection stays usable — the operator gets the exact
/// duplicate-endpoint message the fleet-config validator pins.
#[test]
fn export_rejects_bad_layouts_and_keeps_the_connection() {
    let server = Server::start(&tcp(), &ServerConfig::default()).expect("start");
    let mut client = Client::connect(server.listen_addr()).expect("connect");
    let dup = ExportRequest {
        vnodes: 8,
        keep: 0,
        backends: vec!["a".to_string(), "b".to_string(), "a".to_string()],
    };
    let err = client.export_partition(&dup).expect_err("duplicate backends must be refused");
    assert_eq!(err.to_string(), "duplicate backend address `a` in fleet config");
    assert_eq!(client.ping().expect("still usable"), Response::Pong);

    // A malformed export line is a protocol error, not a hangup.
    let solo = ExportRequest { vnodes: 1, keep: 0, backends: vec!["only".to_string()] };
    let empty = client.export_partition(&solo).expect("single-backend layout");
    assert!(empty.entries.is_empty(), "a one-slot ring owns everything");
    let stats = server.shutdown();
    assert_eq!(stats.protocol_errors, 1);
}

/// An import the receiving cache cannot restore (wrong quantization
/// resolution) earns a typed error reply; the stream stays in sync.
#[test]
fn import_rejects_mismatched_snapshots() {
    let server = Server::start(&tcp(), &ServerConfig::default()).expect("start");
    let mut client = Client::connect(server.listen_addr()).expect("connect");
    let alien = dsq_core::PlanSnapshot { resolution: 0.125, entries: Vec::new() };
    let err = client.import_partition(&alien).expect_err("mismatched resolution must be refused");
    assert!(err.to_string().starts_with("cannot restore partition:"), "{err}");
    assert_eq!(client.ping().expect("still usable"), Response::Pong);
    let stats = server.shutdown();
    assert_eq!(stats.protocol_errors, 1);
}

/// The chaos battery: a server dropping, delaying, and truncating its
/// own response frames on a deterministic schedule, driven by
/// reconnecting `RemotePlanner`s. Every outcome must be a served plan
/// or a **typed** `PlanError` — no panic anywhere — and because faults
/// hit only the egress path, the server's request parsing stays
/// pristine: zero protocol errors.
#[test]
fn chaos_battery_yields_typed_errors_and_zero_protocol_errors() {
    for chaos_seed in [7u64, 1234] {
        let config = ServerConfig {
            chaos: Some(FaultProfile::moderate(chaos_seed)),
            ..ServerConfig::default()
        };
        let server = Server::start(&tcp(), &config).expect("start chaotic server");
        let planner = RemotePlanner::new(server.listen_addr().clone());
        let mut outcomes = [0u64; 2]; // [served, typed errors]
        for seed in 0..40 {
            // A small working set: repeats should hit once cached, and a
            // dropped response must not poison the next attempt.
            let instance = generate(Family::Clustered, 6, 300 + seed % 8);
            match planner.plan(&instance) {
                Ok(served) => {
                    assert!(served.cost.is_finite());
                    outcomes[0] += 1;
                }
                Err(
                    PlanError::Transport(_)
                    | PlanError::Protocol(_)
                    | PlanError::Busy { .. }
                    | PlanError::Backend(_),
                ) => outcomes[1] += 1,
            }
        }
        assert!(outcomes[0] > 0, "seed {chaos_seed}: chaos must not starve serving entirely");
        assert!(outcomes[1] > 0, "seed {chaos_seed}: moderate chaos must surface some faults");
        let stats = server.shutdown();
        assert_eq!(
            stats.protocol_errors, 0,
            "seed {chaos_seed}: egress-only faults must leave request parsing clean"
        );
    }
}

/// Chaos replays deterministically: the same seed produces the same
/// per-connection fault schedule, so a failing chaos run can be
/// reproduced exactly.
#[test]
fn chaos_schedule_is_deterministic_per_seed() {
    let run = |chaos_seed: u64| -> Vec<bool> {
        let config = ServerConfig {
            chaos: Some(FaultProfile::moderate(chaos_seed)),
            ..ServerConfig::default()
        };
        let server = Server::start(&tcp(), &config).expect("start");
        // One connection, a fixed request sequence: the fault pattern is
        // a pure function of the seed and the accept index.
        let mut client = Client::connect(server.listen_addr()).expect("connect");
        let outcomes: Vec<bool> = (0..16)
            .map(|seed| {
                let instance = generate(Family::Euclidean, 5, 400 + seed % 4);
                match client.optimize(&instance) {
                    Ok(Response::Served { .. }) => true,
                    _ => {
                        // The stream may be dead after a fault; dial
                        // fresh like a real client would.
                        client = Client::connect(server.listen_addr()).expect("reconnect");
                        false
                    }
                }
            })
            .collect();
        drop(client);
        server.shutdown();
        outcomes
    };
    let first = run(99);
    let second = run(99);
    assert_eq!(first, second, "same seed, same fault schedule");
}
