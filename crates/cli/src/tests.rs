//! End-to-end tests of the command surface, driven through [`run`]
//! exactly as the binary drives it.

use super::*;
use dsq_core::parse_instance;
use dsq_server::SnapshotLock;
use dsq_service::FleetConfig;

fn run_ok(args: &[&str]) -> String {
    let mut out = Vec::new();
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    run(&args, &mut out).expect("command succeeds");
    String::from_utf8(out).expect("utf8 output")
}

fn run_err(args: &[&str]) -> String {
    let mut out = Vec::new();
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    run(&args, &mut out).expect_err("command fails")
}

/// A fresh instance file per call: tests run in parallel and each
/// removes its own file when done.
fn temp_instance() -> (std::path::PathBuf, String) {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let id = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let text = run_ok(&["generate", "--family", "clustered", "-n", "5", "--seed", "7"]);
    let path = std::env::temp_dir().join(format!("dsq-cli-test-{}-{id}.dsq", std::process::id()));
    std::fs::write(&path, &text).expect("write temp instance");
    (path, text)
}

#[test]
fn generate_produces_parseable_instances() {
    let text = run_ok(&["generate", "--family", "euclidean", "-n", "6", "--seed", "2"]);
    let inst = parse_instance(&text).expect("round-trips");
    assert_eq!(inst.len(), 6);
    // Deterministic in the seed.
    assert_eq!(text, run_ok(&["generate", "--family", "euclidean", "-n", "6", "--seed", "2"]));
}

#[test]
fn optimize_reports_plan_and_stats() {
    let (path, _) = temp_instance();
    let text = run_ok(&["optimize", path.to_str().expect("utf8 path")]);
    assert!(text.contains("plan"));
    assert!(text.contains("cost"));
    assert!(text.contains("optimal   true"));
    assert!(text.contains("nodes visited"));
    let no_backjump =
        run_ok(&["optimize", path.to_str().expect("utf8 path"), "--config", "no-backjump"]);
    assert!(no_backjump.contains("optimal   true"));
    std::fs::remove_file(path).ok();
}

#[test]
fn explain_breaks_down_given_plan() {
    let (path, _) = temp_instance();
    let text = run_ok(&["explain", path.to_str().expect("utf8"), "--plan", "4,3,2,1,0"]);
    assert!(text.contains("bottleneck cost"));
    assert!(text.contains("WS4"));
    std::fs::remove_file(path).ok();
}

#[test]
fn baselines_table_lists_methods() {
    let (path, _) = temp_instance();
    let text = run_ok(&["baselines", path.to_str().expect("utf8")]);
    for needle in ["branch-and-bound", "greedy", "beam", "annealing", "random mean"] {
        assert!(text.contains(needle), "missing {needle}:\n{text}");
    }
    // The B&B row is the 1.000× reference.
    assert!(text.contains("1.000×"));
    std::fs::remove_file(path).ok();
}

#[test]
fn simulate_reports_throughput() {
    let (path, _) = temp_instance();
    let text =
        run_ok(&["simulate", path.to_str().expect("utf8"), "--tuples", "2000", "--block", "8"]);
    assert!(text.contains("predicted tput"));
    assert!(text.contains("tuples in"));
    std::fs::remove_file(path).ok();
}

#[test]
fn errors_are_informative() {
    assert!(run_err(&["bogus"]).contains("unknown command"));
    assert!(run_err(&["generate", "-n", "4"]).contains("--family"));
    assert!(run_err(&["generate", "--family", "nope", "-n", "4"]).contains("unknown family"));
    assert!(run_err(&["optimize"]).contains("instance file"));
    assert!(run_err(&["optimize", "/nonexistent/x.dsq"]).contains("cannot read"));
    let (path, _) = temp_instance();
    assert!(run_err(&["explain", path.to_str().expect("utf8"), "--plan", "0,1"])
        .contains("instance has 5"));
    assert!(run_err(&["optimize", path.to_str().expect("utf8"), "--config", "zap"])
        .contains("unknown config"));
    std::fs::remove_file(path).ok();
}

/// The exact messages are part of the CLI contract: scripts match on
/// them, so changes must be deliberate.
#[test]
fn error_messages_are_exact() {
    let (path, _) = temp_instance();
    let file = path.to_str().expect("utf8 path");
    // Malformed --plan lists.
    assert_eq!(run_err(&["explain", file, "--plan", "0,x,2,3,4"]), "bad plan index `x`");
    assert_eq!(run_err(&["explain", file, "--plan", "0, ,2,3,4"]), "bad plan index ` `");
    // Out-of-range / duplicate indices.
    assert_eq!(
        run_err(&["explain", file, "--plan", "0,1,2,3,9"]),
        "invalid plan: service index 9 out of range for 5 services"
    );
    assert_eq!(
        run_err(&["explain", file, "--plan", "0,1,2,3,3"]),
        "invalid plan: service 3 appears twice"
    );
    assert_eq!(run_err(&["explain", file, "--plan", "0,1"]), "plan has 2 services, instance has 5");
    // Unknown family / config.
    assert_eq!(run_err(&["generate", "--family", "mesh", "-n", "4"]), "unknown family `mesh`");
    // A bad service count names the spelling that was typed.
    for flag in ["-n", "--services"] {
        assert_eq!(
            run_err(&["generate", "--family", "clustered", flag, "0"]),
            format!("{flag} needs a positive integer")
        );
    }
    for name in ["zap", "extended"] {
        assert_eq!(
            run_err(&["optimize", file, "--config", name]),
            format!("unknown config `{name}`")
        );
    }
    // serve-batch argument errors.
    assert_eq!(run_err(&["serve-batch"]), "serve-batch requires a directory or `-` for stdin");
    assert_eq!(
        run_err(&["serve-batch", "/tmp", "--workers", "0"]),
        "--workers needs a positive integer"
    );
    assert_eq!(
        run_err(&["serve-batch", "/tmp", "--resolution", "7"]),
        "--resolution needs a number in (0, 1)"
    );
    let missing = run_err(&["serve-batch", "/nonexistent-dsq-dir"]);
    assert!(missing.starts_with("cannot read /nonexistent-dsq-dir:"), "{missing}");
    // serve / client argument errors.
    assert_eq!(run_err(&["serve"]), "serve requires --unix PATH or --tcp ADDR");
    assert_eq!(run_err(&["serve", "--unix"]), "--unix needs a path");
    assert_eq!(run_err(&["serve", "--tcp", "x", "--probes", "3"]), "--probes must be 1 or 2");
    assert_eq!(
        run_err(&["serve", "--tcp", "x", "--queue", "0"]),
        "--queue needs a positive integer"
    );
    assert_eq!(run_err(&["serve", "--tcp", "x", "--bogus"]), "unknown serve flag `--bogus`");
    // An unknown flag is named as such, not taken for the file.
    assert_eq!(run_err(&["optimize", "--bogus", file]), "unknown optimize flag `--bogus`");
    assert_eq!(
        run_err(&["optimize", "--parallel", "2", file]),
        "unknown optimize flag `--parallel`"
    );
    assert_eq!(run_err(&["explain", "--bogus", file]), "unknown explain flag `--bogus`");
    assert_eq!(run_err(&["simulate", "--bogus", file]), "unknown simulate flag `--bogus`");
    assert_eq!(run_err(&["baselines", "--bogus", file]), "unknown baselines flag `--bogus`");
    assert_eq!(run_err(&["serve-batch", "--bogus", "/tmp"]), "unknown serve-batch flag `--bogus`");
    assert_eq!(
        run_err(&["client", "--unix", "/tmp/x.sock", "optimize", "--bogus", file]),
        "unknown client flag `--bogus`"
    );
    assert_eq!(
        run_err(&["serve", "--tcp", "x", "--chaos", "nope"]),
        "--chaos needs a seed (a non-negative integer)"
    );
    assert_eq!(run_err(&["client", "metrics"]), "client requires --unix PATH or --tcp ADDR");
    assert_eq!(
        run_err(&["client", "--unix", "/tmp/x.sock"]),
        "client requires a command (optimize|metrics|ping|shutdown|hold)"
    );
    assert_eq!(
        run_err(&["client", "--unix", "/tmp/x.sock", "reboot"]),
        "unknown client command `reboot`"
    );
    assert_eq!(
        run_err(&["client", "--unix", "/tmp/x.sock", "optimize"]),
        "client optimize requires at least one instance file"
    );
    assert_eq!(
        run_err(&["client", "--unix", "/tmp/x.sock", "--pipeline", "ping"]),
        "--pipeline only applies to the optimize command"
    );
    assert_eq!(
        run_err(&["client", "--unix", "/tmp/x.sock", "hold", "zero"]),
        "client hold needs a positive connection count"
    );
    assert_eq!(
        run_err(&["serve", "--tcp", "x", "--max-pipeline", "0"]),
        "--max-pipeline needs a positive integer"
    );
    let unreachable = run_err(&["client", "--unix", "/nonexistent/dsq.sock", "ping"]);
    assert!(
        unreachable.starts_with("cannot connect to unix:///nonexistent/dsq.sock:"),
        "{unreachable}"
    );
    assert_eq!(run_err(&["serve-batch", "/tmp", "--snapshot-in"]), "--snapshot-in needs a file");
    std::fs::remove_file(path).ok();
}

/// `serve-batch --snapshot-out/--snapshot-in`: warm plans cross
/// processes through the snapshot file — a second batch run starts at
/// a 100% hit rate.
#[test]
fn serve_batch_snapshots_carry_warm_plans_across_runs() {
    let dir = std::env::temp_dir().join(format!("dsq-snap-batch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create batch dir");
    for (name, seed) in [("a.dsq", 31u64), ("b.dsq", 32), ("c.dsq", 33)] {
        let text =
            run_ok(&["generate", "--family", "clustered", "-n", "6", "--seed", &seed.to_string()]);
        std::fs::write(dir.join(name), text).expect("write instance");
    }
    let dir_arg = dir.to_str().expect("utf8");
    let snapshot = dir.join("plans.dsqc");
    let snapshot_arg = snapshot.to_str().expect("utf8");

    let first = run_ok(&["serve-batch", dir_arg, "--workers", "1", "--snapshot-out", snapshot_arg]);
    assert!(first.contains("cache: 0 hits, 0 warm starts, 3 cold"), "{first}");
    assert!(first.contains(&format!("wrote snapshot (3 entries) to {snapshot_arg}")), "{first}");
    assert!(snapshot.exists());

    let second = run_ok(&["serve-batch", dir_arg, "--workers", "1", "--snapshot-in", snapshot_arg]);
    assert!(second.contains(&format!("restored 3 cached plans from {snapshot_arg}")), "{second}");
    assert!(second.contains("cache: 3 hits, 0 warm starts, 0 cold"), "{second}");

    // A resolution mismatch is rejected with the restore error.
    let mismatch =
        run_err(&["serve-batch", dir_arg, "--snapshot-in", snapshot_arg, "--resolution", "0.1"]);
    assert_eq!(
        mismatch,
        format!(
            "cannot restore snapshot {snapshot_arg}: snapshot resolution 0.05 does not match cache resolution 0.1"
        )
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `serve-batch --tiered`: misses are answered by the greedy tier
/// (their lines carry `tier heur`), the pre-exit drain refines every
/// entry, and the snapshot hands a second run pure exact hits.
#[test]
fn serve_batch_tiered_answers_heur_then_refines_before_the_snapshot() {
    let dir = std::env::temp_dir().join(format!("dsq-tiered-batch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create batch dir");
    for (name, seed) in [("a.dsq", 51u64), ("b.dsq", 52), ("c.dsq", 53)] {
        let text =
            run_ok(&["generate", "--family", "clustered", "-n", "6", "--seed", &seed.to_string()]);
        std::fs::write(dir.join(name), text).expect("write instance");
    }
    let dir_arg = dir.to_str().expect("utf8");
    let snapshot = dir.join("plans.dsqc");
    let snapshot_arg = snapshot.to_str().expect("utf8");

    let first = run_ok(&[
        "serve-batch",
        dir_arg,
        "--workers",
        "1",
        "--tiered",
        "--snapshot-out",
        snapshot_arg,
    ]);
    let heur_lines = first.lines().filter(|l| l.ends_with(" tier heur")).count();
    assert_eq!(heur_lines, 3, "every miss is answered by the greedy tier:\n{first}");
    assert!(first.contains("tiered: 3 tier-1 answers, 3 refined"), "{first}");
    // The drain ran before the snapshot: all three entries are exact
    // and eligible for persistence.
    assert!(first.contains(&format!("wrote snapshot (3 entries) to {snapshot_arg}")), "{first}");

    let second = run_ok(&[
        "serve-batch",
        dir_arg,
        "--workers",
        "1",
        "--tiered",
        "--snapshot-in",
        snapshot_arg,
    ]);
    assert!(second.contains("cache: 3 hits, 0 warm starts, 0 cold"), "{second}");
    assert!(
        !second.contains("tier heur"),
        "refined entries serve as exact hits after the warm restart:\n{second}"
    );
    assert!(second.contains("tiered: 0 tier-1 answers, 0 refined"), "{second}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_batch_smoke_over_a_directory() {
    let dir = std::env::temp_dir().join(format!("dsq-serve-batch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create batch dir");
    // Two copies of the same query and one distinct one: the repeat
    // must hit the cache.
    for (name, seed) in [("a.dsq", 3u64), ("b.dsq", 3), ("c.dsq", 4)] {
        let text =
            run_ok(&["generate", "--family", "clustered", "-n", "6", "--seed", &seed.to_string()]);
        std::fs::write(dir.join(name), text).expect("write instance");
    }
    std::fs::write(dir.join("ignored.txt"), "not an instance").expect("write decoy");
    let out = run_ok(&["serve-batch", dir.to_str().expect("utf8"), "--workers", "2"]);
    for needle in ["a.dsq", "b.dsq", "c.dsq", "served 3 requests", "hit-rate"] {
        assert!(out.contains(needle), "missing {needle} in:\n{out}");
    }
    assert!(out.contains("cache: 1 hits, 0 warm starts, 2 cold"), "{out}");
    // a/b identical → identical plan lines modulo the file name.
    let lines: Vec<&str> = out.lines().collect();
    let plan_of = |line: &str| line.split("plan ").nth(1).map(str::to_string);
    assert_eq!(plan_of(lines[0]), plan_of(lines[1]));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_batch_rejects_instancefree_directories() {
    let dir = std::env::temp_dir().join(format!("dsq-serve-empty-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create empty dir");
    let message = run_err(&["serve-batch", dir.to_str().expect("utf8")]);
    assert_eq!(message, format!("no .dsq instance files in {}", dir.display()));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn instance_streams_split_on_headers() {
    let one = run_ok(&["generate", "--family", "euclidean", "-n", "4", "--seed", "1"]);
    let two = run_ok(&["generate", "--family", "euclidean", "-n", "5", "--seed", "2"]);
    let stream = format!("{one}{two}");
    let documents = split_instance_stream(&stream);
    assert_eq!(documents.len(), 2);
    assert_eq!(parse_instance(&documents[0]).expect("first parses").len(), 4);
    assert_eq!(parse_instance(&documents[1]).expect("second parses").len(), 5);
    assert!(split_instance_stream("").is_empty());
    assert!(split_instance_stream("  \n\nnoise without a header\n").is_empty());
}

#[test]
fn fleet_spec_parsing_covers_all_forms() {
    let addrs = parse_fleet_spec("unix:///tmp/a.sock, tcp://127.0.0.1:7878,/tmp/b.sock,host:9")
        .expect("parses");
    assert_eq!(
        addrs,
        vec![
            ListenAddr::Unix("/tmp/a.sock".into()),
            ListenAddr::Tcp("127.0.0.1:7878".into()),
            ListenAddr::Unix("/tmp/b.sock".into()),
            ListenAddr::Tcp("host:9".into()),
        ]
    );
    assert_eq!(
        parse_fleet_spec("a,,b").expect_err("empty entry"),
        "empty backend address in `a,,b`"
    );
    // Duplicate endpoints would occupy two ring slots and double
    // their keyspace share; rejected with the offending entry —
    // compared after normalization, so two spellings of one address
    // still collide.
    assert_eq!(
        parse_fleet_spec("tcp://h:1,h:1").expect_err("duplicate entry"),
        "duplicate backend address `h:1` in `tcp://h:1,h:1`"
    );
    assert_eq!(
        parse_fleet_spec("/tmp/a.sock,unix:///tmp/a.sock").expect_err("normalized duplicate"),
        "duplicate backend address `unix:///tmp/a.sock` in `/tmp/a.sock,unix:///tmp/a.sock`"
    );
}

#[test]
fn fleet_flag_errors_are_exact() {
    assert_eq!(run_err(&["client", "--fleet"]), "--fleet needs a comma-separated address list");
    assert_eq!(
        run_err(&["client", "--fleet", "tcp://x", "metrics"]),
        "--fleet only supports the optimize command, not `metrics`"
    );
    assert_eq!(
        run_err(&["client", "--unix", "/tmp/x.sock", "--fleet", "tcp://x", "optimize", "f"]),
        "--fleet replaces --unix/--tcp; give one or the other"
    );
    assert_eq!(
        run_err(&["client", "--fleet", "tcp://x"]),
        "client requires a command (optimize|metrics|ping|shutdown|hold)"
    );
    assert_eq!(
        run_err(&["client", "--fleet", "tcp://x", "--resolution", "7", "optimize", "f"]),
        "--resolution needs a number in (0, 1)"
    );
    // `client --fleet` is the one fleet batch path; serve-batch has none.
    assert_eq!(
        run_err(&["serve-batch", "/tmp", "--remote", "tcp://x"]),
        "unknown serve-batch flag `--remote`"
    );
    assert_eq!(
        run_err(&["client", "--fleet", "tcp://x", "optimize", "f", "--pipeline"]),
        "--pipeline does not apply to --fleet/--fleet-config"
    );
    assert_eq!(
        run_err(&["client", "--fleet-config", "/tmp/f.cfg", "--pipeline", "optimize", "f"]),
        "--pipeline does not apply to --fleet/--fleet-config"
    );
    // --fleet-config argument errors.
    assert_eq!(run_err(&["client", "--fleet-config"]), "--fleet-config needs a file");
    assert_eq!(
        run_err(&["client", "--fleet-config", "/tmp/f.cfg", "metrics"]),
        "--fleet-config only supports the optimize command, not `metrics`"
    );
    assert_eq!(
        run_err(&["client", "--fleet", "tcp://x", "--fleet-config", "/tmp/f.cfg", "optimize", "f"]),
        "--fleet-config replaces --fleet; give one or the other"
    );
    assert_eq!(
        run_err(&["client", "--tcp", "x", "--fleet-config", "/tmp/f.cfg", "optimize", "f"]),
        "--fleet-config replaces --unix/--tcp; give one or the other"
    );
    let unreadable = run_err(&["client", "--fleet-config", "/nonexistent.cfg", "optimize", "f"]);
    assert!(unreadable.starts_with("fleet config unreadable:"), "{unreadable}");
    // fleet rebalance argument errors.
    assert_eq!(run_err(&["fleet"]), "fleet requires a subcommand (rebalance)");
    assert_eq!(run_err(&["fleet", "shuffle"]), "unknown fleet command `shuffle`");
    assert_eq!(run_err(&["fleet", "rebalance"]), "fleet rebalance requires --from and --to");
    assert_eq!(
        run_err(&["fleet", "rebalance", "--from", "tcp://a", "--to", "a,a"]),
        "duplicate backend address `a` in `a,a`"
    );
    assert_eq!(
        run_err(&["fleet", "rebalance", "--from", "tcp://a", "--to", "tcp://b", "--vnodes", "0"]),
        "--vnodes needs a positive integer"
    );
    assert_eq!(run_err(&["fleet", "rebalance", "--wat"]), "unknown fleet rebalance flag `--wat`");
}

/// `client --fleet` against two live in-process daemons: requests
/// shard deterministically, repeats hit the backends' caches, and a
/// dead replica in the list is ridden over by failover (with the
/// local cold fallback as the last resort).
///
/// The ring labels embed the daemons' ephemeral ports, so the split
/// changes from run to run. The documents are therefore chosen by
/// their computed home backend (the same ring `client --fleet` builds):
/// A owns one, B owns three, and every count below is exact.
#[test]
fn client_fleet_shards_and_rides_over_a_dead_backend() {
    use dsq_core::CanonicalKey;
    use dsq_server::{RemotePlanner, Server, ServerConfig};
    use dsq_service::{HashRing, Planner};
    let quick = ServerConfig::default();
    let server_a = Server::start(&ListenAddr::Tcp("127.0.0.1:0".into()), &quick).expect("a starts");
    let server_b = Server::start(&ListenAddr::Tcp("127.0.0.1:0".into()), &quick).expect("b starts");
    let spec = format!("{},{}", server_a.listen_addr(), server_b.listen_addr());
    let labels: Vec<String> = [server_a.listen_addr(), server_b.listen_addr()]
        .iter()
        .map(|addr| RemotePlanner::new((*addr).clone()).name().to_string())
        .collect();
    let ring = HashRing::new(&labels);

    let dir = std::env::temp_dir().join(format!("dsq-fleet-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create dir");
    // Documents each backend owns, [A, B].
    const OWNS: [usize; 2] = [1, 3];
    let mut files: Vec<String> = Vec::new();
    let mut owned = [0usize; 2];
    for seed in 0u64.. {
        if owned == OWNS {
            break;
        }
        let text =
            run_ok(&["generate", "--family", "clustered", "-n", "6", "--seed", &seed.to_string()]);
        let instance = parse_instance(&text).expect("generated instances parse");
        let home = ring.route(CanonicalKey::new(&instance, &Quantization::default()).fingerprint());
        if owned[home] == OWNS[home] {
            continue;
        }
        owned[home] += 1;
        let path = dir.join(format!("q{seed}.dsq"));
        std::fs::write(&path, text).expect("write instance");
        files.push(path.to_str().expect("utf8").to_string());
    }

    let mut args = vec!["client".to_string(), "--fleet".into(), spec.clone(), "optimize".into()];
    args.extend(files.iter().cloned());
    args.extend(["--repeat".to_string(), "2".into()]);
    let mut out = Vec::new();
    run(&args, &mut out).expect("fleet optimize succeeds");
    let text = String::from_utf8(out).expect("utf8");
    assert!(text.contains(" cold "), "first pass is cold:\n{text}");
    assert!(text.contains(" hit "), "second pass hits the backend caches:\n{text}");
    assert!(
        text.contains("fleet: 2 backends served 8 requests (2/6), 0 failovers, 0 local fallbacks"),
        "{text}"
    );
    // Each backend's cache saw exactly the requests the router sent it,
    // and each of its documents once cold and once as a hit.
    let (a, b) = (server_a.stats().cache, server_b.stats().cache);
    assert_eq!((a.requests(), a.misses, a.hits, a.warm_starts), (2, 1, 1, 0), "{a:?}");
    assert_eq!((b.requests(), b.misses, b.hits, b.warm_starts), (6, 3, 3, 0), "{b:?}");

    // Kill replica B: the same stream must still complete, riding
    // over the dead backend — each of B's three documents fails over
    // to A.
    let b_addr = server_b.listen_addr().clone();
    server_b.shutdown();
    let spec = format!("{},{b_addr}", server_a.listen_addr());
    let mut args = vec!["client".to_string(), "--fleet".into(), spec, "optimize".into()];
    args.extend(files.iter().cloned());
    let mut out = Vec::new();
    run(&args, &mut out).expect("fleet optimize survives a dead replica");
    let text = String::from_utf8(out).expect("utf8");
    assert!(
        text.contains("fleet: 2 backends served 4 requests (4/0), 3 failovers, 0 local fallbacks"),
        "{text}"
    );
    server_a.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// `client --fleet-config`: the backend list comes from a versioned
/// fleet-config file instead of `--fleet`, served through the same
/// consistent-hash router.
#[test]
fn client_fleet_config_routes_like_fleet() {
    use dsq_server::{Server, ServerConfig};
    let quick = ServerConfig::default();
    let server_a = Server::start(&ListenAddr::Tcp("127.0.0.1:0".into()), &quick).expect("a starts");
    let server_b = Server::start(&ListenAddr::Tcp("127.0.0.1:0".into()), &quick).expect("b starts");
    let dir = std::env::temp_dir().join(format!("dsq-fleet-config-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create dir");
    let config_path = dir.join("fleet.cfg");
    FleetConfig::new(1, [server_a.listen_addr().to_string(), server_b.listen_addr().to_string()])
        .expect("valid config")
        .store(&config_path)
        .expect("store config");

    let mut files: Vec<String> = Vec::new();
    for seed in 0..4u64 {
        let text =
            run_ok(&["generate", "--family", "clustered", "-n", "6", "--seed", &seed.to_string()]);
        let path = dir.join(format!("q{seed}.dsq"));
        std::fs::write(&path, text).expect("write instance");
        files.push(path.to_str().expect("utf8").to_string());
    }
    let mut args = vec![
        "client".to_string(),
        "--fleet-config".into(),
        config_path.to_str().expect("utf8").to_string(),
        "optimize".into(),
    ];
    args.extend(files.iter().cloned());
    args.extend(["--repeat".to_string(), "2".into()]);
    let mut out = Vec::new();
    run(&args, &mut out).expect("fleet-config optimize succeeds");
    let text = String::from_utf8(out).expect("utf8");
    assert!(text.contains(" cold "), "first round is cold:\n{text}");
    assert!(text.contains(" hit "), "second round hits:\n{text}");
    assert!(text.contains("fleet: 2 backends served 8 requests"), "{text}");
    server_a.shutdown();
    server_b.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// `fleet rebalance` between live daemons: grow a 2-backend fleet
/// to 3, move the warm partitions, and confirm a fleet client over
/// the new layout serves every key as a cache hit — the resize
/// recomputed nothing.
#[test]
fn fleet_rebalance_keeps_keys_warm_across_a_grow() {
    use dsq_server::{Server, ServerConfig};
    let quick = ServerConfig::default();
    let tcp = || ListenAddr::Tcp("127.0.0.1:0".into());
    let server_a = Server::start(&tcp(), &quick).expect("a starts");
    let server_b = Server::start(&tcp(), &quick).expect("b starts");
    let server_c = Server::start(&tcp(), &quick).expect("c starts");
    let old_spec = format!("{},{}", server_a.listen_addr(), server_b.listen_addr());
    let new_spec = format!("{old_spec},{}", server_c.listen_addr());

    let dir = std::env::temp_dir().join(format!("dsq-rebalance-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create dir");
    let mut files: Vec<String> = Vec::new();
    for seed in 0..16u64 {
        let text =
            run_ok(&["generate", "--family", "clustered", "-n", "6", "--seed", &seed.to_string()]);
        let path = dir.join(format!("q{seed}.dsq"));
        std::fs::write(&path, text).expect("write instance");
        files.push(path.to_str().expect("utf8").to_string());
    }
    // Warm the old fleet.
    let mut args =
        vec!["client".to_string(), "--fleet".into(), old_spec.clone(), "optimize".into()];
    args.extend(files.iter().cloned());
    let mut out = Vec::new();
    run(&args, &mut out).expect("warm the old fleet");

    // Move the partitions onto the grown layout.
    let text = run_ok(&["fleet", "rebalance", "--from", &old_spec, "--to", &new_spec]);
    assert!(text.contains("rebalance complete: moved"), "{text}");
    // Exports and inheritances must balance: nothing lost in flight.
    let count_after = |needle: &str| -> u64 {
        text.lines()
            .filter_map(|l| {
                let rest = l.split(needle).nth(1)?;
                rest.split_whitespace().next()?.parse::<u64>().ok()
            })
            .sum()
    };
    assert_eq!(count_after(" exported "), count_after(" inherited "), "{text}");

    // A fleet client over the new layout: every key is a hit.
    let mut args = vec!["client".to_string(), "--fleet".into(), new_spec, "optimize".into()];
    args.extend(files.iter().cloned());
    let mut out = Vec::new();
    run(&args, &mut out).expect("serve over the grown fleet");
    let text = String::from_utf8(out).expect("utf8");
    let hits = text.lines().filter(|l| l.contains(" hit ")).count();
    assert_eq!(hits, 16, "every key must stay warm across the grow:\n{text}");
    assert!(text.contains("0 failovers, 0 local fallbacks"), "{text}");
    server_a.shutdown();
    server_b.shutdown();
    server_c.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// `serve-batch --snapshot-out` refuses a path another live process
/// (here: this one) holds the lock for.
#[test]
fn serve_batch_refuses_a_locked_snapshot_path() {
    let dir = std::env::temp_dir().join(format!("dsq-lockout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create dir");
    let text = run_ok(&["generate", "--family", "clustered", "-n", "5", "--seed", "1"]);
    std::fs::write(dir.join("q.dsq"), text).expect("write instance");
    let snapshot = dir.join("plans.dsqc");
    let _held = SnapshotLock::acquire(&snapshot).expect("this process takes the lock");
    let message = run_err(&[
        "serve-batch",
        dir.to_str().expect("utf8"),
        "--snapshot-out",
        snapshot.to_str().expect("utf8"),
    ]);
    assert!(message.contains("locked by live process"), "{message}");
    drop(_held);
    std::fs::remove_dir_all(&dir).ok();
}

/// The observability verbs against a live daemon: `client metrics`
/// streams the exposition document and `client hold` prints the
/// held/dropped drain accounting.
#[test]
fn client_metrics_and_hold_against_a_live_daemon() {
    use dsq_server::{Server, ServerConfig};
    let quick = ServerConfig::default();
    let server = Server::start(&ListenAddr::Tcp("127.0.0.1:0".into()), &quick).expect("starts");
    let addr = server.listen_addr().to_string();

    let held = run_ok(&["client", "--tcp", trim_tcp(&addr), "hold", "8"]);
    assert!(held.contains("held 8 concurrent connections"), "{held}");
    assert!(held.contains("drained 8 held connections: 8 live, 0 dropped"), "{held}");

    let metrics = run_ok(&["client", "--tcp", trim_tcp(&addr), "metrics"]);
    assert!(metrics.starts_with("# dsq-metrics v1\n"), "{metrics}");
    assert!(metrics.contains("histogram server.stage.plan_ns "), "{metrics}");
    assert!(metrics.contains("counter server.serve.requests 0\n"), "{metrics}");
    server.shutdown();
}

/// `ListenAddr::Tcp` displays as `tcp://HOST:PORT`; the CLI's --tcp
/// flag takes the bare `HOST:PORT`.
fn trim_tcp(display: &str) -> &str {
    display.strip_prefix("tcp://").unwrap_or(display)
}

#[test]
fn help_prints_usage() {
    assert!(run_ok(&["--help"]).contains("usage:"));
    let mut out = Vec::new();
    run(&[], &mut out).expect("no-arg run prints usage");
    assert!(String::from_utf8(out).expect("utf8").contains("usage:"));
}
