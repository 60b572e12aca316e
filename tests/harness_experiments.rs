//! The experiment harness runs end to end in quick mode and its headline
//! numbers point the right way. These tests are the repository's "the
//! evaluation still reproduces" guard.

use dsq_harness::{all_experiments, run_experiment, ExperimentContext};

fn quick_ctx() -> ExperimentContext {
    ExperimentContext { quick: true, out_dir: None }
}

fn run_by_id(id: &str) -> Vec<dsq_harness::Table> {
    let registry = all_experiments();
    let experiment = registry.iter().find(|e| e.id == id).expect("known id");
    run_experiment(experiment, &quick_ctx())
}

#[test]
fn registry_is_complete() {
    let ids: Vec<&str> = all_experiments().iter().map(|e| e.id).collect();
    assert_eq!(
        ids,
        [
            "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13",
            "e14", "e15", "e16", "e17", "e18"
        ]
    );
}

#[test]
fn e1_reports_full_optimality() {
    let tables = run_by_id("e1");
    assert_eq!(tables.len(), 2);
    // Every row must report checks == matches.
    let csv = tables[0].to_csv();
    for line in csv.lines().skip(1) {
        let fields: Vec<&str> = line.split(',').collect();
        assert_eq!(fields[2], fields[3], "mismatch in row: {line}");
    }
}

#[test]
fn e3_shows_pruning_gains() {
    let tables = run_by_id("e3");
    assert!(!tables.is_empty());
    for table in &tables {
        let csv = table.to_csv();
        let rows: Vec<Vec<String>> =
            csv.lines().skip(1).map(|l| l.split(',').map(str::to_string).collect()).collect();
        let nodes: Vec<f64> = rows.iter().map(|r| r[1].parse().expect("numeric")).collect();
        // Paper config (row 3) never visits more nodes than L1-only (row 0).
        assert!(nodes[3] <= nodes[0], "paper config should not exceed incumbent-only: {nodes:?}");
        // Dominance (row 4) only skips subtrees of the paper search.
        assert!(nodes[4] <= nodes[3], "dominance should not exceed the paper config: {nodes:?}");
    }
}

#[test]
fn e6_gap_grows_with_heterogeneity() {
    let tables = run_by_id("e6");
    let csv = tables[0].to_csv();
    let gaps: Vec<f64> = csv
        .lines()
        .skip(1)
        .map(|l| l.split(',').nth(2).expect("gap column").parse().expect("numeric"))
        .collect();
    assert!((gaps[0] - 1.0).abs() < 1e-9, "factor 0 must have gap 1, got {}", gaps[0]);
    assert!(gaps.last().expect("rows") > &gaps[0], "gap should grow with spread: {gaps:?}");
}

#[test]
fn e5_simulator_agrees_with_the_model() {
    let tables = run_by_id("e5");
    let csv = tables[0].to_csv();
    for line in csv.lines().skip(1) {
        let ratio: f64 = line.split(',').nth(4).expect("ratio column").parse().expect("numeric");
        assert!((0.85..=1.1).contains(&ratio), "simulated/predicted ratio out of band: {line}");
    }
}

#[test]
fn e9_reduction_always_matches() {
    let tables = run_by_id("e9");
    let csv = tables[0].to_csv();
    for line in csv.lines().skip(1) {
        let fields: Vec<&str> = line.split(',').collect();
        assert_eq!(fields[1], fields[2], "B&B must match the BTSP solver: {line}");
    }
}

#[test]
fn e13_cache_serves_fast_and_within_tolerance() {
    // e13 itself asserts that every served plan's cost stays within the
    // validation tolerance of a fresh optimum; here we additionally check
    // the headline numbers point the right way.
    let tables = run_by_id("e13");
    let csv = tables[0].to_csv();
    let rows: Vec<Vec<String>> =
        csv.lines().skip(1).map(|l| l.split(',').map(str::to_string).collect()).collect();
    // Rows come in blocks of four per family: cold, then cached w{1,2,4}.
    assert_eq!(rows.len() % 4, 0);
    for block in rows.chunks(4) {
        let cold_rps: f64 = block[0][2].parse().expect("numeric req/s");
        assert!(cold_rps > 0.0);
        let hard_family = block[0][0].starts_with("btsp-hard");
        for cached in &block[1..] {
            let hit_rate: f64 = cached[4].parse().expect("numeric hit rate");
            assert!(hit_rate > 0.6, "drifting stream should mostly hit: {cached:?}");
            let max_dev: f64 = cached[8].parse().expect("numeric deviation");
            assert!(max_dev <= 0.05 + 1e-9, "served plans out of tolerance: {cached:?}");
            if hard_family {
                // Where optimization is expensive, the cache must win
                // clearly even at quick sizes (full mode shows ≥ 5×; the
                // margin here is loose because CI machines are noisy).
                let speedup: f64 =
                    cached[3].trim_end_matches('×').parse().expect("numeric speedup");
                assert!(speedup > 1.3, "cache must beat cold on the hard family: {cached:?}");
            }
        }
    }
}

#[test]
fn e14_daemon_soak_asserts_hold_and_report_the_right_shape() {
    // e14 bakes its own asserts in (tolerance of every socket-served
    // plan, warm-restart hit rate within 5 points, busy-not-stall under
    // a burst, boundary-walk hit-rate recovery); running it at quick
    // sizes is the regression guard. Check the table shapes on top.
    let tables = run_by_id("e14");
    assert_eq!(tables.len(), 3);
    // E14a: pre-restart and warm-restart rows.
    assert_eq!(tables[0].row_count(), 2);
    // E14c: the two-probe hit rate (row 1) beats single-probe (row 0).
    let csv = tables[2].to_csv();
    let hit_rates: Vec<f64> = csv
        .lines()
        .skip(1)
        .map(|l| l.split(',').nth(5).expect("hit-rate column").parse().expect("numeric"))
        .collect();
    assert!(hit_rates[1] > hit_rates[0] + 0.5, "multi-probe recovery: {hit_rates:?}");
}

#[test]
fn e15_fleet_partitioning_beats_the_single_server() {
    // e15 bakes its own asserts in (fleet hit rate ≥ single server,
    // exact failover accounting, per-request tolerance, fallback
    // coverage); running it at quick sizes is the regression guard.
    // Check the headline comparison on top.
    let tables = run_by_id("e15");
    assert_eq!(tables.len(), 2);
    let csv = tables[0].to_csv();
    let rows: Vec<Vec<String>> =
        csv.lines().skip(1).map(|l| l.split(',').map(str::to_string).collect()).collect();
    let single_rate: f64 = rows[0][5].parse().expect("numeric hit rate");
    let fleet_rate: f64 = rows[1][5].parse().expect("numeric hit rate");
    assert!(
        fleet_rate > single_rate + 0.5,
        "partitioning must decisively beat the thrashing single server: {single_rate} vs {fleet_rate}"
    );
}

#[test]
fn e16_tiered_serving_converges_and_meets_the_latency_bar() {
    // e16 bakes its own asserts in (greedy gap under the documented
    // bound, zero heuristic-tier entries after the drain, refinement
    // nodes ≤ cold nodes, ≥ 10× tier-1 speedup at n = 12); running it
    // at quick sizes is the regression guard. Check the headline
    // speedup column parses and clears the bar on top.
    let tables = run_by_id("e16");
    assert_eq!(tables.len(), 3);
    let csv = tables[2].to_csv();
    let row: Vec<&str> = csv.lines().nth(1).expect("one data row").split(',').collect();
    let speedup: f64 =
        row[3].trim_end_matches('×').parse().expect("numeric speedup before the × suffix");
    assert!(speedup >= 10.0, "tier-1 speedup column must report ≥ 10×, got {speedup}");
}

#[test]
fn e17_resilience_keeps_keys_warm_across_a_grow() {
    // e17 bakes its own asserts in (every pre-grow key still hits with
    // bit-identical cost after the handoff, exact breaker counter
    // accounting, typed-errors-only chaos with zero protocol errors);
    // running it at quick sizes is the regression guard. Check the
    // headline retention numbers on top.
    let tables = run_by_id("e17");
    assert_eq!(tables.len(), 3);
    let csv = tables[0].to_csv();
    let rows: Vec<Vec<String>> =
        csv.lines().skip(1).map(|l| l.split(',').map(str::to_string).collect()).collect();
    // Rows: cold fill, steady fleet of 2, first cycle after the grow.
    let steady_rate: f64 = rows[1][4].parse().expect("numeric hit rate");
    let post_grow_rate: f64 = rows[2][4].parse().expect("numeric hit rate");
    assert!(
        post_grow_rate >= steady_rate - 0.05,
        "the grow must not dent the hit rate by more than 5 points: {steady_rate} vs {post_grow_rate}"
    );
    assert!(post_grow_rate >= 0.5, "at least half the keys stay warm, got {post_grow_rate}");
    let moved: f64 = rows[2][5].parse().expect("numeric moved-keys count");
    assert!(moved >= 1.0, "the resize must actually move part of the keyspace");
}

#[test]
fn e18_telemetry_accounts_for_the_rtt_and_soaks_clean() {
    // e18 bakes its own asserts in (quantile estimates within the
    // documented relative-error bound, merge bit-equivalence, stage
    // means summing to the client RTT within the wire-and-wakeup slack,
    // zero protocol errors under the open-loop soak); running it at
    // quick sizes is the regression guard. Check the headline shapes on
    // top.
    let tables = run_by_id("e18");
    assert_eq!(tables.len(), 3);
    // Accuracy table: every probed quantile's error stayed under its
    // bound (columns: shape, quantile, exact, histogram, error, bound).
    for line in tables[0].to_csv().lines().skip(1) {
        let fields: Vec<&str> = line.split(',').collect();
        let error: f64 = fields[4].parse().expect("numeric error");
        let bound: f64 = fields[5].parse().expect("numeric bound");
        assert!(error <= bound, "quantile error past the bound in row: {line}");
    }
    // Soak table: one row per request class, all three classes driven.
    assert_eq!(tables[2].row_count(), 3);
}

#[test]
fn artifacts_are_written_when_requested() {
    let dir = std::env::temp_dir().join(format!("dsq-harness-test-{}", std::process::id()));
    let ctx = ExperimentContext { quick: true, out_dir: Some(dir.clone()) };
    let registry = all_experiments();
    let e6 = registry.iter().find(|e| e.id == "e6").expect("registered");
    run_experiment(e6, &ctx);
    assert!(dir.join("e6.md").exists());
    assert!(dir.join("e6.csv").exists());
    let md = std::fs::read_to_string(dir.join("e6.md")).expect("readable");
    assert!(md.contains("### E6"));
    std::fs::remove_dir_all(&dir).ok();
}
