//! E16 — Tiered anytime serving (extension): a greedy heuristic tier
//! answers cache misses in microseconds while background refinement
//! converges the cache to exact plans. Three claims under test: the
//! heuristic's worst-case optimality gap on the netsim corpus stays
//! within a documented bound, a drifting request stream's steady-state
//! cache contents converge to exact after a drain, and the
//! incumbent-warm-started refinements visit no more branch-and-bound
//! nodes than cold searches over the same instances.

use crate::experiments::{fastest_of, TIMING_REPS};
use crate::runner::{Experiment, ExperimentContext};
use crate::table::{cell_f64, Table};
use dsq_baselines::fast_greedy;
use dsq_core::{optimize_with, BnbConfig, QueryInstance};
use dsq_netsim::{clustered, euclidean, hub_spoke, last_mile, uniform_random, Topology};
use dsq_service::{CacheConfig, PlanCache, Planner, TieredConfig, TieredPlanner};
use dsq_workloads::{generate, DriftConfig, DriftStream, Family};
use std::num::NonZeroUsize;
use std::sync::Arc;

/// Documented worst-case bound on the greedy tier's relative optimality
/// gap (`heuristic / optimal − 1`) over the netsim corpus below. The
/// worst measured gap at n = 12 is ≈ 0.26, on a clustered topology
/// whose expensive inter-cluster links punish the greedy chain's
/// one-step outlook; the single-scale regimes (euclidean, hub-spoke,
/// uniform-random) sit at or near zero. The bound is what a tier-1
/// answer guarantees *before* its refinement lands — after the drain
/// every served plan is exact.
const GAP_BOUND: f64 = 0.5;

/// Minimum cold-exact / tier-1 latency ratio asserted on the btsp-hard
/// instances (the acceptance bar is ≥ 10× at n = 12; the measured
/// ratio is around 15–20×: a ~40 µs serve path against a cold search
/// in the several-hundred-µs range).
const MIN_SPEEDUP: f64 = 10.0;

/// Registry entry.
pub fn experiment() -> Experiment {
    Experiment {
        id: "e16",
        title: "Tiered anytime serving: heuristic gap, convergence, refinement pruning (extension)",
        claim: "serving-layer extension: answering misses with a precedence-respecting cubic greedy plan cuts tier-1 latency an order of magnitude below the cold exact search at a bounded optimality gap, and background refinements warm-started from that plan converge the cache to exact while visiting no more nodes than cold searches",
        run,
    }
}

/// The netsim corpus: every topology family paired with the clustered
/// workload's heterogeneous services, a few seeds each.
fn netsim_corpus(n: usize, seeds: u64) -> Vec<(String, QueryInstance)> {
    let mut corpus = Vec::new();
    for seed in 0..seeds {
        let topologies: [Topology; 5] = [
            euclidean(n, 100.0, 1.0, 0.1, 100 + seed),
            clustered(n, 3, 1.0, 10.0, 0.2, 200 + seed),
            hub_spoke(n, 3, 1.0, 5.0, 300 + seed),
            last_mile(n, (1.0, 5.0), (0.1, 0.5), 400 + seed),
            uniform_random(n, 1.0, 10.0, false, 500 + seed),
        ];
        let base = generate(Family::Clustered, n, seed);
        for topology in topologies {
            let name = topology.name().to_string();
            let instance = QueryInstance::builder()
                .name(format!("e16-{name}-s{seed}"))
                .services(base.services().to_vec())
                .comm(topology.into_comm())
                .build()
                .expect("corpus instances are valid");
            corpus.push((name, instance));
        }
    }
    corpus
}

fn run(ctx: &ExperimentContext) -> Vec<Table> {
    let n: usize = ctx.size(12, 9);
    let seeds: u64 = ctx.size(5, 2);
    let config = BnbConfig::paper();

    // The latency/pruning table ignores the quick knob: the ≥ 10×
    // bar is defined at n = 12, where the exponential cold search
    // and the cubic greedy actually separate (at n = 9 the cold search
    // itself is only a few tens of microseconds), and the whole table
    // costs single-digit milliseconds anyway.
    vec![
        gap_table(n, seeds, &config),
        convergence_table(ctx, n, &config),
        refinement_table(12, 5, &config),
    ]
}

/// Worst-case greedy gap per topology family, asserted under the
/// documented bound.
fn gap_table(n: usize, seeds: u64, config: &BnbConfig) -> Table {
    let mut table = Table::new(
        format!("E16a: greedy-tier optimality gap on the netsim corpus, n = {n}, {seeds} seeds per topology"),
        ["topology", "instances", "mean gap", "max gap"],
    );
    let corpus = netsim_corpus(n, seeds);
    let mut worst_overall = 0.0f64;
    for family in ["euclidean", "clustered", "hub-spoke", "last-mile", "uniform-random"] {
        let mut gaps = Vec::new();
        for (_, instance) in corpus.iter().filter(|(name, _)| name == family) {
            let greedy = fast_greedy(instance);
            let exact = optimize_with(instance, config);
            assert!(
                greedy.cost() >= exact.cost() - 1e-9 * exact.cost().abs().max(1.0),
                "the greedy plan upper-bounds the optimum on {}",
                instance.name()
            );
            gaps.push((greedy.cost() - exact.cost()) / exact.cost().abs().max(f64::MIN_POSITIVE));
        }
        let max = gaps.iter().copied().fold(0.0f64, f64::max);
        worst_overall = worst_overall.max(max);
        table.push_row([
            family.to_string(),
            gaps.len().to_string(),
            cell_f64(gaps.iter().sum::<f64>() / gaps.len() as f64, 3),
            cell_f64(max, 3),
        ]);
    }
    assert!(
        worst_overall <= GAP_BOUND,
        "worst greedy gap {worst_overall:.3} exceeds the documented bound {GAP_BOUND}"
    );
    table.push_note(format!(
        "gap = greedy bottleneck cost / true optimum − 1; worst case {worst_overall:.3} is within the documented tier-1 bound {GAP_BOUND}"
    ));
    table
}

/// A drifting stream served through the tiered planner: tier-1 answers
/// arrive while refinement runs behind; after the drain the steady-state
/// cache holds exact plans only.
fn convergence_table(ctx: &ExperimentContext, n: usize, config: &BnbConfig) -> Table {
    let requests: usize = ctx.size(160, 32);
    let mut table = Table::new(
        format!("E16b: tiered serving of a drifting stream, n = {n}, {requests} requests over 8 base queries"),
        ["family", "tier-1 answers", "refined", "skipped", "dropped", "heur entries after drain", "mean gap", "max gap"],
    );
    for family in [Family::BtspHard, Family::Clustered] {
        let cache = Arc::new(PlanCache::new(CacheConfig::default()));
        let planner = TieredPlanner::new(Arc::clone(&cache), config.clone());
        for instance in DriftStream::new(DriftConfig::new(family, n, 29, requests)) {
            planner.plan(&instance).expect("tiered planners are infallible");
        }
        planner.drain();
        let stats = planner.tiered_stats();
        let heuristic_entries = cache.stats().heuristic_entries;
        assert_eq!(
            heuristic_entries,
            0,
            "after the drain the {} cache must hold exact plans only",
            family.name()
        );
        assert!(stats.refined > 0, "the stream's misses must trigger refinements");
        table.push_row([
            family.name().to_string(),
            stats.heuristic_served.to_string(),
            stats.refined.to_string(),
            stats.refine_skipped.to_string(),
            stats.refine_dropped.to_string(),
            heuristic_entries.to_string(),
            cell_f64(stats.mean_gap(), 3),
            cell_f64(stats.max_gap, 3),
        ]);
    }
    table.push_note(
        "every request is answered immediately (misses at the greedy tier); the drain lands all queued refinements, after which zero heuristic-tier entries remain — the steady-state cache serves exact plans",
    );
    table
}

/// Tier-1 miss latency vs the cold exact search, and refinement node
/// counts vs cold node counts, on distinct btsp-hard instances.
fn refinement_table(n: usize, seeds: u64, config: &BnbConfig) -> Table {
    let instances: Vec<QueryInstance> =
        (0..seeds).map(|s| generate(Family::BtspHard, n, 700 + s)).collect();

    // Cold reference: a fresh exact search per instance.
    let (_, cold_nodes, cold_elapsed) = fastest_of(
        || (),
        |_| -> u64 {
            instances
                .iter()
                .map(|instance| optimize_with(instance, config).stats().nodes_visited)
                .sum()
        },
    );

    // Tier-1 miss latency, measured with refinement disabled (queue
    // capacity 0 drops every job) so the background worker does not
    // contend for the core mid-measurement. Each repetition gets a
    // fresh cache, so every request is a miss.
    let latency_only = TieredConfig {
        refine_workers: NonZeroUsize::new(1).expect("non-zero literal"),
        queue_capacity: 0,
    };
    let (_, tiers, tier1_elapsed) = fastest_of(
        || {
            let cache = Arc::new(PlanCache::new(CacheConfig::default()));
            TieredPlanner::with_config(cache, config.clone(), latency_only.clone())
        },
        |planner| -> Vec<_> {
            instances
                .iter()
                .map(|instance| {
                    planner.plan(instance).expect("tiered planners are infallible").tier
                })
                .collect()
        },
    );
    assert!(
        tiers.iter().all(|&tier| tier == dsq_service::PlanTier::Heuristic),
        "every request is a miss"
    );

    // Refinement node counts: a fresh tiered planner serves the same
    // misses, then drains, so every instance is refined exactly once
    // from its greedy incumbent.
    let cache = Arc::new(PlanCache::new(CacheConfig::default()));
    let refining = TieredPlanner::new(Arc::clone(&cache), config.clone());
    for instance in &instances {
        refining.plan(instance).expect("tiered planners are infallible");
    }
    refining.drain();
    let stats = refining.tiered_stats();
    assert_eq!(stats.refined, instances.len() as u64, "each distinct miss refines once");
    assert!(
        stats.refine_nodes <= cold_nodes,
        "warm-started refinements visited {} nodes, more than the {} cold nodes",
        stats.refine_nodes,
        cold_nodes
    );

    let cold_ms = cold_elapsed.as_secs_f64() * 1e3 / instances.len() as f64;
    let tier1_us = tier1_elapsed.as_secs_f64() * 1e6 / instances.len() as f64;
    let speedup = (cold_elapsed.as_secs_f64() / tier1_elapsed.as_secs_f64()).max(0.0);
    assert!(
        speedup >= MIN_SPEEDUP,
        "tier-1 misses must answer at least {MIN_SPEEDUP}x faster than cold exact searches, got {speedup:.1}x"
    );

    let mut table = Table::new(
        format!("E16c: tier-1 miss latency and refinement pruning, btsp-hard, n = {n}"),
        [
            "instances",
            "cold mean ms",
            "tier-1 mean us",
            "speedup",
            "cold nodes",
            "refine nodes",
            "node ratio",
        ],
    );
    table.push_row([
        instances.len().to_string(),
        cell_f64(cold_ms, 3),
        cell_f64(tier1_us, 1),
        format!("{speedup:.0}×"),
        cold_nodes.to_string(),
        stats.refine_nodes.to_string(),
        cell_f64(stats.refine_nodes as f64 / cold_nodes.max(1) as f64, 3),
    ]);
    table.push_note(format!(
        "cold and tier-1 times are the fastest of {TIMING_REPS} runs over all instances; tier-1 latency is the full serve path (fingerprint, probe, greedy) with refinement disabled; refine nodes = branch-and-bound nodes across background refinements warm-started from the greedy incumbent, never more than the cold searches' nodes"
    ));
    table
}
