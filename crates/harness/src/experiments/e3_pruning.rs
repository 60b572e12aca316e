//! E3 — Pruning effectiveness: per-lemma ablation of the search-space
//! reduction, the heart of the brief announcement's §3.

use crate::runner::{Experiment, ExperimentContext};
use crate::table::{cell_f64, cell_ms, Table};
use dsq_baselines::{greedy, GreedyKind};
use dsq_core::{optimize_with, BnbConfig, SearchStats};
use dsq_workloads::{Family, Sweep};
use std::time::Instant;

/// Registry entry.
pub fn experiment() -> Experiment {
    Experiment {
        id: "e3",
        title: "Per-lemma pruning ablation",
        claim: "\"the properties discussed in this work allow a branch-and-bound approach to be very efficient\" (abstract); Lemmas 1–3 (§3)",
        run,
    }
}

fn run(ctx: &ExperimentContext) -> Vec<Table> {
    let sizes: Vec<usize> = ctx.size(vec![10, 12], vec![9, 10]);
    let seeds: u64 = ctx.size(5, 2);
    let dominance = BnbConfig { use_dominance: true, ..BnbConfig::paper() };
    // The flag marks the row warm-started from the MinTransfer greedy plan;
    // its time includes building that plan.
    let configs: [(&str, BnbConfig, bool); 7] = [
        ("incumbent-only (L1)", BnbConfig::incumbent_only(), false),
        ("L1+L2 (no backjump)", BnbConfig::without_backjump(), false),
        ("L1+L3 (no ε̄)", BnbConfig::without_epsilon_bar(), false),
        ("paper (L1+L2+L3)", BnbConfig::paper(), false),
        ("paper + dominance", dominance.clone(), false),
        ("paper with loose ε̄", BnbConfig { tight_epsilon_bar: false, ..BnbConfig::paper() }, false),
        ("paper + greedy seed", BnbConfig::paper(), true),
    ];

    let mut tables = Vec::new();
    for family in [Family::UniformRandom, Family::Clustered, Family::BtspHard] {
        for &n in &sizes {
            let points = Sweep::new().families([family]).sizes([n]).seeds(0..seeds).build();
            if tables.is_empty() {
                // The thread's first dominance search allocates and zero-fills
                // its 256 KiB table inside the timed setup: pay that untimed.
                optimize_with(&points[0].instance, &dominance);
            }
            let mut table = Table::new(
                format!("E3: nodes visited by configuration ({}, n={n})", family.name()),
                [
                    "configuration",
                    "nodes (mean)",
                    "vs L1-only",
                    "closures",
                    "backjumps",
                    "dominated",
                    "time (mean)",
                    "setup µs",
                    "ns/node",
                ],
            );
            let mut baseline_nodes = 0.0f64;
            for (name, cfg, greedy_seed) in &configs {
                let mut nodes = 0u64;
                let mut closures = 0u64;
                let mut backjumps = 0u64;
                let mut dominated = 0u64;
                let mut elapsed = std::time::Duration::ZERO;
                // The search's own split of its time: setup (context,
                // roots, dominance table) and the node-by-node rest.
                let mut setup = std::time::Duration::ZERO;
                let mut searching = std::time::Duration::ZERO;
                for point in &points {
                    let t0 = Instant::now();
                    let result = if *greedy_seed {
                        let seed = greedy(&point.instance, GreedyKind::MinTransfer).plan().clone();
                        optimize_with(&point.instance, &cfg.clone().with_initial_incumbent(seed))
                    } else {
                        optimize_with(&point.instance, cfg)
                    };
                    elapsed += t0.elapsed();
                    nodes += result.stats().nodes_visited;
                    closures += result.stats().lemma2_closures;
                    backjumps += result.stats().backjumps;
                    dominated += result.stats().prunes_dominated;
                    setup += result.stats().setup;
                    searching += result.stats().elapsed.saturating_sub(result.stats().setup);
                }
                let mean_nodes = nodes as f64 / points.len() as f64;
                if *name == "incumbent-only (L1)" {
                    baseline_nodes = mean_nodes;
                }
                table.push_row([
                    name.to_string(),
                    cell_f64(mean_nodes, 1),
                    format!("{}x", cell_f64(baseline_nodes / mean_nodes.max(1.0), 2)),
                    (closures / points.len() as u64).to_string(),
                    (backjumps / points.len() as u64).to_string(),
                    (dominated / points.len() as u64).to_string(),
                    format!("{} ms", cell_ms(elapsed / points.len() as u32)),
                    cell_f64(setup.as_secs_f64() * 1e6 / points.len() as f64, 1),
                    cell_f64(searching.as_secs_f64() * 1e9 / nodes.max(1) as f64, 1),
                ]);
            }
            table.push_note(format!(
                "unpruned DFS would visit {} prefixes at n={n}; {seeds} seeds",
                SearchStats::unpruned_prefix_count(n)
            ));
            tables.push(table);
        }
    }
    tables
}
