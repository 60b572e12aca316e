//! Bit-identity pins for the search and the tier-1 greedy.
//!
//! Performance work on the branch-and-bound node checks and on the
//! greedy heuristics must not change a single decision. These tests pin
//! what those decisions produce on fixed corpora:
//!
//! * exact [`SearchStats`] counters (nodes visited, Lemma-2 closures,
//!   back-jumps, candidates) plus an FNV-1a digest of every plan and cost
//!   bit pattern, for the paper configuration and its loose-`ε̄` variant
//!   on btsp-hard n = 12 — a changed count means a node check decided
//!   differently;
//! * an FNV-1a digest of the plans, cost bits and winning rules of
//!   [`fast_greedy`], [`best_greedy`] and every [`greedy`] rule over
//!   btsp-hard, clustered and precedence-constrained instances.
//!
//! The constants were recorded before the node checks gained their early
//! exits and before the greedy chains gained buffer reuse and
//! abandonment. Regenerate them only after deciding deliberately that
//! the search or the heuristics may change their answers.

use service_ordering::baselines::{best_greedy, fast_greedy, greedy, GreedyKind, GreedyResult};
use service_ordering::core::{optimize_with, BnbConfig, Fnv1a, QueryInstance, SearchStats};
use service_ordering::workloads::{generate, random_dag, Family};

/// Counters pinned per configuration, summed over the corpus.
#[derive(Debug, Default, PartialEq, Eq)]
struct Totals {
    nodes_visited: u64,
    lemma2_closures: u64,
    backjumps: u64,
    candidates_recorded: u64,
    prunes_dominated: u64,
}

impl Totals {
    fn add(&mut self, stats: &SearchStats) {
        self.nodes_visited += stats.nodes_visited;
        self.lemma2_closures += stats.lemma2_closures;
        self.backjumps += stats.backjumps;
        self.candidates_recorded += stats.candidates_recorded;
        self.prunes_dominated += stats.prunes_dominated;
    }
}

/// Runs `config` over the corpus: the counter totals and a digest of
/// every per-instance counter, plan index and cost bit pattern.
fn search_fingerprint(corpus: &[QueryInstance], config: &BnbConfig) -> (Totals, u64) {
    let mut totals = Totals::default();
    let mut h = Fnv1a::new();
    for instance in corpus {
        let result = optimize_with(instance, config);
        let stats = result.stats();
        assert!(stats.proven_optimal);
        totals.add(stats);
        for counter in [
            stats.nodes_visited,
            stats.nodes_expanded,
            stats.candidates_recorded,
            stats.lemma2_closures,
            stats.backjumps,
            stats.backjump_levels_saved,
            stats.prunes_incumbent,
            // The slot of the deleted completion-lower-bound prune counter,
            // which was 0 for both configurations: hashing a literal 0
            // keeps the recorded digests.
            0u64,
            stats.roots_explored,
            stats.roots_pruned,
        ] {
            h.write_u64(counter);
        }
        for i in result.plan().indices() {
            h.write_u64(i as u64);
        }
        h.write_f64_bits(result.cost());
    }
    (totals, h.finish())
}

#[test]
fn search_stats_are_pinned_on_btsp_hard_n12() {
    let corpus: Vec<QueryInstance> =
        (0..24).map(|seed| generate(Family::BtspHard, 12, 900 + seed)).collect();
    let cases: [(&str, BnbConfig, Totals, u64); 2] = [
        (
            "paper",
            BnbConfig::paper(),
            Totals {
                nodes_visited: 62871,
                lemma2_closures: 162,
                backjumps: 204,
                candidates_recorded: 204,
                prunes_dominated: 0,
            },
            0xE827AB9B382159DA,
        ),
        (
            "paper with loose ε̄",
            BnbConfig { tight_epsilon_bar: false, ..BnbConfig::paper() },
            Totals {
                nodes_visited: 63035,
                lemma2_closures: 0,
                backjumps: 204,
                candidates_recorded: 204,
                prunes_dominated: 0,
            },
            0xEF4DF95BF36A2540,
        ),
    ];
    let drifted: Vec<String> = cases
        .iter()
        .filter_map(|(name, config, totals, digest)| {
            let (actual, actual_digest) = search_fingerprint(&corpus, config);
            (actual != *totals || actual_digest != *digest)
                .then(|| format!("{name}: {actual:?}, digest 0x{actual_digest:016X}"))
        })
        .collect();
    assert!(drifted.is_empty(), "search decisions changed:\n{}", drifted.join("\n"));
}

/// Prefix dominance, closed records included, changes node counts only:
/// on the same corpus every plan and cost bit equals `paper()`'s, and
/// the totals of the serving configuration are pinned.
#[test]
fn dominance_keeps_every_paper_plan_on_btsp_hard_n12() {
    let mut totals = Totals::default();
    for seed in 0..24 {
        let instance = generate(Family::BtspHard, 12, 900 + seed);
        let paper = optimize_with(&instance, &BnbConfig::paper());
        let dominated =
            optimize_with(&instance, &BnbConfig { use_dominance: true, ..BnbConfig::paper() });
        assert_eq!(dominated.plan(), paper.plan(), "seed {}", 900 + seed);
        assert_eq!(dominated.cost().to_bits(), paper.cost().to_bits(), "seed {}", 900 + seed);
        assert!(dominated.is_proven_optimal());
        totals.add(dominated.stats());
    }
    let expected = Totals {
        nodes_visited: 45212,
        lemma2_closures: 162,
        backjumps: 204,
        candidates_recorded: 204,
        prunes_dominated: 6295,
    };
    assert_eq!(totals, expected, "dominance pruned differently");
}

fn write_greedy(h: &mut Fnv1a, result: &GreedyResult) {
    for i in result.plan().indices() {
        h.write_u64(i as u64);
    }
    h.write_f64_bits(result.cost());
    let kind = GreedyKind::ALL.iter().position(|&k| k == result.kind()).expect("a listed rule");
    h.write_u64(kind as u64);
}

#[test]
fn greedy_plans_are_pinned() {
    let mut corpus: Vec<QueryInstance> = Vec::new();
    for family in [Family::BtspHard, Family::Clustered] {
        for n in [3usize, 6, 9, 12, 16] {
            for seed in 0..4 {
                corpus.push(generate(family, n, 40 + seed));
            }
        }
    }
    // Precedence constraints exercise the readiness checks of the chains.
    for n in [6usize, 9, 12] {
        for seed in 0..4 {
            let base = generate(Family::Clustered, n, 60 + seed);
            corpus.push(
                QueryInstance::builder()
                    .services(base.services().to_vec())
                    .comm(base.comm().clone())
                    .precedence(random_dag(n, 0.3, 80 + seed))
                    .build()
                    .expect("a random DAG is acyclic"),
            );
        }
    }

    let mut h = Fnv1a::new();
    for instance in &corpus {
        write_greedy(&mut h, &fast_greedy(instance));
        write_greedy(&mut h, &best_greedy(instance));
        for kind in GreedyKind::ALL {
            write_greedy(&mut h, &greedy(instance, kind));
        }
    }
    let digest = h.finish();
    assert_eq!(digest, 0x737BFCBDD1526564, "greedy plans changed: digest 0x{digest:016X}");
}
