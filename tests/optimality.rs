//! Cross-crate optimality tests: the branch-and-bound agrees with every
//! exact method on every workload family, under every ablation
//! configuration.

use service_ordering::baselines::{exhaustive, greedy, subset_dp, GreedyKind};
use service_ordering::core::{optimize_with, BnbConfig};
use service_ordering::workloads::{random_dag, Family, Sweep};

fn assert_close(a: f64, b: f64, what: &str) {
    assert!((a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0), "{what}: {a} vs {b}");
}

#[test]
fn bnb_matches_exact_methods_on_all_families() {
    let configs = [
        BnbConfig::paper(),
        BnbConfig::incumbent_only(),
        BnbConfig::without_epsilon_bar(),
        BnbConfig::without_backjump(),
    ];
    let points = Sweep::new().families(Family::ALL).sizes([3, 5, 7]).seeds(0..4).build();
    for point in points {
        let dp = subset_dp(&point.instance).expect("within limit");
        let brute = exhaustive(&point.instance).expect("within limit");
        assert_close(dp.cost(), brute.cost(), "dp vs exhaustive");
        for cfg in &configs {
            let result = optimize_with(&point.instance, cfg);
            assert!(result.is_proven_optimal());
            assert_close(
                result.cost(),
                dp.cost(),
                &format!("{} n={} seed={} cfg={cfg:?}", point.family.name(), point.n, point.seed),
            );
        }
    }
}

#[test]
fn bnb_matches_dp_with_precedence_constraints() {
    for n in [5, 7, 9] {
        for seed in 0..4 {
            for density in [0.15, 0.5] {
                let base = service_ordering::workloads::generate(Family::UniformRandom, n, seed);
                let inst = service_ordering::core::QueryInstance::builder()
                    .name("prec-test")
                    .services(base.services().to_vec())
                    .comm(base.comm().clone())
                    .precedence(random_dag(n, density, seed * 31 + n as u64))
                    .build()
                    .expect("valid");
                let dp = subset_dp(&inst).expect("within limit");
                let bnb = optimize_with(&inst, &BnbConfig::paper());
                assert_close(bnb.cost(), dp.cost(), &format!("n={n} seed={seed} d={density}"));
                assert!(bnb.plan().satisfies(inst.precedence().expect("present")));
                // A feasible warm-start seed keeps the optimum and the precedence.
                let seeded = BnbConfig::paper()
                    .with_initial_incumbent(greedy(&inst, GreedyKind::MinTransfer).plan().clone());
                let warm = optimize_with(&inst, &seeded);
                assert_eq!(warm.cost().to_bits(), bnb.cost().to_bits());
                assert!(warm.plan().satisfies(inst.precedence().expect("present")));
            }
        }
    }
}

#[test]
fn bnb_handles_larger_instances_against_dp() {
    // n = 13: far beyond exhaustive reach, still exact for the DP.
    for family in [Family::UniformRandom, Family::Clustered, Family::BtspHard] {
        for seed in 0..2 {
            let inst = service_ordering::workloads::generate(family, 13, seed);
            let dp = subset_dp(&inst).expect("within limit");
            let bnb = optimize_with(&inst, &BnbConfig::paper());
            assert_close(bnb.cost(), dp.cost(), &format!("{} seed {seed}", family.name()));
            assert!(
                bnb.stats().nodes_visited < 2_000_000,
                "search blew up: {} nodes",
                bnb.stats().nodes_visited
            );
        }
    }
}

#[test]
fn search_statistics_reflect_pruning_strength() {
    // The full configuration should never visit more nodes than the
    // incumbent-only ablation; aggregated over instances it should
    // visit strictly fewer on the hard family.
    let points = Sweep::new().families([Family::BtspHard]).sizes([9]).seeds(0..5).build();
    let mut full_total = 0u64;
    let mut weak_total = 0u64;
    for point in &points {
        let full = optimize_with(&point.instance, &BnbConfig::paper());
        let weak = optimize_with(&point.instance, &BnbConfig::incumbent_only());
        assert_close(full.cost(), weak.cost(), "ablations agree");
        assert!(full.stats().nodes_visited <= weak.stats().nodes_visited);
        full_total += full.stats().nodes_visited;
        weak_total += weak.stats().nodes_visited;
    }
    assert!(
        full_total < weak_total,
        "lemma pruning should help on BTSP-hard instances: {full_total} vs {weak_total}"
    );
}
