//! **Reference oracle** for the guiding measure of the search, `ε̄`.
//!
//! The production search evaluates `ε̄` through the incremental engine in
//! [`context`](super::context) (flat arrays, pre-sorted transfer rows,
//! `O(1)` product maintenance). This module keeps the original
//! closed-form, recompute-from-scratch implementation — compiled only for
//! tests — as the executable specification: the property tests in
//! `context` pin the incremental engine to it within `1e-12` across
//! random push/pop/rewind sequences, and the tests at the bottom of this
//! file prove the definition itself sound against random completions.
//!
//! Notation: the current partial plan `C` has last service `u`;
//! `prefix_last = Π σ` over the services *before* `u`; `R` is the set of
//! services not yet placed.

use crate::bitset::BitSet;
use crate::instance::QueryInstance;

/// Upper bound `ε̄` on the cost of any term not yet finalized in any
/// completion of the current partial plan (Lemma 2's companion measure).
///
/// Three ingredients, each a sound over-approximation:
///
/// * the last placed service `u` completes with some successor in `R`, so
///   its term is at most `prefix_last · (c_u + σ_u · max_{l∈R} t_{u,l})`;
/// * a remaining service `j` sees at most
///   `P · Π_{k∈R∖{j}, σ_k>1} σ_k` tuples, where `P = prefix_last · σ_u`
///   (the paper's "slightly modified" computation for selectivities above
///   one — with all `σ ≤ 1` the inflation factor is 1 and this reduces to
///   `P`, exactly the brief announcement's measure);
/// * `j`'s outgoing transfer goes to a service in `R∖{j}` or to the sink.
///
/// With `tight == false` the per-service transfer maxima are taken from
/// `row_max` (precomputed over *all* services), trading bound quality for
/// `O(|R|)` instead of `O(|R|²)` work per node.
///
/// # Panics
///
/// Debug builds assert `R` is non-empty (callers only need `ε̄` for
/// incomplete plans).
pub(crate) fn epsilon_bar(
    inst: &QueryInstance,
    placed: &BitSet,
    last: usize,
    prefix_last: f64,
    tight: bool,
    row_max: &[f64],
) -> f64 {
    let n = inst.len();
    debug_assert!(placed.len() < n, "epsilon_bar is only defined for incomplete plans");
    let p = prefix_last * inst.selectivity(last);

    // Inflation: product of remaining selectivities above one.
    let mut inflation = 1.0;
    for j in 0..n {
        if !placed.contains(j) && inst.selectivity(j) > 1.0 {
            inflation *= inst.selectivity(j);
        }
    }

    // Last service's not-yet-finalized term: successor must be in R.
    let mut max_t_last = 0.0_f64;
    if tight {
        for l in 0..n {
            if !placed.contains(l) {
                max_t_last = max_t_last.max(inst.transfer(last, l));
            }
        }
    } else {
        max_t_last = row_max[last];
    }
    let mut bound = prefix_last * (inst.cost(last) + inst.selectivity(last) * max_t_last);

    for (j, &loose_max) in row_max.iter().enumerate() {
        if placed.contains(j) {
            continue;
        }
        let sigma_j = inst.selectivity(j);
        let max_out = if tight {
            let mut m = inst.sink_cost(j);
            for l in 0..n {
                if l != j && !placed.contains(l) {
                    m = m.max(inst.transfer(j, l));
                }
            }
            m
        } else {
            loose_max
        };
        let inflation_j = if sigma_j > 1.0 { inflation / sigma_j } else { inflation };
        bound = bound.max(p * inflation_j * (inst.cost(j) + sigma_j * max_out));
    }
    bound
}

/// Precomputes, for every service `j`, the largest possible outgoing
/// per-tuple transfer `max(max_{l≠j} t_{j,l}, sink_j)` — the loose-mode
/// row maxima for [`epsilon_bar`].
pub(crate) fn row_maxima(inst: &QueryInstance) -> Vec<f64> {
    let n = inst.len();
    (0..n)
        .map(|j| {
            let mut m = inst.sink_cost(j);
            for l in 0..n {
                if l != j {
                    m = m.max(inst.transfer(j, l));
                }
            }
            m
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::CommMatrix;
    use crate::cost::cost_terms;
    use crate::plan::Plan;
    use crate::service::Service;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    fn random_instance(rng: &mut StdRng, n: usize, proliferative: bool) -> QueryInstance {
        let services: Vec<Service> = (0..n)
            .map(|_| {
                let sigma_max = if proliferative { 3.0 } else { 1.0 };
                Service::new(rng.gen_range(0.01..5.0), rng.gen_range(0.05..sigma_max))
            })
            .collect();
        let comm =
            CommMatrix::from_fn(n, |i, j| if i == j { 0.0 } else { rng.gen_range(0.0..4.0) });
        let sink: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        QueryInstance::builder().services(services).comm(comm).sink(sink).build().unwrap()
    }

    /// For random prefixes and random completions, every term introduced by
    /// the completion is bounded by `ε̄`.
    #[test]
    fn bounds_bracket_random_completions() {
        let mut rng = StdRng::seed_from_u64(42);
        for trial in 0..300 {
            let n = rng.gen_range(3..8);
            let inst = random_instance(&mut rng, n, trial % 2 == 0);
            let row_max = row_maxima(&inst);

            let mut order: Vec<usize> = (0..n).collect();
            order.shuffle(&mut rng);
            let split = rng.gen_range(1..n); // at least 1 placed, at least 1 remaining

            let mut placed = BitSet::new(n);
            let mut prefix_last = 1.0;
            for &s in &order[..split - 1] {
                prefix_last *= inst.selectivity(s);
            }
            for &s in &order[..split] {
                placed.insert(s);
            }
            let last = order[split - 1];

            let ebar_tight = epsilon_bar(&inst, &placed, last, prefix_last, true, &row_max);
            let ebar_loose = epsilon_bar(&inst, &placed, last, prefix_last, false, &row_max);
            assert!(
                ebar_loose >= ebar_tight - 1e-9,
                "loose bound must dominate tight: {ebar_loose} vs {ebar_tight}"
            );

            let plan = Plan::new(order.clone()).unwrap();
            let terms = cost_terms(&inst, &plan);
            // Terms introduced at or after the prefix boundary (the last
            // placed service's term is finalized by the completion too).
            let new_term_max = terms[split - 1..].iter().map(|t| t.term).fold(0.0_f64, f64::max);
            assert!(
                ebar_tight >= new_term_max - 1e-9,
                "ε̄ {ebar_tight} must dominate completion terms {new_term_max} (trial {trial})"
            );
        }
    }

    #[test]
    fn epsilon_bar_reduces_to_paper_form_for_selective_services() {
        // All σ ≤ 1 → inflation factor 1: ε̄ = max(last-term bound,
        // P · max_j (c_j + σ_j max_t)). Hand-check a tiny case.
        let inst = QueryInstance::from_parts(
            vec![Service::new(1.0, 0.5), Service::new(2.0, 0.5), Service::new(3.0, 0.5)],
            CommMatrix::uniform(3, 2.0),
        )
        .unwrap();
        let row_max = row_maxima(&inst);
        let mut placed = BitSet::new(3);
        placed.insert(0);
        // C = [WS0]: prefix_last = 1, P = 0.5.
        // last bound: 1·(1 + 0.5·2) = 2.
        // WS1: 0.5·(2 + 0.5·2) = 1.5;  WS2: 0.5·(3 + 1) = 2.
        let ebar = epsilon_bar(&inst, &placed, 0, 1.0, true, &row_max);
        assert!((ebar - 2.0).abs() < 1e-12);
    }

    #[test]
    fn row_maxima_include_sink() {
        let inst = QueryInstance::builder()
            .services(vec![Service::new(1.0, 1.0), Service::new(1.0, 1.0)])
            .comm(CommMatrix::uniform(2, 0.5))
            .sink(vec![9.0, 0.0])
            .build()
            .unwrap();
        let maxima = row_maxima(&inst);
        assert_eq!(maxima[0], 9.0);
        assert_eq!(maxima[1], 0.5);
    }
}
