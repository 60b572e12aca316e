//! Greedy construction heuristics.
//!
//! Fast `O(n³)` comparators for the plan-quality experiment (E4). All
//! variants build the plan left to right over every feasible starting
//! service and keep the best chain.

use dsq_core::{BitSet, Plan, QueryInstance};

/// The rule a greedy chain uses to pick the next service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GreedyKind {
    /// Append the service with the cheapest transfer from the current last
    /// service — the expansion order of the branch-and-bound search run
    /// without any backtracking.
    MinTransfer,
    /// Append the service minimizing the term it finalizes for the current
    /// last service, `prefix · (c_u + σ_u · t_{u,j})`. Coincides with
    /// [`GreedyKind::MinTransfer`] except for tie handling, since `j`
    /// enters only through `t_{u,j}`; kept separate for documentation
    /// value in reports.
    MinCompletedTerm,
    /// Append the service whose own tentative term
    /// `prefix · σ_u · (c_j + σ_j · min_l t_{j,l})` is smallest — a
    /// look-ahead flavour charging the newcomer its optimistic future.
    MinTentativeTerm,
}

impl GreedyKind {
    /// All variants, for sweeps.
    pub const ALL: [GreedyKind; 3] =
        [GreedyKind::MinTransfer, GreedyKind::MinCompletedTerm, GreedyKind::MinTentativeTerm];

    /// The cubic variants only. [`GreedyKind::MinTentativeTerm`]'s
    /// look-ahead scans every unplaced successor per candidate, an extra
    /// factor of `n`, which makes it the dominant cost of
    /// [`best_greedy`]; latency-critical callers (the tiered serving
    /// path) restrict themselves to this subset via [`fast_greedy`].
    pub const FAST: [GreedyKind; 2] = [GreedyKind::MinTransfer, GreedyKind::MinCompletedTerm];
}

/// Result of a greedy construction.
#[derive(Debug, Clone)]
pub struct GreedyResult {
    plan: Plan,
    cost: f64,
    kind: GreedyKind,
}

impl GreedyResult {
    /// The constructed plan.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Its bottleneck cost.
    pub fn cost(&self) -> f64 {
        self.cost
    }

    /// Which rule produced it.
    pub fn kind(&self) -> GreedyKind {
        self.kind
    }
}

/// Builds a plan greedily with the given rule, trying every feasible
/// starting service and returning the cheapest complete chain.
///
/// # Examples
///
/// ```
/// use dsq_baselines::{greedy, GreedyKind};
/// use dsq_core::{CommMatrix, QueryInstance, Service};
///
/// let inst = QueryInstance::from_parts(
///     vec![Service::new(1.0, 0.5), Service::new(2.0, 0.5), Service::new(3.0, 0.5)],
///     CommMatrix::uniform(3, 0.1),
/// )?;
/// let result = greedy(&inst, GreedyKind::MinTransfer);
/// assert_eq!(result.plan().len(), 3);
/// assert!(result.cost().is_finite());
/// # Ok::<(), dsq_core::ModelError>(())
/// ```
pub fn greedy(instance: &QueryInstance, kind: GreedyKind) -> GreedyResult {
    best_of_kinds(instance, &[kind])
}

/// The best result across [`GreedyKind::ALL`].
pub fn best_greedy(instance: &QueryInstance) -> GreedyResult {
    best_of_kinds(instance, &GreedyKind::ALL)
}

/// The best result across [`GreedyKind::FAST`] — strictly `O(n³)`,
/// roughly half the latency of [`best_greedy`] at n = 12. This is the
/// tier-1 heuristic of the serving layer's tiered planner; E16 measures
/// its optimality gap.
pub fn fast_greedy(instance: &QueryInstance) -> GreedyResult {
    best_of_kinds(instance, &GreedyKind::FAST)
}

/// The cheapest chain over `kinds` and every feasible start; on equal
/// costs the earlier kind, then the earlier start, wins.
///
/// Each kind only has to beat the best chain so far, so its chains are
/// abandoned as soon as their running bottleneck reaches that cost. The
/// bound is carried across kinds only while it is positive: for
/// non-negative costs `total_cmp` and `<` then agree, so the result is
/// the one per-kind runs compared with `total_cmp` would pick.
fn best_of_kinds(instance: &QueryInstance, kinds: &[GreedyKind]) -> GreedyResult {
    let mut chains = ChainBuilder::new(instance);
    let mut best: Option<GreedyResult> = None;
    for &kind in kinds {
        let bound =
            best.as_ref().map_or(f64::NAN, |b| if b.cost > 0.0 { b.cost } else { f64::NAN });
        if let Some((order, cost)) = chains.best(kind, bound) {
            if best.as_ref().is_none_or(|b| cost.total_cmp(&b.cost).is_lt()) {
                let plan = Plan::new(order).expect("chain is a permutation");
                best = Some(GreedyResult { plan, cost, kind });
            }
        }
    }
    best.expect("acyclic precedence admits a start")
}

/// Builds greedy chains into reused buffers, folding each chain's
/// bottleneck cost (Eq. 1, with [`bottleneck_cost`]'s exact arithmetic)
/// while it grows.
///
/// [`bottleneck_cost`]: dsq_core::bottleneck_cost
struct ChainBuilder<'a> {
    instance: &'a QueryInstance,
    order: Vec<usize>,
    placed: BitSet,
}

impl<'a> ChainBuilder<'a> {
    fn new(instance: &'a QueryInstance) -> Self {
        let n = instance.len();
        ChainBuilder { instance, order: Vec::with_capacity(n), placed: BitSet::new(n) }
    }

    /// The cheapest `kind` chain over every feasible start that costs
    /// less than `bound` (a NaN `bound` admits any first chain); the
    /// earliest start wins ties.
    fn best(&mut self, kind: GreedyKind, mut bound: f64) -> Option<(Vec<usize>, f64)> {
        let mut best: Option<Vec<usize>> = None;
        for start in 0..self.instance.len() {
            if self.instance.precedence().is_some_and(|dag| !dag.predecessors(start).is_empty()) {
                continue;
            }
            if let Some(cost) = self.build(start, kind, bound) {
                bound = cost;
                match &mut best {
                    Some(order) => order.copy_from_slice(&self.order),
                    None => best = Some(self.order.clone()),
                }
            }
        }
        best.map(|order| (order, bound))
    }

    /// Builds the chain from `start` into `self.order` and returns its
    /// bottleneck cost, or `None` as soon as the running maximum reaches
    /// `bound` (it can only grow, so the chain cannot win).
    fn build(&mut self, start: usize, kind: GreedyKind, bound: f64) -> Option<f64> {
        let inst = self.instance;
        let n = inst.len();
        let dag = inst.precedence();
        self.order.clear();
        self.order.push(start);
        self.placed.clear();
        self.placed.insert(start);
        let mut prefix = 1.0;
        let mut cost = 0.0_f64;
        let mut u = start;
        while self.order.len() < n {
            let (c_u, s_u) = (inst.cost(u), inst.selectivity(u));
            let row = inst.comm().row(u);
            let mut next: Option<(usize, f64)> = None;
            for j in self.placed.iter_unset() {
                if dag.is_some_and(|dag| !dag.is_ready(j, &self.placed)) {
                    continue;
                }
                let score = match kind {
                    GreedyKind::MinTransfer => row[j],
                    GreedyKind::MinCompletedTerm => prefix * (c_u + s_u * row[j]),
                    GreedyKind::MinTentativeTerm => {
                        let out = inst.comm().row(j);
                        let min_out = self
                            .placed
                            .iter_unset()
                            .filter(|&l| l != j)
                            .map(|l| out[l])
                            .fold(inst.sink_cost(j), f64::min);
                        prefix * s_u * (inst.cost(j) + inst.selectivity(j) * min_out)
                    }
                };
                if next.is_none_or(|(_, s)| score < s) {
                    next = Some((j, score));
                }
            }
            let (j, _) = next.expect("acyclic precedence always leaves a ready service");
            cost = cost.max(prefix * (c_u + s_u * row[j]));
            if cost >= bound {
                return None;
            }
            prefix *= s_u;
            self.order.push(j);
            self.placed.insert(j);
            u = j;
        }
        cost = cost.max(prefix * (inst.cost(u) + inst.selectivity(u) * inst.sink_cost(u)));
        (cost < bound || bound.is_nan()).then_some(cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::exhaustive;
    use dsq_core::{CommMatrix, PrecedenceDag, Service};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_instance(rng: &mut StdRng, n: usize) -> QueryInstance {
        QueryInstance::from_parts(
            (0..n)
                .map(|_| Service::new(rng.gen_range(0.01..4.0), rng.gen_range(0.05..1.5)))
                .collect(),
            CommMatrix::from_fn(n, |i, j| if i == j { 0.0 } else { rng.gen_range(0.0..3.0) }),
        )
        .unwrap()
    }

    #[test]
    fn greedy_never_beats_the_optimum() {
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..60 {
            let n = rng.gen_range(2..8);
            let inst = random_instance(&mut rng, n);
            let opt = exhaustive(&inst).unwrap().cost();
            for kind in GreedyKind::ALL {
                let g = greedy(&inst, kind);
                assert!(g.cost() >= opt - 1e-9, "{kind:?} cost {} below optimum {opt}", g.cost());
                assert_eq!(g.kind(), kind);
            }
            let best = best_greedy(&inst);
            assert!(best.cost() >= opt - 1e-9);
            // fast_greedy drops one kind, so it sits between best_greedy
            // and the worst single kind: an upper bound on the optimum,
            // never better than the three-way minimum.
            let fast = fast_greedy(&inst);
            assert!(fast.cost() >= best.cost() - 1e-12);
            assert!(GreedyKind::FAST.contains(&fast.kind()));
        }
    }

    #[test]
    fn reported_cost_matches_plan() {
        let mut rng = StdRng::seed_from_u64(29);
        let inst = random_instance(&mut rng, 7);
        for kind in GreedyKind::ALL {
            let g = greedy(&inst, kind);
            let actual = dsq_core::bottleneck_cost(&inst, g.plan());
            assert!((g.cost() - actual).abs() < 1e-12);
        }
    }

    #[test]
    fn respects_precedence() {
        let mut dag = PrecedenceDag::new(4).unwrap();
        dag.add_edge(3, 0).unwrap();
        dag.add_edge(3, 1).unwrap();
        let inst = QueryInstance::builder()
            .services((0..4).map(|i| Service::new(1.0 + i as f64, 0.5)))
            .comm(CommMatrix::uniform(4, 0.2))
            .precedence(dag)
            .build()
            .unwrap();
        for kind in GreedyKind::ALL {
            let g = greedy(&inst, kind);
            assert!(g.plan().satisfies(inst.precedence().unwrap()), "{kind:?}");
            // Only WS2 and WS3 have no predecessors.
            assert!([2, 3].contains(&g.plan().indices()[0]), "{kind:?}");
        }
    }

    #[test]
    fn min_transfer_follows_cheap_edges() {
        // A ring where consecutive transfers are free in one direction.
        let inst = QueryInstance::from_parts(
            vec![Service::new(1.0, 1.0), Service::new(1.0, 1.0), Service::new(1.0, 1.0)],
            CommMatrix::from_rows(vec![
                vec![0.0, 0.0, 9.0],
                vec![9.0, 0.0, 0.0],
                vec![0.0, 9.0, 0.0],
            ])
            .unwrap(),
        )
        .unwrap();
        let g = greedy(&inst, GreedyKind::MinTransfer);
        // Some rotation of 0→1→2 avoids every 9.0 edge; cost 1.0.
        assert!((g.cost() - 1.0).abs() < 1e-12);
    }
}
