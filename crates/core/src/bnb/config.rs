//! Optimizer configuration and ablation switches.

use crate::plan::Plan;

/// Configuration of the branch-and-bound optimizer.
///
/// The default configuration reproduces the algorithm exactly as described
/// in the paper: Lemma-1 incumbent pruning, Lemma-2 closure (`ε ≥ ε̄`), and
/// Lemma-3 back-jumping, with successors expanded cheapest-transfer-first.
/// Beside the paper algorithm's three switches (`use_epsilon_bar`,
/// `use_backjump`, `tight_epsilon_bar`) there are three more:
/// `use_dominance` (an extension the serving daemon turns on),
/// `node_limit` (a search budget) and `initial_incumbent` (a warm start).
/// **Every configuration returns an optimal plan** (given no budget); the
/// switches only change how much of the search space is visited.
///
/// This is a passive parameter struct; fields are public by design.
///
/// # Examples
///
/// ```
/// use dsq_core::BnbConfig;
///
/// let cfg = BnbConfig { use_backjump: false, ..BnbConfig::paper() };
/// assert!(cfg.use_epsilon_bar);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BnbConfig {
    /// Apply the Lemma-2 closure: when the partial plan's bottleneck `ε`
    /// already dominates the largest cost `ε̄` any remaining service could
    /// incur, every completion costs exactly `ε` — record a candidate and
    /// stop expanding.
    pub use_epsilon_bar: bool,
    /// Apply Lemma-3 back-jumping: after establishing a bottleneck, resume
    /// the search *above* the bottleneck service instead of at the deepest
    /// level, pruning every plan that shares the prefix up to and including
    /// the bottleneck.
    pub use_backjump: bool,
    /// Compute `ε̄` over the *remaining* services only (tight, the paper's
    /// reading) rather than over precomputed whole-row maxima (loose,
    /// historically cheaper per node but weaker).
    ///
    /// With the incremental bound engine
    /// ([`SearchContext`](crate::bnb::SearchContext)) the tight mode's
    /// per-row maxima come from pre-sorted transfer rows — `O(1)` per row
    /// while the row head is unplaced, `O(depth)` worst case. The node
    /// test `ε ≥ ε̄` stops at the first term above `ε`
    /// ([`epsilon_bar_closes`](crate::bnb::SearchContext::epsilon_bar_closes)),
    /// and the first term — the last placed service's — decides almost
    /// every open node, so a tight node costs `O(1)` in practice and only
    /// nodes near a closure pay the full `O(|R|)` pass. Both modes make
    /// identical decisions to a full evaluation; the switch remains for
    /// the E3 ablation and for bound-quality comparisons.
    pub tight_epsilon_bar: bool,
    /// **Extension beyond the paper**: prefix dominance. A node's future
    /// depends only on its placed set `S`, its last service `u`, its
    /// bottleneck so far `ε` and its selectivity product `p` — the state
    /// the subset DP (`dsq-baselines`' `subset_dp`) is built on. When an
    /// earlier node with the same `(S, u)` had `ε' ≤ ε` **and** `p' ≤ p`,
    /// every completion of this node costs at least as much as the same
    /// completion of the earlier one, which the search has already
    /// explored or proven `≥ ρ`; the node is pruned with a plain
    /// backtrack. Once the earlier node's subtree has been searched to the
    /// end while its `ε' < ρ` (its record is *closed*), every completion
    /// reached `ρ` in a term after the prefix, so `p' ≤ p` alone prunes,
    /// whatever this node's `ε`.
    ///
    /// The prefix product is compared as well as `ε` because floating
    /// point is not associative: two orders of the same set give products
    /// that can differ in the last ulp, and an `ε`-only rule would then
    /// skip a prefix whose completions are a few ulp *cheaper*, serving a
    /// cost above the optimum. Rounding of `fl(p·x)` is monotone in `p`,
    /// so with both comparisons every completion's computed cost is at
    /// least the dominating one's, bit for bit. Since only strict
    /// improvements of `ρ` are recorded, a pruned subtree could never
    /// have changed the incumbent: plans and cost bits are identical to
    /// the same configuration without the switch, and only the node
    /// counts change ([`SearchStats::prunes_dominated`](crate::SearchStats::prunes_dominated)).
    ///
    /// The table is a fixed 2¹³-slot direct-mapped cache of 32-byte slots
    /// reused per thread, so a collision only loses a prune. It needs `n ≤ 58` (the
    /// key is the placed set and the last service packed in 64 bits); on
    /// larger instances the switch has no effect. Off in
    /// [`paper`](Self::paper); the serving daemon turns it on.
    pub use_dominance: bool,
    /// Abort after visiting this many nodes, returning the best plan found
    /// (flagged as not proven optimal).
    pub node_limit: Option<u64>,
    /// **Warm start**: seed the incumbent `ρ` with this complete plan
    /// (evaluated on the instance being optimized) before the search
    /// begins. Used by the `dsq-service` plan cache to resume from a
    /// cached plan of a near-identical instance; any plan whose cost is
    /// close to optimal prunes most of the tree immediately. The search
    /// still proves optimality: the result is never worse than the seed,
    /// and the returned plan is bit-identical to a cold search's whenever
    /// the seed is not itself optimal (a seed that *is* optimal is simply
    /// returned).
    ///
    /// A seed whose length disagrees with the instance or that violates
    /// the instance's precedence constraints is ignored.
    pub initial_incumbent: Option<Plan>,
}

impl BnbConfig {
    /// The algorithm exactly as published (all lemmas, no extensions).
    pub fn paper() -> Self {
        BnbConfig {
            use_epsilon_bar: true,
            use_backjump: true,
            tight_epsilon_bar: true,
            use_dominance: false,
            node_limit: None,
            initial_incumbent: None,
        }
    }

    /// Lemma-1 incumbent pruning only (both Lemma-2 and Lemma-3 disabled).
    /// The weakest sound configuration; the E3 ablation baseline.
    pub fn incumbent_only() -> Self {
        BnbConfig { use_epsilon_bar: false, use_backjump: false, ..BnbConfig::paper() }
    }

    /// The paper's algorithm without the Lemma-2 closure.
    pub fn without_epsilon_bar() -> Self {
        BnbConfig { use_epsilon_bar: false, ..BnbConfig::paper() }
    }

    /// The paper's algorithm without Lemma-3 back-jumping.
    pub fn without_backjump() -> Self {
        BnbConfig { use_backjump: false, ..BnbConfig::paper() }
    }

    /// Returns this configuration with a node budget.
    pub fn with_node_limit(mut self, nodes: u64) -> Self {
        self.node_limit = Some(nodes);
        self
    }

    /// Returns this configuration warm-started from `plan` (see
    /// [`initial_incumbent`](Self::initial_incumbent)).
    pub fn with_initial_incumbent(mut self, plan: Plan) -> Self {
        self.initial_incumbent = Some(plan);
        self
    }
}

impl Default for BnbConfig {
    /// Defaults to [`BnbConfig::paper`].
    fn default() -> Self {
        BnbConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_is_default() {
        assert_eq!(BnbConfig::default(), BnbConfig::paper());
        let cfg = BnbConfig::paper();
        assert!(cfg.use_epsilon_bar && cfg.use_backjump && cfg.tight_epsilon_bar);
        assert!(!cfg.use_dominance);
        assert!(cfg.node_limit.is_none() && cfg.initial_incumbent.is_none());
    }

    #[test]
    fn ablation_presets_toggle_the_right_switches() {
        assert!(!BnbConfig::incumbent_only().use_epsilon_bar);
        assert!(!BnbConfig::incumbent_only().use_backjump);
        assert!(!BnbConfig::without_epsilon_bar().use_epsilon_bar);
        assert!(BnbConfig::without_epsilon_bar().use_backjump);
        assert!(!BnbConfig::without_backjump().use_backjump);
        assert!(BnbConfig::without_backjump().use_epsilon_bar);
    }

    #[test]
    fn budget_builders() {
        let cfg = BnbConfig::paper().with_node_limit(1000);
        assert_eq!(cfg.node_limit, Some(1000));
    }

    #[test]
    fn incumbent_builder_attaches_the_plan() {
        let plan = Plan::new(vec![1, 0]).unwrap();
        let cfg = BnbConfig::paper().with_initial_incumbent(plan.clone());
        assert_eq!(cfg.initial_incumbent, Some(plan));
        assert!(BnbConfig::paper().initial_incumbent.is_none());
    }
}
