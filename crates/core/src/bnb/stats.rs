//! Search statistics: the raw material of the pruning-effectiveness
//! experiments (E3).

use std::fmt;
use std::time::Duration;

/// Counters collected during one branch-and-bound run.
///
/// `nodes_visited` counts partial plans whose node checks ran;
/// `nodes_expanded` counts service appends. A plain exhaustive enumeration
/// of `n!` orderings visits `Σ n!/k!` prefixes, so the ratio of
/// `nodes_visited` to that quantity measures pruning effectiveness.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchStats {
    /// Partial plans whose entry checks were evaluated.
    pub nodes_visited: u64,
    /// Services appended to partial plans.
    pub nodes_expanded: u64,
    /// Incumbent updates (improved plans found, incl. Lemma-2 closures).
    pub candidates_recorded: u64,
    /// Lemma-2 closures (`ε ≥ ε̄` nodes whose completions all cost `ε`).
    pub lemma2_closures: u64,
    /// Lemma-3 back-jumps executed.
    pub backjumps: u64,
    /// Levels skipped by back-jumps beyond a plain backtrack.
    pub backjump_levels_saved: u64,
    /// Nodes pruned because `ε ≥ ρ` (Lemma 1).
    pub prunes_incumbent: u64,
    /// Nodes pruned because an earlier node with the same placed set and
    /// last service had a bottleneck and a prefix product no larger
    /// ([`BnbConfig::use_dominance`](crate::BnbConfig::use_dominance)).
    pub prunes_dominated: u64,
    /// Root pairs whose subtree was searched.
    pub roots_explored: u64,
    /// Root pairs skipped because their pair cost already reached `ρ`.
    pub roots_pruned: u64,
    /// Deepest partial plan reached.
    pub max_depth: usize,
    /// Wall-clock time of the search's setup: building the
    /// [`SearchContext`](crate::bnb::SearchContext), sorting the root
    /// pairs and taking the dominance table. Part of `elapsed`; the rest
    /// is the node-by-node search.
    pub setup: Duration,
    /// Wall-clock time of the search, setup included.
    pub elapsed: Duration,
    /// Whether the search ran to completion (no node budget hit), so
    /// the returned plan is proven optimal.
    pub proven_optimal: bool,
}

impl SearchStats {
    /// Node throughput of the search: `nodes_visited` per second of
    /// `elapsed` wall-clock time (`0.0` when no time was recorded). The
    /// headline measure of the per-node bound-evaluation cost, printed in
    /// the stats report.
    fn nodes_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.nodes_visited as f64 / secs
        } else {
            0.0
        }
    }

    /// Total prefixes a pruning-free depth-first enumeration of all
    /// feasible plans would visit for `n` services, `Σ_{k=1..n} n!/(n-k)!`
    /// (ignoring precedence, which only shrinks it). Saturates at
    /// `u64::MAX`; useful as the denominator of pruning ratios for
    /// `n ≲ 20`.
    pub fn unpruned_prefix_count(n: usize) -> u64 {
        let mut total: u64 = 0;
        let mut falling: u64 = 1;
        for k in 0..n {
            falling = match falling.checked_mul((n - k) as u64) {
                Some(v) => v,
                None => return u64::MAX,
            };
            total = match total.checked_add(falling) {
                Some(v) => v,
                None => return u64::MAX,
            };
        }
        total
    }
}

impl fmt::Display for SearchStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "nodes visited      {:>12}", self.nodes_visited)?;
        writeln!(f, "nodes expanded     {:>12}", self.nodes_expanded)?;
        writeln!(f, "incumbent updates  {:>12}", self.candidates_recorded)?;
        writeln!(f, "lemma-2 closures   {:>12}", self.lemma2_closures)?;
        writeln!(
            f,
            "lemma-3 backjumps  {:>12} (saved {} levels)",
            self.backjumps, self.backjump_levels_saved
        )?;
        writeln!(f, "incumbent prunes   {:>12}", self.prunes_incumbent)?;
        writeln!(f, "dominance prunes   {:>12}", self.prunes_dominated)?;
        writeln!(
            f,
            "roots explored     {:>12} (pruned {})",
            self.roots_explored, self.roots_pruned
        )?;
        writeln!(f, "max depth          {:>12}", self.max_depth)?;
        writeln!(f, "setup              {:>12?}", self.setup)?;
        writeln!(f, "elapsed            {:>12?}", self.elapsed)?;
        writeln!(f, "node throughput    {:>12.0} nodes/s", self.nodes_per_sec())?;
        write!(f, "proven optimal     {:>12}", self.proven_optimal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unpruned_counts_small() {
        // n=1: 1 prefix; n=2: 2 + 2 = 4; n=3: 3 + 6 + 6 = 15.
        assert_eq!(SearchStats::unpruned_prefix_count(0), 0);
        assert_eq!(SearchStats::unpruned_prefix_count(1), 1);
        assert_eq!(SearchStats::unpruned_prefix_count(2), 4);
        assert_eq!(SearchStats::unpruned_prefix_count(3), 15);
        assert_eq!(SearchStats::unpruned_prefix_count(4), 4 + 12 + 24 + 24);
    }

    #[test]
    fn unpruned_count_saturates() {
        assert_eq!(SearchStats::unpruned_prefix_count(100), u64::MAX);
    }

    #[test]
    fn nodes_per_sec_is_guarded_against_zero_elapsed() {
        let mut stats = SearchStats { nodes_visited: 500, ..SearchStats::default() };
        assert_eq!(stats.nodes_per_sec(), 0.0);
        stats.elapsed = Duration::from_millis(250);
        assert!((stats.nodes_per_sec() - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn display_mentions_all_counters() {
        let stats =
            SearchStats { nodes_visited: 42, proven_optimal: true, ..SearchStats::default() };
        let text = stats.to_string();
        for needle in
            ["nodes visited", "lemma-2", "backjumps", "dominance", "setup", "proven optimal", "42"]
        {
            assert!(text.contains(needle), "missing {needle} in {text}");
        }
    }
}
