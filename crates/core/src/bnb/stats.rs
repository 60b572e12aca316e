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
    /// Nodes pruned by the optimistic completion bound (extension).
    pub prunes_lower_bound: u64,
    /// Root pairs whose subtree was searched.
    pub roots_explored: u64,
    /// Root pairs skipped because their pair cost already reached `ρ`.
    pub roots_pruned: u64,
    /// Deepest partial plan reached.
    pub max_depth: usize,
    /// Wall-clock time of the search.
    pub elapsed: Duration,
    /// Whether the search ran to completion (no node/time budget hit), so
    /// the returned plan is proven optimal.
    pub proven_optimal: bool,
}

impl SearchStats {
    /// Folds another run's statistics into `self`: counters add,
    /// `max_depth` takes the maximum, `elapsed` accumulates (per-worker
    /// search time; [`optimize_parallel`](crate::optimize_parallel)
    /// overwrites the merged total with wall-clock time at the end), and
    /// `proven_optimal` holds only if it held on both sides.
    ///
    /// The body destructures `other` exhaustively, so adding a counter to
    /// [`SearchStats`] without deciding how it merges is a compile error —
    /// new counters cannot be silently dropped from the parallel path.
    pub fn merge(&mut self, other: &SearchStats) {
        let SearchStats {
            nodes_visited,
            nodes_expanded,
            candidates_recorded,
            lemma2_closures,
            backjumps,
            backjump_levels_saved,
            prunes_incumbent,
            prunes_lower_bound,
            roots_explored,
            roots_pruned,
            max_depth,
            elapsed,
            proven_optimal,
        } = other;
        self.nodes_visited += nodes_visited;
        self.nodes_expanded += nodes_expanded;
        self.candidates_recorded += candidates_recorded;
        self.lemma2_closures += lemma2_closures;
        self.backjumps += backjumps;
        self.backjump_levels_saved += backjump_levels_saved;
        self.prunes_incumbent += prunes_incumbent;
        self.prunes_lower_bound += prunes_lower_bound;
        self.roots_explored += roots_explored;
        self.roots_pruned += roots_pruned;
        self.max_depth = self.max_depth.max(*max_depth);
        self.elapsed += *elapsed;
        self.proven_optimal &= proven_optimal;
    }

    /// Node throughput of the search: `nodes_visited` per second of
    /// `elapsed` wall-clock time (`0.0` when no time was recorded). The
    /// headline measure of the per-node bound-evaluation cost, printed in
    /// the stats report.
    pub fn nodes_per_sec(&self) -> f64 {
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
        writeln!(f, "lower-bound prunes {:>12}", self.prunes_lower_bound)?;
        writeln!(
            f,
            "roots explored     {:>12} (pruned {})",
            self.roots_explored, self.roots_pruned
        )?;
        writeln!(f, "max depth          {:>12}", self.max_depth)?;
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
    fn merge_covers_every_field() {
        let a = SearchStats {
            nodes_visited: 10,
            nodes_expanded: 9,
            candidates_recorded: 8,
            lemma2_closures: 7,
            backjumps: 6,
            backjump_levels_saved: 5,
            prunes_incumbent: 4,
            prunes_lower_bound: 3,
            roots_explored: 2,
            roots_pruned: 1,
            max_depth: 4,
            elapsed: Duration::from_millis(100),
            proven_optimal: true,
        };
        let b = SearchStats {
            nodes_visited: 100,
            nodes_expanded: 90,
            candidates_recorded: 80,
            lemma2_closures: 70,
            backjumps: 60,
            backjump_levels_saved: 50,
            prunes_incumbent: 40,
            prunes_lower_bound: 30,
            roots_explored: 20,
            roots_pruned: 10,
            max_depth: 3,
            elapsed: Duration::from_millis(50),
            proven_optimal: true,
        };
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.nodes_visited, 110);
        assert_eq!(merged.nodes_expanded, 99);
        assert_eq!(merged.candidates_recorded, 88);
        assert_eq!(merged.lemma2_closures, 77);
        assert_eq!(merged.backjumps, 66);
        assert_eq!(merged.backjump_levels_saved, 55);
        assert_eq!(merged.prunes_incumbent, 44);
        assert_eq!(merged.prunes_lower_bound, 33);
        assert_eq!(merged.roots_explored, 22);
        assert_eq!(merged.roots_pruned, 11);
        assert_eq!(merged.max_depth, 4, "max depth takes the maximum");
        assert_eq!(merged.elapsed, Duration::from_millis(150));
        assert!(merged.proven_optimal);

        // One interrupted side poisons the merged optimality claim.
        merged.merge(&SearchStats { proven_optimal: false, ..SearchStats::default() });
        assert!(!merged.proven_optimal);
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
        for needle in ["nodes visited", "lemma-2", "backjumps", "proven optimal", "42"] {
            assert!(text.contains(needle), "missing {needle} in {text}");
        }
    }
}
