//! Cache-friendly search data and the incremental bound engine.
//!
//! The branch-and-bound hot path compares `ε̄` with `ε` at every node.
//! Doing that against [`QueryInstance`] directly costs an accessor
//! indirection per parameter, an `O(n)` product rebuild per node, and —
//! in tight mode — an `O(|R|²)` max scan per node. This module replaces
//! all of that with two pieces, and decides the comparison at the first
//! bound term that settles it:
//!
//! * [`SearchContext`] — an immutable, per-instance snapshot built **once**
//!   per `optimize` call: flat structure-of-arrays copies of
//!   cost/selectivity/sink, the row-major transfer matrix, the loose-mode
//!   row maxima, and per-row successor lists pre-sorted both ascending
//!   (candidate expansion) and descending (tight `ε̄` row maxima). "Max
//!   transfer into the remaining set" becomes a first-remaining-entry scan
//!   of the descending row — `O(1)` while the head of the row is unplaced,
//!   `O(depth)` worst case when the search has placed exactly the row's
//!   most expensive entries — instead of an unconditional `O(n)` loop.
//! * [`IncrementalBounds`] — the mutable per-search state: the placed set
//!   as one [`ServiceSet`] (a single `u64` word for instances of at most
//!   64 services, so the placed check, the remaining-set walk and the
//!   dominance key are word operations; a [`BitSet`] beyond; the remaining
//!   set is its complement within `n`) plus a stack of the inflation
//!   product (`Π σ>1` over remaining), updated in `O(1)` on
//!   [`push`](IncrementalBounds::push)
//!   and restored **exactly** on [`pop`](IncrementalBounds::pop) (pops
//!   truncate the stack rather than multiplying back, so no rounding
//!   error accumulates across backtracks; only the divisions along the
//!   current path — at most `n` of them — can drift, keeping the product
//!   within a few ulps of the closed-form recomputation).
//!
//! The closed-form `ε̄` definition these accelerate is retained in the
//! `bounds` module as a `#[cfg(test)]` reference oracle; the property
//! tests at the bottom of this file pin every incremental quantity to it
//! within `1e-12` relative error across random push/pop/rewind sequences.

use crate::bitset::BitSet;
use crate::instance::QueryInstance;
use std::fmt;
use std::ops::ControlFlow;

/// A set of service indices `0..n` as the search state holds it.
///
/// The search is generic over it so that one search loop serves every
/// instance size: instances of at most 64 services use a single `u64`
/// word (bit `j` set iff `j` is a member), larger ones a [`BitSet`].
/// Exported with [`IncrementalBounds`]; not a stability-guaranteed API.
pub trait ServiceSet: Clone + fmt::Debug {
    /// The empty set over `n` services.
    ///
    /// # Panics
    ///
    /// The `u64` set panics if `n > 64`.
    fn empty(n: usize) -> Self;
    /// The members of `set`, a set over the same `n` services.
    fn from_bitset(set: &BitSet) -> Self;
    /// Whether `j` is a member.
    fn contains(&self, j: usize) -> bool;
    /// Adds `j`.
    fn insert(&mut self, j: usize);
    /// Removes `j`.
    fn remove(&mut self, j: usize);
    /// Removes every member.
    fn clear(&mut self);
    /// Whether every member of `other` is a member of `self`.
    fn includes(&self, other: &Self) -> bool;
    /// The services of `0..n` that are **not** members, ascending.
    fn absent(&self, n: usize) -> impl Iterator<Item = usize> + '_;
    /// Members `0..64` as a bit mask (the whole set when `n ≤ 64`).
    fn low_word(&self) -> u64;
}

impl ServiceSet for u64 {
    fn empty(n: usize) -> Self {
        assert!(n <= 64, "a one-word set holds at most 64 services, not {n}");
        0
    }

    fn from_bitset(set: &BitSet) -> Self {
        debug_assert!(set.capacity() <= 64, "a one-word set holds at most 64 services");
        set.low_word()
    }

    #[inline]
    fn contains(&self, j: usize) -> bool {
        *self >> j & 1 != 0
    }

    #[inline]
    fn insert(&mut self, j: usize) {
        *self |= 1 << j;
    }

    #[inline]
    fn remove(&mut self, j: usize) {
        *self &= !(1 << j);
    }

    fn clear(&mut self) {
        *self = 0;
    }

    #[inline]
    fn includes(&self, other: &Self) -> bool {
        other & !self == 0
    }

    #[inline]
    fn absent(&self, n: usize) -> impl Iterator<Item = usize> + '_ {
        let mut rest = !self & (u64::MAX >> (64 - n));
        std::iter::from_fn(move || {
            let j = (rest != 0).then(|| rest.trailing_zeros() as usize)?;
            rest &= rest - 1;
            Some(j)
        })
    }

    fn low_word(&self) -> u64 {
        *self
    }
}

impl ServiceSet for BitSet {
    fn empty(n: usize) -> Self {
        BitSet::new(n)
    }

    fn from_bitset(set: &BitSet) -> Self {
        set.clone()
    }

    fn contains(&self, j: usize) -> bool {
        BitSet::contains(self, j)
    }

    fn insert(&mut self, j: usize) {
        BitSet::insert(self, j);
    }

    fn remove(&mut self, j: usize) {
        BitSet::remove(self, j);
    }

    fn clear(&mut self) {
        BitSet::clear(self);
    }

    fn includes(&self, other: &Self) -> bool {
        self.is_superset_of(other)
    }

    fn absent(&self, n: usize) -> impl Iterator<Item = usize> + '_ {
        debug_assert_eq!(n, self.capacity());
        self.iter_unset()
    }

    fn low_word(&self) -> u64 {
        BitSet::low_word(self)
    }
}

/// Immutable, cache-friendly snapshot of a [`QueryInstance`] for the
/// branch-and-bound search: flat parameter arrays plus pre-sorted per-row
/// transfer orderings.
///
/// Built once per optimization. This type is exported for the workspace benchmarks
/// and the experiment harness; it is not a stability-guaranteed API.
#[derive(Debug, Clone)]
pub struct SearchContext {
    n: usize,
    cost: Box<[f64]>,
    selectivity: Box<[f64]>,
    sink: Box<[f64]>,
    /// Row-major `n × n` transfer costs `t_{i,j}`.
    transfer: Box<[f64]>,
    /// Loose-mode row maxima `max(max_{l≠j} t_{j,l}, sink_j)`.
    row_max: Box<[f64]>,
    /// `n` rows of `n-1` successor indices, ascending by `t_{u,·}`.
    succ_asc: Box<[u32]>,
    /// `n` rows of `n-1` successor indices, descending by `t_{u,·}`.
    succ_desc: Box<[u32]>,
    /// `Π σ_j` over **all** services with `σ_j > 1`.
    total_inflation: f64,
}

impl SearchContext {
    /// Builds the context: `O(n² log n)` for the per-row sorts, done once.
    pub fn new(inst: &QueryInstance) -> Self {
        let n = inst.len();
        let cost: Box<[f64]> = (0..n).map(|i| inst.cost(i)).collect();
        let selectivity: Box<[f64]> = (0..n).map(|i| inst.selectivity(i)).collect();
        let sink: Box<[f64]> = inst.sink_costs().into();
        let mut transfer = Vec::with_capacity(n * n);
        for i in 0..n {
            transfer.extend_from_slice(inst.comm().row(i));
        }

        let row_max: Box<[f64]> = (0..n)
            .map(|j| {
                let mut m = sink[j];
                for l in 0..n {
                    if l != j {
                        m = m.max(transfer[j * n + l]);
                    }
                }
                m
            })
            .collect();

        let stride = n.saturating_sub(1);
        let mut succ_asc = Vec::with_capacity(n * stride);
        let mut succ_desc = Vec::with_capacity(n * stride);
        let mut row: Vec<u32> = Vec::with_capacity(stride);
        for u in 0..n {
            let t = &transfer[u * n..(u + 1) * n];
            row.clear();
            row.extend((0..n as u32).filter(|&j| j as usize != u));
            // Ties by index: the order a stable sort of the ascending
            // indices gives, without its scratch allocation.
            row.sort_unstable_by(|&a, &b| t[a as usize].total_cmp(&t[b as usize]).then(a.cmp(&b)));
            succ_asc.extend_from_slice(&row);
            succ_desc.extend(row.iter().rev());
        }

        let mut total_inflation = 1.0;
        for &s in selectivity.iter() {
            if s > 1.0 {
                total_inflation *= s;
            }
        }

        SearchContext {
            n,
            cost,
            selectivity,
            sink,
            transfer: transfer.into(),
            row_max,
            succ_asc: succ_asc.into(),
            succ_desc: succ_desc.into(),
            total_inflation,
        }
    }

    /// Number of services.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Contexts are never empty (instances aren't); always `false`.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Per-tuple processing cost `c_i`.
    #[inline]
    pub fn cost(&self, i: usize) -> f64 {
        self.cost[i]
    }

    /// Selectivity `σ_i`.
    #[inline]
    pub fn selectivity(&self, i: usize) -> f64 {
        self.selectivity[i]
    }

    /// Sink delivery cost of service `i`.
    #[inline]
    pub fn sink_cost(&self, i: usize) -> f64 {
        self.sink[i]
    }

    /// Transfer cost `t_{i,j}` (row-major flat lookup).
    #[inline]
    pub fn transfer(&self, i: usize, j: usize) -> f64 {
        self.transfer[i * self.n + j]
    }

    /// Loose-mode row maximum `max(max_{l≠j} t_{j,l}, sink_j)`.
    #[inline]
    pub fn row_max(&self, j: usize) -> f64 {
        self.row_max[j]
    }

    /// Successors of `u` (all services except `u`), cheapest transfer
    /// first — the candidate-expansion order that makes Lemma-3 sound.
    #[inline]
    pub fn successors_ascending(&self, u: usize) -> &[u32] {
        let stride = self.n - 1;
        &self.succ_asc[u * stride..(u + 1) * stride]
    }

    /// Successors of `u`, most expensive transfer first — the scan order
    /// for tight `ε̄` row maxima.
    #[inline]
    fn successors_descending(&self, u: usize) -> &[u32] {
        let stride = self.n - 1;
        &self.succ_desc[u * stride..(u + 1) * stride]
    }

    /// `max_{l ∉ placed, l ≠ u} t_{u,l}`: first unplaced entry of the
    /// descending row — `O(1)` while the head of the row is unplaced,
    /// `O(#placed)` worst case — or `0.0` when no such `l` exists
    /// (transfers are non-negative, so the `0.0` floor is absorbed by the
    /// caller's `max`).
    #[inline]
    fn max_transfer_to<S: ServiceSet>(&self, u: usize, placed: &S) -> f64 {
        for &l in self.successors_descending(u) {
            if !placed.contains(l as usize) {
                return self.transfer[u * self.n + l as usize];
            }
        }
        0.0
    }

    /// Upper bound `ε̄` on any not-yet-finalized term of any completion
    /// (Lemma 2's companion measure), evaluated from the incremental state.
    ///
    /// Semantics are identical to the closed-form definition (see the
    /// `bounds` reference module): the last placed service `u` completes
    /// with some successor in the remaining set `R`, every remaining `j`
    /// sees at most `P` inflated by the remaining proliferative
    /// selectivities other than its own, and `j`'s output goes to
    /// `R∖{j}` or the sink. With `tight == false` the per-row maxima come
    /// from the precomputed whole-row table instead of the remaining set.
    ///
    /// Cost: `O(|R|)` row-maximum lookups, each `O(1)` while the head of
    /// its sorted row is unplaced and `O(depth)` worst case — so
    /// `O(|R| · depth)` adversarially, but near-linear in practice,
    /// versus the closed form's unconditional `O(n·|R|)`. The search
    /// itself only needs the comparison `ε ≥ ε̄`, which
    /// [`epsilon_bar_closes`](Self::epsilon_bar_closes) decides without
    /// evaluating every term.
    pub fn epsilon_bar<S: ServiceSet>(
        &self,
        state: &IncrementalBounds<S>,
        last: usize,
        prefix_last: f64,
        tight: bool,
    ) -> f64 {
        // `NaN.max(x) == x`: the NaN seed makes the first term the start
        // value, exactly as a fold seeded with that term.
        let mut bound = f64::NAN;
        let _ = self.try_for_each_epsilon_term(state, last, prefix_last, tight, |term| {
            bound = bound.max(term);
            ControlFlow::Continue(())
        });
        bound
    }

    /// The Lemma-2 closure test `eps >= epsilon_bar(..)`, decided at the
    /// first term above `eps`.
    ///
    /// Visits the terms in [`epsilon_bar`](Self::epsilon_bar)'s order with
    /// the same arithmetic and stops as soon as one exceeds `eps`: `ε̄` is
    /// at least that term, so the closure cannot hold. A full pass
    /// compares `eps` against the identical running maximum, so the
    /// decision equals `eps >= epsilon_bar(..)` for every input, NaN
    /// terms included. In the search almost every open node is decided by
    /// its first term, making the test `O(1)` per node in practice.
    #[inline]
    pub fn epsilon_bar_closes<S: ServiceSet>(
        &self,
        state: &IncrementalBounds<S>,
        last: usize,
        prefix_last: f64,
        tight: bool,
        eps: f64,
    ) -> bool {
        let mut bound = f64::NAN;
        self.try_for_each_epsilon_term(state, last, prefix_last, tight, |term| {
            bound = bound.max(term);
            if term > eps {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        })
        .is_continue()
            && eps >= bound
    }

    /// The `ε̄` formula: feeds its terms to `visit` — the last placed
    /// service's term first, then one per remaining service in ascending
    /// index order — until `visit` breaks.
    #[inline]
    fn try_for_each_epsilon_term<S: ServiceSet>(
        &self,
        state: &IncrementalBounds<S>,
        last: usize,
        prefix_last: f64,
        tight: bool,
        mut visit: impl FnMut(f64) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let placed = state.placed();
        debug_assert!(state.placed_len() < self.n, "ε̄ is only defined for incomplete plans");
        let max_t_last =
            if tight { self.max_transfer_to(last, placed) } else { self.row_max[last] };
        visit(prefix_last * (self.cost[last] + self.selectivity[last] * max_t_last))?;

        let p = prefix_last * self.selectivity[last];
        let inflation = state.inflation();
        for j in state.unplaced() {
            let sigma_j = self.selectivity[j];
            let max_out = if tight {
                self.sink[j].max(self.max_transfer_to(j, placed))
            } else {
                self.row_max[j]
            };
            let inflation_j = if sigma_j > 1.0 { inflation / sigma_j } else { inflation };
            visit(p * inflation_j * (self.cost[j] + sigma_j * max_out))?;
        }
        ControlFlow::Continue(())
    }
}

/// Incrementally-maintained search-path state: the placed set (the
/// remaining set is its complement within `n`) and the inflation product
/// `Π σ>1` over the remaining services.
///
/// The product is kept as a **stack** aligned with the search path: a
/// [`push`](Self::push) appends one value derived from the previous top in
/// `O(1)`, and a [`pop`](Self::pop) truncates, restoring the pre-push value
/// bit-for-bit. Exported alongside [`SearchContext`] for benchmarks; not a
/// stability-guaranteed API.
#[derive(Debug, Clone)]
pub struct IncrementalBounds<S> {
    n: usize,
    placed: S,
    /// `inflation[d]` = `Π σ>1` over the remaining services after `d`
    /// pushes.
    inflation: Vec<f64>,
}

impl<S: ServiceSet> IncrementalBounds<S> {
    /// Fresh state over `ctx`: nothing placed, everything remaining.
    pub fn new(ctx: &SearchContext) -> Self {
        let n = ctx.len();
        let mut inflation = Vec::with_capacity(n + 1);
        inflation.push(ctx.total_inflation);
        IncrementalBounds { n, placed: S::empty(n), inflation }
    }

    /// Returns to the nothing-placed state in `O(n / 64)`.
    pub fn reset(&mut self) {
        self.placed.clear();
        self.inflation.truncate(1);
    }

    /// Marks `j` placed, dividing its selectivity out of the remaining
    /// inflation product. `O(1)`.
    #[inline]
    pub fn push(&mut self, ctx: &SearchContext, j: usize) {
        debug_assert!(!self.placed.contains(j), "push of already-placed service {j}");
        self.placed.insert(j);
        let s = ctx.selectivity[j];
        let top = self.inflation();
        self.inflation.push(if s > 1.0 { top / s } else { top });
    }

    /// Unplaces `j` (the most recently pushed service), restoring the
    /// previous product exactly by truncating the stack. `O(1)`.
    #[inline]
    pub fn pop(&mut self, j: usize) {
        debug_assert!(self.placed.contains(j), "pop of unplaced service {j}");
        debug_assert!(self.inflation.len() > 1, "pop without matching push");
        self.placed.remove(j);
        self.inflation.pop();
    }

    /// Whether service `j` is placed.
    #[inline]
    pub fn is_placed(&self, j: usize) -> bool {
        self.placed.contains(j)
    }

    /// The placed set (for precedence-readiness checks and the dominance
    /// key).
    #[inline]
    pub fn placed(&self) -> &S {
        &self.placed
    }

    /// The remaining services (the complement of the placed set),
    /// ascending.
    #[inline]
    pub fn unplaced(&self) -> impl Iterator<Item = usize> + '_ {
        self.placed.absent(self.n)
    }

    /// Number of placed services.
    #[inline]
    fn placed_len(&self) -> usize {
        self.inflation.len() - 1
    }

    /// `Π σ_j` over remaining services with `σ_j > 1` (the proliferative
    /// inflation factor of `ε̄`).
    #[inline]
    pub fn inflation(&self) -> f64 {
        *self.inflation.last().expect("stack never empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bnb::bounds;
    use crate::comm::CommMatrix;
    use crate::service::Service;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_instance(rng: &mut StdRng, n: usize, proliferative: bool) -> QueryInstance {
        let services: Vec<Service> = (0..n)
            .map(|_| {
                let sigma_max = if proliferative { 3.0 } else { 1.0 };
                let sigma = if rng.gen_bool(0.1) { 0.0 } else { rng.gen_range(0.05..sigma_max) };
                Service::new(rng.gen_range(0.01..5.0), sigma)
            })
            .collect();
        let comm =
            CommMatrix::from_fn(n, |i, j| if i == j { 0.0 } else { rng.gen_range(0.0..4.0) });
        let sink: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        QueryInstance::builder().services(services).comm(comm).sink(sink).build().unwrap()
    }

    fn assert_within(a: f64, b: f64, what: &str) {
        assert!(
            (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0),
            "{what}: incremental {a} vs reference {b}"
        );
    }

    /// Closed-form inflation product over the unplaced services.
    fn reference_inflation(inst: &QueryInstance, placed: &BitSet) -> f64 {
        let mut inflation = 1.0;
        for j in 0..inst.len() {
            if !placed.contains(j) && inst.selectivity(j) > 1.0 {
                inflation *= inst.selectivity(j);
            }
        }
        inflation
    }

    /// Closed-form `max(max_{l∈R∖{u}} t_{u,l})` with a `0.0` floor.
    fn reference_row_max(inst: &QueryInstance, placed: &BitSet, u: usize) -> f64 {
        let mut max_t = 0.0_f64;
        for l in 0..inst.len() {
            if l != u && !placed.contains(l) {
                max_t = max_t.max(inst.transfer(u, l));
            }
        }
        max_t
    }

    /// Compares every incremental quantity against the closed-form
    /// oracles at the current search position.
    fn check_against_reference<S: ServiceSet>(
        inst: &QueryInstance,
        ctx: &SearchContext,
        state: &IncrementalBounds<S>,
        plan: &[usize],
        row_max: &[f64],
    ) {
        let n = inst.len();
        let mut placed = BitSet::new(n);
        plan.iter().for_each(|&j| {
            placed.insert(j);
        });
        assert_eq!(state.placed_len(), plan.len());
        for j in 0..n {
            assert_eq!(state.is_placed(j), plan.contains(&j), "placed set tracks the plan");
        }
        let unplaced: Vec<usize> = state.unplaced().collect();
        assert_eq!(unplaced, placed.iter_unset().collect::<Vec<_>>(), "the complement, ascending");

        assert_within(state.inflation(), reference_inflation(inst, &placed), "inflation");

        // Row maxima over the remaining set are exact (same floats, found
        // through the sorted rows instead of a scan).
        for u in 0..n {
            let max_ref = reference_row_max(inst, &placed, u);
            assert_eq!(ctx.max_transfer_to(u, state.placed()), max_ref, "row {u} max");
        }

        // Full `ε̄`, against the retained closed-form implementation.
        if !plan.is_empty() && plan.len() < n {
            let last = *plan.last().unwrap();
            let mut prefix_last = 1.0;
            for &s in &plan[..plan.len() - 1] {
                prefix_last *= inst.selectivity(s);
            }
            for tight in [true, false] {
                let fast = ctx.epsilon_bar(state, last, prefix_last, tight);
                let slow = bounds::epsilon_bar(inst, &placed, last, prefix_last, tight, row_max);
                assert_within(fast, slow, &format!("ε̄ tight={tight}"));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// Random push/pop/rewind walks: the incremental engine tracks the
        /// closed-form oracles at every step, in both selectivity regimes,
        /// with the one-word set and the [`BitSet`] moving in lockstep.
        #[test]
        fn incremental_engine_matches_reference_oracles(
            seed in 0u64..u64::MAX,
            n in 3usize..10,
            proliferative in 0u32..2,
            steps in 20usize..60,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let inst = random_instance(&mut rng, n, proliferative == 1);
            let ctx = SearchContext::new(&inst);
            let row_max = bounds::row_maxima(&inst);
            let mut word = IncrementalBounds::<u64>::new(&ctx);
            let mut wide = IncrementalBounds::<BitSet>::new(&ctx);
            let mut plan: Vec<usize> = Vec::new();

            check_against_reference(&inst, &ctx, &word, &plan, &row_max);
            check_against_reference(&inst, &ctx, &wide, &plan, &row_max);
            for _ in 0..steps {
                let pops = match rng.gen_range(0..4u32) {
                    // Push a random unplaced service.
                    0 | 1 => {
                        if plan.len() < n {
                            let unplaced: Vec<usize> = word.unplaced().collect();
                            let j = unplaced[rng.gen_range(0..unplaced.len())];
                            word.push(&ctx, j);
                            wide.push(&ctx, j);
                            plan.push(j);
                        }
                        0
                    }
                    // Pop the most recent service.
                    2 => usize::from(!plan.is_empty()),
                    // Rewind (multi-level truncation, as after Lemma 3).
                    _ => {
                        if plan.is_empty() { 0 } else { plan.len() - rng.gen_range(0..plan.len()) }
                    }
                };
                for _ in 0..pops {
                    let j = plan.pop().unwrap();
                    word.pop(j);
                    wide.pop(j);
                }
                check_against_reference(&inst, &ctx, &word, &plan, &row_max);
                check_against_reference(&inst, &ctx, &wide, &plan, &row_max);
            }

            // A reset must return to the pristine state.
            word.reset();
            wide.reset();
            plan.clear();
            check_against_reference(&inst, &ctx, &word, &plan, &row_max);
            check_against_reference(&inst, &ctx, &wide, &plan, &row_max);
        }
    }

    /// `x` and the floats one ulp below and above it (`x ≥ 0`).
    fn ulp_around(x: f64) -> [f64; 3] {
        let below = if x == 0.0 { -f64::from_bits(1) } else { f64::from_bits(x.to_bits() - 1) };
        [below, x, f64::from_bits(x.to_bits() + 1)]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// The early-exit closure test decides exactly like a comparison
        /// against the fully evaluated `ε̄`, in tight and loose mode, with
        /// the threshold at the bound itself, one ulp either side, and
        /// elsewhere.
        #[test]
        fn early_exit_tests_decide_like_the_full_bounds(
            seed in 0u64..u64::MAX,
            n in 3usize..10,
            proliferative in 0u32..2,
            steps in 10usize..40,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let inst = random_instance(&mut rng, n, proliferative == 1);
            let ctx = SearchContext::new(&inst);
            let mut state = IncrementalBounds::<u64>::new(&ctx);
            let mut plan: Vec<usize> = Vec::new();
            for _ in 0..steps {
                if plan.len() + 1 < n && (plan.is_empty() || rng.gen_bool(0.6)) {
                    let unplaced: Vec<usize> = state.unplaced().collect();
                    let j = unplaced[rng.gen_range(0..unplaced.len())];
                    state.push(&ctx, j);
                    plan.push(j);
                } else if let Some(j) = plan.pop() {
                    state.pop(j);
                }
                let Some(&last) = plan.last() else { continue };
                let prefix_last: f64 =
                    plan[..plan.len() - 1].iter().map(|&s| inst.selectivity(s)).product();

                for tight in [true, false] {
                    let ebar = ctx.epsilon_bar(&state, last, prefix_last, tight);
                    let scaled = ebar * rng.gen_range(0.5..1.5);
                    let mut thresholds = ulp_around(ebar).to_vec();
                    thresholds.extend([scaled, 0.0, f64::INFINITY, f64::NAN]);
                    for eps in thresholds {
                        prop_assert!(
                            ctx.epsilon_bar_closes(&state, last, prefix_last, tight, eps)
                                == (eps >= ebar),
                            "ε = {:e}, ε̄ = {:e}, tight = {}", eps, ebar, tight
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn word_and_bit_sets_agree_up_to_a_full_word() {
        for n in [1usize, 2, 63, 64] {
            let mut word = u64::empty(n);
            let mut wide = BitSet::empty(n);
            for j in (0..n).step_by(3).chain([n - 1]) {
                ServiceSet::insert(&mut word, j);
                ServiceSet::insert(&mut wide, j);
            }
            ServiceSet::remove(&mut word, 0);
            ServiceSet::remove(&mut wide, 0);
            let absent: Vec<usize> = word.absent(n).collect();
            assert_eq!(absent, wide.absent(n).collect::<Vec<_>>(), "n = {n}");
            assert_eq!(word, ServiceSet::low_word(&wide), "n = {n}");
            assert_eq!(u64::from_bitset(&wide), word);
            for j in 0..n {
                assert_eq!(ServiceSet::contains(&word, j), !absent.contains(&j));
            }
            let (mut last, mut wide_last) = (u64::empty(n), BitSet::empty(n));
            ServiceSet::insert(&mut last, n - 1);
            ServiceSet::insert(&mut wide_last, n - 1);
            assert_eq!(word.includes(&last), wide.includes(&wide_last));
            assert_eq!(last.includes(&word), wide_last.includes(&wide));
            ServiceSet::clear(&mut word);
            assert_eq!(word.absent(n).count(), n);
        }
    }

    #[test]
    fn context_mirrors_instance_parameters() {
        let mut rng = StdRng::seed_from_u64(7);
        let inst = random_instance(&mut rng, 6, true);
        let ctx = SearchContext::new(&inst);
        assert_eq!(ctx.len(), 6);
        assert!(!ctx.is_empty());
        let row_max = bounds::row_maxima(&inst);
        for (i, &expected_row_max) in row_max.iter().enumerate() {
            assert_eq!(ctx.cost(i), inst.cost(i));
            assert_eq!(ctx.selectivity(i), inst.selectivity(i));
            assert_eq!(ctx.sink_cost(i), inst.sink_cost(i));
            assert_eq!(ctx.row_max(i), expected_row_max);
            for j in 0..6 {
                assert_eq!(ctx.transfer(i, j), inst.transfer(i, j));
            }
        }
    }

    #[test]
    fn sorted_rows_are_permutations_in_transfer_order() {
        let mut rng = StdRng::seed_from_u64(11);
        let inst = random_instance(&mut rng, 7, false);
        let ctx = SearchContext::new(&inst);
        for u in 0..7 {
            let asc = ctx.successors_ascending(u);
            let desc = ctx.successors_descending(u);
            assert_eq!(asc.len(), 6);
            let mut sorted: Vec<u32> = asc.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..7u32).filter(|&j| j as usize != u).collect::<Vec<_>>());
            assert!(asc
                .windows(2)
                .all(|w| ctx.transfer(u, w[0] as usize) <= ctx.transfer(u, w[1] as usize)));
            assert!(desc
                .windows(2)
                .all(|w| ctx.transfer(u, w[0] as usize) >= ctx.transfer(u, w[1] as usize)));
        }
    }

    #[test]
    fn single_service_context_is_degenerate_but_valid() {
        let inst = QueryInstance::builder()
            .service(Service::new(1.0, 0.5))
            .comm(CommMatrix::zeros(1))
            .sink(vec![2.0])
            .build()
            .unwrap();
        let ctx = SearchContext::new(&inst);
        assert_eq!(ctx.successors_ascending(0).len(), 0);
        assert_eq!(ctx.row_max(0), 2.0);
        let state = IncrementalBounds::<u64>::new(&ctx);
        assert_eq!(ctx.max_transfer_to(0, state.placed()), 0.0);
        assert_eq!(state.unplaced().collect::<Vec<_>>(), vec![0]);
    }
}
