//! The branch-and-bound search.
//!
//! # Search tree
//!
//! * **Roots** are ordered service pairs `(a, b)` sorted by pair cost
//!   `w(a,b) = c_a + σ_a·t_{a,b}` — the (finalized) first term of any plan
//!   beginning `a, b`. Once the next unexplored pair satisfies `w ≥ ρ`
//!   (the incumbent), no better plan can exist (Lemma 1) and the search
//!   exits. This realizes the paper's "at most n(n−1) prefixes of size
//!   two" observation.
//! * A node of the tree is a partial plan; the child chosen at *level* `m`
//!   fills plan position `m`. Successor candidates of the last service `u`
//!   are tried in **ascending `t_{u,j}`** ("the less expensive WS with
//!   respect to the last service that has not been investigated yet").
//!   This ordering is what makes Lemma-3 pruning sound: once a finalized
//!   term of `u` reaches `ρ`, every untried successor of `u` yields an
//!   even larger term.
//!
//! # Per-node checks (in order)
//!
//! 1. `ε ≥ ρ` → prune (Lemma 1, monotone `ε`), with Lemma-3 back-jump.
//! 2. complete plan → candidate, update `ρ`, back-jump.
//! 3. `ε ≥ ε̄` → Lemma-2 closure: every completion costs exactly `ε`;
//!    record one (greedy feasible completion), update `ρ`, back-jump.
//! 4. optional prefix dominance (extension, [`BnbConfig::use_dominance`]):
//!    an earlier node with the same placed set `S` and last service `u`
//!    had prefix product `p' ≤ p` and either `ε' ≤ ε` or a **closed**
//!    record → prune, plain backtrack. A stored node is marked closed
//!    when it leaves the path with its subtree searched to the end while
//!    its `ε' < ρ`: its candidate list ran out (the `term_u ≥ ρ` cut-off
//!    included), or a Lemma-3 rewind resumed at position `b` and it is
//!    the node of prefix length `b + 1`. Probed, stored and marked only
//!    while at least three services remain unplaced; with fewer the probe
//!    never paid for itself.
//!
//! Check 3 visits `ε̄`'s terms in order and stops at the first one above
//! `ε`; the decision is that of the fully evaluated bound.
//!
//! # Back-jumping (Lemma 3)
//!
//! After a candidate/prune, the search scans the partial plan's finalized
//! terms for the **earliest** position `b` with `term(b) ≥ ρ` and resumes
//! choosing position `b` directly: every completion of the prefix up to
//! and including the bottleneck service would finalize `b`'s term with an
//! untried (hence at least as expensive) successor, so the whole subtree
//! is dominated. The prefixes discarded this way are exactly the paper's
//! `V` structure; we count them in [`SearchStats`] instead of storing
//! them.
//!
//! # Prefix dominance
//!
//! For any completion `C`, the cost of `B·C` is at least that of `A·C`
//! when prefixes `A` and `B` share `(S, u)` and `ε_A ≤ ε_B`,
//! `p_A ≤ p_B`: every later term is `fl(p·x)` with the same `x`, and
//! rounding is monotone in `p` (so is every later prefix product). The
//! earlier node `A` is stored on entry and its subtree is searched before
//! `B` is entered, so every completion of `A` was either recorded or shown
//! to cost `≥ ρ` at the time; hence every completion of `B` costs `≥ ρ`
//! now, and — as only strict improvements are recorded — `B`'s subtree
//! could change neither `ρ` nor the plan. The interactions:
//!
//! * **Lemma 1.** `ρ` never increases, so "`≥ ρ` then" implies "`≥ ρ`
//!   now".
//! * **Lemma 2.** A closure's `ε` obeys the same monotone relation as any
//!   other term. The probe runs after the closure test anyway, so a
//!   closure is never skipped.
//! * **Lemma 3.** A back-jump out of `A`'s subtree to a position above
//!   `u` is triggered by a finalized term inside `ε_A`; that term is
//!   `≥ ρ`, so `ε_B ≥ ρ` and `B` is pruned by check 1 before the probe. A
//!   back-jump to `u`'s own position skips only successors whose term of
//!   `u` reaches `ρ`, and `B`'s term of `u` is at least as large. Either
//!   way, a back-jump from inside `B`'s own subtree lands above `u` only
//!   when a term of `B`'s prefix reaches `ρ`, which check 1 catches
//!   first, so skipping `B` with a plain backtrack resumes where its
//!   search would have.
//! * **Warm starts** only lower `ρ`.
//! * **Precedence.** Feasibility of a completion depends on `S` only.
//!
//! **Closed records** drop the `ε_A ≤ ε_B` half of the test. When `A`
//! closes, every completion of `A` has been recorded or shown to cost
//! `≥ ρ_close`, and `ε_A < ρ_close`, so each completion reaches
//! `ρ_close` in a term of its unplaced tail — `u`'s own term or a later
//! one, each `fl(p·x)` with `p` built from `p_A` by the same
//! multiplications. A later `B` with the same `(S, u)` and `p_B ≥ p_A`
//! computes every tail term from a product at least as large, so every
//! completion of `B` costs `≥ ρ_close ≥ ρ` whatever `ε_B` is. The mark is
//! set only while `A`'s slot still holds `A`'s exact key, `ε` and
//! product (a colliding node may have taken it). The two closing exits:
//!
//! * **Exhausted candidates.** Every child of `A` was searched, skipped
//!   as infeasible, or cut off because its term of `u` — and every later
//!   candidate's, in cheapest-transfer-first order — reaches `ρ`.
//! * **Lemma 3's resume node.** A rewind to position `b` leaves the node
//!   of prefix length `b + 1` for good: the child it was searching
//!   finalized position `b` at `≥ ρ`, so that child's whole subtree costs
//!   `≥ ρ`, and every untried child would finalize `b` higher still. The
//!   deeper nodes the jump discards carry that term in their `ε`, so
//!   `ε ≥ ρ` and they are not marked.
//!
//! Lemma-1 prunes, Lemma-2 closures and complete plans (`ε ≥ ρ`, or never
//! stored) and dominance prunes (never stored) are not marked either.

use crate::bitset::BitSet;
use crate::bnb::config::BnbConfig;
use crate::bnb::context::{IncrementalBounds, SearchContext, ServiceSet};
use crate::bnb::stats::SearchStats;
use crate::cost::bottleneck_cost;
use crate::instance::QueryInstance;
use crate::plan::Plan;
use std::cell::Cell;
use std::time::Instant;

/// Instances of at most this many services run the search on a one-word
/// placed set; larger ones on a [`BitSet`].
const WORD_MAX_N: usize = 64;
/// Slots of the dominance table: `2^13` slots of 32 bytes, 256 KiB per
/// thread whatever the instance size.
const DOMINANCE_BITS: u32 = 13;
/// The dominance key packs the placed set above the 6-bit last service,
/// so it is exact only for instances of at most 58 services.
const DOMINANCE_MAX_N: usize = 58;
/// The dominance probe runs only at nodes with at least this many
/// unplaced services; below it the probe never saved a node.
const DOMINANCE_MIN_UNPLACED: usize = 3;

/// One remembered node: its key `S << 6 | u`, its `ε` and prefix
/// product, the generation (search) that stored it, and whether it left
/// the path closed.
#[derive(Debug, Clone, Copy, Default)]
struct DominanceSlot {
    key: u64,
    eps: f64,
    prefix: f64,
    generation: u32,
    /// Set when the node left the path with its subtree searched to the
    /// end and `ε < ρ` (see "Prefix dominance" in the module doc).
    closed: bool,
}

// The closed flag fits in the padding: a slot stays 32 bytes.
const _: () = assert!(std::mem::size_of::<DominanceSlot>() == 32);

/// A direct-mapped table of the latest undominated `(ε, prefix)` per `(S, u)`.
/// Allocated once per thread and reused: each search stamps its entries
/// with a fresh generation instead of clearing the table. A collision
/// overwrites the slot (losing a prune, never causing a false one: the
/// full key is compared).
#[derive(Debug)]
struct DominanceTable {
    slots: Vec<DominanceSlot>,
    generation: u32,
}

thread_local! {
    /// The calling thread's table, parked here between searches.
    static DOMINANCE_TABLE: Cell<Option<DominanceTable>> = const { Cell::new(None) };
}

impl DominanceTable {
    /// Takes the thread's table (allocating it on first use) and starts a
    /// new generation, so no entry of an earlier search is visible.
    fn acquire() -> Self {
        let mut table = DOMINANCE_TABLE.take().unwrap_or_else(|| DominanceTable {
            slots: vec![DominanceSlot::default(); 1 << DOMINANCE_BITS],
            generation: 0,
        });
        table.generation = table.generation.wrapping_add(1);
        if table.generation == 0 {
            // Wrapped: entries of generation 1 onwards would look live.
            table.slots.fill(DominanceSlot::default());
            table.generation = 1;
        }
        table
    }

    /// Parks the table for the thread's next search.
    fn release(self) {
        DOMINANCE_TABLE.set(Some(self));
    }

    fn index(key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - DOMINANCE_BITS)) as usize
    }

    fn slot(&mut self, key: u64) -> &mut DominanceSlot {
        &mut self.slots[Self::index(key)]
    }

    /// Whether an earlier node of this search with the same `key` had a
    /// prefix product no larger than this one and either an `ε` no larger
    /// or a closed subtree; if not, remembers this node in the key's slot.
    fn dominated_or_store(&mut self, key: u64, eps: f64, prefix: f64) -> bool {
        let generation = self.generation;
        let slot = self.slot(key);
        if slot.generation == generation
            && slot.key == key
            && slot.prefix <= prefix
            && (slot.closed || slot.eps <= eps)
        {
            return true;
        }
        *slot = DominanceSlot { key, eps, prefix, generation, closed: false };
        false
    }

    /// Marks the node stored under `key` with exactly this `ε` and prefix
    /// product closed; a no-op once another node has taken its slot.
    fn mark_closed(&mut self, key: u64, eps: f64, prefix: f64) {
        let generation = self.generation;
        let slot = self.slot(key);
        if slot.generation == generation
            && slot.key == key
            && slot.eps.to_bits() == eps.to_bits()
            && slot.prefix.to_bits() == prefix.to_bits()
        {
            slot.closed = true;
        }
    }
}

/// Outcome of a branch-and-bound run: the best plan found, its bottleneck
/// cost, and the search statistics.
#[derive(Debug, Clone)]
pub struct BnbResult {
    plan: Plan,
    cost: f64,
    stats: SearchStats,
}

impl BnbResult {
    /// The best plan found.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The plan's bottleneck cost (Eq. 1), recomputed from scratch.
    pub fn cost(&self) -> f64 {
        self.cost
    }

    /// Statistics of the search.
    pub fn stats(&self) -> &SearchStats {
        &self.stats
    }

    /// Whether the search completed within its budgets, proving optimality.
    pub fn is_proven_optimal(&self) -> bool {
        self.stats.proven_optimal
    }

    /// Consumes the result, returning the plan.
    pub fn into_plan(self) -> Plan {
        self.plan
    }
}

/// Finds the optimal linear ordering with the paper's default
/// configuration.
///
/// # Examples
///
/// ```
/// use dsq_core::{optimize, CommMatrix, QueryInstance, Service};
///
/// let inst = QueryInstance::from_parts(
///     vec![Service::new(1.0, 0.2), Service::new(1.0, 0.9)],
///     CommMatrix::uniform(2, 0.5),
/// )?;
/// let result = optimize(&inst);
/// assert!(result.is_proven_optimal());
/// assert_eq!(result.plan().len(), 2);
/// # Ok::<(), dsq_core::ModelError>(())
/// ```
pub fn optimize(instance: &QueryInstance) -> BnbResult {
    optimize_with(instance, &BnbConfig::paper())
}

/// Finds the optimal linear ordering under the given configuration.
///
/// Every configuration returns an optimal plan unless a node budget
/// interrupts the search, in which case the best plan found so far
/// is returned with [`BnbResult::is_proven_optimal`] `== false`.
pub fn optimize_with(instance: &QueryInstance, config: &BnbConfig) -> BnbResult {
    let started = Instant::now();
    let ctx = SearchContext::new(instance);
    if instance.len() <= WORD_MAX_N {
        Searcher::<u64>::new(instance, &ctx, config.clone(), started).run()
    } else {
        Searcher::<BitSet>::new(instance, &ctx, config.clone(), started).run()
    }
}

/// One search: the path state over a placed set of type `S` (one `u64`
/// word up to [`WORD_MAX_N`] services, a [`BitSet`] beyond).
struct Searcher<'a, S> {
    inst: &'a QueryInstance,
    /// Immutable search data: flat parameter arrays, sorted successor
    /// rows, loose-mode row maxima. Built once per optimization.
    ctx: &'a SearchContext,
    cfg: BnbConfig,
    n: usize,
    // --- mutable search state ---
    plan: Vec<usize>,
    /// The placed set plus the incrementally-maintained inflation
    /// product feeding `ε̄`.
    state: IncrementalBounds<S>,
    /// Each service's predecessor set; empty without precedence
    /// constraints.
    preds: Vec<S>,
    /// `prefix[k]` = Π σ of `plan[0..k]` (so `prefix[0] == 1`).
    prefix: Vec<f64>,
    /// `eps_fin[k]` = the largest finalized term of positions `0..=k`
    /// (`k ≤ plan.len()-2`); the term of position `k` is fixed once
    /// position `k + 1` is filled. Non-decreasing, so the earliest
    /// position whose term reaches `ρ` is the first `k` with
    /// `eps_fin[k] ≥ ρ`.
    eps_fin: Vec<f64>,
    /// Candidate cursor per level.
    cand_idx: Vec<usize>,
    rho: f64,
    best: Option<Vec<usize>>,
    stats: SearchStats,
    started: Instant,
    interrupted: bool,
    /// Prefix-dominance table, present when
    /// [`BnbConfig::use_dominance`] is on and the instance can use it.
    dominance: Option<DominanceTable>,
}

impl<S> Drop for Searcher<'_, S> {
    fn drop(&mut self) {
        if let Some(table) = self.dominance.take() {
            table.release();
        }
    }
}

impl<'a, S: ServiceSet> Searcher<'a, S> {
    /// A searcher whose setup time counts from `started`.
    fn new(
        inst: &'a QueryInstance,
        ctx: &'a SearchContext,
        cfg: BnbConfig,
        started: Instant,
    ) -> Self {
        let n = inst.len();
        let dominance = (cfg.use_dominance
            && (2 + DOMINANCE_MIN_UNPLACED..=DOMINANCE_MAX_N).contains(&n))
        .then(DominanceTable::acquire);
        let preds = inst.precedence().map_or_else(Vec::new, |dag| {
            (0..n).map(|j| S::from_bitset(dag.predecessors(j))).collect()
        });
        Searcher {
            inst,
            ctx,
            cfg,
            n,
            plan: Vec::with_capacity(n),
            state: IncrementalBounds::new(ctx),
            preds,
            prefix: Vec::with_capacity(n),
            eps_fin: Vec::with_capacity(n),
            cand_idx: vec![0; n + 1],
            rho: f64::INFINITY,
            best: None,
            stats: SearchStats {
                proven_optimal: true,
                setup: started.elapsed(),
                ..SearchStats::default()
            },
            started,
            interrupted: false,
            dominance,
        }
    }

    /// Primes `ρ`/`best` from the warm-start incumbent in the
    /// configuration, keeping strict improvements only. A seed of the
    /// wrong length or violating the precedence constraints is ignored
    /// (warm starts must never make the search unsound).
    fn apply_seed(&mut self) {
        let Some(plan) = self.cfg.initial_incumbent.as_ref() else {
            return;
        };
        if plan.len() != self.n {
            return;
        }
        if let Some(dag) = self.inst.precedence() {
            if !plan.satisfies(dag) {
                return;
            }
        }
        let cost = bottleneck_cost(self.inst, plan);
        if cost < self.rho {
            self.rho = cost;
            self.best = Some(plan.indices());
        }
    }

    /// All feasible root pairs `(a, b, w)` sorted ascending by pair cost
    /// `w = c_a + σ_a·t_{a,b}`, ties in `(a, b)` order.
    fn sorted_roots(&self) -> Vec<(usize, usize, f64)> {
        let mut roots: Vec<(usize, usize, f64)> = Vec::new();
        for a in 0..self.n {
            if !self.first_position_feasible(a) {
                continue;
            }
            for b in 0..self.n {
                if a == b || !self.second_position_feasible(a, b) {
                    continue;
                }
                let w = self.ctx.cost(a) + self.ctx.selectivity(a) * self.ctx.transfer(a, b);
                roots.push((a, b, w));
            }
        }
        // The pairs are generated in `(a, b)` order, so this is the order
        // a stable sort by `w` gives.
        roots.sort_unstable_by(|x, y| x.2.total_cmp(&y.2).then(x.0.cmp(&y.0)).then(x.1.cmp(&y.1)));
        roots
    }

    fn run(mut self) -> BnbResult {
        if self.n == 1 {
            return self.finish(vec![0]);
        }

        self.apply_seed();

        // Root pairs sorted by pair cost (the plan's first term).
        let roots = self.sorted_roots();
        self.stats.setup = self.started.elapsed();

        for (idx, &(a, b, w)) in roots.iter().enumerate() {
            if self.interrupted {
                break;
            }
            if w >= self.rho {
                self.stats.roots_pruned += (roots.len() - idx) as u64;
                break;
            }
            self.stats.roots_explored += 1;
            self.explore_root(a, b, w);
        }

        let order = match self.best.take() {
            Some(order) => order,
            // Budgets can interrupt before any candidate is recorded; fall
            // back to a greedy plan so callers always receive one.
            None => self.greedy_plan().expect("acyclic precedence admits a plan"),
        };
        self.finish(order)
    }

    fn finish(mut self, order: Vec<usize>) -> BnbResult {
        self.stats.elapsed = self.started.elapsed();
        self.stats.proven_optimal = !self.interrupted;
        let plan = Plan::new(order).expect("search produces valid permutations");
        let cost = bottleneck_cost(self.inst, &plan);
        BnbResult { plan, cost, stats: std::mem::take(&mut self.stats) }
    }

    /// Depth-first exploration of the subtree rooted at the pair `(a, b)`.
    // Kept out of `run`, its only caller: inlined there, the node loop
    // measured 2% slower on btsp-hard n = 12.
    #[inline(never)]
    fn explore_root(&mut self, a: usize, b: usize, w: f64) {
        self.plan.clear();
        self.state.reset();
        self.prefix.clear();
        self.eps_fin.clear();

        self.plan.extend([a, b]);
        self.state.push(self.ctx, a);
        self.state.push(self.ctx, b);
        self.prefix.extend([1.0, self.ctx.selectivity(a)]);
        self.eps_fin.push(w);
        self.cand_idx[2] = 0;

        let mut entering = true;
        loop {
            if self.budget_exhausted() {
                self.interrupted = true;
                return;
            }
            if entering {
                entering = false;
                if !self.enter_node() {
                    // Node was pruned or completed; `enter_node` already
                    // repositioned the search (or exhausted the root).
                    if self.plan.len() < 2 {
                        return;
                    }
                    continue;
                }
                self.cand_idx[self.plan.len()] = 0;
            }

            match self.next_child() {
                Some((j, term_u)) => {
                    self.push(j, term_u);
                    entering = true;
                }
                None => {
                    // Level exhausted: abandon this node, resume the parent.
                    self.close_current();
                    if !self.pop_one() {
                        return;
                    }
                }
            }
        }
    }

    /// Entry checks for the current node. Returns `true` if the node
    /// should be expanded, `false` if it was pruned/closed (in which case
    /// the plan has already been rewound; a plan shorter than 2 means the
    /// root is exhausted).
    fn enter_node(&mut self) -> bool {
        self.stats.nodes_visited += 1;
        let m = self.plan.len();
        self.stats.max_depth = self.stats.max_depth.max(m);
        let last = self.plan[m - 1];
        let proc_term = self.prefix[m - 1] * self.ctx.cost(last);
        let eps = self.eps_fin[m - 2].max(proc_term);

        if eps >= self.rho {
            self.stats.prunes_incumbent += 1;
            self.rewind();
            return false;
        }

        if m == self.n {
            let final_term = self.prefix[m - 1]
                * (self.ctx.cost(last) + self.ctx.selectivity(last) * self.ctx.sink_cost(last));
            let total = self.eps_fin[m - 2].max(final_term);
            if total < self.rho {
                self.rho = total;
                self.best = Some(self.plan.clone());
                self.stats.candidates_recorded += 1;
            }
            self.rewind();
            return false;
        }

        if self.cfg.use_epsilon_bar
            && self.ctx.epsilon_bar_closes(
                &self.state,
                last,
                self.prefix[m - 1],
                self.cfg.tight_epsilon_bar,
                eps,
            )
        {
            // Lemma 2: every completion of this prefix costs exactly ε.
            self.stats.lemma2_closures += 1;
            if eps < self.rho {
                let full = self.greedy_completion();
                debug_assert!(
                    {
                        let plan = Plan::new(full.clone()).expect("completion is a permutation");
                        let actual = bottleneck_cost(self.inst, &plan);
                        (actual - eps).abs() <= 1e-9 * eps.max(1.0)
                    },
                    "Lemma-2 closure must equal the completion's true cost"
                );
                self.rho = eps;
                self.best = Some(full);
                self.stats.candidates_recorded += 1;
            }
            self.rewind();
            return false;
        }

        if self.n - m >= DOMINANCE_MIN_UNPLACED {
            if let Some(table) = &mut self.dominance {
                let key = dominance_key(self.state.placed(), last);
                if table.dominated_or_store(key, eps, self.prefix[m - 1]) {
                    self.stats.prunes_dominated += 1;
                    // Dominance speaks for this node's completions only,
                    // not for its siblings: plain backtrack, no back-jump.
                    self.pop_one();
                    return false;
                }
            }
        }

        true
    }

    /// Next feasible successor at the current level and the term it
    /// finalizes for the current last service, honouring the
    /// cheapest-transfer-first order and the incumbent cut-off.
    fn next_child(&mut self) -> Option<(usize, f64)> {
        let m = self.plan.len();
        let u = self.plan[m - 1];
        let prefix_u = self.prefix[m - 1];
        let (c_u, s_u) = (self.ctx.cost(u), self.ctx.selectivity(u));
        let succ = self.ctx.successors_ascending(u);
        while self.cand_idx[m] < succ.len() {
            let j = succ[self.cand_idx[m]] as usize;
            self.cand_idx[m] += 1;
            if self.state.is_placed(j) || !self.ready(self.state.placed(), j) {
                continue;
            }
            let term_u = prefix_u * (c_u + s_u * self.ctx.transfer(u, j));
            if term_u >= self.rho {
                // Successors are sorted by transfer cost: all remaining
                // candidates finalize an even larger term. Exhaust level.
                self.cand_idx[m] = succ.len();
                return None;
            }
            return Some((j, term_u));
        }
        None
    }

    /// Appends `j`, whose arrival finalizes the last service's term
    /// `term_u`.
    fn push(&mut self, j: usize, term_u: f64) {
        let m = self.plan.len();
        let top = self.eps_fin[m - 2];
        self.eps_fin.push(top.max(term_u));
        self.prefix.push(self.prefix[m - 1] * self.ctx.selectivity(self.plan[m - 1]));
        self.plan.push(j);
        self.state.push(self.ctx, j);
        self.stats.nodes_expanded += 1;
    }

    /// Marks the current node closed in the dominance table as it leaves
    /// the path with its subtree searched to the end. Only a node with
    /// `ε < ρ` qualifies: its completions all cost `≥ ρ`, so then a term
    /// of its unplaced tail does.
    fn close_current(&mut self) {
        let m = self.plan.len();
        if self.dominance.is_none() || self.n - m < DOMINANCE_MIN_UNPLACED {
            return;
        }
        let last = self.plan[m - 1];
        let prefix = self.prefix[m - 1];
        let eps = self.eps_fin[m - 2].max(prefix * self.ctx.cost(last));
        if eps < self.rho {
            let key = dominance_key(self.state.placed(), last);
            if let Some(table) = &mut self.dominance {
                table.mark_closed(key, eps, prefix);
            }
        }
    }

    /// Abandons the current node and resumes its parent's candidate
    /// iteration. Returns `false` when that would step into the root pair
    /// (root exhausted).
    fn pop_one(&mut self) -> bool {
        if self.plan.len() <= 2 {
            self.plan.clear();
            return false;
        }
        self.truncate_to(self.plan.len() - 1);
        true
    }

    /// Lemma-3 rewind: resume choosing the earliest position whose
    /// finalized term already reaches `ρ`; plain backtrack otherwise.
    fn rewind(&mut self) {
        if self.cfg.use_backjump {
            let b = self.eps_fin.partition_point(|&e| e < self.rho);
            if b < self.eps_fin.len() {
                let m = self.plan.len();
                // A plain backtrack would resume at level m-1; the jump
                // resumes at level b (positions b..m-1 discarded at once).
                self.stats.backjumps += 1;
                self.stats.backjump_levels_saved += (m - 1 - b) as u64;
                if b >= 1 {
                    // Every successor of `plan[b]` not yet tried at the
                    // node of prefix length b + 1 finalizes position b at
                    // `≥ ρ`: that node's subtree is searched to the end.
                    self.truncate_to(b + 1);
                    self.close_current();
                }
                if b <= 1 {
                    // The dominated prefix reaches into the root pair:
                    // the whole root is exhausted.
                    self.plan.clear();
                } else {
                    self.truncate_to(b);
                }
                return;
            }
        }
        self.pop_one();
    }

    fn truncate_to(&mut self, len: usize) {
        debug_assert!(len >= 2 && len <= self.plan.len());
        while self.plan.len() > len {
            let j = self.plan.pop().expect("plan is non-empty while truncating");
            self.state.pop(j);
        }
        self.prefix.truncate(len);
        self.eps_fin.truncate(len - 1);
    }

    /// Whether every predecessor of `j` is in `placed`.
    #[inline]
    fn ready(&self, placed: &S, j: usize) -> bool {
        self.preds.get(j).is_none_or(|preds| placed.includes(preds))
    }

    fn first_position_feasible(&self, a: usize) -> bool {
        match self.inst.precedence() {
            Some(dag) => dag.predecessors(a).is_empty(),
            None => true,
        }
    }

    fn second_position_feasible(&self, a: usize, b: usize) -> bool {
        match self.inst.precedence() {
            Some(dag) => dag.predecessors(b).iter().all(|p| p == a),
            None => true,
        }
    }

    /// Completes the current partial plan greedily (cheapest feasible
    /// successor first). Used for Lemma-2 closures, where every feasible
    /// completion has the same cost.
    fn greedy_completion(&self) -> Vec<usize> {
        let mut order = self.plan.clone();
        let mut placed = self.state.placed().clone();
        while order.len() < self.n {
            let u = *order.last().expect("partial plan is non-empty");
            let next = self
                .ctx
                .successors_ascending(u)
                .iter()
                .map(|&j| j as usize)
                .find(|&j| !placed.contains(j) && self.ready(&placed, j))
                .expect("acyclic precedence always leaves a ready service");
            order.push(next);
            placed.insert(next);
        }
        order
    }

    /// Full greedy plan: best cheapest-successor chain over all feasible
    /// starting services. The fallback when a budget interrupts the search
    /// before any candidate is recorded.
    fn greedy_plan(&self) -> Option<Vec<usize>> {
        let mut best: Option<(Vec<usize>, f64)> = None;
        for start in 0..self.n {
            if !self.first_position_feasible(start) {
                continue;
            }
            let mut order = vec![start];
            let mut placed = S::empty(self.n);
            placed.insert(start);
            while order.len() < self.n {
                let u = *order.last().expect("non-empty");
                let next = self
                    .ctx
                    .successors_ascending(u)
                    .iter()
                    .map(|&j| j as usize)
                    .find(|&j| !placed.contains(j) && self.ready(&placed, j));
                match next {
                    Some(j) => {
                        order.push(j);
                        placed.insert(j);
                    }
                    None => break,
                }
            }
            if order.len() < self.n {
                continue;
            }
            let plan = Plan::new(order.clone()).expect("greedy chain is a permutation");
            let cost = bottleneck_cost(self.inst, &plan);
            if best.as_ref().is_none_or(|(_, c)| cost < *c) {
                best = Some((order, cost));
            }
        }
        best.map(|(order, _)| order)
    }

    fn budget_exhausted(&self) -> bool {
        self.cfg.node_limit.is_some_and(|limit| self.stats.nodes_visited >= limit)
    }
}

/// The dominance key of a node: its placed set above its 6-bit last
/// service (exact for instances of at most [`DOMINANCE_MAX_N`] services).
#[inline]
fn dominance_key<S: ServiceSet>(placed: &S, last: usize) -> u64 {
    placed.low_word() << 6 | last as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::CommMatrix;
    use crate::precedence::PrecedenceDag;
    use crate::service::Service;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Reference: exhaustive search over all feasible permutations.
    fn brute_force(inst: &QueryInstance) -> (Vec<usize>, f64) {
        let n = inst.len();
        let mut best: Option<(Vec<usize>, f64)> = None;
        let mut order: Vec<usize> = Vec::new();
        let mut used = vec![false; n];
        fn recurse(
            inst: &QueryInstance,
            order: &mut Vec<usize>,
            used: &mut Vec<bool>,
            best: &mut Option<(Vec<usize>, f64)>,
        ) {
            let n = inst.len();
            if order.len() == n {
                let plan = Plan::new(order.clone()).unwrap();
                let cost = bottleneck_cost(inst, &plan);
                if best.as_ref().is_none_or(|(_, c)| cost < *c) {
                    *best = Some((order.clone(), cost));
                }
                return;
            }
            for s in 0..n {
                if used[s] {
                    continue;
                }
                if let Some(dag) = inst.precedence() {
                    let placed: BitSet = {
                        let mut b = BitSet::new(n);
                        for &o in order.iter() {
                            b.insert(o);
                        }
                        b
                    };
                    if !dag.is_ready(s, &placed) {
                        continue;
                    }
                }
                used[s] = true;
                order.push(s);
                recurse(inst, order, used, best);
                order.pop();
                used[s] = false;
            }
        }
        recurse(inst, &mut order, &mut used, &mut best);
        best.expect("at least one feasible plan")
    }

    fn random_instance(rng: &mut StdRng, n: usize, opts: (bool, bool, bool)) -> QueryInstance {
        let (proliferative, precedence, sinks) = opts;
        let services: Vec<Service> = (0..n)
            .map(|_| {
                let hi = if proliferative { 2.5 } else { 1.0 };
                Service::new(rng.gen_range(0.01..4.0), rng.gen_range(0.05..hi))
            })
            .collect();
        let comm =
            CommMatrix::from_fn(n, |i, j| if i == j { 0.0 } else { rng.gen_range(0.0..3.0) });
        let mut builder = QueryInstance::builder().services(services).comm(comm);
        if sinks {
            builder = builder.sink((0..n).map(|_| rng.gen_range(0.0..1.0)).collect());
        }
        if precedence {
            let mut dag = PrecedenceDag::new(n).unwrap();
            for a in 0..n {
                for b in (a + 1)..n {
                    if rng.gen_bool(0.2) {
                        dag.add_edge(a, b).unwrap();
                    }
                }
            }
            builder = builder.precedence(dag);
        }
        builder.build().unwrap()
    }

    fn assert_close(a: f64, b: f64, what: &str) {
        assert!((a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0), "{what}: {a} vs {b}");
    }

    #[test]
    fn single_service() {
        let inst = QueryInstance::builder()
            .service(Service::new(2.0, 0.5))
            .comm(CommMatrix::zeros(1))
            .sink(vec![3.0])
            .build()
            .unwrap();
        let result = optimize(&inst);
        assert_eq!(result.plan().indices(), vec![0]);
        assert_close(result.cost(), 3.5, "single service cost");
        assert!(result.is_proven_optimal());
    }

    #[test]
    fn two_services_pick_cheaper_order() {
        // WS0 expensive and non-selective, WS1 cheap filter: filter first.
        let inst = QueryInstance::from_parts(
            vec![Service::new(10.0, 1.0), Service::new(1.0, 0.1)],
            CommMatrix::uniform(2, 0.0),
        )
        .unwrap();
        let result = optimize(&inst);
        assert_eq!(result.plan().indices(), vec![1, 0]);
        assert_close(result.cost(), 1.0, "filter-first cost");
    }

    #[test]
    fn matches_brute_force_across_families_and_configs() {
        let configs = [
            BnbConfig::paper(),
            BnbConfig::incumbent_only(),
            BnbConfig::without_epsilon_bar(),
            BnbConfig::without_backjump(),
            BnbConfig { tight_epsilon_bar: false, ..BnbConfig::paper() },
        ];
        let mut rng = StdRng::seed_from_u64(2024);
        for trial in 0..120 {
            let n = rng.gen_range(2..7);
            let opts = (trial % 2 == 0, trial % 3 == 0, trial % 5 == 0);
            let inst = random_instance(&mut rng, n, opts);
            let (_, expected) = brute_force(&inst);
            for cfg in &configs {
                let result = optimize_with(&inst, cfg);
                assert!(result.is_proven_optimal());
                assert_close(result.cost(), expected, &format!("trial {trial} cfg {cfg:?}"));
                // Returned plan must actually achieve the reported cost.
                assert_close(
                    bottleneck_cost(&inst, result.plan()),
                    result.cost(),
                    "reported cost matches plan",
                );
                if let Some(dag) = inst.precedence() {
                    assert!(result.plan().satisfies(dag), "precedence respected");
                }
            }
        }
    }

    #[test]
    fn bottleneck_tsp_reduction_case() {
        // σ = 1, c = 0: pure bottleneck TSP path. Optimal = minimize the
        // largest edge used.
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..40 {
            let n = rng.gen_range(3..7);
            let services: Vec<Service> = (0..n).map(|_| Service::new(0.0, 1.0)).collect();
            let comm =
                CommMatrix::from_fn(n, |i, j| if i == j { 0.0 } else { rng.gen_range(1.0..10.0) });
            let inst = QueryInstance::from_parts(services, comm).unwrap();
            let (_, expected) = brute_force(&inst);
            let result = optimize(&inst);
            assert_close(result.cost(), expected, "BTSP case");
        }
    }

    #[test]
    fn precedence_chain_forces_unique_plan() {
        let mut dag = PrecedenceDag::new(4).unwrap();
        dag.add_edge(3, 2).unwrap();
        dag.add_edge(2, 1).unwrap();
        dag.add_edge(1, 0).unwrap();
        let inst = QueryInstance::builder()
            .services((0..4).map(|i| Service::new(1.0 + i as f64, 0.5)))
            .comm(CommMatrix::uniform(4, 1.0))
            .precedence(dag)
            .build()
            .unwrap();
        let result = optimize(&inst);
        assert_eq!(result.plan().indices(), vec![3, 2, 1, 0]);
        assert!(result.is_proven_optimal());
    }

    #[test]
    fn node_budget_interrupts_but_returns_a_plan() {
        // Seed chosen (for the vendored xoshiro-based StdRng stream) so the
        // unbudgeted search visits tens of nodes; a tiny node budget must
        // then interrupt it. Degenerate draws where the greedy incumbent is
        // proven optimal from the root bounds would never hit the budget.
        let mut rng = StdRng::seed_from_u64(31);
        let inst = random_instance(&mut rng, 9, (false, false, false));
        let cfg = BnbConfig::paper().with_node_limit(3);
        let result = optimize_with(&inst, &cfg);
        assert!(!result.is_proven_optimal());
        assert_eq!(result.plan().len(), 9);
        // The fallback/best plan must be properly costed.
        assert_close(bottleneck_cost(&inst, result.plan()), result.cost(), "budget plan cost");
    }

    #[test]
    fn stats_are_consistent() {
        let mut rng = StdRng::seed_from_u64(11);
        let inst = random_instance(&mut rng, 8, (true, false, true));
        let full = optimize_with(&inst, &BnbConfig::paper());
        let weak = optimize_with(&inst, &BnbConfig::incumbent_only());
        assert_close(full.cost(), weak.cost(), "same optimum across configs");
        let s = full.stats();
        assert!(s.nodes_visited > 0);
        assert!(s.roots_explored >= 1);
        assert!(s.max_depth <= 8);
        assert!(s.candidates_recorded >= 1);
        assert!(s.elapsed.as_nanos() > 0);
        // The full configuration never visits more nodes than the
        // incumbent-only ablation on the same instance.
        assert!(
            s.nodes_visited <= weak.stats().nodes_visited,
            "pruning must not increase visited nodes: {} vs {}",
            s.nodes_visited,
            weak.stats().nodes_visited
        );
    }

    #[test]
    fn proliferative_selectivities_are_handled() {
        // A proliferative service placed early inflates downstream load;
        // check B&B still matches brute force on a crafted instance where
        // the inflation matters.
        let inst = QueryInstance::from_parts(
            vec![Service::new(0.1, 4.0), Service::new(2.0, 0.5), Service::new(0.5, 1.0)],
            CommMatrix::from_rows(vec![
                vec![0.0, 0.2, 2.0],
                vec![0.1, 0.0, 0.3],
                vec![1.0, 0.4, 0.0],
            ])
            .unwrap(),
        )
        .unwrap();
        let (_, expected) = brute_force(&inst);
        let result = optimize(&inst);
        assert_close(result.cost(), expected, "proliferative instance");
    }

    #[test]
    fn warm_start_from_the_optimum_is_bit_identical_and_cheaper() {
        let mut rng = StdRng::seed_from_u64(77);
        for trial in 0..25 {
            let inst = random_instance(&mut rng, 7, (trial % 2 == 0, false, trial % 3 == 0));
            let cold = optimize_with(&inst, &BnbConfig::paper());
            let warm_cfg = BnbConfig::paper().with_initial_incumbent(cold.plan().clone());
            let warm = optimize_with(&inst, &warm_cfg);
            assert_eq!(warm.plan(), cold.plan(), "trial {trial}");
            assert_eq!(warm.cost().to_bits(), cold.cost().to_bits(), "trial {trial}");
            assert!(
                warm.stats().nodes_visited <= cold.stats().nodes_visited,
                "warm start must not enlarge the tree: {} vs {}",
                warm.stats().nodes_visited,
                cold.stats().nodes_visited
            );
            assert!(warm.is_proven_optimal());
        }
    }

    #[test]
    fn warm_start_from_a_suboptimal_plan_matches_cold_search() {
        let mut rng = StdRng::seed_from_u64(123);
        for trial in 0..25 {
            let inst = random_instance(&mut rng, 7, (false, false, false));
            let cold = optimize_with(&inst, &BnbConfig::paper());
            let seed = Plan::identity(7);
            let seed_cost = bottleneck_cost(&inst, &seed);
            let warm =
                optimize_with(&inst, &BnbConfig::paper().with_initial_incumbent(seed.clone()));
            assert_close(warm.cost(), cold.cost(), "warm never worse than cold");
            if seed_cost > cold.cost() {
                // A strictly suboptimal seed only tightens pruning: the
                // search trajectory to the first optimal candidate is
                // unchanged, so the plan is bit-identical.
                assert_eq!(warm.plan(), cold.plan(), "trial {trial}");
            } else {
                // The seed itself was optimal; it is returned as-is.
                assert_eq!(warm.plan(), &seed);
            }
        }
    }

    #[test]
    fn infeasible_or_mismatched_incumbents_are_ignored() {
        let mut rng = StdRng::seed_from_u64(9);
        let inst = random_instance(&mut rng, 6, (false, true, false));
        let cold = optimize_with(&inst, &BnbConfig::paper());
        // Wrong length: ignored.
        let warm =
            optimize_with(&inst, &BnbConfig::paper().with_initial_incumbent(Plan::identity(4)));
        assert_eq!(warm.plan(), cold.plan());
        // Precedence-violating seeds are ignored rather than poisoning ρ
        // with an infeasible (possibly too-low) bound.
        if let Some(dag) = inst.precedence() {
            let violating = (0..6).rev().collect::<Vec<_>>();
            if !Plan::new(violating.clone()).unwrap().satisfies(dag) {
                let warm = optimize_with(
                    &inst,
                    &BnbConfig::paper().with_initial_incumbent(Plan::new(violating).unwrap()),
                );
                assert_eq!(warm.plan(), cold.plan());
                assert!(warm.plan().satisfies(dag));
            }
        }
    }

    #[test]
    fn dominance_table_compares_both_values_and_forgets_old_searches() {
        let mut table = DominanceTable::acquire();
        assert!(!table.dominated_or_store(7, 1.0, 1.0), "empty slot");
        assert!(table.dominated_or_store(7, 1.0, 1.0), "ties are dominated");
        assert!(!table.dominated_or_store(9, 5.0, 5.0), "another key never is");
        // Smaller ε but a larger product: not dominated; it takes the slot.
        assert!(!table.dominated_or_store(7, 0.5, 2.0));
        assert!(!table.dominated_or_store(7, 1.0, 1.0), "the stored product is larger");
        table.release();

        let mut next = DominanceTable::acquire();
        assert!(!next.dominated_or_store(7, 9.0, 9.0), "a new search sees nothing of the last");
        next.generation = u32::MAX;
        assert!(!next.dominated_or_store(7, 0.0, 0.0));
        next.release();
        let mut wrapped = DominanceTable::acquire();
        assert_eq!(wrapped.generation, 1, "the generation skips 0 on wrap");
        assert!(!wrapped.dominated_or_store(7, 9.0, 9.0), "the wrap clears every slot");
        wrapped.release();
    }

    #[test]
    fn a_closed_slot_dominates_any_later_epsilon_but_no_smaller_prefix() {
        let mut table = DominanceTable::acquire();
        assert!(!table.dominated_or_store(7, 2.0, 1.0));
        assert!(!table.dominated_or_store(7, 1.5, 1.0), "open: a smaller ε is not dominated");
        table.mark_closed(7, 1.5, 1.0);
        assert!(table.dominated_or_store(7, 0.5, 1.0), "closed: smaller ε, equal prefix");
        assert!(table.dominated_or_store(7, 0.0, 3.0), "closed: smaller ε, larger prefix");
        assert!(table.dominated_or_store(7, 9.0, 1.0), "closed: larger ε");
        assert!(!table.dominated_or_store(7, 0.5, 0.5), "never a smaller prefix");
        // The node with the smaller prefix took the slot, open.
        assert!(!table.dominated_or_store(7, 0.25, 0.5));
        table.release();
    }

    #[test]
    fn marking_a_slot_another_node_has_taken_is_a_no_op() {
        let mut table = DominanceTable::acquire();
        let other = (8..)
            .find(|&k| DominanceTable::index(k) == DominanceTable::index(7))
            .expect("a colliding key");
        assert!(!table.dominated_or_store(7, 1.0, 1.0));
        assert!(!table.dominated_or_store(other, 1.0, 1.0), "the collision takes the slot");
        table.mark_closed(7, 1.0, 1.0);
        assert!(!table.dominated_or_store(other, 0.5, 1.0), "the slot's node stays open");

        // Same key, but the slot holds other values than the marked node's.
        assert!(!table.dominated_or_store(7, 1.0, 1.0));
        table.mark_closed(7, 1.0, 2.0);
        table.mark_closed(7, 0.5, 1.0);
        assert!(!table.dominated_or_store(7, 0.5, 1.0), "only the exact node is marked");
        table.release();
    }

    #[test]
    fn a_new_search_forgets_closed_marks() {
        let mut table = DominanceTable::acquire();
        assert!(!table.dominated_or_store(7, 1.0, 1.0));
        table.mark_closed(7, 1.0, 1.0);
        assert!(table.dominated_or_store(7, 0.5, 1.0));
        table.release();
        let mut next = DominanceTable::acquire();
        assert!(!next.dominated_or_store(7, 2.0, 2.0), "a new generation sees no mark");
        next.release();
    }

    #[test]
    fn instances_beyond_one_word_search_on_a_bit_set() {
        // n > 64 runs the search on a `BitSet`. With t ≡ 0 and equal
        // costs every plan costs 1; Lemma 2 closes the first root.
        let n = 70;
        let mut dag = PrecedenceDag::new(n).unwrap();
        dag.add_edge(69, 3).unwrap();
        dag.add_edge(3, 65).unwrap();
        let inst = QueryInstance::builder()
            .services((0..n).map(|_| Service::new(1.0, 1.0)))
            .comm(CommMatrix::zeros(n))
            .precedence(dag)
            .build()
            .unwrap();
        for dominance in [false, true] {
            let cfg = BnbConfig { use_dominance: dominance, ..BnbConfig::paper() };
            let result = optimize_with(&inst, &cfg);
            assert!(result.is_proven_optimal());
            assert_eq!(result.cost(), 1.0);
            assert!(result.plan().satisfies(inst.precedence().unwrap()));
        }
    }

    #[test]
    fn zero_communication_reduces_to_uniform_case() {
        // With t ≡ 0 the problem is the classical selective-ordering one;
        // sanity-check a known-optimal structure: cheap strong filters go
        // first when costs are equal.
        let inst = QueryInstance::from_parts(
            vec![Service::new(1.0, 0.9), Service::new(1.0, 0.1), Service::new(1.0, 0.5)],
            CommMatrix::zeros(3),
        )
        .unwrap();
        let result = optimize(&inst);
        // Every order starts with a term of 1.0 (first service, prefix 1)
        // and all selectivities are ≤ 1, so the optimum is exactly 1.0.
        assert_close(result.cost(), 1.0, "uniform-free optimum");
    }
}
