//! The paper's contribution: branch-and-bound search for the optimal
//! linear service ordering under the bottleneck cost metric.
//!
//! # Lemma-to-code map
//!
//! | Paper | Code |
//! |-------|------|
//! | Lemma 1 — `ε` never decreases along a prefix | `ε` is a running max over finalized terms (the searcher keeps it in the `eps_fin` stack); nodes with `ε ≥ ρ` are pruned, and root pairs are abandoned once their pair cost reaches `ρ` |
//! | Lemma 2 — `ε ≥ ε̄` fixes the cost of all completions | [`BnbConfig::use_epsilon_bar`]; the test `ε ≥ ε̄` is decided by [`SearchContext::epsilon_bar_closes`] from the incremental engine state, stopping at the first `ε̄` term above `ε`; the `ε̄` formula ([`SearchContext::epsilon_bar`]) includes the proliferative-selectivity modification |
//! | Lemma 3 — pruning up to the bottleneck service | [`BnbConfig::use_backjump`]; the search rewinds to the earliest position whose finalized term reaches `ρ`, which is sound because successors are expanded cheapest-transfer-first |
//! | (extension) prefix dominance on the subset DP's state `(S, u)` | [`BnbConfig::use_dominance`]; a per-thread table of the latest undominated `(ε, prefix product)` per placed set and last service skips a prefix an earlier one already beat, or one whose earlier `(S, u)` subtree was searched to the end (a closed record), with plans and cost bits unchanged |
//!
//! # Architecture of the hot path
//!
//! Testing `ε ≥ ε̄` at every node *is* the optimizer's throughput
//! ceiling, so the per-node work is split into two pieces (see
//! [`context`]), and the test stops at the first `ε̄` term above `ε` — on
//! btsp-hard nearly every open node is decided by the first term, so the
//! test costs `O(1)` per node in practice:
//!
//! * **[`SearchContext`]** — immutable, built once per `optimize` call:
//!   flat structure-of-arrays copies of cost/selectivity/sink, the row-major
//!   transfer matrix, loose-mode row maxima, and per-row successor lists
//!   pre-sorted ascending (candidate expansion) and descending (tight `ε̄`
//!   maxima). "Max transfer into the remaining set" is a
//!   first-remaining-entry scan of a sorted row (`O(1)` while the row head
//!   is unplaced, `O(depth)` worst case) instead of an unconditional
//!   `O(n)` loop, and the ascending rows double as the
//!   cheapest-transfer-first expansion order that makes Lemma 3 sound.
//! * **[`IncrementalBounds`]** — mutable per-search state updated in `O(1)`
//!   on every push/pop: the placed set as one word mask (a `u64` for
//!   instances of at most 64 services, a [`BitSet`](crate::BitSet) beyond,
//!   through the [`ServiceSet`] trait, so one search loop serves both; the
//!   remaining set is its complement within `n`) and a stack of the
//!   inflation product (`Π σ>1`) over the remaining services, so no `ε̄`
//!   evaluation ever rebuilds it from scratch. Pops truncate the stack,
//!   restoring pre-push values exactly. The placed check, the
//!   first-unplaced scan of a sorted row, the walk over the remaining set
//!   in the Lemma-2 test, precedence readiness (per-service predecessor
//!   masks built once per search) and the dominance key all read that
//!   word.
//!
//! The original closed-form `ε̄` is retained in a test-only `bounds`
//! module as a reference oracle; property tests pin the incremental
//! engine to it within `1e-12` over random push/pop/rewind sequences.
//!
//! The private `search` module's source documents the full search-tree
//! layout, per-node checks, and the back-jumping mechanics.

#[cfg(test)]
mod bounds;
mod config;
pub mod context;
mod search;
mod stats;

pub use config::BnbConfig;
pub use context::{IncrementalBounds, SearchContext, ServiceSet};
pub use search::{optimize, optimize_with, BnbResult};
pub use stats::SearchStats;
