//! Optimal service ordering in decentralized pipelined queries.
//!
//! This crate implements the model and algorithm of
//!
//! > E. Tsamoura, A. Gounaris, Y. Manolopoulos. *Brief Announcement: On the
//! > Quest of Optimal Service Ordering in Decentralized Queries.* PODC 2010.
//!
//! A query is processed by a pipeline of web services, each on its own
//! host, each characterized by a per-tuple processing cost `c_i` and a
//! selectivity `σ_i`, with heterogeneous per-tuple transfer costs
//! `t_{i,j}` between hosts. The response time of a linear plan is governed
//! by its slowest stage — the **bottleneck cost metric** (Eq. 1, see
//! [`bottleneck_cost`]) — and the optimizer ([`optimize`]) finds the plan
//! minimizing it by a branch-and-bound search whose pruning rules are the
//! paper's three lemmas (see the [`bnb`] module docs for the lemma-to-code
//! map). The problem generalizes the bottleneck TSP and is NP-hard.
//!
//! # Quickstart
//!
//! ```
//! use dsq_core::{optimize, bottleneck_cost, CommMatrix, QueryInstance, Service};
//!
//! // Two services: an expensive proliferative lookup and a cheap filter,
//! // hosts 0.1s apart per tuple.
//! let instance = QueryInstance::builder()
//!     .service(Service::new(0.9, 3.0).with_name("card-lookup"))
//!     .service(Service::new(0.4, 0.5).with_name("history-filter"))
//!     .comm(CommMatrix::uniform(2, 0.1))
//!     .build()?;
//!
//! let result = optimize(&instance);
//! assert!(result.is_proven_optimal());
//! // Filtering first halves the load on the expensive lookup.
//! assert_eq!(result.plan().indices(), vec![1, 0]);
//! assert_eq!(result.cost(), bottleneck_cost(&instance, result.plan()));
//! # Ok::<(), dsq_core::ModelError>(())
//! ```
//!
//! # Crate layout
//!
//! * [`Service`], [`ServiceId`], [`CommMatrix`], [`PrecedenceDag`],
//!   [`QueryInstance`] — the problem model;
//! * [`Plan`], [`bottleneck_cost`], [`cost_terms`] — plans and the Eq. 1
//!   cost semantics;
//! * [`optimize`], [`optimize_with`], [`BnbConfig`], [`BnbResult`],
//!   [`SearchStats`] — the branch-and-bound optimizer and its ablation
//!   switches;
//! * [`BitSet`] — the small index set of the model, the heuristics and
//!   the search beyond 64 services.
//!
//! Baseline algorithms (exhaustive, dynamic programming, greedy, the
//! uniform-communication optimum of Srivastava et al., local search,
//! simulated annealing) live in the companion `dsq-baselines` crate;
//! execution substrates (a discrete-event simulator and a threaded
//! runtime) in `dsq-simulator` and `dsq-runtime`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bitset;
mod canonical;
mod comm;
mod cost;
mod error;
mod explain;
mod hash;
mod instance;
mod io;
mod plan;
mod precedence;
mod service;
mod snapshot;

pub mod bnb;

pub use bitset::BitSet;
pub use bnb::{optimize, optimize_with, BnbConfig, BnbResult, SearchStats};
pub use canonical::{CanonicalKey, Quantization};
pub use comm::CommMatrix;
pub use cost::{
    bottleneck_cost, bottleneck_position, cost_terms, predicted_throughput, sum_cost, CostTerm,
};
pub use error::ModelError;
pub use explain::{explain, PlanReport};
pub use hash::Fnv1a;
pub use instance::{QueryInstance, QueryInstanceBuilder};
pub use io::{format_instance, parse_instance, ParseInstanceError};
pub use plan::Plan;
pub use precedence::PrecedenceDag;
pub use service::{Service, ServiceId};
pub use snapshot::{PlanSnapshot, SnapshotEntry, SnapshotError, SNAPSHOT_HEADER};
