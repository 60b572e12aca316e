//! End-to-end and per-layer benchmark of the `dsq serve` plan-serving
//! daemon. See `README.md` in this package for the workloads, the
//! metrics and how to run it.

pub mod check;
pub mod daemon;
pub mod load;
pub mod run;
pub mod scrape;
pub mod stats;
pub mod trace;
pub mod workload;
