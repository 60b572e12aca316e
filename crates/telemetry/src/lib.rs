//! Zero-dependency telemetry for the serving stack: mergeable
//! log-linear [`Histogram`]s with a pinned relative-error bound, and a
//! byte-stable text exposition (`dsq-metrics v1`, see
//! [`render_exposition`]). Stages are timed with [`std::time::Instant`]
//! and recorded through [`Histogram::record_duration`].
//!
//! Counters are not stored here: each lives in exactly one place (its
//! owner's stats struct) and is passed to [`render_exposition`] by value
//! at scrape time.
//!
//! Design constraints, in order:
//!
//! 1. **Hot paths never block.** Recording into a histogram is a few
//!    relaxed atomic RMWs; nothing is locked or looked up by name.
//! 2. **Distributions are first-class.** Quantiles come with a
//!    documented relative-error bound ([`Histogram::relative_error_bound`]),
//!    and histograms merge losslessly so per-shard or per-class streams
//!    can be combined.
//! 3. **Exposition is byte-stable.** Two renders of the same state are
//!    identical bytes, so protocol tests can pin lines and diffs stay
//!    readable.
//! 4. **Monotonic clock only.** No `SystemTime` anywhere near a
//!    latency measurement.

pub mod hist;
pub mod registry;

pub use hist::{Histogram, DEFAULT_GRID_BITS};
pub use registry::{render_exposition, EXPOSITION_HEADER};
