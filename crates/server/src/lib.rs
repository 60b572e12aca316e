//! The plan-serving daemon: a long-lived server in front of the
//! `dsq-service` plan cache, for workloads where the optimizer is a
//! network service rather than a library call.
//!
//! The batch front-end (`dsq_service::plan_batch`) amortizes
//! optimization across a *pre-filled* queue; production traffic instead
//! arrives one request at a time, indefinitely, from many clients. This
//! crate adds the three pieces that turn the cache into a service:
//!
//! * **A newline-framed socket protocol** ([`protocol`]) over TCP or
//!   Unix-domain sockets (`std::net` / `std::os::unix::net`; no async
//!   runtime): clients write a `dsq-instance v1` document terminated by
//!   `end` and read back a single response line carrying the plan, its
//!   exact-instance cost, the serve source, and the cache fingerprint.
//! * **An event-driven core with pipelining** ([`Server`]): one reactor
//!   thread owns every connection socket through a vendored epoll poller
//!   (`vendor/reactor`), so thousands of idle connections cost no
//!   threads. The reactor answers validated cache hits itself; the
//!   worker pool drains a bounded admission queue of misses and hands
//!   completions back over a wakeup pipe. A connection may pipeline up
//!   to `max_pipeline` requests without reading responses — answers come
//!   back in request order — and a request arriving while the queue is
//!   full is answered `busy retry-after-ms N` *immediately*, so a client
//!   still cannot buffer unbounded work into the server.
//! * **Cache persistence** (via `dsq_service::PlanCache::snapshot`): the
//!   cache is restored from a snapshot file at startup (warm restart), a
//!   background thread rewrites the file periodically (atomic
//!   temp-file-and-rename), and a graceful shutdown — protocol verb or
//!   embedder signal — drains in-flight requests and writes a final
//!   snapshot. A restarted server answers at its pre-restart hit rate
//!   instead of cold. The snapshot path is guarded by an advisory
//!   [`SnapshotLock`] (`flock` on `<snapshot>.lock`, released by the
//!   kernel however the holder exits), so two live servers cannot
//!   last-writer-wins each other's snapshots.
//!
//! The serve path itself is the cache's `dsq_service::PlanCache::probe`
//! on the reactor and `resume` on a worker — the same semantics a
//! `CachedPlanner` (or, with `tiered`, a `TieredPlanner`) serves in
//! process — and the crate adds the client-side counterpart — [`RemotePlanner`], a `Planner` that
//! speaks this protocol with busy retry/backoff ([`RetryPolicy`],
//! seeded from the server's **load-aware** `retry-after-ms` hints; see
//! [`load_aware_retry_ms`]) and typed errors, so a
//! `dsq_service::FleetPlanner` can shard work across several daemons
//! with failover and a local cold fallback.
//!
//! Two operational additions support running daemons as a *fleet*:
//!
//! * **Warm partition handoff** (`export-partition` /
//!   `import-partition`, see [`protocol`]): on a fleet resize, each
//!   surviving daemon is told the new consistent-hash layout and hands
//!   over exactly the cache entries it no longer owns as a snapshot
//!   document, which the inheriting daemon restores — moved keys stay
//!   warm across the resize instead of recomputing.
//! * **Deterministic fault injection** ([`FaultProfile`],
//!   [`ServerConfig::chaos`]): the server can wrap every connection's
//!   response path in a chaos stream that drops, delays, and truncates
//!   frames on a seeded schedule, so client retry/failover paths are
//!   exercised reproducibly in tests and smoke runs.
//!
//! ```no_run
//! use dsq_server::{Client, ListenAddr, Response, Server, ServerConfig};
//!
//! let addr = ListenAddr::Tcp("127.0.0.1:0".into());
//! let server = Server::start(&addr, &ServerConfig::default())?;
//! let mut client = Client::connect(server.listen_addr())?;
//! let instance = dsq_workloads::generate(dsq_workloads::Family::Clustered, 8, 7);
//! match client.optimize(&instance)? {
//!     Response::Served { cost, plan, .. } => println!("cost {cost} plan {plan:?}"),
//!     other => println!("{other:?}"),
//! }
//! server.shutdown();
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod client;
mod event_loop;
mod lock;
mod metrics;
mod net;
pub mod protocol;
mod remote;
mod server;

pub use client::{hold_connections, Client, HoldReport, PipelineRequest, RetryPolicy};
pub use lock::{lock_path, SnapshotLock};
pub use net::{FaultProfile, ListenAddr};
pub use protocol::{ExportRequest, ProtocolError, Response};
pub use remote::RemotePlanner;
pub use server::{load_aware_retry_ms, Server, ServerConfig, ServerStats, ShutdownHandle};
