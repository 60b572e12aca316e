//! The daemon itself: the epoll reactor owning every connection (see
//! [`event_loop`](crate::event_loop)), admission control, the worker
//! pool, and background cache snapshots.

use crate::event_loop::{self, TOKEN_WAKER};
use crate::lock::SnapshotLock;
use crate::metrics::ServerMetrics;
use crate::net::{FaultProfile, ListenAddr, Listener};
use dsq_core::{BnbConfig, QueryInstance};
use dsq_service::{
    CacheConfig, CacheStats, PendingServe, PlanCache, PlanError, ServedPlan, TieredPlanner,
    TieredStats,
};
use dsq_telemetry::Stopwatch;
use std::fmt;
use std::io;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Requests larger than this are rejected and the connection closed (the
/// stream position after an oversized document is unknowable).
pub(crate) const MAX_REQUEST_BYTES: usize = 1 << 20;

/// Default size cap on an `import-partition` snapshot document — more
/// generous than [`MAX_REQUEST_BYTES`]: a partition carries one instance
/// text per entry, and a handoff from a large cache legitimately
/// outweighs any single optimize request. Configurable per server via
/// [`ServerConfig::max_import_bytes`].
const DEFAULT_MAX_IMPORT_BYTES: usize = 8 << 20;

/// Default cap on admitted-but-unanswered requests per connection (see
/// [`ServerConfig::max_pipeline`]).
const DEFAULT_MAX_PIPELINE: usize = 64;

/// Configuration of a [`Server`]. Passive struct; fields are public.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads draining the admission queue. Validated cache hits
    /// are answered on the reactor thread and never reach a worker.
    pub workers: NonZeroUsize,
    /// Bound of the admission queue: misses waiting for a worker. A miss
    /// arriving while the queue is full is answered `busy` immediately
    /// instead of being buffered (so total in-flight work is bounded by
    /// `queue_capacity + workers`).
    pub queue_capacity: usize,
    /// **Base** backoff hint attached to `busy` responses, in
    /// milliseconds; the wire hint is load-aware — scaled by how much
    /// admitted work is outstanding relative to the queue capacity (see
    /// [`load_aware_retry_ms`]), so clients back off harder the deeper
    /// the backlog.
    pub retry_after_ms: u64,
    /// Optimizer configuration for every search (cold or warm).
    pub bnb: BnbConfig,
    /// Plan-cache configuration (shards, capacity, quantization,
    /// validation tolerance, probes).
    pub cache: CacheConfig,
    /// Snapshot file for cache persistence: restored at startup when it
    /// exists (warm restart), rewritten every
    /// [`snapshot_interval`](Self::snapshot_interval) and once more on
    /// shutdown. `None` disables persistence.
    pub snapshot_path: Option<PathBuf>,
    /// Period of the background snapshot writer.
    pub snapshot_interval: Duration,
    /// Two-tier anytime serving: cache misses are answered immediately
    /// with a greedy heuristic plan (tier 1, `tier heur` on the wire)
    /// while a background pool refines them to exact and upgrades the
    /// cache entry in place — later hits on the same key serve the
    /// proven-optimal plan. Off by default: the classic path answers
    /// every miss with the exact search.
    pub tiered: bool,
    /// Deterministic fault injection on every connection's response
    /// path (drops, delays, truncations — see
    /// [`FaultProfile`](crate::FaultProfile)). `None` (the default)
    /// serves cleanly; chaos testing and the `--chaos` CLI flag set it.
    pub chaos: Option<FaultProfile>,
    /// Per-connection cap on admitted-but-unanswered requests (the
    /// pipelining depth). A connection at the cap stops being read until
    /// a response frees a slot — backpressure, not an error.
    pub max_pipeline: usize,
    /// Size cap on an `import-partition` snapshot document, checked
    /// before every appended line (the trailer included).
    pub max_import_bytes: usize,
    /// Test hook: a request verb that makes the connection handler
    /// panic, exercising the reactor's panic isolation
    /// (`ServerStats::connection_panics`) deterministically. `None`
    /// (the default, and the only sensible production value) disables
    /// it.
    pub debug_panic_verb: Option<String>,
}

impl Default for ServerConfig {
    /// One worker (scale explicitly on multi-core hosts), a 64-slot
    /// admission queue, 50 ms retry hint, the paper optimizer with
    /// [prefix dominance](BnbConfig::use_dominance) on (same plans and
    /// cost bits, fewer nodes per cold search), the default cache with **two probes** (the daemon faces drifting
    /// traffic, where multi-probe lookup pays for itself), no
    /// persistence, 30 s snapshot period, a 64-deep pipeline cap.
    fn default() -> Self {
        ServerConfig {
            workers: NonZeroUsize::new(1).expect("non-zero literal"),
            queue_capacity: 64,
            retry_after_ms: 50,
            bnb: BnbConfig { use_dominance: true, ..BnbConfig::paper() },
            cache: CacheConfig { probes: 2, ..CacheConfig::default() },
            snapshot_path: None,
            snapshot_interval: Duration::from_secs(30),
            tiered: false,
            chaos: None,
            max_pipeline: DEFAULT_MAX_PIPELINE,
            max_import_bytes: DEFAULT_MAX_IMPORT_BYTES,
            debug_panic_verb: None,
        }
    }
}

/// Aggregate serving counters, cache statistics included.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServerStats {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Optimize requests admitted: validated hits answered on the
    /// reactor plus requests sent to the worker queue.
    pub admitted: u64,
    /// Requests rejected with `busy` by admission control.
    pub busy_rejections: u64,
    /// Requests answered with `error` (unparseable instances, unknown
    /// verbs, oversized documents).
    pub protocol_errors: u64,
    /// Entries restored from the snapshot file at startup.
    pub restored_entries: u64,
    /// Background + final snapshots written successfully.
    pub snapshots_written: u64,
    /// Snapshot writes that failed (I/O errors are counted, not fatal).
    pub snapshot_errors: u64,
    /// Admitted-but-unfinished requests right now (queued + executing);
    /// a gauge, not a lifetime counter. Returns to zero on an idle
    /// server — the regression sentinel for the old underflow race that
    /// wrapped it to `usize::MAX` and pinned every `busy` hint at the
    /// 16× cap.
    pub outstanding: u64,
    /// Deepest per-connection response pipeline observed (requests
    /// admitted or answered ahead of the client reading). Greater than
    /// one proves pipelined service actually overlapped requests.
    pub pipeline_peak: u64,
    /// Connection handlers that panicked (each logged to stderr, the
    /// connection closed, the server kept serving).
    pub connection_panics: u64,
    /// Exported partitions restored into the cache because the
    /// connection died before the export was fully delivered.
    pub export_rollbacks: u64,
    /// Export rollbacks that themselves failed — exported entries were
    /// lost (each is also logged to stderr).
    pub export_rollback_errors: u64,
    /// The plan cache's own counters.
    pub cache: CacheStats,
    /// Refinement counters of the two-tier path; `None` when the server
    /// runs the classic exact-only configuration.
    pub tiered: Option<TieredStats>,
}

impl ServerStats {
    /// Every counter as a stable `(group, token, value)` table — the
    /// **single source** for the human [`Display`](fmt::Display) form
    /// and for the counters folded into the `metrics` exposition
    /// (`server.<group>.<token>`). Tokens are appended here once and
    /// flow to both renderings; PRs 6–8 grew them ad hoc in each.
    ///
    /// Rates are carried as integer basis points (`*-bp`, 1/100 of a
    /// percent) so the table stays `u64` end to end.
    pub fn token_table(&self) -> Vec<(&'static str, &'static str, u64)> {
        let mut table = vec![
            ("serve", "requests", self.cache.requests()),
            ("serve", "connections", self.connections),
            ("serve", "hits", self.cache.hits),
            ("serve", "probe2-hits", self.cache.probe2_hits),
            ("serve", "warm-starts", self.cache.warm_starts),
            ("serve", "cold", self.cache.misses),
            ("serve", "hit-rate-bp", (self.cache.hit_rate() * 10_000.0).round() as u64),
            ("admission", "admitted", self.admitted),
            ("admission", "busy-rejections", self.busy_rejections),
            ("admission", "protocol-errors", self.protocol_errors),
            ("cache", "entries", self.cache.entries as u64),
            ("cache", "evictions", self.cache.evictions),
            ("cache", "insertions", self.cache.insertions),
            ("cache", "heuristic-entries", self.cache.heuristic_entries as u64),
            ("snapshots", "restored", self.restored_entries),
            ("snapshots", "written", self.snapshots_written),
            ("snapshots", "errors", self.snapshot_errors),
            ("reactor", "pipeline-peak", self.pipeline_peak),
            ("reactor", "outstanding", self.outstanding),
            ("reactor", "connection-panics", self.connection_panics),
            ("reactor", "export-rollbacks", self.export_rollbacks),
            ("reactor", "export-rollback-errors", self.export_rollback_errors),
        ];
        if let Some(tiered) = &self.tiered {
            table.extend([
                ("tiered", "heuristic-served", tiered.heuristic_served),
                ("tiered", "refined", tiered.refined),
                ("tiered", "refine-skipped", tiered.refine_skipped),
                ("tiered", "refine-dropped", tiered.refine_dropped),
                ("tiered", "refine-nodes", tiered.refine_nodes),
                ("tiered", "max-gap-bp", (tiered.max_gap * 10_000.0).round() as u64),
            ]);
        }
        table
    }
}

impl fmt::Display for ServerStats {
    /// A prose head line (kept grep-stable for operators and the smoke
    /// scripts) followed by one `group: token value …` line per group
    /// of [`token_table`](Self::token_table) — the table IS the format,
    /// so a counter added there shows up here without hand-editing.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "served {} requests over {} connections ({:.1}% hit-rate)",
            self.cache.requests(),
            self.connections,
            self.cache.hit_rate() * 100.0,
        )?;
        // Tokens the head line already carries in prose.
        let in_head = [("serve", "requests"), ("serve", "connections"), ("serve", "hit-rate-bp")];
        let mut current_group = "";
        for (group, token, value) in self.token_table() {
            if in_head.contains(&(group, token)) {
                continue;
            }
            if group != current_group {
                write!(f, "\n{group}:")?;
                current_group = group;
            }
            write!(f, " {token} {value}")?;
        }
        Ok(())
    }
}

/// Load-aware `busy` hint: the configured base hint scaled by the
/// admitted-but-unfinished work (queued + executing) relative to the
/// queue capacity. At exactly a full queue and idle workers the hint is
/// the base; every additional outstanding request (workers mid-search,
/// racing admissions) pushes it up by ~`base / capacity`, so clients of
/// a deeply backlogged server back off proportionally harder. The hint
/// is monotone non-decreasing in `outstanding`, never below the base,
/// and capped at 16× the base.
pub fn load_aware_retry_ms(base_ms: u64, outstanding: usize, queue_capacity: usize) -> u64 {
    if base_ms == 0 {
        return 0;
    }
    let capacity = queue_capacity.max(1) as u64;
    let outstanding = (outstanding as u64).min(u64::MAX / base_ms.max(1)); // overflow guard
    let scaled = base_ms.saturating_mul(outstanding + 1).div_ceil(capacity + 1);
    scaled.clamp(base_ms, base_ms.saturating_mul(16))
}

/// One queued unit of work: the parsed instance, the serve its reactor
/// probe left pending (keys and what the probe found, so the worker
/// resumes instead of starting over), and the connection token and
/// per-connection sequence its completion is routed back by.
pub(crate) struct Job {
    pub(crate) instance: QueryInstance,
    pub(crate) pending: PendingServe,
    /// The reactor's probe time; the worker adds its own to record the
    /// request's one plan-stage sample.
    pub(crate) probe_ns: u64,
    pub(crate) conn: u64,
    pub(crate) seq: u64,
    /// Started at admission; read at worker dequeue — the queue-wait
    /// stage of the request's latency decomposition.
    pub(crate) admitted_at: Stopwatch,
}

/// A finished job on its way back from a worker to the reactor (over
/// [`Inner::completions`] + the waker pipe). The result is a [`Result`]
/// so a resume that panicked degrades to a protocol `error` instead of
/// a hang.
pub(crate) struct Completion {
    pub(crate) conn: u64,
    pub(crate) seq: u64,
    pub(crate) result: Result<ServedPlan, PlanError>,
}

/// State shared by every thread of the server.
pub(crate) struct Inner {
    pub(crate) cache: Arc<PlanCache>,
    /// The two-tier planner wrapping [`cache`](Self::cache) when the
    /// server runs in tiered mode; its refinement workers live (and are
    /// joined) inside it.
    pub(crate) tiered: Option<TieredPlanner>,
    pub(crate) bnb: BnbConfig,
    pub(crate) retry_after_ms: u64,
    pub(crate) queue_capacity: usize,
    pub(crate) max_pipeline: usize,
    pub(crate) max_import_bytes: usize,
    pub(crate) debug_panic_verb: Option<String>,
    /// This server's private telemetry: stage histograms recorded by
    /// the reactor and workers, scraped by the `metrics` verb. Private
    /// per server so co-located daemons never mix latency streams.
    pub(crate) metrics: ServerMetrics,
    /// Queued jobs not yet completed (queued + executing; hits answered
    /// on the reactor never count) — what the load-aware `busy` hint
    /// scales with. The reactor increments *before* admission
    /// `try_send` (rolling back on the `Full`/`Disconnected` paths) and
    /// the worker decrements after planning, so the increment always
    /// precedes the decrement.
    pub(crate) outstanding: AtomicUsize,
    /// Fault-injection profile wrapped around every accepted
    /// connection's stream; `None` serves cleanly.
    pub(crate) chaos: Option<FaultProfile>,
    /// Finished jobs awaiting the reactor; workers push here and wake
    /// the poll through [`waker`](Self::waker).
    pub(crate) completions: Mutex<Vec<Completion>>,
    /// Wakes the reactor's poll from worker threads (and from
    /// [`Server::shutdown`]).
    pub(crate) waker: reactor::Waker,
    /// Hard-stop flag: the reactor begins its drain, and the snapshot
    /// thread exits, at the next wakeup.
    pub(crate) shutdown: AtomicBool,
    /// Soft signal set by the protocol `shutdown` verb (or the embedder):
    /// observable via [`Server::wait_shutdown_requested`], it does not by
    /// itself stop anything — the embedder decides when to drain.
    pub(crate) shutdown_requested: Mutex<bool>,
    pub(crate) signal: Condvar,
    pub(crate) connections: AtomicU64,
    pub(crate) admitted: AtomicU64,
    pub(crate) busy_rejections: AtomicU64,
    pub(crate) protocol_errors: AtomicU64,
    pub(crate) restored_entries: AtomicU64,
    pub(crate) snapshots_written: AtomicU64,
    pub(crate) snapshot_errors: AtomicU64,
    pub(crate) pipeline_peak: AtomicU64,
    pub(crate) connection_panics: AtomicU64,
    pub(crate) export_rollbacks: AtomicU64,
    pub(crate) export_rollback_errors: AtomicU64,
}

impl Inner {
    pub(crate) fn stats(&self) -> ServerStats {
        ServerStats {
            connections: self.connections.load(Ordering::Relaxed),
            admitted: self.admitted.load(Ordering::Relaxed),
            busy_rejections: self.busy_rejections.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            restored_entries: self.restored_entries.load(Ordering::Relaxed),
            snapshots_written: self.snapshots_written.load(Ordering::Relaxed),
            snapshot_errors: self.snapshot_errors.load(Ordering::Relaxed),
            outstanding: self.outstanding.load(Ordering::Relaxed) as u64,
            pipeline_peak: self.pipeline_peak.load(Ordering::Relaxed),
            connection_panics: self.connection_panics.load(Ordering::Relaxed),
            export_rollbacks: self.export_rollbacks.load(Ordering::Relaxed),
            export_rollback_errors: self.export_rollback_errors.load(Ordering::Relaxed),
            cache: self.cache.stats(),
            tiered: self.tiered.as_ref().map(TieredPlanner::tiered_stats),
        }
    }

    pub(crate) fn request_shutdown(&self) {
        let mut requested = self.shutdown_requested.lock().expect("signal lock");
        *requested = true;
        self.signal.notify_all();
    }

    /// Writes one snapshot atomically (temp file + rename), counting the
    /// outcome instead of unwinding: persistence failures must not take
    /// the serving path down.
    fn write_snapshot(&self, path: &std::path::Path) {
        let text = self.cache.snapshot().to_text();
        let tmp = path.with_extension("tmp");
        let result = std::fs::write(&tmp, text).and_then(|()| std::fs::rename(&tmp, path));
        match result {
            Ok(()) => self.snapshots_written.fetch_add(1, Ordering::Relaxed),
            Err(_) => self.snapshot_errors.fetch_add(1, Ordering::Relaxed),
        };
    }
}

/// A running plan-serving daemon. See the [crate docs](crate) for the
/// protocol and an end-to-end example; construction is
/// [`Server::start`], teardown is [`Server::shutdown`] (graceful drain).
pub struct Server {
    inner: Arc<Inner>,
    listen_addr: ListenAddr,
    snapshot_path: Option<PathBuf>,
    /// Held for the server's lifetime when persistence is on; guards the
    /// snapshot path against a second live writer (released on drop at
    /// the end of [`shutdown`](Self::shutdown)).
    _snapshot_lock: Option<SnapshotLock>,
    /// Master sender keeping the admission queue open; dropped during
    /// shutdown so the workers drain and exit.
    job_tx: Option<SyncSender<Job>>,
    reactor_handle: Option<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
    snapshot_handle: Option<JoinHandle<()>>,
}

impl fmt::Debug for Server {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Server").field("listen_addr", &self.listen_addr).finish_non_exhaustive()
    }
}

impl Server {
    /// Binds `addr`, restores the snapshot file if one exists (warm
    /// restart), and spawns the reactor, worker pool, and snapshot
    /// writer.
    ///
    /// # Errors
    ///
    /// I/O errors from binding or from creating the epoll poller;
    /// `AddrInUse` when another live process holds the snapshot path's
    /// `.lock` file (two writers would last-writer-wins each other's
    /// snapshots); or a snapshot file that exists but fails to
    /// parse/restore (reported as `InvalidData` — a corrupt snapshot is
    /// refused loudly rather than silently served cold).
    pub fn start(addr: &ListenAddr, config: &ServerConfig) -> io::Result<Server> {
        assert!(config.queue_capacity > 0, "the admission queue needs at least one slot");
        assert!(config.max_pipeline > 0, "the pipeline needs at least one slot");
        let listener = Listener::bind(addr)?;
        let listen_addr = listener.local_addr()?;
        let snapshot_lock = match &config.snapshot_path {
            Some(path) => Some(SnapshotLock::acquire(path)?),
            None => None,
        };

        // The reactor's poller: the listener is registered up front so
        // registration failures surface here, not on a detached thread;
        // the waker is how workers (and shutdown) interrupt the poll.
        let poll = reactor::Poll::new()?;
        poll.register(listener.raw_fd(), event_loop::TOKEN_LISTENER, reactor::Interest::READABLE)?;
        let waker = reactor::Waker::new(&poll, TOKEN_WAKER)?;

        let cache = Arc::new(PlanCache::new(config.cache.clone()));
        let tiered =
            config.tiered.then(|| TieredPlanner::new(Arc::clone(&cache), config.bnb.clone()));
        let inner = Arc::new(Inner {
            cache,
            tiered,
            bnb: config.bnb.clone(),
            retry_after_ms: config.retry_after_ms,
            queue_capacity: config.queue_capacity,
            max_pipeline: config.max_pipeline,
            max_import_bytes: config.max_import_bytes,
            debug_panic_verb: config.debug_panic_verb.clone(),
            metrics: ServerMetrics::default(),
            outstanding: AtomicUsize::new(0),
            chaos: config.chaos,
            completions: Mutex::new(Vec::new()),
            waker,
            shutdown: AtomicBool::new(false),
            shutdown_requested: Mutex::new(false),
            signal: Condvar::new(),
            connections: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            busy_rejections: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            restored_entries: AtomicU64::new(0),
            snapshots_written: AtomicU64::new(0),
            snapshot_errors: AtomicU64::new(0),
            pipeline_peak: AtomicU64::new(0),
            connection_panics: AtomicU64::new(0),
            export_rollbacks: AtomicU64::new(0),
            export_rollback_errors: AtomicU64::new(0),
        });

        if let Some(path) = &config.snapshot_path {
            match std::fs::read_to_string(path) {
                Ok(text) => {
                    let restored = inner.cache.restore_from_text(&text).map_err(|e| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("cannot restore snapshot {}: {e}", path.display()),
                        )
                    })?;
                    inner.restored_entries.store(restored as u64, Ordering::Relaxed);
                }
                Err(e) if e.kind() == io::ErrorKind::NotFound => {} // cold start
                Err(e) => return Err(e),
            }
        }

        let (job_tx, job_rx) = sync_channel::<Job>(config.queue_capacity);
        // The mpsc receiver is single-consumer; the mutex
        // turns it into the shared queue the pool drains (held only for
        // the pop, never during an optimization).
        let job_rx = Arc::new(Mutex::new(job_rx));

        let worker_handles: Vec<JoinHandle<()>> = (0..config.workers.get())
            .map(|_| {
                let inner = Arc::clone(&inner);
                let job_rx = Arc::clone(&job_rx);
                std::thread::spawn(move || worker_loop(&inner, &job_rx))
            })
            .collect();

        let reactor_handle = {
            let inner = Arc::clone(&inner);
            let job_tx = job_tx.clone();
            std::thread::spawn(move || event_loop::run(listener, poll, &inner, &job_tx))
        };

        let snapshot_handle = config.snapshot_path.as_ref().map(|path| {
            let inner = Arc::clone(&inner);
            let path = path.clone();
            let interval = config.snapshot_interval;
            std::thread::spawn(move || snapshot_loop(&inner, &path, interval))
        });

        Ok(Server {
            inner,
            listen_addr,
            snapshot_path: config.snapshot_path.clone(),
            _snapshot_lock: snapshot_lock,
            job_tx: Some(job_tx),
            reactor_handle: Some(reactor_handle),
            worker_handles,
            snapshot_handle,
        })
    }

    /// The resolved listen address (TCP port `0` becomes the real port).
    pub fn listen_addr(&self) -> &ListenAddr {
        &self.listen_addr
    }

    /// A snapshot of the serving counters.
    pub fn stats(&self) -> ServerStats {
        self.inner.stats()
    }

    /// Signals that a shutdown was requested (also triggered by the
    /// protocol `shutdown` verb). Purely advisory: the embedder observes
    /// it via [`wait_shutdown_requested`](Self::wait_shutdown_requested)
    /// and decides when to call [`shutdown`](Self::shutdown).
    pub fn request_shutdown(&self) {
        self.inner.request_shutdown();
    }

    /// Whether a shutdown has been requested.
    pub fn shutdown_requested(&self) -> bool {
        *self.inner.shutdown_requested.lock().expect("signal lock")
    }

    /// A cloneable handle that can request a shutdown from another
    /// thread (e.g. a stdin-EOF watcher) while the embedder blocks in
    /// [`wait_shutdown_requested`](Self::wait_shutdown_requested).
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle { inner: Arc::clone(&self.inner) }
    }

    /// Blocks until a shutdown is requested (protocol verb or
    /// [`request_shutdown`](Self::request_shutdown)).
    pub fn wait_shutdown_requested(&self) {
        let mut requested = self.inner.shutdown_requested.lock().expect("signal lock");
        while !*requested {
            requested = self.inner.signal.wait(requested).expect("signal lock");
        }
    }

    /// Graceful drain: stop accepting, answer and flush every admitted
    /// request, run the queue dry, write a final snapshot, and return
    /// the final counters.
    pub fn shutdown(mut self) -> ServerStats {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.request_shutdown();
        // The reactor observes the flag at the wakeup, drains every
        // connection (admitted requests answered, buffers flushed), and
        // exits — after this join no new jobs can be submitted…
        self.inner.waker.wake();
        if let Some(handle) = self.reactor_handle.take() {
            let _ = handle.join();
        }
        // …dropping the master sender lets the workers drain what is
        // queued and exit.
        self.job_tx = None;
        for handle in self.worker_handles.drain(..) {
            let _ = handle.join();
        }
        if let Some(handle) = self.snapshot_handle.take() {
            let _ = handle.join();
        }
        // In tiered mode, let outstanding refinements land before the
        // final snapshot: heuristic-tier entries are never persisted, so
        // an undrained queue would cost the next warm restart its plans.
        if let Some(tiered) = &self.inner.tiered {
            tiered.drain();
        }
        if let Some(path) = &self.snapshot_path {
            self.inner.write_snapshot(path);
        }
        self.inner.stats()
    }
}

/// A detached handle to a [`Server`]'s shutdown-request signal; see
/// [`Server::shutdown_handle`].
#[derive(Clone)]
pub struct ShutdownHandle {
    inner: Arc<Inner>,
}

impl fmt::Debug for ShutdownHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShutdownHandle").finish_non_exhaustive()
    }
}

impl ShutdownHandle {
    /// Equivalent to [`Server::request_shutdown`].
    pub fn request_shutdown(&self) {
        self.inner.request_shutdown();
    }
}

fn worker_loop(inner: &Inner, job_rx: &Mutex<Receiver<Job>>) {
    loop {
        // Holding the lock while blocked is fine: a worker that receives
        // a job releases it before optimizing, so pickup is serialized
        // but execution is parallel.
        let job = match job_rx.lock().expect("queue lock").recv() {
            Ok(job) => job,
            Err(_) => return, // all senders gone: drained, exit
        };
        job.admitted_at.observe(&inner.metrics.queue_wait_ns);
        let plan_timer = Stopwatch::start();
        let Job { instance, pending, probe_ns, conn, seq, .. } = job;
        // Resume the serve the reactor's probe began, through the same
        // cache semantics `PlanCache::serve` and `TieredPlanner::plan`
        // have. A panicking resume must not wedge the job's connection
        // (the reactor waits for a completion that would otherwise never
        // come) — and must not kill the worker.
        let result = catch_unwind(AssertUnwindSafe(|| match &inner.tiered {
            Some(tiered) => tiered.resume(&instance, pending),
            None => inner.cache.resume(&instance, pending, &inner.bnb),
        }))
        .map_err(|_| PlanError::Backend("planner worker panicked".into()));
        inner.metrics.plan_ns.record(probe_ns + plan_timer.elapsed_nanos());
        inner.outstanding.fetch_sub(1, Ordering::Relaxed);
        inner.completions.lock().expect("completion lock").push(Completion { conn, seq, result });
        inner.waker.wake();
    }
}

fn snapshot_loop(inner: &Inner, path: &std::path::Path, interval: Duration) {
    // The final snapshot is written by `shutdown()` once the workers are
    // quiescent.
    while wait_interval(&inner.shutdown, &inner.shutdown_requested, &inner.signal, interval) {
        inner.write_snapshot(path);
    }
}

/// Sleeps for `interval` or until shutdown is signalled; `false` once
/// shutdown has begun. The flag is checked under the signal lock before
/// waiting: a snapshot thread scheduled only after `shutdown()` notified
/// would otherwise sleep through its whole interval and stall the join.
fn wait_interval(
    shutdown: &AtomicBool,
    requested: &Mutex<bool>,
    signal: &Condvar,
    interval: Duration,
) -> bool {
    let guard = requested.lock().expect("signal lock");
    if shutdown.load(Ordering::SeqCst) {
        return false;
    }
    let _ = signal.wait_timeout(guard, interval).expect("signal lock");
    !shutdown.load(Ordering::SeqCst)
}

#[cfg(test)]
mod tests {
    use super::{load_aware_retry_ms, wait_interval, ServerStats};
    use dsq_service::{CacheStats, TieredStats};
    use std::sync::atomic::AtomicBool;
    use std::sync::{Condvar, Mutex};
    use std::time::{Duration, Instant};

    /// Regression: the snapshot thread waited on the shutdown signal
    /// without checking the flag first, so a thread that reached its
    /// wait after `shutdown()` had notified slept through its whole
    /// interval (an hour in the pipeline tests) and hung the join.
    #[test]
    fn a_snapshot_wait_that_starts_after_shutdown_returns_at_once() {
        let (shutdown, requested, signal) =
            (AtomicBool::new(true), Mutex::new(true), Condvar::new());
        let started = Instant::now();
        assert!(!wait_interval(&shutdown, &requested, &signal, Duration::from_secs(2)));
        assert!(started.elapsed() < Duration::from_secs(1), "slept through the interval");
    }

    /// The Display form is generated from the token table and pinned
    /// byte for byte. A fresh server's head line reads `0.0%`, never
    /// `NaN%`: `CacheStats::hit_rate` guards the zero-request division.
    #[test]
    fn display_is_generated_from_the_token_table_and_pinned() {
        let stats = ServerStats {
            connections: 3,
            admitted: 6,
            busy_rejections: 1,
            snapshots_written: 2,
            pipeline_peak: 4,
            cache: CacheStats {
                hits: 4,
                probe2_hits: 1,
                warm_starts: 1,
                misses: 1,
                insertions: 2,
                entries: 2,
                ..CacheStats::default()
            },
            ..ServerStats::default()
        };
        assert_eq!(
            stats.to_string(),
            "served 6 requests over 3 connections (66.7% hit-rate)\n\
             serve: hits 4 probe2-hits 1 warm-starts 1 cold 1\n\
             admission: admitted 6 busy-rejections 1 protocol-errors 0\n\
             cache: entries 2 evictions 0 insertions 2 heuristic-entries 0\n\
             snapshots: restored 0 written 2 errors 0\n\
             reactor: pipeline-peak 4 outstanding 0 connection-panics 0 \
             export-rollbacks 0 export-rollback-errors 0"
        );
        // The tiered group appears exactly when the server ran tiered.
        let tiered = ServerStats { tiered: Some(TieredStats::default()), ..stats };
        let text = tiered.to_string();
        assert!(
            text.ends_with(
                "tiered: heuristic-served 0 refined 0 refine-skipped 0 refine-dropped 0 \
                 refine-nodes 0 max-gap-bp 0"
            ),
            "{text}"
        );
        assert!(!stats.to_string().contains("tiered:"));
        assert!(
            ServerStats::default()
                .to_string()
                .starts_with("served 0 requests over 0 connections (0.0% hit-rate)\n"),
            "{}",
            ServerStats::default()
        );
    }

    /// Every table token is display-safe (no spaces, lowercase) and
    /// unique within its group — what keeps `group.token` exposition
    /// names collision-free.
    #[test]
    fn token_table_tokens_are_wire_safe_and_unique() {
        let stats = ServerStats { tiered: Some(TieredStats::default()), ..ServerStats::default() };
        let table = stats.token_table();
        for (group, token, _) in &table {
            for part in [*group, *token] {
                assert!(
                    part.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-'),
                    "token {part:?} must be lowercase-dashed"
                );
            }
        }
        let mut names: Vec<String> = table.iter().map(|(g, t, _)| format!("{g}.{t}")).collect();
        let before = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate token in the table");
    }

    #[test]
    fn retry_hint_is_monotone_in_outstanding_work() {
        for capacity in [1usize, 4, 64] {
            let mut previous = 0;
            for outstanding in 0..=4 * capacity + 8 {
                let hint = load_aware_retry_ms(50, outstanding, capacity);
                assert!(hint >= previous, "hint fell {previous} -> {hint} at {outstanding}");
                assert!(hint >= 50, "never below the base");
                assert!(hint <= 50 * 16, "capped at 16x the base");
                previous = hint;
            }
        }
    }

    #[test]
    fn retry_hint_is_the_base_at_a_just_full_queue_and_scales_past_it() {
        // outstanding == capacity (queue full, workers idle): the base.
        assert_eq!(load_aware_retry_ms(50, 64, 64), 50);
        // Every extra outstanding request pushes the hint up.
        assert!(load_aware_retry_ms(50, 128, 64) > load_aware_retry_ms(50, 64, 64));
        // Small queues scale fast: full queue + one executing = 1.5x.
        assert_eq!(load_aware_retry_ms(50, 2, 1), 75);
        // A zero base stays zero (hints disabled by configuration).
        assert_eq!(load_aware_retry_ms(0, 1000, 1), 0);
        // Degenerate capacities behave.
        assert_eq!(load_aware_retry_ms(50, 0, 0), 50);
        assert_eq!(load_aware_retry_ms(u64::MAX, usize::MAX, 1), u64::MAX);
    }
}
