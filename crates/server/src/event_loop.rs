//! The event-driven connection core: one reactor thread owns every
//! connection socket through the vendored epoll poller, replacing the
//! old thread-per-connection model (blocking `BufReader`s polling a
//! shutdown flag on read timeouts).
//!
//! ```text
//!                        ┌────────────── reactor thread ──────────────┐
//!  clients ──connect──▶  │ epoll: listener + every connection socket  │
//!                        │  · accept, per-connection read/write bufs  │
//!                        │  · parse, canonical key, probe + validate  │
//!                        │      hit: answer in the request's slot     │
//!                        │      else: admit the pending serve ────────┼──▶ bounded queue
//!                        │  · order replies, coalesce + flush writes  │      │
//!                        │  ◀──── waker pipe ◀── completions ◀────────┼── worker pool
//!                        └────────────────────────────────────────────┘
//! ```
//!
//! Validated exact-tier cache hits are answered on this thread, at
//! admission: parse → canonical key → probe + validate → render into
//! the request's slot, with no thread hop, futex wake or waker-pipe
//! write. Misses, stale entries and heuristic-tier entries (which may
//! have to wait for their key's refinement) go to the worker pool
//! carrying what the probe computed (the keys and what it found), so
//! the worker resumes the serve instead of starting over.
//!
//! Because admission happens inline on the reactor (not per-connection
//! threads racing a shared counter), the `outstanding` gauge is
//! incremented *before* `try_send` and rolled back on the
//! `Full`/`Disconnected` paths, while the worker decrements only after
//! planning — increment always precedes decrement, so the counter can
//! no longer underflow and pin `busy` hints at the 16× cap. Hits
//! answered on the reactor never touch it.
//!
//! **Pipelining.** Each connection keeps an ordered queue of response
//! slots, one per request in arrival order. Immediate verbs (`ping`,
//! `metrics`, exports…) and validated hits fill their slot inline; queued
//! optimize jobs fill theirs when the worker's completion comes back
//! over the waker pipe, so a hit pipelined behind a miss waits in its
//! slot, not in the queue. Only the contiguous answered prefix is moved
//! to the write buffer, so a client may send N instance documents
//! before reading N responses and always receives them in request
//! order. Responses that become ready together are flushed with one
//! `write` call — the frame/syscall amortization the pipelined wire
//! grammar exists for.
//!
//! **Framing in place.** Input stays in the connection's read buffer
//! until a request is complete. The reactor scans the buffer for line
//! ends, resuming where the last read's scan stopped, and tests each
//! document line for the `end` trailer; the finished document goes to
//! `parse_instance` as a slice of the buffer, with no per-line copy. A
//! request whose bytes (trailer included, newline or not yet) pass its
//! cap — `MAX_REQUEST_BYTES` for verb lines and documents, the import
//! cap for `import-partition` — is refused at once with its `exceeds`
//! error, and the connection is flushed and closed: a peer that never
//! sends a newline cannot grow the buffer past the cap plus one read.
//!
//! Per-connection panics are caught ([`std::panic::catch_unwind`]), and
//! counted in `ServerStats::connection_panics` with one stderr line
//! each — a poisoned connection is torn down, the server keeps serving.

use crate::net::{FaultyStream, Listener};
use crate::protocol::{
    ExportRequest, Response, IMPORT_PARTITION_VERB, METRICS_END, METRICS_VERB, REQUEST_END,
};
use crate::server::{
    load_aware_retry_ms, Completion, Inner, Job, MAX_IMPORT_BYTES, MAX_REQUEST_BYTES,
};
use dsq_core::{parse_instance, PlanSnapshot};
use dsq_service::{FleetConfig, HashRing, Probe, ServedPlan};
use reactor::{Events, Interest, Poll, Token};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::os::fd::RawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{SyncSender, TrySendError};
use std::time::{Duration, Instant};

/// The listener's registration token.
pub(crate) const TOKEN_LISTENER: Token = Token(0);
/// The completion waker's registration token.
pub(crate) const TOKEN_WAKER: Token = Token(1);
/// First token handed to an accepted connection.
const FIRST_CONN_TOKEN: usize = 2;

/// Per-pump cap on bytes read from one connection, so a blasting client
/// cannot starve its thousand idle neighbours (level triggering
/// re-delivers the remainder on the next poll).
const READ_BUDGET: usize = 256 * 1024;

/// Reading pauses while a connection's unflushed responses exceed this
/// (a client pipelining requests without draining responses).
const WRITE_HIGH_WATER: usize = 1 << 20;

/// Heartbeat of the reactor's poll: the longest the reactor sleeps
/// when nothing happens. It only paces the drain-deadline check; socket
/// events, worker completions and `Server::shutdown` all wake the poll
/// at once (the latter two through the waker pipe).
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// How long a graceful drain waits for peers that stopped reading
/// before force-closing their connections.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// One response slot in a connection's pipeline: filled inline for
/// immediate verbs and validated hits, filled by a worker completion
/// (matched on `seq`) for queued optimize jobs. `rollback` carries the cache entries an
/// export removed, restored if the connection dies before the payload
/// is fully flushed.
struct Slot {
    seq: u64,
    payload: Option<Vec<u8>>,
    rollback: Option<PlanSnapshot>,
    /// Started when the payload lands (inline verb or worker
    /// completion); retired into the flush-stage histogram once the
    /// response's last byte reaches the socket.
    ready_at: Option<Instant>,
}

/// What the connection's framing layer is in the middle of reading.
enum ReadMode {
    /// Between requests: the next line is a verb or document header.
    Line,
    /// Inside a `dsq-instance` document, which runs (header included) up
    /// to its `end` line.
    Document,
    /// Inside an `import-partition` snapshot document, which runs (from
    /// the line after the verb) through its `end-snapshot` trailer.
    Import,
}

struct Conn {
    stream: FaultyStream,
    fd: RawFd,
    token: usize,
    read_buf: Vec<u8>,
    /// Start of the current request in `read_buf`. A document stays
    /// there, unconsumed, until its trailer line arrives, and is then
    /// handed on as a slice of `read_buf`.
    parse_pos: usize,
    /// End of the current request's complete lines, relative to
    /// `parse_pos`: the next line starts here.
    line_start: usize,
    /// How far past `parse_pos` the newline search has looked, so a
    /// request split across reads resumes the search where it stopped.
    scanned: usize,
    mode: ReadMode,
    /// Next request sequence number; every request gets one, in arrival
    /// order, and responses are released strictly in that order.
    next_seq: u64,
    pending: VecDeque<Slot>,
    /// Queued optimize jobs not yet completed — the per-connection
    /// pipelining depth, capped at `ServerConfig::max_pipeline`.
    jobs_in_flight: usize,
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Cumulative bytes ever moved into `write_buf` / flushed to the
    /// socket; an export is delivered once `flushed_bytes` passes its
    /// enqueue watermark.
    enqueued_bytes: u64,
    flushed_bytes: u64,
    /// Undelivered exports: `(watermark, removed entries)`.
    exports: Vec<(u64, PlanSnapshot)>,
    /// Flush-stage timers awaiting delivery: `(watermark, started when
    /// the response became ready)` — retired like `exports`, by the
    /// flushed-bytes watermark passing them.
    pending_flush: Vec<(u64, Instant)>,
    read_closed: bool,
    close_after_flush: bool,
    /// Framing is lost (oversized document mid-stream): stop parsing,
    /// flush the error, close.
    poisoned: bool,
    /// Transport is gone: tear down without flushing.
    dead: bool,
    /// The currently registered `(readable, writable)` interest.
    interest: (bool, bool),
}

fn render(response: &Response) -> Vec<u8> {
    let mut line = response.to_line().into_bytes();
    line.push(b'\n');
    line
}

fn served(plan: &ServedPlan) -> Response {
    Response::Served {
        source: plan.source,
        cost: plan.cost,
        fingerprint: plan.fingerprint,
        plan: plan.plan.indices(),
        tier: plan.tier,
    }
}

/// Whether `line` is the trailer `word`: its lossy UTF-8 text, trimmed,
/// equals `word`. A line whose trimmed bytes start and end in ASCII is
/// decided on its bytes; any other goes through the lossy text.
fn is_line(line: &[u8], word: &str) -> bool {
    let is_space = |b: &u8| matches!(b, b' ' | b'\t'..=b'\r');
    let first = line.iter().position(|b| !is_space(b));
    let last = line.iter().rposition(|b| !is_space(b));
    match (first, last) {
        (Some(first), Some(last)) if line[first].is_ascii() && line[last].is_ascii() => {
            &line[first..=last] == word.as_bytes()
        }
        _ => String::from_utf8_lossy(line).trim() == word,
    }
}

/// The index of the first `\n` in `bytes`, eight bytes at a time: a
/// word is XORed with `\n` in every byte, and the zero-byte test marks
/// (exactly, up to the first) where a newline was.
fn find_newline(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    let mut i = 0;
    while let Some(word) = bytes.get(i..i + 8) {
        let v = u64::from_le_bytes(word.try_into().expect("eight bytes")) ^ (ONES * 0x0A);
        let marked = v.wrapping_sub(ONES) & !v & (ONES * 0x80);
        if marked != 0 {
            return Some(i + (marked.trailing_zeros() / 8) as usize);
        }
        i += 8;
    }
    bytes[i..].iter().position(|&b| b == b'\n').map(|k| i + k)
}

impl Conn {
    fn new(stream: FaultyStream, token: usize) -> Conn {
        let fd = stream.raw_fd();
        Conn {
            stream,
            fd,
            token,
            read_buf: Vec::new(),
            parse_pos: 0,
            line_start: 0,
            scanned: 0,
            mode: ReadMode::Line,
            next_seq: 0,
            pending: VecDeque::new(),
            jobs_in_flight: 0,
            write_buf: Vec::new(),
            write_pos: 0,
            enqueued_bytes: 0,
            flushed_bytes: 0,
            exports: Vec::new(),
            pending_flush: Vec::new(),
            read_closed: false,
            close_after_flush: false,
            poisoned: false,
            dead: false,
            interest: (true, false),
        }
    }

    fn push_slot(&mut self, payload: Option<Vec<u8>>, rollback: Option<PlanSnapshot>) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let ready_at = payload.is_some().then(Instant::now);
        self.pending.push_back(Slot { seq, payload, rollback, ready_at });
        seq
    }

    fn push_ready(&mut self, response: &Response) {
        let payload = render(response);
        self.push_slot(Some(payload), None);
    }

    fn write_backlog(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    /// Drains socket input into `read_buf`, up to [`READ_BUDGET`].
    fn fill(&mut self) {
        let mut chunk = [0u8; 16 * 1024];
        let mut taken = 0;
        while taken < READ_BUDGET && !self.read_closed && !self.dead {
            match self.stream.read(&mut chunk) {
                Ok(0) => self.read_closed = true,
                Ok(n) => {
                    self.read_buf.extend_from_slice(&chunk[..n]);
                    taken += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => self.dead = true,
            }
        }
    }

    /// Processes every complete request buffered so far, stopping at
    /// the pipelining cap (admission backpressure). A request whose bytes
    /// pass its cap is refused as soon as they do, newline or not.
    fn parse(&mut self, inner: &Inner, job_tx: &SyncSender<Job>) {
        while !self.poisoned && !self.dead && !self.close_after_flush {
            if self.jobs_in_flight >= inner.max_pipeline {
                break;
            }
            let line = self.next_line();
            let (cap, what) = match self.mode {
                ReadMode::Line | ReadMode::Document => (MAX_REQUEST_BYTES, "request"),
                ReadMode::Import => (MAX_IMPORT_BYTES, "partition"),
            };
            if self.scanned > cap {
                inner.protocol_errors.fetch_add(1, Ordering::Relaxed);
                self.push_ready(&Response::Error {
                    message: format!("{what} exceeds {cap} bytes"),
                });
                // The stream position after an oversized request is
                // unknowable: flush the error, close.
                self.poisoned = true;
                self.close_after_flush = true;
                break;
            }
            let Some((start, end)) = line else { break };
            let trailer = match self.mode {
                ReadMode::Line => None,
                ReadMode::Document => Some(REQUEST_END),
                ReadMode::Import => Some("end-snapshot"),
            };
            if trailer.is_some_and(|word| !is_line(&self.read_buf[start..end], word)) {
                continue;
            }
            // Requests are handled in place: `read_buf` is lent out for
            // the call and put back.
            let buf = std::mem::take(&mut self.read_buf);
            match self.mode {
                ReadMode::Line => self.process_verb(&buf[start..end], end, inner),
                ReadMode::Document => {
                    self.admit(&buf[self.parse_pos..start], inner, job_tx);
                    self.consume(end);
                }
                ReadMode::Import => {
                    self.finish_import(&buf[self.parse_pos..end], inner);
                    self.consume(end);
                }
            }
            self.read_buf = buf;
        }
        if self.parse_pos > 0 {
            self.read_buf.drain(..self.parse_pos);
            self.parse_pos = 0;
        }
    }

    /// The next complete line of the current request, as absolute
    /// `read_buf` offsets, resuming the newline search where the last
    /// call stopped. `scanned` then counts the request's bytes through
    /// that line, or every buffered byte of it when no line ended.
    fn next_line(&mut self) -> Option<(usize, usize)> {
        let from = self.parse_pos + self.scanned;
        match find_newline(&self.read_buf[from..]) {
            Some(offset) => {
                let start = self.parse_pos + self.line_start;
                self.scanned += offset + 1;
                self.line_start = self.scanned;
                Some((start, self.parse_pos + self.scanned))
            }
            None => {
                self.scanned = self.read_buf.len() - self.parse_pos;
                None
            }
        }
    }

    /// Ends the current request at `end` (absolute): the next one starts
    /// there, between requests.
    fn consume(&mut self, end: usize) {
        self.parse_pos = end;
        self.line_start = 0;
        self.scanned = 0;
        self.mode = ReadMode::Line;
    }

    /// Handles the verb `line`, which ends at `end`: answers an immediate
    /// verb, or opens the document it heads.
    fn process_verb(&mut self, line: &[u8], end: usize, inner: &Inner) {
        let text = String::from_utf8_lossy(line);
        let verb = text.trim();
        if inner.debug_panic_verb.as_deref() == Some(verb) {
            // Test hook: a deterministic trigger for the
            // panic-isolation path.
            panic!("debug panic verb `{verb}` received");
        }
        if verb.starts_with("dsq-instance") {
            // The header is the document's first line: the request
            // keeps its start.
            self.mode = ReadMode::Document;
            return;
        }
        self.consume(end);
        match verb {
            "" => {} // blank keep-alive line
            "ping" => self.push_ready(&Response::Pong),
            METRICS_VERB => self.serve_metrics(inner),
            "shutdown" => {
                inner.request_shutdown();
                self.push_ready(&Response::Draining);
            }
            v if v.starts_with("export-partition") => self.serve_export(v, inner),
            v if v == IMPORT_PARTITION_VERB => self.mode = ReadMode::Import,
            other => {
                inner.protocol_errors.fetch_add(1, Ordering::Relaxed);
                self.push_ready(&Response::Error { message: format!("unknown request `{other}`") });
            }
        }
    }

    /// Parses a complete instance document and probes the cache: a
    /// validated exact-tier hit is answered right here; anything else is
    /// admitted to the worker queue with its pending serve (or answered
    /// `busy`/`error` inline).
    fn admit(&mut self, document: &[u8], inner: &Inner, job_tx: &SyncSender<Job>) {
        let protocol_error = |conn: &mut Conn, message: String| {
            inner.protocol_errors.fetch_add(1, Ordering::Relaxed);
            conn.push_ready(&Response::Error { message });
        };
        let Ok(text) = std::str::from_utf8(document) else {
            return protocol_error(self, "instance text is not valid UTF-8".into());
        };
        let parse_started = Instant::now();
        let instance = match parse_instance(text) {
            Ok(instance) => instance,
            Err(e) => return protocol_error(self, format!("cannot parse instance: {e}")),
        };
        inner.metrics.parse_ns.record_duration(parse_started.elapsed());
        let plan_started = Instant::now();
        let pending = match inner.cache.probe(&instance) {
            Probe::Hit(hit) => {
                inner.metrics.plan_ns.record_duration(plan_started.elapsed());
                self.push_ready(&served(&hit));
                self.count_admission(inner);
                return;
            }
            Probe::Pending(pending) => pending,
        };
        let probe = plan_started.elapsed();
        // Increment *before* `try_send`: a worker that finishes the job
        // fast always observes the increment first, so the gauge cannot
        // underflow; the `Full`/`Disconnected` paths roll it back.
        inner.outstanding.fetch_add(1, Ordering::Relaxed);
        let job = Job {
            instance,
            pending,
            probe,
            conn: self.token as u64,
            seq: self.next_seq,
            admitted_at: Instant::now(),
        };
        match job_tx.try_send(job) {
            Ok(()) => {
                self.jobs_in_flight += 1;
                self.push_slot(None, None);
                self.count_admission(inner);
            }
            Err(TrySendError::Full(_)) => {
                inner.outstanding.fetch_sub(1, Ordering::Relaxed);
                inner.busy_rejections.fetch_add(1, Ordering::Relaxed);
                let retry_after_ms = load_aware_retry_ms(
                    inner.retry_after_ms,
                    inner.outstanding.load(Ordering::Relaxed),
                    inner.queue_capacity,
                );
                self.push_ready(&Response::Busy { retry_after_ms });
            }
            Err(TrySendError::Disconnected(_)) => {
                inner.outstanding.fetch_sub(1, Ordering::Relaxed);
                self.push_ready(&Response::Error { message: "server is shutting down".into() });
                self.close_after_flush = true;
            }
        }
    }

    /// Counts an admitted optimize request, answered inline or queued,
    /// and the pipeline depth its slot reached.
    fn count_admission(&self, inner: &Inner) {
        inner.admitted.fetch_add(1, Ordering::Relaxed);
        inner.pipeline_peak.fetch_max(self.pending.len() as u64, Ordering::Relaxed);
        inner.metrics.pipeline_depth.record(self.pending.len() as u64);
    }

    /// Serves one `export-partition` line: validates the requested
    /// fleet layout, removes the moved partition from the cache, and
    /// queues it (header + snapshot document) as one response slot
    /// carrying its own rollback.
    fn serve_export(&mut self, verb: &str, inner: &Inner) {
        let request = match ExportRequest::parse(verb) {
            Ok(request) => request,
            Err(e) => {
                inner.protocol_errors.fetch_add(1, Ordering::Relaxed);
                return self.push_ready(&Response::Error { message: e.to_string() });
            }
        };
        // Reuse the fleet-config validator: a duplicate backend address
        // would fold two ring slots onto one label and silently
        // mis-partition the keyspace.
        if let Err(e) = FleetConfig::new(0, request.backends.iter().cloned()) {
            inner.protocol_errors.fetch_add(1, Ordering::Relaxed);
            return self.push_ready(&Response::Error { message: e.to_string() });
        }
        let ring = HashRing::with_vnodes(&request.backends, request.vnodes);
        let keep = request.keep;
        let snapshot = inner.cache.export_partition(|fingerprint| ring.route(fingerprint) != keep);
        let entries = snapshot.entries.len() as u64;
        let mut payload = render(&Response::Partition { entries });
        payload.extend_from_slice(snapshot.to_text().as_bytes());
        self.push_slot(Some(payload), Some(snapshot));
    }

    /// Serves one `metrics` scrape: header + the exposition document
    /// (stage histograms and serving counters) + the `end-metrics`
    /// trailer, as one response slot.
    fn serve_metrics(&mut self, inner: &Inner) {
        let text = inner.metrics.exposition(&inner.stats());
        let lines = text.lines().count() as u64;
        let mut payload = render(&Response::Metrics { lines });
        payload.extend_from_slice(text.as_bytes());
        payload.extend_from_slice(METRICS_END.as_bytes());
        payload.push(b'\n');
        self.push_slot(Some(payload), None);
    }

    fn finish_import(&mut self, document: &[u8], inner: &Inner) {
        let malformed = |conn: &mut Conn, message: String| {
            inner.protocol_errors.fetch_add(1, Ordering::Relaxed);
            conn.push_ready(&Response::Error { message });
        };
        let Ok(text) = std::str::from_utf8(document) else {
            return malformed(self, "partition text is not valid UTF-8".into());
        };
        match inner.cache.restore_from_text(text) {
            Ok(restored) => {
                self.push_ready(&Response::PartitionRestored { entries: restored as u64 });
            }
            Err(e) => malformed(self, format!("cannot restore partition: {e}")),
        }
    }

    /// Fills the slot a worker completion belongs to.
    fn complete(&mut self, completion: Completion, inner: &Inner) {
        self.jobs_in_flight = self.jobs_in_flight.saturating_sub(1);
        let response = match completion.result {
            Ok(plan) => served(&plan),
            // A resume that panicked on its worker degrades to a
            // protocol error.
            Err(e) => {
                inner.protocol_errors.fetch_add(1, Ordering::Relaxed);
                Response::Error { message: e.to_string() }
            }
        };
        if let Some(slot) = self.pending.iter_mut().find(|s| s.seq == completion.seq) {
            slot.payload = Some(render(&response));
            slot.ready_at = Some(Instant::now());
        }
    }

    /// Moves the contiguous answered prefix of the pipeline into the
    /// write buffer — response order per connection is request order,
    /// always.
    fn promote(&mut self, inner: &Inner) {
        let mut promoted = 0u64;
        while self.pending.front().is_some_and(|slot| slot.payload.is_some()) {
            let slot = self.pending.pop_front().expect("front checked");
            let payload = slot.payload.expect("payload checked");
            self.write_buf.extend_from_slice(&payload);
            self.enqueued_bytes += payload.len() as u64;
            if let Some(snapshot) = slot.rollback {
                self.exports.push((self.enqueued_bytes, snapshot));
            }
            if let Some(ready_at) = slot.ready_at {
                self.pending_flush.push((self.enqueued_bytes, ready_at));
            }
            promoted += 1;
        }
        if promoted > 0 {
            inner.metrics.coalesced.record(promoted);
        }
    }

    /// Writes as much of the buffered responses as the socket accepts.
    /// Responses promoted together leave in one `write` call — the
    /// syscall coalescing pipelined exchanges are measured by.
    fn flush(&mut self, inner: &Inner) {
        while self.write_pos < self.write_buf.len() && !self.dead {
            match self.stream.write(&self.write_buf[self.write_pos..]) {
                Ok(0) => self.dead = true,
                Ok(n) => {
                    self.write_pos += n;
                    self.flushed_bytes += n as u64;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => self.dead = true,
            }
        }
        if self.write_pos == self.write_buf.len() {
            self.write_buf.clear();
            self.write_pos = 0;
        }
        let _ = self.stream.flush();
        // Exports fully on the wire no longer need their rollback, and
        // responses fully on the wire retire their flush-stage timers.
        let flushed = self.flushed_bytes;
        self.exports.retain(|(watermark, _)| *watermark > flushed);
        self.pending_flush.retain(|(watermark, ready_at)| {
            if *watermark > flushed {
                return true;
            }
            inner.metrics.flush_ns.record_duration(ready_at.elapsed());
            false
        });
    }

    /// Whether the connection is finished and should be torn down.
    fn finished(&self) -> bool {
        if self.dead {
            return true;
        }
        let quiescent = self.pending.is_empty() && self.write_backlog() == 0;
        quiescent && (self.close_after_flush || self.read_closed)
    }

    /// Re-registers the fd when the desired readiness interest changed:
    /// reads pause at the pipelining cap or a flooded write buffer,
    /// write interest exists only while responses wait for socket space.
    fn update_interest(&mut self, poll: &Poll, inner: &Inner) {
        let readable = !self.read_closed
            && !self.poisoned
            && !self.close_after_flush
            && self.jobs_in_flight < inner.max_pipeline
            && self.write_backlog() < WRITE_HIGH_WATER;
        let writable = self.write_backlog() > 0;
        if self.interest == (readable, writable) {
            return;
        }
        let interest = match (readable, writable) {
            (true, true) => Interest::READABLE | Interest::WRITABLE,
            (true, false) => Interest::READABLE,
            (false, true) => Interest::WRITABLE,
            (false, false) => Interest::NONE,
        };
        if poll.reregister(self.fd, Token(self.token), interest).is_ok() {
            self.interest = (readable, writable);
        }
    }
}

/// Tears one connection down: deregisters the fd and restores every
/// export the peer did not fully receive, so a handoff that dies on the
/// wire does not lose the partition (the mover retries).
fn teardown(conn: Conn, inner: &Inner, poll: &Poll) {
    let _ = poll.deregister(conn.fd);
    let flushed = conn.flushed_bytes;
    let undelivered = conn
        .exports
        .into_iter()
        .filter_map(|(watermark, snapshot)| (watermark > flushed).then_some(snapshot))
        .chain(conn.pending.into_iter().filter_map(|slot| slot.rollback));
    for snapshot in undelivered {
        match inner.cache.restore(&snapshot) {
            Ok(_) => {
                inner.export_rollbacks.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                // The rollback itself failing loses the partition: say
                // so instead of silently dropping the entries.
                inner.export_rollback_errors.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "dsq-server: failed to restore {} undelivered exported entries: {e}",
                    snapshot.entries.len()
                );
            }
        }
    }
}

fn accept_all(
    listener: &Listener,
    poll: &Poll,
    inner: &Inner,
    conns: &mut HashMap<usize, Conn>,
    next_token: &mut usize,
) {
    loop {
        match listener.try_accept() {
            Ok(Some(stream)) => {
                let index = inner.connections.fetch_add(1, Ordering::Relaxed);
                // Each connection rolls its own deterministic chaos dice
                // (sub-seeded by accept index), so a chaos run replays
                // identically regardless of event interleaving.
                let stream =
                    FaultyStream::new(stream, inner.chaos.map(|p| p.for_connection(index)));
                let token = *next_token;
                *next_token += 1;
                let conn = Conn::new(stream, token);
                if poll.register(conn.fd, Token(token), Interest::READABLE).is_ok() {
                    conns.insert(token, conn);
                }
                // A failed registration drops the connection on the
                // floor — the client sees a clean close.
            }
            Ok(None) => return,
            // Accept errors (e.g. a client that vanished between the
            // kernel queue and us) are per-connection, not fatal.
            Err(_) => return,
        }
    }
}

/// The reactor: owns the listener, the poller, and every connection
/// until shutdown. Exits once draining is complete (every admitted
/// request answered and flushed, every connection closed).
pub(crate) fn run(listener: Listener, poll: Poll, inner: &Inner, job_tx: &SyncSender<Job>) {
    let mut events = Events::with_capacity(1024);
    let mut conns: HashMap<usize, Conn> = HashMap::new();
    let mut next_token = FIRST_CONN_TOKEN;
    let mut draining = false;
    let mut drain_deadline = None;

    loop {
        // The timeout is a heartbeat, not the latency floor: workers
        // and `Server::shutdown` wake the poll through the pipe.
        let _ = poll.poll(&mut events, Some(POLL_INTERVAL));

        let mut accept_ready = false;
        // Connections touched this tick: by a socket event (with its
        // readiness), by a completion, or by the start of a drain.
        let mut dirty: Vec<(usize, bool)> = Vec::new();
        let mark = |dirty: &mut Vec<(usize, bool)>, token: usize, readable: bool| match dirty
            .iter_mut()
            .find(|(t, _)| *t == token)
        {
            Some((_, r)) => *r |= readable,
            None => dirty.push((token, readable)),
        };
        for event in events.iter() {
            match event.token() {
                TOKEN_LISTENER => accept_ready = true,
                TOKEN_WAKER => {
                    inner.waker.drain();
                }
                Token(token) => mark(&mut dirty, token, event.is_readable()),
            }
        }

        if !draining && inner.shutdown.load(Ordering::SeqCst) {
            draining = true;
            drain_deadline = Some(Instant::now() + DRAIN_GRACE);
            // Stop reading; answer what was admitted; flush; close.
            for (token, conn) in &mut conns {
                conn.close_after_flush = true;
                mark(&mut dirty, *token, false);
            }
        }

        if accept_ready && !draining {
            accept_all(&listener, &poll, inner, &mut conns, &mut next_token);
        }

        // Hand worker completions back to their connections. A
        // completion for a connection that died mid-request is dropped,
        // exactly like the old per-connection reply channel.
        let completed = std::mem::take(&mut *inner.completions.lock().expect("completion lock"));
        for completion in completed {
            let token = completion.conn as usize;
            if let Some(conn) = conns.get_mut(&token) {
                conn.complete(completion, inner);
                mark(&mut dirty, token, false);
            }
        }

        for (token, readable) in dirty {
            let Some(mut conn) = conns.remove(&token) else { continue };
            // One panicking connection must not take the reactor (and
            // with it every other connection) down.
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if readable {
                    conn.fill();
                }
                conn.parse(inner, job_tx);
                conn.promote(inner);
                conn.flush(inner);
            }));
            if outcome.is_err() {
                inner.connection_panics.fetch_add(1, Ordering::Relaxed);
                eprintln!("dsq-server: connection handler panicked; closing the connection");
                teardown(conn, inner, &poll);
                continue;
            }
            if conn.finished() {
                teardown(conn, inner, &poll);
                continue;
            }
            conn.update_interest(&poll, inner);
            conns.insert(token, conn);
        }

        if draining {
            if conns.is_empty() {
                return;
            }
            if drain_deadline.is_some_and(|deadline| Instant::now() >= deadline) {
                // Peers that stopped reading their responses: close
                // anyway (their undelivered exports roll back).
                for (_, conn) in conns.drain() {
                    teardown(conn, inner, &poll);
                }
                return;
            }
        }
    }
}
