//! A blocking client for the plan-serving daemon — what `dsq client`
//! wraps, and what tests and the harness drive the socket path with.

use crate::net::{ListenAddr, Stream};
use crate::protocol::{
    ExportRequest, ProtocolError, Response, IMPORT_PARTITION_VERB, METRICS_END, METRICS_VERB,
    REQUEST_END,
};
use dsq_core::{format_instance, PlanSnapshot, QueryInstance};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::time::Duration;

/// Client-side retry policy for `busy` responses: capped exponential
/// backoff **seeded from the server's `retry-after-ms` hint**, so a
/// loaded server (which scales its hint with queue occupancy) slows its
/// clients down proportionally. Passive struct; fields are public.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total request attempts, the first one included (≥ 1). The final
    /// attempt's `busy` response is returned to the caller instead of
    /// being retried.
    pub max_attempts: u32,
    /// Floor on any backoff sleep (also the seed when the server hints
    /// `retry-after-ms 0`).
    pub min_backoff: Duration,
    /// Cap on any backoff sleep.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    /// Five attempts, 1 ms floor, 1 s cap.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            min_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_secs(1),
        }
    }
}

impl RetryPolicy {
    /// The sleep before retrying after the `busy_replies`-th consecutive
    /// `busy` (0-based): `hint × 2^busy_replies`, floored at
    /// [`min_backoff`](Self::min_backoff) and capped at
    /// [`max_backoff`](Self::max_backoff).
    pub fn backoff(&self, hint_ms: u64, busy_replies: u32) -> Duration {
        let seed = Duration::from_millis(hint_ms).max(self.min_backoff);
        seed.saturating_mul(2u32.saturating_pow(busy_replies.min(20))).min(self.max_backoff)
    }
}

/// A [`Stream`] wrapper counting the `read`/`write` calls that reach
/// the socket — the observable proxy for syscalls. Tests assert on
/// these to prove pipelining actually coalesces frames (one write for N
/// requests) instead of merely reordering them.
#[derive(Debug)]
struct CountingStream {
    inner: Stream,
    reads: u64,
    writes: u64,
}

impl Read for CountingStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.reads += 1;
        self.inner.read(buf)
    }
}

impl Write for CountingStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.writes += 1;
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// One request inside a pipelined batch; see [`Client::pipeline`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineRequest {
    /// A `dsq-instance v1` document (the `end` trailer is appended by
    /// the client if missing).
    Optimize(String),
    /// A liveness probe.
    Ping,
}

impl PipelineRequest {
    /// Renders the request's wire frame into `out`.
    fn render(&self, out: &mut String) {
        match self {
            PipelineRequest::Optimize(text) => {
                out.push_str(text);
                if !out.ends_with('\n') {
                    out.push('\n');
                }
                out.push_str(REQUEST_END);
                out.push('\n');
            }
            PipelineRequest::Ping => out.push_str("ping\n"),
        }
    }
}

/// A connected client. Requests are either strict request/response
/// ([`optimize`](Self::optimize) and friends) or pipelined — a whole
/// batch written in one frame, responses read back in request order
/// ([`pipeline`](Self::pipeline)).
#[derive(Debug)]
pub struct Client {
    reader: BufReader<CountingStream>,
}

fn protocol_err(e: ProtocolError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Connection-level I/O errors.
    pub fn connect(addr: &ListenAddr) -> io::Result<Client> {
        Ok(Client {
            reader: BufReader::new(CountingStream {
                inner: Stream::connect(addr)?,
                reads: 0,
                writes: 0,
            }),
        })
    }

    /// `(reads, writes)` that reached the socket so far — the
    /// per-connection syscall proxy pipelining tests assert on.
    pub fn wire_counts(&self) -> (u64, u64) {
        let stream = self.reader.get_ref();
        (stream.reads, stream.writes)
    }

    /// Sends every request as **one** coalesced frame and reads the
    /// responses back in request order. The server admits up to its
    /// `max_pipeline` requests from this connection concurrently, so a
    /// batch of independent instances costs one write and (typically)
    /// far fewer reads than round-tripping them one at a time.
    ///
    /// # Errors
    ///
    /// I/O errors; `UnexpectedEof` when the connection closes before
    /// every response arrives; `InvalidData` for an unparseable
    /// response line. On any error the stream state is unknown — drop
    /// the client.
    pub fn pipeline(&mut self, requests: &[PipelineRequest]) -> io::Result<Vec<Response>> {
        let mut frame = String::new();
        for request in requests {
            request.render(&mut frame);
        }
        self.reader.get_mut().write_all(frame.as_bytes())?;
        let mut responses = Vec::with_capacity(requests.len());
        for _ in requests {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-pipeline",
                ));
            }
            responses.push(Response::parse(&line).map_err(protocol_err)?);
        }
        Ok(responses)
    }

    /// [`pipeline`](Self::pipeline) over in-memory instances: all
    /// documents written in one frame, one response per instance, in
    /// order.
    ///
    /// # Errors
    ///
    /// See [`pipeline`](Self::pipeline).
    pub fn optimize_pipelined(&mut self, instances: &[QueryInstance]) -> io::Result<Vec<Response>> {
        let requests: Vec<PipelineRequest> =
            instances.iter().map(|i| PipelineRequest::Optimize(format_instance(i))).collect();
        self.pipeline(&requests)
    }

    fn round_trip(&mut self, request: &str) -> io::Result<Response> {
        self.reader.get_mut().write_all(request.as_bytes())?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection before responding",
            ));
        }
        Response::parse(&line).map_err(protocol_err)
    }

    /// Sends instance text (the `dsq-instance v1` document) and returns
    /// the server's response. Blocks until the server replies — with a
    /// full admission queue that is an immediate
    /// [`Response::Busy`](crate::Response), never an indefinite stall.
    ///
    /// # Errors
    ///
    /// I/O errors, or `InvalidData` for an unparseable response line.
    pub fn optimize_text(&mut self, instance_text: &str) -> io::Result<Response> {
        let mut request = String::with_capacity(instance_text.len() + 8);
        PipelineRequest::Optimize(instance_text.to_owned()).render(&mut request);
        self.round_trip(&request)
    }

    /// [`optimize_text`](Self::optimize_text) for an in-memory instance.
    ///
    /// # Errors
    ///
    /// See [`optimize_text`](Self::optimize_text).
    pub fn optimize(&mut self, instance: &QueryInstance) -> io::Result<Response> {
        self.optimize_text(&format_instance(instance))
    }

    /// [`optimize_text`](Self::optimize_text), retrying `busy`
    /// responses under `policy` (sleeping the policy's capped
    /// exponential backoff, seeded from each `retry-after-ms` hint).
    /// Returns the final response: `Served`, or the last `Busy` when
    /// the attempt budget ran out. The daemon counts the rejections
    /// (`ServerStats::busy_rejections`).
    ///
    /// # Errors
    ///
    /// See [`optimize_text`](Self::optimize_text); transport and
    /// protocol errors are **not** retried (the stream state after one
    /// is unknown).
    pub fn optimize_text_with_retry(
        &mut self,
        instance_text: &str,
        policy: &RetryPolicy,
    ) -> io::Result<Response> {
        let mut busy_replies = 0u32;
        loop {
            let response = self.optimize_text(instance_text)?;
            match response {
                Response::Busy { retry_after_ms }
                    if busy_replies.saturating_add(1) < policy.max_attempts =>
                {
                    std::thread::sleep(policy.backoff(retry_after_ms, busy_replies));
                    busy_replies += 1;
                }
                other => return Ok(other),
            }
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// See [`optimize_text`](Self::optimize_text).
    pub fn ping(&mut self) -> io::Result<Response> {
        self.round_trip("ping\n")
    }

    /// Requests the telemetry exposition (the `metrics` verb): the
    /// `ok metrics N` header followed by exactly `N` exposition lines
    /// and the `end-metrics` trailer. Returns the exposition text (the
    /// `# dsq-metrics v1` document, trailer excluded).
    ///
    /// # Errors
    ///
    /// I/O errors; `InvalidData` when the header is not a metrics
    /// response or the body contradicts its declared line count.
    pub fn metrics(&mut self) -> io::Result<String> {
        let lines = match self.round_trip(&format!("{METRICS_VERB}\n"))? {
            Response::Metrics { lines } => lines,
            Response::Error { message } => {
                return Err(io::Error::new(io::ErrorKind::InvalidData, message));
            }
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("expected a metrics response, got `{}`", other.to_line()),
                ));
            }
        };
        let mut text = String::new();
        for _ in 0..lines {
            let mut doc_line = String::new();
            if self.reader.read_line(&mut doc_line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "metrics document truncated",
                ));
            }
            text.push_str(&doc_line);
        }
        let mut trailer = String::new();
        if self.reader.read_line(&mut trailer)? == 0 || trailer.trim_end() != METRICS_END {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "metrics document declared {lines} lines but the trailer line is `{}`",
                    trailer.trim_end()
                ),
            ));
        }
        Ok(text)
    }

    /// Asks the server to drain and exit (the embedder decides when; see
    /// [`Server::wait_shutdown_requested`](crate::Server)).
    ///
    /// # Errors
    ///
    /// See [`optimize_text`](Self::optimize_text).
    pub fn shutdown_server(&mut self) -> io::Result<Response> {
        self.round_trip("shutdown\n")
    }

    /// Asks the server to hand over every cache entry it no longer owns
    /// under `request`'s fleet layout (see the
    /// [protocol docs](crate::protocol)). The server **removes** those
    /// entries and streams them back as a snapshot — this is a move,
    /// not a copy; feed the result to
    /// [`import_partition`](Self::import_partition) on the inheriting
    /// server to complete the handoff.
    ///
    /// # Errors
    ///
    /// I/O errors; `InvalidData` when the server refuses the layout,
    /// the document fails to parse, or its entry count contradicts the
    /// response header.
    pub fn export_partition(&mut self, request: &ExportRequest) -> io::Result<PlanSnapshot> {
        let mut line = request.to_line();
        line.push('\n');
        let entries = match self.round_trip(&line)? {
            Response::Partition { entries } => entries,
            Response::Error { message } => {
                return Err(io::Error::new(io::ErrorKind::InvalidData, message));
            }
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("expected a partition response, got `{}`", other.to_line()),
                ));
            }
        };
        // The snapshot document follows the header line, self-terminated
        // by its `end-snapshot` trailer.
        let mut text = String::new();
        loop {
            let mut doc_line = String::new();
            if self.reader.read_line(&mut doc_line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "partition document truncated",
                ));
            }
            let done = doc_line.trim_end() == "end-snapshot";
            text.push_str(&doc_line);
            if done {
                break;
            }
        }
        let snapshot = PlanSnapshot::parse(&text).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("cannot parse partition: {e}"))
        })?;
        if snapshot.entries.len() as u64 != entries {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "partition header declared {entries} entries, document carries {}",
                    snapshot.entries.len()
                ),
            ));
        }
        Ok(snapshot)
    }

    /// Streams a snapshot document to the server, which restores its
    /// entries into the serving cache — the receiving half of a warm
    /// partition handoff. Returns the restored entry count.
    ///
    /// # Errors
    ///
    /// I/O errors; `InvalidData` when the server rejects the document
    /// (malformed, or a quantization-resolution mismatch with the
    /// receiving cache).
    pub fn import_partition(&mut self, snapshot: &PlanSnapshot) -> io::Result<u64> {
        let mut request = String::from(IMPORT_PARTITION_VERB);
        request.push('\n');
        request.push_str(&snapshot.to_text());
        match self.round_trip(&request)? {
            Response::PartitionRestored { entries } => Ok(entries),
            Response::Error { message } => Err(io::Error::new(io::ErrorKind::InvalidData, message)),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected a partition-restored response, got `{}`", other.to_line()),
            )),
        }
    }
}

/// Outcome of a [`hold_connections`] run. Passive struct; fields are
/// public.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HoldReport {
    /// Connections requested.
    pub requested: usize,
    /// Connections still answering `ping` at drain time.
    pub held: usize,
    /// Connections the server dropped while they were parked (anything
    /// above zero means idle connections are being evicted).
    pub dropped: usize,
}

impl HoldReport {
    /// The one-line drain summary (`drained N held connections: X live,
    /// Y dropped`) the CLI prints and the connection-scale tests assert.
    pub fn summary_line(&self) -> String {
        format!(
            "drained {} held connections: {} live, {} dropped",
            self.requested, self.held, self.dropped
        )
    }
}

/// Parks `count` concurrent idle connections on the server at `addr`,
/// then drains them with a verification pass: every connection is
/// pinged once at connect time (proving the reactor registered the
/// socket, not just that the kernel queued the connect) and once again
/// before being dropped (proving the server kept it alive the whole
/// time). The [`HoldReport`] carries the held/dropped accounting — the
/// observable scale contract, with no procfs scraping involved.
///
/// # Errors
///
/// Connection-level I/O errors while *establishing* the hold; a
/// connection lost between the two pings is counted as dropped, not an
/// error.
pub fn hold_connections(addr: &ListenAddr, count: usize) -> io::Result<HoldReport> {
    let mut held = Vec::with_capacity(count);
    for i in 0..count {
        let mut client = Client::connect(addr)
            .map_err(|e| io::Error::new(e.kind(), format!("connection {i} failed to dial: {e}")))?;
        match client.ping() {
            Ok(Response::Pong) => held.push(client),
            Ok(other) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("connection {i}: unexpected ping response `{}`", other.to_line()),
                ));
            }
            Err(e) => {
                return Err(io::Error::new(
                    e.kind(),
                    format!("connection {i} failed to ping: {e}"),
                ));
            }
        }
    }
    let mut live = 0usize;
    for client in &mut held {
        if matches!(client.ping(), Ok(Response::Pong)) {
            live += 1;
        }
    }
    Ok(HoldReport { requested: count, held: live, dropped: count - live })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_exponential_seeded_and_capped() {
        let policy = RetryPolicy {
            max_attempts: 8,
            min_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(100),
        };
        // Seeded from the hint, doubling per consecutive busy.
        assert_eq!(policy.backoff(10, 0), Duration::from_millis(10));
        assert_eq!(policy.backoff(10, 1), Duration::from_millis(20));
        assert_eq!(policy.backoff(10, 2), Duration::from_millis(40));
        // Capped.
        assert_eq!(policy.backoff(10, 4), Duration::from_millis(100));
        assert_eq!(policy.backoff(10, 30), Duration::from_millis(100));
        // A zero hint falls back to the floor, still exponential.
        assert_eq!(policy.backoff(0, 0), Duration::from_millis(2));
        assert_eq!(policy.backoff(0, 3), Duration::from_millis(16));
        // Monotone in both the hint and the attempt count.
        for busy_replies in 0..6 {
            for hint in [0u64, 1, 5, 25, 50] {
                assert!(
                    policy.backoff(hint, busy_replies + 1) >= policy.backoff(hint, busy_replies)
                );
                assert!(
                    policy.backoff(hint + 1, busy_replies) >= policy.backoff(hint, busy_replies)
                );
            }
        }
    }
}
