//! The benchmark's own load generator: one thread, one load connection.
//!
//! The transport is a thin copy of `dsq_server::Client`'s wire
//! behaviour (one write per frame, responses read back in order), kept
//! here so that encode, wire and decode can be timed apart and each
//! member of a pipelined burst gets its own completion time.
//!
//! * **Open loop.** Requests fall due on a Poisson schedule and leave
//!   in bursts at the burst's *last* member's due time; every member is
//!   timed from that due time to its parsed response, so a stall is
//!   charged to the requests queued behind it. Generator lag (actual
//!   start minus the later of the due time and the previous
//!   completion) is recorded separately.
//! * **Closed loop.** `depth` requests stay in flight; each parsed
//!   response releases the next request, timed from its send.

use crate::check::Reply;
use crate::stats::{median, ratio};
use crate::trace::{SpanId, Tracer};
use crate::workload::{Inputs, Window};
use dsq_core::format_instance;
use dsq_server::{Client, Response};
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// Sleep until this long before a due time, then spin: `sleep` alone
/// overshoots by tens of microseconds, which would read as server time.
const SPIN_MARGIN: Duration = Duration::from_micros(200);

/// Delay before a window's first due time, so the schedule starts idle.
const WINDOW_LEAD: Duration = Duration::from_millis(2);

/// One optimize request's timing and outcome. Times are nanoseconds
/// from the run's clock.
#[derive(Debug, Clone)]
pub struct Record {
    /// Request id (see [`Inputs`]).
    pub id: usize,
    /// Index of the burst (open loop) or request (closed loop) that
    /// carried it, within its window.
    pub burst: usize,
    /// Scheduled send time (open loop only).
    pub due_ns: Option<u64>,
    /// When the generator started the request (before encoding).
    pub start_ns: u64,
    /// When its frame was written.
    pub sent_ns: u64,
    /// When its response was parsed.
    pub done_ns: u64,
    /// Generator lag of its burst (open loop only; 0 otherwise).
    pub lag_ns: u64,
    /// What came back.
    pub reply: Reply,
}

impl Record {
    /// Latency: from the due time (open loop) or the send (closed loop)
    /// to the parsed response.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.due_ns.unwrap_or(self.sent_ns))
    }

    /// Round trip from the frame's write to the parsed response.
    pub fn rtt_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.sent_ns)
    }
}

/// The requests of one window and its span of time.
#[derive(Debug, Clone, Default)]
pub struct WindowRun {
    /// One record per request sent, in send order.
    pub records: Vec<Record>,
    /// When the window started (first due time or first send).
    pub start_ns: u64,
    /// When its last response was parsed.
    pub end_ns: u64,
    /// Id after the last request sent.
    pub next_id: usize,
}

impl WindowRun {
    /// Responses completed per second: the median over consecutive
    /// blocks of `block` completions (the first timed from the window's
    /// start) of each block's rate, with the number of blocks. A window
    /// shorter than one block is timed whole. A stall that hits one
    /// block moves one block's rate, not the reported median.
    pub fn throughput(&self, block: usize) -> (f64, usize) {
        let block = block.max(1);
        let done: Vec<u64> =
            std::iter::once(self.start_ns).chain(self.records.iter().map(|r| r.done_ns)).collect();
        let rate = |from: usize, to: usize| {
            ratio((to - from) as f64, done[to].saturating_sub(done[from]) as f64 / 1e9)
        };
        if done.len() <= block {
            return (rate(0, done.len() - 1), 1);
        }
        let rates: Vec<f64> =
            (block..done.len()).step_by(block).map(|to| rate(to - block, to)).collect();
        (median(&rates), rates.len())
    }
}

/// The load connection.
#[derive(Debug)]
pub struct Conn {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
    line: String,
}

impl Conn {
    /// Connects to the daemon's socket.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(socket: &Path) -> io::Result<Conn> {
        let writer = UnixStream::connect(socket)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn { writer, reader, line: String::new() })
    }

    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        self.writer.write_all(frame)
    }

    fn recv(&mut self) -> io::Result<&str> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Ok(&self.line)
    }
}

/// The run's clock: nanoseconds since it was made.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    /// A clock starting now.
    pub fn new() -> Clock {
        Clock(Instant::now())
    }

    /// Nanoseconds since the clock started.
    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    fn wait_until(&self, due_ns: u64) {
        let margin = SPIN_MARGIN.as_nanos() as u64;
        let now = self.now_ns();
        if due_ns > now + margin {
            std::thread::sleep(Duration::from_nanos(due_ns - now - margin));
        }
        while self.now_ns() < due_ns {
            std::hint::spin_loop();
        }
    }
}

impl Default for Clock {
    fn default() -> Self {
        Clock::new()
    }
}

fn encode(inputs: &Inputs, id: usize, tracer: &mut Tracer, parent: SpanId, frame: &mut String) {
    let instance = inputs.instance(id);
    let text = tracer.within("client.encode", id as u64, parent, || format_instance(&instance));
    frame.push_str(&text);
    frame.push_str("end\n");
}

/// Reads and decodes request `id`'s response, closing its `wire` span
/// when the line arrives. Once the connection has failed, every
/// outstanding request is a transport failure.
fn receive(
    conn: &mut Conn,
    broken: &mut Option<String>,
    id: usize,
    wire: SpanId,
    root: SpanId,
    tracer: &mut Tracer,
) -> Reply {
    if let Some(e) = broken {
        tracer.close(wire);
        return Reply::Transport(e.clone());
    }
    let received = conn.recv().map(str::to_owned);
    tracer.close(wire);
    match received {
        Ok(line) => tracer.within("client.decode", id as u64, root, || Reply::from_line(&line)),
        Err(e) => Reply::Transport(broken.insert(e.to_string()).clone()),
    }
}

/// Runs one open-loop window: bursts of `burst` requests, each sent at
/// its last member's due time.
pub fn open_loop(
    conn: &mut Conn,
    inputs: &Inputs,
    window: &Window,
    burst: usize,
    clock: &Clock,
    tracer: &mut Tracer,
) -> WindowRun {
    let base = clock.now_ns() + WINDOW_LEAD.as_nanos() as u64;
    let ids: Vec<usize> = (window.first..window.first + window.due.len()).collect();
    let mut run = WindowRun { start_ns: base, next_id: window.first, ..WindowRun::default() };
    let mut prev_done = base;
    let mut frame = String::new();
    let mut broken: Option<String> = None;
    for (b, members) in ids.chunks(burst).enumerate() {
        let due = base + (window.due[members[0] - window.first] * 1e9) as u64;
        clock.wait_until(due);
        let start = clock.now_ns();
        let lag = start.saturating_sub(due.max(prev_done));
        let root = tracer.open("burst", members[0] as u64, SpanId::NONE);
        frame.clear();
        for &id in members {
            encode(inputs, id, tracer, root, &mut frame);
        }
        // Member j's wire span runs from the previous member's decode
        // (the write, for the first) to its own response line.
        let mut wire = tracer.open("wire", members[0] as u64, root);
        let sent = clock.now_ns();
        if broken.is_none() {
            if let Err(e) = conn.send(frame.as_bytes()) {
                broken = Some(e.to_string());
            }
        }
        for (j, &id) in members.iter().enumerate() {
            if j > 0 {
                wire = tracer.open("wire", id as u64, root);
            }
            let reply = receive(conn, &mut broken, id, wire, root, tracer);
            let done = clock.now_ns();
            run.records.push(Record {
                id,
                burst: b,
                due_ns: Some(due),
                start_ns: start,
                sent_ns: sent,
                done_ns: done,
                lag_ns: lag,
                reply,
            });
        }
        tracer.close(root);
        prev_done = clock.now_ns();
        run.next_id = members[members.len() - 1] + 1;
    }
    run.end_ns = prev_done;
    run
}

/// When a closed-loop run stops sending.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many requests.
    Count(usize),
    /// Once this much time has passed since the first send.
    After(Duration),
}

/// Runs a closed loop from request `first` with `depth` requests in
/// flight until `stop`.
pub fn closed_loop(
    conn: &mut Conn,
    inputs: &Inputs,
    first: usize,
    depth: usize,
    stop: Stop,
    clock: &Clock,
    tracer: &mut Tracer,
) -> WindowRun {
    let start = clock.now_ns();
    let mut run = WindowRun { start_ns: start, next_id: first, ..WindowRun::default() };
    let mut in_flight: VecDeque<(usize, u64, u64, SpanId, SpanId)> = VecDeque::new();
    let mut frame = String::new();
    let mut broken: Option<String> = None;
    let more = |next: usize, now: u64| match stop {
        Stop::Count(n) => next < first + n,
        Stop::After(d) => now < start + d.as_nanos() as u64,
    };
    loop {
        while broken.is_none() && in_flight.len() < depth && more(run.next_id, clock.now_ns()) {
            let id = run.next_id;
            run.next_id += 1;
            let begun = clock.now_ns();
            let root = tracer.open("request", id as u64, SpanId::NONE);
            frame.clear();
            encode(inputs, id, tracer, root, &mut frame);
            let wire = tracer.open("wire", id as u64, root);
            let sent = clock.now_ns();
            if let Err(e) = conn.send(frame.as_bytes()) {
                broken = Some(e.to_string());
            }
            in_flight.push_back((id, begun, sent, root, wire));
        }
        let Some((id, begun, sent, root, wire)) = in_flight.pop_front() else {
            break;
        };
        let reply = receive(conn, &mut broken, id, wire, root, tracer);
        tracer.close(root);
        let done = clock.now_ns();
        run.records.push(Record {
            id,
            burst: id - first,
            due_ns: None,
            start_ns: begun,
            sent_ns: sent,
            done_ns: done,
            lag_ns: 0,
            reply,
        });
        run.end_ns = done;
    }
    run
}

/// Round-trip times (nanoseconds) of `count` timed `Client::ping`s.
///
/// # Errors
///
/// Transport failures, or a reply other than `pong`.
pub fn pings(client: &mut Client, count: usize, tracer: &mut Tracer) -> io::Result<Vec<f64>> {
    let mut rtts = Vec::with_capacity(count);
    for k in 0..count {
        let begun = Instant::now();
        let response =
            tracer.within("event_loop.ping", k as u64, SpanId::NONE, || client.ping())?;
        rtts.push(begun.elapsed().as_nanos() as f64);
        if response != Response::Pong {
            return Err(io::Error::other(format!("ping answered `{}`", response.to_line())));
        }
    }
    Ok(rtts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(done_ms: &[u64]) -> WindowRun {
        let records = done_ms
            .iter()
            .enumerate()
            .map(|(id, &ms)| Record {
                id,
                burst: id,
                due_ns: None,
                start_ns: 0,
                sent_ns: 0,
                done_ns: ms * 1_000_000,
                lag_ns: 0,
                reply: Reply::Transport("unused".into()),
            })
            .collect();
        WindowRun { records, start_ns: 0, end_ns: 0, next_id: 0 }
    }

    /// Two completions per 10 ms, except one block stalled for 100 ms.
    #[test]
    fn throughput_is_the_median_block_rate() {
        let run = window(&[5, 10, 15, 20, 120, 125, 130, 135]);
        assert_eq!(run.throughput(2), (200.0, 4));
        assert_eq!(run.throughput(100), (8.0 / 0.135, 1));
    }
}
