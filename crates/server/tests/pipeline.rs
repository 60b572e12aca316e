//! The reactor core's behavior contract: protocol pipelining (in-order
//! responses, coalesced frames), single-thread connection scale, wire
//! compatibility with the pre-reactor server, and regression tests for
//! the four server-edge bugs fixed alongside the rewrite (the
//! `outstanding` underflow race, swallowed connection panics, ignored
//! export-rollback failures, and the late/skippable import size cap).
//!
//! The CI host is single-core, so nothing here measures wall-clock
//! parallelism — every property is asserted on observable behavior:
//! counters, thread counts, wire bytes, and per-connection read/write
//! call counts (the syscall proxy).

use dsq_core::{BnbConfig, CanonicalKey, Quantization, QueryInstance};
use dsq_server::{
    Client, ExportRequest, FaultProfile, ListenAddr, PipelineRequest, Response, Server,
    ServerConfig,
};
use dsq_service::{PlanCache, PlanTier, ServeSource};
use dsq_workloads::{generate, Family};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The daemon's size cap on an `import-partition` document (8 MiB).
const MAX_IMPORT_BYTES: usize = 8 << 20;

fn tcp() -> ListenAddr {
    ListenAddr::Tcp("127.0.0.1:0".into())
}

fn temp_path(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let id = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!("dsq-pipeline-{tag}-{}-{id}", std::process::id()))
}

/// A raw TCP socket speaking the wire protocol directly, for the tests
/// that pin exact bytes (the typed [`Client`] would hide them).
fn raw_connect(addr: &ListenAddr) -> TcpStream {
    let ListenAddr::Tcp(spec) = addr else { panic!("expected a TCP server") };
    TcpStream::connect(spec).expect("raw connect")
}

/// The tentpole scale claim: one reactor thread (plus the fixed worker
/// and snapshot threads) holds 1000+ concurrent idle connections.
/// Asserted through [`dsq_server::hold_connections`]'s held/dropped
/// accounting — every connection answers a ping at connect time *and*
/// again at drain time, so an evicted or thread-starved connection
/// shows up as `dropped > 0` — rather than by scraping
/// `/proc/self/task`, which counted the test harness's own threads and
/// only existed on Linux.
#[test]
fn a_thousand_idle_connections_cost_no_threads() {
    let server = Server::start(&tcp(), &ServerConfig::default()).expect("start");
    let report = dsq_server::hold_connections(server.listen_addr(), 1050).expect("hold");
    assert_eq!(
        (report.requested, report.held, report.dropped),
        (1050, 1050, 0),
        "every parked connection must survive to drain: {}",
        report.summary_line()
    );
    assert_eq!(
        report.summary_line(),
        "drained 1050 held connections: 1050 live, 0 dropped",
        "the drain summary the CLI prints is pinned here"
    );
    let mut prober = Client::connect(server.listen_addr()).expect("probe connect");
    assert_eq!(prober.ping().expect("server still responsive"), Response::Pong);
    assert!(server.stats().connections >= 1051, "all connections accepted");
    let stats = server.shutdown();
    assert_eq!(stats.protocol_errors, 0);
}

/// An N-deep pipeline is answered strictly in request order, and the
/// whole batch costs the client exactly one socket write.
#[test]
fn pipelined_requests_are_answered_in_request_order() {
    let server = Server::start(&tcp(), &ServerConfig::default()).expect("start");
    let instances: Vec<_> = (0..12).map(|s| generate(Family::Clustered, 7, 700 + s)).collect();

    let mut pipelined = Client::connect(server.listen_addr()).expect("connect");
    let responses = pipelined.optimize_pipelined(&instances).expect("pipeline");
    assert_eq!(responses.len(), instances.len());
    let (_, writes) = pipelined.wire_counts();
    assert_eq!(writes, 1, "a pipelined batch is one coalesced frame");

    // A second connection replays the batch one request at a time; the
    // fingerprints must line up position by position — the order proof.
    let mut sequential = Client::connect(server.listen_addr()).expect("connect");
    for (i, (instance, response)) in instances.iter().zip(&responses).enumerate() {
        let Response::Served { fingerprint: pipelined_fp, .. } = response else {
            panic!("request {i}: expected served, got {response:?}");
        };
        match sequential.optimize(instance).expect("sequential serve") {
            Response::Served { fingerprint, .. } => {
                assert_eq!(fingerprint, *pipelined_fp, "response {i} out of order");
            }
            other => panic!("expected served, got {other:?}"),
        }
    }
    let stats = server.shutdown();
    assert!(
        stats.pipeline_peak >= 2,
        "the batch must actually overlap requests, peak {}",
        stats.pipeline_peak
    );
    assert_eq!(stats.protocol_errors, 0);
}

/// Reads `count` response lines off `reader`, as raw bytes.
fn read_lines(reader: &mut impl BufRead, count: usize) -> Vec<u8> {
    let mut bytes = Vec::new();
    for _ in 0..count {
        let read = reader.read_until(b'\n', &mut bytes).expect("read a response line");
        assert!(read > 0, "connection closed early");
    }
    bytes
}

/// Validated hits are answered on the reactor at admission: in one
/// pipelined window `[cold A, hit B, cold C, hit B, ping]` the hits fill
/// their slots while the misses queued ahead of them are still
/// searching, and the replies still leave in request order — byte for
/// byte what the same requests get one at a time. Only the two misses
/// pass through the admission queue.
#[test]
fn inline_hits_behind_misses_keep_request_order() {
    let a = generate(Family::BtspHard, 12, 1300);
    let b = generate(Family::Clustered, 7, 1301);
    let c = generate(Family::BtspHard, 12, 1302);
    // B is resident before the window (imported, not served), so each
    // server's counters are exactly the window's.
    let seeded = PlanCache::new(ServerConfig::default().cache);
    seeded.serve(&b, &BnbConfig::paper());
    let partition = seeded.snapshot();
    let document = |instance: &QueryInstance| {
        let mut doc = dsq_core::format_instance(instance);
        if !doc.ends_with('\n') {
            doc.push('\n');
        }
        doc + "end\n"
    };
    let requests = [document(&a), document(&b), document(&c), document(&b), "ping\n".into()];

    let serve = |pipelined: bool| {
        let server = Server::start(&tcp(), &ServerConfig::default()).expect("start");
        let mut control = Client::connect(server.listen_addr()).expect("connect");
        assert_eq!(control.import_partition(&partition).expect("import B"), 1);
        let mut socket = raw_connect(server.listen_addr());
        let mut reader = BufReader::new(socket.try_clone().expect("clone socket"));
        let replies = if pipelined {
            socket.write_all(requests.concat().as_bytes()).expect("write the window");
            read_lines(&mut reader, requests.len())
        } else {
            let mut replies = Vec::new();
            for request in &requests {
                socket.write_all(request.as_bytes()).expect("write one request");
                replies.extend(read_lines(&mut reader, 1));
            }
            replies
        };
        let metrics = control.metrics().expect("metrics");
        for expected in [
            "histogram server.stage.queue_wait_ns count 2 ",
            "histogram server.stage.plan_ns count 4 ",
            "counter server.reactor.outstanding 0\n",
        ] {
            assert!(metrics.contains(expected), "pipelined {pipelined}: {expected}\n{metrics}");
        }
        let stats = server.shutdown();
        assert_eq!((stats.cache.hits, stats.cache.misses, stats.cache.warm_starts), (2, 2, 0));
        assert_eq!((stats.admitted, stats.busy_rejections, stats.outstanding), (4, 0, 0));
        (replies, stats.pipeline_peak)
    };

    let (pipelined, peak) = serve(true);
    let text = String::from_utf8(pipelined.clone()).expect("utf-8 replies");
    let lines: Vec<&str> = text.lines().collect();
    let quantization = Quantization::default();
    let expected = [(&a, ServeSource::Cold), (&b, ServeSource::CacheHit), (&c, ServeSource::Cold)];
    for (i, &(instance, source)) in expected.iter().chain(&expected[1..2]).enumerate() {
        match Response::parse(lines[i]).expect("a response line") {
            Response::Served { source: got, fingerprint, .. } => {
                assert_eq!(got, source, "reply {i}");
                let key = CanonicalKey::new(instance, &quantization);
                assert_eq!(fingerprint, key.fingerprint(), "reply {i} out of order");
            }
            other => panic!("reply {i}: expected served, got {other:?}"),
        }
    }
    assert_eq!(lines[4], "ok pong");
    assert_eq!(peak, 4, "all four optimize slots were pending at once");

    let (sequential, peak) = serve(false);
    assert_eq!(peak, 1);
    assert_eq!(pipelined, sequential, "pipelining must not change a reply byte");
}

/// The immediate `ping` verb rides the same ordered pipeline as
/// optimize documents: answers interleave exactly where the requests
/// were.
#[test]
fn immediate_verbs_interleave_inside_a_pipeline() {
    let server = Server::start(&tcp(), &ServerConfig::default()).expect("start");
    let mut client = Client::connect(server.listen_addr()).expect("connect");
    let doc = dsq_core::format_instance(&generate(Family::Euclidean, 6, 811));
    let batch = vec![
        PipelineRequest::Ping,
        PipelineRequest::Optimize(doc.clone()),
        PipelineRequest::Ping,
        PipelineRequest::Optimize(doc),
        PipelineRequest::Ping,
    ];
    let responses = client.pipeline(&batch).expect("pipeline");
    assert_eq!(responses.len(), 5);
    assert_eq!(responses[0], Response::Pong);
    assert!(matches!(responses[1], Response::Served { .. }), "slot 1: {:?}", responses[1]);
    assert_eq!(responses[2], Response::Pong, "slot 2");
    assert!(matches!(responses[3], Response::Served { .. }), "slot 3: {:?}", responses[3]);
    assert_eq!(responses[4], Response::Pong);
    let stats = server.shutdown();
    assert_eq!(stats.protocol_errors, 0);
}

/// The syscall claim behind pipelining, asserted through per-connection
/// read/write call counts: a 64-request pipelined exchange costs one
/// write and a handful of reads, where the sequential exchange pays one
/// of each per request.
#[test]
fn pipelining_coalesces_reads_and_writes() {
    let server = Server::start(&tcp(), &ServerConfig::default()).expect("start");

    let mut sequential = Client::connect(server.listen_addr()).expect("connect");
    for _ in 0..64 {
        assert_eq!(sequential.ping().expect("ping"), Response::Pong);
    }
    let (seq_reads, seq_writes) = sequential.wire_counts();
    assert_eq!(seq_writes, 64, "sequential: one write per request");
    assert!(seq_reads >= 64, "sequential: at least one read per request");

    let mut pipelined = Client::connect(server.listen_addr()).expect("connect");
    let responses = pipelined.pipeline(&vec![PipelineRequest::Ping; 64]).expect("pipeline");
    assert!(responses.iter().all(|r| *r == Response::Pong));
    let (pipe_reads, pipe_writes) = pipelined.wire_counts();
    assert_eq!(pipe_writes, 1, "pipelined: the batch is one write");
    assert!(
        pipe_reads * 8 <= seq_reads,
        "pipelined reads must coalesce: {pipe_reads} pipelined vs {seq_reads} sequential"
    );
    server.shutdown();
}

/// Wire compatibility: a client that sends one request at a time sees
/// byte-identical exchanges to the pre-reactor server — same single
/// response line, same bytes, nothing extra on the stream.
#[test]
fn single_request_exchanges_are_byte_identical() {
    let server = Server::start(&tcp(), &ServerConfig::default()).expect("start");
    let mut socket = raw_connect(server.listen_addr());
    socket.write_all(b"ping\n").expect("write ping");
    let mut reader = BufReader::new(socket.try_clone().expect("clone socket"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read pong");
    assert_eq!(line, "ok pong\n", "the ping exchange is pinned byte for byte");

    // An optimize exchange: exactly one line back, and rendering the
    // parsed response reproduces the line byte for byte (the response
    // grammar is its own exact inverse — unchanged by the rewrite).
    let mut doc = dsq_core::format_instance(&generate(Family::Clustered, 6, 901));
    if !doc.ends_with('\n') {
        doc.push('\n');
    }
    doc.push_str("end\n");
    socket.write_all(doc.as_bytes()).expect("write document");
    line.clear();
    reader.read_line(&mut line).expect("read served");
    let response = Response::parse(&line).expect("parses");
    assert!(matches!(response, Response::Served { .. }), "{response:?}");
    assert_eq!(format!("{}\n", response.to_line()), line, "render round-trips the exact bytes");

    // Nothing extra followed the response; the stream is in sync.
    socket.set_read_timeout(Some(Duration::from_millis(80))).expect("timeout");
    let mut probe = [0u8; 1];
    match reader.read(&mut probe) {
        Err(e) => assert!(
            matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut),
            "unexpected error {e}"
        ),
        Ok(n) => panic!("unexpected trailing bytes ({n}) after a single-request exchange"),
    }
    server.shutdown();
}

/// Regression, bug #1: the `outstanding` gauge was incremented *after*
/// `try_send`, racing the worker's decrement — a fast worker wrapped it
/// to `usize::MAX` and pinned every later `busy` hint at the 16× cap.
/// Now the gauge must return to zero once the server drains, and busy
/// hints stay inside `[base, 16 × base]`.
#[test]
fn outstanding_gauge_cannot_underflow() {
    let config = ServerConfig { queue_capacity: 1, retry_after_ms: 7, ..ServerConfig::default() };
    let server = Server::start(&tcp(), &config).expect("start");

    // Tiny instances make workers finish as fast as possible — the
    // widest window for the old increment/decrement race. An idle worker
    // can keep pace with a whole tiny burst, so the last burst leads
    // with a cold btsp-hard search: it holds the worker while the rest
    // of the burst overflows the one-slot queue, and the busy path runs
    // on every run, not only when the worker happens to lag.
    for round in 0..7 {
        let mut instances: Vec<_> =
            (0..8).map(|s| generate(Family::Euclidean, 5, 1000 + round * 8 + s)).collect();
        if round == 6 {
            instances[0] = generate(Family::BtspHard, 13, 40);
        }
        let mut client = Client::connect(server.listen_addr()).expect("connect");
        let responses = client.optimize_pipelined(&instances).expect("pipeline");
        for response in responses {
            match response {
                Response::Served { .. } => {}
                Response::Busy { retry_after_ms } => {
                    assert!(
                        (7..=7 * 16).contains(&retry_after_ms),
                        "busy hint {retry_after_ms} outside [base, 16 x base] — the underflow symptom"
                    );
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
    }

    // Once every response is in, nothing is outstanding. Under the old
    // race this reads ~u64::MAX.
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let outstanding = server.stats().outstanding;
        if outstanding == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "outstanding stuck at {outstanding}");
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = server.shutdown();
    assert_eq!(stats.outstanding, 0);
    assert!(
        stats.admitted >= 1 && stats.busy_rejections >= 1,
        "the burst must exercise both paths"
    );
}

/// Regression, bug #2: a panicking connection handler was silently
/// discarded. Now it is counted, logged, and isolated — the connection
/// dies, the server keeps serving.
#[test]
fn connection_panics_are_counted_and_contained() {
    let config =
        ServerConfig { debug_panic_verb: Some("panic-now".to_string()), ..ServerConfig::default() };
    let server = Server::start(&tcp(), &config).expect("start");

    let mut socket = raw_connect(server.listen_addr());
    socket.write_all(b"panic-now\n").expect("write trigger");
    let mut rest = Vec::new();
    // The poisoned connection is torn down: EOF, no response bytes.
    socket.read_to_end(&mut rest).expect("read to close");
    assert!(rest.is_empty(), "a panicked handler must not leak bytes: {rest:?}");

    // The reactor survived its connection's panic.
    let mut client = Client::connect(server.listen_addr()).expect("connect after panic");
    assert_eq!(client.ping().expect("still serving"), Response::Pong);
    match client.optimize(&generate(Family::Clustered, 6, 1100)).expect("still planning") {
        Response::Served { .. } => {}
        other => panic!("expected served, got {other:?}"),
    }
    let stats = server.shutdown();
    assert_eq!(stats.connection_panics, 1, "the panic must be counted, not swallowed");
    assert_eq!(stats.cache.requests(), 1);
}

/// Regression, bug #3: a failed export delivery used to discard the
/// rollback result (`let _ = cache.restore(...)`). Now an export whose
/// connection dies before delivery is rolled back into the cache and
/// the rollback is counted.
#[test]
fn undelivered_exports_roll_back_and_are_counted() {
    // Warm a clean server and persist its cache...
    let snapshot = temp_path("rollback");
    let clean = ServerConfig {
        snapshot_path: Some(snapshot.clone()),
        snapshot_interval: Duration::from_secs(3600),
        ..ServerConfig::default()
    };
    let warm = Server::start(&tcp(), &clean).expect("start warm");
    let mut client = Client::connect(warm.listen_addr()).expect("connect");
    for seed in 0..12 {
        let instance = generate(Family::Clustered, 7, 1200 + seed);
        assert!(matches!(client.optimize(&instance).expect("warm"), Response::Served { .. }));
    }
    drop(client);
    let warmed = warm.shutdown().cache.entries;
    assert!(warmed > 0);

    // ...then restart it under chaos that kills every outgoing frame:
    // the export is removed from the cache, the delivery dies on the
    // wire, and the teardown must restore it.
    let lethal = FaultProfile {
        seed: 5,
        drop_one_in: 1, // every write
        delay_one_in: 0,
        delay_ms: 0,
        truncate_one_in: 0,
    };
    let chaotic = ServerConfig {
        snapshot_path: Some(snapshot.clone()),
        snapshot_interval: Duration::from_secs(3600),
        chaos: Some(lethal),
        ..ServerConfig::default()
    };
    let server = Server::start(&tcp(), &chaotic).expect("restart");
    assert_eq!(server.stats().cache.entries, warmed, "warm restart");

    let request = ExportRequest {
        vnodes: dsq_service::DEFAULT_VNODES,
        keep: 0,
        backends: vec!["backend-a".to_string(), "backend-b".to_string()],
    };
    let mut mover = Client::connect(server.listen_addr()).expect("connect mover");
    mover.export_partition(&request).expect_err("the dropped delivery must error");

    let deadline = Instant::now() + Duration::from_secs(2);
    while server.stats().export_rollbacks == 0 {
        assert!(Instant::now() < deadline, "rollback never counted");
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = server.shutdown();
    assert_eq!(stats.export_rollbacks, 1, "the undelivered export must be rolled back");
    assert_eq!(stats.export_rollback_errors, 0);
    assert_eq!(stats.cache.entries, warmed, "no entry may be lost to a dead handoff");
    std::fs::remove_file(&snapshot).ok();
    std::fs::remove_file(dsq_server::lock_path(&snapshot)).ok();
}

/// Regression, bug #4: the import size cap was enforced only *after*
/// appending a line, and never on the `end-snapshot` trailer — an
/// import could overshoot the cap by a whole line or smuggle the
/// overshoot in with the trailer. Now every line is checked before it
/// is buffered.
#[test]
fn import_cap_applies_before_every_line_including_the_trailer() {
    let server = Server::start(&tcp(), &ServerConfig::default()).expect("start");

    // A body line that would blow the cap is refused before buffering.
    // Every byte sent is one the daemon must read to pass the cap, so
    // it closes with nothing left unread.
    let mut socket = raw_connect(server.listen_addr());
    let oversized = format!("import-partition\n{}\n", "x".repeat(MAX_IMPORT_BYTES));
    socket.write_all(oversized.as_bytes()).expect("write");
    let mut reader = BufReader::new(socket);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read error");
    assert_eq!(line, "error partition exceeds 8388608 bytes\n");
    line.clear();
    assert_eq!(reader.read_line(&mut line).expect("closed"), 0, "the framing is lost: close");

    // A body under the cap whose trailer pushes past it is refused too
    // (the old check skipped the trailer line entirely).
    let mut socket = raw_connect(server.listen_addr());
    // (cap - 13) + '\n' + "end-snapshot\n" = cap + 1
    let body = "y".repeat(MAX_IMPORT_BYTES - 13);
    let smuggled = format!("import-partition\n{body}\nend-snapshot\n");
    socket.write_all(smuggled.as_bytes()).expect("write");
    let mut reader = BufReader::new(socket);
    line.clear();
    reader.read_line(&mut line).expect("read error");
    assert_eq!(line, "error partition exceeds 8388608 bytes\n");

    let stats = server.shutdown();
    assert_eq!(stats.protocol_errors, 2);
}

/// Regression: the reactor buffered input without limit, and checked
/// the request cap only once a line ended, so a peer that never sent a
/// newline grew the daemon's memory for as long as it kept sending. Now
/// a request is refused once its buffered bytes pass the cap, newline or
/// not: a verb line, a document and an import partition, each one byte
/// over its cap and never terminated.
#[test]
fn unterminated_requests_are_refused_at_the_cap() {
    const MAX_REQUEST_BYTES: usize = 1 << 20;
    let server = Server::start(&tcp(), &ServerConfig::default()).expect("start");
    let refused = |head: &str, request_bytes: usize, expected: &str| {
        let mut socket = raw_connect(server.listen_addr());
        // A daemon that waits for the newline would hang the test.
        socket.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
        let mut request = format!("ping\n{head}").into_bytes();
        request.resize(request.len() + request_bytes - head.len(), b'x');
        socket.write_all(&request).expect("write");
        let mut reader = BufReader::new(socket);
        let replies = read_lines(&mut reader, 2);
        assert_eq!(String::from_utf8(replies).expect("utf-8"), format!("ok pong\n{expected}"));
        let mut rest = Vec::new();
        assert_eq!(reader.read_to_end(&mut rest).expect("closed"), 0, "the framing is lost: close");
    };
    refused("", MAX_REQUEST_BYTES + 1, "error request exceeds 1048576 bytes\n");
    refused(
        "dsq-instance v1\nname ",
        MAX_REQUEST_BYTES + 1,
        "error request exceeds 1048576 bytes\n",
    );
    // The import cap counts from the line after the verb.
    refused(
        "import-partition\n",
        "import-partition\n".len() + MAX_IMPORT_BYTES + 1,
        "error partition exceeds 8388608 bytes\n",
    );
    let stats = server.shutdown();
    assert_eq!(stats.protocol_errors, 3);
}

/// Wire framing survives arbitrary segmentation. One pipelined window
/// holds a hit, a miss, a malformed document (with a body line that
/// starts like the trailer), `ping`, and a CRLF document whose `end`
/// line is padded with whitespace. It is sent whole, then cut in two at
/// every byte offset, then one byte per write; every exchange starts
/// from the same cache, and the replies are byte-identical each time.
#[test]
fn wire_framing_survives_arbitrary_segmentation() {
    let hit = generate(Family::Clustered, 4, 1400);
    let miss = generate(Family::Clustered, 4, 1401);
    let seeded = PlanCache::new(ServerConfig::default().cache);
    seeded.serve(&hit, &BnbConfig::paper());
    let partition = seeded.snapshot();
    let document =
        |instance: &QueryInstance| format!("{}end\n", dsq_core::format_instance(instance));
    let crlf = dsq_core::format_instance(&hit).replace('\n', "\r\n") + "\t end \r\n";
    let window = [
        document(&hit),
        document(&miss),
        "dsq-instance v1\nn 2\nendless 1\nend\n".to_string(),
        "ping\n".to_string(),
        crlf,
    ]
    .concat();
    let window = window.as_bytes();

    let server = Server::start(&tcp(), &ServerConfig::default()).expect("start");
    let mut control = Client::connect(server.listen_addr()).expect("connect");
    // `keep == backends.len()` is the drain form: it exports every entry.
    let drain = ExportRequest { vnodes: 1, keep: 1, backends: vec!["elsewhere".to_string()] };
    let mut exchanges = 0u64;
    let mut exchange = |cuts: &mut dyn Iterator<Item = usize>| {
        control.export_partition(&drain).expect("empty the cache");
        assert_eq!(control.import_partition(&partition).expect("import the hit"), 1);
        let mut socket = raw_connect(server.listen_addr());
        socket.set_nodelay(true).expect("nodelay");
        socket.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
        let mut reader = BufReader::new(socket.try_clone().expect("clone socket"));
        let mut from = 0;
        for cut in cuts.chain([window.len()]) {
            socket.write_all(&window[from..cut]).expect("write a segment");
            from = cut;
        }
        exchanges += 1;
        read_lines(&mut reader, 5)
    };

    let whole = exchange(&mut std::iter::empty());
    let text = String::from_utf8(whole.clone()).expect("utf-8 replies");
    let lines: Vec<&str> = text.lines().collect();
    let sources: Vec<_> = [0, 1, 4]
        .iter()
        .map(|&i| match Response::parse(lines[i]).expect("a response line") {
            Response::Served { source, .. } => source,
            other => panic!("reply {i}: expected served, got {other:?}"),
        })
        .collect();
    assert_eq!(sources, [ServeSource::CacheHit, ServeSource::Cold, ServeSource::CacheHit]);
    assert_eq!(lines[2], "error cannot parse instance: line 3: unknown keyword `endless`");
    assert_eq!(lines[3], "ok pong");
    assert_eq!(lines[0], lines[4], "the CRLF copy is the same request");

    for cut in 1..window.len() {
        let replies = exchange(&mut std::iter::once(cut));
        assert!(replies == whole, "cut at byte {cut}: {}", String::from_utf8_lossy(&replies));
    }
    let replies = exchange(&mut (1..window.len()));
    assert!(replies == whole, "one byte per write: {}", String::from_utf8_lossy(&replies));

    drop(control);
    let stats = server.shutdown();
    assert_eq!(stats.protocol_errors, exchanges);
    assert_eq!((stats.cache.hits, stats.cache.misses), (2 * exchanges, exchanges));
}

/// A `--tiered` daemon answers a key's first miss at tier 1, and every
/// duplicate pipelined behind it waits for the key's refinement (on the
/// worker, or as a reactor hit once it landed) and gets the exact plan.
/// With one worker, every reply's source and tier is fixed.
#[test]
fn tiered_duplicates_behind_a_tier1_miss_get_the_exact_plan() {
    let config = ServerConfig { tiered: true, ..ServerConfig::default() };
    let server = Server::start(&tcp(), &config).expect("start");
    let a = generate(Family::BtspHard, 11, 97);
    let b = generate(Family::BtspHard, 11, 98);
    let batch = [&a, &a, &b, &a, &b, &a].map(Clone::clone);

    let mut client = Client::connect(server.listen_addr()).expect("connect");
    let replies = client.optimize_pipelined(&batch).expect("pipeline");
    let tier1 = [true, false, true, false, false, false];
    for (i, (instance, reply)) in batch.iter().zip(&replies).enumerate() {
        let Response::Served { source, cost, plan, tier, .. } = reply else {
            panic!("request {i}: expected served, got {reply:?}");
        };
        if tier1[i] {
            assert_eq!((*source, *tier), (ServeSource::Cold, PlanTier::Heuristic), "request {i}");
        } else {
            let exact = dsq_core::optimize_with(instance, &BnbConfig::paper());
            assert_eq!((*source, *tier), (ServeSource::CacheHit, PlanTier::Exact), "request {i}");
            assert_eq!(cost.to_bits(), exact.cost().to_bits(), "request {i}");
            assert_eq!(*plan, exact.plan().indices(), "request {i}");
        }
    }
    let stats = server.shutdown();
    assert_eq!((stats.cache.hits, stats.cache.misses, stats.cache.warm_starts), (4, 2, 0));
    assert_eq!(stats.cache.heuristic_entries, 0, "the shutdown drain refined both keys");
    let tiered = stats.tiered.expect("a tiered daemon reports its tier counters");
    assert_eq!((tiered.heuristic_served, tiered.refined), (2, 2));
}
