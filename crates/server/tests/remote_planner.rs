//! `RemotePlanner` failure-path battery: malformed `busy` lines,
//! truncated `ok` responses, and mid-response disconnects must surface
//! as typed `PlanError`s — never panics — and the busy retry/backoff
//! helper must turn a 1-slot server's rejections into eventual service.

use dsq_core::{format_instance, optimize, BnbConfig};
use dsq_server::{Client, ListenAddr, RemotePlanner, Response, RetryPolicy, Server, ServerConfig};
use dsq_service::{PlanError, Planner, ServeSource};
use dsq_workloads::{generate, Family};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::num::NonZeroUsize;
use std::sync::Barrier;
use std::thread::JoinHandle;
use std::time::Duration;

/// One scripted reply of the fake server.
enum Reply {
    /// A full response line (newline appended), connection kept open.
    Line(&'static str),
    /// Partial bytes with **no** newline, then the connection closes —
    /// a response truncated mid-line.
    Truncated(&'static str),
    /// The connection closes before any response byte.
    Disconnect,
}

/// A single-connection fake daemon: reads one instance document per
/// scripted reply (up to the `end` marker), then answers exactly as
/// scripted. Malice is the point — it exercises the client's parsing
/// and framing guards.
fn fake_server(script: Vec<Reply>) -> (ListenAddr, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake server");
    let addr = ListenAddr::Tcp(listener.local_addr().expect("local addr").to_string());
    let handle = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("one connection");
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        for reply in script {
            // Consume one request document.
            loop {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => return, // client gave up first
                    Ok(_) if line.trim() == "end" => break,
                    Ok(_) => {}
                }
            }
            let stream = reader.get_mut();
            match reply {
                Reply::Line(text) => {
                    stream.write_all(text.as_bytes()).expect("write line");
                    stream.write_all(b"\n").expect("write newline");
                }
                Reply::Truncated(bytes) => {
                    stream.write_all(bytes.as_bytes()).expect("write partial");
                    return; // dropping the stream closes it mid-line
                }
                Reply::Disconnect => return,
            }
        }
    });
    (addr, handle)
}

fn request() -> dsq_core::QueryInstance {
    generate(Family::Clustered, 5, 77)
}

/// A policy that never sleeps long and never retries (so scripted
/// single replies are terminal).
fn no_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 1,
        min_backoff: Duration::from_micros(100),
        max_backoff: Duration::from_millis(1),
    }
}

#[test]
fn malformed_busy_line_is_a_typed_protocol_error() {
    let (addr, handle) = fake_server(vec![Reply::Line("busy retry-after-ms soon")]);
    let planner = RemotePlanner::new(addr).with_policy(no_retry());
    let error = planner.plan(&request()).expect_err("malformed line must not serve");
    match &error {
        PlanError::Protocol(message) => {
            assert!(message.contains("malformed protocol line"), "{message}")
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }
    handle.join().expect("fake server exits");
}

#[test]
fn truncated_ok_response_is_a_typed_protocol_error() {
    let (addr, handle) = fake_server(vec![Reply::Truncated("ok source hit cost 1.0 finge")]);
    let planner = RemotePlanner::new(addr).with_policy(no_retry());
    let error = planner.plan(&request()).expect_err("truncated response must not serve");
    assert!(matches!(error, PlanError::Protocol(_)), "got {error:?}");
    handle.join().expect("fake server exits");
}

#[test]
fn disconnect_before_the_response_is_a_typed_transport_error() {
    let (addr, handle) = fake_server(vec![Reply::Disconnect]);
    let planner = RemotePlanner::new(addr).with_policy(no_retry());
    let error = planner.plan(&request()).expect_err("mid-request disconnect must not serve");
    match &error {
        PlanError::Transport(message) => {
            assert!(message.contains("before responding"), "{message}")
        }
        other => panic!("expected a transport error, got {other:?}"),
    }
    handle.join().expect("fake server exits");
}

#[test]
fn backend_error_replies_surface_verbatim() {
    let (addr, handle) = fake_server(vec![Reply::Line("error cannot parse instance: nope")]);
    let planner = RemotePlanner::new(addr).with_policy(no_retry());
    let error = planner.plan(&request()).expect_err("error reply is an error");
    assert_eq!(error, PlanError::Backend("cannot parse instance: nope".into()));
    handle.join().expect("fake server exits");
}

#[test]
fn non_permutation_served_plans_are_protocol_errors() {
    let (addr, handle) =
        fake_server(vec![Reply::Line("ok source hit cost 1 fingerprint 0 plan 0,0,1,2,3")]);
    let planner = RemotePlanner::new(addr).with_policy(no_retry());
    let error = planner.plan(&request()).expect_err("duplicate indices are not a plan");
    match &error {
        PlanError::Protocol(message) => {
            assert!(message.contains("served plan is invalid"), "{message}")
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }
    handle.join().expect("fake server exits");
}

#[test]
fn out_of_sync_response_verbs_are_protocol_errors() {
    let (addr, handle) = fake_server(vec![Reply::Line("ok pong")]);
    let planner = RemotePlanner::new(addr).with_policy(no_retry());
    let error = planner.plan(&request()).expect_err("pong is not a plan");
    match &error {
        PlanError::Protocol(message) => {
            assert!(message.contains("unexpected response to an optimize request"), "{message}")
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }
    handle.join().expect("fake server exits");
}

#[test]
fn busy_beyond_the_retry_budget_is_a_typed_busy_error() {
    let (addr, handle) = fake_server(vec![
        Reply::Line("busy retry-after-ms 7"),
        Reply::Line("busy retry-after-ms 9"),
    ]);
    let policy = RetryPolicy { max_attempts: 2, ..no_retry() };
    let planner = RemotePlanner::new(addr).with_policy(policy);
    let error = planner.plan(&request()).expect_err("budget exhausted");
    // The second hint proves the first busy was absorbed by one retry.
    assert_eq!(error, PlanError::Busy { retry_after_ms: 9 }, "the LAST hint is reported");
    handle.join().expect("fake server exits");
}

#[test]
fn unreachable_backends_are_transport_errors() {
    let planner = RemotePlanner::new(ListenAddr::Unix("/nonexistent/dsq-fleet.sock".into()));
    let error = planner.plan(&request()).expect_err("nothing listens there");
    match &error {
        PlanError::Transport(message) => assert!(message.contains("cannot connect"), "{message}"),
        other => panic!("expected a transport error, got {other:?}"),
    }
}

#[test]
fn planner_reconnects_after_a_backend_restart() {
    let path = std::env::temp_dir().join(format!("dsq-remote-restart-{}.sock", std::process::id()));
    let addr = ListenAddr::Unix(path.clone());
    let config = ServerConfig::default();
    let planner = RemotePlanner::new(addr.clone());
    let instance = request();
    let fresh = optimize(&instance);

    let server = Server::start(&addr, &config).expect("first server starts");
    let served = planner.plan(&instance).expect("serves through the live backend");
    assert_eq!(served.cost.to_bits(), fresh.cost().to_bits());
    server.shutdown();

    // Dead backend: the held connection fails, typed, not a panic.
    let error = planner.plan(&instance).expect_err("backend is down");
    assert!(matches!(error, PlanError::Transport(_)), "got {error:?}");

    // Restarted backend on the same path: the next request redials.
    let server = Server::start(&addr, &config).expect("second server starts");
    let served = planner.plan(&instance).expect("reconnects by itself");
    assert_eq!(served.cost.to_bits(), fresh.cost().to_bits());
    assert_eq!(served.source, ServeSource::Cold, "the restarted cache is cold");
    server.shutdown();
}

/// `optimize_text_with_retry` against a 1-slot server.
/// A simultaneous burst into 1 worker × 1 queue slot must overflow, and
/// the retry/backoff helper must turn every rejection into eventual
/// service — no request is lost, every plan is exact.
#[test]
fn retry_helper_rides_out_a_one_slot_server() {
    let config = ServerConfig {
        workers: NonZeroUsize::new(1).expect("non-zero"),
        queue_capacity: 1,
        retry_after_ms: 5,
        // The burst overflows only while the worker is busy searching:
        // keep the slower paper search, as the default configuration's
        // prefix dominance finishes these searches in a fraction of the
        // time, as in `busy_hints_scale_with_load_but_stay_bounded`.
        bnb: BnbConfig::paper(),
        ..ServerConfig::default()
    };
    let server = Server::start(&ListenAddr::Tcp("127.0.0.1:0".into()), &config).expect("starts");
    let addr = server.listen_addr().clone();
    let policy = RetryPolicy {
        max_attempts: 64,
        min_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(20),
    };

    // n=13 cold searches outlast the burst's submission; n=10 searches
    // can finish between two arrivals and leave nothing to retry.
    let burst = 6usize;
    let instances: Vec<_> =
        (0..burst).map(|seed| generate(Family::BtspHard, 13, 80 + seed as u64)).collect();
    let barrier = Barrier::new(burst);
    let outcomes: Vec<(Response, u32)> = std::thread::scope(|scope| {
        let handles: Vec<_> = instances
            .iter()
            .map(|instance| {
                let addr = &addr;
                let barrier = &barrier;
                let policy = &policy;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    barrier.wait();
                    client
                        .optimize_text_with_retry(&format_instance(instance), policy)
                        .expect("retries never error")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("burst thread")).collect()
    });

    let mut retried = 0u64;
    for (instance, (response, busy_replies)) in instances.iter().zip(&outcomes) {
        match response {
            Response::Served { cost, .. } => {
                assert_eq!(cost.to_bits(), optimize(instance).cost().to_bits(), "exact");
            }
            other => panic!("every request must eventually be served, got {other:?}"),
        }
        retried += u64::from(*busy_replies);
    }
    let stats = server.shutdown();
    assert_eq!(stats.cache.requests(), burst as u64, "all {burst} requests were served");
    assert_eq!(stats.busy_rejections, retried, "every rejection was absorbed by a retry");
    assert!(retried >= 1, "a {burst}-wide burst into one slot must overflow at least once");
}

/// Load-aware hints over the wire: a rejected request's hint is never
/// below the configured base and never beyond the 16× cap.
#[test]
fn busy_hints_scale_with_load_but_stay_bounded() {
    let base = 25u64;
    let config = ServerConfig {
        workers: NonZeroUsize::new(1).expect("non-zero"),
        queue_capacity: 1,
        retry_after_ms: base,
        // The burst overflows only while the worker is busy searching:
        // keep the slower paper search, as prefix dominance shortens
        // some searches enough to let a loaded host drain the burst
        // without a rejection.
        bnb: BnbConfig::paper(),
        ..ServerConfig::default()
    };
    let server = Server::start(&ListenAddr::Tcp("127.0.0.1:0".into()), &config).expect("starts");
    let addr = server.listen_addr().clone();

    // Distinct n=13 btsp-hard queries: each cold search outlasts the
    // microseconds the burst takes to submit, as in the server's own
    // full-queue test; n=10 searches can finish between two arrivals.
    let burst = 8usize;
    let instances: Vec<_> =
        (0..burst).map(|seed| generate(Family::BtspHard, 13, 90 + seed as u64)).collect();
    let barrier = Barrier::new(burst);
    let responses: Vec<Response> = std::thread::scope(|scope| {
        let handles: Vec<_> = instances
            .iter()
            .map(|instance| {
                let addr = &addr;
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    barrier.wait();
                    client.optimize(instance).expect("busy or served")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("burst thread")).collect()
    });

    let mut busy = 0u64;
    for response in &responses {
        if let Response::Busy { retry_after_ms } = response {
            busy += 1;
            assert!(
                (base..=base * 16).contains(retry_after_ms),
                "hint {retry_after_ms} outside [{base}, {}]",
                base * 16
            );
        }
    }
    assert!(busy >= 1, "an {burst}-wide burst into one slot must be partially rejected");
    server.shutdown();
}
