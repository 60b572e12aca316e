//! Spawned-binary smoke of the daemon: `dsq serve` on a Unix socket
//! driven by `dsq client`, covering the hit-rate summary, snapshot
//! persistence across processes, the snapshot lock across processes
//! (a second daemon refused, a SIGKILLed one's path taken over), and
//! both graceful-shutdown paths (protocol verb and stdin EOF). The same
//! choreography runs in CI via `scripts/server_smoke.sh`.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn dsq(args: &[&str]) -> (bool, String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_dsq"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("spawn dsq");
    (
        output.status.success(),
        String::from_utf8(output.stdout).expect("utf8 stdout"),
        String::from_utf8(output.stderr).expect("utf8 stderr"),
    )
}

fn spawn_server(sock: &Path, snapshot: &Path, extra: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_dsq"))
        .args([
            "serve",
            "--unix",
            sock.to_str().expect("utf8"),
            "--workers",
            "1",
            "--snapshot",
            snapshot.to_str().expect("utf8"),
        ])
        .args(extra)
        .stdin(Stdio::piped()) // held open; closing it drains the server
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dsq serve")
}

fn wait_for_socket(sock: &Path) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !sock.exists() {
        assert!(Instant::now() < deadline, "server socket never appeared");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dsq-smoke-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// `dsq serve < /dev/null &` — the daemonized idiom — must NOT treat the
/// immediate stdin EOF as a drain request; the `shutdown` verb stops it.
#[test]
fn serve_survives_dev_null_stdin() {
    let dir = temp_dir("devnull");
    let sock = dir.join("dsq.sock");
    let server = Command::new(env!("CARGO_BIN_EXE_dsq"))
        .args(["serve", "--unix", sock.to_str().expect("utf8"), "--workers", "1"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dsq serve");
    wait_for_socket(&sock);
    // Give a premature EOF-shutdown time to fire if the bug regresses.
    std::thread::sleep(Duration::from_millis(400));
    let sock_arg = sock.to_str().expect("utf8");
    let (ok, out, stderr) = dsq(&["client", "--unix", sock_arg, "ping"]);
    assert!(ok, "daemon must still be serving with /dev/null stdin: {stderr}");
    assert_eq!(out.trim(), "pong");
    let (ok, _, _) = dsq(&["client", "--unix", sock_arg, "shutdown"]);
    assert!(ok);
    let output = server.wait_with_output().expect("server exits on shutdown verb");
    assert!(output.status.success(), "server exit: {output:?}");
    let stdout = String::from_utf8(output.stdout).expect("utf8");
    assert!(stdout.contains("drained cleanly"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_and_client_round_trip_with_persistence() {
    let dir = temp_dir("roundtrip");
    let sock = dir.join("dsq.sock");
    let sock_arg = sock.to_str().expect("utf8").to_string();
    let snapshot = dir.join("plans.dsqc");
    let query = dir.join("q.dsq");
    let (ok, text, stderr) = dsq(&["generate", "--family", "clustered", "-n", "7", "--seed", "11"]);
    assert!(ok, "generate failed: {stderr}");
    std::fs::write(&query, text).expect("write query");
    let query_arg = query.to_str().expect("utf8").to_string();

    // First server: cold, then a repeat hit; drained by `client shutdown`.
    let server = spawn_server(&sock, &snapshot, &[]);
    wait_for_socket(&sock);

    let (ok, out, stderr) = dsq(&["client", "--unix", &sock_arg, "ping"]);
    assert!(ok, "ping failed: {stderr}");
    assert_eq!(out.trim(), "pong");

    let (ok, out, stderr) =
        dsq(&["client", "--unix", &sock_arg, "optimize", &query_arg, "--repeat", "3"]);
    assert!(ok, "optimize failed: {stderr}");
    let sources: Vec<&str> = out.lines().filter_map(|l| l.split_whitespace().nth(1)).collect();
    assert_eq!(sources, ["cold", "hit", "hit"], "{out}");

    let (ok, out, stderr) = dsq(&["client", "--unix", &sock_arg, "metrics"]);
    assert!(ok, "metrics failed: {stderr}");
    for line in [
        "counter server.serve.requests 3",
        "counter server.serve.hits 2",
        "counter server.serve.hit-rate-bp 6667",
    ] {
        assert!(out.lines().any(|l| l == line), "missing `{line}` in:\n{out}");
    }

    let (ok, out, _) = dsq(&["client", "--unix", &sock_arg, "shutdown"]);
    assert!(ok);
    assert_eq!(out.trim(), "server draining");

    let output = server.wait_with_output().expect("server exits");
    assert!(output.status.success(), "server exit: {output:?}");
    let stdout = String::from_utf8(output.stdout).expect("utf8");
    assert!(stdout.contains("listening on unix://"), "{stdout}");
    assert!(stdout.contains("served 3 requests"), "{stdout}");
    assert!(stdout.contains("hit-rate"), "{stdout}");
    assert!(stdout.contains("drained cleanly"), "{stdout}");
    assert!(snapshot.exists(), "final snapshot written");
    assert!(!sock.exists(), "socket unlinked");

    // Second server: warm restart from the snapshot; drained by stdin
    // EOF this time.
    let mut server = spawn_server(&sock, &snapshot, &[]);
    wait_for_socket(&sock);
    let (ok, out, stderr) = dsq(&["client", "--unix", &sock_arg, "optimize", &query_arg]);
    assert!(ok, "warm optimize failed: {stderr}");
    assert!(
        out.split_whitespace().nth(1) == Some("hit"),
        "restarted server must answer warm: {out}"
    );
    // Close stdin: EOF is the other graceful-shutdown path.
    let mut stdin = server.stdin.take().expect("piped stdin");
    stdin.flush().ok();
    drop(stdin);
    let output = server.wait_with_output().expect("server exits on stdin EOF");
    assert!(output.status.success(), "server exit: {output:?}");
    let stdout = String::from_utf8(output.stdout).expect("utf8");
    assert!(stdout.contains("restored 1 cached plans from snapshot"), "{stdout}");
    assert!(stdout.contains("drained cleanly"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

/// The value of `counter NAME` in the daemon's `metrics` scrape.
fn counter(sock: &str, name: &str) -> u64 {
    let (ok, out, stderr) = dsq(&["client", "--unix", sock, "metrics"]);
    assert!(ok, "metrics failed: {stderr}");
    let prefix = format!("counter {name} ");
    out.lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no `{name}` counter in:\n{out}"))
}

/// The snapshot lock across processes: a second daemon on the path is
/// refused and names the first one's pid; after the first is killed
/// with SIGKILL (no drain, nothing cleaned up), a new daemon takes the
/// path over and restores the last periodic snapshot.
#[test]
fn snapshot_lock_refuses_a_second_daemon_and_outlives_a_sigkill() {
    let dir = temp_dir("lock");
    let (sock, next_sock) = (dir.join("first.sock"), dir.join("next.sock"));
    let sock_arg = sock.to_str().expect("utf8").to_string();
    let next_arg = next_sock.to_str().expect("utf8").to_string();
    let snapshot = dir.join("plans.dsqc");
    let query = dir.join("q.dsq");
    let (ok, text, stderr) = dsq(&["generate", "--family", "clustered", "-n", "7", "--seed", "5"]);
    assert!(ok, "generate failed: {stderr}");
    std::fs::write(&query, text).expect("write query");
    let query_arg = query.to_str().expect("utf8").to_string();

    let mut first = spawn_server(&sock, &snapshot, &["--snapshot-interval-secs", "1"]);
    wait_for_socket(&sock);
    // Its stdin closes at once: a daemon that wrongly starts drains and
    // exits instead of hanging the test.
    let mut second = spawn_server(&next_sock, &snapshot, &[]);
    drop(second.stdin.take());
    let output = second.wait_with_output().expect("second daemon exits");
    let stderr = String::from_utf8(output.stderr).expect("utf8 stderr");
    assert!(!output.status.success(), "a daemon on a locked snapshot path must refuse to start");
    assert!(stderr.contains(&format!("locked by live process {}", first.id())), "{stderr}");

    // One cold request, then a periodic snapshot that holds its plan.
    let (ok, out, stderr) = dsq(&["client", "--unix", &sock_arg, "optimize", &query_arg]);
    assert!(ok, "optimize failed: {stderr}");
    assert_eq!(out.split_whitespace().nth(1), Some("cold"), "{out}");
    let written = counter(&sock_arg, "server.snapshots.written");
    let deadline = Instant::now() + Duration::from_secs(30);
    while counter(&sock_arg, "server.snapshots.written") == written {
        assert!(Instant::now() < deadline, "no periodic snapshot within 30 s");
        std::thread::sleep(Duration::from_millis(50));
    }
    first.kill().expect("SIGKILL the first daemon");
    first.wait().expect("reap the first daemon");

    let mut next = spawn_server(&next_sock, &snapshot, &[]);
    wait_for_socket(&next_sock);
    let (ok, out, stderr) = dsq(&["client", "--unix", &next_arg, "optimize", &query_arg]);
    assert!(ok, "optimize after restart failed: {stderr}");
    assert_eq!(out.split_whitespace().nth(1), Some("hit"), "restart must answer warm: {out}");
    drop(next.stdin.take());
    let output = next.wait_with_output().expect("restarted daemon exits on stdin EOF");
    assert!(output.status.success(), "restarted daemon exit: {output:?}");
    let stdout = String::from_utf8(output.stdout).expect("utf8");
    assert!(stdout.contains("restored 1 cached plans from snapshot"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}
