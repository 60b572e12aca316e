//! The daemon under test, handled from outside: build the release
//! `dsq` binary, spawn a fresh `dsq serve` per run on a private Unix
//! socket, read its CPU time and peak memory from `/proc/<pid>`, and
//! drain it on the way out.

use dsq_server::{Client, ListenAddr, Response};
use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Clock ticks per second of `/proc/<pid>/stat` CPU times (`USER_HZ`,
/// 100 on every Linux target this runs on).
const CLOCK_TICKS_PER_SECOND: f64 = 100.0;

/// How long a drained daemon may take to exit before it is killed.
const EXIT_GRACE: Duration = Duration::from_secs(10);

/// Builds the release `dsq` binary from the source tree in the current
/// directory and returns its path (under `CARGO_TARGET_DIR`, or
/// `target`).
///
/// # Errors
///
/// Cargo could not be run or the build failed.
pub fn build_dsq() -> io::Result<PathBuf> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--quiet", "-p", "dsq-cli", "--bin", "dsq"])
        .stdout(Stdio::null())
        .status()?;
    if !status.success() {
        return Err(io::Error::other(format!("building dsq failed: {status}")));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    Ok(target.join("release").join("dsq"))
}

/// A running `dsq serve`. Dropping it kills the process.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    /// Kept open so the daemon's shutdown summary never hits a closed pipe.
    stdout: BufReader<ChildStdout>,
    socket: PathBuf,
}

impl Daemon {
    /// Starts `dsq serve --unix socket flags…` and waits until it prints
    /// its `listening on` line. Closing its stdin later drains it.
    ///
    /// # Errors
    ///
    /// The process could not start or exited before listening.
    pub fn spawn(binary: &Path, socket: &Path, flags: &[&str]) -> io::Result<Daemon> {
        let _ = std::fs::remove_file(socket);
        let mut child = Command::new(binary)
            .arg("serve")
            .arg("--unix")
            .arg(socket)
            .args(flags)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut daemon = Daemon { child, stdin, stdout, socket: socket.to_path_buf() };
        let mut line = String::new();
        loop {
            line.clear();
            if daemon.stdout.read_line(&mut line)? == 0 {
                daemon.kill();
                return Err(io::Error::other("daemon exited before listening"));
            }
            if line.starts_with("listening on") {
                // Only the shutdown summary follows; it fits in the pipe
                // buffer, so nothing reads it.
                return Ok(daemon);
            }
        }
    }

    /// The socket the daemon listens on.
    pub fn addr(&self) -> ListenAddr {
        ListenAddr::Unix(self.socket.clone())
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// A control connection, answered `pong` once.
    ///
    /// # Errors
    ///
    /// Connection failure or a reply other than `pong`.
    pub fn control(&self) -> io::Result<Client> {
        let mut client = Client::connect(&self.addr())?;
        match client.ping()? {
            Response::Pong => Ok(client),
            other => Err(io::Error::other(format!("ping answered `{}`", other.to_line()))),
        }
    }

    /// Peak resident set size (`VmHWM`), in MiB.
    ///
    /// # Errors
    ///
    /// `/proc/<pid>/status` is unreadable or has no `VmHWM` line.
    pub fn peak_rss_mib(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// Closes the daemon's stdin (its drain signal) and waits for it to
    /// exit, killing it after a grace period.
    ///
    /// # Errors
    ///
    /// The daemon exited unsuccessfully or had to be killed.
    pub fn shutdown(mut self) -> io::Result<()> {
        drop(self.stdin.take());
        let deadline = Instant::now() + EXIT_GRACE;
        loop {
            if let Some(status) = self.child.try_wait()? {
                let _ = std::fs::remove_file(&self.socket);
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("daemon exited with {status}")))
                };
            }
            if Instant::now() > deadline {
                self.kill();
                return Err(io::Error::other("daemon did not drain in time"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            self.kill();
        }
    }
}

/// CPU time process `pid` has used, in seconds: the sum over its
/// threads of `/proc/<pid>/task/<tid>/schedstat`'s run time, which is
/// the clock `utime + stime` in `/proc/<pid>/stat` report in 10 ms
/// ticks, at nanosecond resolution. Falls back to those ticks where the
/// kernel has no schedstat.
///
/// # Errors
///
/// The process's `/proc` entries are unreadable or malformed.
pub fn cpu_seconds(pid: u32) -> io::Result<f64> {
    let malformed = || io::Error::other("malformed /proc entry");
    if let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) {
        let mut ns = 0u64;
        let mut read_all = true;
        for task in tasks {
            match std::fs::read_to_string(task?.path().join("schedstat")) {
                Ok(text) => {
                    let run = text.split_whitespace().next().ok_or_else(malformed)?;
                    ns += run.parse::<u64>().map_err(|_| malformed())?;
                }
                Err(_) => read_all = false,
            }
        }
        if read_all {
            return Ok(ns as f64 / 1e9);
        }
    }
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map(|(_, rest)| rest).ok_or_else(malformed)?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |k: usize| -> io::Result<f64> {
        fields.get(k).and_then(|v| v.parse::<f64>().ok()).ok_or_else(malformed)
    };
    Ok((ticks(11)? + ticks(12)?) / CLOCK_TICKS_PER_SECOND)
}

/// The current source revision, when the benchmark runs in a git
/// checkout; `unknown` otherwise. Git is not allowed to look above the
/// current directory.
pub fn git_rev() -> String {
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|dir| dir.parent().map(Path::to_path_buf))
        .unwrap_or_default();
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}
