//! `dsq serve`: the long-lived plan-serving daemon in the foreground,
//! drained by stdin EOF or a client's `shutdown` request.

use crate::CliError;
use crate::{config_flag, flag_value, io_err, parse_addr_flag, parse_cache_flag, positive_flag};
use dsq_server::{FaultProfile, ListenAddr, Server, ServerConfig};
use std::io::Read;
use std::path::PathBuf;
use std::time::Duration;

pub(crate) fn serve_cmd<'a>(
    args: &mut impl Iterator<Item = &'a str>,
    out: &mut dyn std::io::Write,
) -> Result<(), CliError> {
    let mut addr: Option<ListenAddr> = None;
    let mut config = ServerConfig::default();
    while let Some(arg) = args.next() {
        if parse_cache_flag(arg, args, &mut config.cache)? {
            continue;
        }
        if let Some(parsed) = parse_addr_flag(arg, args)? {
            addr = Some(parsed);
            continue;
        }
        match arg {
            "--workers" => {
                config.workers = flag_value(args, "--workers", "a positive integer", |_| true)?
            }
            "--config" => config.bnb = config_flag(args)?,
            "--queue" => config.queue_capacity = positive_flag(args, "--queue")?,
            "--retry-ms" => {
                config.retry_after_ms =
                    flag_value(args, "--retry-ms", "a non-negative integer", |_| true)?
            }
            "--snapshot" => {
                config.snapshot_path =
                    Some(PathBuf::from(args.next().ok_or("--snapshot needs a file")?))
            }
            "--snapshot-interval-secs" => {
                config.snapshot_interval =
                    Duration::from_secs(positive_flag(args, "--snapshot-interval-secs")?)
            }
            "--tiered" => config.tiered = true,
            "--max-pipeline" => config.max_pipeline = positive_flag(args, "--max-pipeline")?,
            // Deterministic fault injection on the response path: the
            // moderate chaos mix, replayable from the seed.
            "--chaos" => {
                let seed =
                    flag_value(args, "--chaos", "a seed (a non-negative integer)", |_| true)?;
                config.chaos = Some(FaultProfile::moderate(seed));
            }
            other => return Err(format!("unknown serve flag `{other}`")),
        }
    }
    let addr = addr.ok_or("serve requires --unix PATH or --tcp ADDR")?;
    // One reactor thread holding thousands of sockets needs the process
    // fd budget to match; best-effort raise toward the hard cap.
    let _ = reactor::ensure_nofile_limit(8192);
    let server = Server::start(&addr, &config).map_err(|e| format!("cannot start server: {e}"))?;
    let stats = server.stats();
    if stats.restored_entries > 0 {
        writeln!(out, "restored {} cached plans from snapshot", stats.restored_entries)
            .map_err(io_err)?;
    }
    writeln!(
        out,
        "listening on {} ({} workers, queue {}, {} probes{}{})",
        server.listen_addr(),
        config.workers,
        config.queue_capacity,
        config.cache.probes,
        if config.tiered { ", tiered" } else { "" },
        if config.chaos.is_some() { ", chaos" } else { "" },
    )
    .map_err(io_err)?;
    out.flush().map_err(io_err)?;

    // Graceful shutdown on stdin EOF (the foreground idiom: Ctrl-D, or
    // closing the pipe a supervisor holds) or on a client's `shutdown`
    // request; whichever arrives first. The EOF watcher is skipped when
    // stdin is a non-terminal character device (`< /dev/null`, the
    // daemonized idiom) — there EOF is immediate and means "no
    // controlling input", not "drain now".
    if stdin_signals_shutdown() {
        let handle = server.shutdown_handle();
        std::thread::spawn(move || {
            let mut sink = [0u8; 4096];
            let mut stdin = std::io::stdin();
            loop {
                match stdin.read(&mut sink) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
            }
            handle.request_shutdown();
        });
    }
    server.wait_shutdown_requested();
    writeln!(out, "shutdown requested; draining in-flight requests").map_err(io_err)?;
    let stats = server.shutdown();
    writeln!(out, "{stats}").map_err(io_err)?;
    writeln!(out, "drained cleanly").map_err(io_err)
}

/// Whether `dsq serve` should treat stdin EOF as a drain request.
///
/// True for terminals (Ctrl-D) and pipes/FIFOs/files (a supervisor
/// closing its end); false for non-terminal character devices — i.e.
/// `dsq serve < /dev/null &`, where EOF arrives instantly and shutting
/// down on it would kill the daemon before its first request.
fn stdin_signals_shutdown() -> bool {
    use std::io::IsTerminal;
    use std::os::unix::fs::FileTypeExt;
    if std::io::stdin().is_terminal() {
        return true;
    }
    // Linux: stat what fd 0 actually points at.
    std::fs::metadata("/proc/self/fd/0").map(|m| !m.file_type().is_char_device()).unwrap_or(false)
}
