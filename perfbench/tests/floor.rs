//! The generator against an in-process server: no recorded latency is
//! below the measured ping floor, and every served plan passes the
//! output check.

use dsq_server::{Client, ListenAddr, Server, ServerConfig};
use perfbench::check::{check, Reply};
use perfbench::load::{closed_loop, open_loop, pings, Clock, Conn, Stop};
use perfbench::trace::Tracer;
use perfbench::workload::{Inputs, Mode, Workload};
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::time::Duration;

#[test]
fn no_latency_is_below_the_ping_floor() {
    std::fs::create_dir_all("out").expect("out dir");
    for workload in Workload::ALL {
        let inputs = Inputs::new(workload, 3, &[0.3]);
        let socket = PathBuf::from(format!("out/floor-{workload}-{}.sock", std::process::id()));
        let config = ServerConfig {
            workers: NonZeroUsize::new(2).expect("non-zero"),
            cache: workload.cache_config(),
            ..ServerConfig::default()
        };
        let server = Server::start(&ListenAddr::Unix(socket.clone()), &config).expect("server");
        let mut tracer = Tracer::new(true);
        let mut control = Client::connect(server.listen_addr()).expect("control");
        let floor = pings(&mut control, 50, &mut tracer)
            .expect("pings")
            .into_iter()
            .fold(f64::INFINITY, f64::min);
        let mut conn = Conn::connect(&socket).expect("load connection");
        let clock = Clock::new();
        let run = match workload.mode() {
            Mode::OpenLoop { burst, .. } => {
                open_loop(&mut conn, &inputs, &inputs.windows[0], burst, &clock, &mut tracer)
            }
            Mode::ClosedLoop { depth } => closed_loop(
                &mut conn,
                &inputs,
                inputs.warmup,
                depth,
                Stop::After(Duration::from_millis(300)),
                &clock,
                &mut tracer,
            ),
        };
        drop((conn, control));
        server.shutdown();

        assert!(run.records.len() > 10, "{workload}: {} requests", run.records.len());
        for record in &run.records {
            assert!(record.reply.source().is_some(), "{workload}: {:?}", record.reply);
            assert!(
                record.latency_ns() as f64 >= floor,
                "{workload}: request {} took {} ns, below the {floor} ns ping floor",
                record.id,
                record.latency_ns()
            );
        }
        let outcomes: Vec<(usize, &Reply)> = run.records.iter().map(|r| (r.id, &r.reply)).collect();
        let report =
            check(&outcomes, |id| inputs.instance(id).into_owned(), &workload.cache_config());
        assert_eq!(report.tally.failed(), 0, "{workload}: {:?}", report.examples);
        // Spans were recorded around encode, wire and decode.
        let names: Vec<&str> = tracer.spans().iter().map(|s| s.name).collect();
        for name in ["event_loop.ping", "client.encode", "wire", "client.decode"] {
            assert!(names.contains(&name), "{workload}: no {name} span");
        }
    }
}
