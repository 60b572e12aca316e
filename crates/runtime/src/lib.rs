//! Threaded execution of decentralized pipelined plans — the "real
//! experiments" substrate (DESIGN.md, system inventory #10).
//!
//! Where `dsq-simulator` computes in virtual time, this crate actually
//! *runs* the pipeline: one OS thread per service, bounded `std` mpsc
//! channels as the network links, calibrated busy-work standing in for
//! service computation, and sender-side delays standing in for block
//! transmission (the paper's single-threaded process-and-send model).
//! Wall-clock bottleneck behaviour — backpressure, pipeline fill,
//! saturation of the slowest stage — emerges from real thread scheduling
//! rather than from the model being validated, which is what makes it a
//! meaningful second check on Eq. 1 (experiment E8).
//!
//! Timing assertions on shared CI hardware are inherently noisy, so the
//! crate's own tests check exact *semantics* (tuple accounting, ordering,
//! termination) and only coarse timing monotonicity; the fine-grained
//! agreement numbers are produced by the benchmark harness.
//!
//! # Examples
//!
//! ```
//! use dsq_core::{optimize, CommMatrix, QueryInstance, Service};
//! use dsq_runtime::{run_pipeline, RuntimeConfig};
//!
//! let inst = QueryInstance::from_parts(
//!     vec![Service::new(20.0, 0.5), Service::new(40.0, 1.0)],
//!     CommMatrix::uniform(2, 5.0),
//! )?;
//! let plan = optimize(&inst).into_plan();
//! // Costs are in microseconds here (time_scale = 1µs per cost unit).
//! let cfg = RuntimeConfig { tuples: 200, time_scale_us: 1.0, ..RuntimeConfig::default() };
//! let report = run_pipeline(&inst, &plan, &cfg);
//! assert_eq!(report.tuples_in, 200);
//! # Ok::<(), dsq_core::ModelError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use dsq_core::{Plan, QueryInstance};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::time::{Duration, Instant};

/// Configuration of a threaded pipeline run. Passive struct; fields are
/// public.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeConfig {
    /// Number of input tuples.
    pub tuples: u64,
    /// Tuples per transmitted block.
    pub block_size: usize,
    /// Microseconds of real time per unit of model cost. A service with
    /// `c = 3.0` spins for `3 × time_scale_us` µs per tuple.
    pub time_scale_us: f64,
    /// Capacity of each inter-service channel, in blocks. Small values
    /// exercise backpressure; the paper's model assumes enough buffering
    /// that the bottleneck governs throughput.
    pub channel_blocks: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig { tuples: 1_000, block_size: 32, time_scale_us: 1.0, channel_blocks: 8 }
    }
}

/// Per-stage telemetry of a threaded run.
#[derive(Debug, Clone, PartialEq)]
pub struct StageWallStats {
    /// Plan position.
    pub position: usize,
    /// Service index at this position.
    pub service: usize,
    /// Tuples consumed.
    pub tuples_in: u64,
    /// Tuples emitted.
    pub tuples_out: u64,
    /// Wall-clock time the stage thread spent processing + sending.
    pub busy: Duration,
}

/// Result of a threaded pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeReport {
    /// Input tuples fed to the pipeline.
    pub tuples_in: u64,
    /// Tuples that reached the sink.
    pub tuples_delivered: u64,
    /// Wall-clock end-to-end time.
    pub makespan: Duration,
    /// Input tuples per wall-clock second.
    pub throughput: f64,
    /// Per-stage telemetry in plan order.
    pub stages: Vec<StageWallStats>,
}

impl RuntimeReport {
    /// The position whose thread was busiest — the observed bottleneck.
    pub fn bottleneck_position(&self) -> usize {
        let mut best = 0;
        for (i, s) in self.stages.iter().enumerate() {
            if s.busy > self.stages[best].busy {
                best = i;
            }
        }
        best
    }
}

/// A block of tuples in flight. Tuples carry an id so tests can check
/// ordering and accounting; real payloads would ride alongside.
type Block = Vec<u64>;

enum Message {
    Data(Block),
    Eos,
}

/// Runs `plan` on real threads and reports wall-clock telemetry.
///
/// # Panics
///
/// Panics if the plan does not match the instance, or if
/// `tuples == 0`, `block_size == 0`, or `channel_blocks == 0`.
pub fn run_pipeline(
    instance: &QueryInstance,
    plan: &Plan,
    config: &RuntimeConfig,
) -> RuntimeReport {
    assert_eq!(plan.len(), instance.len(), "plan must cover the instance");
    assert!(config.tuples > 0, "run at least one tuple");
    assert!(config.block_size > 0, "block size must be positive");
    assert!(config.channel_blocks > 0, "channels need capacity");

    let order = plan.indices();
    let n = order.len();

    let mut stages: Vec<StageWallStats> = Vec::new();
    let mut tuples_delivered = 0;
    let started = Instant::now();
    std::thread::scope(|scope| {
        // Channel chain: source → stage 0 → … → stage n-1 → sink.
        let mut senders: Vec<SyncSender<Message>> = Vec::with_capacity(n + 1);
        let mut receivers: Vec<Receiver<Message>> = Vec::with_capacity(n + 1);
        for _ in 0..=n {
            let (tx, rx) = sync_channel::<Message>(config.channel_blocks);
            senders.push(tx);
            receivers.push(rx);
        }

        // Stage threads.
        let mut rx_iter = receivers.into_iter();
        let first_rx = rx_iter.next().expect("n+1 channels");
        let mut upstream = first_rx;
        let mut stage_threads = Vec::with_capacity(n);
        for (position, &service) in order.iter().enumerate() {
            let rx = upstream;
            upstream = rx_iter.next().expect("n+1 channels");
            let tx = senders[position + 1].clone();
            let cfg = config.clone();
            let cost = instance.cost(service);
            let sigma = instance.selectivity(service);
            let transfer = if position + 1 < n {
                instance.transfer(service, order[position + 1])
            } else {
                instance.sink_cost(service)
            };
            stage_threads.push(
                scope.spawn(move || {
                    stage_loop(position, service, cost, sigma, transfer, rx, tx, &cfg)
                }),
            );
        }

        // Sink thread.
        let sink_rx = upstream;
        let sink = scope.spawn(move || {
            let mut delivered = 0u64;
            while let Ok(msg) = sink_rx.recv() {
                match msg {
                    Message::Data(block) => delivered += block.len() as u64,
                    Message::Eos => break,
                }
            }
            delivered
        });

        // Source: feed all tuples, then EOS.
        let source_tx = senders[0].clone();
        drop(senders);
        let mut block = Vec::with_capacity(config.block_size);
        for id in 0..config.tuples {
            block.push(id);
            if block.len() == config.block_size {
                source_tx
                    .send(Message::Data(std::mem::take(&mut block)))
                    .expect("stage 0 outlives the source");
            }
        }
        if !block.is_empty() {
            source_tx.send(Message::Data(block)).expect("stage 0 outlives the source");
        }
        source_tx.send(Message::Eos).expect("stage 0 outlives the source");

        stages = stage_threads
            .into_iter()
            .map(|stage| stage.join().expect("every stage thread reports"))
            .collect();
        tuples_delivered = sink.join().expect("the sink thread reports");
    });
    let makespan = started.elapsed();

    RuntimeReport {
        tuples_in: config.tuples,
        tuples_delivered,
        makespan,
        throughput: config.tuples as f64 / makespan.as_secs_f64().max(1e-12),
        stages,
    }
}

/// Body of one service thread: receive blocks, busy-work per tuple,
/// filter/expand with a deterministic accumulator, batch outputs, and pay
/// the transfer delay before each send (sender-occupied transmission).
#[allow(clippy::too_many_arguments)]
fn stage_loop(
    position: usize,
    service: usize,
    cost: f64,
    sigma: f64,
    transfer: f64,
    rx: Receiver<Message>,
    tx: SyncSender<Message>,
    config: &RuntimeConfig,
) -> StageWallStats {
    let mut tuples_in = 0u64;
    let mut tuples_out = 0u64;
    let mut busy = Duration::ZERO;
    let mut acc = 0.0f64;
    let mut out: Block = Vec::with_capacity(config.block_size);

    let spin = |units: f64| -> Duration {
        let target = Duration::from_secs_f64((units * config.time_scale_us * 1e-6).max(0.0));
        let start = Instant::now();
        while start.elapsed() < target {
            std::hint::spin_loop();
        }
        start.elapsed()
    };

    while let Ok(msg) = rx.recv() {
        let block = match msg {
            Message::Data(block) => block,
            Message::Eos => break,
        };
        for id in block {
            tuples_in += 1;
            busy += spin(cost);
            acc += sigma;
            while acc >= 1.0 {
                acc -= 1.0;
                tuples_out += 1;
                out.push(id);
                if out.len() == config.block_size {
                    busy += spin(out.len() as f64 * transfer);
                    tx.send(Message::Data(std::mem::take(&mut out)))
                        .expect("downstream outlives its upstream");
                    out.reserve(config.block_size);
                }
            }
        }
    }
    if !out.is_empty() {
        busy += spin(out.len() as f64 * transfer);
        tx.send(Message::Data(out)).expect("downstream outlives its upstream");
    }
    tx.send(Message::Eos).expect("downstream outlives its upstream");

    StageWallStats { position, service, tuples_in, tuples_out, busy }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsq_core::{bottleneck_cost, CommMatrix, Service};

    fn pipeline(sigmas: &[f64], costs_us: &[f64], t_us: f64) -> QueryInstance {
        QueryInstance::from_parts(
            sigmas.iter().zip(costs_us).map(|(&s, &c)| Service::new(c, s)).collect(),
            CommMatrix::uniform(sigmas.len(), t_us),
        )
        .unwrap()
    }

    #[test]
    fn tuple_accounting_is_exact() {
        let inst = pipeline(&[0.5, 0.25, 1.0], &[1.0, 1.0, 1.0], 0.1);
        let plan = Plan::new(vec![0, 1, 2]).unwrap();
        let cfg = RuntimeConfig { tuples: 400, ..RuntimeConfig::default() };
        let report = run_pipeline(&inst, &plan, &cfg);
        assert_eq!(report.tuples_in, 400);
        assert_eq!(report.stages[0].tuples_in, 400);
        assert_eq!(report.stages[0].tuples_out, 200);
        assert_eq!(report.stages[1].tuples_in, 200);
        assert_eq!(report.stages[1].tuples_out, 50);
        assert_eq!(report.stages[2].tuples_out, 50);
        assert_eq!(report.tuples_delivered, 50);
    }

    #[test]
    fn proliferative_stage_expands() {
        let inst = pipeline(&[2.0, 1.0], &[0.5, 0.5], 0.0);
        let plan = Plan::new(vec![0, 1]).unwrap();
        let report =
            run_pipeline(&inst, &plan, &RuntimeConfig { tuples: 100, ..RuntimeConfig::default() });
        assert_eq!(report.stages[0].tuples_out, 200);
        assert_eq!(report.tuples_delivered, 200);
    }

    #[test]
    fn stage_order_follows_the_plan() {
        let inst = pipeline(&[1.0, 1.0, 1.0], &[1.0, 1.0, 1.0], 0.0);
        let plan = Plan::new(vec![2, 0, 1]).unwrap();
        let report =
            run_pipeline(&inst, &plan, &RuntimeConfig { tuples: 10, ..RuntimeConfig::default() });
        let services: Vec<usize> = report.stages.iter().map(|s| s.service).collect();
        assert_eq!(services, vec![2, 0, 1]);
        let positions: Vec<usize> = report.stages.iter().map(|s| s.position).collect();
        assert_eq!(positions, vec![0, 1, 2]);
    }

    #[test]
    fn busiest_stage_is_the_predicted_bottleneck() {
        // One stage is 20× more expensive: scheduling noise cannot hide it.
        let inst = pipeline(&[1.0, 1.0, 1.0], &[5.0, 100.0, 5.0], 1.0);
        let plan = Plan::new(vec![0, 1, 2]).unwrap();
        let report = run_pipeline(
            &inst,
            &plan,
            &RuntimeConfig { tuples: 300, time_scale_us: 1.0, ..RuntimeConfig::default() },
        );
        assert_eq!(report.bottleneck_position(), 1);
        assert!(report.makespan > Duration::ZERO);
        assert!(report.throughput > 0.0);
    }

    #[test]
    fn faster_plan_wins_wall_clock() {
        // Filter-first vs expensive-first with a strong filter: predicted
        // costs differ ~4×, far beyond scheduler noise.
        let inst = pipeline(&[0.1, 1.0], &[20.0, 200.0], 2.0);
        let fast = Plan::new(vec![0, 1]).unwrap();
        let slow = Plan::new(vec![1, 0]).unwrap();
        assert!(bottleneck_cost(&inst, &slow) / bottleneck_cost(&inst, &fast) > 2.0);
        let cfg = RuntimeConfig { tuples: 400, time_scale_us: 1.0, ..RuntimeConfig::default() };
        let fast_run = run_pipeline(&inst, &fast, &cfg);
        let slow_run = run_pipeline(&inst, &slow, &cfg);
        assert!(
            slow_run.makespan > fast_run.makespan,
            "slow {:?} should exceed fast {:?}",
            slow_run.makespan,
            fast_run.makespan
        );
    }

    #[test]
    fn partial_final_block_is_flushed() {
        let inst = pipeline(&[1.0], &[0.1], 0.0);
        let plan = Plan::new(vec![0]).unwrap();
        let cfg = RuntimeConfig { tuples: 33, block_size: 32, ..RuntimeConfig::default() };
        let report = run_pipeline(&inst, &plan, &cfg);
        assert_eq!(report.tuples_delivered, 33);
    }

    #[test]
    fn tight_channels_apply_backpressure_without_losing_tuples() {
        // Capacity of one block forces constant blocking on sends; the
        // accounting must still be exact and the run must terminate.
        let inst = pipeline(&[0.5, 2.0, 1.0], &[1.0, 1.0, 1.0], 0.5);
        let plan = Plan::new(vec![0, 1, 2]).unwrap();
        let cfg = RuntimeConfig {
            tuples: 300,
            block_size: 4,
            channel_blocks: 1,
            ..RuntimeConfig::default()
        };
        let report = run_pipeline(&inst, &plan, &cfg);
        assert_eq!(report.stages[0].tuples_out, 150);
        assert_eq!(report.stages[1].tuples_out, 300);
        assert_eq!(report.tuples_delivered, 300);
    }

    #[test]
    fn single_stage_pipeline_works() {
        let inst = pipeline(&[0.75], &[2.0], 0.0);
        let plan = Plan::new(vec![0]).unwrap();
        let report =
            run_pipeline(&inst, &plan, &RuntimeConfig { tuples: 100, ..RuntimeConfig::default() });
        assert_eq!(report.tuples_delivered, 75);
        assert_eq!(report.stages.len(), 1);
        assert!(report.stages[0].busy > Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one tuple")]
    fn zero_tuples_rejected() {
        let inst = pipeline(&[1.0], &[1.0], 0.0);
        run_pipeline(
            &inst,
            &Plan::new(vec![0]).unwrap(),
            &RuntimeConfig { tuples: 0, ..RuntimeConfig::default() },
        );
    }
}
