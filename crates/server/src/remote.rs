//! A [`Planner`] whose backend is a remote `dsq-server` daemon: the
//! wire-protocol counterpart of `dsq_service::CachedPlanner`, with a
//! busy retry/backoff policy and lazy reconnection, so a fleet router
//! (or any other `Planner` consumer) can treat a remote daemon exactly
//! like a local cache. It keeps no counters of its own: the daemon
//! behind it exports every serving count as `server.serve.*`.

use crate::client::{Client, RetryPolicy};
use crate::net::ListenAddr;
use crate::protocol::Response;
use dsq_core::{format_instance, Plan, QueryInstance};
use dsq_service::{PlanError, Planner, ServedPlan};
use std::io;
use std::sync::Mutex;

/// A [`Planner`] that forwards every request to a remote daemon over the
/// newline-framed protocol.
///
/// * **Retry/backoff**: `busy retry-after-ms` replies are retried under
///   a [`RetryPolicy`] (capped exponential backoff seeded from the
///   server's load-aware hint); a budget-exhausted busy surfaces as
///   [`PlanError::Busy`], which a fleet router treats as "try the next
///   replica".
/// * **Typed failures, never panics**: transport failures are
///   [`PlanError::Transport`], malformed or truncated response lines are
///   [`PlanError::Protocol`], and protocol-level `error` replies are
///   [`PlanError::Backend`].
/// * **Lazy reconnection**: the connection is opened on first use and
///   dropped after any transport or protocol failure (the stream
///   position is unknown after one); the next request dials fresh, so a
///   restarted backend is picked up automatically.
#[derive(Debug)]
pub struct RemotePlanner {
    addr: ListenAddr,
    policy: RetryPolicy,
    label: String,
    client: Mutex<Option<Client>>,
}

impl RemotePlanner {
    /// A planner for the daemon at `addr` with the default
    /// [`RetryPolicy`]. No connection is made until the first request.
    pub fn new(addr: ListenAddr) -> Self {
        RemotePlanner {
            label: format!("remote({addr})"),
            addr,
            policy: RetryPolicy::default(),
            client: Mutex::new(None),
        }
    }

    /// Overrides the busy retry policy.
    #[must_use]
    pub fn with_policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }
}

/// Maps a client I/O failure onto the typed planner error space:
/// `InvalidData` is the client's marker for an unparseable response
/// line, everything else (EOF before a response, resets, timeouts) is
/// transport.
fn io_plan_error(error: &io::Error) -> PlanError {
    if error.kind() == io::ErrorKind::InvalidData {
        PlanError::Protocol(error.to_string())
    } else {
        PlanError::Transport(error.to_string())
    }
}

impl Planner for RemotePlanner {
    fn name(&self) -> &str {
        &self.label
    }

    fn plan(&self, instance: &QueryInstance) -> Result<ServedPlan, PlanError> {
        let text = format_instance(instance);
        let mut slot = self.client.lock().expect("client lock");
        let mut client = match slot.take() {
            Some(client) => client,
            None => Client::connect(&self.addr).map_err(|e| {
                PlanError::Transport(format!("cannot connect to {}: {e}", self.addr))
            })?,
        };
        // On an error the connection is dropped: after a transport error
        // or a line that does not parse, the stream position is unknown.
        let (response, _busy_replies) =
            client.optimize_text_with_retry(&text, &self.policy).map_err(|e| io_plan_error(&e))?;
        match response {
            Response::Served { source, cost, fingerprint, plan, tier } => {
                *slot = Some(client); // request/response complete: reusable
                let plan = Plan::new(plan)
                    .map_err(|e| PlanError::Protocol(format!("served plan is invalid: {e}")))?;
                Ok(ServedPlan { plan, cost, source, fingerprint, tier, search: None })
            }
            Response::Busy { retry_after_ms } => {
                *slot = Some(client); // the server stays in framing sync
                Err(PlanError::Busy { retry_after_ms })
            }
            Response::Error { message } => {
                *slot = Some(client); // error replies keep the connection usable
                Err(PlanError::Backend(message))
            }
            // A pong/stats/draining reply to an optimize request means
            // the framing is out of sync: drop the connection.
            other => Err(PlanError::Protocol(format!(
                "unexpected response to an optimize request: `{}`",
                other.to_line()
            ))),
        }
    }
}
