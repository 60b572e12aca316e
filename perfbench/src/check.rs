//! The output check, run after the timed window so it never perturbs
//! timing. Every served plan must
//!
//! * be a permutation of the request's services that respects its
//!   precedence constraints;
//! * report a cost equal, bit for bit, to `bottleneck_cost` recomputed
//!   in process on the parsed request text, and the request's primary
//!   cache fingerprint;
//! * if cold or warm, cost exactly the `optimize_with` optimum;
//! * if a hit, cost no less than that optimum and lie within the cache's
//!   validation tolerance of a plan some cold or warm reply wrote under
//!   the request's primary or shifted-grid key.
//!
//! Busy, error, malformed and transport outcomes fail too.

use dsq_core::{
    bottleneck_cost, format_instance, optimize_with, parse_instance, BnbConfig, CanonicalKey, Plan,
    QueryInstance,
};
use dsq_server::Response;
use dsq_service::{CacheConfig, PlanTier, ServeSource};
use std::collections::HashMap;

/// Grid phase of the daemon cache's second probe.
const PROBE_PHASE: f64 = 0.5;

/// What came back for one optimize request.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// A parsed response line.
    Response(Response),
    /// A line that is not a response.
    Malformed(String),
    /// The connection failed before the response arrived.
    Transport(String),
}

impl Reply {
    /// Classifies one response line.
    pub fn from_line(line: &str) -> Reply {
        match Response::parse(line) {
            Ok(response) => Reply::Response(response),
            Err(e) => Reply::Malformed(e.to_string()),
        }
    }

    /// The serve source of a served plan.
    pub fn source(&self) -> Option<ServeSource> {
        match self {
            Reply::Response(Response::Served { source, .. }) => Some(*source),
            _ => None,
        }
    }

    /// The fingerprint of a served plan.
    pub fn fingerprint(&self) -> Option<u64> {
        match self {
            Reply::Response(Response::Served { fingerprint, .. }) => Some(*fingerprint),
            _ => None,
        }
    }
}

/// Outcome counts of a checked run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Optimize requests sent.
    pub sent: u64,
    /// Served hits (either probe).
    pub hits: u64,
    /// Served warm starts.
    pub warm: u64,
    /// Served cold searches.
    pub cold: u64,
    /// `busy` replies.
    pub busy: u64,
    /// `error` replies.
    pub errors: u64,
    /// Replies of the wrong kind or unparseable.
    pub protocol: u64,
    /// Requests lost to a transport failure.
    pub transport: u64,
    /// Served plans that failed the output check.
    pub wrong: u64,
}

impl Tally {
    /// Requests that did not yield a correct plan.
    pub fn failed(&self) -> u64 {
        self.busy + self.errors + self.protocol + self.transport + self.wrong
    }
}

/// Result of [`check`]: the tally and the first few failure messages.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// Outcome counts.
    pub tally: Tally,
    /// Up to ten `(request id, reason)` failures.
    pub examples: Vec<(usize, String)>,
}

/// One served reply, with what the check derives from its request.
struct Derived {
    parsed: QueryInstance,
    primary: u64,
    shifted: u64,
}

fn derive(instance: &QueryInstance, config: &CacheConfig) -> Result<Derived, String> {
    // The daemon only saw the text: check against the text, parsed.
    let parsed = parse_instance(&format_instance(instance)).map_err(|e| e.to_string())?;
    let primary = CanonicalKey::new(&parsed, &config.quantization).fingerprint();
    let shifted =
        CanonicalKey::with_phase(&parsed, &config.quantization, PROBE_PHASE).fingerprint();
    Ok(Derived { parsed, primary, shifted })
}

/// The cache keys of a served reply that passed [`validate`]: the
/// primary and shifted-grid fingerprints of its request.
type Keys = (u64, u64);

/// Checks one served plan against its own request; `Err` carries the
/// reason it is wrong. Whether a hit lies within tolerance of a cached
/// plan needs every reply's keys and is checked afterwards.
fn validate(d: &Derived, response: &Response) -> Result<(), String> {
    let Response::Served { source, cost, fingerprint, plan, tier } = response else {
        return Err("not a served plan".into());
    };
    if *tier != PlanTier::Exact {
        return Err("heuristic-tier plan".into());
    }
    if plan.len() != d.parsed.len() {
        return Err(format!("plan has {} services, request {}", plan.len(), d.parsed.len()));
    }
    let plan = Plan::new(plan.clone()).map_err(|e| format!("not a permutation: {e}"))?;
    if d.parsed.precedence().is_some_and(|dag| !plan.satisfies(dag)) {
        return Err("plan violates precedence".into());
    }
    let recomputed = bottleneck_cost(&d.parsed, &plan);
    if cost.to_bits() != recomputed.to_bits() {
        return Err(format!("reported cost {cost} != recomputed {recomputed}"));
    }
    if *fingerprint != d.primary {
        return Err(format!("fingerprint {fingerprint:016x} != {:016x}", d.primary));
    }
    let optimum = optimize_with(&d.parsed, &BnbConfig::paper()).cost();
    match source {
        ServeSource::Cold | ServeSource::WarmStart if cost.to_bits() != optimum.to_bits() => {
            Err(format!("{} cost {cost} != optimum {optimum}", source.name()))
        }
        ServeSource::CacheHit if *cost < optimum => {
            Err(format!("hit cost {cost} below the optimum {optimum}"))
        }
        _ => Ok(()),
    }
}

/// Checks every outcome; `instance(id)` regenerates request `id`'s
/// instance from the seed.
///
/// Each served reply is first checked against its own request on two
/// threads (each check re-runs a search), keeping only its cache keys;
/// then every hit must lie within the cache's validation tolerance of a
/// plan some cold or warm reply wrote under one of its keys.
pub fn check(
    outcomes: &[(usize, &Reply)],
    instance: impl Fn(usize) -> QueryInstance + Sync,
    config: &CacheConfig,
) -> CheckReport {
    let mut report = CheckReport::default();
    let fail = |report: &mut CheckReport, id: usize, reason: String| {
        if report.examples.len() < 10 {
            report.examples.push((id, reason));
        }
    };
    let mut served: Vec<(usize, &Response)> = Vec::new();
    for &(id, reply) in outcomes {
        report.tally.sent += 1;
        match reply {
            Reply::Response(response @ Response::Served { source, .. }) => {
                match source {
                    ServeSource::CacheHit => report.tally.hits += 1,
                    ServeSource::WarmStart => report.tally.warm += 1,
                    ServeSource::Cold => report.tally.cold += 1,
                }
                served.push((id, response));
            }
            Reply::Response(Response::Busy { .. }) => {
                report.tally.busy += 1;
                fail(&mut report, id, "busy".into());
            }
            Reply::Response(Response::Error { message }) => {
                report.tally.errors += 1;
                fail(&mut report, id, format!("error {message}"));
            }
            Reply::Response(other) => {
                report.tally.protocol += 1;
                fail(&mut report, id, format!("unexpected reply `{}`", other.to_line()));
            }
            Reply::Malformed(line) => {
                report.tally.protocol += 1;
                fail(&mut report, id, line.clone());
            }
            Reply::Transport(e) => {
                report.tally.transport += 1;
                fail(&mut report, id, format!("transport: {e}"));
            }
        }
    }
    let instance = &instance;
    let keyed: Vec<Result<Keys, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = served
            .chunks(served.len().div_ceil(2).max(1))
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|&(id, response)| {
                            let d = derive(&instance(id), config)
                                .map_err(|e| format!("request text does not parse: {e}"))?;
                            validate(&d, response).map(|()| (d.primary, d.shifted))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("check thread panicked")).collect()
    });
    // Costs written into the cache by cold and warm replies, by the key
    // they were written under.
    let mut primary: HashMap<u64, Vec<f64>> = HashMap::new();
    let mut shifted: HashMap<u64, Vec<f64>> = HashMap::new();
    for (&(_, response), keys) in served.iter().zip(&keyed) {
        if let (Response::Served { source, cost, .. }, Ok((p, s))) = (response, keys) {
            if *source != ServeSource::CacheHit {
                primary.entry(*p).or_default().push(*cost);
                shifted.entry(*s).or_default().push(*cost);
            }
        }
    }
    let tolerance = config.validation_tolerance;
    for (&(id, response), keys) in served.iter().zip(keyed) {
        let verdict = keys.and_then(|(p, s)| match response {
            Response::Served { source: ServeSource::CacheHit, cost, .. } => {
                let mut cached = primary.get(&p).into_iter().chain(shifted.get(&s)).flatten();
                if cached.any(|c| (cost - c).abs() <= tolerance * cost.abs().max(c.abs())) {
                    Ok(())
                } else {
                    Err(format!("hit cost {cost} outside tolerance of every cached plan"))
                }
            }
            _ => Ok(()),
        });
        if let Err(reason) = verdict {
            report.tally.wrong += 1;
            fail(&mut report, id, reason);
        }
    }
    report
}

/// The check's self-test: `reply` (a correct cold reply for `instance`)
/// must pass, and copies with its cost nudged by one ulp or two plan
/// positions swapped must both fail.
pub fn tampering_is_caught(instance: &QueryInstance, reply: &Reply, config: &CacheConfig) -> bool {
    let Reply::Response(Response::Served { source, cost, fingerprint, plan, tier }) = reply else {
        return false;
    };
    let costs_bumped = Reply::Response(Response::Served {
        source: *source,
        cost: f64::from_bits(cost.to_bits() + 1),
        fingerprint: *fingerprint,
        plan: plan.clone(),
        tier: *tier,
    });
    let mut swapped = plan.clone();
    swapped.swap(0, plan.len() - 1);
    let plan_swapped = Reply::Response(Response::Served {
        source: *source,
        cost: *cost,
        fingerprint: *fingerprint,
        plan: swapped,
        tier: *tier,
    });
    let wrong = |r: &Reply| check(&[(0, r)], |_| instance.clone(), config).tally.wrong;
    *source == ServeSource::Cold
        && wrong(reply) == 0
        && wrong(&costs_bumped) == 1
        && wrong(&plan_swapped) == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsq_workloads::{generate, Family};

    fn served(instance: &QueryInstance, source: ServeSource, config: &CacheConfig) -> Reply {
        let parsed = parse_instance(&format_instance(instance)).unwrap();
        let result = optimize_with(&parsed, &BnbConfig::paper());
        Reply::Response(Response::Served {
            source,
            cost: result.cost(),
            fingerprint: CanonicalKey::new(&parsed, &config.quantization).fingerprint(),
            plan: result.plan().indices(),
            tier: PlanTier::Exact,
        })
    }

    #[test]
    fn correct_replies_pass_and_failures_are_counted() {
        let config = CacheConfig { probes: 2, ..CacheConfig::default() };
        let a = generate(Family::Clustered, 8, 1);
        let b = generate(Family::BtspHard, 8, 2);
        let cold = served(&a, ServeSource::Cold, &config);
        let hit = served(&a, ServeSource::CacheHit, &config);
        let other = served(&b, ServeSource::Cold, &config);
        let busy = Reply::Response(Response::Busy { retry_after_ms: 5 });
        let broken = Reply::Transport("reset".into());
        let outcomes = [(0, &cold), (1, &hit), (2, &other), (3, &busy), (4, &broken)];
        let report = check(&outcomes, |id| if id == 2 { b.clone() } else { a.clone() }, &config);
        assert_eq!(report.tally.sent, 5);
        assert_eq!((report.tally.cold, report.tally.hits), (2, 1));
        assert_eq!(report.tally.wrong, 0, "{:?}", report.examples);
        assert_eq!((report.tally.busy, report.tally.transport), (1, 1));
        assert_eq!(report.tally.failed(), 2);
    }

    /// A hit with no cold or warm reply behind it in the cache record
    /// cannot be validated and fails.
    #[test]
    fn orphan_hits_fail() {
        let config = CacheConfig { probes: 2, ..CacheConfig::default() };
        let a = generate(Family::Clustered, 8, 1);
        let hit = served(&a, ServeSource::CacheHit, &config);
        let report = check(&[(0, &hit)], |_| a.clone(), &config);
        assert_eq!(report.tally.wrong, 1);
    }

    #[test]
    fn tampered_responses_are_counted_as_failed() {
        let config = CacheConfig { probes: 2, ..CacheConfig::default() };
        let a = generate(Family::Clustered, 9, 4);
        let cold = served(&a, ServeSource::Cold, &config);
        assert!(tampering_is_caught(&a, &cold, &config));
        let Reply::Response(Response::Served { cost, plan, fingerprint, .. }) = &cold else {
            unreachable!()
        };
        // A suboptimal but honestly priced plan fails as cold.
        let mut worse = plan.clone();
        worse.reverse();
        let parsed = parse_instance(&format_instance(&a)).unwrap();
        let worse_cost = bottleneck_cost(&parsed, &Plan::new(worse.clone()).unwrap());
        assert!(worse_cost > *cost);
        let wrong = Reply::Response(Response::Served {
            source: ServeSource::Cold,
            cost: worse_cost,
            fingerprint: *fingerprint,
            plan: worse,
            tier: PlanTier::Exact,
        });
        let report = check(&[(0, &wrong)], |_| a.clone(), &config);
        assert_eq!(report.tally.wrong, 1, "{:?}", report.examples);
    }
}
