//! Dynamic fleet membership: a versioned, re-resolvable backend list.
//!
//! A [`FleetConfig`] is the on-disk source of truth for which backends
//! exist — an endpoint list plus a monotonically increasing generation
//! number. Clients load it at startup and re-resolve it between
//! requests through a [`FleetMembership`] watcher: a generation bump is
//! an **atomic cutover**: the watcher hands back the complete new
//! config, never a half-applied edit.
//!
//! The text format is deliberately shaped like the cache snapshot
//! format (versioned header, one record per line, explicit trailer) so
//! truncated or concatenated files are detected, not half-parsed:
//!
//! ```text
//! dsq-fleet-config v1
//! generation 3
//! backend unix:///var/run/dsq-a.sock
//! backend tcp://127.0.0.1:4001
//! end-fleet-config
//! ```

use std::error::Error;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// Header line of the fleet-config text format.
pub const FLEET_CONFIG_HEADER: &str = "dsq-fleet-config v1";

/// Error parsing or loading a [`FleetConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetConfigError {
    /// The first line is not [`FLEET_CONFIG_HEADER`].
    BadHeader {
        /// What the first line actually was.
        found: String,
    },
    /// A line inside the document does not match the grammar.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// The same backend address appears more than once. Duplicate
    /// endpoints would silently occupy multiple ring slots and receive
    /// a double share of the keyspace.
    DuplicateBackend {
        /// The repeated address.
        address: String,
    },
    /// The document ended before its `end-fleet-config` trailer.
    Truncated,
    /// The config listed no backends.
    Empty,
    /// Reading the file failed (message carries the io error text).
    Io(String),
}

impl fmt::Display for FleetConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetConfigError::BadHeader { found } => {
                write!(f, "fleet config must start with `{FLEET_CONFIG_HEADER}`, found `{found}`")
            }
            FleetConfigError::Malformed { line, reason } => {
                write!(f, "fleet config line {line}: {reason}")
            }
            FleetConfigError::DuplicateBackend { address } => {
                write!(f, "duplicate backend address `{address}` in fleet config")
            }
            FleetConfigError::Truncated => {
                f.write_str("fleet config is truncated (missing `end-fleet-config`)")
            }
            FleetConfigError::Empty => f.write_str("fleet config lists no backends"),
            FleetConfigError::Io(message) => write!(f, "fleet config unreadable: {message}"),
        }
    }
}

impl Error for FleetConfigError {}

/// One generation of fleet membership: who the backends are, and which
/// version of the list this is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetConfig {
    /// Monotonically increasing version of the membership list. A
    /// watcher cuts over only when it sees a strictly larger value.
    pub generation: u64,
    /// Backend endpoints in ring order (`unix://PATH` or `tcp://ADDR`).
    pub endpoints: Vec<String>,
}

impl FleetConfig {
    /// A config over `endpoints` at `generation`, validating the same
    /// invariants as [`parse`](Self::parse) (no empty list, no
    /// duplicate addresses).
    ///
    /// # Errors
    ///
    /// [`FleetConfigError::Empty`] or
    /// [`FleetConfigError::DuplicateBackend`].
    pub fn new<S: Into<String>>(
        generation: u64,
        endpoints: impl IntoIterator<Item = S>,
    ) -> Result<Self, FleetConfigError> {
        let endpoints: Vec<String> = endpoints.into_iter().map(Into::into).collect();
        if endpoints.is_empty() {
            return Err(FleetConfigError::Empty);
        }
        for (i, address) in endpoints.iter().enumerate() {
            if endpoints[..i].contains(address) {
                return Err(FleetConfigError::DuplicateBackend { address: address.clone() });
            }
        }
        Ok(FleetConfig { generation, endpoints })
    }

    /// Parses the text format (see the [module docs](self) for the
    /// grammar). Exact inverse of [`to_text`](Self::to_text).
    ///
    /// # Errors
    ///
    /// A [`FleetConfigError`] describing the first problem found.
    pub fn parse(text: &str) -> Result<Self, FleetConfigError> {
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, line)) if line == FLEET_CONFIG_HEADER => {}
            Some((_, line)) => return Err(FleetConfigError::BadHeader { found: line.to_string() }),
            None => return Err(FleetConfigError::BadHeader { found: String::new() }),
        }
        let generation = match lines.next() {
            Some((number, line)) => match line.strip_prefix("generation ") {
                Some(value) => value.parse::<u64>().map_err(|_| FleetConfigError::Malformed {
                    line: number + 1,
                    reason: format!("generation is not a non-negative integer: `{value}`"),
                })?,
                None => {
                    return Err(FleetConfigError::Malformed {
                        line: number + 1,
                        reason: format!("expected `generation N`, found `{line}`"),
                    })
                }
            },
            None => return Err(FleetConfigError::Truncated),
        };
        let mut endpoints = Vec::new();
        let mut terminated = false;
        for (number, line) in lines {
            if line == "end-fleet-config" {
                terminated = true;
                break;
            }
            match line.strip_prefix("backend ") {
                Some(address) if !address.trim().is_empty() => {
                    endpoints.push(address.to_string());
                }
                _ => {
                    return Err(FleetConfigError::Malformed {
                        line: number + 1,
                        reason: format!(
                            "expected `backend ADDRESS` or `end-fleet-config`, found `{line}`"
                        ),
                    })
                }
            }
        }
        if !terminated {
            return Err(FleetConfigError::Truncated);
        }
        FleetConfig::new(generation, endpoints)
    }

    /// Serializes to the text format. Exact inverse of
    /// [`parse`](Self::parse).
    pub fn to_text(&self) -> String {
        let mut text = String::new();
        text.push_str(FLEET_CONFIG_HEADER);
        text.push('\n');
        text.push_str(&format!("generation {}\n", self.generation));
        for endpoint in &self.endpoints {
            text.push_str(&format!("backend {endpoint}\n"));
        }
        text.push_str("end-fleet-config\n");
        text
    }

    /// Loads and parses the config at `path`.
    ///
    /// # Errors
    ///
    /// [`FleetConfigError::Io`] if the file is unreadable, otherwise
    /// any [`parse`](Self::parse) error.
    pub fn load(path: &Path) -> Result<Self, FleetConfigError> {
        let text = fs::read_to_string(path).map_err(|e| FleetConfigError::Io(e.to_string()))?;
        FleetConfig::parse(&text)
    }

    /// Writes the config to `path` atomically (tmp file + rename), so a
    /// watcher polling the path never observes a half-written
    /// generation.
    ///
    /// # Errors
    ///
    /// [`FleetConfigError::Io`] if writing or renaming fails.
    pub fn store(&self, path: &Path) -> Result<(), FleetConfigError> {
        let tmp = path.with_extension("tmp");
        fs::write(&tmp, self.to_text()).map_err(|e| FleetConfigError::Io(e.to_string()))?;
        fs::rename(&tmp, path).map_err(|e| FleetConfigError::Io(e.to_string()))
    }
}

/// A client-side membership watcher: holds the current generation and
/// re-resolves the config file on demand, cutting over atomically.
#[derive(Debug)]
pub struct FleetMembership {
    path: PathBuf,
    current: FleetConfig,
}

impl FleetMembership {
    /// Loads the initial generation from `path`.
    ///
    /// # Errors
    ///
    /// Any [`FleetConfigError`] from the initial load.
    pub fn load(path: impl Into<PathBuf>) -> Result<Self, FleetConfigError> {
        let path = path.into();
        let current = FleetConfig::load(&path)?;
        Ok(FleetMembership { path, current })
    }

    /// The generation currently in effect.
    pub fn current(&self) -> &FleetConfig {
        &self.current
    }

    /// Re-reads the config file. If it parses and carries a **strictly
    /// larger** generation, cuts over to it and returns the new config. A
    /// same-or-older generation, an unreadable file, or a malformed
    /// document leaves the current generation untouched — a botched
    /// config push can never take the fleet down.
    pub fn refresh(&mut self) -> Option<&FleetConfig> {
        let next = FleetConfig::load(&self.path).ok()?;
        if next.generation <= self.current.generation {
            return None;
        }
        self.current = next;
        Some(&self.current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(generation: u64, n: usize) -> FleetConfig {
        FleetConfig::new(generation, (0..n).map(|i| format!("unix:///tmp/b{i}.sock")))
            .expect("valid test config")
    }

    #[test]
    fn text_round_trips_exactly() {
        let original = config(7, 3);
        let text = original.to_text();
        let parsed = FleetConfig::parse(&text).expect("round trip parses");
        assert_eq!(parsed, original);
        assert_eq!(parsed.to_text(), text);
    }

    #[test]
    fn parse_errors_are_exact() {
        let cases: Vec<(&str, String)> = vec![
            (
                "dsq-fleet-config v2\n",
                "fleet config must start with `dsq-fleet-config v1`, found `dsq-fleet-config v2`"
                    .to_string(),
            ),
            (
                "dsq-fleet-config v1\ngeneration x\nend-fleet-config\n",
                "fleet config line 2: generation is not a non-negative integer: `x`".to_string(),
            ),
            (
                "dsq-fleet-config v1\nbackends nope\n",
                "fleet config line 2: expected `generation N`, found `backends nope`".to_string(),
            ),
            (
                "dsq-fleet-config v1\ngeneration 1\nnode a\nend-fleet-config\n",
                "fleet config line 3: expected `backend ADDRESS` or `end-fleet-config`, found `node a`"
                    .to_string(),
            ),
            (
                "dsq-fleet-config v1\ngeneration 1\nbackend unix:///a\n",
                "fleet config is truncated (missing `end-fleet-config`)".to_string(),
            ),
            (
                "dsq-fleet-config v1\ngeneration 1\nend-fleet-config\n",
                "fleet config lists no backends".to_string(),
            ),
            (
                "dsq-fleet-config v1\ngeneration 1\nbackend unix:///a\nbackend unix:///a\nend-fleet-config\n",
                "duplicate backend address `unix:///a` in fleet config".to_string(),
            ),
        ];
        for (text, message) in cases {
            let error = FleetConfig::parse(text).expect_err("must be rejected");
            assert_eq!(error.to_string(), message);
        }
    }

    #[test]
    fn duplicate_endpoints_are_rejected_at_construction() {
        let error = FleetConfig::new(1, ["unix:///a", "unix:///b", "unix:///a"])
            .expect_err("duplicates rejected");
        assert_eq!(error, FleetConfigError::DuplicateBackend { address: "unix:///a".to_string() });
    }

    #[test]
    fn refresh_cuts_over_only_on_newer_generations() {
        let dir = std::env::temp_dir().join(format!("dsq-membership-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("fleet.cfg");
        config(1, 2).store(&path).expect("stores");

        let mut membership = FleetMembership::load(&path).expect("loads");
        assert_eq!(membership.current().generation, 1);

        // Same generation: no cutover.
        config(1, 3).store(&path).expect("stores");
        assert!(membership.refresh().is_none());
        assert_eq!(membership.current().endpoints.len(), 2);

        // Older generation: no cutover.
        config(0, 3).store(&path).expect("stores");
        assert!(membership.refresh().is_none());

        // Malformed file: current generation stays in effect.
        std::fs::write(&path, "garbage\n").expect("writes");
        assert!(membership.refresh().is_none());
        assert_eq!(membership.current().generation, 1);

        // Newer generation: atomic cutover.
        config(2, 3).store(&path).expect("stores");
        let cut = membership.refresh().expect("cuts over").clone();
        assert_eq!(cut.generation, 2);
        assert_eq!(cut.endpoints.len(), 3);
        assert_eq!(membership.current(), &cut);

        std::fs::remove_dir_all(&dir).ok();
    }
}
