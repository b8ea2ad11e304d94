//! The peer side of the trace fabric: ring-routed trace fetching.
//!
//! Each server builds a [`PeerClient`] over the cluster membership (its
//! own advertised address plus `--peers`) and installs it on the suite
//! via [`softwatt::ExperimentSuite::with_peer_source`]. On a local
//! trace-store miss the suite asks here before simulating; this module
//! computes the key's ring owner and, when that is someone else, streams
//! the owner's `swtrace` bytes over the owner's ordinary HTTP port
//! (`GET /v1/traces/{hash}`). The suite verifies the checksum and
//! descriptor before trusting a byte of it, so a confused or corrupt
//! peer degrades to a local simulation, never an error.
//!
//! The owner captures on miss (its `/v1/traces` handler runs the trace
//! through its own memo), which is what makes the cluster single-flight:
//! N simultaneous misses on N nodes all route to one owner, whose memo
//! collapses them into one simulation.
//!
//! Everything is observable under `fabric.fetch.*`.

use std::net::ToSocketAddrs;
use std::time::Duration;

use softwatt::{PeerSource, TraceKey};
use softwatt_obs::{count, obs_event, span, Level};

const TARGET: &str = "fabric";
use softwatt_serve::client::Client;

use crate::ring::Ring;

/// Default budget for one peer fetch (connect + request + body).
/// Generous on purpose: during a cold grid storm the owner's answer
/// queues behind every capture ahead of it, and waiting out that queue
/// is still cheaper than re-running a simulation the owner is already
/// paying for. A *dead* owner never costs this much — connect fails in
/// milliseconds; only a connected-but-stalled owner spends the budget,
/// after which we degrade to a local simulation.
pub const DEFAULT_FETCH_TIMEOUT: Duration = Duration::from_secs(120);

/// Ring-routed fetcher of peers' cached traces. Implements
/// [`PeerSource`] so the core suite can call it without depending on
/// this crate.
#[derive(Debug)]
pub struct PeerClient {
    ring: Ring,
    self_node: String,
    timeout: Duration,
}

impl PeerClient {
    /// Builds the fabric view: `self_node` is this server's advertised
    /// `host:port` (it joins the ring too — we never fetch from
    /// ourselves), `peers` the other members.
    pub fn new(self_node: impl Into<String>, peers: &[String], timeout: Duration) -> PeerClient {
        let self_node = self_node.into();
        let members = peers
            .iter()
            .cloned()
            .chain(std::iter::once(self_node.clone()));
        PeerClient {
            ring: Ring::new(members),
            self_node,
            timeout,
        }
    }

    /// The membership ring (tests and diagnostics).
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// This node's advertised name.
    pub fn self_node(&self) -> &str {
        &self.self_node
    }

    /// The owner of `key`, or `None` when this node owns it.
    pub fn remote_owner(&self, key: &TraceKey) -> Option<&str> {
        let owner = self.ring.owner(key.hash())?;
        if owner == self.self_node {
            None
        } else {
            Some(owner)
        }
    }

    fn fetch_from(&self, owner: &str, path: &str) -> Option<Vec<u8>> {
        let addr = match owner.to_socket_addrs().ok().and_then(|mut a| a.next()) {
            Some(addr) => addr,
            None => {
                count("fabric.fetch.addr_errors", 1);
                obs_event!(Level::Warn, TARGET, "owner address {owner} unresolvable");
                return None;
            }
        };
        let mut client = match Client::connect(addr, self.timeout) {
            Ok(client) => client,
            Err(err) => {
                count("fabric.fetch.connect_errors", 1);
                obs_event!(
                    Level::Warn,
                    TARGET,
                    "cannot reach trace owner {owner}: {err}; simulating locally"
                );
                return None;
            }
        };
        // A busy owner bounces with `503` + `Retry-After` (its cold lane
        // is saturated capturing — possibly our very trace). Waiting it
        // out, within the fetch budget, is what keeps the cluster
        // single-flight under load: giving up here would re-run a
        // simulation the owner is already paying for.
        let deadline = std::time::Instant::now() + self.timeout;
        loop {
            match client.request_bytes("GET", path, "") {
                Ok(resp) if resp.status == 200 => return Some(resp.body),
                Ok(resp) if resp.status == 503 && std::time::Instant::now() < deadline => {
                    let hint_ms = resp
                        .header("retry-after")
                        .and_then(|v| v.parse::<u64>().ok())
                        .map_or(250, |s| s.saturating_mul(1000))
                        .clamp(10, 1000);
                    count("fabric.fetch.backpressure_retries", 1);
                    std::thread::sleep(Duration::from_millis(hint_ms));
                }
                Ok(resp) => {
                    // The owner answered but has no verified trace to
                    // give (unregistered spec, shutdown drain, still
                    // overloaded past our budget, ...). Not an error: we
                    // simulate locally and may become the de facto cache
                    // for the key.
                    count("fabric.fetch.peer_declined", 1);
                    obs_event!(
                        Level::Info,
                        TARGET,
                        "trace owner {owner} declined with status {}",
                        resp.status
                    );
                    return None;
                }
                Err(err) => {
                    count("fabric.fetch.transport_errors", 1);
                    obs_event!(
                        Level::Warn,
                        TARGET,
                        "trace transfer from {owner} failed: {err}; simulating locally"
                    );
                    return None;
                }
            }
        }
    }
}

impl PeerSource for PeerClient {
    fn fetch(&self, key: &TraceKey, workload: &str, cpu: &str) -> Option<Vec<u8>> {
        let owner = match self.remote_owner(key) {
            Some(owner) => owner,
            None => {
                // We own this key; a miss here means the cluster has
                // never simulated it, so capture locally (callers fall
                // through to the capture tier).
                count("fabric.fetch.self_owned", 1);
                return None;
            }
        };
        count("fabric.fetch.attempts", 1);
        let _timer = span("fabric.fetch_ns");
        let path = format!(
            "/v1/traces/{:016x}?workload={workload}&cpu={cpu}",
            key.hash()
        );
        let bytes = self.fetch_from(owner, &path)?;
        count("fabric.fetch.ok", 1);
        count("fabric.fetch.bytes", bytes.len() as u64);
        Some(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softwatt::{Benchmark, CpuModel, SystemConfig};

    fn key() -> TraceKey {
        TraceKey::derive(&SystemConfig::default(), Benchmark::Jess, CpuModel::Mxs)
    }

    #[test]
    fn self_owned_keys_never_fetch() {
        // Single-member fabric: every key is self-owned.
        let solo = PeerClient::new("127.0.0.1:1", &[], DEFAULT_FETCH_TIMEOUT);
        assert_eq!(solo.remote_owner(&key()), None);
        assert_eq!(solo.fetch(&key(), "jess", "mxs"), None);
    }

    #[test]
    fn remote_owner_is_consistent_across_views() {
        // Both nodes must agree on who owns the key, each seeing the
        // other as the peer.
        let a = PeerClient::new(
            "127.0.0.1:7001",
            &["127.0.0.1:7002".to_string()],
            DEFAULT_FETCH_TIMEOUT,
        );
        let b = PeerClient::new(
            "127.0.0.1:7002",
            &["127.0.0.1:7001".to_string()],
            DEFAULT_FETCH_TIMEOUT,
        );
        assert_eq!(a.ring().layout_digest(), b.ring().layout_digest());
        let owner = a.ring().owner(key().hash()).unwrap().to_string();
        match (a.remote_owner(&key()), b.remote_owner(&key())) {
            (Some(remote), None) => {
                assert_eq!(remote, owner);
                assert_eq!(owner, "127.0.0.1:7002");
            }
            (None, Some(remote)) => {
                assert_eq!(remote, owner);
                assert_eq!(owner, "127.0.0.1:7001");
            }
            other => panic!("exactly one node must see a remote owner, got {other:?}"),
        }
    }

    #[test]
    fn dead_owner_degrades_to_none() {
        // Port 9 (discard) with nothing listening: connect fails fast
        // and fetch reports a miss, never a panic or error.
        let fabric = PeerClient::new(
            "127.0.0.1:1",
            &["127.0.0.1:9".to_string()],
            Duration::from_millis(200),
        );
        if fabric.remote_owner(&key()).is_some() {
            assert_eq!(fabric.fetch(&key(), "jess", "mxs"), None);
        }
    }

    #[test]
    fn unresolvable_owner_degrades_to_none() {
        let fabric = PeerClient::new(
            "127.0.0.1:1",
            &["definitely-not-a-host.invalid:7000".to_string()],
            Duration::from_millis(200),
        );
        if fabric.remote_owner(&key()).is_some() {
            assert_eq!(fabric.fetch(&key(), "jess", "mxs"), None);
        }
    }
}
