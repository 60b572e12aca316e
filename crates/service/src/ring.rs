//! Consistent-hash routing for backend fleets.
//!
//! [`HashRing`] places a fixed number of deterministic virtual nodes
//! per backend on a `u64` ring and routes each canonical fingerprint to
//! the owner of the first virtual node at or after the fingerprint's
//! ring position. Unlike `fingerprint % N`, adding or removing one
//! backend remaps only the keys whose owning arc moved — about `1/N` of
//! the keyspace — so a fleet resize keeps roughly `(N-1)/N` of every
//! backend's cache partition hot instead of cold-starting all of them.
//!
//! Everything here is deterministic: virtual-node positions are a pure
//! function of the backend label and replica index, and key positions
//! are a pure mix of the canonical fingerprint. Two processes that
//! agree on the backend list agree on the whole routing table, which is
//! what lets a rebalance coordinator and a serving daemon compute the
//! same "which entries move" set independently (see
//! `PlanCache::export_partition`).

/// Default number of virtual nodes placed per backend. Enough that the
/// largest-to-smallest partition ratio stays small at fleet sizes this
/// repo targets (2–16 backends), small enough that ring construction
/// and binary-search routing stay trivially cheap.
pub const DEFAULT_VNODES: usize = 64;

/// `splitmix64` finalizer: a full-avalanche mix so that structured
/// inputs (fingerprints share quantization structure; vnode indices are
/// small integers) spread uniformly over the ring.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a over a label's bytes: the stable seed each backend's virtual
/// nodes are derived from. Labels are endpoint strings (`unix://…`,
/// `tcp://…`), so equality of label means equality of placement across
/// processes and runs.
fn label_seed(label: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in label.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A consistent-hash ring over an ordered list of backend labels.
///
/// The backend *index* (into the label list given at construction) is
/// what routing returns, so a [`FleetPlanner`](crate::FleetPlanner)
/// can keep its backends in a plain `Vec` and look them up directly.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// Virtual nodes sorted by ring position: `(position, backend)`.
    points: Vec<(u64, usize)>,
    backends: usize,
}

impl HashRing {
    /// Builds a ring with [`DEFAULT_VNODES`] virtual nodes per backend.
    ///
    /// # Panics
    ///
    /// Panics if `labels` is empty; fleet constructors reject empty
    /// backend lists before a ring is ever built.
    pub fn new<S: AsRef<str>>(labels: &[S]) -> Self {
        Self::with_vnodes(labels, DEFAULT_VNODES)
    }

    /// Builds a ring with `vnodes` virtual nodes per backend (`vnodes`
    /// is clamped to at least 1).
    ///
    /// # Panics
    ///
    /// Panics if `labels` is empty.
    pub fn with_vnodes<S: AsRef<str>>(labels: &[S], vnodes: usize) -> Self {
        assert!(!labels.is_empty(), "a hash ring needs at least one backend");
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(labels.len() * vnodes);
        for (backend, label) in labels.iter().enumerate() {
            let seed = label_seed(label.as_ref());
            for replica in 0..vnodes {
                points.push((mix64(seed ^ mix64(replica as u64)), backend));
            }
        }
        // Position ties (astronomically unlikely, but the ring must be
        // a total order) break by backend index so construction is
        // deterministic regardless of sort internals.
        points.sort_unstable();
        HashRing { points, backends: labels.len() }
    }

    /// The backend index owning `fingerprint`: the backend of the first
    /// virtual node at or clockwise-after the key's ring position.
    pub fn route(&self, fingerprint: u64) -> usize {
        let position = mix64(fingerprint);
        let at = self.points.partition_point(|&(p, _)| p < position);
        self.points[at % self.points.len()].1
    }

    /// Distinct backend indices in ring order starting from the owner
    /// of `fingerprint` — the failover walk: the owner first, then each
    /// next-closest backend clockwise, every backend exactly once.
    pub fn successors(&self, fingerprint: u64) -> Vec<usize> {
        let position = mix64(fingerprint);
        let start = self.points.partition_point(|&(p, _)| p < position);
        let mut seen = vec![false; self.backends];
        let mut order = Vec::with_capacity(self.backends);
        for offset in 0..self.points.len() {
            let backend = self.points[(start + offset) % self.points.len()].1;
            if !seen[backend] {
                seen[backend] = true;
                order.push(backend);
                if order.len() == self.backends {
                    break;
                }
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("unix:///tmp/backend-{i}.sock")).collect()
    }

    #[test]
    fn routing_is_deterministic_and_in_range() {
        let ring = HashRing::new(&labels(3));
        let again = HashRing::new(&labels(3));
        for key in 0..1000u64 {
            let owner = ring.route(key);
            assert!(owner < 3);
            assert_eq!(owner, again.route(key), "same labels, same ring");
        }
    }

    #[test]
    fn every_backend_owns_a_reasonable_share() {
        let ring = HashRing::new(&labels(4));
        let mut counts = [0usize; 4];
        for key in 0..4000u64 {
            counts[ring.route(mix64(key))] += 1;
        }
        for (backend, &count) in counts.iter().enumerate() {
            // Perfect balance would be 1000 each; 64 vnodes keeps every
            // partition within a factor ~2 of its fair share.
            assert!((400..=1900).contains(&count), "backend {backend} owns {count} of 4000 keys");
        }
    }

    #[test]
    fn growing_the_fleet_remaps_about_one_over_n() {
        // The two label vectors share a prefix, so an unmoved key keeps
        // its backend index.
        let grown = labels(3);
        let before = HashRing::new(&grown[..2]);
        let after = HashRing::new(&grown);
        let keys: Vec<u64> = (0..3000).map(|k| mix64(k ^ 0xabcd)).collect();
        let moved = keys.iter().filter(|&&k| before.route(k) != after.route(k)).count();
        // Ideal is 1/3 of keys moving (1000). Modulo routing would move
        // about half. Assert the consistent-hash envelope: strictly
        // better than modulo's churn, and every move lands on the new
        // backend (an old backend never *gains* keys when the fleet
        // grows).
        assert!((500..=1600).contains(&moved), "{moved} of 3000 keys moved on a 2->3 resize");
        for &key in &keys {
            if before.route(key) != after.route(key) {
                assert_eq!(
                    grown[after.route(key)],
                    "unix:///tmp/backend-2.sock",
                    "keys only move to the joining backend"
                );
            }
        }
    }

    #[test]
    fn removing_a_backend_only_moves_its_own_keys() {
        let before = HashRing::new(&labels(3));
        let after = HashRing::new(&labels(2));
        for key in (0..2000u64).map(|k| mix64(k ^ 0x77)) {
            if before.route(key) < 2 {
                assert_eq!(
                    before.route(key),
                    after.route(key),
                    "keys on surviving backends never move when one leaves"
                );
            }
        }
    }

    #[test]
    fn successors_visit_every_backend_once_owner_first() {
        let ring = HashRing::new(&labels(4));
        for key in 0..64u64 {
            let order = ring.successors(key);
            assert_eq!(order.len(), 4);
            assert_eq!(order[0], ring.route(key), "owner first");
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3], "each backend exactly once");
        }
    }

    #[test]
    fn single_backend_ring_owns_everything() {
        let ring = HashRing::new(&["tcp://127.0.0.1:4000"]);
        for key in 0..100u64 {
            assert_eq!(ring.route(key), 0);
            assert_eq!(ring.successors(key), vec![0]);
        }
    }
}
