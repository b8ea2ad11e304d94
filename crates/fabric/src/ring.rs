//! Consistent-hash ring assigning trace keys to cluster nodes.
//!
//! Every node in a SoftWatt cluster builds the *same* ring from the same
//! membership list (its own advertised address plus `--peers`), so any
//! node can compute any key's owner without coordination. The ring is
//! the classic virtual-node construction: each node contributes
//! [`VNODES`] points hashed from `"swring|{node}|{replica}"`, the points
//! are sorted, and a key is owned by the node whose point is the first
//! one clockwise from the key's hash (wrapping past the top).
//!
//! Properties the tests pin down:
//!
//! - **Balance**: with 128 virtual points per node, per-node shares stay
//!   within a chi-square-style bound of uniform.
//! - **Minimal disruption**: adding a node only moves keys *to* the new
//!   node; removing one only moves keys *away from* it. Everything else
//!   keeps its owner, so a membership change invalidates at most ~1/N of
//!   the cluster's cached trace locality.
//! - **Stability**: the layout is a pure function of the membership
//!   strings — a pinned digest guards against accidental rehashing,
//!   which would silently orphan every cached trace in a rolling
//!   upgrade.

use softwatt_stats::hash::fnv1a;

/// Virtual points contributed per node. 128 keeps the worst-case share
/// imbalance in the ±30% band (arc-length variance shrinks as
/// `1/sqrt(VNODES)`) while membership changes stay O(µs).
pub const VNODES: usize = 128;

/// The splitmix64 finalizer: a full-avalanche 64-bit mixer.
/// FNV alone disperses trailing-counter strings like `...|{replica}`
/// poorly — sequential replicas land in clustered points and wreck the
/// ring's balance — so every point and every looked-up key hash gets
/// this pass first.
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// An immutable consistent-hash ring over a set of node names
/// (typically `host:port` strings).
#[derive(Debug, Clone)]
pub struct Ring {
    /// Sorted `(point, node index)` pairs; ties broken by node index so
    /// the layout is deterministic even on (astronomically unlikely)
    /// point collisions.
    points: Vec<(u64, usize)>,
    nodes: Vec<String>,
}

impl Ring {
    /// Builds the ring; duplicate names collapse and order does not
    /// matter (members are sorted first), so every cluster node derives
    /// an identical layout from its own view of the membership.
    pub fn new<S: Into<String>>(members: impl IntoIterator<Item = S>) -> Ring {
        let mut nodes: Vec<String> = members.into_iter().map(Into::into).collect();
        nodes.sort();
        nodes.dedup();
        let mut points = Vec::with_capacity(nodes.len() * VNODES);
        for (index, node) in nodes.iter().enumerate() {
            for replica in 0..VNODES {
                points.push((
                    mix64(fnv1a(format!("swring|{node}|{replica}").as_bytes())),
                    index,
                ));
            }
        }
        points.sort_unstable();
        Ring { points, nodes }
    }

    /// The sorted, deduplicated membership.
    pub fn nodes(&self) -> &[String] {
        &self.nodes
    }

    /// Number of member nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the ring has no members.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node owning `hash`: the first virtual point at or after it,
    /// wrapping to the lowest point past the top of the `u64` space.
    /// `None` only for an empty ring.
    pub fn owner(&self, hash: u64) -> Option<&str> {
        if self.points.is_empty() {
            return None;
        }
        let hash = mix64(hash);
        let at = self.points.partition_point(|&(point, _)| point < hash);
        let (_, index) = self.points[if at == self.points.len() { 0 } else { at }];
        Some(&self.nodes[index])
    }

    /// A digest of the full layout (every point and the node it maps
    /// to). Two ring instances agree on every owner iff their digests
    /// match; the pinned-snapshot test freezes this across releases.
    pub fn layout_digest(&self) -> u64 {
        let mut blob = Vec::with_capacity(self.points.len() * 10);
        for &(point, index) in &self.points {
            blob.extend_from_slice(&point.to_le_bytes());
            blob.extend_from_slice(self.nodes[index].as_bytes());
            blob.push(b'|');
        }
        fnv1a(&blob)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_keys(n: u64) -> impl Iterator<Item = u64> {
        // Deterministic stand-ins for TraceKey hashes: FNV over a
        // counter, which is how real descriptors are hashed too.
        (0..n).map(|i| fnv1a(format!("trace-key-{i}").as_bytes()))
    }

    fn members(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("10.0.0.{i}:7000")).collect()
    }

    #[test]
    fn empty_and_singleton_rings() {
        assert!(Ring::new(Vec::<String>::new()).owner(42).is_none());
        let one = Ring::new(["solo:1"]);
        for hash in sample_keys(64) {
            assert_eq!(one.owner(hash), Some("solo:1"));
        }
    }

    #[test]
    fn duplicate_and_reordered_members_collapse() {
        let a = Ring::new(["b:1", "a:1", "a:1", "c:1"]);
        let b = Ring::new(["c:1", "a:1", "b:1"]);
        assert_eq!(a.nodes(), b.nodes());
        assert_eq!(a.layout_digest(), b.layout_digest());
    }

    /// Satellite: uniform distribution under a chi-square-style bound.
    /// Everything is deterministic (fixed hash, fixed keys), so the
    /// bound cannot flake; it guards against structural skew such as a
    /// broken replica hash collapsing a node's points.
    #[test]
    fn key_distribution_is_near_uniform() {
        const NODES: usize = 5;
        const KEYS: u64 = 50_000;
        let ring = Ring::new(members(NODES));
        let mut counts = vec![0u64; NODES];
        for hash in sample_keys(KEYS) {
            let owner = ring.owner(hash).unwrap();
            let index = ring.nodes().iter().position(|n| n == owner).unwrap();
            counts[index] += 1;
        }
        let expected = KEYS as f64 / NODES as f64;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        // Arc-length variance dominates at this key count: with 128
        // vnodes the per-node share deviates a few percent from 1/N, so
        // chi2 scales with KEYS. Normalised per key it must stay small;
        // a collapsed node would push shares to 0 and blow past this.
        assert!(
            chi2 / KEYS as f64 <= 0.05,
            "chi-square per key too high: chi2={chi2:.1} counts={counts:?}"
        );
        for (index, &c) in counts.iter().enumerate() {
            let share = c as f64 / KEYS as f64;
            assert!(
                (0.5 / NODES as f64..2.0 / NODES as f64).contains(&share),
                "node {index} share {share:.4} outside [0.5/N, 2/N)"
            );
        }
    }

    /// Satellite: a join moves keys only *to* the joiner — strictly, not
    /// probabilistically — and the moved fraction is near 1/N.
    #[test]
    fn join_moves_only_keys_claimed_by_the_new_node() {
        const KEYS: u64 = 20_000;
        let before = Ring::new(members(8));
        let mut grown = members(8);
        grown.push("10.0.1.99:7000".to_string());
        let after = Ring::new(grown);

        let mut moved = 0u64;
        for hash in sample_keys(KEYS) {
            let old = before.owner(hash).unwrap();
            let new = after.owner(hash).unwrap();
            if old != new {
                assert_eq!(
                    new, "10.0.1.99:7000",
                    "join may only move keys to the joiner"
                );
                moved += 1;
            }
        }
        let fraction = moved as f64 / KEYS as f64;
        // Expected share is 1/9 ≈ 0.111; allow 2x for vnode variance.
        assert!(
            fraction > 0.0 && fraction <= 2.0 / 9.0,
            "join remapped fraction {fraction:.4} exceeds ~1/N bound"
        );
    }

    /// Satellite: a leave moves only the leaver's keys; survivors keep
    /// every key they already owned.
    #[test]
    fn leave_strands_only_the_leavers_keys() {
        const KEYS: u64 = 20_000;
        let full = members(8);
        let leaver = full[3].clone();
        let before = Ring::new(full.clone());
        let after = Ring::new(full.iter().filter(|n| **n != leaver).cloned());

        let mut moved = 0u64;
        for hash in sample_keys(KEYS) {
            let old = before.owner(hash).unwrap();
            let new = after.owner(hash).unwrap();
            if old != new {
                assert_eq!(old, leaver, "leave may only move the leaver's keys");
                moved += 1;
            }
        }
        let fraction = moved as f64 / KEYS as f64;
        assert!(
            fraction > 0.0 && fraction <= 2.0 / 8.0,
            "leave remapped fraction {fraction:.4} exceeds ~1/N bound"
        );
    }

    /// Satellite: pinned layout snapshot. If this changes, every cached
    /// trace in a mixed-version cluster lands on the wrong owner —
    /// bump it only with a deliberate wire-protocol version bump.
    #[test]
    fn ring_layout_is_pinned() {
        let ring = Ring::new(["10.0.0.1:7000", "10.0.0.2:7000", "10.0.0.3:7000"]);
        let digest = ring.layout_digest();
        let owners: Vec<&str> = ["alpha", "beta", "gamma", "delta"]
            .iter()
            .map(|k| ring.owner(fnv1a(k.as_bytes())).unwrap())
            .collect();
        assert_eq!(
            (digest, owners.as_slice()),
            (PINNED_DIGEST, PINNED_OWNERS.as_slice()),
            "ring layout drifted; this breaks cross-version trace locality"
        );
    }

    // Frozen by running the construction once; see the test above.
    const PINNED_DIGEST: u64 = 6779322587919255427;
    const PINNED_OWNERS: [&str; 4] = [
        "10.0.0.2:7000",
        "10.0.0.3:7000",
        "10.0.0.1:7000",
        "10.0.0.1:7000",
    ];
}
