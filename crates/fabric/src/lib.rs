//! # softwatt-fabric — the peer trace cache
//!
//! Clusters of `softwatt-serve` processes share one logical trace cache,
//! with no shared filesystem and no external services — `std::net` and
//! the `swtrace` codec are the whole stack.
//!
//! Every node derives the same consistent-hash [`ring::Ring`] from the
//! membership list, so a trace key has one *owner* the whole cluster
//! agrees on. A local store miss fetches the owner's `swtrace` bytes
//! over its ordinary HTTP port ([`peer`]) before falling back to
//! simulation; the owner captures on miss, so N simultaneous
//! cluster-wide misses cost one simulation. Every byte is checksum- and
//! descriptor-verified on arrival, and every failure mode (dead peer,
//! mid-stream disconnect, corrupt bytes) degrades to local simulation —
//! the fabric can make a cluster faster, never incorrect. A cold grid is
//! spread across the cluster by sending `/v1/batch` to the peered
//! servers: each node captures only the traces it owns.
//!
//! See `DESIGN.md` §14 for the ring and the failure matrix.

pub mod peer;
pub mod ring;

pub use peer::{PeerClient, DEFAULT_FETCH_TIMEOUT};
pub use ring::Ring;
