//! The persistent trace store: pay for each full simulation once per
//! machine, not once per process.
//!
//! A [`TraceStore`] is a content-addressed cache directory of `swtrace`
//! files (see `softwatt_stats::swtrace`). Entries are keyed by a
//! [`TraceKey`]: a stable 64-bit hash of the *policy-independent* run
//! identity — benchmark, CPU model, and every [`SystemConfig`] field that
//! can change the captured work stream (time scale, seed, memory geometry,
//! core widths, OS parameters, sampling interval, ...). Disk policy and
//! idle handling are deliberately normalized out: a captured trace replays
//! through any disk policy, so one entry serves every policy variant.
//!
//! The store is a *cache*, never a source of truth, so every failure mode
//! degrades to "simulate it again":
//!
//! - lookups that find nothing are misses;
//! - entries that fail to parse (bad magic, truncation, checksum or
//!   key-descriptor mismatch, stale format version) are counted as corrupt,
//!   logged, deleted, and treated as misses;
//! - writes are crash-safe (temp file in the same directory, fsync, atomic
//!   rename) and best-effort — a full disk loses the cache entry, not the
//!   run.
//!
//! Atomic renames also make concurrent use by multiple processes safe: a
//! reader sees either the complete old entry or the complete new one, and
//! two writers racing on the same key both produce identical bytes (runs
//! are deterministic), so either winner is correct.

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use softwatt_stats::hash::fnv1a;
use softwatt_stats::swtrace::SWTRACE_VERSION;
use softwatt_stats::PerfTrace;

use crate::config::{CpuModel, IdleHandling, SystemConfig};
use crate::experiments::WorkloadKey;

/// The content address of one stored trace.
///
/// The descriptor string is the full human-readable identity (it rides
/// along inside the entry as the annotation, so a hash collision or a
/// config drift is detected on load); the hash names the file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceKey {
    descriptor: String,
    hash: u64,
}

impl TraceKey {
    /// Derives the key for one (config, workload, CPU) run.
    ///
    /// The descriptor's workload slot is the [`WorkloadKey::label`]: the
    /// benchmark name for a canned benchmark, `spec:<16-hex-digit content
    /// hash>` for a registered spec. `spec:` is not a benchmark name, so
    /// spec entries can never collide with canned ones.
    ///
    /// Policy-dependent fields are normalized before hashing: the CPU field
    /// is set to `cpu`, idle handling to [`IdleHandling::Analytic`] (the
    /// only mode traces are captured under), and the disk *policy* to
    /// conventional — the captured work stream does not depend on it. Every
    /// other field participates via the config's `Debug` rendering, whose
    /// f64 formatting is shortest-round-trip and therefore exact. The
    /// `swtrace` format version is folded in so a codec change invalidates
    /// every old entry at once.
    pub fn derive(
        config: &SystemConfig,
        workload: impl Into<WorkloadKey>,
        cpu: CpuModel,
    ) -> TraceKey {
        let mut canonical = config.clone();
        canonical.cpu = cpu;
        canonical.idle = IdleHandling::Analytic;
        canonical.disk.policy = softwatt_disk::DiskPolicy::Conventional;
        let workload = workload.into();
        let descriptor = format!("swtrace-v{SWTRACE_VERSION}|{workload}|{canonical:?}");
        let hash = fnv1a(descriptor.as_bytes());
        TraceKey { descriptor, hash }
    }

    /// The full identity string (stored inside the entry as its
    /// annotation).
    pub fn descriptor(&self) -> &str {
        &self.descriptor
    }

    /// The stable 64-bit content hash (names the cache file).
    pub fn hash(&self) -> u64 {
        self.hash
    }
}

/// A source of `swtrace` bytes from cluster peers.
///
/// The suite's trace lookup grows a fourth tier through this hook
/// (memo → store → **peer fetch** → capture) without `softwatt` itself
/// learning any networking: the `softwatt-fabric` crate implements it
/// over the peer protocol, and the suite stays testable with an in-memory
/// fake. Implementations decide ownership (consistent-hash ring) and
/// return `None` for keys this node owns, keys no peer can serve, or any
/// transport failure — every `None` degrades to a local simulation.
pub trait PeerSource: Send + Sync + std::fmt::Debug {
    /// Raw `swtrace` bytes for `key` from its owning peer, or `None`.
    ///
    /// `workload` and `cpu` are the wire labels (`jess`, `spec:ab12…` /
    /// `mxs`, `mipsy`) the owner needs to capture the trace on demand;
    /// the returned bytes are *untrusted* until the caller parses,
    /// checksum-verifies, and descriptor-matches them against `key`.
    fn fetch(&self, key: &TraceKey, workload: &str, cpu: &str) -> Option<Vec<u8>>;
}

/// A content-addressed on-disk cache of captured [`PerfTrace`]s. See the
/// module docs for the failure-mode contract.
#[derive(Debug, Clone)]
pub struct TraceStore {
    dir: PathBuf,
    /// Soft byte cap on the directory's `.swtrace` total; `None` = no cap.
    max_bytes: Option<u64>,
}

impl TraceStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Returns the error from creating the directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<TraceStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(TraceStore {
            dir,
            max_bytes: None,
        })
    }

    /// Sets a soft cap on the directory's total `.swtrace` bytes.
    ///
    /// Enforced after every write by evicting oldest-mtime entries first
    /// (never the entry just written, so a single oversized trace still
    /// caches and replays). Soft: concurrent writers can overshoot by a
    /// few entries between enforcement passes — eviction is disk hygiene,
    /// not an accounting invariant, and every evicted entry is just a
    /// future cache miss.
    #[must_use]
    pub fn with_max_bytes(mut self, max_bytes: Option<u64>) -> TraceStore {
        self.max_bytes = max_bytes;
        self
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file an entry for `key` lives at.
    pub fn entry_path(&self, key: &TraceKey) -> PathBuf {
        self.dir.join(format!("{:016x}.swtrace", key.hash))
    }

    /// Whether an entry file exists for `key`, without reading it.
    ///
    /// A cheap existence probe for admission decisions: a `true` here can
    /// still turn into a load-time miss if the entry is corrupt (the
    /// loader deletes it and the caller simulates), so treat the answer
    /// as a cost hint, not a guarantee.
    pub fn contains(&self, key: &TraceKey) -> bool {
        self.entry_path(key).exists()
    }

    /// Looks `key` up, returning the stored trace on a hit.
    ///
    /// Never errors: a missing entry is a miss; an unreadable or corrupt
    /// entry (bad magic, truncation, checksum mismatch, stale format
    /// version, annotation that does not match the key descriptor) is
    /// counted, logged, *deleted*, and reported as a miss. The caller's
    /// only fallback is a fresh simulation either way.
    pub fn load(&self, key: &TraceKey) -> Option<PerfTrace> {
        let path = self.entry_path(key);
        let file = match fs::File::open(&path) {
            Ok(f) => f,
            Err(e) => {
                if e.kind() != io::ErrorKind::NotFound {
                    softwatt_obs::obs_event!(
                        softwatt_obs::Level::Warn,
                        "store",
                        "cannot open trace cache entry {}: {e}",
                        path.display()
                    );
                }
                softwatt_obs::count("trace_store.misses", 1);
                return None;
            }
        };
        let _span = softwatt_obs::span("store.load_ns");
        let parsed = PerfTrace::from_binary(io::BufReader::new(file)).and_then(|(trace, note)| {
            if note == key.descriptor.as_bytes() {
                Ok(trace)
            } else {
                Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "entry annotation does not match the key descriptor \
                     (hash collision or config drift)",
                ))
            }
        });
        match parsed {
            Ok(trace) => {
                softwatt_obs::count("trace_store.hits", 1);
                trace
            }
            Err(e) => {
                softwatt_obs::count("trace_store.corrupt", 1);
                softwatt_obs::count("trace_store.misses", 1);
                softwatt_obs::obs_event!(
                    softwatt_obs::Level::Warn,
                    "store",
                    "corrupt trace cache entry {} ({e}); deleting and re-simulating",
                    path.display()
                );
                self.evict(&path);
                return None;
            }
        }
        .into()
    }

    /// Persists `trace` under `key`: encodes it, then writes the bytes
    /// through [`TraceStore::store_raw`].
    pub fn store(&self, key: &TraceKey, trace: &PerfTrace) {
        let mut bytes = Vec::new();
        trace
            .to_binary(&mut bytes, key.descriptor.as_bytes())
            .expect("encoding to a Vec cannot fail");
        self.store_raw(key, &bytes);
    }

    /// Persists already-encoded `swtrace` bytes under `key`,
    /// crash-safely: the bytes land in a temp file in the store directory,
    /// are fsynced, and are renamed over the final name, so concurrent
    /// readers and a crash mid-write can never observe a partial entry.
    /// Callers must have validated the bytes (the peer-fetch tier parses
    /// and descriptor-checks before persisting); the store itself stays
    /// agnostic.
    ///
    /// Best-effort: failures are logged as obs events and swallowed — the
    /// caller already has the trace, and the store is only a cache.
    pub fn store_raw(&self, key: &TraceKey, bytes: &[u8]) {
        let _span = softwatt_obs::span("store.write_ns");
        let tmp = self
            .dir
            .join(format!(".tmp-{:016x}-{}", key.hash, std::process::id()));
        let write = || -> io::Result<()> {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(bytes)?;
            file.flush()?;
            file.sync_all()?;
            drop(file);
            fs::rename(&tmp, self.entry_path(key))
        };
        match write() {
            Ok(()) => {
                softwatt_obs::count("trace_store.writes", 1);
                self.enforce_cap(&self.entry_path(key));
            }
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                softwatt_obs::obs_event!(
                    softwatt_obs::Level::Warn,
                    "store",
                    "cannot persist trace cache entry {} ({e}); continuing without it",
                    self.entry_path(key).display()
                );
            }
        }
    }

    /// Brings the directory back under the soft byte cap (when one is
    /// set) by deleting oldest-mtime entries first. `just_written` is
    /// exempt — the entry that triggered enforcement always survives it.
    ///
    /// Races with concurrent writers are benign: sizes and mtimes are a
    /// snapshot, a doomed entry that another process re-renames is simply
    /// re-deleted (identical bytes), and a `NotFound` on delete means
    /// someone else already evicted it.
    fn enforce_cap(&self, just_written: &Path) {
        let Some(cap) = self.max_bytes else { return };
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return;
        };
        let mut seen: Vec<(std::time::SystemTime, u64, PathBuf)> = Vec::new();
        let mut total = 0u64;
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().is_none_or(|e| e != "swtrace") {
                continue;
            }
            let Ok(meta) = entry.metadata() else { continue };
            total += meta.len();
            if path != just_written {
                let mtime = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
                seen.push((mtime, meta.len(), path));
            }
        }
        if total <= cap {
            return;
        }
        // Oldest first; the path tie-break keeps eviction order
        // deterministic when a burst of writes lands within one mtime
        // granule.
        seen.sort();
        for (_, len, path) in seen {
            if total <= cap {
                break;
            }
            softwatt_obs::obs_event!(
                softwatt_obs::Level::Info,
                "store",
                "evicting {} ({len} bytes) to respect the {cap}-byte cache cap",
                path.display()
            );
            self.evict(&path);
            total = total.saturating_sub(len);
        }
    }

    fn evict(&self, path: &Path) {
        match fs::remove_file(path) {
            Ok(()) => softwatt_obs::count("trace_store.evictions", 1),
            // Already gone is fine — another process may have evicted it.
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => softwatt_obs::obs_event!(
                softwatt_obs::Level::Warn,
                "store",
                "cannot delete corrupt trace cache entry {}: {e}",
                path.display()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;
    use softwatt_workloads::Benchmark;

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("swstore-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn quick_config() -> SystemConfig {
        SystemConfig {
            time_scale: 50_000.0,
            idle: IdleHandling::Analytic,
            ..SystemConfig::default()
        }
    }

    #[test]
    fn key_ignores_policy_dependent_fields() {
        let config = quick_config();
        let base = TraceKey::derive(&config, Benchmark::Jess, CpuModel::Mxs);

        let mut policy = config.clone();
        policy.disk.policy = softwatt_disk::DiskPolicy::Standby { threshold_s: 2.0 };
        policy.idle = IdleHandling::Simulate;
        assert_eq!(
            TraceKey::derive(&policy, Benchmark::Jess, CpuModel::Mxs),
            base,
            "disk policy and idle handling must not change the key"
        );

        let mut scaled = config.clone();
        scaled.time_scale = 60_000.0;
        let mut seeded = config.clone();
        seeded.seed ^= 1;
        for (what, other) in [
            (
                "benchmark",
                TraceKey::derive(&config, Benchmark::Db, CpuModel::Mxs),
            ),
            (
                "cpu model",
                TraceKey::derive(&config, Benchmark::Jess, CpuModel::Mipsy),
            ),
            (
                "time scale",
                TraceKey::derive(&scaled, Benchmark::Jess, CpuModel::Mxs),
            ),
            (
                "seed",
                TraceKey::derive(&seeded, Benchmark::Jess, CpuModel::Mxs),
            ),
        ] {
            assert_ne!(other, base, "{what} must change the key");
            assert_ne!(other.hash(), base.hash(), "{what} must change the hash");
        }
    }

    /// The descriptor is the `Debug` text of the canonical config, so any
    /// drift in a config struct's fields or derived `Debug` (a cache
    /// geometry growing a precomputed field, say) changes every key and
    /// silently empties every store. Nothing else fails when that happens,
    /// so the text and its hash are pinned here; a deliberate change
    /// updates both.
    #[test]
    fn trace_key_descriptor_is_pinned() {
        let config = SystemConfig {
            time_scale: 2000.0,
            ..SystemConfig::default()
        };
        let key = TraceKey::derive(&config, Benchmark::Jess, CpuModel::Mxs);
        let descriptor = concat!(
            "swtrace-v2|jess|SystemConfig { cpu: Mxs, mem: MemConfig { il1: CacheGeometry { size_bytes: 32768, line_bytes: 64, assoc: 2 }, ",
            "dl1: CacheGeometry { size_bytes: 32768, line_bytes: 64, assoc: 2 }, ",
            "l2: CacheGeometry { size_bytes: 1048576, line_bytes: 128, assoc: 2 }, tlb_entries: 64, ",
            "l1_hit_cycles: 2, l2_hit_cycles: 12, dram_cycles: 60, memory_mb: 128 }, ",
            "mxs: MxsConfig { fetch_width: 4, decode_width: 4, issue_width: 4, commit_width: 4, ",
            "window_size: 64, lsq_size: 32, int_units: 2, fp_units: 2, mem_ports: 1, bht_entries: 1024, ",
            "btb_entries: 1024, ras_entries: 32, mispredict_penalty: 4, fetch_buffer: 8 }, ",
            "mipsy: MipsyConfig { taken_branch_penalty: 1 }, disk: DiskConfig { policy: Conventional, ",
            "power: DiskPowerTable { sleep_w: 0.15, standby_w: 0.35, idle_w: 1.6, active_w: 3.2, ",
            "seeking_w: 4.1, spinup_w: 4.2 }, timings: DiskTimings { spin_up_s: 5.0, spin_down_s: 5.0, ",
            "avg_seek_ms: 13.0, avg_rotation_ms: 3.6, transfer_mb_s: 5.0 } }, ",
            "os: OsConfig { file_cache_blocks: 2048, timer_interval_s: 2.0, tlb_slow_path_prob: 0.004, ",
            "vfault_frac: 0.3, cacheflush_per_kinstr: 0.0, seed: 42 }, freq_hz: 200000000.0, ",
            "time_scale: 2000.0, sample_interval_cycles: 2000, seed: 45223, idle: Analytic }"
        );
        assert_eq!(key.descriptor(), descriptor);
        assert_eq!(format!("{:016x}", key.hash()), "554a4147b1afddcf");
    }

    #[test]
    fn spec_keys_are_disjoint_from_canned_keys() {
        let config = quick_config();
        let canned = TraceKey::derive(&config, Benchmark::Jess, CpuModel::Mxs);
        let spec = TraceKey::derive(&config, WorkloadKey::Spec(0xabcd), CpuModel::Mxs);
        assert_ne!(spec, canned, "spec token must change the descriptor");
        assert!(spec.descriptor().contains("spec:000000000000abcd"));
        assert_ne!(
            TraceKey::derive(&config, WorkloadKey::Spec(0xabce), CpuModel::Mxs),
            spec,
            "content hash must change the key"
        );
        let mut other_cpu = config.clone();
        other_cpu.cpu = CpuModel::Mipsy;
        assert_eq!(
            TraceKey::derive(&other_cpu, WorkloadKey::Spec(0xabcd), CpuModel::Mxs),
            spec,
            "spec keys normalize policy-dependent fields like canned keys"
        );
    }

    #[test]
    fn store_round_trips_a_captured_trace() {
        let dir = test_dir("roundtrip");
        let store = TraceStore::open(&dir).unwrap();
        let config = quick_config();
        let sim = Simulator::new(config.clone()).unwrap();
        let trace = sim.run_benchmark_traced(Benchmark::Jess).1;
        let key = TraceKey::derive(&config, Benchmark::Jess, config.cpu);

        assert!(store.load(&key).is_none(), "store starts empty");
        store.store(&key, &trace);
        assert_eq!(store.load(&key).as_ref(), Some(&trace));

        // A different key misses even though the file for `key` exists.
        let other = TraceKey::derive(&config, Benchmark::Db, config.cpu);
        assert!(store.load(&other).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn byte_cap_evicts_oldest_first_but_never_the_new_entry() {
        let dir = test_dir("cap");
        let store = TraceStore::open(&dir).unwrap();
        let config = quick_config();
        let sim = Simulator::new(config.clone()).unwrap();
        let trace = sim.run_benchmark_traced(Benchmark::Jess).1;
        // Spec-derived keys give unlimited distinct entries from one
        // captured trace; their descriptors (and so entry sizes) match to
        // the byte.
        let key = |i: u64| TraceKey::derive(&config, WorkloadKey::Spec(i), config.cpu);

        store.store(&key(0), &trace);
        let entry_len = fs::metadata(store.entry_path(&key(0))).unwrap().len();
        std::thread::sleep(std::time::Duration::from_millis(20));
        store.store(&key(1), &trace);
        std::thread::sleep(std::time::Duration::from_millis(20));

        // Room for two entries: writing a third must evict exactly the
        // oldest, and the entry just written must survive its own pass.
        let capped = store.clone().with_max_bytes(Some(entry_len * 2 + 1));
        capped.store(&key(2), &trace);
        assert!(!capped.contains(&key(0)), "oldest entry evicted by the cap");
        assert!(capped.contains(&key(1)), "newer entry kept");
        assert!(capped.contains(&key(2)), "just-written entry never evicted");

        // A cap smaller than one entry still keeps the fresh write (the
        // cap is soft) while sweeping everything else.
        let tiny = store.clone().with_max_bytes(Some(1));
        tiny.store(&key(3), &trace);
        assert!(tiny.contains(&key(3)), "fresh write survives a tiny cap");
        assert!(!tiny.contains(&key(1)), "everything else swept");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn byte_cap_is_safe_under_concurrent_writers() {
        let dir = test_dir("cap-concurrent");
        let config = quick_config();
        let sim = Simulator::new(config.clone()).unwrap();
        let trace = std::sync::Arc::new(sim.run_benchmark_traced(Benchmark::Jess).1);
        let probe = TraceStore::open(&dir).unwrap();
        let probe_key = TraceKey::derive(&config, WorkloadKey::Spec(999), config.cpu);
        probe.store(&probe_key, &trace);
        let entry_len = fs::metadata(probe.entry_path(&probe_key)).unwrap().len();
        let cap = entry_len * 3;

        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let dir = dir.clone();
                let config = config.clone();
                let trace = std::sync::Arc::clone(&trace);
                std::thread::spawn(move || {
                    let store = TraceStore::open(&dir).unwrap().with_max_bytes(Some(cap));
                    for i in 0..8u64 {
                        store.store(
                            &TraceKey::derive(&config, WorkloadKey::Spec(t * 100 + i), config.cpu),
                            &trace,
                        );
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("writer panicked");
        }

        // Soft cap: each enforcement pass exempts its own fresh entry, so
        // racing writers can overshoot by at most one entry each — but the
        // steady state lands at (cap + one entry) or below, and every
        // surviving entry still parses.
        let total: u64 = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "swtrace"))
            .map(|e| e.metadata().unwrap().len())
            .sum();
        assert!(
            total <= cap + entry_len,
            "total {total} exceeds cap {cap} by more than one entry ({entry_len})"
        );
        let survivors: Vec<_> = (0..4u64)
            .flat_map(|t| (0..8u64).map(move |i| t * 100 + i))
            .map(|h| TraceKey::derive(&config, WorkloadKey::Spec(h), config.cpu))
            .filter(|k| probe.contains(k))
            .collect();
        assert!(!survivors.is_empty(), "the cap left some entries behind");
        for key in survivors {
            assert!(probe.load(&key).is_some(), "survivor must parse cleanly");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn raw_bytes_round_trip_and_serve_peers() {
        let dir = test_dir("raw");
        let store = TraceStore::open(&dir).unwrap();
        let config = quick_config();
        let sim = Simulator::new(config.clone()).unwrap();
        let trace = sim.run_benchmark_traced(Benchmark::Jess).1;
        let key = TraceKey::derive(&config, Benchmark::Jess, config.cpu);

        assert!(!store.contains(&key), "no entry, no bytes");
        store.store(&key, &trace);
        let bytes = fs::read(store.entry_path(&key)).expect("raw bytes of the entry");
        let (parsed, note) =
            PerfTrace::from_binary(io::Cursor::new(&bytes)).expect("raw bytes parse");
        assert_eq!(parsed, trace);
        assert_eq!(note, key.descriptor().as_bytes());

        // store_raw persists pre-encoded bytes identically (the
        // peer-receive path).
        let other = TraceKey::derive(&config, WorkloadKey::Spec(7), config.cpu);
        let mut peer_bytes = Vec::new();
        trace
            .to_binary(&mut peer_bytes, other.descriptor().as_bytes())
            .unwrap();
        store.store_raw(&other, &peer_bytes);
        assert_eq!(store.load(&other).as_ref(), Some(&trace));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entry_is_deleted_and_misses() {
        let dir = test_dir("corrupt");
        let store = TraceStore::open(&dir).unwrap();
        let config = quick_config();
        let sim = Simulator::new(config.clone()).unwrap();
        let trace = sim.run_benchmark_traced(Benchmark::Jess).1;
        let key = TraceKey::derive(&config, Benchmark::Jess, config.cpu);
        store.store(&key, &trace);

        let path = store.entry_path(&key);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&path, &bytes).unwrap();

        assert!(store.load(&key).is_none(), "corrupt entry must miss");
        assert!(!path.exists(), "corrupt entry must be deleted");
        assert!(store.load(&key).is_none(), "second lookup is a plain miss");
        let _ = fs::remove_dir_all(&dir);
    }
}
