//! One entry point per table and figure of the paper's evaluation.
//!
//! [`ExperimentSuite`] memoizes work at two levels. A full simulation runs
//! once per distinct (benchmark, CPU model) pair and captures a
//! policy-independent [`PerfTrace`]; every (benchmark, CPU, disk policy)
//! bundle is then *derived* from that trace by replaying the disk request
//! stream through the requested policy ([`Simulator::replay_trace`]) —
//! exactly reproducing what a direct simulation would have produced, at a
//! fraction of the cost. `DESIGN.md` §5 maps each method here to its paper
//! artifact; `EXPERIMENTS.md` records paper-vs-measured values.

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};

use softwatt_disk::{DiskConfig, DiskMode, DiskPolicy, DiskPowerTable};
use softwatt_os::KernelService;
use softwatt_power::{GroupPower, PowerModel, UnitGroup};
use softwatt_stats::{Mode, PerfTrace};
use softwatt_workloads::{Benchmark, BenchmarkSpec};

use crate::budget::{system_budget, SystemBudget};
use crate::config::{CpuModel, IdleHandling, SystemConfig};
use crate::report::{joules, pct};
use crate::sim::{RunResult, Simulator};
use crate::store::{PeerSource, TraceKey, TraceStore};

/// Discrete disk configurations of the Section 4 study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiskSetup {
    /// Configuration 1: conventional (always ACTIVE).
    Conventional,
    /// Configuration 2: IDLE after each request.
    IdleOnly,
    /// Configuration 3: 2 s spin-down threshold.
    Standby2s,
    /// Configuration 4: 4 s spin-down threshold.
    Standby4s,
    /// Extension (not in the paper's four): 2 s spin-down plus a SLEEP
    /// command after 10 further seconds in STANDBY.
    SleepExt,
}

impl DiskSetup {
    /// The four configurations in paper order.
    pub const ALL: [DiskSetup; 4] = [
        DiskSetup::Conventional,
        DiskSetup::IdleOnly,
        DiskSetup::Standby2s,
        DiskSetup::Standby4s,
    ];

    /// The disk policy this setup selects.
    pub fn policy(self) -> DiskPolicy {
        match self {
            DiskSetup::Conventional => DiskPolicy::Conventional,
            DiskSetup::IdleOnly => DiskPolicy::IdleWhenNotBusy,
            DiskSetup::Standby2s => DiskPolicy::Standby { threshold_s: 2.0 },
            DiskSetup::Standby4s => DiskPolicy::Standby { threshold_s: 4.0 },
            DiskSetup::SleepExt => DiskPolicy::Sleep {
                threshold_s: 2.0,
                sleep_after_s: 10.0,
            },
        }
    }

    /// Stable short name used by CLIs and the serving API (the inverse of
    /// [`DiskSetup::from_name`]).
    pub fn name(self) -> &'static str {
        match self {
            DiskSetup::Conventional => "conv",
            DiskSetup::IdleOnly => "idle",
            DiskSetup::Standby2s => "standby2",
            DiskSetup::Standby4s => "standby4",
            DiskSetup::SleepExt => "sleep",
        }
    }

    /// Parses a [`DiskSetup::name`]; `None` for an unknown name.
    pub fn from_name(name: &str) -> Option<DiskSetup> {
        match name {
            "conv" => Some(DiskSetup::Conventional),
            "idle" => Some(DiskSetup::IdleOnly),
            "standby2" => Some(DiskSetup::Standby2s),
            "standby4" => Some(DiskSetup::Standby4s),
            "sleep" => Some(DiskSetup::SleepExt),
            _ => None,
        }
    }

    /// Display label (paper legend).
    pub fn label(self) -> &'static str {
        match self {
            DiskSetup::Conventional => "Baseline",
            DiskSetup::IdleOnly => "Without Spindowns",
            DiskSetup::Standby2s => "With 2 Sec. Spindown",
            DiskSetup::Standby4s => "With 4 Sec. Spindown",
            DiskSetup::SleepExt => "With SLEEP (ext.)",
        }
    }
}

/// The workload half of a [`RunKey`]: one of the six canned paper
/// benchmarks, or a user-supplied [`BenchmarkSpec`] addressed by its
/// [`BenchmarkSpec::content_hash`]. Both variants are `Copy` so the key
/// stays cheap; the spec body itself lives in the suite's registry
/// ([`ExperimentSuite::register_spec`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKey {
    /// A canned paper benchmark, addressed by name.
    Canned(Benchmark),
    /// A registered user spec, addressed by content hash.
    Spec(u64),
}

impl WorkloadKey {
    /// The canned benchmark, if this is one.
    pub fn canned(self) -> Option<Benchmark> {
        match self {
            WorkloadKey::Canned(b) => Some(b),
            WorkloadKey::Spec(_) => None,
        }
    }

    /// Stable label: the benchmark name for canned workloads,
    /// `spec:<16-hex-digit content hash>` for registered specs. This is
    /// the string API clients and log lines see.
    pub fn label(self) -> String {
        match self {
            WorkloadKey::Canned(b) => b.name().to_string(),
            WorkloadKey::Spec(hash) => format!("spec:{hash:016x}"),
        }
    }

    /// Parses a [`WorkloadKey::label`]; `None` for an unknown name or a
    /// malformed `spec:` hash.
    pub fn from_label(label: &str) -> Option<WorkloadKey> {
        if let Some(hex) = label.strip_prefix("spec:") {
            if hex.len() != 16 {
                return None;
            }
            return u64::from_str_radix(hex, 16).ok().map(WorkloadKey::Spec);
        }
        Benchmark::from_name(label).map(WorkloadKey::Canned)
    }
}

/// Why [`ExperimentSuite::resolve`] refused a workload label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnknownWorkload {
    /// Neither a benchmark name nor a well-formed `spec:<hash>` label.
    Label,
    /// A well-formed spec label whose spec the suite has not registered.
    Unregistered,
}

impl From<Benchmark> for WorkloadKey {
    fn from(b: Benchmark) -> WorkloadKey {
        WorkloadKey::Canned(b)
    }
}

impl fmt::Display for WorkloadKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// One machine setup the suite can simulate: the memoization key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RunKey {
    /// Workload: canned benchmark or registered spec.
    pub workload: WorkloadKey,
    /// CPU model.
    pub cpu: CpuModel,
    /// Disk power-management configuration.
    pub disk: DiskSetup,
}

impl RunKey {
    /// The key for a canned paper benchmark.
    pub fn canned(benchmark: Benchmark, cpu: CpuModel, disk: DiskSetup) -> RunKey {
        RunKey {
            workload: WorkloadKey::Canned(benchmark),
            cpu,
            disk,
        }
    }
}

/// A memoized run plus the power model it should be post-processed with.
#[derive(Debug)]
pub struct RunBundle {
    /// The simulation outcome.
    pub run: RunResult,
    /// The matching analytical power model.
    pub model: PowerModel,
}

/// A memo slot: either the finished value, or a ticket other threads
/// wait on while the claiming thread computes it.
#[derive(Debug)]
enum Slot<T> {
    Ready(Arc<T>),
    Pending(Arc<InFlight<T>>),
}

/// Completion ticket for an in-flight computation.
#[derive(Debug)]
struct InFlight<T> {
    done: Mutex<Option<Arc<T>>>,
    cv: Condvar,
}

impl<T> Default for InFlight<T> {
    fn default() -> Self {
        InFlight {
            done: Mutex::new(None),
            cv: Condvar::new(),
        }
    }
}

/// Counter names one memo map reports under (cache outcome telemetry for
/// the `softwatt-obs` registry).
struct MemoMetrics {
    hit: &'static str,
    miss: &'static str,
    wait: &'static str,
}

/// The (benchmark, CPU, policy) → bundle memo.
const BUNDLE_MEMO: MemoMetrics = MemoMetrics {
    hit: "suite.bundle.cache_hits",
    miss: "suite.bundle.cache_misses",
    wait: "suite.bundle.inflight_waits",
};

/// The (benchmark, CPU) → captured-trace memo.
const TRACE_MEMO: MemoMetrics = MemoMetrics {
    hit: "suite.trace.cache_hits",
    miss: "suite.trace.cache_misses",
    wait: "suite.trace.inflight_waits",
};

/// Claims `key` in `map` and computes it with `build`, or waits for (and
/// shares) the result another thread is already computing. `build` runs
/// outside the map lock, so distinct keys proceed in parallel.
fn memoize<K, T>(
    map: &Mutex<HashMap<K, Slot<T>>>,
    key: K,
    metrics: &MemoMetrics,
    build: impl FnOnce() -> T,
) -> Arc<T>
where
    K: Eq + Hash + Copy,
{
    let ticket = {
        let mut slots = map.lock().expect("memo lock");
        match slots.get(&key) {
            Some(Slot::Ready(value)) => {
                softwatt_obs::count(metrics.hit, 1);
                return Arc::clone(value);
            }
            Some(Slot::Pending(inflight)) => Some(Arc::clone(inflight)),
            None => {
                slots.insert(key, Slot::Pending(Arc::new(InFlight::default())));
                None
            }
        }
    };

    if let Some(inflight) = ticket {
        // Another thread is computing this key; wait for its result.
        softwatt_obs::count(metrics.wait, 1);
        let _wait_span = softwatt_obs::span("suite.inflight_wait_ns");
        let mut done = inflight.done.lock().expect("inflight lock");
        while done.is_none() {
            done = inflight.cv.wait(done).expect("inflight wait");
        }
        return Arc::clone(done.as_ref().expect("completed value"));
    }
    softwatt_obs::count(metrics.miss, 1);

    let value = Arc::new(build());
    let mut slots = map.lock().expect("memo lock");
    let Some(Slot::Pending(inflight)) = slots.insert(key, Slot::Ready(Arc::clone(&value))) else {
        unreachable!("claimed slot must still be pending");
    };
    drop(slots);
    *inflight.done.lock().expect("inflight lock") = Some(Arc::clone(&value));
    inflight.cv.notify_all();
    value
}

// Everything the worker threads exchange must stay shareable; a field
// regressing to `Rc`/`RefCell` should fail here, not at a call site.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<RunBundle>();
    assert_send_sync::<RunResult>();
    assert_send_sync::<PowerModel>();
    assert_send_sync::<softwatt_stats::SimLog>();
    assert_send_sync::<PerfTrace>();
};

/// The experiment driver. See the module docs.
///
/// Thread-safe: any number of threads may call [`ExperimentSuite::run`]
/// concurrently. Each distinct [`RunKey`] is simulated exactly once — a
/// thread requesting a key another thread is already simulating blocks
/// until that simulation finishes and then shares the same bundle.
#[derive(Debug)]
pub struct ExperimentSuite {
    config: SystemConfig,
    runs: Mutex<HashMap<RunKey, Slot<RunBundle>>>,
    traces: Mutex<HashMap<(WorkloadKey, CpuModel), Slot<PerfTrace>>>,
    specs: RwLock<HashMap<u64, Arc<BenchmarkSpec>>>,
    replay_enabled: bool,
    store: Option<TraceStore>,
    peers: Option<Arc<dyn PeerSource>>,
    /// Where each memoized trace came from (`"local"` store hit, `"peer"`
    /// fetch, `"sim"` capture), for the `X-Softwatt-Source` header.
    trace_sources: Mutex<HashMap<(WorkloadKey, CpuModel), &'static str>>,
    executed: AtomicUsize,
    replays: AtomicUsize,
    store_loads: AtomicUsize,
    peer_loads: AtomicUsize,
}

impl ExperimentSuite {
    /// Creates a suite over a base configuration (CPU model and disk
    /// policy fields are overridden per experiment).
    ///
    /// All runs use [`IdleHandling::Analytic`], which makes the simulated
    /// work stream independent of the disk policy; the suite exploits that
    /// by fully simulating each (benchmark, CPU) pair once and deriving
    /// every disk-policy variant by trace replay.
    ///
    /// # Errors
    ///
    /// Returns the first configuration problem found.
    pub fn new(config: SystemConfig) -> Result<ExperimentSuite, String> {
        Self::with_replay(config, true)
    }

    /// Like [`ExperimentSuite::new`], but every bundle comes from a direct
    /// full simulation — no trace capture, no replay. Exists for A/B
    /// benchmarking and for the replay-equivalence tests; results are
    /// bit-identical to the replaying suite's.
    ///
    /// # Errors
    ///
    /// Returns the first configuration problem found.
    pub fn with_full_simulation(config: SystemConfig) -> Result<ExperimentSuite, String> {
        Self::with_replay(config, false)
    }

    fn with_replay(config: SystemConfig, replay_enabled: bool) -> Result<ExperimentSuite, String> {
        config.validate()?;
        Ok(ExperimentSuite {
            config,
            runs: Mutex::new(HashMap::new()),
            traces: Mutex::new(HashMap::new()),
            specs: RwLock::new(HashMap::new()),
            replay_enabled,
            store: None,
            peers: None,
            trace_sources: Mutex::new(HashMap::new()),
            executed: AtomicUsize::new(0),
            replays: AtomicUsize::new(0),
            store_loads: AtomicUsize::new(0),
            peer_loads: AtomicUsize::new(0),
        })
    }

    /// Attaches a persistent [`TraceStore`], adding a third tier to trace
    /// lookup: memory memo → disk store → full simulation. Traces captured
    /// by this suite are persisted to the store; traces found in the store
    /// are replayed instead of simulated, which is bit-identical (see
    /// `tests/trace_store.rs`).
    ///
    /// Has no effect on a [`ExperimentSuite::with_full_simulation`] suite,
    /// which by definition never touches traces.
    #[must_use]
    pub fn with_trace_store(mut self, store: TraceStore) -> ExperimentSuite {
        self.store = Some(store);
        self
    }

    /// The attached persistent trace store, if any.
    pub fn trace_store(&self) -> Option<&TraceStore> {
        self.store.as_ref()
    }

    /// Attaches a [`PeerSource`], adding the peer-fetch tier to trace
    /// lookup: memo → store → **peer fetch** → capture. On a local store
    /// miss the key's owning peer is asked for its `swtrace` bytes;
    /// verified bytes are persisted locally and replayed, anything else
    /// (owner down, truncated stream, checksum or descriptor mismatch)
    /// degrades to the capture tier with a warning. Requires replay — a
    /// full-simulation suite never touches traces, peer or local.
    #[must_use]
    pub fn with_peer_source(mut self, peers: Arc<dyn PeerSource>) -> ExperimentSuite {
        self.peers = Some(peers);
        self
    }

    /// How many traces were loaded from the persistent store instead of
    /// being captured by a full simulation.
    pub fn store_loads(&self) -> usize {
        self.store_loads.load(Ordering::Acquire)
    }

    /// How many traces were fetched from cluster peers instead of being
    /// captured by a full simulation.
    pub fn peer_loads(&self) -> usize {
        self.peer_loads.load(Ordering::Acquire)
    }

    /// Where the memoized trace behind (`workload`, `cpu`) came from:
    /// `"local"` (persistent store), `"peer"` (fetched over the fabric),
    /// or `"sim"` (captured by a full simulation here). `None` until some
    /// tier has actually produced the trace.
    pub fn trace_source(&self, workload: WorkloadKey, cpu: CpuModel) -> Option<&'static str> {
        self.trace_sources
            .lock()
            .expect("trace source lock")
            .get(&(workload, cpu))
            .copied()
    }

    fn note_trace_source(&self, workload: WorkloadKey, cpu: CpuModel, source: &'static str) {
        self.trace_sources
            .lock()
            .expect("trace source lock")
            .insert((workload, cpu), source);
    }

    /// The base configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// How many *full* simulations have actually executed. With replay
    /// enabled this is the number of distinct (benchmark, CPU) pairs
    /// requested — not the number of distinct keys — no matter how many
    /// threads race on the same keys.
    pub fn runs_executed(&self) -> usize {
        self.executed.load(Ordering::Acquire)
    }

    /// How many bundles were derived by trace replay instead of a full
    /// simulation.
    pub fn replays_derived(&self) -> usize {
        self.replays.load(Ordering::Acquire)
    }

    /// Runs (or returns the memoized) simulation for one machine setup.
    pub fn run(&self, benchmark: Benchmark, cpu: CpuModel, disk: DiskSetup) -> Arc<RunBundle> {
        self.run_key(RunKey::canned(benchmark, cpu, disk))
    }

    /// Validates and registers a user-supplied spec, returning the
    /// [`WorkloadKey`] that addresses it in every later call. Registering
    /// the same spec twice (by content) is idempotent and returns the same
    /// key, so concurrent posts of one spec dedup to one simulation.
    ///
    /// This is the single gate between untrusted spec data and the
    /// simulator: a key this returns can always be simulated without
    /// panicking, because both [`BenchmarkSpec::validate`] and the
    /// instruction-budget sizing at this suite's clocking have passed.
    ///
    /// # Errors
    ///
    /// The first validation problem found, suitable for a 400 response.
    pub fn register_spec(&self, spec: BenchmarkSpec) -> Result<WorkloadKey, String> {
        spec.validate()?;
        spec.user_instr_budget(self.config.clocking())?;
        let hash = spec.content_hash();
        let mut specs = self.specs.write().expect("spec registry lock");
        specs.entry(hash).or_insert_with(|| Arc::new(spec));
        Ok(WorkloadKey::Spec(hash))
    }

    /// The spec behind a workload: a canned benchmark's own
    /// `Benchmark::spec()`, or a registered spec by content hash. `None`
    /// only for a spec hash this suite never registered.
    pub fn spec_for(&self, workload: WorkloadKey) -> Option<Arc<BenchmarkSpec>> {
        match workload {
            WorkloadKey::Canned(b) => Some(Arc::new(b.spec())),
            WorkloadKey::Spec(hash) => self
                .specs
                .read()
                .expect("spec registry lock")
                .get(&hash)
                .cloned(),
        }
    }

    /// Resolves a [`WorkloadKey::label`] to a workload this suite can run:
    /// a canned benchmark name, or the `spec:<hash>` label of a spec
    /// registered here.
    ///
    /// # Errors
    ///
    /// [`UnknownWorkload::Label`] for a label that names no workload at
    /// all, [`UnknownWorkload::Unregistered`] for a well-formed spec label
    /// whose spec this suite has not seen.
    pub fn resolve(&self, label: &str) -> Result<WorkloadKey, UnknownWorkload> {
        let workload = WorkloadKey::from_label(label).ok_or(UnknownWorkload::Label)?;
        self.spec_for(workload)
            .map(|_| workload)
            .ok_or(UnknownWorkload::Unregistered)
    }

    /// [`ExperimentSuite::run`] addressed by key.
    pub fn run_key(&self, key: RunKey) -> Arc<RunBundle> {
        memoize(&self.runs, key, &BUNDLE_MEMO, || self.execute(key))
    }

    /// The memoized bundle for `key`, if one is already finished — a
    /// non-blocking peek that never simulates and never waits on an
    /// in-flight computation. This is what lets a serving layer answer
    /// warm hits inline (microseconds) and route everything else to a
    /// worker by cost.
    pub fn bundle_if_ready(&self, key: RunKey) -> Option<Arc<RunBundle>> {
        let slots = self.runs.lock().expect("memo lock");
        match slots.get(&key) {
            Some(Slot::Ready(bundle)) => {
                softwatt_obs::count(BUNDLE_MEMO.hit, 1);
                Some(Arc::clone(bundle))
            }
            _ => None,
        }
    }

    /// The persistent-store key for one (workload, CPU) pair under this
    /// suite's configuration. Public so the serving layer can authenticate
    /// `/v1/traces/{hash}` requests against the key a peer *should* be
    /// asking for.
    pub fn trace_key(&self, workload: WorkloadKey, cpu: CpuModel) -> TraceKey {
        TraceKey::derive(&self.config, workload, cpu)
    }

    /// Whether deriving `key`'s bundle would be a cheap replay rather
    /// than a full simulation: the (workload, CPU) trace is already in
    /// the memory memo (finished *or* being captured by another thread —
    /// either way this key will not start a second simulation), or the
    /// persistent store has an entry for it. A suite without replay
    /// always answers `false` (every miss is a full simulation).
    ///
    /// The store probe is an existence check only; a corrupt entry later
    /// turns the predicted replay into a simulation. Misclassification is
    /// a latency blip, not an error.
    pub fn trace_ready(&self, workload: WorkloadKey, cpu: CpuModel) -> bool {
        if !self.replay_enabled {
            return false;
        }
        if self
            .traces
            .lock()
            .expect("memo lock")
            .contains_key(&(workload, cpu))
        {
            return true;
        }
        match &self.store {
            Some(store) => store.contains(&self.trace_key(workload, cpu)),
            None => false,
        }
    }

    /// The captured trace for one (workload, CPU) pair: from the memory
    /// memo, else the persistent store (when attached), else the owning
    /// cluster peer (when a [`PeerSource`] is attached), else a full
    /// simulation (persisted to the store afterwards).
    fn trace_for(&self, workload: WorkloadKey, cpu: CpuModel) -> Arc<PerfTrace> {
        memoize(&self.traces, (workload, cpu), &TRACE_MEMO, || {
            self.trace_miss(workload, cpu, true)
        })
    }

    /// The memo-miss path behind [`ExperimentSuite::trace_for`].
    /// `use_peers = false` is the re-entrancy guard for requests arriving
    /// *from* a peer: the owner must answer from its own tiers, never by
    /// bouncing the key back onto the fabric.
    fn trace_miss(&self, workload: WorkloadKey, cpu: CpuModel, use_peers: bool) -> PerfTrace {
        let Some(store) = &self.store else {
            self.note_trace_source(workload, cpu, "sim");
            return self.capture_trace(workload, cpu);
        };
        let key = self.trace_key(workload, cpu);
        if let Some(trace) = store.load(&key) {
            self.store_loads.fetch_add(1, Ordering::AcqRel);
            self.note_trace_source(workload, cpu, "local");
            return trace;
        }
        if use_peers {
            if let Some(trace) = self.peer_fetch(&key, workload, cpu) {
                self.note_trace_source(workload, cpu, "peer");
                return trace;
            }
        }
        self.note_trace_source(workload, cpu, "sim");
        let trace = self.capture_trace(workload, cpu);
        store.store(&key, &trace);
        trace
    }

    /// The peer-fetch tier: asks the key's owner (through the attached
    /// [`PeerSource`]) for its `swtrace` bytes, then parses,
    /// checksum-verifies, and descriptor-matches them before persisting
    /// locally. Every failure mode — no peer source, owner down, a
    /// truncated or corrupt stream, a descriptor mismatch — returns
    /// `None`, which the caller treats as "capture it locally"; a peer
    /// problem is never an error, only a lost optimization.
    fn peer_fetch(
        &self,
        key: &TraceKey,
        workload: WorkloadKey,
        cpu: CpuModel,
    ) -> Option<PerfTrace> {
        let peers = self.peers.as_ref()?;
        let _span = softwatt_obs::span("trace_store.peer_fetch_ns");
        let Some(bytes) = peers.fetch(key, &workload.label(), cpu.name()) else {
            softwatt_obs::count("trace_store.peer_misses", 1);
            return None;
        };
        match PerfTrace::from_binary(&bytes[..]) {
            Ok((trace, note)) if note == key.descriptor().as_bytes() => {
                softwatt_obs::count("trace_store.peer_hits", 1);
                softwatt_obs::count("trace_store.peer_bytes", bytes.len() as u64);
                self.peer_loads.fetch_add(1, Ordering::AcqRel);
                if let Some(store) = &self.store {
                    store.store_raw(key, &bytes);
                }
                Some(trace)
            }
            Ok(_) => {
                softwatt_obs::count("trace_store.peer_errors", 1);
                softwatt_obs::obs_event!(
                    softwatt_obs::Level::Warn,
                    "suite",
                    "peer trace for {workload} on {cpu:?} has a mismatched descriptor \
                     (config drift between peers?); simulating locally"
                );
                None
            }
            Err(e) => {
                softwatt_obs::count("trace_store.peer_errors", 1);
                softwatt_obs::obs_event!(
                    softwatt_obs::Level::Warn,
                    "suite",
                    "peer trace for {workload} on {cpu:?} failed verification ({e}); \
                     simulating locally"
                );
                None
            }
        }
    }

    /// The `swtrace` bytes for one (workload, CPU) pair, for serving
    /// to a fetching peer. Resolves through the *local* tiers only —
    /// memo, store, capture — never a peer fetch of its own, so two nodes
    /// with disagreeing ring views can bounce a key at most one hop. A
    /// store miss simulates right here (and persists), which is what
    /// makes N simultaneous cluster-wide misses for an owned key cost
    /// exactly one simulation: non-owners fetch, the owner's memo
    /// single-flights the capture.
    pub fn trace_share_bytes(&self, workload: WorkloadKey, cpu: CpuModel) -> Vec<u8> {
        let key = self.trace_key(workload, cpu);
        let trace = memoize(&self.traces, (workload, cpu), &TRACE_MEMO, || {
            self.trace_miss(workload, cpu, false)
        });
        let mut out = Vec::new();
        trace
            .to_binary(&mut out, key.descriptor().as_bytes())
            .expect("encoding to a Vec cannot fail");
        out
    }

    /// Captures a trace by full simulation (the bottom tier).
    fn capture_trace(&self, workload: WorkloadKey, cpu: CpuModel) -> PerfTrace {
        let mut config = self.config.clone();
        config.cpu = cpu;
        config.idle = IdleHandling::Analytic;
        // The capture run uses the suite's base disk config; the trace
        // it produces is disk-policy-independent.
        let sim = Simulator::new(config).expect("validated config");
        self.executed.fetch_add(1, Ordering::AcqRel);
        // Counted in the registry too (not just the suite-local atomic) so
        // cluster tooling can sum full simulations across processes from
        // `/metrics` alone.
        softwatt_obs::count("suite.captures", 1);
        let span = softwatt_obs::span("suite.trace_capture_ns");
        let spec = self.spec_for(workload).expect("registered spec");
        let trace = sim.capture(&spec).1;
        if let Some(ns) = span.finish() {
            softwatt_obs::obs_event!(
                softwatt_obs::Level::Debug,
                "suite",
                "captured trace for {workload} on {cpu:?} in {:.1}ms",
                ns as f64 / 1e6
            );
        }
        trace
    }

    /// Loads whatever traces the persistent store already has for the
    /// distinct (workload, CPU) pairs of `keys` into the memory memo,
    /// *without ever simulating*. Returns how many traces were loaded.
    ///
    /// This is the cheap half of a warm start (`softwatt-serve` runs it
    /// before accepting connections): entries the store has make every
    /// later request for that pair a replay; entries it lacks are left to
    /// be simulated on first demand.
    pub fn prewarm_from_store(&self, keys: &[RunKey]) -> usize {
        let Some(store) = &self.store else { return 0 };
        let mut pairs: Vec<(WorkloadKey, CpuModel)> = Vec::new();
        for key in keys {
            if !pairs.contains(&(key.workload, key.cpu)) {
                pairs.push((key.workload, key.cpu));
            }
        }
        let mut loaded = 0;
        for (workload, cpu) in pairs {
            if self
                .traces
                .lock()
                .expect("memo lock")
                .contains_key(&(workload, cpu))
            {
                continue;
            }
            let key = self.trace_key(workload, cpu);
            let Some(trace) = store.load(&key) else {
                continue;
            };
            // Only fill a still-vacant slot: a concurrent caller may have
            // claimed the pair between the peek above and this insert, and
            // its result (simulated or loaded) is just as good.
            let mut slots = self.traces.lock().expect("memo lock");
            if let std::collections::hash_map::Entry::Vacant(slot) = slots.entry((workload, cpu)) {
                slot.insert(Slot::Ready(Arc::new(trace)));
                self.store_loads.fetch_add(1, Ordering::AcqRel);
                drop(slots);
                self.note_trace_source(workload, cpu, "local");
                loaded += 1;
            }
        }
        loaded
    }

    /// Produces one bundle (always a memo miss): by trace replay when
    /// enabled, by direct full simulation otherwise.
    fn execute(&self, key: RunKey) -> RunBundle {
        let mut config = self.config.clone();
        config.cpu = key.cpu;
        config.disk = DiskConfig {
            policy: key.disk.policy(),
            ..self.config.disk
        };
        config.idle = IdleHandling::Analytic;
        let sim = Simulator::new(config.clone()).expect("validated config");
        let run = if self.replay_enabled {
            let trace = self.trace_for(key.workload, key.cpu);
            self.replays.fetch_add(1, Ordering::AcqRel);
            softwatt_obs::count("suite.replays", 1);
            let _span = softwatt_obs::span("suite.replay_ns");
            sim.replay_trace(&trace)
        } else {
            self.executed.fetch_add(1, Ordering::AcqRel);
            softwatt_obs::count("suite.full_sims", 1);
            let _span = softwatt_obs::span("suite.full_sim_ns");
            sim.run(&self.spec_for(key.workload).expect("registered spec"))
        };
        RunBundle {
            run: RunResult {
                benchmark: key.workload.canned(),
                ..run
            },
            model: PowerModel::new(&config.power_params()),
        }
    }

    /// Every distinct machine setup the full paper evaluation touches.
    ///
    /// Prewarming this grid makes all subsequent table/figure methods pure
    /// memo lookups (except [`ExperimentSuite::ext_kernel_energy_estimate`],
    /// whose reference runs use a different seed and so a nested suite).
    pub fn paper_grid(&self) -> Vec<RunKey> {
        let mut keys = Vec::new();
        for &benchmark in Benchmark::ALL.iter() {
            for disk in DiskSetup::ALL {
                keys.push(RunKey::canned(benchmark, CpuModel::Mxs, disk));
            }
            keys.push(RunKey::canned(
                benchmark,
                CpuModel::Mxs,
                DiskSetup::SleepExt,
            ));
            keys.push(RunKey::canned(
                benchmark,
                CpuModel::MxsSingleIssue,
                DiskSetup::Conventional,
            ));
        }
        keys.push(RunKey::canned(
            Benchmark::Jess,
            CpuModel::Mipsy,
            DiskSetup::Conventional,
        ));
        keys
    }

    /// Simulates the given keys on up to `jobs` worker threads.
    ///
    /// Results land in the memo, so later [`ExperimentSuite::run`] calls
    /// are lookups. Runs are seeded per-configuration and mutually
    /// independent, so the memoized results are bit-identical to a serial
    /// pass regardless of `jobs`.
    pub fn prewarm(&self, keys: &[RunKey], jobs: usize) {
        let jobs = jobs.clamp(1, keys.len().max(1));
        if jobs == 1 {
            for &key in keys {
                self.run_key(key);
            }
            return;
        }
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&key) = keys.get(i) else { break };
                    self.run_key(key);
                });
            }
        });
    }

    /// Prewarms the whole paper grid on up to `jobs` threads.
    pub fn run_all(&self, jobs: usize) {
        self.prewarm(&self.paper_grid(), jobs);
    }

    fn baseline_runs(&self) -> Vec<Arc<RunBundle>> {
        Benchmark::ALL
            .iter()
            .map(|&b| self.run(b, CpuModel::Mxs, DiskSetup::Conventional))
            .collect()
    }

    // ----- V1: §2 validation ---------------------------------------------

    /// The max-power validation experiment (paper: 25.3 W modeled vs the
    /// R10000 data sheet's 30 W).
    pub fn validation(&self) -> ValidationResult {
        let model = PowerModel::new(&self.config.power_params());
        ValidationResult {
            breakdown: model.max_power(),
        }
    }

    // ----- F2: disk mode table -------------------------------------------

    /// Figure 2's operating-mode power values.
    pub fn disk_modes(&self) -> Vec<(DiskMode, f64)> {
        let table = DiskPowerTable::default();
        DiskMode::ALL.iter().map(|&m| (m, table.watts(m))).collect()
    }

    // ----- F3/F4: jess time profiles -------------------------------------

    /// Figure 3: jess memory-system behavior — execution-time and
    /// memory-subsystem power profiles on Mipsy, and the processor profile
    /// on the single-issue configuration.
    pub fn fig3_jess_memory(&self) -> MemoryProfiles {
        let mipsy = self.run(Benchmark::Jess, CpuModel::Mipsy, DiskSetup::Conventional);
        let narrow = self.run(
            Benchmark::Jess,
            CpuModel::MxsSingleIssue,
            DiskSetup::Conventional,
        );
        MemoryProfiles {
            mipsy: profile_series(&mipsy),
            single_issue: profile_series(&narrow),
        }
    }

    /// Figure 4: jess processor behavior on the 4-wide MXS model.
    pub fn fig4_jess_processor(&self) -> ProfileSeries {
        let run = self.run(Benchmark::Jess, CpuModel::Mxs, DiskSetup::Conventional);
        profile_series(&run)
    }

    // ----- F5/F7: budgets -------------------------------------------------

    /// Figure 5: overall power budget with the conventional disk, averaged
    /// over all benchmarks.
    pub fn fig5_budget_conventional(&self) -> SystemBudget {
        self.mean_budget(DiskSetup::Conventional)
    }

    /// Figure 7: the budget with the IDLE-capable disk.
    pub fn fig7_budget_lowpower(&self) -> SystemBudget {
        self.mean_budget(DiskSetup::IdleOnly)
    }

    fn mean_budget(&self, disk: DiskSetup) -> SystemBudget {
        let budgets: Vec<SystemBudget> = Benchmark::ALL
            .iter()
            .map(|&b| {
                let bundle = self.run(b, CpuModel::Mxs, disk);
                system_budget(&bundle.model, &bundle.run)
            })
            .collect();
        SystemBudget::mean_of(&budgets).expect("Benchmark::ALL is non-empty")
    }

    // ----- F6: average power per mode -------------------------------------

    /// Figure 6: average power per software mode (averaged over all
    /// benchmarks), per component group.
    pub fn fig6_mode_power(&self) -> ModePowerFigure {
        let runs = self.baseline_runs();
        let mut per_mode = [GroupPower::new(); Mode::COUNT];
        let mut counts = [0usize; Mode::COUNT];
        for bundle in &runs {
            let table = bundle.model.mode_table(&bundle.run.log);
            for mode in Mode::ALL {
                if table.mode_cycles[mode.index()] > 0 {
                    per_mode[mode.index()].merge(&table.average_power_w(mode));
                    counts[mode.index()] += 1;
                }
            }
        }
        for mode in Mode::ALL {
            let n = counts[mode.index()].max(1) as f64;
            per_mode[mode.index()] = per_mode[mode.index()].scaled(1.0 / n);
        }
        ModePowerFigure { per_mode }
    }

    // ----- F8: kernel-service power ---------------------------------------

    /// Figure 8: average power of the four key kernel services, averaged
    /// over all invocations and benchmarks.
    pub fn fig8_service_power(&self) -> Vec<ServicePowerRow> {
        let merged = self.merged_service_aggregates();
        [
            KernelService::Utlb,
            KernelService::Read,
            KernelService::DemandZero,
            KernelService::CacheFlush,
        ]
        .iter()
        .filter_map(|&svc| {
            let agg = merged.get(&svc)?;
            if agg.cycles == 0 {
                return None;
            }
            let model = PowerModel::new(&self.config.power_params());
            Some(ServicePowerRow {
                service: svc,
                invocations: agg.invocations,
                power_w: model.window_power_w(&agg.events, agg.cycles),
            })
        })
        .collect()
    }

    // ----- F9: the disk power-management study -----------------------------

    /// Figure 9: disk energy and total idle cycles for the four disk
    /// configurations, per benchmark.
    pub fn fig9_disk_study(&self) -> Vec<Fig9Row> {
        Benchmark::ALL
            .iter()
            .map(|&b| {
                let cells = DiskSetup::ALL.map(|setup| {
                    let bundle = self.run(b, CpuModel::Mxs, setup);
                    DiskStudyCell {
                        setup,
                        disk_energy_j: bundle.run.disk.energy_j,
                        idle_cycles: bundle.run.mode_cycles(Mode::Idle),
                        total_cycles: bundle.run.cycles,
                        spinups: bundle.run.disk.spinups,
                        spindowns: bundle.run.disk.spindowns,
                    }
                });
                Fig9Row {
                    benchmark: b,
                    cells,
                }
            })
            .collect()
    }

    // ----- T2/T3/T4/T5 ------------------------------------------------------

    /// Table 2: percentage breakdown of cycles and energy per mode.
    pub fn table2_mode_breakdown(&self) -> Vec<Table2Row> {
        self.baseline_runs()
            .iter()
            .map(|bundle| {
                let table = bundle.model.mode_table(&bundle.run.log);
                Table2Row {
                    benchmark: bundle.run.benchmark.expect("named run"),
                    cycles_pct: Mode::ALL.map(|m| 100.0 * table.cycle_fraction(m)),
                    energy_pct: Mode::ALL.map(|m| 100.0 * table.energy_fraction(m)),
                }
            })
            .collect()
    }

    /// Table 3: L1 cache references per cycle, per mode.
    pub fn table3_cache_refs(&self) -> Vec<Table3Row> {
        self.baseline_runs()
            .iter()
            .map(|bundle| {
                let events = bundle.run.log.total_events();
                let il1 = Mode::ALL.map(|m| {
                    let cycles = bundle.run.log.mode_cycles(m).max(1) as f64;
                    events.mode(m).get(softwatt_stats::UnitEvent::IcacheAccess) as f64 / cycles
                });
                let dl1 = Mode::ALL.map(|m| {
                    let cycles = bundle.run.log.mode_cycles(m).max(1) as f64;
                    let e = events.mode(m);
                    (e.get(softwatt_stats::UnitEvent::DcacheRead)
                        + e.get(softwatt_stats::UnitEvent::DcacheWrite)) as f64
                        / cycles
                });
                Table3Row {
                    benchmark: bundle.run.benchmark.expect("named run"),
                    il1_per_cycle: il1,
                    dl1_per_cycle: dl1,
                }
            })
            .collect()
    }

    /// Table 4: per-benchmark kernel-service breakdown (invocations, share
    /// of kernel cycles, share of kernel energy), sorted by cycle share.
    pub fn table4_kernel_services(&self) -> Vec<Table4Row> {
        self.baseline_runs()
            .iter()
            .map(|bundle| {
                let aggs = bundle.run.services.aggregates();
                let total_cycles: u64 = KernelService::ALL
                    .iter()
                    .filter_map(|s| aggs.get(&s.id()))
                    .map(|a| a.cycles)
                    .sum();
                let total_energy: f64 = KernelService::ALL
                    .iter()
                    .filter_map(|s| aggs.get(&s.id()))
                    .map(|a| a.energy_sum_j)
                    .sum();
                let mut entries: Vec<Table4Entry> = KernelService::ALL
                    .iter()
                    .filter_map(|&svc| {
                        let agg = aggs.get(&svc.id())?;
                        (agg.invocations > 0).then(|| Table4Entry {
                            service: svc,
                            invocations: agg.invocations,
                            cycles_pct: 100.0 * agg.cycles as f64 / total_cycles.max(1) as f64,
                            energy_pct: 100.0 * agg.energy_sum_j / total_energy.max(1e-30),
                        })
                    })
                    .collect();
                entries.sort_by(|a, b| b.cycles_pct.total_cmp(&a.cycles_pct));
                Table4Row {
                    benchmark: bundle.run.benchmark.expect("named run"),
                    entries,
                }
            })
            .collect()
    }

    /// Table 5: per-invocation energy variation of key services, pooled
    /// over all benchmarks.
    pub fn table5_service_variation(&self) -> Vec<Table5Row> {
        let merged = self.merged_service_aggregates();
        [
            KernelService::Utlb,
            KernelService::DemandZero,
            KernelService::CacheFlush,
            KernelService::Read,
            KernelService::Write,
            KernelService::Open,
        ]
        .iter()
        .filter_map(|&svc| {
            let agg = merged.get(&svc)?;
            Some(Table5Row {
                service: svc,
                invocations: agg.invocations,
                mean_energy_j: agg.mean_energy_j()?,
                cod_pct: agg.coefficient_of_deviation_pct()?,
            })
        })
        .collect()
    }

    // ----- Extensions beyond the paper's figures --------------------------

    /// §3.2's superscalar observation: kernel activity's share of cycles
    /// rises from the single-issue to the 4-wide machine (paper: 14.28% to
    /// 21.02% on average) because kernel code has lower ILP and worse
    /// branch behavior.
    pub fn ext_kernel_share_by_width(&self) -> Vec<KernelShareRow> {
        Benchmark::ALL
            .iter()
            .map(|&b| {
                let share = |cpu: CpuModel| {
                    let bundle = self.run(b, cpu, DiskSetup::Conventional);
                    let kernel = bundle.run.mode_cycles(Mode::KernelInstr)
                        + bundle.run.mode_cycles(Mode::KernelSync);
                    100.0 * kernel as f64 / bundle.run.cycles.max(1) as f64
                };
                KernelShareRow {
                    benchmark: b,
                    single_issue_pct: share(CpuModel::MxsSingleIssue),
                    superscalar_pct: share(CpuModel::Mxs),
                }
            })
            .collect()
    }

    /// §3.3/§5's acceleration claim: kernel energy can be estimated from
    /// service invocation counts times per-invocation mean energies
    /// (obtained from a *different* run) with roughly 10% error, without
    /// detailed simulation of the services.
    pub fn ext_kernel_energy_estimate(&self) -> Vec<KernelEstimateRow> {
        // Reference means come from a run with a different seed. The nested
        // suite inherits the persistent store so the reference runs are
        // also paid for only once per machine.
        let mut reference = self.config.clone();
        reference.seed ^= 0xDEAD_BEEF;
        let mut ref_suite = ExperimentSuite::new(reference).expect("valid config");
        ref_suite.store.clone_from(&self.store);
        Benchmark::ALL
            .iter()
            .map(|&b| {
                let bundle = self.run(b, CpuModel::Mxs, DiskSetup::Conventional);
                let ref_bundle = ref_suite.run(b, CpuModel::Mxs, DiskSetup::Conventional);
                let aggs = bundle.run.services.aggregates();
                let ref_aggs = ref_bundle.run.services.aggregates();
                let full: f64 = KernelService::ALL
                    .iter()
                    .filter_map(|svc| aggs.get(&svc.id()))
                    .map(|a| a.energy_sum_j)
                    .sum();
                let estimated: f64 = KernelService::ALL
                    .iter()
                    .filter_map(|svc| {
                        let n = aggs.get(&svc.id())?.invocations as f64;
                        let mean = ref_aggs.get(&svc.id())?.mean_energy_j()?;
                        Some(n * mean)
                    })
                    .sum();
                KernelEstimateRow {
                    benchmark: b,
                    full_j: full,
                    estimated_j: estimated,
                }
            })
            .collect()
    }

    /// Whole-run power metrics per benchmark: average and peak power,
    /// total energy, and the paper's EDP metric (§3.1).
    pub fn ext_power_metrics(&self) -> Vec<PowerMetricsRow> {
        self.baseline_runs()
            .iter()
            .map(|bundle| {
                let table = bundle.model.mode_table(&bundle.run.log);
                let profile = bundle.model.profile(&bundle.run.log);
                let (peak_w, peak_at_s) = profile.peak_power_w().unwrap_or((0.0, 0.0));
                PowerMetricsRow {
                    benchmark: bundle.run.benchmark.expect("named run"),
                    average_w: table.overall_average_power_w().total(),
                    peak_w,
                    peak_at_s,
                    energy_j: table.total_energy_j(),
                    edp_js: table.energy_delay_product(),
                }
            })
            .collect()
    }

    /// Extension: the SLEEP-capable policy versus the paper's 2 s standby
    /// configuration (disk energy only).
    pub fn ext_sleep_study(&self) -> Vec<SleepStudyRow> {
        Benchmark::ALL
            .iter()
            .map(|&b| {
                let standby = self.run(b, CpuModel::Mxs, DiskSetup::Standby2s);
                let sleep = self.run(b, CpuModel::Mxs, DiskSetup::SleepExt);
                SleepStudyRow {
                    benchmark: b,
                    standby_j: standby.run.disk.energy_j,
                    sleep_j: sleep.run.disk.energy_j,
                    sleep_idle_cycles: sleep.run.mode_cycles(Mode::Idle),
                    standby_idle_cycles: standby.run.mode_cycles(Mode::Idle),
                }
            })
            .collect()
    }

    /// Extension: policy crossover sweep. For a single pair of requests
    /// separated by an idle gap, which policy minimizes disk energy? This
    /// quantifies the paper's §4 rule ("spin down only if the gap is much
    /// larger than the spin-down + spin-up time") without a workload in
    /// the loop.
    pub fn ext_policy_crossover(&self) -> Vec<CrossoverRow> {
        use softwatt_disk::Disk;
        let clocking = self.config.clocking();
        let policies = [
            DiskPolicy::IdleWhenNotBusy,
            DiskPolicy::Standby { threshold_s: 2.0 },
            DiskPolicy::Standby { threshold_s: 4.0 },
            DiskPolicy::Sleep {
                threshold_s: 2.0,
                sleep_after_s: 5.0,
            },
        ];
        [4.0, 8.0, 12.0, 16.0, 24.0, 48.0, 96.0]
            .iter()
            .map(|&gap_s| {
                let energies = policies.map(|policy| {
                    let mut disk = Disk::new(
                        DiskConfig {
                            policy,
                            ..self.config.disk
                        },
                        clocking,
                    );
                    let first_done = disk.submit(0, 8192);
                    let second_at = first_done + clocking.paper_secs_to_cycles(gap_s);
                    let second_done = disk.submit(second_at, 8192);
                    let report = disk.report(second_done);
                    (policy, report.energy_j, report.spinups)
                });
                CrossoverRow { gap_s, energies }
            })
            .collect()
    }

    /// Extension: the same run post-processed under Wattch's three
    /// conditional-clocking styles. The paper's "simple conditional
    /// clocking" is the fully-gated style; this quantifies how much that
    /// modeling choice matters.
    pub fn ext_gating_study(&self) -> Vec<GatingRow> {
        use softwatt_power::{ClockGating, PowerParams};
        let bundle = self.run(Benchmark::Jess, CpuModel::Mxs, DiskSetup::Conventional);
        let base = self.config.power_params();
        [
            ("CC1 always-on", ClockGating::AlwaysOn),
            ("CC2 gated (paper)", ClockGating::Gated),
            ("CC3 residual 10%", ClockGating::GatedWithResidual(0.10)),
            ("CC3 residual 25%", ClockGating::GatedWithResidual(0.25)),
        ]
        .map(|(label, gating)| {
            let model = PowerModel::new(&PowerParams { gating, ..base });
            let table = model.mode_table(&bundle.run.log);
            GatingRow {
                label,
                average_w: table.overall_average_power_w().total(),
                energy_j: table.total_energy_j(),
            }
        })
        .to_vec()
    }

    /// Extension: design-space sweep over the L1 instruction-cache size —
    /// the kind of architectural exploration the paper built SoftWatt for.
    /// Bigger L1I means fewer L2 refills but a higher per-access cost.
    pub fn ext_l1i_sweep(&self) -> Vec<SweepRow> {
        use softwatt_mem::CacheGeometry;
        [8u64, 16, 32, 64, 128]
            .iter()
            .map(|&kb| {
                let mut config = self.config.clone();
                config.mem.il1 = CacheGeometry::new(kb * 1024, 64, 2);
                let sim = Simulator::new(config.clone()).expect("valid config");
                let run = sim.run_benchmark(Benchmark::Jess);
                let model = PowerModel::new(&config.power_params());
                let budget = system_budget(&model, &run);
                let table = model.mode_table(&run.log);
                SweepRow {
                    l1i_kb: kb,
                    cycles: run.cycles,
                    l1i_w: budget.groups.get(UnitGroup::L1I),
                    l2i_w: budget.groups.get(UnitGroup::L2I),
                    total_w: budget.total_w(),
                    edp_js: table.energy_delay_product(),
                }
            })
            .collect()
    }

    /// Extension: first-order technology projection — re-post-process the
    /// same jess run with the reference constants scaled to later nodes
    /// (constant-field scaling), showing where the budget would move.
    pub fn ext_technology_projection(&self) -> Vec<TechRow> {
        use softwatt_power::PowerParams;
        let bundle = self.run(Benchmark::Jess, CpuModel::Mxs, DiskSetup::Conventional);
        let base = self.config.power_params();
        [
            ("0.35um / 3.3V / 200MHz (paper)", 0.35, 3.3, 200.0e6),
            ("0.25um / 2.5V / 300MHz", 0.25, 2.5, 300.0e6),
            ("0.18um / 1.8V / 450MHz", 0.18, 1.8, 450.0e6),
        ]
        .map(|(label, um, vdd, hz)| {
            let tech = base.tech.scaled_to(um, vdd, hz);
            let model = PowerModel::new(&PowerParams { tech, ..base });
            let table = model.mode_table(&bundle.run.log);
            TechRow {
                label,
                cpu_mem_w: table.overall_average_power_w().total(),
                max_w: model.max_power().total(),
            }
        })
        .to_vec()
    }

    fn merged_service_aggregates(
        &self,
    ) -> HashMap<KernelService, softwatt_stats::ServiceAggregate> {
        let mut merged: HashMap<KernelService, softwatt_stats::ServiceAggregate> = HashMap::new();
        for bundle in self.baseline_runs() {
            for &svc in &KernelService::ALL {
                if let Some(agg) = bundle.run.services.aggregates().get(&svc.id()) {
                    merged
                        .entry(svc)
                        .or_insert_with(softwatt_stats::ServiceAggregate::empty)
                        .merge(agg);
                }
            }
        }
        merged
    }
}

// ---------------------------------------------------------------------------
// Result row types.
// ---------------------------------------------------------------------------

/// V1 result: the modeled maximum-power configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationResult {
    /// Per-group maximum power (W).
    pub breakdown: GroupPower,
}

impl ValidationResult {
    /// Modeled total maximum power (W).
    pub fn modeled_w(&self) -> f64 {
        self.breakdown.total()
    }
}

impl fmt::Display for ValidationResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "max CPU power: modeled {:.1} W (paper model {:.1} W, R10000 data sheet {:.1} W)",
            self.modeled_w(),
            crate::report::paper::MAX_POWER_W,
            crate::report::paper::DATASHEET_MAX_POWER_W
        )?;
        write!(f, "{}", self.breakdown)
    }
}

/// One point of a rendered execution/power profile.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileRow {
    /// Window end, paper-time seconds.
    pub t_s: f64,
    /// Share of the window per mode (user/kernel/sync/idle), in percent.
    pub mode_pct: [f64; Mode::COUNT],
    /// Memory-subsystem power contribution per mode (W, stacked).
    pub mem_w: [f64; Mode::COUNT],
    /// Processor (datapath) power contribution per mode (W, stacked;
    /// clock excluded, as in the paper's profiles).
    pub proc_w: [f64; Mode::COUNT],
}

/// A full time series for one run (Figures 3/4).
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileSeries {
    /// Benchmark profiled.
    pub benchmark: Benchmark,
    /// CPU model used.
    pub cpu: CpuModel,
    /// Points in time order.
    pub rows: Vec<ProfileRow>,
}

impl ProfileSeries {
    /// Run-average memory-subsystem power (W).
    pub fn avg_memory_w(&self) -> f64 {
        average_of(&self.rows, |r| r.mem_w.iter().sum())
    }

    /// Run-average processor (datapath) power (W).
    pub fn avg_processor_w(&self) -> f64 {
        average_of(&self.rows, |r| r.proc_w.iter().sum())
    }
}

fn average_of(rows: &[ProfileRow], f: impl Fn(&ProfileRow) -> f64) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    rows.iter().map(f).sum::<f64>() / rows.len() as f64
}

/// Figure 3's three panels come from two machine configurations.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryProfiles {
    /// Mipsy run (execution-time + memory-power panels).
    pub mipsy: ProfileSeries,
    /// Single-issue MXS run (processor-power panel).
    pub single_issue: ProfileSeries,
}

fn profile_series(bundle: &RunBundle) -> ProfileSeries {
    let profile = bundle.model.profile(&bundle.run.log);
    let rows = profile
        .points
        .iter()
        .map(|p| {
            let mode_pct = Mode::ALL.map(|m| 100.0 * p.mode_share(m));
            let mem_w =
                Mode::ALL.map(|m| p.mode_power_w[m.index()].memory_subsystem() * p.mode_share(m));
            let proc_w = Mode::ALL
                .map(|m| p.mode_power_w[m.index()].get(UnitGroup::Datapath) * p.mode_share(m));
            ProfileRow {
                t_s: p.t_end_s,
                mode_pct,
                mem_w,
                proc_w,
            }
        })
        .collect();
    ProfileSeries {
        benchmark: bundle.run.benchmark.expect("named run"),
        cpu: bundle.run.cpu,
        rows,
    }
}

/// Figure 6 data: per-mode average power, per group.
#[derive(Debug, Clone, PartialEq)]
pub struct ModePowerFigure {
    /// Average power while executing in each mode (W per group).
    pub per_mode: [GroupPower; Mode::COUNT],
}

impl ModePowerFigure {
    /// Total average power of one mode (W).
    pub fn total_w(&self, mode: Mode) -> f64 {
        self.per_mode[mode.index()].total()
    }
}

impl fmt::Display for ModePowerFigure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<10} {:>8} {:>8} {:>8} {:>8}",
            "group", "user", "kernel", "sync", "idle"
        )?;
        for g in UnitGroup::ALL {
            writeln!(
                f,
                "{:<10} {:8.3} {:8.3} {:8.3} {:8.3}",
                g.label(),
                self.per_mode[0].get(g),
                self.per_mode[1].get(g),
                self.per_mode[2].get(g),
                self.per_mode[3].get(g),
            )?;
        }
        write!(
            f,
            "{:<10} {:8.3} {:8.3} {:8.3} {:8.3}",
            "Total",
            self.total_w(Mode::User),
            self.total_w(Mode::KernelInstr),
            self.total_w(Mode::KernelSync),
            self.total_w(Mode::Idle),
        )
    }
}

/// Figure 8 row: one kernel service's average power breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct ServicePowerRow {
    /// The service.
    pub service: KernelService,
    /// Invocations pooled.
    pub invocations: u64,
    /// Average power while executing the service (W per group).
    pub power_w: GroupPower,
}

impl fmt::Display for ServicePowerRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<12} {:8.3} W over {} invocations",
            self.service.name(),
            self.power_w.total(),
            self.invocations
        )
    }
}

/// One cell of the Figure 9 study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskStudyCell {
    /// Disk configuration.
    pub setup: DiskSetup,
    /// Disk energy over the run (paper-time J).
    pub disk_energy_j: f64,
    /// Total idle cycles of the execution profile.
    pub idle_cycles: u64,
    /// Total run cycles.
    pub total_cycles: u64,
    /// Spin-ups performed.
    pub spinups: u64,
    /// Spin-downs completed.
    pub spindowns: u64,
}

/// Figure 9 row: one benchmark across the four disk configurations.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9Row {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Cells in [`DiskSetup::ALL`] order.
    pub cells: [DiskStudyCell; 4],
}

impl Fig9Row {
    /// The cell for one setup.
    pub fn cell(&self, setup: DiskSetup) -> &DiskStudyCell {
        self.cells
            .iter()
            .find(|c| c.setup == setup)
            .expect("all setups present")
    }
}

impl fmt::Display for Fig9Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}:", self.benchmark)?;
        for c in &self.cells {
            writeln!(
                f,
                "  {:<22} {}  idle {:>10} cyc  (spinups {}, spindowns {})",
                c.setup.label(),
                joules(c.disk_energy_j),
                c.idle_cycles,
                c.spinups,
                c.spindowns
            )?;
        }
        Ok(())
    }
}

/// Table 2 row.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Percent of cycles per mode (user/kernel/sync/idle).
    pub cycles_pct: [f64; Mode::COUNT],
    /// Percent of energy per mode.
    pub energy_pct: [f64; Mode::COUNT],
}

impl fmt::Display for Table2Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<9} cycles {} {} {} {}  energy {} {} {} {}",
            self.benchmark,
            pct(self.cycles_pct[0] / 100.0),
            pct(self.cycles_pct[1] / 100.0),
            pct(self.cycles_pct[2] / 100.0),
            pct(self.cycles_pct[3] / 100.0),
            pct(self.energy_pct[0] / 100.0),
            pct(self.energy_pct[1] / 100.0),
            pct(self.energy_pct[2] / 100.0),
            pct(self.energy_pct[3] / 100.0),
        )
    }
}

/// Table 3 row.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Row {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// iL1 references per cycle per mode.
    pub il1_per_cycle: [f64; Mode::COUNT],
    /// dL1 references per cycle per mode.
    pub dl1_per_cycle: [f64; Mode::COUNT],
}

impl fmt::Display for Table3Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<9} iL1 {:5.2} {:5.2} {:5.2} {:5.2}  dL1 {:5.2} {:5.2} {:5.2} {:5.2}",
            self.benchmark,
            self.il1_per_cycle[0],
            self.il1_per_cycle[1],
            self.il1_per_cycle[2],
            self.il1_per_cycle[3],
            self.dl1_per_cycle[0],
            self.dl1_per_cycle[1],
            self.dl1_per_cycle[2],
            self.dl1_per_cycle[3],
        )
    }
}

/// Table 4 entry: one service of one benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table4Entry {
    /// The service.
    pub service: KernelService,
    /// Invocations observed (time-scaled counts; see `EXPERIMENTS.md`).
    pub invocations: u64,
    /// Percent of kernel-service cycles.
    pub cycles_pct: f64,
    /// Percent of kernel-service energy.
    pub energy_pct: f64,
}

/// Table 4 row: one benchmark's service breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4Row {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Entries sorted by descending cycle share.
    pub entries: Vec<Table4Entry>,
}

impl Table4Row {
    /// A service's entry, if it was invoked.
    pub fn entry(&self, service: KernelService) -> Option<&Table4Entry> {
        self.entries.iter().find(|e| e.service == service)
    }
}

impl fmt::Display for Table4Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}:", self.benchmark)?;
        for e in &self.entries {
            writeln!(
                f,
                "  {:<12} n={:<8} cycles {:6.2}%  energy {:6.2}%",
                e.service.name(),
                e.invocations,
                e.cycles_pct,
                e.energy_pct
            )?;
        }
        Ok(())
    }
}

/// Table 5 row: per-invocation energy variation of one service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table5Row {
    /// The service.
    pub service: KernelService,
    /// Pooled invocations.
    pub invocations: u64,
    /// Mean per-invocation energy (J).
    pub mean_energy_j: f64,
    /// Coefficient of deviation, percent.
    pub cod_pct: f64,
}

impl fmt::Display for Table5Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<12} mean {}  CoD {:6.2}%  (n={})",
            self.service.name(),
            joules(self.mean_energy_j),
            self.cod_pct,
            self.invocations
        )
    }
}

/// Extension row: kernel share on the single-issue vs superscalar machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelShareRow {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Kernel (+sync) share of cycles on the single-issue machine, %.
    pub single_issue_pct: f64,
    /// Kernel (+sync) share on the 4-wide machine, %.
    pub superscalar_pct: f64,
}

impl fmt::Display for KernelShareRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<9} single-issue {:5.1}%  ->  4-wide {:5.1}%",
            self.benchmark, self.single_issue_pct, self.superscalar_pct
        )
    }
}

/// Extension row: count-based kernel-energy estimation vs full simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelEstimateRow {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Kernel energy from full per-invocation attribution (J).
    pub full_j: f64,
    /// Kernel energy estimated from counts x cross-run means (J).
    pub estimated_j: f64,
}

impl KernelEstimateRow {
    /// Signed estimation error in percent.
    pub fn error_pct(&self) -> f64 {
        100.0 * (self.estimated_j - self.full_j) / self.full_j.max(1e-30)
    }
}

impl fmt::Display for KernelEstimateRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<9} full {}  estimate {}  error {:+.1}%",
            self.benchmark,
            joules(self.full_j),
            joules(self.estimated_j),
            self.error_pct()
        )
    }
}

/// Extension row: whole-run power metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerMetricsRow {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Run-average processor+memory power (W).
    pub average_w: f64,
    /// Peak sampling-window power (W).
    pub peak_w: f64,
    /// When the peak occurred (paper-time seconds).
    pub peak_at_s: f64,
    /// Total processor+memory energy (J, machine time).
    pub energy_j: f64,
    /// Energy-delay product (J*s).
    pub edp_js: f64,
}

impl fmt::Display for PowerMetricsRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<9} avg {:5.2} W  peak {:5.2} W (at {:6.2}s)  E {}  EDP {:9.3e} J.s",
            self.benchmark,
            self.average_w,
            self.peak_w,
            self.peak_at_s,
            joules(self.energy_j),
            self.edp_js
        )
    }
}

/// Extension row: SLEEP-capable policy vs the 2 s standby configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SleepStudyRow {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Disk energy under the 2 s standby policy (J).
    pub standby_j: f64,
    /// Disk energy under the SLEEP-capable policy (J).
    pub sleep_j: f64,
    /// Idle cycles under the SLEEP-capable policy.
    pub sleep_idle_cycles: u64,
    /// Idle cycles under the standby policy.
    pub standby_idle_cycles: u64,
}

impl fmt::Display for SleepStudyRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<9} standby-2s {}  sleep {}  ({:+.1}% energy, idle {} -> {})",
            self.benchmark,
            joules(self.standby_j),
            joules(self.sleep_j),
            100.0 * (self.sleep_j - self.standby_j) / self.standby_j.max(1e-30),
            self.standby_idle_cycles,
            self.sleep_idle_cycles,
        )
    }
}

/// Extension row: disk energy for one inter-request gap under each policy.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossoverRow {
    /// Idle gap between the two requests, paper-time seconds.
    pub gap_s: f64,
    /// `(policy, total energy J, spin-ups)` per candidate policy.
    pub energies: [(DiskPolicy, f64, u64); 4],
}

impl CrossoverRow {
    /// The policy with the lowest energy for this gap.
    pub fn winner(&self) -> DiskPolicy {
        self.energies
            .iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty")
            .0
    }
}

impl fmt::Display for CrossoverRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gap {:5.0}s:", self.gap_s)?;
        for (policy, j, _) in &self.energies {
            write!(f, "  {}={:6.2}J", policy.label(), j)?;
        }
        write!(f, "  -> winner: {}", self.winner().label())
    }
}

/// Extension row: one conditional-clocking style.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GatingRow {
    /// Style label.
    pub label: &'static str,
    /// Run-average processor+memory power (W).
    pub average_w: f64,
    /// Total processor+memory energy (J).
    pub energy_j: f64,
}

impl fmt::Display for GatingRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<18} avg {:6.2} W  energy {}",
            self.label,
            self.average_w,
            joules(self.energy_j)
        )
    }
}

/// Extension row: one point of the L1I design sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepRow {
    /// L1 instruction-cache capacity (KiB).
    pub l1i_kb: u64,
    /// Run length in cycles (performance side).
    pub cycles: u64,
    /// L1I average power (W).
    pub l1i_w: f64,
    /// Instruction-side L2 average power (W).
    pub l2i_w: f64,
    /// Whole-system average power (W).
    pub total_w: f64,
    /// Energy-delay product (J*s).
    pub edp_js: f64,
}

impl fmt::Display for SweepRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "L1I {:>4} KiB: {:>9} cycles  L1I {:5.2} W  L2I {:6.3} W  total {:5.2} W  EDP {:9.3e}",
            self.l1i_kb, self.cycles, self.l1i_w, self.l2i_w, self.total_w, self.edp_js
        )
    }
}

/// Extension row: one technology projection point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TechRow {
    /// Node label.
    pub label: &'static str,
    /// Processor+memory average power on the jess run (W).
    pub cpu_mem_w: f64,
    /// Maximum-activity power at this node (W).
    pub max_w: f64,
}

impl fmt::Display for TechRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<32} avg {:6.2} W  max {:6.2} W",
            self.label, self.cpu_mem_w, self.max_w
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::TraceStore;

    /// A canned [`PeerSource`] that always answers with the same bytes
    /// (or a miss), standing in for every fabric failure mode: owner
    /// down (`None`), a mid-stream disconnect (truncated bytes), a
    /// corrupt cache (garbage bytes), config drift (another key's
    /// bytes).
    #[derive(Debug)]
    struct StaticPeer {
        bytes: Option<Vec<u8>>,
    }

    impl PeerSource for StaticPeer {
        fn fetch(&self, _key: &TraceKey, _workload: &str, _cpu: &str) -> Option<Vec<u8>> {
            self.bytes.clone()
        }
    }

    fn quick_config() -> SystemConfig {
        SystemConfig {
            time_scale: 50_000.0,
            idle: IdleHandling::Analytic,
            ..SystemConfig::default()
        }
    }

    fn peered_suite(name: &str, bytes: Option<Vec<u8>>) -> ExperimentSuite {
        let dir = std::env::temp_dir().join(format!("swpeer-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ExperimentSuite::new(quick_config())
            .unwrap()
            .with_trace_store(TraceStore::open(dir).unwrap())
            .with_peer_source(Arc::new(StaticPeer { bytes }))
    }

    /// Valid `swtrace` bytes for jess/Mxs under [`quick_config`],
    /// captured by an isolated donor suite (no store, no peers).
    fn donor_bytes(workload: WorkloadKey, cpu: CpuModel) -> Vec<u8> {
        let donor = ExperimentSuite::new(quick_config()).unwrap();
        donor.trace_share_bytes(workload, cpu)
    }

    /// Every degraded fetch must end in a local simulation that is
    /// persisted to the store — a broken peer is a lost optimization,
    /// never an error.
    fn assert_degrades_to_sim(name: &str, bytes: Option<Vec<u8>>) {
        let suite = peered_suite(name, bytes);
        let workload = WorkloadKey::Canned(Benchmark::Jess);
        let trace = suite.trace_for(workload, CpuModel::Mxs);
        assert!(trace.work_cycles > 0, "{name}: usable trace");
        assert_eq!(suite.trace_source(workload, CpuModel::Mxs), Some("sim"));
        assert_eq!(suite.peer_loads(), 0, "{name}: nothing trusted");
        assert_eq!(suite.runs_executed(), 1, "{name}: exactly one capture");
        let key = suite.trace_key(workload, CpuModel::Mxs);
        assert!(
            suite.trace_store().unwrap().contains(&key),
            "{name}: fallback capture persists locally"
        );
    }

    #[test]
    fn dead_owner_degrades_to_local_sim() {
        assert_degrades_to_sim("down", None);
    }

    #[test]
    fn corrupt_peer_bytes_degrade_to_local_sim() {
        assert_degrades_to_sim("corrupt", Some(b"not a swtrace stream".to_vec()));
    }

    #[test]
    fn truncated_peer_stream_degrades_to_local_sim() {
        let good = donor_bytes(WorkloadKey::Canned(Benchmark::Jess), CpuModel::Mxs);
        assert!(good.len() > 64);
        assert_degrades_to_sim("truncated", Some(good[..good.len() / 2].to_vec()));
    }

    #[test]
    fn mismatched_descriptor_degrades_to_local_sim() {
        // A healthy stream for the *wrong* key (config drift between
        // peers): checksum passes, descriptor comparison must not.
        let other = donor_bytes(WorkloadKey::Canned(Benchmark::Db), CpuModel::Mxs);
        assert_degrades_to_sim("drift", Some(other));
    }

    #[test]
    fn verified_peer_bytes_replace_the_simulation() {
        let good = donor_bytes(WorkloadKey::Canned(Benchmark::Jess), CpuModel::Mxs);
        let suite = peered_suite("good", Some(good));
        let workload = WorkloadKey::Canned(Benchmark::Jess);
        let trace = suite.trace_for(workload, CpuModel::Mxs);
        assert!(trace.work_cycles > 0);
        assert_eq!(suite.trace_source(workload, CpuModel::Mxs), Some("peer"));
        assert_eq!(suite.peer_loads(), 1);
        assert_eq!(suite.runs_executed(), 0, "no local simulation");
        let key = suite.trace_key(workload, CpuModel::Mxs);
        assert!(
            suite.trace_store().unwrap().contains(&key),
            "fetched trace persists locally"
        );
    }

    #[test]
    fn share_path_never_consults_peers() {
        // The serving path must resolve locally even with a peer source
        // attached — this is the re-entrancy guard that bounds any
        // disagreeing ring views to one hop.
        #[derive(Debug)]
        struct Exploding;
        impl PeerSource for Exploding {
            fn fetch(&self, _: &TraceKey, _: &str, _: &str) -> Option<Vec<u8>> {
                panic!("trace_share_bytes must not reach the fabric");
            }
        }
        let dir = std::env::temp_dir().join(format!("swpeer-{}-share", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let suite = ExperimentSuite::new(quick_config())
            .unwrap()
            .with_trace_store(TraceStore::open(dir).unwrap())
            .with_peer_source(Arc::new(Exploding));
        let bytes = suite.trace_share_bytes(WorkloadKey::Canned(Benchmark::Jess), CpuModel::Mxs);
        assert!(!bytes.is_empty());
        assert_eq!(suite.runs_executed(), 1, "captured locally");
    }
}
