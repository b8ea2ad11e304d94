//! Timing-tree attribution of cycles/events/energy to kernel services.
//!
//! SimOS "Timing Trees" let the paper break kernel activity down into
//! services (`utlb`, `read`, `demand_zero`, ...) and study per-invocation
//! energy variation (Tables 4 and 5, Figure 8). This module reproduces that
//! facility: a stack of frames, one per in-flight service invocation, each
//! snapshotting the counter state at entry. Attribution is to the innermost
//! frame, matching a timing tree's leaf-level accounting.
//!
//! Per-invocation energies are needed for the paper's coefficient-of-
//! deviation analysis, but the log post-processing happens after the run.
//! The profiler therefore accepts an optional [`EnergyWeights`] table
//! (per-event Joules, produced by the power model ahead of time) and
//! maintains running mean/variance of the weighted per-invocation energy.
//! This is the same "online exception" the paper makes for the disk,
//! applied to invocation granularity.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use crate::{CounterSet, UnitEvent};

/// Opaque identifier for a kernel service.
///
/// The OS model (`softwatt-os`) defines the named service enumeration and
/// maps it onto these ids; the stats layer treats them as labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServiceId(pub u16);

impl fmt::Display for ServiceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "svc#{}", self.0)
    }
}

/// The hasher of [`ServiceAggregates`]: a [`ServiceId`] times an odd 64-bit
/// constant. A hash map places a key by the hash's low bits, which the
/// product keeps distinct for ids distinct in as many low bits, and
/// hashbrown tags it with the top seven, which the product fills for
/// small ids where the id itself would leave them zero.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceIdHasher(u64);

impl Hasher for ServiceIdHasher {
    fn write_u16(&mut self, id: u16) {
        self.0 = (self.0 ^ u64::from(id)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u16(u16::from(byte));
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Per-service aggregates, hashed by [`ServiceIdHasher`].
pub type ServiceAggregates =
    HashMap<ServiceId, ServiceAggregate, BuildHasherDefault<ServiceIdHasher>>;

/// Per-event energies (Joules) used to compute a per-invocation energy
/// online. The weights cover unit accesses including their share of the
/// conditionally-gated clock load; there is no per-cycle charge (see the
/// power model's `energy_weights` for why).
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyWeights {
    /// Energy per event occurrence, indexed by [`UnitEvent::index`].
    pub per_event_j: [f64; UnitEvent::COUNT],
}

impl EnergyWeights {
    /// A zero table (energy tracking disabled in effect).
    pub fn zero() -> EnergyWeights {
        EnergyWeights {
            per_event_j: [0.0; UnitEvent::COUNT],
        }
    }

    /// Energy of the given event deltas.
    pub fn energy_j(&self, events: &CounterSet) -> f64 {
        events.dot(&self.per_event_j)
    }
}

/// A completed-invocation summary retained per service.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceAggregate {
    /// Number of completed invocations.
    pub invocations: u64,
    /// Total cycles attributed to this service (innermost frames only).
    pub cycles: u64,
    /// Total event counts attributed to this service.
    pub events: CounterSet,
    /// Sum of per-invocation energies (J).
    pub energy_sum_j: f64,
    /// Sum of squared per-invocation energies (for variance).
    pub energy_sumsq_j2: f64,
}

impl ServiceAggregate {
    /// An empty aggregate (identity for [`ServiceAggregate::merge`]).
    pub fn empty() -> ServiceAggregate {
        ServiceAggregate {
            invocations: 0,
            cycles: 0,
            events: CounterSet::new(),
            energy_sum_j: 0.0,
            energy_sumsq_j2: 0.0,
        }
    }

    /// Folds one completed invocation of `cycles` cycles and `events` into
    /// the aggregate, returning its energy under `weights`. The profiler's
    /// [`ServiceProfiler::exit`] and trace replay's idle-gap fold both
    /// call this, so their sums are added in the same order.
    pub(crate) fn add_invocation(
        &mut self,
        cycles: u64,
        events: &CounterSet,
        weights: &EnergyWeights,
    ) -> f64 {
        let energy_j = weights.energy_j(events);
        self.invocations += 1;
        self.cycles += cycles;
        self.events.merge(events);
        self.energy_sum_j += energy_j;
        self.energy_sumsq_j2 += energy_j * energy_j;
        energy_j
    }

    /// Folds another aggregate (e.g. the same service observed in a
    /// different benchmark run) into this one. Mean/variance remain exact
    /// because sums and sums-of-squares are additive.
    pub fn merge(&mut self, other: &ServiceAggregate) {
        self.invocations += other.invocations;
        self.cycles += other.cycles;
        self.events.merge(&other.events);
        self.energy_sum_j += other.energy_sum_j;
        self.energy_sumsq_j2 += other.energy_sumsq_j2;
    }

    /// Adds each energy sum to 0.0, as [`ServiceAggregate::merge`] into
    /// [`ServiceAggregate::empty`] does, so a copy of an aggregate plus
    /// this is that merge, bit for bit: a count added to zero is itself,
    /// and 0.0 + -0.0 is 0.0.
    fn add_sums_to_zero(&mut self) {
        self.energy_sum_j += 0.0;
        self.energy_sumsq_j2 += 0.0;
    }

    /// Mean per-invocation energy in Joules, or `None` with no invocations.
    pub fn mean_energy_j(&self) -> Option<f64> {
        (self.invocations > 0).then(|| self.energy_sum_j / self.invocations as f64)
    }

    /// Population standard deviation of per-invocation energy.
    pub fn stddev_energy_j(&self) -> Option<f64> {
        let n = self.invocations as f64;
        if self.invocations == 0 {
            return None;
        }
        let mean = self.energy_sum_j / n;
        let var = (self.energy_sumsq_j2 / n - mean * mean).max(0.0);
        Some(var.sqrt())
    }

    /// Coefficient of deviation (stddev / mean) as a percentage — the
    /// paper's Table 5 metric. `None` if there are no invocations or the
    /// mean is zero.
    pub fn coefficient_of_deviation_pct(&self) -> Option<f64> {
        let mean = self.mean_energy_j()?;
        if mean == 0.0 {
            return None;
        }
        Some(self.stddev_energy_j()? / mean * 100.0)
    }
}

/// One completed invocation, as reported by [`ServiceProfiler::exit`].
#[derive(Debug, Clone, PartialEq)]
pub struct InvocationRecord {
    /// Which service completed.
    pub service: ServiceId,
    /// Cycles attributed to the invocation.
    pub cycles: u64,
    /// Energy attributed to the invocation (J), per the weights table.
    pub energy_j: f64,
}

#[derive(Debug, Clone)]
struct Frame {
    service: ServiceId,
    // Running attribution for this frame while it is the innermost one.
    cycles: u64,
    events: CounterSet,
    // Snapshots taken whenever this frame becomes/stops being innermost.
    snap_cycle: u64,
    snap_events: CounterSet,
}

/// Timing-tree profiler: a frame stack plus per-service aggregates.
///
/// Driven by the [`crate::StatsCollector`]; not usually used directly.
#[derive(Debug, Clone)]
pub struct ServiceProfiler {
    stack: Vec<Frame>,
    aggregates: ServiceAggregates,
    weights: EnergyWeights,
}

impl ServiceProfiler {
    /// Creates a profiler with the given energy weights.
    pub fn new(weights: EnergyWeights) -> ServiceProfiler {
        ServiceProfiler {
            stack: Vec::new(),
            aggregates: ServiceAggregates::default(),
            weights,
        }
    }

    /// Depth of the current frame stack (0 outside any service).
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Enters a new service invocation at the given cycle/counter state.
    pub fn enter(&mut self, service: ServiceId, cycle: u64, counters: &CounterSet) {
        // Bank the outgoing innermost frame's progress.
        if let Some(top) = self.stack.last_mut() {
            top.cycles += cycle - top.snap_cycle;
            top.events.merge(&counters.delta_since(&top.snap_events));
        }
        self.stack.push(Frame {
            service,
            cycles: 0,
            events: CounterSet::new(),
            snap_cycle: cycle,
            snap_events: counters.clone(),
        });
    }

    /// Exits the innermost invocation, returning its record.
    ///
    /// # Panics
    ///
    /// Panics if no frame is active or if `service` does not match the
    /// innermost frame (mismatched enter/exit indicates an OS-model bug).
    pub fn exit(
        &mut self,
        service: ServiceId,
        cycle: u64,
        counters: &CounterSet,
    ) -> InvocationRecord {
        let mut frame = self
            .stack
            .pop()
            .expect("service exit without matching enter");
        assert_eq!(
            frame.service, service,
            "service exit does not match innermost frame"
        );
        frame.cycles += cycle - frame.snap_cycle;
        frame
            .events
            .merge(&counters.delta_since(&frame.snap_events));

        // The parent frame (if any) resumes being innermost: re-snapshot.
        if let Some(parent) = self.stack.last_mut() {
            parent.snap_cycle = cycle;
            parent.snap_events = counters.clone();
        }

        let energy_j = self
            .aggregates
            .entry(service)
            .or_insert_with(ServiceAggregate::empty)
            .add_invocation(frame.cycles, &frame.events, &self.weights);

        InvocationRecord {
            service,
            cycles: frame.cycles,
            energy_j,
        }
    }

    /// Makes room for `additional` more services' aggregates.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.aggregates.reserve(additional);
    }

    /// Per-service aggregates accumulated so far.
    pub fn aggregates(&self) -> &ServiceAggregates {
        &self.aggregates
    }

    /// Folds a pre-computed aggregate for `service` into this profiler.
    ///
    /// The trace-replay path uses this to restore the policy-independent
    /// work services captured during the original simulation next to the
    /// idle-process frames the replay rebuilds itself.
    pub fn merge_aggregate(&mut self, service: ServiceId, aggregate: &ServiceAggregate) {
        match self.aggregates.entry(service) {
            Entry::Occupied(mut held) => held.get_mut().merge(aggregate),
            Entry::Vacant(slot) => slot.insert(aggregate.clone()).add_sums_to_zero(),
        }
    }

    /// The weights table in use.
    pub fn weights(&self) -> &EnergyWeights {
        &self.weights
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters_with(alu: u64) -> CounterSet {
        let mut c = CounterSet::new();
        c.add(UnitEvent::AluOp, alu);
        c
    }

    fn unit_weights() -> EnergyWeights {
        let mut w = EnergyWeights::zero();
        w.per_event_j[UnitEvent::AluOp.index()] = 1.0;
        w
    }

    #[test]
    fn single_invocation_attribution() {
        let mut p = ServiceProfiler::new(unit_weights());
        p.enter(ServiceId(1), 100, &counters_with(10));
        let rec = p.exit(ServiceId(1), 120, &counters_with(25));
        assert_eq!(rec.cycles, 20);
        // 15 ALU ops * 1 J.
        assert!((rec.energy_j - 15.0).abs() < 1e-12);
        let agg = &p.aggregates()[&ServiceId(1)];
        assert_eq!(agg.invocations, 1);
        assert_eq!(agg.cycles, 20);
        assert_eq!(agg.events.get(UnitEvent::AluOp), 15);
    }

    #[test]
    fn nested_frames_attribute_to_innermost() {
        let mut p = ServiceProfiler::new(unit_weights());
        p.enter(ServiceId(1), 0, &counters_with(0));
        p.enter(ServiceId(2), 10, &counters_with(4));
        let inner = p.exit(ServiceId(2), 15, &counters_with(6));
        let outer = p.exit(ServiceId(1), 30, &counters_with(10));
        assert_eq!(inner.cycles, 5);
        assert_eq!(outer.cycles, 25); // 10 before + 15 after the inner frame
        let outer_agg = &p.aggregates()[&ServiceId(1)];
        assert_eq!(outer_agg.events.get(UnitEvent::AluOp), 8); // 4 + (10-6)
        let inner_agg = &p.aggregates()[&ServiceId(2)];
        assert_eq!(inner_agg.events.get(UnitEvent::AluOp), 2);
    }

    #[test]
    fn variance_of_identical_invocations_is_zero() {
        let mut p = ServiceProfiler::new(unit_weights());
        for i in 0..5u64 {
            let base = i * 100;
            p.enter(ServiceId(3), base, &counters_with(i * 10));
            p.exit(ServiceId(3), base + 10, &counters_with(i * 10 + 7));
        }
        let agg = &p.aggregates()[&ServiceId(3)];
        assert_eq!(agg.invocations, 5);
        assert!(agg.coefficient_of_deviation_pct().unwrap() < 1e-9);
    }

    #[test]
    fn variance_of_differing_invocations_is_positive() {
        let mut p = ServiceProfiler::new(unit_weights());
        p.enter(ServiceId(4), 0, &counters_with(0));
        p.exit(ServiceId(4), 10, &counters_with(10));
        p.enter(ServiceId(4), 20, &counters_with(10));
        p.exit(ServiceId(4), 60, &counters_with(50));
        let agg = &p.aggregates()[&ServiceId(4)];
        assert!(agg.coefficient_of_deviation_pct().unwrap() > 10.0);
    }

    #[test]
    #[should_panic(expected = "does not match innermost")]
    fn mismatched_exit_panics() {
        let mut p = ServiceProfiler::new(EnergyWeights::zero());
        p.enter(ServiceId(1), 0, &CounterSet::new());
        let _ = p.exit(ServiceId(2), 1, &CounterSet::new());
    }

    /// A service merged into a profiler that lacks it is stored as
    /// `ServiceAggregate::empty()` with it merged in, every bit alike,
    /// signed zero and NaN included; a second merge adds to it.
    #[test]
    fn a_first_merge_equals_a_merge_into_empty() {
        for (sum, sumsq) in [(-0.0, -0.0), (1.5e-9, f64::NAN), (0.0, 2.0)] {
            let aggregate = ServiceAggregate {
                invocations: 3,
                cycles: 70,
                events: counters_with(11),
                energy_sum_j: sum,
                energy_sumsq_j2: sumsq,
            };
            let mut expected = ServiceAggregate::empty();
            expected.merge(&aggregate);
            let mut p = ServiceProfiler::new(EnergyWeights::zero());
            p.merge_aggregate(ServiceId(5), &aggregate);
            let held = &p.aggregates()[&ServiceId(5)];
            let bits = |a: &ServiceAggregate| {
                (
                    a.invocations,
                    a.cycles,
                    a.events.clone(),
                    a.energy_sum_j.to_bits(),
                    a.energy_sumsq_j2.to_bits(),
                )
            };
            assert_eq!(bits(held), bits(&expected));
            p.merge_aggregate(ServiceId(5), &aggregate);
            expected.merge(&aggregate);
            assert_eq!(bits(&p.aggregates()[&ServiceId(5)]), bits(&expected));
        }
    }

    #[test]
    fn empty_aggregate_stats_are_none() {
        let agg = ServiceAggregate::empty();
        assert!(agg.mean_energy_j().is_none());
        assert!(agg.coefficient_of_deviation_pct().is_none());
    }
}
