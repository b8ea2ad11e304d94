//! The performance trace captured by a full simulation and consumed by the
//! disk-policy replay engine.
//!
//! The paper's architecture (§3) computes power by post-processing sampled
//! simulation logs; only the disk is accounted online. A direct consequence
//! is that the expensive cycle-level simulation only needs to run once per
//! (benchmark, CPU) pair: a different disk power-management policy changes
//! nothing but the *lengths of the blocked idle stretches* between disk
//! requests. A [`PerfTrace`] records everything the replay needs:
//!
//! - the sampled log, split into *segments* at disk-request completion
//!   boundaries (samples inside a segment contain only work — blocked
//!   stretches are excluded and rebuilt per policy), stored once in a
//!   shared [`Segments`] block that every replayed log reads in place;
//! - the disk request stream in *work-relative* time (cycles of committed
//!   work before each submission), so requests can be re-anchored under
//!   re-timed gaps;
//! - the measured per-cycle idle event rates used to synthesize idle-loop
//!   activity for the rebuilt gaps (paper §3.3);
//! - the per-service aggregates of the work services (everything except the
//!   idle pseudo-service, which the replay rebuilds itself).
//!
//! A trace is stored and sent between peers in one format, the
//! `swtrace` binary codec ([`PerfTrace::to_binary`],
//! [`PerfTrace::from_binary`]), which round-trips exactly.

use crate::{Clocking, Segments, ServiceAggregate, ServiceId, UnitEvent};

/// One disk request in work-relative time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRequest {
    /// Work cycles elapsed when the request was submitted (the
    /// policy-independent clock: total cycles minus skipped idle gaps).
    pub work_submit: u64,
    /// Transfer size in bytes.
    pub bytes: u64,
}

/// A captured performance trace: one full simulation, replayable under any
/// disk policy. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfTrace {
    /// Clocking of the capture run.
    pub clocking: Clocking,
    /// Sampling window length in cycles.
    pub sample_interval: u64,
    /// Work samples split at request boundaries: `segments.get(i)` holds
    /// the samples between request `i-1`'s completion and request `i`'s
    /// (`segments.len() == requests.len() + 1`).
    pub segments: Segments,
    /// The disk request stream in work-relative time.
    pub requests: Vec<TraceRequest>,
    /// Measured per-cycle idle event rates (paper §3.3).
    pub idle_rates: Vec<(UnitEvent, f64)>,
    /// Aggregates of the work services (excludes the idle pseudo-service),
    /// sorted by service id for deterministic serialization.
    pub work_services: Vec<(ServiceId, ServiceAggregate)>,
    /// Total work cycles of the run (cycles minus skipped idle gaps).
    pub work_cycles: u64,
    /// Instructions committed by the CPU model.
    pub committed: u64,
    /// User-mode instructions executed.
    pub user_instrs: u64,
}

impl PerfTrace {
    /// Checks cross-section invariants (a positive sampling interval,
    /// non-empty samples, segment/request correspondence, monotone work
    /// offsets). The deserializer, [`PerfTrace::from_binary`], runs this
    /// check, so bytes from a store or a peer can never construct a trace
    /// that breaks them. O(requests): the segment block's cycle totals
    /// were computed when it was built.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.sample_interval == 0 {
            return Err("trace has a zero sampling interval".to_string());
        }
        if self.segments.has_empty_sample() {
            return Err("trace has a sample covering zero cycles".to_string());
        }
        if self.segments.len() != self.requests.len() + 1 {
            return Err(format!(
                "trace has {} segments for {} requests (want requests + 1)",
                self.segments.len(),
                self.requests.len()
            ));
        }
        let Some(sampled) = self.segments.cycles() else {
            return Err("segment sample cycles overflow u64".to_string());
        };
        if sampled != self.work_cycles {
            return Err(format!(
                "segment samples cover {sampled} cycles but the trace claims {} work cycles",
                self.work_cycles
            ));
        }
        let mut prev_submit = 0u64;
        for (i, r) in self.requests.iter().enumerate() {
            if r.work_submit < prev_submit {
                return Err(format!(
                    "request {i} submitted at work cycle {} before request {}'s {prev_submit} \
                     (work offsets must be monotone)",
                    r.work_submit,
                    i.wrapping_sub(1)
                ));
            }
            if r.work_submit > self.work_cycles {
                return Err(format!(
                    "request {i} submitted at work cycle {} beyond the trace's {} work cycles",
                    r.work_submit, self.work_cycles
                ));
            }
            prev_submit = r.work_submit;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CounterSet, Mode, ModeCounters, Sample};

    fn sample(end: u64, user_cycles: u64, alu: u64) -> Sample {
        let mut events = ModeCounters::new();
        events.mode_mut(Mode::User).add(UnitEvent::AluOp, alu);
        let mut mode_cycles = [0; Mode::COUNT];
        mode_cycles[Mode::User.index()] = user_cycles;
        Sample {
            end_cycle: end,
            mode_cycles,
            events: (&events).into(),
        }
    }

    fn trace() -> PerfTrace {
        let mut agg = ServiceAggregate::empty();
        agg.invocations = 3;
        agg.cycles = 123;
        agg.energy_sum_j = 0.1 + 0.2; // deliberately non-representable
        agg.energy_sumsq_j2 = 1.0 / 3.0;
        let mut events = CounterSet::new();
        events.add(UnitEvent::TlbWrite, 9);
        agg.events = events;
        PerfTrace {
            clocking: Clocking::scaled(200.0e6, 2000.0),
            sample_interval: 100,
            segments: vec![vec![sample(100, 100, 40)], vec![sample(300, 60, 7)]].into(),
            requests: vec![TraceRequest {
                work_submit: 100,
                bytes: 8192,
            }],
            idle_rates: vec![
                (UnitEvent::IcacheAccess, 0.987654321),
                (UnitEvent::AluOp, 1.5),
            ],
            work_services: vec![(ServiceId(1), agg)],
            work_cycles: 160,
            committed: 140,
            user_instrs: 120,
        }
    }

    #[test]
    fn validate_rejects_segment_mismatch() {
        let mut t = trace();
        t.segments = vec![vec![sample(100, 100, 40)]].into();
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_rejects_cycle_mismatch() {
        let mut t = trace();
        t.work_cycles += 1;
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_rejects_a_zero_interval() {
        let mut t = trace();
        t.sample_interval = 0;
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_rejects_a_zero_cycle_sample() {
        let mut t = trace();
        t.segments = vec![
            vec![sample(100, 100, 40), sample(100, 0, 0)],
            vec![sample(160, 60, 7)],
        ]
        .into();
        assert!(t.validate().is_err());
    }
}
