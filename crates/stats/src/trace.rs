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
//! Serialization mirrors [`crate::SimLog`]'s CSV format: a tagged-row text
//! file that round-trips exactly (floats travel as IEEE-754 bit patterns).

use std::io::{self, BufRead, Write};

use crate::{
    Clocking, Mode, ModeCounters, Sample, Segments, ServiceAggregate, ServiceId, UnitEvent,
};

/// One disk request in work-relative time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRequest {
    /// Work cycles elapsed when the request was submitted (the
    /// policy-independent clock: total cycles minus skipped idle gaps).
    pub work_submit: u64,
    /// Byte offset on the disk (drives position-dependent seek times).
    pub disk_offset: u64,
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
    /// offsets). Both deserializers — [`PerfTrace::from_csv`] and the
    /// binary [`PerfTrace::from_binary`] — run this same check, so a
    /// hand-edited CSV can never construct a trace the binary codec would
    /// reject, and vice versa. O(requests): the segment block's cycle
    /// totals were computed when it was built.
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

    /// Writes the trace as tagged CSV rows (see the module docs).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn to_csv<W: Write>(&self, mut w: W) -> io::Result<()> {
        writeln!(
            w,
            "# softwatt perftrace v1 hz={} scale={} interval={} work_cycles={} committed={} user_instrs={}",
            self.clocking.hz(),
            self.clocking.scale(),
            self.sample_interval,
            self.work_cycles,
            self.committed,
            self.user_instrs
        )?;
        for r in &self.requests {
            writeln!(w, "R,{},{},{}", r.work_submit, r.disk_offset, r.bytes)?;
        }
        for &(event, rate) in &self.idle_rates {
            writeln!(w, "I,{},{:016x}", event.index(), rate.to_bits())?;
        }
        for (service, agg) in &self.work_services {
            write!(
                w,
                "W,{},{},{},{:016x},{:016x}",
                service.0,
                agg.invocations,
                agg.cycles,
                agg.energy_sum_j.to_bits(),
                agg.energy_sumsq_j2.to_bits()
            )?;
            for (_, n) in agg.events.iter() {
                write!(w, ",{n}")?;
            }
            writeln!(w)?;
        }
        for segment in self.segments.iter() {
            writeln!(w, "G")?;
            for s in segment {
                write!(w, "S,{}", s.end_cycle)?;
                for m in Mode::ALL {
                    write!(w, ",{}", s.mode_cycles[m.index()])?;
                }
                for m in Mode::ALL {
                    for e in UnitEvent::ALL {
                        write!(w, ",{}", s.events.mode(m).get(e))?;
                    }
                }
                writeln!(w)?;
            }
        }
        Ok(())
    }

    /// Reads a trace previously written by [`PerfTrace::to_csv`].
    ///
    /// # Errors
    ///
    /// Returns an error for I/O failures or a malformed file.
    pub fn from_csv<R: BufRead>(r: R) -> io::Result<PerfTrace> {
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        let mut lines = r.lines();
        let header = lines.next().ok_or_else(|| bad("empty trace file"))??;
        let rest = header
            .strip_prefix("# softwatt perftrace v1 ")
            .ok_or_else(|| bad("missing perftrace header"))?;
        let mut hz = None;
        let mut scale = None;
        let mut interval = None;
        let mut work_cycles = None;
        let mut committed = None;
        let mut user_instrs = None;
        for field in rest.split_whitespace() {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| bad("malformed header field"))?;
            match key {
                "hz" => hz = value.parse::<f64>().ok(),
                "scale" => scale = value.parse::<f64>().ok(),
                "interval" => interval = value.parse::<u64>().ok(),
                "work_cycles" => work_cycles = value.parse::<u64>().ok(),
                "committed" => committed = value.parse::<u64>().ok(),
                "user_instrs" => user_instrs = value.parse::<u64>().ok(),
                _ => {}
            }
        }
        let (Some(hz), Some(scale), Some(interval)) = (hz, scale, interval) else {
            return Err(bad("incomplete perftrace header"));
        };
        let (Some(work_cycles), Some(committed), Some(user_instrs)) =
            (work_cycles, committed, user_instrs)
        else {
            return Err(bad("incomplete perftrace header"));
        };
        let clocking = Clocking::try_scaled(hz, scale).ok_or_else(|| {
            bad("perftrace clock rate and time scale must be positive and finite")
        })?;

        let mut requests = Vec::new();
        let mut idle_rates = Vec::new();
        let mut work_services = Vec::new();
        let mut segments: Vec<Vec<Sample>> = Vec::new();
        let parse_u64 = |s: Option<&str>| -> io::Result<u64> {
            s.ok_or_else(|| bad("short row"))?
                .parse()
                .map_err(|_| bad("unparsable number"))
        };
        let parse_f64_bits = |s: Option<&str>| -> io::Result<f64> {
            let bits = u64::from_str_radix(s.ok_or_else(|| bad("short row"))?, 16)
                .map_err(|_| bad("unparsable float bits"))?;
            Ok(f64::from_bits(bits))
        };
        for line in lines {
            let line = line?;
            if line.is_empty() {
                continue;
            }
            let mut fields = line.split(',');
            match fields.next() {
                Some("R") => requests.push(TraceRequest {
                    work_submit: parse_u64(fields.next())?,
                    disk_offset: parse_u64(fields.next())?,
                    bytes: parse_u64(fields.next())?,
                }),
                Some("I") => {
                    let index = parse_u64(fields.next())? as usize;
                    if index >= UnitEvent::COUNT {
                        return Err(bad("idle-rate event index out of range"));
                    }
                    let rate = parse_f64_bits(fields.next())?;
                    idle_rates.push((UnitEvent::from_index(index), rate));
                }
                Some("W") => {
                    let service = ServiceId(
                        parse_u64(fields.next())?
                            .try_into()
                            .map_err(|_| bad("service id out of range"))?,
                    );
                    let mut agg = ServiceAggregate::empty();
                    agg.invocations = parse_u64(fields.next())?;
                    agg.cycles = parse_u64(fields.next())?;
                    agg.energy_sum_j = parse_f64_bits(fields.next())?;
                    agg.energy_sumsq_j2 = parse_f64_bits(fields.next())?;
                    for e in UnitEvent::ALL {
                        agg.events.add(e, parse_u64(fields.next())?);
                    }
                    work_services.push((service, agg));
                }
                Some("G") => segments.push(Vec::new()),
                Some("S") => {
                    let end_cycle = parse_u64(fields.next())?;
                    let mut mode_cycles = [0u64; Mode::COUNT];
                    for mc in &mut mode_cycles {
                        *mc = parse_u64(fields.next())?;
                    }
                    let mut events = ModeCounters::new();
                    for m in Mode::ALL {
                        for e in UnitEvent::ALL {
                            events.mode_mut(m).add(e, parse_u64(fields.next())?);
                        }
                    }
                    let segment = segments
                        .last_mut()
                        .ok_or_else(|| bad("sample row before any segment marker"))?;
                    segment.push(Sample {
                        end_cycle,
                        mode_cycles,
                        events,
                    });
                }
                _ => return Err(bad("unknown row tag")),
            }
        }
        let trace = PerfTrace {
            clocking,
            sample_interval: interval,
            segments: Segments::new(segments),
            requests,
            idle_rates,
            work_services,
            work_cycles,
            committed,
            user_instrs,
        };
        // Same cross-section validation as the binary reader (swtrace.rs):
        // the two formats accept exactly the same set of traces.
        trace
            .validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CounterSet;

    fn sample(end: u64, user_cycles: u64, alu: u64) -> Sample {
        let mut events = ModeCounters::new();
        events.mode_mut(Mode::User).add(UnitEvent::AluOp, alu);
        let mut mode_cycles = [0; Mode::COUNT];
        mode_cycles[Mode::User.index()] = user_cycles;
        Sample {
            end_cycle: end,
            mode_cycles,
            events,
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
                disk_offset: 4096,
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
    fn csv_round_trip_is_exact() {
        let t = trace();
        t.validate().unwrap();
        let mut buf = Vec::new();
        t.to_csv(&mut buf).unwrap();
        let back = PerfTrace::from_csv(std::io::BufReader::new(&buf[..])).unwrap();
        assert_eq!(back, t);
        // Bit-exactness of the floats, beyond PartialEq.
        assert_eq!(
            back.work_services[0].1.energy_sum_j.to_bits(),
            t.work_services[0].1.energy_sum_j.to_bits()
        );
        assert_eq!(back.idle_rates[0].1.to_bits(), t.idle_rates[0].1.to_bits());
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

    /// The trace's CSV with its header line replaced.
    fn csv_with_header(header: &str) -> Vec<u8> {
        let mut buf = Vec::new();
        trace().to_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        format!("{header}\n{}", text.split_once('\n').unwrap().1).into_bytes()
    }

    #[test]
    fn from_csv_rejects_a_zero_clock_rate() {
        let csv = csv_with_header(
            "# softwatt perftrace v1 hz=0 scale=2000 interval=100 work_cycles=160 \
             committed=140 user_instrs=120",
        );
        let err = PerfTrace::from_csv(std::io::BufReader::new(&csv[..])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn from_csv_rejects_a_nan_or_non_positive_scale() {
        for scale in ["NaN", "-1", "0"] {
            let csv = csv_with_header(&format!(
                "# softwatt perftrace v1 hz=200000000 scale={scale} interval=100 \
                 work_cycles=160 committed=140 user_instrs=120"
            ));
            let err = PerfTrace::from_csv(std::io::BufReader::new(&csv[..])).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "scale={scale}");
        }
    }

    #[test]
    fn from_csv_rejects_a_zero_interval() {
        let csv = csv_with_header(
            "# softwatt perftrace v1 hz=200000000 scale=2000 interval=0 work_cycles=160 \
             committed=140 user_instrs=120",
        );
        assert!(PerfTrace::from_csv(std::io::BufReader::new(&csv[..])).is_err());
    }

    #[test]
    fn from_csv_rejects_garbage() {
        let garbage = b"not a trace\n1,2,3\n";
        assert!(PerfTrace::from_csv(std::io::BufReader::new(&garbage[..])).is_err());
    }
}
