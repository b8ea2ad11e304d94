//! `swtrace` — the compact binary on-disk format for [`PerfTrace`].
//!
//! The one serialized form of a trace: the persistent trace store writes
//! it and cluster peers send it. Layout:
//!
//! ```text
//! magic      8 bytes  b"SWTRACE\0"
//! version    varint   2
//! sections   repeated [tag u8][varint len][payload], in fixed order:
//!   0x01 HEADER      hz/scale as f64 bit patterns (8 B LE each), then
//!                    varints: sample_interval, work_cycles, committed,
//!                    user_instrs
//!   0x02 ANNOTATION  opaque caller bytes (the trace store keeps its
//!                    cache-key descriptor here), possibly empty
//!   0x03 REQUESTS    varint count; per request: varint delta of
//!                    work_submit from the previous request (submissions
//!                    are monotone), varint bytes
//!   0x04 IDLERATES   varint count; per entry: varint event index, rate
//!                    as an f64 bit pattern (8 B LE)
//!   0x05 SERVICES    varint count; per service: varint id, invocations,
//!                    cycles, energy sums as two f64 bit patterns (8 B LE
//!                    each), then `UnitEvent::COUNT` varint event counts
//!   0x06 SEGMENTS    varint segment count; per segment: varint sample
//!                    count; per sample: zigzag varint end_cycle delta vs
//!                    the previous sample, `Mode::COUNT` varint mode
//!                    cycles, `Mode::COUNT * UnitEvent::COUNT` varint
//!                    event counts
//!   0x00 END         empty payload
//! checksum   8 bytes  FNV-1a 64 over everything above, little-endian
//! ```
//!
//! Counts in a sampled simulation log are overwhelmingly small, so LEB128
//! varints (with deltas where streams are monotone) keep the dominant
//! SEGMENTS section compact. Floats travel as IEEE-754 bit patterns, so
//! round trips are exact.
//!
//! Every reader-side failure — bad magic, unsupported version, truncation,
//! checksum mismatch, malformed sections, violated cross-section
//! invariants — surfaces as [`io::ErrorKind::InvalidData`] (truncation as
//! [`io::ErrorKind::UnexpectedEof`]), so callers can treat "any error" as
//! "corrupt entry" uniformly.

use std::io::{self, Read, Write};

use crate::hash::fnv1a;
use crate::{
    Mode, ModeCounters, PerfTrace, Sample, Segments, ServiceAggregate, ServiceId, TraceRequest,
    UnitEvent,
};

/// File magic: identifies a `swtrace` file of any version.
pub const SWTRACE_MAGIC: [u8; 8] = *b"SWTRACE\0";

/// Current format version. Bump on any layout change; readers reject other
/// versions, which cache layers treat as a stale entry.
pub const SWTRACE_VERSION: u64 = 2;

const SEC_HEADER: u8 = 0x01;
const SEC_ANNOTATION: u8 = 0x02;
const SEC_REQUESTS: u8 = 0x03;
const SEC_IDLERATES: u8 = 0x04;
const SEC_SERVICES: u8 = 0x05;
const SEC_SEGMENTS: u8 = 0x06;
const SEC_END: u8 = 0x00;

// The fewest bytes one entry of each section can take (every varint takes
// at least one byte, every float eight). Reservations are capped by what
// the remaining bytes could encode, so a count claimed by a short (even
// checksum-valid) input never turns into a large allocation.
const MIN_REQUEST_BYTES: usize = 2;
const MIN_IDLE_RATE_BYTES: usize = 1 + 8;
const MIN_SERVICE_BYTES: usize = 3 + 2 * 8 + UnitEvent::COUNT;
const MIN_SEGMENT_BYTES: usize = 1;
const MIN_SAMPLE_BYTES: usize = 1 + Mode::COUNT + Mode::COUNT * UnitEvent::COUNT;

use crate::varint::{put_varint, put_zigzag, unzigzag};

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Cursor over a parsed byte slice; all reads are bounds-checked.
struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn short(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, msg.to_string())
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.data.len())
            .ok_or_else(|| short("swtrace truncated"))?;
        let slice = &self.data[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn byte(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn varint(&mut self) -> io::Result<u64> {
        match crate::varint::decode(&self.data[self.pos..]) {
            Ok(Some((v, used))) => {
                self.pos += used;
                Ok(v)
            }
            Ok(None) => Err(short("swtrace truncated")),
            Err(_) => Err(bad("swtrace varint overflows u64")),
        }
    }

    fn zigzag(&mut self) -> io::Result<i64> {
        Ok(unzigzag(self.varint()?))
    }

    fn f64(&mut self) -> io::Result<f64> {
        let bytes: [u8; 8] = self.take(8)?.try_into().expect("take(8) returns 8 bytes");
        Ok(f64::from_bits(u64::from_le_bytes(bytes)))
    }

    fn done(&self) -> bool {
        self.pos == self.data.len()
    }

    /// Capacity to reserve for `count` entries of at least `min_bytes`
    /// each: no more than the unread bytes could hold.
    fn capacity(&self, count: u64, min_bytes: usize) -> usize {
        let fit = (self.data.len() - self.pos) / min_bytes;
        usize::try_from(count).map_or(fit, |n| n.min(fit))
    }
}

fn section(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    out.push(tag);
    put_varint(out, payload.len() as u64);
    out.extend_from_slice(payload);
}

impl PerfTrace {
    /// Writes the trace in the `swtrace` binary format (see the module
    /// docs). `annotation` is an opaque caller payload returned verbatim
    /// by [`PerfTrace::from_binary`]; the trace store keeps its cache-key
    /// descriptor there so hash collisions and config drift are detectable.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn to_binary<W: Write>(&self, mut w: W, annotation: &[u8]) -> io::Result<()> {
        let mut out = Vec::with_capacity(4096);
        out.extend_from_slice(&SWTRACE_MAGIC);
        put_varint(&mut out, SWTRACE_VERSION);

        let mut payload = Vec::with_capacity(64);
        put_f64(&mut payload, self.clocking.hz());
        put_f64(&mut payload, self.clocking.scale());
        put_varint(&mut payload, self.sample_interval);
        put_varint(&mut payload, self.work_cycles);
        put_varint(&mut payload, self.committed);
        put_varint(&mut payload, self.user_instrs);
        section(&mut out, SEC_HEADER, &payload);

        section(&mut out, SEC_ANNOTATION, annotation);

        payload.clear();
        put_varint(&mut payload, self.requests.len() as u64);
        let mut prev_submit = 0u64;
        for r in &self.requests {
            // Submissions are monotone (PerfTrace::validate), so the delta
            // stream is non-negative and small.
            put_varint(&mut payload, r.work_submit.wrapping_sub(prev_submit));
            prev_submit = r.work_submit;
            put_varint(&mut payload, r.bytes);
        }
        section(&mut out, SEC_REQUESTS, &payload);

        payload.clear();
        put_varint(&mut payload, self.idle_rates.len() as u64);
        for &(event, rate) in &self.idle_rates {
            put_varint(&mut payload, event.index() as u64);
            put_f64(&mut payload, rate);
        }
        section(&mut out, SEC_IDLERATES, &payload);

        payload.clear();
        put_varint(&mut payload, self.work_services.len() as u64);
        for (service, agg) in &self.work_services {
            put_varint(&mut payload, u64::from(service.0));
            put_varint(&mut payload, agg.invocations);
            put_varint(&mut payload, agg.cycles);
            put_f64(&mut payload, agg.energy_sum_j);
            put_f64(&mut payload, agg.energy_sumsq_j2);
            for e in UnitEvent::ALL {
                put_varint(&mut payload, agg.events.get(e));
            }
        }
        section(&mut out, SEC_SERVICES, &payload);

        payload.clear();
        put_varint(&mut payload, self.segments.len() as u64);
        let mut prev_end = 0i64;
        for segment in self.segments.iter() {
            put_varint(&mut payload, segment.len() as u64);
            for s in segment {
                put_zigzag(&mut payload, s.end_cycle as i64 - prev_end);
                prev_end = s.end_cycle as i64;
                for m in Mode::ALL {
                    put_varint(&mut payload, s.mode_cycles[m.index()]);
                }
                for m in Mode::ALL {
                    for e in UnitEvent::ALL {
                        put_varint(&mut payload, s.events.mode(m).get(e));
                    }
                }
            }
        }
        section(&mut out, SEC_SEGMENTS, &payload);

        section(&mut out, SEC_END, &[]);
        let checksum = fnv1a(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        w.write_all(&out)
    }

    /// Reads a trace previously written by [`PerfTrace::to_binary`],
    /// returning the trace and the caller annotation.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] for bad magic, an unsupported format
    /// version, a checksum mismatch, malformed sections, or violated trace
    /// invariants; [`io::ErrorKind::UnexpectedEof`] for truncation; plus
    /// any I/O error from the reader.
    pub fn from_binary<R: Read>(mut r: R) -> io::Result<(PerfTrace, Vec<u8>)> {
        let mut data = Vec::new();
        r.read_to_end(&mut data)?;
        if data.len() < SWTRACE_MAGIC.len() + 8 {
            return Err(short("swtrace file shorter than magic + checksum"));
        }
        if data[..SWTRACE_MAGIC.len()] != SWTRACE_MAGIC {
            return Err(bad("not a swtrace file (bad magic)"));
        }
        let (body, trailer) = data.split_at(data.len() - 8);
        let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
        if fnv1a(body) != stored {
            return Err(bad("swtrace checksum mismatch"));
        }

        let mut c = Cursor {
            data: body,
            pos: SWTRACE_MAGIC.len(),
        };
        let version = c.varint()?;
        if version != SWTRACE_VERSION {
            return Err(bad(format!(
                "unsupported swtrace format version {version} (this reader speaks {SWTRACE_VERSION})"
            )));
        }

        let mut expect = |tag: u8| -> io::Result<Cursor<'_>> {
            let got = c.byte()?;
            if got != tag {
                return Err(bad(format!(
                    "swtrace section {got:#04x} where {tag:#04x} expected"
                )));
            }
            let len = c.varint()?;
            let len = usize::try_from(len).map_err(|_| bad("swtrace section length overflow"))?;
            Ok(Cursor {
                data: c.take(len)?,
                pos: 0,
            })
        };

        let mut header = expect(SEC_HEADER)?;
        let clocking = crate::Clocking::try_scaled(header.f64()?, header.f64()?)
            .ok_or_else(|| bad("swtrace clock rate and time scale must be positive and finite"))?;
        let sample_interval = header.varint()?;
        let work_cycles = header.varint()?;
        let committed = header.varint()?;
        let user_instrs = header.varint()?;
        if !header.done() {
            return Err(bad("swtrace header has trailing bytes"));
        }

        let annotation = expect(SEC_ANNOTATION)?.data.to_vec();

        let mut sec = expect(SEC_REQUESTS)?;
        let count = sec.varint()?;
        let mut requests = Vec::with_capacity(sec.capacity(count, MIN_REQUEST_BYTES));
        let mut prev_submit = 0u64;
        for _ in 0..count {
            let work_submit = prev_submit
                .checked_add(sec.varint()?)
                .ok_or_else(|| bad("swtrace request offset overflows u64"))?;
            prev_submit = work_submit;
            requests.push(TraceRequest {
                work_submit,
                bytes: sec.varint()?,
            });
        }
        if !sec.done() {
            return Err(bad("swtrace request section has trailing bytes"));
        }

        let mut sec = expect(SEC_IDLERATES)?;
        let count = sec.varint()?;
        let mut idle_rates = Vec::with_capacity(sec.capacity(count, MIN_IDLE_RATE_BYTES));
        for _ in 0..count {
            let index = sec.varint()? as usize;
            if index >= UnitEvent::COUNT {
                return Err(bad("swtrace idle-rate event index out of range"));
            }
            idle_rates.push((UnitEvent::from_index(index), sec.f64()?));
        }
        if !sec.done() {
            return Err(bad("swtrace idle-rate section has trailing bytes"));
        }

        let mut sec = expect(SEC_SERVICES)?;
        let count = sec.varint()?;
        let mut work_services = Vec::with_capacity(sec.capacity(count, MIN_SERVICE_BYTES));
        for _ in 0..count {
            let id = sec.varint()?;
            let service = ServiceId(
                id.try_into()
                    .map_err(|_| bad("swtrace service id out of range"))?,
            );
            let mut agg = ServiceAggregate::empty();
            agg.invocations = sec.varint()?;
            agg.cycles = sec.varint()?;
            agg.energy_sum_j = sec.f64()?;
            agg.energy_sumsq_j2 = sec.f64()?;
            for e in UnitEvent::ALL {
                agg.events.add(e, sec.varint()?);
            }
            work_services.push((service, agg));
        }
        if !sec.done() {
            return Err(bad("swtrace service section has trailing bytes"));
        }

        let mut sec = expect(SEC_SEGMENTS)?;
        let seg_count = sec.varint()?;
        let mut segments = Vec::with_capacity(sec.capacity(seg_count, MIN_SEGMENT_BYTES));
        let mut prev_end = 0i64;
        for _ in 0..seg_count {
            let sample_count = sec.varint()?;
            let mut segment = Vec::with_capacity(sec.capacity(sample_count, MIN_SAMPLE_BYTES));
            for _ in 0..sample_count {
                let end = prev_end
                    .checked_add(sec.zigzag()?)
                    .filter(|&e| e >= 0)
                    .ok_or_else(|| bad("swtrace sample end-cycle out of range"))?;
                prev_end = end;
                let mut mode_cycles = [0u64; Mode::COUNT];
                for mc in &mut mode_cycles {
                    *mc = sec.varint()?;
                }
                let mut events = ModeCounters::new();
                for m in Mode::ALL {
                    for e in UnitEvent::ALL {
                        events.mode_mut(m).add(e, sec.varint()?);
                    }
                }
                segment.push(Sample {
                    end_cycle: end as u64,
                    mode_cycles,
                    events,
                });
            }
            segments.push(segment);
        }
        if !sec.done() {
            return Err(bad("swtrace segment section has trailing bytes"));
        }

        let end = expect(SEC_END)?;
        if !end.done() {
            return Err(bad("swtrace end section must be empty"));
        }
        if !c.done() {
            return Err(bad("swtrace has bytes after the end section"));
        }

        let trace = PerfTrace {
            clocking,
            sample_interval,
            segments: Segments::new(segments),
            requests,
            idle_rates,
            work_services,
            work_cycles,
            committed,
            user_instrs,
        };
        // Sections decode independently; check the invariants that span them.
        trace.validate().map_err(bad)?;
        Ok((trace, annotation))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Clocking, CounterSet};

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

    fn encode(t: &PerfTrace, annotation: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        t.to_binary(&mut buf, annotation).unwrap();
        buf
    }

    #[test]
    fn binary_round_trip_is_exact() {
        let t = trace();
        let buf = encode(&t, b"key descriptor");
        let (back, annotation) = PerfTrace::from_binary(&buf[..]).unwrap();
        assert_eq!(back, t);
        assert_eq!(annotation, b"key descriptor");
        // Bit-exactness of the floats, beyond PartialEq.
        assert_eq!(
            back.work_services[0].1.energy_sum_j.to_bits(),
            t.work_services[0].1.energy_sum_j.to_bits()
        );
        assert_eq!(back.idle_rates[0].1.to_bits(), t.idle_rates[0].1.to_bits());
        assert_eq!(back.clocking.hz().to_bits(), t.clocking.hz().to_bits());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut buf = encode(&trace(), b"");
        buf[0] = b'X';
        let err = PerfTrace::from_binary(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn stale_version_is_rejected() {
        let mut buf = encode(&trace(), b"");
        buf[SWTRACE_MAGIC.len()] = (SWTRACE_VERSION + 1) as u8;
        // Keep the checksum consistent so only the version trips.
        let len = buf.len();
        let sum = fnv1a(&buf[..len - 8]);
        buf[len - 8..].copy_from_slice(&sum.to_le_bytes());
        let err = PerfTrace::from_binary(&buf[..]).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn truncation_is_rejected() {
        let buf = encode(&trace(), b"annotated");
        for cut in [buf.len() - 1, buf.len() / 2, 10, 4] {
            assert!(
                PerfTrace::from_binary(&buf[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn flipped_payload_byte_is_rejected() {
        let buf = encode(&trace(), b"");
        // Flip every byte in turn; the checksum (or a structural check)
        // must catch each one.
        for i in 0..buf.len() {
            let mut corrupt = buf.clone();
            corrupt[i] ^= 0x40;
            assert!(
                PerfTrace::from_binary(&corrupt[..]).is_err(),
                "flipping byte {i} must fail"
            );
        }
    }

    /// The trace's encoding with the header's `hz`, `scale` and
    /// `sample_interval` replaced and the checksum recomputed.
    fn patched_header(hz: f64, scale: f64, interval: u8) -> Vec<u8> {
        let mut buf = encode(&trace(), b"");
        // magic, version, section tag, section length, then the header.
        let at = SWTRACE_MAGIC.len() + 3;
        buf[at..at + 8].copy_from_slice(&hz.to_bits().to_le_bytes());
        buf[at + 8..at + 16].copy_from_slice(&scale.to_bits().to_le_bytes());
        assert_eq!(buf[at + 16], 100, "single-byte interval varint");
        buf[at + 16] = interval;
        let len = buf.len();
        let sum = fnv1a(&buf[..len - 8]);
        buf[len - 8..].copy_from_slice(&sum.to_le_bytes());
        buf
    }

    #[test]
    fn unpatched_header_still_decodes() {
        assert!(PerfTrace::from_binary(&patched_header(200.0e6, 2000.0, 100)[..]).is_ok());
    }

    #[test]
    fn zero_clock_rate_is_rejected() {
        let err = PerfTrace::from_binary(&patched_header(0.0, 2000.0, 100)[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn nan_or_non_positive_scale_is_rejected() {
        for scale in [f64::NAN, -2000.0, 0.0, f64::INFINITY] {
            let err = PerfTrace::from_binary(&patched_header(200.0e6, scale, 100)[..]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "scale {scale}");
        }
    }

    #[test]
    fn zero_sample_interval_is_rejected() {
        let err = PerfTrace::from_binary(&patched_header(200.0e6, 2000.0, 0)[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn zero_cycle_sample_is_rejected() {
        let mut t = trace();
        t.segments = vec![
            vec![sample(100, 100, 40), sample(100, 0, 3)],
            vec![sample(300, 60, 7)],
        ]
        .into();
        let err = PerfTrace::from_binary(&encode(&t, b"")[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn binary_reader_rejects_non_monotone_requests() {
        let mut t = trace();
        t.requests = vec![
            TraceRequest {
                work_submit: 100,
                bytes: 1,
            },
            TraceRequest {
                work_submit: 50,
                bytes: 1,
            },
        ];
        t.segments = vec![vec![sample(100, 100, 40)], vec![], vec![sample(300, 60, 7)]].into();
        assert!(t.validate().is_err());
        // The writer will happily emit it (serializers don't judge), but
        // the reader runs the validation.
        let mut bin = Vec::new();
        t.to_binary(&mut bin, b"").unwrap();
        assert!(PerfTrace::from_binary(&bin[..]).is_err());
    }
}
