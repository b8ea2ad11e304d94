//! Instruction-trace recording and replay.
//!
//! Synthetic streams are regenerable from a seed, but traces make runs
//! portable: record a workload's user-instruction stream once, then replay
//! the identical stream under different machine configurations (the
//! classic trace-driven methodology SimOS-era studies used for
//! apples-to-apples machine comparisons).
//!
//! The format is a compact little-endian binary: a magic header, one
//! variable-length record per instruction, then an end record that holds
//! the number of instruction records and an FNV-1a 64 checksum of their
//! bytes. A writer adds the end record when it is finished
//! ([`TraceWriter::finish`]; a [`Recording`] finishes when its source
//! ends). A trace is corrupt, and its reader says so (see
//! [`TraceReader::status`]), if it ends anywhere but right after its end
//! record (inside a record, or at a record boundary before the end
//! record), holds a record that does not decode, or has an end record
//! that disagrees with its records.

use std::io::{self, Read, Write};
use std::sync::{Arc, OnceLock};

use softwatt_stats::hash::{fnv1a_extend, FNV1A_OFFSET};
use softwatt_stats::StatsCollector;

use crate::{FileRef, Instr, InstrSource, OpClass, Reg, SyscallKind};

const MAGIC: &[u8; 8] = b"SWTRACE2";
const NO_REG: u8 = 0xff;
/// The first byte of the end record, where an instruction record has its
/// opcode (no opcode is this large).
const END: u8 = 0xff;

// Flag bits of the per-record header byte.
const F_TAKEN: u8 = 1 << 0;
const F_MEM: u8 = 1 << 1;
const F_TARGET: u8 = 1 << 2;
const F_SYSCALL: u8 = 1 << 3;

fn op_code(op: OpClass) -> u8 {
    OpClass::ALL
        .iter()
        .position(|&o| o == op)
        .expect("op in ALL") as u8
}

fn op_from(code: u8) -> io::Result<OpClass> {
    OpClass::ALL
        .get(usize::from(code))
        .copied()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad opcode"))
}

fn reg_code(reg: Option<Reg>) -> u8 {
    reg.map_or(NO_REG, |r| r.index() as u8)
}

fn reg_from(code: u8) -> io::Result<Option<Reg>> {
    if code == NO_REG {
        return Ok(None);
    }
    let i = usize::from(code);
    if i < crate::reg::INT_REGS as usize {
        Ok(Some(Reg::int(code)))
    } else if i < Reg::COUNT {
        Ok(Some(Reg::fp(code - crate::reg::INT_REGS)))
    } else {
        Err(io::Error::new(io::ErrorKind::InvalidData, "bad register"))
    }
}

fn syscall_code(kind: SyscallKind) -> (u8, u32, u64, u32) {
    match kind {
        SyscallKind::Read {
            file,
            offset,
            bytes,
        } => (0, file.0, offset, bytes),
        SyscallKind::Write { file, bytes } => (1, file.0, 0, bytes),
        SyscallKind::Open { file } => (2, file.0, 0, 0),
        SyscallKind::Xstat { file } => (3, file.0, 0, 0),
        SyscallKind::DuPoll => (4, 0, 0, 0),
        SyscallKind::Bsd => (5, 0, 0, 0),
    }
}

fn syscall_from(code: u8, file: u32, offset: u64, bytes: u32) -> io::Result<SyscallKind> {
    Ok(match code {
        0 => SyscallKind::Read {
            file: FileRef(file),
            offset,
            bytes,
        },
        1 => SyscallKind::Write {
            file: FileRef(file),
            bytes,
        },
        2 => SyscallKind::Open {
            file: FileRef(file),
        },
        3 => SyscallKind::Xstat {
            file: FileRef(file),
        },
        4 => SyscallKind::DuPoll,
        5 => SyscallKind::Bsd,
        _ => return Err(io::Error::new(io::ErrorKind::InvalidData, "bad syscall")),
    })
}

/// Writes instructions to a binary trace.
///
/// # Examples
///
/// ```
/// use softwatt_isa::trace::{TraceReader, TraceWriter};
/// use softwatt_isa::{Instr, InstrSource, Reg};
/// use softwatt_stats::{Clocking, StatsCollector};
///
/// # fn main() -> std::io::Result<()> {
/// let mut buf = Vec::new();
/// let mut writer = TraceWriter::new(&mut buf)?;
/// writer.record(&Instr::alu(0x10, Reg::int(1), None, None))?;
/// writer.record(&Instr::load(0x14, Reg::int(2), Some(Reg::int(1)), 0x1000))?;
/// writer.finish()?;
///
/// let mut stats = StatsCollector::new(Clocking::default(), 100);
/// let mut reader = TraceReader::new(&buf[..])?;
/// let status = reader.status();
/// assert_eq!(reader.next_instr(&mut stats).unwrap().pc, 0x10);
/// assert_eq!(reader.next_instr(&mut stats).unwrap().mem_addr, Some(0x1000));
/// assert!(reader.next_instr(&mut stats).is_none());
/// assert!(status.error().is_none(), "a finished trace ends cleanly");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    out: W,
    recorded: u64,
    // FNV-1a 64 of the records written so far.
    checksum: u64,
    // One record's bytes, reused record to record.
    record: Vec<u8>,
}

impl<W: Write> TraceWriter<W> {
    /// Creates a writer and emits the header.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn new(mut out: W) -> io::Result<TraceWriter<W>> {
        out.write_all(MAGIC)?;
        Ok(TraceWriter {
            out,
            recorded: 0,
            checksum: FNV1A_OFFSET,
            record: Vec::with_capacity(48),
        })
    }

    /// Appends one instruction.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn record(&mut self, instr: &Instr) -> io::Result<()> {
        let mut flags = 0u8;
        if instr.taken {
            flags |= F_TAKEN;
        }
        if instr.mem_addr.is_some() {
            flags |= F_MEM;
        }
        if instr.op.is_branch() {
            flags |= F_TARGET;
        }
        if instr.syscall.is_some() {
            flags |= F_SYSCALL;
        }
        let r = &mut self.record;
        r.clear();
        r.extend_from_slice(&[
            op_code(instr.op),
            flags,
            reg_code(instr.dest),
            reg_code(instr.src1),
            reg_code(instr.src2),
        ]);
        r.extend_from_slice(&instr.pc.to_le_bytes());
        if let Some(addr) = instr.mem_addr {
            r.extend_from_slice(&addr.to_le_bytes());
        }
        if instr.op.is_branch() {
            r.extend_from_slice(&instr.target.to_le_bytes());
        }
        if let Some(kind) = instr.syscall {
            let (code, file, offset, bytes) = syscall_code(kind);
            r.push(code);
            r.extend_from_slice(&file.to_le_bytes());
            r.extend_from_slice(&offset.to_le_bytes());
            r.extend_from_slice(&bytes.to_le_bytes());
        }
        self.out.write_all(r)?;
        self.checksum = fnv1a_extend(self.checksum, r);
        self.recorded += 1;
        Ok(())
    }

    /// Instructions recorded so far.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Ends the trace: writes the end record (the record count and the
    /// records' checksum), flushes, and hands back the output. A trace
    /// that is never finished reads as corrupt.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn finish(mut self) -> io::Result<W> {
        self.out.write_all(&[END])?;
        self.out.write_all(&self.recorded.to_le_bytes())?;
        self.out.write_all(&self.checksum.to_le_bytes())?;
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Replays a binary trace as an [`InstrSource`].
///
/// The end record, with the end of the file right after it, is the
/// program's exit. Any other end (a trace without its end record, a
/// record cut short, a field that does not decode, an end record that
/// disagrees with the records or is followed by more bytes, an I/O error)
/// also ends the stream, since an [`InstrSource`] cannot fail, but the
/// reader keeps the error, with the index of the record it hit, where
/// [`TraceReader::status`] reports it.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    input: R,
    records: u64,
    // FNV-1a 64 of the records read so far.
    checksum: u64,
    done: bool,
    status: TraceStatus,
}

/// Whether a trace's reader or [`Recording`] stopped on an error: a
/// handle that stays valid after the reader or recording is handed to a
/// machine.
#[derive(Debug, Clone, Default)]
pub struct TraceStatus(Arc<OnceLock<io::Error>>);

impl TraceStatus {
    /// The error that ended the trace, if it did not end cleanly. A
    /// reader's error names the record's index.
    pub fn error(&self) -> Option<&io::Error> {
        self.0.get()
    }

    /// Keeps `error` unless an earlier one is kept.
    fn fail(&self, error: io::Error) {
        let _ = self.0.set(error);
    }
}

fn invalid(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

impl<R: Read> TraceReader<R> {
    /// Opens a trace, validating the header.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure or a wrong magic number.
    pub fn new(mut input: R) -> io::Result<TraceReader<R>> {
        let mut magic = [0u8; 8];
        input.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not a softwatt trace",
            ));
        }
        Ok(TraceReader {
            input,
            records: 0,
            checksum: FNV1A_OFFSET,
            done: false,
            status: TraceStatus::default(),
        })
    }

    /// A handle on how the trace ended, to check after the run.
    pub fn status(&self) -> TraceStatus {
        self.status.clone()
    }

    /// Fills `buf` from the input, folding it into the records' checksum.
    fn read_exact(&mut self, buf: &mut [u8]) -> io::Result<()> {
        self.input.read_exact(buf)?;
        self.checksum = fnv1a_extend(self.checksum, buf);
        Ok(())
    }

    /// One byte, or `None` at the end of the file.
    fn read_byte(&mut self) -> io::Result<Option<u8>> {
        let mut byte = [0u8; 1];
        loop {
            match self.input.read(&mut byte) {
                Ok(0) => return Ok(None),
                Ok(_) => return Ok(Some(byte[0])),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Checks the end record, whose marker was just read, against the
    /// records read, and that the file ends right after it.
    fn read_end(&mut self) -> io::Result<()> {
        let mut field = [0u8; 8];
        self.input.read_exact(&mut field)?;
        let count = u64::from_le_bytes(field);
        self.input.read_exact(&mut field)?;
        let checksum = u64::from_le_bytes(field);
        if count != self.records {
            return Err(invalid(format!(
                "the end record counts {count} records, the trace holds {}",
                self.records
            )));
        }
        if checksum != self.checksum {
            return Err(invalid(
                "the records do not match the end record's checksum".to_string(),
            ));
        }
        if self.read_byte()?.is_some() {
            return Err(invalid("bytes follow the end record".to_string()));
        }
        Ok(())
    }

    /// The next record, or `None` after a valid end record.
    fn read_instr(&mut self) -> io::Result<Option<Instr>> {
        let mut head = [0u8; 5];
        match self.read_byte()? {
            None => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "the trace ends without its end record",
                ))
            }
            Some(END) => return self.read_end().map(|()| None),
            Some(op) => head[0] = op,
        }
        self.checksum = fnv1a_extend(self.checksum, &head[..1]);
        self.read_exact(&mut head[1..])?;
        let op = op_from(head[0])?;
        let flags = head[1];
        let mut u64_buf = [0u8; 8];
        self.read_exact(&mut u64_buf)?;
        let pc = u64::from_le_bytes(u64_buf);
        let mem_addr = if flags & F_MEM != 0 {
            self.read_exact(&mut u64_buf)?;
            Some(u64::from_le_bytes(u64_buf))
        } else {
            None
        };
        let target = if flags & F_TARGET != 0 {
            self.read_exact(&mut u64_buf)?;
            u64::from_le_bytes(u64_buf)
        } else {
            0
        };
        let syscall = if flags & F_SYSCALL != 0 {
            let mut code = [0u8; 1];
            self.read_exact(&mut code)?;
            let mut u32_buf = [0u8; 4];
            self.read_exact(&mut u32_buf)?;
            let file = u32::from_le_bytes(u32_buf);
            self.read_exact(&mut u64_buf)?;
            let offset = u64::from_le_bytes(u64_buf);
            self.read_exact(&mut u32_buf)?;
            let bytes = u32::from_le_bytes(u32_buf);
            Some(syscall_from(code[0], file, offset, bytes)?)
        } else {
            None
        };
        let instr = Instr {
            op,
            dest: reg_from(head[2])?,
            src1: reg_from(head[3])?,
            src2: reg_from(head[4])?,
            pc,
            mem_addr,
            taken: flags & F_TAKEN != 0,
            target,
            syscall,
        };
        instr
            .validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        Ok(Some(instr))
    }
}

impl<R: Read> InstrSource for TraceReader<R> {
    fn next_instr(&mut self, _stats: &mut StatsCollector) -> Option<Instr> {
        if self.done {
            return None;
        }
        match self.read_instr() {
            Ok(Some(i)) => {
                self.records += 1;
                Some(i)
            }
            Ok(None) => {
                self.done = true;
                None
            }
            Err(e) => {
                // The machine sees the end of the program; the status
                // keeps why.
                self.done = true;
                let cause = match e.kind() {
                    // `read_exact` ran out inside a record.
                    io::ErrorKind::UnexpectedEof if e.get_ref().is_none() => {
                        "the trace ends inside it".to_string()
                    }
                    _ => e.to_string(),
                };
                let error = io::Error::new(e.kind(), format!("record {}: {cause}", self.records));
                self.status.fail(error);
                None
            }
        }
    }
}

/// Wraps any source, recording everything it yields. The trace is
/// finished ([`TraceWriter::finish`]) when the source ends, which is the
/// program's exit.
///
/// A write failure must not corrupt the run: the recording stops, the
/// trace is left unfinished (so it reads as corrupt), and
/// [`Recording::status`] keeps the error.
#[derive(Debug)]
pub struct Recording<S, W: Write> {
    inner: S,
    // `None` once finished or failed.
    writer: Option<TraceWriter<W>>,
    recorded: u64,
    status: TraceStatus,
}

impl<S: InstrSource, W: Write> Recording<S, W> {
    /// Creates a recording wrapper.
    ///
    /// # Errors
    ///
    /// Propagates header-write failures.
    pub fn new(inner: S, out: W) -> io::Result<Recording<S, W>> {
        Ok(Recording {
            inner,
            writer: Some(TraceWriter::new(out)?),
            recorded: 0,
            status: TraceStatus::default(),
        })
    }

    /// Instructions recorded so far.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// A handle on whether writing the trace failed, to check after the
    /// run.
    pub fn status(&self) -> TraceStatus {
        self.status.clone()
    }
}

impl<S: InstrSource, W: Write> InstrSource for Recording<S, W> {
    fn next_instr(&mut self, stats: &mut StatsCollector) -> Option<Instr> {
        let instr = self.inner.next_instr(stats);
        if let Some(mut writer) = self.writer.take() {
            let written = match &instr {
                Some(instr) => writer.record(instr).map(|()| {
                    self.recorded += 1;
                    self.writer = Some(writer);
                }),
                None => writer.finish().map(drop),
            };
            if let Err(e) = written {
                self.status.fail(e);
            }
        }
        instr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VecSource;
    use softwatt_stats::Clocking;

    fn sample_instrs() -> Vec<Instr> {
        vec![
            Instr::alu(0x100, Reg::int(3), Some(Reg::int(4)), Some(Reg::int(5))),
            Instr::load(0x104, Reg::int(6), Some(Reg::int(29)), 0x2000_0000),
            Instr::store(0x108, Some(Reg::int(6)), None, 0x2000_0008),
            Instr::branch(0x10c, Some(Reg::int(6)), true, 0x100),
            Instr::jump(0x110, 0x4000),
            Instr::call(0x114, 0x8000),
            Instr::ret(0x118, 0x118),
            Instr::syscall(
                0x11c,
                SyscallKind::Read {
                    file: FileRef(77),
                    offset: 4096,
                    bytes: 8192,
                },
            ),
            Instr::syscall(0x120, SyscallKind::Bsd),
            Instr::sync(0x124, 0x9000_0000),
            Instr::eret(0x128),
            Instr::arith(OpClass::FpMul, 0x12c, Reg::fp(2), Some(Reg::fp(3)), None),
            Instr::nop(0x130),
        ]
    }

    #[test]
    fn round_trip_preserves_every_field() {
        let instrs = sample_instrs();
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf).unwrap();
        for i in &instrs {
            w.record(i).unwrap();
        }
        assert_eq!(w.recorded(), instrs.len() as u64);
        w.finish().unwrap();

        let mut stats = StatsCollector::new(Clocking::default(), 100);
        let mut r = TraceReader::new(&buf[..]).unwrap();
        let mut back = Vec::new();
        while let Some(i) = r.next_instr(&mut stats) {
            back.push(i);
        }
        // `target` of non-branches is not serialized; normalize.
        let normalize = |mut i: Instr| {
            if !i.op.is_branch() {
                i.target = 0;
            }
            i
        };
        let expect: Vec<Instr> = instrs.into_iter().map(normalize).collect();
        assert_eq!(back, expect);
    }

    #[test]
    fn recording_wrapper_is_transparent() {
        let instrs = sample_instrs();
        let mut buf = Vec::new();
        let mut stats = StatsCollector::new(Clocking::default(), 100);
        {
            let mut rec = Recording::new(VecSource::new(instrs.clone()), &mut buf).unwrap();
            let mut n = 0;
            while rec.next_instr(&mut stats).is_some() {
                n += 1;
            }
            assert_eq!(n, instrs.len());
            assert_eq!(rec.recorded(), instrs.len() as u64);
            assert!(rec.status().error().is_none());
        }
        let mut r = TraceReader::new(&buf[..]).unwrap();
        assert_eq!(r.next_instr(&mut stats).unwrap().pc, 0x100);
        let (n, status) = read_all(&buf);
        assert_eq!(n, instrs.len());
        assert!(status.error().is_none(), "the recording finished its trace");
    }

    /// An output that fails once it holds `limit` bytes.
    struct Failing {
        written: usize,
        limit: usize,
    }

    impl Write for Failing {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.written + buf.len() > self.limit {
                return Err(io::Error::other("disk full"));
            }
            self.written += buf.len();
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A write failure leaves the run intact and is kept for the caller.
    #[test]
    fn a_recording_keeps_its_write_failure() {
        let instrs = sample_instrs();
        let out = Failing {
            written: 0,
            limit: MAGIC.len() + 30,
        };
        let mut rec = Recording::new(VecSource::new(instrs.clone()), out).unwrap();
        let status = rec.status();
        let mut stats = StatsCollector::new(Clocking::default(), 100);
        let mut n = 0;
        while rec.next_instr(&mut stats).is_some() {
            n += 1;
        }
        assert_eq!(n, instrs.len(), "the run sees every instruction");
        assert!(rec.recorded() < instrs.len() as u64);
        let err = status.error().expect("the failure is kept");
        assert!(err.to_string().contains("disk full"), "{err}");
    }

    #[test]
    fn rejects_wrong_magic() {
        assert!(TraceReader::new(&b"NOTATRACE"[..]).is_err());
    }

    /// A finished trace of `instrs`.
    fn encoded(instrs: &[Instr]) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf).unwrap();
        for i in instrs {
            w.record(i).unwrap();
        }
        w.finish().unwrap();
        buf
    }

    /// Bytes of the end record: its marker, the record count and the
    /// checksum.
    const END_RECORD_LEN: usize = 17;

    /// Reads `buf` to its end: the records read and how the trace ended.
    fn read_all(buf: &[u8]) -> (usize, TraceStatus) {
        let mut stats = StatsCollector::new(Clocking::default(), 100);
        let mut r = TraceReader::new(buf).unwrap();
        let status = r.status();
        let mut n = 0;
        while r.next_instr(&mut stats).is_some() {
            n += 1;
        }
        assert!(
            r.next_instr(&mut stats).is_none(),
            "an ended trace stays ended"
        );
        (n, status)
    }

    #[test]
    fn a_trace_ending_at_a_record_boundary_ends_cleanly() {
        let (n, status) = read_all(&encoded(&sample_instrs()));
        assert_eq!(n, sample_instrs().len());
        assert!(status.error().is_none());
        let (n, status) = read_all(&encoded(&[]));
        assert_eq!(n, 0);
        assert!(status.error().is_none(), "an empty trace is a clean exit");
    }

    /// A record cut short is a corrupt trace, not the program's exit: the
    /// stream stops before it and the status names it.
    #[test]
    fn a_torn_record_ends_the_trace_with_its_error() {
        let full = encoded(&sample_instrs());
        // The last instruction record ends where the end record starts.
        let records_end = full.len() - END_RECORD_LEN;
        for cut in [1, 3, 12] {
            let (n, status) = read_all(&full[..records_end - cut]);
            assert_eq!(n, sample_instrs().len() - 1, "cut {cut}");
            let err = status.error().expect("a torn record is an error");
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut {cut}");
            let last = sample_instrs().len() - 1;
            assert!(err.to_string().contains(&format!("record {last}")), "{err}");
        }
    }

    #[test]
    fn an_undecodable_record_ends_the_trace_with_its_error() {
        let mut buf = encoded(&sample_instrs());
        buf[MAGIC.len()] = 0xee; // the first record's opcode
        let (n, status) = read_all(&buf);
        assert_eq!(n, 0);
        let err = status.error().expect("a bad opcode is an error");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("record 0"), "{err}");
    }

    /// The byte offset where each record of a finished trace of `instrs`
    /// starts, the end record's last.
    fn record_starts(instrs: &[Instr]) -> Vec<usize> {
        (0..=instrs.len())
            .map(|k| encoded(&instrs[..k]).len() - END_RECORD_LEN)
            .collect()
    }

    /// A trace cut at any record boundary, the end record's included, is
    /// corrupt: it stops after the records it holds, and its status says
    /// the end record is missing.
    #[test]
    fn a_trace_cut_at_a_record_boundary_is_corrupt() {
        let instrs = sample_instrs();
        let full = encoded(&instrs);
        for (k, &start) in record_starts(&instrs).iter().enumerate() {
            let (n, status) = read_all(&full[..start]);
            assert_eq!(n, k);
            let err = status.error().expect("a cut trace is an error");
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
            assert_eq!(
                err.to_string(),
                format!("record {k}: the trace ends without its end record")
            );
        }
        let (n, status) = read_all(&full[..full.len() - 1]);
        assert_eq!(n, instrs.len());
        let err = status.error().expect("a torn end record is an error");
        assert!(err.to_string().contains("ends inside it"), "{err}");
    }

    /// An end record that disagrees with the records before it, or bytes
    /// after it, make the trace corrupt.
    #[test]
    fn a_mismatched_end_record_is_corrupt() {
        let instrs = sample_instrs();
        let full = encoded(&instrs);
        let end = full.len() - END_RECORD_LEN;
        let corrupt = |buf: &[u8], records: usize, expect: &str| {
            let (n, status) = read_all(buf);
            assert_eq!(n, records, "{expect}");
            let err = status.error().expect("a corrupt trace is an error");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{expect}");
            assert!(err.to_string().contains(expect), "{err}");
        };

        // A pc byte of the first record: it still decodes.
        let mut flipped = full.clone();
        flipped[MAGIC.len() + 5] ^= 0x40;
        corrupt(&flipped, instrs.len(), "checksum");

        let mut recounted = full.clone();
        recounted[end + 1] ^= 1;
        corrupt(&recounted, instrs.len(), "counts");

        // A whole record dropped: every record left still decodes.
        let starts = record_starts(&instrs);
        let mut dropped = full[..starts[3]].to_vec();
        dropped.extend_from_slice(&full[starts[4]..]);
        corrupt(&dropped, instrs.len() - 1, "counts");

        let mut trailing = full.clone();
        trailing.push(0);
        corrupt(&trailing, instrs.len(), "follow");
    }
}
