//! Instruction-trace recording and replay.
//!
//! Synthetic streams are regenerable from a seed, but traces make runs
//! portable: record a workload's user-instruction stream once, then replay
//! the identical stream under different machine configurations (the
//! classic trace-driven methodology SimOS-era studies used for
//! apples-to-apples machine comparisons).
//!
//! The format is a compact little-endian binary: a magic header, then one
//! variable-length record per instruction. A trace ends at a record
//! boundary; a trace that ends inside a record, or holds a record that
//! does not decode, is corrupt, and its reader says so (see
//! [`TraceReader::status`]).

use std::io::{self, Read, Write};
use std::sync::{Arc, OnceLock};

use softwatt_stats::StatsCollector;

use crate::{FileRef, Instr, InstrSource, OpClass, Reg, SyscallKind};

const MAGIC: &[u8; 8] = b"SWTRACE1";
const NO_REG: u8 = 0xff;

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
/// drop(writer);
///
/// let mut stats = StatsCollector::new(Clocking::default(), 100);
/// let mut reader = TraceReader::new(&buf[..])?;
/// assert_eq!(reader.next_instr(&mut stats).unwrap().pc, 0x10);
/// assert_eq!(reader.next_instr(&mut stats).unwrap().mem_addr, Some(0x1000));
/// assert!(reader.next_instr(&mut stats).is_none());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    out: W,
    recorded: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Creates a writer and emits the header.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn new(mut out: W) -> io::Result<TraceWriter<W>> {
        out.write_all(MAGIC)?;
        Ok(TraceWriter { out, recorded: 0 })
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
        self.out.write_all(&[
            op_code(instr.op),
            flags,
            reg_code(instr.dest),
            reg_code(instr.src1),
            reg_code(instr.src2),
        ])?;
        self.out.write_all(&instr.pc.to_le_bytes())?;
        if let Some(addr) = instr.mem_addr {
            self.out.write_all(&addr.to_le_bytes())?;
        }
        if instr.op.is_branch() {
            self.out.write_all(&instr.target.to_le_bytes())?;
        }
        if let Some(kind) = instr.syscall {
            let (code, file, offset, bytes) = syscall_code(kind);
            self.out.write_all(&[code])?;
            self.out.write_all(&file.to_le_bytes())?;
            self.out.write_all(&offset.to_le_bytes())?;
            self.out.write_all(&bytes.to_le_bytes())?;
        }
        self.recorded += 1;
        Ok(())
    }

    /// Instructions recorded so far.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }
}

/// Replays a binary trace as an [`InstrSource`].
///
/// The end of the file at a record boundary is the program's exit. Any
/// other failure (a record cut short, a field that does not decode, an
/// I/O error) also ends the stream, since an [`InstrSource`] cannot fail,
/// but the reader keeps the error, with the index of the record it hit,
/// where [`TraceReader::status`] reports it.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    input: R,
    records: u64,
    done: bool,
    status: TraceStatus,
}

/// Whether a [`TraceReader`] stopped on an error: a handle that stays
/// valid after the reader is handed to a machine.
#[derive(Debug, Clone, Default)]
pub struct TraceStatus(Arc<OnceLock<io::Error>>);

impl TraceStatus {
    /// The error that ended the trace, if it did not end cleanly at a
    /// record boundary. Its message names the record's index.
    pub fn error(&self) -> Option<&io::Error> {
        self.0.get()
    }
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
            done: false,
            status: TraceStatus::default(),
        })
    }

    /// A handle on how the trace ended, to check after the run.
    pub fn status(&self) -> TraceStatus {
        self.status.clone()
    }

    /// The next record, or `None` at the end of the file if it falls
    /// between records.
    fn read_instr(&mut self) -> io::Result<Option<Instr>> {
        let mut head = [0u8; 5];
        loop {
            match self.input.read(&mut head[..1]) {
                Ok(0) => return Ok(None),
                Ok(_) => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.input.read_exact(&mut head[1..])?;
        let op = op_from(head[0])?;
        let flags = head[1];
        let mut u64_buf = [0u8; 8];
        self.input.read_exact(&mut u64_buf)?;
        let pc = u64::from_le_bytes(u64_buf);
        let mem_addr = if flags & F_MEM != 0 {
            self.input.read_exact(&mut u64_buf)?;
            Some(u64::from_le_bytes(u64_buf))
        } else {
            None
        };
        let target = if flags & F_TARGET != 0 {
            self.input.read_exact(&mut u64_buf)?;
            u64::from_le_bytes(u64_buf)
        } else {
            0
        };
        let syscall = if flags & F_SYSCALL != 0 {
            let mut code = [0u8; 1];
            self.input.read_exact(&mut code)?;
            let mut u32_buf = [0u8; 4];
            self.input.read_exact(&mut u32_buf)?;
            let file = u32::from_le_bytes(u32_buf);
            self.input.read_exact(&mut u64_buf)?;
            let offset = u64::from_le_bytes(u64_buf);
            self.input.read_exact(&mut u32_buf)?;
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
                    io::ErrorKind::UnexpectedEof => "the trace ends inside it".to_string(),
                    _ => e.to_string(),
                };
                let error = io::Error::new(e.kind(), format!("record {}: {cause}", self.records));
                let _ = self.status.0.set(error);
                None
            }
        }
    }
}

/// Wraps any source, recording everything it yields.
#[derive(Debug)]
pub struct Recording<S, W: Write> {
    inner: S,
    writer: TraceWriter<W>,
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
            writer: TraceWriter::new(out)?,
        })
    }

    /// Instructions recorded so far.
    pub fn recorded(&self) -> u64 {
        self.writer.recorded()
    }
}

impl<S: InstrSource, W: Write> InstrSource for Recording<S, W> {
    fn next_instr(&mut self, stats: &mut StatsCollector) -> Option<Instr> {
        let instr = self.inner.next_instr(stats)?;
        // Recording failure must not corrupt the run; drop the record.
        let _ = self.writer.record(&instr);
        Some(instr)
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
        }
        let mut r = TraceReader::new(&buf[..]).unwrap();
        assert_eq!(r.next_instr(&mut stats).unwrap().pc, 0x100);
    }

    #[test]
    fn rejects_wrong_magic() {
        assert!(TraceReader::new(&b"NOTATRACE"[..]).is_err());
    }

    fn encoded(instrs: &[Instr]) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf).unwrap();
        for i in instrs {
            w.record(i).unwrap();
        }
        buf
    }

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
        for cut in [1, 3, 12] {
            let (n, status) = read_all(&full[..full.len() - cut]);
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
}
