//! Instruction IR for the SoftWatt full-system simulator.
//!
//! The original SoftWatt ran real MIPS binaries under SimOS. This
//! reproduction replaces binaries with *synthetic instruction streams* whose
//! statistical properties are calibrated to the paper's workloads (see
//! `DESIGN.md` §2/§6). This crate defines the contract between the three
//! parties involved:
//!
//! - **workload generators** (`softwatt-workloads`) and **kernel-service
//!   bodies** (`softwatt-os`) produce [`Instr`]s through the [`InstrSource`]
//!   trait;
//! - **CPU models** (`softwatt-cpu`) consume instructions, simulate timing,
//!   and raise [`CpuEvent`]s (system calls, TLB misses) back to the OS;
//! - the **OS model** (`softwatt-os`) multiplexes sources (user program,
//!   kernel services, idle loop) behind a single [`InstrSource`] facade.
//!
//! Instructions carry everything the machine models need: an operation
//! class, register operands (for dependence tracking), a program counter
//! (for instruction-cache and branch-predictor behavior), a memory address
//! (for the data cache and TLB), and branch outcome/target.
//!
//! # Examples
//!
//! ```
//! use softwatt_isa::{Instr, OpClass, Reg};
//!
//! let add = Instr::alu(0x1000, Reg::int(4), Some(Reg::int(5)), Some(Reg::int(6)));
//! assert_eq!(add.op, OpClass::IntAlu);
//! assert!(!add.op.is_mem());
//! ```

pub mod addr;
pub mod event;
pub mod instr;
pub mod mixgen;
pub mod op;
pub mod reg;
pub mod stream;
pub mod syscall;
pub mod trace;

pub use addr::{is_kernel_addr, page_number, PAGE_SHIFT, PAGE_SIZE};
pub use event::CpuEvent;
pub use instr::Instr;
pub use mixgen::{DataPattern, MixGenerator, MixSpec};
pub use op::{FuKind, OpClass};
pub use reg::Reg;
pub use stream::{InstrSource, VecSource};
pub use syscall::{FileRef, SyscallKind};
pub use trace::{Recording, TraceReader, TraceStatus, TraceWriter};
