//! The few kernel calls the benchmark needs beyond `std`: reaping a child
//! with its resource usage, signalling it, reading its memory and CPU
//! counters from `/proc`, and a nanosecond `ppoll` for the open-loop
//! generator. `std` already links libc, so the symbols are declared
//! directly, the way `softwatt-serve` does for epoll and signals.

use std::io;
use std::time::Duration;

/// `SIGKILL`.
pub const SIGKILL: i32 = 9;
/// `SIGTERM`.
pub const SIGTERM: i32 = 15;
/// `poll` readiness: data to read.
pub const POLLIN: i16 = 0x001;
/// `poll` readiness: writable.
pub const POLLOUT: i16 = 0x004;

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen longs
/// of which the first is `ru_maxrss` in KiB.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

/// `struct pollfd`.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    fn sysconf(name: i32) -> i64;
}

/// How a reaped child ended, with its peak resident memory.
pub struct Reaped {
    /// Exit code, or `None` when a signal ended it.
    pub code: Option<i32>,
    /// High-water resident memory of the child, in MiB.
    pub maxrss_mb: f64,
}

/// Waits for child `pid` and returns its exit and `ru_maxrss`. The caller
/// must not also `wait` on the `std::process::Child`.
pub fn reap(pid: u32) -> io::Result<Reaped> {
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: both pointers refer to live, correctly laid out locals.
        let r = unsafe { wait4(pid as i32, &mut status, 0, &mut usage) };
        if r == pid as i32 {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(Reaped {
        code,
        maxrss_mb: usage.maxrss as f64 / 1024.0,
    })
}

/// Sends `sig` to `pid`, ignoring a process that is already gone.
pub fn signal(pid: u32, sig: i32) {
    // SAFETY: plain syscall on an integer pid.
    unsafe {
        kill(pid as i32, sig);
    }
}

/// Waits until `fd` reports one of `events`, a signal arrives, or
/// `timeout` passes.
pub fn poll_one(fd: i32, events: i16, timeout: Duration) -> io::Result<()> {
    let mut pfd = PollFd {
        fd,
        events,
        revents: 0,
    };
    let ts = Timespec {
        sec: timeout.as_secs() as i64,
        nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: one valid pollfd and a valid timespec; no signal mask.
    let r = unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
    let err = io::Error::last_os_error();
    if r >= 0 || err.kind() == io::ErrorKind::Interrupted {
        Ok(())
    } else {
        Err(err)
    }
}

/// Sets this thread's timer slack to 1 ns so short `ppoll` timeouts wake
/// on time (the default slack is 50 µs, the size of a send interval).
pub fn tight_timer_slack() {
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: plain prctl with integer arguments.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
}

/// A `/proc/<pid>/status` field in KiB (`VmHWM`, `VmRSS`, ...).
fn status_kib(pid: &str, field: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim_start_matches(':')
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// High-water resident memory of a running process, in MiB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    status_kib(&pid.to_string(), "VmHWM").map(|kib| kib / 1024.0)
}

/// Resets this process's high-water resident memory to its current
/// resident size (`clear_refs` value 5), so a later peak leaves out what
/// has been freed since.
pub fn reset_own_peak_rss() -> io::Result<()> {
    std::fs::write("/proc/self/clear_refs", b"5")
}

/// High-water resident memory of this process, in MiB.
pub fn own_peak_rss_mb() -> Option<f64> {
    status_kib("self", "VmHWM").map(|kib| kib / 1024.0)
}

/// User plus system CPU seconds a running process has used.
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    const SC_CLK_TCK: i32 = 2;
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may contain spaces; fields resume after its ')'.
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After ')': state is field 3 of stat(5), so utime (14) and stime
    // (15) sit at indices 11 and 12 here.
    let ticks: f64 = fields.get(11)?.parse::<f64>().ok()? + fields.get(12)?.parse::<f64>().ok()?;
    // SAFETY: sysconf only reads a constant.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    (hz > 0).then(|| ticks / hz as f64)
}
