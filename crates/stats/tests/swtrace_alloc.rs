//! The `swtrace` decoder's allocations are bounded by its input: a short
//! entry with a valid checksum that claims a huge count of requests, idle
//! rates, services, segments or samples must fail without first
//! reserving room for every claimed item.
//!
//! A test binary of its own, because it installs a counting global
//! allocator that records the largest single allocation. The allocator is
//! process-wide, so every input is checked in one test function: a second
//! test running in parallel would pollute the recorded maximum.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use softwatt_stats::hash::fnv1a;
use softwatt_stats::swtrace::{SWTRACE_MAGIC, SWTRACE_VERSION};
use softwatt_stats::varint::put_varint;
use softwatt_stats::PerfTrace;

struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    if ARMED.load(Ordering::Relaxed) {
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn section(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    out.push(tag);
    put_varint(out, payload.len() as u64);
    out.extend_from_slice(payload);
}

const SEC_REQUESTS: u8 = 0x03;
const SEC_IDLERATES: u8 = 0x04;
const SEC_SERVICES: u8 = 0x05;
const SEC_SEGMENTS: u8 = 0x06;

/// A checksum-valid entry whose `claiming` section holds only the varints
/// in `claim` (a count, or a segment count and a sample count) and whose
/// other count sections are empty (one zero count).
fn entry_claiming(claiming: u8, claim: &[u64]) -> Vec<u8> {
    let mut out = SWTRACE_MAGIC.to_vec();
    put_varint(&mut out, SWTRACE_VERSION);
    let mut header = Vec::new();
    header.extend_from_slice(&200.0e6f64.to_bits().to_le_bytes());
    header.extend_from_slice(&2000.0f64.to_bits().to_le_bytes());
    for v in [2000u64, 0, 0, 0] {
        put_varint(&mut header, v);
    }
    section(&mut out, 0x01, &header);
    section(&mut out, 0x02, &[]);
    for tag in [SEC_REQUESTS, SEC_IDLERATES, SEC_SERVICES, SEC_SEGMENTS] {
        let mut payload = Vec::new();
        if tag == claiming {
            for &v in claim {
                put_varint(&mut payload, v);
            }
        } else {
            put_varint(&mut payload, 0);
        }
        section(&mut out, tag, &payload);
    }
    section(&mut out, 0x00, &[]);
    let checksum = fnv1a(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

#[test]
fn a_claimed_sample_count_never_outgrows_the_input() {
    const CLAIMED: u64 = 1 << 20;
    let entries = [
        ("requests", entry_claiming(SEC_REQUESTS, &[CLAIMED])),
        ("idle rates", entry_claiming(SEC_IDLERATES, &[CLAIMED])),
        ("services", entry_claiming(SEC_SERVICES, &[CLAIMED])),
        ("segments", entry_claiming(SEC_SEGMENTS, &[CLAIMED])),
        ("samples", entry_claiming(SEC_SEGMENTS, &[1, CLAIMED])),
    ];
    for (what, entry) in entries {
        assert!(entry.len() < 64, "{what}: entry is {} bytes", entry.len());
        LARGEST.store(0, Ordering::Relaxed);
        ARMED.store(true, Ordering::Relaxed);
        let decoded = PerfTrace::from_binary(&entry[..]);
        ARMED.store(false, Ordering::Relaxed);
        assert!(
            decoded.is_err(),
            "an entry without its {what} must not decode"
        );
        let largest = LARGEST.load(Ordering::Relaxed);
        assert!(
            largest <= 64 * entry.len(),
            "{what}: decoding {} bytes made a {largest}-byte allocation",
            entry.len()
        );
    }
}
