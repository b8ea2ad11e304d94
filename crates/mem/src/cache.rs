//! A set-associative cache timing model with true LRU replacement.

use crate::CacheGeometry;

/// One way of a set, in 16 bytes so a 2-way set fits half a host cache
/// line.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Line {
    tag: u64,
    // The tick of the line's last access shifted left by one, with the
    // dirty flag in bit 0; 0 for an invalid line (ticks start at 1).
    // Ticks are unique, so stamps order lines by recency whatever their
    // dirty bits.
    stamp: u64,
}

impl Line {
    const DIRTY: u64 = 1;

    fn invalid() -> Line {
        Line { tag: 0, stamp: 0 }
    }

    fn is_valid(&self) -> bool {
        self.stamp != 0
    }

    fn is_dirty(&self) -> bool {
        self.stamp & Line::DIRTY != 0
    }
}

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the access hit.
    pub hit: bool,
    /// Line address of a dirty victim evicted to make room (write-back
    /// traffic), if any.
    pub writeback: Option<u64>,
}

/// A set-associative, write-back, write-allocate cache.
///
/// Stores tags only: SoftWatt needs hit/miss behavior and event counts, not
/// data. Starts cold (all lines invalid).
///
/// # Examples
///
/// ```
/// use softwatt_mem::{Cache, CacheGeometry};
///
/// let mut c = Cache::new(CacheGeometry::new(1024, 64, 2));
/// assert!(!c.access(0x40, false).hit); // cold miss
/// assert!(c.access(0x40, false).hit);  // now resident
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    geometry: CacheGeometry,
    // All lines in one flat allocation: set `s` is the slice
    // `lines[s * assoc .. (s + 1) * assoc]`. One contiguous read per
    // lookup instead of a per-set Vec pointer chase; this is on the
    // per-fetch/per-load hot path of every simulated cycle.
    lines: Box<[Line]>,
    assoc: usize,
    // The geometry's set/tag split as shifts and a mask (line size and set
    // count are powers of two): `set_index` and `tag` without the four
    // u64 divisions the geometry's formulas cost per access. Kept here,
    // not in `CacheGeometry`, whose `Debug` text is part of every trace
    // key.
    line_shift: u32,
    set_mask: u64,
    tag_shift: u32,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates a cold cache with the given geometry.
    pub fn new(geometry: CacheGeometry) -> Cache {
        let assoc = geometry.assoc() as usize;
        let sets = geometry.sets();
        let line_shift = geometry.line_bytes().trailing_zeros();
        Cache {
            geometry,
            lines: vec![Line::invalid(); assoc * sets as usize].into_boxed_slice(),
            assoc,
            line_shift,
            set_mask: sets - 1,
            tag_shift: line_shift + sets.trailing_zeros(),
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The cache's geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// `(set index, tag)` of `addr`: the geometry's `set_index` and `tag`.
    #[inline]
    fn locate(&self, addr: u64) -> (usize, u64) {
        (
            ((addr >> self.line_shift) & self.set_mask) as usize,
            addr >> self.tag_shift,
        )
    }

    /// Address of the line with `tag` in set `set_index`.
    #[inline]
    fn line_address(&self, set_index: usize, tag: u64) -> u64 {
        (tag << self.tag_shift) | ((set_index as u64) << self.line_shift)
    }

    /// Accesses `addr`, allocating on miss. `write` marks the line dirty.
    pub fn access(&mut self, addr: u64, write: bool) -> AccessOutcome {
        self.tick += 1;
        let (set_index, tag) = self.locate(addr);
        let tick = self.tick;
        let base = set_index * self.assoc;
        let set = &mut self.lines[base..base + self.assoc];

        // One pass over every way that picks the hit and the victim by
        // selects, not early exits: which way hits is random, so an exit
        // mispredicts on the host. Tags are unique within a set and LRU
        // ticks are unique per access, so neither the hit nor the victim
        // depends on slot order: outcomes are identical to the old per-set
        // Vec model.
        let mut hit = None;
        let mut victim = 0;
        let mut victim_stamp = u64::MAX;
        for (i, line) in set.iter().enumerate() {
            if line.is_valid() && line.tag == tag {
                hit = Some(i);
            }
            // An invalid way's stamp is 0, below every valid one, so
            // filling an invalid way always beats an eviction.
            if line.stamp < victim_stamp {
                victim = i;
                victim_stamp = line.stamp;
            }
        }
        let stamp = (tick << 1) | u64::from(write);
        if let Some(i) = hit {
            let line = &mut set[i];
            line.stamp = stamp | (line.stamp & Line::DIRTY);
            self.hits += 1;
            return AccessOutcome {
                hit: true,
                writeback: None,
            };
        }

        self.misses += 1;
        let line = set[victim];
        let writeback = line
            .is_dirty()
            .then(|| self.line_address(set_index, line.tag));
        self.lines[base + victim] = Line { tag, stamp };
        AccessOutcome {
            hit: false,
            writeback,
        }
    }

    /// Whether the line containing `addr` is resident (no LRU update).
    pub fn probe(&self, addr: u64) -> bool {
        let (set_index, tag) = self.locate(addr);
        let base = set_index * self.assoc;
        self.lines[base..base + self.assoc]
            .iter()
            .any(|l| l.is_valid() && l.tag == tag)
    }

    /// Invalidates the whole cache, discarding dirty state (the paper's
    /// `cacheflush` service). Returns how many lines were dropped.
    pub fn flush(&mut self) -> u64 {
        let mut dropped = 0;
        for line in &mut self.lines {
            dropped += u64::from(line.is_valid());
            line.stamp = 0;
        }
        dropped
    }

    /// Hits since construction.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses since construction.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss ratio in `[0, 1]`; `None` before any access.
    pub fn miss_ratio(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        (total > 0).then(|| self.misses as f64 / total as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 2 ways x 64 B lines.
        Cache::new(CacheGeometry::new(512, 64, 2))
    }

    #[test]
    fn cold_then_warm() {
        let mut c = small();
        assert!(!c.access(0x0, false).hit);
        assert!(c.access(0x0, false).hit);
        assert!(c.access(0x3f, false).hit); // same line
        assert!(!c.access(0x40, false).hit); // next line
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        let stride = 64 * 4; // same set, different tags
        c.access(0, false);
        c.access(stride, false);
        c.access(0, false); // refresh tag 0
        c.access(2 * stride, false); // evicts `stride`
        assert!(c.probe(0));
        assert!(!c.probe(stride));
        assert!(c.probe(2 * stride));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small();
        let stride = 64 * 4;
        c.access(0, true); // dirty
        c.access(stride, false);
        let out = c.access(2 * stride, false); // evicts dirty line 0
        assert!(!out.hit);
        assert_eq!(out.writeback, Some(0));
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = small();
        let stride = 64 * 4;
        c.access(0, false);
        c.access(stride, false);
        let out = c.access(2 * stride, false);
        assert!(out.writeback.is_none());
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = small();
        let stride = 64 * 4;
        c.access(0, false);
        c.access(0, true); // dirty via hit
        c.access(stride, false);
        let out = c.access(2 * stride, false);
        assert_eq!(out.writeback, Some(0));
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = small();
        c.access(0, false);
        c.access(64, false);
        assert_eq!(c.flush(), 2);
        assert!(!c.probe(0));
        assert!(!c.access(0, false).hit);
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut c = small();
        let stride = 64 * 4;
        c.access(0, false);
        c.access(stride, false);
        let _ = c.probe(0); // must not refresh line 0
        c.access(2 * stride, false); // LRU is line 0
        assert!(!c.probe(0));
        assert!(c.probe(stride));
    }

    /// Shift-and-mask indexing equals the geometry's division formulas on
    /// every geometry the harness builds (the L1I sweep's 8-128 KiB, the
    /// 32 KiB L1D, the 1 MiB/128 B L2) and on a 3-way cache, and a line's
    /// address rebuilt from its set and tag is the line-aligned address.
    #[test]
    fn shift_indexing_equals_the_division_formulas() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let mut geometries: Vec<CacheGeometry> = [8u64, 16, 32, 64, 128]
            .iter()
            .map(|kb| CacheGeometry::new(kb * 1024, 64, 2))
            .collect();
        geometries.push(CacheGeometry::new(1024 * 1024, 128, 2));
        geometries.push(CacheGeometry::new(3 * 64 * 64, 64, 3));
        let mut rng = SmallRng::seed_from_u64(24);
        for g in geometries {
            let c = Cache::new(g);
            for _ in 0..10_000 {
                let addr = rng.gen::<u64>() >> rng.gen_range(0..40u32);
                let (set_index, tag) = c.locate(addr);
                assert_eq!(set_index as u64, g.set_index(addr), "{g} {addr:#x}");
                assert_eq!(tag, g.tag(addr), "{g} {addr:#x}");
                assert_eq!(c.line_address(set_index, tag), g.line_addr(addr), "{g}");
            }
        }
    }

    #[test]
    fn miss_ratio_tracks_accesses() {
        let mut c = small();
        assert!(c.miss_ratio().is_none());
        c.access(0, false);
        c.access(0, false);
        assert!((c.miss_ratio().unwrap() - 0.5).abs() < 1e-12);
    }
}
