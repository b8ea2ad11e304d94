//! Drive geometry and a Ruemmler–Wilkes-style mechanical timing model.
//!
//! The flat [`crate::DiskTimings`] average-seek model is what the budget
//! and spin-down studies need; this module adds the position-dependent
//! model of Ruemmler & Wilkes' classic disk characterization: seek time is
//! `a + b*sqrt(d)` for short seeks and `c + d_lin*d` for long ones, plus
//! rotational latency from the actual angular distance. Two drive
//! catalogs are provided:
//!
//! - [`DriveGeometry::hp97560`] — the HP 97560 that ships with SimOS (the
//!   paper's baseline disk, no low-power modes);
//! - [`DriveGeometry::mk3003man`] — the Toshiba MK3003MAN-like 2.5" drive
//!   the paper layers on top.

/// Physical geometry and seek-curve parameters of one drive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriveGeometry {
    /// Marketing name.
    pub name: &'static str,
    /// Cylinders.
    pub cylinders: u32,
    /// Sectors per track (outer-zone average).
    pub sectors_per_track: u32,
    /// Tracks per cylinder (heads).
    pub heads: u32,
    /// Bytes per sector.
    pub sector_bytes: u32,
    /// Spindle speed in revolutions per minute.
    pub rpm: u32,
    /// Short-seek constant `a` (ms): settle time.
    pub seek_a_ms: f64,
    /// Short-seek factor `b` (ms per sqrt(cylinder)).
    pub seek_b_ms: f64,
    /// Long-seek constant `c` (ms).
    pub seek_c_ms: f64,
    /// Long-seek slope (ms per cylinder).
    pub seek_lin_ms: f64,
    /// Cylinder distance where the long-seek regime takes over.
    pub seek_boundary: u32,
}

impl DriveGeometry {
    /// The HP 97560: the 1.3 GB 5.25" drive SimOS models (Ruemmler–Wilkes
    /// parameters).
    pub fn hp97560() -> DriveGeometry {
        DriveGeometry {
            name: "HP97560",
            cylinders: 1962,
            sectors_per_track: 72,
            heads: 19,
            sector_bytes: 512,
            rpm: 4002,
            seek_a_ms: 3.24,
            seek_b_ms: 0.400,
            seek_c_ms: 8.00,
            seek_lin_ms: 0.008,
            seek_boundary: 383,
        }
    }

    /// A Toshiba MK3003MAN-like 2.5" drive (the paper's low-power disk).
    pub fn mk3003man() -> DriveGeometry {
        DriveGeometry {
            name: "MK3003MAN",
            cylinders: 6975,
            sectors_per_track: 120,
            heads: 4,
            sector_bytes: 512,
            rpm: 4200,
            seek_a_ms: 2.00,
            seek_b_ms: 0.270,
            seek_c_ms: 11.0,
            seek_lin_ms: 0.0012,
            seek_boundary: 1500,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        u64::from(self.cylinders)
            * u64::from(self.heads)
            * u64::from(self.sectors_per_track)
            * u64::from(self.sector_bytes)
    }

    /// One full revolution in milliseconds.
    pub fn revolution_ms(&self) -> f64 {
        60_000.0 / f64::from(self.rpm)
    }

    /// Sustained media rate in bytes/second (one track per revolution).
    pub fn media_rate_bytes_s(&self) -> f64 {
        f64::from(self.sectors_per_track) * f64::from(self.sector_bytes)
            / (self.revolution_ms() / 1000.0)
    }

    /// Cylinder holding a byte offset (simple linear mapping, no zoning).
    pub fn cylinder_of(&self, byte_offset: u64) -> u32 {
        let per_cyl = self.capacity_bytes() / u64::from(self.cylinders);
        ((byte_offset / per_cyl.max(1)) as u32).min(self.cylinders - 1)
    }

    /// Seek time between two cylinders (ms), Ruemmler–Wilkes two-regime
    /// curve. Zero-distance seeks are free (the head is already there).
    pub fn seek_ms(&self, from_cyl: u32, to_cyl: u32) -> f64 {
        let d = from_cyl.abs_diff(to_cyl);
        if d == 0 {
            0.0
        } else if d < self.seek_boundary {
            self.seek_a_ms + self.seek_b_ms * f64::from(d).sqrt()
        } else {
            self.seek_c_ms + self.seek_lin_ms * f64::from(d)
        }
    }

    /// Statistical average seek (one-third stroke, the datasheet number).
    pub fn avg_seek_ms(&self) -> f64 {
        self.seek_ms(0, self.cylinders / 3)
    }

    /// Service time for a request at `byte_offset` of `bytes`, with the
    /// head starting at `head_cyl`: seek + half-revolution rotational
    /// latency + media transfer. Returns `(seconds, new head cylinder)`.
    pub fn service_secs(&self, head_cyl: u32, byte_offset: u64, bytes: u64) -> (f64, u32) {
        let target = self.cylinder_of(byte_offset);
        let seek = self.seek_ms(head_cyl, target) / 1000.0;
        let rotation = self.revolution_ms() / 2.0 / 1000.0;
        let transfer = bytes as f64 / self.media_rate_bytes_s();
        (seek + rotation + transfer, target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_capacities_are_sane() {
        // HP97560: ~1.3 GB; MK3003MAN-like: ~1.7 GB.
        let hp = DriveGeometry::hp97560();
        assert!(hp.capacity_bytes() > 1_200_000_000 && hp.capacity_bytes() < 1_500_000_000);
        let mk = DriveGeometry::mk3003man();
        assert!(mk.capacity_bytes() > 1_000_000_000);
    }

    #[test]
    fn seek_curve_is_monotone_and_continuous_enough() {
        for geom in [DriveGeometry::hp97560(), DriveGeometry::mk3003man()] {
            let mut last = 0.0;
            for d in 1..geom.cylinders {
                let t = geom.seek_ms(0, d);
                assert!(t >= last - 0.5, "{}: seek({d}) = {t} < {last}", geom.name);
                last = t;
            }
            // The regime boundary does not jump wildly.
            let before = geom.seek_ms(0, geom.seek_boundary - 1);
            let after = geom.seek_ms(0, geom.seek_boundary);
            assert!((after - before).abs() < 3.0, "{}", geom.name);
        }
    }

    #[test]
    fn zero_distance_seek_is_free() {
        let geom = DriveGeometry::hp97560();
        assert_eq!(geom.seek_ms(100, 100), 0.0);
    }

    #[test]
    fn average_seek_matches_datasheet_ballpark() {
        // HP97560 datasheet average seek ~13.5 ms.
        let hp = DriveGeometry::hp97560();
        let avg = hp.avg_seek_ms();
        assert!(avg > 10.0 && avg < 17.0, "HP97560 avg seek {avg}");
    }

    #[test]
    fn sequential_requests_are_cheaper_than_random() {
        let geom = DriveGeometry::mk3003man();
        let (seq, head) = geom.service_secs(0, 0, 64 * 1024);
        let (seq2, _) = geom.service_secs(head, 64 * 1024, 64 * 1024);
        let far = geom.capacity_bytes() - 10 * 1024 * 1024;
        let (random, _) = geom.service_secs(0, far, 64 * 1024);
        assert!(seq2 <= seq + 1e-9, "head is already on-cylinder");
        assert!(random > seq2, "full-stroke seek must cost more");
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let geom = DriveGeometry::hp97560();
        let (small, _) = geom.service_secs(0, 0, 4 * 1024);
        let (large, _) = geom.service_secs(0, 0, 4 * 1024 * 1024);
        assert!(large > small + 1.0, "4 MB must take over a second longer");
    }

    #[test]
    fn cylinder_mapping_covers_the_disk() {
        let geom = DriveGeometry::hp97560();
        assert_eq!(geom.cylinder_of(0), 0);
        assert_eq!(
            geom.cylinder_of(geom.capacity_bytes() - 1),
            geom.cylinders - 1
        );
    }
}
