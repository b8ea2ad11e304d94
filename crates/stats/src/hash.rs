//! Stable, unkeyed hashing shared by every persistent-cache layer.
//!
//! The standard library's hashers are randomly keyed per process, which
//! would defeat any content-addressed on-disk cache. FNV-1a 64 is the one
//! hash this workspace uses for file names and trailing checksums: the
//! trace store's keys (`softwatt::TraceKey`), spec content hashes, the
//! peer ring's points, the `swtrace` codec checksum and the instruction
//! trace's end record all go through this function, so the formats agree
//! byte-for-byte across processes and platforms.

/// FNV-1a 64-bit offset basis.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
pub const FNV1A_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit over `bytes`. Stable across processes and platforms.
///
/// # Examples
///
/// ```
/// use softwatt_stats::hash::fnv1a;
/// assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
/// assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
/// ```
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV1A_OFFSET, bytes)
}

/// Extends the FNV-1a 64 hash `h` of some bytes with `bytes`, so a stream
/// can be hashed piece by piece.
///
/// # Examples
///
/// ```
/// use softwatt_stats::hash::{fnv1a, fnv1a_extend};
/// assert_eq!(fnv1a_extend(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
/// ```
#[must_use]
pub fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV1A_PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn order_sensitive() {
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
    }
}
