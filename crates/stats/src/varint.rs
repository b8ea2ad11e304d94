//! LEB128 varints and zigzag signed encoding.
//!
//! The integer codec under the workspace's binary trace format,
//! `swtrace`: counts, lengths and timestamp deltas.
//!
//! Encoding is little-endian base-128: seven payload bits per byte, high
//! bit set on every byte but the last. Signed values zigzag first
//! (`0, -1, 1, -2, ...` → `0, 1, 2, 3, ...`) so small magnitudes of
//! either sign stay short.

use std::io;

/// Appends `v` as a LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends `v` zigzag-mapped and varint-encoded.
pub fn put_zigzag(out: &mut Vec<u8>, v: i64) {
    put_varint(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// Decodes one varint from the front of `buf`.
///
/// Returns the value and how many bytes it consumed, `Ok(None)` when the
/// buffer ends mid-varint (the caller should read more bytes).
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] when the encoding overflows a `u64`.
pub fn decode(buf: &[u8]) -> io::Result<Option<(u64, usize)>> {
    let mut v = 0u64;
    let mut shift = 0u32;
    for (i, &byte) in buf.iter().enumerate() {
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "varint overflows u64",
            ));
        }
        v |= u64::from(byte & 0x7f) << shift;
        shift += 7;
        if byte & 0x80 == 0 {
            return Ok(Some((v, i + 1)));
        }
    }
    Ok(None)
}

/// Undoes the zigzag map.
pub fn unzigzag(raw: u64) -> i64 {
    ((raw >> 1) as i64) ^ -((raw & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_across_magnitudes() {
        let values = [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ];
        for &v in &values {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let (got, used) = decode(&buf).unwrap().expect("complete");
            assert_eq!((got, used), (v, buf.len()), "value {v}");
        }
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            let mut buf = Vec::new();
            put_zigzag(&mut buf, v);
            let (raw, _) = decode(&buf).unwrap().expect("complete");
            assert_eq!(unzigzag(raw), v, "value {v}");
        }
    }

    #[test]
    fn truncated_input_asks_for_more() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 1 << 40);
        for cut in 0..buf.len() {
            assert!(decode(&buf[..cut]).unwrap().is_none(), "cut {cut}");
        }
    }

    #[test]
    fn overflow_is_invalid_data() {
        // Eleven continuation bytes can never fit in a u64.
        let buf = [0xffu8; 11];
        assert_eq!(decode(&buf).unwrap_err().kind(), io::ErrorKind::InvalidData);
    }
}
