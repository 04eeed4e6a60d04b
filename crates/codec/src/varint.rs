//! LEB128 varint and zigzag primitives underlying the GraftBin format.
//!
//! These are exposed publicly because the DFS block layer and the trace
//! framing both use the same integer encodings directly.

use crate::error::{Error, Result};

/// Maximum number of bytes a `u64` varint can occupy.
pub const MAX_VARINT_LEN: usize = 10;

/// Appends `value` to `out` as an LEB128 varint.
#[inline]
pub fn write_u64(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Encodes `value` as an LEB128 varint at the front of `buf`, returning
/// the number of bytes used — for patching a varint into bytes already
/// written.
pub fn encode_u64(mut value: u64, buf: &mut [u8; MAX_VARINT_LEN]) -> usize {
    for (i, slot) in buf.iter_mut().enumerate() {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            *slot = byte;
            return i + 1;
        }
        *slot = byte | 0x80;
    }
    unreachable!("a u64 varint fits in MAX_VARINT_LEN bytes")
}

/// Appends `value` to `out` zigzag-encoded then LEB128-encoded.
#[inline]
pub fn write_i64(out: &mut Vec<u8>, value: i64) {
    write_u64(out, zigzag_encode(value));
}

/// Reads an LEB128 varint from the front of `input`.
///
/// Returns the value and the number of bytes consumed. Only the encoding
/// [`write_u64`] emits is accepted: a varint with a zero final byte after
/// others is over-long, and decoding it would let two byte strings stand
/// for one value.
#[inline]
pub fn read_u64(input: &[u8]) -> Result<(u64, usize)> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    for (i, &byte) in input.iter().enumerate() {
        if i >= MAX_VARINT_LEN {
            return Err(Error::VarintOverflow);
        }
        let low = u64::from(byte & 0x7f);
        // The tenth byte may only contribute one bit.
        if shift == 63 && low > 1 {
            return Err(Error::VarintOverflow);
        }
        value |= low << shift;
        if byte & 0x80 == 0 {
            if byte == 0 && i > 0 {
                return Err(Error::VarintOverflow);
            }
            return Ok((value, i + 1));
        }
        shift += 7;
    }
    Err(Error::UnexpectedEof)
}

/// Reads a zigzag varint from the front of `input`.
#[inline]
pub fn read_i64(input: &[u8]) -> Result<(i64, usize)> {
    let (raw, n) = read_u64(input)?;
    Ok((zigzag_decode(raw), n))
}

/// Maps signed integers onto unsigned ones with small absolute values
/// staying small: `0, -1, 1, -2, 2, …` → `0, 1, 2, 3, 4, …`.
#[inline]
pub fn zigzag_encode(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
#[inline]
pub fn zigzag_decode(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

/// Number of bytes [`write_u64`] would emit for `value`.
#[inline]
pub fn encoded_len_u64(value: u64) -> usize {
    if value == 0 {
        1
    } else {
        (64 - value.leading_zeros() as usize).div_ceil(7)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_representative_values() {
        let cases = [
            0u64,
            1,
            127,
            128,
            255,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX / 2,
            u64::MAX - 1,
            u64::MAX,
        ];
        for &v in &cases {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            assert_eq!(buf.len(), encoded_len_u64(v), "len mismatch for {v}");
            let mut fixed = [0u8; MAX_VARINT_LEN];
            let used = encode_u64(v, &mut fixed);
            assert_eq!(&fixed[..used], buf.as_slice(), "encode_u64 differs for {v}");
            let (back, n) = read_u64(&buf).unwrap();
            assert_eq!(back, v);
            assert_eq!(n, buf.len());
        }
    }

    #[test]
    fn zigzag_is_order_preserving_near_zero() {
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
        assert_eq!(zigzag_encode(-2), 3);
        assert_eq!(zigzag_encode(i64::MIN), u64::MAX);
        for v in [-1000i64, -1, 0, 1, 1000, i64::MIN, i64::MAX] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
    }

    #[test]
    fn signed_roundtrip() {
        for v in [i64::MIN, -1, 0, 1, i64::MAX] {
            let mut buf = Vec::new();
            write_i64(&mut buf, v);
            let (back, _) = read_i64(&buf).unwrap();
            assert_eq!(back, v);
        }
    }

    #[test]
    fn eof_and_overflow_detected() {
        assert!(matches!(read_u64(&[]), Err(Error::UnexpectedEof)));
        assert!(matches!(read_u64(&[0x80]), Err(Error::UnexpectedEof)));
        // Eleven continuation bytes can never be a valid u64.
        let too_long = [0xffu8; 11];
        assert!(matches!(read_u64(&too_long), Err(Error::VarintOverflow)));
        // Ten bytes where the last contributes more than one bit.
        let mut overflowing = vec![0xffu8; 9];
        overflowing.push(0x02);
        assert!(matches!(read_u64(&overflowing), Err(Error::VarintOverflow)));
        // Over-long: 5 padded to two bytes, 0 to three.
        assert!(matches!(read_u64(&[0x85, 0x00]), Err(Error::VarintOverflow)));
        assert!(matches!(read_u64(&[0x80, 0x80, 0x00]), Err(Error::VarintOverflow)));
    }

    #[test]
    fn max_u64_is_ten_bytes() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::MAX);
        assert_eq!(buf.len(), MAX_VARINT_LEN);
    }
}
