//! Kind-tagged frames: the binary trace file layout.
//!
//! A binary trace channel is a stream of frames, each
//!
//! ```text
//! [len varint][kind u8][payload: len - 1 bytes]
//! ```
//!
//! where `len` counts the kind byte plus the payload, so a reader can hop
//! frame to frame — or skip whole groups of frames — by reading one
//! varint per frame and never touching payloads. Record kinds are defined
//! by the consumer (`graft-core` uses vertex / master / index); this
//! module only knows the framing.
//!
//! The scanner distinguishes the two corruption classes trace readers
//! care about: a frame that *overruns the end of the buffer*
//! ([`Error::UnexpectedEof`]) is the shape a torn tail write leaves
//! behind and may be leniently skipped when tailing a live file, while
//! anything else (zero-length frame, varint overflow) is structural
//! corruption. Every length-prefixed reader in this crate, and the
//! partition decoder of `graft-pregel`, takes that rule from one step,
//! [`read_len_prefixed`].

use std::ops::Range;

use serde::Serialize;

use crate::error::{Error, Result};
use crate::{varint, Serializer};

/// One frame yielded by a [`FrameScanner`].
#[derive(Clone, Copy, Debug)]
pub struct Frame<'a> {
    /// The record-kind byte.
    pub kind: u8,
    /// The frame's payload bytes.
    pub payload: &'a [u8],
    /// Byte offset of the frame's length prefix in the scanned buffer.
    pub start: usize,
    /// Byte offset of the payload within the scanned buffer.
    pub payload_start: usize,
    /// Byte offset one past the frame (the next frame's `start`).
    pub end: usize,
}

/// Appends one frame with the given kind and raw payload to `out`.
pub fn write_frame(out: &mut Vec<u8>, kind: u8, payload: &[u8]) {
    varint::write_u64(out, 1 + payload.len() as u64);
    out.push(kind);
    out.extend_from_slice(payload);
}

/// Appends what `encode` writes behind its varint length, in a single
/// pass: the bytes go straight into `out` behind a `GAP`-byte hole for
/// the prefix, which is filled in once the length is known, and are
/// shifted when the prefix turns out shorter or longer than the hole. On
/// error `out` is left as it was. Every length-prefixed writer in this
/// crate is this routine with its own guess at `GAP`.
pub(crate) fn write_len_prefixed<const GAP: usize>(
    out: &mut Vec<u8>,
    encode: impl FnOnce(&mut Vec<u8>) -> Result<()>,
) -> Result<()> {
    let start = out.len();
    out.extend_from_slice(&[0; GAP]);
    if let Err(e) = encode(out) {
        out.truncate(start);
        return Err(e);
    }
    let mut prefix = [0u8; varint::MAX_VARINT_LEN];
    let width = varint::encode_u64((out.len() - start - GAP) as u64, &mut prefix);
    if width == GAP {
        out[start..start + GAP].copy_from_slice(&prefix[..GAP]);
    } else {
        out.splice(start..start + GAP, prefix[..width].iter().copied());
    }
    Ok(())
}

/// Appends one frame whose payload `encode` writes, in a single pass
/// (see [`write_len_prefixed`]). The gap is two bytes — right for frames
/// of 127 to 16,382 payload bytes.
pub fn write_frame_with(
    out: &mut Vec<u8>,
    kind: u8,
    encode: impl FnOnce(&mut Vec<u8>) -> Result<()>,
) -> Result<()> {
    write_len_prefixed::<2>(out, |out| {
        out.push(kind);
        encode(out)
    })
}

/// Appends one frame whose payload is the GraftBin encoding of `value`,
/// in a single pass (see [`write_frame_with`]).
pub fn write_value_frame<T: Serialize + ?Sized>(
    out: &mut Vec<u8>,
    kind: u8,
    value: &T,
) -> Result<()> {
    write_frame_with(out, kind, |out| value.serialize(&mut Serializer::new(out)))
}

/// The byte range of the body that the varint length prefix at `pos`
/// announces: the one length-prefix step of every reader of
/// length-prefixed bytes. A prefix or a body that runs past the end of
/// `buf` — the shape a torn append leaves, whatever length it declares —
/// is [`Error::UnexpectedEof`].
pub fn read_len_prefixed(buf: &[u8], pos: usize) -> Result<Range<usize>> {
    let (len, prefix) = varint::read_u64(&buf[pos..])?;
    let start = pos + prefix;
    let end = usize::try_from(len).ok().and_then(|len| start.checked_add(len));
    match end.filter(|&end| end <= buf.len()) {
        Some(end) => Ok(start..end),
        None => Err(Error::UnexpectedEof),
    }
}

/// Sequential reader over the frames in a byte buffer.
pub struct FrameScanner<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> FrameScanner<'a> {
    /// Creates a scanner over `buf`, positioned at the first frame.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Byte offset of the next unread frame.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Reads the next frame, `Ok(None)` at a clean end of input.
    ///
    /// On error the scanner does not advance; `offset()` then points at
    /// the offending frame.
    pub fn next_frame(&mut self) -> Result<Option<Frame<'a>>> {
        if self.pos == self.buf.len() {
            return Ok(None);
        }
        let body = read_len_prefixed(self.buf, self.pos)?;
        if body.is_empty() {
            return Err(Error::Message(format!(
                "zero-length frame at byte {} (missing record kind)",
                self.pos
            )));
        }
        let (payload_start, end) = (body.start + 1, body.end);
        let frame = Frame {
            kind: self.buf[body.start],
            payload: &self.buf[payload_start..end],
            start: self.pos,
            payload_start,
            end,
        };
        self.pos = end;
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_with_offsets() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, b"alpha");
        write_value_frame(&mut buf, 2, &(7u64, "beta")).unwrap();
        write_frame(&mut buf, 3, b"");

        let mut scanner = FrameScanner::new(&buf);
        let first = scanner.next_frame().unwrap().unwrap();
        assert_eq!((first.kind, first.payload), (1, b"alpha".as_slice()));
        assert_eq!(first.start, 0);
        assert_eq!(first.payload_start, 2);

        let second = scanner.next_frame().unwrap().unwrap();
        assert_eq!(second.kind, 2);
        assert_eq!(second.start, first.end);
        let decoded: (u64, String) = crate::from_slice(second.payload).unwrap();
        assert_eq!(decoded, (7, "beta".to_string()));

        let third = scanner.next_frame().unwrap().unwrap();
        assert_eq!((third.kind, third.payload.len()), (3, 0));
        assert_eq!(third.end, buf.len());
        assert!(scanner.next_frame().unwrap().is_none());
    }

    #[test]
    fn value_frame_length_is_exact() {
        use crate::serialized_size;
        let mut buf = Vec::new();
        write_value_frame(&mut buf, 9, &vec![1u64, 2, 3]).unwrap();
        let mut scanner = FrameScanner::new(&buf);
        let frame = scanner.next_frame().unwrap().unwrap();
        assert_eq!(frame.payload.len() as u64, serialized_size(&vec![1u64, 2, 3]).unwrap());
        assert!(scanner.next_frame().unwrap().is_none());
    }

    #[test]
    fn single_pass_frames_equal_two_pass_frames_at_every_prefix_width() {
        // Payload lengths on both sides of each length-prefix width.
        for len in [0usize, 1, 125, 126, 127, 128, 16_381, 16_382, 16_383, 16_384, 40_000] {
            let payload = vec![0xabu8; len];
            let mut two_pass = vec![0xee];
            write_frame(&mut two_pass, 7, &payload);
            let mut single_pass = vec![0xee];
            write_frame_with(&mut single_pass, 7, |out| {
                out.extend_from_slice(&payload);
                Ok(())
            })
            .unwrap();
            assert_eq!(single_pass, two_pass, "payload of {len} bytes");
        }
    }

    #[test]
    fn single_pass_frame_error_leaves_the_buffer_untouched() {
        let mut buf = vec![1, 2, 3];
        let err = write_frame_with(&mut buf, 7, |out| {
            out.extend_from_slice(b"partial");
            Err(Error::UnknownLength)
        });
        assert!(matches!(err, Err(Error::UnknownLength)));
        assert_eq!(buf, [1, 2, 3]);
    }

    #[test]
    fn truncated_frame_is_eof_and_does_not_advance() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, b"0123456789");
        let cut = &buf[..buf.len() - 3];
        let mut scanner = FrameScanner::new(cut);
        assert!(matches!(scanner.next_frame(), Err(Error::UnexpectedEof)));
        assert_eq!(scanner.offset(), 0);
    }

    #[test]
    fn truncated_length_varint_is_eof() {
        // 0x80 continues a varint that never terminates.
        let mut scanner = FrameScanner::new(&[0x80]);
        assert!(matches!(scanner.next_frame(), Err(Error::UnexpectedEof)));
    }

    #[test]
    fn zero_length_frame_is_structural_corruption() {
        let mut scanner = FrameScanner::new(&[0x00]);
        let err = scanner.next_frame().unwrap_err();
        assert!(err.to_string().contains("zero-length"), "{err}");
    }

    #[test]
    fn huge_declared_length_is_eof_not_allocation() {
        // However far past the end a length points, even past `usize`,
        // it is the torn-tail error, in every length-prefixed reader.
        for len in [u64::MAX / 2, u64::MAX] {
            let mut buf = Vec::new();
            varint::write_u64(&mut buf, len);
            buf.push(1);
            let mut scanner = FrameScanner::new(&buf);
            assert!(matches!(scanner.next_frame(), Err(Error::UnexpectedEof)), "{len}");
            let framed = crate::from_framed_slice::<u8>(&buf);
            assert!(matches!(framed, Err(Error::UnexpectedEof)), "{len}");
        }
    }
}
