//! # graft-codec
//!
//! A compact, non-self-describing binary serialization format used by the
//! Graft debugger for its trace files, playing the role that Hadoop
//! `Writable`s play in the original Java implementation.
//!
//! The format ("GraftBin") is a straightforward field-ordered encoding:
//!
//! * unsigned integers are LEB128 varints,
//! * signed integers are zigzag-encoded varints,
//! * `bool` is a single byte (`0` or `1`),
//! * floats are little-endian IEEE-754 bit patterns,
//! * strings and byte arrays are a varint length followed by the raw bytes,
//! * `Option` is a one-byte tag followed by the value when present,
//! * sequences and maps are a varint length followed by their elements,
//! * structs and tuples are their fields in declaration order,
//! * enums are a varint variant index followed by the variant's content.
//!
//! Because the format carries no schema, decoding requires the exact type
//! that was encoded. That is always the case for Graft traces: the debug
//! session knows the `Computation` whose run it is inspecting.
//!
//! ## Example
//!
//! ```
//! use serde::{Serialize, Deserialize};
//!
//! #[derive(Serialize, Deserialize, PartialEq, Debug)]
//! struct Record { id: u64, score: f64, tags: Vec<String> }
//!
//! let rec = Record { id: 42, score: 0.5, tags: vec!["a".into(), "b".into()] };
//! let bytes = graft_codec::to_vec(&rec).unwrap();
//! let back: Record = graft_codec::from_slice(&bytes).unwrap();
//! assert_eq!(rec, back);
//! ```

#![forbid(unsafe_code)]

mod de;
mod error;
pub mod frame;
mod ser;
mod size;
mod skim;
mod tagged;
mod value;
pub mod varint;

pub use de::{from_slice, Deserializer};
pub use error::{Error, Result};
pub use ser::{to_vec, Serializer};
pub use size::{framed_size, serialized_size};
pub use skim::{for_each_element, SkipSeq, SkipStr, SkipTagged, TaggedText};
pub use tagged::{write_tagged, Tagged};
pub use value::{normalize, to_bin_value, BinValue};

/// Appends `value` to `out` behind its varint-encoded byte length, in one
/// pass and with no intermediate buffer; on error `out` is left as it was.
/// Length-prefixed framing lets many records share one append-only file:
/// readers can skip or stream records without decoding them. The gap is
/// one byte — right for records under 128 bytes; a longer record pays one
/// shift of its own bytes.
pub fn write_framed<T: serde::Serialize + ?Sized>(out: &mut Vec<u8>, value: &T) -> Result<()> {
    frame::write_len_prefixed::<1>(out, |out| value.serialize(&mut Serializer::new(out)))
}

/// Decodes one length-prefixed record from the front of `input`.
///
/// Returns the decoded value and the number of bytes consumed (prefix +
/// body), so callers can advance through a stream of framed records.
pub fn from_framed_slice<T: serde::de::DeserializeOwned>(input: &[u8]) -> Result<(T, usize)> {
    let (len, prefix) = varint::read_u64(input)?;
    let len = usize::try_from(len).map_err(|_| Error::LengthOverflow)?;
    let end = prefix.checked_add(len).ok_or(Error::LengthOverflow)?;
    let body = input.get(prefix..end).ok_or(Error::UnexpectedEof)?;
    let value = from_slice(body)?;
    Ok((value, end))
}

/// Iterator over a byte buffer containing consecutive framed records.
pub struct FramedIter<'a, T> {
    rest: &'a [u8],
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<'a, T> FramedIter<'a, T> {
    /// Creates an iterator over the framed records in `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { rest: buf, _marker: std::marker::PhantomData }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }
}

impl<T: serde::de::DeserializeOwned> Iterator for FramedIter<'_, T> {
    type Item = Result<T>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.rest.is_empty() {
            return None;
        }
        match from_framed_slice::<T>(self.rest) {
            Ok((value, consumed)) => {
                self.rest = &self.rest[consumed..];
                Some(Ok(value))
            }
            Err(e) => {
                // Poison the iterator so an error is reported exactly once.
                self.rest = &[];
                Some(Err(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};

    #[derive(Serialize, Deserialize, PartialEq, Debug, Clone)]
    struct Inner {
        flag: bool,
        label: String,
    }

    #[derive(Serialize, Deserialize, PartialEq, Debug, Clone)]
    enum Kind {
        Unit,
        Tuple(i32, i64),
        Struct { x: f32, inner: Inner },
    }

    #[derive(Serialize, Deserialize, PartialEq, Debug, Clone)]
    struct Everything {
        a: u8,
        b: u16,
        c: u32,
        d: u64,
        e: i8,
        f: i16,
        g: i32,
        h: i64,
        s: String,
        opt_some: Option<u32>,
        opt_none: Option<u32>,
        seq: Vec<Kind>,
        map: std::collections::BTreeMap<String, u64>,
        tup: (u8, String, bool),
        ch: char,
        bytes: Vec<u8>,
        unit: (),
        f32v: f32,
        f64v: f64,
    }

    fn sample() -> Everything {
        let mut map = std::collections::BTreeMap::new();
        map.insert("one".to_string(), 1);
        map.insert("two".to_string(), 2);
        Everything {
            a: 255,
            b: 65535,
            c: 7,
            d: u64::MAX,
            e: -128,
            f: -32768,
            g: i32::MIN,
            h: i64::MIN,
            s: "héllo ✓ world".to_string(),
            opt_some: Some(99),
            opt_none: None,
            seq: vec![
                Kind::Unit,
                Kind::Tuple(-5, 5),
                Kind::Struct { x: 1.5, inner: Inner { flag: true, label: "in".into() } },
            ],
            map,
            tup: (1, "t".into(), false),
            ch: '𝄞',
            bytes: vec![0, 1, 2, 254, 255],
            unit: (),
            f32v: -0.0,
            f64v: f64::MAX,
        }
    }

    #[test]
    fn roundtrip_everything() {
        let v = sample();
        let bytes = to_vec(&v).unwrap();
        let back: Everything = from_slice(&bytes).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn binary_is_smaller_than_json() {
        let v = sample();
        let bin = to_vec(&v).unwrap();
        let json = serde_json::to_vec(&v).unwrap();
        assert!(bin.len() < json.len(), "bin {} >= json {}", bin.len(), json.len());
    }

    #[test]
    fn framed_roundtrip_stream() {
        let records: Vec<Inner> =
            (0..100).map(|i| Inner { flag: i % 2 == 0, label: format!("record-{i}") }).collect();
        let mut buf = Vec::new();
        for r in &records {
            write_framed(&mut buf, r).unwrap();
        }
        let decoded: Result<Vec<Inner>> = FramedIter::new(&buf).collect();
        assert_eq!(decoded.unwrap(), records);
    }

    #[test]
    fn framed_iter_reports_truncation_once() {
        let rec = Inner { flag: true, label: "x".into() };
        let mut buf = Vec::new();
        write_framed(&mut buf, &rec).unwrap();
        buf.truncate(buf.len() - 1);
        let mut it = FramedIter::<Inner>::new(&buf);
        assert!(it.next().unwrap().is_err());
        assert!(it.next().is_none());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = to_vec(&7u32).unwrap();
        bytes.push(0);
        let err = from_slice::<u32>(&bytes).unwrap_err();
        assert!(matches!(err, Error::TrailingBytes(_)));
    }

    #[test]
    fn eof_rejected() {
        let bytes = to_vec(&sample()).unwrap();
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(from_slice::<Everything>(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn unit_is_zero_bytes() {
        assert!(to_vec(&()).unwrap().is_empty());
    }

    #[test]
    fn nested_options() {
        let v: Option<Option<u8>> = Some(None);
        let bytes = to_vec(&v).unwrap();
        let back: Option<Option<u8>> = from_slice(&bytes).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn char_boundaries() {
        for c in ['\0', 'a', 'ß', '✓', '𝄞', char::MAX] {
            let bytes = to_vec(&c).unwrap();
            let back: char = from_slice(&bytes).unwrap();
            assert_eq!(c, back);
        }
    }
}
