//! The tagged (type-erased) encoding, written in one pass.
//!
//! Binary trace records must stay browsable by tools that do not know the
//! computation's Rust types, so their computation-typed positions are
//! stored as a self-describing tagged tree: a one-byte tag per node
//! followed by the node's payload in the ordinary GraftBin encoding —
//!
//! | tag | node | payload |
//! |---|---|---|
//! | `0` | null | — |
//! | `1` | bool | one byte |
//! | `2` | unsigned integer | varint |
//! | `3` | negative integer | zigzag varint |
//! | `4` | float | 8 bytes, little-endian `f64` |
//! | `5` | string | varint length, UTF-8 bytes |
//! | `6` | array | varint count, the elements |
//! | `7` | object | varint count, `(string key, value)` entries in key order |
//!
//! — which is what [`crate::BinValue`] decodes. [`Tagged`] encodes any
//! `T: Serialize` to it directly, with no intermediate tree, by the rules
//! that make the decoded tree equal to the `serde_json::Value` a JSON
//! text round-trip of the same value yields:
//!
//! * integers `>= 0` (signed or not) take the unsigned tag, `< 0` the
//!   negative one; `f32` widens to `f64`; `NaN` becomes null (JSON has no
//!   NaN), `±inf` and `-0.0` keep their bits;
//! * unit, unit structs and `None` are null; `Some` and newtype structs
//!   are transparent; `char` is a one-character string; bytes are an
//!   array of unsigned integers;
//! * sequences, tuples and tuple structs are arrays carrying the number
//!   of elements actually serialized;
//! * structs and maps are objects whose entries are sorted by key bytes,
//!   a repeated key keeping its last value; map keys must render as
//!   strings — strings, chars and unit variants as themselves, integers,
//!   floats and bools as their JSON text;
//! * enum variants are externally tagged: a unit variant is its name as
//!   a string, every other variant a one-entry object from its name to
//!   the newtype's value, the tuple's array or the struct's object.
//!
//! The output is byte-identical to `to_vec(&to_bin_value(value))`, the
//! tree-building reference the differential tests compare against.

use std::io::Write as _;
use std::ops::Range;

use serde::{ser, Serialize};

use crate::error::{Error, Result};
use crate::varint;

const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_U64: u8 = 2;
const TAG_I64: u8 = 3;
const TAG_F64: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_ARRAY: u8 = 6;
const TAG_OBJECT: u8 = 7;

/// The newtype-struct name by which [`Tagged`] tells the GraftBin
/// serializer to switch to the tagged encoding for the wrapped value.
pub(crate) const TAGGED_TOKEN: &str = "$graft_codec::Tagged";

/// Marks a value as type-erased: under GraftBin it is written in the
/// tagged encoding of the module docs (decodable as a
/// [`crate::BinValue`]), under any other serializer — JSON — it is
/// transparent.
#[derive(Clone, Copy, Debug)]
pub struct Tagged<T>(pub T);

impl<T: Serialize> Serialize for Tagged<T> {
    fn serialize<S: ser::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_newtype_struct(TAGGED_TOKEN, &self.0)
    }
}

/// Appends the tagged encoding of `value` to `out`. On error `out` may
/// hold a partial encoding past its original length.
pub fn write_tagged<T: Serialize + ?Sized>(out: &mut Vec<u8>, value: &T) -> Result<()> {
    value.serialize(TaggedSerializer { out })
}

struct TaggedSerializer<'a> {
    out: &'a mut Vec<u8>,
}

fn write_str(out: &mut Vec<u8>, v: &str) {
    varint::write_u64(out, v.len() as u64);
    out.extend_from_slice(v.as_bytes());
}

/// Opens the one-entry object `{variant: ..}` of a non-unit enum variant;
/// the caller writes the entry's value next.
fn begin_variant(out: &mut Vec<u8>, variant: &str) {
    out.extend_from_slice(&[TAG_OBJECT, 1]);
    write_str(out, variant);
}

/// Rewrites the element count at `count_at` once the number of elements
/// actually serialized is known to differ from the declared one.
fn fix_count(out: &mut Vec<u8>, count_at: usize, declared: u64, actual: u64) {
    if declared != actual {
        let mut buf = [0u8; varint::MAX_VARINT_LEN];
        let len = varint::encode_u64(actual, &mut buf);
        let declared_end = count_at + varint::encoded_len_u64(declared);
        out.splice(count_at..declared_end, buf[..len].iter().copied());
    }
}

fn read_varint(buf: &[u8], pos: usize) -> (usize, usize) {
    let (value, len) = varint::read_u64(&buf[pos..]).expect("own tagged output is well-formed");
    (value as usize, pos + len)
}

/// End offset of the tagged node that starts at `pos` of this module's
/// own output.
fn skip_value(buf: &[u8], pos: usize) -> usize {
    let after_tag = pos + 1;
    match buf[pos] {
        TAG_NULL => after_tag,
        TAG_BOOL => after_tag + 1,
        TAG_U64 | TAG_I64 => read_varint(buf, after_tag).1,
        TAG_F64 => after_tag + 8,
        TAG_STR => {
            let (len, bytes_at) = read_varint(buf, after_tag);
            bytes_at + len
        }
        TAG_ARRAY => {
            let (count, mut pos) = read_varint(buf, after_tag);
            for _ in 0..count {
                pos = skip_value(buf, pos);
            }
            pos
        }
        TAG_OBJECT => {
            let (count, mut pos) = read_varint(buf, after_tag);
            for _ in 0..count {
                let (len, bytes_at) = read_varint(buf, pos);
                pos = skip_value(buf, bytes_at + len);
            }
            pos
        }
        other => unreachable!("tag {other} in own tagged output"),
    }
}

/// Reorders the `count` object entries that fill `out[first..]` into key
/// order, a repeated key keeping only its last entry — what inserting
/// them one by one into a `BTreeMap` leaves. Returns the entries kept.
fn sort_entries(out: &mut Vec<u8>, first: usize, count: u64) -> u64 {
    let mut entries: Vec<(Range<usize>, Range<usize>)> = Vec::new();
    let mut pos = first;
    for _ in 0..count {
        let (len, bytes_at) = read_varint(out, pos);
        let end = skip_value(out, bytes_at + len);
        entries.push((bytes_at..bytes_at + len, pos..end));
        pos = end;
    }
    let unsorted_end = out.len();
    debug_assert_eq!(pos, unsorted_end);
    // Stable, so equal keys stay in insertion order and the last one wins.
    entries.sort_by(|a, b| out[a.0.clone()].cmp(&out[b.0.clone()]));
    let mut kept = 0;
    for (i, (key, entry)) in entries.iter().enumerate() {
        let replaced =
            entries.get(i + 1).is_some_and(|next| out[next.0.clone()] == out[key.clone()]);
        if !replaced {
            out.extend_from_within(entry.clone());
            kept += 1;
        }
    }
    out.copy_within(unsorted_end.., first);
    out.truncate(first + (out.len() - unsorted_end));
    kept
}

impl<'a> ser::Serializer for TaggedSerializer<'a> {
    type Ok = ();
    type Error = Error;
    type SerializeSeq = SeqEncoder<'a>;
    type SerializeTuple = SeqEncoder<'a>;
    type SerializeTupleStruct = SeqEncoder<'a>;
    type SerializeTupleVariant = SeqEncoder<'a>;
    type SerializeMap = MapEncoder<'a>;
    type SerializeStruct = MapEncoder<'a>;
    type SerializeStructVariant = MapEncoder<'a>;

    fn serialize_bool(self, v: bool) -> Result<()> {
        self.out.extend_from_slice(&[TAG_BOOL, v as u8]);
        Ok(())
    }

    fn serialize_i8(self, v: i8) -> Result<()> {
        self.serialize_i64(v.into())
    }

    fn serialize_i16(self, v: i16) -> Result<()> {
        self.serialize_i64(v.into())
    }

    fn serialize_i32(self, v: i32) -> Result<()> {
        self.serialize_i64(v.into())
    }

    fn serialize_i64(self, v: i64) -> Result<()> {
        match u64::try_from(v) {
            Ok(v) => self.serialize_u64(v),
            Err(_) => {
                self.out.push(TAG_I64);
                varint::write_i64(self.out, v);
                Ok(())
            }
        }
    }

    fn serialize_u8(self, v: u8) -> Result<()> {
        self.serialize_u64(v.into())
    }

    fn serialize_u16(self, v: u16) -> Result<()> {
        self.serialize_u64(v.into())
    }

    fn serialize_u32(self, v: u32) -> Result<()> {
        self.serialize_u64(v.into())
    }

    fn serialize_u64(self, v: u64) -> Result<()> {
        self.out.push(TAG_U64);
        varint::write_u64(self.out, v);
        Ok(())
    }

    fn serialize_f32(self, v: f32) -> Result<()> {
        self.serialize_f64(v.into())
    }

    fn serialize_f64(self, v: f64) -> Result<()> {
        if v.is_nan() {
            self.out.push(TAG_NULL);
        } else {
            self.out.push(TAG_F64);
            self.out.extend_from_slice(&v.to_le_bytes());
        }
        Ok(())
    }

    fn serialize_char(self, v: char) -> Result<()> {
        self.serialize_str(v.encode_utf8(&mut [0; 4]))
    }

    fn serialize_str(self, v: &str) -> Result<()> {
        self.out.push(TAG_STR);
        write_str(self.out, v);
        Ok(())
    }

    fn serialize_bytes(self, v: &[u8]) -> Result<()> {
        self.out.push(TAG_ARRAY);
        varint::write_u64(self.out, v.len() as u64);
        for byte in v {
            self.out.push(TAG_U64);
            varint::write_u64(self.out, u64::from(*byte));
        }
        Ok(())
    }

    fn serialize_none(self) -> Result<()> {
        self.serialize_unit()
    }

    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<()> {
        value.serialize(self)
    }

    fn serialize_unit(self) -> Result<()> {
        self.out.push(TAG_NULL);
        Ok(())
    }

    fn serialize_unit_struct(self, _name: &'static str) -> Result<()> {
        self.serialize_unit()
    }

    fn serialize_unit_variant(
        self,
        _name: &'static str,
        _variant_index: u32,
        variant: &'static str,
    ) -> Result<()> {
        self.serialize_str(variant)
    }

    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<()> {
        value.serialize(self)
    }

    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        _variant_index: u32,
        variant: &'static str,
        value: &T,
    ) -> Result<()> {
        begin_variant(self.out, variant);
        value.serialize(self)
    }

    fn serialize_seq(self, len: Option<usize>) -> Result<SeqEncoder<'a>> {
        Ok(SeqEncoder::begin(self.out, len))
    }

    fn serialize_tuple(self, len: usize) -> Result<SeqEncoder<'a>> {
        self.serialize_seq(Some(len))
    }

    fn serialize_tuple_struct(self, _name: &'static str, len: usize) -> Result<SeqEncoder<'a>> {
        self.serialize_seq(Some(len))
    }

    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        _variant_index: u32,
        variant: &'static str,
        len: usize,
    ) -> Result<SeqEncoder<'a>> {
        begin_variant(self.out, variant);
        self.serialize_seq(Some(len))
    }

    fn serialize_map(self, len: Option<usize>) -> Result<MapEncoder<'a>> {
        Ok(MapEncoder::begin(self.out, len))
    }

    fn serialize_struct(self, _name: &'static str, len: usize) -> Result<MapEncoder<'a>> {
        self.serialize_map(Some(len))
    }

    fn serialize_struct_variant(
        self,
        _name: &'static str,
        _variant_index: u32,
        variant: &'static str,
        len: usize,
    ) -> Result<MapEncoder<'a>> {
        begin_variant(self.out, variant);
        self.serialize_map(Some(len))
    }

    // The tree-building reference serializes through `serde_json`'s
    // value serializer, which is human readable; dual-mode types (such
    // as `BinValue` itself) must take the same branch here.
    fn is_human_readable(&self) -> bool {
        true
    }
}

/// An array in progress: the count is written as declared and corrected
/// at the end if the elements serialized turn out to differ.
struct SeqEncoder<'a> {
    out: &'a mut Vec<u8>,
    count_at: usize,
    declared: u64,
    count: u64,
}

impl<'a> SeqEncoder<'a> {
    fn begin(out: &'a mut Vec<u8>, len: Option<usize>) -> Self {
        out.push(TAG_ARRAY);
        let count_at = out.len();
        let declared = len.unwrap_or(0) as u64;
        varint::write_u64(out, declared);
        Self { out, count_at, declared, count: 0 }
    }

    fn element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        self.count += 1;
        value.serialize(TaggedSerializer { out: self.out })
    }

    fn finish(self) -> Result<()> {
        fix_count(self.out, self.count_at, self.declared, self.count);
        Ok(())
    }
}

impl ser::SerializeSeq for SeqEncoder<'_> {
    type Ok = ();
    type Error = Error;

    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        self.element(value)
    }

    fn end(self) -> Result<()> {
        self.finish()
    }
}

impl ser::SerializeTuple for SeqEncoder<'_> {
    type Ok = ();
    type Error = Error;

    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        self.element(value)
    }

    fn end(self) -> Result<()> {
        self.finish()
    }
}

impl ser::SerializeTupleStruct for SeqEncoder<'_> {
    type Ok = ();
    type Error = Error;

    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        self.element(value)
    }

    fn end(self) -> Result<()> {
        self.finish()
    }
}

impl ser::SerializeTupleVariant for SeqEncoder<'_> {
    type Ok = ();
    type Error = Error;

    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        self.element(value)
    }

    fn end(self) -> Result<()> {
        self.finish()
    }
}

/// An object in progress. Entries are written as they arrive; as long as
/// every key is greater than the one before — derived structs with
/// fields in key order, `BTreeMap`s — they are already in place, and
/// only an out-of-order or repeated key costs a [`sort_entries`] pass at
/// the end.
struct MapEncoder<'a> {
    out: &'a mut Vec<u8>,
    count_at: usize,
    declared: u64,
    count: u64,
    first_entry_at: usize,
    /// Bytes of the previous entry's key: the greatest so far while
    /// `sorted` holds.
    last_key: Range<usize>,
    sorted: bool,
    /// Start of a key written by `serialize_key` whose value is due.
    pending_key_at: Option<usize>,
}

impl<'a> MapEncoder<'a> {
    fn begin(out: &'a mut Vec<u8>, len: Option<usize>) -> Self {
        out.push(TAG_OBJECT);
        let count_at = out.len();
        let declared = len.unwrap_or(0) as u64;
        varint::write_u64(out, declared);
        let first_entry_at = out.len();
        Self {
            out,
            count_at,
            declared,
            count: 0,
            first_entry_at,
            last_key: 0..0,
            sorted: true,
            pending_key_at: None,
        }
    }

    /// Notes the key just written at `key_at` and whether it keeps the
    /// entries in order.
    fn key_written(&mut self, key_at: usize) {
        let (len, bytes_at) = read_varint(self.out, key_at);
        let key = bytes_at..bytes_at + len;
        if self.count > 0 && self.out[key.clone()] <= self.out[self.last_key.clone()] {
            self.sorted = false;
        }
        self.last_key = key;
    }

    fn value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        self.count += 1;
        value.serialize(TaggedSerializer { out: self.out })
    }

    fn field<T: Serialize + ?Sized>(&mut self, key: &'static str, value: &T) -> Result<()> {
        let key_at = self.out.len();
        write_str(self.out, key);
        self.key_written(key_at);
        self.value(value)
    }

    fn finish(mut self) -> Result<()> {
        if !self.sorted {
            self.count = sort_entries(self.out, self.first_entry_at, self.count);
        }
        fix_count(self.out, self.count_at, self.declared, self.count);
        Ok(())
    }
}

impl ser::SerializeMap for MapEncoder<'_> {
    type Ok = ();
    type Error = Error;

    fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<()> {
        // A key written twice in a row replaces the first.
        if let Some(stale) = self.pending_key_at {
            self.out.truncate(stale);
        }
        let key_at = self.out.len();
        key.serialize(KeySerializer { out: self.out })?;
        self.pending_key_at = Some(key_at);
        Ok(())
    }

    fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        let key_at = self
            .pending_key_at
            .take()
            .ok_or_else(|| Error::Message("serialize_value before serialize_key".into()))?;
        self.key_written(key_at);
        self.value(value)
    }

    fn end(self) -> Result<()> {
        self.finish()
    }
}

impl ser::SerializeStruct for MapEncoder<'_> {
    type Ok = ();
    type Error = Error;

    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<()> {
        self.field(key, value)
    }

    fn end(self) -> Result<()> {
        self.finish()
    }
}

impl ser::SerializeStructVariant for MapEncoder<'_> {
    type Ok = ();
    type Error = Error;

    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<()> {
        self.field(key, value)
    }

    fn end(self) -> Result<()> {
        self.finish()
    }
}

/// Writes a map key as the length-prefixed string an object entry opens
/// with, or fails if the key does not render as a string.
struct KeySerializer<'a> {
    out: &'a mut Vec<u8>,
}

impl KeySerializer<'_> {
    /// A key short enough for a one-byte length: numbers and bools.
    fn display(self, v: impl std::fmt::Display) -> Result<()> {
        let len_at = self.out.len();
        self.out.push(0);
        write!(self.out, "{v}").expect("writing to a Vec cannot fail");
        self.out[len_at] = (self.out.len() - len_at - 1) as u8;
        Ok(())
    }
}

fn not_a_key<T>() -> Result<T> {
    Err(Error::Message("map key must be a string or number".into()))
}

impl<'a> ser::Serializer for KeySerializer<'a> {
    type Ok = ();
    type Error = Error;
    // Compound keys are rejected before any of these is constructed.
    type SerializeSeq = SeqEncoder<'a>;
    type SerializeTuple = SeqEncoder<'a>;
    type SerializeTupleStruct = SeqEncoder<'a>;
    type SerializeTupleVariant = SeqEncoder<'a>;
    type SerializeMap = MapEncoder<'a>;
    type SerializeStruct = MapEncoder<'a>;
    type SerializeStructVariant = MapEncoder<'a>;

    fn serialize_bool(self, v: bool) -> Result<()> {
        self.display(v)
    }

    fn serialize_i8(self, v: i8) -> Result<()> {
        self.display(v)
    }

    fn serialize_i16(self, v: i16) -> Result<()> {
        self.display(v)
    }

    fn serialize_i32(self, v: i32) -> Result<()> {
        self.display(v)
    }

    fn serialize_i64(self, v: i64) -> Result<()> {
        self.display(v)
    }

    fn serialize_u8(self, v: u8) -> Result<()> {
        self.display(v)
    }

    fn serialize_u16(self, v: u16) -> Result<()> {
        self.display(v)
    }

    fn serialize_u32(self, v: u32) -> Result<()> {
        self.display(v)
    }

    fn serialize_u64(self, v: u64) -> Result<()> {
        self.display(v)
    }

    fn serialize_f32(self, v: f32) -> Result<()> {
        self.serialize_f64(v.into())
    }

    // The JSON number text: `null` for NaN, `±1e999` for the infinities,
    // else the shortest form that parses back to the same float.
    fn serialize_f64(self, v: f64) -> Result<()> {
        if v.is_nan() {
            self.display("null")
        } else if v.is_infinite() {
            self.display(if v > 0.0 { "1e999" } else { "-1e999" })
        } else {
            self.display(format_args!("{v:?}"))
        }
    }

    fn serialize_char(self, v: char) -> Result<()> {
        self.serialize_str(v.encode_utf8(&mut [0; 4]))
    }

    fn serialize_str(self, v: &str) -> Result<()> {
        write_str(self.out, v);
        Ok(())
    }

    fn serialize_bytes(self, _v: &[u8]) -> Result<()> {
        not_a_key()
    }

    fn serialize_none(self) -> Result<()> {
        not_a_key()
    }

    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<()> {
        value.serialize(self)
    }

    fn serialize_unit(self) -> Result<()> {
        not_a_key()
    }

    fn serialize_unit_struct(self, _name: &'static str) -> Result<()> {
        not_a_key()
    }

    fn serialize_unit_variant(
        self,
        _name: &'static str,
        _variant_index: u32,
        variant: &'static str,
    ) -> Result<()> {
        self.serialize_str(variant)
    }

    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<()> {
        value.serialize(self)
    }

    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        _variant_index: u32,
        _variant: &'static str,
        _value: &T,
    ) -> Result<()> {
        not_a_key()
    }

    fn serialize_seq(self, _len: Option<usize>) -> Result<SeqEncoder<'a>> {
        not_a_key()
    }

    fn serialize_tuple(self, _len: usize) -> Result<SeqEncoder<'a>> {
        not_a_key()
    }

    fn serialize_tuple_struct(self, _name: &'static str, _len: usize) -> Result<SeqEncoder<'a>> {
        not_a_key()
    }

    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        _variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<SeqEncoder<'a>> {
        not_a_key()
    }

    fn serialize_map(self, _len: Option<usize>) -> Result<MapEncoder<'a>> {
        not_a_key()
    }

    fn serialize_struct(self, _name: &'static str, _len: usize) -> Result<MapEncoder<'a>> {
        not_a_key()
    }

    fn serialize_struct_variant(
        self,
        _name: &'static str,
        _variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<MapEncoder<'a>> {
        not_a_key()
    }
}
