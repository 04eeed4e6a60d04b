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
//! | `8` | string | a name |
//! | `9` | object | varint count, `(name, value)` entries in key order |
//!
//! — which a [`crate::TaggedBytes`] holds. [`Tagged`] encodes any
//! `T: Serialize` to it directly, with no intermediate tree, by the rules
//! that make the tree equal to the `serde_json::Value` a JSON text
//! round-trip of the same value yields:
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
//! [`Tagged`] writes the context-free form, tags `0` to `7`: the bytes of
//! a tree depend on the tree alone. [`Interned`] writes the same trees
//! with every object key and string node as a *name* (tags `8` and `9`
//! in place of `5` and `7`), against a [`NameTable`] that one payload's
//! interned values share: the first time the payload writes a name it is
//! inline, `varint(len << 1)` then its bytes, and enters the table; any
//! later equal name is `varint(index << 1 | 1)`, its index in the table.
//! Names are interned as they are written, a field or variant name found
//! by the address of its `&'static str` before any byte is compared.
//! Inline means first in the final bytes, read front to back: an object
//! whose entries arrive out of key order has them interned again, in key
//! order, against the table as it stood where the object began. A
//! decoder builds the same table as it reads, so a payload still decodes
//! alone, and a reader sees tag `8` as a string and `9` as an object.
//!
//! The output is byte-identical to the encoding of the `serde_json::Value`
//! a JSON text round-trip of `value` yields, written node by node — the
//! tree-building reference the differential tests compare against.

use std::io::Write as _;
use std::ops::Range;

use serde::{ser, Serialize};

use crate::error::{Error, Result};
use crate::varint;

pub(crate) const TAG_NULL: u8 = 0;
pub(crate) const TAG_BOOL: u8 = 1;
pub(crate) const TAG_U64: u8 = 2;
pub(crate) const TAG_I64: u8 = 3;
pub(crate) const TAG_F64: u8 = 4;
pub(crate) const TAG_STR: u8 = 5;
pub(crate) const TAG_ARRAY: u8 = 6;
pub(crate) const TAG_OBJECT: u8 = 7;
pub(crate) const TAG_NAME: u8 = 8;
pub(crate) const TAG_NAMED_OBJECT: u8 = 9;

/// The newtype-struct name by which [`Tagged`] tells the GraftBin
/// serializer to switch to the tagged encoding for the wrapped value. A
/// `static`, so that it has one address: the serializer compares names
/// by address first, and a `const` copied into each crate that
/// instantiates `Tagged<T>::serialize` would fail that and compare bytes.
pub(crate) static TAGGED_TOKEN: &str = "$graft_codec::Tagged";

/// The newtype-struct name by which [`Interned`] tells the GraftBin
/// serializer to switch to the interned tagged encoding; a `static` for
/// the reason [`TAGGED_TOKEN`] is.
pub(crate) static INTERNED_TOKEN: &str = "$graft_codec::Interned";

/// Marks a value as type-erased: under GraftBin it is written in the
/// tagged encoding of the module docs (decodable as a
/// [`crate::TaggedBytes`]), under any other serializer — JSON — it is
/// transparent.
#[derive(Clone, Copy, Debug)]
pub struct Tagged<T>(pub T);

impl<T: Serialize> Serialize for Tagged<T> {
    fn serialize<S: ser::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_newtype_struct(TAGGED_TOKEN, &self.0)
    }
}

/// [`Tagged`], its names interned: under GraftBin each object key and
/// string goes through the [`NameTable`] of the payload the serializer
/// writes (see the module docs); under JSON it is transparent.
#[derive(Clone, Copy, Debug)]
pub struct Interned<T>(pub T);

impl<T: Serialize> Serialize for Interned<T> {
    fn serialize<S: ser::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_newtype_struct(INTERNED_TOKEN, &self.0)
    }
}

/// Appends the tagged encoding of `value` to `out`. On error `out` may
/// hold a partial encoding past its original length.
pub fn write_tagged<T: Serialize + ?Sized>(out: &mut Vec<u8>, value: &T) -> Result<()> {
    value.serialize(TaggedSerializer { out, names: None })
}

/// Appends the interned tagged encoding of `value` to `out`, whose
/// payload's names so far `names` holds. On error `out` may hold a
/// partial encoding past its original length.
pub fn write_interned<T: Serialize + ?Sized>(
    out: &mut Vec<u8>,
    names: &mut NameTable,
    value: &T,
) -> Result<()> {
    value.serialize(TaggedSerializer { out, names: Some(names) })
}

/// One name of a [`NameTable`]: its bytes lie at `at..at + len` of the
/// output, and `ptr` is the address of the `&'static str` it was written
/// from, 0 if none.
#[derive(Clone, Copy, Debug)]
struct Name {
    at: usize,
    len: usize,
    ptr: usize,
}

/// The names a payload's interned values have written, in first-use
/// order, each where its inline bytes lie in the output: a name's index
/// is its position here, and nothing is copied. The writer keeps it in
/// step with the output.
#[derive(Clone, Debug, Default)]
pub struct NameTable {
    names: Vec<Name>,
}

impl NameTable {
    /// Forgets every name, keeping the room they took: the table of a new
    /// payload.
    pub fn clear(&mut self) {
        self.names.clear();
    }

    /// Forgets the names first written at or past byte `len` of the
    /// output, which the writer has cut back to `len`. A name lies after
    /// its length, so an empty one at `len` was written before it.
    fn rewind(&mut self, len: usize) {
        self.names.truncate(self.names.partition_point(|name| name.at <= len));
    }

    /// The index of `name`, whose `&'static str` address is `ptr` (0 if
    /// none): an equal address and length settle it without comparing
    /// bytes, and only a name not found so compares them.
    fn find(&self, out: &[u8], name: &[u8], ptr: usize) -> Option<usize> {
        let by_ptr = |known: &Name| known.ptr == ptr && known.len == name.len();
        if ptr != 0 {
            if let Some(index) = self.names.iter().position(by_ptr) {
                return Some(index);
            }
        }
        self.names.iter().position(|known| out[known.at..known.at + known.len] == *name)
    }

    fn push(&mut self, at: usize, len: usize, ptr: usize) {
        self.names.push(Name { at, len, ptr });
    }

    /// Where the bytes of name `index` lie.
    fn range(&self, index: usize) -> Range<usize> {
        let name = self.names[index];
        name.at..name.at + name.len
    }

    /// Moves the names written at or past byte `from` by `delta` bytes:
    /// the output shifted under them.
    fn shift(&mut self, from: usize, delta: isize) {
        for name in self.names.iter_mut().rev().take_while(|name| name.at > from) {
            name.at = name.at.wrapping_add_signed(delta);
        }
    }
}

/// The varint that names name `index` by index.
fn by_index(index: usize) -> u64 {
    (index as u64) << 1 | 1
}

/// The address that identifies a `&'static str` in a [`NameTable`].
fn static_ptr(name: &'static str) -> usize {
    name.as_ptr() as usize
}

struct TaggedSerializer<'a> {
    out: &'a mut Vec<u8>,
    /// The payload's name table when names are interned.
    names: Option<&'a mut NameTable>,
}

pub(crate) fn write_str(out: &mut Vec<u8>, v: &str) {
    varint::write_u64(out, v.len() as u64);
    out.extend_from_slice(v.as_bytes());
}

/// Appends `name` as a name: inline, entering the table, the first time;
/// its index after that. `ptr` is as [`NameTable::find`] takes it.
fn write_name(out: &mut Vec<u8>, names: &mut NameTable, name: &str, ptr: usize) {
    match names.find(out, name.as_bytes(), ptr) {
        Some(index) => varint::write_u64(out, by_index(index)),
        None => {
            varint::write_u64(out, (name.len() as u64) << 1);
            names.push(out.len(), name.len(), ptr);
            out.extend_from_slice(name.as_bytes());
        }
    }
}

/// Appends an object key: a name where names are interned.
fn write_key(out: &mut Vec<u8>, names: Option<&mut NameTable>, key: &str, ptr: usize) {
    match names {
        Some(names) => write_name(out, names, key, ptr),
        None => write_str(out, key),
    }
}

/// Appends a string node.
fn write_string(out: &mut Vec<u8>, names: Option<&mut NameTable>, v: &str, ptr: usize) {
    out.push(if names.is_some() { TAG_NAME } else { TAG_STR });
    write_key(out, names, v, ptr)
}

/// Appends the tag of an object node.
fn object_tag(names: &Option<&mut NameTable>) -> u8 {
    if names.is_some() {
        TAG_NAMED_OBJECT
    } else {
        TAG_OBJECT
    }
}

/// Opens the one-entry object `{variant: ..}` of a non-unit enum variant;
/// the caller writes the entry's value next.
fn begin_variant(out: &mut Vec<u8>, names: Option<&mut NameTable>, variant: &'static str) {
    out.extend_from_slice(&[object_tag(&names), 1]);
    write_key(out, names, variant, static_ptr(variant));
}

/// Rewrites the element count at `count_at` once the number of elements
/// actually serialized is known to differ from the declared one, moving
/// the names written after it with their bytes.
pub(crate) fn fix_count(
    out: &mut Vec<u8>,
    names: Option<&mut NameTable>,
    count_at: usize,
    declared: u64,
    actual: u64,
) {
    if declared != actual {
        let mut buf = [0u8; varint::MAX_VARINT_LEN];
        let len = varint::encode_u64(actual, &mut buf);
        let declared_len = varint::encoded_len_u64(declared);
        out.splice(count_at..count_at + declared_len, buf[..len].iter().copied());
        if let Some(names) = names {
            names.shift(count_at, len as isize - declared_len as isize);
        }
    }
}

fn read_varint(buf: &[u8], pos: usize) -> (usize, usize) {
    let (value, len) = varint::read_u64(&buf[pos..]).expect("own tagged output is well-formed");
    (value as usize, pos + len)
}

/// The bytes of the key or name at `pos` of this module's own output,
/// and the end of it: a name's index is read in `names`.
pub(crate) fn read_key(buf: &[u8], names: Option<&NameTable>, pos: usize) -> (Range<usize>, usize) {
    let (value, at) = read_varint(buf, pos);
    match names {
        Some(names) if value & 1 == 1 => (names.range(value >> 1), at),
        Some(_) => (at..at + (value >> 1), at + (value >> 1)),
        None => (at..at + value, at + value),
    }
}

/// End offset of the tagged node that starts at `pos` of this module's
/// own output, in either form.
pub(crate) fn skip_value(buf: &[u8], pos: usize) -> usize {
    let after_tag = pos + 1;
    match buf[pos] {
        TAG_NULL => after_tag,
        TAG_BOOL => after_tag + 1,
        TAG_U64 | TAG_I64 => read_varint(buf, after_tag).1,
        TAG_F64 => after_tag + 8,
        TAG_STR => read_key(buf, None, after_tag).1,
        TAG_NAME => name_end(buf, after_tag),
        TAG_ARRAY => {
            let (count, mut pos) = read_varint(buf, after_tag);
            for _ in 0..count {
                pos = skip_value(buf, pos);
            }
            pos
        }
        TAG_OBJECT | TAG_NAMED_OBJECT => {
            let (count, mut pos) = read_varint(buf, after_tag);
            for _ in 0..count {
                pos = match buf[after_tag - 1] {
                    TAG_OBJECT => read_key(buf, None, pos).1,
                    _ => name_end(buf, pos),
                };
                pos = skip_value(buf, pos);
            }
            pos
        }
        other => unreachable!("tag {other} in own tagged output"),
    }
}

/// End offset of the name at `pos` of this module's own output.
fn name_end(buf: &[u8], pos: usize) -> usize {
    let (value, at) = read_varint(buf, pos);
    if value & 1 == 1 {
        at
    } else {
        at + (value >> 1)
    }
}

/// One object entry while its object is sorted: where the bytes of its
/// key lie, and where the entry begins and ends.
#[derive(Clone, Copy, Default)]
struct Entry {
    key: (usize, usize),
    start: usize,
    end: usize,
}

/// Reorders the `count` object entries that fill `out[first..]` into key
/// order, a repeated key keeping only its last entry — what inserting
/// them one by one into a `BTreeMap` leaves. Returns the entries kept.
///
/// Where names are interned, the kept entries are interned again, in
/// their new order, so each name is inline where it comes first in the
/// final bytes (see [`Resort`]).
pub(crate) fn sort_entries(
    out: &mut Vec<u8>,
    names: Option<&mut NameTable>,
    first: usize,
    count: u64,
) -> u64 {
    // A struct's few entries are sorted on the stack.
    let (mut stack, mut heap) = ([Entry::default(); 8], Vec::new());
    let entries = match usize::try_from(count) {
        Ok(count) if count <= stack.len() => &mut stack[..count],
        _ => {
            heap.resize(count as usize, Entry::default());
            &mut heap[..]
        }
    };
    let mut pos = first;
    for entry in entries.iter_mut() {
        let (key, value) = read_key(out, names.as_deref(), pos);
        let end = skip_value(out, value);
        *entry = Entry { key: (key.start, key.end), start: pos, end };
        pos = end;
    }
    let unsorted_end = out.len();
    debug_assert_eq!(pos, unsorted_end);
    let key = |entry: &Entry| entry.key.0..entry.key.1;
    // Stable, so equal keys stay in insertion order and the last one wins.
    entries.sort_by(|a, b| out[key(a)].cmp(&out[key(b)]));
    let mut resort = names.map(|names| Resort::new(names, first));
    let mut kept = 0;
    for (i, entry) in entries.iter().enumerate() {
        if entries.get(i + 1).is_some_and(|next| out[key(next)] == out[key(entry)]) {
            continue;
        }
        kept += 1;
        match resort.as_mut() {
            Some(resort) => {
                let value = resort.name(out, entry.start);
                resort.node(out, value);
            }
            None => out.extend_from_within(entry.start..entry.end),
        }
    }
    move_back(out, unsorted_end, first);
    if let Some(resort) = resort {
        resort.names.names.drain(resort.entered..resort.fresh);
        resort.names.shift(unsorted_end, first as isize - unsorted_end as isize);
    }
    kept
}

/// Moves the bytes past `from` back to `to`, over what lay between.
fn move_back(out: &mut Vec<u8>, from: usize, to: usize) {
    out.copy_within(from.., to);
    out.truncate(to + (out.len() - from));
}

/// The names of an object's entries, written again at the end of the
/// output in their sorted order. A name the payload wrote before the
/// object is an index below `entered` and stays as it is. Any other is
/// one the entries entered, in their old order: it is inline the first
/// time the new order writes it and an index after that, against the
/// names entered anew, from `fresh` on — which take the old ones' places
/// once the old bytes are gone.
struct Resort<'a> {
    names: &'a mut NameTable,
    entered: usize,
    fresh: usize,
}

impl<'a> Resort<'a> {
    /// The entries starting at `first`.
    fn new(names: &'a mut NameTable, first: usize) -> Self {
        let entered = names.names.partition_point(|name| name.at <= first);
        let fresh = names.names.len();
        Self { names, entered, fresh }
    }

    /// Appends the name at `pos` again; returns its end.
    fn name(&mut self, out: &mut Vec<u8>, pos: usize) -> usize {
        let (value, at) = read_varint(out, pos);
        if value & 1 == 1 && value >> 1 < self.entered {
            out.extend_from_within(pos..at);
            return at;
        }
        let (old, end) = match value & 1 {
            1 => (self.names.names[value >> 1], at),
            _ => {
                let index = self.names.names.partition_point(|name| name.at < at);
                (self.names.names[index], at + (value >> 1))
            }
        };
        let bytes = old.at..old.at + old.len;
        let names = &self.names.names[self.fresh..];
        match names.iter().position(|name| out[name.at..name.at + name.len] == out[bytes.clone()]) {
            Some(index) => varint::write_u64(out, by_index(self.entered + index)),
            None => {
                varint::write_u64(out, (old.len as u64) << 1);
                self.names.push(out.len(), old.len, old.ptr);
                out.extend_from_within(bytes);
            }
        }
        end
    }

    /// Appends the node at `pos` again; returns its end.
    fn node(&mut self, out: &mut Vec<u8>, pos: usize) -> usize {
        match out[pos] {
            TAG_NAME => {
                out.push(TAG_NAME);
                self.name(out, pos + 1)
            }
            tag @ (TAG_NAMED_OBJECT | TAG_ARRAY) => {
                let (count, mut at) = read_varint(out, pos + 1);
                out.extend_from_within(pos..at);
                for _ in 0..count {
                    if tag == TAG_NAMED_OBJECT {
                        at = self.name(out, at);
                    }
                    at = self.node(out, at);
                }
                at
            }
            _ => {
                let end = skip_value(out, pos);
                out.extend_from_within(pos..end);
                end
            }
        }
    }
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
        write_string(self.out, self.names, v, 0);
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
        write_string(self.out, self.names, variant, static_ptr(variant));
        Ok(())
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
        let TaggedSerializer { out, mut names } = self;
        begin_variant(out, names.as_deref_mut(), variant);
        value.serialize(TaggedSerializer { out, names })
    }

    fn serialize_seq(self, len: Option<usize>) -> Result<SeqEncoder<'a>> {
        Ok(SeqEncoder::begin(self.out, self.names, len))
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
        let TaggedSerializer { out, mut names } = self;
        begin_variant(out, names.as_deref_mut(), variant);
        Ok(SeqEncoder::begin(out, names, Some(len)))
    }

    fn serialize_map(self, len: Option<usize>) -> Result<MapEncoder<'a>> {
        Ok(MapEncoder::begin(self.out, self.names, len))
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
        let TaggedSerializer { out, mut names } = self;
        begin_variant(out, names.as_deref_mut(), variant);
        Ok(MapEncoder::begin(out, names, Some(len)))
    }

    // The tree-building reference serializes through `serde_json`'s
    // value serializer, which is human readable; a dual-mode type must
    // take the same branch here.
    fn is_human_readable(&self) -> bool {
        true
    }
}

/// An array in progress: the count is written as declared and corrected
/// at the end if the elements serialized turn out to differ.
struct SeqEncoder<'a> {
    out: &'a mut Vec<u8>,
    names: Option<&'a mut NameTable>,
    count_at: usize,
    declared: u64,
    count: u64,
}

impl<'a> SeqEncoder<'a> {
    fn begin(out: &'a mut Vec<u8>, names: Option<&'a mut NameTable>, len: Option<usize>) -> Self {
        out.push(TAG_ARRAY);
        let count_at = out.len();
        let declared = len.unwrap_or(0) as u64;
        varint::write_u64(out, declared);
        Self { out, names, count_at, declared, count: 0 }
    }

    fn element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        self.count += 1;
        value.serialize(TaggedSerializer { out: self.out, names: self.names.as_deref_mut() })
    }

    fn finish(self) -> Result<()> {
        fix_count(self.out, self.names, self.count_at, self.declared, self.count);
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
    names: Option<&'a mut NameTable>,
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
    fn begin(out: &'a mut Vec<u8>, names: Option<&'a mut NameTable>, len: Option<usize>) -> Self {
        out.push(object_tag(&names));
        let count_at = out.len();
        let declared = len.unwrap_or(0) as u64;
        varint::write_u64(out, declared);
        let first_entry_at = out.len();
        Self {
            out,
            names,
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
        let (key, _) = read_key(self.out, self.names.as_deref(), key_at);
        if self.count > 0 && self.out[key.clone()] <= self.out[self.last_key.clone()] {
            self.sorted = false;
        }
        self.last_key = key;
    }

    fn value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        self.count += 1;
        value.serialize(TaggedSerializer { out: self.out, names: self.names.as_deref_mut() })
    }

    fn field<T: Serialize + ?Sized>(&mut self, key: &'static str, value: &T) -> Result<()> {
        let key_at = self.out.len();
        write_key(self.out, self.names.as_deref_mut(), key, static_ptr(key));
        self.key_written(key_at);
        self.value(value)
    }

    fn finish(mut self) -> Result<()> {
        if !self.sorted {
            let names = self.names.as_deref_mut();
            self.count = sort_entries(self.out, names, self.first_entry_at, self.count);
        }
        fix_count(self.out, self.names, self.count_at, self.declared, self.count);
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
            if let Some(names) = self.names.as_deref_mut() {
                names.rewind(stale);
            }
        }
        let key_at = self.out.len();
        key.serialize(KeySerializer { out: self.out, names: self.names.as_deref_mut() })?;
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

/// Writes a map key as the length-prefixed string or the name an object
/// entry opens with, or fails if the key does not render as a string.
struct KeySerializer<'a> {
    out: &'a mut Vec<u8>,
    names: Option<&'a mut NameTable>,
}

impl KeySerializer<'_> {
    /// A key short enough for a one-byte length, even shifted for a
    /// name: numbers and bools. It is rendered in place, then looked up.
    fn display(self, v: impl std::fmt::Display) -> Result<()> {
        let len_at = self.out.len();
        self.out.push(0);
        write!(self.out, "{v}").expect("writing to a Vec cannot fail");
        let len = self.out.len() - len_at - 1;
        debug_assert!(len < 64, "a rendered key of {len} bytes");
        match self.names {
            None => self.out[len_at] = len as u8,
            Some(names) => match names.find(self.out, &self.out[len_at + 1..], 0) {
                Some(index) => {
                    self.out.truncate(len_at);
                    varint::write_u64(self.out, by_index(index));
                }
                None => {
                    self.out[len_at] = (len << 1) as u8;
                    names.push(len_at + 1, len, 0);
                }
            },
        }
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
        write_key(self.out, self.names, v, 0);
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
        write_key(self.out, self.names, variant, static_ptr(variant));
        Ok(())
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
