//! The GraftBin `serde::Serializer`, over an [`Output`] that either
//! holds the bytes or only counts them.

use serde::{ser, Serialize};

use crate::error::{Error, Result};
use crate::tagged::{write_interned, write_tagged, NameTable, INTERNED_TOKEN, TAGGED_TOKEN};
use crate::value::is_token;
use crate::varint;

/// Serializes `value` into a fresh byte vector.
pub fn to_vec<T: Serialize>(value: &T) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    value.serialize(&mut Serializer::new(&mut out))?;
    Ok(out)
}

/// Number of bytes [`to_vec`] would produce for `value`: the serializer
/// that writes them counts them instead, so no output is kept. The
/// out-of-core budget charges partitions and shuffle batches with it for
/// exactly the bytes a spill would write, without spilling.
pub fn serialized_size<T: Serialize + ?Sized>(value: &T) -> Result<u64> {
    let mut count = Count::default();
    value.serialize(&mut Serializer::new(&mut count))?;
    Ok(count.bytes)
}

/// Number of bytes [`crate::write_framed`] would append for `value`:
/// the body size plus its varint length prefix.
pub fn framed_size<T: Serialize + ?Sized>(value: &T) -> Result<u64> {
    let body = serialized_size(value)?;
    Ok(varint::encoded_len_u64(body) as u64 + body)
}

/// Where a [`Serializer`] puts what it encodes: a `Vec<u8>` appends the
/// bytes, and the count behind [`serialized_size`] adds up their lengths.
pub trait Output {
    /// Puts `bytes`.
    fn put(&mut self, bytes: &[u8]);

    /// Puts one byte.
    fn put_byte(&mut self, byte: u8) {
        self.put(&[byte]);
    }

    /// Puts `value` as an LEB128 varint.
    fn put_varint(&mut self, value: u64);

    /// Puts the tagged encoding of `value`, interned through `names` when
    /// there is a table.
    fn put_tagged<T: Serialize + ?Sized>(
        &mut self,
        names: Option<&mut NameTable>,
        value: &T,
    ) -> Result<()>;
}

impl Output for Vec<u8> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }

    #[inline]
    fn put_byte(&mut self, byte: u8) {
        self.push(byte);
    }

    #[inline]
    fn put_varint(&mut self, value: u64) {
        varint::write_u64(self, value);
    }

    fn put_tagged<T: Serialize + ?Sized>(
        &mut self,
        names: Option<&mut NameTable>,
        value: &T,
    ) -> Result<()> {
        match names {
            Some(names) => write_interned(self, names, value),
            None => write_tagged(self, value),
        }
    }
}

/// The [`Output`] of [`serialized_size`]: the number of bytes put. A
/// tagged value's objects are sorted after they are written, so its
/// length is known only by writing it, to `scratch`. An interned value's
/// bytes stay there, for the name table points into them; a plain tagged
/// value's are cut off again.
#[derive(Default)]
struct Count {
    bytes: u64,
    scratch: Vec<u8>,
}

impl Output for Count {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.bytes += bytes.len() as u64;
    }

    #[inline]
    fn put_varint(&mut self, value: u64) {
        self.bytes += varint::encoded_len_u64(value) as u64;
    }

    fn put_tagged<T: Serialize + ?Sized>(
        &mut self,
        names: Option<&mut NameTable>,
        value: &T,
    ) -> Result<()> {
        let (at, keep) = (self.scratch.len(), names.is_some());
        self.scratch.put_tagged(names, value)?;
        self.bytes += (self.scratch.len() - at) as u64;
        if !keep {
            self.scratch.truncate(at);
        }
        Ok(())
    }
}

/// Streaming GraftBin encoder over a borrowed [`Output`].
pub struct Serializer<'a, O: Output = Vec<u8>> {
    out: &'a mut O,
    /// The name table of the payload's [`crate::Interned`] values.
    names: Names<'a>,
}

/// A serializer's name table: its own, made when the first interned
/// value comes, or one it shares with the other serializers that write
/// parts of one payload.
enum Names<'a> {
    Own(Option<Box<NameTable>>),
    Shared(&'a mut NameTable),
}

impl<'a, O: Output> Serializer<'a, O> {
    /// Creates a serializer appending to `out`: one payload, whose
    /// interned values start a name table of their own.
    pub fn new(out: &'a mut O) -> Self {
        Self { out, names: Names::Own(None) }
    }

    /// Creates a serializer appending a part of a payload to `out`, whose
    /// interned values go through `names`, the table of the parts before.
    pub fn with_names(out: &'a mut O, names: &'a mut NameTable) -> Self {
        Self { out, names: Names::Shared(names) }
    }

    fn write_len(&mut self, len: usize) {
        self.out.put_varint(len as u64);
    }
}

impl<'a, O: Output> ser::Serializer for &mut Serializer<'a, O> {
    type Ok = ();
    type Error = Error;
    type SerializeSeq = Self;
    type SerializeTuple = Self;
    type SerializeTupleStruct = Self;
    type SerializeTupleVariant = Self;
    type SerializeMap = Self;
    type SerializeStruct = Self;
    type SerializeStructVariant = Self;

    fn serialize_bool(self, v: bool) -> Result<()> {
        self.out.put_byte(v as u8);
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
        self.out.put_varint(varint::zigzag_encode(v));
        Ok(())
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
        self.out.put_varint(v);
        Ok(())
    }

    fn serialize_f32(self, v: f32) -> Result<()> {
        self.out.put(&v.to_le_bytes());
        Ok(())
    }

    fn serialize_f64(self, v: f64) -> Result<()> {
        self.out.put(&v.to_le_bytes());
        Ok(())
    }

    fn serialize_char(self, v: char) -> Result<()> {
        self.serialize_u32(v as u32)
    }

    fn serialize_str(self, v: &str) -> Result<()> {
        self.serialize_bytes(v.as_bytes())
    }

    fn serialize_bytes(self, v: &[u8]) -> Result<()> {
        self.write_len(v.len());
        self.out.put(v);
        Ok(())
    }

    fn serialize_none(self) -> Result<()> {
        self.out.put_byte(0);
        Ok(())
    }

    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<()> {
        self.out.put_byte(1);
        value.serialize(self)
    }

    fn serialize_unit(self) -> Result<()> {
        Ok(())
    }

    fn serialize_unit_struct(self, _name: &'static str) -> Result<()> {
        Ok(())
    }

    fn serialize_unit_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
    ) -> Result<()> {
        self.serialize_u32(variant_index)
    }

    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        name: &'static str,
        value: &T,
    ) -> Result<()> {
        if is_token(name, TAGGED_TOKEN) {
            return self.out.put_tagged(None, value);
        }
        if is_token(name, INTERNED_TOKEN) {
            let names = match &mut self.names {
                Names::Own(names) => names.get_or_insert_with(Box::default),
                Names::Shared(names) => &mut **names,
            };
            return self.out.put_tagged(Some(names), value);
        }
        value.serialize(self)
    }

    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        value: &T,
    ) -> Result<()> {
        self.out.put_varint(variant_index.into());
        value.serialize(self)
    }

    fn serialize_seq(self, len: Option<usize>) -> Result<Self::SerializeSeq> {
        let len = len.ok_or(Error::UnknownLength)?;
        self.write_len(len);
        Ok(self)
    }

    fn serialize_tuple(self, _len: usize) -> Result<Self::SerializeTuple> {
        Ok(self)
    }

    fn serialize_tuple_struct(
        self,
        _name: &'static str,
        _len: usize,
    ) -> Result<Self::SerializeTupleStruct> {
        Ok(self)
    }

    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Self::SerializeTupleVariant> {
        self.out.put_varint(variant_index.into());
        Ok(self)
    }

    fn serialize_map(self, len: Option<usize>) -> Result<Self::SerializeMap> {
        let len = len.ok_or(Error::UnknownLength)?;
        self.write_len(len);
        Ok(self)
    }

    fn serialize_struct(self, _name: &'static str, _len: usize) -> Result<Self::SerializeStruct> {
        Ok(self)
    }

    fn serialize_struct_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Self::SerializeStructVariant> {
        self.out.put_varint(variant_index.into());
        Ok(self)
    }

    fn is_human_readable(&self) -> bool {
        false
    }
}

impl<O: Output> ser::SerializeSeq for &mut Serializer<'_, O> {
    type Ok = ();
    type Error = Error;

    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        value.serialize(&mut **self)
    }

    fn end(self) -> Result<()> {
        Ok(())
    }
}

impl<O: Output> ser::SerializeTuple for &mut Serializer<'_, O> {
    type Ok = ();
    type Error = Error;

    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        value.serialize(&mut **self)
    }

    fn end(self) -> Result<()> {
        Ok(())
    }
}

impl<O: Output> ser::SerializeTupleStruct for &mut Serializer<'_, O> {
    type Ok = ();
    type Error = Error;

    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        value.serialize(&mut **self)
    }

    fn end(self) -> Result<()> {
        Ok(())
    }
}

impl<O: Output> ser::SerializeTupleVariant for &mut Serializer<'_, O> {
    type Ok = ();
    type Error = Error;

    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        value.serialize(&mut **self)
    }

    fn end(self) -> Result<()> {
        Ok(())
    }
}

impl<O: Output> ser::SerializeMap for &mut Serializer<'_, O> {
    type Ok = ();
    type Error = Error;

    fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<()> {
        key.serialize(&mut **self)
    }

    fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        value.serialize(&mut **self)
    }

    fn end(self) -> Result<()> {
        Ok(())
    }
}

impl<O: Output> ser::SerializeStruct for &mut Serializer<'_, O> {
    type Ok = ();
    type Error = Error;

    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        _key: &'static str,
        value: &T,
    ) -> Result<()> {
        value.serialize(&mut **self)
    }

    fn end(self) -> Result<()> {
        Ok(())
    }
}

impl<O: Output> ser::SerializeStructVariant for &mut Serializer<'_, O> {
    type Ok = ();
    type Error = Error;

    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        _key: &'static str,
        value: &T,
    ) -> Result<()> {
        value.serialize(&mut **self)
    }

    fn end(self) -> Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};
    use std::collections::BTreeMap;

    /// The sizes must equal the real encoder's output lengths; anything
    /// else would make the budget accounting drift from the spill files.
    fn assert_size_matches<T: Serialize>(value: &T) {
        let bytes = crate::to_vec(value).unwrap();
        assert_eq!(serialized_size(value).unwrap(), bytes.len() as u64);
        let mut framed = Vec::new();
        crate::write_framed(&mut framed, value).unwrap();
        assert_eq!(framed_size(value).unwrap(), framed.len() as u64);
    }

    #[derive(Serialize, Deserialize)]
    struct Record {
        id: u64,
        score: f64,
        tags: Vec<String>,
        parent: Option<i64>,
        flag: bool,
    }

    #[derive(Serialize)]
    enum Shape {
        Point,
        Circle(f64),
        Rect { w: u32, h: u32 },
    }

    #[test]
    fn varint_len_matches_encoder() {
        for v in [0u64, 1, 127, 128, 300, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            assert_size_matches(&v);
            assert_size_matches(&vec![0u8; v.min(20_000) as usize]);
        }
    }

    #[test]
    fn scalars_and_structs_match_round_trip_byte_counts() {
        assert_size_matches(&0u64);
        assert_size_matches(&u64::MAX);
        assert_size_matches(&-1i64);
        assert_size_matches(&i64::MIN);
        assert_size_matches(&3.25f64);
        assert_size_matches(&true);
        assert_size_matches(&'é');
        assert_size_matches(&"graft".to_string());
        assert_size_matches(&Record {
            id: 300,
            score: -0.25,
            tags: vec!["a".into(), "longer-tag".into()],
            parent: Some(-42),
            flag: false,
        });
        assert_size_matches(&Record {
            id: 0,
            score: f64::INFINITY,
            tags: vec![],
            parent: None,
            flag: true,
        });
    }

    #[test]
    fn containers_and_enums_match_round_trip_byte_counts() {
        assert_size_matches(&vec![1u64, 128, 16_384]);
        assert_size_matches(&(7u32, "pair".to_string(), -9i32));
        assert_size_matches(&Shape::Point);
        assert_size_matches(&Shape::Circle(2.5));
        assert_size_matches(&Shape::Rect { w: 640, h: 480 });
        let mut map = BTreeMap::new();
        map.insert(1u64, vec![0u8, 255]);
        map.insert(300u64, vec![]);
        assert_size_matches(&map);
        assert_size_matches(&Some(Box::new(128u64)));
        assert_size_matches(&Option::<u64>::None);
    }

    #[test]
    fn nested_vectors_match_round_trip_byte_counts() {
        let nested: Vec<Vec<(u64, f64)>> =
            vec![vec![(1, 0.5), (2, 1.5)], vec![], vec![(u64::MAX, -2.0)]];
        assert_size_matches(&nested);
    }
}
