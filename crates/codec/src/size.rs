//! Serialized-size accounting without a serialization pass.
//!
//! [`serialized_size`] walks a value through a counting
//! [`serde::Serializer`] that mirrors the GraftBin encoding rules
//! byte-for-byte but only tallies lengths — no output buffer is
//! allocated and no bytes are copied. The out-of-core budget layer uses
//! it to charge partitions and shuffle batches for exactly the bytes a
//! spill would write, without actually spilling.

use serde::{ser, Serialize};

use crate::error::{Error, Result};
use crate::tagged::{write_interned, write_tagged, NameTable, INTERNED_TOKEN, TAGGED_TOKEN};
use crate::value::is_token;
use crate::varint;

/// Number of bytes [`crate::to_vec`] would produce for `value`.
pub fn serialized_size<T: Serialize + ?Sized>(value: &T) -> Result<u64> {
    let mut counter = SizeCounter { bytes: 0, tagged: Vec::new(), names: None };
    value.serialize(&mut counter)?;
    Ok(counter.bytes)
}

/// Number of bytes [`crate::write_framed`] would append for `value`:
/// the body size plus its varint length prefix.
pub fn framed_size<T: Serialize + ?Sized>(value: &T) -> Result<u64> {
    let body = serialized_size(value)?;
    Ok(varint_len(body) + body)
}

/// Encoded length of a LEB128 varint, in bytes.
fn varint_len(value: u64) -> u64 {
    varint::encoded_len_u64(value) as u64
}

/// A `Serializer` that adds up the bytes [`crate::Serializer`] would
/// write. Every method must stay in lockstep with the real encoder —
/// the unit tests compare both against `to_vec` on representative
/// shapes.
struct SizeCounter {
    bytes: u64,
    /// The tagged values met so far: the tagged encoding reorders object
    /// entries after writing them, so its size is only known by producing
    /// it. The interned ones stay, for the name table points into them.
    tagged: Vec<u8>,
    /// The name table of the value's interned values, made when the
    /// first comes.
    names: Option<Box<NameTable>>,
}

impl SizeCounter {
    fn count_u64(&mut self, v: u64) {
        self.bytes += varint_len(v);
    }

    fn count_i64(&mut self, v: i64) {
        self.bytes += varint_len(varint::zigzag_encode(v));
    }
}

impl ser::Serializer for &mut SizeCounter {
    type Ok = ();
    type Error = Error;
    type SerializeSeq = Self;
    type SerializeTuple = Self;
    type SerializeTupleStruct = Self;
    type SerializeTupleVariant = Self;
    type SerializeMap = Self;
    type SerializeStruct = Self;
    type SerializeStructVariant = Self;

    fn serialize_bool(self, _v: bool) -> Result<()> {
        self.bytes += 1;
        Ok(())
    }

    fn serialize_i8(self, v: i8) -> Result<()> {
        self.count_i64(v.into());
        Ok(())
    }

    fn serialize_i16(self, v: i16) -> Result<()> {
        self.count_i64(v.into());
        Ok(())
    }

    fn serialize_i32(self, v: i32) -> Result<()> {
        self.count_i64(v.into());
        Ok(())
    }

    fn serialize_i64(self, v: i64) -> Result<()> {
        self.count_i64(v);
        Ok(())
    }

    fn serialize_u8(self, v: u8) -> Result<()> {
        self.count_u64(v.into());
        Ok(())
    }

    fn serialize_u16(self, v: u16) -> Result<()> {
        self.count_u64(v.into());
        Ok(())
    }

    fn serialize_u32(self, v: u32) -> Result<()> {
        self.count_u64(v.into());
        Ok(())
    }

    fn serialize_u64(self, v: u64) -> Result<()> {
        self.count_u64(v);
        Ok(())
    }

    fn serialize_f32(self, _v: f32) -> Result<()> {
        self.bytes += 4;
        Ok(())
    }

    fn serialize_f64(self, _v: f64) -> Result<()> {
        self.bytes += 8;
        Ok(())
    }

    fn serialize_char(self, v: char) -> Result<()> {
        self.count_u64(v as u64);
        Ok(())
    }

    fn serialize_str(self, v: &str) -> Result<()> {
        self.serialize_bytes(v.as_bytes())
    }

    fn serialize_bytes(self, v: &[u8]) -> Result<()> {
        self.count_u64(v.len() as u64);
        self.bytes += v.len() as u64;
        Ok(())
    }

    fn serialize_none(self) -> Result<()> {
        self.bytes += 1;
        Ok(())
    }

    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<()> {
        self.bytes += 1;
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
        self.count_u64(variant_index.into());
        Ok(())
    }

    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        name: &'static str,
        value: &T,
    ) -> Result<()> {
        let at = self.tagged.len();
        if is_token(name, TAGGED_TOKEN) {
            write_tagged(&mut self.tagged, value)?;
            self.bytes += (self.tagged.len() - at) as u64;
            self.tagged.truncate(at);
            return Ok(());
        }
        if is_token(name, INTERNED_TOKEN) {
            let names = self.names.get_or_insert_with(Box::default);
            write_interned(&mut self.tagged, names, value)?;
            self.bytes += (self.tagged.len() - at) as u64;
            return Ok(());
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
        self.count_u64(variant_index.into());
        value.serialize(self)
    }

    fn serialize_seq(self, len: Option<usize>) -> Result<Self::SerializeSeq> {
        let len = len.ok_or(Error::UnknownLength)?;
        self.count_u64(len as u64);
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
        self.count_u64(variant_index.into());
        Ok(self)
    }

    fn serialize_map(self, len: Option<usize>) -> Result<Self::SerializeMap> {
        let len = len.ok_or(Error::UnknownLength)?;
        self.count_u64(len as u64);
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
        self.count_u64(variant_index.into());
        Ok(self)
    }

    fn is_human_readable(&self) -> bool {
        false
    }
}

impl ser::SerializeSeq for &mut SizeCounter {
    type Ok = ();
    type Error = Error;

    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        value.serialize(&mut **self)
    }

    fn end(self) -> Result<()> {
        Ok(())
    }
}

impl ser::SerializeTuple for &mut SizeCounter {
    type Ok = ();
    type Error = Error;

    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        value.serialize(&mut **self)
    }

    fn end(self) -> Result<()> {
        Ok(())
    }
}

impl ser::SerializeTupleStruct for &mut SizeCounter {
    type Ok = ();
    type Error = Error;

    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        value.serialize(&mut **self)
    }

    fn end(self) -> Result<()> {
        Ok(())
    }
}

impl ser::SerializeTupleVariant for &mut SizeCounter {
    type Ok = ();
    type Error = Error;

    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        value.serialize(&mut **self)
    }

    fn end(self) -> Result<()> {
        Ok(())
    }
}

impl ser::SerializeMap for &mut SizeCounter {
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

impl ser::SerializeStruct for &mut SizeCounter {
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

impl ser::SerializeStructVariant for &mut SizeCounter {
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
            let mut buf = Vec::new();
            varint::write_u64(&mut buf, v);
            assert_eq!(varint_len(v), buf.len() as u64, "varint length for {v}");
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
