//! Type-erased values over the GraftBin wire format: the read side of
//! the tagged encoding.
//!
//! Binary trace records must stay browsable by tools that do not know the
//! computation's Rust types (`graft-cli`, `graft-server`). GraftBin
//! carries no schema, so a type-erased position is read back as a
//! [`TaggedBytes`]: the context-free tagged bytes (tags `0` to `7`, see
//! [`crate::Tagged`]) of its tree, whose layout and rules the `tagged`
//! module docs state. A payload's names are resolved as the tree is read,
//! so the bytes depend on the tree alone, and no other form of the value
//! is built.
//!
//! The rules are those under which the tree is the `serde_json::Value`
//! a JSON text round-trip of the value yields, so a record captured
//! through the binary codec reads as *the same* value that parsing the
//! JSON-lines rendition of the record gives, and every view built over
//! either format is byte-identical.

use std::fmt;
use std::ops::Range;

use serde::de::{
    DeserializeSeed, EnumAccess, Error as _, MapAccess, SeqAccess, VariantAccess, Visitor,
};
use serde::ser::{SerializeMap, SerializeSeq};
use serde::{Deserialize, Deserializer, Serialize, Serializer};

use crate::tagged::{
    fix_count, read_key, skip_value, sort_entries, write_str, TAG_ARRAY, TAG_BOOL, TAG_F64,
    TAG_I64, TAG_NULL, TAG_OBJECT, TAG_STR, TAG_U64,
};
use crate::{varint, write_tagged, Tagged};

/// Variant names for the tagged encoding (indices are the wire tags).
pub(crate) const VARIANTS: &[&str] =
    &["Null", "Bool", "U64", "I64", "F64", "Str", "Array", "Object"];

/// The enum name under which every reader of a tagged tree asks the
/// decoder for a node: the GraftBin decoder reads name nodes under it.
pub(crate) const TREE: &str = "$graft_codec::Tree";

/// Whether `name` is `token`: by address first, for a token is passed
/// as itself, and by bytes where the address differs.
pub(crate) fn is_token(name: &str, token: &'static str) -> bool {
    std::ptr::eq(name, token) || name == token
}

/// The variant a string node reads as.
pub(crate) const STR_VARIANT: u32 = 5;

/// The variant an object node reads as.
pub(crate) const OBJECT_VARIANT: u32 = 7;

/// One type-erased value: the context-free tagged bytes of its tree,
/// objects in key order, each key once.
///
/// It is built in two ways. Decoding a GraftBin payload reads the tree
/// node by node, a name read as the string it names, and writes it as
/// [`crate::Tagged`] would; deserializing a JSON value writes it by the
/// same rules. Equal trees are equal bytes.
///
/// Its `Serialize` replays the tree: as JSON text under JSON, as the
/// tagged tree under GraftBin — context-free, or interned inside an
/// [`crate::Interned`] — so a record read and written again is the same
/// bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaggedBytes(Vec<u8>);

impl TaggedBytes {
    /// The tagged bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// The text a view shows of the value: a string as itself, anything
    /// else as compact JSON.
    pub fn text(&self) -> String {
        if self.0[0] != TAG_STR {
            return self.json();
        }
        let text = &self.0[read_key(&self.0, None, 1).0];
        String::from_utf8(text.to_vec()).expect("a leaf's strings are UTF-8")
    }

    /// The compact JSON text of the value.
    pub fn json(&self) -> String {
        serde_json::to_string(self).expect("a leaf renders as JSON")
    }
}

impl<'de> Deserialize<'de> for TaggedBytes {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let mut out = Vec::new();
        Build { out: &mut out, node: Node::Tree }.deserialize(deserializer)?;
        Ok(TaggedBytes(out))
    }
}

/// The part of a tree a [`Build`] reads next.
#[derive(Clone, Copy, PartialEq)]
enum Node {
    Tree,
    /// The payload of a string node.
    Str,
    /// An object key, a string with no tag.
    Key,
    /// The payload of an array node.
    Elements,
    /// The payload of an object node.
    Entries,
}

/// Appends the context-free tagged bytes of one part of a tree to `out`,
/// as the part is read: from a tagged tree under GraftBin, making the
/// decoder calls [`crate::SkipTagged`] makes, or from any value under
/// JSON.
struct Build<'a> {
    out: &'a mut Vec<u8>,
    node: Node,
}

impl<'de> DeserializeSeed<'de> for Build<'_> {
    type Value = ();
    fn deserialize<D: Deserializer<'de>>(self, deserializer: D) -> Result<(), D::Error> {
        match self.node {
            Node::Tree if deserializer.is_human_readable() => deserializer.deserialize_any(self),
            Node::Tree => deserializer.deserialize_enum(TREE, VARIANTS, self),
            Node::Str | Node::Key => deserializer.deserialize_string(self),
            Node::Elements => deserializer.deserialize_seq(self),
            Node::Entries => deserializer.deserialize_map(self),
        }
    }
}

/// Appends a scalar node, written by the rules of [`crate::Tagged`].
fn scalar<T: Serialize + ?Sized, E: serde::de::Error>(out: &mut Vec<u8>, v: &T) -> Result<(), E> {
    write_tagged(out, v).map_err(E::custom)
}

impl<'de> Visitor<'de> for Build<'_> {
    type Value = ();
    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("a tagged tree")
    }
    fn visit_unit<E: serde::de::Error>(self) -> Result<(), E> {
        self.out.push(TAG_NULL);
        Ok(())
    }
    fn visit_bool<E: serde::de::Error>(self, v: bool) -> Result<(), E> {
        scalar(self.out, &v)
    }
    fn visit_i64<E: serde::de::Error>(self, v: i64) -> Result<(), E> {
        scalar(self.out, &v)
    }
    fn visit_u64<E: serde::de::Error>(self, v: u64) -> Result<(), E> {
        scalar(self.out, &v)
    }
    fn visit_f64<E: serde::de::Error>(self, v: f64) -> Result<(), E> {
        scalar(self.out, &v)
    }
    fn visit_str<E: serde::de::Error>(self, v: &str) -> Result<(), E> {
        if self.node != Node::Key {
            return scalar(self.out, v);
        }
        write_str(self.out, v);
        Ok(())
    }
    fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<(), A::Error> {
        let out = self.out;
        out.push(TAG_ARRAY);
        let (count_at, declared) = (out.len(), seq.size_hint().unwrap_or(0) as u64);
        varint::write_u64(out, declared);
        let mut count = 0;
        while seq.next_element_seed(Build { out: &mut *out, node: Node::Tree })?.is_some() {
            count += 1;
        }
        fix_count(out, None, count_at, declared, count);
        Ok(())
    }
    fn visit_map<A: MapAccess<'de>>(self, mut map: A) -> Result<(), A::Error> {
        let out = self.out;
        out.push(TAG_OBJECT);
        let (count_at, declared) = (out.len(), map.size_hint().unwrap_or(0) as u64);
        varint::write_u64(out, declared);
        let first = out.len();
        let (mut count, mut sorted, mut last) = (0, true, 0..0);
        loop {
            let key_at = out.len();
            if map.next_key_seed(Build { out: &mut *out, node: Node::Key })?.is_none() {
                break;
            }
            let key = read_key(out, None, key_at).0;
            sorted &= count == 0 || out[key.clone()] > out[last];
            last = key;
            map.next_value_seed(Build { out: &mut *out, node: Node::Tree })?;
            count += 1;
        }
        if !sorted {
            count = sort_entries(out, None, first, count);
        }
        fix_count(out, None, count_at, declared, count);
        Ok(())
    }
    fn visit_enum<A: EnumAccess<'de>>(self, data: A) -> Result<(), A::Error> {
        let (tag, variant) = data.variant::<u32>()?;
        let node = Build { node: Node::Tree, ..self };
        match tag {
            0 => {
                variant.unit_variant()?;
                node.visit_unit()
            }
            1 => node.visit_bool(variant.newtype_variant()?),
            2 => node.visit_u64(variant.newtype_variant()?),
            3 => node.visit_i64(variant.newtype_variant()?),
            4 => node.visit_f64(variant.newtype_variant()?),
            5 => variant.newtype_variant_seed(Build { node: Node::Str, ..node }),
            6 => variant.newtype_variant_seed(Build { node: Node::Elements, ..node }),
            7 => variant.newtype_variant_seed(Build { node: Node::Entries, ..node }),
            other => Err(A::Error::custom(format!("invalid tagged tree tag {other}"))),
        }
    }
}

impl Serialize for TaggedBytes {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        Tagged(Replay(&self.0)).serialize(serializer)
    }
}

/// The node that starts `bytes`, a leaf's, replayed as serde calls.
struct Replay<'a>(&'a [u8]);

/// The node at `at` of a leaf's bytes, and where it ends.
fn node_at(bytes: &[u8], at: usize) -> (Replay<'_>, usize) {
    let end = skip_value(bytes, at);
    (Replay(&bytes[at..end]), end)
}

impl Serialize for Replay<'_> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let (tag, payload) = (self.0[0], &self.0[1..]);
        let varint = || varint::read_u64(payload).expect("a leaf's varints are whole");
        match tag {
            TAG_NULL => serializer.serialize_unit(),
            TAG_BOOL => serializer.serialize_bool(payload[0] != 0),
            TAG_U64 => serializer.serialize_u64(varint().0),
            TAG_I64 => serializer.serialize_i64(varint::zigzag_decode(varint().0)),
            TAG_F64 => {
                let bits = payload[..8].try_into().expect("a leaf's floats are whole");
                serializer.serialize_f64(f64::from_le_bytes(bits))
            }
            TAG_STR => serializer.serialize_str(text(self.0, read_key(self.0, None, 1).0)?),
            TAG_ARRAY => {
                let (count, mut at) = varint();
                let mut seq = serializer.serialize_seq(Some(count as usize))?;
                at += 1;
                for _ in 0..count {
                    let (element, end) = node_at(self.0, at);
                    seq.serialize_element(&element)?;
                    at = end;
                }
                seq.end()
            }
            TAG_OBJECT => {
                let (count, mut at) = varint();
                let mut map = serializer.serialize_map(Some(count as usize))?;
                at += 1;
                for _ in 0..count {
                    let (key, value_at) = read_key(self.0, None, at);
                    map.serialize_key(text(self.0, key)?)?;
                    let (value, end) = node_at(self.0, value_at);
                    map.serialize_value(&value)?;
                    at = end;
                }
                map.end()
            }
            other => unreachable!("tag {other} in a leaf"),
        }
    }
}

/// The string at `range` of a leaf's bytes.
fn text<E: serde::ser::Error>(bytes: &[u8], range: Range<usize>) -> Result<&str, E> {
    std::str::from_utf8(&bytes[range]).map_err(E::custom)
}

#[cfg(test)]
mod tests {
    use serde_json::{Number, Value};

    use crate::oracle::{normalize, to_bin_value, BinValue};
    use crate::TaggedBytes;

    // The oracle the differential tests hold the leaf to is itself held
    // to a JSON text round trip.

    fn sample() -> Value {
        serde_json::from_str(
            r#"{
                "id": 672,
                "neg": -4,
                "pi": 3.25,
                "label": "héllo ✓",
                "flag": true,
                "nothing": null,
                "seq": [1, -2, [true, "x"], {"k": 0.5}],
                "obj": {"a": 1, "b": [null]}
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn binvalue_roundtrips_through_graftbin() {
        let value = BinValue(sample());
        let bytes = crate::to_vec(&value).unwrap();
        let back: BinValue = crate::from_slice(&bytes).unwrap();
        assert_eq!(value, back);
    }

    #[test]
    fn binvalue_is_transparent_against_json() {
        let value = BinValue(sample());
        let json = serde_json::to_vec(&value).unwrap();
        let plain = serde_json::to_vec(&sample()).unwrap();
        assert_eq!(json, plain);
    }

    #[test]
    fn normalize_matches_a_json_text_roundtrip() {
        for raw in [
            Value::Number(Number::I64(5)),
            Value::Number(Number::I64(-5)),
            Value::Number(Number::I64(0)),
            Value::Number(Number::U64(u64::MAX)),
            Value::Number(Number::F64(2.5)),
            Value::Number(Number::F64(f64::NAN)),
            Value::Number(Number::F64(f64::INFINITY)),
            Value::Array(vec![Value::Number(Number::I64(3))]),
        ] {
            let mut normalized = raw.clone();
            normalize(&mut normalized);
            let text = serde_json::to_vec(&raw).unwrap();
            let reparsed: Value = serde_json::from_slice(&text).unwrap();
            assert_eq!(normalized, reparsed, "for {raw:?}");
        }
    }

    #[test]
    fn to_bin_value_matches_parsed_json_for_typed_leaves() {
        #[derive(serde::Serialize)]
        struct Leaf {
            a: i64,
            b: f32,
            c: Vec<i32>,
        }
        let leaf = Leaf { a: 7, b: 1.5, c: vec![-1, 2] };
        let via_bin = to_bin_value(&leaf).unwrap().0;
        let via_text: Value = serde_json::from_slice(&serde_json::to_vec(&leaf).unwrap()).unwrap();
        assert_eq!(via_bin, via_text);
    }

    #[test]
    fn bad_tag_is_a_clean_error() {
        // Tag 10 is past the last tag, the object of names.
        let err = crate::from_slice::<TaggedBytes>(&[10]).unwrap_err();
        assert!(err.to_string().contains("tag"), "{err}");
    }
}
