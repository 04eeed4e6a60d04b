//! The tree-building oracle of the tagged encoding, for tests.
//!
//! [`BinValue`] wraps the `serde_json::Value` a JSON text round-trip of a
//! value yields ([`to_bin_value`], [`normalize`]). It is *dual-mode*:
//! against a human-readable serializer (JSON, and the tagged writer) it
//! serializes exactly like the `Value` it wraps, while against GraftBin
//! it writes the context-free tagged tree node by node, as an enum of
//! eight variants whose indices are the tags. It decodes only that
//! context-free form, tags `0` to `7`, through GraftBin's plain enum
//! path. It shares nothing with the codec's own writer or reader, which
//! the tests hold to it; this file is included by graft-codec's unit
//! tests and by the integration tests of graft-codec and graft-core.

#![allow(dead_code)]

use std::collections::BTreeMap;

use serde::de::{EnumAccess, VariantAccess, Visitor};
use serde::ser::{SerializeMap, SerializeSeq};
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use serde_json::{Number, Value};

/// A `serde_json::Value` that round-trips through GraftBin's tagged
/// encoding.
#[derive(Clone, Debug, PartialEq)]
pub struct BinValue(pub Value);

/// Converts any serializable value into its *normalized* JSON tree — the
/// exact `Value` that serializing the input to JSON text and parsing it
/// back would produce (see [`normalize`]).
pub fn to_bin_value<T: Serialize + ?Sized>(value: &T) -> serde_json::Result<BinValue> {
    let mut json = serde_json::to_value(value)?;
    normalize(&mut json);
    Ok(BinValue(json))
}

/// Rewrites `value` in place to the tree that a JSON text round-trip
/// (`write` then `parse`) would yield:
///
/// * non-negative `I64` numbers become `U64` (the parser reads any
///   unsigned integer text as `U64`),
/// * `NaN` floats become `Null` (the writer renders NaN as `null`),
/// * everything else — including `±1e999` infinities, which survive the
///   text round-trip — is already in parser-canonical form.
pub fn normalize(value: &mut Value) {
    match value {
        Value::Number(Number::I64(v)) if *v >= 0 => {
            *value = Value::Number(Number::U64(*v as u64));
        }
        Value::Number(Number::F64(f)) if f.is_nan() => *value = Value::Null,
        Value::Array(items) => items.iter_mut().for_each(normalize),
        Value::Object(map) => map.values_mut().for_each(normalize),
        _ => {}
    }
}

const VARIANTS: &[&str] = &["Null", "Bool", "U64", "I64", "F64", "Str", "Array", "Object"];

/// Borrowing serializer for one `Value` node in the tagged encoding.
struct Wrap<'a>(&'a Value);

struct SeqWrap<'a>(&'a [Value]);

struct MapWrap<'a>(&'a BTreeMap<String, Value>);

impl Serialize for Wrap<'_> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        match self.0 {
            Value::Null => serializer.serialize_unit_variant("BinValue", 0, "Null"),
            Value::Bool(b) => serializer.serialize_newtype_variant("BinValue", 1, "Bool", b),
            Value::Number(Number::U64(v)) => {
                serializer.serialize_newtype_variant("BinValue", 2, "U64", v)
            }
            Value::Number(Number::I64(v)) => {
                serializer.serialize_newtype_variant("BinValue", 3, "I64", v)
            }
            Value::Number(Number::F64(v)) => {
                serializer.serialize_newtype_variant("BinValue", 4, "F64", v)
            }
            Value::String(s) => serializer.serialize_newtype_variant("BinValue", 5, "Str", s),
            Value::Array(items) => {
                serializer.serialize_newtype_variant("BinValue", 6, "Array", &SeqWrap(items))
            }
            Value::Object(map) => {
                serializer.serialize_newtype_variant("BinValue", 7, "Object", &MapWrap(map))
            }
        }
    }
}

impl Serialize for SeqWrap<'_> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut seq = serializer.serialize_seq(Some(self.0.len()))?;
        for item in self.0 {
            seq.serialize_element(&Wrap(item))?;
        }
        seq.end()
    }
}

impl Serialize for MapWrap<'_> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut map = serializer.serialize_map(Some(self.0.len()))?;
        for (key, value) in self.0 {
            map.serialize_key(key)?;
            map.serialize_value(&Wrap(value))?;
        }
        map.end()
    }
}

impl Serialize for BinValue {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        if serializer.is_human_readable() {
            self.0.serialize(serializer)
        } else {
            Wrap(&self.0).serialize(serializer)
        }
    }
}

impl<'de> Deserialize<'de> for BinValue {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        if deserializer.is_human_readable() {
            return Value::deserialize(deserializer).map(BinValue);
        }
        struct BinValueVisitor;

        impl<'de> Visitor<'de> for BinValueVisitor {
            type Value = BinValue;

            fn expecting(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str("a context-free tagged tree")
            }

            fn visit_enum<A: EnumAccess<'de>>(self, data: A) -> Result<Self::Value, A::Error> {
                let (tag, variant) = data.variant::<u32>()?;
                let value = match tag {
                    0 => {
                        variant.unit_variant()?;
                        Value::Null
                    }
                    1 => Value::Bool(variant.newtype_variant()?),
                    2 => Value::Number(Number::U64(variant.newtype_variant()?)),
                    3 => Value::Number(Number::I64(variant.newtype_variant()?)),
                    4 => Value::Number(Number::F64(variant.newtype_variant()?)),
                    5 => Value::String(variant.newtype_variant()?),
                    6 => {
                        let items: Vec<BinValue> = variant.newtype_variant()?;
                        Value::Array(items.into_iter().map(|v| v.0).collect())
                    }
                    7 => {
                        let map: BTreeMap<String, BinValue> = variant.newtype_variant()?;
                        Value::Object(map.into_iter().map(|(k, v)| (k, v.0)).collect())
                    }
                    other => {
                        return Err(serde::de::Error::custom(format!(
                            "invalid tagged tree tag {other}"
                        )))
                    }
                };
                Ok(BinValue(value))
            }
        }

        deserializer.deserialize_enum("BinValue", VARIANTS, BinValueVisitor)
    }
}
