//! Type-erased JSON values over the GraftBin wire format: the read side
//! of the tagged encoding.
//!
//! Binary trace records must stay browsable by tools that do not know the
//! computation's Rust types (`graft-cli`, `graft-server`). GraftBin
//! carries no schema, so type-erased fields are read back as a
//! [`BinValue`]: a `serde_json::Value` decoded from the tagged tree whose
//! layout and rules the [`crate::Tagged`] module docs state. Capture
//! writes that tree straight from the typed value, without building a
//! `BinValue`; [`to_bin_value`] is the tree-building equivalent, kept as
//! the reference the single-pass encoder is tested against.
//!
//! The encoding is *dual-mode*: against a human-readable serializer
//! (JSON) a `BinValue` is transparent — it serializes exactly like the
//! `Value` it wraps — while against GraftBin it uses the tagged tree.
//! Together with [`normalize`], this gives the equivalence the trace
//! pipeline is built on: a record captured through the binary codec
//! reconstructs *the same* `serde_json::Value` tree that parsing the
//! JSON-lines rendition of the record would produce, so every view built
//! over either format is byte-identical.

use std::collections::BTreeMap;

use serde::de::{EnumAccess, VariantAccess, Visitor};
use serde::ser::{SerializeMap, SerializeSeq};
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use serde_json::{Number, Value};

use crate::error::{Error, Result};

/// A `serde_json::Value` that round-trips through GraftBin (see the
/// module docs for the wire encoding).
#[derive(Clone, Debug, PartialEq)]
pub struct BinValue(pub Value);

/// Converts any serializable value into its *normalized* JSON tree — the
/// exact `Value` that serializing the input to JSON text and parsing it
/// back would produce (see [`normalize`]). `to_vec` of the result is what
/// [`crate::Tagged`] writes in one pass.
pub fn to_bin_value<T: Serialize + ?Sized>(value: &T) -> Result<BinValue> {
    let mut json = serde_json::to_value(value).map_err(|e| Error::Message(e.to_string()))?;
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
        Value::Array(items) => {
            for item in items {
                normalize(item);
            }
        }
        Value::Object(map) => {
            for item in map.values_mut() {
                normalize(item);
            }
        }
        _ => {}
    }
}

/// Variant names for the tagged encoding (indices are the wire tags).
pub(crate) const VARIANTS: &[&str] =
    &["Null", "Bool", "U64", "I64", "F64", "Str", "Array", "Object"];

/// Borrowing serializer for one `Value` node in the tagged encoding;
/// recursion goes through this wrapper so nested trees are encoded
/// without cloning.
struct Wrap<'a>(&'a Value);

struct SeqWrap<'a>(&'a [Value]);

struct MapWrap<'a>(&'a BTreeMap<String, Value>);

impl Serialize for Wrap<'_> {
    fn serialize<S: Serializer>(&self, serializer: S) -> std::result::Result<S::Ok, S::Error> {
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
    fn serialize<S: Serializer>(&self, serializer: S) -> std::result::Result<S::Ok, S::Error> {
        let mut seq = serializer.serialize_seq(Some(self.0.len()))?;
        for item in self.0 {
            seq.serialize_element(&Wrap(item))?;
        }
        seq.end()
    }
}

impl Serialize for MapWrap<'_> {
    fn serialize<S: Serializer>(&self, serializer: S) -> std::result::Result<S::Ok, S::Error> {
        let mut map = serializer.serialize_map(Some(self.0.len()))?;
        for (key, value) in self.0 {
            map.serialize_key(key)?;
            map.serialize_value(&Wrap(value))?;
        }
        map.end()
    }
}

impl Serialize for BinValue {
    fn serialize<S: Serializer>(&self, serializer: S) -> std::result::Result<S::Ok, S::Error> {
        if serializer.is_human_readable() {
            // Transparent against JSON: a BinValue field renders exactly
            // like the Value it wraps.
            self.0.serialize(serializer)
        } else {
            Wrap(&self.0).serialize(serializer)
        }
    }
}

impl<'de> Deserialize<'de> for BinValue {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> std::result::Result<Self, D::Error> {
        if deserializer.is_human_readable() {
            return Value::deserialize(deserializer).map(BinValue);
        }
        struct BinValueVisitor;

        impl<'de> Visitor<'de> for BinValueVisitor {
            type Value = BinValue;

            fn expecting(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str("a tagged BinValue tree")
            }

            fn visit_enum<A: EnumAccess<'de>>(
                self,
                data: A,
            ) -> std::result::Result<Self::Value, A::Error> {
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
                            "invalid BinValue tag {other}"
                        )))
                    }
                };
                Ok(BinValue(value))
            }
        }

        deserializer.deserialize_enum("BinValue", VARIANTS, BinValueVisitor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        #[derive(Serialize)]
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
        // Tag 9 is outside the BinValue variant range.
        let err = crate::from_slice::<BinValue>(&[9]).unwrap_err();
        assert!(err.to_string().contains("tag"), "{err}");
    }
}
