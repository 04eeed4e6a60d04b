//! Validating without building: stand-ins for the allocating types of a
//! record, for a reader that needs to know the record decodes — and
//! perhaps a field or two of it — but not its contents.
//!
//! Each type here drives the deserializer through the same calls as the
//! type it stands for, so under [`crate::Deserializer`] it consumes the
//! same bytes and fails on the same inputs with the same error; it only
//! keeps nothing of what it read.

use std::fmt;
use std::marker::PhantomData;

use serde::de::{
    Deserialize, Deserializer, EnumAccess, Error, MapAccess, SeqAccess, VariantAccess, Visitor,
};

use crate::value::VARIANTS;

/// Stands for a `String`: length, bounds and UTF-8 are checked.
#[derive(Clone, Copy, Debug)]
pub struct SkipStr;

impl<'de> Deserialize<'de> for SkipStr {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct StrVisitor;
        impl Visitor<'_> for StrVisitor {
            type Value = SkipStr;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("string")
            }
            fn visit_str<E: Error>(self, _: &str) -> Result<SkipStr, E> {
                Ok(SkipStr)
            }
        }
        deserializer.deserialize_string(StrVisitor)
    }
}

/// Decodes a sequence of `T` as `Vec<T>` would, handing each element to
/// `each` instead of collecting it.
pub fn for_each_element<'de, T, D, F>(deserializer: D, each: F) -> Result<(), D::Error>
where
    T: Deserialize<'de>,
    D: Deserializer<'de>,
    F: FnMut(T),
{
    struct EachVisitor<T, F>(F, PhantomData<T>);
    impl<'de, T: Deserialize<'de>, F: FnMut(T)> Visitor<'de> for EachVisitor<T, F> {
        type Value = ();
        fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("a sequence")
        }
        fn visit_seq<A: SeqAccess<'de>>(mut self, mut seq: A) -> Result<(), A::Error> {
            while let Some(item) = seq.next_element()? {
                (self.0)(item);
            }
            Ok(())
        }
    }
    deserializer.deserialize_seq(EachVisitor(each, PhantomData))
}

/// Stands for a `Vec<T>`: every element is decoded as `T` and dropped.
#[derive(Clone, Copy, Debug)]
pub struct SkipSeq<T>(PhantomData<T>);

impl<'de, T: Deserialize<'de>> Deserialize<'de> for SkipSeq<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        for_each_element(deserializer, |_: T| {}).map(|()| SkipSeq(PhantomData))
    }
}

/// Stands for the `BTreeMap<String, BinValue>` of an object node.
struct SkipObject;

impl<'de> Deserialize<'de> for SkipObject {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct ObjectVisitor;
        impl<'de> Visitor<'de> for ObjectVisitor {
            type Value = SkipObject;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a map")
            }
            fn visit_map<A: MapAccess<'de>>(self, mut map: A) -> Result<SkipObject, A::Error> {
                while map.next_entry::<SkipStr, SkipTagged>()?.is_some() {}
                Ok(SkipObject)
            }
        }
        deserializer.deserialize_map(ObjectVisitor)
    }
}

/// Stands for a [`crate::BinValue`]: the whole tagged tree is walked,
/// node by node, and no node is built.
#[derive(Clone, Copy, Debug)]
pub struct SkipTagged;

impl<'de> Deserialize<'de> for SkipTagged {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct TreeVisitor;
        impl<'de> Visitor<'de> for TreeVisitor {
            type Value = SkipTagged;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a tagged BinValue tree")
            }
            fn visit_enum<A: EnumAccess<'de>>(self, data: A) -> Result<SkipTagged, A::Error> {
                fn skip<'de, T: Deserialize<'de>, V: VariantAccess<'de>>(
                    variant: V,
                ) -> Result<(), V::Error> {
                    variant.newtype_variant::<T>().map(|_| ())
                }
                let (tag, variant) = data.variant::<u32>()?;
                match tag {
                    0 => variant.unit_variant(),
                    1 => skip::<bool, _>(variant),
                    2 => skip::<u64, _>(variant),
                    3 => skip::<i64, _>(variant),
                    4 => skip::<f64, _>(variant),
                    5 => skip::<SkipStr, _>(variant),
                    6 => skip::<SkipSeq<SkipTagged>, _>(variant),
                    7 => skip::<SkipObject, _>(variant),
                    other => Err(Error::custom(format!("invalid BinValue tag {other}"))),
                }?;
                Ok(SkipTagged)
            }
        }
        deserializer.deserialize_enum("BinValue", VARIANTS, TreeVisitor)
    }
}

#[cfg(test)]
mod tests {
    use serde_json::Value;

    use super::*;
    use crate::{from_slice, to_vec, BinValue};

    fn sample() -> Vec<u8> {
        let tree: Value = serde_json::from_str(
            r#"{"id": 672, "neg": -4, "pi": 3.25, "label": "héllo ✓", "flag": true,
                "nothing": null, "seq": [1, -2, [true, "x"], {"k": 0.5}], "obj": {"a": [null]}}"#,
        )
        .unwrap();
        to_vec(&(BinValue(tree), vec!["a".to_string(), "b".to_string()])).unwrap()
    }

    #[test]
    fn skipping_consumes_what_building_consumes() {
        let bytes = sample();
        from_slice::<(BinValue, Vec<String>)>(&bytes).unwrap();
        from_slice::<(SkipTagged, SkipSeq<SkipStr>)>(&bytes).unwrap();
        let mut seen = Vec::new();
        let mut de = crate::Deserializer::new(&bytes);
        SkipTagged::deserialize(&mut de).unwrap();
        for_each_element(&mut de, |s: String| seen.push(s)).unwrap();
        assert_eq!((seen, de.remaining()), (vec!["a".to_string(), "b".to_string()], 0));
    }

    #[test]
    fn skipping_fails_where_building_fails_with_the_same_error() {
        let bytes = sample();
        for cut in 0..bytes.len() {
            let built = from_slice::<(BinValue, Vec<String>)>(&bytes[..cut]).unwrap_err();
            let skipped = from_slice::<(SkipTagged, SkipSeq<SkipStr>)>(&bytes[..cut]).unwrap_err();
            assert_eq!(built.to_string(), skipped.to_string(), "cut at {cut}");
        }
        for at in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0x81;
            let built = from_slice::<(BinValue, Vec<String>)>(&flipped).map(drop);
            let skipped = from_slice::<(SkipTagged, SkipSeq<SkipStr>)>(&flipped).map(drop);
            assert_eq!(
                built.map_err(|e| e.to_string()),
                skipped.map_err(|e| e.to_string()),
                "byte {at} flipped"
            );
        }
    }
}
