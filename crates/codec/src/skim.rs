//! Validating without building: stand-ins for the allocating types of a
//! record, for a reader that needs to know the record decodes — and
//! perhaps a field or two of it — but not its contents.
//!
//! Each type here drives the deserializer through the same calls as the
//! type it stands for, so under [`crate::Deserializer`] it consumes the
//! same bytes and fails on the same inputs with the same error; it only
//! keeps nothing of what it read — or, for [`TaggedText`], the text a
//! view shows of it.

use std::collections::BTreeMap;
use std::fmt;
use std::marker::PhantomData;

use serde::de::{
    Deserialize, DeserializeSeed, Deserializer, EnumAccess, Error, MapAccess, SeqAccess,
    VariantAccess, Visitor,
};

use crate::value::{TREE, VARIANTS};

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

/// Stands for a `Vec<T>`: every element is decoded as `T` and dropped;
/// their number is kept.
#[derive(Clone, Copy, Debug)]
pub struct SkipSeq<T> {
    /// How many elements were read.
    pub len: usize,
    marker: PhantomData<T>,
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for SkipSeq<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let mut len = 0;
        for_each_element(deserializer, |_: T| len += 1)?;
        Ok(SkipSeq { len, marker: PhantomData })
    }
}

/// Stands for the entries of an object node.
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

/// Stands for a [`crate::TaggedBytes`]: the whole tagged tree is walked,
/// node by node, and nothing is kept.
#[derive(Clone, Copy, Debug)]
pub struct SkipTagged;

impl<'de> Deserialize<'de> for SkipTagged {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct TreeVisitor;
        impl<'de> Visitor<'de> for TreeVisitor {
            type Value = SkipTagged;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a tagged tree")
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
                    other => Err(Error::custom(format!("invalid tagged tree tag {other}"))),
                }?;
                Ok(SkipTagged)
            }
        }
        deserializer.deserialize_enum(TREE, VARIANTS, TreeVisitor)
    }
}

/// Stands for a [`crate::TaggedBytes`] of which only the rendering is
/// wanted: the text of a string node, the compact JSON text of any other
/// — `serde_json`'s text of the tree, written as the nodes are read:
/// the text [`crate::TaggedBytes::text`] gives of the tree's leaf.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaggedText(pub String);

impl<'de> Deserialize<'de> for TaggedText {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let text = render(deserializer, Part::Root)?;
        Ok(TaggedText(String::from_utf8(text).expect("JSON text of checked strings is UTF-8")))
    }
}

/// The JSON text of an object entry's value: an object's entries are
/// collected, to be written in key order, a repeated key keeping its
/// last value.
struct EntryText(Vec<u8>);

impl<'de> Deserialize<'de> for EntryText {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        render(deserializer, Part::Tree).map(EntryText)
    }
}

fn render<'de, D: Deserializer<'de>>(deserializer: D, part: Part) -> Result<Vec<u8>, D::Error> {
    let mut out = Vec::new();
    Render { out: &mut out, part }.deserialize(deserializer)?;
    Ok(out)
}

/// The part of a tagged tree a [`Render`] reads next.
#[derive(Clone, Copy, PartialEq)]
enum Part {
    /// A tree whose root, if a string, is written bare.
    Root,
    Tree,
    /// The payload of a string node, written bare or as JSON.
    BareStr,
    Str,
    /// The payload of an array node.
    Elements,
}

/// Appends the rendering of one part of a tagged tree to `out`.
struct Render<'a> {
    out: &'a mut Vec<u8>,
    part: Part,
}

fn write_json<T: serde::Serialize + ?Sized>(out: &mut Vec<u8>, scalar: &T) {
    serde_json::to_vec_into(scalar, out).expect("scalars serialize infallibly");
}

impl<'de> DeserializeSeed<'de> for Render<'_> {
    type Value = ();
    fn deserialize<D: Deserializer<'de>>(self, deserializer: D) -> Result<(), D::Error> {
        match self.part {
            Part::Root | Part::Tree => deserializer.deserialize_enum(TREE, VARIANTS, self),
            Part::BareStr | Part::Str => deserializer.deserialize_string(self),
            Part::Elements => deserializer.deserialize_seq(self),
        }
    }
}

impl<'de> Visitor<'de> for Render<'_> {
    type Value = ();
    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("a tagged tree")
    }
    fn visit_str<E: Error>(self, v: &str) -> Result<(), E> {
        if self.part == Part::BareStr {
            self.out.extend_from_slice(v.as_bytes());
        } else {
            write_json(self.out, v);
        }
        Ok(())
    }
    fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<(), A::Error> {
        self.out.push(b'[');
        let mut first = true;
        loop {
            // The comma goes before the element, whether there is one is
            // known after.
            let element_at = self.out.len();
            if !std::mem::replace(&mut first, false) {
                self.out.push(b',');
            }
            if seq.next_element_seed(Render { out: self.out, part: Part::Tree })?.is_none() {
                self.out.truncate(element_at);
                break;
            }
        }
        self.out.push(b']');
        Ok(())
    }
    fn visit_enum<A: EnumAccess<'de>>(self, data: A) -> Result<(), A::Error> {
        let Render { out, part } = self;
        let (tag, variant) = data.variant::<u32>()?;
        match tag {
            0 => {
                variant.unit_variant()?;
                out.extend_from_slice(b"null");
            }
            1 => write_json(out, &variant.newtype_variant::<bool>()?),
            2 => write_json(out, &variant.newtype_variant::<u64>()?),
            3 => write_json(out, &variant.newtype_variant::<i64>()?),
            4 => write_json(out, &variant.newtype_variant::<f64>()?),
            5 => {
                let part = if part == Part::Root { Part::BareStr } else { Part::Str };
                variant.newtype_variant_seed(Render { out, part })?;
            }
            6 => variant.newtype_variant_seed(Render { out, part: Part::Elements })?,
            7 => {
                let entries: BTreeMap<String, EntryText> = variant.newtype_variant()?;
                out.push(b'{');
                for (i, (key, EntryText(value))) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    write_json(out, key);
                    out.push(b':');
                    out.extend_from_slice(value);
                }
                out.push(b'}');
            }
            other => return Err(Error::custom(format!("invalid tagged tree tag {other}"))),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use serde_json::Value;

    use super::*;
    use crate::oracle::BinValue;
    use crate::{from_slice, to_vec, TaggedBytes};

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
        from_slice::<(TaggedBytes, Vec<String>)>(&bytes).unwrap();
        from_slice::<(SkipTagged, SkipSeq<SkipStr>)>(&bytes).unwrap();
        let mut seen = Vec::new();
        let mut de = crate::Deserializer::new(&bytes);
        SkipTagged::deserialize(&mut de).unwrap();
        for_each_element(&mut de, |s: String| seen.push(s)).unwrap();
        assert_eq!((seen, de.remaining()), (vec!["a".to_string(), "b".to_string()], 0));
    }

    /// What the views show of a leaf, by the oracle's tree: a string as
    /// itself, anything else as compact JSON.
    fn text_of(leaf: &TaggedBytes) -> String {
        let tree: BinValue = from_slice(leaf.as_bytes()).unwrap();
        tree.0.as_str().map_or_else(|| tree.0.to_string(), str::to_string)
    }

    #[test]
    fn tagged_text_is_the_text_of_the_tree_building_builds() {
        let bytes = sample();
        let (TaggedText(text), _) = from_slice::<(TaggedText, SkipSeq<SkipStr>)>(&bytes).unwrap();
        let (leaf, _) = from_slice::<(TaggedBytes, Vec<String>)>(&bytes).unwrap();
        assert_eq!((&text, leaf.text()), (&text_of(&leaf), text_of(&leaf)));
        // A string is bare at the root and JSON inside; an object written
        // out of key order, with a key twice, reads as the map it builds.
        let mut object = vec![7, 3];
        for (key, value) in [("b", "x\"y"), ("a", "first"), ("a", "last")] {
            object.extend([1, key.as_bytes()[0], 5, value.len() as u8]);
            object.extend(value.as_bytes());
        }
        for bytes in [to_vec(&BinValue(Value::String("x\"y\n".into()))).unwrap(), object] {
            let leaf: TaggedBytes = from_slice(&bytes).unwrap();
            assert_eq!(from_slice::<TaggedText>(&bytes).unwrap().0, text_of(&leaf));
        }
    }

    #[test]
    fn skipping_fails_where_building_fails_with_the_same_error() {
        let bytes = sample();
        for cut in 0..bytes.len() {
            let built = from_slice::<(TaggedBytes, Vec<String>)>(&bytes[..cut]).unwrap_err();
            let skipped = from_slice::<(SkipTagged, SkipSeq<SkipStr>)>(&bytes[..cut]).unwrap_err();
            assert_eq!(built.to_string(), skipped.to_string(), "cut at {cut}");
            let rendered = from_slice::<(TaggedText, SkipSeq<SkipStr>)>(&bytes[..cut]).unwrap_err();
            assert_eq!(built.to_string(), rendered.to_string(), "cut at {cut}");
        }
        for at in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0x81;
            let built =
                from_slice::<(TaggedBytes, Vec<String>)>(&flipped).map_err(|e| e.to_string());
            let skipped = from_slice::<(SkipTagged, SkipSeq<SkipStr>)>(&flipped).map(drop);
            assert_eq!(
                built.as_ref().map(drop),
                skipped.map_err(|e| e.to_string()).as_ref().map(drop),
                "byte {at} flipped"
            );
            let rendered = from_slice::<(TaggedText, SkipSeq<SkipStr>)>(&flipped);
            assert_eq!(
                built.map(|(leaf, _)| text_of(&leaf)),
                rendered.map(|(text, _)| text.0).map_err(|e| e.to_string()),
                "byte {at} flipped"
            );
        }
    }
}
