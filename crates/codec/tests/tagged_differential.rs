//! Differential tests of the two single-pass writers against their
//! tree-building references, over one scripted walk of the serde data
//! model. For any serializable value,
//!
//! * `write_tagged(v)` must produce exactly `to_vec(&to_bin_value(v))`,
//! * `serde_json::to_vec(v)` (text written as the serde calls arrive)
//!   must produce exactly `serde_json::to_vec(&to_value(v))` — the
//!   `BTreeMap`-backed tree is sorted and de-duplicated by construction,
//!   so it reaches the writer in key order — and so must
//!   `to_vec_pretty`,
//!
//! or fail with the same message.
//!
//! Seeds are fixed, so a failure reproduces with the same command. A
//! release build (CI's `fuzz-smoke` job) walks ten times the shapes of a
//! debug one through the text writer.

use std::collections::{BTreeMap, HashMap};

use graft_codec::{
    serialized_size, to_bin_value, to_vec, write_interned, write_tagged, BinValue, Interned,
    NameTable, Tagged,
};
use rand::{Rng, SeedableRng};
use serde::ser::{
    SerializeMap, SerializeSeq, SerializeStruct, SerializeStructVariant, SerializeTuple,
    SerializeTupleStruct, SerializeTupleVariant,
};
use serde::{Serialize, Serializer};

/// One of the two differentials, as a check of one value.
trait Check {
    fn check<T: Serialize + ?Sized>(&self, value: &T, label: &str);
}

struct TaggedAgainstTree;
struct JsonTextAgainstTree;

impl Check for JsonTextAgainstTree {
    fn check<T: Serialize + ?Sized>(&self, value: &T, label: &str) {
        let tree = serde_json::to_value(value);
        type Writer<V> = fn(&V) -> serde_json::Result<Vec<u8>>;
        let writers: [(Writer<T>, Writer<serde_json::Value>); 2] = [
            (serde_json::to_vec, serde_json::to_vec),
            (serde_json::to_vec_pretty, serde_json::to_vec_pretty),
        ];
        for (streamed, rendered) in writers {
            let reference = tree.as_ref().map_err(|e| e.to_string()).and_then(|tree| {
                Ok(String::from_utf8(rendered(tree).map_err(|e| e.to_string())?).unwrap())
            });
            let streamed = streamed(value)
                .map(|text| String::from_utf8(text).unwrap())
                .map_err(|e| e.to_string());
            assert_eq!(streamed, reference, "{label}");
        }
        // Appending keeps what the buffer held, and a failed encode
        // leaves nothing behind.
        let mut buf = b"kept".to_vec();
        match (serde_json::to_vec_into(value, &mut buf), serde_json::to_vec(value)) {
            (Ok(()), Ok(text)) => assert_eq!(buf, [b"kept".as_slice(), &text].concat(), "{label}"),
            (Err(_), Err(_)) => assert_eq!(buf, b"kept", "{label}: buffer after a failed encode"),
            _ => panic!("{label}: to_vec_into and to_vec disagree"),
        }
    }
}

impl Check for TaggedAgainstTree {
    /// Checks one value through every entry point of the tagged encoding.
    fn check<T: Serialize + ?Sized>(&self, value: &T, label: &str) {
        check_tagged(value, label)
    }
}

fn check_tagged<T: Serialize + ?Sized>(value: &T, label: &str) {
    let reference = to_bin_value(value).and_then(|tree| to_vec(&tree));
    let mut streamed = Vec::new();
    let result = write_tagged(&mut streamed, value);
    match (reference, result) {
        (Ok(reference), Ok(())) => {
            assert_eq!(streamed, reference, "{label}: bytes differ");
            // The wrapper reaches the same encoder through GraftBin, is
            // sized correctly, and is invisible to JSON.
            assert_eq!(to_vec(&Tagged(value)).unwrap(), reference, "{label}: via Tagged");
            assert_eq!(
                serialized_size(&Tagged(value)).unwrap(),
                reference.len() as u64,
                "{label}: size"
            );
            assert_eq!(
                serde_json::to_vec(&Tagged(value)).unwrap(),
                serde_json::to_vec(value).unwrap(),
                "{label}: JSON transparency"
            );
            // And the bytes decode to the tree the reference built.
            let decoded: BinValue = graft_codec::from_slice(&streamed).unwrap();
            assert_eq!(to_vec(&decoded).unwrap(), reference, "{label}: decode");
            check_interned(value, &decoded, label);
        }
        (Err(reference), Err(streamed)) => {
            assert_eq!(streamed.to_string(), reference.to_string(), "{label}: error text");
        }
        (reference, streamed) => {
            panic!("{label}: reference {reference:?} but streamed {streamed:?}")
        }
    }
}

/// The interned encoding of `value`, whose tree is `tree`, through every
/// entry point: the single-pass writer, the wrapper through GraftBin,
/// `serialized_size` and the tree reference agree on the bytes; those
/// bytes decode alone to `tree`, and the tree re-encodes to them. Written
/// twice into one payload around a tagged copy, the second interned copy
/// is names by index only, and the triple is sized, decodes and
/// re-encodes the same way.
fn check_interned<T: Serialize + ?Sized>(value: &T, tree: &BinValue, label: &str) {
    let mut streamed = Vec::new();
    write_interned(&mut streamed, &mut NameTable::default(), value).unwrap();
    let reference = to_vec(&Interned(tree)).unwrap();
    assert_eq!(streamed, reference, "{label}: interned bytes differ");
    assert_eq!(to_vec(&Interned(value)).unwrap(), reference, "{label}: via Interned");
    assert_eq!(serialized_size(&Interned(value)).unwrap(), reference.len() as u64, "{label}");
    assert_eq!(
        serde_json::to_vec(&Interned(value)).unwrap(),
        serde_json::to_vec(value).unwrap(),
        "{label}: JSON transparency of Interned"
    );
    let decoded: BinValue = graft_codec::from_slice(&streamed).unwrap();
    assert_eq!(decoded, *tree, "{label}: interned decode");
    assert_eq!(to_vec(&Interned(&decoded)).unwrap(), reference, "{label}: interned re-encode");

    // `serialized_size` counts a tagged value between the two copies and
    // drops its bytes, but keeps the first copy's, which the name table
    // points into, for the second.
    let triple = (Interned(value), Tagged(value), Interned(value));
    let bytes = to_vec(&triple).unwrap();
    assert_eq!(serialized_size(&triple).unwrap(), bytes.len() as u64, "{label}: triple size");
    assert_eq!(
        to_vec(&(Interned(tree), Tagged(tree), Interned(tree))).unwrap(),
        bytes,
        "{label}: triple"
    );
    let (once, rest) = bytes.split_at(reference.len());
    let second = &rest[to_vec(&Tagged(tree)).unwrap().len()..];
    let mut names = NameTable::default();
    let mut parts = Vec::new();
    for _ in 0..2 {
        parts.extend(b"typed");
        write_interned(&mut parts, &mut names, value).unwrap();
    }
    let typed = [b"typed".as_slice(), once, b"typed", second];
    assert_eq!(parts, typed.concat(), "{label}: a payload written in parts");
    let (first, middle, last): (BinValue, BinValue, BinValue) =
        graft_codec::from_slice(&bytes).unwrap();
    assert_eq!((&first, &middle, &last), (tree, tree, tree), "{label}: triple decode");
    assert!(second.len() <= reference.len(), "{label}: the copy grew");
}

const NAMES: [&str; 8] = ["zeta", "alpha", "mid", "a", "ab", "Zed", "émile", "k"];

/// A scripted walk over the serde data model: serializing a `Shape`
/// issues exactly the serializer calls it spells out, including ones no
/// derive would (wrong declared lengths, repeated keys, unsorted fields).
#[derive(Debug, Clone)]
enum Shape {
    Bool(bool),
    I8(i8),
    I16(i16),
    I32(i32),
    I64(i64),
    U8(u8),
    U16(u16),
    U32(u32),
    U64(u64),
    F32(f32),
    F64(f64),
    Char(char),
    Str(String),
    Bytes(Vec<u8>),
    None,
    Some(Box<Shape>),
    Unit,
    UnitStruct,
    UnitVariant(usize),
    NewtypeStruct(Box<Shape>),
    NewtypeVariant(usize, Box<Shape>),
    Seq(Option<usize>, Vec<Shape>),
    Tuple(Vec<Shape>),
    TupleStruct(Vec<Shape>),
    TupleVariant(usize, Vec<Shape>),
    Map(Option<usize>, Vec<(Shape, Shape)>),
    Struct(Vec<(usize, Shape)>),
    StructVariant(usize, Vec<(usize, Shape)>),
}

impl Serialize for Shape {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        match self {
            Shape::Bool(v) => s.serialize_bool(*v),
            Shape::I8(v) => s.serialize_i8(*v),
            Shape::I16(v) => s.serialize_i16(*v),
            Shape::I32(v) => s.serialize_i32(*v),
            Shape::I64(v) => s.serialize_i64(*v),
            Shape::U8(v) => s.serialize_u8(*v),
            Shape::U16(v) => s.serialize_u16(*v),
            Shape::U32(v) => s.serialize_u32(*v),
            Shape::U64(v) => s.serialize_u64(*v),
            Shape::F32(v) => s.serialize_f32(*v),
            Shape::F64(v) => s.serialize_f64(*v),
            Shape::Char(v) => s.serialize_char(*v),
            Shape::Str(v) => s.serialize_str(v),
            Shape::Bytes(v) => s.serialize_bytes(v),
            Shape::None => s.serialize_none(),
            Shape::Some(v) => s.serialize_some(v),
            Shape::Unit => s.serialize_unit(),
            Shape::UnitStruct => s.serialize_unit_struct("U"),
            Shape::UnitVariant(n) => s.serialize_unit_variant("E", *n as u32, NAMES[*n]),
            Shape::NewtypeStruct(v) => s.serialize_newtype_struct("N", v),
            Shape::NewtypeVariant(n, v) => {
                s.serialize_newtype_variant("E", *n as u32, NAMES[*n], v)
            }
            Shape::Seq(declared, items) => {
                let mut seq = s.serialize_seq(*declared)?;
                for item in items {
                    seq.serialize_element(item)?;
                }
                seq.end()
            }
            Shape::Tuple(items) => {
                let mut tuple = s.serialize_tuple(items.len())?;
                for item in items {
                    tuple.serialize_element(item)?;
                }
                tuple.end()
            }
            Shape::TupleStruct(items) => {
                let mut tuple = s.serialize_tuple_struct("T", items.len())?;
                for item in items {
                    tuple.serialize_field(item)?;
                }
                tuple.end()
            }
            Shape::TupleVariant(n, items) => {
                let mut tuple =
                    s.serialize_tuple_variant("E", *n as u32, NAMES[*n], items.len())?;
                for item in items {
                    tuple.serialize_field(item)?;
                }
                tuple.end()
            }
            Shape::Map(declared, entries) => {
                let mut map = s.serialize_map(*declared)?;
                for (key, value) in entries {
                    map.serialize_key(key)?;
                    map.serialize_value(value)?;
                }
                map.end()
            }
            Shape::Struct(fields) => {
                let mut st = s.serialize_struct("S", fields.len())?;
                for (name, value) in fields {
                    st.serialize_field(NAMES[*name], value)?;
                }
                st.end()
            }
            Shape::StructVariant(n, fields) => {
                let mut st = s.serialize_struct_variant("E", *n as u32, NAMES[*n], fields.len())?;
                for (name, value) in fields {
                    st.serialize_field(NAMES[*name], value)?;
                }
                st.end()
            }
        }
    }
}

type Rng64 = rand::rngs::StdRng;

fn random_f64(rng: &mut Rng64) -> f64 {
    match rng.gen_range(0..8u32) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => rng.gen_range(-4i32..4) as f64,
        _ => f64::from_bits(rng.gen()),
    }
}

fn random_string(rng: &mut Rng64) -> String {
    (0..rng.gen_range(0..6usize))
        .map(|_| match rng.gen_range(0..6u32) {
            0 => 'λ',
            1 => '\u{1F600}',
            _ => char::from(rng.gen_range(b'0'..b'5')),
        })
        .collect()
}

/// A small domain on purpose: keys must collide after rendering (`1u8`
/// against `"1"` against `1i64`) for the repeated-key rule to be hit.
fn random_scalar(rng: &mut Rng64) -> Shape {
    match rng.gen_range(0..14u32) {
        0 => Shape::Bool(rng.gen()),
        1 => Shape::I8(rng.gen_range(-3..4)),
        2 => Shape::I16(rng.gen_range(i16::MIN..=i16::MAX)),
        3 => Shape::I32(rng.gen_range(-3..4)),
        4 => Shape::I64(if rng.gen_bool(0.5) { rng.gen() } else { rng.gen_range(-3..4) }),
        5 => Shape::U8(rng.gen_range(0..4)),
        6 => Shape::U16(rng.gen_range(0..=u16::MAX)),
        7 => Shape::U32(rng.gen()),
        8 => Shape::U64(if rng.gen_bool(0.5) { rng.gen() } else { rng.gen_range(0..4) }),
        9 => Shape::F32(f32::from_bits(rng.gen())),
        10 => Shape::F64(random_f64(rng)),
        11 => Shape::Char(if rng.gen_bool(0.5) { '1' } else { 'é' }),
        12 => Shape::UnitVariant(rng.gen_range(0..NAMES.len())),
        _ => Shape::Str(random_string(rng)),
    }
}

fn random_key(rng: &mut Rng64) -> Shape {
    match rng.gen_range(0..24u32) {
        // Not renderable as a string: must fail like the reference.
        0 => [Shape::Unit, Shape::None, Shape::Seq(Some(0), vec![]), Shape::Bytes(vec![1])]
            [rng.gen_range(0..4usize)]
        .clone(),
        1 => Shape::Some(Box::new(random_scalar(rng))),
        2 => Shape::NewtypeStruct(Box::new(random_scalar(rng))),
        _ => random_scalar(rng),
    }
}

fn random_fields(rng: &mut Rng64, depth: u32) -> Vec<(usize, Shape)> {
    (0..rng.gen_range(0..5usize))
        .map(|_| (rng.gen_range(0..NAMES.len()), random_shape(rng, depth)))
        .collect()
}

fn random_items(rng: &mut Rng64, depth: u32) -> Vec<Shape> {
    (0..rng.gen_range(0..5usize)).map(|_| random_shape(rng, depth)).collect()
}

/// A declared length that is sometimes absent and sometimes wrong.
fn random_declared(rng: &mut Rng64, actual: usize) -> Option<usize> {
    match rng.gen_range(0..6u32) {
        0 => None,
        1 => Some(rng.gen_range(0..300usize)),
        _ => Some(actual),
    }
}

fn random_shape(rng: &mut Rng64, depth: u32) -> Shape {
    if depth == 0 {
        return random_scalar(rng);
    }
    let depth = depth - 1;
    match rng.gen_range(0..16u32) {
        0 => Shape::None,
        1 => Shape::Some(Box::new(random_shape(rng, depth))),
        2 => Shape::Unit,
        3 => Shape::UnitStruct,
        4 => Shape::NewtypeStruct(Box::new(random_shape(rng, depth))),
        5 => {
            Shape::NewtypeVariant(rng.gen_range(0..NAMES.len()), Box::new(random_shape(rng, depth)))
        }
        6 => {
            let items = random_items(rng, depth);
            Shape::Seq(random_declared(rng, items.len()), items)
        }
        7 => Shape::Tuple(random_items(rng, depth)),
        8 => Shape::TupleStruct(random_items(rng, depth)),
        9 => Shape::TupleVariant(rng.gen_range(0..NAMES.len()), random_items(rng, depth)),
        10 => {
            let entries: Vec<_> = (0..rng.gen_range(0..6usize))
                .map(|_| (random_key(rng), random_shape(rng, depth)))
                .collect();
            Shape::Map(random_declared(rng, entries.len()), entries)
        }
        11 => Shape::Struct(random_fields(rng, depth)),
        12 => Shape::StructVariant(rng.gen_range(0..NAMES.len()), random_fields(rng, depth)),
        13 => Shape::Bytes((0..rng.gen_range(0..5usize)).map(|_| rng.gen_range(0..=255)).collect()),
        _ => random_scalar(rng),
    }
}

fn seeded_random_shapes(check: &impl Check, cases: usize) {
    let mut rng = Rng64::seed_from_u64(0x7A66ED);
    for case in 0..cases {
        let shape = random_shape(&mut rng, 4);
        check.check(&shape, &format!("case {case}: {shape:?}"));
    }
}

#[test]
fn seeded_random_shapes_encode_like_the_reference() {
    seeded_random_shapes(&TaggedAgainstTree, 4000);
}

#[test]
fn seeded_random_shapes_write_json_text_like_the_tree() {
    seeded_random_shapes(&JsonTextAgainstTree, if cfg!(debug_assertions) { 4000 } else { 40_000 });
}

#[derive(Serialize)]
struct OutOfOrder {
    zulu: u8,
    alpha: Inner,
    mike: Option<i64>,
    bravo: (),
}

#[derive(Serialize)]
struct Inner {
    y: f32,
    x: f64,
    label: String,
}

#[derive(Serialize)]
struct Wrapper(u64);

#[derive(Serialize)]
struct Pair(i32, String);

#[derive(Serialize)]
struct Marker;

#[derive(Serialize)]
enum Variants {
    Unit,
    Newtype(i64),
    Tuple(u8, f64),
    Struct { weight: f64, target: u64 },
}

/// A sequence that does not know its length up front.
struct Unsized(Vec<i32>);

impl Serialize for Unsized {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        let mut seq = s.serialize_seq(None)?;
        for item in &self.0 {
            seq.serialize_element(item)?;
        }
        seq.end()
    }
}

/// A map impl that does not alternate keys and values: `stale` is
/// written as a key and then replaced by `key` before any value, and
/// with `orphan` a value follows with no key pending.
struct OddMap {
    orphan: bool,
}

impl Serialize for OddMap {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        let mut map = s.serialize_map(Some(2))?;
        map.serialize_key("b")?;
        map.serialize_value(&1u8)?;
        map.serialize_key("stale")?;
        map.serialize_key("a")?;
        map.serialize_value(&2u8)?;
        if self.orphan {
            map.serialize_value(&3u8)?;
        }
        map.end()
    }
}

fn hand_picked_edge_cases(c: &impl Check) {
    c.check(&i64::MIN, "i64::MIN");
    c.check(&i64::MAX, "i64::MAX");
    c.check(&-1i8, "-1i8");
    c.check(&0i32, "0i32");
    c.check(&u64::MAX, "u64::MAX");
    c.check(&-0.0f64, "-0.0");
    c.check(&0.0f64, "0.0");
    c.check(&f64::NAN, "NaN");
    c.check(&f64::INFINITY, "+inf");
    c.check(&f64::NEG_INFINITY, "-inf");
    c.check(&f64::MIN_POSITIVE, "min positive");
    c.check(&0.1f32, "0.1f32");
    c.check(&f32::MAX, "f32::MAX");
    c.check(&f32::NAN, "f32 NaN");
    c.check(&f32::NEG_INFINITY, "f32 -inf");
    c.check(&Some(5u8), "Some");
    c.check(&None::<u8>, "None");
    c.check(&Some(None::<u8>), "Some(None)");
    c.check(&(), "unit");
    c.check(&Marker, "unit struct");
    c.check(&Wrapper(9), "newtype struct");
    c.check(&Pair(-4, "p".into()), "tuple struct");
    c.check(&'𝄞', "char");
    c.check("héllo ✓", "str");
    c.check(&(1u8, -2i64, "three", 4.5f32), "tuple");
    c.check(&[1u16, 2, 3], "array");
    c.check(
        &OutOfOrder {
            zulu: 1,
            alpha: Inner { y: 1.5, x: f64::NAN, label: "in".into() },
            mike: Some(-7),
            bravo: (),
        },
        "nested struct with fields out of key order",
    );
    for variant in [
        Variants::Unit,
        Variants::Newtype(-3),
        Variants::Tuple(7, -0.0),
        Variants::Struct { weight: 2.5, target: 11 },
    ] {
        c.check(&variant, "enum variant");
    }
    c.check(&Vec::<u64>::new(), "empty seq");
    c.check(&Unsized(vec![]), "empty seq of unknown length");
    c.check(&Unsized((0..200).collect()), "seq of unknown length, two-byte count");
    c.check(&BTreeMap::<String, u8>::new(), "empty map");
    c.check(
        &BTreeMap::from([(-2i64, "neg"), (10, "ten"), (9, "nine")]),
        "integer keys sort as text",
    );
    c.check(&BTreeMap::from([(true, 1u8), (false, 0)]), "bool keys");
    c.check(&HashMap::<String, f64>::from([("only".into(), 1.0)]), "hash map");
    c.check(
        &Shape::Map(
            Some(3),
            vec![
                (Shape::U8(1), Shape::Str("first".into())),
                (Shape::Str("0".into()), Shape::Unit),
                (Shape::Str("1".into()), Shape::Str("replaces first".into())),
            ],
        ),
        "keys that repeat once rendered",
    );
    c.check(
        &Shape::Map(
            Some(130),
            (0..130u32).rev().map(|k| (Shape::U32(k % 100), Shape::U32(k))).collect(),
        ),
        "repeats that shrink the count below a varint boundary",
    );
    c.check(&Shape::Map(Some(1), vec![(Shape::F64(f64::NAN), Shape::Unit)]), "NaN key");
    c.check(&Shape::Map(Some(1), vec![(Shape::F64(-1e300), Shape::Unit)]), "float key");
    c.check(&Shape::Map(Some(1), vec![(Shape::F32(f32::INFINITY), Shape::Unit)]), "infinite key");
    c.check(&Shape::Map(Some(1), vec![(Shape::Unit, Shape::U8(1))]), "unit key fails");
    c.check(&BTreeMap::from([((1u8, 2u8), "pair")]), "a non-string map key fails the same way");
    c.check(&vec![BTreeMap::from([(vec![1u8], 1u8)])], "key failure inside a sequence");
    c.check(&OddMap { orphan: false }, "a key written twice keeps the second");
    c.check(&OddMap { orphan: true }, "a value with no key fails the same way");
}

#[test]
fn hand_picked_edge_cases_encode_like_the_reference() {
    hand_picked_edge_cases(&TaggedAgainstTree);
}

#[test]
fn hand_picked_edge_cases_write_json_text_like_the_tree() {
    hand_picked_edge_cases(&JsonTextAgainstTree);
}

fn bin_value_leaves(c: &impl Check) {
    // What `trace convert --to binary` feeds the encoder: trees parsed
    // from JSON text (already canonical), and hand-built ones that are not.
    let parsed: serde_json::Value = serde_json::from_str(
        r#"{"id": 672, "neg": -4, "pi": 3.25, "big": 1e999, "s": "x", "flag": true,
            "nothing": null, "seq": [1, -2, [true, "x"], {"k": 0.5}], "obj": {"b": [null], "a": 1}}"#,
    )
    .unwrap();
    c.check(&BinValue(parsed.clone()), "parsed tree");
    c.check(&vec![(BinValue(parsed.clone()), BinValue(parsed))], "trees inside a typed record");
    let raw = serde_json::Value::Array(vec![
        serde_json::Value::Number(serde_json::Number::I64(5)),
        serde_json::Value::Number(serde_json::Number::F64(f64::NAN)),
    ]);
    c.check(&BinValue(raw), "non-canonical tree");
}

#[test]
fn bin_value_leaves_are_renormalized_like_the_reference() {
    bin_value_leaves(&TaggedAgainstTree);
}

#[test]
fn bin_value_and_tagged_leaves_write_json_text_like_the_tree() {
    bin_value_leaves(&JsonTextAgainstTree);
    JsonTextAgainstTree.check(
        &Tagged(OutOfOrder {
            zulu: 1,
            alpha: Inner { y: 1.5, x: f64::NAN, label: "in".into() },
            mike: Some(-7),
            bravo: (),
        }),
        "Tagged leaf",
    );
}

/// The leaf writers are shared by the text writer and the tree's
/// renderer, so the differential cannot see them: literal expectations.
#[test]
fn json_text_matches_literal_expectations() {
    let compact = |shape: &Shape| serde_json::to_string(shape).unwrap();
    assert_eq!(
        compact(&Shape::Str("a\"b\\c\n\r\t\u{8}\u{c}\u{1}\u{1f} \u{7f}é✓𝄞".into())),
        "\"a\\\"b\\\\c\\n\\r\\t\\b\\f\\u0001\\u001f \u{7f}é✓𝄞\""
    );
    let scalars = Shape::Tuple(vec![
        Shape::I64(i64::MIN),
        Shape::U64(u64::MAX),
        Shape::I8(-1),
        Shape::F64(1.0),
        Shape::F64(-0.0),
        Shape::F64(1e300),
        Shape::F64(5e-324),
        Shape::F32(0.1),
        Shape::F64(f64::NAN),
        Shape::F64(f64::INFINITY),
        Shape::F64(f64::NEG_INFINITY),
        Shape::Bool(true),
        Shape::Unit,
        Shape::Char('é'),
        Shape::Bytes(vec![0, 255]),
    ]);
    assert_eq!(
        compact(&scalars),
        "[-9223372036854775808,18446744073709551615,-1,1.0,-0.0,1e300,5e-324,\
         0.10000000149011612,null,1e999,-1e999,true,null,\"é\",[0,255]]"
    );
    // Fields out of key order at two levels, one of them repeated, and
    // every kind of variant.
    let out_of_order = Shape::Struct(vec![
        (0, Shape::U8(1)),
        (1, Shape::StructVariant(2, vec![(7, Shape::Unit), (3, Shape::Seq(None, vec![]))])),
        (0, Shape::TupleVariant(5, vec![Shape::U8(2)])),
        (4, Shape::NewtypeVariant(6, Box::new(Shape::Map(None, vec![])))),
    ]);
    assert_eq!(
        compact(&out_of_order),
        r#"{"ab":{"émile":{}},"alpha":{"mid":{"a":[],"k":null}},"zeta":{"Zed":[2]}}"#
    );
    assert_eq!(
        serde_json::to_string_pretty(&out_of_order).unwrap(),
        r#"{
  "ab": {
    "émile": {}
  },
  "alpha": {
    "mid": {
      "a": [],
      "k": null
    }
  },
  "zeta": {
    "Zed": [
      2
    ]
  }
}"#
    );
    let keys = Shape::Map(
        Some(9),
        vec![
            (Shape::U8(10), Shape::Unit),
            (Shape::I64(-2), Shape::Unit),
            (Shape::Bool(true), Shape::Unit),
            (Shape::F64(f64::NAN), Shape::Unit),
            (Shape::Char('9'), Shape::U8(1)),
            (Shape::Str("9".into()), Shape::U8(2)),
            (Shape::UnitVariant(3), Shape::Unit),
            (Shape::Str("q\"".into()), Shape::Unit),
        ],
    );
    assert_eq!(
        compact(&keys),
        r#"{"-2":null,"10":null,"9":2,"a":null,"null":null,"q\"":null,"true":null}"#
    );
    let bad = serde_json::to_string(&Shape::Map(None, vec![(Shape::Unit, Shape::Unit)]));
    assert_eq!(bad.unwrap_err().to_string(), "map key must be a string or number");
}

/// Fields declared out of key order: `zulu`'s value names `alpha` first
/// as written, but `alpha` sorts first, so its key is the inline name.
#[derive(Serialize)]
struct LateName {
    zulu: Label,
    alpha: u8,
}

#[derive(Serialize)]
enum Label {
    #[allow(dead_code)]
    Beta,
    #[allow(non_camel_case_types)]
    alpha,
}

#[derive(Serialize)]
struct Named {
    label: String,
    other: String,
}

#[derive(Serialize)]
struct Floats {
    zero: f64,
    nan: f64,
    up: f64,
    down: f64,
    tag: &'static str,
}

/// The name rule's corner cases, each through every entry point
/// ([`check_tagged`], and so [`check_interned`]); where the bytes are
/// short, they are pinned.
#[test]
fn interned_names_obey_first_use_in_the_final_bytes() {
    let late = LateName { zulu: Label::alpha, alpha: 3 };
    check_tagged(&late, "an out-of-key-order struct whose later field names an earlier key");
    // {alpha: 3, zulu: "alpha"}: the key is inline, the string its index.
    let bytes = to_vec(&Interned(&late)).unwrap();
    let mut want = vec![9, 2, 5 << 1];
    want.extend(b"alpha");
    want.extend([2, 3, 4 << 1]);
    want.extend(b"zulu");
    want.extend([8, 1]);
    assert_eq!(bytes, want);

    let named = Named { label: "label".into(), other: "other".into() };
    check_tagged(&named, "a data string equal to a field name");
    let bytes = to_vec(&Interned(&named)).unwrap();
    let mut want = vec![9, 2, 5 << 1];
    want.extend(b"label");
    want.extend([8, 1, 5 << 1]);
    want.extend(b"other");
    want.extend([8, 1 << 1 | 1]);
    assert_eq!(bytes, want);

    // 200 distinct names, then each again: from index 64 on, a name's
    // index takes two bytes.
    let keys: Vec<String> = (0..200).map(|i| format!("n{i}")).collect();
    let map: BTreeMap<&str, u8> = keys.iter().map(|key| (key.as_str(), 0)).collect();
    check_tagged(&vec![&map, &map], "more than 127 distinct names");
    let single = to_vec(&Interned(&map)).unwrap();
    let twice = to_vec(&Interned(vec![&map, &map])).unwrap();
    // The second copy: tag, count, then per entry an index and a value.
    let indexed: usize = (0..200).map(|i: usize| if i < 64 { 1 } else { 2 } + 2).sum();
    assert_eq!(twice.len() - (single.len() + 2), 1 + 2 + indexed);

    let ints = BTreeMap::from([(-2i64, "10"), (10, "-2"), (9, "x")]);
    check_tagged(&vec![ints.clone(), ints], "integer map keys, and strings equal to them");
    let floats = Shape::Map(
        Some(3),
        vec![
            (Shape::F64(1.5), Shape::Str("1.5".into())),
            (Shape::F64(f64::INFINITY), Shape::F64(-0.0)),
            (Shape::F32(-0.25), Shape::F64(f64::NAN)),
        ],
    );
    check_tagged(&Shape::Seq(Some(2), vec![floats.clone(), floats]), "float map keys");

    let edges = Floats {
        zero: -0.0,
        nan: f64::NAN,
        up: f64::INFINITY,
        down: f64::NEG_INFINITY,
        tag: "nan",
    };
    check_tagged(&edges, "NaN, infinities and -0.0 next to names");
    check_tagged(&(&edges, &edges), "NaN, infinities and -0.0 next to names, twice");

    // Names that take more bytes interned than context-free: a name of
    // 64 to 127 bytes, whose shifted length needs a second byte, and the
    // empty string by an index that needs two.
    let long = "x".repeat(100);
    check_tagged(&BTreeMap::from([(long.as_str(), long.as_str())]), "a 100-byte name, twice");
    let mut many: Vec<String> = (0..70).map(|i| format!("s{i}")).collect();
    many.extend([String::new(), String::new()]);
    check_tagged(&many, "the empty string again, by an index past 63");
}
