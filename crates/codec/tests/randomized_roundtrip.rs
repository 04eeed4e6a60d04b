//! Randomized tests: every value GraftBin can encode decodes back to
//! itself. Seeded generation keeps the cases reproducible offline.

mod oracle;

use oracle::BinValue;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

#[derive(Serialize, Deserialize, PartialEq, Debug, Clone)]
enum Tree {
    Leaf,
    Value(i64),
    Node(Box<Tree>, Box<Tree>),
    Tagged { name: String, child: Box<Tree> },
}

fn random_string(rng: &mut rand::rngs::StdRng, max_len: usize) -> String {
    let len = rng.gen_range(0..=max_len);
    (0..len)
        .map(|_| {
            // Mix ASCII with a few multi-byte code points to stress UTF-8
            // length handling in the string codec.
            match rng.gen_range(0..8u32) {
                0 => 'λ',
                1 => '€',
                2 => '\u{1F600}',
                _ => char::from(rng.gen_range(32u8..127)),
            }
        })
        .collect()
}

fn random_tree(rng: &mut rand::rngs::StdRng, depth: u32) -> Tree {
    if depth == 0 {
        return if rng.gen_bool(0.5) { Tree::Leaf } else { Tree::Value(rng.gen()) };
    }
    match rng.gen_range(0..4u32) {
        0 => Tree::Leaf,
        1 => Tree::Value(rng.gen()),
        2 => {
            Tree::Node(Box::new(random_tree(rng, depth - 1)), Box::new(random_tree(rng, depth - 1)))
        }
        _ => Tree::Tagged {
            name: random_string(rng, 12),
            child: Box::new(random_tree(rng, depth - 1)),
        },
    }
}

#[derive(Serialize, Deserialize, PartialEq, Debug, Clone)]
struct Mixed {
    u: u64,
    i: i64,
    small: (u8, i8, u16, i16, u32, i32),
    f: f64,
    g: f32,
    b: bool,
    s: String,
    opt: Option<String>,
    bytes: Vec<u8>,
    seq: Vec<i32>,
    map: std::collections::BTreeMap<u32, String>,
    tree: Tree,
}

fn random_mixed(rng: &mut rand::rngs::StdRng) -> Mixed {
    let f = match rng.gen_range(0..10u32) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 0.0,
        4 => -0.0,
        _ => f64::from_bits(rng.gen()),
    };
    Mixed {
        u: rng.gen(),
        i: rng.gen(),
        small: (
            rng.gen_range(0..=u8::MAX),
            rng.gen_range(i8::MIN..=i8::MAX),
            rng.gen_range(0..=u16::MAX),
            rng.gen_range(i16::MIN..=i16::MAX),
            rng.gen(),
            rng.gen_range(i32::MIN..=i32::MAX),
        ),
        f,
        g: f32::from_bits(rng.gen()),
        b: rng.gen(),
        s: random_string(rng, 24),
        opt: if rng.gen_bool(0.5) { Some(random_string(rng, 8)) } else { None },
        bytes: (0..rng.gen_range(0..64usize)).map(|_| rng.gen_range(0..=u8::MAX)).collect(),
        seq: (0..rng.gen_range(0..32usize)).map(|_| rng.gen_range(i32::MIN..=i32::MAX)).collect(),
        map: (0..rng.gen_range(0..8usize)).map(|_| (rng.gen(), random_string(rng, 6))).collect(),
        tree: random_tree(rng, 4),
    }
}

/// Compares while treating NaN as equal to itself (bit-level for floats).
fn mixed_eq(a: &Mixed, b: &Mixed) -> bool {
    a.u == b.u
        && a.i == b.i
        && a.small == b.small
        && a.f.to_bits() == b.f.to_bits()
        && a.g.to_bits() == b.g.to_bits()
        && a.b == b.b
        && a.s == b.s
        && a.opt == b.opt
        && a.bytes == b.bytes
        && a.seq == b.seq
        && a.map == b.map
        && a.tree == b.tree
}

#[test]
fn roundtrip_mixed() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0DEC01);
    for _ in 0..256 {
        let v = random_mixed(&mut rng);
        let bytes = graft_codec::to_vec(&v).unwrap();
        let back: Mixed = graft_codec::from_slice(&bytes).unwrap();
        assert!(mixed_eq(&v, &back), "roundtrip diverged for {v:?}");
    }
}

#[test]
fn roundtrip_framed() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0DEC02);
    for _ in 0..64 {
        let values: Vec<Mixed> =
            (0..rng.gen_range(0..8usize)).map(|_| random_mixed(&mut rng)).collect();
        let mut buf = Vec::new();
        for v in &values {
            graft_codec::write_framed(&mut buf, v).unwrap();
        }
        let decoded: Result<Vec<Mixed>, _> = graft_codec::framed_records(&buf).collect();
        let decoded = decoded.unwrap();
        assert_eq!(decoded.len(), values.len());
        for (a, b) in values.iter().zip(&decoded) {
            assert!(mixed_eq(a, b));
        }
    }
}

/// The two-pass reference `write_framed` must equal: size the body with
/// the counting serializer, write the prefix, then encode.
fn framed_by_size_pass<T: Serialize>(out: &mut Vec<u8>, value: &T) {
    let body = graft_codec::serialized_size(value).unwrap();
    graft_codec::varint::write_u64(out, body);
    value.serialize(&mut graft_codec::Serializer::new(out)).unwrap();
}

#[test]
fn write_framed_equals_the_size_pass_reference_at_every_prefix_width() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0DEC0A);
    let mut single_pass = vec![0xee];
    let mut reference = vec![0xee];
    // A string body is its varint length plus its bytes, so these land
    // on both sides of every prefix width a spill or log file can meet.
    graft_codec::write_framed(&mut single_pass, &()).unwrap();
    framed_by_size_pass(&mut reference, &());
    for (len, body) in
        [(126usize, 127u64), (127, 128), (16_381, 16_383), (16_382, 16_384), (40_000, 40_003)]
    {
        let text: String = (0..len).map(|_| char::from(rng.gen_range(32u8..127))).collect();
        assert_eq!(graft_codec::serialized_size(&text).unwrap(), body);
        graft_codec::write_framed(&mut single_pass, &text).unwrap();
        framed_by_size_pass(&mut reference, &text);
        assert_eq!(single_pass, reference, "after a {body}-byte body");
    }
    for _ in 0..256 {
        let value = random_mixed(&mut rng);
        graft_codec::write_framed(&mut single_pass, &value).unwrap();
        framed_by_size_pass(&mut reference, &value);
    }
    assert_eq!(single_pass, reference);
}

/// Serializes a few bytes, then fails the way a user `Serialize` can.
struct FailsMidway;

impl Serialize for FailsMidway {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeTuple;
        let mut tuple = serializer.serialize_tuple(2)?;
        tuple.serialize_element("partial")?;
        Err(serde::ser::Error::custom("refused"))
    }
}

#[test]
fn write_framed_error_leaves_the_buffer_untouched() {
    let mut out = vec![1, 2, 3];
    graft_codec::write_framed(&mut out, &7u64).unwrap();
    let before = out.clone();
    assert!(graft_codec::write_framed(&mut out, &FailsMidway).is_err());
    assert_eq!(out, before);
}

#[test]
fn varint_roundtrip() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0DEC03);
    let mut cases: Vec<u64> = (0..512).map(|_| rng.gen()).collect();
    // Boundary cases around each varint length step.
    for shift in 0..10 {
        let edge = 1u64 << (7 * shift);
        cases.extend([edge.wrapping_sub(1), edge, edge.wrapping_add(1)]);
    }
    cases.extend([0, 1, u64::MAX]);
    for v in cases {
        let mut buf = Vec::new();
        graft_codec::varint::write_u64(&mut buf, v);
        let (back, n) = graft_codec::varint::read_u64(&buf).unwrap();
        assert_eq!(back, v);
        assert_eq!(n, buf.len());
        assert_eq!(n, graft_codec::varint::encoded_len_u64(v));
    }
}

#[test]
fn zigzag_roundtrip() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0DEC04);
    let mut cases: Vec<i64> = (0..512).map(|_| rng.gen()).collect();
    cases.extend([0, 1, -1, i64::MIN, i64::MAX]);
    for v in cases {
        let enc = graft_codec::varint::zigzag_encode(v);
        assert_eq!(graft_codec::varint::zigzag_decode(enc), v);
    }
}

#[test]
fn decoder_never_panics_on_garbage() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0DEC05);
    for _ in 0..256 {
        let bytes: Vec<u8> =
            (0..rng.gen_range(0..256usize)).map(|_| rng.gen_range(0..=u8::MAX)).collect();
        // Any byte soup must produce Ok or Err, never a panic.
        let _ = graft_codec::from_slice::<Mixed>(&bytes);
        let _ = graft_codec::from_slice::<Tree>(&bytes);
        let _ = graft_codec::from_slice::<String>(&bytes);
        let _ = graft_codec::from_framed_slice::<Mixed>(&bytes);
        let _ = graft_codec::from_slice::<graft_codec::TaggedBytes>(&bytes);
    }
}

fn random_json(rng: &mut rand::rngs::StdRng, depth: u32) -> serde_json::Value {
    use serde_json::{Number, Value};
    let pick = if depth == 0 { rng.gen_range(0..6u32) } else { rng.gen_range(0..8u32) };
    match pick {
        0 => Value::Null,
        1 => Value::Bool(rng.gen()),
        2 => Value::Number(Number::U64(rng.gen())),
        3 => Value::Number(Number::I64(rng.gen())),
        4 => {
            // Finite floats only: NaN normalizes to Null, and infinities
            // are a writer quirk already pinned by unit tests.
            let f = loop {
                let candidate = f64::from_bits(rng.gen());
                if candidate.is_finite() {
                    break candidate;
                }
            };
            Value::Number(Number::F64(f))
        }
        5 => Value::String(random_string(rng, 12)),
        6 => Value::Array(
            (0..rng.gen_range(0..5usize)).map(|_| random_json(rng, depth - 1)).collect(),
        ),
        _ => Value::Object(
            (0..rng.gen_range(0..5usize))
                .map(|_| (random_string(rng, 8), random_json(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// The trace-pipeline equivalence, property-tested: for any JSON tree, the
/// GraftBin tagged encoding of its normalized form decodes back to exactly
/// the tree that a JSON *text* round-trip of the original would produce.
#[test]
fn binvalue_matches_json_text_roundtrip_randomized() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0DEC06);
    for _ in 0..256 {
        let value = random_json(&mut rng, 4);

        let mut normalized = value.clone();
        oracle::normalize(&mut normalized);
        let bytes = graft_codec::to_vec(&BinValue(normalized.clone())).unwrap();
        let via_bin: BinValue = graft_codec::from_slice(&bytes).unwrap();

        let text = serde_json::to_vec(&value).unwrap();
        let via_text: serde_json::Value = serde_json::from_slice(&text).unwrap();

        assert_eq!(via_bin.0, via_text, "for {value:?}");
        // Normalization is idempotent, so re-encoding the decoded tree is
        // byte-identical — rollback/replay relies on this determinism.
        assert_eq!(graft_codec::to_vec(&via_bin).unwrap(), bytes);
        // The leaf of the tree is those bytes, whether decoded from the
        // unnormalized tree's or imported from the JSON text, and renders
        // as the text.
        let raw = graft_codec::to_vec(&BinValue(value.clone())).unwrap();
        let leaf: graft_codec::TaggedBytes = graft_codec::from_slice(&raw).unwrap();
        assert_eq!(leaf.as_bytes(), bytes, "for {value:?}");
        let imported: graft_codec::TaggedBytes = serde_json::from_slice(&text).unwrap();
        assert_eq!(imported.as_bytes(), bytes, "for {value:?}");
        assert_eq!(leaf.json(), via_text.to_string());
    }
}

#[test]
fn frame_stream_roundtrips_randomized_batches() {
    use graft_codec::frame::{write_frame, write_value_frame, FrameScanner};
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0DEC07);
    for _ in 0..64 {
        let mut buf = Vec::new();
        let mut expected: Vec<(u8, Vec<u8>)> = Vec::new();
        for _ in 0..rng.gen_range(0..12usize) {
            let kind = rng.gen_range(1..=9u8);
            if rng.gen_bool(0.5) {
                let payload: Vec<u8> =
                    (0..rng.gen_range(0..48usize)).map(|_| rng.gen_range(0..=u8::MAX)).collect();
                write_frame(&mut buf, kind, &payload);
                expected.push((kind, payload));
            } else {
                let value = BinValue(random_json(&mut rng, 3));
                let payload = graft_codec::to_vec(&value).unwrap();
                write_value_frame(&mut buf, kind, &value).unwrap();
                expected.push((kind, payload));
            }
        }

        let mut scanner = FrameScanner::new(&buf);
        let mut seen = Vec::new();
        let mut last_end = 0usize;
        while let Some(frame) = scanner.next_frame().unwrap() {
            assert_eq!(frame.start, last_end, "frames must be back to back");
            assert_eq!(frame.payload_start + frame.payload.len(), frame.end);
            last_end = frame.end;
            seen.push((frame.kind, frame.payload.to_vec()));
        }
        assert_eq!(last_end, buf.len());
        assert_eq!(seen, expected);
    }
}

/// A truncated frame stream (the shape a torn tail write leaves behind)
/// always splits into [complete frames] + Err(UnexpectedEof), or ends
/// cleanly when the cut lands exactly on a frame boundary.
#[test]
fn frame_stream_truncation_is_always_eof_or_clean() {
    use graft_codec::frame::{write_value_frame, FrameScanner};
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0DEC08);
    for _ in 0..24 {
        let mut buf = Vec::new();
        let mut boundaries = vec![0usize];
        for _ in 0..rng.gen_range(1..6usize) {
            write_value_frame(&mut buf, rng.gen_range(1..=3u8), &random_mixed(&mut rng)).unwrap();
            boundaries.push(buf.len());
        }
        for cut in 0..=buf.len() {
            let mut scanner = FrameScanner::new(&buf[..cut]);
            let outcome = loop {
                match scanner.next_frame() {
                    Ok(Some(_)) => continue,
                    Ok(None) => break Ok(()),
                    Err(e) => break Err(e),
                }
            };
            if boundaries.contains(&cut) {
                assert!(outcome.is_ok(), "cut at boundary {cut} must end cleanly");
            } else {
                assert!(
                    matches!(outcome, Err(graft_codec::Error::UnexpectedEof)),
                    "cut mid-frame at {cut} must look like a torn tail"
                );
                // The scanner must stop at the last complete frame so a
                // tailing reader can resume from offset() later.
                assert!(boundaries.contains(&scanner.offset()));
            }
        }
    }
}

#[test]
fn frame_scanner_never_panics_on_corruption() {
    use graft_codec::frame::{write_value_frame, FrameScanner};
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0DEC09);
    for _ in 0..128 {
        let mut buf = Vec::new();
        for _ in 0..rng.gen_range(1..5usize) {
            write_value_frame(&mut buf, rng.gen_range(1..=3u8), &random_mixed(&mut rng)).unwrap();
        }
        // Flip a few random bytes anywhere in the stream.
        for _ in 0..rng.gen_range(1..4usize) {
            let at = rng.gen_range(0..buf.len());
            buf[at] ^= 1 << rng.gen_range(0..8u8);
        }
        let mut scanner = FrameScanner::new(&buf);
        let mut steps = 0;
        while let Ok(Some(frame)) = scanner.next_frame() {
            // Payloads may now be garbage; decoding must still be a
            // clean Ok/Err, never a panic.
            let _ = graft_codec::from_slice::<graft_codec::TaggedBytes>(frame.payload);
            let _ = graft_codec::from_slice::<Mixed>(frame.payload);
            steps += 1;
            assert!(steps <= 1024, "scanner must terminate");
        }
    }
}
