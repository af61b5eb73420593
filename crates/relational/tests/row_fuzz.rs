//! Hostile bytes against the borrowed row reader (ROADMAP fuzzing item
//! (d)): every truncation, every single-bit flip and a few thousand random
//! rewrites of valid `Row` encodings. On each variant `RowView` must do
//! exactly what `Row::from_bytes` does — the same `MrError::Codec`, or the
//! same tokens — and the seven relational operators, handed the bytes as a
//! record, as a shuffle key and as a shuffle value behind a valid tag, must
//! return, never panic, and write only rows that decode. CI runs this in
//! release too, where a wrapped length would otherwise go unnoticed.

use mr_rdf::{Row, RowView, TripleRec};
use mrsim::{MrError, Rec};
use proptest::test_runner::TestRng;
use rdf_model::atom::{atom, Atom};
use rdf_query::{ObjPattern, StarPattern, TriplePattern};
use relbase::attach::{AttachMap, StarAttachReduce};
use relbase::load::LoadCopy;
use relbase::row_join::{RowJoinReduce, SideMap};
use relbase::star_join::{PatternSet, StarMap, StarReduce};

/// Valid rows covering the layout's corners: no columns, an empty token,
/// multi-byte UTF-8, a three-column row (which is also a valid triple) and
/// a wide one.
fn seeds() -> Vec<Row> {
    let row = |tokens: &[&str]| tokens.iter().map(|t| atom(t)).collect::<Row>();
    vec![
        row(&[]),
        row(&[""]),
        row(&["<g1>", "<label>", "\"s\u{e9}\""]),
        row(&["<g1>", "<label>", "\"a\"", "<g1>", "<xGO>", "<go1>", "", "<p>", "<o>"]),
    ]
}

/// A joined row must decode, to the text size it was written with.
fn decodes(record: Vec<u8>, text: u64) -> Result<(), MrError> {
    let row = Row::from_bytes(&record).expect("a written row decodes");
    assert_eq!(row.text_size(), text);
    Ok(())
}

/// `got` refuses what `typed` refuses, with the same codec message; what
/// `typed` accepts it accepts, or turns down as an operator error.
fn same_refusal<T: std::fmt::Debug>(
    typed: &Result<T, MrError>,
    got: &Result<(), MrError>,
    what: &str,
) {
    match (typed, got) {
        (Err(MrError::Codec(a)), Err(MrError::Codec(b))) => assert_eq!(a, b, "{what}"),
        (Ok(_), Ok(()) | Err(MrError::Op(_))) => {}
        _ => panic!("{what}: typed {typed:?}, spliced {got:?}"),
    }
}

fn check(rec: &[u8], what: &str) {
    // The reader itself.
    let typed = Row::from_bytes(rec);
    for col in 0..4 {
        match (&typed, RowView::from_bytes(rec, Some(col))) {
            (Ok(row), Ok(view)) => {
                assert_eq!(view.arity as usize, row.len(), "{what}");
                assert_eq!(view.text_size(), row.text_size(), "{what}");
                assert_eq!(view.tokens, &rec[4..], "{what}");
                assert_eq!(view.column.map(<[u8]>::to_vec), row.get(col).map(Rec::to_bytes));
            }
            (Err(MrError::Codec(a)), Err(MrError::Codec(b))) => assert_eq!(a, &b, "{what}"),
            (typed, view) => panic!("{what}: typed {typed:?}, view {view:?}"),
        }
    }

    // The bytes as an input record of each map.
    for key_col in [0, 2, 9] {
        let map = SideMap { side: 1, key_col };
        same_refusal(&typed, &map.tag(rec, |_, _, _| {}), what);
    }
    let triple = TripleRec::from_bytes(rec);
    let star = StarPattern::new(
        "g",
        vec![
            TriplePattern::bound("g", "<label>", ObjPattern::Var("l".into())),
            TriplePattern::unbound("g", "p", ObjPattern::Var("o".into())),
        ],
    );
    for by_object in [false, true] {
        let map = AttachMap { star: star.clone(), by_object };
        same_refusal(&triple, &map.route(rec, |_, _, _| {}), what);
    }
    let map = StarMap { star, which: PatternSet::All };
    same_refusal(&triple, &map.route(rec, |_, _, _| {}), what);
    same_refusal(&triple, &LoadCopy::copy(rec, |_, _| Ok(())), what);

    // ... as a row-join (and pattern-attach) value on both sides of a
    // group, and as a star attach's row and match ...
    let tagged = |tag: u64| [&tag.to_le_bytes()[..], rec].concat();
    let joined = RowJoinReduce::join(&[&tagged(0), &tagged(1)], decodes);
    assert_eq!(joined.is_err(), typed.is_err(), "{what}: {joined:?}");
    let key = atom("<g1>").to_bytes();
    let attach = StarAttachReduce { patterns: 2 };
    same_refusal(&typed, &attach.join(&key, &[&tagged(0), &tagged(1), &tagged(2)], decodes), what);
    // ... as a star-join value for each pattern, and as the group's key.
    let po = <(Atom, Atom)>::from_bytes(rec);
    let reduce = StarReduce { patterns: 2 };
    let joined = reduce.join(&key, &[&tagged(0), &tagged(1)], decodes);
    assert_eq!(joined.is_err(), po.is_err(), "{what}: {joined:?}");
    let value = (0u64, (atom("<p>"), atom("<o>"))).to_bytes();
    let joined = StarReduce { patterns: 1 }.join(rec, &[&value], decodes);
    same_refusal(&Atom::from_bytes(rec), &joined, what);
    let row = (0u64, vec![atom("<a>")]).to_bytes();
    let po = (1u64, vec![atom("<p>"), atom("")]).to_bytes();
    let joined = StarAttachReduce { patterns: 1 }.join(rec, &[&row, &po], decodes);
    same_refusal(&Atom::from_bytes(rec), &joined, what);
}

#[test]
fn truncations_agree_with_the_typed_codec() {
    for (i, seed) in seeds().iter().enumerate() {
        let bytes = seed.to_bytes();
        for len in 0..=bytes.len() {
            check(&bytes[..len], &format!("seed {i} cut to {len}"));
        }
        // ... and the other way: bytes past the end.
        check(&[&bytes[..], &[0]].concat(), &format!("seed {i} plus a byte"));
    }
}

#[test]
fn single_bit_flips_agree_with_the_typed_codec() {
    for (i, seed) in seeds().iter().enumerate() {
        let bytes = seed.to_bytes();
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            check(&flipped, &format!("seed {i} bit {bit}"));
        }
    }
}

#[test]
fn random_garbage_agrees_with_the_typed_codec() {
    let mut seeds: Vec<Vec<u8>> = seeds().iter().map(Rec::to_bytes).collect();
    // A lone token and a token pair: what the reducers see as key and value.
    seeds.push(atom("<g1>").to_bytes());
    seeds.push((atom("<p>"), atom("\"s\u{e9}\"")).to_bytes());
    for case in 0..4000u64 {
        let mut rng = TestRng::for_case("row_fuzz::random_garbage", case);
        let mut bytes = match rng.usize_in(0, seeds.len()) {
            // Noise from the first byte on ...
            0 => (0..rng.usize_in(0, 64)).map(|_| rng.next_u64() as u8).collect(),
            // ... or a valid record with a few bytes rewritten, which gets
            // far deeper into the walk before something gives.
            i => seeds[i - 1].clone(),
        };
        for _ in 0..rng.usize_in(0, 4) {
            if !bytes.is_empty() {
                let at = rng.usize_in(0, bytes.len() - 1);
                // Small values make plausible counts and lengths.
                bytes[at] = if rng.usize_in(0, 1) == 0 {
                    rng.usize_in(0, 8) as u8
                } else {
                    rng.next_u64() as u8
                };
            }
        }
        check(&bytes, &format!("case {case}"));
    }
}
