//! Codec-stability tests for the Atom token migration: Atom-backed records
//! must encode to exactly the bytes (and report exactly the text sizes)
//! that the `String`-era codecs produced, so every simulated byte counter
//! and figure output is unchanged by the representation switch.
//!
//! The `String`-era wire format is re-implemented here from its spec
//! (u32-LE length prefix + UTF-8 bytes per token, u32-LE count prefix per
//! vector) instead of calling back into `mrsim`, so a codec regression
//! cannot hide by changing both sides at once. Golden fixtures pin the
//! exact bytes.

use mr_rdf::{Row, TripleRec};
use mrsim::Rec;
use proptest::prelude::{prop, proptest};
use proptest::strategy::Strategy;
use rdf_model::STriple;

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&u32::try_from(s.len()).unwrap().to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn legacy_triple_bytes(s: &str, p: &str, o: &str) -> Vec<u8> {
    let mut buf = Vec::new();
    put_str(&mut buf, s);
    put_str(&mut buf, p);
    put_str(&mut buf, o);
    buf
}

fn legacy_row_bytes(cols: &[String]) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&u32::try_from(cols.len()).unwrap().to_le_bytes());
    for c in cols {
        put_str(&mut buf, c);
    }
    buf
}

fn arb_token() -> impl Strategy<Value = String> {
    prop::sample::select(vec![
        "",
        "<g1>",
        "<rdfs:label>",
        "\"retinoid receptor\"",
        "<http://bio2rdf.org/geneid:1728>",
        "\"naïve Δ\"",
    ])
    .prop_map(String::from)
}

proptest! {
    #[test]
    fn triple_rec_bytes_match_string_era(
        s in arb_token(), p in arb_token(), o in arb_token()
    ) {
        let rec = TripleRec(STriple::new(&s, &p, &o));
        assert_eq!(rec.to_bytes(), legacy_triple_bytes(&s, &p, &o));
        assert_eq!(rec.text_size(), (s.len() + p.len() + o.len() + 5) as u64);
        assert_eq!(TripleRec::from_bytes(&rec.to_bytes()).unwrap(), rec);
    }

    #[test]
    fn row_bytes_match_string_era(cols in prop::collection::vec(arb_token(), 0..8)) {
        let row: Row = cols.iter().map(|c| c.as_str().into()).collect();
        assert_eq!(row.to_bytes(), legacy_row_bytes(&cols));
        let expected_text: u64 = if cols.is_empty() {
            1
        } else {
            cols.iter().map(|c| c.len() as u64 + 1).sum()
        };
        assert_eq!(row.text_size(), expected_text);
        assert_eq!(Row::from_bytes(&row.to_bytes()).unwrap(), row);
    }
}

/// Golden fixture: the exact `String`-era wire bytes of a small triple,
/// checked in literally so any codec drift fails loudly.
#[test]
fn triple_rec_golden_bytes() {
    let rec = TripleRec(STriple::new("<s>", "<p>", "\"a\""));
    assert_eq!(
        rec.to_bytes(),
        [3, 0, 0, 0, b'<', b's', b'>', 3, 0, 0, 0, b'<', b'p', b'>', 3, 0, 0, 0, b'"', b'a', b'"']
    );
    assert_eq!(rec.text_size(), 14); // `<s> <p> "a" .\n`
}

/// Golden fixture for the n-tuple row codec.
#[test]
fn row_golden_bytes() {
    let row: Row = vec!["<g1>".into(), "\"x\"".into()];
    assert_eq!(
        row.to_bytes(),
        [2, 0, 0, 0, 4, 0, 0, 0, b'<', b'g', b'1', b'>', 3, 0, 0, 0, b'"', b'x', b'"']
    );
    assert_eq!(row.text_size(), 9);
}
