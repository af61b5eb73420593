//! Codec stability of the annotated-triplegroup records across the Atom
//! token migration: wire bytes and simulated text sizes must be identical
//! to the `String`-era forms, byte for byte, or every HDFS/shuffle counter
//! in the figures would silently shift.
//!
//! The legacy format is re-implemented from its spec (u32-LE length prefix
//! per token, u32-LE count prefix per vector, 8-byte LE u64, tuples
//! concatenated) rather than reusing `mrsim`'s codec.

use mrsim::Rec;
use ntga_core::tg::{AnnTg, TgTuple};
use proptest::prelude::{prop, proptest};
use proptest::strategy::Strategy;

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&u32::try_from(s.len()).unwrap().to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn put_count(buf: &mut Vec<u8>, n: usize) {
    buf.extend_from_slice(&u32::try_from(n).unwrap().to_le_bytes());
}

type Pairs = Vec<(String, String)>;

fn legacy_anntg_bytes(
    subject: &str,
    ec: u64,
    bound: &[(String, Vec<String>)],
    unbound: &[Pairs],
) -> Vec<u8> {
    let mut buf = Vec::new();
    put_str(&mut buf, subject);
    buf.extend_from_slice(&ec.to_le_bytes());
    put_count(&mut buf, bound.len());
    for (p, objs) in bound {
        put_str(&mut buf, p);
        put_count(&mut buf, objs.len());
        for o in objs {
            put_str(&mut buf, o);
        }
    }
    put_count(&mut buf, unbound.len());
    for cands in unbound {
        put_count(&mut buf, cands.len());
        for (p, o) in cands {
            put_str(&mut buf, p);
            put_str(&mut buf, o);
        }
    }
    buf
}

fn legacy_text_size(subject: &str, bound: &[(String, Vec<String>)], unbound: &[Pairs]) -> u64 {
    let mut pairs = std::collections::BTreeSet::new();
    for (p, objs) in bound {
        for o in objs {
            pairs.insert((p.as_str(), o.as_str()));
        }
    }
    for cands in unbound {
        for (p, o) in cands {
            pairs.insert((p.as_str(), o.as_str()));
        }
    }
    subject.len() as u64
        + 1
        + pairs.iter().map(|(p, o)| (p.len() + o.len() + 2) as u64).sum::<u64>()
}

fn build(subject: &str, ec: u64, bound: &[(String, Vec<String>)], unbound: &[Pairs]) -> AnnTg {
    AnnTg {
        subject: subject.into(),
        ec,
        bound: bound
            .iter()
            .map(|(p, objs)| (p.as_str().into(), objs.iter().map(|o| o.as_str().into()).collect()))
            .collect(),
        unbound: unbound
            .iter()
            .map(|cands| {
                cands.iter().map(|(p, o)| (p.as_str().into(), o.as_str().into())).collect()
            })
            .collect(),
    }
}

fn arb_token() -> impl Strategy<Value = String> {
    prop::sample::select(vec!["<g1>", "<rdfs:label>", "\"a\"", "<bio:xRef>", "<ref12>", ""])
        .prop_map(String::from)
}

fn arb_bound() -> impl Strategy<Value = Vec<(String, Vec<String>)>> {
    prop::collection::vec((arb_token(), prop::collection::vec(arb_token(), 0..4)), 0..3)
}

fn arb_unbound() -> impl Strategy<Value = Vec<Pairs>> {
    prop::collection::vec(prop::collection::vec((arb_token(), arb_token()), 0..4), 0..3)
}

proptest! {
    #[test]
    fn anntg_bytes_and_text_size_match_string_era(
        subject in arb_token(),
        ec in 0u64..9,
        bound in arb_bound(),
        unbound in arb_unbound(),
    ) {
        let tg = build(&subject, ec, &bound, &unbound);
        assert_eq!(tg.to_bytes(), legacy_anntg_bytes(&subject, ec, &bound, &unbound));
        assert_eq!(tg.text_size(), legacy_text_size(&subject, &bound, &unbound));
        assert_eq!(AnnTg::from_bytes(&tg.to_bytes()).unwrap(), tg);

        // The tuple wrapper prepends only a count; text size is the sum.
        let tup = TgTuple(vec![tg.clone(), tg.clone()]);
        let mut expected = 2u32.to_le_bytes().to_vec();
        expected.extend_from_slice(&tg.to_bytes());
        expected.extend_from_slice(&tg.to_bytes());
        assert_eq!(tup.to_bytes(), expected);
        assert_eq!(tup.text_size(), 2 * tg.text_size());
    }
}

/// Golden fixture: exact wire bytes of a minimal annotated triplegroup.
#[test]
fn anntg_golden_bytes() {
    let tg = AnnTg {
        subject: "<g>".into(),
        ec: 1,
        bound: vec![("<p>".into(), vec!["\"a\"".into()])],
        unbound: vec![vec![("<p>".into(), "\"a\"".into())]],
    };
    #[rustfmt::skip]
    let expected = [
        3, 0, 0, 0, b'<', b'g', b'>',           // subject
        1, 0, 0, 0, 0, 0, 0, 0,                 // ec = 1 (u64 LE)
        1, 0, 0, 0,                             // |bound| = 1
        3, 0, 0, 0, b'<', b'p', b'>',           // bound[0] property
        1, 0, 0, 0,                             // |objects| = 1
        3, 0, 0, 0, b'"', b'a', b'"',           // object
        1, 0, 0, 0,                             // |unbound| = 1
        1, 0, 0, 0,                             // |candidates| = 1
        3, 0, 0, 0, b'<', b'p', b'>',           // candidate property
        3, 0, 0, 0, b'"', b'a', b'"',           // candidate object
    ];
    assert_eq!(tg.to_bytes(), expected);
    // One distinct (p, o) pair — the candidate duplicates the bound match.
    assert_eq!(tg.text_size(), 4 + (3 + 3 + 2));
}
