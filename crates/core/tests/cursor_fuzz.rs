//! Hostile bytes against the borrowed triplegroup cursor (ROADMAP fuzzing
//! item (d)): every truncation, every single-bit flip and a few thousand
//! random rewrites of valid `TgTuple` encodings. On each variant the cursor
//! must do exactly what `TgTuple::from_bytes` does — the same
//! `MrError::Codec`, or the same tuple, with byte ranges that cut the
//! record where the typed codec would — and the join operators built on it
//! must return, never panic. Job 1's reduce meets the same on every
//! truncation and bit flip of a group's key and values. CI runs this in
//! release too, where a wrapped offset would otherwise go unnoticed.

use mrsim::{MrError, Rec, TaskContext};
use ntga_core::physical::{GroupReduce, JoinMap, JoinReduce, JoinRole, JoinSide, UnnestMode};
use ntga_core::tg::{AnnTg, CompRef, ListRef, PairRef, TgCursor, TgTuple};
use proptest::test_runner::TestRng;
use rdf_model::atom::Atom;
use rdf_query::{ObjPattern, StarPattern, TriplePattern};

fn anntg(subject: &str, ec: u64, bound: &[(&str, &[&str])], unbound: &[&[(&str, &str)]]) -> AnnTg {
    AnnTg {
        subject: subject.into(),
        ec,
        bound: bound
            .iter()
            .map(|(p, objs)| ((*p).into(), objs.iter().map(|o| (*o).into()).collect()))
            .collect(),
        unbound: unbound
            .iter()
            .map(|cands| cands.iter().map(|(p, o)| ((*p).into(), (*o).into())).collect())
            .collect(),
    }
}

/// Valid tuples covering the layout's corners: no components, empty
/// lists, empty tokens, multi-byte UTF-8, several components.
fn seeds() -> Vec<TgTuple> {
    let gene = anntg(
        "<g1>",
        0,
        &[("<label>", &["\"a\""]), ("<xGO>", &["<go1>", "<go2>"])],
        &[&[("<label>", "\"a\""), ("<xGO>", "<go1>"), ("<syn>", "\"s\u{e9}\"")], &[]],
    );
    let go = anntg("<go1>", 1, &[("<gl>", &["\"nucleus\""])], &[]);
    let bare = anntg("", u64::MAX, &[("", &[])], &[&[("", "")]]);
    vec![
        TgTuple(vec![]),
        TgTuple(vec![go.clone()]),
        TgTuple(vec![bare]),
        TgTuple(vec![gene.clone()]),
        TgTuple(vec![gene, go]),
    ]
}

/// The tuple the cursor reads out of `rec`, rebuilt from nothing but what
/// the cursor hands back; every byte range is checked against the typed
/// codec on the way.
fn read_with_cursor(rec: &[u8]) -> Result<TgTuple, MrError> {
    let mut cur = TgCursor::new(rec);
    let n = cur.count()?;
    let mut comps = Vec::new();
    for _ in 0..n {
        let at = cur.pos();
        let (mut lists, mut pairs) = (Vec::new(), Vec::new());
        let comp = cur.component(&mut lists, &mut pairs)?;
        assert_eq!(comp.span, at..cur.pos());
        comps.push(rebuild(rec, &comp, &lists, &pairs));
    }
    cur.finish()?;
    Ok(TgTuple(comps))
}

fn rebuild(rec: &[u8], comp: &CompRef<'_>, lists: &[ListRef], pairs: &[PairRef<'_>]) -> AnnTg {
    assert_eq!(lists.len(), comp.bound + comp.unbound);
    let (mut bound, mut unbound) = (Vec::new(), Vec::new());
    // Past the subject, the class and the bound-list count.
    let mut at = comp.span.start + 4 + comp.subject.len() + 8 + 4;
    let mut next_pair = 0;
    for (i, list) in lists.iter().enumerate() {
        // Lists own consecutive runs of `pairs`, in record order.
        assert_eq!(list.pairs.start, next_pair);
        next_pair = list.pairs.end;
        let entries = &pairs[list.pairs.clone()];
        let body = &rec[list.count_at..list.end];
        if i < comp.bound {
            // A bound list's property sits between the list before it and
            // its own count.
            let p = Atom::from_bytes(&rec[at..list.count_at]).unwrap();
            assert!(entries.iter().all(|e| e.p == &*p));
            let objs: Vec<Atom> = entries.iter().map(|e| e.o.into()).collect();
            assert_eq!(Vec::<Atom>::from_bytes(body).unwrap(), objs);
            for (e, o) in entries.iter().zip(&objs) {
                assert_eq!(&Atom::from_bytes(e.entry).unwrap(), o);
            }
            bound.push((p, objs));
        } else {
            // The unbound-list count sits between the two kinds.
            at += if i == comp.bound { 4 } else { 0 };
            assert_eq!(list.count_at, at);
            let cands: Vec<(Atom, Atom)> =
                entries.iter().map(|e| (e.p.into(), e.o.into())).collect();
            assert_eq!(Vec::<(Atom, Atom)>::from_bytes(body).unwrap(), cands);
            for (e, cand) in entries.iter().zip(&cands) {
                assert_eq!(&<(Atom, Atom)>::from_bytes(e.entry).unwrap(), cand);
            }
            unbound.push(cands);
        }
        at = list.end;
    }
    assert_eq!(next_pair, pairs.len());
    at += if comp.unbound == 0 { 4 } else { 0 };
    assert_eq!(at, comp.span.end);
    let tg = AnnTg { subject: comp.subject.into(), ec: comp.ec, bound, unbound };
    assert_eq!(tg.to_bytes(), &rec[comp.span.clone()]);
    tg
}

fn check(rec: &[u8], what: &str) {
    let typed = TgTuple::from_bytes(rec);
    let read = read_with_cursor(rec);
    match (&typed, &read) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "{what}"),
        (Err(MrError::Codec(a)), Err(MrError::Codec(b))) => assert_eq!(a, b, "{what}"),
        _ => panic!("{what}: typed {typed:?}, cursor {read:?}"),
    }
    // The operators built on the cursor: whatever the bytes, they return.
    // A record the codec refuses they refuse alike; one it accepts they map,
    // or turn down for lacking the component or list the role names.
    let ctx = TaskContext::new();
    for role in [JoinRole::Subject, JoinRole::BoundObj(1), JoinRole::UnboundObj(0)] {
        for mode in [UnnestMode::Exact, UnnestMode::Partial(3)] {
            let spec = JoinSide { file: String::new(), component: 0, role };
            let map = JoinMap { side: 1, spec: spec.clone(), mode };
            let sided = |side: u64| [&side.to_le_bytes()[..], rec].concat();
            let mut values = vec![sided(0), sided(1)];
            let mapped = map.expand(&ctx, rec, |_, _, write| {
                let mut value = Vec::new();
                write(&mut value);
                values.push(value);
            });
            match (&typed, &mapped) {
                (Err(MrError::Codec(a)), Err(MrError::Codec(b))) => assert_eq!(a, b, "{what}"),
                (Ok(_), Ok(()) | Err(MrError::Op(_))) => {}
                _ => panic!("{what}: typed {typed:?}, map {mapped:?}"),
            }
            // The record itself on both sides of a key group, next to what
            // the map made of it. The cross join looks at no role.
            let reduce = JoinReduce { mode, left: spec.clone(), right: spec };
            let values: Vec<&[u8]> = values.iter().map(Vec::as_slice).collect();
            let joined = reduce.join(&values, |record, text| {
                let t = TgTuple::from_bytes(&record).expect("a joined record decodes");
                assert_eq!(t.text_size(), text, "{what}");
                Ok(())
            });
            let refused = typed.is_err() || (mode != UnnestMode::Exact && mapped.is_err());
            assert_eq!(joined.is_err(), refused, "{what}: {joined:?}");
        }
    }
}

#[test]
fn truncations_agree_with_the_typed_codec() {
    for (i, seed) in seeds().iter().enumerate() {
        let bytes = seed.to_bytes();
        assert_eq!(read_with_cursor(&bytes).unwrap(), *seed);
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

/// Every truncation and single-bit flip of `bytes`, and `bytes` with one
/// byte too many.
fn variants(bytes: &[u8]) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = (0..bytes.len()).map(|n| bytes[..n].to_vec()).collect();
    out.push([bytes, &[0]].concat());
    for bit in 0..bytes.len() * 8 {
        let mut flipped = bytes.to_vec();
        flipped[bit / 8] ^= 1 << (bit % 8);
        out.push(flipped);
    }
    out
}

/// Job 1's reduce on hostile keys and values: it fails exactly when the
/// typed decode of the group would — `Atom::from_bytes` on the key, then
/// `<(Atom, Atom)>::from_bytes` on each value in turn — with that error,
/// and emits nothing first.
#[test]
fn group_reduce_refuses_what_the_typed_codec_refuses() {
    let var = |v: &str| ObjPattern::Var(v.into());
    let stars = [
        StarPattern::new(
            "g",
            vec![
                TriplePattern::bound("g", "<label>", var("l")),
                TriplePattern::unbound("g", "p", var("o")),
                TriplePattern::unbound("g", "q", var("x")),
            ],
        ),
        StarPattern::new("g", vec![TriplePattern::bound("g", "<xGO>", var("go"))]),
    ];
    let reduces = [GroupReduce::new(&stars, &[false, false]), GroupReduce::new(&stars, &[true; 2])];
    let key = Atom::from("<g1>").to_bytes();
    let pairs = [("<label>", "\"a\""), ("<xGO>", "<go1>"), ("", ""), ("<syn>", "\"s\u{e9}\"")];
    let mut values: Vec<Vec<u8>> =
        pairs.iter().map(|&(p, o)| (Atom::from(p), Atom::from(o)).to_bytes()).collect();
    values.sort();
    let check = |key: &[u8], values: &[Vec<u8>], what: &str| {
        let typed = Atom::from_bytes(key)
            .err()
            .or_else(|| values.iter().find_map(|v| <(Atom, Atom)>::from_bytes(v).err()));
        let values: Vec<&[u8]> = values.iter().map(Vec::as_slice).collect();
        for reduce in &reduces {
            let mut emitted = 0;
            let got = reduce.filter(&TaskContext::new(), key, &values, |_, _, _| {
                emitted += 1;
                Ok(())
            });
            match (&typed, got) {
                (None, Ok(())) => {}
                (Some(MrError::Codec(a)), Err(MrError::Codec(b))) => {
                    assert_eq!(*a, b, "{what}");
                    assert_eq!(emitted, 0, "{what}");
                }
                (typed, got) => panic!("{what}: typed {typed:?}, kernel {got:?}"),
            }
        }
    };
    check(&key, &values, "the valid group");
    for (n, bad) in variants(&key).iter().enumerate() {
        check(bad, &values, &format!("key variant {n}"));
    }
    for i in 0..values.len() {
        for (n, bad) in variants(&values[i]).into_iter().enumerate() {
            let mut group = values.clone();
            group[i] = bad;
            check(&key, &group, &format!("value {i} variant {n}"));
        }
    }
}

#[test]
fn random_garbage_agrees_with_the_typed_codec() {
    let seeds: Vec<Vec<u8>> = seeds().iter().map(Rec::to_bytes).collect();
    for case in 0..4000u64 {
        let mut rng = TestRng::for_case("cursor_fuzz::random_garbage", case);
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
