//! The NTGA kernels splice encoded bytes; this file keeps the operators
//! they replaced — decode every triplegroup, pin it by the algebra of
//! `ntga_core::logical` (σ^βγ, μ^β at a join position, μ^β_φ), re-encode,
//! size the text by sorting string pairs — as the reference, and checks on
//! random input that both write the same records (bytes, order and output
//! index), the same per-record text sizes and the same `op::*` counters:
//! Job 1's reduce over random subject groups and stars under every
//! eager/lazy placement, and the joins through every `JoinRole` on both
//! sides, `Exact` and `Partial(m)`, and the broadcast join with either side
//! built.

use mrsim::hash::DetHashMap;
use mrsim::{MrError, Rec, TaskContext};
use ntga_core::physical::{
    op, phi, BroadcastJoin, BuildSide, GroupReduce, JoinMap, JoinReduce, JoinRole, JoinSide,
    UnnestMode,
};
use ntga_core::tg::{AnnTg, TgTuple};
use proptest::prelude::{prop, prop_assert_eq, proptest, ProptestConfig};
use proptest::strategy::{Just, Strategy, Union};
use proptest::test_runner::TestCaseError;
use rdf_model::atom::{atom, Atom};
use rdf_query::{ObjFilter, ObjPattern, StarPattern, TriplePattern};
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// The typed reference
// ---------------------------------------------------------------------------

mod reference {
    use super::*;
    use ntga_core::logical::{
        beta_unnest, beta_unnest_at, match_star, partial_beta_unnest, TripleGroup,
    };

    /// One Job 1 output record: output index, bytes, text size.
    pub type Routed = (usize, Vec<u8>, u64);

    /// Job 1's reduce as the typed closure ran it: decode the subject and
    /// every pair, match each star (`TG_UnbGrpFilter`), β-unnest the eager
    /// ones, encode each triplegroup as a one-component tuple.
    pub fn group_reduce(
        ctx: &TaskContext,
        stars: &[StarPattern],
        eager: &[bool],
        key: &[u8],
        values: &[&[u8]],
    ) -> Result<Vec<Routed>, MrError> {
        let subject = Atom::from_bytes(key)?;
        let pairs =
            values.iter().map(|v| <(Atom, Atom)>::from_bytes(v)).collect::<Result<_, _>>()?;
        let tg = TripleGroup { subject, pairs };
        ctx.count(op::GROUPS_IN, 1);
        ctx.count(op::PAIRS_IN, tg.pairs.len() as u64);
        let mut out = Vec::new();
        let mut admitted = 0u64;
        for (i, star) in stars.iter().enumerate() {
            let Some(ann) = match_star(&tg, star, i as u64) else { continue };
            admitted += 1;
            let tgs = if eager[i] {
                ctx.count(op::UNNEST_IN, 1);
                let perfects = beta_unnest(&ann);
                perfects.iter().for_each(|_| ctx.count(op::UNNEST_OUT, 1));
                perfects
            } else {
                vec![ann]
            };
            for tg in tgs {
                let tuple = TgTuple(vec![tg]);
                out.push((i, tuple.to_bytes(), tuple.text_size()));
            }
        }
        ctx.count(op::ADMITTED, admitted);
        if admitted == 0 {
            ctx.count(op::DROPPED, 1);
        }
        Ok(out)
    }

    type SidedTuple = (u64, TgTuple);

    fn with_component(tuple: &TgTuple, component: usize, pinned: AnnTg) -> TgTuple {
        let mut comps = tuple.0.clone();
        comps[component] = pinned;
        TgTuple(comps)
    }

    /// Every pinned record a full unnest would ship, materialized and sized.
    fn expanded_bytes_of(tuple: &TgTuple, component: usize, u: usize) -> u64 {
        beta_unnest_at(&tuple.0[component], JoinRole::UnboundObj(u))
            .into_iter()
            .map(|(_, pinned)| with_component(tuple, component, pinned).text_size())
            .sum()
    }

    /// One shuffle record: key bytes, value bytes, row text size.
    pub type Shipped = (Vec<u8>, Vec<u8>, u64);

    pub fn map(ctx: &TaskContext, map: &JoinMap, tuple: &TgTuple) -> Vec<Shipped> {
        let (side, spec) = (map.side, &map.spec);
        let mut out = Vec::new();
        let mut emit = |key: Atom, value: SidedTuple| {
            let text = key.text_size() + value.text_size() - 1;
            out.push((key.to_bytes(), value.to_bytes(), text));
        };
        let comp = &tuple.0[spec.component];
        match map.mode {
            UnnestMode::Exact => {
                let unbound = matches!(spec.role, JoinRole::UnboundObj(_));
                let expansions = beta_unnest_at(comp, spec.role);
                if unbound {
                    ctx.count(op::UNNEST_IN, 1);
                }
                if unbound && !expansions.is_empty() {
                    ctx.count(op::UNNEST_OUT, expansions.len() as u64);
                }
                for (key, pinned) in expansions {
                    emit(key, (side, with_component(tuple, spec.component, pinned)));
                }
            }
            UnnestMode::Partial(m) => {
                let unbound_rest = if let JoinRole::UnboundObj(u) = spec.role {
                    ctx.count(op::PARTIAL_IN, 1);
                    ctx.count(op::PARTIAL_CANDIDATES, comp.unbound[u].len() as u64);
                    ctx.count(
                        op::PARTIAL_EXPANDED_BYTES,
                        expanded_bytes_of(tuple, spec.component, u),
                    );
                    Some(tuple.text_size() - comp.text_size())
                } else {
                    None
                };
                let expansions = partial_beta_unnest(comp, spec.role, |o| phi(o, m));
                if let Some(rest) = unbound_rest.filter(|_| !expansions.is_empty()) {
                    let pinned_bytes: u64 =
                        expansions.iter().map(|(_, pinned)| pinned.text_size()).sum();
                    let n = expansions.len() as u64;
                    ctx.count(op::PARTIAL_OUT, n);
                    ctx.count(op::PARTIAL_NESTED_BYTES, rest * n + pinned_bytes);
                }
                for (k, pinned) in expansions {
                    let t = with_component(tuple, spec.component, pinned);
                    emit(atom(&k.to_string()), (side, t));
                }
            }
        }
        out
    }

    /// One output record: bytes and text size.
    pub type Written = (Vec<u8>, u64);

    fn written(comps: Vec<AnnTg>) -> Written {
        let t = TgTuple(comps);
        (t.to_bytes(), t.text_size())
    }

    pub fn reduce(reduce: &JoinReduce, values: &[&[u8]]) -> Result<Vec<Written>, MrError> {
        let values: Vec<SidedTuple> =
            values.iter().map(|v| SidedTuple::from_bytes(v)).collect::<Result<_, _>>()?;
        let mut out = Vec::new();
        match reduce.mode {
            UnnestMode::Exact => {
                let (lefts, rights): (Vec<_>, Vec<_>) = values.iter().partition(|(s, _)| *s == 0);
                for (_, l) in &lefts {
                    for (_, r) in &rights {
                        out.push(written([&l.0[..], &r.0[..]].concat()));
                    }
                }
            }
            UnnestMode::Partial(_) => {
                let (lcomp, rcomp) = (reduce.left.component, reduce.right.component);
                let mut right_hash: DetHashMap<Atom, Vec<TgTuple>> = DetHashMap::default();
                for (_, t) in values.iter().filter(|(s, _)| *s == 1) {
                    for (key, pinned) in beta_unnest_at(&t.0[rcomp], reduce.right.role) {
                        right_hash.entry(key).or_default().push(with_component(t, rcomp, pinned));
                    }
                }
                for (_, t) in values.iter().filter(|(s, _)| *s == 0) {
                    for (key, pinned) in beta_unnest_at(&t.0[lcomp], reduce.left.role) {
                        for r in right_hash.get(&key).into_iter().flatten() {
                            let l = with_component(t, lcomp, pinned.clone());
                            out.push(written([&l.0[..], &r.0[..]].concat()));
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    pub fn broadcast(
        ctx: &TaskContext,
        join: &BroadcastJoin,
        build: &[TgTuple],
        tuple: &TgTuple,
    ) -> Vec<Written> {
        let mut table: DetHashMap<Atom, Vec<TgTuple>> = DetHashMap::default();
        for t in build {
            for (key, pinned) in beta_unnest_at(&t.0[join.build.component], join.build.role) {
                table.entry(key).or_default().push(with_component(t, join.build.component, pinned));
            }
        }
        let unbound = matches!(join.probe.role, JoinRole::UnboundObj(_));
        let expansions = beta_unnest_at(&tuple.0[join.probe.component], join.probe.role);
        if unbound {
            ctx.count(op::UNNEST_IN, 1);
        }
        let mut out = Vec::new();
        for (key, pinned) in expansions {
            if unbound {
                ctx.count(op::UNNEST_OUT, 1);
            }
            let probe = with_component(tuple, join.probe.component, pinned);
            for b in table.get(&key).into_iter().flatten() {
                out.push(written(match join.side {
                    BuildSide::Left => [&b.0[..], &probe.0[..]].concat(),
                    BuildSide::Right => [&probe.0[..], &b.0[..]].concat(),
                }));
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Random relations
// ---------------------------------------------------------------------------

/// A relation's tuples share one shape: `(bound lists, unbound lists)` per
/// component.
type Shape = Vec<(usize, usize)>;

/// Subjects and objects come from one small vocabulary (one of them not
/// ASCII), so every role meets matching keys on the other side; with three
/// properties over it, pairs repeat across lists — and within one.
fn arb_token() -> impl Strategy<Value = Atom> {
    prop::sample::select(vec!["<a>", "<b>", "<c>", "\"lit\"", "<caf\u{e9}>", ""]).prop_map(atom)
}

fn arb_prop() -> impl Strategy<Value = Atom> {
    prop::sample::select(vec!["<p1>", "<p2>", "<p3>"]).prop_map(atom)
}

/// The widest triplegroup a shape can ask for: two bound lists of 0–3
/// objects, two unbound lists of 0–4 candidates.
fn arb_anntg() -> impl Strategy<Value = AnnTg> {
    let bound = prop::collection::vec((arb_prop(), prop::collection::vec(arb_token(), 0..=3)), 2);
    let unbound = prop::collection::vec(prop::collection::vec((arb_prop(), arb_token()), 0..=4), 2);
    (arb_token(), 0..3u64, bound, unbound).prop_map(|(subject, ec, bound, unbound)| AnnTg {
        subject,
        ec,
        bound,
        unbound,
    })
}

/// 0–3 tuples of 1–3 components, cut down to one random shape.
fn arb_relation() -> impl Strategy<Value = (Shape, Vec<TgTuple>)> {
    let shape = prop::collection::vec((1..=2usize, 0..=2usize), 1..=3);
    let tuples = prop::collection::vec(prop::collection::vec(arb_anntg(), 3), 0..=3);
    (shape, tuples).prop_map(|(shape, tuples): (Shape, Vec<Vec<AnnTg>>)| {
        let cut = |mut comps: Vec<AnnTg>| {
            comps.truncate(shape.len());
            for (tg, &(bound, unbound)) in comps.iter_mut().zip(&shape) {
                tg.bound.truncate(bound);
                tg.unbound.truncate(unbound);
            }
            TgTuple(comps)
        };
        let tuples = tuples.into_iter().map(cut).collect();
        (shape, tuples)
    })
}

/// Every way a relation of this shape can hold the join variable.
fn specs(shape: &Shape) -> Vec<JoinSide> {
    let mut out = Vec::new();
    for (component, &(bound, unbound)) in shape.iter().enumerate() {
        let roles = std::iter::once(JoinRole::Subject)
            .chain((0..bound).map(JoinRole::BoundObj))
            .chain((0..unbound).map(JoinRole::UnboundObj));
        out.extend(roles.map(|role| JoinSide { file: String::new(), component, role }));
    }
    out
}

// ---------------------------------------------------------------------------
// Random subject groups and stars (Job 1)
// ---------------------------------------------------------------------------

/// One subject's shuffle values: 0–8 pairs over the shared vocabulary, a
/// few of them shipped twice, encoded and in the shuffle's byte order.
fn arb_group() -> impl Strategy<Value = (Vec<u8>, Vec<Vec<u8>>)> {
    let pairs = prop::collection::vec((arb_prop(), arb_token()), 0..=8);
    (arb_token(), pairs, 0..=3usize).prop_map(|(subject, mut pairs, repeats)| {
        pairs.extend(pairs.iter().take(repeats).cloned().collect::<Vec<_>>());
        let mut values: Vec<Vec<u8>> = pairs.iter().map(Rec::to_bytes).collect();
        values.sort();
        (subject.to_bytes(), values)
    })
}

fn arb_filter() -> impl Strategy<Value = ObjFilter> {
    Union::new([
        arb_token().prop_map(ObjFilter::Equals).boxed(),
        Just(ObjFilter::Prefix("<".into())).boxed(),
        Just(ObjFilter::Contains("a".into())).boxed(),
    ])
}

fn arb_object() -> impl Strategy<Value = ObjPattern> {
    Union::new([
        Just(ObjPattern::Var("o".into())).boxed(),
        arb_token().prop_map(ObjPattern::Const).boxed(),
        arb_filter().prop_map(|f| ObjPattern::Filtered("o".into(), f)).boxed(),
    ])
}

/// 0–4 patterns, bound (over three properties, so one can repeat) or
/// unbound, with a constant, filtered or variable object; a subject filter
/// now and then.
fn arb_star() -> impl Strategy<Value = StarPattern> {
    let pattern =
        (prop::option::of(arb_prop()), arb_object()).prop_map(|(prop, object)| match prop {
            Some(p) => TriplePattern::bound("s", &p, object),
            None => TriplePattern::unbound("s", "p", object),
        });
    let patterns = prop::collection::vec(pattern, 0..=4);
    (patterns, 0..5u8, arb_filter()).prop_map(|(patterns, dice, filter)| {
        let star = StarPattern::new("s", patterns);
        if dice == 0 {
            star.with_subject_filter(filter)
        } else {
            star
        }
    })
}

/// Job 1's reduce over one group under every eager/lazy placement of
/// `stars`, against the typed reference.
fn check_group(stars: &[StarPattern], key: &[u8], values: &[Vec<u8>]) -> Result<(), TestCaseError> {
    let values: Vec<&[u8]> = values.iter().map(Vec::as_slice).collect();
    for placement in 0..1u32 << stars.len() {
        let eager: Vec<bool> = (0..stars.len()).map(|i| placement >> i & 1 == 1).collect();
        let ctx = TaskContext::new();
        let want = reference::group_reduce(&ctx, stars, &eager, key, &values).unwrap();
        let want_counted = ctx.take_counters();
        let mut got: Vec<reference::Routed> = Vec::new();
        GroupReduce::new(stars, &eager)
            .filter(&ctx, key, &values, |star, record, text| {
                got.push((star, record, text));
                Ok(())
            })
            .unwrap();
        prop_assert_eq!(got, want, "eager {:?}", eager);
        prop_assert_eq!(ctx.take_counters(), want_counted, "eager {:?}", eager);
    }
    Ok(())
}

/// The overlaps the text arithmetic has to get right, spelled out: a pair
/// both a bound match and an unbound candidate (`<p1> <a>`), two unbound
/// patterns picking the same pair that no bound list holds (`<p2>
/// "café"`), a triple shipped twice, a bound property asked for twice.
#[test]
fn group_reduce_overlaps_match_typed_reference() {
    let pairs = [("<p1>", "<a>"), ("<p1>", "<a>"), ("<p1>", "<b>"), ("<p2>", "\"caf\u{e9}\"")];
    let mut values: Vec<Vec<u8>> =
        pairs.iter().map(|&(p, o)| (atom(p), atom(o)).to_bytes()).collect();
    values.sort();
    let var = || ObjPattern::Var("o".into());
    let with_a = ObjPattern::Filtered("o".into(), ObjFilter::Contains("a".into()));
    let star = StarPattern::new(
        "s",
        vec![
            TriplePattern::bound("s", "<p1>", var()),
            TriplePattern::unbound("s", "p", var()),
            TriplePattern::bound("s", "<p1>", ObjPattern::Const(atom("<b>"))),
            TriplePattern::unbound("s", "q", with_a),
        ],
    );
    let unbound_only = StarPattern::new("s", vec![TriplePattern::unbound("s", "p", var())]);
    check_group(&[star, unbound_only], &atom("<s>").to_bytes(), &values).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn group_reduce_matches_typed_reference(
        stars in prop::collection::vec(arb_star(), 1..=3),
        groups in prop::collection::vec(arb_group(), 1..=4),
    ) {
        for (key, values) in &groups {
            check_group(&stars, key, values)?;
        }
    }

    #[test]
    fn reduce_side_join_matches_typed_reference(
        left in arb_relation(),
        right in arb_relation(),
    ) {
        let modes = [
            UnnestMode::Exact,
            UnnestMode::Partial(1),
            UnnestMode::Partial(2),
            UnnestMode::Partial(1024),
        ];
        for mode in modes {
            for lspec in specs(&left.0) {
                for rspec in specs(&right.0) {
                    let what = format!("{mode:?} {lspec:?} {rspec:?}");
                    // Map: each side, tuple by tuple.
                    let mut shuffle: BTreeMap<Vec<u8>, Vec<Vec<u8>>> = BTreeMap::new();
                    let sides = [(0, &lspec, &left.1), (1, &rspec, &right.1)];
                    for (side, spec, tuples) in sides {
                        let map = JoinMap { side, spec: spec.clone(), mode };
                        for tuple in tuples {
                            let ctx = TaskContext::new();
                            let want = reference::map(&ctx, &map, tuple);
                            let want_counted = ctx.take_counters();
                            let mut got: Vec<reference::Shipped> = Vec::new();
                            map.expand(&ctx, &tuple.to_bytes(), |k, text, write| {
                                let mut v = Vec::new();
                                write(&mut v);
                                got.push((k.to_vec(), v, text));
                            })
                            .unwrap();
                            prop_assert_eq!(&got, &want, "map side {} of {}", side, what);
                            prop_assert_eq!(ctx.take_counters(), want_counted, "map side {} of {}", side, what);
                            for (key, value, _) in got {
                                shuffle.entry(key).or_default().push(value);
                            }
                        }
                    }
                    // Reduce: each key group, values in shuffle (byte) order.
                    let reduce = JoinReduce { mode, left: lspec.clone(), right: rspec.clone() };
                    for values in shuffle.values_mut() {
                        values.sort();
                        let values: Vec<&[u8]> = values.iter().map(Vec::as_slice).collect();
                        let want = reference::reduce(&reduce, &values).unwrap();
                        let mut got: Vec<reference::Written> = Vec::new();
                        reduce
                            .join(&values, |record, text| {
                                got.push((record, text));
                                Ok(())
                            })
                            .unwrap();
                        prop_assert_eq!(got, want, "reduce of {}", what);
                    }
                }
            }
        }
    }

    #[test]
    fn broadcast_join_matches_typed_reference(
        left in arb_relation(),
        right in arb_relation(),
    ) {
        for lspec in specs(&left.0) {
            for rspec in specs(&right.0) {
                for side in [BuildSide::Left, BuildSide::Right] {
                    let ((build, built), (probe, probing)) = match side {
                        BuildSide::Left => ((&lspec, &left.1), (&rspec, &right.1)),
                        BuildSide::Right => ((&rspec, &right.1), (&lspec, &left.1)),
                    };
                    let join = BroadcastJoin { side, build: build.clone(), probe: probe.clone() };
                    let what = format!("{side:?} {lspec:?} {rspec:?}");
                    let file: Vec<Vec<u8>> = built.iter().map(Rec::to_bytes).collect();
                    let table = join.build_table(file.iter().map(Vec::as_slice)).unwrap();
                    for tuple in probing {
                        let ctx = TaskContext::new();
                        let want = reference::broadcast(&ctx, &join, built, tuple);
                        let want_counted = ctx.take_counters();
                        let mut got: Vec<reference::Written> = Vec::new();
                        join.probe(&ctx, &table, &tuple.to_bytes(), |record, text| {
                            got.push((record, text));
                            Ok(())
                        })
                        .unwrap();
                        prop_assert_eq!(got, want, "probe of {}", what);
                        prop_assert_eq!(ctx.take_counters(), want_counted, "probe of {}", what);
                    }
                }
            }
        }
    }
}

/// What the splice does not do that decoding did: a group with one side
/// empty is left unread past its side tags, and a role the tuple has no
/// list for is an error, not an index panic.
#[test]
fn one_sided_groups_and_missing_lists() {
    let tg = AnnTg { subject: atom("<a>"), ec: 0, bound: vec![], unbound: vec![] };
    let spec = |role| JoinSide { file: String::new(), component: 0, role };
    let reduce = JoinReduce {
        mode: UnnestMode::Exact,
        left: spec(JoinRole::Subject),
        right: spec(JoinRole::Subject),
    };
    let mut garbage = 1u64.to_bytes();
    garbage.extend_from_slice(&[0xff; 7]);
    let mut joined = 0;
    let mut count = |_, _| {
        joined += 1;
        Ok(())
    };
    reduce.join(&[&garbage], &mut count).unwrap();
    // With a left value in the group the right one is read, and refused.
    let left = (0u64, TgTuple(vec![tg.clone()])).to_bytes();
    let err = reduce.join(&[&left, &garbage], &mut count).unwrap_err();
    assert!(matches!(err, MrError::Codec(_)), "{err:?}");
    // A value too short for its side tag is refused either way.
    assert!(matches!(reduce.join(&[&[1, 2, 3]], &mut count), Err(MrError::Codec(_))));
    assert_eq!(joined, 0);

    let bytes = TgTuple(vec![tg]).to_bytes();
    for (component, role) in
        [(0, JoinRole::BoundObj(0)), (0, JoinRole::UnboundObj(0)), (1, JoinRole::Subject)]
    {
        let spec = JoinSide { file: String::new(), component, role };
        let map = JoinMap { side: 0, spec, mode: UnnestMode::Exact };
        let err = map.expand(&TaskContext::new(), &bytes, |_, _, _| {}).unwrap_err();
        assert!(matches!(err, MrError::Op(_)), "{err:?}");
    }
}
