//! Property-based tests of the NTGA algebra — the paper's formal claims
//! over randomized inputs:
//!
//! * **Lemma 1**: relational star join ≅ `μ^β(σ^βγ(γ(T)))`;
//! * rewrite sufficiency: σ^γ-enumeration ≡ σ^βγ-relaxation;
//! * `μ^β_φ` then `μ^β` ≡ `μ^β` at every join position;
//! * β-unnest output cardinality = candidate-list product;
//! * β-unnest never shrinks the nested text size.

use mrsim::Rec;
use ntga_core::logical::{
    beta_group_filter, beta_unnest, beta_unnest_at, group_by_subject, partial_beta_unnest,
};
use ntga_core::physical::{phi, JoinRole};
use ntga_core::rewrite::check_rewrites;
use ntga_core::tg::AnnTg;
use proptest::prelude::{prop, prop_assert, prop_assert_eq, proptest};
use proptest::strategy::{Just, Strategy};
use rdf_model::{STriple, TripleStore};
use rdf_query::{ObjFilter, ObjPattern, StarPattern, TriplePattern};

fn arb_triples() -> impl Strategy<Value = Vec<STriple>> {
    let s = prop::sample::select(vec!["<s1>", "<s2>", "<s3>"]);
    let p = prop::sample::select(vec!["<p1>", "<p2>", "<p3>", "<p4>"]);
    let o = prop::sample::select(vec!["<o1>", "<o2>", "\"lit1\"", "\"lit2\"", "<x9>"]);
    prop::collection::vec((s, p, o), 0..30)
        .prop_map(|ts| ts.into_iter().map(|(s, p, o)| STriple::new(s, p, o)).collect())
}

/// Random unbound-property stars over the same vocabulary: 1–2 bound
/// patterns, 1–2 unbound patterns, optional object filter on one unbound.
fn arb_star() -> impl Strategy<Value = StarPattern> {
    let bound_props = prop::sample::subsequence(vec!["<p1>", "<p2>", "<p3>"], 1..=2);
    let n_unbound = 1..=2usize;
    let filter = prop::option::of(prop::sample::select(vec![
        ObjFilter::Prefix("<o".into()),
        ObjFilter::Contains("lit".into()),
        ObjFilter::Equals(rdf_model::atom::atom("<o1>")),
    ]));
    (bound_props, n_unbound, filter).prop_flat_map(|(bp, nu, filt)| {
        let mut patterns = Vec::new();
        for (i, p) in bp.iter().enumerate() {
            patterns.push(TriplePattern::bound("s", p, ObjPattern::Var(format!("b{i}"))));
        }
        for j in 0..nu {
            let obj = if j == 0 && filt.is_some() {
                ObjPattern::Filtered(format!("o{j}"), filt.clone().expect("checked"))
            } else {
                ObjPattern::Var(format!("o{j}"))
            };
            patterns.push(TriplePattern::unbound("s", &format!("u{j}"), obj));
        }
        Just(StarPattern::new("s", patterns))
    })
}

proptest! {
    #[test]
    fn rewrites_agree_random(triples in arb_triples(), star in arb_star()) {
        let store = TripleStore::from_triples(triples);
        // check_rewrites verifies naive == relaxed (Lemma 1) == enumerated.
        check_rewrites(&star, &store).map_err(|e| {
            proptest::test_runner::TestCaseError::fail(format!("{e} for {star:?}"))
        })?;
    }

    #[test]
    fn partial_then_full_equals_full(triples in arb_triples(), m in 1u64..7) {
        let store = TripleStore::from_triples(triples);
        let star = StarPattern::new(
            "s",
            vec![
                TriplePattern::bound("s", "<p1>", ObjPattern::Var("b".into())),
                TriplePattern::unbound("s", "u", ObjPattern::Var("o".into())),
            ],
        );
        let tgs = group_by_subject(store.triples());
        let roles = [JoinRole::Subject, JoinRole::BoundObj(0), JoinRole::UnboundObj(0)];
        for ann in beta_group_filter(&tgs, &star, 0) {
            for role in roles {
                let parts = partial_beta_unnest(&ann, role, |o| phi(o, m));
                prop_assert!(parts.iter().all(|&(k, _)| k < m), "{:?}", role);
                prop_assert!(parts.len() as u64 <= m, "{:?}", role);
                // As multisets: the partitions' unnests are the whole's.
                let mut via_partial: Vec<_> =
                    parts.iter().flat_map(|(_, part)| beta_unnest_at(part, role)).collect();
                let mut full = beta_unnest_at(&ann, role);
                via_partial.sort();
                full.sort();
                prop_assert_eq!(via_partial, full, "{:?}", role);
            }
        }
    }

    #[test]
    fn unnest_cardinality_is_candidate_product(triples in arb_triples()) {
        let store = TripleStore::from_triples(triples);
        let star = StarPattern::new(
            "s",
            vec![
                TriplePattern::bound("s", "<p1>", ObjPattern::Var("b".into())),
                TriplePattern::unbound("s", "u1", ObjPattern::Var("o1".into())),
                TriplePattern::unbound("s", "u2", ObjPattern::Var("o2".into())),
            ],
        );
        let tgs = group_by_subject(store.triples());
        for ann in beta_group_filter(&tgs, &star, 0) {
            let expected: usize = ann.unbound.iter().map(Vec::len).product();
            prop_assert_eq!(beta_unnest(&ann).len(), expected);
        }
    }

    #[test]
    fn beta_unnest_never_shrinks_nested_bytes(triples in arb_triples(), star in arb_star()) {
        let store = TripleStore::from_triples(triples);
        let tgs = group_by_subject(store.triples());
        let anns = beta_group_filter(&tgs, &star, 0);
        // Perfect triplegroups from β-unnest expand total bytes
        // monotonically (redundant bound components materialize).
        let unnested: Vec<_> = anns.iter().flat_map(beta_unnest).collect();
        let nested_bytes = |tgs: &[AnnTg]| tgs.iter().map(Rec::text_size).sum::<u64>();
        prop_assert!(
            nested_bytes(&unnested) >= nested_bytes(&anns),
            "unnesting shrank the representation"
        );
    }

    #[test]
    fn group_filter_monotone_under_more_triples(
        triples in arb_triples(),
        extra in arb_triples(),
        star in arb_star(),
    ) {
        // Adding triples can only grow (never shrink) the set of subjects
        // passing σ^βγ: the filter requires presence, never absence.
        let small = TripleStore::from_triples(triples.clone());
        let mut all = triples;
        all.extend(extra);
        let big = TripleStore::from_triples(all);
        let subj = |store: &TripleStore| -> std::collections::BTreeSet<rdf_model::atom::Atom> {
            beta_group_filter(&group_by_subject(store.triples()), &star, 0)
                .into_iter()
                .map(|a| a.subject)
                .collect()
        };
        let s_small = subj(&small);
        let s_big = subj(&big);
        prop_assert!(s_small.is_subset(&s_big), "σ^βγ lost a subject when data grew");
    }
}

/// The checked-in regression seed from `algebra_properties.proptest-regressions`,
/// pinned verbatim: the offline proptest stand-in does not replay hashed
/// `cc` seeds, so every known shrunk failure must also live here as an
/// explicit unit test.
///
/// Shrunk case: empty store + star mixing bound `<p3>` with an unbound
/// pattern. Nothing matches, so `match_star` must reject every
/// triplegroup outright and all evaluators must agree on the empty
/// solution set — without `beta_unnest` ever seeing (or panicking on) an
/// empty candidate list.
#[test]
fn regression_seed_empty_store_bound_p3_with_unbound() {
    let star = StarPattern::new(
        "s",
        vec![
            TriplePattern::bound("s", "<p3>", ObjPattern::Var("b0".into())),
            TriplePattern::unbound("s", "u0", ObjPattern::Var("o0".into())),
        ],
    );
    let empty = TripleStore::from_triples(vec![]);
    assert_eq!(check_rewrites(&star, &empty).unwrap().len(), 0);

    // The non-matching neighbourhood of the seed: subjects carry triples
    // (so the unbound pattern has candidates) but never `<p3>`, so the
    // bound pattern fails and σ^βγ must reject the whole group.
    let non_matching = TripleStore::from_triples(vec![
        STriple::new("<s1>", "<p1>", "<o1>"),
        STriple::new("<s1>", "<p2>", "\"lit1\""),
        STriple::new("<s2>", "<p4>", "<x9>"),
    ]);
    assert_eq!(check_rewrites(&star, &non_matching).unwrap().len(), 0);
    assert!(beta_group_filter(&group_by_subject(non_matching.triples()), &star, 0).is_empty());

    // One matching subject among decoys: exactly its cross product
    // survives — <p3> objects × all four pairs of the subject.
    let mixed = TripleStore::from_triples(vec![
        STriple::new("<s1>", "<p1>", "<o1>"),
        STriple::new("<s2>", "<p3>", "<o1>"),
        STriple::new("<s2>", "<p3>", "<o2>"),
        STriple::new("<s2>", "<p1>", "\"lit1\""),
        STriple::new("<s2>", "<p2>", "\"lit2\""),
        STriple::new("<s3>", "<p4>", "<x9>"),
    ]);
    // ?b0 ∈ {<o1>, <o2>} × (?u0, ?o0) over all 4 pairs of <s2>.
    assert_eq!(check_rewrites(&star, &mixed).unwrap().len(), 8);
}

/// Direct edge-behaviour checks for the seed's code path: `match_star`
/// must return `None` (not an annotated group with empty lists) when a
/// bound property is absent, and `beta_unnest` must treat an empty
/// candidate list as zero perfect triplegroups rather than panicking.
#[test]
fn match_star_and_beta_unnest_empty_edges() {
    use ntga_core::logical::{match_star, TripleGroup};

    let star = StarPattern::new(
        "s",
        vec![
            TriplePattern::bound("s", "<p3>", ObjPattern::Var("b0".into())),
            TriplePattern::unbound("s", "u0", ObjPattern::Var("o0".into())),
        ],
    );
    let no_p3 = TripleGroup {
        subject: "<s1>".into(),
        pairs: vec![("<p1>".into(), "<o1>".into()), ("<p2>".into(), "\"lit1\"".into())],
    };
    assert!(match_star(&no_p3, &star, 0).is_none());

    let empty_group = TripleGroup { subject: "<s1>".into(), pairs: vec![] };
    assert!(match_star(&empty_group, &star, 0).is_none());

    // A hand-built annotated group with an empty candidate list (not
    // producible via match_star, which rejects such groups) must unnest
    // to nothing.
    let degenerate = ntga_core::tg::AnnTg {
        subject: "<s1>".into(),
        ec: 0,
        bound: vec![("<p3>".into(), vec!["<o1>".into()])],
        unbound: vec![vec![]],
    };
    assert!(beta_unnest(&degenerate).is_empty());
}

#[test]
fn lemma1_on_generated_bio_data() {
    // Lemma 1 at a realistic scale: the Bio2RDF-like generator with its
    // high-multiplicity xRef property.
    let store = datagen::bio2rdf::generate(&datagen::Bio2RdfConfig::with_genes(30));
    let star = StarPattern::new(
        "g",
        vec![
            TriplePattern::bound("g", "<rdfs:label>", ObjPattern::Var("l".into())),
            TriplePattern::unbound("g", "u", ObjPattern::Var("o".into())),
        ],
    );
    check_rewrites(&star, &store).unwrap();
}
