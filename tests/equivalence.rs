//! The workspace's headline correctness invariant: every execution path —
//! Pig-like, Hive-like, NTGA eager, NTGA lazy-full, NTGA lazy-partial,
//! NTGA cost-based — produces exactly the solution set of the naive reference evaluator, on
//! randomized data and across the paper's query shapes.
//!
//! This is the full-pipeline generalization of the paper's Lemma 1
//! (content equivalence of the relational star join and
//! `μ^β(σ^βγ(γ(T)))`).

use ntga::prelude::*;
use proptest::prelude::{prop, prop_assert, prop_assert_eq, proptest, ProptestConfig};
use proptest::strategy::Strategy as PropStrategy;

/// Random triple stores over a small vocabulary, dense enough that stars
/// and joins actually match.
fn arb_store() -> impl PropStrategy<Value = TripleStore> {
    let subject = prop::sample::select(vec!["<s0>", "<s1>", "<s2>", "<s3>", "<o0>", "<o1>"]);
    let property = prop::sample::select(vec!["<p0>", "<p1>", "<p2>", "<p3>"]);
    let object =
        prop::sample::select(vec!["<o0>", "<o1>", "<o2>", "\"lit-a\"", "\"lit-b\"", "<s0>"]);
    prop::collection::vec((subject, property, object), 1..40).prop_map(|triples| {
        TripleStore::from_triples(
            triples.into_iter().map(|(s, p, o)| STriple::new(s, p, o)).collect(),
        )
    })
}

/// The query shapes exercised (all planner-supported, covering: bound-only
/// stars, unbound with unbound object joined OS, partially-bound objects,
/// double unbound, OO joins, unbound outside the join).
fn shapes() -> Vec<(&'static str, Query)> {
    let texts: Vec<(&'static str, &'static str)> = vec![
        ("bound-single", "SELECT * WHERE { ?a <p0> ?x . ?a <p1> ?y . }"),
        ("unbound-single", "SELECT * WHERE { ?a <p0> ?x . ?a ?u ?o . }"),
        (
            "partially-bound",
            r#"SELECT * WHERE { ?a <p0> ?x . ?a ?u ?o . FILTER prefix(?o, "\"lit") . }"#,
        ),
        ("double-unbound", "SELECT * WHERE { ?a <p0> ?x . ?a ?u1 ?o1 . ?a ?u2 ?o2 . }"),
        ("os-join-bound", "SELECT * WHERE { ?a <p0> ?b . ?b <p1> ?y . }"),
        ("os-join-unbound", "SELECT * WHERE { ?a <p0> ?x . ?a ?u ?b . ?b <p1> ?y . }"),
        ("oo-join", "SELECT * WHERE { ?a <p0> ?v . ?b <p1> ?v . ?b <p2> ?w . }"),
        ("unbound-outside-join", "SELECT * WHERE { ?a <p0> ?b . ?a ?u ?any . ?b <p1> ?y . }"),
        ("projection", "SELECT ?a WHERE { ?a <p0> ?x . ?a ?u ?b . ?b <p1> ?y . }"),
    ];
    texts
        .into_iter()
        .map(|(id, t)| (id, parse_query(t).unwrap_or_else(|e| panic!("{id}: {e}"))))
        .collect()
}

fn approaches() -> Vec<Approach> {
    vec![
        Approach::Pig,
        Approach::Hive,
        Approach::NtgaEager,
        Approach::NtgaLazyFull,
        Approach::NtgaLazyPartial(1),
        Approach::NtgaLazyPartial(3),
        Approach::NtgaAuto(8),
        Approach::NtgaAutoCost,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn all_strategies_equal_naive_on_random_data(store in arb_store()) {
        for (id, query) in shapes() {
            let gold = rdf_query::naive::evaluate(&query, &store);
            for approach in approaches() {
                let engine = ClusterConfig::default().engine_with(&store);
                let run = run_query(approach, &engine, &query, "pt", true)
                    .unwrap_or_else(|e| panic!("{id}/{approach:?}: {e}"));
                prop_assert!(run.succeeded(), "{}/{:?} failed: {:?}", id, approach, run.stats.failure);
                prop_assert_eq!(
                    run.solutions.as_ref().unwrap(),
                    &gold,
                    "{} / {:?}: MR result diverges from naive evaluator",
                    id,
                    approach
                );
            }
        }
    }

    /// Every shape under a random projection — any non-empty subset of its
    /// variables, its first variable named twice every other time — on
    /// every approach (the final β-unnest projects before it expands).
    #[test]
    fn random_projections_equal_naive_on_every_approach(store in arb_store(), pick in 1..u32::MAX) {
        for (i, (id, query)) in shapes().into_iter().enumerate() {
            let vars = query.variables();
            let mask = pick.rotate_left(i as u32 * 3);
            let mut chosen: Vec<String> =
                vars.iter().enumerate().filter(|(v, _)| mask & 1 << v != 0).map(|(_, v)| v.clone()).collect();
            chosen.extend(chosen.is_empty().then(|| vars[0].clone()));
            chosen.extend((mask & 1 << 31 != 0).then(|| chosen[0].clone()));
            let query = query.with_projection(chosen);
            let gold = rdf_query::naive::evaluate(&query, &store);
            for approach in approaches() {
                let engine = ClusterConfig::default().engine_with(&store);
                let run = run_query(approach, &engine, &query, "pp", true)
                    .unwrap_or_else(|e| panic!("{id}/{approach:?}: {e}"));
                prop_assert_eq!(
                    run.solutions.as_ref(),
                    Some(&gold),
                    "{} / {:?} / SELECT {:?}: MR result diverges from naive evaluator",
                    id,
                    approach,
                    query.projection
                );
            }
        }
    }
}

#[test]
fn deterministic_counters_across_runs() {
    let store = datagen::bsbm::generate(&datagen::BsbmConfig::with_products(40));
    let query = ntga::testbed::b_series().remove(1).query; // B1
    let run_once = || {
        let engine = ClusterConfig::default().engine_with(&store);
        let run = run_query(Approach::NtgaAuto(64), &engine, &query, "d", false).unwrap();
        (
            run.stats.total_read_bytes(),
            run.stats.total_write_bytes(),
            run.stats.total_shuffle_bytes(),
            run.stats.final_output_records(),
        )
    };
    assert_eq!(run_once(), run_once());
}

#[test]
fn counters_differ_between_strategies_but_results_do_not() {
    let store = datagen::bio2rdf::generate(&datagen::Bio2RdfConfig::with_genes(60));
    let query = ntga::testbed::a_series().remove(0).query; // A1
    let gold = rdf_query::naive::evaluate(&query, &store);
    let mut writes = Vec::new();
    for approach in [Approach::Hive, Approach::NtgaEager, Approach::NtgaLazyFull] {
        let engine = ClusterConfig::default().engine_with(&store);
        let run = run_query(approach, &engine, &query, "a1", true).unwrap();
        assert_eq!(run.solutions.unwrap(), gold, "{approach:?}");
        writes.push(run.stats.total_write_bytes());
    }
    // Hive writes flat rows; eager writes perfect TGs; lazy writes nested
    // AnnTGs. Strictly decreasing for A1 (paper: 63K tuples vs 7K vs 3K).
    assert!(writes[0] > writes[1], "Hive {} <= Eager {}", writes[0], writes[1]);
    assert!(writes[1] > writes[2], "Eager {} <= Lazy {}", writes[1], writes[2]);
}
