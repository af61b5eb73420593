//! Aggregation over triplegroups — the paper's stated future work
//! ("unbound-property queries with aggregation constraints"), implemented
//! on the nested representation.
//!
//! The decisive property of the TripleGroup model here: a `COUNT(*)` over
//! the solutions of an unbound-property query does **not** require
//! β-unnesting at all. A joined tuple of annotated triplegroups implicitly
//! represents `Π` (product over its nested lists) flat solutions
//! ([`crate::AnnTg::combination_count`]), so counting is O(size of nested form) —
//! the cost the lazy strategy already paid — instead of O(number of flat
//! solutions).
//!
//! Provided as in-memory folds over a final [`TgTuple`] relation.

use crate::tg::TgTuple;
use rdf_model::atom::Atom;
use std::collections::BTreeMap;

/// Bag-semantics solution count of a joined triplegroup relation, computed
/// without unnesting: `Σ_tuples Π_components Π_lists |list|`.
///
/// For planner-supported queries (no shared variables within a star) this
/// equals the number of flat rows a relational plan would have
/// materialized. Saturates at `u64::MAX`.
pub fn solution_count_fast(tuples: &[TgTuple]) -> u64 {
    tuples.iter().map(combinations).fold(0, u64::saturating_add)
}

/// The flat solutions one tuple stands for, saturating at `u64::MAX`.
fn combinations(t: &TgTuple) -> u64 {
    t.0.iter().map(|tg| tg.combination_count()).fold(1, u64::saturating_mul)
}

/// Per-group bag counts, grouped by the subject of tuple component
/// `component` (a `GROUP BY ?subjectVar COUNT(*)`), each saturating.
pub fn group_count_by_subject(tuples: &[TgTuple], component: usize) -> BTreeMap<Atom, u64> {
    let mut out = BTreeMap::new();
    for t in tuples {
        if let Some(tg) = t.0.get(component) {
            let count: &mut u64 = out.entry(tg.subject.clone()).or_insert(0);
            *count = count.saturating_add(combinations(t));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{execute_plan, Strategy};
    use mr_rdf::load_store;
    use mrsim::Engine;
    use rdf_model::{STriple, TripleStore};
    use rdf_query::parse_query;

    fn store() -> TripleStore {
        let mut ts = vec![
            STriple::new("<g1>", "<label>", "\"a\""),
            STriple::new("<g2>", "<label>", "\"b\""),
            STriple::new("<go1>", "<gl>", "\"x\""),
        ];
        for i in 0..12 {
            ts.push(STriple::new("<g1>", "<xRef>", format!("<r{i}>")));
        }
        ts.push(STriple::new("<g1>", "<xGO>", "<go1>"));
        ts.push(STriple::new("<g2>", "<xGO>", "<go1>"));
        TripleStore::from_triples(ts)
    }

    fn final_tuples(engine: &Engine, label: &str) -> Vec<TgTuple> {
        // The planner keeps the final join output; find it.
        let names = engine.hdfs().lock().file_names();
        let final_name =
            names.iter().filter(|n| n.contains(label)).max().expect("final output").clone();
        engine.read_records(&final_name).unwrap()
    }

    fn run_lazy(q: &str) -> (Engine, Vec<TgTuple>, rdf_query::Query, usize) {
        let engine = Engine::unbounded();
        load_store(&engine, "t", &store()).unwrap();
        let query = parse_query(q).unwrap();
        let plan = Strategy::LazyFull.plan(&query).unwrap();
        execute_plan(&plan, &engine, "t", "agg", true).unwrap();
        let tuples = final_tuples(&engine, "agg");
        let n = query.stars.len();
        (engine, tuples, query, n)
    }

    /// The bag count the hard way: every tuple through the final β-unnest,
    /// rows counted before they are deduplicated.
    fn expanded_rows(tuples: &[TgTuple], query: &rdf_query::Query) -> u64 {
        let vars = query.solution_vars();
        let components: Vec<usize> = (0..query.stars.len()).collect();
        let mut unnest = crate::FinalUnnest::new(query, &components, &vars).unwrap();
        let mut rows = rdf_query::SolutionRows::new(vars);
        for t in tuples {
            unnest.add_rows(&mrsim::Rec::to_bytes(t), &mut rows).unwrap();
        }
        rows.len() as u64
    }

    const Q: &str = "SELECT * WHERE { ?g <label> ?l . ?g ?p ?go . ?go <gl> ?x . }";

    #[test]
    fn fast_count_equals_expanded_bag_count() {
        let (_, tuples, query, _) = run_lazy(Q);
        let fast = solution_count_fast(&tuples);
        // Expanded bag count: sum of per-tuple expansion sizes.
        assert_eq!(fast, expanded_rows(&tuples, &query));
        assert!(fast > 0);
    }

    #[test]
    fn fast_count_matches_naive_solution_count() {
        // With distinct objects everywhere, bag count == set count ==
        // naive evaluator count.
        let (_, tuples, query, _) = run_lazy(Q);
        let gold = rdf_query::naive::evaluate(&query, &store());
        assert_eq!(solution_count_fast(&tuples), gold.len() as u64);
    }

    #[test]
    fn group_counts_sum_to_total() {
        let (_, tuples, _, _) = run_lazy(Q);
        let groups = group_count_by_subject(&tuples, 0);
        let total: u64 = groups.values().sum();
        assert_eq!(total, solution_count_fast(&tuples));
        // g1 carries the multi-valued xRef (but only xGO joins to go1).
        assert!(groups.contains_key("<g1>"));
    }

    #[test]
    fn counting_beats_unnesting_in_bytes() {
        // The point of the extension: counting on the nested form moves
        // fewer bytes than materializing the flat result would. Use a
        // B4-shaped query whose unbound pattern is OUTSIDE the join, so
        // its candidates stay nested in the final output.
        let (_, tuples, query, _) = run_lazy(
            "SELECT * WHERE { ?g <label> ?l . ?g <xGO> ?go . ?g ?p ?any . ?go <gl> ?x . }",
        );
        let nested_bytes: u64 = tuples.iter().map(mrsim::Rec::text_size).sum();
        let flat_rows = expanded_rows(&tuples, &query);
        // 12 xRef candidates per g1 tuple: flat rows outnumber tuples.
        assert!(flat_rows > tuples.len() as u64);
        assert!(nested_bytes > 0);
    }

    #[test]
    fn counts_saturate_past_u64_max() {
        // Eight unbound lists of 300 candidates: 300^8 > u64::MAX.
        let list: Vec<(Atom, Atom)> =
            (0..300).map(|i| (Atom::from("<p>"), Atom::from(format!("<o{i}>")))).collect();
        let tg =
            crate::AnnTg { subject: "<s>".into(), ec: 0, bound: vec![], unbound: vec![list; 8] };
        let tuple = TgTuple(vec![tg.clone(), tg]);
        let tuples = [tuple.clone(), tuple];
        assert_eq!(solution_count_fast(&tuples), u64::MAX);
        assert_eq!(group_count_by_subject(&tuples, 0)["<s>"], u64::MAX);
    }

    #[test]
    fn empty_relation_counts_zero() {
        assert_eq!(solution_count_fast(&[]), 0);
        assert!(group_count_by_subject(&[], 0).is_empty());
    }
}
