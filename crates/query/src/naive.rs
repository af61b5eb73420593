//! Naive reference evaluator.
//!
//! A direct backtracking matcher over an in-memory [`TripleStore`]. It is
//! deliberately simple — correctness over speed — and serves as the gold
//! standard every MapReduce strategy (relational and NTGA) is tested
//! against: all five execution paths must produce exactly this
//! [`SolutionSet`].
//!
//! Semantics notes mirroring the paper:
//!
//! * A triple may play **multiple roles**: it can match a bound-property
//!   pattern and an unbound-property pattern of the same star
//!   simultaneously (Section 3, "triples playing multiple roles").
//! * Set semantics: duplicate bindings collapse.

use crate::bindings::{SolutionRows, SolutionSet};
use crate::pattern::{ObjFilter, ObjPattern, PropPattern, SubjPattern, TriplePattern};
use crate::query::Query;
use rdf_model::{Atom, STriple, TripleStore};
use std::collections::HashMap;

/// The variables bound so far on one branch of the search: a slot per
/// query variable.
#[derive(Clone)]
struct Partial<'q> {
    vars: &'q [String],
    values: Vec<Option<Atom>>,
}

impl Partial<'_> {
    /// Bind `var` to `value`; `false` (and no change) if `var` is already
    /// bound to a *different* value.
    fn bind(&mut self, var: &str, value: &Atom) -> bool {
        let slot = self.vars.iter().position(|v| v == var).expect("a pattern's variable");
        match &self.values[slot] {
            Some(existing) => existing == value,
            None => {
                self.values[slot] = Some(value.clone());
                true
            }
        }
    }
}

/// Evaluate `query` against `store` by brute-force backtracking.
///
/// The result honours the query's projection, if any.
pub fn evaluate(query: &Query, store: &TripleStore) -> SolutionSet {
    // Index triples by property for bound patterns; unbound patterns scan
    // everything.
    let mut by_prop: HashMap<&str, Vec<&STriple>> = HashMap::new();
    for t in store.iter() {
        by_prop.entry(&t.p).or_default().push(t);
    }
    let all: Vec<&STriple> = store.iter().collect();

    // Pair every pattern with its star's subject filter so constant-subject
    // stars ("everything about <X>") restrict matches.
    let patterns: Vec<(&TriplePattern, Option<&ObjFilter>)> = query
        .stars
        .iter()
        .flat_map(|star| star.patterns.iter().map(move |p| (p, star.subject_filter.as_ref())))
        .collect();
    let vars = query.variables();
    let mut solutions = SolutionRows::new(query.solution_vars());
    let mut binding = Partial { vars: &vars, values: vec![None; vars.len()] };
    backtrack(&patterns, 0, &by_prop, &all, &mut binding, &mut solutions);
    solutions.finish()
}

fn backtrack(
    patterns: &[(&TriplePattern, Option<&ObjFilter>)],
    i: usize,
    by_prop: &HashMap<&str, Vec<&STriple>>,
    all: &[&STriple],
    binding: &mut Partial<'_>,
    out: &mut SolutionRows,
) {
    if i == patterns.len() {
        // Every variable occurs in some pattern, and every pattern matched.
        let value = |var| binding.values[binding.vars.iter().position(|v| v == var)?].clone();
        let row: Vec<Atom> = out.vars().iter().filter_map(value).collect();
        let ids: Vec<u32> = row.iter().map(|v| out.intern(v)).collect();
        out.push(ids);
        return;
    }
    let (pat, subj_filter) = patterns[i];
    let candidates: &[&STriple] = match &pat.property {
        PropPattern::Bound(p) => by_prop.get(&**p).map_or(&[][..], Vec::as_slice),
        PropPattern::Unbound(_) => all,
    };
    for t in candidates {
        if !pat.matches_structurally(t) {
            continue;
        }
        if let Some(f) = subj_filter {
            if !f.accepts(&t.s) {
                continue;
            }
        }
        let snapshot = binding.clone();
        if try_bind(pat, t, binding) {
            backtrack(patterns, i + 1, by_prop, all, binding, out);
        }
        *binding = snapshot;
    }
}

/// Extend `binding` with the variable assignments a triple induces for a
/// pattern; `false` on conflict with existing assignments.
fn try_bind(pat: &TriplePattern, t: &STriple, binding: &mut Partial<'_>) -> bool {
    if let SubjPattern::Var(v) = &pat.subject {
        if !binding.bind(v, &t.s) {
            return false;
        }
    }
    if let PropPattern::Unbound(v) = &pat.property {
        if !binding.bind(v, &t.p) {
            return false;
        }
    }
    match &pat.object {
        ObjPattern::Var(v) | ObjPattern::Filtered(v, _) => {
            if !binding.bind(v, &t.o) {
                return false;
            }
        }
        ObjPattern::Const(_) => {}
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{ObjFilter, ObjPattern, TriplePattern};
    use crate::star::StarPattern;
    use rdf_model::atom::atom;

    fn store() -> TripleStore {
        TripleStore::from_triples(vec![
            STriple::new("<gene9>", "<label>", "\"retinoid\""),
            STriple::new("<gene9>", "<xGO>", "<go1>"),
            STriple::new("<gene9>", "<xGO>", "<go9>"),
            STriple::new("<gene9>", "<synonym>", "\"RCoR-1\""),
            STriple::new("<homod2>", "<label>", "\"homeo2\""),
            STriple::new("<go1>", "<go_label>", "\"nucleus\""),
            STriple::new("<go9>", "<go_label>", "\"membrane\""),
        ])
    }

    fn star(subject: &str, pats: Vec<TriplePattern>) -> StarPattern {
        StarPattern::new(subject, pats)
    }

    #[test]
    fn bound_star_join() {
        // ?g <label> ?l ; ?g <xGO> ?go
        let q = Query::new(vec![star(
            "g",
            vec![
                TriplePattern::bound("g", "<label>", ObjPattern::Var("l".into())),
                TriplePattern::bound("g", "<xGO>", ObjPattern::Var("go".into())),
            ],
        )]);
        let sols = evaluate(&q, &store());
        // gene9 has 1 label × 2 xGO = 2 solutions; homod2 has no xGO.
        assert_eq!(sols.len(), 2);
    }

    #[test]
    fn unbound_property_star() {
        // ?g <label> ?l ; ?g ?p ?o — every triple of a labelled subject
        // matches the unbound pattern (including the label triple itself:
        // multiple roles).
        let q = Query::new(vec![star(
            "g",
            vec![
                TriplePattern::bound("g", "<label>", ObjPattern::Var("l".into())),
                TriplePattern::unbound("g", "p", ObjPattern::Var("o".into())),
            ],
        )]);
        let sols = evaluate(&q, &store());
        // gene9: 4 triples -> 4; homod2: 1 triple -> 1.
        assert_eq!(sols.len(), 5);
        // The label triple itself appears as an unbound match.
        assert!(sols.iter().any(|b| {
            b.get("p").map(|p| &**p == "<label>").unwrap_or(false)
                && b.get("o").map(|o| &**o == "\"retinoid\"").unwrap_or(false)
        }));
    }

    #[test]
    fn partially_bound_object() {
        // ?g ?p ?o FILTER contains(?o, "go") — IRIs <go1>, <go9>.
        let q = Query::new(vec![star(
            "g",
            vec![TriplePattern::unbound(
                "g",
                "p",
                ObjPattern::Filtered("o".into(), ObjFilter::Contains("go".into())),
            )],
        )]);
        let sols = evaluate(&q, &store());
        assert_eq!(sols.len(), 2);
    }

    #[test]
    fn two_star_os_join_on_unbound_object() {
        // ?g <label> ?l ; ?g ?p ?go . ?go <go_label> ?gl
        let q = Query::new(vec![
            star("g", vec![TriplePattern::bound("g", "<label>", ObjPattern::Var("go".into()))]),
            star(
                "go",
                vec![TriplePattern::bound("go", "<go_label>", ObjPattern::Var("gl".into()))],
            ),
        ]);
        // label objects are literals, no go_label -> empty
        assert!(evaluate(&q, &store()).is_empty());

        let q2 = Query::new(vec![
            star(
                "g",
                vec![
                    TriplePattern::bound("g", "<label>", ObjPattern::Var("l".into())),
                    TriplePattern::unbound("g", "p", ObjPattern::Var("go".into())),
                ],
            ),
            star(
                "go",
                vec![TriplePattern::bound("go", "<go_label>", ObjPattern::Var("gl".into()))],
            ),
        ]);
        let sols = evaluate(&q2, &store());
        // gene9's unbound matches that have go_label: <go1>, <go9> -> 2.
        assert_eq!(sols.len(), 2);
    }

    #[test]
    fn projection_applies() {
        let q = Query::new(vec![star(
            "g",
            vec![
                TriplePattern::bound("g", "<label>", ObjPattern::Var("l".into())),
                TriplePattern::bound("g", "<xGO>", ObjPattern::Var("go".into())),
            ],
        )])
        .with_projection(vec!["g".into()]);
        let sols = evaluate(&q, &store());
        assert_eq!(sols.len(), 1); // both go-solutions collapse to gene9
    }

    #[test]
    fn shared_object_var_within_star() {
        // ?g <xGO> ?x ; ?g ?p ?x — ?x must be the same value.
        let q = Query::new(vec![star(
            "g",
            vec![
                TriplePattern::bound("g", "<xGO>", ObjPattern::Var("x".into())),
                TriplePattern::unbound("g", "p", ObjPattern::Var("x".into())),
            ],
        )]);
        let sols = evaluate(&q, &store());
        // For each xGO value, the unbound pattern must also hit that value:
        // only the xGO triple itself does. 2 solutions, p = <xGO>.
        assert_eq!(sols.len(), 2);
        for b in sols.iter() {
            assert_eq!(&**b.get("p").unwrap(), "<xGO>");
        }
    }

    #[test]
    fn double_unbound_same_star() {
        // ?h <label> ?l ; ?h ?p1 ?o1 ; ?h ?p2 ?o2 on homod2 (1 triple):
        // p1 and p2 can both bind to <label>.
        let q = Query::new(vec![star(
            "h",
            vec![
                TriplePattern::bound("h", "<label>", ObjPattern::Var("l".into())),
                TriplePattern::unbound("h", "p1", ObjPattern::Var("o1".into())),
                TriplePattern::unbound("h", "p2", ObjPattern::Var("o2".into())),
            ],
        )]);
        let sols = evaluate(&q, &store());
        // gene9: 4×4 = 16; homod2: 1×1 = 1.
        assert_eq!(sols.len(), 17);
    }

    #[test]
    fn empty_store_empty_result() {
        let q = Query::new(vec![star(
            "g",
            vec![TriplePattern::bound("g", "<label>", ObjPattern::Var("l".into()))],
        )]);
        assert!(evaluate(&q, &TripleStore::new()).is_empty());
    }

    #[test]
    fn const_object_filtering() {
        let q = Query::new(vec![star(
            "g",
            vec![TriplePattern::bound("g", "<xGO>", ObjPattern::Const(atom("<go1>")))],
        )]);
        let sols = evaluate(&q, &store());
        assert_eq!(sols.len(), 1);
    }
}
