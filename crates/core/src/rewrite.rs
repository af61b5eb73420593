//! Query rewrite rules (Section 3).
//!
//! The paper develops the NTGA interpretation of an unbound-property star
//! pattern in two steps:
//!
//! 1. A **naive rewrite**: an unbound-property star over bound properties
//!    `P_bnd` can be expressed as a *disjunction of concrete pattern
//!    combinations* — one `σ^γ` per element of
//!    `{P_bnd ∪ {p} | p ∈ P}` where `P` is the set of all properties in
//!    the database ([`enumerate_combinations`], [`evaluate_enumerated`]).
//!    Correct, but requires knowing `P` and evaluates `|P|` combinations.
//! 2. The **relaxed rewrite**: the β group-filter `σ^βγ` keeps any
//!    triplegroup containing all of `P_bnd` and defers the concrete
//!    unbound matches to β-unnest ([`evaluate_relaxed`]).
//!
//! The `enumeration_equals_relaxation` test is the executable form of the
//! paper's correctness/sufficiency argument: both interpretations produce
//! the same solutions, and the relaxed one never touches the database's
//! property inventory.
//!
//! [`check_rewrites`] is the executable statement of **Lemma 1**: the
//! relational star join `T_P1 ⋈ … ⋈ T_Pn ⋈ T` is content-equivalent to
//! `μ^β(σ^βγ(γ(T)))`, and so is the naive rewrite. Both rewrites are built from
//! [`crate::logical`] and expanded to solutions by [`solutions`], its final
//! `μ^β`; the relational side is [`evaluate_relational`], built from the
//! relational specification `relbase::logical`. No kernel runs here, so
//! Lemma 1 compares the two specifications with each other and with the
//! naive evaluator, the third and independent oracle.

use crate::logical::{beta_group_filter, beta_unnest, group_by_subject, solutions};
use mr_rdf::RowSchema;
use rdf_model::{Atom, STriple, TripleStore};
use rdf_query::{PropPattern, Query, SolutionRows, SolutionSet, StarPattern};
use relbase::logical::{row_join, star_join};
use relbase::star_schema;
use std::collections::BTreeMap;

/// Enumerate the concrete pattern combinations of the naive rewrite: for
/// each unbound pattern, substitute every property of the database.
///
/// With `u` unbound patterns and `|P|` database properties this yields
/// `|P|^u` fully-bound stars — the blow-up that motivates `σ^βγ`.
pub fn enumerate_combinations(star: &StarPattern, properties: &[Atom]) -> Vec<StarPattern> {
    // One unbound pattern at a time, each star so far crossed with every
    // property, so the last unbound pattern's property varies fastest. No
    // property in the database leaves an unbound star no combination.
    let unbound = star.patterns.iter().enumerate().filter(|(_, p)| p.is_unbound_property());
    unbound.fold(vec![star.clone()], |stars, (i, _)| {
        let bind = |s: &StarPattern, p: &Atom| {
            let mut concrete = s.clone();
            concrete.patterns[i].property = PropPattern::Bound(p.clone());
            concrete
        };
        stars.iter().flat_map(|s| properties.iter().map(move |p| bind(s, p))).collect()
    })
}

/// Add the solutions of `star` over `triples` to `out`: `μ^β(σ^βγ(γ(T)))`,
/// each perfect triplegroup expanded by the algebra's final β-unnest. `star`
/// is `original`, or `original` with properties substituted for unbound
/// variables: for a combination that substituted property `p` for `?v`,
/// every solution binds `?v = p`.
fn add_solutions(
    star: &StarPattern,
    original: &StarPattern,
    triples: &[STriple],
    out: &mut SolutionRows,
) {
    let substituted: Vec<(&str, &Atom)> = original
        .patterns
        .iter()
        .zip(&star.patterns)
        .filter_map(|(orig, conc)| match (&orig.property, &conc.property) {
            (PropPattern::Unbound(var), PropPattern::Bound(prop)) => Some((var.as_str(), prop)),
            _ => None,
        })
        .collect();
    // Over a concrete star, which is bound-only, σ^βγ is σ^γ and μ^β is the
    // identity.
    let anns = beta_group_filter(&group_by_subject(triples), star, 0);
    for perfect in anns.iter().flat_map(beta_unnest) {
        for b in solutions(&[perfect], &[star]).into_iter().flatten() {
            // Re-introduce the unbound property variables: each must agree
            // with what the solution or an earlier substitution already binds.
            let value = |var: &str| {
                let by_substitution =
                    || substituted.iter().find(|(v, _)| *v == var).map(|&(_, p)| p);
                b.get(var).or_else(by_substitution)
            };
            if substituted.iter().all(|&(var, prop)| value(var) == Some(prop)) {
                let row: Vec<&Atom> = out.vars().iter().filter_map(|v| value(v)).collect();
                let ids: Vec<u32> = row.iter().map(|v| out.intern(v)).collect();
                out.push(ids);
            }
        }
    }
}

/// Naive-rewrite evaluation of a single unbound-property star: union of
/// the σ^γ results over all enumerated concrete combinations.
pub fn evaluate_enumerated(star: &StarPattern, store: &TripleStore) -> SolutionSet {
    let properties = store.properties();
    let mut out = SolutionRows::new(Query::new(vec![star.clone()]).solution_vars());
    for concrete in enumerate_combinations(star, &properties) {
        add_solutions(&concrete, star, store.triples(), &mut out);
    }
    out.finish()
}

/// Relaxed evaluation: `μ^β(σ^βγ(γ(T)))`, expanded to solutions.
pub fn evaluate_relaxed(star: &StarPattern, store: &TripleStore) -> SolutionSet {
    let mut out = SolutionRows::new(Query::new(vec![star.clone()]).solution_vars());
    add_solutions(star, star, store.triples(), &mut out);
    out.finish()
}

/// The relational interpretation of `query`, from `relbase::logical`:
/// each star's star join, joined in [`Query::left_deep_order`] by row joins
/// on the step's variable, each row projected to the solution variables.
/// A row two of whose columns bind one variable to different tokens is no
/// solution: the selection a natural join makes on the variables the row
/// joins did not key on. An error names a query no left-deep order covers.
pub fn evaluate_relational(query: &Query, store: &TripleStore) -> Result<SolutionSet, String> {
    let relation = |i: usize| {
        let star = query.stars.get(i).ok_or("a query without stars")?;
        Ok::<_, String>((star_schema(star), star_join(star, store.triples())))
    };
    let (mut schema, mut rows) = relation(0)?;
    for step in query.left_deep_order().map_err(|e| e.to_string())? {
        let (right_schema, right) = relation(step.star)?;
        let key = |s: &RowSchema| s.index_of(&step.var).ok_or("no column binds a join variable");
        rows = row_join(&rows, key(&schema)?, &right, key(&right_schema)?);
        schema = schema.concat(&right_schema);
    }
    let mut out = SolutionRows::new(query.solution_vars());
    for row in &rows {
        let mut binding: BTreeMap<&str, &Atom> = BTreeMap::new();
        let mut columns = schema.cols.iter().zip(row).filter_map(|(v, x)| Some((v.as_deref()?, x)));
        if columns.all(|(var, value)| *binding.entry(var).or_insert(value) == value) {
            let values: Vec<&Atom> =
                out.vars().iter().filter_map(|v| binding.get(&**v).copied()).collect();
            let ids: Vec<u32> = values.into_iter().map(|v| out.intern(v)).collect();
            out.push(ids);
        }
    }
    Ok(out.finish())
}

/// Executable Lemma 1, the oracle of the property tests: the relational
/// star join ([`evaluate_relational`] over a single-star query), the
/// relaxed rewrite `μ^β(σ^βγ(γ(T)))`, the naive rewrite and the naive
/// evaluator agree. Returns the common solution set, or which
/// interpretation disagreed.
pub fn check_rewrites(star: &StarPattern, store: &TripleStore) -> Result<SolutionSet, String> {
    let query = Query::new(vec![star.clone()]);
    let relational = evaluate_relational(&query, store)?;
    if relational != rdf_query::naive::evaluate(&query, store) {
        return Err("the relational star join disagrees with the naive evaluator".into());
    }
    let relaxed = evaluate_relaxed(star, store);
    if relaxed != relational {
        return Err("σ^βγ/μ^β disagrees with the relational interpretation".into());
    }
    let enumerated = evaluate_enumerated(star, store);
    if enumerated != relational {
        return Err("σ^γ enumeration disagrees with the relational interpretation".into());
    }
    Ok(relational)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_query::{ObjFilter, ObjPattern, TriplePattern};

    fn store() -> TripleStore {
        TripleStore::from_triples(vec![
            STriple::new("<g1>", "<label>", "\"a\""),
            STriple::new("<g1>", "<xGO>", "<go1>"),
            STriple::new("<g1>", "<xGO>", "<go2>"),
            STriple::new("<g1>", "<syn>", "\"s\""),
            STriple::new("<g2>", "<label>", "\"b\""),
            STriple::new("<g2>", "<pathway>", "<pw>"),
        ])
    }

    fn unbound_star() -> StarPattern {
        StarPattern::new(
            "g",
            vec![
                TriplePattern::bound("g", "<label>", ObjPattern::Var("l".into())),
                TriplePattern::unbound("g", "p", ObjPattern::Var("o".into())),
            ],
        )
    }

    #[test]
    fn enumeration_size_is_property_count() {
        let props = store().properties();
        let combos = enumerate_combinations(&unbound_star(), &props);
        assert_eq!(combos.len(), props.len());
        for c in &combos {
            assert!(!c.has_unbound());
        }
    }

    #[test]
    fn enumeration_of_double_unbound_is_squared() {
        let star = StarPattern::new(
            "g",
            vec![
                TriplePattern::bound("g", "<label>", ObjPattern::Var("l".into())),
                TriplePattern::unbound("g", "p1", ObjPattern::Var("o1".into())),
                TriplePattern::unbound("g", "p2", ObjPattern::Var("o2".into())),
            ],
        );
        let props = store().properties();
        assert_eq!(enumerate_combinations(&star, &props).len(), props.len() * props.len());
    }

    #[test]
    fn bound_star_enumerates_to_itself() {
        let star = StarPattern::new(
            "g",
            vec![TriplePattern::bound("g", "<label>", ObjPattern::Var("l".into()))],
        );
        let combos = enumerate_combinations(&star, &store().properties());
        assert_eq!(combos, vec![star]);
    }

    #[test]
    fn enumeration_equals_relaxation() {
        // The paper's correctness & sufficiency of the rewrite rules.
        let sols = check_rewrites(&unbound_star(), &store()).unwrap();
        // g1: 4 candidates; g2: 2 candidates.
        assert_eq!(sols.len(), 6);
    }

    #[test]
    fn rewrites_agree_with_partially_bound_object() {
        let star = StarPattern::new(
            "g",
            vec![
                TriplePattern::bound("g", "<label>", ObjPattern::Var("l".into())),
                TriplePattern::unbound(
                    "g",
                    "p",
                    ObjPattern::Filtered("o".into(), ObjFilter::Prefix("<go".into())),
                ),
            ],
        );
        let sols = check_rewrites(&star, &store()).unwrap();
        assert_eq!(sols.len(), 2); // go1, go2 on g1 only
    }

    #[test]
    fn rewrites_agree_with_double_unbound() {
        let star = StarPattern::new(
            "g",
            vec![
                TriplePattern::bound("g", "<label>", ObjPattern::Var("l".into())),
                TriplePattern::unbound("g", "p1", ObjPattern::Var("o1".into())),
                TriplePattern::unbound("g", "p2", ObjPattern::Var("o2".into())),
            ],
        );
        let sols = check_rewrites(&star, &store()).unwrap();
        // g1: 4×4; g2: 2×2.
        assert_eq!(sols.len(), 20);
    }

    #[test]
    fn relational_side_selects_on_variables_no_row_join_keys_on() {
        // The stars share ?o, the join key, and ?l, which no row join keys
        // on: a row binding ?l to two tokens is no solution.
        let q =
            rdf_query::parse_query("SELECT * WHERE { ?g <xGO> ?o . ?g <label> ?l . ?o <gl> ?l . }")
                .unwrap();
        let store = TripleStore::from_triples(vec![
            STriple::new("<g1>", "<label>", "\"a\""),
            STriple::new("<g1>", "<xGO>", "<go1>"),
            STriple::new("<g2>", "<label>", "\"b\""),
            STriple::new("<g2>", "<xGO>", "<go1>"),
            STriple::new("<go1>", "<gl>", "\"a\""),
        ]);
        let sols = evaluate_relational(&q, &store).unwrap();
        assert_eq!(sols, rdf_query::naive::evaluate(&q, &store));
        assert_eq!(sols.len(), 1);
    }

    #[test]
    fn unbound_variable_is_bound_in_enumerated_solutions() {
        let sols = evaluate_enumerated(&unbound_star(), &store());
        for b in sols.iter() {
            assert!(b.get("p").is_some(), "unbound var must be bound: {b}");
        }
    }
}
