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
//! `μ^β`. No kernel runs here, so Lemma 1 checks the algebra itself
//! against the naive evaluator.

use crate::logical::{beta_group_filter, beta_unnest, group_by_subject, solutions};
use mr_rdf::next_combination;
use rdf_model::{Atom, STriple, TripleStore};
use rdf_query::{PropPattern, Query, SolutionRows, SolutionSet, StarPattern, TriplePattern};

/// Enumerate the concrete pattern combinations of the naive rewrite: for
/// each unbound pattern, substitute every property of the database.
///
/// With `u` unbound patterns and `|P|` database properties this yields
/// `|P|^u` fully-bound stars — the blow-up that motivates `σ^βγ`.
pub fn enumerate_combinations(star: &StarPattern, properties: &[Atom]) -> Vec<StarPattern> {
    let unbound_idx: Vec<usize> = star
        .patterns
        .iter()
        .enumerate()
        .filter(|(_, p)| p.is_unbound_property())
        .map(|(i, _)| i)
        .collect();
    if unbound_idx.is_empty() {
        return vec![star.clone()];
    }
    if properties.is_empty() {
        // No properties in the database: an unbound pattern cannot match
        // anything, so the disjunction is empty.
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut cursor = vec![0usize; unbound_idx.len()];
    loop {
        let mut patterns = star.patterns.clone();
        for (slot, &pat_i) in unbound_idx.iter().enumerate() {
            patterns[pat_i] = TriplePattern {
                subject: patterns[pat_i].subject.clone(),
                property: PropPattern::Bound(properties[cursor[slot]].clone()),
                object: patterns[pat_i].object.clone(),
            };
        }
        let mut concrete = StarPattern::new(star.subject_var.clone(), patterns);
        concrete.subject_filter = star.subject_filter.clone();
        out.push(concrete);
        if !next_combination(&mut cursor, |_| properties.len()) {
            return out;
        }
    }
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

/// Executable Lemma 1, the oracle of the property tests: the relational
/// star join (here: the naive evaluator over a single-star query), the
/// relaxed rewrite `μ^β(σ^βγ(γ(T)))` and the naive rewrite agree. Returns
/// the common solution set, or which interpretation disagreed.
pub fn check_rewrites(star: &StarPattern, store: &TripleStore) -> Result<SolutionSet, String> {
    let relational = rdf_query::naive::evaluate(&Query::new(vec![star.clone()]), store);
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
    use rdf_query::{ObjFilter, ObjPattern};

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
    fn unbound_variable_is_bound_in_enumerated_solutions() {
        let sols = evaluate_enumerated(&unbound_star(), &store());
        for b in sols.iter() {
            assert!(b.get("p").is_some(), "unbound var must be bound: {b}");
        }
    }
}
