//! Cardinality estimation from store statistics.
//!
//! The cost-based optimizer (`ntga_core::optimizer`) prices every plan
//! with these estimates over [`StoreStats`]: per-pattern match counts
//! (property counts × filter selectivity), per-star subject counts, and
//! each star's flat-row (eager) and nested-pair (lazy) footprints.

use crate::pattern::{ObjFilter, ObjPattern, PropPattern, TriplePattern};
use crate::star::StarPattern;
use rdf_model::StoreStats;

/// Default selectivity assumed for a `Contains`/`Prefix` object filter
/// (the classic 1/10 guess for unanalyzed predicates).
pub const FILTER_SELECTIVITY: f64 = 0.1;

/// Selectivity of "object equals one constant" for a pattern: one value
/// out of the property's distinct objects (or the store's, for unbound
/// properties) — the classic `1/V(R, a)` estimate.
fn equals_selectivity(property: &PropPattern, stats: &StoreStats) -> f64 {
    let distinct = match property {
        PropPattern::Bound(p) => stats.per_property.get(p).map_or(0, |ps| ps.distinct_objects),
        PropPattern::Unbound(_) => stats.distinct_objects,
    };
    if distinct == 0 {
        1.0
    } else {
        1.0 / distinct as f64
    }
}

fn object_selectivity(pattern: &TriplePattern, stats: &StoreStats) -> f64 {
    match &pattern.object {
        ObjPattern::Var(_) => 1.0,
        ObjPattern::Const(_) | ObjPattern::Filtered(_, ObjFilter::Equals(_)) => {
            equals_selectivity(&pattern.property, stats)
        }
        ObjPattern::Filtered(_, _) => FILTER_SELECTIVITY,
    }
}

/// Estimated number of triples matching one pattern.
pub fn pattern_cardinality(pattern: &TriplePattern, stats: &StoreStats) -> f64 {
    let base = match &pattern.property {
        PropPattern::Bound(p) => stats.per_property.get(p).map_or(0.0, |ps| ps.count as f64),
        // Unbound property: the whole relation.
        PropPattern::Unbound(_) => stats.triples as f64,
    };
    base * object_selectivity(pattern, stats)
}

/// Estimated number of *subjects* matching a whole star (the size of its
/// triplegroup equivalence class).
///
/// Uses the **containment assumption** (the tighter pattern's subject set
/// is contained in the looser one's), which fits RDF schemas far better
/// than independence: in entity-centric data, subjects carrying a rare
/// property almost always carry the common ones too (every product with
/// `productFeature` also has `rdf:type` and `rdfs:label`), so the star's
/// subject count is governed by its most selective pattern.
pub fn star_subject_cardinality(star: &StarPattern, stats: &StoreStats) -> f64 {
    let total_subjects = stats.distinct_subjects as f64;
    if total_subjects == 0.0 {
        return 0.0;
    }
    let mut estimate = total_subjects;
    for pat in &star.patterns {
        let subjects = match &pat.property {
            PropPattern::Bound(p) => {
                stats.per_property.get(p).map_or(0.0, |ps| ps.distinct_subjects as f64)
            }
            PropPattern::Unbound(_) => total_subjects,
        };
        let bound = subjects * object_selectivity(pat, stats);
        estimate = estimate.min(bound);
    }
    if star.subject_filter.is_some() {
        estimate *= FILTER_SELECTIVITY;
    }
    estimate
}

/// Estimated number of flat rows a relational star join would produce:
/// product of per-pattern multiplicities over the matching subjects.
pub fn star_row_cardinality(star: &StarPattern, stats: &StoreStats) -> f64 {
    let subjects = star_subject_cardinality(star, stats);
    if subjects == 0.0 {
        return 0.0;
    }
    let mut per_subject = 1.0;
    for pat in &star.patterns {
        let mult = match &pat.property {
            PropPattern::Bound(p) => {
                stats.per_property.get(p).map_or(0.0, |ps| ps.mean_multiplicity)
            }
            PropPattern::Unbound(_) => {
                // Mean pairs per subject across the store.
                if stats.distinct_subjects == 0 {
                    0.0
                } else {
                    stats.triples as f64 / stats.distinct_subjects as f64
                }
            }
        };
        per_subject *= (mult * object_selectivity(pat, stats)).max(
            // A matching subject has at least one match per pattern.
            1.0,
        );
    }
    subjects * per_subject
}

/// Estimated number of `(property, object)` pairs across all triplegroups
/// matching a star — the size of the star's *nested* (lazy) equivalence
/// class, where each matching subject carries the union of its candidate
/// pairs instead of their cross product.
///
/// Where [`star_row_cardinality`] multiplies per-pattern multiplicities
/// (the flat/eager footprint), this sums them: a nested triplegroup stores
/// each candidate once. The ratio of the two is exactly the redundancy a
/// lazy plan avoids shipping, which is what a cost-based planner prices.
pub fn star_pair_cardinality(star: &StarPattern, stats: &StoreStats) -> f64 {
    let subjects = star_subject_cardinality(star, stats);
    if subjects == 0.0 {
        return 0.0;
    }
    let mut per_subject = 0.0;
    for pat in &star.patterns {
        let mult = match &pat.property {
            PropPattern::Bound(p) => {
                stats.per_property.get(p).map_or(0.0, |ps| ps.mean_multiplicity)
            }
            PropPattern::Unbound(_) => {
                if stats.distinct_subjects == 0 {
                    0.0
                } else {
                    stats.triples as f64 / stats.distinct_subjects as f64
                }
            }
        };
        per_subject += (mult * object_selectivity(pat, stats)).max(1.0);
    }
    subjects * per_subject
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::{STriple, TripleStore};

    fn stats() -> StoreStats {
        let mut triples = vec![
            STriple::new("<g1>", "<label>", "\"a\""),
            STriple::new("<g2>", "<label>", "\"b\""),
            STriple::new("<g3>", "<label>", "\"c\""),
            STriple::new("<g1>", "<rare>", "<x>"),
        ];
        for i in 0..10 {
            triples.push(STriple::new("<g1>", "<xRef>", format!("<r{i}>")));
        }
        TripleStore::from_triples(triples).stats()
    }

    #[test]
    fn bound_pattern_uses_property_count() {
        let s = stats();
        let label = TriplePattern::bound("g", "<label>", ObjPattern::Var("l".into()));
        assert_eq!(pattern_cardinality(&label, &s), 3.0);
        let rare = TriplePattern::bound("g", "<rare>", ObjPattern::Var("o".into()));
        assert_eq!(pattern_cardinality(&rare, &s), 1.0);
        let missing = TriplePattern::bound("g", "<nope>", ObjPattern::Var("o".into()));
        assert_eq!(pattern_cardinality(&missing, &s), 0.0);
    }

    #[test]
    fn unbound_pattern_is_the_whole_relation() {
        let s = stats();
        let unb = TriplePattern::unbound("g", "p", ObjPattern::Var("o".into()));
        assert_eq!(pattern_cardinality(&unb, &s), s.triples as f64);
    }

    #[test]
    fn filters_reduce_estimates() {
        let s = stats();
        let filtered = TriplePattern::unbound(
            "g",
            "p",
            ObjPattern::Filtered("o".into(), ObjFilter::Contains("x".into())),
        );
        let unfiltered = TriplePattern::unbound("g", "p", ObjPattern::Var("o".into()));
        assert!(pattern_cardinality(&filtered, &s) < pattern_cardinality(&unfiltered, &s));
    }

    #[test]
    fn rare_star_estimates_fewer_rows() {
        let s = stats();
        let common = StarPattern::new(
            "g",
            vec![
                TriplePattern::bound("g", "<label>", ObjPattern::Var("l".into())),
                TriplePattern::unbound("g", "p", ObjPattern::Var("o".into())),
            ],
        );
        let rare = StarPattern::new(
            "h",
            vec![
                TriplePattern::bound("h", "<rare>", ObjPattern::Var("x".into())),
                TriplePattern::bound("h", "<label>", ObjPattern::Var("l2".into())),
            ],
        );
        let (rare, common) = (star_row_cardinality(&rare, &s), star_row_cardinality(&common, &s));
        assert!(rare < common, "the <rare> star must estimate fewer rows: {rare} vs {common}");
    }

    #[test]
    fn multiplicity_inflates_row_estimates() {
        let s = stats();
        let with_xref = StarPattern::new(
            "g",
            vec![
                TriplePattern::bound("g", "<label>", ObjPattern::Var("l".into())),
                TriplePattern::bound("g", "<xRef>", ObjPattern::Var("r".into())),
            ],
        );
        let without = StarPattern::new(
            "g",
            vec![TriplePattern::bound("g", "<label>", ObjPattern::Var("l".into()))],
        );
        assert!(star_row_cardinality(&with_xref, &s) > star_row_cardinality(&without, &s));
    }

    #[test]
    fn nested_pairs_grow_slower_than_flat_rows() {
        let s = stats();
        let star = StarPattern::new(
            "g",
            vec![
                TriplePattern::bound("g", "<label>", ObjPattern::Var("l".into())),
                TriplePattern::bound("g", "<xRef>", ObjPattern::Var("r".into())),
                TriplePattern::unbound("g", "p", ObjPattern::Var("o".into())),
            ],
        );
        let pairs = star_pair_cardinality(&star, &s);
        let rows = star_row_cardinality(&star, &s);
        // Sum-of-multiplicities (nested) under product-of-multiplicities
        // (flat): the redundancy gap lazy plans avoid.
        assert!(pairs > 0.0);
        assert!(pairs < rows, "pairs {pairs} >= rows {rows}");
        assert_eq!(star_pair_cardinality(&star, &TripleStore::new().stats()), 0.0);
    }

    #[test]
    fn empty_store_estimates_zero() {
        let empty = TripleStore::new().stats();
        let star = StarPattern::new(
            "g",
            vec![TriplePattern::bound("g", "<p>", ObjPattern::Var("o".into()))],
        );
        assert_eq!(star_subject_cardinality(&star, &empty), 0.0);
        assert_eq!(star_row_cardinality(&star, &empty), 0.0);
    }

    #[test]
    fn subject_filter_tightens_estimate() {
        let s = stats();
        let plain = StarPattern::new(
            "g",
            vec![TriplePattern::unbound("g", "p", ObjPattern::Var("o".into()))],
        );
        let filtered = plain.clone().with_subject_filter(ObjFilter::Prefix("<g1".into()));
        assert!(star_subject_cardinality(&filtered, &s) < star_subject_cardinality(&plain, &s));
    }
}
