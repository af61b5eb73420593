//! Planner support checks.
//!
//! The MapReduce planners (relational and NTGA) compile star subpatterns
//! into grouped cross-product evaluation, which assumes patterns within a
//! star are independent. The testbed queries of the paper all satisfy
//! these constraints; queries that don't are still answerable by the
//! naive evaluator, and the planners reject them *up front* with a clear
//! error instead of silently computing wrong answers.

use rdf_query::{Query, StarPattern};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// A query shape the MapReduce planners do not support.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnsupportedReason {
    /// Two bound patterns in one star use the same property (the nested
    /// property→objects representation cannot tell their matches apart).
    DuplicateBoundProperty {
        /// Subject variable of the offending star.
        star: String,
        /// The duplicated property token.
        property: String,
    },
    /// A variable occurs in more than one pattern position within a star
    /// (cross-product evaluation would need intra-star value consistency).
    SharedVarWithinStar {
        /// Subject variable of the offending star.
        star: String,
        /// The shared variable.
        var: String,
    },
    /// Two stars share more than one variable (the TG join key is a single
    /// variable).
    MultiVarJoin {
        /// Subject variable of the left star.
        left: String,
        /// Subject variable of the right star.
        right: String,
    },
    /// The cost-based plan search enumerates 2^stars unnest placements and
    /// refuses queries with more stars than it will enumerate.
    TooManyStars {
        /// Stars in the query.
        stars: usize,
        /// Most stars the plan search accepts.
        limit: usize,
    },
    /// Figure 3's Sel-SJ-first grouping is defined for two-star queries.
    NotTwoStars {
        /// Stars in the query.
        stars: usize,
    },
}

impl fmt::Display for UnsupportedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnsupportedReason::DuplicateBoundProperty { star, property } => {
                write!(f, "star ?{star}: property {property} appears in two bound patterns")
            }
            UnsupportedReason::SharedVarWithinStar { star, var } => {
                write!(f, "star ?{star}: variable ?{var} appears in multiple patterns")
            }
            UnsupportedReason::MultiVarJoin { left, right } => {
                write!(f, "stars ?{left} and ?{right} share more than one variable")
            }
            UnsupportedReason::TooManyStars { stars, limit } => {
                write!(f, "{stars} stars; the cost-based plan search takes at most {limit}")
            }
            UnsupportedReason::NotTwoStars { stars } => {
                write!(f, "{stars} stars; Sel-SJ-first groups the star joins of two")
            }
        }
    }
}

impl std::error::Error for UnsupportedReason {}

/// Variables occurring in property/object positions (not the shared
/// subject position) across a star's patterns, with repetition.
fn star_non_subject_vars(star: &StarPattern) -> Vec<String> {
    let mut out = Vec::new();
    for p in &star.patterns {
        if let rdf_query::PropPattern::Unbound(v) = &p.property {
            out.push(v.clone());
        }
        if let Some(v) = p.object.var() {
            out.push(v.to_string());
        }
    }
    out
}

/// Check one star for planner support.
pub fn check_star(star: &StarPattern) -> Result<(), UnsupportedReason> {
    // Counted from the raw patterns: `bound_properties()` de-duplicates.
    let mut by_prop: HashMap<&str, usize> = HashMap::new();
    for p in star.bound_patterns() {
        if let rdf_query::PropPattern::Bound(prop) = &p.property {
            let c = by_prop.entry(prop).or_insert(0);
            *c += 1;
            if *c > 1 {
                return Err(UnsupportedReason::DuplicateBoundProperty {
                    star: star.subject_var.clone(),
                    property: prop.to_string(),
                });
            }
        }
    }
    let mut seen = HashSet::new();
    for v in star_non_subject_vars(star) {
        if v == star.subject_var || !seen.insert(v.clone()) {
            return Err(UnsupportedReason::SharedVarWithinStar {
                star: star.subject_var.clone(),
                var: v,
            });
        }
    }
    Ok(())
}

/// Check a whole query for planner support.
pub fn check_query(query: &Query) -> Result<(), UnsupportedReason> {
    for star in &query.stars {
        check_star(star)?;
    }
    // No star pair may share more than one variable.
    let mut pair_vars: HashMap<(usize, usize), usize> = HashMap::new();
    for e in query.join_edges() {
        let c = pair_vars.entry((e.left, e.right)).or_insert(0);
        *c += 1;
        if *c > 1 {
            return Err(UnsupportedReason::MultiVarJoin {
                left: query.stars[e.left].subject_var.clone(),
                right: query.stars[e.right].subject_var.clone(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_query::{ObjPattern, TriplePattern};

    #[test]
    fn accepts_testbed_shapes() {
        let q =
            rdf_query::parse_query("SELECT * WHERE { ?g <label> ?l . ?g ?p ?go . ?go <gl> ?x . }")
                .unwrap();
        check_query(&q).unwrap();
    }

    #[test]
    fn rejects_duplicate_bound_property() {
        let star = StarPattern::new(
            "x",
            vec![
                TriplePattern::bound("x", "<p>", ObjPattern::Var("a".into())),
                TriplePattern::bound("x", "<p>", ObjPattern::Var("b".into())),
            ],
        );
        assert!(matches!(check_star(&star), Err(UnsupportedReason::DuplicateBoundProperty { .. })));
    }

    #[test]
    fn rejects_shared_var_within_star() {
        let star = StarPattern::new(
            "x",
            vec![
                TriplePattern::bound("x", "<p>", ObjPattern::Var("a".into())),
                TriplePattern::unbound("x", "q", ObjPattern::Var("a".into())),
            ],
        );
        assert!(matches!(check_star(&star), Err(UnsupportedReason::SharedVarWithinStar { .. })));
    }

    #[test]
    fn rejects_subject_as_own_object() {
        let star = StarPattern::new(
            "x",
            vec![TriplePattern::bound("x", "<p>", ObjPattern::Var("x".into()))],
        );
        assert!(check_star(&star).is_err());
    }

    #[test]
    fn rejects_multi_var_join() {
        let q = rdf_query::Query::new(vec![
            StarPattern::new(
                "a",
                vec![
                    TriplePattern::bound("a", "<p>", ObjPattern::Var("x".into())),
                    TriplePattern::bound("a", "<q>", ObjPattern::Var("y".into())),
                ],
            ),
            StarPattern::new(
                "b",
                vec![
                    TriplePattern::bound("b", "<r>", ObjPattern::Var("x".into())),
                    TriplePattern::bound("b", "<s>", ObjPattern::Var("y".into())),
                ],
            ),
        ]);
        assert!(matches!(check_query(&q), Err(UnsupportedReason::MultiVarJoin { .. })));
    }
}
