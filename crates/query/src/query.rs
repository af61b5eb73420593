//! Whole graph-pattern queries: stars plus the join structure between them.

use crate::star::StarPattern;
use std::collections::HashSet;
use std::fmt;

/// How two stars share a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Object of the left star = subject of the right star (the common
    /// "OS" join of the paper's test queries Q1a/Q1b/Q2a/Q2b, B-series).
    ObjectSubject,
    /// Subject of the left star = object of the right star.
    SubjectObject,
    /// Object variable on both sides ("OO" join, Q3a/Q3b).
    ObjectObject,
}

/// A join edge between two stars of a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinEdge {
    /// Index of the left star in [`Query::stars`].
    pub left: usize,
    /// Index of the right star.
    pub right: usize,
    /// The shared variable.
    pub var: String,
    /// Join shape.
    pub kind: JoinKind,
}

/// One step of [`Query::left_deep_order`]: join star `star` into the
/// accumulated left relation on the shared variable `var`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinStep {
    /// Index of the star joined in by this step.
    pub star: usize,
    /// The variable it shares with an already-joined star.
    pub var: String,
}

/// Errors raised by [`Query::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The query has no star patterns.
    Empty,
    /// Two stars use the same subject variable.
    DuplicateSubjectVar(String),
    /// The join graph does not connect all stars (cross products are not
    /// supported by the planners).
    Disconnected,
    /// A projection variable does not occur in any pattern.
    UnknownProjectionVar(String),
    /// A star has no triple patterns.
    EmptyStar(String),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Empty => write!(f, "query has no star patterns"),
            QueryError::DuplicateSubjectVar(v) => {
                write!(f, "two stars share the subject variable ?{v}")
            }
            QueryError::Disconnected => {
                write!(f, "stars are not connected by shared variables (cross product)")
            }
            QueryError::UnknownProjectionVar(v) => {
                write!(f, "projection variable ?{v} not bound by any pattern")
            }
            QueryError::EmptyStar(v) => write!(f, "star on ?{v} has no patterns"),
        }
    }
}

impl std::error::Error for QueryError {}

/// A graph pattern query: star subpatterns plus an optional projection.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The star subpatterns (join order follows planner decisions, not
    /// this order).
    pub stars: Vec<StarPattern>,
    /// Variables to project in results; `None` means all variables.
    pub projection: Option<Vec<String>>,
}

impl Query {
    /// A query over the given stars, projecting all variables.
    pub fn new(stars: Vec<StarPattern>) -> Self {
        Query { stars, projection: None }
    }

    /// Set the projection list.
    pub fn with_projection(mut self, vars: Vec<String>) -> Self {
        self.projection = Some(vars);
        self
    }

    /// All variables across all stars, in first-occurrence order.
    pub fn variables(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for s in &self.stars {
            for v in s.variables() {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
        }
        out
    }

    /// The header of this query's solutions: the projected variables — all
    /// of them under `SELECT *` — that some pattern binds, sorted, each
    /// once. [`Query::validate`] refuses a projection that names any other.
    pub fn solution_vars(&self) -> Vec<String> {
        let mut vars = self.variables();
        if let Some(projection) = &self.projection {
            vars.retain(|v| projection.contains(v));
        }
        vars.sort_unstable();
        vars
    }

    /// Number of unbound-property triple patterns in the whole query.
    pub fn unbound_pattern_count(&self) -> usize {
        self.stars.iter().map(|s| s.unbound_patterns().len()).sum()
    }

    /// Compute the join edges between stars (pairs sharing a variable).
    ///
    /// Object-subject sharing yields `ObjectSubject`/`SubjectObject`;
    /// object-object sharing yields `ObjectObject`. A variable shared in
    /// more ways than one produces one edge per way.
    pub fn join_edges(&self) -> Vec<JoinEdge> {
        let mut edges = Vec::new();
        for i in 0..self.stars.len() {
            for j in (i + 1)..self.stars.len() {
                let left = &self.stars[i];
                let right = &self.stars[j];
                let l_obj: HashSet<String> = left.object_vars().into_iter().collect();
                let r_obj: HashSet<String> = right.object_vars().into_iter().collect();
                if l_obj.contains(&right.subject_var) {
                    edges.push(JoinEdge {
                        left: i,
                        right: j,
                        var: right.subject_var.clone(),
                        kind: JoinKind::ObjectSubject,
                    });
                }
                if r_obj.contains(&left.subject_var) {
                    edges.push(JoinEdge {
                        left: i,
                        right: j,
                        var: left.subject_var.clone(),
                        kind: JoinKind::SubjectObject,
                    });
                }
                for v in l_obj.intersection(&r_obj) {
                    edges.push(JoinEdge {
                        left: i,
                        right: j,
                        var: v.clone(),
                        kind: JoinKind::ObjectObject,
                    });
                }
            }
        }
        edges
    }

    /// The left-deep join order every planner follows: start from star 0
    /// and repeatedly take the first edge of [`Query::join_edges`] with
    /// exactly one end already joined. One step per star after the first;
    /// [`QueryError::Disconnected`] when the edges do not reach every star.
    pub fn left_deep_order(&self) -> Result<Vec<JoinStep>, QueryError> {
        let edges = self.join_edges();
        let mut joined: HashSet<usize> = HashSet::from([0]);
        let mut steps = Vec::new();
        while joined.len() < self.stars.len() {
            let edge = edges
                .iter()
                .find(|e| joined.contains(&e.left) != joined.contains(&e.right))
                .ok_or(QueryError::Disconnected)?;
            let star = if joined.contains(&edge.left) { edge.right } else { edge.left };
            joined.insert(star);
            steps.push(JoinStep { star, var: edge.var.clone() });
        }
        Ok(steps)
    }

    /// Validate structural well-formedness. Planners call this before
    /// compiling.
    pub fn validate(&self) -> Result<(), QueryError> {
        if self.stars.is_empty() {
            return Err(QueryError::Empty);
        }
        let mut seen = HashSet::new();
        for s in &self.stars {
            if s.patterns.is_empty() {
                return Err(QueryError::EmptyStar(s.subject_var.clone()));
            }
            if !seen.insert(s.subject_var.clone()) {
                return Err(QueryError::DuplicateSubjectVar(s.subject_var.clone()));
            }
        }
        // Connectivity: the join order reaches every star.
        self.left_deep_order()?;
        if let Some(proj) = &self.projection {
            let vars = self.variables();
            for v in proj {
                if !vars.contains(v) {
                    return Err(QueryError::UnknownProjectionVar(v.clone()));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{ObjPattern, TriplePattern};

    fn two_star_os() -> Query {
        // ?g <xGO> ?go ; ?g <label> ?l . ?go <go_label> ?gl
        Query::new(vec![
            StarPattern::new(
                "g",
                vec![
                    TriplePattern::bound("g", "<xGO>", ObjPattern::Var("go".into())),
                    TriplePattern::bound("g", "<label>", ObjPattern::Var("l".into())),
                ],
            ),
            StarPattern::new(
                "go",
                vec![TriplePattern::bound("go", "<go_label>", ObjPattern::Var("gl".into()))],
            ),
        ])
    }

    #[test]
    fn os_join_detected() {
        let q = two_star_os();
        let edges = q.join_edges();
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].kind, JoinKind::ObjectSubject);
        assert_eq!(edges[0].var, "go");
        q.validate().unwrap();
    }

    #[test]
    fn oo_join_detected() {
        let q = Query::new(vec![
            StarPattern::new(
                "a",
                vec![TriplePattern::bound("a", "<p>", ObjPattern::Var("x".into()))],
            ),
            StarPattern::new(
                "b",
                vec![TriplePattern::bound("b", "<q>", ObjPattern::Var("x".into()))],
            ),
        ]);
        let edges = q.join_edges();
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].kind, JoinKind::ObjectObject);
        q.validate().unwrap();
    }

    #[test]
    fn disconnected_rejected() {
        let q = Query::new(vec![
            StarPattern::new(
                "a",
                vec![TriplePattern::bound("a", "<p>", ObjPattern::Var("x".into()))],
            ),
            StarPattern::new(
                "b",
                vec![TriplePattern::bound("b", "<q>", ObjPattern::Var("y".into()))],
            ),
        ]);
        assert_eq!(q.validate(), Err(QueryError::Disconnected));
    }

    #[test]
    fn left_deep_order_waits_for_a_crossing_edge() {
        // ?a -> ?g -> ?go, listed as [g, go, a]: star 2 (?a) shares no
        // variable with ?go, so the walk joins ?go first, then ?a.
        let mut q = two_star_os();
        q.stars.push(StarPattern::new(
            "a",
            vec![TriplePattern::bound("a", "<p>", ObjPattern::Var("g".into()))],
        ));
        assert_eq!(
            q.left_deep_order().unwrap(),
            vec![JoinStep { star: 1, var: "go".into() }, JoinStep { star: 2, var: "g".into() }]
        );
    }

    #[test]
    fn duplicate_subject_var_rejected() {
        let q = Query::new(vec![
            StarPattern::new(
                "a",
                vec![TriplePattern::bound("a", "<p>", ObjPattern::Var("x".into()))],
            ),
            StarPattern::new(
                "a",
                vec![TriplePattern::bound("a", "<q>", ObjPattern::Var("y".into()))],
            ),
        ]);
        assert!(matches!(q.validate(), Err(QueryError::DuplicateSubjectVar(_))));
    }

    #[test]
    fn empty_query_and_star_rejected() {
        assert_eq!(Query::new(vec![]).validate(), Err(QueryError::Empty));
        let q = Query::new(vec![StarPattern {
            subject_var: "a".into(),
            patterns: vec![],
            subject_filter: None,
        }]);
        assert!(matches!(q.validate(), Err(QueryError::EmptyStar(_))));
    }

    #[test]
    fn projection_validation() {
        let q = two_star_os().with_projection(vec!["g".into(), "gl".into()]);
        q.validate().unwrap();
        let bad = two_star_os().with_projection(vec!["nope".into()]);
        assert!(matches!(bad.validate(), Err(QueryError::UnknownProjectionVar(_))));
        // The solution header: sorted, each variable once, bound ones only.
        assert_eq!(two_star_os().solution_vars(), ["g", "gl", "go", "l"]);
        let twice = vec!["l".into(), "g".into(), "l".into(), "nope".into()];
        assert_eq!(two_star_os().with_projection(twice).solution_vars(), ["g", "l"]);
    }

    #[test]
    fn unbound_count() {
        let mut q = two_star_os();
        assert_eq!(q.unbound_pattern_count(), 0);
        q.stars[0].patterns.push(TriplePattern::unbound("g", "p", ObjPattern::Var("o".into())));
        assert_eq!(q.unbound_pattern_count(), 1);
    }

    #[test]
    fn single_star_valid() {
        let q = Query::new(vec![StarPattern::new(
            "a",
            vec![TriplePattern::bound("a", "<p>", ObjPattern::Var("x".into()))],
        )]);
        q.validate().unwrap();
        assert!(q.join_edges().is_empty());
    }
}
