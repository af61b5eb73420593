//! Triple patterns with unbound properties and (partially-)bound objects.

use rdf_model::{Atom, STriple};
use std::fmt;

/// The subject position of a triple pattern.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SubjPattern {
    /// A variable, e.g. `?gene`.
    Var(String),
    /// A constant subject token.
    Const(Atom),
}

/// The property (predicate) position of a triple pattern.
///
/// `Unbound` is the paper's *unbound-property* case: an edge with a
/// "don't care" label, e.g. `?gene ?p ?o`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PropPattern {
    /// A bound property, e.g. `<xGO>`.
    Bound(Atom),
    /// An unbound property variable, e.g. `?p`.
    Unbound(String),
}

impl PropPattern {
    /// True if the property is unbound.
    pub fn is_unbound(&self) -> bool {
        matches!(self, PropPattern::Unbound(_))
    }
}

/// A value-level constraint on an object variable.
///
/// The paper's "partially-bound object" is an unbound-property pattern
/// whose object is constrained (the user knows *something* about the
/// object, e.g. that it mentions "hexokinase"), which makes the pattern
/// selective even though the property is unknown.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ObjFilter {
    /// Object token equals this constant.
    Equals(Atom),
    /// Object token contains this substring.
    Contains(String),
    /// Object token starts with this prefix.
    Prefix(String),
}

impl ObjFilter {
    /// Test a candidate object token against the filter.
    pub fn accepts(&self, token: &str) -> bool {
        match self {
            ObjFilter::Equals(a) => &**a == token,
            ObjFilter::Contains(s) => token.contains(s.as_str()),
            ObjFilter::Prefix(s) => token.starts_with(s.as_str()),
        }
    }
}

/// The object position of a triple pattern.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ObjPattern {
    /// An unconstrained variable, e.g. `?o`.
    Var(String),
    /// A constant object token.
    Const(Atom),
    /// A *partially-bound* variable: matches bind the variable but must
    /// satisfy the filter.
    Filtered(String, ObjFilter),
}

impl ObjPattern {
    /// The variable name, if this position binds one.
    pub fn var(&self) -> Option<&str> {
        match self {
            ObjPattern::Var(v) | ObjPattern::Filtered(v, _) => Some(v),
            ObjPattern::Const(_) => None,
        }
    }

    /// True if a given object token can match this position (ignoring any
    /// variable-consistency constraints).
    pub fn accepts(&self, token: &str) -> bool {
        match self {
            ObjPattern::Var(_) => true,
            ObjPattern::Const(c) => &**c == token,
            ObjPattern::Filtered(_, f) => f.accepts(token),
        }
    }
}

/// One triple pattern of a graph pattern query.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TriplePattern {
    /// Subject position.
    pub subject: SubjPattern,
    /// Property position.
    pub property: PropPattern,
    /// Object position.
    pub object: ObjPattern,
}

impl TriplePattern {
    /// Shorthand: `?subjvar <prop> ?objvar`.
    pub fn bound(subj_var: &str, prop: &str, obj: ObjPattern) -> Self {
        TriplePattern {
            subject: SubjPattern::Var(subj_var.to_string()),
            property: PropPattern::Bound(rdf_model::atom::atom(prop)),
            object: obj,
        }
    }

    /// Shorthand: `?subjvar ?propvar <obj-pattern>` (unbound property).
    pub fn unbound(subj_var: &str, prop_var: &str, obj: ObjPattern) -> Self {
        TriplePattern {
            subject: SubjPattern::Var(subj_var.to_string()),
            property: PropPattern::Unbound(prop_var.to_string()),
            object: obj,
        }
    }

    /// True if the property position is unbound.
    pub fn is_unbound_property(&self) -> bool {
        self.property.is_unbound()
    }

    /// All variable names this pattern binds, in subject/property/object
    /// order.
    pub fn variables(&self) -> Vec<&str> {
        let mut vars = Vec::with_capacity(3);
        if let SubjPattern::Var(v) = &self.subject {
            vars.push(v.as_str());
        }
        if let PropPattern::Unbound(v) = &self.property {
            vars.push(v.as_str());
        }
        if let Some(v) = self.object.var() {
            vars.push(v);
        }
        vars
    }

    /// Structural match of a triple against this pattern, ignoring
    /// cross-pattern variable consistency: checks constants and filters
    /// only.
    pub fn matches_structurally(&self, t: &STriple) -> bool {
        self.matches_tokens(&t.s, &t.p, &t.o)
    }

    /// [`matches_structurally`](Self::matches_structurally) over borrowed
    /// tokens, for callers that read a triple without building one.
    pub fn matches_tokens(&self, s: &str, p: &str, o: &str) -> bool {
        let s_ok = match &self.subject {
            SubjPattern::Var(_) => true,
            SubjPattern::Const(c) => &**c == s,
        };
        let p_ok = match &self.property {
            PropPattern::Unbound(_) => true,
            PropPattern::Bound(c) => &**c == p,
        };
        s_ok && p_ok && self.object.accepts(o)
    }
}

impl fmt::Display for TriplePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.subject {
            SubjPattern::Var(v) => write!(f, "?{v} ")?,
            SubjPattern::Const(c) => write!(f, "{c} ")?,
        }
        match &self.property {
            PropPattern::Bound(c) => write!(f, "{c} ")?,
            PropPattern::Unbound(v) => write!(f, "?{v} ")?,
        }
        match &self.object {
            ObjPattern::Var(v) => write!(f, "?{v}"),
            ObjPattern::Const(c) => write!(f, "{c}"),
            ObjPattern::Filtered(v, filt) => write!(f, "?{v} /*{filt:?}*/"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filters() {
        assert!(ObjFilter::Equals(rdf_model::atom::atom("<x>")).accepts("<x>"));
        assert!(!ObjFilter::Equals(rdf_model::atom::atom("<x>")).accepts("<y>"));
        assert!(ObjFilter::Contains("exo".into()).accepts("\"hexokinase\""));
        assert!(!ObjFilter::Contains("zzz".into()).accepts("\"hexokinase\""));
        assert!(ObjFilter::Prefix("\"hexo".into()).accepts("\"hexokinase\""));
        assert!(!ObjFilter::Prefix("kinase".into()).accepts("\"hexokinase\""));
    }

    #[test]
    fn structural_match_bound() {
        let p = TriplePattern::bound("x", "<label>", ObjPattern::Var("l".into()));
        assert!(p.matches_structurally(&STriple::new("<s>", "<label>", "\"a\"")));
        assert!(!p.matches_structurally(&STriple::new("<s>", "<other>", "\"a\"")));
    }

    #[test]
    fn structural_match_unbound() {
        let p = TriplePattern::unbound("x", "p", ObjPattern::Var("o".into()));
        assert!(p.matches_structurally(&STriple::new("<s>", "<anything>", "<o>")));
        assert!(p.is_unbound_property());
    }

    #[test]
    fn structural_match_const_subject_and_object() {
        let p = TriplePattern {
            subject: SubjPattern::Const(rdf_model::atom::atom("<s>")),
            property: PropPattern::Bound(rdf_model::atom::atom("<p>")),
            object: ObjPattern::Const(rdf_model::atom::atom("<o>")),
        };
        assert!(p.matches_structurally(&STriple::new("<s>", "<p>", "<o>")));
        assert!(!p.matches_structurally(&STriple::new("<z>", "<p>", "<o>")));
        assert!(!p.matches_structurally(&STriple::new("<s>", "<p>", "<z>")));
    }

    #[test]
    fn partially_bound_object() {
        let p = TriplePattern::unbound(
            "x",
            "p",
            ObjPattern::Filtered("o".into(), ObjFilter::Contains("hexo".into())),
        );
        assert!(p.matches_structurally(&STriple::new("<s>", "<p>", "\"hexokinase\"")));
        assert!(!p.matches_structurally(&STriple::new("<s>", "<p>", "\"amylase\"")));
    }

    #[test]
    fn variables_listed_in_order() {
        let p = TriplePattern::unbound("x", "p", ObjPattern::Var("o".into()));
        assert_eq!(p.variables(), vec!["x", "p", "o"]);
        let q = TriplePattern::bound("x", "<l>", ObjPattern::Const(rdf_model::atom::atom("<c>")));
        assert_eq!(q.variables(), vec!["x"]);
    }
}
