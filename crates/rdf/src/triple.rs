//! Lexical triples — the workhorse record of the whole workspace.

use crate::atom::{atom, Atom};
use crate::term::Term;
use std::fmt;

/// A triple of lexical tokens (canonical N-Triples token per position).
///
/// This is the representation that flows through every MapReduce pipeline.
/// Cloning is cheap (three `Arc` bumps). [`STriple::text_size`] is the
/// basis for all simulated HDFS/shuffle byte accounting: it is the length
/// of the triple as one whitespace-separated text row, which is how
/// Pig/Hive move triples through Hadoop.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct STriple {
    /// Subject token.
    pub s: Atom,
    /// Property (predicate) token.
    pub p: Atom,
    /// Object token.
    pub o: Atom,
}

impl STriple {
    /// Build a triple from raw token strings.
    pub fn new(s: impl AsRef<str>, p: impl AsRef<str>, o: impl AsRef<str>) -> Self {
        STriple { s: atom(s.as_ref()), p: atom(p.as_ref()), o: atom(o.as_ref()) }
    }

    /// Build the lexical triple for three parsed [`Term`]s.
    pub fn from_terms(s: &Term, p: &Term, o: &Term) -> Self {
        STriple::new(s.to_token(), p.to_token(), o.to_token())
    }

    /// Size in bytes of this triple as a text row: the three tokens,
    /// two separating spaces, ` .` terminator and newline (N-Triples row).
    pub fn text_size(&self) -> u64 {
        Self::text_size_of(&self.s, &self.p, &self.o)
    }

    /// [`STriple::text_size`] of three tokens, wherever they are held.
    pub fn text_size_of(s: &str, p: &str, o: &str) -> u64 {
        (s.len() + p.len() + o.len()) as u64 + 5
    }
}

impl fmt::Display for STriple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {} .", self.s, self.p, self.o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_size_counts_row_bytes() {
        let t = STriple::new("<a>", "<b>", "<c>");
        // "<a> <b> <c> .\n" = 3 + 1 + 3 + 1 + 3 + 2 + 1 = 14
        assert_eq!(t.text_size(), 14);
        assert_eq!(t.to_string().len() as u64 + 1, t.text_size());
    }

    #[test]
    fn display_is_ntriples_row() {
        let t = STriple::new("<s>", "<p>", "\"o\"");
        assert_eq!(t.to_string(), "<s> <p> \"o\" .");
    }

    #[test]
    fn ordering_is_spo_lexicographic() {
        let a = STriple::new("<a>", "<p>", "<x>");
        let b = STriple::new("<a>", "<q>", "<x>");
        let c = STriple::new("<b>", "<a>", "<a>");
        assert!(a < b);
        assert!(b < c);
    }
}
