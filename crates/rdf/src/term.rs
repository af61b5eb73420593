//! Parsed RDF terms.

use std::fmt;

/// A parsed RDF term.
///
/// The lexical (token) form used throughout the pipelines is produced by
/// [`Term::to_token`] / `Display`, which emits canonical N-Triples syntax:
///
/// ```
/// use rdf_model::Term;
/// assert_eq!(Term::iri("http://ex.org/a").to_token(), "<http://ex.org/a>");
/// let hi = Term::Literal { lexical: "hi".into(), datatype: None, language: Some("en".into()) };
/// assert_eq!(hi.to_token(), "\"hi\"@en");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// An IRI reference, stored without the surrounding angle brackets.
    Iri(String),
    /// An RDF literal.
    Literal {
        /// The lexical form, unescaped.
        lexical: String,
        /// Optional datatype IRI (without angle brackets).
        datatype: Option<String>,
        /// Optional language tag (without the leading `@`).
        language: Option<String>,
    },
    /// A blank node, stored without the `_:` prefix.
    BNode(String),
}

impl Term {
    /// Construct an IRI term.
    pub fn iri(i: impl Into<String>) -> Self {
        Term::Iri(i.into())
    }

    /// Canonical N-Triples token for this term.
    pub fn to_token(&self) -> String {
        self.to_string()
    }
}

/// Escape a literal's lexical form per N-Triples rules.
fn escape_into(out: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            _ => fmt::Write::write_char(out, c)?,
        }
    }
    Ok(())
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Iri(i) => write!(f, "<{i}>"),
            Term::BNode(b) => write!(f, "_:{b}"),
            Term::Literal { lexical, datatype, language } => {
                f.write_str("\"")?;
                escape_into(f, lexical)?;
                f.write_str("\"")?;
                if let Some(dt) = datatype {
                    write!(f, "^^<{dt}>")?;
                } else if let Some(lang) = language {
                    write!(f, "@{lang}")?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn literal(lexical: &str, datatype: Option<&str>, language: Option<&str>) -> Term {
        Term::Literal {
            lexical: lexical.into(),
            datatype: datatype.map(Into::into),
            language: language.map(Into::into),
        }
    }

    #[test]
    fn display_iri() {
        assert_eq!(Term::iri("http://a/b").to_token(), "<http://a/b>");
    }

    #[test]
    fn display_bnode() {
        assert_eq!(Term::BNode("x1".into()).to_token(), "_:x1");
    }

    #[test]
    fn display_plain_literal() {
        assert_eq!(literal("abc", None, None).to_token(), "\"abc\"");
    }

    #[test]
    fn display_typed_literal() {
        assert_eq!(
            literal("5", Some("http://www.w3.org/2001/XMLSchema#int"), None).to_token(),
            "\"5\"^^<http://www.w3.org/2001/XMLSchema#int>"
        );
    }

    #[test]
    fn display_lang_literal() {
        assert_eq!(literal("chat", None, Some("fr")).to_token(), "\"chat\"@fr");
    }

    #[test]
    fn escapes_special_chars() {
        assert_eq!(literal("a\"b\\c\nd", None, None).to_token(), "\"a\\\"b\\\\c\\nd\"");
    }
}
