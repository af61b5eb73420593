//! Streaming N-Triples parser. Terms and triples serialize through their
//! `Display`.
//!
//! Implements the subset of W3C N-Triples needed for the workloads in this
//! workspace: IRIs, blank nodes, plain / typed / language-tagged literals
//! with the standard string escapes, `#` comments and blank lines.

use crate::term::Term;
use crate::triple::STriple;
use std::fmt;

/// Error produced when a line is not valid N-Triples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NtParseError {
    /// Human-readable description of the problem.
    pub message: String,
    /// Byte offset in the input line where the problem was detected.
    pub offset: usize,
}

impl fmt::Display for NtParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N-Triples parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for NtParseError {}

fn err<T>(offset: usize, message: impl Into<String>) -> Result<T, NtParseError> {
    Err(NtParseError { message: message.into(), offset })
}

struct Cursor<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(input: &'a str) -> Self {
        Cursor { input, pos: 0 }
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn peek(&self) -> Option<char> {
        self.rest().chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ') | Some('\t')) {
            self.bump();
        }
    }

    fn expect(&mut self, c: char) -> Result<(), NtParseError> {
        match self.peek() {
            Some(got) if got == c => {
                self.bump();
                Ok(())
            }
            Some(got) => err(self.pos, format!("expected '{c}', found '{got}'")),
            None => err(self.pos, format!("expected '{c}', found end of line")),
        }
    }

    fn parse_iri(&mut self) -> Result<String, NtParseError> {
        self.expect('<')?;
        let start = self.pos;
        loop {
            match self.peek() {
                Some('>') => {
                    let iri = self.input[start..self.pos].to_string();
                    self.bump();
                    return Ok(iri);
                }
                Some(c) if c == ' ' || c == '\n' => {
                    return err(self.pos, "whitespace inside IRI");
                }
                Some(_) => {
                    self.bump();
                }
                None => return err(self.pos, "unterminated IRI"),
            }
        }
    }

    fn parse_bnode(&mut self) -> Result<String, NtParseError> {
        self.expect('_')?;
        self.expect(':')?;
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_alphanumeric() || c == '_' || c == '-' || c == '.')
        {
            self.bump();
        }
        if self.pos == start {
            return err(self.pos, "empty blank node label");
        }
        Ok(self.input[start..self.pos].to_string())
    }

    fn parse_literal(&mut self) -> Result<Term, NtParseError> {
        self.expect('"')?;
        let mut lex = String::new();
        loop {
            match self.bump() {
                Some('"') => break,
                Some('\\') => match self.bump() {
                    Some('"') => lex.push('"'),
                    Some('\\') => lex.push('\\'),
                    Some('n') => lex.push('\n'),
                    Some('r') => lex.push('\r'),
                    Some('t') => lex.push('\t'),
                    Some('u') => lex.push(self.parse_unicode_escape(4)?),
                    Some('U') => lex.push(self.parse_unicode_escape(8)?),
                    Some(c) => return err(self.pos, format!("bad escape '\\{c}'")),
                    None => return err(self.pos, "dangling backslash"),
                },
                Some(c) => lex.push(c),
                None => return err(self.pos, "unterminated literal"),
            }
        }
        match self.peek() {
            Some('^') => {
                self.bump();
                self.expect('^')?;
                let dt = self.parse_iri()?;
                Ok(Term::Literal { lexical: lex, datatype: Some(dt), language: None })
            }
            Some('@') => {
                self.bump();
                let start = self.pos;
                while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == '-') {
                    self.bump();
                }
                if self.pos == start {
                    return err(self.pos, "empty language tag");
                }
                let lang = self.input[start..self.pos].to_string();
                Ok(Term::Literal { lexical: lex, datatype: None, language: Some(lang) })
            }
            _ => Ok(Term::Literal { lexical: lex, datatype: None, language: None }),
        }
    }

    fn parse_unicode_escape(&mut self, digits: usize) -> Result<char, NtParseError> {
        let start = self.pos;
        let mut value: u32 = 0;
        for _ in 0..digits {
            match self.bump() {
                Some(c) if c.is_ascii_hexdigit() => {
                    value = value * 16 + c.to_digit(16).expect("hexdigit");
                }
                _ => return err(start, "bad unicode escape"),
            }
        }
        char::from_u32(value).map_or_else(|| err(start, "invalid code point"), Ok)
    }

    fn parse_subject(&mut self) -> Result<Term, NtParseError> {
        match self.peek() {
            Some('<') => Ok(Term::Iri(self.parse_iri()?)),
            Some('_') => Ok(Term::BNode(self.parse_bnode()?)),
            _ => err(self.pos, "subject must be an IRI or blank node"),
        }
    }

    fn parse_predicate(&mut self) -> Result<Term, NtParseError> {
        match self.peek() {
            Some('<') => Ok(Term::Iri(self.parse_iri()?)),
            _ => err(self.pos, "predicate must be an IRI"),
        }
    }

    fn parse_object(&mut self) -> Result<Term, NtParseError> {
        match self.peek() {
            Some('<') => Ok(Term::Iri(self.parse_iri()?)),
            Some('_') => Ok(Term::BNode(self.parse_bnode()?)),
            Some('"') => self.parse_literal(),
            _ => err(self.pos, "object must be an IRI, blank node or literal"),
        }
    }
}

/// Parse one N-Triples line into parsed [`Term`]s.
///
/// Returns `Ok(None)` for blank lines and `#` comment lines.
pub fn parse_line(line: &str) -> Result<Option<(Term, Term, Term)>, NtParseError> {
    let trimmed = line.trim_end_matches(['\r', '\n']);
    let mut cur = Cursor::new(trimmed);
    cur.skip_ws();
    match cur.peek() {
        None | Some('#') => return Ok(None),
        _ => {}
    }
    let s = cur.parse_subject()?;
    cur.skip_ws();
    let p = cur.parse_predicate()?;
    cur.skip_ws();
    let o = cur.parse_object()?;
    cur.skip_ws();
    cur.expect('.')?;
    cur.skip_ws();
    if cur.peek().is_some() {
        return err(cur.pos, "trailing content after '.'");
    }
    Ok(Some((s, p, o)))
}

/// Parse a whole N-Triples document into lexical triples.
///
/// ```
/// let doc = "<http://a> <http://p> \"v\" .\n# comment\n";
/// let triples = rdf_model::parse_str(doc).unwrap();
/// assert_eq!(triples.len(), 1);
/// assert_eq!(&*triples[0].p, "<http://p>");
/// ```
pub fn parse_str(doc: &str) -> Result<Vec<STriple>, NtParseError> {
    let mut out = Vec::new();
    for line in doc.lines() {
        if let Some((s, p, o)) = parse_line(line)? {
            out.push(STriple::from_terms(&s, &p, &o));
        }
    }
    Ok(out)
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
    fn parses_iri_triple() {
        let (s, p, o) = parse_line("<http://a> <http://b> <http://c> .").unwrap().unwrap();
        assert_eq!(s, Term::iri("http://a"));
        assert_eq!(p, Term::iri("http://b"));
        assert_eq!(o, Term::iri("http://c"));
    }

    #[test]
    fn parses_literal_objects() {
        let (_, _, o) = parse_line(r#"<a> <b> "hi there" ."#).unwrap().unwrap();
        assert_eq!(o, literal("hi there", None, None));
        let (_, _, o) = parse_line(r#"<a> <b> "5"^^<http://www.w3.org/2001/XMLSchema#int> ."#)
            .unwrap()
            .unwrap();
        assert_eq!(o, literal("5", Some("http://www.w3.org/2001/XMLSchema#int"), None));
        let (_, _, o) = parse_line(r#"<a> <b> "chat"@fr-BE ."#).unwrap().unwrap();
        assert_eq!(o, literal("chat", None, Some("fr-BE")));
    }

    #[test]
    fn parses_bnodes() {
        let (s, _, o) = parse_line("_:x1 <p> _:y-2 .").unwrap().unwrap();
        assert_eq!(s, Term::BNode("x1".into()));
        assert_eq!(o, Term::BNode("y-2".into()));
    }

    #[test]
    fn parses_escapes() {
        let (_, _, o) = parse_line(r#"<a> <b> "line1\nline2\t\"q\"" ."#).unwrap().unwrap();
        assert_eq!(o, literal("line1\nline2\t\"q\"", None, None));
    }

    #[test]
    fn parses_unicode_escapes() {
        let (_, _, o) = parse_line(r#"<a> <b> "A\U00000042" ."#).unwrap().unwrap();
        assert_eq!(o, literal("AB", None, None));
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        assert_eq!(parse_line("# a comment").unwrap(), None);
        assert_eq!(parse_line("   ").unwrap(), None);
        assert_eq!(parse_line("").unwrap(), None);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_line("<a> <b> .").is_err());
        assert!(parse_line("<a> <b> <c>").is_err());
        assert!(parse_line("\"lit\" <b> <c> .").is_err());
        assert!(parse_line("<a> \"lit\" <c> .").is_err());
        assert!(parse_line("<a> <b> <c> . extra").is_err());
        assert!(parse_line("<a <b> <c> .").is_err());
        assert!(parse_line(r#"<a> <b> "unterminated ."#).is_err());
    }

    #[test]
    fn roundtrip_terms() {
        let cases = [
            "<http://a> <http://b> <http://c> .",
            r#"<http://a> <http://b> "plain" ."#,
            r#"<http://a> <http://b> "5"^^<http://x> ."#,
            r#"<http://a> <http://b> "tag"@en ."#,
            r#"_:b1 <http://b> _:b2 ."#,
            r#"<http://a> <http://b> "esc\\ape\n\"x\"" ."#,
        ];
        for case in cases {
            let (s, p, o) = parse_line(case).unwrap().unwrap();
            let rendered = format!("{s} {p} {o} .");
            let (s2, p2, o2) = parse_line(&rendered).unwrap().unwrap();
            assert_eq!((s, p, o), (s2, p2, o2), "case {case}");
        }
    }

    #[test]
    fn parse_str_collects_lexical_triples() {
        let doc = "<a> <p> <b> .\n\n# c\n<a> <p> \"x\" .\n";
        let ts = parse_str(doc).unwrap();
        assert_eq!(ts.len(), 2);
        assert_eq!(&*ts[0].s, "<a>");
        assert_eq!(&*ts[1].o, "\"x\"");
    }
}
