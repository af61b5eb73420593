//! Schema'd n-tuple rows — the relational materialization.
//!
//! A relational star join of `k` triple patterns materializes tuples of
//! **3k arity**: `(Sub, Prop, Obj)` per pattern (the paper, Section 3,
//! Figure 4). The subject is repeated `k` times, every bound property
//! token is repeated in every tuple, and every combination with an
//! unbound-property match repeats the whole bound component — this is
//! precisely the redundancy NTGA avoids, so the byte accounting here must
//! be faithful: a [`Row`] is the flat list of column tokens, sized as a
//! tab-separated text row.
//!
//! Column *meaning* is tracked out-of-band by [`RowSchema`] (relations have
//! schemas; Hadoop text rows don't carry column names), which also converts
//! rows to [`Binding`]s for result verification.

use crate::run::PlanError;
use mrsim::{MrError, SliceReader};
use rdf_model::atom::Atom;
use rdf_query::{Binding, SolutionSet};

/// A flat n-tuple of interned tokens. `Vec<Atom>` already implements
/// [`mrsim::Rec`] (byte-compatible with the historical `Vec<String>` wire
/// form); this alias names its role.
pub type Row = Vec<Atom>;

/// An encoded [`Row`] — `u32 n · (u32 len · bytes)ⁿ` — read in place: what
/// a join needs to key and splice it. Same length-prefix, UTF-8 and
/// trailing-byte errors as `Row::from_bytes`; no [`Atom`] is built and the
/// count reserves nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowView<'a> {
    /// Number of columns.
    pub arity: u32,
    /// `Σ(len + 1)` over the tokens: the row as tab-separated text, less
    /// the lone newline of an empty row (see [`RowView::text_size`]).
    pub token_text: u64,
    /// The encoded tokens (the record past its count), ready to follow a
    /// new count.
    pub tokens: &'a [u8],
    /// The encoded column asked for (length prefix and bytes, an `Atom`
    /// key); `None` if none was asked for or the row is narrower.
    pub column: Option<&'a [u8]>,
}

impl<'a> RowView<'a> {
    /// Read one whole encoded [`Row`], noting where column `col` lies.
    pub fn from_bytes(buf: &'a [u8], col: Option<usize>) -> Result<Self, MrError> {
        let mut r = SliceReader::new(buf);
        let arity = r.read_u32()?;
        let tokens = &buf[buf.len() - r.remaining()..];
        let (mut token_text, mut column) = (0u64, None);
        for i in 0..arity as usize {
            let start = tokens.len() - r.remaining();
            token_text += r.read_str()?.len() as u64 + 1;
            if col == Some(i) {
                column = Some(&tokens[start..tokens.len() - r.remaining()]);
            }
        }
        r.finish()?;
        Ok(RowView { arity, token_text, tokens, column })
    }

    /// The row's simulated text size, as `Row::text_size` counts it.
    pub fn text_size(&self) -> u64 {
        self.token_text.max(1)
    }
}

/// Column meanings for a row relation: for each column, the variable it
/// binds (or `None` for columns bound to constants / unnamed positions).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RowSchema {
    /// Variable bound by each column.
    pub cols: Vec<Option<String>>,
}

impl RowSchema {
    /// Schema with the given column variables.
    pub fn new(cols: Vec<Option<String>>) -> Self {
        RowSchema { cols }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// Concatenate two schemas (the schema of a join output).
    pub fn concat(&self, other: &RowSchema) -> RowSchema {
        let mut cols = self.cols.clone();
        cols.extend(other.cols.iter().cloned());
        RowSchema { cols }
    }

    /// Index of the first column binding `var`.
    pub fn index_of(&self, var: &str) -> Option<usize> {
        self.cols.iter().position(|c| c.as_deref() == Some(var))
    }

    /// Convert a row to a [`Binding`].
    ///
    /// Returns `None` if the row's arity mismatches the schema or if two
    /// columns binding the same variable disagree (both indicate planner
    /// bugs; callers treat this as an error).
    pub fn binding(&self, row: &Row) -> Option<Binding> {
        if row.len() != self.cols.len() {
            return None;
        }
        let mut b = Binding::new();
        for (col, val) in self.cols.iter().zip(row) {
            if let Some(var) = col {
                if !b.bind(var, val.clone()) {
                    return None;
                }
            }
        }
        Some(b)
    }

    /// The solution-extraction step of a relational workflow whose final
    /// relation has this schema (see [`crate::run_query_workflow`]): add
    /// one output row's binding to the solution set.
    pub fn into_extractor(self) -> impl Fn(&Row, &mut SolutionSet) -> Result<(), PlanError> {
        move |row, set| {
            let binding = self
                .binding(row)
                .ok_or_else(|| PlanError::Internal("inconsistent output row".into()))?;
            set.insert(binding);
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrsim::Rec;

    fn schema() -> RowSchema {
        // Star of 2 patterns: (?g <label> ?l) (?g <xGO> ?go) -> 6 columns.
        RowSchema::new(vec![
            Some("g".into()),
            None,
            Some("l".into()),
            Some("g".into()),
            None,
            Some("go".into()),
        ])
    }

    #[test]
    fn binding_extraction() {
        let row: Row = vec![
            "<g1>".into(),
            "<label>".into(),
            "\"a\"".into(),
            "<g1>".into(),
            "<xGO>".into(),
            "<go1>".into(),
        ];
        let b = schema().binding(&row).unwrap();
        assert_eq!(&**b.get("g").unwrap(), "<g1>");
        assert_eq!(&**b.get("l").unwrap(), "\"a\"");
        assert_eq!(&**b.get("go").unwrap(), "<go1>");
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn binding_rejects_inconsistent_row() {
        let row: Row = vec![
            "<g1>".into(),
            "<label>".into(),
            "\"a\"".into(),
            "<g2>".into(), // subject mismatch across patterns
            "<xGO>".into(),
            "<go1>".into(),
        ];
        assert!(schema().binding(&row).is_none());
    }

    #[test]
    fn binding_rejects_arity_mismatch() {
        let row: Row = vec!["<g1>".into()];
        assert!(schema().binding(&row).is_none());
    }

    #[test]
    fn concat_schemas() {
        let joined = schema().concat(&RowSchema::new(vec![Some("x".into())]));
        assert_eq!(joined.arity(), 7);
        assert_eq!(joined.index_of("x"), Some(6));
        assert_eq!(joined.index_of("g"), Some(0));
        assert_eq!(joined.index_of("zz"), None);
    }

    #[test]
    fn row_text_size_counts_repeated_tokens() {
        // The redundancy must show in bytes: subject repeated twice costs
        // twice.
        let row: Row = vec!["<g1>".into(), "<p>".into(), "<g1>".into()];
        assert_eq!(row.text_size(), (5 + 4 + 5) as u64);
    }

    #[test]
    fn view_reads_what_decode_reads() {
        let row: Row = vec!["<g1>".into(), "".into(), "\"caf\u{e9}\"".into()];
        let bytes = row.to_bytes();
        for col in 0..row.len() {
            let v = RowView::from_bytes(&bytes, Some(col)).unwrap();
            assert_eq!((v.arity, v.text_size(), v.tokens), (3, row.text_size(), &bytes[4..]));
            assert_eq!(v.column.unwrap(), row[col].to_bytes());
        }
        assert_eq!(RowView::from_bytes(&bytes, Some(3)).unwrap().column, None);
        assert_eq!(RowView::from_bytes(&bytes, None).unwrap().column, None);
        let empty = RowView::from_bytes(&[0; 4], Some(0)).unwrap();
        assert_eq!((empty.arity, empty.token_text, empty.text_size()), (0, 0, 1));
        // Every truncation, a trailing byte, a broken token and a count
        // past the tokens fail on both readers alike.
        let mut bad: Vec<Vec<u8>> = (0..bytes.len()).map(|n| bytes[..n].to_vec()).collect();
        bad.push([&bytes[..], &[0]].concat());
        let mut broken = bytes.clone();
        *broken.last_mut().unwrap() = 0xff;
        bad.push(broken);
        let mut overcount = bytes.clone();
        overcount[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        bad.push(overcount);
        for b in &bad {
            let want = Row::from_bytes(b).unwrap_err();
            assert_eq!(RowView::from_bytes(b, Some(1)).unwrap_err().to_string(), want.to_string());
        }
    }
}
