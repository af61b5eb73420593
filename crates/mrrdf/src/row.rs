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
//! schemas; Hadoop text rows don't carry column names), which also turns
//! encoded rows into solutions ([`RowSchema::extractor`]).

use crate::run::{binder_slots, PlanError};
use mrsim::{MrError, SliceReader};
use rdf_model::atom::Atom;
use rdf_query::SolutionRows;

/// A flat n-tuple of tokens. `Vec<Atom>` already implements
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

/// Step an odometer whose wheel `i` has `len(i)` positions, the last wheel
/// fastest: false, with every wheel back at 0, once all combinations have
/// been visited. Every kernel's cross product steps through it — a star's
/// flat rows, eager and final β-unnest's tuples — and `ntga_core::logical`,
/// which specifies them, does not.
pub fn next_combination(cursor: &mut [usize], len: impl Fn(usize) -> usize) -> bool {
    for pos in (0..cursor.len()).rev() {
        cursor[pos] += 1;
        if cursor[pos] < len(pos) {
            return true;
        }
        cursor[pos] = 0;
    }
    false
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

    /// The solution-extraction kernel of a relational workflow whose final
    /// relation has this schema (`ntga_core::execute_plan` reads it back
    /// through this): append
    /// one encoded [`Row`]'s solution over the header `vars` (sorted) to
    /// the table, in one walk of its bytes. Slots are [`binder_slots`]'; a
    /// slot keeps its last id, and a token equal to that id's value is not
    /// interned again — relations come out of a reduce grouped, so most
    /// are not. The ids are `out`'s: one extractor writes into one table.
    ///
    /// A row whose arity is not the schema's, or two of whose columns bind
    /// one variable and disagree, is an "inconsistent output row" (a
    /// planner bug). Malformed bytes give the decoder's message, as
    /// `Row::from_bytes` words it.
    pub fn extractor(
        &self,
        vars: &[String],
    ) -> Result<impl FnMut(&[u8], &mut SolutionRows) -> Result<(), PlanError>, PlanError> {
        let cols: Vec<Option<&str>> = self.cols.iter().map(Option::as_deref).collect();
        let (slots, count) = binder_slots(&cols, vars)?;
        // Per column its slot, and whether it is the first to bind it.
        let first = |i: usize| !cols[..i].contains(&cols[i]);
        let plan: Vec<Option<(usize, bool)>> =
            slots.iter().enumerate().map(|(i, slot)| slot.map(|s| (s, first(i)))).collect();
        let mut row: Vec<Option<u32>> = vec![None; count];
        let arity = vars.len();
        Ok(move |rec: &[u8], out: &mut SolutionRows| {
            let mut r = SliceReader::new(rec);
            let width = r.read_u32().map_err(PlanError::final_output)? as usize;
            let mut consistent = width == plan.len();
            for i in 0..width {
                let token = r.read_str().map_err(PlanError::final_output)?;
                let Some(&Some((slot, first))) = plan.get(i) else { continue };
                match row[slot] {
                    Some(last) if out.value(last) == token => {}
                    _ if first => row[slot] = Some(out.intern(token)),
                    _ => consistent = false,
                }
            }
            r.finish().map_err(PlanError::final_output)?;
            if !consistent {
                return Err(PlanError::Internal("inconsistent output row".into()));
            }
            out.push(row[..arity].iter().map(|cell| cell.expect("a header column read")));
            Ok(())
        })
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

    /// One row through the kernel over the header `vars`.
    fn extract(row: &[&str], vars: &[&str]) -> Result<Vec<String>, PlanError> {
        let vars: Vec<String> = vars.iter().map(|v| v.to_string()).collect();
        let mut out = SolutionRows::new(vars.clone());
        let row: Row = row.iter().map(|t| Atom::from(*t)).collect();
        schema().extractor(&vars)?(&row.to_bytes(), &mut out)?;
        Ok(out.finish().iter().map(|b| b.to_string()).collect())
    }

    const ROW: [&str; 6] = ["<g1>", "<label>", "\"a\"", "<g1>", "<xGO>", "<go1>"];

    #[test]
    fn extraction_projects_in_header_order() {
        assert_eq!(extract(&ROW, &["g", "go", "l"]).unwrap(), ["{?g=<g1>, ?go=<go1>, ?l=\"a\"}"]);
        assert_eq!(extract(&ROW, &["l"]).unwrap(), ["{?l=\"a\"}"]);
        assert_eq!(extract(&ROW, &[]).unwrap(), ["{}"]);
    }

    #[test]
    fn extraction_rejects_inconsistent_row() {
        // Subject mismatch across patterns, projected or not.
        let row = ["<g1>", "<label>", "\"a\"", "<g2>", "<xGO>", "<go1>"];
        for vars in [&["g", "l"][..], &["l"]] {
            let err = extract(&row, vars).unwrap_err();
            assert_eq!(err, PlanError::Internal("inconsistent output row".into()));
        }
    }

    #[test]
    fn extraction_rejects_arity_mismatch_and_unbound_header() {
        for row in [&ROW[..1], &[ROW.as_slice(), &["<x>"]].concat()] {
            let err = extract(row, &["g"]).unwrap_err();
            assert_eq!(err, PlanError::Internal("inconsistent output row".into()));
        }
        assert!(matches!(extract(&ROW, &["zz"]), Err(PlanError::Internal(m)) if m.contains("?zz")));
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
