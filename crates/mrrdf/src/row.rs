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
use mrsim::Rec;
use rdf_model::atom::Atom;
use rdf_query::{Binding, SolutionSet};

/// A flat n-tuple of interned tokens. `Vec<Atom>` already implements
/// [`Rec`] (byte-compatible with the historical `Vec<String>` wire
/// form); this alias names its role.
pub type Row = Vec<Atom>;

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

/// Text size of a row record (used in tests; `Vec<Atom>`'s [`Rec`]
/// impl is what the engine uses — one byte separator per token, one
/// newline).
pub fn row_text_size(row: &Row) -> u64 {
    row.text_size()
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(row_text_size(&row), (5 + 4 + 5) as u64);
    }
}
