//! Join of two materialized row relations on one shared variable — the
//! "join between stars" MR cycle of the relational plans. Rows are read in
//! place and spliced: the shuffle key is the key column's own bytes, a
//! joined row is a new count before the two sides' token bytes.

use mr_rdf::{PlanError, RowSchema, RowView, REDUCERS};
use mrsim::codec::{
    counted_len, decimal_digits, put_count, put_tag, split_tag, token_key, token_key_text,
};
use mrsim::{
    InputBinding, JobSpec, MapEmitter, MrError, OutEmitter, RawMapOp, RawReduceOp, TaskContext,
};
use std::sync::Arc;

/// Map side of [`row_join_job`] for one input: ships each row under its
/// join column, tagged with its side.
pub struct SideMap {
    /// Side tag: 0 for the left input, 1 for the right.
    pub side: u64,
    /// The join variable's column in this input's rows.
    pub key_col: usize,
}

impl SideMap {
    /// Map one encoded [`mr_rdf::Row`]: `emit(key, text, write_value)` —
    /// the key the join column as the row encodes it, `text` the shuffle
    /// row's simulated size, `write_value` appending the side tag and the
    /// record.
    pub fn tag(
        &self,
        rec: &[u8],
        emit: impl FnOnce(&[u8], u64, &dyn Fn(&mut Vec<u8>)),
    ) -> Result<(), MrError> {
        let row = RowView::from_bytes(rec, Some(self.key_col))?;
        let key = row.column.ok_or_else(|| {
            MrError::Op(format!(
                "row arity {} too small for key column {}",
                row.arity, self.key_col
            ))
        })?;
        // The shuffle row is `key \t side \t row \n`.
        let text = token_key_text(key) + decimal_digits(self.side) + row.text_size();
        emit(key, text, &|value| {
            put_tag(value, self.side);
            value.extend_from_slice(rec);
        });
        Ok(())
    }
}

impl RawMapOp for SideMap {
    fn run(&self, _ctx: &TaskContext, record: &[u8], out: &mut MapEmitter) -> Result<(), MrError> {
        self.tag(record, |key, text, write| out.emit_raw_with(key, text, write))
    }
}

/// Reduce side of [`row_join_job`]: the cross product of one key group's
/// left rows with its right rows.
pub struct RowJoinReduce;

impl RowJoinReduce {
    /// Join one key group of encoded `(side, row)` values: `emit(record,
    /// text)` once per joined row, left columns then right columns.
    ///
    /// Every value is walked, those of a one-sided group too: a broken
    /// value fails the task whatever its group joins, and such a
    /// [`MrError::Codec`] is reported before a bad side tag.
    pub fn join(
        values: &[&[u8]],
        mut emit: impl FnMut(Vec<u8>, u64) -> Result<(), MrError>,
    ) -> Result<(), MrError> {
        let (mut lefts, mut rights, mut bad_side) = (Vec::new(), Vec::new(), false);
        for value in values {
            let (side, row) = split_tag(value)?;
            let row = RowView::from_bytes(row, None)?;
            match side {
                0 => lefts.push(row),
                1 => rights.push(row),
                _ => bad_side = true,
            }
        }
        if bad_side {
            return Err(MrError::Op("bad join side tag".into()));
        }
        for l in &lefts {
            for r in &rights {
                let arity = l
                    .arity
                    .checked_add(r.arity)
                    .ok_or_else(|| MrError::Op("joined row arity exceeds u32".into()))?;
                let mut rec = Vec::with_capacity(counted_len(l.tokens.len() + r.tokens.len()));
                put_count(&mut rec, arity);
                rec.extend_from_slice(l.tokens);
                rec.extend_from_slice(r.tokens);
                emit(rec, (l.token_text + r.token_text).max(1))?;
            }
        }
        Ok(())
    }
}

impl RawReduceOp for RowJoinReduce {
    fn run(
        &self,
        _ctx: &TaskContext,
        key: &[u8],
        values: &[&[u8]],
        out: &mut OutEmitter,
    ) -> Result<(), MrError> {
        token_key(key)?; // refused first, as the typed reducer's key decode did
        Self::join(values, |record, text| out.emit_raw(record, text))
    }
}

/// Build a join job of `left ⋈_var right`.
///
/// Returns the job and the output schema (left columns ++ right columns).
pub fn row_join_job(
    name: impl Into<String>,
    left: (&str, &RowSchema),
    right: (&str, &RowSchema),
    var: &str,
    output: impl Into<String>,
) -> Result<(JobSpec, RowSchema), PlanError> {
    let input = |side: u64, which: &str, (file, schema): (&str, &RowSchema)| {
        let key_col = schema.index_of(var).ok_or_else(|| {
            PlanError::Internal(format!("{which} relation lacks join var ?{var}"))
        })?;
        let mapper: Arc<dyn RawMapOp> = Arc::new(SideMap { side, key_col });
        Ok::<_, PlanError>(InputBinding { file: file.to_string(), mapper })
    };
    let inputs = vec![input(0, "left", left)?, input(1, "right", right)?];
    let spec = JobSpec::map_reduce(name, inputs, Arc::new(RowJoinReduce), REDUCERS, output);
    Ok((spec, left.1.concat(right.1)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mr_rdf::Row;
    use mrsim::Engine;

    fn put_rows(engine: &Engine, name: &str, rows: Vec<Row>) {
        engine.put_records(name, rows).unwrap();
    }

    #[test]
    fn joins_on_shared_var() {
        let engine = Engine::unbounded();
        let lschema = RowSchema::new(vec![Some("a".into()), Some("x".into())]);
        let rschema = RowSchema::new(vec![Some("x".into()), Some("b".into())]);
        put_rows(
            &engine,
            "L",
            vec![
                vec!["<a1>".into(), "<k1>".into()],
                vec!["<a2>".into(), "<k1>".into()],
                vec!["<a3>".into(), "<k2>".into()],
            ],
        );
        put_rows(
            &engine,
            "R",
            vec![vec!["<k1>".into(), "<b1>".into()], vec!["<k3>".into(), "<b3>".into()]],
        );
        let (spec, schema) =
            row_join_job("join", ("L", &lschema), ("R", &rschema), "x", "out").unwrap();
        engine.run_job(&spec).unwrap();
        let mut rows: Vec<Row> = engine.read_records("out").unwrap();
        rows.sort();
        // k1 matches: 2 lefts × 1 right.
        assert_eq!(rows.len(), 2);
        assert_eq!(schema.arity(), 4);
        for r in &rows {
            assert_eq!(&*r[schema.index_of("x").unwrap()], "<k1>");
            assert_eq!(&*r[schema.index_of("b").unwrap()], "<b1>");
        }
    }

    #[test]
    fn missing_join_var_is_plan_error() {
        let lschema = RowSchema::new(vec![Some("a".into())]);
        let rschema = RowSchema::new(vec![Some("b".into())]);
        let r = row_join_job("j", ("L", &lschema), ("R", &rschema), "zz", "out");
        assert!(matches!(r, Err(PlanError::Internal(_))));
    }

    #[test]
    fn cross_product_within_key_group() {
        let engine = Engine::unbounded();
        let lschema = RowSchema::new(vec![Some("x".into()), Some("l".into())]);
        let rschema = RowSchema::new(vec![Some("x".into()), Some("r".into())]);
        let lefts: Vec<Row> =
            (0..3).map(|i| vec!["<k>".into(), format!("<l{i}>").into()]).collect();
        let rights: Vec<Row> =
            (0..4).map(|i| vec!["<k>".into(), format!("<r{i}>").into()]).collect();
        put_rows(&engine, "L", lefts);
        put_rows(&engine, "R", rights);
        let (spec, _) = row_join_job("j", ("L", &lschema), ("R", &rschema), "x", "out").unwrap();
        engine.run_job(&spec).unwrap();
        let rows: Vec<Row> = engine.read_records("out").unwrap();
        assert_eq!(rows.len(), 12);
    }
}
