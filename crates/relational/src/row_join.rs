//! Join of two materialized row relations on one shared variable — the
//! "join between stars" MR cycle of the relational plans.

use mr_rdf::{IdRow, PlanError, Row, RowSchema, SidedIdRow};
use mrsim::{
    map_fn, reduce_fn, reduce_fn_ctx, InputBinding, JobSpec, MrError, Rec, TypedMapEmitter,
    TypedOutEmitter, VarId,
};
use rdf_model::atom::Atom;
use std::sync::Arc;

use crate::star_join::REDUCERS;

/// Shuffle value: `(side, row)` with side 0 = left, 1 = right.
type SidedRow = (u64, Row);

fn side_mapper(side: u64, key_col: usize) -> Arc<dyn mrsim::RawMapOp> {
    map_fn(move |row: Row, out: &mut TypedMapEmitter<'_, Atom, SidedRow>| {
        let key = row
            .get(key_col)
            .ok_or_else(|| {
                MrError::Op(format!("row arity {} too small for key column {key_col}", row.len()))
            })?
            .clone();
        out.emit(&key, &(side, row));
        Ok(())
    })
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
    let lcol = left
        .1
        .index_of(var)
        .ok_or_else(|| PlanError::Internal(format!("left relation lacks join var ?{var}")))?;
    let rcol = right
        .1
        .index_of(var)
        .ok_or_else(|| PlanError::Internal(format!("right relation lacks join var ?{var}")))?;
    let schema = left.1.concat(right.1);
    let reducer =
        reduce_fn(move |_key: Atom, values: Vec<SidedRow>, out: &mut TypedOutEmitter<'_, Row>| {
            let mut lefts: Vec<&Row> = Vec::new();
            let mut rights: Vec<&Row> = Vec::new();
            for (side, row) in &values {
                match side {
                    0 => lefts.push(row),
                    1 => rights.push(row),
                    _ => return Err(MrError::Op("bad join side tag".into())),
                }
            }
            for l in &lefts {
                for r in &rights {
                    let mut joined: Row = Vec::with_capacity(l.len() + r.len());
                    joined.extend_from_slice(l);
                    joined.extend_from_slice(r);
                    out.emit(&joined)?;
                }
            }
            Ok(())
        });
    let spec = JobSpec::map_reduce(
        name,
        vec![
            InputBinding { file: left.0.to_string(), mapper: side_mapper(0, lcol) },
            InputBinding { file: right.0.to_string(), mapper: side_mapper(1, rcol) },
        ],
        reducer,
        REDUCERS,
        output,
    );
    Ok((spec, schema))
}

fn side_mapper_ids(side: u32, key_col: usize) -> Arc<dyn mrsim::RawMapOp> {
    map_fn(move |row: IdRow, out: &mut TypedMapEmitter<'_, VarId, SidedIdRow>| {
        let key = *row.0.get(key_col).ok_or_else(|| {
            MrError::Op(format!("row arity {} too small for key column {key_col}", row.0.len()))
        })?;
        out.emit(&VarId(key), &SidedIdRow { side, row });
        Ok(())
    })
}

/// ID-native [`row_join_job`]: joins two [`IdRow`] relations, shipping
/// varint ids through the shuffle and resolving to lexical [`Row`]s at
/// the output boundary via the engine's dictionary snapshot
/// (`Engine::with_dict`).
pub fn row_join_job_ids(
    name: impl Into<String>,
    left: (&str, &RowSchema),
    right: (&str, &RowSchema),
    var: &str,
    output: impl Into<String>,
) -> Result<(JobSpec, RowSchema), PlanError> {
    let lcol = left
        .1
        .index_of(var)
        .ok_or_else(|| PlanError::Internal(format!("left relation lacks join var ?{var}")))?;
    let rcol = right
        .1
        .index_of(var)
        .ok_or_else(|| PlanError::Internal(format!("right relation lacks join var ?{var}")))?;
    let schema = left.1.concat(right.1);
    let reducer = reduce_fn_ctx(
        move |ctx: &mrsim::TaskContext,
              _key: VarId,
              values: Vec<SidedIdRow>,
              out: &mut TypedOutEmitter<'_, Row>| {
            let mut lefts: Vec<Row> = Vec::new();
            let mut rights: Vec<Row> = Vec::new();
            for v in &values {
                let row = v
                    .row
                    .0
                    .iter()
                    .map(|&id| ctx.resolve_atom(id))
                    .collect::<Result<Row, MrError>>()?;
                match v.side {
                    0 => lefts.push(row),
                    1 => rights.push(row),
                    _ => return Err(MrError::Op("bad join side tag".into())),
                }
            }
            // The lexical reducer sees each side's rows in encoded token
            // order; restore it after resolution so the cross product
            // emits in the same order.
            lefts.sort_by_cached_key(Rec::to_bytes);
            rights.sort_by_cached_key(Rec::to_bytes);
            for l in &lefts {
                for r in &rights {
                    let mut joined: Row = Vec::with_capacity(l.len() + r.len());
                    joined.extend_from_slice(l);
                    joined.extend_from_slice(r);
                    out.emit(&joined)?;
                }
            }
            Ok(())
        },
    );
    let spec = JobSpec::map_reduce(
        name,
        vec![
            InputBinding { file: left.0.to_string(), mapper: side_mapper_ids(0, lcol) },
            InputBinding { file: right.0.to_string(), mapper: side_mapper_ids(1, rcol) },
        ],
        reducer,
        REDUCERS,
        output,
    );
    Ok((spec, schema))
}

#[cfg(test)]
mod tests {
    use super::*;
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
            let b = schema.binding(r).unwrap();
            assert_eq!(&**b.get("x").unwrap(), "<k1>");
            assert_eq!(&**b.get("b").unwrap(), "<b1>");
        }
    }

    #[test]
    fn id_row_join_matches_lexical_and_ships_fewer_bytes() {
        let lschema = RowSchema::new(vec![Some("a".into()), Some("x".into())]);
        let rschema = RowSchema::new(vec![Some("x".into()), Some("b".into())]);
        let lefts: Vec<Row> = vec![
            vec!["<a1>".into(), "<k1>".into()],
            vec!["<a2>".into(), "<k1>".into()],
            vec!["<a3>".into(), "<k2>".into()],
        ];
        let rights: Vec<Row> =
            vec![vec!["<k1>".into(), "<b1>".into()], vec!["<k3>".into(), "<b3>".into()]];

        let lex = Engine::unbounded();
        put_rows(&lex, "L", lefts.clone());
        put_rows(&lex, "R", rights.clone());
        let (spec, schema) =
            row_join_job("join", ("L", &lschema), ("R", &rschema), "x", "out").unwrap();
        let lex_stats = lex.run_job(&spec).unwrap();
        let mut lex_rows: Vec<Row> = lex.read_records("out").unwrap();
        lex_rows.sort();

        let mut dict = rdf_model::Dictionary::new();
        let encode_rows = |rows: &[Row], dict: &mut rdf_model::Dictionary| -> Vec<IdRow> {
            rows.iter().map(|r| IdRow(r.iter().map(|a| dict.encode(a)).collect())).collect()
        };
        let id_lefts = encode_rows(&lefts, &mut dict);
        let id_rights = encode_rows(&rights, &mut dict);
        let ids = Engine::unbounded().with_dict(Arc::new(dict.clone()));
        ids.put_records("L", id_lefts).unwrap();
        ids.put_records("R", id_rights).unwrap();
        let (spec, id_schema) =
            row_join_job_ids("join-ids", ("L", &lschema), ("R", &rschema), "x", "out").unwrap();
        let id_stats = ids.run_job(&spec).unwrap();
        let mut id_rows: Vec<Row> = ids.read_records("out").unwrap();
        id_rows.sort();

        assert_eq!(lex_rows, id_rows);
        assert_eq!(schema.cols, id_schema.cols);
        assert!(
            id_stats.shuffle_wire_bytes() < lex_stats.shuffle_wire_bytes(),
            "id wire {} >= lexical wire {}",
            id_stats.shuffle_wire_bytes(),
            lex_stats.shuffle_wire_bytes()
        );
    }

    #[test]
    fn id_row_join_rejects_foreign_ids() {
        // A row mentioning an id outside the snapshot fails the task
        // instead of fabricating output.
        let lschema = RowSchema::new(vec![Some("x".into())]);
        let rschema = RowSchema::new(vec![Some("x".into())]);
        let mut dict = rdf_model::Dictionary::new();
        let k = dict.encode(&rdf_model::atom::atom("<k>"));
        let engine = Engine::unbounded().with_dict(Arc::new(dict));
        engine.put_records("L", vec![IdRow(vec![k])]).unwrap();
        engine.put_records("R", vec![IdRow(vec![k + 1])]).unwrap();
        let (spec, _) =
            row_join_job_ids("join-ids", ("L", &lschema), ("R", &rschema), "x", "out").unwrap();
        let err = engine.run_job(&spec).unwrap_err();
        assert!(matches!(err, MrError::Codec(_)), "unexpected error: {err:?}");
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
