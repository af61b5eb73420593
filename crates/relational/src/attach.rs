//! Attach jobs: evaluate a star (or a single pattern) from the base triple
//! relation *and* join it with an existing row relation in the same MR
//! cycle.
//!
//! These are the building blocks of the paper's **Sel-SJ-first** grouping
//! (Figure 3): "most selective grouping of joins first but preserving star
//! structure as much as possible to minimize MR cycles". For
//! object-subject joins, one attach cycle computes the second star-join
//! AND the inter-star join together (2 cycles total, both scanning the
//! triple relation); for object-object joins a pattern-attach plus a
//! star-attach are needed (3 cycles, all full scans) — exactly the MR/FS
//! counts the paper's case study reports.

use mr_rdf::{PlanError, Row, RowSchema, TripleRec};
use mrsim::{map_fn, reduce_fn, InputBinding, JobSpec, MrError, TypedMapEmitter, TypedOutEmitter};
use rdf_model::atom::Atom;
use rdf_query::{StarPattern, TriplePattern};

use crate::star_join::{star_schema, REDUCERS};

/// Shuffle value: tag 0 carries a row; tag `1+i` carries the
/// `(property, object)` of a match for pattern `i`.
type AttachVal = (u64, Vec<Atom>);

/// Join a row relation (keyed by `key_var`, which must equal the star's
/// subject) with the star's matches computed from the base triple relation
/// in the same cycle.
pub fn star_attach_job(
    name: impl Into<String>,
    rows: (&str, &RowSchema),
    key_var: &str,
    star: &StarPattern,
    triples: &str,
    output: impl Into<String>,
) -> Result<(JobSpec, RowSchema), PlanError> {
    let key_col = rows
        .1
        .index_of(key_var)
        .ok_or_else(|| PlanError::Internal(format!("rows lack attach key ?{key_var}")))?;
    let schema = rows.1.concat(&star_schema(star));

    let row_mapper = map_fn(move |row: Row, out: &mut TypedMapEmitter<'_, Atom, AttachVal>| {
        let key = row
            .get(key_col)
            .ok_or_else(|| MrError::Op("row too short for attach key".into()))?
            .clone();
        out.emit(&key, &(0, row));
        Ok(())
    });
    let star_m = star.clone();
    let triple_mapper =
        map_fn(move |rec: TripleRec, out: &mut TypedMapEmitter<'_, Atom, AttachVal>| {
            let t = &rec.0;
            if !star_m.subject_accepts(&t.s) {
                return Ok(());
            }
            for (idx, pat) in star_m.patterns.iter().enumerate() {
                if pat.matches_structurally(t) {
                    out.emit(&t.s, &(1 + idx as u64, vec![t.p.clone(), t.o.clone()]));
                }
            }
            Ok(())
        });

    let star_r = star.clone();
    let reducer = reduce_fn(
        move |subject: Atom, values: Vec<AttachVal>, out: &mut TypedOutEmitter<'_, Row>| {
            let k = star_r.patterns.len();
            let mut rows: Vec<Vec<Atom>> = Vec::new();
            let mut matches: Vec<Vec<(Atom, Atom)>> = vec![Vec::new(); k];
            for (tag, payload) in values {
                if tag == 0 {
                    rows.push(payload);
                } else {
                    let idx = (tag - 1) as usize;
                    if idx >= k || payload.len() != 2 {
                        return Err(MrError::Op("malformed attach value".into()));
                    }
                    matches[idx].push((payload[0].clone(), payload[1].clone()));
                }
            }
            if rows.is_empty() || matches.iter().any(Vec::is_empty) {
                return Ok(());
            }
            // Cross product of star matches, appended to each row.
            let mut cursor = vec![0usize; k];
            loop {
                let mut star_cols: Vec<Atom> = Vec::with_capacity(3 * k);
                for (i, c) in cursor.iter().enumerate() {
                    let (p, o) = &matches[i][*c];
                    star_cols.push(subject.clone());
                    star_cols.push(p.clone());
                    star_cols.push(o.clone());
                }
                for row in &rows {
                    let mut joined = row.clone();
                    joined.extend(star_cols.iter().cloned());
                    out.emit(&joined)?;
                }
                let mut pos = k;
                loop {
                    if pos == 0 {
                        return Ok(());
                    }
                    pos -= 1;
                    cursor[pos] += 1;
                    if cursor[pos] < matches[pos].len() {
                        break;
                    }
                    cursor[pos] = 0;
                }
            }
        },
    );
    let spec = JobSpec::map_reduce(
        name,
        vec![
            InputBinding { file: rows.0.to_string(), mapper: row_mapper },
            InputBinding { file: triples.to_string(), mapper: triple_mapper },
        ],
        reducer,
        REDUCERS,
        output,
    )
    .with_full_scan();
    Ok((spec, schema))
}

/// Join a row relation (keyed by `key_var`) with the matches of a single
/// triple pattern from the base relation, keyed by the pattern's
/// **object** — the first step of Sel-SJ-first's object-object handling.
pub fn pattern_attach_job(
    name: impl Into<String>,
    rows: (&str, &RowSchema),
    key_var: &str,
    pattern: &TriplePattern,
    triples: &str,
    output: impl Into<String>,
) -> Result<(JobSpec, RowSchema), PlanError> {
    let key_col = rows
        .1
        .index_of(key_var)
        .ok_or_else(|| PlanError::Internal(format!("rows lack attach key ?{key_var}")))?;
    // Output schema: rows ++ (subject, property, object) of the pattern.
    let mini = StarPattern::new(
        match &pattern.subject {
            rdf_query::SubjPattern::Var(v) => v.clone(),
            rdf_query::SubjPattern::Const(_) => {
                return Err(PlanError::Internal("pattern attach needs a variable subject".into()))
            }
        },
        vec![pattern.clone()],
    );
    let schema = rows.1.concat(&star_schema(&mini));

    let row_mapper = map_fn(move |row: Row, out: &mut TypedMapEmitter<'_, Atom, AttachVal>| {
        let key = row
            .get(key_col)
            .ok_or_else(|| MrError::Op("row too short for attach key".into()))?
            .clone();
        out.emit(&key, &(0, row));
        Ok(())
    });
    let pat = pattern.clone();
    let triple_mapper =
        map_fn(move |rec: TripleRec, out: &mut TypedMapEmitter<'_, Atom, AttachVal>| {
            let t = &rec.0;
            if pat.matches_structurally(t) {
                out.emit(&t.o, &(1, vec![t.s.clone(), t.p.clone(), t.o.clone()]));
            }
            Ok(())
        });
    let reducer =
        reduce_fn(move |_key: Atom, values: Vec<AttachVal>, out: &mut TypedOutEmitter<'_, Row>| {
            let mut rows: Vec<Vec<Atom>> = Vec::new();
            let mut matches: Vec<Vec<Atom>> = Vec::new();
            for (tag, payload) in values {
                if tag == 0 {
                    rows.push(payload);
                } else {
                    matches.push(payload);
                }
            }
            for row in &rows {
                for m in &matches {
                    let mut joined = row.clone();
                    joined.extend(m.iter().cloned());
                    out.emit(&joined)?;
                }
            }
            Ok(())
        });
    let spec = JobSpec::map_reduce(
        name,
        vec![
            InputBinding { file: rows.0.to_string(), mapper: row_mapper },
            InputBinding { file: triples.to_string(), mapper: triple_mapper },
        ],
        reducer,
        REDUCERS,
        output,
    )
    .with_full_scan();
    Ok((spec, schema))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::star_join::star_join_job;
    use mr_rdf::{load_store, read_solutions};
    use mrsim::Engine;
    use rdf_model::{STriple, TripleStore};
    use rdf_query::ObjPattern;

    fn store() -> TripleStore {
        TripleStore::from_triples(vec![
            STriple::new("<p1>", "<producer>", "<m1>"),
            STriple::new("<p1>", "<label>", "\"prod1\""),
            STriple::new("<p2>", "<producer>", "<m1>"),
            STriple::new("<p2>", "<label>", "\"prod2\""),
            STriple::new("<m1>", "<label>", "\"maker\""),
            STriple::new("<m1>", "<country>", "<c1>"),
        ])
    }

    fn query_text() -> &'static str {
        "SELECT * WHERE {
            ?p <producer> ?pr . ?p <label> ?l1 .
            ?pr <label> ?l2 . ?pr <country> ?c .
         }"
    }

    #[test]
    fn star_attach_equals_two_phase_plan() {
        let q = rdf_query::parse_query(query_text()).unwrap();
        let store = store();
        let gold = rdf_query::naive::evaluate(&q, &store);
        assert_eq!(gold.len(), 2);

        let engine = Engine::unbounded();
        load_store(&engine, "t", &store).unwrap();
        // Cycle 1: star join of the product star.
        let (j1, s1) = star_join_job("s1", &q.stars[0], "t", "r1", false);
        engine.run_job(&j1).unwrap();
        // Cycle 2: attach the producer star by its subject (join var pr).
        let (j2, s2) =
            star_attach_job("attach", ("r1", &s1), "pr", &q.stars[1], "t", "out").unwrap();
        engine.run_job(&j2).unwrap();
        let vars = q.solution_vars();
        let got = read_solutions(&engine, "out", vars.clone(), s2.extractor(&vars).unwrap());
        assert_eq!(got.unwrap(), gold);
    }

    #[test]
    fn pattern_attach_joins_on_object() {
        // rows keyed by ?x joined with pattern (?r <reviewFor> ?x) on its
        // object.
        let store = TripleStore::from_triples(vec![
            STriple::new("<o1>", "<offerFor>", "<prod>"),
            STriple::new("<r1>", "<reviewFor>", "<prod>"),
            STriple::new("<r2>", "<reviewFor>", "<prod>"),
            STriple::new("<r3>", "<reviewFor>", "<other>"),
        ]);
        let engine = Engine::unbounded();
        load_store(&engine, "t", &store).unwrap();
        let rows_schema = RowSchema::new(vec![Some("o".into()), Some("x".into())]);
        engine.put_records::<Row>("rows", vec![vec!["<o1>".into(), "<prod>".into()]]).unwrap();
        let pattern = TriplePattern::bound("r", "<reviewFor>", ObjPattern::Var("x".into()));
        let (job, schema) =
            pattern_attach_job("pa", ("rows", &rows_schema), "x", &pattern, "t", "out").unwrap();
        engine.run_job(&job).unwrap();
        let rows: Vec<Row> = engine.read_records("out").unwrap();
        assert_eq!(rows.len(), 2); // r1, r2 match <prod>
        for r in &rows {
            assert_eq!(&*r[schema.index_of("x").unwrap()], "<prod>");
            assert!(schema.index_of("r").is_some());
        }
    }

    #[test]
    fn attach_missing_key_is_plan_error() {
        let schema = RowSchema::new(vec![Some("a".into())]);
        let star = StarPattern::new(
            "b",
            vec![TriplePattern::bound("b", "<p>", ObjPattern::Var("x".into()))],
        );
        assert!(star_attach_job("x", ("rows", &schema), "zz", &star, "t", "o").is_err());
    }
}
