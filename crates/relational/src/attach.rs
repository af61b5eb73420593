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
//!
//! Records are read in place and spliced. A shuffle value is a tag and an
//! encoded row: tag 0 a row of the relation ([`SideMap`] side 0) and tag
//! `1 + i` a match of pattern `i` — `(property, object)` in a star attach,
//! the triple in a pattern attach, whose tag 1 makes it [`RowJoinReduce`]'s.

use mr_rdf::{PlanError, RowSchema, RowView, TripleView, REDUCERS};
use mrsim::codec::{
    decimal_digits, put_count, put_tag, split_tag, token_key, token_key_text, token_len,
};
use mrsim::{
    InputBinding, JobSpec, MapEmitter, MrError, OutEmitter, RawMapOp, RawReduceOp, TaskContext,
};
use rdf_query::{StarPattern, SubjPattern, TriplePattern};
use std::sync::Arc;

use crate::row_join::{RowJoinReduce, SideMap};
use crate::star_join::{emit_star_rows, star_schema};

/// Triple side of both attach jobs: ships each triple once per pattern of
/// `star` it matches, tagged `1 + i`.
pub struct AttachMap {
    /// The star (for a pattern attach, the one pattern's star).
    pub star: StarPattern,
    /// Key on the object and ship the whole triple (a pattern attach), not
    /// on the subject with its `(property, object)` (a star attach).
    pub by_object: bool,
}

impl AttachMap {
    /// Map one encoded [`mr_rdf::TripleRec`]: `emit(key, text,
    /// write_value)` per matched pattern, in pattern order — the key the
    /// triple's own encoded subject or object, `text` the shuffle row's
    /// simulated size, `write_value` appending the tag and the row.
    pub fn route(
        &self,
        rec: &[u8],
        mut emit: impl FnMut(&[u8], u64, &dyn Fn(&mut Vec<u8>)),
    ) -> Result<(), MrError> {
        let t = TripleView::from_bytes(rec)?;
        if !self.star.subject_accepts(t.s) {
            return Ok(());
        }
        // The shuffle row is `key \t tag \t [s \t] p \t o \n`.
        let po_text = (t.p.len() + t.o.len()) as u64 + 2;
        let (key, arity, row, row_text) = if self.by_object {
            (&t.po_bytes[token_len(t.p)..], 3, rec, t.s.len() as u64 + 1 + po_text)
        } else {
            (t.s_bytes, 2, t.po_bytes, po_text)
        };
        for (i, pat) in self.star.patterns.iter().enumerate() {
            if pat.matches_tokens(t.s, t.p, t.o) {
                let tag = 1 + i as u64;
                emit(key, token_key_text(key) + row_text + decimal_digits(tag), &|value| {
                    put_tag(value, tag);
                    put_count(value, arity);
                    value.extend_from_slice(row);
                });
            }
        }
        Ok(())
    }
}

impl RawMapOp for AttachMap {
    fn run(&self, _ctx: &TaskContext, record: &[u8], out: &mut MapEmitter) -> Result<(), MrError> {
        self.route(record, |key, text, write| out.emit_raw_with(key, text, write))
    }
}

/// Reduce side of [`star_attach_job`]: per subject, every row joined with
/// the cross product of the star's matches.
pub struct StarAttachReduce {
    /// Number of patterns in the star.
    pub patterns: usize,
}

impl StarAttachReduce {
    /// Join one subject's encoded `(tag, row)` values: `emit(record, text)`
    /// per combination of one match per pattern (the last pattern's varying
    /// fastest), within it per row in value order; nothing if there is no
    /// row or some pattern has no match. A record is the count, the row's
    /// tokens, then per pattern the key's bytes and the match's
    /// (`emit_star_rows`, which the star join shares).
    ///
    /// Every value is walked before anything is emitted, and a broken one's
    /// [`MrError::Codec`] is reported before a tag past the star or a match
    /// that is not one `(property, object)`.
    pub fn join(
        &self,
        key: &[u8],
        values: &[&[u8]],
        emit: impl FnMut(Vec<u8>, u64) -> Result<(), MrError>,
    ) -> Result<(), MrError> {
        let s_text = token_key(key)?.len() as u64 + 1;
        let (mut rows, mut matches) = (Vec::new(), vec![Vec::new(); self.patterns]);
        let mut malformed = false;
        for value in values {
            let (tag, row) = split_tag(value)?;
            let row = RowView::from_bytes(row, None)?;
            match tag.checked_sub(1).map(usize::try_from) {
                None => rows.push(row),
                Some(Ok(i)) if i < self.patterns && row.arity == 2 => {
                    matches[i].push((row.tokens, row.token_text))
                }
                Some(_) => malformed = true,
            }
        }
        if malformed {
            return Err(MrError::Op("malformed attach value".into()));
        }
        emit_star_rows(key, s_text, &rows, &matches, emit)
    }
}

impl RawReduceOp for StarAttachReduce {
    fn run(
        &self,
        _ctx: &TaskContext,
        key: &[u8],
        values: &[&[u8]],
        out: &mut OutEmitter,
    ) -> Result<(), MrError> {
        self.join(key, values, |record, text| out.emit_raw(record, text))
    }
}

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
    let map = AttachMap { star: star.clone(), by_object: false };
    let reducer = Arc::new(StarAttachReduce { patterns: star.patterns.len() });
    attach_job(name, rows, key_var, map, triples, reducer, output)
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
    let SubjPattern::Var(subject) = &pattern.subject else {
        return Err(PlanError::Internal("pattern attach needs a variable subject".into()));
    };
    let map = AttachMap { star: StarPattern::new(subject, vec![pattern.clone()]), by_object: true };
    attach_job(name, rows, key_var, map, triples, Arc::new(RowJoinReduce), output)
}

/// The cycle of both attach jobs: the rows as side 0 by their `key_var`
/// column and the triples through `map`, both full scans, to rows ⋈ star.
fn attach_job(
    name: impl Into<String>,
    (rows, schema): (&str, &RowSchema),
    key_var: &str,
    map: AttachMap,
    triples: &str,
    reducer: Arc<dyn RawReduceOp>,
    output: impl Into<String>,
) -> Result<(JobSpec, RowSchema), PlanError> {
    let key_col = schema
        .index_of(key_var)
        .ok_or_else(|| PlanError::Internal(format!("rows lack attach key ?{key_var}")))?;
    let joined = schema.concat(&star_schema(&map.star));
    let inputs = vec![
        InputBinding { file: rows.to_string(), mapper: Arc::new(SideMap { side: 0, key_col }) },
        InputBinding { file: triples.to_string(), mapper: Arc::new(map) },
    ];
    Ok((JobSpec::map_reduce(name, inputs, reducer, REDUCERS, output).with_full_scan(), joined))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::star_join::star_join_job;
    use mr_rdf::{load_store, Row};
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
        let mut add_rows = s2.extractor(&vars).unwrap();
        let mut got = rdf_query::SolutionRows::new(vars);
        for record in engine.hdfs().lock().get("out").unwrap().iter() {
            add_rows(record, &mut got).unwrap();
        }
        assert_eq!(got.finish(), gold);
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
