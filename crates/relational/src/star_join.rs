//! Relational star-join jobs (one star subpattern per MR cycle).
//!
//! This is the baseline evaluation the paper compares against: the map
//! phase routes triples matching any of the star's patterns by subject
//! (performing vertical partitioning in-map, plus the full union scan for
//! unbound-property patterns); the reduce phase materializes the star's
//! matches as **flat 3k-arity n-tuples** ([`mr_rdf::Row`]s) — every
//! combination of bound matches with every unbound match, the redundant
//! representation whose cost the paper quantifies. Both phases read their
//! records in place and splice the triples' own encoded tokens.

use mr_rdf::{next_combination, RowSchema, RowView, TripleView, REDUCERS};
use mrsim::codec::{counted_len, decimal_digits, put_count, put_tag, split_tag, token_key};
use mrsim::{
    InputBinding, JobSpec, MapEmitter, MrError, OutEmitter, RawMapOp, RawReduceOp, SliceReader,
    TaskContext,
};
use rdf_query::{ObjPattern, PropPattern, StarPattern, SubjPattern};
use std::sync::Arc;

/// Which pattern subset a mapper handles — Pig issues one LOAD per
/// relation group (bound VP relations in one pass, the unbound union in
/// another), so its star jobs bind two mappers to the same input file and
/// read it twice; Hive shares one scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternSet {
    /// All patterns in one scan (Hive shared scan).
    All,
    /// Only bound-property patterns (Pig's VP load).
    BoundOnly,
    /// Only unbound-property patterns (Pig's union-of-all load).
    UnboundOnly,
}

/// Map side of [`star_join_job`]: routes each triple, by subject, to every
/// selected pattern of the star it matches.
pub struct StarMap {
    /// The star subpattern.
    pub star: StarPattern,
    /// The patterns this scan serves.
    pub which: PatternSet,
}

impl StarMap {
    /// Map one encoded [`mr_rdf::TripleRec`]: `emit(key, text,
    /// write_value)` once per matched pattern, in pattern order — the key
    /// the triple's own encoded subject, `text` the shuffle row's
    /// simulated size, `write_value` appending the pattern index as a tag
    /// and `(property, object)` as the triple encodes them.
    pub fn route(
        &self,
        rec: &[u8],
        mut emit: impl FnMut(&[u8], u64, &dyn Fn(&mut Vec<u8>)),
    ) -> Result<(), MrError> {
        let t = TripleView::from_bytes(rec)?;
        if !self.star.subject_accepts(t.s) {
            return Ok(());
        }
        // The shuffle row is `s \t idx \t p \t o \n`.
        let tokens_text = (t.s.len() + t.p.len() + t.o.len()) as u64 + 1;
        for (idx, pat) in self.star.patterns.iter().enumerate() {
            let selected = match self.which {
                PatternSet::All => true,
                PatternSet::BoundOnly => !pat.is_unbound_property(),
                PatternSet::UnboundOnly => pat.is_unbound_property(),
            };
            if selected && pat.matches_tokens(t.s, t.p, t.o) {
                let idx = idx as u64;
                emit(t.s_bytes, tokens_text + decimal_digits(idx), &|value| {
                    put_tag(value, idx);
                    value.extend_from_slice(t.po_bytes);
                });
            }
        }
        Ok(())
    }
}

impl RawMapOp for StarMap {
    fn run(&self, _ctx: &TaskContext, record: &[u8], out: &mut MapEmitter) -> Result<(), MrError> {
        self.route(record, |key, text, write| out.emit_raw_with(key, text, write))
    }
}

/// Reduce side of [`star_join_job`]: per subject, the cross product of the
/// per-pattern matches as flat rows.
pub struct StarReduce {
    /// Number of patterns in the star.
    pub patterns: usize,
}

impl StarReduce {
    /// Join one subject's encoded `(pattern index, (property, object))`
    /// values: `emit(record, text)` once per combination of one match per
    /// pattern, the last pattern's match varying fastest; nothing if some
    /// pattern has no match. A row is the count `3k` and then, per pattern,
    /// the key's bytes and the match's: the attach's rows
    /// (`emit_star_rows`) with one empty row.
    ///
    /// Every value is walked before anything is emitted, so a broken value
    /// fails the task, and such a [`MrError::Codec`] is reported before an
    /// out-of-range index.
    pub fn join(
        &self,
        key: &[u8],
        values: &[&[u8]],
        emit: impl FnMut(Vec<u8>, u64) -> Result<(), MrError>,
    ) -> Result<(), MrError> {
        let s_text = token_key(key)?.len() as u64 + 1;
        // Per pattern, each match's encoded `(p, o)` and its `p \t o \t`.
        let mut matches: Vec<Vec<(&[u8], u64)>> = vec![Vec::new(); self.patterns];
        let mut bad_idx = None;
        for value in values {
            let (idx, po) = split_tag(value)?;
            let mut r = SliceReader::new(po);
            let po_text = (r.read_str()?.len() + r.read_str()?.len()) as u64 + 2;
            r.finish()?;
            match usize::try_from(idx).ok().and_then(|i| matches.get_mut(i)) {
                Some(bucket) => bucket.push((po, po_text)),
                None => bad_idx = bad_idx.or(Some(idx)),
            }
        }
        if let Some(idx) = bad_idx {
            return Err(MrError::Op(format!("pattern index {idx} out of range")));
        }
        let empty = RowView { arity: 0, token_text: 0, tokens: &[], column: None };
        emit_star_rows(key, s_text, &[empty], &matches, emit)
    }
}

/// One subject's star rows joined to `rows`: per combination of one match
/// per pattern (the last pattern's varying fastest), per row in order, the
/// record `count · row tokens · (key · match)ᵏ` and its text (at least 1).
/// A match is its encoded `(property, object)` and its `p \t o \t` text.
/// Nothing is emitted without a row or with a pattern unmatched.
pub(crate) fn emit_star_rows(
    key: &[u8],
    s_text: u64,
    rows: &[RowView<'_>],
    matches: &[Vec<(&[u8], u64)>],
    mut emit: impl FnMut(Vec<u8>, u64) -> Result<(), MrError>,
) -> Result<(), MrError> {
    if rows.is_empty() || matches.iter().any(Vec::is_empty) {
        return Ok(()); // star structure violated for this subject
    }
    let mut cursor = vec![0usize; matches.len()];
    loop {
        let picked = || cursor.iter().zip(matches).map(|(&c, bucket)| bucket[c]);
        let star_len: usize = picked().map(|(po, _)| key.len() + po.len()).sum();
        let star_text: u64 = picked().map(|(_, po_text)| s_text + po_text).sum();
        for row in rows {
            let arity = u32::try_from(u64::from(row.arity) + 3 * matches.len() as u64)
                .map_err(|_| MrError::Op("joined row arity exceeds u32".into()))?;
            let mut rec = Vec::with_capacity(counted_len(row.tokens.len() + star_len));
            put_count(&mut rec, arity);
            rec.extend_from_slice(row.tokens);
            for (po, _) in picked() {
                rec.extend_from_slice(key);
                rec.extend_from_slice(po);
            }
            emit(rec, (row.token_text + star_text).max(1))?;
        }
        if !next_combination(&mut cursor, |i| matches[i].len()) {
            return Ok(());
        }
    }
}

impl RawReduceOp for StarReduce {
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

/// The schema of a star-join output: 3 columns per pattern.
pub fn star_schema(star: &StarPattern) -> RowSchema {
    let mut cols = Vec::with_capacity(star.patterns.len() * 3);
    for pat in &star.patterns {
        cols.push(match &pat.subject {
            SubjPattern::Var(v) => Some(v.clone()),
            SubjPattern::Const(_) => None,
        });
        cols.push(match &pat.property {
            PropPattern::Unbound(v) => Some(v.clone()),
            PropPattern::Bound(_) => None,
        });
        cols.push(match &pat.object {
            ObjPattern::Var(v) | ObjPattern::Filtered(v, _) => Some(v.clone()),
            ObjPattern::Const(_) => None,
        });
    }
    RowSchema::new(cols)
}

/// Build a full star-join job.
///
/// `pig_loads = true` binds separate bound/unbound mappers to the input
/// (double scan); otherwise one shared-scan mapper is used.
pub fn star_join_job(
    name: impl Into<String>,
    star: &StarPattern,
    input: &str,
    output: impl Into<String>,
    pig_loads: bool,
) -> (JobSpec, RowSchema) {
    let scan = |which| {
        let mapper: Arc<dyn RawMapOp> = Arc::new(StarMap { star: star.clone(), which });
        InputBinding { file: input.to_string(), mapper }
    };
    let mut inputs = Vec::new();
    if pig_loads {
        if !star.bound_patterns().is_empty() {
            inputs.push(scan(PatternSet::BoundOnly));
        }
        if !star.unbound_patterns().is_empty() {
            inputs.push(scan(PatternSet::UnboundOnly));
        }
    } else {
        inputs.push(scan(PatternSet::All));
    }
    let reducer = Arc::new(StarReduce { patterns: star.patterns.len() });
    let spec = JobSpec::map_reduce(name, inputs, reducer, REDUCERS, output).with_full_scan();
    (spec, star_schema(star))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mr_rdf::{load_store, Row};
    use mrsim::Engine;
    use rdf_model::{STriple, TripleStore};
    use rdf_query::TriplePattern;

    fn store() -> TripleStore {
        TripleStore::from_triples(vec![
            STriple::new("<g1>", "<label>", "\"a\""),
            STriple::new("<g1>", "<xGO>", "<go1>"),
            STriple::new("<g1>", "<xGO>", "<go2>"),
            STriple::new("<g2>", "<label>", "\"b\""),
            STriple::new("<g2>", "<other>", "<x>"),
        ])
    }

    fn bound_star() -> StarPattern {
        StarPattern::new(
            "g",
            vec![
                TriplePattern::bound("g", "<label>", ObjPattern::Var("l".into())),
                TriplePattern::bound("g", "<xGO>", ObjPattern::Var("go".into())),
            ],
        )
    }

    fn unbound_star() -> StarPattern {
        StarPattern::new(
            "g",
            vec![
                TriplePattern::bound("g", "<label>", ObjPattern::Var("l".into())),
                TriplePattern::unbound("g", "p", ObjPattern::Var("o".into())),
            ],
        )
    }

    fn run(star: StarPattern, pig: bool) -> (Vec<Row>, RowSchema, mrsim::JobStats) {
        let engine = Engine::unbounded();
        load_store(&engine, "t", &store()).unwrap();
        let (spec, schema) = star_join_job("sj", &star, "t", "out", pig);
        let stats = engine.run_job(&spec).unwrap();
        let mut rows: Vec<Row> = engine.read_records("out").unwrap();
        rows.sort();
        (rows, schema, stats)
    }

    #[test]
    fn bound_star_cross_product() {
        let (rows, schema, _) = run(bound_star(), false);
        // g1: 1 label × 2 xGO; g2 filtered out (no xGO).
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert_eq!(r.len(), 6);
            assert_eq!(&*r[schema.index_of("g").unwrap()], "<g1>");
        }
    }

    #[test]
    fn unbound_star_produces_all_combinations() {
        let (rows, schema, _) = run(unbound_star(), false);
        // g1: 1 label × 3 triples (multiple roles!) = 3
        // g2: 1 label × 2 triples = 2
        assert_eq!(rows.len(), 5);
        // the label triple itself appears as unbound match
        assert!(rows.iter().any(|r| &*r[schema.index_of("p").unwrap()] == "<label>"));
    }

    #[test]
    fn pig_loads_double_the_input_scan() {
        let (rows_shared, _, stats_shared) = run(unbound_star(), false);
        let (rows_pig, _, stats_pig) = run(unbound_star(), true);
        assert_eq!(rows_shared, rows_pig, "results must not depend on scan mode");
        assert_eq!(stats_pig.hdfs_read_bytes, 2 * stats_shared.hdfs_read_bytes);
    }

    #[test]
    fn redundancy_grows_with_multiplicity() {
        // Add more xGO triples -> unbound rows repeat the bound component
        // once per triple.
        let mut s = store();
        for i in 3..10 {
            s.insert(STriple::new("<g1>", "<xGO>", format!("<go{i}>")));
        }
        let engine = Engine::unbounded();
        load_store(&engine, "t", &s).unwrap();
        let (spec, _) = star_join_job("sj", &unbound_star(), "t", "out", false);
        engine.run_job(&spec).unwrap();
        let rows: Vec<Row> = engine.read_records("out").unwrap();
        // g1 now has 10 triples -> 10 combos; g2 2.
        assert_eq!(rows.len(), 12);
    }

    #[test]
    fn subject_filter_pushed_into_map() {
        let star = unbound_star()
            .with_subject_filter(rdf_query::ObjFilter::Equals(rdf_model::atom::atom("<g2>")));
        let (rows, schema, _) = run(star, false);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert_eq!(&*r[schema.index_of("g").unwrap()], "<g2>");
        }
    }

    #[test]
    fn schema_marks_constants_none() {
        let star = StarPattern::new(
            "g",
            vec![TriplePattern::bound(
                "g",
                "<label>",
                ObjPattern::Const(rdf_model::atom::atom("\"a\"")),
            )],
        );
        let schema = star_schema(&star);
        assert_eq!(schema.cols, vec![Some("g".to_string()), None, None]);
    }
}
