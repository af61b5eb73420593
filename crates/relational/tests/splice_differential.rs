//! The relational operators splice encoded bytes; this file keeps the
//! typed closures they replaced — decode every token into an `Atom`, clone,
//! re-encode, size the text through `Rec::text_size` — as the reference,
//! run through one small typed adapter over `Rec::from_bytes`, and checks
//! on random relations and random triple sets that both write the same
//! records (bytes and order), the same per-record text sizes and the same
//! `JobStats`, and refuse the same inputs with the same error: the star
//! join under every `PatternSet`, the row join with the key column
//! anywhere, Pig's load copy, and Figure 3's star and pattern attach.
//!
//! The attach jobs differ from their closures in two refusals, both of
//! input no planner writes. A relation row narrower than its key column is
//! an `Op` error in both, worded as `SideMap` words it. A shuffle value
//! tagged 2 or more in a pattern attach's group, which the typed reducer
//! took as a match, is `RowJoinReduce`'s "bad join side tag": no mapper
//! writes such a tag.

use mr_rdf::{load_store, Row, RowSchema, TripleRec};
use mrsim::{
    ClusterConfig, Engine, InputBinding, JobSpec, MapEmitter, MrError, OutEmitter, RawMapOnlyOp,
    RawMapOp, RawReduceOp, Rec, TaskContext,
};
use proptest::prelude::{prop, prop_assert, prop_assert_eq, proptest, ProptestConfig};
use proptest::strategy::{Just, Strategy};
use proptest::test_runner::TestCaseError;
use rdf_model::atom::{atom, Atom};
use rdf_model::{STriple, TripleStore};
use rdf_query::{ObjFilter, ObjPattern, PropPattern, StarPattern, SubjPattern, TriplePattern};
use relbase::attach::{pattern_attach_job, star_attach_job, AttachMap, StarAttachReduce};
use relbase::load::LoadCopy;
use relbase::row_join::{RowJoinReduce, SideMap};
use relbase::star_join::{PatternSet, StarMap, StarReduce, REDUCERS};
use relbase::{row_join_job, star_join_job};
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::Arc;

/// One shuffle record: key bytes, value bytes, row text size.
type Shipped = (Vec<u8>, Vec<u8>, u64);
/// One output record: bytes and text size.
type Written = (Vec<u8>, u64);

// ---------------------------------------------------------------------------
// The typed reference
// ---------------------------------------------------------------------------

mod reference {
    use super::*;

    /// Shuffle value of star-join jobs: `(pattern index, (property, object))`.
    pub type TaggedPo = (u64, (Atom, Atom));
    /// Shuffle value of row-join jobs: `(side, row)`.
    pub type SidedRow = (u64, Row);

    pub fn star_map(
        star: &StarPattern,
        which: PatternSet,
        rec: &TripleRec,
        mut emit: impl FnMut(&Atom, &TaggedPo),
    ) {
        let t = &rec.0;
        if !star.subject_accepts(&t.s) {
            return;
        }
        for (idx, pat) in star.patterns.iter().enumerate() {
            let selected = match which {
                PatternSet::All => true,
                PatternSet::BoundOnly => !pat.is_unbound_property(),
                PatternSet::UnboundOnly => pat.is_unbound_property(),
            };
            if selected && pat.matches_structurally(t) {
                emit(&t.s, &(idx as u64, (t.p.clone(), t.o.clone())));
            }
        }
    }

    pub fn star_reduce(
        k: usize,
        subject: Atom,
        values: Vec<TaggedPo>,
        mut emit: impl FnMut(&Row) -> Result<(), MrError>,
    ) -> Result<(), MrError> {
        let mut matches: Vec<Vec<(Atom, Atom)>> = vec![Vec::new(); k];
        for (idx, po) in values {
            let idx = idx as usize;
            if idx >= k {
                return Err(MrError::Op(format!("pattern index {idx} out of range")));
            }
            matches[idx].push(po);
        }
        if matches.iter().any(Vec::is_empty) {
            return Ok(());
        }
        let mut cursor = vec![0usize; k];
        loop {
            let mut row: Row = Vec::with_capacity(3 * k);
            for (i, c) in cursor.iter().enumerate() {
                let (p, o) = &matches[i][*c];
                row.push(subject.clone());
                row.push(p.clone());
                row.push(o.clone());
            }
            emit(&row)?;
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
    }

    pub fn side_map(
        side: u64,
        key_col: usize,
        row: Row,
        emit: impl FnOnce(&Atom, &SidedRow),
    ) -> Result<(), MrError> {
        let key = row
            .get(key_col)
            .ok_or_else(|| {
                MrError::Op(format!("row arity {} too small for key column {key_col}", row.len()))
            })?
            .clone();
        emit(&key, &(side, row));
        Ok(())
    }

    pub fn row_reduce(
        values: Vec<SidedRow>,
        mut emit: impl FnMut(&Row) -> Result<(), MrError>,
    ) -> Result<(), MrError> {
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
                emit(&joined)?;
            }
        }
        Ok(())
    }

    /// A shuffle record as the typed adapter ships and sizes it: the pair
    /// shares one row, one newline dropped.
    pub fn shipped<K: Rec, V: Rec>(key: &K, value: &V) -> Shipped {
        (key.to_bytes(), value.to_bytes(), key.text_size() + value.text_size() - 1)
    }

    /// An output record as the typed adapter writes and sizes it.
    pub fn written(row: &Row) -> Written {
        (row.to_bytes(), row.text_size())
    }

    /// Shuffle value of attach jobs: tag 0 carries a row; tag `1+i` carries
    /// a match for pattern `i`.
    pub type AttachVal = (u64, Vec<Atom>);

    pub fn attach_row_map(
        key_col: usize,
        row: Row,
        emit: impl FnOnce(&Atom, &AttachVal),
    ) -> Result<(), MrError> {
        let key = row
            .get(key_col)
            .ok_or_else(|| MrError::Op("row too short for attach key".into()))?
            .clone();
        emit(&key, &(0, row));
        Ok(())
    }

    pub fn star_attach_map(
        star: &StarPattern,
        rec: &TripleRec,
        mut emit: impl FnMut(&Atom, &AttachVal),
    ) {
        let t = &rec.0;
        if !star.subject_accepts(&t.s) {
            return;
        }
        for (idx, pat) in star.patterns.iter().enumerate() {
            if pat.matches_structurally(t) {
                emit(&t.s, &(1 + idx as u64, vec![t.p.clone(), t.o.clone()]));
            }
        }
    }

    pub fn star_attach_reduce(
        k: usize,
        subject: Atom,
        values: Vec<AttachVal>,
        mut emit: impl FnMut(&Row) -> Result<(), MrError>,
    ) -> Result<(), MrError> {
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
                emit(&joined)?;
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
    }

    pub fn pattern_attach_map(
        pat: &TriplePattern,
        rec: &TripleRec,
        mut emit: impl FnMut(&Atom, &AttachVal),
    ) {
        let t = &rec.0;
        if pat.matches_structurally(t) {
            emit(&t.o, &(1, vec![t.s.clone(), t.p.clone(), t.o.clone()]));
        }
    }

    pub fn pattern_attach_reduce(
        values: Vec<AttachVal>,
        mut emit: impl FnMut(&Row) -> Result<(), MrError>,
    ) -> Result<(), MrError> {
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
                emit(&joined)?;
            }
        }
        Ok(())
    }

    /// A key group through the typed reduce adapter: the key decoded, then
    /// every value, then the closure.
    pub fn reduce_group<V: Rec>(
        key: &[u8],
        values: &[&[u8]],
        f: impl FnOnce(Atom, Vec<V>, &mut dyn FnMut(&Row) -> Result<(), MrError>) -> Result<(), MrError>,
    ) -> Result<Vec<Written>, MrError> {
        let key = Atom::from_bytes(key)?;
        let values = values.iter().map(|v| V::from_bytes(v)).collect::<Result<Vec<V>, _>>()?;
        let mut out = Vec::new();
        f(key, values, &mut |row| {
            out.push(written(row));
            Ok(())
        })?;
        Ok(out)
    }

    /// The typed adapter the reference jobs run through, map side: the
    /// input record decoded by `Rec::from_bytes` into `I`, each `(Atom, V)`
    /// pair the closure emits [`shipped`].
    pub struct TypedMap<F, I, V>(F, PhantomData<fn(I, V)>);

    /// Reduce side: a key group through [`reduce_group`], each row
    /// [`written`].
    pub struct TypedReduce<F, V>(F, PhantomData<fn(V)>);

    pub fn map<I: Rec, V: Rec>(
        f: impl Fn(I, &mut dyn FnMut(&Atom, &V)) -> Result<(), MrError> + Send + Sync + 'static,
    ) -> Arc<dyn RawMapOp> {
        Arc::new(TypedMap(f, PhantomData))
    }

    pub fn reduce<V: Rec>(
        f: impl Fn(Atom, Vec<V>, &mut dyn FnMut(&Row) -> Result<(), MrError>) -> Result<(), MrError>
            + Send
            + Sync
            + 'static,
    ) -> Arc<dyn RawReduceOp> {
        Arc::new(TypedReduce(f, PhantomData))
    }

    impl<F, I: Rec, V: Rec> RawMapOp for TypedMap<F, I, V>
    where
        F: Fn(I, &mut dyn FnMut(&Atom, &V)) -> Result<(), MrError> + Send + Sync,
    {
        fn run(&self, _: &TaskContext, record: &[u8], out: &mut MapEmitter) -> Result<(), MrError> {
            (self.0)(I::from_bytes(record)?, &mut |k, v| {
                let (key, value, text) = shipped(k, v);
                out.emit_raw(&key, &value, text);
            })
        }
    }

    impl<F, V: Rec> RawReduceOp for TypedReduce<F, V>
    where
        F: Fn(Atom, Vec<V>, &mut dyn FnMut(&Row) -> Result<(), MrError>) -> Result<(), MrError>
            + Send
            + Sync,
    {
        fn run(
            &self,
            _: &TaskContext,
            key: &[u8],
            values: &[&[u8]],
            out: &mut OutEmitter,
        ) -> Result<(), MrError> {
            for (record, text) in reduce_group(key, values, &self.0)? {
                out.emit_raw(record, text)?;
            }
            Ok(())
        }
    }

    /// Pig's load copy as a typed closure: each triple decoded and written
    /// back.
    pub struct Reencode;

    impl RawMapOnlyOp for Reencode {
        fn run(&self, _: &TaskContext, record: &[u8], out: &mut OutEmitter) -> Result<(), MrError> {
            let t = TripleRec::from_bytes(record)?;
            out.emit_raw(t.to_bytes(), t.text_size())
        }
    }

    pub fn star_join_job(
        star: &StarPattern,
        input: &str,
        output: &str,
        pig_loads: bool,
    ) -> JobSpec {
        let scan = |which| {
            let star = star.clone();
            let mapper = map(move |rec: TripleRec, emit: &mut dyn FnMut(&Atom, &TaggedPo)| {
                star_map(&star, which, &rec, emit);
                Ok(())
            });
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
        let k = star.patterns.len();
        let reducer = reduce(move |subject, values: Vec<TaggedPo>, emit| {
            star_reduce(k, subject, values, emit)
        });
        JobSpec::map_reduce("job", inputs, reducer, REDUCERS, output).with_full_scan()
    }

    pub fn row_join_job(left: (&str, usize), right: (&str, usize), output: &str) -> JobSpec {
        let input = |side, (file, key_col): (&str, usize)| InputBinding {
            file: file.to_string(),
            mapper: map(move |row: Row, emit: &mut dyn FnMut(&Atom, &SidedRow)| {
                side_map(side, key_col, row, emit)
            }),
        };
        let reducer = reduce(|_key, values: Vec<SidedRow>, emit| row_reduce(values, emit));
        JobSpec::map_reduce("job", vec![input(0, left), input(1, right)], reducer, REDUCERS, output)
    }

    pub fn load_job(input: &str, output: &str) -> JobSpec {
        JobSpec::map_only("job", vec![input.to_string()], Arc::new(Reencode), output)
            .with_full_scan()
    }

    /// An attach job as the typed closures ran it: the rows keyed by
    /// column `key_col`, the triples through `triple_map`.
    fn attach_job(
        rows: (&str, usize),
        triple_map: Arc<dyn RawMapOp>,
        reducer: Arc<dyn RawReduceOp>,
        output: &str,
    ) -> JobSpec {
        let (file, key_col) = rows;
        let row_map = map(move |row: Row, emit: &mut dyn FnMut(&Atom, &AttachVal)| {
            attach_row_map(key_col, row, emit)
        });
        let inputs = vec![
            InputBinding { file: file.to_string(), mapper: row_map },
            InputBinding { file: "t".to_string(), mapper: triple_map },
        ];
        JobSpec::map_reduce("job", inputs, reducer, REDUCERS, output).with_full_scan()
    }

    pub fn star_attach_job(rows: (&str, usize), star: &StarPattern, output: &str) -> JobSpec {
        let star_m = star.clone();
        let triple_map = map(move |rec: TripleRec, emit: &mut dyn FnMut(&Atom, &AttachVal)| {
            star_attach_map(&star_m, &rec, emit);
            Ok(())
        });
        let k = star.patterns.len();
        let reducer = reduce(move |subject, values: Vec<AttachVal>, emit| {
            star_attach_reduce(k, subject, values, emit)
        });
        attach_job(rows, triple_map, reducer, output)
    }

    pub fn pattern_attach_job(rows: (&str, usize), pat: &TriplePattern, output: &str) -> JobSpec {
        let pat = pat.clone();
        let triple_map = map(move |rec: TripleRec, emit: &mut dyn FnMut(&Atom, &AttachVal)| {
            pattern_attach_map(&pat, &rec, emit);
            Ok(())
        });
        let reducer =
            reduce(|_key, values: Vec<AttachVal>, emit| pattern_attach_reduce(values, emit));
        attach_job(rows, triple_map, reducer, output)
    }
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

/// What a job leaves behind: its stats (operator counters included), the output
/// file's records in order and its text size — or the error it died of.
type Outcome = Result<(String, Vec<Vec<u8>>, u64), String>;

fn outcome(engine: &Engine, spec: &JobSpec) -> Outcome {
    let stats = engine.run_job(spec).map_err(|e| e.to_string())?;
    let file = engine.hdfs().lock().get(&spec.outputs[0]).unwrap();
    Ok((format!("{stats:?}"), file.iter().map(<[u8]>::to_vec).collect(), file.text_bytes))
}

fn engine() -> Engine {
    Engine::new(ClusterConfig::default().with_workers(2)).unwrap()
}

/// Collect one record a map kernel ships.
fn ship(got: &mut Vec<Shipped>, key: &[u8], text: u64, write: &dyn Fn(&mut Vec<u8>)) {
    let mut value = Vec::new();
    write(&mut value);
    got.push((key.to_vec(), value, text));
}

/// Collect what a reduce kernel writes.
fn write(got: &mut Vec<Written>) -> impl FnMut(Vec<u8>, u64) -> Result<(), MrError> + '_ {
    |record, text| {
        got.push((record, text));
        Ok(())
    }
}

/// The shuffle: values by key, each group in value-byte order.
fn grouped(shipped: Vec<Shipped>) -> BTreeMap<Vec<u8>, Vec<Vec<u8>>> {
    let mut groups: BTreeMap<Vec<u8>, Vec<Vec<u8>>> = BTreeMap::new();
    for (key, value, _) in shipped {
        groups.entry(key).or_default().push(value);
    }
    groups.values_mut().for_each(|values| values.sort());
    groups
}

fn star_reduce_both(
    k: usize,
    key: &[u8],
    values: &[&[u8]],
) -> (Result<Vec<Written>, String>, Result<Vec<Written>, String>) {
    let want = reference::reduce_group(key, values, |subject, values, emit| {
        reference::star_reduce(k, subject, values, emit)
    });
    let mut got = Vec::new();
    let joined = StarReduce { patterns: k }.join(key, values, write(&mut got));
    (joined.map(|()| got).map_err(|e| e.to_string()), want.map_err(|e| e.to_string()))
}

fn row_reduce_both(
    values: &[&[u8]],
) -> (Result<Vec<Written>, String>, Result<Vec<Written>, String>) {
    let key = atom("<k>").to_bytes();
    let want = reference::reduce_group(&key, values, |_, values, emit| {
        reference::row_reduce(values, emit)
    });
    let mut got = Vec::new();
    let joined = RowJoinReduce::join(values, write(&mut got));
    (joined.map(|()| got).map_err(|e| e.to_string()), want.map_err(|e| e.to_string()))
}

fn star_attach_reduce_both(
    k: usize,
    key: &[u8],
    values: &[&[u8]],
) -> (Result<Vec<Written>, String>, Result<Vec<Written>, String>) {
    let want = reference::reduce_group(key, values, |subject, values, emit| {
        reference::star_attach_reduce(k, subject, values, emit)
    });
    let mut got = Vec::new();
    let joined = StarAttachReduce { patterns: k }.join(key, values, write(&mut got));
    (joined.map(|()| got).map_err(|e| e.to_string()), want.map_err(|e| e.to_string()))
}

/// A pattern attach's reduce: `RowJoinReduce` behind the engine's key check.
fn pattern_attach_reduce_both(
    key: &[u8],
    values: &[&[u8]],
) -> (Result<Vec<Written>, String>, Result<Vec<Written>, String>) {
    let want = reference::reduce_group(key, values, |_, values, emit| {
        reference::pattern_attach_reduce(values, emit)
    });
    let mut got = Vec::new();
    let joined =
        mrsim::codec::token_key(key).and_then(|_| RowJoinReduce::join(values, write(&mut got)));
    (joined.map(|()| got).map_err(|e| e.to_string()), want.map_err(|e| e.to_string()))
}

/// The relation side of an attach job, row by row: `SideMap` against the
/// closure, pushing what the kernel ships onto `shuffle`. A row narrower
/// than `key_col` is refused by both, in their own words.
fn attach_rows(
    rows: &[Row],
    key_col: usize,
    shuffle: &mut Vec<Shipped>,
) -> Result<(), TestCaseError> {
    let map = SideMap { side: 0, key_col };
    for row in rows {
        let mut want = Vec::new();
        let refused = reference::attach_row_map(key_col, row.clone(), |k, v| {
            want.push(reference::shipped(k, v));
        });
        let mut got = Vec::new();
        let tagged = map.tag(&row.to_bytes(), |k, text, w| ship(&mut got, k, text, w));
        match (tagged, refused) {
            (Ok(()), Ok(())) => {}
            (Err(MrError::Op(_)), Err(MrError::Op(m))) if key_col >= row.len() => {
                prop_assert_eq!(m, "row too short for attach key");
            }
            (tagged, refused) => prop_assert!(false, "{:?} against {:?}", tagged, refused),
        }
        prop_assert_eq!(&got, &want, "column {}", key_col);
        shuffle.extend(got);
    }
    Ok(())
}

/// An attach job against its reference, each on an engine of its own that
/// holds the relation `R` and the triples `t`: alike, or — when the rows
/// are narrower than the key column — both the row side's `Op` error.
fn attach_outcomes_agree(
    rows: &(usize, Vec<Row>),
    key_col: usize,
    triples: &[STriple],
    job: &JobSpec,
    reference: &JobSpec,
) -> Result<(), TestCaseError> {
    let run = |spec| {
        let e = engine();
        e.put_records("R", rows.1.clone()).unwrap();
        load_store(&e, "t", &TripleStore::from_triples(triples.to_vec())).unwrap();
        outcome(&e, spec)
    };
    let (got, want) = (run(job), run(reference));
    if !rows.1.is_empty() && key_col >= rows.0 {
        prop_assert!(got.unwrap_err().starts_with("operator error: row arity"));
        prop_assert_eq!(want.unwrap_err(), "operator error: row too short for attach key");
    } else {
        prop_assert_eq!(got, want);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Random inputs
// ---------------------------------------------------------------------------

/// One small vocabulary for every position (an empty token and a
/// multi-byte one in it), so keys meet across sides, rows repeat and
/// patterns match.
fn arb_token() -> impl Strategy<Value = Atom> {
    prop::sample::select(vec!["<a>", "<b>", "<c>", "\"lit\"", "<caf\u{e9}>", ""]).prop_map(atom)
}

/// 0–6 rows of one arity in 0–9.
fn arb_relation() -> impl Strategy<Value = (usize, Vec<Row>)> {
    (0..=9usize).prop_flat_map(|arity| {
        (Just(arity), prop::collection::vec(prop::collection::vec(arb_token(), arity), 0..=6))
    })
}

/// A schema `width` columns wide with the join variable at `key_col` —
/// and, when `again` lands right of it, in that column too.
fn schema(width: usize, key_col: usize, again: usize) -> RowSchema {
    let joins = |i| i == key_col || (i == again && again > key_col);
    let col = |i| Some(if joins(i) { "x".to_string() } else { format!("c{i}") });
    RowSchema::new((0..width.max(key_col + 1)).map(col).collect())
}

fn arb_object() -> impl Strategy<Value = ObjPattern> {
    (0..5u8, arb_token()).prop_map(|(kind, token)| match kind {
        0 => ObjPattern::Const(token),
        1 => ObjPattern::Filtered("o".into(), ObjFilter::Equals(token)),
        2 => ObjPattern::Filtered("o".into(), ObjFilter::Contains("a".into())),
        3 => ObjPattern::Filtered("o".into(), ObjFilter::Prefix("<".into())),
        _ => ObjPattern::Var("o".into()),
    })
}

/// A star of 1–3 patterns, bound and unbound properties mixed, sometimes
/// with a subject filter.
fn arb_star() -> impl Strategy<Value = StarPattern> {
    let property = (0..2u8, arb_token()).prop_map(|(unbound, token)| match unbound {
        0 => PropPattern::Bound(token),
        _ => PropPattern::Unbound("p".into()),
    });
    let pattern = (property, arb_object()).prop_map(|(property, object)| TriplePattern {
        subject: SubjPattern::Var("s".into()),
        property,
        object,
    });
    (prop::collection::vec(pattern, 1..=3), prop::option::of(arb_token())).prop_map(
        |(patterns, filter)| {
            let star = StarPattern::new("s", patterns);
            match filter {
                Some(token) => star.with_subject_filter(ObjFilter::Equals(token)),
                None => star,
            }
        },
    )
}

fn arb_triples() -> impl Strategy<Value = Vec<STriple>> {
    let triple = (arb_token(), arb_token(), arb_token()).prop_map(|(s, p, o)| STriple { s, p, o });
    prop::collection::vec(triple, 0..=12)
}

/// Up to 16 triples about `<a>` and `<b>` only, so a subject a relation row
/// is keyed on often has several matches for each pattern of a star.
fn arb_attach_triples() -> impl Strategy<Value = Vec<STriple>> {
    let subject = prop::sample::select(vec!["<a>", "<b>"]).prop_map(atom);
    let triple = (subject, arb_token(), arb_token()).prop_map(|(s, p, o)| STriple { s, p, o });
    prop::collection::vec(triple, 0..=16)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn row_join_matches_typed_reference(
        left in arb_relation(),
        right in arb_relation(),
        cols in (0..=9usize, 0..=9usize, 0..=9usize, 0..=9usize),
    ) {
        // The key column lies anywhere in the row or, now and then, just
        // past its end: an arity below the key column.
        let (lcol, rcol) = (cols.0 % (left.0 + 1), cols.1 % (right.0 + 1));
        let sides = [(0u64, lcol, &left.1), (1u64, rcol, &right.1)];

        // Kernel against closure, record by record.
        let mut shuffle = Vec::new();
        for (side, key_col, rows) in sides {
            let map = SideMap { side, key_col };
            for row in rows {
                let mut want = Vec::new();
                let refused = reference::side_map(side, key_col, row.clone(), |k, v| {
                    want.push(reference::shipped(k, v));
                });
                let mut got = Vec::new();
                let tagged = map.tag(&row.to_bytes(), |k, text, w| ship(&mut got, k, text, w));
                prop_assert_eq!(
                    tagged.map_err(|e| e.to_string()),
                    refused.map_err(|e| e.to_string())
                );
                prop_assert_eq!(&got, &want, "side {} column {}", side, key_col);
                shuffle.extend(got);
            }
        }
        for values in grouped(shuffle).values() {
            let values: Vec<&[u8]> = values.iter().map(Vec::as_slice).collect();
            let (got, want) = row_reduce_both(&values);
            prop_assert_eq!(got, want);
        }

        // Job against job: output file, stats, or the error.
        let spliced = engine();
        let typed = engine();
        for e in [&spliced, &typed] {
            e.put_records("L", left.1.clone()).unwrap();
            e.put_records("R", right.1.clone()).unwrap();
        }
        let (lschema, rschema) = (schema(left.0, lcol, cols.2), schema(right.0, rcol, cols.3));
        let (job, joined) =
            row_join_job("job", ("L", &lschema), ("R", &rschema), "x", "out").unwrap();
        prop_assert_eq!(joined.arity(), lschema.arity() + rschema.arity());
        let reference = reference::row_join_job(("L", lcol), ("R", rcol), "out");
        prop_assert_eq!(outcome(&spliced, &job), outcome(&typed, &reference));
    }

    #[test]
    fn star_join_matches_typed_reference(triples in arb_triples(), star in arb_star()) {
        let k = star.patterns.len();
        for which in [PatternSet::All, PatternSet::BoundOnly, PatternSet::UnboundOnly] {
            let map = StarMap { star: star.clone(), which };
            let mut shuffle = Vec::new();
            for t in &triples {
                let rec = TripleRec(t.clone());
                let mut want = Vec::new();
                reference::star_map(&star, which, &rec, |k, v| want.push(reference::shipped(k, v)));
                let mut got = Vec::new();
                map.route(&rec.to_bytes(), |k, text, w| ship(&mut got, k, text, w)).unwrap();
                prop_assert_eq!(&got, &want, "{:?}", which);
                shuffle.extend(got);
            }
            for (key, values) in &grouped(shuffle) {
                let values: Vec<&[u8]> = values.iter().map(Vec::as_slice).collect();
                let (got, want) = star_reduce_both(k, key, &values);
                prop_assert_eq!(got, want, "{:?}", which);
            }
        }

        let store = TripleStore::from_triples(triples);
        for pig_loads in [false, true] {
            let spliced = engine();
            let typed = engine();
            for e in [&spliced, &typed] {
                load_store(e, "t", &store).unwrap();
            }
            let (job, _) = star_join_job("job", &star, "t", "out", pig_loads);
            let reference = reference::star_join_job(&star, "t", "out", pig_loads);
            prop_assert_eq!(outcome(&spliced, &job), outcome(&typed, &reference));
        }
    }

    #[test]
    fn star_attach_matches_typed_reference(
        rows in arb_relation(),
        cols in (0..=9usize, 0..=9usize),
        star in arb_star(),
        triples in arb_attach_triples(),
    ) {
        // The key column anywhere in the row, now and then just past it.
        let key_col = cols.0 % (rows.0 + 1);
        let mut shuffle = Vec::new();
        attach_rows(&rows.1, key_col, &mut shuffle)?;
        let map = AttachMap { star: star.clone(), by_object: false };
        for t in &triples {
            let rec = TripleRec(t.clone());
            let mut want = Vec::new();
            reference::star_attach_map(&star, &rec, |k, v| want.push(reference::shipped(k, v)));
            let mut got = Vec::new();
            map.route(&rec.to_bytes(), |k, text, w| ship(&mut got, k, text, w)).unwrap();
            prop_assert_eq!(&got, &want);
            shuffle.extend(got);
        }
        let k = star.patterns.len();
        for (key, values) in &grouped(shuffle) {
            let values: Vec<&[u8]> = values.iter().map(Vec::as_slice).collect();
            let (got, want) = star_attach_reduce_both(k, key, &values);
            prop_assert_eq!(got, want);
        }

        let schema = schema(rows.0, key_col, cols.1);
        let (job, joined) = star_attach_job("job", ("R", &schema), "x", &star, "t", "out").unwrap();
        prop_assert_eq!(joined.arity(), schema.arity() + 3 * k);
        let reference = reference::star_attach_job(("R", key_col), &star, "out");
        attach_outcomes_agree(&rows, key_col, &triples, &job, &reference)?;
    }

    #[test]
    fn pattern_attach_matches_typed_reference(
        rows in arb_relation(),
        cols in (0..=9usize, 0..=9usize),
        star in arb_star(),
        triples in arb_attach_triples(),
    ) {
        let key_col = cols.0 % (rows.0 + 1);
        let pattern = &star.patterns[0];
        let mut shuffle = Vec::new();
        attach_rows(&rows.1, key_col, &mut shuffle)?;
        let one = StarPattern::new("s", vec![pattern.clone()]);
        let map = AttachMap { star: one, by_object: true };
        for t in &triples {
            let rec = TripleRec(t.clone());
            let mut want = Vec::new();
            reference::pattern_attach_map(pattern, &rec, |k, v| {
                want.push(reference::shipped(k, v));
            });
            let mut got = Vec::new();
            map.route(&rec.to_bytes(), |k, text, w| ship(&mut got, k, text, w)).unwrap();
            prop_assert_eq!(&got, &want);
            shuffle.extend(got);
        }
        for (key, values) in &grouped(shuffle) {
            let values: Vec<&[u8]> = values.iter().map(Vec::as_slice).collect();
            let (got, want) = pattern_attach_reduce_both(key, &values);
            prop_assert_eq!(got, want);
        }

        let schema = schema(rows.0, key_col, cols.1);
        let (job, joined) =
            pattern_attach_job("job", ("R", &schema), "x", pattern, "t", "out").unwrap();
        prop_assert_eq!(joined.arity(), schema.arity() + 3);
        let reference = reference::pattern_attach_job(("R", key_col), pattern, "out");
        attach_outcomes_agree(&rows, key_col, &triples, &job, &reference)?;
    }

    #[test]
    fn load_copy_matches_typed_reference(triples in arb_triples()) {
        for t in &triples {
            let rec = TripleRec(t.clone());
            let mut got = Vec::new();
            LoadCopy::copy(&rec.to_bytes(), |record, text| {
                got.push((record, text));
                Ok(())
            })
            .unwrap();
            prop_assert_eq!(got, vec![(rec.to_bytes(), rec.text_size())]);
        }
        let store = TripleStore::from_triples(triples);
        let spliced = engine();
        let typed = engine();
        for e in [&spliced, &typed] {
            load_store(e, "t", &store).unwrap();
        }
        let job = JobSpec::map_only("job", vec!["t".into()], std::sync::Arc::new(LoadCopy), "out")
            .with_full_scan();
        prop_assert_eq!(outcome(&spliced, &job), outcome(&typed, &reference::load_job("t", "out")));
    }
}

/// The refusals: a value the codec turns down is reported before a bad tag
/// or index, in a one-sided group too; tags and indexes out of range are
/// the typed closures' `Op` errors, message for message.
#[test]
fn refusals_match_typed_reference() {
    let row: Row = vec![atom("<a>"), atom("")];
    let sided = |side: u64, row: &Row| (side, row.clone()).to_bytes();
    let truncated = sided(0, &row)[..13].to_vec();
    let groups: Vec<Vec<Vec<u8>>> = vec![
        vec![sided(0, &row), sided(2, &row), sided(1, &row)],
        vec![sided(7, &row), truncated.clone()],
        vec![sided(1, &row), truncated],
        vec![sided(1, &row), [&sided(1, &row)[..], &[0]].concat()],
        vec![vec![1, 2, 3]],
        vec![sided(0, &Row::new()), sided(1, &Row::new()), sided(1, &row)],
    ];
    for group in &groups {
        let values: Vec<&[u8]> = group.iter().map(Vec::as_slice).collect();
        let (got, want) = row_reduce_both(&values);
        assert_eq!(got, want);
    }
    let (got, _) = row_reduce_both(&[&groups[0][0], &groups[0][1]]);
    assert_eq!(got.unwrap_err(), "operator error: bad join side tag");
    let (got, _) = row_reduce_both(&[&groups[1][0], &groups[1][1]]);
    assert!(got.unwrap_err().starts_with("codec error"));
    // Two empty rows join to the empty row, one text byte.
    let (got, _) = row_reduce_both(&[&groups[5][0], &groups[5][1]]);
    assert_eq!(got.unwrap(), vec![(Row::new().to_bytes(), 1)]);

    let key = atom("<s>").to_bytes();
    let tagged = |idx: u64, p: &str, o: &str| (idx, (atom(p), atom(o))).to_bytes();
    let short = tagged(0, "<p>", "<o>")[..10].to_vec();
    let groups: Vec<Vec<Vec<u8>>> = vec![
        vec![tagged(0, "<p>", "<o>"), tagged(5, "<p>", "<o>"), tagged(9, "<p>", "<o>")],
        vec![tagged(u64::MAX, "<p>", "<o>"), short.clone()],
        vec![tagged(1, "<p>", "<o>"), short],
        vec![tagged(0, "<p>", ""), [&tagged(1, "", "")[..], &[9]].concat()],
    ];
    for group in &groups {
        let values: Vec<&[u8]> = group.iter().map(Vec::as_slice).collect();
        for k in 1..=3 {
            let (got, want) = star_reduce_both(k, &key, &values);
            assert_eq!(got, want, "k = {k}");
        }
        // A key that is no token is refused before any value is read.
        let (got, want) = star_reduce_both(2, &key[..5], &values);
        assert_eq!(got, want);
    }
    let values: Vec<&[u8]> = groups[0].iter().map(Vec::as_slice).collect();
    let (got, _) = star_reduce_both(2, &key, &values);
    assert_eq!(got.unwrap_err(), "operator error: pattern index 5 out of range");
}

/// The attach reducers on hand-built groups: two rows by two matches come
/// out combination by combination, row by row within one; a value the
/// codec turns down is reported before a malformed one, in a one-sided
/// group too; a tag past the star or a match that is not one `(property,
/// object)` is the typed closure's `Op` error. A pattern attach's tag 2 is
/// the one reduce-side difference (see the module docs).
#[test]
fn attach_reduce_groups_match_typed_reference() {
    let key = atom("<s>").to_bytes();
    let tagged = |tag: u64, tokens: &[&str]| (tag, tokens.iter().map(|t| atom(t)).collect::<Row>());
    let value = |tag, tokens: &[&str]| tagged(tag, tokens).to_bytes();
    let (row, po) = (value(0, &["<a>", ""]), value(1, &["<p>", "<o>"]));
    let truncated = row[..13].to_vec();
    let groups: Vec<Vec<Vec<u8>>> = vec![
        vec![row.clone(), po.clone()],
        vec![row.clone(), value(1, &["<p>"]), po.clone()],
        vec![row.clone(), value(3, &["<p>", "<o>"])],
        vec![value(9, &["<p>"]), truncated.clone()],
        vec![po.clone(), [&po[..], &[0]].concat()],
        vec![value(0, &[]), value(2, &["", ""]), po.clone()],
        vec![vec![1, 2, 3]],
        vec![row.clone(), value(0, &["<b>"]), po.clone(), value(1, &["<q>", "<r>"])],
    ];
    for (i, group) in groups.iter().enumerate() {
        let values: Vec<&[u8]> = group.iter().map(Vec::as_slice).collect();
        for k in 1..=3 {
            let (got, want) = star_attach_reduce_both(k, &key, &values);
            assert_eq!(got, want, "group {i}, k = {k}");
        }
        // A key that is no token is refused before any value is read.
        let (got, want) = star_attach_reduce_both(2, &key[..5], &values);
        assert!(got.is_err());
        assert_eq!(got, want);
        let (got, want) = pattern_attach_reduce_both(&key, &values);
        if matches!(i, 2 | 5) {
            assert_eq!(got.unwrap_err(), "operator error: bad join side tag", "group {i}");
            assert!(want.is_ok(), "group {i}");
        } else {
            assert_eq!(got, want, "group {i}");
        }
    }
    let join = |k, group: &[Vec<u8>]| {
        let values: Vec<&[u8]> = group.iter().map(Vec::as_slice).collect();
        star_attach_reduce_both(k, &key, &values).0
    };
    // One row and one match: the row, then the subject and the match.
    let joined = tagged(0, &["<a>", "", "<s>", "<p>", "<o>"]).1;
    assert_eq!(join(1, &groups[0]).unwrap(), vec![(joined.to_bytes(), joined.text_size())]);
    for (k, group) in [(2, &groups[1]), (2, &groups[2])] {
        assert_eq!(join(k, group).unwrap_err(), "operator error: malformed attach value");
    }
    assert!(join(3, &groups[3]).unwrap_err().starts_with("codec error"));
}
