//! The relational operators splice encoded bytes; this file keeps the
//! typed closures they replaced — decode every token into an `Atom`, clone,
//! re-encode, size the text through `Rec::text_size` — as the reference,
//! and checks on random relations and random triple sets that both write
//! the same records (bytes and order), the same per-record text sizes and
//! the same `JobStats`, and refuse the same inputs with the same error:
//! the star join under every `PatternSet`, the row join with the key
//! column anywhere, Pig's load copy.

use mr_rdf::{load_store, Row, RowSchema, TripleRec};
use mrsim::{
    map_fn, map_only_fn, reduce_fn, Engine, InputBinding, JobSpec, MrError, Rec, TypedMapEmitter,
    TypedOutEmitter,
};
use proptest::prelude::{prop, prop_assert_eq, proptest, ProptestConfig};
use proptest::strategy::{Just, Strategy};
use rdf_model::atom::{atom, Atom};
use rdf_model::{STriple, TripleStore};
use rdf_query::{ObjFilter, ObjPattern, PropPattern, StarPattern, SubjPattern, TriplePattern};
use relbase::planner::LoadCopy;
use relbase::row_join::{RowJoinReduce, SideMap};
use relbase::star_join::{PatternSet, StarMap, StarReduce, REDUCERS};
use relbase::{row_join_job, star_join_job};
use std::collections::BTreeMap;

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

    /// A shuffle record as `TypedMapEmitter::emit` ships and sizes it.
    pub fn shipped<K: Rec, V: Rec>(key: &K, value: &V) -> Shipped {
        (key.to_bytes(), value.to_bytes(), key.text_size() + value.text_size() - 1)
    }

    /// An output record as `TypedOutEmitter::emit` writes and sizes it.
    pub fn written(row: &Row) -> Written {
        (row.to_bytes(), row.text_size())
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

    pub fn star_join_job(
        star: &StarPattern,
        input: &str,
        output: &str,
        pig_loads: bool,
    ) -> JobSpec {
        let scan = |which| {
            let star = star.clone();
            let mapper =
                map_fn(move |rec: TripleRec, out: &mut TypedMapEmitter<'_, Atom, TaggedPo>| {
                    star_map(&star, which, &rec, |k, v| out.emit(k, v));
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
        let reducer = reduce_fn(
            move |subject: Atom, values: Vec<TaggedPo>, out: &mut TypedOutEmitter<'_, Row>| {
                star_reduce(k, subject, values, |row| out.emit(row))
            },
        );
        JobSpec::map_reduce("job", inputs, reducer, REDUCERS, output).with_full_scan()
    }

    pub fn row_join_job(left: (&str, usize), right: (&str, usize), output: &str) -> JobSpec {
        let input = |side, (file, key_col): (&str, usize)| InputBinding {
            file: file.to_string(),
            mapper: map_fn(move |row: Row, out: &mut TypedMapEmitter<'_, Atom, SidedRow>| {
                side_map(side, key_col, row, |k, v| out.emit(k, v))
            }),
        };
        let reducer =
            reduce_fn(|_key: Atom, values: Vec<SidedRow>, out: &mut TypedOutEmitter<'_, Row>| {
                row_reduce(values, |row| out.emit(row))
            });
        JobSpec::map_reduce("job", vec![input(0, left), input(1, right)], reducer, REDUCERS, output)
    }

    pub fn load_job(input: &str, output: &str) -> JobSpec {
        let mapper =
            map_only_fn(|t: TripleRec, out: &mut TypedOutEmitter<'_, TripleRec>| out.emit(&t));
        JobSpec::map_only("job", vec![input.to_string()], mapper, output).with_full_scan()
    }
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

/// What a job leaves behind: its stats (profile included), the output
/// file's records in order and its text size — or the error it died of.
type Outcome = Result<(String, Vec<Vec<u8>>, u64), String>;

fn outcome(engine: &Engine, spec: &JobSpec) -> Outcome {
    let stats = engine.run_job(spec).map_err(|e| e.to_string())?;
    let file = engine.hdfs().lock().get(&spec.outputs[0]).unwrap();
    Ok((format!("{stats:?}"), file.records.clone(), file.text_bytes))
}

fn engine() -> Engine {
    Engine::unbounded().with_workers(2).with_profiling(true)
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
