//! The relational operators splice encoded bytes; this file holds them to
//! `relbase::logical`, the relational specification, on random relations
//! and random triple sets: the star join under every `PatternSet`, the row
//! join with the key column anywhere, Pig's load copy, and Figure 3's star
//! and pattern attach.
//!
//! Kernel by kernel, what a map kernel ships and a reduce kernel writes is
//! the encoding of the specification over the same group, in the same
//! value order: byte for byte, with the text sizes of the decoded records.
//! A map kernel ships, per pattern that accepts a triple, the row of that
//! pattern's one-pattern star join; a reduce kernel writes the star or row
//! join of its group. Job by job, the real job's decoded output equals the
//! specification row for row once both are sorted (the shuffle groups rows
//! by key; within a key the kernel checks pin the order), and its file's
//! text size is its rows'.
//!
//! Refusals are no relational semantics. A relation row narrower than its
//! key column is `SideMap`'s `Op` error, job and kernel alike; malformed
//! shuffle values are the two tables at the end, error by error.

use mr_rdf::{load_store, Row, RowSchema, TripleRec};
use mrsim::{ClusterConfig, Engine, JobSpec, MrError, Rec};
use proptest::prelude::{prop, prop_assert, prop_assert_eq, proptest, ProptestConfig};
use proptest::strategy::{Just, Strategy};
use proptest::test_runner::TestCaseError;
use rdf_model::atom::{atom, Atom};
use rdf_model::{STriple, TripleStore};
use rdf_query::{ObjFilter, ObjPattern, PropPattern, StarPattern, SubjPattern, TriplePattern};
use relbase::attach::{AttachMap, StarAttachReduce};
use relbase::load::LoadCopy;
use relbase::logical::{row_join, star_join};
use relbase::row_join::{RowJoinReduce, SideMap};
use relbase::star_join::{PatternSet, StarMap, StarReduce};
use relbase::{
    load_copy_job, pattern_attach_job, row_join_job, star_attach_job, star_join_job, star_schema,
};
use std::collections::BTreeMap;

/// One shuffle record: key bytes, value bytes, row text size.
type Shipped = (Vec<u8>, Vec<u8>, u64);
/// One output record: bytes and text size.
type Written = (Vec<u8>, u64);

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

fn engine() -> Engine {
    Engine::new(ClusterConfig::default().with_workers(2)).unwrap()
}

/// A shuffle record as its key and value encode: one text row, one newline
/// dropped.
fn shipped<K: Rec, V: Rec>(key: &K, value: &V) -> Shipped {
    (key.to_bytes(), value.to_bytes(), key.text_size() + value.text_size() - 1)
}

/// An output record as `row` encodes.
fn written(row: &Row) -> Written {
    (row.to_bytes(), row.text_size())
}

/// What a map kernel hands its emitter to write a shuffle value.
type WriteValue<'a> = dyn Fn(&mut Vec<u8>) + 'a;

/// Collect what a map kernel ships.
fn ship(got: &mut Vec<Shipped>) -> impl FnMut(&[u8], u64, &WriteValue<'_>) + '_ {
    |key, text, write| {
        let mut value = Vec::new();
        write(&mut value);
        got.push((key.to_vec(), value, text));
    }
}

/// Collect what a reduce kernel writes.
fn write(got: &mut Vec<Written>) -> impl FnMut(Vec<u8>, u64) -> Result<(), MrError> + '_ {
    |record, text| {
        got.push((record, text));
        Ok(())
    }
}

/// The shuffle: values by decoded key, each group in value-byte order.
fn grouped(shipped: Vec<Shipped>) -> BTreeMap<Atom, Vec<Vec<u8>>> {
    let mut groups: BTreeMap<Atom, Vec<Vec<u8>>> = BTreeMap::new();
    for (key, value, _) in shipped {
        groups.entry(Atom::from_bytes(&key).unwrap()).or_default().push(value);
    }
    groups.values_mut().for_each(|values| values.sort());
    groups
}

fn slices(values: &[Vec<u8>]) -> Vec<&[u8]> {
    values.iter().map(Vec::as_slice).collect()
}

/// `items` in the order of their encodings: the order a sorted shuffle
/// group holds them in.
fn by_bytes<T: Clone>(items: impl Iterator<Item = T>, bytes: impl Fn(&T) -> Vec<u8>) -> Vec<T> {
    let mut items: Vec<T> = items.collect();
    items.sort_by_cached_key(bytes);
    items
}

/// The triples of one subject (or object) in value order: sorted by the
/// encoding of the part a shuffle value carries.
fn triples_of(triples: &[STriple], on: impl Fn(&STriple) -> bool) -> Vec<STriple> {
    let of = triples.iter().filter(|t| on(t)).cloned();
    by_bytes(of, |t| TripleRec(t.clone()).to_bytes())
}

/// The rows of `rows` keyed on `key`, in value order.
fn rows_of(rows: &[Row], key_col: usize, key: &Atom) -> Vec<Row> {
    by_bytes(rows.iter().filter(|r| r.get(key_col) == Some(key)).cloned(), Rec::to_bytes)
}

/// Per pattern of `star` that accepts `t`, its index and the row of its
/// one-pattern star join (under the star's subject filter) over `t`.
fn pattern_rows(star: &StarPattern, t: &STriple) -> Vec<(u64, Row)> {
    let one = |i: usize| StarPattern { patterns: vec![star.patterns[i].clone()], ..star.clone() };
    let rows = |i| star_join(&one(i), std::slice::from_ref(t)).into_iter().map(move |r| (i, r));
    (0..star.patterns.len()).flat_map(rows).map(|(i, row)| (i as u64, row)).collect()
}

/// `SideMap`'s refusal of a row narrower than its key column.
fn narrow(arity: usize, key_col: usize) -> String {
    format!("operator error: row arity {arity} too small for key column {key_col}")
}

/// `SideMap` over `rows`, record by record: each row shipped under its
/// key column, tagged `side`, or refused as [`narrow`]. What it ships goes
/// onto `shuffle`.
fn side_map(
    side: u64,
    key_col: usize,
    rows: &[Row],
    shuffle: &mut Vec<Shipped>,
) -> Result<(), TestCaseError> {
    let map = SideMap { side, key_col };
    for row in rows {
        let mut got = Vec::new();
        let tagged = map.tag(&row.to_bytes(), ship(&mut got));
        let want = row.get(key_col).map(|key| shipped(key, &(side, row.clone())));
        match tagged {
            Ok(()) => prop_assert_eq!(&got, &want.into_iter().collect::<Vec<_>>()),
            Err(e) => prop_assert_eq!((e.to_string(), want), (narrow(row.len(), key_col), None)),
        }
        shuffle.extend(got);
    }
    Ok(())
}

/// Run `spec` on `engine`: its output's rows, sorted, after checking that
/// the file's text size is theirs — or the error the job died of.
fn output(engine: &Engine, spec: &JobSpec) -> Result<Vec<Row>, String> {
    engine.run_job(spec).map_err(|e| e.to_string())?;
    let file = engine.hdfs().lock().get(&spec.outputs[0]).unwrap();
    let mut rows: Vec<Row> = file.iter().map(|r| Row::from_bytes(r).unwrap()).collect();
    assert_eq!(file.text_bytes, rows.iter().map(Rec::text_size).sum::<u64>());
    rows.sort();
    Ok(rows)
}

/// An attach `job` over the relation `R` (`rows`, keyed on `key_col`) and
/// the triples `t` writes the specification's `joined` — or, when the rows
/// are narrower than the key column, dies of the row side's refusal.
fn attach_writes(
    job: &JobSpec,
    rows: &(usize, Vec<Row>),
    key_col: usize,
    triples: &[STriple],
    mut joined: Vec<Row>,
) -> Result<(), TestCaseError> {
    let e = engine();
    e.put_records("R", rows.1.clone()).unwrap();
    load_store(&e, "t", &TripleStore::from_triples(triples.to_vec())).unwrap();
    joined.sort();
    let refused = !rows.1.is_empty() && key_col >= rows.0;
    prop_assert_eq!(
        output(&e, job),
        if refused { Err(narrow(rows.0, key_col)) } else { Ok(joined) }
    );
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
/// with a subject filter that accepts one token of `subjects`.
fn arb_star(subjects: impl Strategy<Value = Atom>) -> impl Strategy<Value = StarPattern> {
    let property = (0..2u8, arb_token()).prop_map(|(unbound, token)| match unbound {
        0 => PropPattern::Bound(token),
        _ => PropPattern::Unbound("p".into()),
    });
    let pattern = (property, arb_object()).prop_map(|(property, object)| TriplePattern {
        subject: SubjPattern::Var("s".into()),
        property,
        object,
    });
    (prop::collection::vec(pattern, 1..=3), prop::option::of(subjects)).prop_map(
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

fn arb_subject() -> impl Strategy<Value = Atom> {
    prop::sample::select(vec!["<a>", "<b>"]).prop_map(atom)
}

/// Up to 16 triples about `<a>` and `<b>` only, so a subject a relation row
/// is keyed on often has several matches for each pattern of a star.
fn arb_attach_triples() -> impl Strategy<Value = Vec<STriple>> {
    let triple =
        (arb_subject(), arb_token(), arb_token()).prop_map(|(s, p, o)| STriple { s, p, o });
    prop::collection::vec(triple, 0..=16)
}

/// Keys for up to six relation rows: `<a>` or `<b>`, or the row's own.
fn arb_keys() -> impl Strategy<Value = Vec<Option<Atom>>> {
    prop::collection::vec(prop::option::of(arb_subject()), 6)
}

/// `rows` with the key column of row `i` set to `keys[i]` where that is
/// some: relation rows that meet the attach triples' subjects, so that
/// groups hold several rows and several matches.
fn keyed(
    (arity, mut rows): (usize, Vec<Row>),
    key_col: usize,
    keys: &[Option<Atom>],
) -> (usize, Vec<Row>) {
    for (row, key) in rows.iter_mut().zip(keys) {
        if let (Some(cell), Some(key)) = (row.get_mut(key_col), key) {
            *cell = key.clone();
        }
    }
    (arity, rows)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn row_join_matches_specification(
        left in arb_relation(),
        right in arb_relation(),
        cols in (0..=9usize, 0..=9usize, 0..=9usize, 0..=9usize),
    ) {
        // The key column lies anywhere in the row or, now and then, just
        // past its end: an arity below the key column.
        let (lcol, rcol) = (cols.0 % (left.0 + 1), cols.1 % (right.0 + 1));
        let mut shuffle = Vec::new();
        side_map(0, lcol, &left.1, &mut shuffle)?;
        side_map(1, rcol, &right.1, &mut shuffle)?;
        for (key, values) in grouped(shuffle) {
            let mut got = Vec::new();
            RowJoinReduce::join(&slices(&values), write(&mut got)).unwrap();
            let (lefts, rights) = (rows_of(&left.1, lcol, &key), rows_of(&right.1, rcol, &key));
            let want: Vec<Written> = row_join(&lefts, lcol, &rights, rcol).iter().map(written).collect();
            prop_assert_eq!(got, want);
        }

        let e = engine();
        e.put_records("L", left.1.clone()).unwrap();
        e.put_records("R", right.1.clone()).unwrap();
        let (lschema, rschema) = (schema(left.0, lcol, cols.2), schema(right.0, rcol, cols.3));
        let (job, joined) =
            row_join_job("job", ("L", &lschema), ("R", &rschema), "x", "out").unwrap();
        prop_assert_eq!(joined, lschema.concat(&rschema));
        let refused = |(arity, rows): &(usize, Vec<Row>), col| {
            (!rows.is_empty() && col >= *arity).then(|| narrow(*arity, col))
        };
        match output(&e, &job) {
            Ok(rows) => {
                prop_assert_eq!((refused(&left, lcol), refused(&right, rcol)), (None, None));
                let mut want = row_join(&left.1, lcol, &right.1, rcol);
                want.sort();
                prop_assert_eq!(rows, want);
            }
            Err(err) => {
                let sides = [refused(&left, lcol), refused(&right, rcol)];
                prop_assert!(sides.contains(&Some(err.clone())), "{}", err);
            }
        }
    }

    #[test]
    fn star_join_matches_specification(triples in arb_triples(), star in arb_star(arb_token())) {
        let k = star.patterns.len();
        let mut shuffle = Vec::new();
        for which in [PatternSet::All, PatternSet::BoundOnly, PatternSet::UnboundOnly] {
            let serves = |pat: &TriplePattern| match which {
                PatternSet::All => true,
                PatternSet::BoundOnly => !pat.is_unbound_property(),
                PatternSet::UnboundOnly => pat.is_unbound_property(),
            };
            let map = StarMap { star: star.clone(), which };
            for t in &triples {
                let mut got = Vec::new();
                map.route(&TripleRec(t.clone()).to_bytes(), ship(&mut got)).unwrap();
                let want: Vec<Shipped> = pattern_rows(&star, t)
                    .into_iter()
                    .filter(|(i, _)| serves(&star.patterns[*i as usize]))
                    .map(|(i, row)| shipped(&row[0], &(i, (row[1].clone(), row[2].clone()))))
                    .collect();
                prop_assert_eq!(&got, &want, "{:?}", which);
                if which == PatternSet::All {
                    shuffle.extend(got);
                }
            }
        }
        // Values sort by pattern index, then by `(property, object)`.
        for (subject, values) in grouped(shuffle) {
            let mut got = Vec::new();
            let key = subject.to_bytes();
            StarReduce { patterns: k }.join(&key, &slices(&values), write(&mut got)).unwrap();
            let group = triples_of(&triples, |t| t.s == subject);
            prop_assert_eq!(got, star_join(&star, &group).iter().map(written).collect::<Vec<_>>());
        }

        let store = TripleStore::from_triples(triples.clone());
        let mut want = star_join(&star, &triples);
        want.sort();
        for pig_loads in [false, true] {
            let e = engine();
            load_store(&e, "t", &store).unwrap();
            let (job, schema) = star_join_job("job", &star, "t", "out", pig_loads);
            prop_assert_eq!(schema, star_schema(&star));
            prop_assert_eq!(output(&e, &job), Ok(want.clone()), "pig loads: {}", pig_loads);
        }
    }

    #[test]
    fn star_attach_matches_specification(
        rows in arb_relation(),
        keys in arb_keys(),
        cols in (0..=9usize, 0..=9usize),
        star in arb_star(arb_subject()),
        triples in arb_attach_triples(),
    ) {
        // The key column anywhere in the row, now and then just past it.
        let key_col = cols.0 % (rows.0 + 1);
        let rows = keyed(rows, key_col, &keys);
        let mut shuffle = Vec::new();
        side_map(0, key_col, &rows.1, &mut shuffle)?;
        let map = AttachMap { star: star.clone(), by_object: false };
        for t in &triples {
            let mut got = Vec::new();
            map.route(&TripleRec(t.clone()).to_bytes(), ship(&mut got)).unwrap();
            let want: Vec<Shipped> = pattern_rows(&star, t)
                .into_iter()
                .map(|(i, row)| shipped(&row[0], &(1 + i, row[1..].to_vec())))
                .collect();
            prop_assert_eq!(&got, &want);
            shuffle.extend(got);
        }
        // The row join of the group's star rows (the subject at column 0)
        // with its relation rows: star row by star row, each row's columns
        // before the star's.
        let k = star.patterns.len();
        for (subject, values) in grouped(shuffle) {
            let mut got = Vec::new();
            let key = subject.to_bytes();
            StarAttachReduce { patterns: k }.join(&key, &slices(&values), write(&mut got)).unwrap();
            let star_rows = star_join(&star, &triples_of(&triples, |t| t.s == subject));
            let relation = rows_of(&rows.1, key_col, &subject);
            let mut want = row_join(&star_rows, 0, &relation, key_col);
            want.iter_mut().for_each(|row| row.rotate_left(3 * k));
            prop_assert_eq!(got, want.iter().map(written).collect::<Vec<_>>());
        }

        let schema = schema(rows.0, key_col, cols.1);
        let (job, joined) = star_attach_job("job", ("R", &schema), "x", &star, "t", "out").unwrap();
        prop_assert_eq!(joined, schema.concat(&star_schema(&star)));
        let want = row_join(&rows.1, key_col, &star_join(&star, &triples), 0);
        attach_writes(&job, &rows, key_col, &triples, want)?;
    }

    #[test]
    fn pattern_attach_matches_specification(
        rows in arb_relation(),
        keys in arb_keys(),
        cols in (0..=9usize, 0..=9usize),
        star in arb_star(arb_subject()),
        triples in arb_attach_triples(),
    ) {
        let key_col = cols.0 % (rows.0 + 1);
        let rows = keyed(rows, key_col, &keys);
        let pattern = &star.patterns[0];
        let one = StarPattern::new("s", vec![pattern.clone()]);
        let mut shuffle = Vec::new();
        side_map(0, key_col, &rows.1, &mut shuffle)?;
        let map = AttachMap { star: one.clone(), by_object: true };
        for t in &triples {
            let mut got = Vec::new();
            map.route(&TripleRec(t.clone()).to_bytes(), ship(&mut got)).unwrap();
            let want: Vec<Shipped> = pattern_rows(&one, t)
                .into_iter()
                .map(|(i, row)| shipped(&row[2], &(1 + i, row.clone())))
                .collect();
            prop_assert_eq!(&got, &want);
            shuffle.extend(got);
        }
        // The row join of the group's relation rows with its pattern rows,
        // on the object (column 2).
        for (object, values) in grouped(shuffle) {
            let mut got = Vec::new();
            RowJoinReduce::join(&slices(&values), write(&mut got)).unwrap();
            let matched = star_join(&one, &triples_of(&triples, |t| t.o == object));
            let relation = rows_of(&rows.1, key_col, &object);
            let want = row_join(&relation, key_col, &matched, 2);
            prop_assert_eq!(got, want.iter().map(written).collect::<Vec<_>>());
        }

        let schema = schema(rows.0, key_col, cols.1);
        let (job, joined) =
            pattern_attach_job("job", ("R", &schema), "x", pattern, "t", "out").unwrap();
        prop_assert_eq!(joined, schema.concat(&star_schema(&one)));
        let want = row_join(&rows.1, key_col, &star_join(&one, &triples), 2);
        attach_writes(&job, &rows, key_col, &triples, want)?;
    }

    #[test]
    fn load_copy_matches_specification(triples in arb_triples()) {
        // The load copy is the identity: each record and its text size.
        for t in &triples {
            let rec = TripleRec(t.clone());
            let mut got = Vec::new();
            LoadCopy::copy(&rec.to_bytes(), write(&mut got)).unwrap();
            prop_assert_eq!(got, vec![(rec.to_bytes(), rec.text_size())]);
        }
        let e = engine();
        load_store(&e, "t", &TripleStore::from_triples(triples)).unwrap();
        e.run_job(&load_copy_job("job", "t", "out")).unwrap();
        let fs = e.hdfs().lock();
        let (input, copy) = (fs.get("t").unwrap(), fs.get("out").unwrap());
        let records = |f: &mrsim::DfsFile| f.iter().map(<[u8]>::to_vec).collect::<Vec<_>>();
        prop_assert_eq!((records(&copy), copy.text_bytes), (records(&input), input.text_bytes));
    }
}

/// A reduce kernel's outcome: the records it wrote, or its error.
type Reduced = Result<Vec<Written>, String>;

fn reduced(run: impl FnOnce(&mut Vec<Written>) -> Result<(), MrError>) -> Reduced {
    let mut got = Vec::new();
    run(&mut got).map(|()| got).map_err(|e| e.to_string())
}

fn tokens(tokens: &[&str]) -> Row {
    tokens.iter().map(|t| atom(t)).collect()
}

/// The written rows, each given as its tokens.
fn rows(rows: &[&[&str]]) -> Reduced {
    Ok(rows.iter().map(|r| written(&tokens(r))).collect())
}

/// The typed decoder's error for a value it refuses: the `Codec` error a
/// kernel reports before any bad tag or index, in a one-sided group too.
fn decode_error<T: Rec + std::fmt::Debug>(value: &[u8]) -> Reduced {
    Err(T::from_bytes(value).unwrap_err().to_string())
}

fn op(message: &str) -> Reduced {
    Err(format!("operator error: {message}"))
}

/// The row and star reducers on hand-built groups, each outcome written
/// out: a bad side tag or pattern index is an `Op` error after every value
/// is read, and a key that is no token is refused before any value is.
#[test]
fn refusals_are_written_out() {
    let row = tokens(&["<a>", ""]);
    let sided = |side: u64, row: &Row| (side, row.clone()).to_bytes();
    let truncated = sided(0, &row)[..13].to_vec();
    let trailing = [&sided(1, &row)[..], &[0]].concat();
    let refused = decode_error::<(u64, Row)>;
    let table: Vec<(Vec<Vec<u8>>, Reduced)> = vec![
        (vec![sided(0, &row), sided(2, &row), sided(1, &row)], op("bad join side tag")),
        (vec![sided(7, &row), truncated.clone()], refused(&truncated)),
        (vec![sided(1, &row), truncated.clone()], refused(&truncated)),
        (vec![sided(1, &row), trailing.clone()], refused(&trailing)),
        (vec![vec![1, 2, 3]], refused(&[1, 2, 3])),
        // Two empty rows join to the empty row, one text byte.
        (
            vec![sided(0, &Row::new()), sided(1, &Row::new()), sided(1, &row)],
            Ok(vec![(Row::new().to_bytes(), 1), written(&row)]),
        ),
    ];
    for (i, (group, want)) in table.iter().enumerate() {
        let got = reduced(|got| RowJoinReduce::join(&slices(group), write(got)));
        assert_eq!(&got, want, "row join group {i}");
    }

    let key = atom("<s>").to_bytes();
    let tagged = |idx: u64, p: &str, o: &str| (idx, (atom(p), atom(o))).to_bytes();
    let short = tagged(0, "<p>", "<o>")[..10].to_vec();
    let trailing = [&tagged(1, "", "")[..], &[9]].concat();
    let refused = decode_error::<(u64, (Atom, Atom))>;
    let table: Vec<(Vec<Vec<u8>>, Reduced)> = vec![
        (
            vec![tagged(0, "<p>", "<o>"), tagged(5, "<p>", "<o>"), tagged(9, "<p>", "<o>")],
            op("pattern index 5 out of range"),
        ),
        (vec![tagged(u64::MAX, "<p>", "<o>"), short.clone()], refused(&short)),
        (vec![tagged(1, "<p>", "<o>"), short.clone()], refused(&short)),
        (vec![tagged(0, "<p>", ""), trailing.clone()], refused(&trailing)),
    ];
    let key_refused = decode_error::<Atom>(&key[..5]);
    for (i, (group, want)) in table.iter().enumerate() {
        let join = |k, key: &[u8]| {
            reduced(|got| StarReduce { patterns: k }.join(key, &slices(group), write(got)))
        };
        for k in 1..=3 {
            assert_eq!(&join(k, &key), want, "star group {i}, k = {k}");
        }
        assert_eq!(join(2, &key[..5]), key_refused, "star group {i}");
    }
}

/// The attach reducers on hand-built groups, each outcome written out: two
/// rows by two matches come out combination by combination, row by row
/// within one; a tag past the star or a match that is not one `(property,
/// object)` is a star attach's "malformed attach value", and a tag of 2 or
/// more a pattern attach's "bad join side tag" (no mapper writes one).
#[test]
fn attach_reduce_groups_are_written_out() {
    let key = atom("<s>").to_bytes();
    let value = |tag: u64, tokens_: &[&str]| (tag, tokens(tokens_)).to_bytes();
    let (row, po) = (value(0, &["<a>", ""]), value(1, &["<p>", "<o>"]));
    let truncated = row[..13].to_vec();
    let trailing = [&po[..], &[0]].concat();
    let refused = decode_error::<(u64, Row)>;
    let (malformed, bad_side, none) =
        (op("malformed attach value"), op("bad join side tag"), rows(&[]));
    // Per group: the star attach at k = 1, 2, 3, then the pattern attach.
    let table: Vec<(Vec<Vec<u8>>, [Reduced; 4])> = vec![
        (
            vec![row.clone(), po.clone()],
            [
                rows(&[&["<a>", "", "<s>", "<p>", "<o>"]]),
                none.clone(),
                none.clone(),
                rows(&[&["<a>", "", "<p>", "<o>"]]),
            ],
        ),
        (
            vec![row.clone(), value(1, &["<p>"]), po.clone()],
            [
                malformed.clone(),
                malformed.clone(),
                malformed.clone(),
                rows(&[&["<a>", "", "<p>"], &["<a>", "", "<p>", "<o>"]]),
            ],
        ),
        (
            vec![row.clone(), value(3, &["<p>", "<o>"])],
            [malformed.clone(), malformed.clone(), none.clone(), bad_side.clone()],
        ),
        (vec![value(9, &["<p>"]), truncated.clone()], [(); 4].map(|()| refused(&truncated))),
        (vec![po.clone(), trailing.clone()], [(); 4].map(|()| refused(&trailing))),
        (
            vec![value(0, &[]), value(2, &["", ""]), po.clone()],
            [
                malformed.clone(),
                rows(&[&["<s>", "<p>", "<o>", "<s>", "", ""]]),
                none.clone(),
                bad_side,
            ],
        ),
        (vec![vec![1, 2, 3]], [(); 4].map(|()| refused(&[1, 2, 3]))),
        (
            vec![row.clone(), value(0, &["<b>"]), po.clone(), value(1, &["<q>", "<r>"])],
            [
                rows(&[
                    &["<a>", "", "<s>", "<p>", "<o>"],
                    &["<b>", "<s>", "<p>", "<o>"],
                    &["<a>", "", "<s>", "<q>", "<r>"],
                    &["<b>", "<s>", "<q>", "<r>"],
                ]),
                none.clone(),
                none,
                rows(&[
                    &["<a>", "", "<p>", "<o>"],
                    &["<a>", "", "<q>", "<r>"],
                    &["<b>", "<p>", "<o>"],
                    &["<b>", "<q>", "<r>"],
                ]),
            ],
        ),
    ];
    let key_refused = decode_error::<Atom>(&key[..5]);
    for (i, (group, want)) in table.iter().enumerate() {
        let values = slices(group);
        let star = |k, key: &[u8]| {
            reduced(|got| StarAttachReduce { patterns: k }.join(key, &values, write(got)))
        };
        for k in 1..=3 {
            assert_eq!(&star(k, &key), &want[k - 1], "group {i}, k = {k}");
        }
        assert_eq!(star(2, &key[..5]), key_refused, "group {i}");
        let pattern = reduced(|got| RowJoinReduce::join(&values, write(got)));
        assert_eq!(&pattern, &want[3], "group {i}, pattern attach");
    }
}
