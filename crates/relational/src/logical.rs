//! The relational semantics the baselines run, stated once: the
//! specification `relbase`'s kernels are held to and the relational side
//! of Lemma 1, not a production path. It works on decoded triples and rows
//! and calls no kernel, row reader, codec or odometer a kernel steps
//! through (CI checks that): an oracle that calls the code it checks
//! checks nothing.
//!
//! * The **star join** — [`star_join`]: per subject, the cross product of
//!   each pattern's matches, as rows of [`star_schema`]'s columns. Held to
//!   it: `StarMap` under every `PatternSet` and `StarReduce`, by
//!   `splice_differential.rs`'s `star_join_matches_specification`.
//! * The **row join** — [`row_join`]: left row ++ right row wherever the
//!   key columns are equal. Held to it: `SideMap` and `RowJoinReduce`, by
//!   `row_join_matches_specification`.
//! * Pig's **load copy** is the identity. Held to it: `LoadCopy`, by
//!   `load_copy_matches_specification`.
//! * Figure 3's attaches are compositions of the two, with no function of
//!   their own. A **star attach** is the row join of the relation with the
//!   star join of the remaining patterns, keyed on the subject (column 0);
//!   a **pattern attach** is the row join with the one-pattern star join,
//!   keyed on its object (column 2). Held to them: `AttachMap` and
//!   `StarAttachReduce`, by `star_attach_matches_specification`; `AttachMap`
//!   keyed on the object with `SideMap` and `RowJoinReduce`, by
//!   `pattern_attach_matches_specification`. The refusals of malformed
//!   shuffle values are no relational semantics; `refusals_are_written_out`
//!   and `attach_reduce_groups_are_written_out` pin them.
//!
//! `ntga_core::rewrite` builds Lemma 1's relational side from these: star
//! joins, then row joins in `Query::left_deep_order`, projected to the
//! solution variables.
//!
//! [`star_schema`]: crate::star_schema

use mr_rdf::Row;
use rdf_model::atom::Atom;
use rdf_model::STriple;
use rdf_query::StarPattern;
use std::collections::BTreeMap;

/// The star join of `star` over `triples`. Per subject, in the order the
/// subjects first occur in `triples`: one row per combination of one match
/// per pattern, the last pattern's match varying fastest. A pattern's
/// matches are the subject's triples it and the star's subject filter
/// accept, in `triples` order. A row is `(subject, property, object)` per
/// pattern, the columns of [`crate::star_schema`]; a subject some pattern
/// does not match has none.
pub fn star_join(star: &StarPattern, triples: &[STriple]) -> Vec<Row> {
    let mut subjects: Vec<&Atom> = Vec::new();
    let mut groups: BTreeMap<&Atom, Vec<&STriple>> = BTreeMap::new();
    for t in triples {
        let group = groups.entry(&t.s).or_insert_with(|| {
            subjects.push(&t.s);
            Vec::new()
        });
        group.push(t);
    }
    let mut rows = Vec::new();
    for subject in subjects.into_iter().filter(|s| star.subject_accepts(s)) {
        let group = &groups[subject];
        let combinations = star.patterns.iter().fold(vec![Row::new()], |partials, pat| {
            let accepts = |t: &&STriple| pat.matches_structurally(t);
            let matches: Vec<&STriple> = group.iter().copied().filter(accepts).collect();
            let extend = |row: &Row, t: &STriple| {
                [&row[..], &[t.s.clone(), t.p.clone(), t.o.clone()]].concat()
            };
            partials.iter().flat_map(|row| matches.iter().map(|t| extend(row, t))).collect()
        });
        rows.extend(combinations);
    }
    rows
}

/// The row join of `left` and `right` on their columns `left_key` and
/// `right_key`: per left row, in order, per right row whose key column
/// equals the left row's, in order, the left row's columns then the right
/// row's. A row without its key column joins nothing.
pub fn row_join(left: &[Row], left_key: usize, right: &[Row], right_key: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for l in left {
        let Some(key) = l.get(left_key) else { continue };
        for r in right.iter().filter(|r| r.get(right_key) == Some(key)) {
            rows.push([&l[..], &r[..]].concat());
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::atom::atom;
    use rdf_query::{ObjFilter, ObjPattern, TriplePattern};

    fn triples() -> Vec<STriple> {
        vec![
            STriple::new("<g2>", "<label>", "\"b\""),
            STriple::new("<g1>", "<label>", "\"a\""),
            STriple::new("<g1>", "<xGO>", "<go1>"),
            STriple::new("<g1>", "<xGO>", "<go2>"),
            STriple::new("<g2>", "<other>", "<x>"),
        ]
    }

    fn row(tokens: &[&str]) -> Row {
        tokens.iter().map(|t| atom(t)).collect()
    }

    #[test]
    fn star_join_crosses_matches_last_pattern_fastest() {
        let star = StarPattern::new(
            "g",
            vec![
                TriplePattern::unbound("g", "p", ObjPattern::Var("o".into())),
                TriplePattern::bound("g", "<xGO>", ObjPattern::Var("go".into())),
            ],
        );
        // <g2> has no <xGO>: no row. <g1>: three triples × two <xGO>, a
        // triple matching both patterns (multiple roles).
        let rows = star_join(&star, &triples());
        let label = ["<g1>", "<label>", "\"a\""];
        let (go1, go2) = (["<g1>", "<xGO>", "<go1>"], ["<g1>", "<xGO>", "<go2>"]);
        let pairs = [(label, go1), (label, go2), (go1, go1), (go1, go2), (go2, go1), (go2, go2)];
        let want: Vec<Row> = pairs.into_iter().map(|(a, b)| row(&[a, b].concat())).collect();
        assert_eq!(rows, want);
    }

    #[test]
    fn star_join_keeps_first_occurrence_order_and_the_subject_filter() {
        let star = StarPattern::new(
            "g",
            vec![TriplePattern::bound("g", "<label>", ObjPattern::Var("l".into()))],
        );
        let rows = star_join(&star, &triples());
        assert_eq!(
            rows,
            vec![row(&["<g2>", "<label>", "\"b\""]), row(&["<g1>", "<label>", "\"a\""])]
        );
        let filtered = star.with_subject_filter(ObjFilter::Equals(atom("<g1>")));
        assert_eq!(star_join(&filtered, &triples()), vec![row(&["<g1>", "<label>", "\"a\""])]);
    }

    #[test]
    fn row_join_pairs_equal_keys_left_major() {
        let left = vec![row(&["<a1>", "<k1>"]), row(&["<a2>"]), row(&["<a3>", "<k1>"])];
        let right = vec![row(&["<k1>", "<b1>"]), row(&["<k2>", "<b2>"]), row(&["<k1>", "<b3>"])];
        let want: Vec<Row> =
            [("<a1>", "<b1>"), ("<a1>", "<b3>"), ("<a3>", "<b1>"), ("<a3>", "<b3>")]
                .into_iter()
                .map(|(a, b)| row(&[a, "<k1>", "<k1>", b]))
                .collect();
        assert_eq!(row_join(&left, 1, &right, 0), want);
        assert!(row_join(&left, 2, &right, 0).is_empty());
    }
}
