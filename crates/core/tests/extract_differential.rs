//! The final β-unnest writes solution rows straight from encoded bytes
//! ([`FinalUnnest`] for triplegroup tuples, [`RowSchema::extractor`] for
//! flat rows); this file keeps the path it replaced — decode every record,
//! expand each tuple by the algebra's final μ^β ([`logical::solutions`])
//! or each row into a map from variable name to token, insert into an
//! ordered set, project — as the reference, and checks on random queries,
//! tuples and rows that both give the same solutions in the same order
//! under every projection, and the same refusals. Hand-written tables pin
//! the reference itself.

use mr_rdf::{PlanError, Row, RowSchema};
use mrsim::Rec;
use ntga_core::logical::{self, Solution};
use ntga_core::tg::{AnnTg, TgTuple};
use ntga_core::FinalUnnest;
use proptest::prelude::{prop, prop_assert_eq, proptest, ProptestConfig};
use proptest::strategy::Strategy;
use rdf_model::atom::{atom, Atom};
use rdf_query::{ObjFilter, ObjPattern, Query, SolutionRows, StarPattern, TriplePattern};
use std::collections::BTreeSet;

// ---------------------------------------------------------------------------
// The typed reference
// ---------------------------------------------------------------------------

mod reference {
    use super::*;

    /// Bind `var`; `false` if it is already bound to a different value.
    fn bind(b: &mut Solution, var: &str, value: &Atom) -> bool {
        *b.entry(var.to_string()).or_insert_with(|| value.clone()) == *value
    }

    /// The solutions of a relation of tuples by the algebra's final `μ^β`,
    /// projected: what `expand_tuple` + `SolutionSet::project` computed.
    pub fn solutions(
        tuples: &[TgTuple],
        components: &[usize],
        query: &Query,
    ) -> Result<BTreeSet<Solution>, PlanError> {
        let stars: Vec<&StarPattern> = components.iter().map(|&c| &query.stars[c]).collect();
        let mut set = BTreeSet::new();
        for tuple in tuples {
            if tuple.0.len() != components.len() {
                return Err(PlanError::Internal("tuple arity mismatch".into()));
            }
            let shape = || PlanError::Internal("triplegroup/star shape mismatch".into());
            set.extend(logical::solutions(&tuple.0, &stars).ok_or_else(shape)?);
        }
        Ok(project(set, query))
    }

    /// The solutions of a relation of rows under `schema`, projected: what
    /// `RowSchema::binding` + `SolutionSet::project` computed.
    pub fn row_solutions(
        rows: &[Row],
        schema: &RowSchema,
        query: &Query,
    ) -> Result<BTreeSet<Solution>, PlanError> {
        let mut set = BTreeSet::new();
        for row in rows {
            let mut b = Solution::new();
            let vars = schema.cols.iter().zip(row).filter_map(|(col, v)| Some((col.as_ref()?, v)));
            let consistent = row.len() == schema.arity()
                && vars.fold(true, |ok, (var, value)| ok && bind(&mut b, var, value));
            if !consistent {
                return Err(PlanError::Internal("inconsistent output row".into()));
            }
            set.insert(b);
        }
        Ok(project(set, query))
    }

    fn project(set: BTreeSet<Solution>, query: &Query) -> BTreeSet<Solution> {
        let Some(vars) = &query.projection else { return set };
        set.into_iter().map(|b| b.into_iter().filter(|(k, _)| vars.contains(k)).collect()).collect()
    }
}

/// A solution table as text: rows in order, each as `(variable, token)`
/// pairs in order.
type Table = Vec<Vec<(String, String)>>;

fn table_of_reference(set: BTreeSet<Solution>) -> Table {
    set.iter().map(|b| b.iter().map(|(k, v)| (k.clone(), v.to_string())).collect()).collect()
}

fn table_of(rows: SolutionRows) -> Table {
    let cell = |(k, v): (&String, &Atom)| (k.clone(), v.to_string());
    rows.finish().iter().map(|b| b.iter().map(cell).collect()).collect()
}

/// The kernel over a relation of tuples.
fn unnest(tuples: &[TgTuple], components: &[usize], query: &Query) -> Result<Table, PlanError> {
    let vars = query.solution_vars();
    let mut kernel = FinalUnnest::new(query, components, &vars)?;
    let mut rows = SolutionRows::new(vars);
    for tuple in tuples {
        kernel.add_rows(&tuple.to_bytes(), &mut rows)?;
    }
    Ok(table_of(rows))
}

/// The kernel over a relation of rows.
fn extract(rows: &[Row], schema: &RowSchema, query: &Query) -> Result<Table, PlanError> {
    let vars = query.solution_vars();
    let mut add_rows = schema.extractor(&vars)?;
    let mut out = SolutionRows::new(vars);
    for row in rows {
        add_rows(&row.to_bytes(), &mut out)?;
    }
    Ok(table_of(out))
}

/// `query` under every non-empty subset of its variables as projection,
/// once as it stands and once with its first variable named twice (`SELECT
/// ?g ?g`), and under `SELECT *`.
fn projections(query: &Query) -> Vec<Query> {
    let vars = query.variables();
    let mut out = vec![query.clone()];
    for mask in 1u32..1 << vars.len() {
        let mut chosen: Vec<String> = vars
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & 1 << i != 0)
            .map(|(_, v)| v.clone())
            .collect();
        out.push(query.clone().with_projection(chosen.clone()));
        chosen.push(chosen[0].clone());
        out.push(query.clone().with_projection(chosen));
    }
    out
}

// ---------------------------------------------------------------------------
// Random queries and relations
// ---------------------------------------------------------------------------

/// Small pools, so that variables repeat (within a star and across them),
/// lists repeat pairs, and repeated variables disagree as often as not.
/// `s1` is also the second star's subject: an object-subject join.
const VARS: [&str; 4] = ["a", "b", "c", "s1"];
const PROPS: [&str; 3] = ["<p0>", "<p1>", "<p2>"];
const TOKENS: [&str; 5] = ["<o0>", "<o1>", "\"lit\"", "<p0>", ""];

fn arb_object() -> impl Strategy<Value = ObjPattern> {
    (0..VARS.len(), 0..4usize).prop_map(|(v, kind)| match kind {
        // Constant-bound objects bind nothing.
        0 => ObjPattern::Const(atom("<o0>")),
        1 => ObjPattern::Filtered(VARS[v].into(), ObjFilter::Prefix("<o".into())),
        _ => ObjPattern::Var(VARS[v].into()),
    })
}

fn arb_token() -> impl Strategy<Value = Atom> {
    (0..TOKENS.len()).prop_map(|i| atom(TOKENS[i]))
}

/// What a star is cut from: how many bound and unbound patterns it keeps
/// of the two of each that follow (one bound pattern if it would keep none).
type StarSpec = (usize, usize, Vec<(usize, ObjPattern)>, Vec<(usize, ObjPattern)>);

fn arb_star_spec() -> impl Strategy<Value = StarSpec> {
    let bound = prop::collection::vec((0..PROPS.len(), arb_object()), 2);
    let unbound = prop::collection::vec((0..VARS.len(), arb_object()), 2);
    (0..=2usize, 0..=2usize, bound, unbound)
}

/// What a triplegroup is cut from: a subject, two object lists and two
/// candidate lists of 0–3 entries — so empty lists, and pairs that sit in
/// a bound and an unbound list, both turn up.
type RawTg = (Atom, Vec<Vec<Atom>>, Vec<Vec<(usize, Atom)>>);

fn arb_raw_tg() -> impl Strategy<Value = RawTg> {
    let objs = prop::collection::vec(prop::collection::vec(arb_token(), 0..=3), 2);
    let cands = prop::collection::vec((0..PROPS.len(), arb_token()), 0..=3);
    (arb_token(), objs, prop::collection::vec(cands, 2))
}

/// Star `i` on subject variable `s{i}`, and a triplegroup of its shape.
fn cut(i: usize, spec: &StarSpec, raw: RawTg) -> (StarPattern, AnnTg) {
    let (nb, nu, bound, unbound) = spec;
    // A star has a pattern (`Query::validate`).
    let (nb, nu) = (if nb + nu == 0 { 1 } else { *nb }, *nu);
    let s = format!("s{i}");
    let bound_pats =
        bound[..nb].iter().map(|(p, o)| TriplePattern::bound(&s, PROPS[*p], o.clone()));
    let unbound_pats =
        unbound[..nu].iter().map(|(p, o)| TriplePattern::unbound(&s, VARS[*p], o.clone()));
    // An unbound pattern first now and then: the record keeps bound lists
    // first whatever the pattern order.
    let mut patterns: Vec<TriplePattern> = unbound_pats.chain(bound_pats).collect();
    if patterns.len() > 1 {
        patterns.rotate_left(i % 2);
    }
    let (subject, objs, cands) = raw;
    let tg = AnnTg {
        subject,
        ec: i as u64,
        bound: bound[..nb].iter().map(|(p, _)| atom(PROPS[*p])).zip(objs).collect(),
        unbound: cands
            .into_iter()
            .take(nu)
            .map(|list| list.into_iter().map(|(p, o)| (atom(PROPS[p]), o)).collect())
            .collect(),
    };
    (StarPattern::new(s, patterns), tg)
}

/// A query of 1–3 stars and a relation of 0–4 tuples of its shape.
fn arb_relation() -> impl Strategy<Value = (Query, Vec<TgTuple>)> {
    let specs = prop::collection::vec(arb_star_spec(), 3);
    let tuples = prop::collection::vec(prop::collection::vec(arb_raw_tg(), 3), 0..=4);
    (1..=3usize, specs, tuples).prop_map(|(n, specs, tuples)| {
        let dummy = || (atom(""), vec![Vec::new(); 2], vec![Vec::new(); 2]);
        let stars = (0..n).map(|i| cut(i, &specs[i], dummy()).0).collect();
        let tuple = |raw: Vec<RawTg>| {
            TgTuple(
                raw.into_iter().take(n).enumerate().map(|(i, r)| cut(i, &specs[i], r).1).collect(),
            )
        };
        (Query::new(stars), tuples.into_iter().map(tuple).collect())
    })
}

/// A schema of 0–6 columns, unnamed ones among them, and 0–5 rows of its
/// width.
fn arb_rows() -> impl Strategy<Value = (RowSchema, Vec<Row>)> {
    let cols = prop::collection::vec(prop::option::of(0..VARS.len()), 6);
    let rows = prop::collection::vec(prop::collection::vec(arb_token(), 6), 0..=5);
    (0..=6usize, cols, rows).prop_map(|(width, cols, rows)| {
        let cols = cols[..width].iter().map(|c| c.map(|v| VARS[v].to_string())).collect();
        let rows = rows.into_iter().map(|mut row: Row| {
            row.truncate(width);
            row
        });
        (RowSchema::new(cols), rows.collect())
    })
}

/// The query whose variables are a schema's: one star binding each as an
/// object (what it looks like does not matter to the row kernel).
fn query_of(schema: &RowSchema) -> Query {
    let vars: BTreeSet<&String> = schema.cols.iter().flatten().collect();
    let pats = vars.iter().map(|v| TriplePattern::bound(v, "<p>", ObjPattern::Const(atom("<o>"))));
    Query::new(pats.map(|p| StarPattern::new(p.variables()[0].to_string(), vec![p])).collect())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn tuples_unnest_to_the_reference_table(relation in arb_relation()) {
        let (query, tuples) = relation;
        let components: Vec<usize> = (0..query.stars.len()).collect();
        // The same record twice must not show.
        let twice: Vec<TgTuple> = tuples.iter().chain(&tuples).cloned().collect();
        for query in projections(&query) {
            let want = reference::solutions(&tuples, &components, &query).map(table_of_reference);
            prop_assert_eq!(unnest(&tuples, &components, &query), want.clone(), "{:?}", query.projection);
            prop_assert_eq!(unnest(&twice, &components, &query), want, "{:?}", query.projection);
        }
    }

    #[test]
    fn components_may_come_in_any_star_order(relation in arb_relation()) {
        let (query, tuples) = relation;
        // A left-deep plan appends stars in join order, not query order.
        let components: Vec<usize> = (0..query.stars.len()).rev().collect();
        let reversed: Vec<TgTuple> =
            tuples.iter().map(|t| TgTuple(t.0.iter().rev().cloned().collect())).collect();
        let want = reference::solutions(&reversed, &components, &query).map(table_of_reference);
        prop_assert_eq!(unnest(&reversed, &components, &query), want);
    }

    #[test]
    fn rows_extract_to_the_reference_table(relation in arb_rows()) {
        let (schema, rows) = relation;
        for query in projections(&query_of(&schema)) {
            let want = reference::row_solutions(&rows, &schema, &query).map(table_of_reference);
            prop_assert_eq!(extract(&rows, &schema, &query), want, "{:?}", query.projection);
        }
    }

    #[test]
    fn a_row_of_another_width_is_refused(relation in arb_rows(), at in 0..5usize) {
        let (schema, mut rows) = relation;
        let Some(row) = rows.get_mut(at) else { return Ok(()) };
        row.push(atom("<extra>"));
        let query = query_of(&schema);
        let want = reference::row_solutions(&rows, &schema, &query).map(table_of_reference);
        prop_assert_eq!(&want, &Err(PlanError::Internal("inconsistent output row".into())));
        prop_assert_eq!(extract(&rows, &schema, &query), want);
    }
}

// ---------------------------------------------------------------------------
// Hand-built tables
// ---------------------------------------------------------------------------

fn table(rows: &[&[(&str, &str)]]) -> Table {
    rows.iter().map(|r| r.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()).collect()
}

/// `?g <label> ?l . ?g <xGO> ?go . ?g ?p ?go . ?go <gl> ?x`: the unbound
/// pattern shares its object with a bound one and with the second star's
/// subject.
fn two_star_query() -> Query {
    rdf_query::parse_query(
        "SELECT * WHERE { ?g <label> ?l . ?g <xGO> ?go . ?g ?p ?go . ?go <gl> ?x . }",
    )
    .unwrap()
}

fn two_star_tuple() -> TgTuple {
    let gene = AnnTg {
        subject: atom("<g1>"),
        ec: 0,
        bound: vec![
            (atom("<label>"), vec![atom("\"a\"")]),
            (atom("<xGO>"), vec![atom("<go1>"), atom("<go2>")]),
        ],
        unbound: vec![vec![
            (atom("<label>"), atom("\"a\"")),
            (atom("<xGO>"), atom("<go1>")),
            (atom("<xGO>"), atom("<go2>")),
            (atom("<see>"), atom("<go2>")),
        ]],
    };
    let go = AnnTg {
        subject: atom("<go2>"),
        ec: 1,
        bound: vec![(atom("<gl>"), vec![atom("\"membrane\""), atom("\"envelope\"")])],
        unbound: vec![],
    };
    TgTuple(vec![gene, go])
}

#[test]
fn a_hand_built_table_under_three_projections() {
    let (query, tuples) = (two_star_query(), [two_star_tuple()]);
    // ?go must be <go2> in all three places: two candidates and two labels.
    let all = table(&[
        &[("g", "<g1>"), ("go", "<go2>"), ("l", "\"a\""), ("p", "<see>"), ("x", "\"envelope\"")],
        &[("g", "<g1>"), ("go", "<go2>"), ("l", "\"a\""), ("p", "<see>"), ("x", "\"membrane\"")],
        &[("g", "<g1>"), ("go", "<go2>"), ("l", "\"a\""), ("p", "<xGO>"), ("x", "\"envelope\"")],
        &[("g", "<g1>"), ("go", "<go2>"), ("l", "\"a\""), ("p", "<xGO>"), ("x", "\"membrane\"")],
    ]);
    let cases = [
        (None, all),
        (
            Some(vec!["p", "g"]),
            table(&[&[("g", "<g1>"), ("p", "<see>")], &[("g", "<g1>"), ("p", "<xGO>")]]),
        ),
        (Some(vec!["g", "g"]), table(&[&[("g", "<g1>")]])),
    ];
    for (projection, want) in cases {
        let mut query = query.clone();
        query.projection = projection.map(|vars| vars.into_iter().map(String::from).collect());
        assert_eq!(unnest(&tuples, &[0, 1], &query).unwrap(), want, "{:?}", query.projection);
        let reference = reference::solutions(&tuples, &[0, 1], &query).unwrap();
        assert_eq!(table_of_reference(reference), want, "{:?}", query.projection);
    }
}

#[test]
fn two_wide_lists_peak_at_the_answer_not_its_square() {
    // B3/B4-shaped: two unbound lists of 300 candidates in one final tuple.
    // The replaced path held partials × expansions maps before its first
    // insert; the odometer holds one row. 90 000 rows of three cells is all
    // this may allocate, and `SELECT ?g` none of them.
    let wide = |tag: &str| (0..300).map(|i| (atom("<p>"), atom(&format!("<{tag}{i}>")))).collect();
    let tuple = TgTuple(vec![AnnTg {
        subject: atom("<g>"),
        ec: 0,
        bound: vec![],
        unbound: vec![wide("a"), wide("b")],
    }]);
    let query = rdf_query::parse_query("SELECT ?g ?x ?y WHERE { ?g ?p ?x . ?g ?q ?y . }").unwrap();
    let vars = query.solution_vars();
    let mut rows = SolutionRows::new(vars.clone());
    FinalUnnest::new(&query, &[0], &vars).unwrap().add_rows(&tuple.to_bytes(), &mut rows).unwrap();
    assert_eq!(rows.len(), 90_000);
    assert_eq!(rows.finish().len(), 90_000);
    let only_g = query.with_projection(vec!["g".into()]);
    let mut rows = SolutionRows::new(only_g.solution_vars());
    let mut kernel = FinalUnnest::new(&only_g, &[0], &only_g.solution_vars()).unwrap();
    kernel.add_rows(&tuple.to_bytes(), &mut rows).unwrap();
    assert_eq!(rows.len(), 1);
}

#[test]
fn a_hand_built_row_table() {
    // A star join's 3k-arity row: the subject three times, constants unnamed.
    let schema = RowSchema::new(
        ["g", "", "l", "g", "", "go", "g", "p", "go"]
            .map(|c| (!c.is_empty()).then(|| c.to_string()))
            .to_vec(),
    );
    let row = |tokens: [&str; 9]| tokens.map(atom).to_vec();
    let rows = [
        row(["<g1>", "<label>", "\"a\"", "<g1>", "<xGO>", "<go2>", "<g1>", "<see>", "<go2>"]),
        row(["<g1>", "<label>", "\"a\"", "<g1>", "<xGO>", "<go1>", "<g1>", "<xGO>", "<go1>"]),
        row(["<g1>", "<label>", "\"a\"", "<g1>", "<xGO>", "<go2>", "<g1>", "<see>", "<go2>"]),
    ];
    let query = query_of(&schema).with_projection(vec!["p".into(), "go".into()]);
    let want = table(&[&[("go", "<go1>"), ("p", "<xGO>")], &[("go", "<go2>"), ("p", "<see>")]]);
    assert_eq!(extract(&rows, &schema, &query).unwrap(), want);
    // ?go disagrees between its two columns: refused, projected or not.
    let bad = row(["<g1>", "<label>", "\"a\"", "<g1>", "<xGO>", "<go1>", "<g1>", "<see>", "<go2>"]);
    for projection in [vec!["go".to_string()], vec!["l".to_string()]] {
        let query = query_of(&schema).with_projection(projection);
        let err = extract(std::slice::from_ref(&bad), &schema, &query).unwrap_err();
        assert_eq!(err, PlanError::Internal("inconsistent output row".into()));
    }
}
