//! Hostile bytes against the final β-unnest kernels: every truncation, a
//! trailing byte, every single-bit flip, every length or count blown up to
//! `u32::MAX` and a few thousand random rewrites of valid final records.
//! On each variant [`FinalUnnest::add_rows`] and [`RowSchema::extractor`]
//! must refuse what `TgTuple::from_bytes` / `Row::from_bytes` refuse, in the
//! decoder's words, and take what they take — or turn it down, typed, for a
//! shape that is not the plan's — and never panic. CI runs this in release
//! too, where a wrapped offset would otherwise go unnoticed.

use mr_rdf::{PlanError, Row, RowSchema};
use mrsim::{MrError, Rec};
use ntga_core::tg::{AnnTg, TgTuple};
use ntga_core::FinalUnnest;
use proptest::test_runner::TestRng;
use rdf_model::atom::atom;
use rdf_query::{parse_query, Query, SolutionRows};

fn internal(message: &str) -> PlanError {
    PlanError::Internal(message.into())
}

/// What the kernels make of a record the typed decoder refuses.
fn refusal(e: &MrError) -> PlanError {
    internal(&format!("reading final output: {e}"))
}

fn queries() -> Vec<Query> {
    [
        "SELECT * WHERE { ?g <label> ?l . ?g <xGO> ?go . ?g ?p ?go . ?go <gl> ?x . }",
        "SELECT ?x ?g WHERE { ?g <label> ?l . ?g <xGO> ?go . ?g ?p ?go . ?go <gl> ?x . }",
        "SELECT * WHERE { ?go <gl> ?x . }",
    ]
    .map(|q| parse_query(q).unwrap())
    .to_vec()
}

/// Valid final tuples: the two-star shape, the one-star shape, empty
/// lists, empty tokens, multi-byte UTF-8, no components at all.
fn tuple_seeds() -> Vec<TgTuple> {
    let pairs = |ps: &[(&str, &str)]| ps.iter().map(|(p, o)| (atom(p), atom(o))).collect();
    let gene = AnnTg {
        subject: atom("<g1>"),
        ec: 0,
        bound: vec![
            (atom("<label>"), vec![atom("\"s\u{e9}\"")]),
            (atom("<xGO>"), vec![atom("<go1>"), atom("<go2>")]),
        ],
        unbound: vec![pairs(&[("<xGO>", "<go1>"), ("<see>", "<go2>"), ("", "")])],
    };
    let go = AnnTg {
        subject: atom("<go2>"),
        ec: 1,
        bound: vec![(atom("<gl>"), vec![atom("\"membrane\"")])],
        unbound: vec![],
    };
    let mut childless = gene.clone();
    childless.unbound[0].clear();
    vec![
        TgTuple(vec![]),
        TgTuple(vec![go.clone()]),
        TgTuple(vec![gene.clone(), go.clone()]),
        TgTuple(vec![childless, go]),
        TgTuple(vec![gene]),
    ]
}

fn check_tuple(rec: &[u8], what: &str) {
    let typed = TgTuple::from_bytes(rec);
    for query in queries() {
        let components: Vec<usize> = (0..query.stars.len()).collect();
        let vars = query.solution_vars();
        let mut kernel = FinalUnnest::new(&query, &components, &vars).unwrap();
        let mut rows = SolutionRows::new(vars);
        let got = kernel.add_rows(rec, &mut rows);
        let want = match &typed {
            Err(e) => Err(refusal(e)),
            Ok(tuple) if tuple.0.len() != components.len() => Err(internal("tuple arity mismatch")),
            Ok(tuple) => {
                let fits = tuple.0.iter().zip(&query.stars).all(|(tg, star)| {
                    tg.bound.len() == star.bound_patterns().len()
                        && tg.unbound.len() == star.unbound_patterns().len()
                });
                fits.then_some(()).ok_or(internal("triplegroup/star shape mismatch"))
            }
        };
        assert_eq!(got, want, "{what}");
        // Whatever was taken fills whole rows, and they sort.
        rows.finish();
    }
}

fn row_schema() -> RowSchema {
    let cols = ["g", "", "l", "g", "", "go", "g", "p", "go"];
    RowSchema::new(cols.map(|c| (!c.is_empty()).then(|| c.to_string())).to_vec())
}

/// Valid rows: the schema's width with and without its repeated columns
/// agreeing, an empty token, multi-byte UTF-8, narrower and wider rows.
fn row_seeds() -> Vec<Row> {
    let row = |tokens: &[&str]| tokens.iter().map(|t| atom(t)).collect::<Row>();
    let full = ["<g1>", "<label>", "\"s\u{e9}\"", "<g1>", "<xGO>", "<go2>", "<g1>", "", "<go2>"];
    let mut odd = full;
    odd[3] = "<g2>";
    vec![
        row(&[]),
        row(&[""]),
        row(&full),
        row(&odd),
        row(&full[..8]),
        row(&[&full[..], &["<x>"]].concat()),
    ]
}

fn check_row(rec: &[u8], what: &str) {
    let typed = Row::from_bytes(rec);
    let schema = row_schema();
    for vars in [&["g", "go", "l", "p"][..], &["p"], &[]] {
        let vars: Vec<String> = vars.iter().map(|v| v.to_string()).collect();
        let mut rows = SolutionRows::new(vars.clone());
        let got = schema.extractor(&vars).unwrap()(rec, &mut rows);
        let want = match &typed {
            Err(e) => Err(refusal(e)),
            Ok(row) => {
                let agree = |a: usize, b: usize| row[a] == row[b];
                let consistent =
                    row.len() == schema.arity() && agree(0, 3) && agree(0, 6) && agree(5, 8);
                consistent.then_some(()).ok_or(internal("inconsistent output row"))
            }
        };
        assert_eq!(got, want, "{what}");
        assert_eq!(rows.len(), usize::from(want.is_ok()), "{what}");
        rows.finish();
    }
}

/// Every variant of every seed through `check`.
fn hostile(seeds: &[Vec<u8>], name: &str, check: impl Fn(&[u8], &str)) {
    for (i, bytes) in seeds.iter().enumerate() {
        check(bytes, &format!("seed {i}"));
        for len in 0..bytes.len() {
            check(&bytes[..len], &format!("seed {i} cut to {len}"));
        }
        check(&[&bytes[..], &[0]].concat(), &format!("seed {i} plus a byte"));
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            check(&flipped, &format!("seed {i} bit {bit}"));
        }
        // Wherever a count or a length sits, an oversized one.
        for at in 0..bytes.len().saturating_sub(3) {
            let mut blown = bytes.clone();
            blown[at..at + 4].fill(0xff);
            check(&blown, &format!("seed {i} count at {at}"));
        }
    }
    for case in 0..4000u64 {
        let mut rng = TestRng::for_case(name, case);
        let mut bytes = match rng.usize_in(0, seeds.len()) {
            0 => (0..rng.usize_in(0, 64)).map(|_| rng.next_u64() as u8).collect(),
            i => seeds[i - 1].clone(),
        };
        for _ in 0..rng.usize_in(0, 4) {
            if !bytes.is_empty() {
                let at = rng.usize_in(0, bytes.len() - 1);
                // Small values make plausible counts and lengths.
                bytes[at] = if rng.usize_in(0, 1) == 0 {
                    rng.usize_in(0, 8) as u8
                } else {
                    rng.next_u64() as u8
                };
            }
        }
        check(&bytes, &format!("case {case}"));
    }
}

#[test]
fn hostile_tuples_are_refused_in_the_decoders_words() {
    let seeds: Vec<Vec<u8>> = tuple_seeds().iter().map(Rec::to_bytes).collect();
    hostile(&seeds, "extract_fuzz::tuples", check_tuple);
}

#[test]
fn hostile_rows_are_refused_in_the_decoders_words() {
    let seeds: Vec<Vec<u8>> = row_seeds().iter().map(Rec::to_bytes).collect();
    hostile(&seeds, "extract_fuzz::rows", check_row);
}
