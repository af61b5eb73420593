//! Lemma 1 over the paper's query catalog, on the generated datasets of
//! `tests/common`: BSBM at 30 products for B0–B6, Bio2RDF at 35 genes for
//! A1–A6 and DBpedia at 60 entities for C1–C4, a scale at which the whole
//! file runs in seconds. Every star of every query passes `check_rewrites`:
//! the relational specification, the relaxed NTGA rewrite, the naive
//! rewrite and the naive evaluator give one solution set. Separately, the
//! relational specification of each whole query, star joins then row joins,
//! equals the naive evaluator.

mod common;

use common::{bio, bsbm, dbp};
use ntga::prelude::*;
use ntga_core::rewrite::{check_rewrites, evaluate_relational};

fn lemma1(queries: &[TestQuery], store: &TripleStore) {
    for tq in queries {
        for star in &tq.query.stars {
            let stated = check_rewrites(star, store);
            stated.unwrap_or_else(|e| panic!("{} star ?{}: {e}", tq.id, star.subject_var));
        }
        let relational = evaluate_relational(&tq.query, store).unwrap();
        assert_eq!(relational, rdf_query::naive::evaluate(&tq.query, store), "{}", tq.id);
    }
}

#[test]
fn lemma1_holds_on_b_series() {
    lemma1(&testbed::b_series(), &bsbm());
}

#[test]
fn lemma1_holds_on_a_series() {
    lemma1(&testbed::a_series(), &bio());
}

#[test]
fn lemma1_holds_on_c_series() {
    lemma1(&testbed::c_series(), &dbp());
}
