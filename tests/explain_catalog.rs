//! EXPLAIN over the whole testbed catalog: every query must produce a
//! plan whose cycle count matches what execution actually performs, and
//! the Auto strategy's unnest decisions must be visible in the plan text.

use ntga::prelude::*;

fn all_queries() -> Vec<ntga::testbed::TestQuery> {
    let mut all = ntga::testbed::case_study();
    all.extend(ntga::testbed::b_series());
    all.extend(ntga::testbed::a_series());
    all.extend(ntga::testbed::c_series());
    all
}

#[test]
fn explain_cycle_counts_match_execution() {
    let store = datagen::bsbm::generate(&datagen::BsbmConfig::with_products(15));
    for tq in all_queries() {
        let plan = ntga_core::explain(Strategy::Auto(64), &tq.query)
            .unwrap_or_else(|e| panic!("{}: {e}", tq.id));
        // Plans for BSBM queries can actually be executed against BSBM
        // data; A/C queries still plan (the cycle structure is
        // data-independent), so compare for everything.
        let engine = ClusterConfig::default().engine_with(&store);
        let run = run_query(Approach::NtgaAuto(64), &engine, &tq.query, &tq.id, false)
            .unwrap_or_else(|e| panic!("{}: {e}", tq.id));
        assert_eq!(
            plan.cycles.len() as u64,
            run.stats.mr_cycles,
            "{}: EXPLAIN promises {} cycles, execution did {}",
            tq.id,
            plan.cycles.len(),
            run.stats.mr_cycles
        );
    }
}

#[test]
fn explain_marks_unnest_decisions() {
    for tq in all_queries() {
        let plan = ntga_core::explain(Strategy::Auto(64), &tq.query).unwrap();
        let text = plan.to_string();
        let has_unbound = tq.query.unbound_pattern_count() > 0;
        assert_eq!(
            text.contains("σ^βγ"),
            has_unbound,
            "{}: β group-filter marker wrong\n{text}",
            tq.id
        );
        if !has_unbound {
            assert!(
                !text.contains("UnbJoin"),
                "{}: bound-only query must not plan unbound joins\n{text}",
                tq.id
            );
        }
    }
}

#[test]
fn explain_b2_uses_full_unnest_b1_partial() {
    // The Auto policy's signature decision, visible in the plan text.
    let b1 = ntga::testbed::b_series().remove(1);
    let b2 = ntga::testbed::b_series().remove(2);
    let p1 = ntga_core::explain(Strategy::Auto(64), &b1.query).unwrap().to_string();
    let p2 = ntga_core::explain(Strategy::Auto(64), &b2.query).unwrap().to_string();
    assert!(p1.contains("partial unnest"), "B1 should plan TG_OptUnbJoin:\n{p1}");
    assert!(p2.contains("full unnest"), "B2 should plan TG_UnbJoin:\n{p2}");
}

#[test]
fn estimator_covers_catalog_without_panicking() {
    // The estimator must produce finite, non-negative estimates for every
    // star of every catalog query against each matching dataset's stats,
    // including the nested-pair estimate the optimizer prices lazy stars by.
    let stats = [
        datagen::bsbm::generate(&datagen::BsbmConfig::with_products(20)).stats(),
        datagen::bio2rdf::generate(&datagen::Bio2RdfConfig::with_genes(20)).stats(),
        datagen::dbpedia::generate(&datagen::DbpediaConfig::with_entities(30)).stats(),
    ];
    for tq in all_queries() {
        for s in &stats {
            for star in &tq.query.stars {
                let subj = rdf_query::estimate::star_subject_cardinality(star, s);
                let rows = rdf_query::estimate::star_row_cardinality(star, s);
                let pairs = rdf_query::estimate::star_pair_cardinality(star, s);
                assert!(subj.is_finite() && subj >= 0.0, "{}: subj {subj}", tq.id);
                assert!(rows.is_finite() && rows >= 0.0, "{}: rows {rows}", tq.id);
                assert!(pairs.is_finite() && pairs >= 0.0, "{}: pairs {pairs}", tq.id);
                assert!(
                    rows >= subj || rows == 0.0,
                    "{}: rows {rows} below subjects {subj}",
                    tq.id
                );
            }
        }
    }
}
