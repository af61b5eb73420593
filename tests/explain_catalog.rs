//! EXPLAIN over the whole testbed catalog: under every approach, every
//! query's plan must describe what execution actually performs — its
//! cycles and its jobs, in order — and the Auto strategy's unnest decisions
//! must be visible in the plan text.

use ntga::prelude::*;

fn all_queries() -> Vec<ntga::testbed::TestQuery> {
    let mut all = ntga::testbed::case_study();
    all.extend(ntga::testbed::b_series());
    all.extend(ntga::testbed::a_series());
    all.extend(ntga::testbed::c_series());
    all
}

/// The Auto(64) plan of `query`, rendered.
fn explain_auto(query: &Query) -> ntga_core::PlanText {
    ntga_core::explain_plan(&Strategy::Auto(64).plan(query).unwrap())
}

#[test]
fn explain_cycle_counts_match_execution() {
    let store = datagen::bsbm::generate(&datagen::BsbmConfig::with_products(15));
    let approaches = [
        Approach::Pig,
        Approach::Hive,
        Approach::SelSjFirst,
        Approach::NtgaEager,
        Approach::NtgaLazyFull,
        Approach::NtgaLazyPartial(64),
        Approach::NtgaAuto(64),
        Approach::NtgaAutoCost,
    ];
    for tq in all_queries() {
        for approach in approaches {
            // Plans for BSBM queries can actually be executed against BSBM
            // data; A/C queries still plan (the cycle structure is
            // data-independent), so compare for everything.
            let engine = ClusterConfig::default().engine_with(&store);
            let cell = format!("{}/{}", tq.id, approach.label());
            let plan = match approach.plan(&tq.query, &engine) {
                Ok(plan) => plan,
                Err(e) => {
                    // Only Sel-SJ-first declines, and only queries that do
                    // not have two stars; `run_query` says the same.
                    assert_eq!(approach, Approach::SelSjFirst, "{cell}: {e}");
                    assert_ne!(tq.query.stars.len(), 2, "{cell}: {e}");
                    let run = run_query(approach, &engine, &tq.query, &tq.id, false);
                    assert_eq!(run.unwrap_err(), e, "{cell}");
                    continue;
                }
            };
            let text = ntga_core::explain_plan(&plan);
            let run = run_query(approach, &engine, &tq.query, &tq.id, false)
                .unwrap_or_else(|e| panic!("{cell}: {e}"));
            assert!(run.succeeded(), "{cell}: {:?}", run.stats.failure);
            assert_eq!(
                text.cycles.len() as u64,
                run.stats.mr_cycles,
                "{cell}: EXPLAIN promises {} cycles, execution did {}\n{text}",
                text.cycles.len(),
                run.stats.mr_cycles
            );
            let ran: Vec<&str> = run.stats.jobs.iter().map(|j| j.name.as_str()).collect();
            let label = format!("{}-{}", approach.label(), tq.id);
            assert_eq!(plan.job_names(&label), ran, "{cell}: the plan's jobs are the run's");
            // Every job carries the estimate its plan job carries: each job
            // of a cost-based plan one, no job of the other approaches any.
            let planned: Vec<Option<f64>> = plan
                .stages()
                .iter()
                .flatten()
                .map(|job| job.estimate.as_ref().map(|e| e.output_records))
                .collect();
            let tagged: Vec<Option<f64>> =
                run.stats.jobs.iter().map(|j| j.estimated_output_records).collect();
            assert_eq!(tagged, planned, "{cell}: jobs carry their plan job's estimate");
            let estimated = approach == Approach::NtgaAutoCost;
            assert!(tagged.iter().all(|e| e.is_some() == estimated), "{cell}: {tagged:?}");
            // EXPLAIN prints the same numbers, rounded, one per cycle (a
            // cost-based plan runs one job per cycle).
            let rounded: Vec<Option<u64>> =
                tagged.iter().map(|e| e.map(|records| records.round() as u64)).collect();
            let printed = if estimated { rounded } else { vec![None; text.cycles.len()] };
            assert_eq!(text.estimates, printed, "{cell}\n{text}");
            for (line, est) in text.to_string().lines().skip(1).zip(&printed) {
                let column = est.map(|n| format!(" (~{n} records)"));
                assert_eq!(line.ends_with(" records)"), est.is_some(), "{cell}: {line}");
                assert!(column.is_none_or(|c| line.ends_with(&c)), "{cell}: {line}");
            }
        }
    }
}

#[test]
fn explain_marks_unnest_decisions() {
    for tq in all_queries() {
        let text = explain_auto(&tq.query).to_string();
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
    let p1 = explain_auto(&b1.query).to_string();
    let p2 = explain_auto(&b2.query).to_string();
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
