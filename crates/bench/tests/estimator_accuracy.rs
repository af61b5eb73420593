//! Estimator accuracy regression — the cardinality estimates that drive
//! cost-based plan selection must stay within a bounded q-error of the
//! truth on generated BSBM and Bio2RDF data.
//!
//! Truth comes from the naive reference evaluator: each star is evaluated
//! as a standalone query, giving the exact flat row count
//! (cross-product semantics, matching [`estimate::star_row_cardinality`])
//! and the exact distinct-subject count (matching
//! [`estimate::star_subject_cardinality`]). The q-error
//! `max(est/true, true/est)` is the standard symmetric metric: 1.0 is a
//! perfect estimate, and plan choice stays sane while it is bounded.
//!
//! The bounds are regression tripwires calibrated against the current
//! generators, not aspirations: if an estimator change pushes the worst
//! star past them, plan quality on the fig workloads is at risk (the
//! optimizer exhibit's margin is real but not unlimited).

use mrsim::q_error;
use rdf_model::TripleStore;
use rdf_query::{estimate, naive, Query};

/// Worst tolerated per-star q-error for subject-cardinality estimates.
/// The containment assumption under-counts subjects of filtered unbound
/// stars (observed worst ≈ 4.2 on Bio2RDF A1).
const MAX_SUBJECT_Q_ERROR: f64 = 6.0;

/// Worst tolerated per-star q-error for flat-row estimates. Rows compound
/// per-pattern multiplicity errors, and the naive truth counts triples
/// playing multiple roles (one triple matching a bound pattern AND the
/// unbound pattern) which the independence estimator cannot see, so the
/// bound is much looser (observed worst ≈ 45 on BSBM B3).
const MAX_ROW_Q_ERROR: f64 = 64.0;

/// Worst tolerated per-job q-error of an executed cost-based plan (the
/// estimate the optimizer priced vs the records the job actually wrote).
const MAX_PLAN_Q_ERROR: f64 = 64.0;

fn bsbm() -> TripleStore {
    datagen::bsbm::generate(&datagen::BsbmConfig {
        products: 60,
        features: 40,
        max_features_per_product: 12,
        ..Default::default()
    })
}

fn bio2rdf() -> TripleStore {
    datagen::bio2rdf::generate(&datagen::Bio2RdfConfig {
        genes: 60,
        go_terms: 24,
        references: 60,
        max_xref: 16,
        max_xgo: 4,
        multi_fraction: 0.8,
        seed: 42,
    })
}

/// Every star of every workload query, checked against the naive truth.
fn check_workload(name: &str, store: &TripleStore, queries: Vec<ntga::testbed::TestQuery>) {
    let stats = store.stats();
    let mut worst_subj = 1.0f64;
    let mut worst_rows = 1.0f64;
    for tq in queries {
        for (i, star) in tq.query.stars.iter().enumerate() {
            let solo = Query::new(vec![star.clone()]);
            let true_rows = naive::evaluate(&solo, store).len() as f64;
            let subjects = solo.with_projection(vec![star.subject_var.clone()]);
            let true_subjects = naive::evaluate(&subjects, store).len() as f64;

            let est_subjects = estimate::star_subject_cardinality(star, &stats);
            let est_rows = estimate::star_row_cardinality(star, &stats);

            let qe_subj = q_error(est_subjects, true_subjects);
            let qe_rows = q_error(est_rows, true_rows);
            assert!(
                qe_subj <= MAX_SUBJECT_Q_ERROR,
                "{name}/{}/star{i}: subject estimate {est_subjects:.1} vs true \
                 {true_subjects} — q-error {qe_subj:.2} exceeds {MAX_SUBJECT_Q_ERROR}",
                tq.id,
            );
            assert!(
                qe_rows <= MAX_ROW_Q_ERROR,
                "{name}/{}/star{i}: row estimate {est_rows:.1} vs true {true_rows} — \
                 q-error {qe_rows:.2} exceeds {MAX_ROW_Q_ERROR}",
                tq.id,
            );
            // Nested pairs sum per-pattern multiplicities where flat rows
            // multiply them; with every term clamped to ≥ 1 the sum is at
            // most n times the product, so pairs ≤ n·rows always — the
            // shape lazy pricing rests on.
            let est_pairs = estimate::star_pair_cardinality(star, &stats);
            let bound = est_rows * star.patterns.len() as f64;
            assert!(
                est_pairs <= bound + 1e-9,
                "{name}/{}/star{i}: pair estimate {est_pairs:.1} above {bound:.1} \
                 (rows {est_rows:.1} × {} patterns)",
                tq.id,
                star.patterns.len(),
            );
            worst_subj = worst_subj.max(qe_subj);
            worst_rows = worst_rows.max(qe_rows);
        }
    }
    println!("{name}: worst subject q-error {worst_subj:.2}, worst row q-error {worst_rows:.2}");
}

#[test]
fn star_estimates_track_naive_truth_on_bsbm() {
    let store = bsbm();
    let mut queries = ntga::testbed::case_study();
    queries.extend(ntga::testbed::b_series());
    check_workload("bsbm", &store, queries);
}

#[test]
fn star_estimates_track_naive_truth_on_bio2rdf() {
    let store = bio2rdf();
    check_workload("bio2rdf", &store, ntga::testbed::a_series());
}

/// End-to-end: executing the cost-based plan must report a bounded
/// per-job q-error (estimate the optimizer priced vs records the job
/// actually produced) and return exactly the naive evaluator's answers.
#[test]
fn executed_plans_report_bounded_q_error() {
    for (name, store, queries) in [
        ("bsbm", bsbm(), ntga::testbed::b_series()),
        ("bio2rdf", bio2rdf(), ntga::testbed::a_series()),
    ] {
        let stats = store.stats();
        let cluster = ntga::ClusterConfig {
            cost: mrsim::CostModel::scaled_to(store.text_bytes()),
            ..Default::default()
        };
        for tq in queries {
            let engine = cluster.engine_with(&store);
            let config = ntga_core::OptimizerConfig::for_engine(&engine);
            let label = format!("qerr-{name}-{}", tq.id);
            let run = ntga_core::optimize(&tq.query, &stats, &engine.cost, &config)
                .and_then(|plan| {
                    ntga_core::execute_plan(&plan, &engine, mr_rdf::TRIPLES_FILE, &label, true)
                })
                .unwrap_or_else(|e| panic!("{name}/{}: planning failed: {e}", tq.id));
            assert!(run.succeeded(), "{name}/{}: run failed", tq.id);
            assert_eq!(
                run.solutions.as_ref(),
                Some(&naive::evaluate(&tq.query, &store)),
                "{name}/{}: cost-based plan must return the naive answers",
                tq.id,
            );
            let qe = run
                .stats
                .max_q_error()
                .unwrap_or_else(|| panic!("{name}/{}: cost-based run must carry q-error", tq.id));
            assert!(
                qe <= MAX_PLAN_Q_ERROR,
                "{name}/{}: executed-plan q-error {qe:.2} exceeds {MAX_PLAN_Q_ERROR}",
                tq.id,
            );
        }
    }
}
