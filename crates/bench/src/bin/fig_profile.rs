//! Profiler exhibit — EXPLAIN ANALYZE on the cost-based optimizer.
//!
//! Not a figure of the paper: the acceptance exhibit for the workflow
//! profiler. For each B-series query it runs every hand-picked strategy,
//! then the cost-based plan, joins the plan against the measured run with
//! `explain_analyze`, prints the annotated plan-vs-actual tree, and asserts
//! in-process that
//!
//! * the workflow's simulated seconds reconcile with the per-job `JobStats`
//!   totals to 1e-6 (operator rows and `max_q_error` read the same
//!   `WorkflowStats`, so they agree by construction);
//! * the optimizer's chosen plan matches or beats the best hand-picked
//!   strategy (columns `est(s)`/`actual(s)` make the comparison visible);
//! * two analyzed runs of the same plan serialize byte-identically.

use ntga_bench::{profile_queries, report, BenchOpts, Scale};
use ntga_core::Strategy;

const HAND_PICKED: [Strategy; 4] =
    [Strategy::Eager, Strategy::LazyFull, Strategy::LazyPartial(1024), Strategy::Auto(1024)];

fn main() {
    let opts = BenchOpts::from_env();
    let scale = Scale::from_env();
    let store = datagen::bsbm::generate(&datagen::BsbmConfig {
        products: scale.entities(60),
        features: 40,
        max_features_per_product: 12,
        ..Default::default()
    });
    let queries: Vec<(String, rdf_query::Query)> =
        ntga::testbed::b_series().into_iter().map(|t| (t.id, t.query)).collect();
    let cluster = opts.cluster(ntga::ClusterConfig {
        cost: mrsim::CostModel::scaled_to(store.text_bytes()),
        ..Default::default()
    });
    println!(
        "dataset: BSBM-like, {} triples ({}); {} queries",
        store.len(),
        report::human_bytes(store.text_bytes()),
        queries.len(),
    );

    // Hand-picked panel, for the best-strategy baseline per query.
    let mut rows = Vec::new();
    let mut best: Vec<(String, f64, String)> = Vec::new();
    for (qid, query) in &queries {
        let mut cell: Option<(f64, String)> = None;
        for strategy in HAND_PICKED {
            let engine = cluster.engine_with(&store);
            let label = format!("{qid}-{}", strategy.label());
            let input = mr_rdf::TRIPLES_FILE;
            let run = strategy
                .plan(query)
                .and_then(|plan| ntga_core::execute_plan(&plan, &engine, input, &label, false))
                .unwrap_or_else(|e| panic!("{label}: planning failed: {e}"));
            assert!(run.succeeded(), "{label}: hand-picked run failed");
            let t = run.stats.sim_seconds;
            if cell.as_ref().is_none_or(|(b, _)| t < *b) {
                cell = Some((t, strategy.label()));
            }
            rows.push(report::Row::from_run(qid, &strategy.label(), &run));
        }
        let (t, label) = cell.expect("hand-picked panel is non-empty");
        best.push((qid.clone(), t, label));
    }

    // The optimizer's plan, analyzed: one EXPLAIN ANALYZE tree per query.
    let profile = || profile_queries(&cluster, &store, &queries).unwrap_or_else(|e| panic!("{e}"));
    let (profiles, again) = (profile(), profile());
    for ((profile, rerun), (qid, best_t, best_label)) in profiles.iter().zip(&again).zip(&best) {
        print!("\n{}", profile.render());
        let actual = profile.stats.sim_seconds;
        // Actual seconds reconcile with the per-job JobStats totals.
        let op_seconds: f64 = profile.stats.jobs.iter().map(|j| j.sim_seconds).sum();
        assert!(
            (op_seconds - actual).abs() <= 1e-6 * actual.max(1.0),
            "{qid}: per-operator seconds {op_seconds} must reconcile with the workflow total {actual}"
        );
        // Deterministic: a second analyzed run serializes byte-identically.
        assert_eq!(
            profile.to_json(),
            rerun.to_json(),
            "{qid}: repeated analyzed runs must serialize identically"
        );
        // The chosen plan matches or beats the best hand-picked strategy.
        assert!(
            actual <= best_t + 1e-9,
            "{qid}: cost plan took {actual:.3}s but {best_label} took {best_t:.3}s",
        );
        println!(
            "{qid}: CostBased {actual:.1}s (estimated {:.1}s, q-error {}) vs best hand-picked \
             {best_label} {best_t:.1}s",
            profile.estimated_total_seconds,
            profile.stats.max_q_error().map_or("-".into(), |q| format!("{q:.2}")),
        );
    }
    println!(
        "\nall {} profiles: plan-vs-actual q-errors consistent, seconds reconciled to 1e-6, \
         serialization deterministic",
        profiles.len(),
    );
    report::print_table(
        "Profiler exhibit: hand-picked baselines (CostBased trees above)",
        "the EXPLAIN ANALYZE trees show the optimizer's est-vs-actual per operator",
        &rows,
    );
    opts.finish(&cluster, &store, &queries, &rows).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
}
