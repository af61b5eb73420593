//! Optimizer exhibit — cost-based plan selection versus every hand-picked
//! strategy, on every fig workload.
//!
//! Not a figure of the paper: the acceptance exhibit for the cost-based
//! optimizer (`ntga-cli --approach auto-cost`). For each testbed workload
//! (case study, B-series, B1 with varying bound arity, A-series, C-series)
//! and each query, it runs all hand-picked strategies plus the cost-based
//! optimizer, and asserts in-process that
//!
//! * the cost-based plan returns the same solutions as the hand-picked
//!   strategies;
//! * its simulated time matches or beats the best hand-picked strategy on
//!   every query (one cell each);
//! * a broadcast-join plan produces bit-identical output across worker
//!   counts {1, 4, 8} (rows with query id `bcast/w{N}`).
//!
//! The `CostBased` rows carry `max_q_error` — the worst per-job
//! cardinality estimation error behind the plan choice — and the
//! hand-picked rows, which plan without estimates, carry none.

use ntga_bench::{report, BenchOpts, Scale};
use ntga_core::{execute_plan, Strategy};
use rdf_model::TripleStore;
use rdf_query::SolutionSet;

const HAND_PICKED: [Strategy; 5] = [
    Strategy::Eager,
    Strategy::LazyFull,
    Strategy::LazyPartial(16),
    Strategy::LazyPartial(1024),
    Strategy::Auto(1024),
];

fn main() {
    let opts = BenchOpts::from_env();
    let scale = Scale::from_env();

    let bsbm = datagen::bsbm::generate(&datagen::BsbmConfig {
        products: scale.entities(60),
        features: 40,
        max_features_per_product: 12,
        ..Default::default()
    });
    let bio = datagen::bio2rdf::generate(&datagen::Bio2RdfConfig {
        genes: scale.entities(60),
        go_terms: scale.entities(24),
        references: scale.entities(60),
        max_xref: 16,
        max_xgo: 4,
        multi_fraction: 0.8,
        seed: 42,
    });
    let dbp =
        datagen::dbpedia::generate(&datagen::DbpediaConfig::with_entities(scale.entities(100)));

    let b1_varying: Vec<ntga::testbed::TestQuery> =
        (3..=6).map(ntga::testbed::b1_varying_bound).collect();
    let workloads: Vec<(&str, &TripleStore, Vec<ntga::testbed::TestQuery>)> = vec![
        ("case study (BSBM)", &bsbm, ntga::testbed::case_study()),
        ("B-series (BSBM)", &bsbm, ntga::testbed::b_series()),
        ("B1 varying bound (BSBM)", &bsbm, b1_varying),
        ("A-series (Bio2RDF)", &bio, ntga::testbed::a_series()),
        ("C-series (DBpedia)", &dbp, ntga::testbed::c_series()),
    ];

    let mut rows = Vec::new();
    let mut cells = 0usize;
    let mut wins = 0usize;
    let mut worst_q_error = 1.0f64;
    for (wl, store, queries) in workloads {
        let stats = store.stats();
        let cluster = opts.cluster(ntga::ClusterConfig {
            cost: mrsim::CostModel::scaled_to(store.text_bytes()),
            ..Default::default()
        });
        println!(
            "\nworkload: {wl} — {} triples ({}), {} queries",
            store.len(),
            report::human_bytes(store.text_bytes()),
            queries.len(),
        );
        let mut wl_rows = Vec::new();
        for tq in &queries {
            let qid = &tq.id;
            let mut best: Option<(f64, String)> = None;
            let mut reference: Option<SolutionSet> = None;
            for strategy in HAND_PICKED {
                let engine = cluster.engine_with(store);
                // Extract solutions once per cell (they agree across
                // strategies; the planner tests prove that).
                let extract = strategy == Strategy::Auto(1024);
                let label = format!("{qid}-{}", strategy.label());
                let input = mr_rdf::TRIPLES_FILE;
                let mut run = strategy
                    .plan(&tq.query)
                    .and_then(|plan| execute_plan(&plan, &engine, input, &label, extract))
                    .unwrap_or_else(|e| panic!("{label}: planning failed: {e}"));
                assert!(run.succeeded(), "{label}: hand-picked run failed");
                assert!(run.stats.max_q_error().is_none(), "{label}: no estimates, no q-error");
                if let Some(s) = run.solutions.take() {
                    reference = Some(s);
                }
                let t = run.stats.sim_seconds;
                if best.as_ref().is_none_or(|(b, _)| t < *b) {
                    best = Some((t, strategy.label()));
                }
                wl_rows.push(report::Row::from_run(qid, &strategy.label(), &run));
            }
            let (best_t, best_label) = best.expect("hand-picked panel is non-empty");

            let engine = cluster.engine_with(store);
            let label = format!("{qid}-CostBased");
            let config = ntga_core::OptimizerConfig::for_engine(&engine);
            let run = ntga_core::optimize(&tq.query, &stats, &engine.cost, &config)
                .and_then(|plan| execute_plan(&plan, &engine, mr_rdf::TRIPLES_FILE, &label, true))
                .unwrap_or_else(|e| panic!("{label}: planning failed: {e}"));
            assert!(run.succeeded(), "{label}: cost-based run failed");
            let q_error = run.stats.max_q_error();
            worst_q_error = worst_q_error.max(q_error.expect("CostBased rows carry max_q_error"));
            assert_eq!(
                run.solutions.as_ref(),
                reference.as_ref(),
                "{label}: cost-based plan must return the hand-picked answers"
            );
            assert!(
                run.stats.sim_seconds <= best_t + 1e-9,
                "{label}: cost plan took {:.3}s but {best_label} took {best_t:.3}s",
                run.stats.sim_seconds,
            );
            cells += 1;
            if run.stats.sim_seconds < best_t - 1e-9 {
                wins += 1;
            }
            wl_rows.push(report::Row::from_run(qid, "CostBased", &run));
        }
        report::print_table(
            &format!("Optimizer exhibit: {wl}"),
            "CostBased must match or beat the best hand-picked strategy in every cell",
            &wl_rows,
        );
        rows.extend(wl_rows);
    }
    println!(
        "cost-based plan matched-or-beat the best hand-picked strategy in {cells}/{cells} cells \
         (strictly faster in {wins}); worst cardinality q-error {worst_q_error:.2}"
    );

    rows.extend(broadcast_identity(&opts, &bsbm));
    let queries: Vec<(String, rdf_query::Query)> =
        ntga::testbed::b_series().into_iter().map(|t| (t.id, t.query)).collect();
    let cluster = opts.cluster(ntga::ClusterConfig {
        cost: mrsim::CostModel::scaled_to(bsbm.text_bytes()),
        ..Default::default()
    });
    opts.finish(&cluster, &bsbm, &queries, &rows).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
}

/// Broadcast-join determinism: plan once with an unbounded broadcast
/// budget (so the optimizer picks the map-side join), execute the same
/// plan at workers {1, 4, 8}, and require bit-identical output.
fn broadcast_identity(opts: &BenchOpts, store: &TripleStore) -> Vec<report::Row> {
    let tq = ntga::testbed::b_series()
        .into_iter()
        .find(|t| t.id == "B2")
        .expect("B2 is part of the B series");
    let stats = store.stats();
    let cost = mrsim::CostModel::scaled_to(store.text_bytes());
    let config = ntga_core::OptimizerConfig { broadcast_budget_bytes: u64::MAX };
    let plan = ntga_core::optimize(&tq.query, &stats, &cost, &config).expect("plan B2");
    assert!(
        plan.broadcast_cycles() > 0,
        "with an unbounded budget the optimizer must broadcast B2's selective side"
    );

    let mut rows = Vec::new();
    let mut baseline: Option<(u64, u64)> = None;
    for workers in [1usize, 4, 8] {
        let cluster = opts.cluster(ntga::ClusterConfig {
            cost: cost.clone(),
            broadcast_budget_bytes: u64::MAX,
            ..Default::default()
        });
        let engine = cluster.with_workers(workers).engine_with(store);
        let label = format!("bcast-w{workers}");
        let run = ntga_core::execute_plan(&plan, &engine, mr_rdf::TRIPLES_FILE, &label, false)
            .unwrap_or_else(|e| panic!("{label}: planning failed: {e}"));
        assert!(run.succeeded(), "{label}: broadcast run failed");
        assert!(
            run.stats.jobs.iter().any(|j| j.reduce_tasks == 0),
            "{label}: the broadcast cycle must run map-only"
        );
        let key = (run.stats.final_output_records(), run.stats.final_output_text_bytes());
        match baseline {
            None => baseline = Some(key),
            Some(expected) => assert_eq!(
                key, expected,
                "bcast/w{workers}: broadcast output must be bit-identical across worker counts"
            ),
        }
        rows.push(report::Row::from_run(&format!("bcast/w{workers}"), "CostBased", &run));
    }
    let (records, bytes) = baseline.unwrap();
    println!(
        "broadcast join: {} cells returned {records} records / {} at workers {{1,4,8}} — \
         bit-identical",
        rows.len(),
        report::human_bytes(bytes),
    );
    rows
}
