//! Figure 9(a) — BSBM-2M analog on a disk-constrained cluster,
//! replication factor 2: execution outcomes for B0–B4.
//!
//! Paper shape: Pig and Hive FAIL (disk full) for all five queries;
//! EagerUnnest completes B0–B2 but fails B3 (double unbound) and B4;
//! LazyUnnest completes everything.

use ntga_bench::{report, run_panel, BenchOpts, Runner, Scale};

fn main() {
    let opts = BenchOpts::from_env();
    let scale = Scale::from_env();
    let store = datagen::bsbm::generate(&datagen::BsbmConfig {
        products: scale.entities(150),
        features: 40,
        max_features_per_product: 16,
        ..Default::default()
    });
    // The paper's 60-node cluster had 20 GB/node against a 172 GB dataset
    // at replication 2 — single-digit headroom over the replicated input.
    // 6.5× reproduces the failure pattern: every approach whose
    // intermediates carry unbound-match redundancy dies.
    let mut cluster =
        ntga::ClusterConfig { replication: 2, ..Default::default() }.tight_disk(&store, 6.5);
    cluster.cost = mrsim::CostModel::scaled_to(store.text_bytes());
    let cluster = opts.cluster(cluster);
    println!(
        "dataset: BSBM-2M analog, {} triples ({}); disk budget {} (replication 2)",
        store.len(),
        report::human_bytes(store.text_bytes()),
        report::human_bytes(cluster.disk_per_node * u64::from(cluster.nodes)),
    );
    let queries: Vec<(String, rdf_query::Query)> = ntga::testbed::b_series()
        .into_iter()
        .filter(|t| ["B0", "B1", "B2", "B3", "B4"].contains(&t.id.as_str()))
        .map(|t| (t.id, t.query))
        .collect();
    let rows = run_panel(&cluster, &store, &queries, &opts.panel_or(Runner::paper_panel(1024)));
    report::print_table(
        "Figure 9(a): BSBM-2M, replication 2, constrained disk — failures marked X",
        "paper shape: Pig/Hive fail the unbound queries; EagerUnnest fails B3,B4; LazyUnnest completes all\n(deviation: our B0/B2 relational footprints are milder than BSBM's, so they fit; see EXPERIMENTS.md)",
        &rows,
    );
    let failures: Vec<String> =
        rows.iter().filter(|r| !r.ok()).map(|r| format!("{}/{}", r.query, r.approach)).collect();
    println!("failed executions: {}", failures.join(", "));
    if opts.strategy.is_none() {
        let lazy_ok = rows.iter().filter(|r| r.approach.contains("Lazy")).all(|r| r.ok());
        println!("LazyUnnest completed all queries: {lazy_ok}");
    }
    opts.write_profile(&cluster, &store, &queries);
    opts.finish(&rows);
}
