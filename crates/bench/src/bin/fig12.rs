//! Figure 12 — BSBM-1M analog, replication 2: execution times for B0–B6.
//!
//! Paper shape: NTGA completes all queries with up to 80 % less HDFS
//! writes after the star-join phase (B1); Pig/Hive fail B3 and B4 (and
//! the more complex B5/B6); on B2 LazyUnnest is ~75 % faster than
//! Pig/Hive; LazyUnnest improves on EagerUnnest by ~54 % (B3) and
//! ~65 % (B4).

use ntga_bench::{report, run_panel, BenchOpts, Runner, Scale};

fn main() {
    let opts = BenchOpts::from_env();
    let scale = Scale::from_env();
    // Half the fig9 scale: the paper's BSBM-1M (85 GB) vs BSBM-2M (172 GB).
    let store = datagen::bsbm::generate(&datagen::BsbmConfig {
        products: scale.entities(75),
        features: 40,
        max_features_per_product: 16,
        ..Default::default()
    });
    let mut cluster =
        ntga::ClusterConfig { replication: 2, ..Default::default() }.tight_disk(&store, 20.0);
    cluster.cost = mrsim::CostModel::scaled_to(store.text_bytes());
    let cluster = opts.cluster(cluster);
    println!(
        "dataset: BSBM-1M analog, {} triples ({}); replication 2, disk budget {}",
        store.len(),
        report::human_bytes(store.text_bytes()),
        report::human_bytes(cluster.disk_per_node * u64::from(cluster.nodes)),
    );
    let queries: Vec<(String, rdf_query::Query)> =
        ntga::testbed::b_series().into_iter().map(|t| (t.id, t.query)).collect();
    let rows = run_panel(&cluster, &store, &queries, &opts.panel_or(Runner::paper_panel(1024)));
    report::print_table(
        "Figure 12: BSBM-1M analog, replication 2 — B0-B6",
        "paper shape: NTGA completes everything; Pig/Hive fail B3/B4 and the complex B5/B6; lazy beats eager",
        &rows,
    );
    if opts.strategy.is_none() {
        let b1_hive = report::stats_of(&rows, "B1", "Hive");
        let b1_lazy = report::stats_of(&rows, "B1", "Lazy");
        if b1_hive.succeeded {
            println!(
                "B1: LazyUnnest intermediate writes {:.0}% less than Hive (paper: ~80%)",
                report::pct_less(
                    b1_hive.intermediate_write_bytes(),
                    b1_lazy.intermediate_write_bytes()
                )
            );
        }
    }
    opts.write_profile(&cluster, &store, &queries);
    opts.finish(&rows);
}
