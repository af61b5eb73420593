//! Figure 9(b) — BSBM-2M analog, replication factor 1 (ample disk):
//! execution times for B0–B4.
//!
//! Paper shape: Hive/Pig still fail B3 and B4; on B0 Hive ≈ NTGA > Pig
//! (scan sharing); on B1 lazy partial unnesting is ~21 % faster than
//! eager and ~26-27 % faster than Pig/Hive; B2's object filter makes all
//! approaches behave like B0; on B3/B4 LazyUnnest massively reduces
//! writes (80 %+ less than eager on B3, 61 % less on B4).

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
    // Replication 1: disk is still the paper's 1.2 TB total, which the
    // relational B3/B4 intermediate explosions exceed anyway. 25×
    // headroom: enough for everything except those explosions.
    let mut cluster =
        ntga::ClusterConfig { replication: 1, ..Default::default() }.tight_disk(&store, 25.0);
    cluster.cost = mrsim::CostModel::scaled_to(store.text_bytes());
    let cluster = opts.cluster(cluster);
    println!(
        "dataset: BSBM-2M analog, {} triples ({}); replication 1",
        store.len(),
        report::human_bytes(store.text_bytes()),
    );
    let queries: Vec<(String, rdf_query::Query)> = ntga::testbed::b_series()
        .into_iter()
        .filter(|t| ["B0", "B1", "B2", "B3", "B4"].contains(&t.id.as_str()))
        .map(|t| (t.id, t.query))
        .collect();
    let rows = run_panel(&cluster, &store, &queries, &opts.panel_or(Runner::paper_panel(1024)));
    report::print_table(
        "Figure 9(b): BSBM-2M, replication 1 — execution times",
        "paper shape: NTGA fastest everywhere; Pig/Hive still fail B3/B4; lazy beats eager on B1/B3/B4",
        &rows,
    );
    if opts.strategy.is_none() {
        for q in ["B1", "B3", "B4"] {
            let lazy = report::stats_of(&rows, q, "Lazy");
            let eager = report::stats_of(&rows, q, "EagerUnnest");
            if eager.succeeded && lazy.succeeded {
                println!(
                    "{q}: LazyUnnest writes {:.0}% less HDFS than EagerUnnest (paper: 80% on B3, 61% on B4), sim time {:.0}s vs {:.0}s",
                    report::pct_less(eager.total_write_bytes(), lazy.total_write_bytes()),
                    lazy.sim_seconds,
                    eager.sim_seconds,
                );
            }
        }
    }
    opts.write_profile(&cluster, &store, &queries);
    opts.finish(&rows);
}
