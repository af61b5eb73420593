//! Figure 10 — total HDFS writes with a growing number of bound-property
//! patterns (B1-3bnd … B1-6bnd).
//!
//! Paper shape: relational writes grow with bound arity (the flat n-tuple
//! repeats the whole bound component per unbound match — "10 combinations
//! of the bound component"); NTGA's reduce output stays almost constant;
//! LazyUnnest writes ~80–86 % less than Hive/Pig.

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
    // Unbounded disk: measure every approach to completion.
    let cluster = opts.cluster(ntga::ClusterConfig {
        cost: mrsim::CostModel::scaled_to(store.text_bytes()),
        ..Default::default()
    });
    println!(
        "dataset: BSBM-2M analog, {} triples ({})",
        store.len(),
        report::human_bytes(store.text_bytes()),
    );
    let queries: Vec<(String, rdf_query::Query)> = (3..=6)
        .map(|k| {
            let t = ntga::testbed::b1_varying_bound(k);
            (t.id, t.query)
        })
        .collect();
    let rows = run_panel(&cluster, &store, &queries, &opts.panel_or(Runner::paper_panel(1024)));
    report::print_table(
        "Figure 10: total HDFS writes, varying bound-property count",
        "paper shape: LazyUnnest 80-86% less writes than Hive/Pig; NTGA writes ~flat in bound arity",
        &rows,
    );
    if opts.strategy.is_none() {
        let mut lazy_writes = Vec::new();
        for k in 3..=6 {
            let q = format!("B1-{k}bnd");
            let hive = report::stats_of(&rows, &q, "Hive").total_write_bytes();
            let lazy = report::stats_of(&rows, &q, "Lazy").total_write_bytes();
            lazy_writes.push(lazy);
            println!(
                "{q}: LazyUnnest writes {:.0}% less than Hive ({} vs {})",
                report::pct_less(hive, lazy),
                report::human_bytes(lazy),
                report::human_bytes(hive),
            );
        }
        let growth = *lazy_writes.last().unwrap() as f64 / lazy_writes[0] as f64;
        println!(
            "LazyUnnest write growth from 3 to 6 bound patterns: {growth:.2}x (paper: ~constant)"
        );
    }
    opts.write_profile(&cluster, &store, &queries);
    opts.finish(&rows);
}
