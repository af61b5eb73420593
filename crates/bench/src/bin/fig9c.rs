//! Figure 9(c) — execution times with a growing number of bound-property
//! patterns (B1-3bnd … B1-6bnd).
//!
//! Paper shape: Pig fails beyond three bound patterns; LazyUnnest (φ_1K)
//! consistently wins, about 25 % faster than Hive; NTGA times stay nearly
//! flat as bound arity grows while relational times grow.

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
    // Moderate disk pressure: relational intermediates for wide unbound
    // stars blow past it, lazy stays inside.
    let mut cluster =
        ntga::ClusterConfig { replication: 1, ..Default::default() }.tight_disk(&store, 36.0);
    cluster.cost = mrsim::CostModel::scaled_to(store.text_bytes());
    let cluster = opts.cluster(cluster);
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
        "Figure 9(c): execution times, varying bound-property count",
        "paper shape: Pig fails beyond 3 bound patterns (here: beyond 4 — our Pig/Hive footprints differ\nless than the real systems'); NTGA untroubled and ~flat as bound arity grows",
        &rows,
    );
    if opts.strategy.is_none() {
        for k in 3..=6 {
            let q = format!("B1-{k}bnd");
            let hive = report::stats_of(&rows, &q, "Hive");
            let lazy = report::stats_of(&rows, &q, "Lazy");
            if hive.succeeded && lazy.succeeded {
                println!(
                    "{q}: LazyUnnest {:.0}s vs Hive {:.0}s ({:.0}% faster)",
                    lazy.sim_seconds,
                    hive.sim_seconds,
                    (1.0 - lazy.sim_seconds / hive.sim_seconds) * 100.0
                );
            }
        }
    }
    opts.write_profile(&cluster, &store, &queries);
    opts.finish(&rows);
}
