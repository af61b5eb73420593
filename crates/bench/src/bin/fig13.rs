//! Figure 13 — Bio2RDF-like real-world unbound-property queries A1–A6
//! (80-node cluster in the paper).
//!
//! Paper shape: on A1 the relational result is ~63 K tuples versus ~7 K
//! eager triplegroups and ~3 K lazy ones; on A3 Pig/Hive materialize
//! 26 GB of star-join intermediates versus 1.3 GB for NTGA (32 % faster
//! than Hive, lazy another 18 % over eager); on A4 Pig fails, Hive writes
//! 152 GB versus 1.8 GB (eager) / 0.6 GB (lazy), 48–53 % faster; A5/A6
//! save a full-table scan (22 % / 48 % gains).

use ntga_bench::{report, run_panel, BenchOpts, Runner, Scale};

fn main() {
    let opts = BenchOpts::from_env();
    let scale = Scale::from_env();
    let store = datagen::bio2rdf::generate(&datagen::Bio2RdfConfig {
        genes: scale.entities(150),
        go_terms: scale.entities(60),
        references: scale.entities(150),
        max_xref: 64,
        max_xgo: 8,
        multi_fraction: 0.8,
        seed: 42,
    });
    let stats = store.stats();
    println!(
        "dataset: Bio2RDF-like, {} triples ({}); max xRef multiplicity {}",
        store.len(),
        report::human_bytes(store.text_bytes()),
        stats.per_property[&rdf_model::atom::atom(datagen::vocab::bio2rdf::X_REF)].max_multiplicity,
    );
    // 80-node cluster with enough disk for the lazily-unnested plans but
    // not for runaway relational intermediates.
    let mut cluster = ntga::ClusterConfig { nodes: 80, replication: 2, ..Default::default() }
        .tight_disk(&store, 12.7);
    cluster.cost = mrsim::CostModel::scaled_to(store.text_bytes());
    let cluster = opts.cluster(cluster);
    let queries: Vec<(String, rdf_query::Query)> =
        ntga::testbed::a_series().into_iter().map(|t| (t.id, t.query)).collect();
    let rows = run_panel(&cluster, &store, &queries, &opts.panel_or(Runner::paper_panel(1024)));
    report::print_table(
        "Figure 13: Bio2RDF A1-A6",
        "paper shape: NTGA writes orders of magnitude less; Pig fails A4; lazy < eager < Hive/Pig everywhere",
        &rows,
    );
    if opts.strategy.is_none() {
        for q in ["A1", "A3", "A4"] {
            let hive = report::stats_of(&rows, q, "Hive");
            let eager = report::stats_of(&rows, q, "EagerUnnest");
            let lazy = report::stats_of(&rows, q, "Lazy").total_write_bytes();
            let writes = |s: &mrsim::WorkflowStats| {
                if s.succeeded {
                    report::human_bytes(s.total_write_bytes())
                } else {
                    "FAILED".into()
                }
            };
            println!(
                "{q}: writes Hive={} Eager={} Lazy={}  (lazy {:.0}% less than Hive)",
                writes(hive),
                writes(eager),
                report::human_bytes(lazy),
                report::pct_less(hive.total_write_bytes(), lazy),
            );
        }
    }
    opts.write_profile(&cluster, &store, &queries);
    opts.finish(&rows);
}
