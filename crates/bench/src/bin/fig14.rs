//! Figure 14 — DBpedia-Infobox-like (5-node cluster) and BTC-09-like
//! (40-node cluster) exploration queries C1–C4.
//!
//! Paper shape: on the small DBInfobox data the simple C1/C2 show little
//! NTGA benefit (and Pig beats Hive thanks to its doubled mappers /
//! overlapped startup); C3 gains 20–22 % over Hive and ~50 % over Pig
//! with ~80 % fewer writes; C4 (unbound in both stars, redundancy factor
//! ≈ 0.89–0.98) gains ~50 % over both. On BTC the scan-sharing saves 50 %
//! of reads and lazy unnesting writes 98 % less on C4.

use ntga_bench::{report, run_panel, BenchOpts, Runner, Scale};
use ntga_core::metrics;

fn run_dataset(
    opts: &BenchOpts,
    name: &str,
    store: &rdf_model::TripleStore,
    nodes: u32,
    note: &str,
) -> Vec<report::Row> {
    let stats = store.stats();
    println!(
        "\ndataset: {name}, {} triples ({}); {:.0}% of {} properties multi-valued",
        store.len(),
        report::human_bytes(store.text_bytes()),
        stats.multi_valued_fraction * 100.0,
        stats.distinct_properties,
    );
    let mut cluster = ntga::ClusterConfig { nodes, replication: 2, ..Default::default() };
    cluster.cost = mrsim::CostModel::scaled_to(store.text_bytes());
    let cluster = opts.cluster(cluster);
    let queries: Vec<(String, rdf_query::Query)> =
        ntga::testbed::c_series().into_iter().map(|t| (t.id, t.query)).collect();
    let rows = run_panel(&cluster, store, &queries, &opts.panel_or(Runner::paper_panel(1024)));
    report::print_table(&format!("Figure 14 ({name}): C1-C4"), note, &rows);
    if opts.strategy.is_none() {
        for q in ["C3", "C4"] {
            let hive = report::stats_of(&rows, q, "Hive");
            let pig = report::stats_of(&rows, q, "Pig");
            let lazy = report::stats_of(&rows, q, "Lazy");
            println!(
                "{q}: lazy writes {:.0}% less than Hive; sim time {:.0}s vs Hive {:.0}s / Pig {:.0}s",
                report::pct_less(hive.total_write_bytes(), lazy.total_write_bytes()),
                lazy.sim_seconds,
                hive.sim_seconds,
                pig.sim_seconds,
            );
        }
    }
    rows
}

fn main() {
    let opts = BenchOpts::from_env();
    let scale = Scale::from_env();
    let dbp =
        datagen::dbpedia::generate(&datagen::DbpediaConfig::with_entities(scale.entities(250)));
    let mut rows = run_dataset(
        &opts,
        "DBInfobox-like",
        &dbp,
        5,
        "paper shape: little NTGA benefit on C1/C2 (small data); 20-50% gains and ~80% fewer writes on C3/C4",
    );
    let btc = datagen::dbpedia::generate(&datagen::DbpediaConfig::btc_like(scale.entities(500)));
    rows.extend(run_dataset(
        &opts,
        "BTC-09-like",
        &btc,
        40,
        "paper shape: scan sharing halves reads; lazy unnesting writes up to 98% less on C4",
    ));

    // Redundancy factors of the star-join intermediates (paper: >0.6 for
    // all four queries, ~0.89-0.93 for C4).
    let engine = ntga::ClusterConfig::default().engine_with(&dbp);
    let c4 = ntga::testbed::c_series().into_iter().find(|t| t.id == "C4").unwrap();
    let job1 = ntga_core::physical::group_filter_job(
        "c4-group",
        &c4.query,
        mr_rdf::TRIPLES_FILE,
        vec!["rf.ec0".into(), "rf.ec1".into()],
        vec![false; 2],
    )
    .expect("one output and one placement per star");
    engine.run_job(&job1).expect("group cycle");
    let mut tgs = Vec::new();
    for file in ["rf.ec0", "rf.ec1"] {
        let tuples: Vec<ntga_core::TgTuple> = engine.read_records(file).expect("ec file");
        tgs.extend(tuples.into_iter().flat_map(|t| t.0));
    }
    println!(
        "\nC4 star-join redundancy factor on DBInfobox-like data: {:.2} (paper: ~0.89)",
        metrics::tg_redundancy(&tgs)
    );
    let queries: Vec<(String, rdf_query::Query)> =
        ntga::testbed::c_series().into_iter().map(|t| (t.id, t.query)).collect();
    let cluster = opts.cluster(ntga::ClusterConfig {
        nodes: 5,
        replication: 2,
        cost: mrsim::CostModel::scaled_to(dbp.text_bytes()),
        ..Default::default()
    });
    opts.write_profile(&cluster, &dbp, &queries);
    opts.finish(&rows);
}
