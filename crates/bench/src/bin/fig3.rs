//! Figure 3 — case study: groupings of star-joins on bound-property
//! two-star queries (BSBM).
//!
//! Paper's table: SJ-per-cycle needs 3 MR cycles (2 full scans);
//! Sel-SJ-first needs 2 cycles / 2 full scans for object-subject joins
//! (Q1*, Q2*) but 3 cycles / 3 full scans for object-object joins (Q3*);
//! NTGA needs 2 cycles with a single full scan and wins everywhere.

use ntga_bench::{report, run_panel, BenchOpts, Runner, Scale};
use ntga_core::Strategy;
use relbase::Grouping;

fn main() {
    let opts = BenchOpts::from_env();
    let scale = Scale::from_env();
    let store = datagen::bsbm::generate(&datagen::BsbmConfig::with_products(scale.entities(120)));
    println!(
        "dataset: BSBM-like, {} triples ({})",
        store.len(),
        report::human_bytes(store.text_bytes())
    );
    let queries: Vec<(String, rdf_query::Query)> =
        ntga::testbed::case_study().into_iter().map(|t| (t.id, t.query)).collect();
    let runners = opts.panel_or(vec![
        Runner::Grouping(Grouping::SjPerCycle),
        Runner::Grouping(Grouping::SelSjFirst),
        Runner::Ntga(Strategy::Auto(1024)),
    ]);
    let cluster = opts.cluster(ntga::ClusterConfig {
        cost: mrsim::CostModel::scaled_to(store.text_bytes()),
        ..Default::default()
    });
    let rows = run_panel(&cluster, &store, &queries, &runners);
    report::print_table(
        "Figure 3: groupings of star-joins (MR = cycles, FS = full scans)",
        "paper shape: SJ-per-cycle 3MR/2FS; Sel-SJ-first 2MR/2FS (OS: Q1,Q2) or 3MR/3FS (OO: Q3); NTGA 2MR/1FS",
        &rows,
    );

    // Shape assertions printed for EXPERIMENTS.md.
    for &q in if opts.strategy.is_none() { ["Q1a", "Q2a", "Q3a"].as_slice() } else { &[] } {
        let sj = report::stats_of(&rows, q, "SJ-per-cycle");
        let sel = report::stats_of(&rows, q, "Sel-SJ-first");
        let ntga = report::stats_of(&rows, q, "Lazy");
        println!(
            "{q}: MR/FS  SJ-per-cycle={}/{}  Sel-SJ-first={}/{}  NTGA={}/{}   NTGA reads {:.0}% less than SJ-per-cycle",
            sj.mr_cycles, sj.full_scans, sel.mr_cycles, sel.full_scans,
            ntga.mr_cycles, ntga.full_scans,
            report::pct_less(sj.total_read_bytes(), ntga.total_read_bytes())
        );
    }
    opts.write_profile(&cluster, &store, &queries);
    opts.finish(&rows);
}
