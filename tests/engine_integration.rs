//! Cross-crate engine integration: conservation laws over full testbed
//! workflows, and query-level fault injection.

use ntga::prelude::*;

#[test]
fn counter_conservation_across_testbed_workflows() {
    // For every job of every approach on a two-star query: the counter
    // laws of `check_invariants` hold, and every job's read bytes are
    // covered by files that existed (input or an earlier job's output).
    let store = datagen::bsbm::generate(&datagen::BsbmConfig::with_products(25));
    let b1 = ntga::testbed::b_series().remove(1);
    for approach in [
        Approach::Pig,
        Approach::Hive,
        Approach::NtgaEager,
        Approach::NtgaLazyFull,
        Approach::NtgaLazyPartial(32),
    ] {
        let engine = ClusterConfig::default().engine_with(&store);
        let run = run_query(approach, &engine, &b1.query, "cons", false).unwrap();
        assert!(run.succeeded());
        assert_eq!(run.stats.check_invariants(), Ok(()), "{approach:?}");
        let mut produced_text: u64 = store.text_bytes();
        for job in &run.stats.jobs {
            assert!(
                job.hdfs_read_bytes <= produced_text * 2 + store.text_bytes(),
                "{approach:?}/{}: read more than ever produced",
                job.name
            );
            produced_text += job.output_text_bytes;
        }
        // Workflow aggregates match per-job sums.
        let sum_writes: u64 = run.stats.jobs.iter().map(|j| j.hdfs_write_bytes).sum();
        assert_eq!(sum_writes, run.stats.total_write_bytes());
    }
}

#[test]
fn query_results_survive_task_failures() {
    // Fault tolerance end-to-end: inject task failures into a whole NTGA
    // query workflow; retried tasks must reproduce byte-identical results.
    let store = datagen::bio2rdf::generate(&datagen::Bio2RdfConfig::with_genes(30));
    let a6 = ntga::testbed::a_series().remove(5);
    let gold = rdf_query::naive::evaluate(&a6.query, &store);
    assert!(!gold.is_empty());

    let clean_engine = ClusterConfig::default().engine_with(&store);
    let clean = run_query(Approach::NtgaAuto(64), &clean_engine, &a6.query, "f", true).unwrap();
    assert_eq!(clean.solutions.as_ref().unwrap(), &gold);
    let clean_retries: u64 = clean.stats.jobs.iter().map(|j| j.task_retries).sum();
    assert_eq!(clean_retries, 0);

    let faulty_engine = ClusterConfig::default()
        .with_faults(mrsim::FaultConfig::with_probability(0.4, 21))
        .engine_with(&store);
    let faulty = run_query(Approach::NtgaAuto(64), &faulty_engine, &a6.query, "f", true).unwrap();
    assert!(faulty.succeeded(), "{:?}", faulty.stats.failure);
    let retries: u64 = faulty.stats.jobs.iter().map(|j| j.task_retries).sum();
    assert!(retries > 0, "p=0.4 should have forced retries");
    assert_eq!(faulty.solutions.unwrap(), gold, "faults changed the results");
    // Byte counters unchanged: failed attempts ship nothing.
    assert_eq!(clean.stats.total_write_bytes(), faulty.stats.total_write_bytes());
}

#[test]
fn selectivity_estimates_order_testbed_stars_sensibly() {
    // The estimator must rank B2's filtered star as more selective than
    // B1's unfiltered one, and bound-only stars below unbound ones on row
    // cardinality.
    let store = datagen::bsbm::generate(&datagen::BsbmConfig::with_products(60));
    let stats = store.stats();
    let b1 = ntga::testbed::b_series().remove(1).query;
    let b2 = ntga::testbed::b_series().remove(2).query;
    let b1_rows = rdf_query::estimate::star_row_cardinality(&b1.stars[0], &stats);
    let b2_rows = rdf_query::estimate::star_row_cardinality(&b2.stars[0], &stats);
    assert!(
        b2_rows < b1_rows,
        "partially-bound B2 star ({b2_rows}) must estimate below B1 ({b1_rows})"
    );
    // Estimates are in a sane relationship with reality: B1's star rows
    // are within 10x of the actual relational star-join output.
    let engine = ClusterConfig::default().engine_with(&store);
    let run = run_query(Approach::Hive, &engine, &b1, "est", false).unwrap();
    let actual_star_rows = run.stats.jobs[0].output_records as f64;
    assert!(
        b1_rows / actual_star_rows < 20.0 && actual_star_rows / b1_rows < 20.0,
        "estimate {b1_rows} vs actual {actual_star_rows} (off by more than 20x)"
    );
}

#[test]
fn analyze_in_place_is_the_stores_own_statistics() {
    // The cost-based planner's ANALYZE reads the encoded relation where it
    // lies; it must see exactly what decoding it into a store would — every
    // count and both floats — on each generator's output and on nothing.
    let stores = [
        datagen::bsbm::generate(&datagen::BsbmConfig::with_products(40)),
        datagen::bio2rdf::generate(&datagen::Bio2RdfConfig::with_genes(60)),
        datagen::dbpedia::generate(&datagen::DbpediaConfig::with_entities(60)),
        TripleStore::new(),
    ];
    for store in stores {
        let engine = ClusterConfig::default().engine_with(&store);
        let analyzed = mr_rdf::analyze(&engine, mr_rdf::TRIPLES_FILE).unwrap();
        let decoded = mr_rdf::read_store(&engine, mr_rdf::TRIPLES_FILE).unwrap().stats();
        assert_eq!(analyzed, decoded);
        assert_eq!(analyzed, store.stats());
        assert_eq!(analyzed.triples, store.len() as u64);
    }
}
