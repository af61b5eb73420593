//! Plan fingerprints: for every testbed catalog query under every
//! approach, the workflow the driver assembles — its name, cycle and scan
//! counts, and per job the name, reducer count, output cardinality, DFS
//! write bytes, shuffle bytes and simulated seconds (bit pattern) — must
//! equal the table recorded in `tests/fixtures/plan_fingerprints.tsv`.
//!
//! Fault and corruption draws are salted by workflow, job and file names,
//! and the wall-clock ledger maps job-name suffixes to layers, so a driver
//! refactor that renames or reorders anything shows up here first. The
//! fixture was recorded before the four NTGA executors were collapsed into
//! one, and held byte-identical when Pig and Hive became `PhysicalPlan`s run
//! by that same driver; on mismatch the test prints the freshly computed
//! table. Sel-SJ-first, which plans two-star queries only, is not in the
//! table; `tests/explain_catalog.rs` checks its jobs against its plans.

mod common;

use ntga::prelude::*;
use std::fmt::Write as _;

const FIXTURE: &str = include_str!("fixtures/plan_fingerprints.tsv");

const HEADER: &str = "# query\tapproach\tworkflow\tmr_cycles\tfull_scans\tjob\treduce_tasks\t\
                      output_records\thdfs_write_bytes\tshuffle_bytes\tsim_seconds_bits\n";

fn approaches() -> [Approach; 7] {
    [
        Approach::NtgaEager,
        Approach::NtgaLazyFull,
        Approach::NtgaLazyPartial(64),
        Approach::NtgaAuto(64),
        Approach::NtgaAutoCost,
        Approach::Pig,
        Approach::Hive,
    ]
}

fn fingerprint_table() -> String {
    let mut bsbm_queries = testbed::case_study();
    bsbm_queries.extend(testbed::b_series());
    bsbm_queries.extend((3..=6).map(testbed::b1_varying_bound));
    let suites = [
        (common::bsbm(), bsbm_queries),
        (common::bio(), testbed::a_series()),
        (common::dbp(), testbed::c_series()),
    ];
    let mut table = String::from(HEADER);
    for (store, queries) in &suites {
        for tq in queries {
            for approach in approaches() {
                let engine = ClusterConfig::default().engine_with(store);
                let run = run_query(approach, &engine, &tq.query, &tq.id, false)
                    .unwrap_or_else(|e| panic!("{}/{approach:?}: {e}", tq.id));
                assert!(run.succeeded(), "{}/{approach:?}: {:?}", tq.id, run.stats.failure);
                for job in &run.stats.jobs {
                    writeln!(
                        table,
                        "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:016x}",
                        tq.id,
                        approach.label(),
                        run.stats.label,
                        run.stats.mr_cycles,
                        run.stats.full_scans,
                        job.name,
                        job.reduce_tasks,
                        job.output_records,
                        job.hdfs_write_bytes,
                        job.shuffle_bytes(),
                        job.sim_seconds.to_bits(),
                    )
                    .expect("write to string");
                }
            }
        }
    }
    table
}

#[test]
fn driver_reproduces_recorded_plan_fingerprints() {
    let fresh = fingerprint_table();
    if fresh != FIXTURE {
        println!("---- fresh plan fingerprints ----\n{fresh}---- end ----");
        let line = fresh.lines().zip(FIXTURE.lines()).position(|(a, b)| a != b);
        panic!(
            "plan fingerprints diverge from tests/fixtures/plan_fingerprints.tsv \
             (first differing line: {:?}; fresh {} lines, fixture {} lines)",
            line.map(|l| l + 1),
            fresh.lines().count(),
            FIXTURE.lines().count(),
        );
    }
}
