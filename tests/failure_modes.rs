//! Reproduction of the paper's failure mode: on a disk-constrained
//! cluster (the VCL nodes had 20 GB each; replication 2), the redundant
//! intermediate results of relational plans — and, for double-unbound
//! queries, even eager NTGA — exceed the disk budget and the executions
//! die (the `X` bars of Figures 9(a), 12 and 13). Lazy β-unnesting keeps
//! intermediates concise and completes.

use ntga::prelude::*;

fn bsbm() -> TripleStore {
    datagen::bsbm::generate(&datagen::BsbmConfig {
        products: 80,
        features: 30,
        max_features_per_product: 16,
        ..Default::default()
    })
}

/// Run one approach on a cluster whose total disk is `factor ×` the
/// replicated input size.
fn run_constrained(approach: Approach, query: &Query, factor: f64) -> QueryRun {
    let store = bsbm();
    let cfg = ClusterConfig { replication: 2, ..Default::default() }.tight_disk(&store, factor);
    let engine = cfg.engine_with(&store);
    run_query(approach, &engine, query, "fm", false).unwrap()
}

#[test]
fn relational_fails_where_lazy_succeeds_on_b3() {
    // B3: double unbound-property patterns in one star.
    let b3 = ntga::testbed::b_series().into_iter().find(|q| q.id == "B3").unwrap();
    // Wide enough for lazy (≈2.7× input) and for B1's eager, but not for
    // B3's eager double-unnest or the relational plans.
    let factor = 8.0;
    let pig = run_constrained(Approach::Pig, &b3.query, factor);
    let hive = run_constrained(Approach::Hive, &b3.query, factor);
    let eager = run_constrained(Approach::NtgaEager, &b3.query, factor);
    let lazy = run_constrained(Approach::NtgaAuto(64), &b3.query, factor);
    assert!(!pig.succeeded(), "Pig should exhaust disk on B3");
    assert!(!hive.succeeded(), "Hive should exhaust disk on B3");
    assert!(!eager.succeeded(), "EagerUnnest should exhaust disk on B3 (paper, Fig 9a)");
    assert!(lazy.succeeded(), "LazyUnnest must complete: {:?}", lazy.stats.failure);
    for failed in [&pig, &hive, &eager] {
        assert!(
            failed.stats.failure.as_deref().unwrap_or("").contains("full"),
            "failure must be DiskFull: {:?}",
            failed.stats.failure
        );
    }
}

#[test]
fn eager_survives_single_unbound_where_relational_fails() {
    // B1: single unbound pattern. The paper's Fig 9(a): Pig/Hive fail,
    // EagerUnnest succeeds (concise multi-valued representation), and so
    // does LazyUnnest.
    let b1 = ntga::testbed::b_series().into_iter().find(|q| q.id == "B1").unwrap();
    let factor = 8.0;
    let pig = run_constrained(Approach::Pig, &b1.query, factor);
    let eager = run_constrained(Approach::NtgaEager, &b1.query, factor);
    let lazy = run_constrained(Approach::NtgaAuto(64), &b1.query, factor);
    assert!(!pig.succeeded(), "Pig should exhaust disk on B1");
    assert!(eager.succeeded(), "EagerUnnest should survive B1: {:?}", eager.stats.failure);
    assert!(lazy.succeeded());
}

#[test]
fn everyone_succeeds_with_ample_disk() {
    let b3 = ntga::testbed::b_series().into_iter().find(|q| q.id == "B3").unwrap();
    for approach in [Approach::Pig, Approach::Hive, Approach::NtgaEager, Approach::NtgaAuto(64)] {
        let store = bsbm();
        let engine = ClusterConfig { replication: 2, ..Default::default() }.engine_with(&store);
        let run = run_query(approach, &engine, &b3.query, "ok", false).unwrap();
        assert!(run.succeeded(), "{approach:?}: {:?}", run.stats.failure);
    }
}

#[test]
fn replication_doubles_disk_pressure() {
    // The same workload that fits at replication 1 can die at 2 — the
    // reason the paper repeats Fig 9(a) at replication 1 in Fig 9(b).
    let b1 = ntga::testbed::b_series().into_iter().find(|q| q.id == "B1").unwrap();
    let store = bsbm();
    // Total disk ≈ 20× the input: Hive's B1 footprint (~16× input per
    // replica) fits at replication 1 but not at 2.
    let tight = ClusterConfig { replication: 1, ..Default::default() }.tight_disk(&store, 20.0);
    // Same per-node disk, higher replication.
    let engine1 =
        ClusterConfig { replication: 1, disk_per_node: tight.disk_per_node, ..Default::default() }
            .engine_with(&store);
    let r1 = run_query(Approach::Hive, &engine1, &b1.query, "r1", false).unwrap();
    assert!(r1.succeeded(), "replication 1 should fit: {:?}", r1.stats.failure);

    let engine2 =
        ClusterConfig { replication: 2, disk_per_node: tight.disk_per_node, ..Default::default() }
            .engine_with(&store);
    let r2 = run_query(Approach::Hive, &engine2, &b1.query, "r2", false).unwrap();
    assert!(!r2.succeeded(), "replication 2 should exhaust the same disk");
}

#[test]
fn map_only_jobs_respect_the_aggregate_disk_budget() {
    // Each map-only task checks its own output against the job's disk
    // budget; the engine must also re-check the aggregate across tasks
    // (as the reduce phase does), otherwise N tasks can each stay under
    // budget while together exceeding it.
    use mrsim::codec::token_key;
    use mrsim::{Engine, JobSpec, MrError, OutEmitter, RawMapOnlyOp, TaskContext};
    use std::sync::Arc;

    /// Each `String` row copied as it stands.
    struct Identity;
    impl RawMapOnlyOp for Identity {
        fn run(&self, _: &TaskContext, row: &[u8], out: &mut OutEmitter) -> Result<(), MrError> {
            let text = token_key(row)?.len() as u64 + 1;
            out.emit_raw(row.to_vec(), text)
        }
    }

    // 3000 rows of 40 bytes: 44 encoded bytes each, so the 32 KiB split
    // floor cuts the file into four tasks of 745 rows and one of 20. A full
    // task emits 745 × 41 = 30 545 B of text.
    let rows = || (0..3000).map(|_| "w".repeat(40));
    let spec = || JobSpec::map_only("identity", vec!["input".into()], Arc::new(Identity), "out");
    let unbounded = Engine::new(ClusterConfig::default().with_workers(4)).unwrap();
    unbounded.put_records("input", rows()).unwrap();
    assert_eq!(unbounded.run_job(&spec()).unwrap().faults.map_tasks_scheduled, 5);

    // 123 000 B of input leave a 60 000 B budget: every task fits it alone,
    // the second one takes the aggregate over it. `needed` is the two
    // tasks' 61 090 B, not the 123 000 B the final write would ask for, so
    // it is the aggregate early-abort that failed this job.
    let engine = Engine::new(ClusterConfig {
        nodes: 1,
        disk_per_node: 183_000,
        workers: Some(4),
        ..Default::default()
    })
    .unwrap();
    engine.put_records("input", rows()).unwrap();
    let err = engine.run_job(&spec()).unwrap_err();
    assert!(matches!(err, MrError::DiskFull { needed: 61_090, available: 60_000, .. }), "{err:?}");
    assert!(!engine.hdfs().lock().exists("out"));
}

#[test]
fn peak_disk_usage_is_reported() {
    let b1 = ntga::testbed::b_series().into_iter().find(|q| q.id == "B1").unwrap();
    let store = bsbm();
    let engine = ClusterConfig::default().engine_with(&store);
    let run = run_query(Approach::Hive, &engine, &b1.query, "peak", false).unwrap();
    assert!(run.stats.peak_disk_bytes > store.text_bytes());
}
