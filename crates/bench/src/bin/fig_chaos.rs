//! Chaos figure — fault regimes never change results, only cost.
//!
//! Not a figure of the paper: a robustness exhibit for the simulated
//! substrate every figure rests on. Sweeps deterministic fault regimes
//! {none, task failures, node loss, stragglers, combined, data corruption,
//! corruption+faults} × worker counts {1, 4, 8} over one unbound-property
//! query and asserts in-process that
//!
//! * the result (records and bytes) is bit-identical to the fault-free
//!   run in every cell — faults are charged simulated time, never allowed
//!   to corrupt output;
//! * every faulted cell reports nonzero fault counters and a strictly
//!   larger simulated makespan;
//! * each corruption regime detects a nonzero number of corruptions, the
//!   same number at every worker count.
//!
//! A second section demonstrates the workflow recovery policies: a
//! stage-killing fault regime that `FailFast` reports as "X" but
//! `RetryStage` survives, and a disk-full failure that
//! `DegradeOnDiskFull` converts into a degraded-but-complete run. Those
//! rows carry the query id `policy` so downstream checks can separate
//! them from the bit-identity sweep.

use mrsim::{CostModel, FaultConfig, RecoveryPolicy};
use ntga::{run_query, Approach, ClusterConfig};
use ntga_bench::{report, BenchOpts, Scale};

/// The fault regimes of the sweep, by report label.
fn regimes(seed: u64) -> Vec<(&'static str, FaultConfig)> {
    vec![
        ("none", FaultConfig::none()),
        ("taskfail", FaultConfig::with_probability(0.25, seed)),
        ("nodeloss", FaultConfig::with_probability(0.0, seed).with_node_loss(0.6)),
        (
            "straggler",
            FaultConfig::with_probability(0.0, seed)
                .with_stragglers(0.3, 6.0)
                .with_speculation(2.0),
        ),
        (
            "combined",
            FaultConfig::with_probability(0.15, seed)
                .with_node_loss(0.4)
                .with_stragglers(0.2, 6.0)
                .with_speculation(2.0),
        ),
        ("corrupt", FaultConfig::with_probability(0.0, seed).with_corruption(0.3)),
        (
            "corrupt+faults",
            FaultConfig::with_probability(0.15, seed).with_node_loss(0.4).with_corruption(0.3),
        ),
    ]
}

fn main() {
    let opts = BenchOpts::from_env();
    let scale = Scale::from_env();
    let store = datagen::bsbm::generate(&datagen::BsbmConfig {
        products: scale.entities(40),
        features: 30,
        max_features_per_product: 12,
        ..Default::default()
    });
    let query = ntga::testbed::b_series()
        .into_iter()
        .find(|t| t.id == "B1")
        .expect("B1 is part of the B series");
    let base =
        ClusterConfig { cost: CostModel::scaled_to(store.text_bytes()), ..Default::default() };
    println!(
        "dataset: {} triples ({}); query {}; regimes × workers {{1,4,8}}",
        store.len(),
        report::human_bytes(store.text_bytes()),
        query.id,
    );

    // The run label feeds the job names, and job names seed the fault
    // draws — so it must NOT vary with the worker count, or the regimes
    // would face different faults per cell. Only the report label does.
    let run_cell = |faults: FaultConfig, workers: usize, run_label: &str, row_label: &str| {
        let cluster = opts.cluster(base.clone().with_faults(faults).with_workers(workers));
        let engine = cluster.engine_with(&store);
        let run = run_query(Approach::NtgaAuto(1024), &engine, &query.query, run_label, false)
            .unwrap_or_else(|e| panic!("{run_label}: planning failed: {e}"));
        report::Row::from_run(&query.id, row_label, &run)
    };

    // Pick the first seed whose faulted regimes all complete (no task
    // exhausts its attempt budget) and all actually inject something.
    let seed = (0..100)
        .find(|&seed| {
            regimes(seed).into_iter().skip(1).all(|(name, faults)| {
                let s = run_cell(faults, 4, name, name).stats;
                s.succeeded
                    && match name {
                        "taskfail" => s.total_task_retries() > 0,
                        "nodeloss" => s.total_node_losses() > 0,
                        "straggler" => s.total_speculative_tasks() > 0,
                        "corrupt" => s.total_corruptions_detected() > 0,
                        "corrupt+faults" => {
                            s.total_corruptions_detected() > 0 && s.total_task_retries() > 0
                        }
                        _ => s.total_task_retries() > 0 && s.total_node_losses() > 0,
                    }
            })
        })
        .expect("some seed under 100 must inject every regime without exhaustion");
    println!("chaos seed: {seed}");

    let mut rows: Vec<report::Row> = Vec::new();
    let mut baseline: Option<(u64, u64)> = None;
    for (name, faults) in regimes(seed) {
        let mut detections = Vec::new();
        for workers in [1usize, 4, 8] {
            let label = format!("{name}/w{workers}");
            let row = run_cell(faults.clone(), workers, name, &label);
            let s = &row.stats;
            assert!(s.succeeded, "{label}: chaos sweep cells must complete");
            let key = (s.final_output_records(), s.final_output_text_bytes());
            match baseline {
                None => baseline = Some(key),
                Some(expected) => assert_eq!(
                    key, expected,
                    "{label}: result must be bit-identical to the fault-free run"
                ),
            }
            if name != "none" {
                assert!(
                    s.total_retry_seconds() > 0.0 || s.total_speculative_tasks() > 0,
                    "{label}: injected faults must be visible in the counters"
                );
                let clean = &rows[0].stats;
                assert!(
                    s.sim_seconds > clean.sim_seconds,
                    "{label}: faults must slow the simulated clock"
                );
            }
            detections.push(s.total_corruptions_detected());
            rows.push(row);
        }
        // Checksums catch every injection, and the count is a function of
        // the fault draws alone: the same at every worker count.
        if name.starts_with("corrupt") {
            assert!(
                detections[0] > 0 && detections.iter().all(|&d| d == detections[0]),
                "{name}: corruption detections {detections:?} must be nonzero and worker-invariant"
            );
        }
    }
    report::print_table(
        "Chaos sweep: fault regimes × workers — identical results, higher cost",
        "every row's result is bit-identical to none/w1; rtry/rty(s) show the charged fault work",
        &rows,
    );
    let (records, bytes) = baseline.unwrap();
    println!(
        "all {} cells returned {records} records / {} — determinism holds under chaos",
        rows.len(),
        report::human_bytes(bytes),
    );

    // --- Recovery policies -------------------------------------------------
    // A regime harsh enough to kill a stage under FailFast: one attempt per
    // task, so any drawn failure is fatal. RetryStage re-runs the stage
    // with fresh deterministic draws and recovers.
    let policy_rows = policy_demo(&opts, &base, &store, &query);
    report::print_table(
        "Recovery policies: the same failures, three outcomes",
        "FailFast reports the paper's X; RetryStage and DegradeOnDiskFull recover",
        &policy_rows,
    );

    rows.extend(policy_rows);
    let queries = [(query.id.clone(), query.query.clone())];
    opts.finish(&opts.cluster(base.clone()), &store, &queries, &rows).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
}

/// The recovery-policy exhibit: rows with query id `policy`.
fn policy_demo(
    opts: &BenchOpts,
    base: &ClusterConfig,
    store: &rdf_model::TripleStore,
    query: &ntga::testbed::TestQuery,
) -> Vec<report::Row> {
    let mut rows = Vec::new();

    // One shared run label per exhibit: both policies must face the SAME
    // deterministic faults (job names seed the draws), so only the
    // recovery decision differs between the paired rows.
    let retry = RecoveryPolicy::RetryStage { max_retries: 3, backoff_s: 30.0 };
    let exhaust_cell = |seed: u64, recovery: RecoveryPolicy, row_label: &str| {
        let faults = FaultConfig::with_probability(0.04, seed).with_max_attempts(1);
        let cluster =
            opts.cluster(base.clone().with_faults(faults).with_workers(4).with_recovery(recovery));
        let engine = cluster.engine_with(store);
        let run = run_query(Approach::NtgaAuto(1024), &engine, &query.query, "exhaust", false)
            .unwrap_or_else(|e| panic!("{row_label}: planning failed: {e}"));
        report::Row::from_run("policy", row_label, &run)
    };
    let seed = (0..500)
        .find(|&s| {
            !exhaust_cell(s, RecoveryPolicy::FailFast, "probe").ok() && {
                let rs = exhaust_cell(s, retry, "probe").stats;
                rs.succeeded && rs.stage_retries > 0
            }
        })
        .expect("some seed under 500 must kill FailFast and be survivable by RetryStage");
    let ff = exhaust_cell(seed, RecoveryPolicy::FailFast, "exhaust/failfast");
    let rs = exhaust_cell(seed, retry, "exhaust/retrystage");
    assert!(!ff.ok() && rs.ok() && rs.stats.stage_retries > 0);
    println!(
        "exhaustion seed {seed}: FailFast X, RetryStage recovered after {} stage retries \
         (+{:.0}s backoff)",
        rs.stats.stage_retries, rs.stats.sim_seconds
    );
    rows.push(ff);
    rows.push(rs);

    // A disk one byte too small for the workflow's replicated footprint:
    // FailFast dies of DiskFull at the peak write; DegradeOnDiskFull
    // drops that stage's output replication to 1 and completes. The
    // budget comes from measuring a successful run, so the exhibit holds
    // at every scale.
    let disk_cell = |capacity: u64, recovery: RecoveryPolicy, row_label: &str| {
        let cluster =
            ClusterConfig { replication: 2, nodes: 1, disk_per_node: capacity, ..base.clone() };
        let cluster = opts.cluster(cluster.with_workers(4).with_recovery(recovery));
        let engine = cluster.engine_with(store);
        let run = run_query(Approach::Pig, &engine, &query.query, "diskfull", false)
            .unwrap_or_else(|e| panic!("{row_label}: planning failed: {e}"));
        report::Row::from_run("policy", row_label, &run)
    };
    let peak = {
        let mut cluster = base.clone();
        cluster.replication = 2;
        let engine = cluster.with_workers(4).engine_with(store);
        let run = run_query(Approach::Pig, &engine, &query.query, "diskfull", false).unwrap();
        assert!(run.succeeded(), "Pig must complete unconstrained to measure its footprint");
        run.stats.peak_disk_bytes
    };
    let ff = disk_cell(peak - 1, RecoveryPolicy::FailFast, "diskfull/failfast");
    let deg = disk_cell(peak - 1, RecoveryPolicy::DegradeOnDiskFull, "diskfull/degrade");
    assert!(!ff.ok() && deg.ok() && deg.stats.degraded_replication);
    println!(
        "disk budget {} (peak − 1): FailFast X (DiskFull), DegradeOnDiskFull completed at \
         replication 1",
        report::human_bytes(peak - 1),
    );
    rows.push(ff);
    rows.push(deg);
    rows
}
