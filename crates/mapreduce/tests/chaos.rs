//! Deterministic chaos campaign over the fault model.
//!
//! Sweeps fault regimes {none, task failures, node loss, stragglers,
//! combined, corruption, corruption+combined} × worker counts {1, 4, 8}
//! over a two-stage workflow and asserts the engine's core contract under
//! chaos:
//!
//! * the final output is **bit-identical** to the fault-free run — faults
//!   (including injected data corruption, with checksum verification on)
//!   cost simulated time, never correctness;
//! * every injected regime surfaces in the fault counters and is charged
//!   real simulated time (`retry_seconds` > 0 or straggler tail > 0, and
//!   `sim_seconds` strictly above the fault-free makespan);
//! * trace timelines stay consistent: per stage, `max(startup) + Σ work`
//!   over the `JobSpan` events (plus recovery backoff) reproduces the
//!   workflow makespan;
//! * a task exhausting its attempt budget yields a *failed workflow* (a
//!   populated `failure`, a `workflow_end { succeeded: false }` event) —
//!   never a panic — identically across worker counts.

mod common;

use common::{CountReduce, KeyOnly, SelfPair, WordOne};
use mrsim::trace::TraceEvent;
use mrsim::{
    ClusterConfig, Engine, FaultConfig, InputBinding, JobSpec, MemorySink, MrError, TraceSink,
    Workflow, WorkflowStats,
};
use std::sync::Arc;

/// A word count from `input` to `output`.
fn wc_job(name: &str, input: &str, output: &str, reduce_tasks: usize) -> JobSpec {
    let words = InputBinding { file: input.into(), mapper: Arc::new(WordOne) };
    JobSpec::map_reduce(name, vec![words], Arc::new(CountReduce), reduce_tasks, output)
}

/// The chaos regimes the campaign sweeps.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Regime {
    None,
    TaskFail,
    NodeLoss,
    Stragglers,
    Combined,
    Corruption,
    CorruptionCombined,
}

const REGIMES: [Regime; 7] = [
    Regime::None,
    Regime::TaskFail,
    Regime::NodeLoss,
    Regime::Stragglers,
    Regime::Combined,
    Regime::Corruption,
    Regime::CorruptionCombined,
];

fn faults_for(regime: Regime, seed: u64) -> FaultConfig {
    match regime {
        Regime::None => FaultConfig::none(),
        Regime::TaskFail => FaultConfig::with_probability(0.3, seed),
        Regime::NodeLoss => FaultConfig::with_probability(0.0, seed).with_node_loss(0.6),
        Regime::Stragglers => {
            FaultConfig::with_probability(0.0, seed).with_stragglers(0.3, 6.0).with_speculation(2.0)
        }
        Regime::Combined => FaultConfig::with_probability(0.2, seed)
            .with_node_loss(0.5)
            .with_stragglers(0.3, 6.0)
            .with_speculation(2.0),
        Regime::Corruption => FaultConfig::with_probability(0.0, seed).with_corruption(0.5),
        Regime::CorruptionCombined => FaultConfig::with_probability(0.2, seed)
            .with_node_loss(0.5)
            .with_stragglers(0.3, 6.0)
            .with_speculation(2.0)
            .with_corruption(0.4),
    }
}

/// One chaos run's observables: workflow stats, trace, and the final
/// output's raw record bytes.
type ChaosRun = (WorkflowStats, Vec<TraceEvent>, Vec<Vec<u8>>);

/// Run the campaign workflow (a concurrent stage of two word counts, then
/// a merge of both outputs) under one regime.
fn run_chaos(regime: Regime, seed: u64, workers: usize) -> Result<ChaosRun, mrsim::MrError> {
    let sink = MemorySink::new();
    let engine = Engine::new(
        ClusterConfig::default()
            .with_workers(workers)
            .with_faults(faults_for(regime, seed))
            .with_trace(sink.clone() as Arc<dyn TraceSink>),
    )
    .unwrap();
    engine.put_records("in", (0..800).map(|i| format!("word{}", i % 17))).unwrap();
    let mut wf = Workflow::new(&engine, format!("chaos-{regime:?}"));
    wf.run_stage(vec![wc_job("j-a", "in", "a", 4), wc_job("j-b", "in", "b", 3)])?;
    let merge = {
        let lines = |file: &str| InputBinding { file: file.into(), mapper: Arc::new(SelfPair) };
        JobSpec::map_reduce("j-merge", vec![lines("a"), lines("b")], Arc::new(KeyOnly), 2, "c")
    };
    wf.run_job(merge)?;
    let stats = wf.finish(&["c"]);
    let out = engine.hdfs().lock().get("c").unwrap().iter().map(<[u8]>::to_vec).collect();
    Ok((stats, sink.take(), out))
}

/// Per stage, `max(startup) + Σ (span − startup)` over the JobSpan events,
/// plus any recovery backoff, must reproduce the workflow makespan.
fn reconstruct_makespan(events: &[TraceEvent], backoff_seconds: f64) -> f64 {
    let mut stages: std::collections::BTreeMap<u64, (f64, f64)> = Default::default();
    for e in events {
        if let TraceEvent::JobSpan { stage, sim_start, sim_end, startup_seconds, .. } = e {
            let entry = stages.entry(*stage).or_insert((0.0, 0.0));
            entry.0 = entry.0.max(*startup_seconds);
            entry.1 += sim_end - sim_start - startup_seconds;
        }
    }
    stages.values().map(|&(startup, work)| startup + work).sum::<f64>() + backoff_seconds
}

fn canonical(events: &[TraceEvent]) -> Vec<String> {
    let mut v: Vec<String> = events.iter().map(TraceEvent::to_json).collect();
    v.sort();
    v
}

/// Find a seed where every faulted regime (a) completes without exhausting
/// any task's attempt budget and (b) actually triggers its fault kind.
fn campaign_seed() -> u64 {
    (0..200)
        .find(|&seed| {
            REGIMES.iter().all(|&regime| match run_chaos(regime, seed, 1) {
                Err(_) => false,
                Ok((stats, ..)) => match regime {
                    Regime::None => true,
                    Regime::TaskFail => stats.total_task_retries() > 0,
                    Regime::NodeLoss => stats.total_node_losses() > 0,
                    Regime::Stragglers => stats.total_speculative_tasks() > 0,
                    Regime::Combined => {
                        stats.total_task_retries() > 0 && stats.total_node_losses() > 0
                    }
                    Regime::Corruption => stats.total_corruptions_detected() > 0,
                    Regime::CorruptionCombined => {
                        stats.total_corruptions_detected() > 0 && stats.total_task_retries() > 0
                    }
                },
            })
        })
        .expect("some seed under 200 must trigger every regime without exhaustion")
}

#[test]
fn chaos_campaign_output_is_bit_identical_across_regimes_and_workers() {
    let seed = campaign_seed();
    let (clean_stats, _, clean_out) = run_chaos(Regime::None, seed, 1).unwrap();
    assert!(clean_stats.succeeded);
    assert!(!clean_out.is_empty());

    for regime in REGIMES {
        let (base_stats, base_events, _) = run_chaos(regime, seed, 1).unwrap();
        for workers in [1usize, 4, 8] {
            let (stats, events, out) = run_chaos(regime, seed, workers).unwrap();
            // Correctness: chaos never changes a byte of output.
            assert_eq!(out, clean_out, "{regime:?} workers={workers}");
            // Fault decisions are worker-invariant.
            assert_eq!(
                stats.total_task_retries(),
                base_stats.total_task_retries(),
                "{regime:?} workers={workers}"
            );
            assert_eq!(canonical(&events), canonical(&base_events), "{regime:?} w={workers}");
            // Cost: faults are charged simulated time.
            if regime == Regime::None {
                assert_eq!(stats.total_retry_seconds(), 0.0);
            } else {
                assert!(
                    stats.sim_seconds > clean_stats.sim_seconds,
                    "{regime:?} workers={workers}: faults must slow the simulated clock \
                     ({} vs clean {})",
                    stats.sim_seconds,
                    clean_stats.sim_seconds
                );
            }
            if matches!(
                regime,
                Regime::TaskFail
                    | Regime::NodeLoss
                    | Regime::Combined
                    | Regime::Corruption
                    | Regime::CorruptionCombined
            ) {
                assert!(stats.total_retry_seconds() > 0.0, "{regime:?} workers={workers}");
            }
            // Trace timeline stays consistent under chaos.
            let rebuilt = reconstruct_makespan(&events, stats.backoff_seconds);
            assert!(
                (rebuilt - stats.sim_seconds).abs() < 1e-6,
                "{regime:?} workers={workers}: reconstructed {rebuilt} vs {}",
                stats.sim_seconds
            );
        }
    }
}

#[test]
fn chaos_regimes_emit_their_trace_events() {
    let seed = campaign_seed();
    let kinds = |regime| {
        let (_, events, _) = run_chaos(regime, seed, 4).unwrap();
        events.iter().map(TraceEvent::kind).collect::<std::collections::BTreeSet<_>>()
    };
    assert!(kinds(Regime::TaskFail).contains("task_retry"));
    assert!(kinds(Regime::NodeLoss).contains("node_loss"));
    assert!(kinds(Regime::Stragglers).contains("straggler"));
    assert!(kinds(Regime::Corruption).contains("corruption_detected"));
    assert!(!kinds(Regime::None).iter().any(|k| {
        matches!(*k, "task_retry" | "node_loss" | "straggler" | "corruption_detected")
    }));
    // Under speculation every straggler states whether its backup won.
    let (_, events, _) = run_chaos(Regime::Stragglers, seed, 4).unwrap();
    let backups: Vec<Option<bool>> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Straggler { backup_won, .. } => Some(*backup_won),
            _ => None,
        })
        .collect();
    assert!(!backups.is_empty() && backups.iter().all(Option::is_some), "{backups:?}");
}

#[test]
fn speculation_caps_the_straggler_tail() {
    // Same stragglers with and without speculative execution: backups cost
    // retry time but bound the tail, so the overall makespan shrinks.
    let seed = campaign_seed();
    let run = |speculation: bool| {
        let mut faults = FaultConfig::with_probability(0.0, seed).with_stragglers(0.4, 8.0);
        if speculation {
            faults = faults.with_speculation(1.5);
        }
        let engine =
            Engine::new(ClusterConfig::default().with_workers(2).with_faults(faults)).unwrap();
        engine.put_records("in", (0..600).map(|i| format!("word{}", i % 13))).unwrap();
        engine.run_job(&wc_job("spec", "in", "out", 8)).unwrap()
    };
    let slow = run(false);
    let capped = run(true);
    assert!(slow.faults.straggler_tasks > 0, "regime must select stragglers");
    assert_eq!(capped.faults.straggler_tasks, slow.faults.straggler_tasks);
    assert!(capped.faults.speculative_tasks() > 0);
    assert!(capped.faults.speculative_wins > 0);
    assert_eq!(slow.faults.speculative_tasks(), 0);
    assert!(
        capped.sim_seconds < slow.sim_seconds,
        "speculation must cut the tail: {} vs {}",
        capped.sim_seconds,
        slow.sim_seconds
    );
}

#[test]
fn exhausted_attempts_fail_the_workflow_not_the_process() {
    let mut failures: Vec<String> = Vec::new();
    for workers in [1usize, 4, 8] {
        let sink = MemorySink::new();
        let engine = Engine::new(
            ClusterConfig::default()
                .with_workers(workers)
                .with_faults(FaultConfig::with_probability(0.9, 5).with_max_attempts(2))
                .with_trace(sink.clone() as Arc<dyn TraceSink>),
        )
        .unwrap();
        engine.put_records("in", (0..400).map(|i| format!("word{}", i % 11))).unwrap();
        let mut wf = Workflow::new(&engine, "exhaust");
        let err = wf
            .run_job(wc_job("doomed", "in", "out", 6))
            .expect_err("p=0.9 with 2 attempts must exhaust some task");
        assert!(matches!(err, MrError::TaskExhausted { .. }), "{err}");
        let stats = wf.finish_failed(&err);
        assert!(!stats.succeeded);
        let failure = stats.failure.expect("failure must be populated");
        assert!(failure.contains("consecutive attempts"), "{failure}");
        failures.push(failure);
        let end = sink
            .take()
            .into_iter()
            .find_map(|e| match e {
                TraceEvent::WorkflowEnd { succeeded, .. } => Some(succeeded),
                _ => None,
            })
            .expect("workflow_end must be emitted for failed workflows");
        assert!(!end, "workflow_end must record the failure");
    }
    failures.dedup();
    assert_eq!(failures.len(), 1, "the failing task is worker-invariant: {failures:?}");
}

/// The chaos workflow at >4096 input records, so every map input splits
/// into multiple chunks — the regime where worker-dependent chunking would
/// skew per-task memory marks.
fn run_split(regime: Regime, seed: u64, workers: usize) -> WorkflowStats {
    let engine = Engine::new(
        ClusterConfig::default().with_workers(workers).with_faults(faults_for(regime, seed)),
    )
    .unwrap();
    engine.put_records("in", (0..6000).map(|i| format!("word{}", i % 37))).unwrap();
    let mut wf = Workflow::new(&engine, format!("split-{regime:?}"));
    wf.run_stage(vec![wc_job("p-a", "in", "a", 4), wc_job("p-b", "in", "b", 3)]).unwrap();
    wf.run_job(wc_job("p-merge", "a", "c", 2)).unwrap();
    wf.finish(&["c"])
}

/// Every memory high-water mark and the largest shuffle partition.
fn memory_fingerprint(stats: &WorkflowStats) -> (u64, u64, u64, u64) {
    (
        stats.peak_arena_bytes(),
        stats.peak_task_live_bytes(),
        stats.peak_spill_entries(),
        stats.max_partition_shuffle_bytes(),
    )
}

#[test]
fn memory_marks_are_worker_invariant_under_chaos() {
    let seed = campaign_seed();
    // Bit-identical across worker counts in every regime.
    for regime in REGIMES {
        let base = run_split(regime, seed, 1);
        assert!(base.peak_arena_bytes() > 0, "{regime:?}");
        assert!(base.peak_task_live_bytes() > 0, "{regime:?}");
        for workers in [4usize, 8] {
            let stats = run_split(regime, seed, workers);
            assert_eq!(
                memory_fingerprint(&stats),
                memory_fingerprint(&base),
                "{regime:?} workers={workers}"
            );
        }
    }
    // And fault-regime-invariant: a retried task holds the same bytes as
    // the attempt that failed.
    let clean = run_split(Regime::None, seed, 4);
    let faulted = run_split(Regime::TaskFail, seed, 4);
    assert!(faulted.total_task_retries() > 0, "the regime must inject");
    assert_eq!(memory_fingerprint(&clean), memory_fingerprint(&faulted));
}

#[test]
fn corruption_detection_counters_are_worker_invariant() {
    // FaultStats under corruption regimes — detections, refetches, and
    // the whole stats fingerprint — must not depend on the worker count.
    let seed = campaign_seed();
    for regime in [Regime::Corruption, Regime::CorruptionCombined] {
        let (base, base_events, base_out) = run_chaos(regime, seed, 1).unwrap();
        assert!(base.total_corruptions_detected() > 0, "{regime:?} must inject");
        for workers in [4usize, 8] {
            let (stats, events, out) = run_chaos(regime, seed, workers).unwrap();
            assert_eq!(
                stats.total_corruptions_detected(),
                base.total_corruptions_detected(),
                "{regime:?} workers={workers}"
            );
            assert_eq!(out, base_out, "{regime:?} workers={workers}");
            assert_eq!(canonical(&events), canonical(&base_events), "{regime:?} w={workers}");
        }
    }
}

#[test]
fn faulted_shuffles_still_ship_map_sorted_runs() {
    // Every map-reduce job announces its sort work, and what reaches the
    // reduce side under faults is map-side-sorted runs to merge, never an
    // unsorted pile to re-sort.
    let (_, events, _) = run_chaos(Regime::TaskFail, campaign_seed(), 4).unwrap();
    let runs: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::SortPlan { map_sorted_runs, .. } => Some(*map_sorted_runs),
            _ => None,
        })
        .collect();
    assert_eq!(runs.len(), 3, "one sort_plan per job");
    assert!(runs.iter().all(|&r| r > 0), "sort_plan events must record sorted runs: {runs:?}");
}

#[test]
fn faulted_run_is_slower_but_byte_identical() {
    // The satellite contract in one assertion: injected faults make the
    // simulated clock strictly slower while the output stays identical.
    let seed = campaign_seed();
    let (clean, _, clean_out) = run_chaos(Regime::None, seed, 4).unwrap();
    let (faulted, _, faulted_out) = run_chaos(Regime::Combined, seed, 4).unwrap();
    assert_eq!(clean_out, faulted_out);
    assert!(faulted.total_retry_seconds() > 0.0);
    assert!(faulted.sim_seconds > clean.sim_seconds);
    assert_eq!(clean.final_output_records(), faulted.final_output_records());
    assert_eq!(clean.final_output_text_bytes(), faulted.final_output_text_bytes());
}

/// What the shuffle fetch decides under a corruption regime: per job the
/// detection counters and every shuffle-size counter, then the
/// `corruption_detected` events in emission order.
fn fetch_fingerprint(stats: &WorkflowStats, events: &[TraceEvent]) -> Vec<String> {
    let mut lines: Vec<String> = stats
        .jobs
        .iter()
        .map(|j| {
            format!(
                "{} detected={} refetches={} arena={} out={}/{}/{} parts={:?}",
                j.name,
                j.faults.corruptions_detected,
                j.faults.corrupt_refetches,
                j.peak_arena_bytes,
                j.map_output_records,
                j.map_output_bytes,
                j.map_output_encoded_bytes,
                j.shuffle_partition_bytes
            )
        })
        .collect();
    lines.extend(
        events.iter().filter(|e| e.kind() == "corruption_detected").map(TraceEvent::to_json),
    );
    lines
}

#[test]
fn parallel_fetch_reports_what_the_serial_driver_loop_reported() {
    // The campaign inputs are one map split under the byte rule and under
    // the record rule it replaced, so fault draws are unchanged and these
    // are the values the serial task × partition driver loop produced for
    // the campaign seed. The reducer-side fetch must reproduce them, in
    // the same event order, on every worker count.
    let seed = campaign_seed();
    for (regime, expected) in
        [(Regime::Corruption, PINNED_CORRUPTION), (Regime::CorruptionCombined, PINNED_COMBINED)]
    {
        for workers in [1usize, 4, 8] {
            let (stats, events, _) = run_chaos(regime, seed, workers).unwrap();
            let got = fetch_fingerprint(&stats, &events);
            assert_eq!(got, expected, "{regime:?} workers={workers} seed={seed}:\n{got:#?}");
        }
    }
}

const PINNED_CORRUPTION: &[&str] = &[
    "j-a detected=0 refetches=0 arena=9770 out=800/5929/13929 parts=[1746, 1410, 1410, 1363]",
    "j-b detected=0 refetches=0 arena=11703 out=800/5929/13929 parts=[1699, 2115, 2115]",
    "j-merge detected=4 refetches=2 arena=876 out=34/606/844 parts=[288, 318]",
    r#"{"event":"corruption_detected","job":"j-merge","site":"dfs","task":0}"#,
    r#"{"event":"corruption_detected","job":"j-merge","site":"dfs","task":0}"#,
    r#"{"event":"corruption_detected","job":"j-merge","site":"shuffle","task":0}"#,
    r#"{"event":"corruption_detected","job":"j-merge","site":"shuffle","task":1}"#,
];
const PINNED_COMBINED: &[&str] = &[
    "j-a detected=0 refetches=0 arena=9770 out=800/5929/13929 parts=[1746, 1410, 1410, 1363]",
    "j-b detected=0 refetches=0 arena=11703 out=800/5929/13929 parts=[1699, 2115, 2115]",
    "j-merge detected=2 refetches=1 arena=876 out=34/606/844 parts=[288, 318]",
    r#"{"event":"corruption_detected","job":"j-merge","site":"dfs","task":0}"#,
    r#"{"event":"corruption_detected","job":"j-merge","site":"shuffle","task":1}"#,
];
