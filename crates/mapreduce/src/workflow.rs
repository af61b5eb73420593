//! Workflows: sequences of stages, where a stage is a set of jobs that run
//! concurrently (Pig runs independent MR cycles in parallel; Hive and the
//! NTGA plans run one job per stage).
//!
//! A workflow accumulates [`WorkflowStats`]: per-job counters, the MR-cycle
//! count (a stage of concurrent jobs counts as ONE cycle, matching how the
//! paper counts Pig's concurrent star-join jobs), full-scan count, and
//! simulated makespan. Stage makespan = max over jobs of startup + the sum
//! of all jobs' charged work time (the jobs share one cluster's aggregate
//! I/O, and injected faults are charged as extra work), so concurrency buys
//! overlapping of fixed startup, not free bandwidth.
//!
//! Failure handling is governed by a [`RecoveryPolicy`]. Under the default
//! [`RecoveryPolicy::FailFast`] the first failing job (typically
//! `DiskFull`) kills the workflow and it refuses further stages — exactly
//! the "X" bars of the paper's figures. The retrying policies re-run a
//! failed stage from the surviving intermediates of earlier stages, the
//! way a Hadoop driver resubmits a failed job without redoing the jobs
//! that already committed their output to the DFS.

use crate::counters::WorkflowStats;
use crate::engine::Engine;
use crate::error::MrError;
use crate::job::JobSpec;
use crate::trace::TraceEvent;

/// What a workflow does when a stage fails.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum RecoveryPolicy {
    /// Record the failure and refuse further stages (the paper's behavior:
    /// a Pig/Hive workflow that dies mid-plan reports "X").
    #[default]
    FailFast,
    /// Re-run the failed stage from the surviving intermediates, up to
    /// `max_retries` times, charging `backoff_s × attempt` of driver
    /// backoff to the makespan per retry. Partial outputs of the failed
    /// attempt are deleted first, and each re-run bumps the specs'
    /// `fault_epoch` so injected faults are re-drawn deterministically.
    RetryStage {
        /// Maximum stage re-runs before giving up.
        max_retries: u32,
        /// Linear backoff unit charged per retry (seconds).
        backoff_s: f64,
    },
    /// On a `DiskFull` failure only: drop the failed stage's output
    /// replication to 1 and retry the stage once, recording the
    /// degradation in [`WorkflowStats::degraded_replication`]. Trades
    /// fault tolerance of intermediates for completing the workflow —
    /// the classic operator move on a nearly-full cluster. If the stage
    /// is *already* writing at replication 1 there is nothing left to
    /// degrade, and the stage fails fast with the original `DiskFull`.
    DegradeOnDiskFull,
}

/// A running workflow over an [`Engine`].
pub struct Workflow<'e> {
    engine: &'e Engine,
    stats: WorkflowStats,
    intermediates: Vec<String>,
    failed: bool,
    /// Per-attempt trace stage index. Equals `stats.mr_cycles` until a
    /// stage retry: every attempt (failed or not) consumes an index so
    /// trace timelines stay unambiguous.
    next_stage: u64,
}

impl<'e> Workflow<'e> {
    /// Start a workflow with the given report label. The recovery policy
    /// is the engine's (see [`ClusterConfig::recovery`](crate::ClusterConfig::recovery)).
    pub fn new(engine: &'e Engine, label: impl Into<String>) -> Self {
        let label = label.into();
        engine.emit(|| TraceEvent::WorkflowStart { label: label.clone() });
        Workflow {
            engine,
            stats: WorkflowStats { label, succeeded: true, ..Default::default() },
            intermediates: Vec::new(),
            failed: false,
            next_stage: 0,
        }
    }

    /// Run one stage of concurrent jobs, applying the recovery policy on
    /// failure. Returns the error that killed the workflow, if any; the
    /// workflow is dead afterwards and refuses further stages with
    /// [`MrError::WorkflowDead`]. A stage without jobs is refused with
    /// [`MrError::Op`] and leaves the workflow as it was.
    pub fn run_stage(&mut self, mut specs: Vec<JobSpec>) -> Result<(), MrError> {
        if self.failed {
            return Err(MrError::WorkflowDead);
        }
        if specs.is_empty() {
            return Err(MrError::Op("empty stage".into()));
        }
        // Register outputs BEFORE running: a stage that fails midway may
        // have committed some jobs' outputs to the DFS, and those must be
        // cleaned up by `finish`/`finish_failed` like any intermediate.
        let outputs: Vec<String> = specs.iter().flat_map(|s| s.outputs.iter().cloned()).collect();
        self.intermediates.extend(outputs.iter().cloned());
        let mut attempt: u32 = 0;
        let mut degraded = false;
        loop {
            match self.try_stage(&specs) {
                Ok(()) => return Ok(()),
                Err(e) => {
                    let backoff = match self.engine.recovery {
                        RecoveryPolicy::FailFast => None,
                        RecoveryPolicy::RetryStage { max_retries, backoff_s } => {
                            (attempt < max_retries).then(|| backoff_s * f64::from(attempt + 1))
                        }
                        RecoveryPolicy::DegradeOnDiskFull => {
                            // Nothing to degrade if every job already
                            // writes at replication 1 — retrying would
                            // just hit the same wall, so fail fast with
                            // the original DiskFull.
                            let default_repl = self.engine.hdfs().lock().default_replication();
                            let degradable =
                                specs.iter().any(|s| s.replication.unwrap_or(default_repl) > 1);
                            (e.is_disk_full() && !degraded && degradable).then_some(0.0)
                        }
                    };
                    let Some(backoff) = backoff else {
                        self.failed = true;
                        self.stats.succeeded = false;
                        self.stats.failure = Some(e.to_string());
                        return Err(e);
                    };
                    attempt += 1;
                    self.delete_existing(&outputs);
                    self.stats.stage_retries += 1;
                    self.stats.backoff_seconds += backoff;
                    self.stats.sim_seconds += backoff;
                    let failed_stage = self.next_stage - 1;
                    self.engine.emit(|| TraceEvent::StageRetry {
                        stage: failed_stage,
                        attempt,
                        backoff_seconds: backoff,
                        error: e.to_string(),
                    });
                    if matches!(self.engine.recovery, RecoveryPolicy::DegradeOnDiskFull) {
                        degraded = true;
                        self.stats.degraded_replication = true;
                        for spec in &mut specs {
                            spec.replication = Some(1);
                        }
                    } else {
                        // Fresh deterministic fault draws for the re-run.
                        for spec in &mut specs {
                            spec.fault_epoch = u64::from(attempt);
                        }
                    }
                }
            }
        }
    }

    /// One attempt at a stage. On success, charges the stage makespan and
    /// emits `JobSpan`/`StageEnd`; on failure, charges nothing (the retry
    /// path charges backoff, and a dead workflow's partial stage never
    /// contributes to the makespan — matching the pre-recovery behavior).
    fn try_stage(&mut self, specs: &[JobSpec]) -> Result<(), MrError> {
        let stage = self.next_stage;
        self.next_stage += 1;
        let stage_start = self.stats.sim_seconds;
        self.engine.emit(|| TraceEvent::StageStart { stage, sim_start: stage_start });
        let mut max_startup = 0.0f64;
        let mut sum_work = 0.0f64;
        // (name, startup, work) per completed job, for JobSpan placement.
        let mut spans: Vec<(String, f64, f64)> = Vec::new();
        for spec in specs {
            match self.engine.run_job(spec) {
                Ok(stats) => {
                    let work = self.engine.cost.charged_work_seconds(&stats);
                    max_startup = max_startup.max(stats.startup_seconds);
                    sum_work += work;
                    spans.push((stats.name.clone(), stats.startup_seconds, work));
                    if stats.full_input_scan {
                        self.stats.full_scans += 1;
                    }
                    self.stats.jobs.push(stats);
                    debug_assert_eq!(self.stats.check_invariants(), Ok(()));
                }
                Err(e) => {
                    self.record_peak();
                    return Err(e);
                }
            }
        }
        for (job, startup, work) in spans {
            self.engine.emit(|| TraceEvent::JobSpan {
                job,
                stage,
                sim_start: stage_start,
                sim_end: stage_start + startup + work,
                startup_seconds: startup,
            });
        }
        self.engine
            .emit(|| TraceEvent::StageEnd { stage, sim_end: stage_start + max_startup + sum_work });
        self.stats.mr_cycles += 1;
        self.stats.sim_seconds += max_startup + sum_work;
        self.record_peak();
        Ok(())
    }

    /// Run a stage of exactly one job.
    pub fn run_job(&mut self, spec: JobSpec) -> Result<(), MrError> {
        self.run_stage(vec![spec])
    }

    /// Delete the given outputs from the DFS if present (partial results
    /// of a failed stage attempt, about to be re-run).
    fn delete_existing(&self, outputs: &[String]) {
        let mut fs = self.engine.hdfs().lock();
        for name in outputs {
            if fs.exists(name) {
                let _ = fs.delete(name);
            }
        }
    }

    fn record_peak(&mut self) {
        self.stats.peak_disk_bytes = self.engine.hdfs().lock().peak_usage();
    }

    /// Finish the workflow: optionally delete every intermediate output
    /// except `keep` (the final result), then return the stats.
    ///
    /// During execution all intermediates stay on the DFS (Hadoop keeps
    /// them for fault tolerance), which is why peak disk usage — and the
    /// DiskFull failures — reflect the whole workflow's footprint.
    pub fn finish(mut self, keep: &[&str]) -> WorkflowStats {
        let mut fs = self.engine.hdfs().lock();
        for name in &self.intermediates {
            if !keep.contains(&name.as_str()) && fs.exists(name) {
                let _ = fs.delete(name);
            }
        }
        drop(fs);
        self.record_peak();
        self.engine.emit(|| TraceEvent::WorkflowEnd {
            label: self.stats.label.clone(),
            sim_seconds: self.stats.sim_seconds,
            succeeded: self.stats.succeeded,
        });
        self.stats
    }

    /// Finish, recording a failure produced outside a stage run.
    pub fn finish_failed(mut self, error: &MrError) -> WorkflowStats {
        self.stats.succeeded = false;
        if self.stats.failure.is_none() {
            self.stats.failure = Some(error.to_string());
        }
        self.finish(&[])
    }

    /// Stats so far (workflow still running).
    pub fn stats(&self) -> &WorkflowStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{CountReduce, KeyOnly, SelfPair, WordOne};
    use crate::config::ClusterConfig;
    use crate::faults::FaultConfig;
    use crate::job::InputBinding;
    use std::sync::Arc;

    fn identity_job(input: &str, output: &str, full_scan: bool) -> JobSpec {
        let lines = InputBinding { file: input.into(), mapper: Arc::new(SelfPair) };
        let spec = JobSpec::map_reduce(
            format!("{input}->{output}"),
            vec![lines],
            Arc::new(KeyOnly),
            2,
            output,
        );
        if full_scan {
            spec.with_full_scan()
        } else {
            spec
        }
    }

    #[test]
    fn two_stage_workflow() {
        let engine = Engine::unbounded();
        engine.put_records("in", ["a".to_string(), "b".to_string()]).unwrap();
        let mut wf = Workflow::new(&engine, "test");
        wf.run_job(identity_job("in", "mid", true)).unwrap();
        wf.run_job(identity_job("mid", "out", false)).unwrap();
        let stats = wf.finish(&["out"]);
        assert!(stats.succeeded);
        assert_eq!(stats.mr_cycles, 2);
        assert_eq!(stats.full_scans, 1);
        assert_eq!(stats.jobs.len(), 2);
        // Intermediate deleted, final kept.
        assert!(!engine.hdfs().lock().exists("mid"));
        assert!(engine.hdfs().lock().exists("out"));
    }

    #[test]
    fn concurrent_stage_counts_one_cycle() {
        let engine = Engine::unbounded();
        engine.put_records("in", ["a".to_string()]).unwrap();
        let mut wf = Workflow::new(&engine, "test");
        wf.run_stage(vec![identity_job("in", "o1", true), identity_job("in", "o2", true)]).unwrap();
        let stats = wf.finish(&[]);
        assert_eq!(stats.mr_cycles, 1);
        assert_eq!(stats.full_scans, 2);
        assert_eq!(stats.jobs.len(), 2);
    }

    #[test]
    fn concurrency_overlaps_startup_only() {
        // Two identical jobs concurrently vs sequentially: concurrent pays
        // startup once, sequential twice; work time identical.
        let engine = Engine::unbounded();
        engine.put_records("in", (0..50).map(|i| format!("w{i}"))).unwrap();

        let mut wf = Workflow::new(&engine, "conc");
        wf.run_stage(vec![identity_job("in", "c1", false), identity_job("in", "c2", false)])
            .unwrap();
        let conc = wf.finish(&[]);

        let mut wf = Workflow::new(&engine, "seq");
        wf.run_job(identity_job("in", "s1", false)).unwrap();
        wf.run_job(identity_job("in", "s2", false)).unwrap();
        let seq = wf.finish(&[]);

        let startup = engine.cost.job_startup_s;
        assert!((seq.sim_seconds - conc.sim_seconds - startup).abs() < 1e-6);
    }

    #[test]
    fn failure_marks_workflow() {
        let engine =
            Engine::new(ClusterConfig { nodes: 1, disk_per_node: 10, ..Default::default() })
                .unwrap();
        // Input barely fits (the row `aaaa`, 5 bytes); job output won't.
        engine.put_records("in", ["aaaa".to_string()]).unwrap();
        let mut wf = Workflow::new(&engine, "fail");
        // The count row `aaaa:1` (7 bytes) won't fit in the remaining 5.
        let words = InputBinding { file: "in".into(), mapper: Arc::new(WordOne) };
        let spec = JobSpec::map_reduce("explode", vec![words], Arc::new(CountReduce), 1, "out");
        let err = wf.run_job(spec).unwrap_err();
        assert!(err.is_disk_full());
        let stats = wf.finish_failed(&err);
        assert!(!stats.succeeded);
        assert!(stats.failure.unwrap().contains("full"));
        // Further stages refused.
    }

    #[test]
    fn dead_workflow_refuses_stages() {
        let engine =
            Engine::new(ClusterConfig { nodes: 1, disk_per_node: 1, ..Default::default() })
                .unwrap();
        let mut wf = Workflow::new(&engine, "dead");
        assert!(wf.run_job(identity_job("missing", "x", false)).is_err());
        // The refusal is the typed WorkflowDead, not a stringly error.
        let err = wf.run_job(identity_job("missing", "y", false)).unwrap_err();
        assert!(matches!(err, MrError::WorkflowDead));
    }

    #[test]
    fn failed_stage_outputs_are_cleaned_up() {
        // Regression for the intermediate-output leak: a stage of two jobs
        // where the SECOND fails used to leave the first job's committed
        // output on the DFS forever, because outputs were only registered
        // as intermediates after the whole stage succeeded.
        let engine = Engine::unbounded();
        engine.put_records("in", (0..20).map(|i| format!("w{i}"))).unwrap();
        let mut wf = Workflow::new(&engine, "leak");
        let err = wf
            .run_stage(vec![
                identity_job("in", "good-out", false),
                identity_job("no-such-input", "bad-out", false),
            ])
            .unwrap_err();
        assert!(engine.hdfs().lock().exists("good-out"), "first job committed its output");
        let stats = wf.finish_failed(&err);
        assert!(!stats.succeeded);
        assert!(
            !engine.hdfs().lock().exists("good-out"),
            "failed stage's partial output must be deleted by finish_failed"
        );
    }

    #[test]
    fn retry_stage_recovers_from_task_exhaustion() {
        // max_attempts=1 turns any injected task failure into a stage
        // failure; the epoch bump on retry re-draws the fault and (with a
        // low probability) the re-run succeeds.
        let faults = FaultConfig::with_probability(0.05, 7).with_max_attempts(1);
        let mk_engine = |recovery| {
            let config = ClusterConfig { recovery, ..Default::default() };
            let engine = Engine::new(config.with_workers(2).with_faults(faults.clone())).unwrap();
            engine.put_records("in", (0..200).map(|i| format!("w{i}"))).unwrap();
            engine
        };
        // Find a seed-independent victim: scan outputs until FailFast dies.
        let engine = mk_engine(RecoveryPolicy::FailFast);
        let mut failing: Option<String> = None;
        for i in 0..64 {
            let out = format!("out{i}");
            let mut wf = Workflow::new(&engine, "probe");
            if wf.run_job(identity_job("in", &out, false)).is_err() {
                failing = Some(out);
                break;
            }
        }
        let out = failing.expect("some job name should draw a failure at p=0.05 over 64 tries");

        // FailFast: dead workflow.
        let engine = mk_engine(RecoveryPolicy::FailFast);
        let mut wf = Workflow::new(&engine, "ff");
        let err = wf.run_job(identity_job("in", &out, false)).unwrap_err();
        assert!(matches!(err, MrError::TaskExhausted { .. }), "{err}");
        let ff = wf.finish_failed(&err);
        assert!(!ff.succeeded);

        // RetryStage: recovers, output identical to a fault-free run.
        let engine = mk_engine(RecoveryPolicy::RetryStage { max_retries: 3, backoff_s: 5.0 });
        let mut wf = Workflow::new(&engine, "retry");
        wf.run_job(identity_job("in", &out, false)).unwrap();
        let stats = wf.finish(&[&out]);
        assert!(stats.succeeded);
        assert!(stats.stage_retries >= 1);
        assert!(stats.backoff_seconds > 0.0);
        let records = |e: &Engine| -> Vec<Vec<u8>> {
            e.hdfs().lock().get(&out).unwrap().iter().map(<[u8]>::to_vec).collect()
        };
        let got = records(&engine);

        let clean = Engine::new(ClusterConfig::default().with_workers(2)).unwrap();
        clean.put_records("in", (0..200).map(|i| format!("w{i}"))).unwrap();
        let mut wf = Workflow::new(&clean, "clean");
        wf.run_job(identity_job("in", &out, false)).unwrap();
        wf.finish(&[&out]);
        assert_eq!(got, records(&clean));
    }

    #[test]
    fn degrade_on_disk_full_recovers() {
        // Size the DFS from a probe run so the output fits at replication
        // 1 but not at the default replication 2.
        let probe = Engine::unbounded();
        probe.put_records("in", (0..40).map(|i| format!("word{i}"))).unwrap();
        let in_text = probe.hdfs().lock().usage(); // unbounded => replication 1
        let out_text = probe.run_job(&identity_job("in", "out", false)).unwrap().output_text_bytes;
        let capacity = 2 * in_text + out_text + out_text / 2;

        let mk = |policy: RecoveryPolicy| {
            let engine = Engine::new(ClusterConfig {
                nodes: 1,
                disk_per_node: capacity,
                replication: 2,
                recovery: policy,
                ..Default::default()
            })
            .unwrap();
            engine.put_records("in", (0..40).map(|i| format!("word{i}"))).unwrap();
            let mut wf = Workflow::new(&engine, "deg");
            let res = wf.run_job(identity_job("in", "out", false));
            (res, wf.finish(&["out"]))
        };
        let (res, ff) = mk(RecoveryPolicy::FailFast);
        assert!(res.unwrap_err().is_disk_full());
        assert!(!ff.succeeded);

        let (res, deg) = mk(RecoveryPolicy::DegradeOnDiskFull);
        res.unwrap();
        assert!(deg.succeeded);
        assert!(deg.degraded_replication);
        assert_eq!(deg.stage_retries, 1);
    }

    #[test]
    fn degrade_at_replication_one_fails_fast() {
        // Regression: when the stage is already writing at replication 1
        // there is nothing to degrade — the policy must surface the
        // original DiskFull immediately, not burn a pointless retry.
        let probe = Engine::unbounded();
        probe.put_records("in", (0..40).map(|i| format!("word{i}"))).unwrap();
        let in_text = probe.hdfs().lock().usage(); // unbounded => replication 1
        let out_text = probe.run_job(&identity_job("in", "out", false)).unwrap().output_text_bytes;

        let engine = Engine::new(ClusterConfig {
            nodes: 1,
            disk_per_node: in_text + out_text / 2,
            recovery: RecoveryPolicy::DegradeOnDiskFull,
            ..Default::default()
        })
        .unwrap();
        engine.put_records("in", (0..40).map(|i| format!("word{i}"))).unwrap();
        let mut wf = Workflow::new(&engine, "deg1");
        let err = wf.run_job(identity_job("in", "out", false)).unwrap_err();
        assert!(err.is_disk_full());
        let stats = wf.finish_failed(&err);
        assert!(!stats.succeeded);
        assert_eq!(stats.stage_retries, 0, "no retry can help at replication 1");
        assert!(!stats.degraded_replication);

        // An explicit per-spec replication of 1 is equally non-degradable,
        // even when the DFS default is higher.
        let engine = Engine::new(ClusterConfig {
            nodes: 1,
            disk_per_node: 2 * in_text + out_text / 2,
            replication: 2,
            recovery: RecoveryPolicy::DegradeOnDiskFull,
            ..Default::default()
        })
        .unwrap();
        engine.put_records("in", (0..40).map(|i| format!("word{i}"))).unwrap();
        let mut wf = Workflow::new(&engine, "deg2");
        let mut spec = identity_job("in", "out", false);
        spec.replication = Some(1);
        let err = wf.run_job(spec).unwrap_err();
        assert!(err.is_disk_full());
        assert_eq!(wf.stats().stage_retries, 0);
    }

    #[test]
    fn empty_stage_is_a_typed_error_and_the_workflow_lives() {
        let engine = Engine::unbounded();
        engine.put_records("in", ["a".to_string()]).unwrap();
        let mut wf = Workflow::new(&engine, "empty");
        let err = wf.run_stage(vec![]).unwrap_err();
        assert!(matches!(&err, MrError::Op(m) if m == "empty stage"), "{err:?}");
        wf.run_job(identity_job("in", "out", false)).unwrap();
        let stats = wf.finish(&["out"]);
        assert!(stats.succeeded);
        assert_eq!(stats.mr_cycles, 1);
    }

    #[test]
    fn poisoned_input_exhausts_stage_retries_with_the_codec_error() {
        use crate::codec::Rec;
        let engine = Engine::new(
            ClusterConfig::default()
                .with_recovery(RecoveryPolicy::RetryStage { max_retries: 2, backoff_s: 1.0 }),
        )
        .unwrap();
        let records = vec!["a".to_string().to_bytes(), vec![2, 0, 0, 0, 0xff, 0xfe]];
        let mut file = crate::hdfs::DfsFile::default();
        for rec in &records {
            file.push_record(0, |buf| buf.extend_from_slice(rec)).unwrap();
        }
        file.text_bytes = 5;
        engine.hdfs().lock().put("in", file).unwrap();
        let mut wf = Workflow::new(&engine, "poison");
        let err = wf.run_job(identity_job("in", "out", false)).unwrap_err();
        assert!(matches!(err, MrError::Codec(_)), "{err:?}");
        let stats = wf.finish_failed(&err);
        assert!(!stats.succeeded);
        assert_eq!(stats.stage_retries, 2);
        assert_eq!(stats.failure, Some(err.to_string()));
        assert!(!engine.hdfs().lock().exists("out"));
    }
}
