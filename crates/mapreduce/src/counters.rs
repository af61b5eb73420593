//! Job and workflow statistics — the quantities the paper reports.
//!
//! Every figure in the evaluation is ultimately a function of these
//! counters: number of MR cycles, full scans of the input relation, HDFS
//! bytes read and written (× replication), and shuffle (map-output) bytes.

use crate::trace::JsonObject;
use std::collections::BTreeMap;

/// Operator-level counters: named `u64` counters recorded by map/reduce
/// operators through [`crate::TaskContext::count`] (Hadoop's user-defined
/// `Counter`s). The engine merges every task's counters into
/// [`JobStats::ops`]; merging is a per-name sum, so totals are independent
/// of task interleaving and worker count.
///
/// Names are `&'static str` by design: operators declare counter-name
/// constants, and recording is a `BTreeMap` bump with no allocation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpCounters {
    counts: BTreeMap<&'static str, u64>,
}

impl OpCounters {
    /// Empty counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to counter `name` (creating it at 0 first).
    pub fn add(&mut self, name: &'static str, delta: u64) {
        *self.counts.entry(name).or_insert(0) += delta;
    }

    /// Current value of counter `name` (0 if never recorded).
    pub fn get(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Merge another counter set into this one (per-name sum).
    pub fn merge(&mut self, other: &OpCounters) {
        for (&name, &v) in &other.counts {
            self.add(name, v);
        }
    }

    /// True when no counter was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Iterate counters in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counts.iter().map(|(&k, &v)| (k, v))
    }

    /// Render as a JSON object (`{"name":value,...}`), sorted by name.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        for (name, v) in self.iter() {
            o.u64(name, v);
        }
        o.finish()
    }
}

/// The q-error of a cardinality estimate: `max(est/actual, actual/est)`
/// with both sides clamped to ≥ 1 record, so empty outputs and sub-row
/// estimates stay finite. `1.0` is a perfect estimate.
pub fn q_error(estimated: f64, actual: f64) -> f64 {
    let est = estimated.max(1.0);
    let actual = actual.max(1.0);
    (est / actual).max(actual / est)
}

/// `Ok` when every law holds, else the first broken one, as stated.
fn first_broken(kind: &str, name: &str, laws: &[(bool, &str)]) -> Result<(), String> {
    match laws.iter().find(|(holds, _)| !holds) {
        Some((_, law)) => Err(format!("{kind} '{name}' breaks `{law}`")),
        None => Ok(()),
    }
}

/// Fault-injection counters for one job: what the failure model did and
/// what it cost. All counts are pure functions of `(seed, job, task)` via
/// [`crate::FaultConfig`], so they are independent of worker count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultStats {
    /// Map tasks scheduled (chunked work items; the denominator for the
    /// cost model's average-map-task time). Follows the engine's chunking,
    /// like the per-task trace spans.
    pub map_tasks_scheduled: u64,
    /// Wasted map-task attempts (failed, then retried).
    pub map_task_retries: u64,
    /// Wasted reduce-task attempts (failed, then retried).
    pub reduce_task_retries: u64,
    /// Simulated nodes that died during this job's map→reduce handoff.
    pub node_losses: u64,
    /// Completed map tasks re-executed because their node died before
    /// reducers fetched their output.
    pub maps_reexecuted: u64,
    /// Tasks selected as stragglers.
    pub straggler_tasks: u64,
    /// Speculative backup attempts launched for map-phase stragglers.
    pub speculative_map_tasks: u64,
    /// Speculative backup attempts launched for reduce-phase stragglers.
    pub speculative_reduce_tasks: u64,
    /// Speculative backups that finished before the original attempt.
    pub speculative_wins: u64,
    /// Extra map-phase critical-path time from stragglers, in units of
    /// one average map-task time (Σ over stragglers of `effective − 1`).
    pub map_straggler_units: f64,
    /// Extra reduce-phase critical-path time from stragglers, in units of
    /// one average reduce-task time.
    pub reduce_straggler_units: f64,
    /// Checksum mismatches detected by the verified data plane (shuffle
    /// bucket or DFS block), each triggering a recovery refetch.
    pub corruptions_detected: u64,
    /// Map tasks re-executed because a reducer detected a corrupt shuffle
    /// bucket (Hadoop's fetch-failure path) — priced like node-loss
    /// re-executions.
    pub corrupt_refetches: u64,
    /// DFS reads re-fetched from a replica after a block checksum
    /// mismatch.
    pub dfs_refetches: u64,
}

impl FaultStats {
    /// Total speculative backup attempts launched (both phases).
    pub fn speculative_tasks(&self) -> u64 {
        self.speculative_map_tasks + self.speculative_reduce_tasks
    }
}

/// Counters for one MapReduce job.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobStats {
    /// Job name (for reports).
    pub name: String,
    /// Records read from DFS input files.
    pub input_records: u64,
    /// Text bytes read from DFS input files.
    pub hdfs_read_bytes: u64,
    /// Map output records (== shuffle records for jobs with a reduce).
    pub map_output_records: u64,
    /// Map output text bytes (== shuffle bytes for jobs with a reduce).
    pub map_output_bytes: u64,
    /// Map output bytes *post-encoding* — the exact size of the encoded
    /// key/value bytes spilled to the shuffle, as opposed to the
    /// text-model `map_output_bytes`. The two differ by framing: the wire
    /// is a binary framing of the same lexical tokens (length prefixes,
    /// counts and tags in place of tab/newline separators), and the larger
    /// of the two — 25.4 MB against 20.9 MB of modelled text on the
    /// `ntga_multicycle` ledger workload. 0 for map-only jobs (nothing is
    /// shuffled).
    pub map_output_encoded_bytes: u64,
    /// Shuffle bytes routed to each reduce partition (indexed by partition
    /// number; empty for map-only jobs). Sums to `map_output_bytes` on
    /// jobs with a reduce phase.
    pub shuffle_partition_bytes: Vec<u64>,
    /// Number of distinct reduce keys (groups).
    pub reduce_groups: u64,
    /// Records delivered to reducers (equals map output records).
    pub reduce_input_records: u64,
    /// Records written to the output files.
    pub output_records: u64,
    /// Records written to each output file, in [`crate::JobSpec`] output
    /// order. Sums to `output_records`.
    pub output_file_records: Vec<u64>,
    /// Text bytes written to the output file (before replication).
    pub output_text_bytes: u64,
    /// Bytes charged to DFS for the output (text bytes × replication).
    pub hdfs_write_bytes: u64,
    /// Replication factor the job wrote its output at: the spec's
    /// override, else the DFS default.
    pub replication: u32,
    /// Number of map tasks.
    pub map_tasks: u64,
    /// Number of reduce tasks (0 for map-only jobs).
    pub reduce_tasks: u64,
    /// Wasted task attempts due to injected failures (each failed attempt
    /// was retried; the successful attempt's output is what shipped).
    /// Equals `faults.map_task_retries + faults.reduce_task_retries`.
    pub task_retries: u64,
    /// Detailed fault-injection counters (node losses, re-executed maps,
    /// stragglers, speculative backups, detected corruptions).
    pub faults: FaultStats,
    /// Simulated seconds lost to faults: wasted attempts, re-executed
    /// maps, and speculative duplicates, priced by
    /// [`crate::CostModel::retry_seconds`]. Included in `sim_seconds`.
    pub retry_seconds: f64,
    /// True if this job scanned the base input relation in full
    /// (the paper's "FS" column in Figure 3).
    pub full_input_scan: bool,
    /// Broadcast side files attached to this job (the simulated
    /// distributed cache; 0 for ordinary jobs).
    pub broadcast_files: u64,
    /// Total text bytes of the broadcast side files (one copy).
    pub broadcast_bytes: u64,
    /// Bytes moved to distribute the broadcast payload: one copy per map
    /// task, priced by the cost model at HDFS read bandwidth.
    pub broadcast_ship_bytes: u64,
    /// The planner's estimated output cardinality, when an optimizer
    /// supplied one in [`crate::JobSpec::estimated_output_records`];
    /// compared against `output_records` by [`JobStats::q_error`].
    pub estimated_output_records: Option<f64>,
    /// Simulated wall-clock seconds for this job (from the cost model).
    pub sim_seconds: f64,
    /// Portion of `sim_seconds` that is fixed job-startup overhead.
    pub startup_seconds: f64,
    /// Operator-level counters recorded by this job's map/reduce operators
    /// (see [`OpCounters`]); empty for jobs whose operators record none.
    pub ops: OpCounters,
    /// Peak `SpillArena` footprint (payload bytes + index
    /// entries) of any merged reduce partition, in bytes. Arenas only
    /// grow, so the end-of-phase footprint *is* the high-water mark.
    /// Always recorded (the accounting is O(partitions), not O(records)).
    pub peak_arena_bytes: u64,
    /// Peak live bytes held by a single task: the largest map-task
    /// emitter footprint or reduce-partition footprint, whichever is
    /// larger. Worker-count-invariant because task chunking is.
    pub peak_task_live_bytes: u64,
    /// High-water mark of any spill index (entry count of the largest
    /// arena index), bounding the sort working set.
    pub peak_spill_entries: u64,
}

impl JobStats {
    /// Shuffle bytes under the text-row cost model (alias for map output
    /// bytes on jobs with a reduce phase; 0 for map-only jobs). Compare
    /// [`shuffle_wire_bytes`](Self::shuffle_wire_bytes), the post-encoding
    /// size of what the shuffle actually moved.
    pub fn shuffle_bytes(&self) -> u64 {
        if self.reduce_tasks > 0 {
            self.map_output_bytes
        } else {
            0
        }
    }

    /// Post-encoding shuffle bytes: the exact wire size of the encoded
    /// key/value records the map phase spilled (0 for map-only jobs).
    /// Differs from the text-model [`shuffle_bytes`](Self::shuffle_bytes)
    /// by the framing (see
    /// [`map_output_encoded_bytes`](Self::map_output_encoded_bytes)).
    pub fn shuffle_wire_bytes(&self) -> u64 {
        if self.reduce_tasks > 0 {
            self.map_output_encoded_bytes
        } else {
            0
        }
    }

    /// Shuffle bytes routed to the most-loaded reduce partition (0 when
    /// the job has no reduce phase).
    pub fn max_partition_shuffle_bytes(&self) -> u64 {
        if self.reduce_tasks == 0 {
            return 0;
        }
        self.shuffle_partition_bytes.iter().copied().max().unwrap_or(0)
    }

    /// The [`q_error`] of the planner's estimate against the records the
    /// job wrote; `None` when the job carried no estimate (no optimizer
    /// planned it).
    pub fn q_error(&self) -> Option<f64> {
        Some(q_error(self.estimated_output_records?, self.output_records as f64))
    }

    /// Reduce skew: the most-loaded partition's shuffle bytes divided by
    /// the mean per-partition load. `1.0` means perfectly balanced; `r`
    /// (the reduce-task count) means one partition received everything.
    /// Returns `1.0` when there was no shuffle at all.
    pub fn reduce_skew(&self) -> f64 {
        let total: u64 = self.shuffle_partition_bytes.iter().sum();
        if self.reduce_tasks == 0 || total == 0 {
            return 1.0;
        }
        let max = self.max_partition_shuffle_bytes() as f64;
        let mean = total as f64 / self.shuffle_partition_bytes.len() as f64;
        max / mean
    }

    /// The conservation laws between this job's counters, stated once:
    /// `Err` names the first one broken. [`crate::Workflow`] checks every
    /// job it runs under `debug_assert!`.
    pub fn check_invariants(&self) -> Result<(), String> {
        let reduces = self.reduce_tasks > 0;
        let partitions = &self.shuffle_partition_bytes;
        let f = &self.faults;
        let laws = [
            (
                !reduces || partitions.len() as u64 == self.reduce_tasks,
                "one shuffle partition per reduce task",
            ),
            (
                !reduces || partitions.iter().sum::<u64>() == self.map_output_bytes,
                "shuffle partitions sum to map_output_bytes",
            ),
            (
                !reduces || self.reduce_input_records == self.map_output_records,
                "reduce_input_records == map_output_records",
            ),
            (
                !reduces || self.reduce_groups <= self.reduce_input_records,
                "reduce_groups <= reduce_input_records",
            ),
            (reduces || partitions.is_empty(), "map-only: no shuffle partitions"),
            (reduces || self.map_output_encoded_bytes == 0, "map-only: no wire bytes"),
            (reduces || self.reduce_groups == 0, "map-only: no reduce groups"),
            (
                self.task_retries == f.map_task_retries + f.reduce_task_retries,
                "task_retries == map + reduce task retries",
            ),
            (
                f.corruptions_detected == f.corrupt_refetches + f.dfs_refetches,
                "corruptions_detected == corrupt + dfs refetches",
            ),
            (
                self.broadcast_ship_bytes == self.broadcast_bytes * self.map_tasks,
                "broadcast_ship_bytes == broadcast_bytes * map_tasks",
            ),
            (
                self.sim_seconds >= self.startup_seconds + self.retry_seconds,
                "sim_seconds >= startup_seconds + retry_seconds",
            ),
            (
                self.hdfs_write_bytes == self.output_text_bytes * u64::from(self.replication),
                "hdfs_write_bytes == output_text_bytes * replication",
            ),
            (
                self.output_file_records.iter().sum::<u64>() == self.output_records,
                "output file records sum to output_records",
            ),
        ];
        first_broken("job", &self.name, &laws)
    }
}

/// Aggregated counters for a whole workflow (one query execution).
#[derive(Debug, Clone, Default)]
pub struct WorkflowStats {
    /// Label for reports (e.g. "Pig/B3").
    pub label: String,
    /// Per-job statistics in execution order.
    pub jobs: Vec<JobStats>,
    /// Number of MR cycles (stages); concurrent jobs in a stage count as
    /// one cycle, matching how the paper counts Pig's concurrent jobs.
    pub mr_cycles: u64,
    /// Number of full scans of the base input relation.
    pub full_scans: u64,
    /// Total simulated seconds (stage makespans summed).
    pub sim_seconds: f64,
    /// True if the workflow completed; false if it aborted (e.g. DiskFull).
    pub succeeded: bool,
    /// Error message when `succeeded` is false.
    pub failure: Option<String>,
    /// Peak DFS usage observed during the workflow.
    pub peak_disk_bytes: u64,
    /// Stage attempts re-run by a [`crate::workflow::RecoveryPolicy`]
    /// after a failure (0 under `FailFast`).
    pub stage_retries: u64,
    /// Simulated seconds charged as recovery backoff between stage
    /// attempts. Included in `sim_seconds`.
    pub backoff_seconds: f64,
    /// True if `DegradeOnDiskFull` dropped a stage's output replication to
    /// 1 to survive a `DiskFull` failure.
    pub degraded_replication: bool,
}

impl WorkflowStats {
    /// Sum of HDFS read bytes over all jobs.
    pub fn total_read_bytes(&self) -> u64 {
        self.jobs.iter().map(|j| j.hdfs_read_bytes).sum()
    }

    /// Sum of HDFS write bytes (× replication) over all jobs.
    pub fn total_write_bytes(&self) -> u64 {
        self.jobs.iter().map(|j| j.hdfs_write_bytes).sum()
    }

    /// Sum of HDFS write bytes for *intermediate* jobs only — what the
    /// paper means by "intermediate HDFS writes". On a successful workflow
    /// that is every job but the last; on a failed workflow no job produced
    /// a final output, so *all* completed jobs' writes were intermediate.
    pub fn intermediate_write_bytes(&self) -> u64 {
        if !self.succeeded {
            return self.total_write_bytes();
        }
        if self.jobs.len() <= 1 {
            return 0;
        }
        self.jobs[..self.jobs.len() - 1].iter().map(|j| j.hdfs_write_bytes).sum()
    }

    /// Operator-level counters merged across every job in the workflow.
    pub fn op_counters(&self) -> OpCounters {
        let mut total = OpCounters::new();
        for job in &self.jobs {
            total.merge(&job.ops);
        }
        total
    }

    /// Sum of text-model shuffle bytes over all jobs.
    pub fn total_shuffle_bytes(&self) -> u64 {
        self.jobs.iter().map(JobStats::shuffle_bytes).sum()
    }

    /// Sum of post-encoding shuffle wire bytes over all jobs.
    pub fn total_shuffle_wire_bytes(&self) -> u64 {
        self.jobs.iter().map(JobStats::shuffle_wire_bytes).sum()
    }

    /// Records in the final output (0 if the workflow failed before the
    /// last job).
    pub fn final_output_records(&self) -> u64 {
        self.jobs.last().map_or(0, |j| j.output_records)
    }

    /// Text bytes of the final output (0 if the workflow failed before the
    /// last job).
    pub fn final_output_text_bytes(&self) -> u64 {
        self.jobs.last().map_or(0, |j| j.output_text_bytes)
    }

    /// Wasted task attempts summed over all jobs.
    pub fn total_task_retries(&self) -> u64 {
        self.jobs.iter().map(|j| j.task_retries).sum()
    }

    /// Simulated seconds lost to faults, summed over all jobs (wasted
    /// attempts, re-executed maps, speculative duplicates).
    pub fn total_retry_seconds(&self) -> f64 {
        self.jobs.iter().map(|j| j.retry_seconds).sum()
    }

    /// Simulated node deaths summed over all jobs.
    pub fn total_node_losses(&self) -> u64 {
        self.jobs.iter().map(|j| j.faults.node_losses).sum()
    }

    /// Speculative backup attempts launched, over all jobs.
    pub fn total_speculative_tasks(&self) -> u64 {
        self.jobs.iter().map(|j| j.faults.speculative_tasks()).sum()
    }

    /// Checksum mismatches detected by the data plane, over all jobs.
    pub fn total_corruptions_detected(&self) -> u64 {
        self.jobs.iter().map(|j| j.faults.corruptions_detected).sum()
    }

    /// Worst reduce skew over all jobs in the workflow (1.0 when no job
    /// shuffled anything).
    pub fn max_reduce_skew(&self) -> f64 {
        self.jobs.iter().map(JobStats::reduce_skew).fold(1.0, f64::max)
    }

    /// Worst cardinality q-error over all jobs carrying an estimate;
    /// `None` when no job in the workflow was planned with one.
    pub fn max_q_error(&self) -> Option<f64> {
        self.jobs.iter().filter_map(JobStats::q_error).reduce(f64::max)
    }

    /// Largest merged-arena footprint over all jobs (bytes).
    pub fn peak_arena_bytes(&self) -> u64 {
        self.jobs.iter().map(|j| j.peak_arena_bytes).max().unwrap_or(0)
    }

    /// Largest single-task live-byte high-water mark over all jobs.
    pub fn peak_task_live_bytes(&self) -> u64 {
        self.jobs.iter().map(|j| j.peak_task_live_bytes).max().unwrap_or(0)
    }

    /// Largest spill-index entry count over all jobs.
    pub fn peak_spill_entries(&self) -> u64 {
        self.jobs.iter().map(|j| j.peak_spill_entries).max().unwrap_or(0)
    }

    /// Most-loaded reduce partition's shuffle bytes, over all jobs (0 when
    /// nothing was shuffled). The absolute counterpart of
    /// [`max_reduce_skew`](Self::max_reduce_skew).
    pub fn max_partition_shuffle_bytes(&self) -> u64 {
        self.jobs.iter().map(JobStats::max_partition_shuffle_bytes).max().unwrap_or(0)
    }

    /// Every job's [`JobStats::check_invariants`], then the laws between
    /// the workflow's own counters and its job list.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.jobs.iter().try_for_each(JobStats::check_invariants)?;
        let scans = self.jobs.iter().filter(|j| j.full_input_scan).count() as u64;
        let laws = [
            (self.full_scans == scans, "full_scans == jobs with full_input_scan"),
            (self.mr_cycles <= self.jobs.len() as u64, "mr_cycles <= jobs.len()"),
            (self.succeeded == self.failure.is_none(), "succeeded <=> failure.is_none()"),
        ];
        first_broken("workflow", &self.label, &laws)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(read: u64, write: u64, shuffle: u64, reduce_tasks: u64) -> JobStats {
        JobStats {
            hdfs_read_bytes: read,
            hdfs_write_bytes: write,
            map_output_bytes: shuffle,
            reduce_tasks,
            ..JobStats::default()
        }
    }

    #[test]
    fn totals() {
        let wf = WorkflowStats {
            jobs: vec![job(100, 50, 80, 2), job(50, 20, 30, 2)],
            succeeded: true,
            ..WorkflowStats::default()
        };
        assert_eq!(wf.total_read_bytes(), 150);
        assert_eq!(wf.total_write_bytes(), 70);
        assert_eq!(wf.intermediate_write_bytes(), 50);
        assert_eq!(wf.total_shuffle_bytes(), 110);
    }

    #[test]
    fn failed_workflow_counts_every_write_as_intermediate() {
        // A failed workflow never produced a final output: the last
        // completed job's writes are intermediate too.
        let mut wf = WorkflowStats {
            jobs: vec![job(100, 50, 80, 2), job(50, 20, 30, 2)],
            succeeded: true,
            ..WorkflowStats::default()
        };
        assert_eq!(wf.intermediate_write_bytes(), 50);
        wf.succeeded = false;
        assert_eq!(wf.intermediate_write_bytes(), 70);
        // Even a single-job failed workflow: its one write was intermediate.
        let single = WorkflowStats { jobs: vec![job(1, 9, 0, 1)], ..WorkflowStats::default() };
        assert_eq!(single.intermediate_write_bytes(), 9);
    }

    #[test]
    fn map_only_jobs_do_not_shuffle() {
        let j = job(10, 10, 999, 0);
        assert_eq!(j.shuffle_bytes(), 0);
    }

    #[test]
    fn skew_is_max_over_mean() {
        let mut j = job(0, 0, 90, 3);
        j.shuffle_partition_bytes = vec![60, 20, 10];
        // mean = 30, max = 60
        assert_eq!(j.max_partition_shuffle_bytes(), 60);
        assert!((j.reduce_skew() - 2.0).abs() < 1e-9);

        let balanced = JobStats {
            reduce_tasks: 2,
            shuffle_partition_bytes: vec![40, 40],
            ..JobStats::default()
        };
        assert!((balanced.reduce_skew() - 1.0).abs() < 1e-9);

        // Map-only and empty-shuffle jobs report neutral skew.
        assert!((job(1, 1, 0, 0).reduce_skew() - 1.0).abs() < 1e-9);
        assert!((job(1, 1, 0, 4).reduce_skew() - 1.0).abs() < 1e-9);
        assert_eq!(job(1, 1, 0, 0).max_partition_shuffle_bytes(), 0);
    }

    #[test]
    fn workflow_max_reduce_skew() {
        let mut skewed = job(0, 0, 100, 2);
        skewed.shuffle_partition_bytes = vec![100, 0];
        let wf = WorkflowStats { jobs: vec![job(1, 1, 0, 0), skewed], ..WorkflowStats::default() };
        assert!((wf.max_reduce_skew() - 2.0).abs() < 1e-9);
        assert!((WorkflowStats::default().max_reduce_skew() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn single_job_has_no_intermediate_writes() {
        let wf = WorkflowStats {
            jobs: vec![job(1, 9, 0, 1)],
            succeeded: true,
            ..WorkflowStats::default()
        };
        assert_eq!(wf.intermediate_write_bytes(), 0);
        assert_eq!(wf.total_write_bytes(), 9);
    }

    #[test]
    fn fault_aggregates_sum_over_jobs() {
        let mut j1 = job(0, 0, 0, 1);
        j1.task_retries = 2;
        j1.retry_seconds = 1.5;
        j1.faults.node_losses = 1;
        j1.faults.maps_reexecuted = 3;
        j1.faults.speculative_map_tasks = 1;
        let mut j2 = job(0, 0, 0, 1);
        j2.task_retries = 1;
        j2.retry_seconds = 0.25;
        j2.faults.speculative_reduce_tasks = 2;
        j2.faults.corruptions_detected = 2;
        j2.faults.corrupt_refetches = 1;
        j2.output_records = 7;
        j2.output_text_bytes = 70;
        let wf = WorkflowStats { jobs: vec![j1, j2], succeeded: true, ..WorkflowStats::default() };
        assert_eq!(wf.total_task_retries(), 3);
        assert!((wf.total_retry_seconds() - 1.75).abs() < 1e-12);
        assert_eq!(wf.total_node_losses(), 1);
        assert_eq!(wf.total_speculative_tasks(), 3);
        assert_eq!(wf.total_corruptions_detected(), 2);
        assert_eq!(wf.final_output_records(), 7);
        assert_eq!(wf.final_output_text_bytes(), 70);
        assert_eq!(WorkflowStats::default().final_output_text_bytes(), 0);
    }

    #[test]
    fn memory_marks_aggregate() {
        let mut j1 = job(0, 0, 0, 1);
        j1.peak_arena_bytes = 100;
        j1.peak_task_live_bytes = 40;
        j1.peak_spill_entries = 8;
        let mut j2 = job(0, 0, 0, 2);
        j2.shuffle_partition_bytes = vec![70, 30];
        j2.peak_arena_bytes = 60;
        j2.peak_task_live_bytes = 90;
        j2.peak_spill_entries = 3;
        let wf = WorkflowStats { jobs: vec![j1, j2], succeeded: true, ..WorkflowStats::default() };
        assert_eq!(wf.peak_arena_bytes(), 100);
        assert_eq!(wf.peak_task_live_bytes(), 90);
        assert_eq!(wf.peak_spill_entries(), 8);
        assert_eq!(wf.max_partition_shuffle_bytes(), 70);
        assert_eq!(WorkflowStats::default().peak_arena_bytes(), 0);
        assert_eq!(WorkflowStats::default().max_partition_shuffle_bytes(), 0);
    }

    /// A job with a reduce phase that keeps every law.
    fn lawful() -> JobStats {
        JobStats {
            name: "j".into(),
            map_output_records: 4,
            map_output_bytes: 30,
            map_output_encoded_bytes: 40,
            shuffle_partition_bytes: vec![10, 20],
            reduce_tasks: 2,
            reduce_input_records: 4,
            reduce_groups: 3,
            output_records: 5,
            output_file_records: vec![2, 3],
            output_text_bytes: 12,
            replication: 2,
            hdfs_write_bytes: 24,
            ..JobStats::default()
        }
    }

    #[test]
    fn each_broken_job_law_is_named() {
        type Break = (fn(&mut JobStats), &'static str);
        let map_only = || JobStats { name: "j".into(), ..JobStats::default() };
        let with_reduce: [Break; 10] = [
            (|j| j.shuffle_partition_bytes.push(0), "one shuffle partition per reduce task"),
            (|j| j.shuffle_partition_bytes[0] += 1, "shuffle partitions sum to map_output_bytes"),
            (|j| j.reduce_input_records += 1, "reduce_input_records == map_output_records"),
            (|j| j.reduce_groups = 9, "reduce_groups <= reduce_input_records"),
            (|j| j.task_retries += 1, "task_retries == map + reduce task retries"),
            (|j| j.faults.dfs_refetches += 1, "corruptions_detected == corrupt + dfs refetches"),
            (
                |j| j.broadcast_ship_bytes += 1,
                "broadcast_ship_bytes == broadcast_bytes * map_tasks",
            ),
            (|j| j.retry_seconds = 1.0, "sim_seconds >= startup_seconds + retry_seconds"),
            (|j| j.replication = 3, "hdfs_write_bytes == output_text_bytes * replication"),
            (|j| j.output_file_records[1] += 1, "output file records sum to output_records"),
        ];
        let without: [Break; 3] = [
            (|j| j.shuffle_partition_bytes.push(0), "map-only: no shuffle partitions"),
            (|j| j.map_output_encoded_bytes = 1, "map-only: no wire bytes"),
            (|j| j.reduce_groups = 1, "map-only: no reduce groups"),
        ];
        let cases = [(lawful as fn() -> JobStats, &with_reduce[..]), (map_only, &without[..])];
        for (lawful_job, breaks) in cases {
            assert_eq!(lawful_job().check_invariants(), Ok(()));
            for (break_it, law) in breaks {
                let mut job = lawful_job();
                break_it(&mut job);
                assert_eq!(job.check_invariants(), Err(format!("job 'j' breaks `{law}`")));
            }
        }
    }

    #[test]
    fn each_broken_workflow_law_is_named() {
        let broken = |break_it: fn(&mut WorkflowStats)| {
            let mut wf = WorkflowStats {
                label: "w".into(),
                jobs: vec![JobStats { full_input_scan: true, ..lawful() }],
                mr_cycles: 1,
                full_scans: 1,
                succeeded: true,
                ..WorkflowStats::default()
            };
            assert_eq!(wf.check_invariants(), Ok(()));
            break_it(&mut wf);
            wf.check_invariants().unwrap_err()
        };
        assert_eq!(
            broken(|w| w.full_scans = 0),
            "workflow 'w' breaks `full_scans == jobs with full_input_scan`"
        );
        assert_eq!(broken(|w| w.mr_cycles = 2), "workflow 'w' breaks `mr_cycles <= jobs.len()`");
        assert_eq!(
            broken(|w| w.failure = Some("boom".into())),
            "workflow 'w' breaks `succeeded <=> failure.is_none()`"
        );
        // A job's broken law is the workflow's.
        assert_eq!(
            broken(|w| w.jobs[0].task_retries = 1),
            "job 'j' breaks `task_retries == map + reduce task retries`"
        );
    }

    #[test]
    fn op_counters_merge_and_aggregate() {
        let mut a = OpCounters::new();
        assert!(a.is_empty());
        assert_eq!(a.get("x"), 0);
        a.add("x", 2);
        a.add("x", 3);
        a.add("y", 1);
        let mut b = OpCounters::new();
        b.add("x", 10);
        b.add("z", 7);
        a.merge(&b);
        assert_eq!(a.get("x"), 15);
        assert_eq!(a.get("y"), 1);
        assert_eq!(a.get("z"), 7);
        // Iteration is name-ordered and JSON matches it.
        let names: Vec<&str> = a.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["x", "y", "z"]);
        assert_eq!(a.to_json(), r#"{"x":15,"y":1,"z":7}"#);
        assert_eq!(OpCounters::new().to_json(), "{}");

        // Workflow-level aggregation merges per-job counters.
        let mut j1 = job(0, 0, 0, 1);
        j1.ops.add("x", 1);
        let mut j2 = job(0, 0, 0, 1);
        j2.ops.add("x", 2);
        j2.ops.add("y", 4);
        let wf = WorkflowStats { jobs: vec![j1, j2], succeeded: true, ..WorkflowStats::default() };
        let total = wf.op_counters();
        assert_eq!(total.get("x"), 3);
        assert_eq!(total.get("y"), 4);
    }
}
