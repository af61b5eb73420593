//! The MapReduce execution engine.
//!
//! [`Engine::run_job`] executes one job: parallel map over input splits
//! with map-side shuffle partitioning, per-partition sort, parallel
//! reduce, and an output write to the simulated HDFS (which may fail with
//! `DiskFull`). Every phase updates the byte/record counters of
//! [`JobStats`], and the configured [`CostModel`] converts them into
//! simulated seconds.
//!
//! Map tasks are *byte-sized* input splits: a file is cut wherever the
//! accumulated encoded bytes reach `max(total / 32, 32 KiB)`, so a few
//! hundred fat nested triplegroups fan out over the worker pool just as
//! tens of thousands of thin triples do, and the split list depends on
//! the input file alone — never on the worker count.
//!
//! The shuffle mirrors Hadoop's: each map task spills its output into one
//! `SpillArena` (the `spill` module) per reduce partition as it emits
//! (FNV-1a on the key
//! bytes — not Rust's randomly-seeded default hasher), sorts and seals
//! each bucket, and every reduce partition then *fetches* its column of
//! buckets as one unit of work on the worker pool: verify the seal, then
//! take the bucket in as a sorted run whose buffer stays where the map
//! task wrote it (the partition indexes it as one chunk; only the index
//! entries are copied). No shuffle byte is copied after emission: the
//! driver only injects faults and does per-task bookkeeping, in task
//! order. No owned per-record pairs are ever built: emissions encode
//! straight into the arena, and sorting and reducing both operate on
//! borrowed `&[u8]` slices of it.
//!
//! Output is checksummed by its writer, as an HDFS client checksums the
//! blocks it writes: each reduce or map-only task checksums its records
//! per output file as it closes, on its own worker, and the committed
//! [`DfsFile`] keeps one `(end record, checksum)` block per writing task.
//! The driver's commit only checks capacity and stores the file.
//!
//! Determinism: the same job over the same inputs produces byte-identical
//! output files and identical counters regardless of worker count. Map
//! output is fetched in input (task) order, and each reduce partition's
//! record *index* is brought into the canonical `(key bytes, value bytes)`
//! order before grouping: each map task sorts its buckets on the cached
//! key prefixes and the reduce side k-way merges the absorbed
//! sorted runs. This is observationally deterministic because entries
//! comparing equal are byte-identical records (see the `spill` module
//! docs).

use crate::config::ClusterConfig;
use crate::cost::CostModel;
use crate::counters::JobStats;
use crate::error::MrError;
use crate::faults::FaultConfig;
use crate::hdfs::{DfsFile, SimHdfs};
use crate::job::{
    JobKind, JobSpec, MapEmitter, OutEmitter, RawMapOnlyOp, RawMapOp, TaskContext, TaskReport,
};
use crate::spill::SpillArena;
use crate::trace::{TaskPhase, TraceEvent, TraceSink};
use crate::workflow::RecoveryPolicy;
use parking_lot::Mutex;
use rdf_model::hash::fnv1a;
use std::ops::Range;
use std::sync::Arc;

/// Partition a reduce key to one of `n` reducers (Hadoop's
/// `hash(key) % numReducers` with a deterministic hash).
///
/// Total over all `n`: with one (or zero) partitions every key maps to
/// partition 0 instead of panicking on `% 0`, so callers may feed it a
/// partition count straight from a possibly-degenerate job spec.
pub fn default_partition(key: &[u8], n: usize) -> usize {
    if n <= 1 {
        return 0;
    }
    (fnv1a(key) % n as u64) as usize
}

/// Smallest map split worth a task of its own, in encoded input bytes
/// (see [`Engine::chunk`]).
const SPLIT_FLOOR_BYTES: usize = 32 * 1024;

/// Simulated HDFS block size (the paper's 256 MB blocks): a file's
/// `map_tasks` statistic is its text bytes over this, and the optimizer
/// prices one broadcast copy per block of the probe side.
pub const BLOCK_SIZE_BYTES: u64 = 256 * 1024 * 1024;

/// Default [`ClusterConfig::broadcast_budget_bytes`], about a task heap's worth;
/// the optimizer's default broadcast-join threshold is the same constant.
pub const DEFAULT_BROADCAST_BUDGET_BYTES: u64 = 64 * 1024 * 1024;

/// The engine: a simulated cluster (DFS + workers + cost model), built by
/// [`Engine::new`]; of its settings only the cost model can change after.
pub struct Engine {
    hdfs: Arc<Mutex<SimHdfs>>,
    /// Cost model used to fill `JobStats::sim_seconds`.
    pub cost: CostModel,
    /// Number of OS worker threads for map/reduce task execution.
    pub(crate) workers: usize,
    /// Task-failure injection (default: no failures).
    pub(crate) faults: FaultConfig,
    /// Recovery policy inherited by workflows started on this engine
    /// (default: [`RecoveryPolicy::FailFast`]).
    pub(crate) recovery: RecoveryPolicy,
    /// Optional trace sink receiving [`TraceEvent`]s. `None` (the default)
    /// disables tracing entirely: no events are constructed.
    pub(crate) trace: Option<Arc<dyn TraceSink>>,
    /// See [`ClusterConfig::broadcast_budget_bytes`].
    broadcast_budget_bytes: u64,
    /// When true (the default, matching Hadoop's always-on block
    /// checksums), map output is sealed with a checksum per spill bucket
    /// and verified when the shuffle absorbs it, and DFS reads are
    /// verified against the checksum recorded at commit. A mismatch is
    /// handled like Hadoop's fetch failure: the clean copy is recovered
    /// (re-executed map / replica re-read), the incident is counted in
    /// [`crate::FaultStats`] and priced into `retry_seconds`, and the job
    /// proceeds. Only this crate's tests turn it off, to show that
    /// injected corruption then reaches job output: the checksums are
    /// load-bearing.
    verify_checksums: bool,
}

/// Per-task metadata collected only while tracing, to lay task spans on
/// the simulated timeline after the job's counters are known.
#[derive(Default)]
struct TraceScratch {
    /// `(records, encoded input bytes)` per map task.
    map_tasks: Vec<(u64, u64)>,
    /// `(records, shuffle bytes)` per reduce partition.
    reduce_tasks: Vec<(u64, u64)>,
}

/// Each task's share of its phase's cost-model seconds, from the tasks'
/// `(records, bytes)`: by bytes, by records when no task has bytes, equal
/// when neither.
fn share_seconds(tasks: &[(u64, u64)], phase_seconds: f64) -> impl Iterator<Item = f64> + '_ {
    let total_bytes: u64 = tasks.iter().map(|&(_, b)| b).sum();
    let total_records: u64 = tasks.iter().map(|&(r, _)| r).sum();
    tasks.iter().map(move |&(records, bytes)| {
        let share = if total_bytes > 0 {
            bytes as f64 / total_bytes as f64
        } else if total_records > 0 {
            records as f64 / total_records as f64
        } else {
            1.0 / tasks.len() as f64
        };
        phase_seconds * share
    })
}

/// One job output file as its tasks are folded in: its records, text
/// bytes and `(end record, checksum)` writer blocks.
type Written = (Vec<Vec<u8>>, u64, Vec<(usize, u64)>);

/// Fold the tasks' outputs, in task order, into the job's output files,
/// each task's records in an output file becoming one block under the
/// checksum the task took as it closed ([`OutEmitter::block_checksums`]).
/// A task bounds only its own output against the disk budget, so the
/// aggregate is re-checked as each task is folded in: the job aborts at the
/// first task that takes it over.
fn collect_outputs(
    tasks: impl Iterator<Item = (OutEmitter, Vec<Option<u64>>)>,
    budget: Option<u64>,
    n_outputs: usize,
) -> Result<Vec<DfsFile>, MrError> {
    let mut files: Vec<Written> = (0..n_outputs).map(|_| Written::default()).collect();
    let mut total_text = 0u64;
    for (out, sums) in tasks {
        total_text += out.emitted_text;
        if let Some(available) = budget.filter(|&b| total_text > b) {
            return Err(MrError::DiskFull {
                file: "<job output>".into(),
                needed: total_text,
                available,
            });
        }
        for (idx, rec, text) in out.records {
            let (records, text_bytes, _) = &mut files[idx];
            records.push(rec);
            *text_bytes += text;
        }
        for ((records, _, blocks), sum) in files.iter_mut().zip(sums) {
            if let Some(sum) = sum {
                blocks.push((records.len(), sum));
            }
        }
    }
    Ok(files
        .into_iter()
        .map(|(records, text, blocks)| DfsFile::written(records, text, blocks))
        .collect())
}

impl Engine {
    /// Build an engine for `config`, the one place a cluster setting is
    /// checked: [`MrError::Op`] naming the field for no nodes, a
    /// replication factor of 0, `workers: Some(0)`, or a cost or fault
    /// setting out of range (see [`CostModel`] and [`FaultConfig`]).
    pub fn new(config: ClusterConfig) -> Result<Engine, MrError> {
        let zero = [
            ("nodes", config.nodes == 0),
            ("replication factor", config.replication == 0),
            ("workers", config.workers == Some(0)),
        ];
        if let Some((name, _)) = zero.into_iter().find(|&(_, zero)| zero) {
            return Err(MrError::Op(format!("cluster {name} must be >= 1")));
        }
        config.cost.check()?;
        config.faults.check()?;
        Ok(Engine::checked(config))
    }

    /// Engine over an unbounded DFS: the default [`ClusterConfig`].
    pub fn unbounded() -> Self {
        Engine::checked(ClusterConfig::default())
    }

    /// The engine for a `config` whose settings are in range.
    fn checked(config: ClusterConfig) -> Self {
        let capacity = u64::from(config.nodes).saturating_mul(config.disk_per_node);
        let workers = config
            .workers
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |n| n.get()));
        Engine {
            hdfs: Arc::new(Mutex::new(SimHdfs::new(capacity, config.replication))),
            cost: config.cost,
            workers,
            faults: config.faults,
            recovery: config.recovery,
            trace: config.trace,
            broadcast_budget_bytes: config.broadcast_budget_bytes,
            verify_checksums: true,
        }
    }

    /// The broadcast (distributed-cache) memory budget in bytes.
    pub fn broadcast_budget_bytes(&self) -> u64 {
        self.broadcast_budget_bytes
    }

    /// Switch data-plane checksum verification off (or back on).
    #[cfg(test)]
    pub(crate) fn with_verification(mut self, on: bool) -> Self {
        self.verify_checksums = on;
        self
    }

    /// Emit a trace event. The closure only runs when a sink is attached,
    /// so the disabled path costs one `Option` check.
    pub(crate) fn emit(&self, ev: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = &self.trace {
            sink.event(&ev());
        }
    }

    /// Base hash identifying one `(job, epoch, phase)` for fault draws.
    /// Task identities are `base.wrapping_add(task_index)`, so every draw
    /// (task failure, node loss, straggler, corruption) is a pure function
    /// of `(seed, job, epoch, phase, task)` — independent of worker count
    /// and thread schedule.
    fn fault_base(job: &str, epoch: u64, phase: TaskPhase) -> u64 {
        fnv1a(job.as_bytes()) ^ ((phase as u64) << 56) ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// Resolve injected faults for `n_tasks` tasks of one phase, updating
    /// `stats` (retry counters, node losses, straggler/speculation
    /// counters) and emitting the matching trace events. Returns the error
    /// for a task that exhausted its attempt budget.
    ///
    /// Task identities mix the job name, a phase tag, and the spec's
    /// `fault_epoch` (bumped by workflow stage retries so re-runs face
    /// fresh deterministic draws), so every decision is a pure function of
    /// `(seed, job, epoch, phase, task)` — independent of worker count and
    /// thread schedule.
    ///
    /// `holds_map_outputs` marks the map phase of a map-reduce job, whose
    /// completed task outputs sit on their node's local disk until the
    /// reducers fetch them — the only phase where node loss destroys
    /// finished work (Hadoop re-executes those maps; reduce and map-only
    /// output is committed to the DFS and survives).
    fn resolve_faults(
        &self,
        epoch: u64,
        phase: TaskPhase,
        n_tasks: usize,
        holds_map_outputs: bool,
        stats: &mut JobStats,
    ) -> Result<(), MrError> {
        if phase == TaskPhase::Map {
            stats.faults.map_tasks_scheduled += n_tasks as u64;
        }
        let f = &self.faults;
        if !f.any() || n_tasks == 0 {
            return Ok(());
        }
        let job = stats.name.clone();
        let base = Self::fault_base(&job, epoch, phase);

        if f.task_failure_probability > 0.0 {
            for i in 0..n_tasks {
                match f.attempts_needed(base.wrapping_add(i as u64)) {
                    Some(attempts) => {
                        let wasted = u64::from(attempts - 1);
                        if wasted > 0 {
                            match phase {
                                TaskPhase::Map => stats.faults.map_task_retries += wasted,
                                TaskPhase::Reduce => stats.faults.reduce_task_retries += wasted,
                            }
                            stats.task_retries += wasted;
                            self.emit(|| TraceEvent::TaskRetry {
                                job: job.clone(),
                                phase,
                                task: i as u64,
                                wasted_attempts: wasted,
                            });
                        }
                    }
                    None => {
                        return Err(MrError::TaskExhausted {
                            job: job.clone(),
                            phase: phase.as_str(),
                            task: i as u64,
                            attempts: f.max_attempts,
                        })
                    }
                }
            }
        }

        if holds_map_outputs && f.node_loss_probability > 0.0 {
            for (node, lost) in f.lost_nodes(base, n_tasks as u64) {
                stats.faults.node_losses += 1;
                stats.faults.maps_reexecuted += lost;
                self.emit(|| TraceEvent::NodeLoss {
                    job: job.clone(),
                    node: u64::from(node),
                    maps_lost: lost,
                });
            }
        }

        if f.straggler_probability > 0.0 {
            let (effective, backup, won) = f.straggler_outcome();
            for i in 0..n_tasks {
                if !f.is_straggler(base.wrapping_add(i as u64)) {
                    continue;
                }
                stats.faults.straggler_tasks += 1;
                match phase {
                    TaskPhase::Map => stats.faults.map_straggler_units += effective - 1.0,
                    TaskPhase::Reduce => stats.faults.reduce_straggler_units += effective - 1.0,
                }
                self.emit(|| TraceEvent::Straggler {
                    job: job.clone(),
                    phase,
                    task: i as u64,
                    slowdown: f.straggler_slowdown,
                    backup_won: backup.then_some(won),
                });
                if backup {
                    match phase {
                        TaskPhase::Map => stats.faults.speculative_map_tasks += 1,
                        TaskPhase::Reduce => stats.faults.speculative_reduce_tasks += 1,
                    }
                    if won {
                        stats.faults.speculative_wins += 1;
                    }
                }
            }
        }
        Ok(())
    }

    /// Access the DFS (e.g. to load inputs or read final outputs).
    pub fn hdfs(&self) -> &Mutex<SimHdfs> {
        &self.hdfs
    }

    /// Helper: store a collection of typed records as a DFS input file —
    /// a caller-built file, so one packed buffer checksummed in one pass
    /// at commit (see [`DfsFile`]). Knowing no lengths in advance, the
    /// buffer grows as records are encoded.
    pub fn put_records<T: crate::codec::Rec>(
        &self,
        name: &str,
        records: impl IntoIterator<Item = T>,
    ) -> Result<(), MrError> {
        let mut file = DfsFile::default();
        for r in records {
            file.push_record(r.text_size(), |buf| r.encode_into(buf))?;
        }
        self.hdfs.lock().put(name, file)
    }

    /// Helper: read a DFS file back as typed records, each through
    /// [`Rec::from_bytes`](crate::codec::Rec::from_bytes) — for tests and
    /// reports; operators read records in place.
    pub fn read_records<T: crate::codec::Rec>(&self, name: &str) -> Result<Vec<T>, MrError> {
        let file = self.hdfs.lock().get(name)?;
        file.iter().map(T::from_bytes).collect()
    }

    /// Execute one job to completion.
    pub fn run_job(&self, spec: &JobSpec) -> Result<JobStats, MrError> {
        spec.validate()?;
        let mut stats = JobStats { name: spec.name.clone(), ..JobStats::default() };
        stats.full_input_scan = spec.full_input_scan;
        let replication =
            spec.replication.unwrap_or_else(|| self.hdfs.lock().default_replication());
        stats.replication = replication;
        // Budget for early abort: text bytes this job may write.
        let budget = {
            let fs = self.hdfs.lock();
            if fs.capacity() == u64::MAX {
                None
            } else {
                Some(fs.available() / u64::from(replication))
            }
        };

        // Distributed cache: load declared broadcast side files once and
        // hand every task a shared handle. The whole payload must fit the
        // engine's task-memory budget — a build side that outgrows it
        // can't be broadcast-joined and the job is refused up front.
        let mut broadcast: Vec<Arc<DfsFile>> = Vec::with_capacity(spec.broadcast.len());
        for name in &spec.broadcast {
            broadcast.push(self.hdfs.lock().get(name)?);
        }
        stats.broadcast_files = broadcast.len() as u64;
        stats.broadcast_bytes = broadcast.iter().map(|f| f.text_bytes).sum();
        if stats.broadcast_bytes > self.broadcast_budget_bytes {
            return Err(MrError::BroadcastTooLarge {
                job: spec.name.clone(),
                needed: stats.broadcast_bytes,
                budget: self.broadcast_budget_bytes,
            });
        }

        self.emit(|| TraceEvent::JobStart { job: spec.name.clone() });
        let mut scratch = TraceScratch::default();
        let n_outputs = spec.outputs.len();
        let outputs = match &spec.kind {
            JobKind::MapOnly { files, mapper } => self.run_map_only(
                files,
                mapper.as_ref(),
                &broadcast,
                budget,
                n_outputs,
                spec.fault_epoch,
                &mut stats,
                &mut scratch,
            )?,
            JobKind::MapReduce { inputs, reducer, reduce_tasks } => {
                let partitions = self.run_map_phase(
                    inputs,
                    &broadcast,
                    *reduce_tasks,
                    spec.fault_epoch,
                    &mut stats,
                    &mut scratch,
                )?;
                stats.reduce_tasks = *reduce_tasks as u64;
                // The shuffle's sort work: how many map-side sorted runs
                // reached the reduce side, and how
                // many index entries the reducers order. Both are pure
                // functions of the input split, so the event stream stays
                // worker-count-invariant.
                self.emit(|| TraceEvent::SortPlan {
                    job: spec.name.clone(),
                    map_sorted_runs: partitions.iter().map(|p| p.sorted_run_count() as u64).sum(),
                    merge_entries: partitions.iter().map(|p| p.len() as u64).sum(),
                });
                if self.trace.is_some() {
                    for (p, part) in partitions.iter().enumerate() {
                        scratch
                            .reduce_tasks
                            .push((part.len() as u64, stats.shuffle_partition_bytes[p]));
                    }
                }
                self.run_reduce_phase(
                    partitions,
                    reducer.as_ref(),
                    &broadcast,
                    budget,
                    n_outputs,
                    spec.fault_epoch,
                    &mut stats,
                )?
            }
        };
        // One broadcast copy reaches every map task (Hadoop localizes per
        // node; the cost model is cluster-aggregate, so per-task is the
        // conservative charge). map_tasks is final once the phase ran.
        stats.broadcast_ship_bytes = stats.broadcast_bytes * stats.map_tasks;

        for output in &outputs {
            stats.output_file_records.push(output.len() as u64);
            stats.output_records += output.len() as u64;
            stats.output_text_bytes += output.text_bytes;
            stats.hdfs_write_bytes += output.text_bytes * u64::from(replication);
        }
        let mut written: Vec<&String> = Vec::new();
        for (name, output) in spec.outputs.iter().zip(outputs) {
            // Its own statement: the cleanup below takes the lock again.
            let put = self.hdfs.lock().put_with_replication(name, output, replication);
            if let Err(e) = put {
                // A failed job must not leave partial outputs behind.
                let mut fs = self.hdfs.lock();
                for w in written {
                    let _ = fs.delete(w);
                }
                return Err(e);
            }
            written.push(name);
        }

        stats.estimated_output_records = spec.estimated_output_records;
        stats.startup_seconds = self.cost.job_startup_s;
        stats.retry_seconds = self.cost.retry_seconds(&stats);
        stats.sim_seconds = self.cost.job_seconds(&stats);
        if self.trace.is_some() {
            self.emit_job_trace(&stats, &scratch);
        }
        Ok(stats)
    }

    /// Emit the per-task spans and closing `JobEnd` for a completed job.
    /// Task spans are laid end-to-end inside each phase (the cost model
    /// charges aggregate cluster bandwidth, so a
    /// phase's tasks share one lane), each as long as its [`share_seconds`]
    /// of the phase.
    fn emit_job_trace(&self, stats: &JobStats, scratch: &TraceScratch) {
        let lay = |tasks: &[(u64, u64)], phase: TaskPhase, phase_seconds: f64, mut cursor: f64| {
            let durs = share_seconds(tasks, phase_seconds);
            for (i, (&(records, bytes), dur)) in tasks.iter().zip(durs).enumerate() {
                self.emit(|| TraceEvent::TaskSpan {
                    job: stats.name.clone(),
                    phase,
                    task: i as u64,
                    records,
                    bytes,
                    start: cursor,
                    dur,
                });
                cursor += dur;
            }
        };
        let map_seconds = self.cost.map_phase_seconds(stats);
        lay(&scratch.map_tasks, TaskPhase::Map, map_seconds, stats.startup_seconds);
        lay(
            &scratch.reduce_tasks,
            TaskPhase::Reduce,
            self.cost.reduce_phase_seconds(stats),
            stats.startup_seconds + map_seconds,
        );
        self.emit(|| TraceEvent::JobEnd { stats: Box::new(stats.clone()) });
    }

    /// Read one input file and account its bytes/records.
    ///
    /// This is the at-rest corruption site: the injector may flip one
    /// payload bit of the fetched copy (a pure function of the fault seed
    /// and the file name, so every reader — on any worker count — sees the
    /// same decision). With verification on, the read is checked against
    /// the checksum recorded at commit; a mismatch is counted, traced, and
    /// recovered by re-reading from a replica (Hadoop re-reads the block
    /// from another DataNode and reports the bad one). With verification
    /// off, the corrupted copy flows into the job.
    fn load_input(&self, name: &str, stats: &mut JobStats) -> Result<Arc<DfsFile>, MrError> {
        let file = self.hdfs.lock().get(name)?;
        stats.input_records += file.len() as u64;
        stats.hdfs_read_bytes += file.text_bytes;
        stats.map_tasks += file.text_bytes.div_ceil(BLOCK_SIZE_BYTES).max(1);
        let salt = fnv1a(name.as_bytes());
        if self.faults.data_corrupted(salt, 0) {
            if let Some(off) = self.faults.corruption_offset(salt, 0, file.payload_bytes() as usize)
            {
                let mut bad = (*file).clone();
                bad.flip_byte(off as u64);
                if !self.verify_checksums {
                    return Ok(Arc::new(bad));
                }
                // A single-bit flip always changes its block's checksum
                // (the arguments are on `BlockChecksum` and, for a packed
                // file, `DfsFile`), so detection is certain; keep the error
                // path honest anyway.
                if bad.verify().is_err() {
                    stats.faults.corruptions_detected += 1;
                    stats.faults.dfs_refetches += 1;
                    self.emit(|| TraceEvent::CorruptionDetected {
                        job: stats.name.clone(),
                        site: "dfs",
                        task: 0,
                    });
                }
            }
        }
        Ok(file)
    }

    #[allow(clippy::too_many_arguments)] // internal: one call site, in run_job
    fn run_map_only(
        &self,
        files: &[String],
        mapper: &dyn RawMapOnlyOp,
        broadcast: &[Arc<DfsFile>],
        budget: Option<u64>,
        n_outputs: usize,
        epoch: u64,
        stats: &mut JobStats,
        scratch: &mut TraceScratch,
    ) -> Result<Vec<DfsFile>, MrError> {
        let mut inputs = Vec::new();
        for f in files {
            inputs.push(self.load_input(f, stats)?);
        }
        // Map-only output order must be deterministic: process chunks in
        // parallel but concatenate in input order.
        let chunks: Vec<(&DfsFile, Range<usize>)> = inputs
            .iter()
            .flat_map(|f| Self::chunk(f).into_iter().map(move |range| (f.as_ref(), range)))
            .collect();
        if self.trace.is_some() {
            scratch.map_tasks.extend(chunks.iter().map(|(f, range)| Self::split_size(f, range)));
        }
        self.resolve_faults(epoch, TaskPhase::Map, chunks.len(), false, stats)?;
        let results = self.parallel_over(&chunks, |(file, range)| {
            let ctx = TaskContext::with_env(broadcast.to_vec());
            let mut out = OutEmitter::with_outputs(budget, n_outputs);
            for rec in file.range(range.clone()) {
                mapper.run(&ctx, rec, &mut out)?;
            }
            // Map-only tasks buffer their output records until commit.
            let live_bytes: u64 = out.records.iter().map(|(_, r, _)| r.len() as u64).sum();
            let sums = out.block_checksums();
            Ok((out, sums, ctx.report(live_bytes)))
        })?;
        let outs = results.into_iter().map(|(out, sums, report)| {
            Self::absorb(report, stats);
            (out, sums)
        });
        let files = collect_outputs(outs, budget, n_outputs)?;
        // `stats.map_output_*` double as "records produced by map" even for
        // map-only jobs, but they are NOT shuffle bytes (reduce_tasks == 0).
        stats.map_output_records = files.iter().map(|f| f.len() as u64).sum();
        stats.map_output_bytes = files.iter().map(|f| f.text_bytes).sum();
        Ok(files)
    }

    /// Fold one task's [`TaskReport`] into the job — the one place a task's
    /// counters and live-byte mark reach [`JobStats`].
    fn absorb(report: TaskReport, stats: &mut JobStats) {
        stats.ops.merge(&report.ops);
        stats.peak_task_live_bytes = stats.peak_task_live_bytes.max(report.live_bytes);
    }

    /// Map phase with map-side shuffle partitioning: every map task spills
    /// into one arena per reduce partition as it emits, sorts and seals
    /// them, and each reduce partition then fetches its column of buckets
    /// ([`Engine::fetch_partition`]) in deterministic input (task) order.
    /// The driver itself only injects corruption and does the per-task
    /// bookkeeping; it copies no shuffle bytes.
    #[allow(clippy::too_many_arguments)] // internal: one call site, in run_job
    fn run_map_phase(
        &self,
        inputs: &[crate::job::InputBinding],
        broadcast: &[Arc<DfsFile>],
        reduce_tasks: usize,
        epoch: u64,
        stats: &mut JobStats,
        scratch: &mut TraceScratch,
    ) -> Result<Vec<SpillArena>, MrError> {
        // (mapper, file, split) work items, order-preserving.
        let mut files = Vec::new();
        for binding in inputs {
            let file = self.load_input(&binding.file, stats)?;
            files.push((binding.mapper.clone(), file));
        }
        let mut work: Vec<(&dyn RawMapOp, &DfsFile, Range<usize>)> = Vec::new();
        for (mapper, file) in &files {
            for range in Self::chunk(file) {
                work.push((mapper.as_ref(), file, range));
            }
        }
        if self.trace.is_some() {
            scratch.map_tasks.extend(work.iter().map(|(_, f, range)| Self::split_size(f, range)));
        }
        self.resolve_faults(epoch, TaskPhase::Map, work.len(), true, stats)?;
        let job = stats.name.clone();
        let mut results = self.parallel_over(&work, |(mapper, file, range)| {
            let ctx = TaskContext::with_env(broadcast.to_vec());
            let mut out = MapEmitter::partitioned(reduce_tasks);
            for rec in file.range(range.clone()) {
                mapper.run(&ctx, rec, &mut out)?;
            }
            let live_bytes: u64 = out.buckets.iter().map(SpillArena::footprint_bytes).sum();
            // Map-side sort (Hadoop sorts every spill before the
            // reducers fetch it): each bucket becomes one sorted run
            // the reduce side can merge instead of re-sorting.
            for bucket in &mut out.buckets {
                bucket.sort_unstable();
            }
            if self.verify_checksums {
                // Seal once the bucket contents are final: the checksum
                // the shuffle verifies on absorb.
                for bucket in &mut out.buckets {
                    bucket.seal();
                }
            }
            Ok((out, ctx.report(live_bytes)))
        })?;
        // In-flight corruption: flip one bit somewhere in a map task's
        // serialized output before the reducers fetch it. The draw and the
        // offset are pure functions of (seed, job, epoch, task), so every
        // worker count injects identically. The same walk hands each
        // sealed bucket to its reduce partition's fetch column (a move of
        // the arena header, not of its bytes).
        let base = Self::fault_base(&job, epoch, TaskPhase::Map);
        let mut columns: Vec<Vec<(SpillArena, Option<usize>)>> =
            (0..reduce_tasks).map(|_| Vec::with_capacity(results.len())).collect();
        for (task, (out, _)) in results.iter_mut().enumerate() {
            let total: usize = out.buckets.iter().map(|b| b.encoded_bytes() as usize).sum();
            let offset = if self.faults.data_corrupted(base, task as u64) {
                self.faults.corruption_offset(base, task as u64, total)
            } else {
                None
            };
            let flipped = offset.map(|mut off| {
                let mut victim = 0;
                for (p, bucket) in out.buckets.iter().enumerate() {
                    victim = p;
                    let len = bucket.encoded_bytes() as usize;
                    if off < len {
                        break;
                    }
                    off -= len;
                }
                out.buckets[victim].flip_byte(off);
                (victim, off)
            });
            for (p, (column, bucket)) in columns.iter_mut().zip(out.buckets.drain(..)).enumerate() {
                let flip = flipped.and_then(|(victim, off)| (victim == p).then_some(off));
                column.push((bucket, flip));
            }
        }
        // Reduce-side fetch: one unit of work per reduce partition on the
        // worker pool. Each column sits in a Mutex purely so its one
        // owning task can take it through `parallel_over`'s shared slice.
        let columns: Vec<Mutex<Vec<_>>> = columns.into_iter().map(Mutex::new).collect();
        let fetched = self.parallel_over(&columns, |column| {
            self.fetch_partition(&job, std::mem::take(&mut column.lock()))
        })?;
        let mut partitions = Vec::with_capacity(reduce_tasks);
        let mut refetched = vec![false; results.len()];
        for (part, tasks) in fetched {
            stats.map_output_records += part.len() as u64;
            stats.map_output_bytes += part.text_bytes();
            stats.map_output_encoded_bytes += part.encoded_bytes();
            stats.shuffle_partition_bytes.push(part.text_bytes());
            // At most one bucket per task is ever flipped, so a task is
            // refetched by at most one partition.
            for task in tasks {
                refetched[task] = true;
            }
            partitions.push(part);
        }
        // Per-task accounting in task order, so counters and the event
        // stream are what a serial task-by-task fetch would produce.
        for (task, (_, report)) in results.into_iter().enumerate() {
            let detected = refetched[task];
            let task = task as u64;
            Self::absorb(report, stats);
            if detected {
                // The re-executed map is priced into `retry_seconds` via
                // the refetch counter.
                stats.faults.corruptions_detected += 1;
                stats.faults.corrupt_refetches += 1;
                self.emit(|| TraceEvent::CorruptionDetected {
                    job: job.clone(),
                    site: "shuffle",
                    task,
                });
            }
        }
        // Arenas only grow, so the post-merge footprint of each reduce
        // partition is its lifetime high-water mark.
        for part in &partitions {
            stats.peak_arena_bytes = stats.peak_arena_bytes.max(part.footprint_bytes());
            stats.peak_spill_entries = stats.peak_spill_entries.max(part.len() as u64);
        }
        Ok(partitions)
    }

    /// One reducer's shuffle fetch, as in Hadoop: pull this partition's
    /// column of sealed map-output buckets in task order, verify each
    /// against its seal (Hadoop checksums every map output segment a
    /// reducer fetches) and absorb it as one sorted run — the bucket's
    /// buffer becomes a chunk of the partition as it lies, so no shuffle
    /// byte is copied. A mismatch is a fetch failure: the producing map
    /// is re-executed and its output fetched again — for an injected flip
    /// (the offset riding with the bucket) that undoes the flip — and the
    /// refetched copy must verify, so a bucket that mismatches for any
    /// other reason fails the job with [`MrError::Corruption`]. Returns
    /// the partition arena and the tasks whose bucket was refetched.
    fn fetch_partition(
        &self,
        job: &str,
        column: Vec<(SpillArena, Option<usize>)>,
    ) -> Result<(SpillArena, Vec<usize>), MrError> {
        let mut part = SpillArena::default();
        let mut refetched = Vec::new();
        for (task, (mut bucket, flip)) in column.into_iter().enumerate() {
            if self.verify_checksums && bucket.verify().is_err() {
                if let Some(off) = flip {
                    bucket.flip_byte(off);
                }
                bucket.verify().map_err(|(expected, actual)| MrError::Corruption {
                    job: job.to_string(),
                    site: "shuffle",
                    expected,
                    actual,
                })?;
                refetched.push(task);
            }
            part.absorb_sorted(bucket);
        }
        Ok((part, refetched))
    }

    /// Reduce phase over pre-partitioned shuffle data: each partition
    /// sorts its record index (prefix-accelerated, in place — the arena
    /// bytes never move) and streams groups of borrowed slices to the
    /// reducer.
    #[allow(clippy::too_many_arguments)] // internal: one call site, in run_job
    fn run_reduce_phase(
        &self,
        partitions: Vec<SpillArena>,
        reducer: &dyn crate::job::RawReduceOp,
        broadcast: &[Arc<DfsFile>],
        budget: Option<u64>,
        n_outputs: usize,
        epoch: u64,
        stats: &mut JobStats,
    ) -> Result<Vec<DfsFile>, MrError> {
        stats.reduce_input_records = partitions.iter().map(|p| p.len() as u64).sum();
        self.resolve_faults(epoch, TaskPhase::Reduce, partitions.len(), false, stats)?;
        // Sort + group + reduce each partition in parallel. Each partition
        // is wrapped in a Mutex purely so its owning task can sort the
        // index in place through `parallel_over`'s shared-slice interface;
        // exactly one task ever touches a given partition.
        let shared_budget = budget;
        let partitions: Vec<Mutex<SpillArena>> = partitions.into_iter().map(Mutex::new).collect();
        let results = self.parallel_over(&partitions, |cell| {
            let ctx = TaskContext::with_env(broadcast.to_vec());
            let mut guard = cell.lock();
            // The map side already sorted each absorbed bucket: stream
            // the canonical order out of a k-way run merge instead of
            // paying a second full sort.
            guard.merge_sorted_runs();
            let part: &SpillArena = &guard;
            // The reduce task's live set is its whole partition arena
            // (payload bytes + sort index).
            let live_bytes = part.footprint_bytes();
            let mut out = OutEmitter::with_outputs(shared_budget, n_outputs);
            let mut groups = 0u64;
            let mut values: Vec<&[u8]> = Vec::new();
            for group in part.group_ranges() {
                values.clear();
                values.extend(group.clone().map(|t| part.value(t)));
                reducer.run(&ctx, part.key(group.start), &values, &mut out)?;
                groups += 1;
            }
            let sums = out.block_checksums();
            Ok((out, sums, groups, ctx.report(live_bytes)))
        })?;
        let outs = results.into_iter().map(|(out, sums, groups, report)| {
            stats.reduce_groups += groups;
            Self::absorb(report, stats);
            (out, sums)
        });
        collect_outputs(outs, budget, n_outputs)
    }

    /// Cut one input file into map splits by *bytes*: a split ends at the
    /// first record where its accumulated encoded bytes reach
    /// `max(total_bytes / 32, SPLIT_FLOOR_BYTES)`, so a file yields at
    /// most 33 splits and every split but the last carries at least the
    /// floor — 300 nested 1 KB triplegroups are ten tasks, not one, while
    /// 300 twelve-byte triples stay one. A pure function of the record
    /// byte lengths, never of the worker count — splits are the engine's
    /// "tasks", and everything accounted per task (fault draws via
    /// `map_tasks_scheduled`, task spans, per-task memory high-water
    /// marks) must be identical whether 1 or 8 threads drain the split
    /// queue, and whichever layout the file stores its records in.
    /// Returns each split's range of record indexes.
    fn chunk(file: &DfsFile) -> Vec<Range<usize>> {
        let total = file.payload_bytes() as usize;
        let target = (total / 32).max(SPLIT_FLOOR_BYTES);
        let mut splits = Vec::new();
        let (mut start, mut bytes) = (0, 0);
        for (i, rec) in file.iter().enumerate() {
            bytes += rec.len();
            if bytes >= target {
                splits.push(start..i + 1);
                (start, bytes) = (i + 1, 0);
            }
        }
        if start < file.len() {
            splits.push(start..file.len());
        }
        splits
    }

    /// `(records, encoded bytes)` of one split, for its task span.
    fn split_size(file: &DfsFile, range: &Range<usize>) -> (u64, u64) {
        let bytes = file.range(range.clone()).map(|r| r.len() as u64).sum();
        (range.len() as u64, bytes)
    }

    /// Run `f` over every item of `work` on the worker pool, preserving
    /// item order in the results. The calling thread is one of the
    /// `workers`: a phase spawns one thread fewer, and long-lived task
    /// output (spill buckets, DFS records) lands in one allocator arena
    /// fewer, which is worth a fifth of the process's peak RSS.
    fn parallel_over<T: Sync, R: Send>(
        &self,
        work: &[T],
        f: impl Fn(&T) -> Result<R, MrError> + Sync,
    ) -> Result<Vec<R>, MrError> {
        if work.is_empty() {
            return Ok(Vec::new());
        }
        if self.workers <= 1 || work.len() == 1 {
            return work.iter().map(&f).collect();
        }
        let next = std::sync::atomic::AtomicUsize::new(0);
        let results: Vec<Mutex<Option<Result<R, MrError>>>> =
            work.iter().map(|_| Mutex::new(None)).collect();
        let drain = || loop {
            let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if i >= work.len() {
                break;
            }
            let r = f(&work[i]);
            *results[i].lock() = Some(r);
        };
        std::thread::scope(|scope| {
            for _ in 1..self.workers.min(work.len()) {
                scope.spawn(drain);
            }
            drain();
        });
        results.into_iter().map(|m| m.into_inner().expect("worker completed")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Rec;
    use crate::common::{CountReduce, Identity, WordOne};
    use crate::job::{InputBinding, RawReduceOp};

    /// A four-worker engine holding `words` as the file `input`.
    fn word_count_engine(words: &[&str]) -> Engine {
        word_count_engine_on(ClusterConfig::default().with_workers(4), words)
    }

    /// An engine for `config` holding `words` as the file `input`.
    fn word_count_engine_on(config: ClusterConfig, words: &[&str]) -> Engine {
        let engine = Engine::new(config).unwrap();
        engine.put_records("input", words.iter().map(|w| w.to_string())).unwrap();
        engine
    }

    fn word_count_spec() -> JobSpec {
        let words = InputBinding { file: "input".into(), mapper: Arc::new(WordOne) };
        JobSpec::map_reduce("wordcount", vec![words], Arc::new(CountReduce), 3, "out")
    }

    /// The stats carried by the one `JobEnd` a single traced job emits.
    fn job_end_stats(sink: &crate::trace::MemorySink) -> JobStats {
        let ends: Vec<JobStats> = sink
            .events()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::JobEnd { stats } => Some(*stats),
                _ => None,
            })
            .collect();
        assert_eq!(ends.len(), 1, "one job, one job_end");
        ends.into_iter().next().unwrap()
    }

    #[test]
    fn word_count_end_to_end() {
        let engine = word_count_engine(&["a", "b", "a", "c", "a", "b"]);
        let stats = engine.run_job(&word_count_spec()).unwrap();
        let mut out: Vec<String> = engine.read_records("out").unwrap();
        // Unstable sort is observationally deterministic here for the same
        // reason as the per-partition shuffle sort (module docs): elements
        // that compare equal are identical strings, so any permutation of
        // them is the same vector.
        out.sort_unstable();
        assert_eq!(out, vec!["a:3", "b:2", "c:1"]);
        assert_eq!(stats.input_records, 6);
        assert_eq!(stats.map_output_records, 6);
        assert_eq!(stats.reduce_input_records, 6);
        assert_eq!(stats.reduce_groups, 3);
        assert_eq!(stats.output_records, 3);
        assert!(stats.sim_seconds > 0.0);
        stats.check_invariants().unwrap();
    }

    #[test]
    fn deterministic_across_worker_counts() {
        // Byte-identical outputs AND counters for every worker count.
        let run = |workers: usize| {
            let config = ClusterConfig::default().with_workers(workers);
            let engine = word_count_engine_on(config, &["x", "y", "x", "z", "w", "w", "w"]);
            let stats = engine.run_job(&word_count_spec()).unwrap();
            let out: Vec<String> = engine.read_records("out").unwrap();
            (format!("{stats:?}"), out)
        };
        let baseline = run(1);
        for workers in [4, 8] {
            assert_eq!(run(workers), baseline, "workers={workers}");
        }
    }

    #[test]
    fn partition_bytes_sum_to_shuffle_bytes() {
        let engine = word_count_engine(&["a", "b", "c", "d", "e", "f", "a", "b"]);
        let stats = engine.run_job(&word_count_spec()).unwrap();
        assert_eq!((stats.reduce_tasks, stats.map_output_records), (3, 8));
        stats.check_invariants().unwrap();
        assert!(stats.max_partition_shuffle_bytes() >= stats.map_output_bytes / 3);
        assert!(stats.reduce_skew() >= 1.0);
    }

    #[test]
    fn single_reduce_task_concentrates_all_shuffle() {
        let engine = word_count_engine(&["a", "b", "c"]);
        let spec = {
            let mut s = word_count_spec();
            if let JobKind::MapReduce { reduce_tasks, .. } = &mut s.kind {
                *reduce_tasks = 1;
            }
            s
        };
        let stats = engine.run_job(&spec).unwrap();
        assert_eq!(stats.shuffle_partition_bytes, vec![stats.map_output_bytes]);
        assert!((stats.reduce_skew() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_reduce_tasks_error_not_panic() {
        let engine = word_count_engine(&["a"]);
        let words = InputBinding { file: "input".into(), mapper: Arc::new(WordOne) };
        let spec = JobSpec::map_reduce("wordcount", vec![words], Arc::new(CountReduce), 0, "out");
        let err = engine.run_job(&spec).unwrap_err();
        assert!(err.to_string().contains("reduce tasks"), "{err}");
    }

    #[test]
    fn default_partition_total_on_degenerate_counts() {
        assert_eq!(default_partition(b"anything", 0), 0);
        assert_eq!(default_partition(b"anything", 1), 0);
        for n in [2usize, 3, 7, 64] {
            assert!(default_partition(b"anything", n) < n);
        }
    }

    #[test]
    fn a_failed_commit_is_an_error_not_a_deadlock() {
        let engine = word_count_engine(&["a", "b"]);
        engine.run_job(&word_count_spec()).unwrap();
        let err = engine.run_job(&word_count_spec()).unwrap_err();
        assert!(matches!(err, MrError::OutputExists(_)), "{err:?}");
    }

    #[test]
    fn wire_bytes_are_counted_apart_from_the_text_model() {
        use crate::codec::{decimal_digits, SliceReader};
        /// An id as one 4-byte word on the wire, and as its decimal digits
        /// in a text row.
        #[derive(Clone)]
        struct Id(u32);
        impl Rec for Id {
            fn encode_into(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.0.to_le_bytes());
            }
            fn decode(r: &mut SliceReader<'_>) -> Result<Self, MrError> {
                r.read_u32().map(Id)
            }
            fn text_size(&self) -> u64 {
                decimal_digits(u64::from(self.0)) + 1
            }
        }
        // The post-encoding counter must report exactly the bytes that
        // cross the wire — not the text-row model's figure.
        let engine = Engine::new(ClusterConfig::default().with_workers(4)).unwrap();
        engine.put_records("ids", (0..500u32).map(Id)).unwrap();
        /// Each id under its residue mod 7.
        struct Mod7;
        impl RawMapOp for Mod7 {
            fn run(
                &self,
                _: &TaskContext,
                rec: &[u8],
                out: &mut MapEmitter,
            ) -> Result<(), MrError> {
                let id = Id::from_bytes(rec)?;
                let key = Id(id.0 % 7);
                out.emit_raw(&key.to_bytes(), rec, key.text_size() + id.text_size() - 1);
                Ok(())
            }
        }
        /// Each residue's number of ids.
        struct Width;
        impl RawReduceOp for Width {
            fn run(
                &self,
                _: &TaskContext,
                _: &[u8],
                values: &[&[u8]],
                out: &mut OutEmitter,
            ) -> Result<(), MrError> {
                let n = values.len() as u64;
                out.emit_raw(n.to_bytes(), n.text_size())
            }
        }
        let ids = InputBinding { file: "ids".into(), mapper: Arc::new(Mod7) };
        let spec = JobSpec::map_reduce("idjob", vec![ids], Arc::new(Width), 3, "out");
        let stats = engine.run_job(&spec).unwrap();
        assert_eq!(stats.map_output_encoded_bytes, 500 * 8);
        assert_eq!(stats.shuffle_wire_bytes(), 500 * 8);
        // The text model charges each pair's digits, one separator and
        // one newline.
        let expected_text: u64 = (0..500u64).map(|i| decimal_digits(i) + 2).sum();
        assert_eq!(stats.map_output_bytes, expected_text);
        assert_eq!(stats.shuffle_bytes(), expected_text);

        // Token records — what every operator ships — diverge the same
        // way: length-prefix framing makes the wire bigger than the text
        // rows.
        let engine = word_count_engine(&["alpha", "beta", "alpha"]);
        let lex = engine.run_job(&word_count_spec()).unwrap();
        assert!(lex.shuffle_wire_bytes() > lex.shuffle_bytes());

        // Map-only jobs shuffle nothing under either accounting.
        let spec = JobSpec::map_only("mo", vec!["input".into()], Arc::new(Identity), "mo_out");
        let stats = engine.run_job(&spec).unwrap();
        assert_eq!(stats.shuffle_wire_bytes(), 0);
    }

    #[test]
    fn map_only_job() {
        let engine = word_count_engine(&["one", "two"]);
        let spec = JobSpec::map_only("copy", vec!["input".into()], Arc::new(Identity), "out");
        let stats = engine.run_job(&spec).unwrap();
        assert_eq!(stats.reduce_tasks, 0);
        assert_eq!(stats.shuffle_bytes(), 0);
        let out: Vec<String> = engine.read_records("out").unwrap();
        assert_eq!(out, vec!["one", "two"]);
    }

    #[test]
    fn missing_input_errors() {
        let engine = Engine::unbounded();
        let spec = word_count_spec();
        assert!(matches!(engine.run_job(&spec), Err(MrError::NoSuchFile(_))));
    }

    #[test]
    fn disk_full_during_output() {
        // Input (60 B) fits; job output (~60 B more) exceeds the 80 B budget.
        let engine = Engine::new(
            ClusterConfig { nodes: 1, disk_per_node: 80, ..Default::default() }.with_workers(2),
        )
        .unwrap();
        engine.put_records("input", (0..10).map(|i| format!("word{i}"))).unwrap();
        let err = engine.run_job(&word_count_spec()).unwrap_err();
        assert!(err.is_disk_full(), "{err:?}");
        // Output file must not exist after a failed write.
        assert!(!engine.hdfs().lock().exists("out"));
    }

    #[test]
    fn replication_charged_on_write() {
        let engine = Engine::new(ClusterConfig {
            nodes: 1,
            disk_per_node: u64::MAX / 4,
            replication: 3,
            ..Default::default()
        })
        .unwrap();
        engine.put_records("input", ["a".to_string()]).unwrap();
        let stats = engine.run_job(&word_count_spec()).unwrap();
        assert_eq!(stats.hdfs_write_bytes, stats.output_text_bytes * 3);
    }

    #[test]
    fn multiple_inputs_tagged_by_mapper() {
        let engine = Engine::unbounded();
        engine.put_records("left", ["l1".to_string()]).unwrap();
        engine.put_records("right", ["r1".to_string()]).unwrap();
        /// Each word counted under `tag:word`.
        struct Tag(&'static str);
        impl RawMapOp for Tag {
            fn run(
                &self,
                _: &TaskContext,
                rec: &[u8],
                out: &mut MapEmitter,
            ) -> Result<(), MrError> {
                let key = format!("{}:{}", self.0, String::from_bytes(rec)?);
                out.emit_raw(&key.to_bytes(), &1u64.to_bytes(), key.text_size() + 1);
                Ok(())
            }
        }
        let input =
            |file: &str, tag| InputBinding { file: file.into(), mapper: Arc::new(Tag(tag)) };
        let inputs = vec![input("left", "L"), input("right", "R")];
        let spec = JobSpec::map_reduce("join", inputs, Arc::new(CountReduce), 1, "out");
        engine.run_job(&spec).unwrap();
        let out: Vec<String> = engine.read_records("out").unwrap();
        assert_eq!(out, vec!["L:l1:1", "R:r1:1"]);
    }

    #[test]
    fn broadcast_reaches_every_task_and_is_charged() {
        use crate::trace::MemorySink;
        // Map-only "join": each input word is annotated with the size of
        // the broadcast side file, read per task via the distributed cache.
        let sink = MemorySink::new();
        let config = ClusterConfig::default().with_workers(4).with_trace(sink.clone());
        let engine = word_count_engine_on(config, &["a", "b", "c"]);
        engine.put_records("side", (0..4u64).collect::<Vec<_>>()).unwrap();
        struct SideCount;
        impl RawMapOnlyOp for SideCount {
            fn run(
                &self,
                ctx: &TaskContext,
                rec: &[u8],
                out: &mut OutEmitter,
            ) -> Result<(), MrError> {
                let n = ctx.task_state(|| Ok(ctx.broadcast(0)?.len()))?;
                let row = format!("{}:{}", String::from_bytes(rec)?, *n);
                out.emit_raw(row.to_bytes(), row.text_size())
            }
        }
        let mut spec = JobSpec::map_only("bjoin", vec!["input".into()], Arc::new(SideCount), "out")
            .with_broadcast("side");
        spec.estimated_output_records = Some(6.0);
        let stats = engine.run_job(&spec).unwrap();
        let out: Vec<String> = engine.read_records("out").unwrap();
        assert_eq!(out, vec!["a:4", "b:4", "c:4"]);
        assert_eq!(stats.broadcast_files, 1);
        let side_bytes = engine.hdfs().lock().get("side").unwrap().text_bytes;
        assert_eq!(stats.broadcast_bytes, side_bytes);
        assert_eq!(stats.broadcast_ship_bytes, side_bytes * stats.map_tasks);
        // The ship is priced into the map phase at read bandwidth.
        let mut without = stats.clone();
        without.broadcast_ship_bytes = 0;
        let m = CostModel::zero_overhead();
        assert!(
            (m.map_phase_seconds(&stats) - m.map_phase_seconds(&without) - side_bytes as f64).abs()
                < 1e-9
        );
        // q-error: estimated 6 vs actual 3 -> 2.0.
        assert_eq!(stats.estimated_output_records, Some(6.0));
        assert!((stats.q_error().unwrap() - 2.0).abs() < 1e-9);
        // Both facts reach the trace on the job's `JobEnd`.
        assert_eq!(job_end_stats(&sink), stats);
    }

    #[test]
    fn broadcast_over_budget_is_refused() {
        let config = ClusterConfig { broadcast_budget_bytes: 4, ..Default::default() };
        let engine = word_count_engine_on(config.with_workers(4), &["a"]);
        engine.put_records("side", ["0123456789".to_string()]).unwrap();
        let spec = JobSpec::map_only("big", vec!["input".into()], Arc::new(Identity), "out")
            .with_broadcast("side");
        let err = engine.run_job(&spec).unwrap_err();
        assert!(matches!(err, MrError::BroadcastTooLarge { .. }), "{err}");
        assert!(!engine.hdfs().lock().exists("out"));
    }

    #[test]
    fn task_context_broadcast_and_state_errors() {
        let ctx = TaskContext::new();
        assert!(ctx.broadcast(0).is_err());
        assert!(ctx.broadcast_files().is_empty());
        let v = ctx.task_state(|| Ok(41u64)).unwrap();
        assert_eq!(*v, 41);
        drop(v);
        // Cached: init does not run again.
        let v = ctx.task_state::<u64, _>(|| panic!("must not re-init")).unwrap();
        assert_eq!(*v, 41);
        drop(v);
        // Same slot, different type: typed error, not a panic.
        assert!(ctx.task_state::<String, _>(|| Ok(String::new())).is_err());
        // A failing init leaves the slot empty for a later retry.
        let ctx2 = TaskContext::new();
        assert!(ctx2.task_state::<u64, _>(|| Err(MrError::Op("boom".into()))).is_err());
        assert_eq!(*ctx2.task_state(|| Ok(7u64)).unwrap(), 7);
    }

    #[test]
    fn every_job_records_memory_marks() {
        let engine = word_count_engine(&["a", "b", "a", "c", "a", "b"]);
        let stats = engine.run_job(&word_count_spec()).unwrap();
        stats.check_invariants().unwrap();
        assert!(stats.peak_arena_bytes > 0);
        assert!(stats.peak_task_live_bytes > 0);
        assert!(stats.peak_spill_entries > 0);
    }

    #[test]
    fn memory_marks_deterministic_across_worker_counts_and_faults() {
        // > 4096 records so the input splits into multiple chunks — the
        // regime where worker-dependent chunking would skew per-task
        // live-byte marks.
        let words: Vec<String> = (0..6000).map(|i| format!("word{}", i % 37)).collect();
        let refs: Vec<&str> = words.iter().map(String::as_str).collect();
        let run = |workers: usize, faults: FaultConfig| {
            let config = ClusterConfig::default().with_workers(workers).with_faults(faults);
            let engine = word_count_engine_on(config, &refs);
            engine.run_job(&word_count_spec()).unwrap()
        };
        let baseline = format!("{:?}", run(1, FaultConfig::none()));
        for workers in [4, 8] {
            assert_eq!(format!("{:?}", run(workers, FaultConfig::none())), baseline);
        }
        // Memory marks must also agree across worker counts under fault
        // injection (fault draws are schedule-independent).
        let faulty = FaultConfig { task_failure_probability: 0.2, seed: 7, ..FaultConfig::none() };
        let fault_base = format!("{:?}", run(1, faulty.clone()));
        for workers in [4, 8] {
            assert_eq!(format!("{:?}", run(workers, faulty.clone())), fault_base);
        }
        // The marks themselves are fault-regime-invariant: a retried task
        // holds the same bytes as the attempt that failed.
        let marks =
            |s: JobStats| (s.peak_arena_bytes, s.peak_task_live_bytes, s.peak_spill_entries);
        let faulted = run(4, FaultConfig::with_probability(0.3, 7));
        assert!(faulted.task_retries > 0, "the regime must inject");
        assert_eq!(marks(faulted), marks(run(4, FaultConfig::none())));
    }

    #[test]
    fn job_end_carries_the_memory_marks() {
        use crate::trace::MemorySink;
        let sink = MemorySink::new();
        let config = ClusterConfig::default().with_workers(4).with_trace(sink.clone());
        let engine = word_count_engine_on(config, &["a", "b", "a"]);
        let stats = engine.run_job(&word_count_spec()).unwrap();
        let traced = job_end_stats(&sink);
        assert!(traced.peak_arena_bytes > 0);
        assert_eq!(traced, stats);
    }

    #[test]
    fn shuffle_corruption_detected_restored_and_priced() {
        use crate::trace::MemorySink;
        let words: Vec<String> = (0..5000).map(|i| format!("word{}", i % 23)).collect();
        let refs: Vec<&str> = words.iter().map(String::as_str).collect();
        let clean_out: Vec<String> = {
            let engine = word_count_engine(&refs);
            engine.run_job(&word_count_spec()).unwrap();
            engine.read_records("out").unwrap()
        };
        // Find a seed whose draws corrupt at least one map task.
        let faults = |workers, seed| {
            let faults = FaultConfig { corruption_probability: 0.5, seed, ..FaultConfig::none() };
            ClusterConfig::default().with_workers(workers).with_faults(faults)
        };
        let mut hit = None;
        for seed in 0..32 {
            let sink = MemorySink::new();
            let engine = word_count_engine_on(faults(4, seed).with_trace(sink.clone()), &refs);
            let stats = engine.run_job(&word_count_spec()).unwrap();
            assert_eq!(stats.faults.corrupt_refetches, stats.faults.corruptions_detected);
            let out: Vec<String> = engine.read_records("out").unwrap();
            assert_eq!(out, clean_out, "verification must hand reducers clean bytes");
            if stats.faults.corruptions_detected > 0 {
                assert!(stats.retry_seconds > 0.0, "refetches must be priced");
                let events = sink.events();
                let detected = events.iter().filter(|e| {
                    matches!(e, TraceEvent::CorruptionDetected { site: "shuffle", .. })
                });
                assert_eq!(detected.count() as u64, job_end_stats(&sink).faults.corrupt_refetches);
                hit = Some(seed);
                break;
            }
        }
        let seed = hit.expect("some seed in 0..32 must corrupt a map task");
        // Counters and outputs are worker-count-invariant under corruption.
        let run = |workers: usize| {
            let engine = word_count_engine_on(faults(workers, seed), &refs);
            let stats = engine.run_job(&word_count_spec()).unwrap();
            let out: Vec<String> = engine.read_records("out").unwrap();
            (format!("{stats:?}"), out)
        };
        let baseline = run(1);
        for workers in [4, 8] {
            assert_eq!(run(workers), baseline, "workers={workers}");
        }
    }

    #[test]
    fn verification_off_lets_corruption_reach_the_job() {
        // The controlled demonstration of why the checksums are
        // load-bearing: same corruption draws, verification disabled.
        let words: Vec<String> = (0..5000).map(|i| format!("word{}", i % 23)).collect();
        let refs: Vec<&str> = words.iter().map(String::as_str).collect();
        let clean_out: Vec<String> = {
            let engine = word_count_engine(&refs);
            engine.run_job(&word_count_spec()).unwrap();
            engine.read_records("out").unwrap()
        };
        let faults = |seed| {
            let faults = FaultConfig { corruption_probability: 0.5, seed, ..FaultConfig::none() };
            ClusterConfig::default().with_workers(4).with_faults(faults)
        };
        let seed = (0..32)
            .find(|&seed| {
                let engine = word_count_engine_on(faults(seed), &refs);
                engine.run_job(&word_count_spec()).unwrap().faults.corruptions_detected > 0
            })
            .expect("some seed in 0..32 must corrupt a map task");
        let engine = word_count_engine_on(faults(seed), &refs).with_verification(false);
        match engine.run_job(&word_count_spec()) {
            // Undetected, the flipped byte either silently changes the
            // output or breaks a record's framing mid-shuffle.
            Ok(stats) => {
                assert_eq!(stats.faults.corruptions_detected, 0);
                let out: Vec<String> = engine.read_records("out").unwrap();
                assert_ne!(out, clean_out, "silent corruption must alter the output");
            }
            Err(e) => assert!(matches!(e, MrError::Codec(_)), "{e:?}"),
        }
    }

    #[test]
    fn dfs_corruption_detected_and_reread_from_replica() {
        use crate::trace::MemorySink;
        // Every data unit but a rare draw is corrupted.
        let faults = FaultConfig { corruption_probability: 0.999, seed: 9, ..FaultConfig::none() };
        let config = ClusterConfig::default().with_workers(4).with_faults(faults);
        let sink = MemorySink::new();
        let engine =
            word_count_engine_on(config.clone().with_trace(sink.clone()), &["a", "b", "a", "c"]);
        let stats = engine.run_job(&word_count_spec()).unwrap();
        assert_eq!(stats.faults.dfs_refetches, 1, "one input file, one replica re-read");
        assert!(stats.faults.corruptions_detected >= 1);
        let mut out: Vec<String> = engine.read_records("out").unwrap();
        out.sort_unstable();
        assert_eq!(out, vec!["a:2", "b:1", "c:1"]);
        let events = sink.events();
        let detected = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::CorruptionDetected { site: "dfs", .. }));
        assert_eq!(detected.count() as u64, job_end_stats(&sink).faults.dfs_refetches);

        // With verification off the corrupted block flows into the job.
        let engine = word_count_engine_on(config, &["a", "b", "a", "c"]).with_verification(false);
        match engine.run_job(&word_count_spec()) {
            Ok(stats) => {
                assert_eq!(stats.faults.dfs_refetches, 0);
                let mut bad_out: Vec<String> = engine.read_records("out").unwrap();
                bad_out.sort_unstable();
                assert_ne!(bad_out, out);
            }
            Err(e) => assert!(matches!(e, MrError::Codec(_)), "{e:?}"),
        }
    }

    #[test]
    fn undecodable_input_record_fails_the_job_with_a_codec_error() {
        let bad = vec![2, 0, 0, 0, 0xff, 0xfe]; // length-prefixed invalid UTF-8
        let records = vec!["alpha".to_string().to_bytes(), bad, "beta".to_string().to_bytes()];
        let copy = || JobSpec::map_only("copy", vec!["input".into()], Arc::new(Identity), "out");
        for workers in [1, 4] {
            for spec in [word_count_spec(), copy()] {
                let engine = Engine::new(ClusterConfig::default().with_workers(workers)).unwrap();
                let mut file = DfsFile::default();
                for rec in &records {
                    file.push_record(0, |buf| buf.extend_from_slice(rec)).unwrap();
                }
                file.text_bytes = 13;
                engine.hdfs().lock().put("input", file).unwrap();
                let err = engine.run_job(&spec).unwrap_err();
                assert!(
                    matches!(err, MrError::Codec(_)),
                    "{} workers={workers}: {err:?}",
                    spec.name
                );
                assert!(!engine.hdfs().lock().exists("out"), "{} committed output", spec.name);
            }
        }
    }

    mod split_rule {
        use super::*;
        use proptest::prelude::{prop, prop_assert, prop_assert_eq, proptest};

        /// Records of these byte lengths, in both layouts: built by a
        /// caller (packed) and as a job writes them (one buffer each).
        fn layouts(lens: &[usize], byte: u8) -> [DfsFile; 2] {
            let mut packed = DfsFile::default();
            for &n in lens {
                packed.push_record(0, |buf| buf.resize(buf.len() + n, byte)).unwrap();
            }
            let records = lens.iter().map(|&n| vec![byte; n]).collect();
            [packed, DfsFile::written(records, 0, Vec::new())]
        }

        proptest! {
            #[test]
            fn splits_tile_the_input_by_bytes(
                lens in prop::collection::vec(0usize..8000, 0..400),
            ) {
                let [packed, written] = layouts(&lens, 0xAB);
                let splits = Engine::chunk(&packed);
                // Both layouts split alike.
                prop_assert_eq!(&Engine::chunk(&written), &splits);
                // In-order tiling: concatenating the splits is the input.
                let tiled: Vec<usize> = splits.iter().flat_map(Range::clone).collect();
                prop_assert_eq!(tiled, (0..lens.len()).collect::<Vec<_>>());
                prop_assert!(splits.iter().all(|s| !s.is_empty()));
                // Every split but the last reaches the target, which is at
                // least the floor and at least 1/32 of the file: ≤ 33 splits.
                let total: usize = lens.iter().sum();
                let target = (total / 32).max(SPLIT_FLOOR_BYTES);
                let bytes = |s: Range<usize>| lens[s].iter().sum::<usize>();
                for split in splits.iter().rev().skip(1) {
                    prop_assert!(bytes(split.clone()) >= target);
                    // ...and no earlier: dropping its last record falls short.
                    prop_assert!(bytes(split.start..split.end - 1) < target);
                }
                prop_assert!(splits.len() <= 33, "{} splits", splits.len());
                // A function of the record byte lengths alone.
                prop_assert_eq!(Engine::chunk(&layouts(&lens, 0x11)[0]), splits);
            }
        }

        #[test]
        fn empty_and_tiny_inputs() {
            for [packed, written] in [layouts(&[], 0), layouts(&[0, 0], 0)] {
                assert_eq!(Engine::chunk(&packed), Engine::chunk(&written));
            }
            assert!(Engine::chunk(&DfsFile::default()).is_empty());
            assert_eq!(Engine::chunk(&layouts(&[0, 0], 0)[0]), vec![0..2]);
            assert_eq!(Engine::chunk(&layouts(&[SPLIT_FLOOR_BYTES, 1], 0)[1]), vec![0..1, 1..2]);
        }
    }

    #[test]
    fn kilobyte_records_split_into_several_map_tasks() {
        // 300 records of ~1 KB — the shape of a lazy tg_join's nested
        // input — must fan out over the pool: splits are cut by bytes.
        let lines: Vec<String> =
            (0..300).map(|i| format!("k{}:{}", i % 7, "x".repeat(1000))).collect();
        let run = |workers: usize| {
            let engine = Engine::new(ClusterConfig::default().with_workers(workers)).unwrap();
            engine.put_records("input", lines.clone()).unwrap();
            let stats = engine.run_job(&word_count_spec()).unwrap();
            let out: Vec<Vec<u8>> =
                engine.hdfs().lock().get("out").unwrap().iter().map(<[u8]>::to_vec).collect();
            (stats, out)
        };
        let (stats, out) = run(1);
        // ~302 KB of input at the 32 KiB floor.
        assert_eq!(stats.faults.map_tasks_scheduled, 10);
        let baseline = (format!("{stats:?}"), out);
        for workers in [4, 8] {
            let (stats, out) = run(workers);
            assert_eq!((format!("{stats:?}"), out), baseline, "workers={workers}");
        }
    }

    #[test]
    fn forged_seal_mismatch_is_a_typed_corruption_error() {
        // A sealed bucket that fails verification with no injected flip to
        // undo (here: a byte changed behind the seal) must fail the job
        // with a typed error, never a panic.
        let forged = || {
            let mut bucket = SpillArena::default();
            bucket.push_pair(b"key", b"value", 1);
            bucket.sort_unstable();
            bucket.seal();
            bucket.flip_byte(1);
            bucket
        };
        let engine = Engine::unbounded();
        // (A recorded flip elsewhere in the bucket does not excuse it.)
        for flip in [None, Some(2)] {
            let err = engine.fetch_partition("forged", vec![(forged(), flip)]).unwrap_err();
            assert!(
                matches!(&err, MrError::Corruption { job, site: "shuffle", .. } if job == "forged"),
                "{err:?}"
            );
        }
        // The same mismatch at the injected offset is a recovered refetch.
        let (part, refetched) =
            engine.fetch_partition("forged", vec![(forged(), Some(1))]).unwrap();
        assert_eq!(refetched, vec![0]);
        assert_eq!(part.iter().collect::<Vec<_>>(), vec![(&b"key"[..], &b"value"[..])]);
        // With verification off nothing is checked.
        let engine = engine.with_verification(false);
        assert!(engine.fetch_partition("forged", vec![(forged(), None)]).is_ok());
    }

    #[test]
    fn every_writing_task_commits_its_own_checksummed_block() {
        // One block per reduce task that wrote records, in task order,
        // each under the checksum its task took as it closed.
        let words: Vec<String> = (0..40).map(|i| format!("w{i}")).collect();
        let refs: Vec<&str> = words.iter().map(String::as_str).collect();
        let engine = word_count_engine(&refs);
        let stats = engine.run_job(&word_count_spec()).unwrap();
        assert_eq!(stats.reduce_tasks, 3);
        let file = engine.hdfs().lock().get("out").unwrap();
        assert_eq!(file.blocks.len(), 3, "three writing tasks, three blocks");
        assert_eq!(file.blocks.last().map(|&(end, _)| end), Some(file.len()));
        let mut start = 0;
        for &(end, sum) in &file.blocks {
            assert!(end > start);
            assert_eq!(crate::hdfs::records_checksum(file.range(start..end)), sum);
            start = end;
        }
        // Any flipped payload byte fails verification; flipping it back
        // restores the file.
        let mut f = (*file).clone();
        for off in 0..f.payload_bytes() {
            f.flip_byte(off);
            assert!(f.verify().is_err(), "flip at {off} undetected");
            f.flip_byte(off);
        }
        assert_eq!(f.verify(), Ok(()));
        // The input, built by the caller, was checksummed at commit.
        let input = engine.hdfs().lock().get("input").unwrap();
        assert_eq!((input.blocks.len(), input.verify()), (1, Ok(())));
        // A map-only job's tasks write blocks the same way.
        let spec = JobSpec::map_only("copy", vec!["input".into()], Arc::new(Identity), "copy");
        engine.run_job(&spec).unwrap();
        let copy = engine.hdfs().lock().get("copy").unwrap();
        assert_eq!((copy.blocks.len(), copy.verify()), (1, Ok(())));
    }

    #[test]
    fn empty_input_is_fine() {
        let engine = Engine::unbounded();
        engine.put_records::<String>("input", []).unwrap();
        let stats = engine.run_job(&word_count_spec()).unwrap();
        assert_eq!(stats.output_records, 0);
        assert!(engine.hdfs().lock().exists("out"));
    }
}
