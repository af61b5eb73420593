//! Job definitions: the byte-level operator traits and the [`JobSpec`]
//! builder.
//!
//! The engine moves opaque encoded records, so heterogeneous jobs chain
//! without generics leaking into the engine. An operator is a
//! [`RawMapOp`], [`RawMapOnlyOp`] or [`RawReduceOp`]: it reads its records
//! in place through [`crate::codec`] and sizes the simulated text of what
//! it emits itself.

use crate::counters::OpCounters;
use crate::error::MrError;
use crate::hdfs::DfsFile;
use std::any::Any;
use std::cell::{Ref, RefCell};
use std::sync::Arc;

/// Per-task execution context, created by the engine for each map task
/// and reduce partition.
///
/// It carries the task's [`OpCounters`]: operators record named
/// operator-level counters through [`TaskContext::count`] (Hadoop's
/// user-defined `Counter`s), and the engine merges every task's counters
/// into [`crate::JobStats::ops`] when the job completes.
///
/// Jobs that declare broadcast side files ([`JobSpec::with_broadcast`])
/// additionally see those files through [`TaskContext::broadcast`], and
/// can cache a once-per-task derived structure (e.g. a broadcast-join hash
/// table — Hadoop's `Mapper.setup()`) via [`TaskContext::task_state`].
#[derive(Default)]
pub struct TaskContext {
    counters: RefCell<OpCounters>,
    broadcast: Vec<Arc<DfsFile>>,
    state: RefCell<Option<Box<dyn Any + Send>>>,
}

impl std::fmt::Debug for TaskContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskContext")
            .field("counters", &self.counters)
            .field("broadcast_files", &self.broadcast.len())
            .field("has_state", &self.state.borrow().is_some())
            .finish()
    }
}

impl TaskContext {
    /// Fresh context with no broadcast files.
    pub fn new() -> Self {
        Self::with_env(Vec::new())
    }

    /// Fresh context carrying the job's loaded broadcast side files (the
    /// engine builds every task's context through this).
    pub fn with_env(broadcast: Vec<Arc<DfsFile>>) -> Self {
        TaskContext {
            counters: RefCell::new(OpCounters::new()),
            broadcast,
            state: RefCell::new(None),
        }
    }

    /// Broadcast side file `idx` (the order of [`JobSpec::with_broadcast`]),
    /// shipped to every task of this job through the engine's simulated
    /// distributed cache. [`MrError::Op`] when the job declared no such
    /// file — an operator wired against the wrong job spec.
    pub fn broadcast(&self, idx: usize) -> Result<&DfsFile, MrError> {
        self.broadcast.get(idx).map(Arc::as_ref).ok_or_else(|| {
            MrError::Op(format!(
                "broadcast file #{idx} not attached (job declares {} broadcast files)",
                self.broadcast.len()
            ))
        })
    }

    /// All broadcast side files attached to this task, in declaration
    /// order.
    pub fn broadcast_files(&self) -> &[Arc<DfsFile>] {
        &self.broadcast
    }

    /// Once-per-task derived state (the simulated `Mapper.setup()`):
    /// the first call runs `init` and caches its value for the rest of the
    /// task; later calls return the cached value. Operators are shared
    /// (`Arc<dyn …>`) across all tasks of a job, so per-task structures
    /// like a broadcast-join hash table must live here, not in the
    /// operator. `init` must not recursively call `task_state`, and every
    /// caller within one task must use the same type `T`.
    pub fn task_state<T, F>(&self, init: F) -> Result<Ref<'_, T>, MrError>
    where
        T: Send + 'static,
        F: FnOnce() -> Result<T, MrError>,
    {
        if self.state.borrow().is_none() {
            let built = init()?;
            *self.state.borrow_mut() = Some(Box::new(built));
        }
        Ref::filter_map(self.state.borrow(), |slot| {
            slot.as_deref().and_then(|any| any.downcast_ref::<T>())
        })
        .map_err(|_| MrError::Op("task state already initialized with a different type".into()))
    }

    /// Add `delta` to the named operator counter. Names should be
    /// `&'static str` constants declared next to the operator.
    pub fn count(&self, name: &'static str, delta: u64) {
        self.counters.borrow_mut().add(name, delta);
    }

    /// Drain this task's recorded counters (the engine calls this once per
    /// task to merge them into the job's stats).
    pub fn take_counters(&self) -> OpCounters {
        self.counters.take()
    }

    /// Close the task: drain its counters into the one [`TaskReport`] the
    /// engine absorbs into the job.
    pub(crate) fn report(&self, live_bytes: u64) -> TaskReport {
        TaskReport { ops: self.take_counters(), live_bytes }
    }
}

/// What a finished task hands the engine beside its emitter.
pub(crate) struct TaskReport {
    /// Operator counters the task recorded.
    pub(crate) ops: OpCounters,
    /// Peak bytes the task held live (spill arenas or buffered output).
    pub(crate) live_bytes: u64,
}

/// Buffered, map-side-partitioned output of one map task.
///
/// Each emission is routed to one of `reduce_tasks` spill arenas as it is
/// produced, keyed by [`crate::engine::default_partition`] — Hadoop's
/// map-side partitioning, where the map task writes one spill segment per
/// reducer and the driver never touches individual pairs.
///
/// The emit path is allocation-free per record: key and value bytes are
/// appended to the partition's contiguous `SpillArena` (the `spill`
/// module) — a spliced value is written straight into the arena — so no
/// owned `(Vec<u8>, Vec<u8>)` pair is ever built.
pub struct MapEmitter {
    /// One spill arena per reduce partition; arena `p` holds every
    /// emission whose key partitions to `p`.
    pub(crate) buckets: Vec<crate::spill::SpillArena>,
}

impl MapEmitter {
    /// Emitter spilling into `reduce_tasks` partition arenas.
    pub(crate) fn partitioned(reduce_tasks: usize) -> Self {
        MapEmitter { buckets: vec![crate::spill::SpillArena::default(); reduce_tasks.max(1)] }
    }

    /// Emit an encoded key/value pair with its simulated text row size,
    /// copied into its reduce partition's arena.
    pub fn emit_raw(&mut self, key: &[u8], value: &[u8], text_size: u64) {
        self.emit_raw_with(key, text_size, |buf| buf.extend_from_slice(value));
    }

    /// Emit an already-encoded key whose value `write_value` appends
    /// straight to the partition arena (append only, as
    /// [`crate::Rec::encode_into`]) — for values spliced from several pieces.
    pub fn emit_raw_with(
        &mut self,
        key: &[u8],
        text_size: u64,
        write_value: impl FnOnce(&mut Vec<u8>),
    ) {
        let p = crate::engine::default_partition(key, self.buckets.len());
        self.buckets[p].push(key, text_size, write_value);
    }

    /// Total emissions across all partition arenas.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.buckets.iter().map(crate::spill::SpillArena::len).sum()
    }
}

/// Buffered output of one reduce (or map-only) task:
/// `(output index, record, text size)`.
///
/// Jobs normally have one output file (index 0); Hadoop-style
/// `MultipleOutputs` jobs (e.g. NTGA's group-filter cycle, which writes one
/// file per triplegroup equivalence class) route records with
/// [`OutEmitter::emit_raw_to`].
pub struct OutEmitter {
    pub(crate) records: Vec<(usize, Vec<u8>, u64)>,
    pub(crate) budget: Option<u64>,
    pub(crate) emitted_text: u64,
    pub(crate) n_outputs: usize,
}

impl OutEmitter {
    #[cfg(test)]
    pub(crate) fn new(budget: Option<u64>) -> Self {
        Self::with_outputs(budget, 1)
    }

    pub(crate) fn with_outputs(budget: Option<u64>, n_outputs: usize) -> Self {
        OutEmitter { records: Vec::new(), budget, emitted_text: 0, n_outputs }
    }

    /// Emit a raw record to the job's primary output (index 0).
    ///
    /// Fails with [`MrError::DiskFull`] as soon as the cumulative output
    /// text exceeds the job's disk budget, so a cross-product explosion
    /// aborts early instead of first materializing in memory (mirrors a
    /// Hadoop task dying mid-write).
    pub fn emit_raw(&mut self, record: Vec<u8>, text_size: u64) -> Result<(), MrError> {
        self.emit_raw_to(0, record, text_size)
    }

    /// Emit a raw record to output `idx` (see [`crate::JobSpec::outputs`]).
    pub fn emit_raw_to(
        &mut self,
        idx: usize,
        record: Vec<u8>,
        text_size: u64,
    ) -> Result<(), MrError> {
        if idx >= self.n_outputs {
            return Err(MrError::Op(format!(
                "output index {idx} out of range (job has {} outputs)",
                self.n_outputs
            )));
        }
        self.emitted_text += text_size;
        if let Some(budget) = self.budget {
            if self.emitted_text > budget {
                return Err(MrError::DiskFull {
                    file: "<job output>".into(),
                    needed: self.emitted_text,
                    available: budget,
                });
            }
        }
        self.records.push((idx, record, text_size));
        Ok(())
    }

    /// Close the task's output as its DFS writer: one block checksum per
    /// output file, over the records this task wrote to it (`None` where
    /// it wrote none), folded as [`crate::hdfs::records_checksum`] folds
    /// them. One pass over the task's records, on the task's worker.
    pub(crate) fn block_checksums(&self) -> Vec<Option<u64>> {
        let mut sums: Vec<Option<crate::hash::BlockChecksum>> = vec![None; self.n_outputs];
        for (idx, rec, _) in &self.records {
            sums[*idx].get_or_insert_with(Default::default).update(rec);
        }
        sums.into_iter().map(|s| s.map(|c| c.finish())).collect()
    }
}

/// Byte-level map operator.
pub trait RawMapOp: Send + Sync {
    /// Process one input record. Emit shuffle pairs via `out`.
    fn run(&self, ctx: &TaskContext, record: &[u8], out: &mut MapEmitter) -> Result<(), MrError>;
}

/// Byte-level map operator for map-only jobs (emits output records
/// directly).
pub trait RawMapOnlyOp: Send + Sync {
    /// Process one input record. Emit output records via `out`.
    fn run(&self, ctx: &TaskContext, record: &[u8], out: &mut OutEmitter) -> Result<(), MrError>;
}

/// Byte-level reduce operator.
///
/// `values` borrows directly from the sorted shuffle buffer — the engine
/// hands out slices instead of cloning every value into an owned vector.
pub trait RawReduceOp: Send + Sync {
    /// Process one key group. `values` holds every shuffled value for `key`
    /// in deterministic (sorted) order.
    fn run(
        &self,
        ctx: &TaskContext,
        key: &[u8],
        values: &[&[u8]],
        out: &mut OutEmitter,
    ) -> Result<(), MrError>;
}

// ---------------------------------------------------------------------------
// Job specification
// ---------------------------------------------------------------------------

/// One input of a job: a DFS file plus the mapper applied to its records
/// (Hadoop `MultipleInputs`). Binary joins bind a different mapper to each
/// side.
pub struct InputBinding {
    /// DFS file name.
    pub file: String,
    /// Mapper for this input's records.
    pub mapper: Arc<dyn RawMapOp>,
}

/// What the job does after the map phase.
pub enum JobKind {
    /// Full map-shuffle-reduce cycle.
    MapReduce {
        /// Inputs with their mappers.
        inputs: Vec<InputBinding>,
        /// The reduce operator.
        reducer: Arc<dyn RawReduceOp>,
        /// Number of reduce tasks (partitions).
        reduce_tasks: usize,
    },
    /// Map-only job (no shuffle; mappers write output directly).
    MapOnly {
        /// Input files sharing one mapper.
        files: Vec<String>,
        /// The map-only operator.
        mapper: Arc<dyn RawMapOnlyOp>,
    },
}

/// A complete job description.
pub struct JobSpec {
    /// Job name (for stats and reports).
    pub name: String,
    /// Map/reduce structure.
    pub kind: JobKind,
    /// Output DFS file names. Index 0 is the primary output; reducers
    /// route to further outputs with [`OutEmitter::emit_raw_to`]
    /// (Hadoop `MultipleOutputs`).
    pub outputs: Vec<String>,
    /// Replication override for the outputs (defaults to the DFS default).
    pub replication: Option<u32>,
    /// Marks the job as scanning the base input relation in full — the
    /// paper's "full scan" (FS) metric. Set by planners.
    pub full_input_scan: bool,
    /// Fault-injection epoch, mixed into the deterministic fault hash.
    /// Workflow recovery bumps this when re-running a failed stage so the
    /// retry faces fresh (but still deterministic) fault draws instead of
    /// replaying the identical failure forever. 0 leaves the hash
    /// unchanged.
    pub fault_epoch: u64,
    /// DFS files shipped to every task through the engine's simulated
    /// distributed cache (Hadoop `DistributedCache` / Spark broadcast).
    /// Tasks read them via [`TaskContext::broadcast`]; the engine charges
    /// one copy per map task against the cost model and bounds the total
    /// payload by the engine's broadcast memory budget.
    pub broadcast: Vec<String>,
    /// Planner's estimated output cardinality for this job, when an
    /// optimizer produced one. The engine copies it into
    /// [`crate::JobStats`] next to the actual output count, making the
    /// estimate's q-error observable per job.
    pub estimated_output_records: Option<f64>,
}

impl JobSpec {
    /// Build a map-reduce job.
    pub fn map_reduce(
        name: impl Into<String>,
        inputs: Vec<InputBinding>,
        reducer: Arc<dyn RawReduceOp>,
        reduce_tasks: usize,
        output: impl Into<String>,
    ) -> Self {
        JobSpec {
            name: name.into(),
            kind: JobKind::MapReduce { inputs, reducer, reduce_tasks },
            outputs: vec![output.into()],
            replication: None,
            full_input_scan: false,
            fault_epoch: 0,
            broadcast: Vec::new(),
            estimated_output_records: None,
        }
    }

    /// Build a map-only job.
    pub fn map_only(
        name: impl Into<String>,
        files: Vec<String>,
        mapper: Arc<dyn RawMapOnlyOp>,
        output: impl Into<String>,
    ) -> Self {
        JobSpec {
            name: name.into(),
            kind: JobKind::MapOnly { files, mapper },
            outputs: vec![output.into()],
            replication: None,
            full_input_scan: false,
            fault_epoch: 0,
            broadcast: Vec::new(),
            estimated_output_records: None,
        }
    }

    /// Ship `file` to every task through the simulated distributed cache;
    /// tasks read it back with [`TaskContext::broadcast`] by declaration
    /// index. May be called repeatedly to attach several side files.
    pub fn with_broadcast(mut self, file: impl Into<String>) -> Self {
        self.broadcast.push(file.into());
        self
    }

    /// Override the reduce-task count — how a cost-based planner sizes the
    /// reduce phase to estimated shuffle bytes instead of a fixed default.
    ///
    /// # Panics
    /// Panics when called on a map-only job.
    pub fn with_reducers(mut self, reduce_tasks: usize) -> Self {
        match &mut self.kind {
            JobKind::MapReduce { reduce_tasks: r, .. } => *r = reduce_tasks,
            JobKind::MapOnly { .. } => panic!("map-only jobs have no reduce tasks"),
        }
        self
    }

    /// Add a further named output (Hadoop `MultipleOutputs`). Reducers
    /// reach it via [`OutEmitter::emit_raw_to`] with the output's index.
    pub fn with_extra_output(mut self, name: impl Into<String>) -> Self {
        self.outputs.push(name.into());
        self
    }

    /// Mark this job as performing a full scan of the base relation.
    pub fn with_full_scan(mut self) -> Self {
        self.full_input_scan = true;
        self
    }

    /// Check cross-field invariants before execution: the one place a job
    /// with no reduce task or no output file is refused, as the
    /// [`MrError::Op`] [`crate::Engine::run_job`] returns before any task
    /// runs — not a panic deep inside the shuffle (`key % 0`).
    pub fn validate(&self) -> Result<(), MrError> {
        if let JobKind::MapReduce { reduce_tasks, .. } = &self.kind {
            if *reduce_tasks == 0 {
                return Err(MrError::Op(format!(
                    "job '{}' declares 0 reduce tasks; map-reduce jobs need at least 1",
                    self.name
                )));
            }
        }
        if self.outputs.is_empty() {
            return Err(MrError::Op(format!("job '{}' declares no output files", self.name)));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::CountReduce;

    #[test]
    fn map_emitter_routes_to_partition_buckets() {
        let mut part = MapEmitter::partitioned(4);
        for i in 0..64u64 {
            let key = format!("key{i}").into_bytes();
            part.emit_raw(&key, &[], 1);
        }
        assert_eq!(part.len(), 64);
        // Every emission sits in the bucket its key hashes to.
        for (p, bucket) in part.buckets.iter().enumerate() {
            for (k, _) in bucket.iter() {
                assert_eq!(crate::engine::default_partition(k, 4), p);
            }
        }
        // With 64 distinct keys over 4 buckets, FNV-1a should spread load.
        assert!(part.buckets.iter().all(|b| !b.is_empty()));
    }

    #[test]
    fn validate_rejects_zero_reduce_tasks() {
        let job = |reduce_tasks| {
            let words =
                InputBinding { file: "in".into(), mapper: Arc::new(crate::common::WordOne) };
            JobSpec::map_reduce("j", vec![words], Arc::new(CountReduce), reduce_tasks, "out")
        };
        let mut spec = job(1);
        assert!(spec.validate().is_ok());
        spec.outputs.clear();
        assert!(spec.validate().is_err());
        // Zero reduce tasks, from the builder or from `with_reducers`, is the
        // typed error `run_job` returns, and nothing is committed.
        let engine = crate::Engine::unbounded();
        engine.put_records("in", ["a".to_string()]).unwrap();
        for spec in [job(0), job(2).with_reducers(0)] {
            let err = engine.run_job(&spec).unwrap_err();
            assert!(matches!(&err, MrError::Op(m) if m.contains("0 reduce tasks")), "{err:?}");
            assert!(!engine.hdfs().lock().exists("out"));
        }
    }

    #[test]
    fn out_emitter_budget_aborts() {
        let mut out = OutEmitter::new(Some(10));
        assert!(out.emit_raw(vec![1], 6).is_ok());
        let err = out.emit_raw(vec![2], 6).unwrap_err();
        assert!(err.is_disk_full());
        // Budget is shared across named outputs too.
        let mut multi = OutEmitter::with_outputs(Some(10), 2);
        assert!(multi.emit_raw_to(1, vec![1], 6).is_ok());
        assert!(multi.emit_raw_to(0, vec![1], 6).unwrap_err().is_disk_full());
        assert!(multi.emit_raw_to(7, vec![1], 1).is_err());
    }

    #[test]
    fn out_emitter_unbounded() {
        let mut out = OutEmitter::new(None);
        for _ in 0..100 {
            out.emit_raw(vec![0], 1000).unwrap();
        }
        assert_eq!(out.emitted_text, 100_000);
    }
}
