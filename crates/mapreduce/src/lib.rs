//! # mrsim — a deterministic MapReduce engine simulator
//!
//! This crate is the substrate standing in for Hadoop in the reproduction
//! of *"Scaling Unbound-Property Queries on Big RDF Data Warehouses using
//! MapReduce"* (EDBT 2015). It executes real map/shuffle/sort/reduce
//! computation over in-memory data while keeping **byte-accurate counters**
//! of the quantities the paper measures:
//!
//! * HDFS bytes read and written (text-row sizes, × replication factor);
//! * shuffle (map-output) bytes;
//! * MR cycles and full scans of the base relation;
//! * peak DFS usage against a bounded disk budget — writes that exceed the
//!   budget fail with [`MrError::DiskFull`], reproducing the paper's failed
//!   executions (bars marked `X`).
//!
//! A configurable [`CostModel`] converts counters into simulated seconds so
//! benchmark harnesses can report execution-time *shapes* comparable to the
//! paper's cluster measurements.
//!
//! ## Quick tour
//!
//! ```
//! use mrsim::{map_fn, reduce_fn, Engine, InputBinding, JobSpec};
//! use mrsim::{TypedMapEmitter, TypedOutEmitter};
//!
//! let engine = Engine::unbounded();
//! engine.put_records("words", ["a", "b", "a"].map(String::from)).unwrap();
//!
//! let mapper = map_fn(|w: String, out: &mut TypedMapEmitter<'_, String, u64>| {
//!     out.emit(&w, &1);
//!     Ok(())
//! });
//! let reducer = reduce_fn(|w: String, ones: Vec<u64>, out: &mut TypedOutEmitter<'_, String>| {
//!     out.emit(&format!("{w} {}", ones.len()))
//! });
//! let job = JobSpec::map_reduce(
//!     "wordcount",
//!     vec![InputBinding { file: "words".into(), mapper }],
//!     reducer,
//!     2,
//!     "counts",
//! );
//! let stats = engine.run_job(&job).unwrap();
//! assert_eq!(stats.reduce_groups, 2);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod codec;
pub mod cost;
pub mod counters;
pub mod engine;
pub mod error;
pub mod faults;
pub mod hdfs;
pub mod job;
pub mod metrics;
pub mod spill;
pub mod trace;
pub mod workflow;

/// Shared deterministic hashing (re-exported from `rdf-model`): the
/// spec-stable [`hash::fnv1a`] used for reducer partitioning, plus the
/// [`hash::DetHashMap`] deterministic hash-map type for join build sides.
pub use rdf_model::hash;

pub use codec::{uvarint_len, write_uvarint, Rec, SliceReader, VarId};
pub use cost::CostModel;
pub use counters::{q_error, FaultStats, JobStats, OpCounters, WorkflowStats};
pub use engine::{default_partition, Engine, BLOCK_SIZE_BYTES, DEFAULT_BROADCAST_BUDGET_BYTES};
pub use error::MrError;
pub use faults::FaultConfig;
pub use hdfs::{DfsFile, SimHdfs};
pub use job::{
    map_fn, map_only_fn, reduce_fn, InputBinding, JobKind, JobSpec, MapEmitter, OutEmitter,
    RawMapOnlyOp, RawMapOp, RawReduceOp, TaskContext, TypedMapEmitter, TypedOutEmitter,
};
pub use metrics::{Histogram, MetricsRegistry};
pub use spill::SpillArena;
pub use trace::{
    ChromeTraceSink, JsonlSink, MemorySink, MultiSink, TaskPhase, TraceEvent, TraceSink,
};
pub use workflow::{RecoveryPolicy, Workflow};
