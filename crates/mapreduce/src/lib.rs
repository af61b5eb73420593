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
//! A [`ClusterConfig`] describes a simulated cluster, [`Engine::new`]
//! checks it once, and [`triples`] is the base relation it loads.
//!
//! ## Quick tour
//!
//! An operator reads the engine's encoded records in place and writes
//! encoded records, each with the size it would have as a text row.
//!
//! ```
//! use mrsim::codec::{token_key, Rec};
//! use mrsim::{Engine, InputBinding, JobSpec, MapEmitter, MrError, OutEmitter};
//! use mrsim::{RawMapOp, RawReduceOp, TaskContext};
//! use std::sync::Arc;
//!
//! /// Each word, shipped under itself with no value.
//! struct Words;
//! impl RawMapOp for Words {
//!     fn run(&self, _: &TaskContext, word: &[u8], out: &mut MapEmitter) -> Result<(), MrError> {
//!         let text = token_key(word)?.len() as u64 + 1; // `word \n`
//!         out.emit_raw(word, &[], text);
//!         Ok(())
//!     }
//! }
//!
//! /// Each word with the number of times it occurs.
//! struct Count;
//! impl RawReduceOp for Count {
//!     fn run(
//!         &self,
//!         _: &TaskContext,
//!         word: &[u8],
//!         values: &[&[u8]],
//!         out: &mut OutEmitter,
//!     ) -> Result<(), MrError> {
//!         let row = format!("{} {}", token_key(word)?, values.len());
//!         out.emit_raw(row.to_bytes(), row.text_size())
//!     }
//! }
//!
//! let engine = Engine::unbounded();
//! engine.put_records("words", ["a", "b", "a"].map(String::from)).unwrap();
//! let words = InputBinding { file: "words".into(), mapper: Arc::new(Words) };
//! let job = JobSpec::map_reduce("wordcount", vec![words], Arc::new(Count), 2, "counts");
//! let stats = engine.run_job(&job).unwrap();
//! assert_eq!(stats.reduce_groups, 2);
//! let mut counts: Vec<String> = engine.read_records("counts").unwrap();
//! counts.sort();
//! assert_eq!(counts, ["a 2", "b 1"]);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod codec;
pub mod config;
pub mod cost;
pub mod counters;
pub mod engine;
pub mod error;
pub mod faults;
pub mod hdfs;
pub mod job;
pub mod spill;
pub mod trace;
pub mod triples;
pub mod workflow;

/// Shared deterministic hashing (re-exported from `rdf-model`): the
/// spec-stable [`hash::fnv1a`] used for reducer partitioning, plus the
/// [`hash::DetHashMap`] deterministic hash-map type for join build sides.
pub use rdf_model::hash;

pub use codec::{Rec, SliceReader};
pub use config::ClusterConfig;
pub use cost::CostModel;
pub use counters::{q_error, FaultStats, JobStats, OpCounters, WorkflowStats};
pub use engine::{default_partition, Engine, BLOCK_SIZE_BYTES, DEFAULT_BROADCAST_BUDGET_BYTES};
pub use error::MrError;
pub use faults::FaultConfig;
pub use hdfs::{DfsFile, SimHdfs};
pub use job::{
    InputBinding, JobKind, JobSpec, MapEmitter, OutEmitter, RawMapOnlyOp, RawMapOp, RawReduceOp,
    TaskContext,
};
pub use spill::SpillArena;
pub use trace::{MemorySink, TaskPhase, TraceEvent, TraceSink};
pub use workflow::{RecoveryPolicy, Workflow};

// The unit tests run the integration tests' operators, which name the
// crate `mrsim`.
#[cfg(test)]
extern crate self as mrsim;
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod common;
