//! # mr-rdf — shared MapReduce record types for RDF pipelines
//!
//! Both the relational baselines (`relbase`) and the NTGA engine
//! (`ntga-core`) move RDF data through `mrsim` jobs. This crate holds the
//! record types and helpers they share:
//!
//! * [`Row`] / [`RowSchema`] / [`RowView`] — schema'd n-tuples, the
//!   materialization of relational star-join results (3k-arity: s/p/o per
//!   pattern, exactly the redundant representation the paper measures);
//! * [`PlanError`] / [`QueryRun`] — what the one plan driver
//!   (`ntga_core::execute_plan`) returns for every approach;
//! * [`check_query`] / [`check_star`] — which queries the engines support.
//!
//! The base triple relation ([`TripleRec`], [`load_store`], [`analyze`],
//! …) lives in [`mrsim::triples`], beside the cluster description that
//! loads it, and is re-exported here.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod row;
pub mod run;
pub mod support;

pub use mrsim::triples::{analyze, load_store, read_store, TripleRec, TripleView, TRIPLES_FILE};
pub use row::{next_combination, Row, RowSchema, RowView};
pub use run::{binder_slots, PlanError, QueryRun};
pub use support::{check_query, check_star, UnsupportedReason};

/// Reduce tasks of a planned map-reduce job, relational or NTGA, unless its
/// plan sizes the cycle itself.
pub const REDUCERS: usize = 8;
