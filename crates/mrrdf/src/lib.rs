//! # mr-rdf — shared MapReduce record types for RDF pipelines
//!
//! Both the relational baselines (`relbase`) and the NTGA engine
//! (`ntga-core`) move RDF data through `mrsim` jobs. This crate holds the
//! record types and helpers they share:
//!
//! * [`TripleRec`] — an [`rdf_model::STriple`] as an engine record (the base input
//!   relation);
//! * [`Row`] / [`RowSchema`] — schema'd n-tuples, the materialization of
//!   relational star-join results (3k-arity: subject/property/object per
//!   pattern, exactly the redundant representation the paper measures);
//! * [`IdTripleRec`] / [`IdPair`] — the dictionary-ID-encoded (LEB128
//!   varint) counterparts NTGA Job 1's ID-native data plane moves;
//! * [`load_store`] / [`load_store_ids`] — put a [`rdf_model::TripleStore`]
//!   into the simulated DFS, lexically or ID-encoded;
//! * [`run_query_workflow`] — the one driver every planner runs a query's
//!   jobs through (validation, failure → failed [`QueryRun`], cleanup,
//!   solution extraction).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod id_match;
pub mod id_rec;
pub mod row;
pub mod run;
pub mod support;
pub mod triple_rec;

pub use id_match::{IdPatternTest, IdStarTest, IdTest};
pub use id_rec::{load_store_ids, IdPair, IdTripleRec, ID_TRIPLES_FILE};
pub use row::{Row, RowSchema, RowView};
pub use run::{run_query_workflow, PlanError, QueryRun, WorkflowAbort};
pub use support::{check_query, check_star, UnsupportedReason};
pub use triple_rec::{load_store, read_store, TripleRec, TripleView, TRIPLES_FILE};
