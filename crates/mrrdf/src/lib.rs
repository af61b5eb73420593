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
//! * [`load_store`] — put a [`rdf_model::TripleStore`] into the simulated
//!   DFS; [`analyze`] — its [`rdf_model::StoreStats`], read in place;
//! * [`PlanError`] / [`QueryRun`] — what the one plan driver
//!   (`ntga_core::execute_plan`) returns for every approach.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod row;
pub mod run;
pub mod support;
pub mod triple_rec;

pub use row::{next_combination, Row, RowSchema, RowView};
pub use run::{binder_slots, PlanError, QueryRun};
pub use support::{check_query, check_star, UnsupportedReason};
pub use triple_rec::{analyze, load_store, read_store, TripleRec, TripleView, TRIPLES_FILE};
