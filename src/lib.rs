//! # ntga — reproduction of *"Scaling Unbound-Property Queries on Big RDF
//! Data Warehouses using MapReduce"* (EDBT 2015)
//!
//! This facade crate ties the workspace together:
//!
//! * [`rdf_model`] — RDF terms, N-Triples, triple stores;
//! * [`mrsim`] — the deterministic MapReduce engine simulator (simulated
//!   HDFS, replication, bounded disk, byte-accurate counters);
//! * [`rdf_query`] — graph-pattern queries with unbound-property triple
//!   patterns, SPARQL-subset parser, naive reference evaluator;
//! * [`relbase`] — the operators and jobs of the Pig-like and Hive-like
//!   relational baselines;
//! * [`ntga_core`] — the paper's TripleGroup algebra with
//!   eager / lazy-full / lazy-partial β-unnesting, the plan IR every
//!   approach compiles to, and the one driver that runs it;
//! * [`datagen`] — structurally-faithful BSBM / Bio2RDF / DBpedia-like
//!   generators;
//! * [`testbed`] — the paper's query catalog (Q1a–Q3b, B0–B6,
//!   B1-3bnd…6bnd, A1–A6, C1–C4);
//! * [`runner`] — one entry point over every approach: [`Approach::plan`],
//!   then the driver.
//!
//! ```
//! use ntga::prelude::*;
//!
//! let store = datagen::bsbm::generate(&datagen::BsbmConfig::with_products(50));
//! let query = ntga::testbed::b_series().remove(1); // B1
//! let engine = ClusterConfig::default().engine_with(&store);
//! let run = run_query(Approach::NtgaAuto(64), &engine, &query.query, "demo", false).unwrap();
//! assert!(run.succeeded());
//! assert_eq!(run.stats.mr_cycles, 2);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod runner;
pub mod testbed;

pub use mrsim::ClusterConfig;
pub use runner::{run_query, Approach};

/// Convenient single import for examples and tests.
pub mod prelude {
    pub use crate::runner::{run_query, Approach};
    pub use crate::testbed::{self, TestQuery};
    pub use mr_rdf::{load_store, QueryRun, TRIPLES_FILE};
    pub use mrsim::{ClusterConfig, CostModel, Engine, SimHdfs, WorkflowStats};
    pub use ntga_core::Strategy;
    pub use rdf_model::{STriple, TripleStore};
    pub use rdf_query::{parse_query, Query, SolutionSet};
}
