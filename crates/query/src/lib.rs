//! # rdf-query — graph pattern queries with unbound properties
//!
//! The query model of the reproduction: triple patterns whose *property*
//! position may be an unbound variable ([`PropPattern::Unbound`]), star
//! subpatterns grouping patterns by subject variable ([`StarPattern`]),
//! whole queries with inter-star join analysis ([`Query`]), a SPARQL-subset
//! parser ([`parse_query`]), canonical solution sets ([`SolutionSet`]: one
//! sorted, deduplicated, dictionary-coded table of rows over the header
//! [`Query::solution_vars`], filled through [`SolutionRows`] and read row
//! by row as [`Binding`]s), and a naive reference evaluator
//! ([`naive::evaluate`]) that serves as the gold standard for every
//! MapReduce execution strategy in the workspace.
//!
//! ```
//! use rdf_query::parse_query;
//!
//! let q = parse_query(
//!     "SELECT ?gene ?p WHERE {
//!          ?gene <xGO> ?go .
//!          ?gene ?p ?o .
//!          ?go <go_label> ?gl .
//!      }",
//! ).unwrap();
//! assert_eq!(q.stars.len(), 2);
//! assert_eq!(q.unbound_pattern_count(), 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bindings;
pub mod display;
pub mod estimate;
pub mod naive;
pub mod parser;
pub mod pattern;
pub mod query;
pub mod star;

pub use bindings::{Binding, SolutionRows, SolutionSet};
pub use parser::{parse_query, ParseError};
pub use pattern::{ObjFilter, ObjPattern, PropPattern, SubjPattern, TriplePattern};
pub use query::{JoinEdge, JoinKind, JoinStep, Query, QueryError};
pub use star::StarPattern;
