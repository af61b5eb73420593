//! # rdf-model — RDF data-model substrate
//!
//! This crate provides the RDF plumbing that every other crate in the
//! workspace builds on:
//!
//! * [`Term`] — a parsed RDF term (IRI / literal / blank node) with
//!   N-Triples-conformant display and parsing;
//! * [`Atom`] — a cheap reference-counted string, the lexical (token)
//!   representation of a term in typed values;
//! * [`STriple`] — a triple of atoms (the workhorse record type);
//! * [`ntriples`] — a streaming N-Triples parser;
//! * [`TripleStore`] — an in-memory triple collection with property
//!   statistics (multiplicity distributions drive the redundancy phenomenon
//!   studied by the paper).
//!
//! The paper operates on lexical triples (Pig/Hive move text through HDFS),
//! and the text-cost model keeps that framing: an [`STriple`] holds the
//! canonical N-Triples token for each position, and [`STriple::text_size`]
//! is the number of bytes the triple occupies in a text row — the quantity
//! the text-model HDFS/shuffle counters in `mrsim` are built from.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod atom;
pub mod hash;
pub mod ntriples;
pub mod store;
pub mod term;
pub mod triple;

pub use atom::Atom;
pub use hash::{fnv1a, DetHashMap, FnvBuildHasher, FnvHasher, TokenBuildHasher, TokenHasher};
pub use ntriples::{parse_line, parse_str, NtParseError};
pub use store::{PropertyStats, StatsBuilder, StoreStats, TripleStore};
pub use term::Term;
pub use triple::STriple;
