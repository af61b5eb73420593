//! # relbase — relational-style MapReduce operators (Pig-like / Hive-like)
//!
//! The operators and job builders of the paper's comparison systems,
//! rebuilt on `mrsim`: star subpatterns evaluated as joins of vertically
//! partitioned relations, materializing flat 3k-arity n-tuples, and joins
//! between those row relations. Unbound-property patterns force a union
//! over all VP relations (a full scan) and multiply every bound match with
//! every unbound match — the redundancy whose cost NTGA's lazy
//! β-unnesting avoids.
//!
//! The plans that chain these jobs — Pig, Hive and Figure 3's Sel-SJ-first
//! grouping — are `ntga_core::PhysicalPlan`s, run by the one driver
//! `ntga_core::execute_plan`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod attach;
pub mod load;
pub mod row_join;
pub mod star_join;

pub use attach::{pattern_attach_job, star_attach_job};
pub use load::load_copy_job;
pub use row_join::row_join_job;
pub use star_join::{star_join_job, star_schema, PatternSet};
