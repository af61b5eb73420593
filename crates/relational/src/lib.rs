//! # relbase — relational-style MapReduce baselines (Pig-like / Hive-like)
//!
//! The comparison systems of the paper's evaluation, rebuilt on `mrsim`:
//! star subpatterns evaluated one-per-MR-cycle as joins of vertically
//! partitioned relations, materializing flat 3k-arity n-tuples, followed by
//! one MR cycle per inter-star join. Unbound-property patterns force a
//! union over all VP relations (a full scan) and multiply every bound
//! match with every unbound match — the redundancy whose cost NTGA's lazy
//! β-unnesting avoids.
//!
//! Entry point: [`execute`] with a [`RelFlavor`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod attach;
pub mod grouping;
pub mod planner;
pub mod row_join;
pub mod star_join;

pub use grouping::{execute_grouping, Grouping};
pub use planner::{execute, RelFlavor};
pub use row_join::row_join_job;
pub use star_join::{star_join_job, star_schema, PatternSet};
