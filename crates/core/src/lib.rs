//! # ntga-core — the Nested TripleGroup Algebra for unbound-property queries
//!
//! The paper's contribution (Ravindra & Anyanwu, EDBT 2015), rebuilt on the
//! `mrsim` MapReduce substrate:
//!
//! * [`tg`] — the TripleGroup data model: [`AnnTg`] annotated triplegroups
//!   (nested property→objects representation with per-unbound-pattern
//!   candidate lists), [`TgTuple`] joined tuples, and the borrowed
//!   [`tg::TgCursor`] the join cycles read encoded tuples through;
//! * [`unnest`] — the final β-unnest: [`FinalUnnest`] turns a workflow's
//!   final tuples into projected solution rows, read in place;
//! * [`logical`] — the algebra of Section 3, the specification and test
//!   oracle of the kernels: `γ`, `σ^βγ` (Definition 1), `μ^β` (Definition
//!   2), `μ^β_φ` (Definition 3) and the final `μ^β`;
//! * [`physical`] — the MapReduce operators of Section 4: `TG_GroupBy` +
//!   `TG_UnbGrpFilter` (Algorithm 2), `TG_Join`, `TG_UnbJoin` (lazy full
//!   β-unnest), `TG_OptUnbJoin` (lazy partial β-unnest, Algorithm 3);
//! * [`plan`] — the [`PhysicalPlan`] IR of every approach: a checked query
//!   and stages of jobs, one stage per MR cycle, each job a typed [`Cycle`]
//!   with its own arguments and estimate;
//! * [`optimizer`] — cost-based plan selection: per-star unnest placement,
//!   per-cycle exact/partial/broadcast join choice and reducer sizing from
//!   store statistics and the engine's cost model;
//! * [`planner`] — the hand-picked [`Strategy`] policies (EagerUnnest /
//!   LazyUnnest-full / LazyUnnest-partial / Auto) as plan constructors, and
//!   [`execute_plan`], the one driver that runs any plan as an MR workflow;
//! * [`baseline`] — the relational baselines as plans: Pig, Hive and
//!   Figure 3's Sel-SJ-first grouping, built from `relbase`'s jobs;
//! * [`mod@explain`] — EXPLAIN: the one renderer of a plan's cycles;
//! * [`profile`] — EXPLAIN ANALYZE: join a priced plan against the measured
//!   run into a per-operator estimated-vs-actual profile tree.
//!
//! ## Quick start
//!
//! ```
//! use ntga_core::{execute_plan, Strategy};
//! use mrsim::Engine;
//!
//! let engine = Engine::unbounded();
//! let store = rdf_model::parse_str(
//!     "<g1> <label> \"a\" .\n<g1> <xGO> <go1> .\n<go1> <gl> \"x\" .\n",
//! ).map(rdf_model::TripleStore::from_triples).unwrap();
//! mr_rdf::load_store(&engine, "triples", &store).unwrap();
//!
//! let query = rdf_query::parse_query(
//!     "SELECT * WHERE { ?g <label> ?l . ?g ?p ?go . ?go <gl> ?x . }",
//! ).unwrap();
//! let plan = Strategy::Auto(1024).plan(&query).unwrap();
//! let run = execute_plan(&plan, &engine, "triples", "demo", true).unwrap();
//! assert!(run.succeeded());
//! assert_eq!(run.stats.mr_cycles, 2); // all star joins in ONE grouping cycle
//! assert_eq!(run.solutions.unwrap().len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod aggregate;
pub mod baseline;
pub mod explain;
pub mod logical;
pub mod optimizer;
pub mod physical;
pub mod plan;
pub mod planner;
pub mod profile;
pub mod rewrite;
pub mod tg;
pub mod unnest;

pub use explain::{explain_plan, PlanText};
pub use optimizer::{optimize, OptimizerConfig};
pub use plan::{Cycle, CycleEstimate, JoinAlgo, PhysicalPlan, PlanJob, Scan};
pub use planner::{execute_plan, Strategy};
pub use profile::{explain_analyze, OpProfile, Profile, StarProfile};
pub use tg::{AnnTg, TgTuple};
pub use unnest::FinalUnnest;
