//! The plan IR: one [`PhysicalPlan`] type for every approach.
//!
//! A plan is its query and stages of [`PlanJob`]s, one stage per MR cycle
//! as the paper counts them: Pig's concurrent star joins are one stage of
//! several jobs, every other stage holds one. Each job names its operator,
//! a typed [`Cycle`] that carries its own arguments (a join cycle its step
//! of the query's left-deep order), and what the plan expects of it. The
//! NTGA plans are a [`Cycle::GroupFilter`] stage (Job 1: every star
//! subpattern in one grouping cycle) followed by one [`Cycle::TgJoin`]
//! stage per join; [`crate::Strategy::plan`] builds them with the paper's
//! hand-picked policies and [`crate::optimize`] from statistics, with an
//! estimate on every job. The relational baselines ([`PhysicalPlan::pig`],
//! [`PhysicalPlan::hive`], [`PhysicalPlan::sel_sj_first`]) are star-join,
//! row-join and attach cycles. [`crate::execute_plan`] runs any plan,
//! [`crate::explain_plan`] renders it and [`crate::explain_analyze`] joins
//! it against its run; all three only read it.

use crate::physical::{role_of, BuildSide, JoinRole, UnnestMode};
use mr_rdf::{check_query, PlanError};
use rdf_query::{JoinStep, ObjPattern, Query};

/// The join algorithm of one NTGA join cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinAlgo {
    /// Reduce-side triplegroup join ([`crate::physical::tg_join_job`]).
    Reduce {
        /// Map-side unnest mode (exact or φ-partial).
        mode: UnnestMode,
        /// Reduce-task count.
        reduce_tasks: usize,
    },
    /// Map-side broadcast join ([`crate::physical::tg_broadcast_join_job`]):
    /// no shuffle, no reduce phase.
    Broadcast {
        /// Which side ships through the distributed cache.
        build: BuildSide,
    },
}

/// How a relational star join reads the triple relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scan {
    /// One pass feeds every VP relation and the unbound union (Hive).
    Shared,
    /// One LOAD per relation group: a star with bound and unbound patterns
    /// reads its input twice (Pig).
    PerLoad,
}

/// The operator of one MR job of a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Cycle {
    /// NTGA Job 1: `TG_GroupBy` + `TG_(Unb)GrpFilter` writes every star's
    /// equivalence class, β-unnested eagerly for the stars marked `eager`.
    GroupFilter {
        /// Per-star unnest placement (`true` = eager β-unnest in the
        /// grouping reduce, `false` = stay nested).
        eager: Vec<bool>,
        /// Reduce-task count.
        reduce_tasks: usize,
    },
    /// A triplegroup join: one step of the query's left-deep order.
    TgJoin(JoinAlgo, CycleStep),
    /// Pig's map-only job that passes the input through before the star
    /// joins of a multi-star query.
    LoadCopy,
    /// One star's relational star join over the (copied) input.
    StarJoin {
        /// The star, by index in [`Query::stars`].
        star: usize,
        /// How the job reads the input.
        scan: Scan,
    },
    /// A row join: one step of the query's left-deep order.
    RowJoin(JoinStep),
    /// Join the running relation with star `star`'s matches, computed from
    /// the input in the same cycle and keyed by its subject; the patterns a
    /// [`Cycle::PatternAttach`] already attached are left out.
    StarAttach {
        /// The star, by index in [`Query::stars`].
        star: usize,
    },
    /// Join the running relation with the matches of one pattern, computed
    /// from the input and keyed by the pattern's object.
    PatternAttach {
        /// The star, by index in [`Query::stars`].
        star: usize,
        /// The pattern, by index in the star's patterns.
        pattern: usize,
    },
}

/// What a plan expects of one job.
#[derive(Debug, Clone)]
pub struct CycleEstimate {
    /// Estimated output cardinality (records).
    pub output_records: f64,
    /// Estimated records of each output file, in the job's output order
    /// (Job 1: one per star); empty when only the total is estimated.
    pub file_records: Vec<f64>,
    /// Estimated output size in text bytes.
    pub output_bytes: f64,
    /// Estimated shuffle bytes (0 for broadcast cycles); `None` when the
    /// shuffle is priced inside `seconds` alone (Job 1), so that EXPLAIN
    /// ANALYZE shows the measured bytes in its place.
    pub shuffle_bytes: Option<u64>,
    /// Estimated cost of this job in simulated seconds.
    pub seconds: f64,
}

/// One MR job of a plan: its operator and what the plan expects of it.
#[derive(Debug, Clone)]
pub struct PlanJob {
    /// The operator.
    pub cycle: Cycle,
    /// The optimizer's estimate; `None` for hand-picked and baseline
    /// plans, which are chosen without statistics, attach no estimate to
    /// their jobs and report no q-error.
    pub estimate: Option<CycleEstimate>,
}

/// A fully-decided physical plan for a query: everything a run of it
/// needs. Only the constructors build one, from a query they have checked,
/// and it is read-only after.
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    query: Query,
    label: String,
    stages: Vec<Vec<PlanJob>>,
}

impl PhysicalPlan {
    /// The plan of `stages` for `query`, which the caller has checked with
    /// [`supported`].
    pub(crate) fn new(
        query: &Query,
        label: impl Into<String>,
        stages: impl IntoIterator<Item = Vec<PlanJob>>,
    ) -> PhysicalPlan {
        PhysicalPlan {
            query: query.clone(),
            label: label.into(),
            stages: stages.into_iter().collect(),
        }
    }

    /// The plan of `stages`' cycles for `query`, without estimates.
    pub(crate) fn unestimated(
        query: &Query,
        label: impl Into<String>,
        stages: impl IntoIterator<Item = Vec<Cycle>>,
    ) -> PhysicalPlan {
        let job = |cycle| PlanJob { cycle, estimate: None };
        let stages = stages.into_iter().map(|stage| stage.into_iter().map(job).collect());
        PhysicalPlan::new(query, label, stages)
    }

    /// The query this plan answers.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// Who decided: the approach's or strategy's label, `CostBased` for
    /// [`crate::optimize`]. Names the workflow (`NTGA-<label>/…` for NTGA
    /// plans, `<label>/…` for the baselines).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The MR cycles in execution order; the jobs of one stage run
    /// concurrently.
    pub fn stages(&self) -> &[Vec<PlanJob>] {
        &self.stages
    }

    /// Every job, in execution order.
    pub(crate) fn jobs(&self) -> impl Iterator<Item = &PlanJob> {
        self.stages.iter().flatten()
    }

    /// Job 1's per-star unnest placement; `None` for a relational plan.
    pub(crate) fn eager_stars(&self) -> Option<&[bool]> {
        self.jobs().find_map(|job| match &job.cycle {
            Cycle::GroupFilter { eager, .. } => Some(&eager[..]),
            _ => None,
        })
    }

    /// Number of reduce cycles the broadcast operator collapsed.
    pub fn broadcast_cycles(&self) -> usize {
        let broadcast =
            |job: &&PlanJob| matches!(job.cycle, Cycle::TgJoin(JoinAlgo::Broadcast { .. }, _));
        self.jobs().filter(broadcast).count()
    }

    /// The plan's estimated cost in simulated seconds: its jobs' estimates
    /// summed in job order; `None` unless every job carries one.
    pub(crate) fn estimated_seconds(&self) -> Option<f64> {
        self.jobs().map(|job| job.estimate.as_ref().map(|e| e.seconds)).sum()
    }

    /// The name of every job a run of this plan under `label` runs, in
    /// order; each job writes the DFS file of its name, except Job 1 (one
    /// `{label}.ec{star}` file per star) and the load (`{label}.copy`).
    pub fn job_names(&self, label: &str) -> Vec<String> {
        let (mut tg_joins, mut row_joins, mut pattern_attached) = (0usize.., 0usize.., false);
        let name = |job: &PlanJob| match job.cycle {
            Cycle::GroupFilter { .. } => format!("{label}.group"),
            Cycle::TgJoin(..) => format!("{label}.tgjoin{}", tg_joins.next().unwrap_or_default()),
            Cycle::LoadCopy => format!("{label}.load"),
            Cycle::StarJoin { star, .. } => format!("{label}.star{star}"),
            Cycle::RowJoin(_) => format!("{label}.join{}", row_joins.next().unwrap_or_default()),
            Cycle::PatternAttach { .. } => {
                pattern_attached = true;
                format!("{label}.pattach")
            }
            Cycle::StarAttach { .. } if pattern_attached => format!("{label}.sattach"),
            Cycle::StarAttach { .. } => format!("{label}.attach"),
        };
        self.jobs().map(name).collect()
    }

    /// One-line human summary: the stages' operators, e.g.
    /// `TG_GroupFilter[lazy,eager] → TG_BcastJoin(build=R) est=12.3s` or
    /// `Load → StarJoin(S0,per-load)+StarJoin(S1,per-load) → RowJoin`.
    pub fn summary(&self) -> String {
        let stage = |s: &Vec<PlanJob>| {
            s.iter().map(|job| job.cycle.operator()).collect::<Vec<_>>().join("+")
        };
        let stages: Vec<String> = self.stages.iter().map(stage).collect();
        let est = self.estimated_seconds().map_or(String::new(), |s| format!(" est={s:.1}s"));
        format!("{}{est}", stages.join(" → "))
    }
}

impl Cycle {
    /// The operator's short name, as EXPLAIN's summary and EXPLAIN
    /// ANALYZE's rows show it.
    pub(crate) fn operator(&self) -> String {
        match self {
            Cycle::GroupFilter { eager, .. } => {
                let stars: Vec<&str> =
                    eager.iter().map(|&e| if e { "eager" } else { "lazy" }).collect();
                format!("TG_GroupFilter[{}]", stars.join(","))
            }
            Cycle::TgJoin(JoinAlgo::Reduce { mode: UnnestMode::Exact, reduce_tasks }, _) => {
                format!("TG_Join(exact,r={reduce_tasks})")
            }
            Cycle::TgJoin(JoinAlgo::Reduce { mode: UnnestMode::Partial(m), reduce_tasks }, _) => {
                format!("TG_OptUnbJoin(phi_{m},r={reduce_tasks})")
            }
            Cycle::TgJoin(JoinAlgo::Broadcast { build }, _) => {
                format!("TG_BcastJoin(build={})", if *build == BuildSide::Left { "L" } else { "R" })
            }
            Cycle::LoadCopy => "Load".into(),
            Cycle::StarJoin { star, scan: Scan::Shared } => format!("StarJoin(S{star})"),
            Cycle::StarJoin { star, scan: Scan::PerLoad } => format!("StarJoin(S{star},per-load)"),
            Cycle::RowJoin(_) => "RowJoin".into(),
            Cycle::PatternAttach { star, pattern } => format!("PatternAttach(S{star}#{pattern})"),
            Cycle::StarAttach { star } => format!("StarAttach(S{star})"),
        }
    }
}

/// `query`'s star count, once the query is valid and every planner
/// supports its shape.
pub(crate) fn supported(query: &Query) -> Result<usize, PlanError> {
    query.validate()?;
    check_query(query)?;
    Ok(query.stars.len())
}

/// One step of [`Query::left_deep_order`] with the NTGA join roles layered
/// on: join star `other` into the accumulated left relation, whose
/// component `lpos` (star `l_star`) carries the join variable `var` under
/// `lrole`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleStep {
    pub(crate) other: usize,
    pub(crate) var: String,
    pub(crate) lpos: usize,
    pub(crate) l_star: usize,
    pub(crate) lrole: JoinRole,
    pub(crate) rrole: JoinRole,
}

impl CycleStep {
    /// The sides of this join that hold the join variable as the object of
    /// an unbound-property pattern — the sides a lazy plan must β-unnest
    /// here — as `(star, is that pattern's object partially bound)`.
    pub(crate) fn unbound_sides(&self, query: &Query) -> Vec<(usize, bool)> {
        [(self.l_star, self.lrole), (self.other, self.rrole)]
            .into_iter()
            .filter_map(|(star, role)| match role {
                JoinRole::UnboundObj(u) => {
                    let pat = query.stars[star].unbound_patterns()[u];
                    Some((star, matches!(pat.object, ObjPattern::Filtered(_, _))))
                }
                _ => None,
            })
            .collect()
    }
}

/// The query's left-deep join order as NTGA join cycles, so plan decisions
/// line up one-to-one with the jobs that will run.
pub(crate) fn join_schedule(query: &Query) -> Result<Vec<CycleStep>, PlanError> {
    let mut components: Vec<usize> = vec![0];
    query
        .left_deep_order()?
        .into_iter()
        .map(|step| {
            let (lpos, lrole) = components
                .iter()
                .enumerate()
                .find_map(|(pos, &star)| role_of(&query.stars[star], &step.var).map(|r| (pos, r)))
                .ok_or_else(|| PlanError::Internal("join var missing on left".into()))?;
            let rrole = role_of(&query.stars[step.star], &step.var)
                .ok_or_else(|| PlanError::Internal("join var missing on right".into()))?;
            let l_star = components[lpos];
            components.push(step.star);
            Ok(CycleStep { other: step.star, var: step.var, lpos, l_star, lrole, rrole })
        })
        .collect()
}
