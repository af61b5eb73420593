//! The plan IR: one [`PhysicalPlan`] type for every approach.
//!
//! A plan is stages of typed [`Cycle`]s, one stage per MR cycle as the
//! paper counts them: Pig's concurrent star joins are one stage of several
//! jobs, every other stage holds one. The NTGA plans are a
//! [`Cycle::GroupFilter`] stage (Job 1: every star subpattern in one
//! grouping cycle) followed by one [`Cycle::TgJoin`] stage per join in the
//! query's left-deep order; [`crate::Strategy::plan`] builds them with the
//! paper's hand-picked policies and [`crate::optimize`] from statistics.
//! The relational baselines ([`PhysicalPlan::pig`], [`PhysicalPlan::hive`],
//! [`PhysicalPlan::sel_sj_first`]) are star-join, row-join and attach
//! cycles. [`crate::execute_plan`] runs any plan, [`crate::explain_plan`]
//! renders it, and both name its jobs through [`PhysicalPlan::job_names`].

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

/// One MR job of a plan.
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
    /// A triplegroup join: the next step of the query's left-deep order.
    TgJoin(JoinAlgo),
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
    /// A row join: the next step of the query's left-deep order.
    RowJoin,
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

/// What the optimizer expects of one join cycle.
#[derive(Debug, Clone)]
pub struct CycleEstimate {
    /// Estimated join output cardinality (records).
    pub output_records: f64,
    /// Estimated join output size in text bytes.
    pub output_bytes: f64,
    /// Estimated shuffle bytes (0 for broadcast cycles).
    pub shuffle_bytes: u64,
    /// Estimated cost of this cycle in simulated seconds.
    pub seconds: f64,
}

/// What the optimizer expects of a whole plan — the estimated column that
/// `explain_analyze` joins against the measured run.
#[derive(Debug, Clone)]
pub struct PlanEstimates {
    /// Estimated total records Job 1 writes across all equivalence classes.
    pub job1_records: f64,
    /// Estimated total text bytes Job 1 writes across all equivalence classes.
    pub job1_bytes: f64,
    /// Estimated records per equivalence-class file (one entry per star,
    /// under the chosen eager/lazy placement).
    pub star_records: Vec<f64>,
    /// Estimated cost of Job 1 in simulated seconds.
    pub job1_seconds: f64,
    /// One entry per [`Cycle::TgJoin`], in plan order.
    pub cycles: Vec<CycleEstimate>,
    /// Estimated total plan cost in simulated seconds.
    pub seconds: f64,
}

/// A fully-decided physical plan for a query.
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    /// Who decided: the approach's or strategy's label, `CostBased` for
    /// [`crate::optimize`]. Names the workflow (`NTGA-<label>/…` for NTGA
    /// plans, `<label>/…` for the baselines).
    pub label: String,
    /// The MR cycles in execution order; the jobs of one stage run
    /// concurrently.
    pub stages: Vec<Vec<Cycle>>,
    /// The optimizer's estimates; `None` for hand-picked and baseline
    /// plans, which are chosen without statistics, attach no estimate to
    /// their jobs and report no q-error.
    pub estimates: Option<PlanEstimates>,
}

impl PhysicalPlan {
    /// An NTGA plan: Job 1, then one stage per join cycle.
    pub(crate) fn ntga(
        label: String,
        eager: Vec<bool>,
        reduce_tasks: usize,
        joins: Vec<JoinAlgo>,
        estimates: Option<PlanEstimates>,
    ) -> PhysicalPlan {
        let job1 = Cycle::GroupFilter { eager, reduce_tasks };
        let stages = std::iter::once(job1).chain(joins.into_iter().map(Cycle::TgJoin));
        PhysicalPlan { label, stages: stages.map(|c| vec![c]).collect(), estimates }
    }

    /// Every cycle, in execution order.
    pub(crate) fn cycles(&self) -> impl Iterator<Item = &Cycle> {
        self.stages.iter().flatten()
    }

    /// Job 1's per-star unnest placement; `None` for a relational plan.
    pub(crate) fn eager_stars(&self) -> Option<&[bool]> {
        self.cycles().find_map(|cycle| match cycle {
            Cycle::GroupFilter { eager, .. } => Some(&eager[..]),
            _ => None,
        })
    }

    /// Number of reduce cycles the broadcast operator collapsed.
    pub fn broadcast_cycles(&self) -> usize {
        self.cycles().filter(|c| matches!(c, Cycle::TgJoin(JoinAlgo::Broadcast { .. }))).count()
    }

    /// The name of every job a run of this plan under `label` runs, in
    /// order; each job writes the DFS file of its name, except Job 1 (one
    /// `{label}.ec{star}` file per star) and the load (`{label}.copy`).
    pub fn job_names(&self, label: &str) -> Vec<String> {
        let (mut tg_joins, mut row_joins, mut pattern_attached) = (0usize.., 0usize.., false);
        let name = |cycle: &Cycle| match cycle {
            Cycle::GroupFilter { .. } => format!("{label}.group"),
            Cycle::TgJoin(_) => format!("{label}.tgjoin{}", tg_joins.next().unwrap_or_default()),
            Cycle::LoadCopy => format!("{label}.load"),
            Cycle::StarJoin { star, .. } => format!("{label}.star{star}"),
            Cycle::RowJoin => format!("{label}.join{}", row_joins.next().unwrap_or_default()),
            Cycle::PatternAttach { .. } => {
                pattern_attached = true;
                format!("{label}.pattach")
            }
            Cycle::StarAttach { .. } if pattern_attached => format!("{label}.sattach"),
            Cycle::StarAttach { .. } => format!("{label}.attach"),
        };
        self.cycles().map(name).collect()
    }

    /// The query's join steps for this plan's join cycles: one
    /// [`CycleStep`] per [`Cycle::TgJoin`] and one [`JoinStep`] per
    /// [`Cycle::RowJoin`], both in the query's left-deep order — or an error
    /// when this plan was not built for a query of that shape.
    pub(crate) fn schedule_for(
        &self,
        query: &Query,
    ) -> Result<(Vec<CycleStep>, Vec<JoinStep>), PlanError> {
        let tg_joins = self.cycles().filter(|c| matches!(c, Cycle::TgJoin(_))).count();
        let row_joins = self.cycles().filter(|c| **c == Cycle::RowJoin).count();
        let eager_stars = self.eager_stars();
        let tg_steps = if eager_stars.is_some() { join_schedule(query)? } else { Vec::new() };
        let row_steps = if row_joins > 0 { query.left_deep_order()? } else { Vec::new() };
        if tg_steps.len() != tg_joins
            || row_steps.len() != row_joins
            || eager_stars.is_some_and(|eager| eager.len() != query.stars.len())
            || self.estimates.as_ref().is_some_and(|e| e.cycles.len() != tg_joins)
        {
            return Err(PlanError::Internal("plan shape does not match query".into()));
        }
        Ok((tg_steps, row_steps))
    }

    /// One-line human summary: the stages' operators, e.g.
    /// `TG_GroupFilter[lazy,eager] → TG_BcastJoin(build=R) est=12.3s` or
    /// `Load → StarJoin(S0,per-load)+StarJoin(S1,per-load) → RowJoin`.
    pub fn summary(&self) -> String {
        let stage = |s: &Vec<Cycle>| s.iter().map(Cycle::operator).collect::<Vec<_>>().join("+");
        let stages: Vec<String> = self.stages.iter().map(stage).collect();
        let est =
            self.estimates.as_ref().map_or(String::new(), |e| format!(" est={:.1}s", e.seconds));
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
            Cycle::TgJoin(JoinAlgo::Reduce { mode: UnnestMode::Exact, reduce_tasks }) => {
                format!("TG_Join(exact,r={reduce_tasks})")
            }
            Cycle::TgJoin(JoinAlgo::Reduce { mode: UnnestMode::Partial(m), reduce_tasks }) => {
                format!("TG_OptUnbJoin(phi_{m},r={reduce_tasks})")
            }
            Cycle::TgJoin(JoinAlgo::Broadcast { build }) => {
                format!("TG_BcastJoin(build={})", if *build == BuildSide::Left { "L" } else { "R" })
            }
            Cycle::LoadCopy => "Load".into(),
            Cycle::StarJoin { star, scan: Scan::Shared } => format!("StarJoin(S{star})"),
            Cycle::StarJoin { star, scan: Scan::PerLoad } => format!("StarJoin(S{star},per-load)"),
            Cycle::RowJoin => "RowJoin".into(),
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
#[derive(Debug, Clone)]
pub(crate) struct CycleStep {
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
