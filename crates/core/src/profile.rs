//! EXPLAIN ANALYZE: join the optimizer's priced [`PhysicalPlan`] against the
//! measured [`WorkflowStats`] of the run that executed it.
//!
//! [`crate::planner::execute_plan`] names its jobs deterministically —
//! `{label}.group` for Job 1, then `{label}.tgjoin{i}` for cycle `i` — so the
//! plan's operators and the run's [`mrsim::JobStats`] line up positionally:
//! `stats.jobs[0]` is Job 1 and `stats.jobs[i + 1]` is cycle `i`. This module
//! performs that join and reports, per operator, estimated vs. actual
//! cardinality, bytes, shuffle volume and simulated seconds, the resulting
//! q-error, reduce skew, and the memory high-water marks the engine records.
//!
//! Three consumers:
//!
//! * [`Profile::render`] — an annotated text tree for humans (the classic
//!   `EXPLAIN ANALYZE` shape);
//! * [`Profile::to_json`] — a stable JSON document (keys in fixed order,
//!   deterministic across worker counts) for tooling and the CI smoke check;
//! * the `reconciliation` object inside the JSON — per-column totals computed
//!   from the same per-job values as the operator rows, so a consumer can
//!   re-sum the rows and verify the document is internally consistent to
//!   float precision.

use crate::optimizer::{CycleEstimate, JoinAlgo, PhysicalPlan};
use crate::physical::{BuildSide, UnnestMode};
use mr_rdf::PlanError;
use mrsim::trace::JsonObject;
use mrsim::{JobStats, WorkflowStats};

/// The q-error `max(est/actual, actual/est)` of an estimate, with both sides
/// clamped to one record so empty relations do not divide by zero. `None`
/// when there was no estimate (negative sentinel) — mirrors
/// [`mrsim::JobStats::q_error`].
fn q_error(estimated: f64, actual: f64) -> Option<f64> {
    if !estimated.is_finite() || estimated < 0.0 {
        return None;
    }
    let est = estimated.max(1.0);
    let act = actual.max(1.0);
    Some((est / act).max(act / est))
}

/// Estimated vs. actual figures for one operator (one MapReduce job).
#[derive(Debug, Clone)]
pub struct OpProfile {
    /// Job name as the engine ran it, e.g. `q.group` or `q.tgjoin0`.
    pub name: String,
    /// Human operator label, e.g. `TG_GroupFilter[lazy,eager]` or
    /// `TG_BcastJoin(build=R)`.
    pub operator: String,
    /// Estimated output cardinality from the plan.
    pub estimated_records: f64,
    /// Records the job actually wrote.
    pub actual_records: u64,
    /// Estimated output text bytes from the plan.
    pub estimated_bytes: f64,
    /// Text bytes the job actually wrote.
    pub actual_bytes: u64,
    /// Estimated shuffle bytes from the plan (0 for broadcast cycles).
    pub estimated_shuffle_bytes: u64,
    /// Map-output bytes the job actually shuffled.
    pub actual_shuffle_bytes: u64,
    /// The plan's priced cost of this operator in simulated seconds.
    pub estimated_seconds: f64,
    /// Simulated seconds the job actually took.
    pub actual_seconds: f64,
    /// Cardinality q-error, `max(est/actual, actual/est)`; `None` when the
    /// job carried no estimate.
    pub q_error: Option<f64>,
    /// Max/mean partition imbalance of the shuffle (1.0 = perfectly even).
    pub reduce_skew: f64,
    /// Largest single reduce partition in shuffle bytes.
    pub max_partition_shuffle_bytes: u64,
    /// Peak bytes held by any one task's spill arenas.
    pub peak_arena_bytes: u64,
    /// Peak live bytes attributed to a single task.
    pub peak_task_live_bytes: u64,
    /// True when the plan chose a broadcast join but the run repaired it to
    /// a reduce-side join because the actual build file busted the budget.
    pub broadcast_repaired: bool,
}

/// Estimated vs. actual cardinality of one star's equivalence class, as
/// written by Job 1 into `{label}.ec{star}`.
#[derive(Debug, Clone)]
pub struct StarProfile {
    /// Star index in query order.
    pub star: usize,
    /// Whether the plan placed the eager β-unnest on this star.
    pub eager: bool,
    /// Estimated equivalence-class records under that placement.
    pub estimated_records: f64,
    /// Records Job 1 actually wrote for this star.
    pub actual_records: u64,
    /// Per-star cardinality q-error.
    pub q_error: Option<f64>,
}

/// The joined plan-vs-actual profile of one executed plan.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Workflow label the run carried.
    pub label: String,
    /// One entry per job, in execution order (Job 1 first, then cycles).
    pub operators: Vec<OpProfile>,
    /// Per-star breakdown of Job 1 (empty when no star actuals were given).
    pub stars: Vec<StarProfile>,
    /// The plan's total priced cost in simulated seconds.
    pub estimated_total_seconds: f64,
    /// The workflow's measured total, including inter-job overheads.
    pub actual_total_seconds: f64,
    /// Largest per-job q-error, as [`WorkflowStats::max_q_error`] reports it.
    pub max_q_error: Option<f64>,
    /// Workflow-wide peak arena footprint (max over jobs).
    pub peak_arena_bytes: u64,
    /// Workflow-wide peak per-task live bytes (max over jobs).
    pub peak_task_live_bytes: u64,
    /// Workflow-wide peak spill-index entries (max over jobs).
    pub peak_spill_entries: u64,
}

fn job1_operator(plan: &PhysicalPlan) -> String {
    let stars: Vec<&str> =
        plan.eager_stars.iter().map(|&e| if e { "eager" } else { "lazy" }).collect();
    format!("TG_GroupFilter[{}]", stars.join(","))
}

fn cycle_operator(algo: &JoinAlgo) -> String {
    match algo {
        JoinAlgo::Reduce { mode: UnnestMode::Exact, reduce_tasks } => {
            format!("TG_Join(exact,r={reduce_tasks})")
        }
        JoinAlgo::Reduce { mode: UnnestMode::Partial(m), reduce_tasks } => {
            format!("TG_OptUnbJoin(phi_{m},r={reduce_tasks})")
        }
        JoinAlgo::Broadcast { build: BuildSide::Left } => "TG_BcastJoin(build=L)".into(),
        JoinAlgo::Broadcast { build: BuildSide::Right } => "TG_BcastJoin(build=R)".into(),
    }
}

fn op_profile(
    name: &str,
    operator: String,
    est: &CycleEstimate,
    job: &JobStats,
    broadcast_repaired: bool,
) -> OpProfile {
    OpProfile {
        name: name.to_string(),
        operator,
        estimated_records: est.output_records,
        actual_records: job.output_records,
        estimated_bytes: est.output_bytes,
        actual_bytes: job.output_text_bytes,
        estimated_shuffle_bytes: est.shuffle_bytes,
        actual_shuffle_bytes: job.shuffle_bytes(),
        estimated_seconds: est.seconds,
        actual_seconds: job.sim_seconds,
        q_error: job.q_error(),
        reduce_skew: job.reduce_skew(),
        max_partition_shuffle_bytes: job.max_partition_shuffle_bytes(),
        peak_arena_bytes: job.peak_arena_bytes,
        peak_task_live_bytes: job.peak_task_live_bytes,
        broadcast_repaired,
    }
}

/// Join `plan` against the stats of the run that executed it.
///
/// `star_actual_records` carries the per-star Job 1 output cardinalities
/// (one entry per star, as returned by
/// [`crate::planner::execute_plan`]); pass an empty slice to skip the
/// per-star breakdown. Fails when the plan carries no estimates (a
/// hand-picked strategy has nothing to compare the run against) or the
/// stats do not have the plan's shape — one job for Job 1 plus one per
/// cycle.
pub fn explain_analyze(
    plan: &PhysicalPlan,
    stats: &WorkflowStats,
    star_actual_records: &[u64],
) -> Result<Profile, PlanError> {
    let est = plan
        .estimates
        .as_ref()
        .ok_or_else(|| PlanError::Internal("EXPLAIN ANALYZE needs a plan with estimates".into()))?;
    if stats.jobs.len() != plan.cycles.len() + 1 || est.cycles.len() != plan.cycles.len() {
        return Err(PlanError::Internal(format!(
            "profile shape mismatch: plan has 1 + {} jobs, stats has {}",
            plan.cycles.len(),
            stats.jobs.len()
        )));
    }
    if !star_actual_records.is_empty() && star_actual_records.len() != est.star_records.len() {
        return Err(PlanError::Internal(format!(
            "profile star mismatch: plan has {} stars, {} actuals given",
            est.star_records.len(),
            star_actual_records.len()
        )));
    }

    let mut operators = Vec::with_capacity(stats.jobs.len());
    operators.push(op_profile(
        &stats.jobs[0].name,
        job1_operator(plan),
        &CycleEstimate {
            output_records: est.job1_records,
            output_bytes: est.job1_bytes,
            // Job 1 always shuffles; the plan prices it inside job1 seconds
            // but does not expose the byte figure, so report the measured
            // value as its own estimate-free column.
            shuffle_bytes: stats.jobs[0].shuffle_bytes(),
            seconds: est.job1_seconds,
        },
        &stats.jobs[0],
        false,
    ));
    for (i, (algo, cycle)) in plan.cycles.iter().zip(&est.cycles).enumerate() {
        let job = &stats.jobs[i + 1];
        // A planned broadcast that ran with zero broadcast files was
        // repaired to the reduce-side join by execute_plan.
        let repaired = matches!(algo, JoinAlgo::Broadcast { .. }) && job.broadcast_files == 0;
        operators.push(op_profile(&job.name, cycle_operator(algo), cycle, job, repaired));
    }

    let stars = star_actual_records
        .iter()
        .enumerate()
        .map(|(i, &actual)| StarProfile {
            star: i,
            eager: plan.eager_stars[i],
            estimated_records: est.star_records[i],
            actual_records: actual,
            q_error: q_error(est.star_records[i], actual as f64),
        })
        .collect();

    Ok(Profile {
        label: stats.label.clone(),
        operators,
        stars,
        estimated_total_seconds: est.seconds,
        actual_total_seconds: stats.sim_seconds,
        max_q_error: stats.max_q_error(),
        peak_arena_bytes: stats.peak_arena_bytes(),
        peak_task_live_bytes: stats.peak_task_live_bytes(),
        peak_spill_entries: stats.peak_spill_entries(),
    })
}

fn fmt_est(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.1}")
    }
}

fn fmt_q(q: Option<f64>) -> String {
    match q {
        Some(q) => format!("{q:.2}"),
        None => "-".into(),
    }
}

impl Profile {
    /// Render the annotated text tree.
    ///
    /// ```text
    /// EXPLAIN ANALYZE q  (est 12.3s, actual 11.8s, max q-error 1.42)
    /// ├─ q.group  TG_GroupFilter[lazy,eager]
    /// │    records est 120 actual 118 (q 1.02) · bytes est 4096 actual 4032
    /// │    shuffle 9216 B (skew 1.10, max part 2048 B) · est 4.1s actual 3.9s
    /// │    memory: arena 8192 B, task live 12288 B
    /// │    ├─ star 0 [lazy]  est 60.0 actual 58 (q 1.03)
    /// │    └─ star 1 [eager] est 60.0 actual 60 (q 1.00)
    /// └─ q.tgjoin0  TG_BcastJoin(build=R)
    ///      ...
    /// ```
    pub fn render(&self) -> String {
        let mut out = format!(
            "EXPLAIN ANALYZE {}  (est {:.3}s, actual {:.3}s, max q-error {})\n",
            self.label,
            self.estimated_total_seconds,
            self.actual_total_seconds,
            fmt_q(self.max_q_error)
        );
        let n = self.operators.len();
        for (i, op) in self.operators.iter().enumerate() {
            let last = i + 1 == n;
            let (head, cont) = if last { ("└─", "  ") } else { ("├─", "│ ") };
            let repaired = if op.broadcast_repaired { "  [repaired→reduce]" } else { "" };
            out.push_str(&format!("{head} {}  {}{repaired}\n", op.name, op.operator));
            out.push_str(&format!(
                "{cont}   records est {} actual {} (q {}) · bytes est {} actual {}\n",
                fmt_est(op.estimated_records),
                op.actual_records,
                fmt_q(op.q_error),
                fmt_est(op.estimated_bytes),
                op.actual_bytes
            ));
            out.push_str(&format!(
                "{cont}   shuffle est {} actual {} B (skew {:.2}, max part {} B) · est {:.3}s actual {:.3}s\n",
                op.estimated_shuffle_bytes,
                op.actual_shuffle_bytes,
                op.reduce_skew,
                op.max_partition_shuffle_bytes,
                op.estimated_seconds,
                op.actual_seconds
            ));
            out.push_str(&format!(
                "{cont}   memory: arena {} B, task live {} B\n",
                op.peak_arena_bytes, op.peak_task_live_bytes
            ));
            if i == 0 {
                let ns = self.stars.len();
                for (j, star) in self.stars.iter().enumerate() {
                    let sh = if j + 1 == ns { "└─" } else { "├─" };
                    out.push_str(&format!(
                        "{cont}   {sh} star {} [{}]  est {} actual {} (q {})\n",
                        star.star,
                        if star.eager { "eager" } else { "lazy" },
                        fmt_est(star.estimated_records),
                        star.actual_records,
                        fmt_q(star.q_error)
                    ));
                }
            }
        }
        out.push_str(&format!(
            "memory high-water: arena {} B · task live {} B · spill entries {}\n",
            self.peak_arena_bytes, self.peak_task_live_bytes, self.peak_spill_entries
        ));
        out
    }

    /// Serialize to a stable JSON document.
    ///
    /// Key order is fixed and every value is derived from the plan and the
    /// deterministic run stats, so two runs of the same plan at different
    /// worker counts serialize byte-identically. The `reconciliation` object
    /// repeats the per-column totals summed over the `operators` rows —
    /// consumers re-sum the rows and compare to validate the document.
    pub fn to_json(&self) -> String {
        let ops = self.operators.iter().map(|op| {
            let mut o = JsonObject::new();
            o.str("name", &op.name);
            o.str("operator", &op.operator);
            o.f64("estimated_records", op.estimated_records);
            o.u64("actual_records", op.actual_records);
            o.f64("estimated_bytes", op.estimated_bytes);
            o.u64("actual_bytes", op.actual_bytes);
            o.u64("estimated_shuffle_bytes", op.estimated_shuffle_bytes);
            o.u64("actual_shuffle_bytes", op.actual_shuffle_bytes);
            o.f64("estimated_seconds", op.estimated_seconds);
            o.f64("actual_seconds", op.actual_seconds);
            o.opt_f64("q_error", op.q_error);
            o.f64("reduce_skew", op.reduce_skew);
            o.u64("max_partition_shuffle_bytes", op.max_partition_shuffle_bytes);
            o.u64("peak_arena_bytes", op.peak_arena_bytes);
            o.u64("peak_task_live_bytes", op.peak_task_live_bytes);
            o.bool("broadcast_repaired", op.broadcast_repaired);
            o.finish()
        });
        let stars = self.stars.iter().map(|s| {
            let mut o = JsonObject::new();
            o.u64("star", s.star as u64);
            o.bool("eager", s.eager);
            o.f64("estimated_records", s.estimated_records);
            o.u64("actual_records", s.actual_records);
            o.opt_f64("q_error", s.q_error);
            o.finish()
        });

        let mut recon = JsonObject::new();
        recon.u64("actual_records", self.operators.iter().map(|o| o.actual_records).sum());
        recon.u64("actual_bytes", self.operators.iter().map(|o| o.actual_bytes).sum());
        recon.u64(
            "actual_shuffle_bytes",
            self.operators.iter().map(|o| o.actual_shuffle_bytes).sum(),
        );
        recon.f64("actual_seconds", self.operators.iter().map(|o| o.actual_seconds).sum());
        recon.f64("estimated_seconds", self.operators.iter().map(|o| o.estimated_seconds).sum());

        let mut root = JsonObject::new();
        root.str("label", &self.label);
        root.f64("estimated_total_seconds", self.estimated_total_seconds);
        root.f64("actual_total_seconds", self.actual_total_seconds);
        root.opt_f64("max_q_error", self.max_q_error);
        root.u64("peak_arena_bytes", self.peak_arena_bytes);
        root.u64("peak_task_live_bytes", self.peak_task_live_bytes);
        root.u64("peak_spill_entries", self.peak_spill_entries);
        root.raw("operators", &JsonObject::array(ops));
        root.raw("stars", &JsonObject::array(stars));
        root.raw("reconciliation", &recon.finish());
        root.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{optimize, OptimizerConfig};
    use crate::planner::{execute_plan, Strategy};
    use mr_rdf::load_store;
    use mrsim::CostModel;
    use rdf_model::{STriple, TripleStore};
    use rdf_query::parse_query;

    const UNBOUND_2STAR: &str = "SELECT * WHERE { ?g <label> ?l . ?g ?p ?go . ?go <gl> ?x . }";

    fn store() -> TripleStore {
        let mut triples = vec![
            STriple::new("<g1>", "<label>", "\"a\""),
            STriple::new("<g2>", "<label>", "\"b\""),
            STriple::new("<go1>", "<gl>", "\"nucleus\""),
            STriple::new("<go2>", "<gl>", "\"membrane\""),
        ];
        for i in 0..6 {
            triples.push(STriple::new("<g1>", "<xGO>", format!("<go{}>", 1 + i % 2)));
            triples.push(STriple::new("<g2>", "<xRef>", format!("<r{i}>")));
        }
        TripleStore::from_triples(triples)
    }

    fn profiled_run() -> (PhysicalPlan, Profile) {
        let s = store();
        let query = parse_query(UNBOUND_2STAR).unwrap();
        let cost = CostModel::scaled_to(s.text_bytes());
        let plan = optimize(&query, &s.stats(), &cost, &OptimizerConfig::default()).unwrap();
        let engine = mrsim::Engine::unbounded().with_cost(cost).with_profiling(true);
        load_store(&engine, "t", &s).unwrap();
        let (run, stars) = execute_plan(&plan, &engine, &query, "t", "q", false).unwrap();
        assert!(run.succeeded());
        assert_eq!(stars.len(), query.stars.len());
        let profile = explain_analyze(&plan, &run.stats, &stars).unwrap();
        (plan, profile)
    }

    #[test]
    fn profile_joins_plan_to_stats() {
        let (plan, profile) = profiled_run();
        assert_eq!(profile.operators.len(), plan.cycles.len() + 1);
        assert_eq!(profile.stars.len(), 2);
        // Per-operator q-errors are consistent with the workflow's max.
        let op_max =
            profile.operators.iter().filter_map(|o| o.q_error).fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(Some(op_max), profile.max_q_error);
        // Actual star records sum to Job 1's actual output.
        let star_sum: u64 = profile.stars.iter().map(|s| s.actual_records).sum();
        assert_eq!(star_sum, profile.operators[0].actual_records);
        // Memory marks flowed through.
        assert!(profile.peak_arena_bytes > 0);
        assert!(profile.peak_task_live_bytes > 0);
    }

    #[test]
    fn render_and_json_are_stable_and_valid() {
        let (_, profile) = profiled_run();
        let text = profile.render();
        assert!(text.starts_with("EXPLAIN ANALYZE"));
        assert!(text.contains("TG_GroupFilter"));
        assert!(text.contains("star 0"));
        let json = profile.to_json();
        mrsim::trace::validate_json(&json).unwrap();
        // A second identical run serializes byte-identically.
        let (_, again) = profiled_run();
        assert_eq!(json, again.to_json());
        assert_eq!(text, again.render());
    }

    #[test]
    fn reconciliation_totals_match_rows() {
        let (_, profile) = profiled_run();
        let json = profile.to_json();
        // The reconciliation block is derived from the same rows, so the
        // sums must appear verbatim.
        let records: u64 = profile.operators.iter().map(|o| o.actual_records).sum();
        assert!(json.contains(&format!("\"reconciliation\":{{\"actual_records\":{records}")));
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let (plan, _) = profiled_run();
        let stats = WorkflowStats { label: "x".into(), ..Default::default() };
        assert!(explain_analyze(&plan, &stats, &[]).is_err());
        // Wrong star-actual arity is also an error.
        let s = store();
        let query = parse_query(UNBOUND_2STAR).unwrap();
        let engine = mrsim::Engine::unbounded();
        load_store(&engine, "t", &s).unwrap();
        let (run, _) = execute_plan(&plan, &engine, &query, "t", "q", false).unwrap();
        assert!(explain_analyze(&plan, &run.stats, &[1]).is_err());
        // A hand-picked plan has no estimated column to join against.
        let hand = Strategy::LazyFull.plan(&query).unwrap();
        assert!(explain_analyze(&hand, &run.stats, &[]).is_err());
    }
}
