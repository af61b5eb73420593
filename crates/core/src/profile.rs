//! EXPLAIN ANALYZE: join a priced [`PhysicalPlan`] against the measured
//! [`WorkflowStats`] of the run that executed it.
//!
//! [`crate::planner::execute_plan`] runs a plan's jobs in order, so the
//! plan's jobs and the run's [`mrsim::JobStats`] line up one to one. This
//! module performs that join and reports, per job, the estimate the plan
//! carries against the actual cardinality, bytes, shuffle volume and
//! simulated seconds, the resulting q-error, reduce skew, the memory
//! high-water marks the engine records, and Job 1's per-star breakdown.
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

use crate::plan::{Cycle, CycleEstimate, JoinAlgo, PhysicalPlan, PlanJob};
use mr_rdf::PlanError;
use mrsim::trace::JsonObject;
use mrsim::{JobStats, WorkflowStats};

/// One operator of the plan. Its measured side is not copied here: row
/// `i` of a [`Profile`] reads `stats.jobs[i]` in place ([`Profile::rows`]).
#[derive(Debug, Clone)]
pub struct OpProfile {
    /// Human operator label, e.g. `TG_GroupFilter[lazy,eager]` or
    /// `TG_BcastJoin(build=R)`.
    pub operator: String,
    /// What the plan expected of the operator.
    pub estimate: CycleEstimate,
    /// True when the plan chose a broadcast join but the run repaired it to
    /// a reduce-side join because the actual build file busted the budget.
    pub broadcast_repaired: bool,
    /// Job 1's per-star breakdown, one entry per equivalence-class file;
    /// empty for every other operator.
    pub stars: Vec<StarProfile>,
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
}

impl StarProfile {
    /// Per-star cardinality [`mrsim::q_error`].
    pub fn q_error(&self) -> f64 {
        mrsim::q_error(self.estimated_records, self.actual_records as f64)
    }
}

/// The joined plan-vs-actual profile of one executed plan.
#[derive(Debug, Clone)]
pub struct Profile {
    /// One entry per job of `stats.jobs`, in execution order.
    pub operators: Vec<OpProfile>,
    /// The plan's total priced cost in simulated seconds.
    pub estimated_total_seconds: f64,
    /// The measured run the plan was joined against: label, total seconds,
    /// `max_q_error()`, the `peak_*()` marks and every per-job number are
    /// read from here.
    pub stats: WorkflowStats,
}

/// Join `plan` against the stats of the run that executed it.
///
/// Fails when a job of the plan carries no estimate (a hand-picked
/// strategy has nothing to compare the run against) or the stats do not
/// have the plan's shape: one job per plan job, and one record count per
/// star for Job 1.
pub fn explain_analyze(plan: &PhysicalPlan, stats: &WorkflowStats) -> Result<Profile, PlanError> {
    let no_estimate = || PlanError::Internal("EXPLAIN ANALYZE needs a plan with estimates".into());
    let estimated_total_seconds = plan.estimated_seconds().ok_or_else(no_estimate)?;
    let planned = plan.jobs().count();
    if stats.jobs.len() != planned {
        return Err(PlanError::Internal(format!(
            "profile shape mismatch: plan has {planned} jobs, stats has {}",
            stats.jobs.len()
        )));
    }
    let operator = |(planned, job): (&PlanJob, &JobStats)| {
        let estimate = planned.estimate.clone().ok_or_else(no_estimate)?;
        let stars = match &planned.cycle {
            Cycle::GroupFilter { eager, .. } => {
                let actual = &job.output_file_records;
                if actual.len() != eager.len() {
                    return Err(PlanError::Internal(format!(
                        "profile star mismatch: plan has {} stars, Job 1 wrote {} files",
                        eager.len(),
                        actual.len()
                    )));
                }
                let star = |(star, ((&eager, &estimated_records), &actual_records))| StarProfile {
                    star,
                    eager,
                    estimated_records,
                    actual_records,
                };
                eager.iter().zip(&estimate.file_records).zip(actual).enumerate().map(star).collect()
            }
            _ => Vec::new(),
        };
        Ok(OpProfile {
            operator: planned.cycle.operator(),
            // A planned broadcast that ran with zero broadcast files was
            // repaired to the reduce-side join by execute_plan.
            broadcast_repaired: matches!(
                planned.cycle,
                Cycle::TgJoin(JoinAlgo::Broadcast { .. }, _)
            ) && job.broadcast_files == 0,
            estimate,
            stars,
        })
    };
    let operators = plan.jobs().zip(&stats.jobs).map(operator).collect::<Result<_, _>>()?;
    Ok(Profile { operators, estimated_total_seconds, stats: stats.clone() })
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

impl OpProfile {
    /// The estimated shuffle bytes, or `job`'s measured ones where the plan
    /// priced the shuffle inside the seconds alone.
    fn estimated_shuffle_bytes(&self, job: &JobStats) -> u64 {
        self.estimate.shuffle_bytes.unwrap_or_else(|| job.shuffle_bytes())
    }
}

impl Profile {
    /// The operator rows: each plan operator beside the stats of the job
    /// that ran it.
    pub fn rows(&self) -> impl Iterator<Item = (&OpProfile, &JobStats)> {
        self.operators.iter().zip(&self.stats.jobs)
    }

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
            self.stats.label,
            self.estimated_total_seconds,
            self.stats.sim_seconds,
            fmt_q(self.stats.max_q_error())
        );
        let n = self.operators.len();
        for (i, (op, job)) in self.rows().enumerate() {
            let last = i + 1 == n;
            let (head, cont) = if last { ("└─", "  ") } else { ("├─", "│ ") };
            let repaired = if op.broadcast_repaired { "  [repaired→reduce]" } else { "" };
            out.push_str(&format!("{head} {}  {}{repaired}\n", job.name, op.operator));
            out.push_str(&format!(
                "{cont}   records est {} actual {} (q {}) · bytes est {} actual {}\n",
                fmt_est(op.estimate.output_records),
                job.output_records,
                fmt_q(job.q_error()),
                fmt_est(op.estimate.output_bytes),
                job.output_text_bytes
            ));
            out.push_str(&format!(
                "{cont}   shuffle est {} actual {} B (skew {:.2}, max part {} B) · est {:.3}s actual {:.3}s\n",
                op.estimated_shuffle_bytes(job),
                job.shuffle_bytes(),
                job.reduce_skew(),
                job.max_partition_shuffle_bytes(),
                op.estimate.seconds,
                job.sim_seconds
            ));
            out.push_str(&format!(
                "{cont}   memory: arena {} B, task live {} B\n",
                job.peak_arena_bytes, job.peak_task_live_bytes
            ));
            for (j, star) in op.stars.iter().enumerate() {
                let sh = if j + 1 == op.stars.len() { "└─" } else { "├─" };
                out.push_str(&format!(
                    "{cont}   {sh} star {} [{}]  est {} actual {} (q {})\n",
                    star.star,
                    if star.eager { "eager" } else { "lazy" },
                    fmt_est(star.estimated_records),
                    star.actual_records,
                    fmt_q(Some(star.q_error()))
                ));
            }
        }
        out.push_str(&format!(
            "memory high-water: arena {} B · task live {} B · spill entries {}\n",
            self.stats.peak_arena_bytes(),
            self.stats.peak_task_live_bytes(),
            self.stats.peak_spill_entries()
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
        let ops = self.rows().map(|(op, job)| {
            let mut o = JsonObject::new();
            o.str("name", &job.name);
            o.str("operator", &op.operator);
            o.f64("estimated_records", op.estimate.output_records);
            o.u64("actual_records", job.output_records);
            o.f64("estimated_bytes", op.estimate.output_bytes);
            o.u64("actual_bytes", job.output_text_bytes);
            o.u64("estimated_shuffle_bytes", op.estimated_shuffle_bytes(job));
            o.u64("actual_shuffle_bytes", job.shuffle_bytes());
            o.f64("estimated_seconds", op.estimate.seconds);
            o.f64("actual_seconds", job.sim_seconds);
            o.opt_f64("q_error", job.q_error());
            o.f64("reduce_skew", job.reduce_skew());
            o.u64("max_partition_shuffle_bytes", job.max_partition_shuffle_bytes());
            o.u64("peak_arena_bytes", job.peak_arena_bytes);
            o.u64("peak_task_live_bytes", job.peak_task_live_bytes);
            o.bool("broadcast_repaired", op.broadcast_repaired);
            o.finish()
        });
        let stars = self.operators.iter().flat_map(|op| &op.stars).map(|s| {
            let mut o = JsonObject::new();
            o.u64("star", s.star as u64);
            o.bool("eager", s.eager);
            o.f64("estimated_records", s.estimated_records);
            o.u64("actual_records", s.actual_records);
            o.f64("q_error", s.q_error());
            o.finish()
        });

        let jobs = &self.stats.jobs;
        let mut recon = JsonObject::new();
        recon.u64("actual_records", jobs.iter().map(|j| j.output_records).sum());
        recon.u64("actual_bytes", jobs.iter().map(|j| j.output_text_bytes).sum());
        recon.u64("actual_shuffle_bytes", self.stats.total_shuffle_bytes());
        recon.f64("actual_seconds", jobs.iter().map(|j| j.sim_seconds).sum());
        recon.f64("estimated_seconds", self.operators.iter().map(|o| o.estimate.seconds).sum());

        let mut root = JsonObject::new();
        root.str("label", &self.stats.label);
        root.f64("estimated_total_seconds", self.estimated_total_seconds);
        root.f64("actual_total_seconds", self.stats.sim_seconds);
        root.opt_f64("max_q_error", self.stats.max_q_error());
        root.u64("peak_arena_bytes", self.stats.peak_arena_bytes());
        root.u64("peak_task_live_bytes", self.stats.peak_task_live_bytes());
        root.u64("peak_spill_entries", self.stats.peak_spill_entries());
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
    use mrsim::{ClusterConfig, CostModel};
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

    fn analyzed_run() -> (PhysicalPlan, Profile) {
        let s = store();
        let query = parse_query(UNBOUND_2STAR).unwrap();
        let cost = CostModel::scaled_to(s.text_bytes());
        let plan = optimize(&query, &s.stats(), &cost, &OptimizerConfig::default()).unwrap();
        let engine = mrsim::Engine::new(ClusterConfig { cost, ..Default::default() }).unwrap();
        load_store(&engine, "t", &s).unwrap();
        let run = execute_plan(&plan, &engine, "t", "q", false).unwrap();
        assert!(run.succeeded());
        let profile = explain_analyze(&plan, &run.stats).unwrap();
        (plan, profile)
    }

    #[test]
    fn profile_joins_plan_to_stats() {
        let (plan, profile) = analyzed_run();
        assert_eq!(profile.operators.len(), plan.stages().len());
        let star_counts: Vec<usize> = profile.operators.iter().map(|op| op.stars.len()).collect();
        assert_eq!(star_counts, [2, 0]);
        // Every job carried an estimate to compare against.
        assert!(profile.rows().all(|(_, job)| job.q_error().is_some()));
        // Actual star records sum to Job 1's actual output.
        let star_sum: u64 = profile.operators[0].stars.iter().map(|s| s.actual_records).sum();
        assert_eq!(star_sum, profile.stats.jobs[0].output_records);
        // Memory marks flowed through.
        assert!(profile.stats.peak_arena_bytes() > 0);
        assert!(profile.stats.peak_task_live_bytes() > 0);
    }

    #[test]
    fn render_and_json_are_stable_and_valid() {
        let (_, profile) = analyzed_run();
        let text = profile.render();
        assert!(text.starts_with("EXPLAIN ANALYZE"));
        assert!(text.contains("TG_GroupFilter"));
        assert!(text.contains("star 0"));
        let json = profile.to_json();
        mrsim::trace::validate_json(&json).unwrap();
        // A second identical run serializes byte-identically.
        let (_, again) = analyzed_run();
        assert_eq!(json, again.to_json());
        assert_eq!(text, again.render());
    }

    #[test]
    fn reconciliation_totals_match_rows() {
        let (_, profile) = analyzed_run();
        let json = profile.to_json();
        // The reconciliation block is derived from the same rows, so the
        // sums must appear verbatim.
        let records: u64 = profile.stats.jobs.iter().map(|j| j.output_records).sum();
        assert!(json.contains(&format!("\"reconciliation\":{{\"actual_records\":{records}")));
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let (plan, profile) = analyzed_run();
        let stats = WorkflowStats { label: "x".into(), ..Default::default() };
        assert!(explain_analyze(&plan, &stats).is_err());
        // Job 1 stats without one record count per star are an error too.
        let mut stats = profile.stats.clone();
        stats.jobs[0].output_file_records.pop();
        assert!(explain_analyze(&plan, &stats).is_err());
        // A hand-picked plan has no estimated column to join against.
        let hand = Strategy::LazyFull.plan(&parse_query(UNBOUND_2STAR).unwrap()).unwrap();
        assert!(explain_analyze(&hand, &profile.stats).is_err());
    }
}
