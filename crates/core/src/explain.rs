//! Plan explanation: render the MR workflow a [`PhysicalPlan`] compiles
//! to, without executing it.
//!
//! Mirrors `EXPLAIN` in SQL engines: one line per MR cycle with the
//! physical operator, its inputs, where the plan places the β-unnest
//! (`TG_UnbJoin` vs `TG_OptUnbJoin` and the φ range, or an eager μ^β in
//! Job 1), reducer counts, and the paper vocabulary for each step, so the
//! rewrite from Figure 6 is visible. There is one renderer,
//! [`explain_plan`], so a hand-picked strategy, a cost-based plan and a
//! relational baseline read the same way.

use crate::physical::{BuildSide, JoinRole, UnnestMode};
use crate::plan::{Cycle, JoinAlgo, PhysicalPlan, PlanJob};
use rdf_query::{ObjPattern, PropPattern, StarPattern};

/// A rendered plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanText {
    /// One entry per MR cycle; the concurrent jobs of one stage share it.
    pub cycles: Vec<String>,
    /// The plan's label and one-line summary.
    pub strategy: String,
    /// Operator-counter namespaces this plan records at runtime (see
    /// [`crate::physical::op`]): which of `ntga.group.*`, `ntga.unnest.*`
    /// and `ntga.partial.*` will show up on the run's `JobStats::ops`.
    /// Empty for a relational plan, whose operators count nothing.
    pub counters: Vec<&'static str>,
    /// One entry per MR cycle: the estimated output records of its jobs
    /// (rounded), when every job of the cycle carries an estimate — those
    /// of the cost-based optimizer do; the hand-picked strategies and the
    /// baselines plan without statistics. Comparing these against the
    /// executed run's `JobStats::output_records` is exactly the per-job
    /// q-error the engine reports.
    pub estimates: Vec<Option<u64>>,
}

impl std::fmt::Display for PlanText {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "plan [{}]:", self.strategy)?;
        for (i, c) in self.cycles.iter().enumerate() {
            match self.estimates.get(i).copied().flatten() {
                Some(est) => writeln!(f, "  MR{}: {} (~{est} records)", i + 1, c)?,
                None => writeln!(f, "  MR{}: {}", i + 1, c)?,
            }
        }
        match self.counters.is_empty() {
            true => Ok(()),
            false => writeln!(f, "  counters: {}", self.counters.join(", ")),
        }
    }
}

fn role_text(role: JoinRole, star: &StarPattern) -> String {
    match role {
        JoinRole::Subject => format!("?{}(subject)", star.subject_var),
        JoinRole::BoundObj(i) => match &star.bound_patterns()[i].property {
            PropPattern::Bound(p) => format!("object of {p}"),
            PropPattern::Unbound(v) => format!("object of ?{v}"),
        },
        JoinRole::UnboundObj(i) => {
            let pat = star.unbound_patterns()[i];
            let filtered = matches!(pat.object, ObjPattern::Filtered(_, _));
            format!(
                "object of unbound pattern #{i}{}",
                if filtered { " (partially bound)" } else { "" }
            )
        }
    }
}

/// The braces of a star: its bound properties and unbound-pattern count,
/// e.g. `?g{<label>,1×unbound}`.
fn star_text(s: &StarPattern) -> String {
    let bound: Vec<String> = s.bound_properties().iter().map(|p| p.to_string()).collect();
    let unb = s.unbound_patterns().len();
    let unbound = if unb > 0 { format!(",{unb}×unbound") } else { String::new() };
    format!("?{}{{{}{unbound}}}", s.subject_var, bound.join(","))
}

/// Render a [`PhysicalPlan`], one line per stage (Pig's concurrent star
/// joins share one). Job 1 shows each star's equivalence class and unnest
/// placement; a join cycle its operator (reduce-side join with its φ and
/// reducer count, or map-side `TG_BcastJoin` with the broadcast side), the
/// join variable and how each side holds it; optimized plans add the
/// estimated output cardinality the job will be scored against (q-error).
pub fn explain_plan(plan: &PhysicalPlan) -> PlanText {
    let query = plan.query();

    // Track which unnest flavors the run will record: an eager star counts
    // `ntga.unnest.*` in Job 1, an exact or broadcast cycle counts it for
    // the unbound-object sides it expands (the probe side only, under
    // broadcast), a φ-partial cycle counts `ntga.partial.*` for them.
    let eager_stars = plan.eager_stars().unwrap_or_default();
    let mut unnest = eager_stars.iter().any(|&e| e);
    let mut partial_unnest = false;
    let mut text = |cycle: &Cycle| -> String {
        match cycle {
            Cycle::GroupFilter { eager, reduce_tasks } => {
                let ec_desc: Vec<String> = query
                    .stars
                    .iter()
                    .zip(eager)
                    .enumerate()
                    .map(|(i, (s, &eager))| {
                        let placement = if eager { "eager μ^β" } else { "lazy" };
                        format!("EC{i}={} {placement}", star_text(s))
                    })
                    .collect();
                let filter_op = if query.stars.iter().any(StarPattern::has_unbound) {
                    "TG_UnbGrpFilter (σ^βγ)"
                } else {
                    "TG_GrpFilter (σ^γ)"
                };
                format!(
                    "TG_GroupByMap(T) + TG_GroupByReduce + {filter_op} -> {} \
                     (r={reduce_tasks})   [1 full scan computes ALL star subpatterns; \
                     per-star unnest placement]",
                    ec_desc.join(", "),
                )
            }
            Cycle::TgJoin(algo, step) => {
                let unbound_sides = step.unbound_sides(query);
                let op = match *algo {
                    JoinAlgo::Reduce { mode: UnnestMode::Exact, reduce_tasks } => {
                        unnest |= !unbound_sides.is_empty();
                        if unbound_sides.is_empty() {
                            format!("TG_Join (r={reduce_tasks})")
                        } else if unbound_sides.iter().all(|&(star, _)| eager_stars[star]) {
                            format!("TG_Join (inputs already β-unnested eagerly, r={reduce_tasks})")
                        } else {
                            format!(
                                "TG_UnbJoin (lazy full unnest μ^β at this cycle's map, \
                                 r={reduce_tasks})"
                            )
                        }
                    }
                    JoinAlgo::Reduce { mode: UnnestMode::Partial(m), reduce_tasks } => {
                        partial_unnest |= !unbound_sides.is_empty();
                        format!(
                            "TG_OptUnbJoin (lazy partial unnest μ^β_φ, φ {m}, r={reduce_tasks})"
                        )
                    }
                    JoinAlgo::Broadcast { build } => {
                        let (side, probe_role) = match build {
                            BuildSide::Left => ("left", step.rrole),
                            BuildSide::Right => ("right", step.lrole),
                        };
                        unnest |= matches!(probe_role, JoinRole::UnboundObj(_));
                        format!("TG_BcastJoin (map-side, {side} side broadcast — reduce cycle collapsed)")
                    }
                };
                format!(
                    "{op} on ?{}: left {} ⋈ right EC{} {}",
                    step.var,
                    role_text(step.lrole, &query.stars[step.l_star]),
                    step.other,
                    role_text(step.rrole, &query.stars[step.other]),
                )
            }
            Cycle::RowJoin(step) => format!("RowJoin on ?{}: rows ⋈ S{}", step.var, step.star),
            Cycle::LoadCopy => "Load: map-only copy of T   [1 full scan]".into(),
            // Star joins scan T per relation group under Pig (`per-load`)
            // and once otherwise; attaches join into the running rows.
            Cycle::StarJoin { star: i, .. }
            | Cycle::StarAttach { star: i }
            | Cycle::PatternAttach { star: i, .. } => {
                format!("{}: S{i}={}   [full scan]", cycle.operator(), star_text(&query.stars[*i]))
            }
        }
    };
    let stage = |stage: &Vec<PlanJob>| {
        stage.iter().map(|job| text(&job.cycle)).collect::<Vec<_>>().join(" ‖ ")
    };
    let cycles = plan.stages().iter().map(stage).collect();

    let namespaces = [
        ("ntga.group.*", !eager_stars.is_empty()),
        ("ntga.unnest.*", unnest),
        ("ntga.partial.*", partial_unnest),
    ];
    let counters =
        namespaces.into_iter().filter_map(|(ns, recorded)| recorded.then_some(ns)).collect();
    let records = |job: &PlanJob| job.estimate.as_ref().map(|e| e.output_records);
    let estimates = plan.stages().iter().map(|stage| {
        let records: Option<f64> = stage.iter().map(records).sum();
        records.map(|r| r.round() as u64)
    });
    PlanText {
        cycles,
        strategy: format!("{}: {}", plan.label(), plan.summary()),
        counters,
        estimates: estimates.collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::Strategy;
    use rdf_query::{parse_query, Query};

    fn explain(strategy: Strategy, query: &Query) -> PlanText {
        explain_plan(&strategy.plan(query).unwrap())
    }

    fn q() -> Query {
        parse_query(
            r#"SELECT * WHERE {
                ?g <label> ?l . ?g ?p ?go .
                ?go <gl> ?x .
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn explains_two_cycle_plan() {
        let plan = explain(Strategy::Auto(1024), &q());
        assert_eq!(plan.cycles.len(), 2);
        assert!(plan.cycles[0].contains("TG_UnbGrpFilter"));
        assert!(plan.cycles[0].contains("ALL star subpatterns"));
        assert!(plan.cycles[1].contains("TG_OptUnbJoin"));
        assert!(plan.cycles[1].contains("φ 1024"));
        assert_eq!(plan.counters, vec!["ntga.group.*", "ntga.partial.*"]);
    }

    #[test]
    fn counter_summary_tracks_unnest_flavor() {
        assert_eq!(explain(Strategy::Eager, &q()).counters, vec!["ntga.group.*", "ntga.unnest.*"]);
        assert_eq!(
            explain(Strategy::LazyFull, &q()).counters,
            vec!["ntga.group.*", "ntga.unnest.*"]
        );
        let text = explain(Strategy::LazyPartial(8), &q()).to_string();
        assert!(text.contains("counters: ntga.group.*, ntga.partial.*"), "{text}");
    }

    #[test]
    fn eager_annotates_job1() {
        let plan = explain(Strategy::Eager, &q());
        assert!(plan.cycles[0].contains("eager μ^β"));
        assert!(plan.cycles[1].contains("already β-unnested"));
        assert!(plan.cycles[1].starts_with("TG_Join"));
    }

    #[test]
    fn auto_chooses_full_for_partially_bound() {
        let q = parse_query(
            r#"SELECT * WHERE {
                ?g <label> ?l . ?g ?p ?go .
                ?go <gl> ?x .
                FILTER prefix(?go, "<go") .
            }"#,
        )
        .unwrap();
        let plan = explain(Strategy::Auto(64), &q);
        assert!(plan.cycles[1].contains("full unnest"), "{}", plan.cycles[1]);
    }

    #[test]
    fn bound_query_uses_plain_operators() {
        let q = parse_query("SELECT * WHERE { ?a <p> ?b . ?b <q> ?c . }").unwrap();
        let plan = explain(Strategy::LazyFull, &q);
        assert!(plan.cycles[0].contains("TG_GrpFilter (σ^γ)"));
        assert!(plan.cycles[1].starts_with("TG_Join (r=8) on ?b"), "{}", plan.cycles[1]);
    }

    #[test]
    fn baselines_render_one_line_per_cycle() {
        let pig = explain_plan(&PhysicalPlan::pig(&q()).unwrap());
        assert_eq!(pig.cycles.len(), 3);
        assert!(pig.cycles[0].starts_with("Load: "), "{}", pig.cycles[0]);
        let stars = "StarJoin(S0,per-load): S0=?g{<label>,1×unbound}   [full scan] ‖ StarJoin(S1,";
        assert!(pig.cycles[1].starts_with(stars), "{}", pig.cycles[1]);
        assert_eq!(pig.cycles[2], "RowJoin on ?go: rows ⋈ S1");
        assert!(pig.counters.is_empty() && pig.estimates == [None; 3]);
        let summary = "Load → StarJoin(S0,per-load)+StarJoin(S1,per-load) → RowJoin";
        assert_eq!(pig.strategy, format!("Pig: {summary}"));
        let text = pig.to_string();
        assert!(text.starts_with("plan [Pig: ") && !text.contains("counters"), "{text}");
        let hive = explain_plan(&PhysicalPlan::hive(&q()).unwrap());
        assert_eq!(hive.cycles[1], "StarJoin(S1): S1=?go{<gl>}   [full scan]");
        let sel = explain_plan(&PhysicalPlan::sel_sj_first(&q()).unwrap());
        assert_eq!(sel.cycles[1], "StarAttach(S1): S1=?go{<gl>}   [full scan]");
    }

    #[test]
    fn display_renders_numbered_cycles() {
        let text = explain(Strategy::LazyFull, &q()).to_string();
        assert!(text.contains("MR1:"));
        assert!(text.contains("MR2:"));
        assert!(text.contains("LazyUnnest(full)"));
    }

    #[test]
    fn explain_plan_renders_cost_based_choices() {
        use rdf_model::{STriple, TripleStore};
        let mut triples = vec![
            STriple::new("<g1>", "<label>", "\"a\""),
            STriple::new("<g2>", "<label>", "\"b\""),
            STriple::new("<go1>", "<gl>", "\"nucleus\""),
        ];
        for i in 0..6 {
            triples.push(STriple::new("<g1>", "<xGO>", format!("<go{i}>")));
        }
        let s = TripleStore::from_triples(triples);
        let plan = crate::optimizer::optimize(
            &q(),
            &s.stats(),
            &mrsim::CostModel::scaled_to(s.text_bytes()),
            &Default::default(),
        )
        .unwrap();
        let text = explain_plan(&plan);
        assert_eq!(text.cycles.len(), 2);
        assert!(text.estimates.iter().all(Option::is_some), "{:?}", text.estimates);
        assert!(text.cycles[0].contains("per-star unnest placement"), "{}", text.cycles[0]);
        assert!(text.strategy.starts_with("CostBased:"));
        let rendered = text.to_string();
        assert!(rendered.contains("records)"), "{rendered}");
        // Hand-picked plans carry no estimates.
        assert_eq!(explain(Strategy::LazyFull, &q()).estimates, [None, None]);
    }
}
