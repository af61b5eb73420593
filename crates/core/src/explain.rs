//! Plan explanation: render the MR workflow a [`PhysicalPlan`] compiles
//! to, without executing it.
//!
//! Mirrors `EXPLAIN` in SQL engines: one line per MR cycle with the
//! physical operator, its inputs, where the plan places the β-unnest
//! (`TG_UnbJoin` vs `TG_OptUnbJoin` and the φ range, or an eager μ^β in
//! Job 1), reducer counts, and the paper vocabulary for each step, so the
//! rewrite from Figure 6 is visible. There is one renderer,
//! [`explain_plan`]; [`explain`] is [`Strategy::plan`] fed into it, so a
//! hand-picked strategy and a cost-based plan read the same way.

use crate::optimizer::{JoinAlgo, PhysicalPlan};
use crate::physical::{BuildSide, JoinRole, UnnestMode};
use crate::planner::Strategy;
use mr_rdf::{check_query, PlanError};
use rdf_query::{ObjPattern, PropPattern, Query, StarPattern};

/// A rendered plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanText {
    /// One entry per MR cycle.
    pub cycles: Vec<String>,
    /// The plan's label and one-line summary.
    pub strategy: String,
    /// Operator-counter namespaces this plan records at runtime (see
    /// [`crate::physical::op`]): which of `ntga.group.*`, `ntga.unnest.*`
    /// and `ntga.partial.*` will show up on the run's `JobStats::ops`.
    pub counters: Vec<&'static str>,
    /// Per-cycle estimated output cardinalities (records, rounded), when
    /// the plan came from the cost-based optimizer. Empty for hand-picked
    /// strategies, which plan without statistics. Comparing these against
    /// the executed run's `JobStats::output_records` is exactly the
    /// per-job q-error the engine reports.
    pub estimates: Vec<u64>,
}

impl std::fmt::Display for PlanText {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "NTGA plan [{}]:", self.strategy)?;
        for (i, c) in self.cycles.iter().enumerate() {
            match self.estimates.get(i) {
                Some(est) => writeln!(f, "  MR{}: {} (~{est} records)", i + 1, c)?,
                None => writeln!(f, "  MR{}: {}", i + 1, c)?,
            }
        }
        writeln!(f, "  counters: {}", self.counters.join(", "))?;
        Ok(())
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

/// Render the plan a hand-picked `strategy` compiles `query` to. Fails
/// exactly when [`crate::execute`] would fail to plan.
pub fn explain(strategy: Strategy, query: &Query) -> Result<PlanText, PlanError> {
    explain_plan(&strategy.plan(query)?, query)
}

/// Render a [`PhysicalPlan`]: Job 1 with each star's equivalence class and
/// unnest placement, then one line per join cycle with the chosen operator
/// (reduce-side join with its φ and reducer count, or map-side
/// `TG_BcastJoin` with the broadcast side), the join variable and how each
/// side holds it. Optimized plans add the estimated output cardinality the
/// executed job will be scored against (q-error).
pub fn explain_plan(plan: &PhysicalPlan, query: &Query) -> Result<PlanText, PlanError> {
    query.validate()?;
    check_query(query)?;
    let steps = plan.schedule_for(query)?;

    // Job 1.
    let ec_desc: Vec<String> = query
        .stars
        .iter()
        .zip(&plan.eager_stars)
        .enumerate()
        .map(|(i, (s, &eager))| {
            let bound: Vec<String> = s.bound_properties().iter().map(|p| p.to_string()).collect();
            let unb = s.unbound_patterns().len();
            format!(
                "EC{i}=?{}{{{}{}}} {}",
                s.subject_var,
                bound.join(","),
                if unb > 0 { format!(",{unb}×unbound") } else { String::new() },
                if eager { "eager μ^β" } else { "lazy" }
            )
        })
        .collect();
    let filter_op = if query.stars.iter().any(StarPattern::has_unbound) {
        "TG_UnbGrpFilter (σ^βγ)"
    } else {
        "TG_GrpFilter (σ^γ)"
    };
    let mut cycles = vec![format!(
        "TG_GroupByMap(T) + TG_GroupByReduce + {filter_op} -> {} (r={})   \
         [1 full scan computes ALL star subpatterns; per-star unnest placement]",
        ec_desc.join(", "),
        plan.job1_reduce_tasks
    )];

    // Join cycles. Track which unnest flavors the run will record: an exact
    // or broadcast cycle counts `ntga.unnest.*` for the unbound-object sides
    // it expands (the probe side only, under broadcast), a φ-partial cycle
    // counts `ntga.partial.*` for them.
    let mut unnest = plan.eager_stars.iter().any(|&e| e);
    let mut partial_unnest = false;
    for (step, algo) in steps.iter().zip(&plan.cycles) {
        let unbound_sides = step.unbound_sides(query);
        let op = match *algo {
            JoinAlgo::Reduce { mode: UnnestMode::Exact, reduce_tasks } => {
                unnest |= !unbound_sides.is_empty();
                if unbound_sides.is_empty() {
                    format!("TG_Join (r={reduce_tasks})")
                } else if unbound_sides.iter().all(|&(star, _)| plan.eager_stars[star]) {
                    format!("TG_Join (inputs already β-unnested eagerly, r={reduce_tasks})")
                } else {
                    format!(
                        "TG_UnbJoin (lazy full unnest μ^β at this cycle's map, r={reduce_tasks})"
                    )
                }
            }
            JoinAlgo::Reduce { mode: UnnestMode::Partial(m), reduce_tasks } => {
                partial_unnest |= !unbound_sides.is_empty();
                format!("TG_OptUnbJoin (lazy partial unnest μ^β_φ, φ {m}, r={reduce_tasks})")
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
        cycles.push(format!(
            "{op} on ?{}: left {} ⋈ right EC{} {}",
            step.var,
            role_text(step.lrole, &query.stars[step.l_star]),
            step.other,
            role_text(step.rrole, &query.stars[step.other]),
        ));
    }

    let mut counters = vec!["ntga.group.*"];
    if unnest {
        counters.push("ntga.unnest.*");
    }
    if partial_unnest {
        counters.push("ntga.partial.*");
    }
    let estimates = plan.estimates.as_ref().map_or(Vec::new(), |est| {
        std::iter::once(est.job1_records)
            .chain(est.cycles.iter().map(|c| c.output_records))
            .map(|records| records.round() as u64)
            .collect()
    });
    Ok(PlanText {
        cycles,
        strategy: format!("{}: {}", plan.label, plan.summary()),
        counters,
        estimates,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_query::parse_query;

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
        let plan = explain(Strategy::Auto(1024), &q()).unwrap();
        assert_eq!(plan.cycles.len(), 2);
        assert!(plan.cycles[0].contains("TG_UnbGrpFilter"));
        assert!(plan.cycles[0].contains("ALL star subpatterns"));
        assert!(plan.cycles[1].contains("TG_OptUnbJoin"));
        assert!(plan.cycles[1].contains("φ 1024"));
        assert_eq!(plan.counters, vec!["ntga.group.*", "ntga.partial.*"]);
    }

    #[test]
    fn counter_summary_tracks_unnest_flavor() {
        assert_eq!(
            explain(Strategy::Eager, &q()).unwrap().counters,
            vec!["ntga.group.*", "ntga.unnest.*"]
        );
        assert_eq!(
            explain(Strategy::LazyFull, &q()).unwrap().counters,
            vec!["ntga.group.*", "ntga.unnest.*"]
        );
        let text = explain(Strategy::LazyPartial(8), &q()).unwrap().to_string();
        assert!(text.contains("counters: ntga.group.*, ntga.partial.*"), "{text}");
    }

    #[test]
    fn eager_annotates_job1() {
        let plan = explain(Strategy::Eager, &q()).unwrap();
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
        let plan = explain(Strategy::Auto(64), &q).unwrap();
        assert!(plan.cycles[1].contains("full unnest"), "{}", plan.cycles[1]);
    }

    #[test]
    fn bound_query_uses_plain_operators() {
        let q = parse_query("SELECT * WHERE { ?a <p> ?b . ?b <q> ?c . }").unwrap();
        let plan = explain(Strategy::LazyFull, &q).unwrap();
        assert!(plan.cycles[0].contains("TG_GrpFilter (σ^γ)"));
        assert!(plan.cycles[1].starts_with("TG_Join (r=8) on ?b"), "{}", plan.cycles[1]);
    }

    #[test]
    fn display_renders_numbered_cycles() {
        let text = explain(Strategy::LazyFull, &q()).unwrap().to_string();
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
        let text = explain_plan(&plan, &q()).unwrap();
        assert_eq!(text.cycles.len(), 2);
        assert_eq!(text.estimates.len(), 2);
        assert!(text.cycles[0].contains("per-star unnest placement"), "{}", text.cycles[0]);
        assert!(text.strategy.starts_with("CostBased:"));
        let rendered = text.to_string();
        assert!(rendered.contains("records)"), "{rendered}");
        // Hand-picked plans carry no estimates.
        assert!(explain(Strategy::LazyFull, &q()).unwrap().estimates.is_empty());
    }

    #[test]
    fn rejects_invalid_queries_like_execute() {
        let q = parse_query("SELECT * WHERE { ?a <p> ?b . }").unwrap();
        let mut disconnected = q.clone();
        disconnected.stars.push(rdf_query::StarPattern::new(
            "z",
            vec![rdf_query::TriplePattern::bound(
                "z",
                "<q>",
                rdf_query::ObjPattern::Var("w".into()),
            )],
        ));
        assert!(explain(Strategy::LazyFull, &disconnected).is_err());
    }
}
