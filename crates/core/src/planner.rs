//! The NTGA planner: hand-picked [`Strategy`] → [`PhysicalPlan`], and the
//! one driver that runs any [`PhysicalPlan`] as a MapReduce workflow.
//!
//! The paper's evaluation strategies (§4) differ only in *where* μ^β sits
//! inside one fixed workflow — a `TG_GroupBy` cycle followed by left-deep
//! `TG_Join` cycles — so a [`Strategy`] is nothing but a plan constructor
//! ([`Strategy::plan`]): the same unnest placement for every star, the same
//! unnest-mode rule for every join cycle, the default reduce parallelism
//! everywhere, and no estimates. The statistics-driven constructor is
//! [`crate::optimizer::optimize`], which makes those choices *per star* and
//! *per cycle* (`ntga-cli --approach auto-cost`). Whatever built the plan,
//! [`execute_plan`] runs it.

use crate::optimizer::{join_schedule, optimize, JoinAlgo, OptimizerConfig, PhysicalPlan};
use crate::physical::{
    group_filter_job, tg_broadcast_join_job, tg_join_job, BuildSide, JoinSide, UnnestMode, REDUCERS,
};
use crate::FinalUnnest;
use mr_rdf::{check_query, run_query_workflow, PlanError, QueryRun};
use mrsim::Engine;
use rdf_model::StoreStats;
use rdf_query::{Query, SolutionRows};

/// When and how β-unnesting happens (Section 4).
///
/// These are the paper's hand-picked, query-wide policies; each applies
/// the same choice to every star and every join cycle. For data-dependent
/// per-star / per-cycle selection (including map-side broadcast joins),
/// use [`crate::optimizer::optimize`] instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// β-unnest during the star-join cycle (Job 1 reduce): intermediate
    /// results carry full redundancy from the start.
    Eager,
    /// Delay the β-unnest to the map phase of the join cycle that needs
    /// it, unnesting fully there (`TG_UnbJoin`).
    LazyFull,
    /// Delay and unnest only to φ_m partition granularity
    /// (`TG_OptUnbJoin`); the reduce completes the unnest.
    LazyPartial(u64),
    /// The paper's recommended policy: lazy, choosing *full* unnest for
    /// unbound patterns with partially-bound objects (selective, few
    /// candidates) and *partial* unnest with the given φ range for
    /// unbound-object patterns (many candidates).
    Auto(u64),
}

impl Strategy {
    /// Short label for reports.
    pub fn label(self) -> String {
        match self {
            Strategy::Eager => "EagerUnnest".into(),
            Strategy::LazyFull => "LazyUnnest(full)".into(),
            Strategy::LazyPartial(m) => format!("LazyUnnest(phi_{m})"),
            Strategy::Auto(m) => format!("LazyUnnest(auto,phi_{m})"),
        }
    }

    /// The plan this policy picks for `query`: every star eager or none,
    /// every cycle a reduce-side join at the default parallelism whose
    /// unnest mode follows the policy, no estimates.
    pub fn plan(self, query: &Query) -> Result<PhysicalPlan, PlanError> {
        query.validate()?;
        check_query(query)?;
        let cycles = join_schedule(query)?
            .iter()
            .map(|step| {
                let mode = mode_for(self, &step.unbound_sides(query));
                JoinAlgo::Reduce { mode, reduce_tasks: REDUCERS }
            })
            .collect();
        Ok(PhysicalPlan {
            label: self.label(),
            eager_stars: vec![self == Strategy::Eager; query.stars.len()],
            job1_reduce_tasks: REDUCERS,
            cycles,
            estimates: None,
        })
    }
}

/// Pick the unnest mode for one join under a strategy.
///
/// `unbound_sides` carries, for each side with a
/// [`crate::physical::JoinRole::UnboundObj`] role, its star and whether
/// that unbound pattern's object is partially bound (filtered).
fn mode_for(strategy: Strategy, unbound_sides: &[(usize, bool)]) -> UnnestMode {
    if unbound_sides.is_empty() {
        return UnnestMode::Exact;
    }
    match strategy {
        // Eager: triplegroups are already perfect; keys are exact.
        Strategy::Eager => UnnestMode::Exact,
        Strategy::LazyFull => UnnestMode::Exact,
        Strategy::LazyPartial(m) => UnnestMode::Partial(m),
        Strategy::Auto(m) => {
            // Partially-bound objects are selective: full unnest is enough
            // (paper, Figure 11 discussion). Unbound objects benefit from
            // partial unnest.
            if unbound_sides.iter().all(|&(_, filtered)| filtered) {
                UnnestMode::Exact
            } else {
                UnnestMode::Partial(m)
            }
        }
    }
}

/// Execute `plan` for `query` over the triple relation in DFS file `input`:
/// the one NTGA workflow driver.
///
/// Job 1 (`{label}.group`) computes every star's equivalence class under
/// the plan's per-star unnest placement; one `{label}.tgjoin{i}` cycle per
/// [`JoinAlgo`] follows in the query's left-deep order. A plan with
/// estimates tags every job with its estimated output cardinality, so the
/// run reports q-error. A broadcast cycle whose *actual* build file exceeds
/// the engine's broadcast budget (an estimation miss) falls back to the
/// reduce-side exact join.
///
/// Same contract as `relbase::execute`: planning problems are `Err`,
/// runtime failures (DiskFull) come back inside the [`QueryRun`]. The second
/// value is the record count of each `{label}.ec{i}` file, read before
/// cleanup deletes them, for [`crate::profile::explain_analyze`]; it is
/// empty when Job 1 itself failed.
pub fn execute_plan(
    plan: &PhysicalPlan,
    engine: &Engine,
    query: &Query,
    input: &str,
    label: &str,
    extract_solutions: bool,
) -> Result<(QueryRun, Vec<u64>), PlanError> {
    let mut star_records = Vec::new();
    let name = format!("NTGA-{}/{label}", plan.label);
    let run = run_query_workflow(engine, name, query, extract_solutions, |wf| {
        let steps = plan.schedule_for(query)?;
        let estimates = plan.estimates.as_ref();

        // Job 1: one grouping cycle computes every star subpattern.
        let ec_files: Vec<String> =
            (0..query.stars.len()).map(|i| format!("{label}.ec{i}")).collect();
        let group = format!("{label}.group");
        let eager = plan.eager_stars.clone();
        let mut job1 = group_filter_job(group, query, input, ec_files.clone(), eager)?
            .with_reducers(plan.job1_reduce_tasks);
        if let Some(est) = estimates {
            job1 = job1.with_estimated_output(est.job1_records);
        }
        wf.run_job(job1)?;
        star_records = {
            let hdfs = engine.hdfs().lock();
            ec_files.iter().map(|f| hdfs.get(f).map_or(0, |d| d.len() as u64)).collect()
        };

        // Join cycles, left-deep over the join graph.
        let mut components: Vec<usize> = vec![0];
        let mut current_file = ec_files[0].clone();
        for (join_no, (step, algo)) in steps.iter().zip(&plan.cycles).enumerate() {
            let left =
                JoinSide { file: current_file.clone(), component: step.lpos, role: step.lrole };
            let right =
                JoinSide { file: ec_files[step.other].clone(), component: 0, role: step.rrole };
            let out = format!("{label}.tgjoin{join_no}");
            let name = out.clone();
            let mut job = match *algo {
                JoinAlgo::Reduce { mode, reduce_tasks } => {
                    tg_join_job(name, left, right, mode, &out).with_reducers(reduce_tasks)
                }
                JoinAlgo::Broadcast { build } => {
                    let build_file = match build {
                        BuildSide::Left => &left.file,
                        BuildSide::Right => &right.file,
                    };
                    let actual = engine
                        .hdfs()
                        .lock()
                        .get(build_file)
                        .map_err(|e| PlanError::Internal(format!("broadcast input: {e}")))?
                        .text_bytes;
                    if actual <= engine.broadcast_budget_bytes {
                        tg_broadcast_join_job(name, left, right, build, &out)
                    } else {
                        // Estimation miss: repair to the reduce-side join
                        // rather than letting the engine refuse the job.
                        tg_join_job(name, left, right, UnnestMode::Exact, &out)
                    }
                }
            };
            if let Some(est) = estimates {
                job = job.with_estimated_output(est.cycles[join_no].output_records);
            }
            wf.run_job(job)?;
            components.push(step.other);
            current_file = out;
        }
        // `components` maps each tuple position to its star.
        let mut unnest = FinalUnnest::new(query, &components, &query.solution_vars())?;
        Ok((current_file, move |rec: &[u8], out: &mut SolutionRows| unnest.add_rows(rec, out)))
    })?;
    Ok((run, star_records))
}

/// Execute `query` under a hand-picked `strategy`:
/// [`Strategy::plan`], then [`execute_plan`].
pub fn execute(
    strategy: Strategy,
    engine: &Engine,
    query: &Query,
    input: &str,
    label: &str,
    extract_solutions: bool,
) -> Result<QueryRun, PlanError> {
    let plan = strategy.plan(query)?;
    execute_plan(&plan, engine, query, input, label, extract_solutions).map(|(run, _)| run)
}

/// [`optimize`] under the engine's own cost model and physical limits, then
/// [`execute_plan`] — the `--approach auto-cost` entry point.
pub fn execute_cost_based(
    engine: &Engine,
    query: &Query,
    input: &str,
    label: &str,
    extract_solutions: bool,
    stats: &StoreStats,
) -> Result<QueryRun, PlanError> {
    let plan = optimize(query, stats, &engine.cost, &OptimizerConfig::for_engine(engine))?;
    execute_plan(&plan, engine, query, input, label, extract_solutions).map(|(run, _)| run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mr_rdf::load_store;
    use mrsim::SimHdfs;
    use rdf_model::{STriple, TripleStore};
    use rdf_query::parse_query;

    fn store() -> TripleStore {
        TripleStore::from_triples(vec![
            STriple::new("<g1>", "<label>", "\"a\""),
            STriple::new("<g1>", "<xGO>", "<go1>"),
            STriple::new("<g1>", "<xGO>", "<go2>"),
            STriple::new("<g1>", "<syn>", "\"s\""),
            STriple::new("<g2>", "<label>", "\"b\""),
            STriple::new("<go1>", "<gl>", "\"nucleus\""),
            STriple::new("<go2>", "<gl>", "\"membrane\""),
        ])
    }

    fn run(strategy: Strategy, q: &str) -> QueryRun {
        let engine = Engine::unbounded();
        load_store(&engine, "t", &store()).unwrap();
        let query = parse_query(q).unwrap();
        execute(strategy, &engine, &query, "t", "q", true).unwrap()
    }

    const ALL: [Strategy; 5] = [
        Strategy::Eager,
        Strategy::LazyFull,
        Strategy::LazyPartial(2),
        Strategy::LazyPartial(1024),
        Strategy::Auto(1024),
    ];

    const UNBOUND_2STAR: &str = "SELECT * WHERE { ?g <label> ?l . ?g ?p ?go . ?go <gl> ?x . }";

    #[test]
    fn all_strategies_match_naive() {
        let query = parse_query(UNBOUND_2STAR).unwrap();
        let gold = rdf_query::naive::evaluate(&query, &store());
        assert!(!gold.is_empty());
        for strategy in ALL {
            let r = run(strategy, UNBOUND_2STAR);
            assert!(r.succeeded(), "{strategy:?}");
            assert_eq!(r.solutions.unwrap(), gold, "{strategy:?}");
        }
    }

    #[test]
    fn two_star_query_takes_two_cycles() {
        // The paper's headline structural claim: grouping computes all
        // star joins at once, so 2 cycles and ONE full scan (vs 3 cycles /
        // 2+ full scans relationally).
        let r = run(Strategy::LazyFull, UNBOUND_2STAR);
        assert_eq!(r.stats.mr_cycles, 2);
        assert_eq!(r.stats.full_scans, 1);
    }

    #[test]
    fn single_star_is_one_cycle() {
        let q = "SELECT * WHERE { ?g <label> ?l . ?g ?p ?o . }";
        let query = parse_query(q).unwrap();
        let gold = rdf_query::naive::evaluate(&query, &store());
        for strategy in ALL {
            let r = run(strategy, q);
            assert_eq!(r.stats.mr_cycles, 1, "{strategy:?}");
            assert_eq!(r.solutions.unwrap(), gold, "{strategy:?}");
        }
    }

    #[test]
    fn lazy_writes_less_than_eager_in_job1() {
        let eager = run(Strategy::Eager, UNBOUND_2STAR);
        let lazy = run(Strategy::LazyFull, UNBOUND_2STAR);
        let eager_job1 = eager.stats.jobs[0].hdfs_write_bytes;
        let lazy_job1 = lazy.stats.jobs[0].hdfs_write_bytes;
        assert!(lazy_job1 < eager_job1, "lazy {lazy_job1} >= eager {eager_job1}");
    }

    #[test]
    fn bound_only_query_matches_naive() {
        let q = "SELECT * WHERE { ?g <label> ?l . ?g <xGO> ?go . ?go <gl> ?x . }";
        let query = parse_query(q).unwrap();
        let gold = rdf_query::naive::evaluate(&query, &store());
        for strategy in ALL {
            assert_eq!(run(strategy, q).solutions.unwrap(), gold, "{strategy:?}");
        }
    }

    #[test]
    fn partially_bound_object_query() {
        let q = r#"SELECT * WHERE { ?g <label> ?l . ?g ?p ?go . ?go <gl> ?x . FILTER prefix(?go, "<go") }"#;
        let query = parse_query(q).unwrap();
        let gold = rdf_query::naive::evaluate(&query, &store());
        assert!(!gold.is_empty());
        for strategy in ALL {
            assert_eq!(run(strategy, q).solutions.unwrap(), gold, "{strategy:?}");
        }
    }

    #[test]
    fn unbound_not_in_join_stays_nested_to_the_end() {
        // B4-shaped: the unbound pattern's object is NOT the join var.
        let q = "SELECT * WHERE { ?g <label> ?l . ?g <xGO> ?go . ?g ?p ?o . ?go <gl> ?x . }";
        let query = parse_query(q).unwrap();
        let gold = rdf_query::naive::evaluate(&query, &store());
        let lazy = run(Strategy::LazyFull, q);
        assert_eq!(lazy.solutions.unwrap(), gold);
        // Final output keeps candidates nested: fewer records than
        // solutions.
        let eager = run(Strategy::Eager, q);
        let lazy_final = run(Strategy::LazyFull, q).stats.jobs.last().unwrap().output_text_bytes;
        let eager_final = eager.stats.jobs.last().unwrap().output_text_bytes;
        assert!(lazy_final < eager_final, "lazy {lazy_final} >= eager {eager_final}");
    }

    #[test]
    fn disk_full_reported() {
        let s = store();
        let engine = Engine::new(SimHdfs::new(s.text_bytes() + 40, 1));
        load_store(&engine, "t", &s).unwrap();
        let query = parse_query(UNBOUND_2STAR).unwrap();
        let r = execute(Strategy::Eager, &engine, &query, "t", "q", true).unwrap();
        assert!(!r.succeeded());
        assert!(r.solutions.is_none());
    }

    #[test]
    fn plan_with_too_few_unnest_placements_is_an_error_not_a_panic() {
        let engine = Engine::unbounded();
        load_store(&engine, "t", &store()).unwrap();
        let query = parse_query(UNBOUND_2STAR).unwrap();
        let mut plan = Strategy::LazyFull.plan(&query).unwrap();
        plan.eager_stars.pop();
        let run = execute_plan(&plan, &engine, &query, "t", "q", false);
        assert!(matches!(run, Err(PlanError::Internal(_))));
    }

    #[test]
    fn strategies_construct_uniform_plans_without_estimates() {
        let query = parse_query(UNBOUND_2STAR).unwrap();
        let eager = Strategy::Eager.plan(&query).unwrap();
        assert_eq!(eager.label, "EagerUnnest");
        assert_eq!(eager.eager_stars, vec![true, true]);
        assert_eq!(eager.job1_reduce_tasks, REDUCERS);
        assert!(eager.estimates.is_none());
        let partial = Strategy::LazyPartial(4).plan(&query).unwrap();
        assert_eq!(partial.eager_stars, vec![false, false]);
        assert_eq!(
            partial.cycles,
            vec![JoinAlgo::Reduce { mode: UnnestMode::Partial(4), reduce_tasks: REDUCERS }]
        );
        // A plan built for another query shape is refused, not mis-run.
        let single = parse_query("SELECT * WHERE { ?g <label> ?l . }").unwrap();
        let engine = Engine::unbounded();
        load_store(&engine, "t", &store()).unwrap();
        assert!(matches!(
            execute_plan(&partial, &engine, &single, "t", "q", false),
            Err(PlanError::Internal(_))
        ));
    }

    #[test]
    fn auto_uses_full_for_partially_bound() {
        assert_eq!(mode_for(Strategy::Auto(8), &[(0, true)]), UnnestMode::Exact);
        assert_eq!(mode_for(Strategy::Auto(8), &[(0, false)]), UnnestMode::Partial(8));
        assert_eq!(mode_for(Strategy::Auto(8), &[]), UnnestMode::Exact);
        assert_eq!(mode_for(Strategy::LazyPartial(4), &[(0, true)]), UnnestMode::Partial(4));
        assert_eq!(mode_for(Strategy::LazyFull, &[(0, false)]), UnnestMode::Exact);
    }
}
