//! The NTGA planner: hand-picked [`Strategy`] → [`PhysicalPlan`], and the
//! one driver that runs any [`PhysicalPlan`] — NTGA or relational — as a
//! MapReduce workflow.
//!
//! The paper's evaluation strategies (§4) differ only in *where* μ^β sits
//! inside one fixed workflow — a `TG_GroupBy` cycle followed by left-deep
//! `TG_Join` cycles — so a [`Strategy`] is nothing but a plan constructor
//! ([`Strategy::plan`]): the same unnest placement for every star, the same
//! unnest-mode rule for every join cycle, the default reduce parallelism
//! everywhere, and no estimates. The statistics-driven constructor is
//! [`crate::optimizer::optimize`], which makes those choices *per star* and
//! *per cycle* (`ntga-cli --approach auto-cost`); the relational baselines
//! are [`crate::baseline`]'s. Whatever built the plan, [`execute_plan`]
//! runs it.

use crate::physical::{
    group_filter_job, tg_broadcast_join_job, tg_join_job, BuildSide, JoinSide, UnnestMode, REDUCERS,
};
use crate::plan::{join_schedule, supported, Cycle, JoinAlgo, PhysicalPlan, Scan};
use crate::FinalUnnest;
use mr_rdf::{PlanError, QueryRun, RowSchema};
use mrsim::{Engine, JobSpec, Workflow};
use rdf_query::{Query, SolutionRows};
use relbase::{load_copy_job, pattern_attach_job, row_join_job, star_attach_job, star_join_job};

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
        let stars = supported(query)?;
        let job1 = Cycle::GroupFilter {
            eager: vec![self == Strategy::Eager; stars],
            reduce_tasks: REDUCERS,
        };
        let joins = join_schedule(query)?.into_iter().map(|step| {
            let mode = mode_for(self, &step.unbound_sides(query));
            Cycle::TgJoin(JoinAlgo::Reduce { mode, reduce_tasks: REDUCERS }, step)
        });
        let stages = std::iter::once(job1).chain(joins).map(|cycle| vec![cycle]);
        Ok(PhysicalPlan::unestimated(query, self.label(), stages))
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

/// Execute `plan` over the triple relation in DFS file `input`: the one
/// driver, for every approach. Each stage runs as one stage of the workflow
/// `NTGA-<plan label>/{label}` (an NTGA plan) or `<plan label>/{label}`, its
/// jobs named by [`PhysicalPlan::job_names`] and tagged with their
/// estimated output cardinality where the plan carries one, so the run
/// reports q-error. A broadcast cycle whose *actual* build file exceeds the
/// engine's broadcast budget (an estimation miss) falls back to the
/// reduce-side exact join. When `extract_solutions` is set, the final
/// relation is read back into the [`rdf_query::SolutionSet`] over
/// [`Query::solution_vars`]; every other file the run wrote is deleted.
///
/// Planning problems are `Err`; runtime failures (DiskFull) come back as a
/// failed [`QueryRun`] — the paper's "X" bars are data points, not errors.
pub fn execute_plan(
    plan: &PhysicalPlan,
    engine: &Engine,
    input: &str,
    label: &str,
    extract_solutions: bool,
) -> Result<QueryRun, PlanError> {
    let query = plan.query();
    let ntga = if plan.eager_stars().is_some() { "NTGA-" } else { "" };
    let mut wf = Workflow::new(engine, format!("{ntga}{}/{label}", plan.label()));
    let mut names = plan.job_names(label).into_iter();
    let ec_files: Vec<String> = (0..query.stars.len()).map(|i| format!("{label}.ec{i}")).collect();
    let star = |i: usize| query.stars.get(i).ok_or_else(|| shape("star index"));
    // What the cycles so far computed: the file star joins and attaches
    // read (the input, or Pig's copy), each star's rows, the pattern an
    // attach took out of its star, and the running relation.
    let mut base = input.to_string();
    let mut stars: Vec<Option<(String, RowSchema)>> = vec![None; query.stars.len()];
    let mut attached = None;
    let mut current = None;
    for stage in plan.stages() {
        let mut jobs = Vec::with_capacity(stage.len());
        for (planned, name) in stage.iter().zip(names.by_ref()) {
            let mut job = match &planned.cycle {
                Cycle::GroupFilter { eager, reduce_tasks } => {
                    let (file, components) = (ec_files[0].clone(), vec![0]);
                    current = Some(Relation::Tg { file, components });
                    group_filter_job(name, query, &base, ec_files.clone(), eager.clone())?
                        .with_reducers(*reduce_tasks)
                }
                Cycle::TgJoin(algo, step) => {
                    let Some(Relation::Tg { file, components }) = &mut current else {
                        return Err(shape("a triplegroup join needs Job 1"));
                    };
                    let file = std::mem::replace(file, name.clone());
                    components.push(step.other);
                    let left = JoinSide { file, component: step.lpos, role: step.lrole };
                    let right = ec_files[step.other].clone();
                    let right = JoinSide { file: right, component: 0, role: step.rrole };
                    tg_join(engine, *algo, left, right, &name)?
                }
                Cycle::LoadCopy => {
                    let copy = format!("{label}.copy");
                    load_copy_job(name, &std::mem::replace(&mut base, copy.clone()), &copy)
                }
                Cycle::StarJoin { star: i, scan } => {
                    let per_load = *scan == Scan::PerLoad;
                    let (job, schema) = star_join_job(&name, star(*i)?, &base, &name, per_load);
                    let first = || Relation::Rows { file: name.clone(), schema: schema.clone() };
                    current.get_or_insert_with(first);
                    stars[*i] = Some((name, schema));
                    job
                }
                Cycle::RowJoin(step) => {
                    let right = stars[step.star].as_ref().ok_or_else(|| shape("star order"))?;
                    let (file, schema) = rows(&mut current)?;
                    let right = (right.0.as_str(), &right.1);
                    let (job, joined) =
                        row_join_job(&name, (file, schema), right, &step.var, &name)?;
                    (*file, *schema) = (name, joined);
                    job
                }
                Cycle::PatternAttach { star: i, pattern } => {
                    let pat = star(*i)?.patterns.get(*pattern).ok_or_else(|| shape("pattern"))?;
                    let var = pat.object.var().ok_or_else(|| shape("attach by a constant"))?;
                    let (file, schema) = rows(&mut current)?;
                    let (job, joined) =
                        pattern_attach_job(&name, (file, schema), var, pat, &base, &name)?;
                    (*file, *schema) = (name, joined);
                    attached = Some((*i, *pattern));
                    job
                }
                Cycle::StarAttach { star: i } => {
                    let mut rest = star(*i)?.clone();
                    if let Some((_, pattern)) = attached.filter(|&(s, _)| s == *i) {
                        rest.patterns.remove(pattern);
                    }
                    if rest.patterns.is_empty() {
                        return Err(shape("nothing left to attach"));
                    }
                    let (file, schema) = rows(&mut current)?;
                    let key = &rest.subject_var;
                    let (job, joined) =
                        star_attach_job(&name, (file, schema), key, &rest, &base, &name)?;
                    (*file, *schema) = (name, joined);
                    job
                }
            };
            job.estimated_output_records = planned.estimate.as_ref().map(|e| e.output_records);
            jobs.push(job);
        }
        if let Err(e) = wf.run_stage(jobs) {
            return Ok(QueryRun { stats: wf.finish_failed(&e), solutions: None });
        }
    }
    // The final β-unnest of the running relation.
    let vars = query.solution_vars();
    let (file, mut add_rows): (String, RowsOf) = match current {
        Some(Relation::Tg { file, components }) => {
            let mut unnest = FinalUnnest::new(query, &components, &vars)?;
            (file, Box::new(move |rec: &[u8], out: &mut SolutionRows| unnest.add_rows(rec, out)))
        }
        Some(Relation::Rows { file, schema }) => (file, Box::new(schema.extractor(&vars)?)),
        None => return Err(shape("no cycle computes a relation")),
    };
    let stats = wf.finish(&[&file]);
    if !extract_solutions {
        return Ok(QueryRun { stats, solutions: None });
    }
    let file = engine.hdfs().lock().get(&file).map_err(PlanError::final_output)?;
    let mut rows = SolutionRows::new(vars);
    for record in file.iter() {
        add_rows(record, &mut rows)?;
    }
    Ok(QueryRun { stats, solutions: Some(rows.finish()) })
}

/// A relation a plan's cycles computed, in the DFS file `file`.
enum Relation {
    /// Triplegroup tuples; `components` maps each tuple position to its star.
    Tg { file: String, components: Vec<usize> },
    /// Flat rows.
    Rows { file: String, schema: RowSchema },
}

/// The kernel that appends one final record's solution rows.
type RowsOf = Box<dyn FnMut(&[u8], &mut SolutionRows) -> Result<(), PlanError>>;

fn shape(what: &str) -> PlanError {
    PlanError::Internal(format!("malformed plan: {what}"))
}

/// The running row relation.
fn rows(current: &mut Option<Relation>) -> Result<(&mut String, &mut RowSchema), PlanError> {
    match current {
        Some(Relation::Rows { file, schema }) => Ok((file, schema)),
        _ => Err(shape("a row cycle needs a star join first")),
    }
}

/// The job of a triplegroup join cycle writing `name`.
fn tg_join(
    engine: &Engine,
    algo: JoinAlgo,
    left: JoinSide,
    right: JoinSide,
    name: &str,
) -> Result<JobSpec, PlanError> {
    Ok(match algo {
        JoinAlgo::Reduce { mode, reduce_tasks } => {
            tg_join_job(name, left, right, mode, name).with_reducers(reduce_tasks)
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
            if actual <= engine.broadcast_budget_bytes() {
                tg_broadcast_join_job(name, left, right, build, name)
            } else {
                // Estimation miss: repair to the reduce-side join rather
                // than letting the engine refuse the job.
                tg_join_job(name, left, right, UnnestMode::Exact, name)
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mr_rdf::load_store;
    use mrsim::ClusterConfig;
    use rdf_model::{STriple, TripleStore};
    use rdf_query::{parse_query, ObjPattern};

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

    fn execute(strategy: Strategy, engine: &Engine, query: &Query) -> QueryRun {
        execute_plan(&strategy.plan(query).unwrap(), engine, "t", "q", true).unwrap()
    }

    fn run(strategy: Strategy, q: &str) -> QueryRun {
        let engine = Engine::unbounded();
        load_store(&engine, "t", &store()).unwrap();
        execute(strategy, &engine, &parse_query(q).unwrap())
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
        let engine = Engine::new(ClusterConfig {
            nodes: 1,
            disk_per_node: s.text_bytes() + 40,
            ..Default::default()
        })
        .unwrap();
        load_store(&engine, "t", &s).unwrap();
        let query = parse_query(UNBOUND_2STAR).unwrap();
        let r = execute(Strategy::Eager, &engine, &query);
        assert!(!r.succeeded());
        assert!(r.solutions.is_none());
    }

    #[test]
    fn strategies_construct_uniform_plans_without_estimates() {
        let query = parse_query(UNBOUND_2STAR).unwrap();
        let cycles = |plan: &PhysicalPlan| -> Vec<Cycle> {
            assert!(plan.jobs().all(|job| job.estimate.is_none()));
            plan.jobs().map(|job| job.cycle.clone()).collect()
        };
        let job1 = |eager: Vec<bool>| Cycle::GroupFilter { eager, reduce_tasks: REDUCERS };
        let eager = Strategy::Eager.plan(&query).unwrap();
        assert_eq!(eager.label(), "EagerUnnest");
        assert_eq!(cycles(&eager)[0], job1(vec![true, true]));
        let partial = Strategy::LazyPartial(4).plan(&query).unwrap();
        let [group, Cycle::TgJoin(algo, step)] = &cycles(&partial)[..] else {
            panic!("{}", partial.summary())
        };
        assert_eq!(*group, job1(vec![false, false]));
        let mode = UnnestMode::Partial(4);
        assert_eq!(*algo, JoinAlgo::Reduce { mode, reduce_tasks: REDUCERS });
        // The join cycle carries its step of the left-deep order.
        assert_eq!((step.other, step.var.as_str(), step.l_star), (1, "go", 0));
    }

    #[test]
    fn every_constructor_rejects_an_invalid_query() {
        // A plan owns a checked query: what the driver and EXPLAIN would
        // have refused is refused when the plan is built.
        let mut disconnected = parse_query("SELECT * WHERE { ?a <p> ?b . }").unwrap();
        let pattern = rdf_query::TriplePattern::bound("z", "<q>", ObjPattern::Var("w".into()));
        disconnected.stars.push(rdf_query::StarPattern::new("z", vec![pattern]));
        let stats = store().stats();
        let optimized =
            crate::optimize(&disconnected, &stats, &Default::default(), &Default::default());
        for plan in [
            Strategy::LazyFull.plan(&disconnected),
            PhysicalPlan::pig(&disconnected),
            PhysicalPlan::hive(&disconnected),
            PhysicalPlan::sel_sj_first(&disconnected),
            optimized,
        ] {
            assert_eq!(plan.unwrap_err(), PlanError::Query(rdf_query::QueryError::Disconnected));
        }
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
