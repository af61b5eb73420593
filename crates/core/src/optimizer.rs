//! Cost-based plan selection: statistics → [`PhysicalPlan`]. [`optimize`]
//! closes the loop the paper leaves to "the optimizer": it consumes
//! [`rdf_query::estimate`] cardinalities (star subject/row/pair counts
//! under the containment assumption) and prices candidate physical
//! operators through [`mrsim::CostModel`], choosing
//!
//! * **per star** whether Job 1 β-unnests eagerly (perfect triplegroups,
//!   full redundancy up front) or stays nested (lazy);
//! * **per join cycle** the join algorithm — reduce-side [`UnnestMode::Exact`]
//!   (`TG_Join`/`TG_UnbJoin`), reduce-side [`UnnestMode::Partial`] with a
//!   priced φ granularity (`TG_OptUnbJoin`), or the map-side broadcast join
//!   [`crate::physical::tg_broadcast_join_job`] (`TG_BcastJoin`) that ships
//!   the small side through the distributed cache and **collapses the
//!   entire reduce cycle** when the estimate clears the broadcast budget;
//! * **per job** a reduce-task count sized to the estimated shuffle bytes.
//!
//! Every job of an optimized plan carries its [`CycleEstimate`]; the driver
//! attaches it to the job ([`mrsim::JobSpec::estimated_output_records`]), so
//! executed plans report per-job q-error through [`mrsim::JobStats::q_error`] and the
//! `q_error` on the trace's `job_end` events — the feedback signal that tells
//! you when the estimator, not the executor, is the problem.

use crate::physical::{BuildSide, JoinRole, UnnestMode};
use crate::plan::{
    join_schedule, supported, Cycle, CycleEstimate, JoinAlgo, PhysicalPlan, PlanJob,
};
use mr_rdf::{PlanError, UnsupportedReason};
use mrsim::{CostModel, Engine, JobStats, BLOCK_SIZE_BYTES, DEFAULT_BROADCAST_BUDGET_BYTES};
use rdf_model::StoreStats;
use rdf_query::estimate::{
    pattern_cardinality, star_pair_cardinality, star_row_cardinality, star_subject_cardinality,
};
use rdf_query::{PropPattern, Query, StarPattern};

/// What a caller sets for plan search: the broadcast budget of the engine
/// that will run the plan ([`OptimizerConfig::for_engine`]). Block size,
/// reducer sizing and the φ candidates are constants, the first shared
/// with the engine ([`BLOCK_SIZE_BYTES`]).
#[derive(Debug, Clone)]
pub struct OptimizerConfig {
    /// Broadcast joins are only considered when the estimated build side
    /// fits this many bytes (`Engine::broadcast_budget_bytes`).
    pub broadcast_budget_bytes: u64,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig { broadcast_budget_bytes: DEFAULT_BROADCAST_BUDGET_BYTES }
    }
}

impl OptimizerConfig {
    /// A config whose broadcast budget is `engine`'s.
    pub fn for_engine(engine: &Engine) -> Self {
        OptimizerConfig { broadcast_budget_bytes: engine.broadcast_budget_bytes() }
    }
}

// ---------------------------------------------------------------------------
// Cardinality/byte estimation
// ---------------------------------------------------------------------------

/// Estimated size of a triplegroup relation.
#[derive(Debug, Clone, Copy)]
struct RelEst {
    records: f64,
    bytes: f64,
}

impl RelEst {
    fn avg_bytes(&self) -> f64 {
        if self.records < 1.0 {
            0.0
        } else {
            self.bytes / self.records
        }
    }
}

/// Per-star base estimates.
#[derive(Debug, Clone, Copy)]
struct StarEst {
    subjects: f64,
    rows: f64,
    pairs: f64,
    npat: f64,
}

fn star_estimates(star: &StarPattern, stats: &StoreStats) -> StarEst {
    StarEst {
        subjects: star_subject_cardinality(star, stats),
        rows: star_row_cardinality(star, stats),
        pairs: star_pair_cardinality(star, stats),
        npat: star.patterns.len() as f64,
    }
}

/// Mean text bytes per `(property, object)` pair, from whole-store stats.
fn bytes_per_pair(stats: &StoreStats) -> f64 {
    if stats.triples == 0 {
        0.0
    } else {
        (stats.text_bytes as f64 / stats.triples as f64).max(1.0)
    }
}

/// Estimated equivalence-class relation written by Job 1 for one star.
fn ec_estimate(est: StarEst, eager: bool, bpp: f64) -> RelEst {
    if eager {
        // One perfect triplegroup per flat row, npat pairs each.
        RelEst { records: est.rows, bytes: est.rows * est.npat * bpp }
    } else {
        // One nested triplegroup per matching subject, candidates stored once.
        RelEst { records: est.subjects, bytes: est.pairs * bpp }
    }
}

/// How one side of a join expands when its role is evaluated.
#[derive(Debug, Clone, Copy)]
struct SideExp {
    /// Records one input record becomes under a full (exact) unnest.
    exp: f64,
    /// Bytes of the expanded candidate list within one input record.
    cand_bytes: f64,
    /// Estimated distinct join keys on this side.
    keys: f64,
}

fn side_expansion(
    star: &StarPattern,
    role: JoinRole,
    eager: bool,
    stats: &StoreStats,
    bpp: f64,
) -> SideExp {
    let subjects = (stats.distinct_subjects as f64).max(1.0);
    match role {
        JoinRole::Subject => {
            SideExp { exp: 1.0, cand_bytes: 0.0, keys: star_subject_cardinality(star, stats) }
        }
        JoinRole::BoundObj(b) => {
            let pat = &star.bound_patterns()[b];
            let (mult, keys) = match &pat.property {
                PropPattern::Bound(p) => {
                    stats.per_property.get(p).map_or((1.0, stats.distinct_objects as f64), |ps| {
                        (ps.mean_multiplicity, ps.distinct_objects as f64)
                    })
                }
                PropPattern::Unbound(_) => (1.0, stats.distinct_objects as f64),
            };
            let exp = if eager { 1.0 } else { mult.max(1.0) };
            SideExp { exp, cand_bytes: exp * bpp, keys }
        }
        JoinRole::UnboundObj(u) => {
            let pat = &star.unbound_patterns()[u];
            let cand = (pattern_cardinality(pat, stats) / subjects).max(1.0);
            let exp = if eager { 1.0 } else { cand };
            SideExp { exp, cand_bytes: exp * bpp, keys: stats.distinct_objects as f64 }
        }
    }
}

/// What one side ships across the shuffle under a mode: record count and
/// bytes after the map-side expansion (exact pins one candidate per
/// record; φ-partial splits the candidate list over `min(exp, m)` nested
/// records, each carrying the full base).
fn shipped(rel: RelEst, side: SideExp, mode: UnnestMode, bpp: f64) -> RelEst {
    let base = (rel.avg_bytes() - side.cand_bytes).max(0.0);
    let pin = if side.cand_bytes > 0.0 { bpp } else { 0.0 };
    match mode {
        UnnestMode::Exact => {
            let records = rel.records * side.exp;
            RelEst { records, bytes: records * (base + pin) }
        }
        UnnestMode::Partial(m) => {
            let k = side.exp.min(m as f64).max(1.0);
            RelEst { records: rel.records * k, bytes: rel.records * (k * base + side.cand_bytes) }
        }
    }
}

/// Estimated join output: fully-expanded matches under the standard
/// `|L| · |R| / max(V(L,k), V(R,k))` formula, each output record carrying
/// one pinned record from each side.
fn join_output(l: RelEst, lexp: SideExp, r: RelEst, rexp: SideExp, bpp: f64) -> RelEst {
    let keys = lexp.keys.max(rexp.keys).max(1.0);
    let records = (l.records * lexp.exp) * (r.records * rexp.exp) / keys;
    let l_pinned =
        (l.avg_bytes() - lexp.cand_bytes).max(0.0) + if lexp.cand_bytes > 0.0 { bpp } else { 0.0 };
    let r_pinned =
        (r.avg_bytes() - rexp.cand_bytes).max(0.0) + if rexp.cand_bytes > 0.0 { bpp } else { 0.0 };
    RelEst { records, bytes: records * (l_pinned + r_pinned) }
}

fn r64(x: f64) -> u64 {
    if x.is_finite() && x > 0.0 {
        x.round() as u64
    } else {
        0
    }
}

fn size_reducers(shuffle_bytes: f64) -> usize {
    let n = (shuffle_bytes / REDUCER_TARGET_BYTES as f64).ceil();
    (n as usize).clamp(1, MAX_REDUCE_TASKS)
}

// ---------------------------------------------------------------------------
// Candidate pricing
// ---------------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
fn price_reduce_join(
    cost: &CostModel,
    l: RelEst,
    lexp: SideExp,
    r: RelEst,
    rexp: SideExp,
    mode: UnnestMode,
    out: RelEst,
    bpp: f64,
) -> (f64, u64, usize) {
    let ls = shipped(l, lexp, mode, bpp);
    let rs = shipped(r, rexp, mode, bpp);
    let shuffle_bytes = ls.bytes + rs.bytes;
    let reduce_tasks = size_reducers(shuffle_bytes);
    let stats = JobStats {
        input_records: r64(l.records + r.records),
        hdfs_read_bytes: r64(l.bytes + r.bytes),
        map_output_records: r64(ls.records + rs.records),
        map_output_bytes: r64(shuffle_bytes),
        reduce_input_records: r64(ls.records + rs.records),
        output_records: r64(out.records),
        output_text_bytes: r64(out.bytes),
        hdfs_write_bytes: r64(out.bytes),
        reduce_tasks: reduce_tasks as u64,
        ..JobStats::default()
    };
    (cost.job_seconds(&stats), r64(shuffle_bytes), reduce_tasks)
}

fn price_broadcast_join(cost: &CostModel, build: RelEst, probe: RelEst, out: RelEst) -> f64 {
    let map_tasks = r64(probe.bytes).div_ceil(BLOCK_SIZE_BYTES).max(1);
    let stats = JobStats {
        input_records: r64(probe.records),
        hdfs_read_bytes: r64(probe.bytes),
        broadcast_files: 1,
        broadcast_bytes: r64(build.bytes),
        broadcast_ship_bytes: r64(build.bytes) * map_tasks,
        output_records: r64(out.records),
        output_text_bytes: r64(out.bytes),
        hdfs_write_bytes: r64(out.bytes),
        reduce_tasks: 0,
        ..JobStats::default()
    };
    cost.job_seconds(&stats)
}

fn price_job1(
    cost: &CostModel,
    stats: &StoreStats,
    ecs: &[RelEst],
    star_ests: &[StarEst],
) -> (f64, usize, f64) {
    let triples = stats.triples as f64;
    let bpp = bytes_per_pair(stats);
    // Each relevant triple ships once regardless of how many stars want it.
    let shipped_pairs = star_ests.iter().map(|e| e.pairs).sum::<f64>().min(triples);
    let shuffle_bytes = shipped_pairs * bpp;
    let out_records: f64 = ecs.iter().map(|e| e.records).sum();
    let out_bytes: f64 = ecs.iter().map(|e| e.bytes).sum();
    let reduce_tasks = size_reducers(shuffle_bytes);
    let js = JobStats {
        input_records: stats.triples,
        hdfs_read_bytes: stats.text_bytes,
        map_output_records: r64(shipped_pairs),
        map_output_bytes: r64(shuffle_bytes),
        reduce_input_records: r64(shipped_pairs),
        output_records: r64(out_records),
        output_text_bytes: r64(out_bytes),
        hdfs_write_bytes: r64(out_bytes),
        reduce_tasks: reduce_tasks as u64,
        ..JobStats::default()
    };
    (cost.job_seconds(&js), reduce_tasks, out_records)
}

// ---------------------------------------------------------------------------
// Plan search
// ---------------------------------------------------------------------------

/// Most stars [`optimize`] enumerates placements for (2^16 plans).
const MAX_STARS: usize = 16;

/// Target shuffle bytes per reduce task when sizing reducer counts.
const REDUCER_TARGET_BYTES: u64 = 32 * 1024 * 1024;

/// Upper bound on sized reducer counts.
const MAX_REDUCE_TASKS: usize = 64;

/// φ granularities priced for partial unnest.
const PHI_CANDIDATES: [u64; 2] = [16, 1024];

/// Derive a [`PhysicalPlan`] for `query` over a store described by `stats`,
/// priced under `cost`.
///
/// The search enumerates per-star eager/lazy placements (2^n for the
/// query's n stars; more than 16 stars is
/// [`UnsupportedReason::TooManyStars`]) and, for each placement,
/// independently picks the cheapest algorithm per join cycle from
/// {reduce-exact, reduce-partial(φ) for φ ∈ {16, 1024}, broadcast with
/// either side as build when it fits the budget}. The cheapest total wins.
pub fn optimize(
    query: &Query,
    stats: &StoreStats,
    cost: &CostModel,
    config: &OptimizerConfig,
) -> Result<PhysicalPlan, PlanError> {
    let n = supported(query)?;
    let steps = join_schedule(query)?;
    let bpp = bytes_per_pair(stats);
    let star_ests: Vec<StarEst> = query.stars.iter().map(|s| star_estimates(s, stats)).collect();
    if n > MAX_STARS {
        return Err(UnsupportedReason::TooManyStars { stars: n, limit: MAX_STARS }.into());
    }
    // The cheapest placement so far: its eager flags, its equivalence
    // classes, Job 1's (seconds, reducers, records), each join's algorithm
    // and estimate, and the total.
    type Placement =
        (Vec<bool>, Vec<RelEst>, (f64, usize, f64), Vec<(JoinAlgo, CycleEstimate)>, f64);
    let mut best: Option<Placement> = None;
    for mask in 0u32..(1u32 << n) {
        let eager_stars: Vec<bool> = (0..n).map(|i| mask & (1 << i) != 0).collect();
        let ecs: Vec<RelEst> = star_ests
            .iter()
            .zip(&eager_stars)
            .map(|(&e, &eager)| ec_estimate(e, eager, bpp))
            .collect();
        let (job1_seconds, job1_reduce_tasks, job1_records) =
            price_job1(cost, stats, &ecs, &star_ests);

        let mut total = job1_seconds;
        let mut cur = ecs[0];
        let mut joins = Vec::with_capacity(steps.len());
        for step in &steps {
            let lexp = side_expansion(
                &query.stars[step.l_star],
                step.lrole,
                eager_stars[step.l_star],
                stats,
                bpp,
            );
            let rexp = side_expansion(
                &query.stars[step.other],
                step.rrole,
                eager_stars[step.other],
                stats,
                bpp,
            );
            let right = ecs[step.other];
            let out = join_output(cur, lexp, right, rexp, bpp);

            // Candidate: reduce-side exact.
            let (secs, shuffle, rt) =
                price_reduce_join(cost, cur, lexp, right, rexp, UnnestMode::Exact, out, bpp);
            let mut best_cycle =
                (JoinAlgo::Reduce { mode: UnnestMode::Exact, reduce_tasks: rt }, shuffle, secs);
            // Candidates: reduce-side φ-partial (only when a lazy unbound
            // side actually expands — otherwise partial is pure overhead).
            let lazy_unbound = (matches!(step.lrole, JoinRole::UnboundObj(_))
                && !eager_stars[step.l_star]
                && lexp.exp > 1.0)
                || (matches!(step.rrole, JoinRole::UnboundObj(_))
                    && !eager_stars[step.other]
                    && rexp.exp > 1.0);
            if lazy_unbound {
                for m in PHI_CANDIDATES {
                    let mode = UnnestMode::Partial(m);
                    let (secs, shuffle, rt) =
                        price_reduce_join(cost, cur, lexp, right, rexp, mode, out, bpp);
                    if secs < best_cycle.2 {
                        best_cycle = (JoinAlgo::Reduce { mode, reduce_tasks: rt }, shuffle, secs);
                    }
                }
            }
            // Candidates: broadcast either side, when it fits the budget.
            for (build, b, p) in [(BuildSide::Left, cur, right), (BuildSide::Right, right, cur)] {
                if r64(b.bytes) <= config.broadcast_budget_bytes {
                    let secs = price_broadcast_join(cost, b, p, out);
                    if secs < best_cycle.2 {
                        best_cycle = (JoinAlgo::Broadcast { build }, 0, secs);
                    }
                }
            }

            let (algo, shuffle_bytes, seconds) = best_cycle;
            total += seconds;
            joins.push((
                algo,
                CycleEstimate {
                    output_records: out.records,
                    file_records: Vec::new(),
                    output_bytes: out.bytes,
                    shuffle_bytes: Some(shuffle_bytes),
                    seconds,
                },
            ));
            cur = out;
        }

        if best.as_ref().is_none_or(|&(.., best_total)| total < best_total) {
            let job1 = (job1_seconds, job1_reduce_tasks, job1_records);
            best = Some((eager_stars, ecs, job1, joins, total));
        }
    }
    let (eager, ecs, (seconds, reduce_tasks, output_records), joins, _) =
        best.ok_or_else(|| PlanError::Internal("no unnest placement enumerated".into()))?;
    let job1 = PlanJob {
        cycle: Cycle::GroupFilter { eager, reduce_tasks },
        estimate: Some(CycleEstimate {
            output_records,
            file_records: ecs.iter().map(|e| e.records).collect(),
            output_bytes: ecs.iter().map(|e| e.bytes).sum(),
            shuffle_bytes: None,
            seconds,
        }),
    };
    let joins = joins.into_iter().zip(steps).map(|((algo, estimate), step)| PlanJob {
        cycle: Cycle::TgJoin(algo, step),
        estimate: Some(estimate),
    });
    Ok(PhysicalPlan::new(query, "CostBased", std::iter::once(job1).chain(joins).map(|j| vec![j])))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{execute_plan, Strategy};
    use mr_rdf::{load_store, QueryRun};
    use mrsim::ClusterConfig;
    use rdf_model::{STriple, TripleStore};
    use rdf_query::parse_query;

    fn store() -> TripleStore {
        let mut triples = vec![
            STriple::new("<g1>", "<label>", "\"a\""),
            STriple::new("<g1>", "<syn>", "\"s\""),
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

    const UNBOUND_2STAR: &str = "SELECT * WHERE { ?g <label> ?l . ?g ?p ?go . ?go <gl> ?x . }";

    fn run_plan(plan: &PhysicalPlan, engine: &Engine, extract: bool) -> QueryRun {
        execute_plan(plan, engine, "t", "q", extract).unwrap()
    }

    fn plan_for(q: &str, s: &TripleStore) -> PhysicalPlan {
        let query = parse_query(q).unwrap();
        optimize(&query, &s.stats(), &CostModel::scaled_to(s.text_bytes()), &Default::default())
            .unwrap()
    }

    #[test]
    fn optimized_plan_matches_naive() {
        let s = store();
        let engine = Engine::new(ClusterConfig {
            cost: CostModel::scaled_to(s.text_bytes()),
            ..Default::default()
        })
        .unwrap();
        load_store(&engine, "t", &s).unwrap();
        let query = parse_query(UNBOUND_2STAR).unwrap();
        let gold = rdf_query::naive::evaluate(&query, &s);
        assert!(!gold.is_empty());
        let config = OptimizerConfig::for_engine(&engine);
        let plan = optimize(&query, &s.stats(), &engine.cost, &config).unwrap();
        let run = run_plan(&plan, &engine, true);
        assert!(run.succeeded());
        assert_eq!(run.solutions.unwrap(), gold);
        // Every job carried an estimate, so the run reports a q-error.
        assert!(run.stats.max_q_error().is_some());
    }

    #[test]
    fn more_stars_than_the_search_enumerates_is_a_typed_error() {
        let chain = |stars: usize| {
            let body: String = (0..stars)
                .map(|i| format!("?s{i} <next> ?s{} . ?s{i} ?p{i} ?o{i} . ", i + 1))
                .collect();
            parse_query(&format!("SELECT * WHERE {{ {body}}}")).unwrap()
        };
        let s = store();
        let plan = |q: &Query| optimize(q, &s.stats(), &CostModel::default(), &Default::default());
        assert_eq!(plan(&chain(MAX_STARS)).unwrap().eager_stars().unwrap().len(), MAX_STARS);
        assert_eq!(
            plan(&chain(MAX_STARS + 1)).unwrap_err(),
            PlanError::Unsupported(UnsupportedReason::TooManyStars {
                stars: MAX_STARS + 1,
                limit: MAX_STARS
            })
        );
    }

    #[test]
    fn small_build_side_gets_broadcast() {
        // The <gl> star is tiny; shipping it beats shuffling everything.
        let plan = plan_for(UNBOUND_2STAR, &store());
        assert_eq!(plan.stages().len(), 2);
        assert!(plan.broadcast_cycles() == 1, "expected a broadcast cycle in {}", plan.summary());
        let join = plan.stages()[1][0].estimate.as_ref().unwrap();
        assert_eq!(join.shuffle_bytes, Some(0));
    }

    #[test]
    fn broadcast_disabled_without_budget() {
        let s = store();
        let query = parse_query(UNBOUND_2STAR).unwrap();
        let config = OptimizerConfig { broadcast_budget_bytes: 0 };
        let plan =
            optimize(&query, &s.stats(), &CostModel::scaled_to(s.text_bytes()), &config).unwrap();
        assert_eq!(plan.broadcast_cycles(), 0, "{}", plan.summary());
        match plan.stages()[1][0].cycle {
            Cycle::TgJoin(JoinAlgo::Reduce { reduce_tasks, .. }, _) => assert!(reduce_tasks >= 1),
            ref other => panic!("broadcast chosen with zero budget: {other:?}"),
        }
    }

    #[test]
    fn optimizer_at_least_matches_every_hand_picked_strategy() {
        let s = store();
        let cost = CostModel::scaled_to(s.text_bytes());
        let query = parse_query(UNBOUND_2STAR).unwrap();
        let config = OptimizerConfig::default();
        let plan = optimize(&query, &s.stats(), &cost, &config).unwrap();

        let run_with = |strategy| {
            let engine =
                Engine::new(ClusterConfig { cost: cost.clone(), ..Default::default() }).unwrap();
            load_store(&engine, "t", &s).unwrap();
            let r = run_plan(&Strategy::plan(strategy, &query).unwrap(), &engine, false);
            assert!(r.succeeded());
            r.stats.sim_seconds
        };
        let best_hand = [
            Strategy::Eager,
            Strategy::LazyFull,
            Strategy::LazyPartial(1024),
            Strategy::Auto(1024),
        ]
        .into_iter()
        .map(run_with)
        .fold(f64::INFINITY, f64::min);

        let engine =
            Engine::new(ClusterConfig { cost: cost.clone(), ..Default::default() }).unwrap();
        load_store(&engine, "t", &s).unwrap();
        let run = run_plan(&plan, &engine, false);
        assert!(run.succeeded());
        assert!(
            run.stats.sim_seconds <= best_hand + 1e-9,
            "cost plan {} took {:.3}s vs best hand-picked {:.3}s",
            plan.summary(),
            run.stats.sim_seconds,
            best_hand
        );
    }

    #[test]
    fn oversized_actual_build_side_repairs_to_reduce_join() {
        let s = store();
        let query = parse_query(UNBOUND_2STAR).unwrap();
        let gold = rdf_query::naive::evaluate(&query, &s);
        // Plan with a generous budget, run on an engine with a tiny one:
        // the actual file check must repair the cycle, not fail the run.
        let stats = s.stats();
        let plan = optimize(
            &query,
            &stats,
            &CostModel::scaled_to(s.text_bytes()),
            &OptimizerConfig::default(),
        )
        .unwrap();
        assert!(plan.broadcast_cycles() > 0);
        let engine =
            Engine::new(ClusterConfig { broadcast_budget_bytes: 1, ..Default::default() }).unwrap();
        load_store(&engine, "t", &s).unwrap();
        let run = run_plan(&plan, &engine, true);
        assert!(run.succeeded());
        assert_eq!(run.solutions.unwrap(), gold);
        assert_eq!(run.stats.jobs.last().unwrap().broadcast_files, 0);
    }

    #[test]
    fn single_star_plan_has_no_cycles() {
        let s = store();
        let plan = plan_for("SELECT * WHERE { ?g <label> ?l . ?g ?p ?o . }", &s);
        assert_eq!(plan.stages().len(), 1);
        let engine = Engine::unbounded();
        load_store(&engine, "t", &s).unwrap();
        let query = parse_query("SELECT * WHERE { ?g <label> ?l . ?g ?p ?o . }").unwrap();
        let gold = rdf_query::naive::evaluate(&query, &s);
        let run = run_plan(&plan, &engine, true);
        assert_eq!(run.stats.mr_cycles, 1);
        assert_eq!(run.solutions.unwrap(), gold);
    }

    #[test]
    fn redundant_star_stays_lazy() {
        // A store where one star expands 100× eagerly: the optimizer must
        // not pick eager for it.
        let mut triples = vec![STriple::new("<go1>", "<gl>", "\"x\"")];
        for i in 0..100 {
            triples.push(STriple::new("<g1>", "<xGO>", format!("<v{i}>")));
        }
        triples.push(STriple::new("<g1>", "<xGO>", "<go1>"));
        triples.push(STriple::new("<g1>", "<label>", "\"a\""));
        let s = TripleStore::from_triples(triples);
        let plan = plan_for(UNBOUND_2STAR, &s);
        assert!(!plan.eager_stars().unwrap()[0], "expansive star went eager: {}", plan.summary());
    }
}
