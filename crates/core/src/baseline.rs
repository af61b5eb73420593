//! The paper's relational baselines as [`PhysicalPlan`]s: **one star join
//! per MR cycle**, then one MR cycle per join between star results.
//! **Hive** runs its cycles one after another and shares the input scan
//! within a star join ([`Scan::Shared`]). **Pig** runs its star joins
//! concurrently (one stage, counted as one MR cycle, as the paper counts
//! them) but issues one LOAD per relation group ([`Scan::PerLoad`]: a star
//! with bound and unbound patterns reads the input twice), after a
//! [`Cycle::LoadCopy`] of the input for multi-star queries. Of Figure 3's
//! groupings of a two-star query, *SJ-per-cycle* is the Hive plan, the NTGA
//! grouping [`crate::Strategy::plan`]'s, and *Sel-SJ-first* is
//! [`PhysicalPlan::sel_sj_first`].

use crate::plan::{supported, Cycle, PhysicalPlan, Scan};
use mr_rdf::{PlanError, UnsupportedReason};
use rdf_query::{JoinKind, Query};

/// The plan of `star_stages` followed by the query's left-deep row joins.
fn relational(
    label: &str,
    query: &Query,
    star_stages: impl Iterator<Item = Vec<Cycle>>,
) -> Result<PhysicalPlan, PlanError> {
    let joins = query.left_deep_order()?.into_iter().map(|step| vec![Cycle::RowJoin(step)]);
    Ok(PhysicalPlan::unestimated(query, label, star_stages.chain(joins)))
}

impl PhysicalPlan {
    /// The Apache-Pig-like plan: the load (multi-star queries only), one
    /// stage of concurrent per-load star joins, then the row joins.
    pub fn pig(query: &Query) -> Result<PhysicalPlan, PlanError> {
        let stars = supported(query)?;
        let load = (stars > 1).then(|| vec![Cycle::LoadCopy]);
        let star_joins = (0..stars).map(|star| Cycle::StarJoin { star, scan: Scan::PerLoad });
        relational("Pig", query, load.into_iter().chain([star_joins.collect()]))
    }

    /// The Apache-Hive-like plan: one shared-scan star join per stage, then
    /// the row joins.
    pub fn hive(query: &Query) -> Result<PhysicalPlan, PlanError> {
        let stars = supported(query)?;
        let star_joins = (0..stars).map(|star| vec![Cycle::StarJoin { star, scan: Scan::Shared }]);
        relational("Hive", query, star_joins)
    }

    /// Figure 3's Sel-SJ-first grouping of a **two-star** query: the star
    /// holding the join variable as an object first, then the other star
    /// attached by its subject in the join's own cycle — for an
    /// object-object join, after its join pattern is attached by object.
    pub fn sel_sj_first(query: &Query) -> Result<PhysicalPlan, PlanError> {
        let stars = supported(query)?;
        if stars != 2 {
            return Err(UnsupportedReason::NotTwoStars { stars }.into());
        }
        let edge = query.join_edges().into_iter().next();
        let edge = edge.ok_or_else(|| PlanError::Internal("two stars without a join".into()))?;
        let first = |star| vec![Cycle::StarJoin { star, scan: Scan::Shared }];
        let stages = match edge.kind {
            JoinKind::ObjectSubject => {
                vec![first(edge.left), vec![Cycle::StarAttach { star: edge.right }]]
            }
            JoinKind::SubjectObject => {
                vec![first(edge.right), vec![Cycle::StarAttach { star: edge.left }]]
            }
            JoinKind::ObjectObject => {
                let second = &query.stars[edge.right];
                let pattern = second
                    .patterns
                    .iter()
                    .position(|p| p.object.var() == Some(edge.var.as_str()))
                    .ok_or_else(|| PlanError::Internal("OO join var not in second star".into()))?;
                let attach = vec![Cycle::PatternAttach { star: edge.right, pattern }];
                let rest = (second.patterns.len() > 1)
                    .then(|| vec![Cycle::StarAttach { star: edge.right }]);
                [first(edge.left), attach].into_iter().chain(rest).collect()
            }
        };
        Ok(PhysicalPlan::unestimated(query, "Sel-SJ-first", stages))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execute_plan;
    use mr_rdf::{load_store, QueryRun};
    use mrsim::{ClusterConfig, Engine};
    use rdf_model::{STriple, TripleStore};
    use rdf_query::parse_query;

    fn store() -> TripleStore {
        TripleStore::from_triples(vec![
            STriple::new("<g1>", "<label>", "\"a\""),
            STriple::new("<g1>", "<xGO>", "<go1>"),
            STriple::new("<g1>", "<xGO>", "<go2>"),
            STriple::new("<g2>", "<label>", "\"b\""),
            STriple::new("<go1>", "<gl>", "\"nucleus\""),
            STriple::new("<go2>", "<gl>", "\"membrane\""),
            // Figure 3's shapes: products, their producer, offers and reviews.
            STriple::new("<p1>", "<producer>", "<m1>"),
            STriple::new("<p1>", "<label>", "\"prod1\""),
            STriple::new("<p2>", "<producer>", "<m1>"),
            STriple::new("<p2>", "<label>", "\"prod2\""),
            STriple::new("<m1>", "<label>", "\"maker\""),
            STriple::new("<m1>", "<country>", "<c1>"),
            STriple::new("<o1>", "<offerFor>", "<p1>"),
            STriple::new("<o1>", "<price>", "\"9\""),
            STriple::new("<r1>", "<reviewFor>", "<p1>"),
            STriple::new("<r1>", "<rating>", "\"5\""),
            STriple::new("<r2>", "<reviewFor>", "<p1>"),
            STriple::new("<r2>", "<rating>", "\"3\""),
        ])
    }

    type Constructor = fn(&Query) -> Result<PhysicalPlan, PlanError>;
    const PIG: Constructor = PhysicalPlan::pig;
    const HIVE: Constructor = PhysicalPlan::hive;
    const SEL: Constructor = PhysicalPlan::sel_sj_first;

    fn run_on(engine: &Engine, plan: Constructor, q: &str) -> QueryRun {
        let plan = plan(&parse_query(q).unwrap()).unwrap();
        execute_plan(&plan, engine, "t", "q", true).unwrap()
    }

    /// `q` under `plan` on an unbounded engine, checked against the naive
    /// evaluator.
    fn run(plan: Constructor, q: &str) -> QueryRun {
        let engine = Engine::unbounded();
        load_store(&engine, "t", &store()).unwrap();
        let run = run_on(&engine, plan, q);
        assert!(run.succeeded());
        let gold = rdf_query::naive::evaluate(&parse_query(q).unwrap(), &store());
        assert_eq!(run.solutions.as_ref(), Some(&gold), "{q}");
        run
    }

    const TWO_STAR: &str = "SELECT * WHERE { ?g <label> ?l . ?g <xGO> ?go . ?go <gl> ?x . }";
    const UNBOUND: &str = "SELECT * WHERE { ?g <label> ?l . ?g ?p ?go . ?go <gl> ?x . }";
    const OS: &str = "SELECT * WHERE {
        ?p <producer> ?pr . ?p <label> ?l1 .
        ?pr <label> ?l2 . ?pr <country> ?c . }";
    const OO: &str = "SELECT * WHERE {
        ?o <offerFor> ?x . ?o <price> ?price .
        ?r <reviewFor> ?x . ?r <rating> ?rating . }";

    #[test]
    fn every_baseline_matches_naive() {
        for plan in [PIG, HIVE, SEL] {
            for q in [TWO_STAR, UNBOUND, OS, OO] {
                run(plan, q);
            }
        }
        for plan in [PIG, HIVE] {
            run(plan, "SELECT * WHERE { ?g <label> ?l . ?g ?p ?o . }");
        }
    }

    #[test]
    fn cycle_counts_match_paper() {
        // Two stars: Hive = 2 star cycles + 1 join = 3; Pig = load + one
        // concurrent star stage + join = 3 (stars counted once).
        let hive = run(HIVE, TWO_STAR);
        assert_eq!((hive.stats.mr_cycles, hive.stats.full_scans), (3, 2));
        let pig = run(PIG, TWO_STAR);
        assert_eq!(pig.stats.mr_cycles, 3);
        let jobs: Vec<&str> = pig.stats.jobs.iter().map(|j| j.name.as_str()).collect();
        assert_eq!(jobs, ["q.load", "q.star0", "q.star1", "q.join0"]);
        assert_eq!(pig.stats.label, "Pig/q");
        let single = run(HIVE, "SELECT * WHERE { ?g <label> ?l . ?g ?p ?o . }");
        assert_eq!(single.stats.mr_cycles, 1);
    }

    #[test]
    fn pig_reads_more_than_hive_on_unbound_stars() {
        let (pig, hive) = (run(PIG, UNBOUND), run(HIVE, UNBOUND));
        assert!(pig.stats.total_read_bytes() > hive.stats.total_read_bytes());
    }

    #[test]
    fn sel_sj_first_counts_match_figure3() {
        // Object-subject: SJ-per-cycle (Hive) 3 MR / 2 FS, Sel-SJ-first 2 / 2.
        let sj = run(HIVE, OS);
        assert_eq!((sj.stats.mr_cycles, sj.stats.full_scans), (3, 2));
        let sel = run(SEL, OS);
        assert_eq!((sel.stats.mr_cycles, sel.stats.full_scans), (2, 2));
        assert_eq!(sel.stats.jobs[1].name, "q.attach");
        // Object-object costs Sel-SJ-first a cycle and a scan: 3 / 3.
        let sj = run(HIVE, OO);
        assert_eq!((sj.stats.mr_cycles, sj.stats.full_scans), (3, 2));
        let sel = run(SEL, OO);
        assert_eq!((sel.stats.mr_cycles, sel.stats.full_scans), (3, 3));
        let jobs: Vec<&str> = sel.stats.jobs.iter().map(|j| j.name.as_str()).collect();
        assert_eq!(jobs, ["q.star0", "q.pattach", "q.sattach"]);
    }

    #[test]
    fn sel_sj_first_rejects_other_than_two_stars() {
        let q = parse_query("SELECT * WHERE { ?a <p> ?x . }").unwrap();
        assert_eq!(
            PhysicalPlan::sel_sj_first(&q).unwrap_err(),
            PlanError::Unsupported(UnsupportedReason::NotTwoStars { stars: 1 })
        );
    }

    #[test]
    fn disk_full_reported_not_panicked() {
        // Tiny DFS: input fits, star-join output does not.
        let store = store();
        let engine = Engine::new(ClusterConfig {
            nodes: 1,
            disk_per_node: store.text_bytes() + 60,
            ..Default::default()
        })
        .unwrap();
        load_store(&engine, "t", &store).unwrap();
        let run = run_on(&engine, HIVE, UNBOUND);
        assert!(!run.succeeded());
        assert!(run.stats.failure.as_deref().unwrap_or("").contains("full"));
        assert!(run.solutions.is_none());
    }

    #[test]
    fn projection_respected() {
        let r = run(HIVE, "SELECT ?g WHERE { ?g <label> ?l . ?g <xGO> ?go . ?go <gl> ?x . }");
        let sols = r.solutions.unwrap();
        assert_eq!(sols.len(), 1); // only g1, collapsed over go values
        assert_eq!(sols.vars(), ["g"]);
    }
}
