//! Star-join groupings for the paper's Figure 3 case study.
//!
//! Three ways to group the joins of a two-star query:
//!
//! * **SJ-per-cycle** — one star-join per MR cycle, then the inter-star
//!   join: 3 cycles, 2 of which scan the full triple relation;
//! * **Sel-SJ-first** — evaluate one star first, then *combine* the second
//!   star-join with the inter-star join: 2 cycles (both full scans) for
//!   object-subject joins, 3 cycles (all full scans) for object-object
//!   joins;
//! * the NTGA grouping (all star joins in one grouping cycle) lives in
//!   `ntga-core` and is included in the case-study harness for comparison.

use mr_rdf::{run_query_workflow, PlanError, QueryRun};
use mrsim::Engine;
use rdf_query::{JoinKind, Query};

use crate::attach::{pattern_attach_job, star_attach_job};
use crate::row_join::row_join_job;
use crate::star_join::star_join_job;

/// The grouping under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grouping {
    /// One star-join per cycle, then the join (the Hive/Pig default).
    SjPerCycle,
    /// Most-selective star first, second star fused with the inter-star
    /// join.
    SelSjFirst,
}

impl Grouping {
    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            Grouping::SjPerCycle => "SJ-per-cycle",
            Grouping::SelSjFirst => "Sel-SJ-first",
        }
    }
}

/// Execute a **two-star** query under the chosen grouping.
pub fn execute_grouping(
    grouping: Grouping,
    engine: &Engine,
    query: &Query,
    input: &str,
    label: &str,
    extract_solutions: bool,
) -> Result<QueryRun, PlanError> {
    let name = format!("{}/{label}", grouping.label());
    run_query_workflow(engine, name, query, extract_solutions, |wf| {
        if query.stars.len() != 2 {
            return Err(
                PlanError::Internal("groupings are defined for two-star queries".into()).into()
            );
        }
        let edges = query.join_edges();
        let edge = edges
            .first()
            .ok_or_else(|| PlanError::Internal("two-star query without a join edge".into()))?;
        // The star-join cycle of star `i`, written to `{label}.star{i}`.
        let star_job = |i: usize| {
            let file = format!("{label}.star{i}");
            let (job, schema) = star_join_job(file.clone(), &query.stars[i], input, &file, false);
            (job, file, schema)
        };

        let (final_file, final_schema) = match grouping {
            Grouping::SjPerCycle => {
                let (j0, f0, s0) = star_job(0);
                let (j1, f1, s1) = star_job(1);
                wf.run_job(j0)?;
                wf.run_job(j1)?;
                let out = format!("{label}.join");
                let (jj, sj) =
                    row_join_job(format!("{label}.join"), (&f0, &s0), (&f1, &s1), &edge.var, &out)?;
                wf.run_job(jj)?;
                (out, sj)
            }
            Grouping::SelSjFirst => match edge.kind {
                JoinKind::ObjectSubject | JoinKind::SubjectObject => {
                    // Start from the star holding the join var as an object;
                    // attach the subject-side star in the same cycle as the
                    // join.
                    let (first, second) = if edge.kind == JoinKind::ObjectSubject {
                        (edge.left, edge.right)
                    } else {
                        (edge.right, edge.left)
                    };
                    let (j0, f0, s0) = star_job(first);
                    wf.run_job(j0)?;
                    let out = format!("{label}.attach");
                    let (j1, s1) = star_attach_job(
                        format!("{label}.attach"),
                        (&f0, &s0),
                        &edge.var,
                        &query.stars[second],
                        input,
                        &out,
                    )?;
                    wf.run_job(j1)?;
                    (out, s1)
                }
                JoinKind::ObjectObject => {
                    // Cycle 1: first star. Cycle 2: attach the second star's
                    // join pattern by object. Cycle 3: attach the rest of the
                    // second star by subject.
                    let (first, second) = (edge.left, edge.right);
                    let star2 = &query.stars[second];
                    let join_pat_idx = star2
                        .patterns
                        .iter()
                        .position(|p| p.object.var() == Some(edge.var.as_str()))
                        .ok_or_else(|| {
                            PlanError::Internal("OO join var not in second star".into())
                        })?;
                    let (j0, f0, s0) = star_job(first);
                    wf.run_job(j0)?;
                    let pattach = format!("{label}.pattach");
                    let (j1, s1) = pattern_attach_job(
                        pattach.clone(),
                        (&f0, &s0),
                        &edge.var,
                        &star2.patterns[join_pat_idx],
                        input,
                        &pattach,
                    )?;
                    wf.run_job(j1)?;
                    let rest: Vec<_> = star2
                        .patterns
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| *i != join_pat_idx)
                        .map(|(_, p)| p.clone())
                        .collect();
                    if rest.is_empty() {
                        (pattach, s1)
                    } else {
                        let rest_star =
                            rdf_query::StarPattern::new(star2.subject_var.clone(), rest);
                        let out = format!("{label}.sattach");
                        let (j2, s2) = star_attach_job(
                            format!("{label}.sattach"),
                            (&pattach, &s1),
                            &star2.subject_var,
                            &rest_star,
                            input,
                            &out,
                        )?;
                        wf.run_job(j2)?;
                        (out, s2)
                    }
                }
            },
        };
        Ok((final_file, final_schema.extractor(&query.solution_vars())?))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mr_rdf::load_store;
    use rdf_model::{STriple, TripleStore};

    fn store() -> TripleStore {
        TripleStore::from_triples(vec![
            STriple::new("<p1>", "<producer>", "<m1>"),
            STriple::new("<p1>", "<label>", "\"prod1\""),
            STriple::new("<p2>", "<producer>", "<m1>"),
            STriple::new("<p2>", "<label>", "\"prod2\""),
            STriple::new("<m1>", "<label>", "\"maker\""),
            STriple::new("<m1>", "<country>", "<c1>"),
            // OO-join data: offers and reviews for the same product.
            STriple::new("<o1>", "<offerFor>", "<p1>"),
            STriple::new("<o1>", "<price>", "\"9\""),
            STriple::new("<r1>", "<reviewFor>", "<p1>"),
            STriple::new("<r1>", "<rating>", "\"5\""),
            STriple::new("<r2>", "<reviewFor>", "<p1>"),
            STriple::new("<r2>", "<rating>", "\"3\""),
        ])
    }

    const OS: &str = "SELECT * WHERE {
        ?p <producer> ?pr . ?p <label> ?l1 .
        ?pr <label> ?l2 . ?pr <country> ?c . }";
    const OO: &str = "SELECT * WHERE {
        ?o <offerFor> ?x . ?o <price> ?price .
        ?r <reviewFor> ?x . ?r <rating> ?rating . }";

    fn run(grouping: Grouping, q: &str) -> QueryRun {
        let engine = Engine::unbounded();
        load_store(&engine, "t", &store()).unwrap();
        let query = rdf_query::parse_query(q).unwrap();
        execute_grouping(grouping, &engine, &query, "t", "g", true).unwrap()
    }

    #[test]
    fn os_join_counts_match_figure3() {
        let q = rdf_query::parse_query(OS).unwrap();
        let gold = rdf_query::naive::evaluate(&q, &store());
        let sj = run(Grouping::SjPerCycle, OS);
        assert_eq!(sj.stats.mr_cycles, 3);
        assert_eq!(sj.stats.full_scans, 2);
        assert_eq!(sj.solutions.unwrap(), gold);
        let sel = run(Grouping::SelSjFirst, OS);
        assert_eq!(sel.stats.mr_cycles, 2);
        assert_eq!(sel.stats.full_scans, 2);
        assert_eq!(sel.solutions.unwrap(), gold);
    }

    #[test]
    fn oo_join_counts_match_figure3() {
        let q = rdf_query::parse_query(OO).unwrap();
        let gold = rdf_query::naive::evaluate(&q, &store());
        assert!(!gold.is_empty());
        let sj = run(Grouping::SjPerCycle, OO);
        assert_eq!(sj.stats.mr_cycles, 3);
        assert_eq!(sj.stats.full_scans, 2);
        assert_eq!(sj.solutions.unwrap(), gold);
        let sel = run(Grouping::SelSjFirst, OO);
        assert_eq!(sel.stats.mr_cycles, 3);
        assert_eq!(sel.stats.full_scans, 3);
        assert_eq!(sel.solutions.unwrap(), gold);
    }

    #[test]
    fn rejects_non_two_star_queries() {
        let engine = Engine::unbounded();
        let q = rdf_query::parse_query("SELECT * WHERE { ?a <p> ?x . }").unwrap();
        assert!(matches!(
            execute_grouping(Grouping::SelSjFirst, &engine, &q, "t", "g", false),
            Err(PlanError::Internal(_))
        ));
    }
}
