//! Pig-like and Hive-like relational planners.
//!
//! Both evaluate queries the way the paper describes its baselines:
//! **one star-join per MR cycle**, then one MR cycle per join between
//! star results. The differences the paper calls out are modeled
//! faithfully:
//!
//! * **Hive** runs its cycles sequentially and *shares the input scan*
//!   within a star-join cycle (one pass over the triple relation feeds
//!   all VP relations and the unbound union).
//! * **Pig** runs independent star-join cycles *concurrently* (counted as
//!   one MR cycle, as the paper counts them), but issues one LOAD per
//!   relation group — so a star with both bound and unbound patterns reads
//!   the input twice ("Pig processes two copies of the input relation") —
//!   and prefixes multi-star queries with an extra map-only job that
//!   passes the input through (the paper's "initial map-only job to read
//!   entire input and compress it").

use mr_rdf::{run_query_workflow, PlanError, QueryRun, RowSchema, TripleView};
use mrsim::{Engine, JobSpec, MrError, OutEmitter, RawMapOnlyOp, TaskContext};
use rdf_query::Query;
use std::sync::Arc;

use crate::row_join::row_join_job;
use crate::star_join::star_join_job;

/// Which relational system to imitate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelFlavor {
    /// Apache-Pig-like execution.
    Pig,
    /// Apache-Hive-like execution.
    Hive,
}

impl RelFlavor {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            RelFlavor::Pig => "Pig",
            RelFlavor::Hive => "Hive",
        }
    }
}

/// The map of Pig's pass-through `.load` job: each triple copied as it
/// stands.
pub struct LoadCopy;

impl LoadCopy {
    /// Check that `rec` is one encoded [`mr_rdf::TripleRec`] and
    /// `emit(record, text)` its own bytes with its N-Triples row size.
    pub fn copy(
        rec: &[u8],
        emit: impl FnOnce(Vec<u8>, u64) -> Result<(), MrError>,
    ) -> Result<(), MrError> {
        let t = TripleView::from_bytes(rec)?;
        emit(rec.to_vec(), rdf_model::STriple::text_size_of(t.s, t.p, t.o))
    }
}

impl RawMapOnlyOp for LoadCopy {
    fn run(&self, _ctx: &TaskContext, record: &[u8], out: &mut OutEmitter) -> Result<(), MrError> {
        Self::copy(record, |record, text| out.emit_raw(record, text))
    }
}

/// Execute `query` over the triple relation stored in DFS file `input`.
///
/// `label` prefixes all intermediate/output file names (use a unique label
/// per run). Runtime failures (DiskFull) are reported in the returned
/// [`QueryRun`]'s stats; `Err` is reserved for planning problems.
pub fn execute(
    flavor: RelFlavor,
    engine: &Engine,
    query: &Query,
    input: &str,
    label: &str,
    extract_solutions: bool,
) -> Result<QueryRun, PlanError> {
    let name = format!("{}/{label}", flavor.label());
    run_query_workflow(engine, name, query, extract_solutions, |wf| {
        // Pig's preliminary pass-through job for multi-star queries. It
        // writes uncompressed: the extra cycle and write cost are kept
        // without changing downstream scan volumes.
        let base: String = if flavor == RelFlavor::Pig && query.stars.len() > 1 {
            let copy = format!("{label}.copy");
            let job = JobSpec::map_only(
                format!("{label}.load"),
                vec![input.to_string()],
                Arc::new(LoadCopy),
                &copy,
            )
            .with_full_scan();
            wf.run_job(job)?;
            copy
        } else {
            input.to_string()
        };

        // Star-join cycles: per star its job and its (file, schema).
        let pig_loads = flavor == RelFlavor::Pig;
        let (star_jobs, stars): (Vec<JobSpec>, Vec<(String, RowSchema)>) = query
            .stars
            .iter()
            .enumerate()
            .map(|(i, star)| {
                let out = format!("{label}.star{i}");
                let (spec, schema) = star_join_job(out.clone(), star, &base, &out, pig_loads);
                (spec, (out, schema))
            })
            .unzip();
        match flavor {
            // Independent star joins run concurrently: one stage.
            RelFlavor::Pig => wf.run_stage(star_jobs)?,
            RelFlavor::Hive => {
                for job in star_jobs {
                    wf.run_job(job)?;
                }
            }
        }

        // Join cycles: left-deep over the join graph.
        let (mut current_file, mut current_schema) = stars[0].clone();
        let order = query.left_deep_order().map_err(PlanError::from)?;
        for (join_no, step) in order.iter().enumerate() {
            let out = format!("{label}.join{join_no}");
            let (other_file, other_schema) = &stars[step.star];
            let (spec, schema) = row_join_job(
                out.clone(),
                (&current_file, &current_schema),
                (other_file, other_schema),
                &step.var,
                &out,
            )?;
            wf.run_job(spec)?;
            current_file = out;
            current_schema = schema;
        }
        Ok((current_file, current_schema.extractor(&query.solution_vars())?))
    })
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
            STriple::new("<g2>", "<label>", "\"b\""),
            STriple::new("<go1>", "<gl>", "\"nucleus\""),
            STriple::new("<go2>", "<gl>", "\"membrane\""),
        ])
    }

    fn run(flavor: RelFlavor, q: &str) -> QueryRun {
        let engine = Engine::unbounded();
        load_store(&engine, "t", &store()).unwrap();
        let query = parse_query(q).unwrap();
        execute(flavor, &engine, &query, "t", "q", true).unwrap()
    }

    const TWO_STAR: &str = "SELECT * WHERE { ?g <label> ?l . ?g <xGO> ?go . ?go <gl> ?x . }";
    const UNBOUND: &str = "SELECT * WHERE { ?g <label> ?l . ?g ?p ?go . ?go <gl> ?x . }";

    #[test]
    fn matches_naive_bound_two_star() {
        let query = parse_query(TWO_STAR).unwrap();
        let gold = rdf_query::naive::evaluate(&query, &store());
        for flavor in [RelFlavor::Pig, RelFlavor::Hive] {
            let run = run(flavor, TWO_STAR);
            assert!(run.succeeded());
            assert_eq!(run.solutions.unwrap(), gold, "{flavor:?}");
        }
    }

    #[test]
    fn matches_naive_unbound_join() {
        let query = parse_query(UNBOUND).unwrap();
        let gold = rdf_query::naive::evaluate(&query, &store());
        assert!(!gold.is_empty());
        for flavor in [RelFlavor::Pig, RelFlavor::Hive] {
            let run = run(flavor, UNBOUND);
            assert_eq!(run.solutions.unwrap(), gold, "{flavor:?}");
        }
    }

    #[test]
    fn cycle_counts_match_paper() {
        // Two stars: Hive = 2 star cycles + 1 join = 3; Pig = load + one
        // concurrent star stage + join = 3 (stars counted once).
        let hive = run(RelFlavor::Hive, TWO_STAR);
        assert_eq!(hive.stats.mr_cycles, 3);
        assert_eq!(hive.stats.full_scans, 2);
        let pig = run(RelFlavor::Pig, TWO_STAR);
        assert_eq!(pig.stats.mr_cycles, 3);
        assert_eq!(pig.stats.jobs.len(), 4); // load + 2 stars + join
    }

    #[test]
    fn pig_reads_more_than_hive_on_unbound_stars() {
        let pig = run(RelFlavor::Pig, UNBOUND);
        let hive = run(RelFlavor::Hive, UNBOUND);
        assert!(pig.stats.total_read_bytes() > hive.stats.total_read_bytes());
    }

    #[test]
    fn single_star_query_is_one_cycle() {
        let r = run(RelFlavor::Hive, "SELECT * WHERE { ?g <label> ?l . ?g ?p ?o . }");
        assert_eq!(r.stats.mr_cycles, 1);
        let query = parse_query("SELECT * WHERE { ?g <label> ?l . ?g ?p ?o . }").unwrap();
        let gold = rdf_query::naive::evaluate(&query, &store());
        assert_eq!(r.solutions.unwrap(), gold);
    }

    #[test]
    fn disk_full_reported_not_panicked() {
        // Tiny DFS: input fits, star-join output does not.
        let store = store();
        let cap = store.text_bytes() + 60;
        let engine = Engine::new(SimHdfs::new(cap, 1));
        load_store(&engine, "t", &store).unwrap();
        let query = parse_query(UNBOUND).unwrap();
        let run = execute(RelFlavor::Hive, &engine, &query, "t", "q", true).unwrap();
        assert!(!run.succeeded());
        assert!(run.stats.failure.as_deref().unwrap_or("").contains("full"));
        assert!(run.solutions.is_none());
    }

    #[test]
    fn projection_respected() {
        let r = run(
            RelFlavor::Hive,
            "SELECT ?g WHERE { ?g <label> ?l . ?g <xGO> ?go . ?go <gl> ?x . }",
        );
        let sols = r.solutions.unwrap();
        assert_eq!(sols.len(), 1); // only g1, collapsed over go values
        assert_eq!(sols.vars(), ["g"]);
    }
}
