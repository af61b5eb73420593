//! Shared planner error and run-result types, and the query-workflow frame
//! the one plan driver (`ntga_core::execute_plan`) runs every approach's
//! jobs in.

use crate::support::{check_query, UnsupportedReason};
use mrsim::{Engine, MrError, Workflow, WorkflowStats};
use rdf_query::{Query, QueryError, SolutionRows, SolutionSet};
use std::fmt;

/// Errors raised while *planning* a query (before any job runs).
///
/// Runtime failures (e.g. `DiskFull`) are not errors at this level: they
/// come back as a [`QueryRun`] whose stats record the failure, mirroring
/// how the paper reports failed executions as data points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The query is structurally invalid.
    Query(QueryError),
    /// The query shape is valid but unsupported by the MR planners.
    Unsupported(UnsupportedReason),
    /// Planner invariant violation (a bug).
    Internal(String),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Query(e) => write!(f, "invalid query: {e}"),
            PlanError::Unsupported(e) => write!(f, "unsupported by MR planners: {e}"),
            PlanError::Internal(m) => write!(f, "planner bug: {m}"),
        }
    }
}

impl std::error::Error for PlanError {}

impl PlanError {
    /// A final relation that cannot be read back: a missing file or a
    /// record the decoder refuses.
    pub fn final_output(e: MrError) -> Self {
        PlanError::Internal(format!("reading final output: {e}"))
    }
}

impl From<QueryError> for PlanError {
    fn from(e: QueryError) -> Self {
        PlanError::Query(e)
    }
}

impl From<UnsupportedReason> for PlanError {
    fn from(e: UnsupportedReason) -> Self {
        PlanError::Unsupported(e)
    }
}

/// The outcome of executing one query with one strategy.
#[derive(Debug, Clone)]
pub struct QueryRun {
    /// Workflow counters (cycles, bytes, simulated seconds, success flag).
    pub stats: WorkflowStats,
    /// The solution set, present only when the workflow succeeded and the
    /// caller asked for result extraction.
    pub solutions: Option<SolutionSet>,
}

impl QueryRun {
    /// True if the workflow completed.
    pub fn succeeded(&self) -> bool {
        self.stats.succeeded
    }
}

/// Why a workflow body stopped before producing its final relation.
///
/// Both kinds convert with `?`: a [`PlanError`] is the planner's own
/// problem and becomes the `Err` of [`run_query_workflow`]; an [`MrError`]
/// is a runtime failure (typically `DiskFull`) and becomes a failed
/// [`QueryRun`] — the paper's "X" bars are data points, not errors.
#[derive(Debug)]
pub enum WorkflowAbort {
    /// Planning problem discovered while assembling jobs.
    Plan(PlanError),
    /// A job failed and the recovery policy gave up.
    Run(MrError),
}

impl From<PlanError> for WorkflowAbort {
    fn from(e: PlanError) -> Self {
        WorkflowAbort::Plan(e)
    }
}

impl From<MrError> for WorkflowAbort {
    fn from(e: MrError) -> Self {
        WorkflowAbort::Run(e)
    }
}

/// The slot each binding position of a final relation's records writes;
/// `positions` names the variable, if any, each one binds, in record order.
/// The header's variables (`vars`, sorted) take slots `0..vars.len()` — a
/// row's cells; a variable bound at more than one position but not
/// projected takes one past them, for the equality check alone; any other
/// has none. Returned with the number of slots. A header variable no
/// position binds is a planner bug.
pub fn binder_slots(
    positions: &[Option<&str>],
    vars: &[String],
) -> Result<(Vec<Option<usize>>, usize), PlanError> {
    let occurrences = |var: &str| positions.iter().filter(|p| **p == Some(var)).count();
    if let Some(var) = vars.iter().find(|v| occurrences(v) == 0) {
        return Err(PlanError::Internal(format!("the final relation does not bind ?{var}")));
    }
    let mut names: Vec<&str> = vars.iter().map(String::as_str).collect();
    let mut slot = |var| {
        names.iter().position(|n| *n == var).or_else(|| {
            (occurrences(var) > 1).then(|| {
                names.push(var);
                names.len() - 1
            })
        })
    };
    let slots = positions.iter().map(|p| p.and_then(&mut slot)).collect();
    Ok((slots, names.len()))
}

/// The final β-unnest of a relation: walk the encoded records of DFS file
/// `file` in place and hand each to `add_rows`, which appends the rows it
/// stands for — values in the order of `vars`, already projected — then
/// sort and deduplicate once.
pub fn read_solutions(
    engine: &Engine,
    file: &str,
    vars: Vec<String>,
    mut add_rows: impl FnMut(&[u8], &mut SolutionRows) -> Result<(), PlanError>,
) -> Result<SolutionSet, PlanError> {
    let file = engine.hdfs().lock().get(file).map_err(PlanError::final_output)?;
    let mut rows = SolutionRows::new(vars);
    for record in &file.records {
        add_rows(record, &mut rows)?;
    }
    Ok(rows.finish())
}

/// Run one query as one workflow named `name`.
///
/// The part every plan shares: validate the query and check planner
/// support, open the [`Workflow`], let `body` run its jobs (`wf.run_job(job)?`
/// — the first failing job ends the run as a failed [`QueryRun`]), clean up
/// every intermediate except the final relation, and, when
/// `extract_solutions` is set, turn that relation into the [`SolutionSet`]
/// over [`Query::solution_vars`] through [`read_solutions`].
///
/// `body` returns the DFS file holding the final relation together with
/// the kernel that appends one encoded record's rows.
pub fn run_query_workflow<X>(
    engine: &Engine,
    name: String,
    query: &Query,
    extract_solutions: bool,
    body: impl FnOnce(&mut Workflow<'_>) -> Result<(String, X), WorkflowAbort>,
) -> Result<QueryRun, PlanError>
where
    X: FnMut(&[u8], &mut SolutionRows) -> Result<(), PlanError>,
{
    query.validate()?;
    check_query(query)?;

    let mut wf = Workflow::new(engine, name);
    let (final_file, add_rows) = match body(&mut wf) {
        Ok(done) => done,
        Err(WorkflowAbort::Plan(e)) => return Err(e),
        Err(WorkflowAbort::Run(e)) => {
            return Ok(QueryRun { stats: wf.finish_failed(&e), solutions: None })
        }
    };
    let stats = wf.finish(&[&final_file]);
    let solutions = extract_solutions
        .then(|| read_solutions(engine, &final_file, query.solution_vars(), add_rows))
        .transpose()?;
    Ok(QueryRun { stats, solutions })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_from() {
        let e: PlanError = QueryError::Empty.into();
        assert!(e.to_string().contains("invalid query"));
        let u: PlanError =
            UnsupportedReason::MultiVarJoin { left: "a".into(), right: "b".into() }.into();
        assert!(u.to_string().contains("unsupported"));
        assert!(PlanError::Internal("x".into()).to_string().contains("bug"));
    }
}
