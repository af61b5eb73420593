//! Shared planner error and run-result types: what the one plan driver
//! (`ntga_core::execute_plan`) returns for every approach.

use crate::support::UnsupportedReason;
use mrsim::{MrError, WorkflowStats};
use rdf_query::{QueryError, SolutionSet};
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
