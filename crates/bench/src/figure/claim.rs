//! What a paper figure states about its table, checked against the rows.
//!
//! A [`Claim`] names its cells by exact query id and approach label. A cell
//! with no row or several rows, or a failed run whose metric the claim
//! compares, fails the claim.

use crate::report::{human_bytes, Row};
use mrsim::WorkflowStats;
use std::fmt;

/// A `(query id, approach label)` cell of a figure's table.
pub(crate) type Cell = (&'static str, &'static str);

/// A quantity read from one report row: its name, whether it is seconds
/// (else bytes), and its value in a run — `None` for the last cycle of a
/// run without one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Metric(&'static str, bool, fn(&WorkflowStats) -> Option<f64>);

pub(crate) const READS: Metric = Metric("reads", false, |s| Some(s.total_read_bytes() as f64));
pub(crate) const WRITES: Metric = Metric("writes", false, |s| Some(s.total_write_bytes() as f64));
/// HDFS bytes written by every job but the last.
pub(crate) const INTERMEDIATE_WRITES: Metric =
    Metric("intermediate writes", false, |s| Some(s.intermediate_write_bytes() as f64));
pub(crate) const SECONDS: Metric = Metric("simulated time", true, |s| Some(s.sim_seconds));
pub(crate) const LAST_CYCLE_SHUFFLE: Metric =
    Metric("last-cycle shuffle", false, |s| Some(s.jobs.last()?.shuffle_bytes() as f64));
pub(crate) const LAST_CYCLE_SECONDS: Metric =
    Metric("last-cycle time", true, |s| Some(s.jobs.last()?.sim_seconds));

impl Metric {
    fn show(self, v: f64) -> String {
        if self.1 {
            format!("{v:.1} s")
        } else {
            human_bytes(v as u64)
        }
    }
}

/// A statement about a figure's report rows.
#[derive(Debug, Clone)]
pub(crate) enum Claim {
    /// The run fails (the paper's X).
    Fails(Cell),
    /// The run completes.
    Completes(Cell),
    /// The run completes in `mr` MR cycles with `fs` full input scans.
    Cycles { cell: Cell, mr: u64, fs: u64 },
    /// `a`'s metric is below `(1 − by) ×` `b`'s; with a negative `by`, a
    /// growth bound between two queries of one approach.
    Less { metric: Metric, a: Cell, b: Cell, by: f64 },
    /// On `query`, the metric strictly increases along `approaches`.
    Order { metric: Metric, query: &'static str, approaches: Vec<&'static str> },
    /// A claim that differs from the paper, with a note on how; it is
    /// checked like any other.
    Deviation(Box<Claim>, &'static str),
}

impl Claim {
    pub(crate) fn less(metric: Metric, a: Cell, b: Cell, by: f64) -> Claim {
        Claim::Less { metric, a, b, by }
    }

    pub(crate) fn order(metric: Metric, query: &'static str, approaches: &[&'static str]) -> Claim {
        Claim::Order { metric, query, approaches: approaches.to_vec() }
    }

    pub(crate) fn deviation(self, note: &'static str) -> Claim {
        Claim::Deviation(Box::new(self), note)
    }

    /// Check the claim against a panel's rows.
    pub(crate) fn check(&self, rows: &[Row]) -> Verdict {
        let (holds, measured) = self.measure(rows).unwrap_or_else(|why| (false, why));
        let deviation = match self {
            Claim::Deviation(_, note) => Some(*note),
            _ => None,
        };
        Verdict { holds, words: self.to_string(), measured, deviation }
    }

    fn measure(&self, rows: &[Row]) -> Result<(bool, String), String> {
        let status = |s: &WorkflowStats| if s.succeeded { "OK" } else { "FAILED (X)" };
        Ok(match self {
            Claim::Fails(c) => find(rows, c).map(|s| (!s.succeeded, status(s).to_string()))?,
            Claim::Completes(c) => find(rows, c).map(|s| (s.succeeded, status(s).to_string()))?,
            Claim::Cycles { cell, mr, fs } => {
                let s = find(rows, cell)?;
                let holds = s.succeeded && (s.mr_cycles, s.full_scans) == (*mr, *fs);
                (holds, format!("{} MR / {} FS, {}", s.mr_cycles, s.full_scans, status(s)))
            }
            Claim::Less { metric, a, b, by } => {
                let (va, vb) = (value(rows, a, *metric)?, value(rows, b, *metric)?);
                let (sa, sb) = (metric.show(va), metric.show(vb));
                (va < vb * (1.0 - by), format!("{sa} vs {sb}: {:.0} %", va / vb * 100.0))
            }
            Claim::Order { metric, query, approaches } => {
                let values = approaches
                    .iter()
                    .map(|a| value(rows, &(query, a), *metric))
                    .collect::<Result<Vec<f64>, String>>()?;
                let shown: Vec<String> = values.iter().map(|v| metric.show(*v)).collect();
                (values.windows(2).all(|w| w[0] < w[1]), shown.join(" / "))
            }
            Claim::Deviation(claim, _) => claim.measure(rows)?,
        })
    }
}

fn name((query, approach): &Cell) -> String {
    format!("{query}/{approach}")
}

/// The one row of `cell`; none or several is the claim's failure.
fn find<'r>(rows: &'r [Row], cell: &Cell) -> Result<&'r WorkflowStats, String> {
    let mut hits = rows.iter().filter(|r| (r.query.as_str(), r.approach.as_str()) == *cell);
    match (hits.next(), hits.next()) {
        (Some(row), None) => Ok(&row.stats),
        (None, _) => Err(format!("no row for {}", name(cell))),
        (Some(_), Some(_)) => Err(format!("more than one row for {}", name(cell))),
    }
}

/// `metric` of a completed cell; a failed run has no value to compare.
fn value(rows: &[Row], cell: &Cell, metric: Metric) -> Result<f64, String> {
    let s = find(rows, cell)?;
    if !s.succeeded {
        return Err(format!("{} FAILED (X)", name(cell)));
    }
    (metric.2)(s).ok_or_else(|| format!("{} ran no MR cycle", name(cell)))
}

impl fmt::Display for Claim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Claim::Fails(c) => write!(f, "{} fails", name(c)),
            Claim::Completes(c) => write!(f, "{} completes", name(c)),
            Claim::Cycles { cell, mr, fs } => {
                write!(f, "{} takes {mr} MR cycles and {fs} full scans", name(cell))
            }
            Claim::Less { metric, a, b, by } => {
                let bound = (1.0 - by) * 100.0;
                write!(f, "{} {} below {bound:.0} % of {}", name(a), metric.0, name(b))
            }
            Claim::Order { metric, query, approaches } => {
                write!(f, "{query} {}: {}", metric.0, approaches.join(" < "))
            }
            Claim::Deviation(claim, _) => claim.fmt(f),
        }
    }
}

/// A checked claim: its words, what was measured and whether it holds.
#[derive(Debug, Clone)]
pub struct Verdict {
    pub(crate) holds: bool,
    pub(crate) words: String,
    pub(crate) measured: String,
    pub(crate) deviation: Option<&'static str>,
}

impl Verdict {
    /// The claim holds.
    pub fn holds(&self) -> bool {
        self.holds
    }

    /// The verdict as a row of `EXPERIMENTS.md`'s claim tables.
    pub(crate) fn markdown(&self) -> String {
        format!("| {} | {} | {} |", self.words, self.measured, self.deviation.unwrap_or(""))
    }
}

/// The verdict line a figure binary prints.
impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mark = if self.holds { "holds" } else { "FAILS" };
        write!(f, "claim {mark}: {} [{}]", self.words, self.measured)?;
        match self.deviation {
            Some(note) => write!(f, " — deviation, {note}"),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrsim::JobStats;

    /// A two-cycle row with `reads` bytes read, twice that written and
    /// `seconds` of simulated time, the last cycle shuffling `reads / 4`.
    fn row(query: &str, approach: &str, succeeded: bool, reads: u64, seconds: f64) -> Row {
        let job = |shuffle| JobStats {
            hdfs_read_bytes: reads / 2,
            hdfs_write_bytes: reads,
            map_output_bytes: shuffle,
            reduce_tasks: 1,
            sim_seconds: seconds / 2.0,
            ..JobStats::default()
        };
        let stats = WorkflowStats {
            jobs: vec![job(0), job(reads / 4)],
            mr_cycles: 2,
            full_scans: 1,
            sim_seconds: seconds,
            succeeded,
            ..WorkflowStats::default()
        };
        Row { query: query.into(), approach: approach.into(), stats }
    }

    fn rows() -> Vec<Row> {
        vec![
            row("B1", "Pig", false, 400, 40.0),
            row("B1", "Hive", true, 400, 30.0),
            row("B1", "Lazy", true, 100, 10.0),
            row("B3", "Lazy", true, 120, 11.0),
        ]
    }

    fn holds(claim: &Claim, rows: &[Row]) -> bool {
        claim.check(rows).holds()
    }

    #[test]
    fn outcome_claims() {
        let rows = rows();
        assert!(holds(&Claim::Fails(("B1", "Pig")), &rows));
        assert!(!holds(&Claim::Fails(("B1", "Hive")), &rows));
        assert!(holds(&Claim::Completes(("B1", "Hive")), &rows));
        let v = Claim::Completes(("B1", "Pig")).check(&rows);
        assert!(!v.holds());
        assert_eq!(v.to_string(), "claim FAILS: B1/Pig completes [FAILED (X)]");
    }

    #[test]
    fn cycle_claims() {
        let rows = rows();
        assert!(holds(&Claim::Cycles { cell: ("B1", "Lazy"), mr: 2, fs: 1 }, &rows));
        assert!(!holds(&Claim::Cycles { cell: ("B1", "Lazy"), mr: 3, fs: 2 }, &rows));
        // A failed run's cycles are no evidence.
        let v = Claim::Cycles { cell: ("B1", "Pig"), mr: 2, fs: 1 }.check(&rows);
        assert!(!v.holds());
        assert_eq!(v.measured, "2 MR / 1 FS, FAILED (X)");
        assert_eq!(v.words, "B1/Pig takes 2 MR cycles and 1 full scans");
    }

    #[test]
    fn less_claims() {
        let rows = rows();
        let v = Claim::less(WRITES, ("B1", "Lazy"), ("B1", "Hive"), 0.7).check(&rows);
        assert!(v.holds(), "{v}");
        assert_eq!(v.words, "B1/Lazy writes below 30 % of B1/Hive");
        assert_eq!(v.measured, "200 B vs 800 B: 25 %");
        assert!(!holds(&Claim::less(WRITES, ("B1", "Lazy"), ("B1", "Hive"), 0.8), &rows));
        assert!(holds(&Claim::less(SECONDS, ("B1", "Lazy"), ("B1", "Hive"), 0.0), &rows));
        assert!(!holds(&Claim::less(SECONDS, ("B1", "Hive"), ("B1", "Lazy"), 0.0), &rows));
        // A growth bound: B3 reads at most 25 % above B1's, not 10 %.
        let growth = Claim::less(READS, ("B3", "Lazy"), ("B1", "Lazy"), -0.25);
        let v = growth.check(&rows);
        assert!(v.holds(), "{v}");
        assert_eq!(v.words, "B3/Lazy reads below 125 % of B1/Lazy");
        assert_eq!(v.measured, "120 B vs 100 B: 120 %");
        assert!(!holds(&Claim::less(READS, ("B3", "Lazy"), ("B1", "Lazy"), -0.1), &rows));
        // Last-cycle metrics read the last job only.
        let last = Claim::less(LAST_CYCLE_SHUFFLE, ("B1", "Lazy"), ("B1", "Hive"), 0.7);
        assert_eq!(last.check(&rows).measured, "25 B vs 100 B: 25 %");
        // A failed cell has nothing to compare.
        let v = Claim::less(WRITES, ("B1", "Lazy"), ("B1", "Pig"), 0.0).check(&rows);
        assert!(!v.holds());
        assert_eq!(v.measured, "B1/Pig FAILED (X)");
    }

    #[test]
    fn order_claims() {
        let rows = rows();
        let v = Claim::order(SECONDS, "B1", &["Lazy", "Hive"]).check(&rows);
        assert!(v.holds(), "{v}");
        assert_eq!(v.words, "B1 simulated time: Lazy < Hive");
        assert_eq!(v.measured, "10.0 s / 30.0 s");
        assert!(!holds(&Claim::order(SECONDS, "B1", &["Hive", "Lazy"]), &rows));
        // Strict: a tie does not order.
        let tie = [row("B0", "Eager", true, 100, 10.0), row("B0", "Lazy", true, 100, 10.0)];
        assert!(!holds(&Claim::order(READS, "B0", &["Lazy", "Eager"]), &tie));
        assert!(!holds(&Claim::order(SECONDS, "B1", &["Lazy", "Pig"]), &rows));
    }

    #[test]
    fn missing_or_ambiguous_cells_fail_the_claim() {
        let mut rows = rows();
        let v = Claim::Completes(("B1", "LazyUnnest")).check(&rows);
        assert!(!v.holds());
        assert_eq!(v.measured, "no row for B1/LazyUnnest");
        // Exact labels: "Lazy" is not a prefix match for anything else.
        assert!(!holds(&Claim::Completes(("B", "Lazy")), &rows));
        rows.push(row("B1", "Hive", true, 1, 1.0));
        let v = Claim::less(READS, ("B1", "Lazy"), ("B1", "Hive"), 0.0).check(&rows);
        assert!(!v.holds());
        assert_eq!(v.measured, "more than one row for B1/Hive");
        let v = Claim::order(READS, "B9", &["Lazy"]).check(&rows);
        assert_eq!((v.holds(), v.measured.as_str()), (false, "no row for B9/Lazy"));
        let empty = Row {
            stats: WorkflowStats { succeeded: true, ..Default::default() },
            ..row("B7", "Lazy", true, 0, 0.0)
        };
        let v =
            Claim::less(LAST_CYCLE_SECONDS, ("B7", "Lazy"), ("B1", "Lazy"), 0.0).check(&[empty]);
        assert_eq!(v.measured, "B7/Lazy ran no MR cycle");
    }

    #[test]
    fn a_deviation_is_checked_like_any_claim() {
        let rows = rows();
        let note = "paper: Pig completes B1";
        let v = Claim::Fails(("B1", "Pig")).deviation(note).check(&rows);
        assert!(v.holds());
        assert_eq!(
            v.to_string(),
            format!("claim holds: B1/Pig fails [FAILED (X)] — deviation, {note}")
        );
        assert_eq!(v.markdown(), format!("| B1/Pig fails | FAILED (X) | {note} |"));
        let v = Claim::Completes(("B1", "Pig")).deviation(note).check(&rows);
        assert!(!v.holds());
        assert_eq!(v.words, "B1/Pig completes");
    }
}
