//! Query solutions: one canonical table of variable bindings.
//!
//! Every evaluation strategy in the workspace (naive reference, Pig-like,
//! Hive-like, NTGA eager/lazy) reduces its final output to a
//! [`SolutionSet`] so results can be compared for exact equality — the
//! workspace's headline correctness invariant.
//!
//! A query's solutions all bind the same variables ([`Query::solution_vars`]
//! — the projection, or every variable, sorted and deduplicated), so a set
//! is a table: one shared header, `arity` cells per row, rows sorted and
//! distinct. Producers push rows into a [`SolutionRows`] in any order and
//! [`finish`](SolutionRows::finish) sorts and deduplicates once.
//!
//! [`Query::solution_vars`]: crate::Query::solution_vars

use rdf_model::Atom;
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// Solutions being collected: rows over a fixed header, in arrival order,
/// duplicates and all.
#[derive(Debug)]
pub struct SolutionRows {
    vars: Vec<String>,
    cells: Vec<Atom>,
    rows: usize,
}

impl SolutionRows {
    /// No rows yet over `vars`, which become the header: sorted, each once.
    pub fn new(mut vars: Vec<String>) -> Self {
        vars.sort_unstable();
        vars.dedup();
        SolutionRows { vars, cells: Vec::new(), rows: 0 }
    }

    /// The header: variable names in the order a row's values follow.
    pub fn vars(&self) -> &[String] {
        &self.vars
    }

    /// Rows pushed so far (a bag count: repeats included).
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True if no row has been pushed.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Append one row: a value per header variable, in header order.
    ///
    /// # Panics
    /// Panics if `row` does not yield exactly one value per variable.
    pub fn push(&mut self, row: impl IntoIterator<Item = Atom>) {
        self.cells.extend(row);
        self.rows += 1;
        assert_eq!(self.cells.len(), self.rows * self.vars.len(), "row width is not the header's");
    }

    /// Sort the rows and drop repeats: the canonical set.
    pub fn finish(self) -> SolutionSet {
        let arity = self.vars.len();
        let row = |i: &usize| &self.cells[i * arity..(i + 1) * arity];
        // Cell by cell; two clones of one atom are equal unread.
        let cmp = |a: &usize, b: &usize| {
            let cells = row(a).iter().zip(row(b));
            let mut unequal = cells.filter(|(x, y)| !Arc::ptr_eq(x, y)).map(|(x, y)| x.cmp(y));
            unequal.find(|o| o.is_ne()).unwrap_or(Ordering::Equal)
        };
        let mut order: Vec<usize> = (0..self.rows).collect();
        order.sort_unstable_by(cmp);
        order.dedup_by(|a, b| cmp(a, b).is_eq());
        // Move each kept row to its place; the repeats drop with the rest.
        let mut cells: Vec<Option<Atom>> = self.cells.into_iter().map(Some).collect();
        let kept = order.iter().flat_map(|i| i * arity..(i + 1) * arity);
        let cells = kept.map(|at| cells[at].take().expect("a row is kept once")).collect();
        SolutionSet { vars: self.vars, cells, rows: order.len() }
    }
}

/// A canonical set of solutions (set semantics; duplicates collapse): rows
/// in lexicographic order of their values, variables in name order. Two
/// sets are equal when their headers and their rows are.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolutionSet {
    vars: Vec<String>,
    cells: Vec<Atom>,
    rows: usize,
}

impl SolutionSet {
    /// The header: the variables every solution binds, sorted.
    pub fn vars(&self) -> &[String] {
        &self.vars
    }

    /// Number of distinct solutions.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True if there are no solutions.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Iterate in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = Binding<'_>> {
        let arity = self.vars.len();
        (0..self.rows).map(move |i| Binding {
            vars: &self.vars,
            values: &self.cells[i * arity..(i + 1) * arity],
        })
    }
}

/// One solution: a row of a [`SolutionSet`] read in place, mapping each
/// header variable to the token bound to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Binding<'a> {
    vars: &'a [String],
    values: &'a [Atom],
}

impl<'a> Binding<'a> {
    /// Value bound to `var`, if the header has it.
    pub fn get(&self, var: &str) -> Option<&'a Atom> {
        let at = self.vars.binary_search_by(|v| v.as_str().cmp(var)).ok()?;
        Some(&self.values[at])
    }

    /// Iterate over `(var, value)` pairs in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (&'a String, &'a Atom)> {
        self.vars.iter().zip(self.values)
    }
}

impl fmt::Display for Binding<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "?{k}={v}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::atom::atom;

    fn rows(vars: &[&str], rows: &[&[&str]]) -> SolutionSet {
        let mut out = SolutionRows::new(vars.iter().map(|v| v.to_string()).collect());
        for row in rows {
            out.push(row.iter().map(|t| atom(t)));
        }
        out.finish()
    }

    #[test]
    fn insertion_order_and_repeats_do_not_show() {
        let a = rows(&["x", "y"], &[&["<b>", "<1>"], &["<a>", "<2>"], &["<a>", "<1>"]]);
        let b = rows(
            &["x", "y"],
            &[&["<a>", "<1>"], &["<b>", "<1>"], &["<a>", "<2>"], &["<b>", "<1>"], &["<a>", "<1>"]],
        );
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        let shown = |s: &SolutionSet| s.iter().map(|b| b.to_string()).collect::<Vec<_>>();
        assert_eq!(shown(&a), shown(&b));
        assert_eq!(shown(&a), ["{?x=<a>, ?y=<1>}", "{?x=<a>, ?y=<2>}", "{?x=<b>, ?y=<1>}"]);
    }

    #[test]
    fn header_is_sorted_and_deduplicated() {
        let out = SolutionRows::new(vec!["y".into(), "x".into(), "y".into()]);
        assert_eq!(out.vars(), ["x", "y"]);
        assert!(out.is_empty());
        assert!(out.finish().is_empty());
    }

    #[test]
    fn sets_over_different_headers_differ() {
        assert_ne!(rows(&["x"], &[&["<a>"]]), rows(&["y"], &[&["<a>"]]));
        assert_ne!(rows(&["x"], &[&["<a>"]]), rows(&["x"], &[&["<b>"]]));
    }

    #[test]
    fn binding_reads_its_row() {
        let set = rows(&["x", "y"], &[&["<a>", "<b>"]]);
        let b = set.iter().next().unwrap();
        assert_eq!(b.get("y").unwrap().as_ref(), "<b>");
        assert_eq!(b.get("z"), None);
        assert_eq!(b.iter().count(), 2);
        assert_eq!(b.to_string(), "{?x=<a>, ?y=<b>}");
    }

    #[test]
    fn a_header_without_variables_holds_at_most_one_solution() {
        let mut out = SolutionRows::new(Vec::new());
        out.push([]);
        out.push([]);
        assert_eq!(out.len(), 2);
        let set = out.finish();
        assert_eq!(set.len(), 1);
        assert_eq!(set.iter().next().unwrap().to_string(), "{}");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn a_row_of_the_wrong_width_is_refused() {
        SolutionRows::new(vec!["x".into(), "y".into()]).push([atom("<a>")]);
    }
}
