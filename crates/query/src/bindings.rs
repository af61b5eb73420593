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
//! distinct. The table is dictionary-coded: a producer interns each value
//! once ([`SolutionRows::intern`]) and pushes rows of ids in any order, and
//! [`finish`](SolutionRows::finish) sorts the values in use once, turns each
//! cell into its value's rank and orders and deduplicates the rank tuples.
//!
//! [`Query::solution_vars`]: crate::Query::solution_vars

use rdf_model::{Atom, TokenBuildHasher};
use std::collections::HashMap;
use std::fmt;

/// Solutions being collected: rows of value ids over a fixed header, in
/// arrival order, duplicates and all.
#[derive(Debug)]
pub struct SolutionRows {
    vars: Vec<String>,
    /// Every value interned so far, by id.
    values: Vec<Atom>,
    ids: HashMap<Atom, u32, TokenBuildHasher>,
    /// `arity` ids per row.
    cells: Vec<u32>,
    rows: usize,
}

impl SolutionRows {
    /// No rows yet over `vars`, which become the header: sorted, each once.
    pub fn new(mut vars: Vec<String>) -> Self {
        vars.sort_unstable();
        vars.dedup();
        SolutionRows {
            vars,
            values: Vec::new(),
            ids: HashMap::default(),
            cells: Vec::new(),
            rows: 0,
        }
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

    /// The id of `token` in this table: equal tokens share one id, and a
    /// token is copied into an [`Atom`] only the first time it is seen.
    /// Interning a value no row uses is harmless: `finish` drops it.
    pub fn intern(&mut self, token: &str) -> u32 {
        if let Some(&id) = self.ids.get(token) {
            return id;
        }
        let id = u32::try_from(self.values.len()).expect("fewer than 2^32 distinct values");
        let value = Atom::from(token);
        self.ids.insert(value.clone(), id);
        self.values.push(value);
        id
    }

    /// The value interned as `id`.
    pub fn value(&self, id: u32) -> &str {
        &self.values[id as usize]
    }

    /// Append one row: an id ([`intern`](Self::intern)) per header
    /// variable, in header order.
    ///
    /// # Panics
    /// Panics if `row` does not yield exactly one id per variable.
    pub fn push(&mut self, row: impl IntoIterator<Item = u32>) {
        self.cells.extend(row);
        self.rows += 1;
        assert_eq!(self.cells.len(), self.rows * self.vars.len(), "row width is not the header's");
    }

    /// Sort the rows and drop repeats: the canonical set.
    pub fn finish(self) -> SolutionSet {
        let SolutionRows { vars, values, ids, mut cells, rows } = self;
        drop(ids);
        let arity = vars.len();
        // The dictionary keeps only the values some row uses, or two equal
        // sets would differ by what their producers interned on the way.
        let mut used = vec![false; values.len()];
        for &id in &cells {
            used[id as usize] = true;
        }
        let mut sorted: Vec<u32> =
            (0..values.len() as u32).filter(|&id| used[id as usize]).collect();
        sorted.sort_unstable_by(|&a, &b| values[a as usize].cmp(&values[b as usize]));
        let mut rank = vec![0u32; values.len()];
        for (r, &id) in sorted.iter().enumerate() {
            rank[id as usize] = r as u32;
        }
        for cell in &mut cells {
            *cell = rank[*cell as usize];
        }
        // Rows in rank-tuple order: a stable counting sort per column, last
        // column first, so the first column decides.
        let mut order: Vec<usize> = (0..rows).collect();
        let mut next = vec![0; rows];
        let mut starts = vec![0usize; sorted.len() + 1];
        for col in (0..arity).rev() {
            starts.fill(0);
            for &r in cells.iter().skip(col).step_by(arity) {
                starts[r as usize + 1] += 1;
            }
            for i in 1..starts.len() {
                starts[i] += starts[i - 1];
            }
            for &row in &order {
                let at = &mut starts[cells[row * arity + col] as usize];
                next[*at] = row;
                *at += 1;
            }
            std::mem::swap(&mut order, &mut next);
        }
        // Repeats are now neighbours.
        let mut kept: Vec<u32> = Vec::with_capacity(cells.len());
        let mut distinct = 0;
        for row in order {
            let row = &cells[row * arity..(row + 1) * arity];
            if distinct == 0 || kept[kept.len() - arity..] != *row {
                kept.extend_from_slice(row);
                distinct += 1;
            }
        }
        let values = sorted.iter().map(|&id| values[id as usize].clone()).collect();
        SolutionSet { vars, values, cells: kept, rows: distinct }
    }
}

/// A canonical set of solutions (set semantics; duplicates collapse): rows
/// in lexicographic order of their values, variables in name order. The
/// form is canonical — the dictionary is exactly the values the rows use,
/// sorted, and a cell is its value's rank — so two sets are equal when
/// their headers and their rows are.
#[derive(Clone, PartialEq, Eq)]
pub struct SolutionSet {
    vars: Vec<String>,
    /// The values some row binds, sorted, each once.
    values: Vec<Atom>,
    /// `arity` ranks into `values` per row.
    cells: Vec<u32>,
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
            values: &self.values,
            cells: &self.cells[i * arity..(i + 1) * arity],
        })
    }
}

/// The header and each row in its [`Display`](Binding) form, so a failed
/// `assert_eq!` shows solutions, not ranks.
impl fmt::Debug for SolutionSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows: Vec<Binding<'_>> = self.iter().collect();
        f.debug_struct("SolutionSet").field("vars", &self.vars).field("rows", &rows).finish()
    }
}

/// One solution: a row of a [`SolutionSet`] read in place, mapping each
/// header variable to the token bound to it.
#[derive(Clone, Copy)]
pub struct Binding<'a> {
    vars: &'a [String],
    /// The set's dictionary.
    values: &'a [Atom],
    cells: &'a [u32],
}

impl<'a> Binding<'a> {
    /// Value bound to `var`, if the header has it.
    pub fn get(&self, var: &str) -> Option<&'a Atom> {
        let at = self.vars.binary_search_by(|v| v.as_str().cmp(var)).ok()?;
        Some(&self.values[self.cells[at] as usize])
    }

    /// Iterate over `(var, value)` pairs in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (&'a String, &'a Atom)> {
        let values = self.values;
        self.vars.iter().zip(self.cells.iter().map(move |&cell| &values[cell as usize]))
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

impl fmt::Debug for Binding<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(vars: &[&str], rows: &[&[&str]]) -> SolutionSet {
        let mut out = SolutionRows::new(vars.iter().map(|v| v.to_string()).collect());
        for row in rows {
            let ids: Vec<u32> = row.iter().map(|t| out.intern(t)).collect();
            out.push(ids);
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
        let mut out = SolutionRows::new(vec!["x".into(), "y".into()]);
        let a = out.intern("<a>");
        out.push([a]);
    }

    #[test]
    fn equal_tokens_share_an_id() {
        let mut out = SolutionRows::new(vec!["x".into()]);
        let (a, b) = (out.intern("<a>"), out.intern("<b>"));
        assert_ne!(a, b);
        assert_eq!(out.intern("<a>"), a);
        assert_eq!((out.value(a), out.value(b)), ("<a>", "<b>"));
    }

    #[test]
    fn debug_shows_the_header_and_each_row() {
        let set = rows(&["x", "y"], &[&["<b>", "<1>"], &["<a>", "<2>"]]);
        assert_eq!(
            format!("{set:?}"),
            r#"SolutionSet { vars: ["x", "y"], rows: [{?x=<a>, ?y=<2>}, {?x=<b>, ?y=<1>}] }"#
        );
    }

    mod reference {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::{prop_assert_eq, proptest};

        /// Tokens whose text order is not the order they are first seen in.
        const USED: [&str; 6] = ["<b>", "\"a\"", "<a>", "<ab>", "_:x", "<>"];

        proptest! {
            /// `finish` against sorting and deduplicating the rows as
            /// strings, over shuffled rows with repeats, values interned
            /// but used by no row, and headers of zero to three variables.
            #[test]
            fn finish_is_sort_and_dedup_of_the_rows(
                arity in 0usize..4,
                picks in vec(vec(0..USED.len(), 3), 0..40),
                unused in vec(0u8..8, 0..6),
            ) {
                let vars: Vec<String> = ["x", "y", "z"][..arity].iter().map(|v| v.to_string()).collect();
                let table: Vec<Vec<&str>> =
                    picks.iter().map(|r| r[..arity].iter().map(|&v| USED[v]).collect()).collect();
                let mut want = table.clone();
                want.sort();
                want.dedup();

                // Unused values interned before, between and after the rows.
                let mut out = SolutionRows::new(vars.clone());
                let unused: Vec<String> = unused.iter().map(|u| format!("<unused{u}>")).collect();
                let (before, after) = unused.split_at(unused.len() / 2);
                for token in before {
                    out.intern(token);
                }
                for row in &table {
                    let ids: Vec<u32> = row.iter().map(|t| out.intern(t)).collect();
                    out.intern(&unused.concat());
                    out.push(ids);
                }
                for token in after {
                    out.intern(token);
                }
                prop_assert_eq!(out.len(), table.len());
                let set = out.finish();
                let got: Vec<Vec<&str>> =
                    set.iter().map(|b| b.iter().map(|(_, v)| &**v).collect()).collect();
                prop_assert_eq!(&got, &want);

                // The same rows reversed, nothing else interned: the same set.
                let mut plain = SolutionRows::new(vars);
                for row in table.iter().rev() {
                    let ids: Vec<u32> = row.iter().map(|t| plain.intern(t)).collect();
                    plain.push(ids);
                }
                prop_assert_eq!(plain.finish(), set);
            }
        }
    }
}
