//! The final β-unnest: an encoded triplegroup tuple to the solution rows it
//! stands for.
//!
//! The paper's argument is that μ^β should run as late as possible; this is
//! the latest it can: after the last MR cycle, over the workflow's final
//! relation, straight into the [`SolutionRows`] table — projected before
//! anything is expanded. [`crate::planner::execute_plan`] reads the final
//! relation through [`FinalUnnest::add_rows`]; [`crate::rewrite`] evaluates
//! the logical algebra through it too, so there is one cross product in the
//! crate.

use crate::tg::{ListRef, PairRef, TgCursor};
use mr_rdf::{binder_slots, next_combination, PlanError};
use rdf_query::{PropPattern, Query, SolutionRows};

/// One wheel of the odometer: a component's subject (one entry) or a list
/// some slot reads. Entry `i`'s ids lie from `first + i × (slots read)`,
/// property before object.
struct Dim {
    p: Option<usize>,
    o: Option<usize>,
    len: usize,
    first: usize,
}

/// The kernel: one encoded [`crate::TgTuple`] to its solution rows. A
/// [`TgCursor`] walk checks the whole record, each token a slot reads is
/// interned into the table once, and an odometer writes one row of ids per
/// combination whose repeated variables agree — nothing but the rows and
/// the table's dictionary outlives the record. A list no slot reads must
/// be non-empty and is otherwise skipped.
pub struct FinalUnnest {
    /// Header width: slots below it are a row's cells.
    arity: usize,
    slots: usize,
    /// Per component, its number of bound lists and of lists.
    comps: Vec<(usize, usize)>,
    /// The slot ([`binder_slots`]) of each binding position in record order:
    /// per component its subject, then property and object of each list,
    /// bound lists first.
    binders: Vec<Option<usize>>,
    scratch: Scratch,
}

/// Buffers reused from record to record.
#[derive(Default)]
struct Scratch {
    lists: Vec<ListRef>,
    /// The id of each token a slot reads, in [`Dim`] order.
    ids: Vec<u32>,
    dims: Vec<Dim>,
    cursor: Vec<usize>,
    /// Per slot, the id bound so far in this combination.
    row: Vec<Option<u32>>,
}

impl FinalUnnest {
    /// The kernel for tuples whose component `i` matches star
    /// `components[i]` of `query`, writing rows over the header `vars`
    /// (sorted).
    pub fn new(query: &Query, components: &[usize], vars: &[String]) -> Result<Self, PlanError> {
        let (mut comps, mut positions) = (Vec::new(), Vec::new());
        for &star in components {
            let star = query
                .stars
                .get(star)
                .ok_or_else(|| PlanError::Internal("tuple component without a star".into()))?;
            let (bound, unbound) = (star.bound_patterns(), star.unbound_patterns());
            comps.push((bound.len(), bound.len() + unbound.len()));
            positions.push(Some(star.subject_var.as_str()));
            for pat in bound.iter().chain(&unbound) {
                positions.push(match &pat.property {
                    PropPattern::Unbound(p) => Some(p.as_str()),
                    PropPattern::Bound(_) => None,
                });
                positions.push(pat.object.var());
            }
        }
        let (binders, slots) = binder_slots(&positions, vars)?;
        Ok(FinalUnnest { arity: vars.len(), slots, comps, binders, scratch: Scratch::default() })
    }

    /// Append the rows of one encoded tuple to `out`. Malformed bytes give
    /// the decoder's message; a component count or list shape that is not
    /// the plan's is "tuple arity mismatch" / "triplegroup/star shape
    /// mismatch", said once the whole record has been read.
    pub fn add_rows(&mut self, rec: &[u8], out: &mut SolutionRows) -> Result<(), PlanError> {
        let FinalUnnest { arity, slots, comps, binders, scratch } = self;
        let Scratch { lists, ids, dims, cursor, row } = scratch;
        ids.clear();
        dims.clear();
        let mut binders = binders.iter().copied();
        let (mut shaped, mut empty) = (true, false);
        let mut wheel = |p: Option<usize>, o: Option<usize>, entries: &[PairRef<'_>]| {
            empty |= entries.is_empty();
            if p.or(o).is_some() {
                dims.push(Dim { p, o, len: entries.len(), first: ids.len() });
                for e in entries {
                    ids.extend(p.map(|_| out.intern(e.p)));
                    ids.extend(o.map(|_| out.intern(e.o)));
                }
            }
        };
        let mut pairs = Vec::new();
        let mut cur = TgCursor::new(rec);
        let n = cur.count().map_err(PlanError::final_output)? as usize;
        for c in 0..n {
            lists.clear();
            pairs.clear();
            let comp = cur.component(lists, &mut pairs).map_err(PlanError::final_output)?;
            shaped &= comps.get(c).is_none_or(|&plan| plan == (comp.bound, lists.len()));
            if c < comps.len() && shaped {
                let mut slot = || binders.next().flatten();
                wheel(None, slot(), &[PairRef { p: "", o: comp.subject, entry: &[] }]);
                for list in lists.iter() {
                    wheel(slot(), slot(), &pairs[list.pairs.clone()]);
                }
            }
        }
        cur.finish().map_err(PlanError::final_output)?;
        if n != comps.len() {
            return Err(PlanError::Internal("tuple arity mismatch".into()));
        }
        if !shaped {
            return Err(PlanError::Internal("triplegroup/star shape mismatch".into()));
        }
        if empty {
            return Ok(());
        }
        cursor.clear();
        cursor.resize(dims.len(), 0);
        loop {
            // One combination: the first binder of a slot sets it, every
            // later one must agree with it.
            row.clear();
            row.resize(*slots, None);
            let mut agree = true;
            for (dim, &at) in dims.iter().zip(cursor.iter()) {
                let read = [dim.p, dim.o].into_iter().flatten();
                for (id, slot) in ids[dim.first + at * read.clone().count()..].iter().zip(read) {
                    match row[slot] {
                        None => row[slot] = Some(*id),
                        Some(first) => agree &= first == *id,
                    }
                }
            }
            if agree {
                out.push(row[..*arity].iter().map(|id| id.expect("a header slot bound")));
            }
            if !next_combination(cursor, |pos| dims[pos].len) {
                return Ok(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tg::{AnnTg, TgTuple};
    use mrsim::Rec;
    use rdf_query::{ObjPattern, StarPattern, TriplePattern};

    fn star() -> StarPattern {
        StarPattern::new(
            "g",
            vec![
                TriplePattern::bound("g", "<label>", ObjPattern::Var("l".into())),
                TriplePattern::bound("g", "<xGO>", ObjPattern::Var("go".into())),
                TriplePattern::unbound("g", "p", ObjPattern::Var("o".into())),
            ],
        )
    }

    fn anntg() -> AnnTg {
        AnnTg {
            subject: "<g1>".into(),
            ec: 0,
            bound: vec![
                ("<label>".into(), vec!["\"a\"".into()]),
                ("<xGO>".into(), vec!["<go1>".into(), "<go2>".into()]),
            ],
            unbound: vec![vec![
                ("<label>".into(), "\"a\"".into()),
                ("<xGO>".into(), "<go1>".into()),
                ("<xGO>".into(), "<go2>".into()),
                ("<syn>".into(), "\"s\"".into()),
            ]],
        }
    }

    /// `tg`, a one-component tuple of [`star`], through the kernel.
    fn unnest(tg: AnnTg, projection: Option<&[&str]>) -> Result<SolutionRows, PlanError> {
        let mut query = Query::new(vec![star()]);
        query.projection = projection.map(|vars| vars.iter().map(|v| v.to_string()).collect());
        let vars = query.solution_vars();
        let mut rows = SolutionRows::new(vars.clone());
        FinalUnnest::new(&query, &[0], &vars)?
            .add_rows(&TgTuple(vec![tg]).to_bytes(), &mut rows)?;
        Ok(rows)
    }

    #[test]
    fn nested_text_is_smaller_than_flat() {
        // The whole point: 8 flat combinations vs one nested TG.
        let tg = anntg();
        let nested = tg.text_size();
        let rows = unnest(tg, None).unwrap();
        assert_eq!(rows.len(), 8);
        let flat_bytes: u64 = rows
            .finish()
            .iter()
            .map(|b| b.iter().map(|(_, v)| v.len() as u64 + 1).sum::<u64>())
            .sum();
        assert!(nested < flat_bytes);
    }

    #[test]
    fn unnest_binds_all_vars() {
        let solutions = unnest(anntg(), None).unwrap().finish();
        assert_eq!(solutions.vars(), ["g", "go", "l", "o", "p"]);
        let first = solutions.iter().next().unwrap().to_string();
        assert_eq!(first, "{?g=<g1>, ?go=<go1>, ?l=\"a\", ?o=\"a\", ?p=<label>}");
    }

    #[test]
    fn unnest_projects_before_it_expands() {
        // The unbound list has no projected variable: it must be non-empty
        // and is no dimension. The two xGO objects are.
        let rows = unnest(anntg(), Some(&["go", "g", "go"])).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows.vars(), ["g", "go"]);
        assert_eq!(unnest(anntg(), Some(&["g"])).unwrap().len(), 1);
        assert_eq!(unnest(anntg(), Some(&[])).unwrap().len(), 1);
    }

    #[test]
    fn unnest_checks_a_repeated_variable_projected_or_not() {
        // ?g <label> ?l ; ?g <xGO> ?go ; ?g ?p ?go — only the two xGO
        // candidates agree with a bound xGO object.
        let mut star = star();
        star.patterns[2] = TriplePattern::unbound("g", "p", ObjPattern::Var("go".into()));
        let query = Query::new(vec![star]);
        let rec = TgTuple(vec![anntg()]).to_bytes();
        for (vars, want) in
            [(&["go", "p"][..], 2), (&["p"], 2), (&["l"], 2), (&["g", "go", "l", "p"], 2)]
        {
            let vars: Vec<String> = vars.iter().map(|v| v.to_string()).collect();
            let mut rows = SolutionRows::new(vars.clone());
            FinalUnnest::new(&query, &[0], &vars).unwrap().add_rows(&rec, &mut rows).unwrap();
            assert_eq!(rows.len(), want, "{vars:?}");
            for b in rows.finish().iter() {
                assert!(b.get("p").is_none_or(|p| &**p == "<xGO>"), "{b}");
            }
        }
    }

    #[test]
    fn unnest_rejects_shape_and_arity_mismatch() {
        let mut tg = anntg();
        tg.unbound.clear();
        let err = unnest(tg, None).unwrap_err();
        assert_eq!(err, PlanError::Internal("triplegroup/star shape mismatch".into()));
        let query = Query::new(vec![star()]);
        let vars = query.solution_vars();
        let mut unnest = FinalUnnest::new(&query, &[0], &vars).unwrap();
        let mut rows = SolutionRows::new(vars);
        for tuple in [TgTuple(vec![]), TgTuple(vec![anntg(), anntg()])] {
            let err = unnest.add_rows(&tuple.to_bytes(), &mut rows).unwrap_err();
            assert_eq!(err, PlanError::Internal("tuple arity mismatch".into()));
        }
        // A header the tuple cannot fill, or a star the query lacks.
        assert!(FinalUnnest::new(&query, &[0], &["zz".to_string()]).is_err());
        assert!(FinalUnnest::new(&query, &[1], &[]).is_err());
    }

    #[test]
    fn unnest_of_an_empty_list_is_no_solutions() {
        let mut tg = anntg();
        tg.unbound[0].clear();
        // Projected or not, an empty list is an empty product.
        assert_eq!(unnest(tg.clone(), None).unwrap().len(), 0);
        assert_eq!(unnest(tg, Some(&["g"])).unwrap().len(), 0);
    }
}
