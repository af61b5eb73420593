//! The NTGA algebra of Section 3, stated once: the specification the
//! kernels are held to and the oracle their tests compare against, not a
//! production path. It works on decoded triplegroups and calls no kernel,
//! cursor, codec or odometer a kernel steps through (CI checks that): an
//! oracle that calls the code it checks checks nothing.
//!
//! * `γ` — [`group_by_subject`]: triples → subject triplegroups.
//! * `σ^βγ` — [`beta_group_filter`] over [`match_star`] (**Definition 1**);
//!   over a bound-only star it is `σ^γ`. Held to it: Job 1's `GroupReduce`,
//!   by `splice_differential.rs`'s `group_reduce_matches_typed_reference`.
//! * `μ^β` — [`beta_unnest`] (**Definition 2**), and [`beta_unnest_at`], `μ^β`
//!   at one join position. Held to them: eager `GroupReduce` (same test);
//!   `JoinMap` (`Exact`), `JoinReduce` and `BroadcastJoin`, by
//!   `reduce_side_join_matches_typed_reference` and
//!   `broadcast_join_matches_typed_reference`.
//! * `μ^β_φ` — [`partial_beta_unnest`] (**Definition 3**). Held to it:
//!   `JoinMap` (`Partial`), by `reduce_side_join_matches_typed_reference`.
//! * final `μ^β` — [`solutions`]. Held to it: `FinalUnnest`, by
//!   `extract_differential.rs`.
//!
//! [`crate::rewrite`] builds Lemma 1 from these and checks it against the
//! naive evaluator.

use crate::physical::JoinRole;
use crate::tg::AnnTg;
use rdf_model::atom::Atom;
use rdf_model::STriple;
use rdf_query::{PropPattern, StarPattern};
use std::collections::BTreeMap;

/// A plain subject triplegroup: all `(property, object)` pairs of one
/// subject (the result shape of `γ`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TripleGroup {
    /// The common subject token.
    pub subject: Atom,
    /// All `(property, object)` pairs, in input order.
    pub pairs: Vec<(Atom, Atom)>,
}

/// `γ`: group triples into subject triplegroups (deterministic subject
/// order). Tokens are shared with the input triples (`Atom` clones), not
/// re-allocated per group.
pub fn group_by_subject<'a>(triples: impl IntoIterator<Item = &'a STriple>) -> Vec<TripleGroup> {
    let mut map: BTreeMap<Atom, Vec<(Atom, Atom)>> = BTreeMap::new();
    for t in triples {
        map.entry(t.s.clone()).or_default().push((t.p.clone(), t.o.clone()));
    }
    map.into_iter().map(|(subject, pairs)| TripleGroup { subject, pairs }).collect()
}

/// Build the [`AnnTg`] for a triplegroup and star, or `None` if the group
/// violates the star's structural constraints.
///
/// For every bound pattern, the matching objects (after object filters);
/// for every unbound pattern, the candidate pairs (after its filter). All
/// lists must be non-empty.
pub fn match_star(tg: &TripleGroup, star: &StarPattern, ec: u64) -> Option<AnnTg> {
    if !star.subject_accepts(&tg.subject) {
        return None;
    }
    let (mut bound, mut unbound) = (Vec::new(), Vec::new());
    for pat in &star.patterns {
        let accepted = tg.pairs.iter().filter(|(_, o)| pat.object.accepts(o));
        match &pat.property {
            PropPattern::Bound(prop) => {
                let objs: Vec<Atom> =
                    accepted.filter(|(p, _)| p == prop).map(|(_, o)| o.clone()).collect();
                if objs.is_empty() {
                    return None;
                }
                bound.push((prop.clone(), objs));
            }
            PropPattern::Unbound(_) => {
                let cands: Vec<(Atom, Atom)> = accepted.cloned().collect();
                if cands.is_empty() {
                    return None;
                }
                unbound.push(cands);
            }
        }
    }
    Some(AnnTg { subject: tg.subject.clone(), ec, bound, unbound })
}

/// `σ^βγ` (Definition 1): β group-filter for unbound-property stars.
pub fn beta_group_filter(tgs: &[TripleGroup], star: &StarPattern, ec: u64) -> Vec<AnnTg> {
    tgs.iter().filter_map(|tg| match_star(tg, star, ec)).collect()
}

/// The join keys of the list `role` pins, in record order: its objects.
/// Empty under [`JoinRole::Subject`], and for a list `tg` does not have.
fn keys(tg: &AnnTg, role: JoinRole) -> Vec<&Atom> {
    match role {
        JoinRole::Subject => Vec::new(),
        JoinRole::BoundObj(b) => tg.bound.get(b).into_iter().flat_map(|(_, objs)| objs).collect(),
        JoinRole::UnboundObj(u) => tg.unbound.get(u).into_iter().flatten().map(|e| &e.1).collect(),
    }
}

/// `tg` with the list `role` pins cut down to its entries at `at`.
fn pinned(tg: &AnnTg, role: JoinRole, at: &[usize]) -> AnnTg {
    let mut out = tg.clone();
    match role {
        JoinRole::Subject => {}
        JoinRole::BoundObj(b) => {
            out.bound[b].1 = at.iter().map(|&i| tg.bound[b].1[i].clone()).collect()
        }
        JoinRole::UnboundObj(u) => {
            out.unbound[u] = at.iter().map(|&i| tg.unbound[u][i].clone()).collect()
        }
    }
    out
}

/// `μ^β` at one join position, each output under its join key: the
/// triplegroup itself under its subject; one copy per object, alone in its
/// bound list; one copy per candidate, alone in its unbound list, under its
/// object. A role `tg` has no list for yields nothing.
pub fn beta_unnest_at(tg: &AnnTg, role: JoinRole) -> Vec<(Atom, AnnTg)> {
    if role == JoinRole::Subject {
        return vec![(tg.subject.clone(), tg.clone())];
    }
    let keys = keys(tg, role).into_iter().enumerate();
    keys.map(|(i, o)| (o.clone(), pinned(tg, role, &[i]))).collect()
}

/// `μ^β` (Definition 2): one perfect triplegroup per combination of
/// unbound candidates, the bound component still nested — `n_1 × … × n_u`
/// of them, the redundancy eager unnesting materializes — the last list
/// varying fastest.
pub fn beta_unnest(tg: &AnnTg) -> Vec<AnnTg> {
    (0..tg.unbound.len()).fold(vec![tg.clone()], |tgs, u| {
        let each = tgs.iter().flat_map(|t| beta_unnest_at(t, JoinRole::UnboundObj(u)));
        each.map(|(_, pinned)| pinned).collect()
    })
}

/// `μ^β_φ` (Definition 3): partial β-unnest of join position `role` by a
/// partition function `phi` of the join key ([`crate::physical::phi`] for
/// the kernels). The entries of one partition stay nested in one copy, in
/// record order, and copies come in partition order; the subject is one
/// partition. So one copy comes out per partition, not one per entry.
pub fn partial_beta_unnest(
    tg: &AnnTg,
    role: JoinRole,
    phi: impl Fn(&str) -> u64,
) -> Vec<(u64, AnnTg)> {
    if role == JoinRole::Subject {
        return vec![(phi(&tg.subject), tg.clone())];
    }
    let mut parts: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, o) in keys(tg, role).into_iter().enumerate() {
        parts.entry(phi(o)).or_default().push(i);
    }
    parts.into_iter().map(|(k, at)| (k, pinned(tg, role, &at))).collect()
}

/// One solution of the final `μ^β`: each variable it binds, and to what.
pub type Solution = BTreeMap<String, Atom>;

/// Every partial solution extended by each choice of bindings it agrees
/// with, the choices varying fastest.
fn cross(partials: &[Solution], choices: &[Vec<(&str, &Atom)>]) -> Vec<Solution> {
    let mut next = Vec::new();
    for partial in partials {
        for choice in choices {
            let mut s = partial.clone();
            let mut bind = |&(var, value): &(&str, &Atom)| {
                *s.entry(var.to_string()).or_insert_with(|| value.clone()) == *value
            };
            if choice.iter().all(&mut bind) {
                next.push(s);
            }
        }
    }
    next
}

/// The final `μ^β`, unprojected: the solutions a joined tuple stands for,
/// component `i` matched by `stars[i]`. Each component binds its subject
/// variable and crosses its lists in pattern order, an entry binding its
/// pattern's property and object variables; a combination that binds one
/// variable to two tokens is none. Odometer order, repeats kept. `None` if
/// the tuple's shape is not the stars': another component or list count.
pub fn solutions(tuple: &[AnnTg], stars: &[&StarPattern]) -> Option<Vec<Solution>> {
    if tuple.len() != stars.len() {
        return None;
    }
    let mut partials = vec![Solution::new()];
    for (tg, star) in tuple.iter().zip(stars) {
        partials = cross(&partials, &[vec![(star.subject_var.as_str(), &tg.subject)]]);
        let (mut bound, mut unbound) = (tg.bound.iter(), tg.unbound.iter());
        for pat in &star.patterns {
            let obj = |o| pat.object.var().map(|v| (v, o));
            let choices: Vec<Vec<(&str, &Atom)>> = match &pat.property {
                PropPattern::Bound(_) => {
                    bound.next()?.1.iter().map(|o| obj(o).into_iter().collect()).collect()
                }
                PropPattern::Unbound(var) => unbound
                    .next()?
                    .iter()
                    .map(|(p, o)| std::iter::once((var.as_str(), p)).chain(obj(o)).collect())
                    .collect(),
            };
            partials = cross(&partials, &choices);
        }
        if bound.next().is_some() || unbound.next().is_some() {
            return None;
        }
    }
    Some(partials)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::atom::atom;
    use rdf_query::{ObjFilter, ObjPattern, TriplePattern};

    fn triples() -> Vec<STriple> {
        vec![
            STriple::new("<g1>", "<label>", "\"a\""),
            STriple::new("<g1>", "<xGO>", "<go1>"),
            STriple::new("<g1>", "<xGO>", "<go2>"),
            STriple::new("<g1>", "<syn>", "\"s\""),
            STriple::new("<g2>", "<label>", "\"b\""),
        ]
    }

    fn unbound_star() -> StarPattern {
        StarPattern::new(
            "g",
            vec![
                TriplePattern::bound("g", "<label>", ObjPattern::Var("l".into())),
                TriplePattern::bound("g", "<xGO>", ObjPattern::Var("go".into())),
                TriplePattern::unbound("g", "p", ObjPattern::Var("o".into())),
            ],
        )
    }

    #[test]
    fn gamma_groups_by_subject() {
        let ts = triples();
        let tgs = group_by_subject(&ts);
        assert_eq!(tgs.len(), 2);
        assert_eq!(&*tgs[0].subject, "<g1>");
        assert_eq!(tgs[0].pairs.len(), 4);
        assert_eq!(tgs[1].pairs.len(), 1);
    }

    #[test]
    fn beta_group_filter_keeps_valid_groups_with_all_pairs() {
        let ts = triples();
        let tgs = group_by_subject(&ts);
        let anns = beta_group_filter(&tgs, &unbound_star(), 0);
        // g2 lacks xGO -> filtered out (Figure 5a).
        assert_eq!(anns.len(), 1);
        let a = &anns[0];
        assert_eq!(a.bound.len(), 2);
        assert_eq!(a.bound[1].1.len(), 2); // two xGO objects nested
        assert_eq!(a.unbound[0].len(), 4); // ALL pairs are candidates
    }

    #[test]
    fn group_filter_projects_bound_only() {
        // σ^γ is σ^βγ over a bound-only star.
        let ts = triples();
        let star = StarPattern::new(
            "g",
            vec![
                TriplePattern::bound("g", "<label>", ObjPattern::Var("l".into())),
                TriplePattern::bound("g", "<xGO>", ObjPattern::Var("go".into())),
            ],
        );
        let anns = beta_group_filter(&group_by_subject(&ts), &star, 3);
        assert_eq!(anns.len(), 1);
        assert_eq!(anns[0].ec, 3);
        assert!(anns[0].unbound.is_empty());
        // Projection: syn pairs are not kept for a bound-only star.
        assert_eq!(anns[0].bound.iter().map(|(_, objs)| objs.len()).sum::<usize>(), 3);
    }

    #[test]
    fn beta_unnest_produces_candidate_count_perfect_tgs() {
        let tgs = group_by_subject(&triples());
        let anns = beta_group_filter(&tgs, &unbound_star(), 0);
        let perfect = beta_unnest(&anns[0]);
        // Figure 5(b): one perfect TG per unbound candidate.
        assert_eq!(perfect.len(), 4);
        for p in &perfect {
            assert_eq!(p.unbound[0].len(), 1);
            assert_eq!(p.bound, anns[0].bound); // bound stays nested
        }
    }

    #[test]
    fn beta_unnest_of_bound_only_is_identity() {
        let tg = AnnTg {
            subject: "<s>".into(),
            ec: 0,
            bound: vec![("<p>".into(), vec!["<o>".into()])],
            unbound: vec![],
        };
        assert_eq!(beta_unnest(&tg), vec![tg.clone()]);
    }

    #[test]
    fn beta_unnest_crosses_multiple_unbound_patterns() {
        let star = StarPattern::new(
            "g",
            vec![
                TriplePattern::bound("g", "<label>", ObjPattern::Var("l".into())),
                TriplePattern::unbound("g", "p1", ObjPattern::Var("o1".into())),
                TriplePattern::unbound("g", "p2", ObjPattern::Var("o2".into())),
            ],
        );
        let anns = beta_group_filter(&group_by_subject(&triples()), &star, 0);
        let perfect = beta_unnest(&anns[0]);
        // 4 candidates × 4 candidates.
        assert_eq!(perfect.len(), 16);
    }

    #[test]
    fn beta_unnest_is_last_list_fastest() {
        let list = |p: &str| vec![(atom(p), atom("<0>")), (atom(p), atom("<1>"))];
        let unbound = vec![list("<a>"), list("<b>")];
        let tg = AnnTg { subject: atom("<s>"), ec: 0, bound: vec![], unbound };
        let pick = |t: &AnnTg| format!("{}{}", t.unbound[0][0].1, t.unbound[1][0].1);
        let picks: Vec<String> = beta_unnest(&tg).iter().map(pick).collect();
        assert_eq!(picks, ["<0><0>", "<0><1>", "<1><0>", "<1><1>"]);
    }

    #[test]
    fn partial_unnest_bounds_outputs_by_m() {
        let anns = beta_group_filter(&group_by_subject(&triples()), &unbound_star(), 0);
        let m = 2u64;
        let parts = partial_beta_unnest(&anns[0], JoinRole::UnboundObj(0), |o| {
            // simple deterministic φ
            (o.len() as u64) % m
        });
        assert!(parts.len() as u64 <= m);
        // Union of partitions == original candidate set.
        let total: usize = parts.iter().map(|(_, tg)| tg.unbound[0].len()).sum();
        assert_eq!(total, anns[0].unbound[0].len());
    }

    #[test]
    fn partial_then_full_unnest_equals_full_unnest() {
        let anns = beta_group_filter(&group_by_subject(&triples()), &unbound_star(), 0);
        let full: std::collections::BTreeSet<AnnTg> = beta_unnest(&anns[0]).into_iter().collect();
        for m in [1u64, 2, 3, 7] {
            let mut via_partial = std::collections::BTreeSet::new();
            let phi = |o: &str| (o.bytes().map(u64::from).sum::<u64>()) % m;
            for (_, part) in partial_beta_unnest(&anns[0], JoinRole::UnboundObj(0), phi) {
                via_partial.extend(beta_unnest(&part));
            }
            assert_eq!(via_partial, full, "m={m}");
        }
    }

    #[test]
    fn solutions_refuse_a_shape_not_the_stars() {
        let star = unbound_star();
        let ann = beta_group_filter(&group_by_subject(&triples()), &star, 0).remove(0);
        // One label × two xGO objects × four candidates.
        assert_eq!(solutions(std::slice::from_ref(&ann), &[&star]).map(|s| s.len()), Some(8));
        assert_eq!(solutions(&[ann.clone(), ann.clone()], &[&star]), None);
        assert_eq!(solutions(&[], &[&star]), None);
        let mut short = ann.clone();
        short.bound.pop();
        assert_eq!(solutions(&[short], &[&star]), None);
        let mut long = ann;
        long.unbound.push(Vec::new());
        assert_eq!(solutions(&[long], &[&star]), None);
    }

    #[test]
    fn object_filter_restricts_unbound_candidates() {
        let star = StarPattern::new(
            "g",
            vec![
                TriplePattern::bound("g", "<label>", ObjPattern::Var("l".into())),
                TriplePattern::unbound(
                    "g",
                    "p",
                    ObjPattern::Filtered("o".into(), ObjFilter::Prefix("<go".into())),
                ),
            ],
        );
        let anns = beta_group_filter(&group_by_subject(&triples()), &star, 0);
        assert_eq!(anns[0].unbound[0].len(), 2); // only go1, go2
    }
}
