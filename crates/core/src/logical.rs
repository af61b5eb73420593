//! Logical NTGA operators — the algebra of Section 3.
//!
//! These run in memory over a triple collection and exist for two reasons:
//! they are the formal definitions the physical MapReduce operators are
//! tested against (Lemma 1), and they make the rewrite rules executable:
//!
//! * `γ`  — [`group_by_subject`]: triples → subject triplegroups;
//! * `σ^γ` — [`group_filter`]: structural validation against a
//!   bound-property star (projects to the relevant properties);
//! * `σ^βγ` — [`beta_group_filter`] (**Definition 1**): relaxed filter for
//!   unbound-property stars — keeps triplegroups containing all *bound*
//!   properties, with all candidate pairs for the unbound patterns kept
//!   implicit;
//! * `μ^β` — [`beta_unnest`] (**Definition 2**): expand an annotated
//!   triplegroup into *perfect* triplegroups, one per combination of
//!   unbound candidates (the bound component stays nested);
//! * `μ^β_φ` — [`partial_beta_unnest`] (**Definition 3**): expand only to
//!   the granularity of a partition function `φ_m` over the join key, so
//!   candidates landing in the same reducer partition stay nested.

use crate::tg::AnnTg;
use mr_rdf::next_combination;
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
/// This is the shared core of `σ^γ` and `σ^βγ`: for every bound pattern,
/// the matching objects (after object filters); for every unbound pattern,
/// the candidate pairs (after its filter). All lists must be non-empty.
pub fn match_star(tg: &TripleGroup, star: &StarPattern, ec: u64) -> Option<AnnTg> {
    if !star.subject_accepts(&tg.subject) {
        return None;
    }
    let mut bound = Vec::new();
    for pat in star.bound_patterns() {
        let prop = match &pat.property {
            PropPattern::Bound(p) => p.clone(),
            PropPattern::Unbound(_) => unreachable!("bound_patterns returned unbound"),
        };
        let objs: Vec<Atom> = tg
            .pairs
            .iter()
            .filter(|(p, o)| *p == prop && pat.object.accepts(o))
            .map(|(_, o)| o.clone())
            .collect();
        if objs.is_empty() {
            return None;
        }
        bound.push((prop, objs));
    }
    let mut unbound = Vec::new();
    for pat in star.unbound_patterns() {
        let cands: Vec<(Atom, Atom)> =
            tg.pairs.iter().filter(|(_, o)| pat.object.accepts(o)).cloned().collect();
        if cands.is_empty() {
            return None;
        }
        unbound.push(cands);
    }
    Some(AnnTg { subject: tg.subject.clone(), ec, bound, unbound })
}

/// `σ^γ`: group-filter for a star with **no** unbound patterns.
///
/// # Panics
/// Panics if the star has unbound patterns — use [`beta_group_filter`].
pub fn group_filter(tgs: &[TripleGroup], star: &StarPattern, ec: u64) -> Vec<AnnTg> {
    assert!(!star.has_unbound(), "σ^γ requires a bound-only star; use σ^βγ");
    tgs.iter().filter_map(|tg| match_star(tg, star, ec)).collect()
}

/// `σ^βγ` (Definition 1): β group-filter for unbound-property stars.
pub fn beta_group_filter(tgs: &[TripleGroup], star: &StarPattern, ec: u64) -> Vec<AnnTg> {
    tgs.iter().filter_map(|tg| match_star(tg, star, ec)).collect()
}

/// `μ^β` (Definition 2): β-unnest into perfect triplegroups.
///
/// Each output pins every unbound pattern to exactly one candidate pair;
/// the bound component stays nested. A triplegroup with `u` unbound
/// patterns having `n_1 × … × n_u` candidates yields that many perfect
/// triplegroups — the redundancy eager unnesting materializes.
pub fn beta_unnest(tg: &AnnTg) -> Vec<AnnTg> {
    if tg.unbound.is_empty() {
        return vec![tg.clone()];
    }
    let dims: Vec<usize> = tg.unbound.iter().map(Vec::len).collect();
    if dims.contains(&0) {
        return Vec::new();
    }
    // One output per candidate combination; reserve up front (capped so a
    // pathological cross product can't balloon the initial allocation).
    let combos = dims.iter().copied().fold(1usize, |a, b| a.saturating_mul(b));
    let mut out = Vec::with_capacity(combos.min(1 << 20));
    let mut cursor = vec![0usize; dims.len()];
    loop {
        let unbound =
            cursor.iter().enumerate().map(|(j, &c)| vec![tg.unbound[j][c].clone()]).collect();
        out.push(AnnTg {
            subject: tg.subject.clone(),
            ec: tg.ec,
            bound: tg.bound.clone(),
            unbound,
        });
        if !next_combination(&mut cursor, |pos| dims[pos]) {
            return out;
        }
    }
}

/// `μ^β_φ` (Definition 3): partial β-unnest of unbound pattern `u` using a
/// partition function over the candidate's *object* (the join key).
///
/// Candidates assigned to the same partition stay nested in one output
/// triplegroup, so at most `m` triplegroups are produced per input — the
/// map-output redundancy becomes a function of `m` instead of the
/// candidate count. Other unbound patterns are left untouched.
pub fn partial_beta_unnest(tg: &AnnTg, u: usize, phi: impl Fn(&str) -> u64) -> Vec<(u64, AnnTg)> {
    let mut parts: BTreeMap<u64, Vec<(Atom, Atom)>> = BTreeMap::new();
    for (p, o) in &tg.unbound[u] {
        parts.entry(phi(o)).or_default().push((p.clone(), o.clone()));
    }
    parts
        .into_iter()
        .map(|(k, cands)| {
            let mut pinned = tg.clone();
            pinned.unbound[u] = cands;
            (k, pinned)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let ts = triples();
        let star = StarPattern::new(
            "g",
            vec![
                TriplePattern::bound("g", "<label>", ObjPattern::Var("l".into())),
                TriplePattern::bound("g", "<xGO>", ObjPattern::Var("go".into())),
            ],
        );
        let anns = group_filter(&group_by_subject(&ts), &star, 3);
        assert_eq!(anns.len(), 1);
        assert_eq!(anns[0].ec, 3);
        assert!(anns[0].unbound.is_empty());
        // Projection: syn pairs are not kept for a bound-only star.
        assert_eq!(anns[0].distinct_pairs().len(), 3);
    }

    #[test]
    #[should_panic(expected = "bound-only")]
    fn group_filter_rejects_unbound_star() {
        group_filter(&[], &unbound_star(), 0);
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
    fn partial_unnest_bounds_outputs_by_m() {
        let anns = beta_group_filter(&group_by_subject(&triples()), &unbound_star(), 0);
        let m = 2u64;
        let parts = partial_beta_unnest(&anns[0], 0, |o| {
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
            for (_, part) in
                partial_beta_unnest(&anns[0], 0, |o| (o.bytes().map(u64::from).sum::<u64>()) % m)
            {
                via_partial.extend(beta_unnest(&part));
            }
            assert_eq!(via_partial, full, "m={m}");
        }
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
