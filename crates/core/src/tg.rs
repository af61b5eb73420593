//! TripleGroup data model: annotated triplegroups and triplegroup tuples.
//!
//! An [`AnnTg`] is the paper's *annotated triplegroup* (Section 4,
//! Figure 7): all triples of one subject relevant to one star subpattern
//! (equivalence class), held in nested property→objects form. For stars
//! with unbound-property patterns it additionally carries, per unbound
//! pattern, the list of candidate `(property, object)` pairs — kept
//! *implicit* (nested) until a β-unnest pins them.
//!
//! The simulated text size counts each **distinct** `(property, object)`
//! pair once plus the subject: the nested representation stores a triple
//! once even when it plays multiple roles (bound match and unbound
//! candidate), which is exactly the conciseness the paper exploits.

use mrsim::{MrError, Rec, SliceReader};
use rdf_model::atom::Atom;
use rdf_query::{Binding, ObjPattern, PropPattern, StarPattern};

/// An annotated triplegroup: one subject's matches for one star
/// subpattern. Tokens are interned [`Atom`]s, so cloning a triplegroup
/// (or re-emitting its tokens across cycles) bumps reference counts
/// instead of copying heap strings; equality and ordering stay
/// content-based, so shuffle sort order matches the `String` era.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct AnnTg {
    /// The shared subject token.
    pub subject: Atom,
    /// Equivalence class: index of the star in the query.
    pub ec: u64,
    /// Objects per bound pattern, parallel to
    /// [`StarPattern::bound_patterns`] order: `(property token, objects)`.
    pub bound: Vec<(Atom, Vec<Atom>)>,
    /// Candidate `(property, object)` pairs per unbound pattern, parallel
    /// to [`StarPattern::unbound_patterns`] order.
    pub unbound: Vec<Vec<(Atom, Atom)>>,
}

impl AnnTg {
    /// Number of flat combinations this triplegroup implicitly represents
    /// (product of all list lengths).
    pub fn combination_count(&self) -> u64 {
        let mut n: u64 = 1;
        for (_, objs) in &self.bound {
            n = n.saturating_mul(objs.len() as u64);
        }
        for cands in &self.unbound {
            n = n.saturating_mul(cands.len() as u64);
        }
        n
    }

    /// The distinct `(property, object)` pairs stored (a triple playing
    /// multiple roles counts once — set semantics of triplegroups), in
    /// sorted order.
    pub fn distinct_pairs(&self) -> Vec<(&str, &str)> {
        let mut pairs = Vec::new();
        self.distinct_pairs_into(&mut pairs);
        pairs
    }

    /// [`distinct_pairs`](Self::distinct_pairs) into a caller-owned
    /// buffer (cleared first), so a hot caller sizing many triplegroups
    /// allocates once: sort + dedup over borrowed tokens.
    fn distinct_pairs_into<'a>(&'a self, pairs: &mut Vec<(&'a str, &'a str)>) {
        pairs.clear();
        for (p, objs) in &self.bound {
            pairs.extend(objs.iter().map(|o| (&**p, &**o)));
        }
        for cands in &self.unbound {
            pairs.extend(cands.iter().map(|(p, o)| (&**p, &**o)));
        }
        pairs.sort_unstable();
        pairs.dedup();
    }

    /// [`Rec::text_size`] with the distinct-pair scratch supplied: the
    /// subject and a separator, then each distinct `(p, o)` pair once with
    /// two separators — the nested text representation.
    fn text_size_in<'a>(&'a self, pairs: &mut Vec<(&'a str, &'a str)>) -> u64 {
        self.distinct_pairs_into(pairs);
        let pair_bytes: u64 = pairs.iter().map(|(p, o)| p.len() as u64 + o.len() as u64 + 2).sum();
        self.subject.len() as u64 + 1 + pair_bytes
    }

    /// Expand to solution bindings for the star this triplegroup matches.
    ///
    /// The cross product of bound-object choices and unbound-candidate
    /// choices, with variables drawn from the star's patterns. Positions
    /// bound to constants bind nothing.
    ///
    /// Returns `None` if this triplegroup's shape does not line up with
    /// the star (planner bug).
    pub fn expand(&self, star: &StarPattern) -> Option<Vec<Binding>> {
        let bound_pats = star.bound_patterns();
        let unbound_pats = star.unbound_patterns();
        if bound_pats.len() != self.bound.len() || unbound_pats.len() != self.unbound.len() {
            return None;
        }
        // Dimensions: bound lists then unbound lists.
        let mut dims: Vec<usize> = Vec::new();
        for (_, objs) in &self.bound {
            if objs.is_empty() {
                return Some(Vec::new());
            }
            dims.push(objs.len());
        }
        for cands in &self.unbound {
            if cands.is_empty() {
                return Some(Vec::new());
            }
            dims.push(cands.len());
        }
        let mut out = Vec::new();
        let mut cursor = vec![0usize; dims.len()];
        loop {
            let mut b = Binding::new();
            let mut ok = b.bind(&star.subject_var, self.subject.clone());
            for (i, pat) in bound_pats.iter().enumerate() {
                let obj = &self.bound[i].1[cursor[i]];
                if let ObjPattern::Var(v) | ObjPattern::Filtered(v, _) = &pat.object {
                    ok = ok && b.bind(v, obj.clone());
                }
            }
            for (j, pat) in unbound_pats.iter().enumerate() {
                let (p, o) = &self.unbound[j][cursor[bound_pats.len() + j]];
                if let PropPattern::Unbound(v) = &pat.property {
                    ok = ok && b.bind(v, p.clone());
                }
                if let ObjPattern::Var(v) | ObjPattern::Filtered(v, _) = &pat.object {
                    ok = ok && b.bind(v, o.clone());
                }
            }
            if ok {
                out.push(b);
            }
            // odometer
            let mut pos = dims.len();
            loop {
                if pos == 0 {
                    return Some(out);
                }
                pos -= 1;
                cursor[pos] += 1;
                if cursor[pos] < dims[pos] {
                    break;
                }
                cursor[pos] = 0;
            }
        }
    }
}

impl Rec for AnnTg {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        self.subject.encode_into(buf);
        self.ec.encode_into(buf);
        self.bound.encode_into(buf);
        self.unbound.encode_into(buf);
    }

    fn decode(r: &mut SliceReader<'_>) -> Result<Self, MrError> {
        Ok(AnnTg {
            subject: Atom::decode(r)?,
            ec: u64::decode(r)?,
            bound: Vec::<(Atom, Vec<Atom>)>::decode(r)?,
            unbound: Vec::<Vec<(Atom, Atom)>>::decode(r)?,
        })
    }

    fn text_size(&self) -> u64 {
        self.text_size_in(&mut Vec::new())
    }
}

/// A tuple of triplegroups: the record type flowing through NTGA join
/// cycles (one component per already-joined star).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TgTuple(pub Vec<AnnTg>);

impl Rec for TgTuple {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        bytes::BufMut::put_u32_le(buf, u32::try_from(self.0.len()).expect("tuple too long"));
        for tg in &self.0 {
            tg.encode_into(buf);
        }
    }

    fn decode(r: &mut SliceReader<'_>) -> Result<Self, MrError> {
        let n = r.read_u32()? as usize;
        let mut out = Vec::with_capacity(n.min(64));
        for _ in 0..n {
            out.push(AnnTg::decode(r)?);
        }
        Ok(TgTuple(out))
    }

    fn text_size(&self) -> u64 {
        let mut pairs = Vec::new();
        self.0.iter().map(|tg| tg.text_size_in(&mut pairs)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_query::TriplePattern;

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

    #[test]
    fn roundtrip() {
        let tg = anntg();
        assert_eq!(AnnTg::from_bytes(&tg.to_bytes()).unwrap(), tg);
        let tup = TgTuple(vec![tg.clone(), tg]);
        assert_eq!(TgTuple::from_bytes(&tup.to_bytes()).unwrap(), tup);
    }

    #[test]
    fn combination_count() {
        assert_eq!(anntg().combination_count(), 8); // 1 label × 2 xGO × 4 candidates
    }

    #[test]
    fn distinct_pairs_dedup_multiple_roles() {
        // 3 bound pairs + 4 unbound candidates, but 3 candidates duplicate
        // bound pairs -> 4 distinct.
        assert_eq!(anntg().distinct_pairs().len(), 4);
    }

    #[test]
    fn text_size_counts_each_pair_once() {
        let tg = anntg();
        let expected: u64 = ("<g1>".len() as u64 + 1)
            + tg.distinct_pairs()
                .iter()
                .map(|(p, o)| p.len() as u64 + o.len() as u64 + 2)
                .sum::<u64>();
        assert_eq!(tg.text_size(), expected);
    }

    #[test]
    fn nested_text_is_smaller_than_flat() {
        // The whole point: 8 flat combinations vs one nested TG.
        let tg = anntg();
        let bindings = tg.expand(&star()).unwrap();
        assert_eq!(bindings.len(), 8);
        let flat_bytes: u64 =
            bindings.iter().map(|b| b.iter().map(|(_, v)| v.len() as u64 + 1).sum::<u64>()).sum();
        assert!(tg.text_size() < flat_bytes);
    }

    #[test]
    fn expand_binds_all_vars() {
        let bindings = anntg().expand(&star()).unwrap();
        for b in &bindings {
            assert!(b.get("g").is_some());
            assert!(b.get("l").is_some());
            assert!(b.get("go").is_some());
            assert!(b.get("p").is_some());
            assert!(b.get("o").is_some());
        }
    }

    #[test]
    fn expand_rejects_shape_mismatch() {
        let mut tg = anntg();
        tg.unbound.clear();
        assert!(tg.expand(&star()).is_none());
    }

    #[test]
    fn expand_empty_candidate_list_is_no_solutions() {
        let mut tg = anntg();
        tg.unbound[0].clear();
        assert_eq!(tg.expand(&star()).unwrap().len(), 0);
    }
}
