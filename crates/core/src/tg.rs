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

use mrsim::codec::put_count;
use mrsim::{MrError, Rec, SliceReader};
use rdf_model::atom::Atom;
use std::ops::Range;

/// An annotated triplegroup: one subject's matches for one star
/// subpattern. Tokens are [`Atom`]s, so cloning a triplegroup
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
    /// [`rdf_query::StarPattern::bound_patterns`] order: `(property token,
    /// objects)`.
    pub bound: Vec<(Atom, Vec<Atom>)>,
    /// Candidate `(property, object)` pairs per unbound pattern, parallel
    /// to [`rdf_query::StarPattern::unbound_patterns`] order.
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
    /// sorted order, into a caller-owned buffer (cleared first), so a hot
    /// caller sizing many triplegroups allocates once: sort + dedup over
    /// borrowed tokens.
    fn distinct_pairs_into<'a>(&'a self, pairs: &mut Vec<(&'a str, &'a str)>) {
        pairs.clear();
        for (p, objs) in &self.bound {
            pairs.extend(objs.iter().map(|o| (&**p, &**o)));
        }
        for cands in &self.unbound {
            pairs.extend(cands.iter().map(|(p, o)| (&**p, &**o)));
        }
        sort_distinct(pairs);
    }

    /// [`Rec::text_size`] with the distinct-pair scratch supplied: the
    /// subject and a separator, then each distinct `(p, o)` pair once with
    /// two separators — the nested text representation.
    fn text_size_in<'a>(&'a self, pairs: &mut Vec<(&'a str, &'a str)>) -> u64 {
        self.distinct_pairs_into(pairs);
        self.subject.len() as u64 + 1 + pairs.iter().map(|&(p, o)| pair_text(p, o)).sum::<u64>()
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
        put_count(buf, u32::try_from(self.0.len()).expect("tuple too long"));
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

// ---------------------------------------------------------------------------
// Borrowed cursor over the encoded form
// ---------------------------------------------------------------------------

/// Text bytes one `(property, object)` pair adds to a nested triplegroup
/// row: both tokens and two separators.
pub(crate) fn pair_text(p: &str, o: &str) -> u64 {
    p.len() as u64 + o.len() as u64 + 2
}

/// Sort `pairs` and drop repeats: the set a triplegroup stores, whatever
/// number of lists a pair appears in.
pub(crate) fn sort_distinct(pairs: &mut Vec<(&str, &str)>) {
    pairs.sort_unstable();
    pairs.dedup();
}

/// Text bytes of the distinct pairs among `entries` (sorted in place) that
/// are not already in `stored`, a [`sort_distinct`] set: what the entries
/// add to a row that stores `stored`.
pub(crate) fn added_text(entries: &mut [PairRef<'_>], stored: &[(&str, &str)]) -> u64 {
    entries.sort_unstable_by_key(|e| (e.p, e.o));
    let mut bytes = 0;
    let mut prev = None;
    for e in entries.iter() {
        let pair = (e.p, e.o);
        if prev != Some(pair) && stored.binary_search(&pair).is_err() {
            bytes += pair_text(e.p, e.o);
        }
        prev = Some(pair);
    }
    bytes
}

/// One entry of an encoded list, borrowed from the record: an object of a
/// bound list (`p` is the list's property) or a candidate of an unbound
/// one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairRef<'a> {
    /// Property token.
    pub p: &'a str,
    /// Object token.
    pub o: &'a str,
    /// The entry's own bytes: the encoded object in a bound list (whose
    /// property is written once, ahead of the count), the encoded
    /// `(property, object)` in an unbound one.
    pub entry: &'a [u8],
}

/// Where one list of a component sits in its record, and which entries it
/// holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ListRef {
    /// Offset of the list's entry count — for a bound list, just past its
    /// property token.
    pub count_at: usize,
    /// Offset one past the list's last entry.
    pub end: usize,
    /// The list's entries, as a range of the `pairs` buffer handed to
    /// [`TgCursor::component`].
    pub pairs: Range<usize>,
}

/// One component of an encoded tuple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompRef<'a> {
    /// Subject token.
    pub subject: &'a str,
    /// Equivalence class.
    pub ec: u64,
    /// The component's byte range in the record.
    pub span: Range<usize>,
    /// How many of the lists pushed for this component are bound lists;
    /// they come first, the unbound lists after them.
    pub bound: usize,
    /// Number of unbound lists.
    pub unbound: usize,
}

/// A borrowed walk over an encoded [`TgTuple`] (or a single [`AnnTg`]):
/// byte ranges and `&str` tokens, no [`Atom`] built and nothing allocated
/// per token. Every length prefix and count is checked against the bytes
/// that remain, every token is validated as UTF-8, and the errors are the
/// ones [`Rec::decode`] gives — a count is a loop bound, never a
/// reservation. See DESIGN.md, "Triplegroup joins splice", for the layout.
pub struct TgCursor<'a> {
    rec: &'a [u8],
    r: SliceReader<'a>,
}

impl<'a> TgCursor<'a> {
    /// Start at the first byte of `rec`.
    pub fn new(rec: &'a [u8]) -> Self {
        TgCursor { rec, r: SliceReader::new(rec) }
    }

    /// Offset of the next unread byte.
    pub fn pos(&self) -> usize {
        self.rec.len() - self.r.remaining()
    }

    /// The bytes not read yet.
    pub fn rest(&self) -> &'a [u8] {
        &self.rec[self.pos()..]
    }

    /// The bytes read since offset `from` (an earlier [`pos`](Self::pos)).
    fn since(&self, from: usize) -> &'a [u8] {
        &self.rec[from..self.pos()]
    }

    /// Read a count: the component count that opens a tuple.
    pub fn count(&mut self) -> Result<u32, MrError> {
        self.r.read_u32()
    }

    /// Walk one component, appending its lists to `lists` (bound lists
    /// first) and their entries, in record order, to `pairs`.
    pub fn component(
        &mut self,
        lists: &mut Vec<ListRef>,
        pairs: &mut Vec<PairRef<'a>>,
    ) -> Result<CompRef<'a>, MrError> {
        let start = self.pos();
        let subject = self.r.read_str()?;
        let ec = self.r.read_u64()?;
        let bound = self.r.read_u32()?;
        for _ in 0..bound {
            let p = self.r.read_str()?;
            let count_at = self.pos();
            let first = pairs.len();
            for _ in 0..self.r.read_u32()? {
                let at = self.pos();
                let o = self.r.read_str()?;
                pairs.push(PairRef { p, o, entry: self.since(at) });
            }
            lists.push(ListRef { count_at, end: self.pos(), pairs: first..pairs.len() });
        }
        let unbound = self.r.read_u32()?;
        for _ in 0..unbound {
            let count_at = self.pos();
            let first = pairs.len();
            for _ in 0..self.r.read_u32()? {
                let at = self.pos();
                let p = self.r.read_str()?;
                let o = self.r.read_str()?;
                pairs.push(PairRef { p, o, entry: self.since(at) });
            }
            lists.push(ListRef { count_at, end: self.pos(), pairs: first..pairs.len() });
        }
        Ok(CompRef {
            subject,
            ec,
            span: start..self.pos(),
            bound: bound as usize,
            unbound: unbound as usize,
        })
    }

    /// End the walk: bytes left over are the error [`Rec::from_bytes`]
    /// reports.
    pub fn finish(self) -> Result<(), MrError> {
        self.r.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // bound pairs -> 4 distinct, sorted.
        let (tg, mut pairs) = (anntg(), Vec::new());
        tg.distinct_pairs_into(&mut pairs);
        let expected =
            [("<label>", "\"a\""), ("<syn>", "\"s\""), ("<xGO>", "<go1>"), ("<xGO>", "<go2>")];
        assert_eq!(pairs, expected);
    }

    #[test]
    fn text_size_counts_each_pair_once() {
        // `<g1> ` then each distinct pair once with its two separators.
        let expected = 5 + (7 + 3 + 2) + (5 + 3 + 2) + 2 * (5 + 5 + 2);
        assert_eq!(anntg().text_size(), expected);
    }
}
