//! Physical NTGA operators on MapReduce (Section 4, Algorithms 1–3).
//!
//! * [`group_filter_job`] — **Job 1**: `TG_GroupBy` (map tags triples by
//!   subject) + `TG_UnbGrpFilter` (reduce builds subject triplegroups and
//!   matches them against every star subpattern at once — the single
//!   grouping cycle that computes ALL star joins). Where `eager[i]` is set
//!   the reduce additionally β-unnests star `i` (all stars: the paper's
//!   **EagerUnnest**); otherwise annotated triplegroups stay nested
//!   (**LazyUnnest**). Its reduce, [`GroupReduce`], reads the group's
//!   `(property, object)` values in place and writes every annotated or
//!   perfect triplegroup from their bytes.
//! * [`tg_join_job`] — **Job 2**: join between two triplegroup equivalence
//!   classes. The map side evaluates the join role of each side:
//!   subject joins ship the triplegroup as-is; bound-object joins pin the
//!   join object; unbound-object joins β-unnest **lazily at the map of
//!   this cycle** — fully (`TG_UnbJoin`, [`UnnestMode::Exact`]) or
//!   partially to reducer-partition granularity (`TG_OptUnbJoin`,
//!   [`UnnestMode::Partial`], Algorithm 3) with the reduce side finishing
//!   the unnest and hash-joining on the real key. A join cycle carries
//!   nested triplegroups and touches one list of one component, so its
//!   operators ([`JoinMap`], [`JoinReduce`], [`BroadcastJoin`]) work on the
//!   encoded bytes: a pinned copy is the input's bytes spliced around that
//!   one list, and nothing is decoded into [`crate::AnnTg`]s.
//!
//! Every operator here reads and writes encoded bytes; the typed
//! [`TgTuple`] codec defines the format and is what the tests decode with.

use crate::tg::{added_text, pair_text, sort_distinct, ListRef, PairRef, TgCursor};
// The record type every operator here writes, named by the docs alone.
#[cfg(doc)]
use crate::tg::TgTuple;
use mr_rdf::{next_combination, PlanError, TripleView};
use mrsim::codec::{
    counted_len, put_count, put_decimal_token, put_tag, put_token, split_tag, token_key,
    token_key_text, token_len,
};
use mrsim::{
    InputBinding, JobSpec, MapEmitter, MrError, OutEmitter, RawMapOnlyOp, RawMapOp, RawReduceOp,
    SliceReader, TaskContext,
};
use rdf_model::atom::{fnv1a, Atom};
use rdf_model::hash::DetHashMap;
use rdf_query::{ObjFilter, ObjPattern, PropPattern, Query, StarPattern, TriplePattern};
use std::borrow::Borrow;
use std::hash::Hash;
use std::ops::Range;
use std::sync::Arc;

/// Default reducer count for NTGA jobs.
pub const REDUCERS: usize = 8;

/// Operator-counter names recorded by the NTGA physical operators.
///
/// Counters are recorded through [`mrsim::TaskContext::count`] and surface
/// as order-independent sums on [`mrsim::JobStats`]`::ops` (and, merged
/// across jobs, on `WorkflowStats::op_counters()`), so they are stable
/// across worker counts.
pub mod op {
    /// Subject groups entering `TG_UnbGrpFilter` (one per reduce group).
    pub const GROUPS_IN: &str = "ntga.group.groups_in";
    /// `(property, object)` pairs entering `TG_UnbGrpFilter` — divide by
    /// [`GROUPS_IN`] for the mean triplegroup size.
    pub const PAIRS_IN: &str = "ntga.group.pairs_in";
    /// `(group, star)` admissions: a triplegroup matched a star subpattern.
    pub const ADMITTED: &str = "ntga.group.admitted";
    /// Groups that matched **no** star and were filtered out entirely.
    pub const DROPPED: &str = "ntga.group.dropped";
    /// Annotated triplegroups entering an eager/exact β-unnest.
    pub const UNNEST_IN: &str = "ntga.unnest.in";
    /// Perfect triplegroups produced by an eager/exact β-unnest — the
    /// ratio against [`UNNEST_IN`] is the unnest expansion factor.
    pub const UNNEST_OUT: &str = "ntga.unnest.out";
    /// Triplegroup tuples entering a partial (φ-partition) unnest.
    pub const PARTIAL_IN: &str = "ntga.partial.in";
    /// Records the partial unnest actually ships (≤ `m` per tuple).
    pub const PARTIAL_OUT: &str = "ntga.partial.out";
    /// Unbound-pattern candidates the full unnest would have shipped.
    pub const PARTIAL_CANDIDATES: &str = "ntga.partial.candidates";
    /// Text bytes the partial (nested) records carry across the shuffle.
    pub const PARTIAL_NESTED_BYTES: &str = "ntga.partial.nested_bytes";
    /// Text bytes a full β-unnest would have shipped for the same tuples
    /// (computed arithmetically, without materializing the expansion).
    pub const PARTIAL_EXPANDED_BYTES: &str = "ntga.partial.expanded_bytes";
}

/// The partition function `φ_m` over a join-key token.
pub fn phi(key: &str, m: u64) -> u64 {
    fnv1a(key.as_bytes()) % m.max(1)
}

// ---------------------------------------------------------------------------
// Job 1: TG_GroupBy + TG_UnbGrpFilter (+ optional eager β-unnest)
// ---------------------------------------------------------------------------

/// `TG_GroupBy`'s map over the triple relation, reading each record in
/// place: the shuffle key is the triple's own encoded subject, the value
/// its encoded property and object.
struct GroupMap {
    stars: Vec<StarPattern>,
}

impl RawMapOp for GroupMap {
    fn run(&self, _ctx: &TaskContext, record: &[u8], out: &mut MapEmitter) -> Result<(), MrError> {
        let t = TripleView::from_bytes(record)?;
        // Map-side relevance filter: ship the triple only if it can match
        // some pattern of some star (this is where partially-bound-object
        // filters prune, as the paper notes for query B2).
        let relevant = self.stars.iter().any(|star| {
            star.subject_accepts(t.s)
                && star.patterns.iter().any(|p| p.matches_tokens(t.s, t.p, t.o))
        });
        if relevant {
            // The row is `s \t p \t o \n`.
            let text = (t.s.len() + t.p.len() + t.o.len()) as u64 + 1;
            out.emit_raw(t.s_bytes, t.po_bytes, text);
        }
        Ok(())
    }
}

/// `TG_UnbGrpFilter` (Definition 1), Job 1's reduce: the β group-filter of
/// one subject's triples against every star at once, and the eager μ^β
/// (Definition 2) of the stars the plan unnests here. It reads the group's
/// tokens in place and writes each admitted triplegroup from their bytes.
pub struct GroupReduce {
    stars: Vec<StarMatch>,
}

/// One star as [`GroupReduce`] matches it, compiled once per job.
struct StarMatch {
    subject: Option<ObjFilter>,
    /// Each pattern's property (`None`: unbound) and object, bound patterns
    /// first — the order of a triplegroup's lists.
    patterns: Vec<(Option<Atom>, ObjPattern)>,
    eager: bool,
}

/// A group value read in place: property, object, and its bytes `token p ·
/// token o` — an unbound-list entry as it stands.
type Pair<'a> = (&'a str, &'a str, &'a [u8]);

/// A pair's role in a star's triplegroup: an unbound candidate only, or in
/// a bound list, which puts its text in every perfect triplegroup.
const CANDIDATE: u8 = 1;
const BOUND: u8 = 2;

impl GroupReduce {
    /// The reduce for `stars`, β-unnesting star `i` here where `eager[i]`.
    pub fn new(stars: &[StarPattern], eager: &[bool]) -> Self {
        let compile = |(star, &eager): (&StarPattern, &bool)| {
            let prop = |t: &TriplePattern| match &t.property {
                PropPattern::Bound(p) => Some(p.clone()),
                PropPattern::Unbound(_) => None,
            };
            let mut patterns: Vec<_> =
                star.patterns.iter().map(|t| (prop(t), t.object.clone())).collect();
            patterns.sort_by_key(|(p, _)| p.is_none());
            StarMatch { subject: star.subject_filter.clone(), patterns, eager }
        };
        GroupReduce { stars: stars.iter().zip(eager).map(compile).collect() }
    }

    /// Filter one subject group: `key` the encoded subject, `values` its
    /// encoded `(property, object)` pairs in the shuffle's sorted order, so
    /// equal pairs are adjacent. `emit(star, record, text)` once per
    /// admitted triplegroup, a one-component [`TgTuple`], star by star; an
    /// eager star's perfect triplegroups in odometer order, the last unbound
    /// list fastest.
    ///
    /// The key and every value are read before anything is emitted, so a
    /// broken one fails the task with the codec's error.
    pub fn filter(
        &self,
        ctx: &TaskContext,
        key: &[u8],
        values: &[&[u8]],
        mut emit: impl FnMut(usize, Vec<u8>, u64) -> Result<(), MrError>,
    ) -> Result<(), MrError> {
        let subject = token_key(key)?;
        let mut pairs: Vec<Pair<'_>> = Vec::with_capacity(values.len());
        for &value in values {
            let mut r = SliceReader::new(value);
            pairs.push((r.read_str()?, r.read_str()?, value));
            r.finish()?;
        }
        // No list count below is larger.
        u32::try_from(pairs.len()).map_err(|_| MrError::Op("subject group too large".into()))?;
        ctx.count(op::GROUPS_IN, 1);
        ctx.count(op::PAIRS_IN, pairs.len() as u64);
        // The subject and each distinct pair whose role is at least `min`.
        let held_text = |roles: &[u8], min: u8| {
            let first = |j: usize| j == 0 || pairs[j - 1].2 != pairs[j].2;
            let held = pairs.iter().enumerate().filter(|&(j, _)| roles[j] >= min && first(j));
            subject.len() as u64 + 1 + held.map(|(_, &(p, o, _))| pair_text(p, o)).sum::<u64>()
        };
        let (mut lists, mut roles, mut head, mut cursor) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut admitted = 0;
        for (i, star) in self.stars.iter().enumerate() {
            let patterns = &star.patterns;
            // List `k` holds the pairs pattern `k` matches, by index.
            lists.resize_with(patterns.len(), Vec::new);
            roles.clear();
            roles.resize(pairs.len(), 0);
            let admits = star.subject.as_ref().is_none_or(|f| f.accepts(subject))
                && patterns.iter().zip(&mut lists).all(|((prop, object), list)| {
                    list.clear();
                    for (j, &(p, o, _)) in pairs.iter().enumerate() {
                        if prop.as_ref().is_none_or(|prop| &**prop == p) && object.accepts(o) {
                            list.push(j);
                            roles[j] = roles[j].max(if prop.is_some() { BOUND } else { CANDIDATE });
                        }
                    }
                    !list.is_empty()
                });
            if !admits {
                continue;
            }
            admitted += 1;
            let bound = patterns.iter().take_while(|(p, _)| p.is_some()).count();
            let (bound_lists, unbound_lists) = lists[..patterns.len()].split_at(bound);
            // The record up to its unbound lists: one component, its subject,
            // class and bound lists — each the property token as its first
            // entry spells it, the count, the objects — and the unbound-list
            // count.
            head.clear();
            put_count(&mut head, 1);
            head.extend_from_slice(key);
            put_tag(&mut head, i as u64);
            put_count(&mut head, bound as u32);
            for list in bound_lists {
                let (p, _, value) = pairs[list[0]];
                head.extend_from_slice(&value[..token_len(p)]);
                put_count(&mut head, list.len() as u32);
                for &(p, _, value) in list.iter().map(|&j| &pairs[j]) {
                    head.extend_from_slice(&value[token_len(p)..]);
                }
            }
            put_count(&mut head, unbound_lists.len() as u32);
            if !star.eager {
                let record = tg_record(&head, &pairs, unbound_lists.iter().map(Vec::as_slice));
                emit(i, record, held_text(&roles, CANDIDATE))?;
                continue;
            }
            let width = unbound_lists.iter().map(|l| l.len() as u64).fold(1, u64::saturating_mul);
            count_unnest(ctx, width);
            let base = held_text(&roles, BOUND);
            cursor.clear();
            cursor.resize(unbound_lists.len(), 0);
            loop {
                let picks = cursor.iter().zip(unbound_lists).map(|(&c, list)| &list[c..=c]);
                // A pick that a bound list or an earlier pick holds adds no
                // text.
                let mut text = base;
                for (n, pick) in picks.clone().enumerate() {
                    let (p, o, value) = pairs[pick[0]];
                    let earlier = picks.clone().take(n).any(|q| pairs[q[0]].2 == value);
                    if roles[pick[0]] != BOUND && !earlier {
                        text += pair_text(p, o);
                    }
                }
                emit(i, tg_record(&head, &pairs, picks), text)?;
                if !next_combination(&mut cursor, |w| unbound_lists[w].len()) {
                    break;
                }
            }
        }
        ctx.count(op::ADMITTED, admitted);
        if admitted == 0 {
            ctx.count(op::DROPPED, 1);
        }
        Ok(())
    }
}

/// `head`, then each list as its count and its entries' values: a
/// one-component [`TgTuple`], written once at its length.
fn tg_record<'l>(
    head: &[u8],
    pairs: &[Pair<'_>],
    lists: impl Iterator<Item = &'l [usize]> + Clone,
) -> Vec<u8> {
    let values = |list: &'l [usize]| list.iter().map(|&j| pairs[j].2);
    let len: usize = lists.clone().map(|l| counted_len(values(l).map(<[u8]>::len).sum())).sum();
    let mut rec = Vec::with_capacity(head.len() + len);
    rec.extend_from_slice(head);
    for list in lists {
        put_count(&mut rec, list.len() as u32);
        values(list).for_each(|value| rec.extend_from_slice(value));
    }
    rec
}

impl RawReduceOp for GroupReduce {
    fn run(
        &self,
        ctx: &TaskContext,
        key: &[u8],
        values: &[&[u8]],
        out: &mut OutEmitter,
    ) -> Result<(), MrError> {
        self.filter(ctx, key, values, |star, record, text| out.emit_raw_to(star, record, text))
    }
}

/// Build Job 1 for a query: one full scan computes every star subpattern.
///
/// The job writes one output per star: `outputs[i]` holds the annotated
/// triplegroups of equivalence class `i` (wrapped as single-component
/// [`TgTuple`]s). `eager[i]` says whether that class is β-unnested in the
/// reduce (eager) or left nested (lazy): the hand-picked strategies set
/// all or none, the cost-based optimizer unnests stars whose triplegroups
/// carry no redundancy (no multi-valued or unbound candidates) while
/// keeping expansive stars nested. A query without stars, or `outputs` or
/// `eager` of another length than its stars, is a [`PlanError::Internal`].
pub fn group_filter_job(
    name: impl Into<String>,
    query: &Query,
    input: &str,
    outputs: Vec<String>,
    eager: Vec<bool>,
) -> Result<JobSpec, PlanError> {
    let stars = query.stars.len();
    if outputs.len() != stars || eager.len() != stars {
        return Err(PlanError::Internal(format!(
            "Job 1 of a {stars}-star query got {} outputs and {} unnest placements",
            outputs.len(),
            eager.len()
        )));
    }
    let mapper = Arc::new(GroupMap { stars: query.stars.clone() });
    let reducer = Arc::new(GroupReduce::new(&query.stars, &eager));
    let mut outs = outputs.into_iter();
    let first =
        outs.next().ok_or_else(|| PlanError::Internal("Job 1 of a query without stars".into()))?;
    let inputs = vec![InputBinding { file: input.to_string(), mapper }];
    let spec = JobSpec::map_reduce(name, inputs, reducer, REDUCERS, first).with_full_scan();
    Ok(outs.fold(spec, JobSpec::with_extra_output))
}

// ---------------------------------------------------------------------------
// Job 2: TG_Join / TG_UnbJoin / TG_OptUnbJoin
// ---------------------------------------------------------------------------

/// How a star participates in a join.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinRole {
    /// The join variable is the star's subject.
    Subject,
    /// The join variable is the object of bound pattern `i` (index into
    /// [`StarPattern::bound_patterns`]).
    BoundObj(usize),
    /// The join variable is the object of unbound pattern `i` (index into
    /// [`StarPattern::unbound_patterns`]) — the case that needs β-unnest.
    UnboundObj(usize),
}

/// Determine how `var` occurs in `star`.
pub fn role_of(star: &StarPattern, var: &str) -> Option<JoinRole> {
    if star.subject_var == var {
        return Some(JoinRole::Subject);
    }
    for (i, pat) in star.bound_patterns().iter().enumerate() {
        if pat.object.var() == Some(var) {
            return Some(JoinRole::BoundObj(i));
        }
    }
    for (i, pat) in star.unbound_patterns().iter().enumerate() {
        if pat.object.var() == Some(var) {
            return Some(JoinRole::UnboundObj(i));
        }
    }
    None
}

/// One side of a triplegroup join.
#[derive(Debug, Clone)]
pub struct JoinSide {
    /// DFS file of [`TgTuple`] records.
    pub file: String,
    /// Index of the component (within each tuple) that carries the join
    /// variable.
    pub component: usize,
    /// How that component's star holds the join variable.
    pub role: JoinRole,
}

/// β-unnest placement for the join's map phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnnestMode {
    /// Map output keys are actual join values (plain `TG_Join`, or lazy
    /// *full* β-unnest — `TG_UnbJoin`).
    Exact,
    /// Map output keys are `φ_m` partitions; the reduce completes the
    /// unnest and hash-joins on real keys (`TG_OptUnbJoin`).
    Partial(u64),
}

// The three join algorithms below never decode a triplegroup. A join
// touches one list of one component, so each operator walks its encoded
// input once with a `TgCursor`, and what it writes is input bytes spliced
// around that one list (DESIGN.md, "Triplegroup joins splice").

/// An encoded tuple with at most one list cut down to some of its entries,
/// as the byte ranges that spell it.
struct Pinned<'a> {
    /// Component count.
    n: u32,
    /// Components up to the pinned list's count — all of them when nothing
    /// is pinned.
    head: &'a [u8],
    /// The entries the pinned list keeps.
    entries: Option<&'a [PairRef<'a>]>,
    /// Components past the pinned list.
    tail: &'a [u8],
    /// [`mrsim::Rec::text_size`] of the tuple so pinned.
    text: u64,
}

impl<'a> Pinned<'a> {
    /// A tuple as it stands.
    fn whole(n: u32, comps: &'a [u8], text: u64) -> Self {
        Pinned { n, head: comps, entries: None, tail: &[], text }
    }

    /// Append the components: prefix bytes, the one re-encoded list, suffix
    /// bytes.
    fn write_comps(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(self.head);
        if let Some(entries) = self.entries {
            // No more entries than the count they were read under.
            put_count(buf, entries.len() as u32);
            for e in entries {
                buf.extend_from_slice(e.entry);
            }
        }
        buf.extend_from_slice(self.tail);
    }

    fn comps_len(&self) -> usize {
        let list = self.entries.map_or(0, |es| counted_len(es.iter().map(|e| e.entry.len()).sum()));
        self.head.len() + list + self.tail.len()
    }
}

/// Walk the cursor's next component for its nested text size alone.
fn component_text<'a>(
    cur: &mut TgCursor<'a>,
    lists: &mut Vec<ListRef>,
    pairs: &mut Vec<PairRef<'a>>,
) -> Result<u64, MrError> {
    lists.clear();
    pairs.clear();
    let comp = cur.component(lists, pairs)?;
    Ok(comp.subject.len() as u64 + 1 + added_text(pairs, &[]))
}

/// One encoded tuple as a join sees it through `component` under `role`:
/// the list the role pins, and the text bytes of everything it leaves
/// alone. The buffers are reused from tuple to tuple.
#[derive(Default)]
struct JoinView<'a> {
    /// The encoded tuple, its component count, and where the count ends.
    rec: &'a [u8],
    n: u32,
    comps_at: usize,
    /// The join component's subject.
    subject: &'a str,
    /// The list the role pins; `None` under [`JoinRole::Subject`], which
    /// pins nothing.
    pin: Option<ListRef>,
    /// Entries of the join component, the pinned list's among them.
    pairs: Vec<PairRef<'a>>,
    /// Sorted distinct pairs of the join component outside the pinned list.
    base: Vec<(&'a str, &'a str)>,
    /// Text bytes every pinned copy carries: the other components, and the
    /// join component's subject and `base`.
    fixed_text: u64,
    /// Scratch: the lists of the component being walked, and the entries of
    /// the components that are not the join component.
    lists: Vec<ListRef>,
    other: Vec<PairRef<'a>>,
}

impl<'a> JoinView<'a> {
    /// Walk `rec`, a whole encoded [`TgTuple`], for a join.
    fn load(&mut self, rec: &'a [u8], component: usize, role: JoinRole) -> Result<(), MrError> {
        let mut cur = TgCursor::new(rec);
        (self.rec, self.n) = (rec, cur.count()?);
        self.comps_at = cur.pos();
        self.fixed_text = 0;
        let mut join = None;
        for i in 0..self.n as usize {
            if i != component {
                self.fixed_text += component_text(&mut cur, &mut self.lists, &mut self.other)?;
                continue;
            }
            self.lists.clear();
            self.pairs.clear();
            let comp = cur.component(&mut self.lists, &mut self.pairs)?;
            let pin = match role {
                JoinRole::Subject => Ok(None),
                JoinRole::BoundObj(b) if b < comp.bound => Ok(Some(self.lists[b].clone())),
                JoinRole::UnboundObj(u) if u < comp.unbound => {
                    Ok(Some(self.lists[comp.bound + u].clone()))
                }
                _ => Err(MrError::Op("join list out of range".into())),
            };
            join = Some((comp, pin));
        }
        // A record the codec refuses is refused as such, whatever the plan
        // asked of it.
        cur.finish()?;
        let (comp, pin) = join.ok_or_else(|| MrError::Op("join component out of range".into()))?;
        (self.subject, self.pin) = (comp.subject, pin?);
        let pinned_at = self.pin.as_ref().map_or(0..0, |l| l.pairs.clone());
        self.base.clear();
        let unpinned = self.pairs.iter().enumerate().filter(|(i, _)| !pinned_at.contains(i));
        self.base.extend(unpinned.map(|(_, e)| (e.p, e.o)));
        sort_distinct(&mut self.base);
        let base_text: u64 = self.base.iter().map(|&(p, o)| pair_text(p, o)).sum();
        self.fixed_text += comp.subject.len() as u64 + 1 + base_text;
        Ok(())
    }

    /// Walk `rec` for a join that pins nothing in it.
    fn load_whole(&mut self, rec: &'a [u8]) -> Result<Pinned<'a>, MrError> {
        let mut cur = TgCursor::new(rec);
        let n = cur.count()?;
        let comps = cur.rest();
        let mut text = 0;
        for _ in 0..n {
            text += component_text(&mut cur, &mut self.lists, &mut self.other)?;
        }
        cur.finish()?;
        Ok(Pinned::whole(n, comps, text))
    }

    /// Entries of the pinned list (none under a subject join).
    fn candidates(&self) -> &[PairRef<'a>] {
        self.pin.as_ref().map_or(&[], |l| &self.pairs[l.pairs.clone()])
    }

    /// The tuple with the pinned list cut down to `entries`, which add
    /// `extra` text bytes to `base`.
    fn pinned<'v>(&'v self, entries: &'v [PairRef<'a>], extra: u64) -> Pinned<'v> {
        // Every offset is the cursor's own.
        let text = self.fixed_text + extra;
        match &self.pin {
            None => Pinned::whole(self.n, &self.rec[self.comps_at..], text),
            Some(l) => Pinned {
                n: self.n,
                head: &self.rec[self.comps_at..l.count_at],
                entries: Some(entries),
                tail: &self.rec[l.end..],
                text,
            },
        }
    }

    /// The full unnest of the pinned position, in record order: one copy
    /// per candidate under its object, or the tuple itself under its
    /// subject.
    fn unnest(&self) -> impl Iterator<Item = (&'a str, Pinned<'_>)> {
        let whole = self.pin.is_none().then(|| (self.subject, self.pinned(&[], 0)));
        let each = self.candidates().iter().map(|e| {
            // A candidate that repeats a pair `base` stores already adds
            // no bytes (set semantics).
            let extra = match self.base.binary_search(&(e.p, e.o)) {
                Ok(_) => 0,
                Err(_) => pair_text(e.p, e.o),
            };
            (e.o, self.pinned(std::slice::from_ref(e), extra))
        });
        whole.into_iter().chain(each)
    }
}

/// The joined tuple: count, left components, right components.
fn joined(left: &Pinned<'_>, right: &Pinned<'_>) -> Result<(Vec<u8>, u64), MrError> {
    let n =
        left.n.checked_add(right.n).ok_or_else(|| MrError::Op("joined tuple too long".into()))?;
    let mut buf = Vec::with_capacity(counted_len(left.comps_len() + right.comps_len()));
    put_count(&mut buf, n);
    left.write_comps(&mut buf);
    right.write_comps(&mut buf);
    Ok((buf, left.text + right.text))
}

/// Count one tuple's β-unnest into `width` copies.
fn count_unnest(ctx: &TaskContext, width: u64) {
    ctx.count(op::UNNEST_IN, 1);
    // One count per input tuple. Even a zero delta creates the counter,
    // which an empty expansion must not.
    if width > 0 {
        ctx.count(op::UNNEST_OUT, width);
    }
}

/// Build side of a hash join: pinned tuples by join key, their components
/// spelled out in one arena.
pub struct BuildTable<K> {
    arena: Vec<u8>,
    by_key: DetHashMap<K, Vec<Built>>,
}

struct Built {
    n: u32,
    comps: Range<usize>,
    text: u64,
}

impl<K> Default for BuildTable<K> {
    fn default() -> Self {
        BuildTable { arena: Vec::new(), by_key: DetHashMap::default() }
    }
}

impl<K: Borrow<str> + Hash + Eq> BuildTable<K> {
    fn add(&mut self, key: K, pinned: &Pinned<'_>) {
        let start = self.arena.len();
        pinned.write_comps(&mut self.arena);
        let built = Built { n: pinned.n, comps: start..self.arena.len(), text: pinned.text };
        self.by_key.entry(key).or_default().push(built);
    }

    /// The tuples added under `key`, in the order they were added. The map
    /// is only ever probed by key, never iterated, so its deterministic
    /// FNV hashing leaves output bytes alone — it just keeps SipHash's
    /// random seeding off the hot join path.
    fn probe(&self, key: &str) -> impl Iterator<Item = Pinned<'_>> {
        let built = self.by_key.get(key).into_iter().flatten();
        built.map(|b| Pinned::whole(b.n, &self.arena[b.comps.clone()], b.text))
    }
}

/// Map side of [`tg_join_job`] for one input: tags each tuple with its
/// side and ships it under its join key — as it stands for a subject
/// join, once per pinned object for a bound-object join, and for an
/// unbound-object join β-unnested fully ([`UnnestMode::Exact`]) or to
/// `φ_m` granularity ([`UnnestMode::Partial`]).
pub struct JoinMap {
    /// Side tag: 0 for the left input, 1 for the right.
    pub side: u64,
    /// Where the join variable sits in this input's tuples.
    pub spec: JoinSide,
    /// Unnest placement.
    pub mode: UnnestMode,
}

impl JoinMap {
    /// Map one encoded [`TgTuple`]: `emit(key, text, write_value)` once per
    /// shuffle record, in emission order — the key an encoded token, `text`
    /// the row's simulated size, `write_value` appending the encoded
    /// `(side, tuple)` value to the buffer it is given.
    pub fn expand(
        &self,
        ctx: &TaskContext,
        rec: &[u8],
        mut emit: impl FnMut(&[u8], u64, &dyn Fn(&mut Vec<u8>)),
    ) -> Result<(), MrError> {
        let mut view = JoinView::default();
        view.load(rec, self.spec.component, self.spec.role)?;
        let unbound = matches!(self.spec.role, JoinRole::UnboundObj(_));
        let mut key = Vec::new();
        let mut ship = |key: &[u8], pinned: &Pinned<'_>| {
            // The row is `key \t side \t tuple \n`, the side one digit.
            emit(key, token_key_text(key) + 1 + pinned.text, &|value| {
                put_tag(value, self.side);
                put_count(value, pinned.n);
                pinned.write_comps(value);
            });
        };
        match self.mode {
            UnnestMode::Exact => {
                if unbound {
                    count_unnest(ctx, view.candidates().len() as u64);
                }
                for (k, pinned) in view.unnest() {
                    key.clear();
                    put_token(&mut key, k);
                    ship(&key, &pinned);
                }
            }
            UnnestMode::Partial(m) => {
                if unbound {
                    ctx.count(op::PARTIAL_IN, 1);
                    ctx.count(op::PARTIAL_CANDIDATES, view.candidates().len() as u64);
                    // What the full unnest would have shipped, without
                    // materializing the expansion this path avoids.
                    let expanded = view.unnest().map(|(_, pinned)| pinned.text).sum();
                    ctx.count(op::PARTIAL_EXPANDED_BYTES, expanded);
                }
                if view.pin.is_none() {
                    put_decimal_token(&mut key, phi(view.subject, m));
                    ship(&key, &view.pinned(&[], 0));
                    return Ok(());
                }
                // One copy per φ-partition, in partition order; a
                // partition's entries keep their record order.
                let mut entries = view.candidates().to_vec();
                entries.sort_by_cached_key(|e| phi(e.o, m));
                let mut sorted = Vec::new();
                let (mut shipped, mut nested_bytes) = (0u64, 0u64);
                for part in entries.chunk_by(|a, b| phi(a.o, m) == phi(b.o, m)) {
                    sorted.clear();
                    sorted.extend_from_slice(part);
                    let pinned = view.pinned(part, added_text(&mut sorted, &view.base));
                    key.clear();
                    put_decimal_token(&mut key, phi(part[0].o, m));
                    ship(&key, &pinned);
                    shipped += 1;
                    nested_bytes += pinned.text;
                }
                if unbound && shipped > 0 {
                    ctx.count(op::PARTIAL_OUT, shipped);
                    ctx.count(op::PARTIAL_NESTED_BYTES, nested_bytes);
                }
            }
        }
        Ok(())
    }
}

impl RawMapOp for JoinMap {
    fn run(&self, ctx: &TaskContext, record: &[u8], out: &mut MapEmitter) -> Result<(), MrError> {
        self.expand(ctx, record, |key, text, write| out.emit_raw_with(key, text, write))
    }
}

/// Reduce side of [`tg_join_job`]: a cross join of the two sides of one
/// key group ([`UnnestMode::Exact`] — every value shares the join key), or
/// Algorithm 3's finish of the unnest and hash join on the real key within
/// a `φ_m` partition ([`UnnestMode::Partial`]).
pub struct JoinReduce {
    /// Unnest placement of the map side.
    pub mode: UnnestMode,
    /// Where the join variable sits in the left tuples.
    pub left: JoinSide,
    /// Where it sits in the right tuples.
    pub right: JoinSide,
}

impl JoinReduce {
    /// Join one key group of encoded `(side, tuple)` values:
    /// `emit(record, text)` once per joined [`TgTuple`], left components
    /// then right components with the joined positions pinned.
    ///
    /// A group with one side empty joins nothing and returns once the side
    /// tags are read: the shuffle seal has verified those values' bytes,
    /// and nothing here would use them.
    pub fn join(
        &self,
        values: &[&[u8]],
        mut emit: impl FnMut(Vec<u8>, u64) -> Result<(), MrError>,
    ) -> Result<(), MrError> {
        let (mut lefts, mut rights) = (Vec::new(), Vec::new());
        for value in values {
            let (side, rec) = split_tag(value)?;
            match (self.mode, side) {
                (_, 0) => lefts.push(rec),
                (UnnestMode::Exact, _) | (_, 1) => rights.push(rec),
                _ => {}
            }
        }
        if lefts.is_empty() || rights.is_empty() {
            return Ok(());
        }
        let mut view = JoinView::default();
        match self.mode {
            UnnestMode::Exact => {
                let rights: Vec<Pinned<'_>> =
                    rights.iter().map(|rec| view.load_whole(rec)).collect::<Result<_, _>>()?;
                for rec in lefts {
                    let left = view.load_whole(rec)?;
                    for right in &rights {
                        let (record, text) = joined(&left, right)?;
                        emit(record, text)?;
                    }
                }
            }
            UnnestMode::Partial(_) => {
                let mut table: BuildTable<&str> = BuildTable::default();
                for rec in rights {
                    view.load(rec, self.right.component, self.right.role)?;
                    for (key, pinned) in view.unnest() {
                        table.add(key, &pinned);
                    }
                }
                for rec in lefts {
                    view.load(rec, self.left.component, self.left.role)?;
                    for (key, left) in view.unnest() {
                        for right in table.probe(key) {
                            let (record, text) = joined(&left, &right)?;
                            emit(record, text)?;
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

impl RawReduceOp for JoinReduce {
    fn run(
        &self,
        _ctx: &TaskContext,
        _key: &[u8],
        values: &[&[u8]],
        out: &mut OutEmitter,
    ) -> Result<(), MrError> {
        self.join(values, |record, text| out.emit_raw(record, text))
    }
}

/// Build the join job between two equivalence-class relations.
///
/// Output records are [`TgTuple`]s: left components followed by right
/// components, with the joined positions pinned to the matching values.
pub fn tg_join_job(
    name: impl Into<String>,
    left: JoinSide,
    right: JoinSide,
    mode: UnnestMode,
    output: impl Into<String>,
) -> JobSpec {
    let input = |side, spec: &JoinSide| InputBinding {
        file: spec.file.clone(),
        mapper: Arc::new(JoinMap { side, spec: spec.clone(), mode }),
    };
    let inputs = vec![input(0, &left), input(1, &right)];
    JobSpec::map_reduce(name, inputs, Arc::new(JoinReduce { mode, left, right }), REDUCERS, output)
}

// ---------------------------------------------------------------------------
// Map-side broadcast join (TG_BcastJoin)
// ---------------------------------------------------------------------------

/// Which side of a broadcast join ships through the distributed cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildSide {
    /// The left relation is broadcast; the right streams through the map.
    Left,
    /// The right relation is broadcast; the left streams through the map.
    Right,
}

/// The map-only operator of [`tg_broadcast_join_job`]: probes a hash table
/// of the broadcast relation with each tuple streaming through the map.
pub struct BroadcastJoin {
    /// Which of the join's relations is broadcast.
    pub side: BuildSide,
    /// Where the join variable sits in the broadcast tuples.
    pub build: JoinSide,
    /// Where it sits in the streaming tuples.
    pub probe: JoinSide,
}

impl BroadcastJoin {
    /// The build side's hash table, from the broadcast file's encoded
    /// [`TgTuple`] records: each one's full unnest of the join position,
    /// by join key.
    pub fn build_table<'a>(
        &self,
        records: impl IntoIterator<Item = &'a [u8]>,
    ) -> Result<BuildTable<Box<str>>, MrError> {
        let mut table = BuildTable::default();
        let mut view = JoinView::default();
        for rec in records {
            view.load(rec, self.build.component, self.build.role)?;
            for (key, pinned) in view.unnest() {
                table.add(key.into(), &pinned);
            }
        }
        Ok(table)
    }

    /// Probe `table` with one encoded streaming tuple: `emit(record, text)`
    /// once per joined [`TgTuple`].
    pub fn probe(
        &self,
        ctx: &TaskContext,
        table: &BuildTable<Box<str>>,
        rec: &[u8],
        mut emit: impl FnMut(Vec<u8>, u64) -> Result<(), MrError>,
    ) -> Result<(), MrError> {
        let mut view = JoinView::default();
        view.load(rec, self.probe.component, self.probe.role)?;
        if let JoinRole::UnboundObj(_) = self.probe.role {
            count_unnest(ctx, view.candidates().len() as u64);
        }
        for (key, probe) in view.unnest() {
            for built in table.probe(key) {
                // Reduce-side joins emit left components then right
                // components; preserve that regardless of which side was
                // broadcast.
                let (record, text) = match self.side {
                    BuildSide::Left => joined(&built, &probe)?,
                    BuildSide::Right => joined(&probe, &built)?,
                };
                emit(record, text)?;
            }
        }
        Ok(())
    }
}

impl RawMapOnlyOp for BroadcastJoin {
    fn run(&self, ctx: &TaskContext, record: &[u8], out: &mut OutEmitter) -> Result<(), MrError> {
        let table = ctx.task_state(|| self.build_table(ctx.broadcast(0)?.iter()))?;
        self.probe(ctx, &table, record, |record, text| out.emit_raw(record, text))
    }
}

/// Build a **map-side** join job: the build relation ships to every map
/// task through the engine's distributed cache ([`JobSpec::with_broadcast`])
/// and the probe relation streams through a map-only scan — no shuffle, no
/// reduce phase, an entire MR cycle collapsed.
///
/// Each map task lazily materializes the build side's hash table once (via
/// [`TaskContext::task_state`], the simulated `Mapper.setup()`), keyed by
/// the same unnest the reduce-side join uses, so output records are
/// exactly the [`tg_join_job`]-`Exact` records: left components then right
/// components with the joined positions pinned.
/// Map-only output is concatenated in input order, so the result is
/// byte-identical across worker counts; only record *order* may differ
/// from the reduce-side plan (which orders by shuffle key).
///
/// Unnest counters ([`op::UNNEST_IN`]/[`op::UNNEST_OUT`]) are recorded for
/// the probe side only: build-side expansion happens once per map task,
/// and per-task counts would break the cross-worker-count stability that
/// operator counters guarantee.
///
/// The engine refuses the job with [`MrError::BroadcastTooLarge`] when the
/// build file exceeds its broadcast budget — the same bound the cost-based
/// optimizer uses as its broadcast threshold, so a plan the optimizer
/// emits always fits.
pub fn tg_broadcast_join_job(
    name: impl Into<String>,
    left: JoinSide,
    right: JoinSide,
    side: BuildSide,
    output: impl Into<String>,
) -> JobSpec {
    let (build, probe) = match side {
        BuildSide::Left => (left, right),
        BuildSide::Right => (right, left),
    };
    let (build_file, probe_file) = (build.file.clone(), probe.file.clone());
    let mapper = Arc::new(BroadcastJoin { side, build, probe });
    JobSpec::map_only(name, vec![probe_file], mapper, output).with_broadcast(build_file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::beta_unnest_at;
    use crate::tg::TgTuple;
    use mr_rdf::load_store;
    use mrsim::{ClusterConfig, Engine, Rec};
    use rdf_model::{STriple, TripleStore};

    fn store() -> TripleStore {
        TripleStore::from_triples(vec![
            STriple::new("<g1>", "<label>", "\"a\""),
            STriple::new("<g1>", "<xGO>", "<go1>"),
            STriple::new("<g1>", "<xGO>", "<go2>"),
            STriple::new("<g1>", "<syn>", "\"s\""),
            STriple::new("<g2>", "<label>", "\"b\""),
            STriple::new("<go1>", "<gl>", "\"nucleus\""),
            STriple::new("<go2>", "<gl>", "\"membrane\""),
        ])
    }

    fn unbound_query() -> Query {
        rdf_query::parse_query("SELECT * WHERE { ?g <label> ?l . ?g ?p ?go . ?go <gl> ?x . }")
            .unwrap()
    }

    fn run_job1(eager: bool) -> (Engine, Query) {
        run_job1_on(Engine::unbounded(), eager)
    }

    /// Job 1 of [`unbound_query`] over [`store`] on `engine`.
    fn run_job1_on(engine: Engine, eager: bool) -> (Engine, Query) {
        load_store(&engine, "t", &store()).unwrap();
        let query = unbound_query();
        let job =
            group_filter_job("job1", &query, "t", vec!["ec0".into(), "ec1".into()], vec![eager; 2])
                .unwrap();
        engine.run_job(&job).unwrap();
        (engine, query)
    }

    #[test]
    fn job1_lazy_emits_one_anntg_per_matching_subject() {
        let (engine, _) = run_job1(false);
        let ec0: Vec<TgTuple> = engine.read_records("ec0").unwrap();
        let ec1: Vec<TgTuple> = engine.read_records("ec1").unwrap();
        // Star 0 (label + unbound): g1 and g2 qualify. go1/go2 lack label.
        assert_eq!(ec0.len(), 2);
        // Star 1 (gl): go1, go2.
        assert_eq!(ec1.len(), 2);
        // g1's AnnTG has all 4 pairs as unbound candidates.
        let g1 = ec0.iter().find(|t| &*t.0[0].subject == "<g1>").unwrap();
        assert_eq!(g1.0[0].unbound[0].len(), 4);
    }

    #[test]
    fn job1_eager_materializes_perfect_tgs() {
        let (engine, _) = run_job1(true);
        let ec0: Vec<TgTuple> = engine.read_records("ec0").unwrap();
        // g1: 4 candidates -> 4 perfect TGs; g2: 1 -> 1.
        assert_eq!(ec0.len(), 5);
        for t in &ec0 {
            assert_eq!(t.0[0].unbound[0].len(), 1);
        }
    }

    #[test]
    fn job1_refuses_outputs_or_placements_that_do_not_match_the_stars() {
        let query = unbound_query();
        let starless = Query::new(Vec::new());
        let outs = |n: usize| (0..n).map(|i| format!("ec{i}")).collect::<Vec<_>>();
        for (query, outputs, eager) in [(&query, 1, 2), (&query, 2, 1), (&starless, 0, 0)] {
            let job = group_filter_job("job1", query, "t", outs(outputs), vec![false; eager]);
            assert!(matches!(job, Err(PlanError::Internal(_))), "{outputs} outputs, {eager} eager");
        }
    }

    #[test]
    fn eager_output_is_larger_than_lazy() {
        let (engine_l, _) = run_job1(false);
        let lazy_bytes = engine_l.hdfs().lock().get("ec0").unwrap().text_bytes;
        let (engine_e, _) = run_job1(true);
        let eager_bytes = engine_e.hdfs().lock().get("ec0").unwrap().text_bytes;
        assert!(eager_bytes > lazy_bytes, "eager {eager_bytes} <= lazy {lazy_bytes}");
    }

    #[test]
    fn role_detection() {
        let q = unbound_query();
        assert_eq!(role_of(&q.stars[0], "g"), Some(JoinRole::Subject));
        assert_eq!(role_of(&q.stars[0], "l"), Some(JoinRole::BoundObj(0)));
        assert_eq!(role_of(&q.stars[0], "go"), Some(JoinRole::UnboundObj(0)));
        assert_eq!(role_of(&q.stars[1], "go"), Some(JoinRole::Subject));
        assert_eq!(role_of(&q.stars[0], "zz"), None);
    }

    fn join_and_expand(mode: UnnestMode, eager: bool) -> rdf_query::SolutionSet {
        let (engine, query) = run_job1(eager);
        let job = tg_join_job(
            "join",
            JoinSide { file: "ec0".into(), component: 0, role: JoinRole::UnboundObj(0) },
            JoinSide { file: "ec1".into(), component: 0, role: JoinRole::Subject },
            mode,
            "out",
        );
        engine.run_job(&job).unwrap();
        solutions(&engine, &query)
    }

    /// The solutions of the joined tuples in `out`, through the production
    /// final-unnest kernel.
    fn solutions(engine: &Engine, query: &Query) -> rdf_query::SolutionSet {
        let vars = query.solution_vars();
        let mut unnest = crate::FinalUnnest::new(query, &[0, 1], &vars).unwrap();
        let mut rows = rdf_query::SolutionRows::new(vars);
        for record in engine.hdfs().lock().get("out").unwrap().iter() {
            unnest.add_rows(record, &mut rows).unwrap();
        }
        rows.finish()
    }

    #[test]
    fn join_modes_agree_with_naive() {
        let gold = rdf_query::naive::evaluate(&unbound_query(), &store());
        assert!(!gold.is_empty());
        for (mode, eager) in [
            (UnnestMode::Exact, false),
            (UnnestMode::Exact, true),
            (UnnestMode::Partial(1), false),
            (UnnestMode::Partial(2), false),
            (UnnestMode::Partial(64), false),
        ] {
            let got = join_and_expand(mode, eager);
            assert_eq!(got, gold, "mode {mode:?} eager {eager}");
        }
    }

    #[test]
    fn partial_mode_shrinks_map_output() {
        // With many candidates per subject, φ_2 caps map output per TG at
        // 2 records instead of one per candidate.
        let mut s = store();
        for i in 3..40 {
            s.insert(STriple::new("<g1>", "<xRef>", format!("<r{i}>")));
        }
        let engine = Engine::unbounded();
        load_store(&engine, "t", &s).unwrap();
        let query = unbound_query();
        let job1 =
            group_filter_job("j1", &query, "t", vec!["ec0".into(), "ec1".into()], vec![false; 2])
                .unwrap();
        engine.run_job(&job1).unwrap();
        let mk_join = |mode, out: &str| {
            tg_join_job(
                format!("join-{out}"),
                JoinSide { file: "ec0".into(), component: 0, role: JoinRole::UnboundObj(0) },
                JoinSide { file: "ec1".into(), component: 0, role: JoinRole::Subject },
                mode,
                out,
            )
        };
        let full = engine.run_job(&mk_join(UnnestMode::Exact, "of")).unwrap();
        let partial = engine.run_job(&mk_join(UnnestMode::Partial(2), "op")).unwrap();
        assert!(
            partial.map_output_bytes < full.map_output_bytes,
            "partial {} >= full {}",
            partial.map_output_bytes,
            full.map_output_bytes
        );
    }

    #[test]
    fn group_filter_records_operator_counters() {
        // Add a subject matching neither star: shipped by the map-side
        // filter (the unbound pattern accepts any triple) but dropped by
        // TG_UnbGrpFilter.
        let mut s = store();
        s.insert(STriple::new("<x1>", "<syn>", "\"t\""));
        let engine = Engine::unbounded();
        load_store(&engine, "t", &s).unwrap();
        let query = unbound_query();
        let job =
            group_filter_job("j1", &query, "t", vec!["e0".into(), "e1".into()], vec![true; 2])
                .unwrap();
        let ops = engine.run_job(&job).unwrap().ops;
        assert_eq!(ops.get(op::GROUPS_IN), 5); // g1 g2 go1 go2 x1
        assert_eq!(ops.get(op::PAIRS_IN), 8);
        assert_eq!(ops.get(op::ADMITTED), 4); // g1,g2 star0; go1,go2 star1
        assert_eq!(ops.get(op::DROPPED), 1); // x1
        assert_eq!(ops.get(op::UNNEST_IN), 4);
        // g1: 4 candidates; g2: 1; go1/go2 have no unbound list (identity).
        assert_eq!(ops.get(op::UNNEST_OUT), 7);

        // Lazy run admits the same groups but never unnests.
        let engine = Engine::unbounded();
        load_store(&engine, "t", &s).unwrap();
        let job =
            group_filter_job("j1", &query, "t", vec!["e0".into(), "e1".into()], vec![false; 2])
                .unwrap();
        let ops = engine.run_job(&job).unwrap().ops;
        assert_eq!(ops.get(op::ADMITTED), 4);
        assert_eq!(ops.get(op::UNNEST_IN), 0);
        assert_eq!(ops.get(op::UNNEST_OUT), 0);
    }

    #[test]
    fn join_counters_track_unnest_and_partial_bytes() {
        // Many candidates per subject so φ_2 visibly compresses.
        let mut s = store();
        for i in 3..40 {
            s.insert(STriple::new("<g1>", "<xRef>", format!("<r{i}>")));
        }
        let engine = Engine::unbounded();
        load_store(&engine, "t", &s).unwrap();
        let query = unbound_query();
        let job1 =
            group_filter_job("j1", &query, "t", vec!["ec0".into(), "ec1".into()], vec![false; 2])
                .unwrap();
        engine.run_job(&job1).unwrap();
        let mk_join = |mode, out: &str| {
            tg_join_job(
                format!("join-{out}"),
                JoinSide { file: "ec0".into(), component: 0, role: JoinRole::UnboundObj(0) },
                JoinSide { file: "ec1".into(), component: 0, role: JoinRole::Subject },
                mode,
                out,
            )
        };
        let exact = engine.run_job(&mk_join(UnnestMode::Exact, "of")).unwrap();
        // g1 has 4 + 37 = 41 candidates, g2 has 1; the subject side of the
        // join records no unnest counters.
        assert_eq!(exact.ops.get(op::UNNEST_IN), 2);
        assert_eq!(exact.ops.get(op::UNNEST_OUT), 42);
        assert_eq!(exact.ops.get(op::PARTIAL_IN), 0);

        let partial = engine.run_job(&mk_join(UnnestMode::Partial(2), "op")).unwrap();
        let ops = &partial.ops;
        assert_eq!(ops.get(op::PARTIAL_IN), 2);
        assert_eq!(ops.get(op::PARTIAL_CANDIDATES), 42);
        assert!(ops.get(op::PARTIAL_OUT) <= 4, "≤ φ_2 partitions per tuple");
        assert!(ops.get(op::PARTIAL_OUT) < ops.get(op::PARTIAL_CANDIDATES));
        // The nested representation crossing the shuffle is smaller than
        // what the full unnest would have shipped — the paper's savings,
        // now visible as a counter.
        let nested = ops.get(op::PARTIAL_NESTED_BYTES);
        let expanded = ops.get(op::PARTIAL_EXPANDED_BYTES);
        assert!(nested > 0);
        assert!(nested < expanded, "nested {nested} >= expanded {expanded}");
        assert_eq!(ops.get(op::UNNEST_IN), 0);
    }

    #[test]
    fn expanded_bytes_match_materialized_unnest() {
        // The arithmetic expansion accounting must agree byte-for-byte
        // with actually materializing every pinned record.
        let mut s = store();
        for i in 3..12 {
            s.insert(STriple::new("<g1>", "<xRef>", format!("<r{i}>")));
        }
        let engine = Engine::unbounded();
        load_store(&engine, "t", &s).unwrap();
        let query = unbound_query();
        let job1 =
            group_filter_job("j1", &query, "t", vec!["ec0".into(), "ec1".into()], vec![false; 2])
                .unwrap();
        engine.run_job(&job1).unwrap();
        let (left, _) = ec_sides();
        let map = JoinMap { side: 0, spec: left, mode: UnnestMode::Partial(2) };
        let tuples: Vec<TgTuple> = engine.read_records("ec0").unwrap();
        for tuple in &tuples {
            let materialized: u64 = beta_unnest_at(&tuple.0[0], JoinRole::UnboundObj(0))
                .into_iter()
                .map(|(_, pinned)| TgTuple(vec![pinned]).text_size())
                .sum();
            let ctx = TaskContext::new();
            map.expand(&ctx, &tuple.to_bytes(), |_, _, _| {}).unwrap();
            assert_eq!(ctx.take_counters().get(op::PARTIAL_EXPANDED_BYTES), materialized);
        }
    }

    #[test]
    fn phi_is_deterministic_and_bounded() {
        for m in [1u64, 2, 1000] {
            for key in ["<a>", "<b>", "\"literal\""] {
                let k = phi(key, m);
                assert!(k < m);
                assert_eq!(k, phi(key, m));
            }
        }
    }

    fn ec_sides() -> (JoinSide, JoinSide) {
        (
            JoinSide { file: "ec0".into(), component: 0, role: JoinRole::UnboundObj(0) },
            JoinSide { file: "ec1".into(), component: 0, role: JoinRole::Subject },
        )
    }

    #[test]
    fn broadcast_join_matches_reduce_join_across_workers() {
        // Reference: the reduce-side exact join, decoded and sorted.
        let (engine, _) = run_job1(false);
        let (left, right) = ec_sides();
        let job = tg_join_job("join", left.clone(), right.clone(), UnnestMode::Exact, "out");
        engine.run_job(&job).unwrap();
        let mut gold: Vec<TgTuple> = engine.read_records("out").unwrap();
        gold.sort_by_cached_key(Rec::to_bytes);
        assert!(!gold.is_empty());

        for build in [BuildSide::Left, BuildSide::Right] {
            let mut raw_outputs: Vec<Vec<Vec<u8>>> = Vec::new();
            for workers in [1usize, 4, 8] {
                let engine = Engine::new(ClusterConfig::default().with_workers(workers)).unwrap();
                load_store(&engine, "t", &store()).unwrap();
                let q = unbound_query();
                let j1 = group_filter_job(
                    "j1",
                    &q,
                    "t",
                    vec!["ec0".into(), "ec1".into()],
                    vec![false; 2],
                )
                .unwrap();
                engine.run_job(&j1).unwrap();
                let bj = tg_broadcast_join_job("bjoin", left.clone(), right.clone(), build, "out");
                let stats = engine.run_job(&bj).unwrap();
                // An entire shuffle+reduce cycle is elided.
                assert_eq!(stats.reduce_tasks, 0, "map-only job (build {build:?})");
                assert_eq!(stats.broadcast_files, 1);
                let build_file = match build {
                    BuildSide::Left => &left.file,
                    BuildSide::Right => &right.file,
                };
                assert_eq!(
                    stats.broadcast_bytes,
                    engine.hdfs().lock().get(build_file).unwrap().text_bytes
                );
                assert_eq!(stats.check_invariants(), Ok(()));
                let mut got: Vec<TgTuple> = engine.read_records("out").unwrap();
                got.sort_by_cached_key(Rec::to_bytes);
                assert_eq!(got, gold, "build {build:?} workers {workers}");
                let out = engine.hdfs().lock().get("out").unwrap();
                raw_outputs.push(out.iter().map(<[u8]>::to_vec).collect::<Vec<_>>());
            }
            // Unsorted too: map-only output is concatenated in input order,
            // so the file is byte-identical across worker counts.
            assert_eq!(raw_outputs[0], raw_outputs[1], "build {build:?} workers 1 vs 4");
            assert_eq!(raw_outputs[0], raw_outputs[2], "build {build:?} workers 1 vs 8");
        }
    }

    #[test]
    fn broadcast_join_survives_task_faults() {
        let (engine, _) = run_job1(false);
        let (left, right) = ec_sides();
        engine
            .run_job(&tg_join_job("join", left.clone(), right.clone(), UnnestMode::Exact, "out"))
            .unwrap();
        let mut gold: Vec<TgTuple> = engine.read_records("out").unwrap();
        gold.sort_by_cached_key(Rec::to_bytes);

        let engine = Engine::new(
            ClusterConfig::default()
                .with_workers(4)
                .with_faults(mrsim::FaultConfig::with_probability(0.3, 42)),
        )
        .unwrap();
        load_store(&engine, "t", &store()).unwrap();
        let q = unbound_query();
        let j1 = group_filter_job("j1", &q, "t", vec!["ec0".into(), "ec1".into()], vec![false; 2]);
        engine.run_job(&j1.unwrap()).unwrap();
        let stats = engine
            .run_job(&tg_broadcast_join_job("bjoin", left, right, BuildSide::Right, "out"))
            .unwrap();
        let mut got: Vec<TgTuple> = engine.read_records("out").unwrap();
        got.sort_by_cached_key(Rec::to_bytes);
        assert_eq!(got, gold, "retried tasks must not duplicate or drop records");
        assert_eq!(stats.broadcast_files, 1);
    }

    #[test]
    fn broadcast_join_agrees_with_naive_evaluation() {
        let gold = rdf_query::naive::evaluate(&unbound_query(), &store());
        let (engine, query) = run_job1(false);
        let (left, right) = ec_sides();
        engine
            .run_job(&tg_broadcast_join_job("bjoin", left, right, BuildSide::Right, "out"))
            .unwrap();
        assert_eq!(solutions(&engine, &query), gold);
    }

    #[test]
    fn broadcast_join_over_budget_is_refused() {
        let config = ClusterConfig { broadcast_budget_bytes: 4, ..Default::default() };
        let (engine, _) = run_job1_on(Engine::new(config).unwrap(), false);
        let (left, right) = ec_sides();
        let err = engine
            .run_job(&tg_broadcast_join_job("bjoin", left, right, BuildSide::Right, "out"))
            .unwrap_err();
        assert!(matches!(err, MrError::BroadcastTooLarge { .. }), "unexpected error: {err:?}");
    }
}
