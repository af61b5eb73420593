//! Physical NTGA operators on MapReduce (Section 4, Algorithms 1–3).
//!
//! * [`group_filter_job`] — **Job 1**: `TG_GroupBy` (map tags triples by
//!   subject) + `TG_UnbGrpFilter` (reduce builds subject triplegroups and
//!   matches them against every star subpattern at once — the single
//!   grouping cycle that computes ALL star joins). Where `eager[i]` is set
//!   the reduce additionally β-unnests star `i` (all stars: the paper's
//!   **EagerUnnest**); otherwise annotated triplegroups stay nested
//!   (**LazyUnnest**).
//! * [`tg_join_job`] — **Job 2**: join between two triplegroup equivalence
//!   classes. The map side evaluates the join role of each side:
//!   subject joins ship the triplegroup as-is; bound-object joins pin the
//!   join object; unbound-object joins β-unnest **lazily at the map of
//!   this cycle** — fully (`TG_UnbJoin`, [`UnnestMode::Exact`]) or
//!   partially to reducer-partition granularity (`TG_OptUnbJoin`,
//!   [`UnnestMode::Partial`], Algorithm 3) with the reduce side finishing
//!   the unnest and hash-joining on the real key.

use crate::logical::{match_star, partial_beta_unnest, TripleGroup};
use crate::tg::{AnnTg, TgTuple};
use mr_rdf::{IdPair, IdStarTest, IdTripleRec, TripleRec};
use mrsim::{
    map_fn, map_fn_ctx, map_only_fn_ctx, reduce_fn, reduce_fn_ctx, InputBinding, JobSpec, MrError,
    Rec, TaskContext, TypedMapEmitter, TypedOutEmitter, VarId,
};
use rdf_model::atom::{atom, fnv1a, Atom};
use rdf_model::hash::DetHashMap;
use rdf_model::Dictionary;
use rdf_query::{Query, StarPattern};
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
    /// Distribution metric (a log2 histogram recorded through
    /// [`mrsim::TaskContext::record`], not a counter): the per-group width
    /// of each β-unnest — how many perfect triplegroups one annotated
    /// triplegroup expands into. Only populated when the engine profiles
    /// (`Engine::with_profiling`); surfaces on `JobStats::metrics` with
    /// p50/p95/p99 so unnest fanout tails are visible, not just the
    /// [`UNNEST_OUT`]/[`UNNEST_IN`] mean.
    pub const UNNEST_WIDTH: &str = "ntga.unnest.width";
}

/// The partition function `φ_m` over a join-key token.
pub fn phi(key: &str, m: u64) -> u64 {
    fnv1a(key.as_bytes()) % m.max(1)
}

// ---------------------------------------------------------------------------
// Job 1: TG_GroupBy + TG_UnbGrpFilter (+ optional eager β-unnest)
// ---------------------------------------------------------------------------

/// `TG_UnbGrpFilter` over one subject's triplegroup, plus the eager μ^β of
/// the stars the plan unnests in Job 1 — the reduce-side operator both
/// Job 1 planes share. Admissions to star `i` go to output `i`.
fn group_filter(
    ctx: &TaskContext,
    tg: &TripleGroup,
    stars: &[StarPattern],
    eager: &[bool],
    out: &mut TypedOutEmitter<'_, TgTuple>,
) -> Result<(), MrError> {
    ctx.count(op::GROUPS_IN, 1);
    ctx.count(op::PAIRS_IN, tg.pairs.len() as u64);
    let mut admitted = 0u64;
    for (i, star) in stars.iter().enumerate() {
        if let Some(ann) = match_star(tg, star, i as u64) {
            admitted += 1;
            if eager[i] {
                ctx.count(op::UNNEST_IN, 1);
                let perfects = crate::logical::beta_unnest(&ann);
                ctx.record(op::UNNEST_WIDTH, perfects.len() as u64);
                for perfect in perfects {
                    ctx.count(op::UNNEST_OUT, 1);
                    out.emit_to(i, &TgTuple(vec![perfect]))?;
                }
            } else {
                out.emit_to(i, &TgTuple(vec![ann]))?;
            }
        }
    }
    ctx.count(op::ADMITTED, admitted);
    if admitted == 0 {
        ctx.count(op::DROPPED, 1);
    }
    Ok(())
}

/// Job 1's shape on either plane: one full scan of `input`, one output
/// per star.
fn job1_spec(
    name: impl Into<String>,
    input: &str,
    mapper: Arc<dyn mrsim::RawMapOp>,
    reducer: Arc<dyn mrsim::RawReduceOp>,
    outputs: Vec<String>,
) -> JobSpec {
    let mut outs = outputs.into_iter();
    let first = outs.next().expect("at least one star");
    let inputs = vec![InputBinding { file: input.to_string(), mapper }];
    let spec = JobSpec::map_reduce(name, inputs, reducer, REDUCERS, first).with_full_scan();
    outs.fold(spec, JobSpec::with_extra_output)
}

/// Build Job 1 for a query: one full scan computes every star subpattern.
///
/// The job writes one output per star: `outputs[i]` holds the annotated
/// triplegroups of equivalence class `i` (wrapped as single-component
/// [`TgTuple`]s). `eager[i]` says whether that class is β-unnested in the
/// reduce (eager) or left nested (lazy): the hand-picked strategies set
/// all or none, the cost-based optimizer unnests stars whose triplegroups
/// carry no redundancy (no multi-valued or unbound candidates) while
/// keeping expansive stars nested.
pub fn group_filter_job(
    name: impl Into<String>,
    query: &Query,
    input: &str,
    outputs: Vec<String>,
    eager: Vec<bool>,
) -> JobSpec {
    assert_eq!(outputs.len(), query.stars.len(), "one output per star");
    assert_eq!(eager.len(), query.stars.len(), "one placement per star");
    let stars_map = query.stars.clone();
    let mapper =
        map_fn(move |rec: TripleRec, out: &mut TypedMapEmitter<'_, Atom, (Atom, Atom)>| {
            let t = &rec.0;
            // Map-side relevance filter: ship the triple only if it can
            // match some pattern of some star (this is where
            // partially-bound-object filters prune, as the paper notes for
            // query B2).
            let relevant = stars_map.iter().any(|star| {
                star.subject_accepts(&t.s)
                    && star.patterns.iter().any(|p| p.matches_structurally(t))
            });
            if relevant {
                out.emit(&t.s, &(t.p.clone(), t.o.clone()));
            }
            Ok(())
        });
    let stars_red = query.stars.clone();
    let reducer = reduce_fn_ctx(
        move |ctx: &TaskContext,
              subject: Atom,
              pairs: Vec<(Atom, Atom)>,
              out: &mut TypedOutEmitter<'_, TgTuple>| {
            group_filter(ctx, &TripleGroup { subject, pairs }, &stars_red, &eager, out)
        },
    );
    job1_spec(name, input, mapper, reducer, outputs)
}

// ---------------------------------------------------------------------------
// Job 1, ID-native: varint dictionary ids through the shuffle
// ---------------------------------------------------------------------------

/// ID-native Job 1: same operators as [`group_filter_job`], but the
/// shuffle carries LEB128-varint dictionary ids (`VarId` subject keys,
/// [`IdPair`] property/object values) instead of lexical tokens.
///
/// Star constants are compiled to ids against `dict` at plan time, so the
/// map side matches with integer compares; the reduce side resolves ids
/// back to [`Atom`]s through the engine's dictionary snapshot (attach it
/// with `Engine::with_dict`) and re-sorts each group into the lexical
/// wire order, so the emitted [`TgTuple`]s are byte-identical to the
/// lexical job's (file order aside — the two paths partition by
/// different key bytes). `eager` is the per-star unnest placement, as in
/// [`group_filter_job`].
pub fn group_filter_job_ids(
    name: impl Into<String>,
    query: &Query,
    input: &str,
    outputs: Vec<String>,
    eager: Vec<bool>,
    dict: &Dictionary,
) -> JobSpec {
    assert_eq!(outputs.len(), query.stars.len(), "one output per star");
    assert_eq!(eager.len(), query.stars.len(), "one placement per star");
    let stars_map: Vec<IdStarTest> =
        query.stars.iter().map(|s| IdStarTest::compile(s, dict)).collect();
    let mapper = map_fn_ctx(
        move |ctx: &TaskContext, rec: IdTripleRec, out: &mut TypedMapEmitter<'_, VarId, IdPair>| {
            for star in &stars_map {
                if star.relevant(&rec, ctx)? {
                    out.emit(&VarId(rec.s), &IdPair(rec.p, rec.o));
                    return Ok(());
                }
            }
            Ok(())
        },
    );
    let stars_red = query.stars.clone();
    let reducer = reduce_fn_ctx(
        move |ctx: &TaskContext,
              subject: VarId,
              ids: Vec<IdPair>,
              out: &mut TypedOutEmitter<'_, TgTuple>| {
            let subject = ctx.resolve_atom(subject.0)?;
            let mut pairs = ids
                .iter()
                .map(|&IdPair(p, o)| Ok((ctx.resolve_atom(p)?, ctx.resolve_atom(o)?)))
                .collect::<Result<Vec<(Atom, Atom)>, MrError>>()?;
            // The lexical job's reducer sees values in encoded-token
            // order (the shuffle sorts by value bytes); restore that
            // order after resolution so outputs are byte-identical.
            pairs.sort_by_cached_key(Rec::to_bytes);
            group_filter(ctx, &TripleGroup { subject, pairs }, &stars_red, &eager, out)
        },
    );
    job1_spec(name, input, mapper, reducer, outputs)
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

/// Enumerate `(join key, pinned triplegroup)` pairs for a triplegroup
/// under a role. Pinning fixes the joined position to the key's match and
/// leaves everything else nested (the full β-unnest of `TG_UnbJoin` when
/// the role is [`JoinRole::UnboundObj`]).
pub fn join_expansions(tg: &AnnTg, role: JoinRole) -> Vec<(Atom, AnnTg)> {
    match role {
        JoinRole::Subject => vec![(tg.subject.clone(), tg.clone())],
        JoinRole::BoundObj(b) => tg.bound[b]
            .1
            .iter()
            .map(|o| {
                let mut pinned = tg.clone();
                pinned.bound[b].1 = vec![o.clone()];
                (o.clone(), pinned)
            })
            .collect(),
        JoinRole::UnboundObj(u) => tg.unbound[u]
            .iter()
            .map(|(p, o)| {
                let mut pinned = tg.clone();
                pinned.unbound[u] = vec![(p.clone(), o.clone())];
                (o.clone(), pinned)
            })
            .collect(),
    }
}

/// Partition-granular expansions for [`UnnestMode::Partial`]: one pinned
/// triplegroup per φ-partition, keyed by the partition id.
pub fn partial_expansions(tg: &AnnTg, role: JoinRole, m: u64) -> Vec<(u64, AnnTg)> {
    match role {
        JoinRole::Subject => vec![(phi(&tg.subject, m), tg.clone())],
        JoinRole::BoundObj(b) => {
            let mut parts: std::collections::BTreeMap<u64, Vec<Atom>> = Default::default();
            for o in &tg.bound[b].1 {
                parts.entry(phi(o, m)).or_default().push(o.clone());
            }
            parts
                .into_iter()
                .map(|(k, objs)| {
                    let mut pinned = tg.clone();
                    pinned.bound[b].1 = objs;
                    (k, pinned)
                })
                .collect()
        }
        JoinRole::UnboundObj(u) => partial_beta_unnest(tg, u, |o| phi(o, m)),
    }
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

/// Shuffle value: `(side tag, tuple)`.
type SidedTuple = (u64, TgTuple);

/// Text bytes a full β-unnest of `comp`'s unbound list `u` would ship:
/// one record per candidate, each carrying the rest of the tuple plus the
/// component with that single candidate pinned. Computed arithmetically
/// from the distinct-pair semantics of [`AnnTg::text_size`] so the partial
/// path never has to materialize the expansion it avoided.
fn expanded_bytes_of(tuple: &TgTuple, component: usize, u: usize) -> u64 {
    let comp = &tuple.0[component];
    let rest: u64 = tuple
        .0
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != component)
        .map(|(_, tg)| tg.text_size())
        .sum();
    // Pairs every pinned record carries regardless of the candidate chosen:
    // bound pairs plus the other unbound lists.
    let mut base: Vec<(&str, &str)> = Vec::new();
    for (p, objs) in &comp.bound {
        base.extend(objs.iter().map(|o| (&**p, &**o)));
    }
    for (j, cands) in comp.unbound.iter().enumerate() {
        if j != u {
            base.extend(cands.iter().map(|(p, o)| (&**p, &**o)));
        }
    }
    base.sort_unstable();
    base.dedup();
    let base_bytes: u64 = comp.subject.len() as u64
        + 1
        + base.iter().map(|(p, o)| p.len() as u64 + o.len() as u64 + 2).sum::<u64>();
    let mut total = 0u64;
    for (p, o) in &comp.unbound[u] {
        // A candidate that duplicates a base pair is stored once (set
        // semantics), so it adds no bytes beyond the base record.
        let extra = match base.binary_search(&(&**p, &**o)) {
            Ok(_) => 0,
            Err(_) => p.len() as u64 + o.len() as u64 + 2,
        };
        total += rest + base_bytes + extra;
    }
    total
}

/// `tuple` with component `component` replaced by `pinned` (moved in):
/// clones only the components that are kept.
fn with_component(tuple: &TgTuple, component: usize, pinned: AnnTg) -> TgTuple {
    let mut comps = Vec::with_capacity(tuple.0.len());
    comps.extend_from_slice(&tuple.0[..component]);
    comps.push(pinned);
    comps.extend_from_slice(&tuple.0[component + 1..]);
    TgTuple(comps)
}

fn join_mapper(side: u64, spec: JoinSide, mode: UnnestMode) -> Arc<dyn mrsim::RawMapOp> {
    map_fn_ctx(
        move |ctx: &mrsim::TaskContext,
              tuple: TgTuple,
              out: &mut TypedMapEmitter<'_, Atom, SidedTuple>| {
            let comp = tuple
                .0
                .get(spec.component)
                .ok_or_else(|| MrError::Op("join component out of range".into()))?;
            match mode {
                UnnestMode::Exact => {
                    let unbound = matches!(spec.role, JoinRole::UnboundObj(_));
                    let expansions = join_expansions(comp, spec.role);
                    if unbound {
                        ctx.count(op::UNNEST_IN, 1);
                        ctx.record(op::UNNEST_WIDTH, expansions.len() as u64);
                    }
                    // One count per input tuple. Even a zero delta creates
                    // the counter, which an empty expansion must not.
                    if unbound && !expansions.is_empty() {
                        ctx.count(op::UNNEST_OUT, expansions.len() as u64);
                    }
                    for (key, pinned) in expansions {
                        out.emit(&key, &(side, with_component(&tuple, spec.component, pinned)));
                    }
                }
                UnnestMode::Partial(m) => {
                    let unbound_rest = if let JoinRole::UnboundObj(u) = spec.role {
                        ctx.count(op::PARTIAL_IN, 1);
                        ctx.count(op::PARTIAL_CANDIDATES, comp.unbound[u].len() as u64);
                        ctx.count(
                            op::PARTIAL_EXPANDED_BYTES,
                            expanded_bytes_of(&tuple, spec.component, u),
                        );
                        Some(tuple.text_size() - comp.text_size())
                    } else {
                        None
                    };
                    let expansions = partial_expansions(comp, spec.role, m);
                    if let Some(rest) = unbound_rest.filter(|_| !expansions.is_empty()) {
                        let pinned_bytes: u64 =
                            expansions.iter().map(|(_, pinned)| pinned.text_size()).sum();
                        let n = expansions.len() as u64;
                        ctx.count(op::PARTIAL_OUT, n);
                        ctx.count(op::PARTIAL_NESTED_BYTES, rest * n + pinned_bytes);
                    }
                    for (k, pinned) in expansions {
                        let t = with_component(&tuple, spec.component, pinned);
                        out.emit(&atom(&k.to_string()), &(side, t));
                    }
                }
            }
            Ok(())
        },
    )
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
    let (lrole, lcomp) = (left.role, left.component);
    let (rrole, rcomp) = (right.role, right.component);
    let reducer = reduce_fn(
        move |_key: Atom, values: Vec<SidedTuple>, out: &mut TypedOutEmitter<'_, TgTuple>| {
            match mode {
                UnnestMode::Exact => {
                    // All values share the actual join key: cross join.
                    let mut lefts = Vec::new();
                    let mut rights = Vec::new();
                    for (side, t) in &values {
                        if *side == 0 {
                            lefts.push(t);
                        } else {
                            rights.push(t);
                        }
                    }
                    for l in &lefts {
                        for r in &rights {
                            let mut joined = l.0.clone();
                            joined.extend(r.0.iter().cloned());
                            out.emit(&TgTuple(joined))?;
                        }
                    }
                }
                UnnestMode::Partial(_) => {
                    // Algorithm 3: β-unnest the right side into perfect
                    // triplegroups hashed by the real join key, then probe
                    // with each left candidate.
                    // Deterministic FNV build side: the map is only ever
                    // probed by key (never iterated), so output bytes are
                    // unaffected — this removes SipHash's random seeding
                    // from the hot join path.
                    let mut right_hash: DetHashMap<Atom, Vec<TgTuple>> = DetHashMap::default();
                    for (side, t) in &values {
                        if *side != 1 {
                            continue;
                        }
                        for (key, pinned) in join_expansions(&t.0[rcomp], rrole) {
                            right_hash
                                .entry(key)
                                .or_default()
                                .push(with_component(t, rcomp, pinned));
                        }
                    }
                    for (side, t) in &values {
                        if *side != 0 {
                            continue;
                        }
                        for (key, pinned) in join_expansions(&t.0[lcomp], lrole) {
                            if let Some(matches) = right_hash.get(&key) {
                                for r in matches {
                                    let mut joined = t.0.clone();
                                    joined[lcomp] = pinned.clone();
                                    joined.extend(r.0.iter().cloned());
                                    out.emit(&TgTuple(joined))?;
                                }
                            }
                        }
                    }
                }
            }
            Ok(())
        },
    );
    JobSpec::map_reduce(
        name,
        vec![
            InputBinding { file: left.file.clone(), mapper: join_mapper(0, left, mode) },
            InputBinding { file: right.file.clone(), mapper: join_mapper(1, right, mode) },
        ],
        reducer,
        REDUCERS,
        output,
    )
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

/// Build a **map-side** join job: the build relation ships to every map
/// task through the engine's distributed cache ([`JobSpec::with_broadcast`])
/// and the probe relation streams through a map-only scan — no shuffle, no
/// reduce phase, an entire MR cycle collapsed.
///
/// Each map task lazily materializes the build side's hash table once (via
/// [`TaskContext::task_state`], the simulated `Mapper.setup()`), keyed by
/// the same [`join_expansions`] the reduce-side join uses, so output
/// records are exactly the [`tg_join_job`]-`Exact` records: left
/// components then right components with the joined positions pinned.
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
    build: BuildSide,
    output: impl Into<String>,
) -> JobSpec {
    let (build_spec, probe_spec) = match build {
        BuildSide::Left => (left, right),
        BuildSide::Right => (right, left),
    };
    let build_file = build_spec.file.clone();
    let probe_file = probe_spec.file.clone();
    let mapper = map_only_fn_ctx(
        move |ctx: &TaskContext, tuple: TgTuple, out: &mut TypedOutEmitter<'_, TgTuple>| {
            let table = ctx.task_state(|| {
                let file = ctx.broadcast(0)?;
                let mut map: DetHashMap<Atom, Vec<TgTuple>> = DetHashMap::default();
                for raw in &file.records {
                    let t = TgTuple::from_bytes_with(raw, &ctx.atoms)?;
                    let comp =
                        t.0.get(build_spec.component)
                            .ok_or_else(|| MrError::Op("join component out of range".into()))?;
                    for (key, pinned) in join_expansions(comp, build_spec.role) {
                        let mut pt = t.clone();
                        pt.0[build_spec.component] = pinned;
                        map.entry(key).or_default().push(pt);
                    }
                }
                Ok(map)
            })?;
            let comp = tuple
                .0
                .get(probe_spec.component)
                .ok_or_else(|| MrError::Op("join component out of range".into()))?;
            let unbound = matches!(probe_spec.role, JoinRole::UnboundObj(_));
            let expansions = join_expansions(comp, probe_spec.role);
            if unbound {
                ctx.count(op::UNNEST_IN, 1);
                ctx.record(op::UNNEST_WIDTH, expansions.len() as u64);
            }
            for (key, pinned) in expansions {
                if unbound {
                    ctx.count(op::UNNEST_OUT, 1);
                }
                if let Some(matches) = table.get(&key) {
                    for b in matches {
                        // Reduce-side joins emit left components then right
                        // components; preserve that regardless of which side
                        // was broadcast.
                        let joined = match build {
                            BuildSide::Left => {
                                let mut j = b.0.clone();
                                let mut probe = tuple.0.clone();
                                probe[probe_spec.component] = pinned.clone();
                                j.extend(probe);
                                j
                            }
                            BuildSide::Right => {
                                let mut j = tuple.0.clone();
                                j[probe_spec.component] = pinned.clone();
                                j.extend(b.0.iter().cloned());
                                j
                            }
                        };
                        out.emit(&TgTuple(joined))?;
                    }
                }
            }
            Ok(())
        },
    );
    JobSpec::map_only(name, vec![probe_file], mapper, output).with_broadcast(build_file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mr_rdf::load_store;
    use mrsim::Engine;
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
        let engine = Engine::unbounded();
        load_store(&engine, "t", &store()).unwrap();
        let query = unbound_query();
        let job =
            group_filter_job("job1", &query, "t", vec!["ec0".into(), "ec1".into()], vec![eager; 2]);
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
        let tuples: Vec<TgTuple> = engine.read_records("out").unwrap();
        let mut set = rdf_query::SolutionSet::new();
        for t in &tuples {
            let mut partials: Vec<rdf_query::Binding> = vec![rdf_query::Binding::new()];
            for (tg, star) in t.0.iter().zip(&query.stars) {
                let expansions = tg.expand(star).unwrap();
                let mut next = Vec::new();
                for p in &partials {
                    for e in &expansions {
                        let mut m = p.clone();
                        if m.merge(e) {
                            next.push(m);
                        }
                    }
                }
                partials = next;
            }
            for b in partials {
                set.insert(b);
            }
        }
        set
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
            group_filter_job("j1", &query, "t", vec!["ec0".into(), "ec1".into()], vec![false; 2]);
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
            group_filter_job("j1", &query, "t", vec!["e0".into(), "e1".into()], vec![true; 2]);
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
            group_filter_job("j1", &query, "t", vec!["e0".into(), "e1".into()], vec![false; 2]);
        let ops = engine.run_job(&job).unwrap().ops;
        assert_eq!(ops.get(op::ADMITTED), 4);
        assert_eq!(ops.get(op::UNNEST_IN), 0);
        assert_eq!(ops.get(op::UNNEST_OUT), 0);
    }

    #[test]
    fn id_native_job1_matches_lexical_and_ships_fewer_bytes() {
        // A filter star exercises every IdTest arm: Eq on the bound
        // property, Str on a Contains object filter, Any on the unbound
        // pattern.
        let mut s = store();
        s.insert(STriple::new("<x1>", "<syn>", "\"t\""));
        let query = rdf_query::parse_query(
            "SELECT * WHERE { ?g <label> ?l . ?g ?p ?go . ?go <gl> ?x . \
             FILTER contains(?x, \"u\") }",
        )
        .unwrap();
        for eager in [false, true] {
            let lex = Engine::unbounded();
            load_store(&lex, "t", &s).unwrap();
            let lex_job =
                group_filter_job("j1", &query, "t", vec!["e0".into(), "e1".into()], vec![eager; 2]);
            let lex_stats = lex.run_job(&lex_job).unwrap();

            let mut dict = Dictionary::new();
            let ids = Engine::unbounded();
            mr_rdf::load_store_ids(&ids, mr_rdf::ID_TRIPLES_FILE, &s, &mut dict).unwrap();
            let ids = ids.with_dict(Arc::new(dict.clone()));
            let id_job = group_filter_job_ids(
                "j1-ids",
                &query,
                mr_rdf::ID_TRIPLES_FILE,
                vec!["e0".into(), "e1".into()],
                vec![eager; 2],
                &dict,
            );
            let id_stats = ids.run_job(&id_job).unwrap();

            // Same operator counters on both planes.
            for c in [
                op::GROUPS_IN,
                op::PAIRS_IN,
                op::ADMITTED,
                op::DROPPED,
                op::UNNEST_IN,
                op::UNNEST_OUT,
            ] {
                assert_eq!(
                    lex_stats.ops.get(c),
                    id_stats.ops.get(c),
                    "counter {c} (eager {eager})"
                );
            }
            // Byte-identical outputs once sorted (the two paths partition
            // by different key bytes, so file order may differ).
            for out in ["e0", "e1"] {
                let mut a: Vec<TgTuple> = lex.read_records(out).unwrap();
                let mut b: Vec<TgTuple> = ids.read_records(out).unwrap();
                a.sort_by_cached_key(Rec::to_bytes);
                b.sort_by_cached_key(Rec::to_bytes);
                assert_eq!(a, b, "output {out} (eager {eager})");
            }
            // The ID plane ships varints where the lexical plane ships
            // tokens: strictly fewer wire bytes through the shuffle.
            assert!(
                id_stats.shuffle_wire_bytes() < lex_stats.shuffle_wire_bytes(),
                "id wire {} >= lexical wire {} (eager {eager})",
                id_stats.shuffle_wire_bytes(),
                lex_stats.shuffle_wire_bytes()
            );
        }
    }

    #[test]
    fn id_native_job1_fails_on_missing_dictionary() {
        let s = store();
        let mut dict = Dictionary::new();
        let engine = Engine::unbounded();
        mr_rdf::load_store_ids(&engine, mr_rdf::ID_TRIPLES_FILE, &s, &mut dict).unwrap();
        // No `with_dict`: the reduce boundary cannot resolve ids.
        let job = group_filter_job_ids(
            "j1-ids",
            &unbound_query(),
            mr_rdf::ID_TRIPLES_FILE,
            vec!["e0".into(), "e1".into()],
            vec![false; 2],
            &dict,
        );
        let err = engine.run_job(&job).unwrap_err();
        assert!(matches!(err, MrError::Codec(_)), "unexpected error: {err:?}");
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
            group_filter_job("j1", &query, "t", vec!["ec0".into(), "ec1".into()], vec![false; 2]);
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
            group_filter_job("j1", &query, "t", vec!["ec0".into(), "ec1".into()], vec![false; 2]);
        engine.run_job(&job1).unwrap();
        let tuples: Vec<TgTuple> = engine.read_records("ec0").unwrap();
        for tuple in &tuples {
            let materialized: u64 = join_expansions(&tuple.0[0], JoinRole::UnboundObj(0))
                .into_iter()
                .map(|(_, pinned)| {
                    let mut t = tuple.clone();
                    t.0[0] = pinned;
                    t.text_size()
                })
                .sum();
            assert_eq!(expanded_bytes_of(tuple, 0, 0), materialized);
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
                let engine = Engine::unbounded().with_workers(workers);
                load_store(&engine, "t", &store()).unwrap();
                let q = unbound_query();
                let j1 = group_filter_job(
                    "j1",
                    &q,
                    "t",
                    vec!["ec0".into(), "ec1".into()],
                    vec![false; 2],
                );
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
                assert_eq!(stats.broadcast_ship_bytes, stats.broadcast_bytes * stats.map_tasks);
                let mut got: Vec<TgTuple> = engine.read_records("out").unwrap();
                got.sort_by_cached_key(Rec::to_bytes);
                assert_eq!(got, gold, "build {build:?} workers {workers}");
                raw_outputs.push(engine.hdfs().lock().get("out").unwrap().records.clone());
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

        let engine = Engine::unbounded()
            .with_workers(4)
            .with_faults(mrsim::FaultConfig::with_probability(0.3, 42));
        load_store(&engine, "t", &store()).unwrap();
        let q = unbound_query();
        engine
            .run_job(&group_filter_job(
                "j1",
                &q,
                "t",
                vec!["ec0".into(), "ec1".into()],
                vec![false; 2],
            ))
            .unwrap();
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
        let tuples: Vec<TgTuple> = engine.read_records("out").unwrap();
        let mut set = rdf_query::SolutionSet::new();
        for t in &tuples {
            let mut partials: Vec<rdf_query::Binding> = vec![rdf_query::Binding::new()];
            for (tg, star) in t.0.iter().zip(&query.stars) {
                let expansions = tg.expand(star).unwrap();
                let mut next = Vec::new();
                for p in &partials {
                    for e in &expansions {
                        let mut m = p.clone();
                        if m.merge(e) {
                            next.push(m);
                        }
                    }
                }
                partials = next;
            }
            for b in partials {
                set.insert(b);
            }
        }
        assert_eq!(set, gold);
    }

    #[test]
    fn broadcast_join_over_budget_is_refused() {
        let (engine, _) = run_job1(false);
        let (left, right) = ec_sides();
        let engine = engine.with_broadcast_budget(4);
        let err = engine
            .run_job(&tg_broadcast_join_job("bjoin", left, right, BuildSide::Right, "out"))
            .unwrap_err();
        assert!(err.is_broadcast_too_large(), "unexpected error: {err:?}");
    }
}
