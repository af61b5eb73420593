//! Shuffle-heavy Criterion benchmark: the full decode→group→emit→sort→
//! reduce data path of the simulated engine, shaped like the paper's
//! unbound-property workloads — every input record fans out into several
//! shuffle pairs (a β-unnest-style expansion), so encode/spill/sort cost
//! dominates map CPU. The lexical variants are the `BENCH_PR5.json`
//! baselines; the `_ids` variants ship LEB128-varint dictionary ids
//! through the same path and are gated by `BENCH_PR6.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use mrsim::{
    combine_fn, map_fn, map_fn_ctx, reduce_fn, reduce_fn_ctx, Engine, InputBinding, JobSpec,
    TaskContext, TypedMapEmitter, TypedOutEmitter, VarId,
};
use rdf_model::atom::atom;
use rdf_model::Dictionary;
use std::hint::black_box;
use std::sync::Arc;

const ROWS: usize = 30_000;
const FANOUT: usize = 4;
const PARTITIONS: usize = 8;

/// One `(subject, object)` row of the benchmark relation: realistic RDF
/// token shapes — shared IRI prefixes and mixed lengths, so the shuffle
/// sort sees both prefix ties and early-differing keys.
fn row(i: usize) -> (String, String) {
    let subject = format!("<http://example.org/resource/s{}>", i % 5_000);
    let object = match i % 3 {
        0 => format!("<http://example.org/vocab/class{}>", i % 97),
        1 => format!("\"literal value number {}\"", i % 977),
        _ => format!("<http://example.org/resource/s{}>", (i * 7) % 5_000),
    };
    (subject, object)
}

fn put_input(engine: &Engine) {
    engine.put_records("shuffle-in", (0..ROWS).map(row)).unwrap();
}

/// The same relation dictionary-encoded: `(subject id, object id)` rows
/// plus the dictionary snapshot the ID-native job resolves through.
fn put_input_ids(engine: &Engine) -> Dictionary {
    let mut dict = Dictionary::new();
    let rows: Vec<(VarId, VarId)> = (0..ROWS)
        .map(|i| {
            let (s, o) = row(i);
            (VarId(dict.encode(&atom(&s))), VarId(dict.encode(&atom(&o))))
        })
        .collect();
    engine.put_records("shuffle-in-ids", rows).unwrap();
    dict
}

/// The job under test: decode each `(subject, object)` row, emit `FANOUT`
/// re-keyed pairs per row (object-join-style expansion), shuffle-sort the
/// ~`ROWS × FANOUT` pairs across `PARTITIONS` reducers, and group-count.
fn spec(with_combiner: bool, out: &str) -> JobSpec {
    let mapper =
        map_fn(move |(s, o): (String, String), out: &mut TypedMapEmitter<'_, String, String>| {
            for k in 0..FANOUT {
                let key = if k == 0 { o.clone() } else { format!("{o}#{k}") };
                out.emit(&key, &s);
            }
            Ok(())
        });
    let reducer = reduce_fn(
        |key: String, values: Vec<String>, out: &mut TypedOutEmitter<'_, (String, u64)>| {
            let total: u64 = values.iter().map(|v| v.len() as u64).sum();
            out.emit(&(key, total))
        },
    );
    let mut job = JobSpec::map_reduce(
        "shuffle-path",
        vec![InputBinding { file: "shuffle-in".into(), mapper }],
        reducer,
        PARTITIONS,
        out,
    );
    if with_combiner {
        let combiner = combine_fn(
            |key: String, values: Vec<String>, out: &mut TypedMapEmitter<'_, String, String>| {
                // Keep the shuffle shape but fold local duplicates.
                let mut values = values;
                values.sort_unstable();
                values.dedup();
                for v in values {
                    out.emit(&key, &v);
                }
                Ok(())
            },
        );
        job = job.with_combiner(combiner);
    }
    job
}

/// ID-native twin of [`spec`]: the same fanout/shuffle/group shape, but
/// the shuffle carries varint dictionary ids — composite `(object id,
/// fanout tag)` keys, subject-id values — and the reducer resolves ids
/// back to tokens at the output boundary through the engine's dictionary
/// snapshot.
fn spec_ids(with_combiner: bool, out: &str) -> JobSpec {
    let mapper = map_fn_ctx(
        move |_ctx: &TaskContext,
              (s, o): (VarId, VarId),
              out: &mut TypedMapEmitter<'_, (VarId, VarId), VarId>| {
            for k in 0..FANOUT {
                out.emit(&(o, VarId(k as u32)), &s);
            }
            Ok(())
        },
    );
    let reducer = reduce_fn_ctx(
        |ctx: &TaskContext,
         (o, k): (VarId, VarId),
         values: Vec<VarId>,
         out: &mut TypedOutEmitter<'_, (String, u64)>| {
            let key = ctx.resolve_atom(o.0)?;
            let mut total = 0u64;
            for v in &values {
                total += ctx.resolve_atom(v.0)?.len() as u64;
            }
            out.emit(&(format!("{key}#{}", k.0), total))
        },
    );
    let mut job = JobSpec::map_reduce(
        "shuffle-path-ids",
        vec![InputBinding { file: "shuffle-in-ids".into(), mapper }],
        reducer,
        PARTITIONS,
        out,
    );
    if with_combiner {
        let combiner = combine_fn(
            |key: (VarId, VarId),
             values: Vec<VarId>,
             out: &mut TypedMapEmitter<'_, (VarId, VarId), VarId>| {
                let mut values = values;
                values.sort_unstable_by_key(|v| v.0);
                values.dedup();
                for v in values {
                    out.emit(&key, &v);
                }
                Ok(())
            },
        );
        job = job.with_combiner(combiner);
    }
    job
}

fn bench_shuffle_path(c: &mut Criterion) {
    let engine = Engine::unbounded().with_workers(8);
    put_input(&engine);
    let mut group = c.benchmark_group("shuffle_path");
    group.sample_size(10);
    group.bench_function("rekey_fanout4_8workers", |b| {
        b.iter(|| {
            let _ = engine.hdfs().lock().delete("shuffle-out");
            black_box(engine.run_job(&spec(false, "shuffle-out")).unwrap())
        })
    });
    group.bench_function("rekey_fanout4_combined_8workers", |b| {
        b.iter(|| {
            let _ = engine.hdfs().lock().delete("shuffle-out-c");
            black_box(engine.run_job(&spec(true, "shuffle-out-c")).unwrap())
        })
    });
    let dict = put_input_ids(&engine);
    let engine = engine.with_dict(Arc::new(dict));
    group.bench_function("rekey_fanout4_8workers_ids", |b| {
        b.iter(|| {
            let _ = engine.hdfs().lock().delete("shuffle-out-ids");
            black_box(engine.run_job(&spec_ids(false, "shuffle-out-ids")).unwrap())
        })
    });
    group.bench_function("rekey_fanout4_combined_8workers_ids", |b| {
        b.iter(|| {
            let _ = engine.hdfs().lock().delete("shuffle-out-ids-c");
            black_box(engine.run_job(&spec_ids(true, "shuffle-out-ids-c")).unwrap())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_shuffle_path);
criterion_main!(benches);
