//! Arena sort in isolation: the spill-index ordering step the shuffle
//! path pays per bucket, benchmarked away from map decode and reduce
//! work. Two key mixes bracket the radix sort's range:
//!
//! * `ids` — composite LEB128-varint dictionary-id keys. Canonical
//!   varints never share an 8-byte prefix, so the cached prefixes decide
//!   every comparison and the radix counting passes see real byte
//!   entropy (most high bytes are constant zero padding and skip).
//! * `lex` — lexical IRI/literal tokens. Nearly every key starts with
//!   `<http://example.org/…`, so all prefixes collapse into a handful of
//!   values, the counting passes skip, and the radix sort degenerates to
//!   the comparison fallback within prefix-equal runs — the worst case.
//!
//! `BENCH_PR10.json` holds the last radix-vs-comparison pairs, recorded
//! while the whole-arena comparison sort was still selectable.

use criterion::{criterion_group, criterion_main, Criterion};
use mrsim::{Rec, SpillArena, VarId};
use std::hint::black_box;

/// Entries per arena — the shuffle bench's per-partition volume
/// (`ROWS × FANOUT / PARTITIONS` at 30 000 × 4 / 8) rounded up.
const ENTRIES: usize = 16_000;

/// Lexical token shapes mirroring the shuffle bench's `row()`.
fn lex_key(i: usize) -> String {
    match i % 3 {
        0 => format!("<http://example.org/vocab/class{}>#{}", i % 97, i % 4),
        1 => format!("\"literal value number {}\"#{}", i % 977, i % 4),
        _ => format!("<http://example.org/resource/s{}>#{}", (i * 7) % 5_000, i % 4),
    }
}

fn lex_arena() -> SpillArena {
    let mut arena = SpillArena::default();
    for i in 0..ENTRIES {
        let key = lex_key(i).to_bytes();
        let val = format!("<http://example.org/resource/s{}>", i % 5_000).to_bytes();
        arena.push_pair(&key, &val, 0);
    }
    arena
}

fn id_arena() -> SpillArena {
    let mut arena = SpillArena::default();
    for i in 0..ENTRIES {
        let key = (VarId((i % 5_000) as u32), VarId((i % 4) as u32)).to_bytes();
        let val = VarId(((i * 7) % 5_000) as u32).to_bytes();
        arena.push_pair(&key, &val, 0);
    }
    arena
}

fn bench_sort_only(c: &mut Criterion) {
    // Each iteration clones the unsorted arena before sorting (the
    // harness has no batched setup), so every record carries the same
    // memcpy constant — the `clone_baseline_*` records pin that constant
    // for anyone subtracting it out of the sort numbers.
    let mut group = c.benchmark_group("sort_only");
    group.sample_size(20);
    for (mix, arena) in [("ids", id_arena()), ("lex", lex_arena())] {
        group.bench_function(format!("clone_baseline_{mix}"), |b| {
            b.iter(|| black_box(arena.clone()))
        });
        group.bench_function(format!("radix_{mix}"), |b| {
            b.iter(|| {
                let mut a = arena.clone();
                a.sort_unstable();
                black_box(a)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sort_only);
criterion_main!(benches);
