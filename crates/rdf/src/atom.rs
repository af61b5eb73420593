//! Interned, cheaply-clonable lexical tokens.
//!
//! MapReduce pipelines clone subject/property/object tokens constantly
//! (every triplegroup, every n-tuple). Using `Arc<str>` makes a clone a
//! reference-count bump instead of a heap copy, while [`AtomTable`]
//! deduplicates the backing allocations for repeated tokens (properties in
//! RDF data are drawn from a tiny vocabulary, so interning them is a large
//! win).

use crate::hash::TokenHasher;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::Hasher;
use std::sync::Arc;

/// An interned lexical token: subject, property or object in canonical
/// N-Triples token form (e.g. `<http://ex.org/p>` or `"42"`).
///
/// Cloning an `Atom` is O(1). Equality and ordering are by string content,
/// *not* by pointer, so atoms from different tables compare correctly.
pub type Atom = Arc<str>;

/// Create an atom directly from a string without interning.
///
/// Use this for one-off tokens; use [`AtomTable::intern`] inside loops that
/// see the same token many times.
pub fn atom(s: &str) -> Atom {
    Arc::from(s)
}

/// A concurrent string-interning table.
///
/// `intern` returns a canonical [`Atom`] for the given string: repeated
/// calls with equal content return clones of the same allocation.
///
/// ```
/// use rdf_model::AtomTable;
/// let table = AtomTable::new();
/// let a = table.intern("<http://ex.org/p>");
/// let b = table.intern("<http://ex.org/p>");
/// assert!(std::sync::Arc::ptr_eq(&a, &b));
/// ```
#[derive(Debug, Default)]
pub struct AtomTable {
    // Sharded to reduce contention when many map workers intern at once.
    // Each shard maps a precomputed 64-bit token hash to its atom through
    // an identity hasher, so `intern` hashes the token bytes exactly once
    // (word-at-a-time) — the decode hot path of every map/reduce task.
    shards: [Mutex<HashMap<u64, Atom, IdentityBuild>>; SHARDS],
}

const SHARDS: usize = 16;

/// `BuildHasher` that passes an already-computed `u64` key through.
#[derive(Debug, Clone, Copy, Default)]
struct IdentityBuild;

impl std::hash::BuildHasher for IdentityBuild {
    type Hasher = IdentityHasher;
    fn build_hasher(&self) -> IdentityHasher {
        IdentityHasher(0)
    }
}

/// Identity state for `u64` keys (only `write_u64` is ever fed).
#[derive(Debug)]
struct IdentityHasher(u64);

impl std::hash::Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("identity hasher only accepts u64 keys");
    }

    fn write_u64(&mut self, h: u64) {
        self.0 = h;
    }
}

/// The interner's one hash of a token: [`TokenHasher`] over its bytes.
fn token_hash(bytes: &[u8]) -> u64 {
    let mut h = TokenHasher::default();
    h.write(bytes);
    h.finish()
}

impl AtomTable {
    /// Create an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Return the canonical atom for `s`, inserting it if absent.
    pub fn intern(&self, s: &str) -> Atom {
        let h = token_hash(s.as_bytes());
        // Shard on middle bits: the map's bucket index consumes the low
        // bits of the same hash, and reusing them would cluster every
        // shard's keys into every 16th bucket.
        let shard = &self.shards[((h >> 24) as usize) % SHARDS];
        let mut map = shard.lock();
        match map.entry(h) {
            std::collections::hash_map::Entry::Occupied(e) => {
                let atom = e.get();
                if **atom == *s {
                    atom.clone()
                } else {
                    // 64-bit hash collision between distinct tokens: stay
                    // content-correct and just skip deduplication.
                    Arc::from(s)
                }
            }
            std::collections::hash_map::Entry::Vacant(e) => e.insert(Arc::from(s)).clone(),
        }
    }

    /// Number of distinct atoms currently interned.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True if no atom has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// The spec-stable deterministic hash now lives in [`crate::hash`] (one
// home for the constants); re-exported here for the existing callers.
pub use crate::hash::fnv1a;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_deduplicates() {
        let t = AtomTable::new();
        let a = t.intern("hello");
        let b = t.intern("hello");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn intern_distinguishes() {
        let t = AtomTable::new();
        let a = t.intern("a");
        let b = t.intern("b");
        assert_ne!(a, b);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn atoms_compare_by_content_across_tables() {
        let t1 = AtomTable::new();
        let t2 = AtomTable::new();
        assert_eq!(t1.intern("x"), t2.intern("x"));
    }

    #[test]
    fn fnv1a_is_stable() {
        // Known-answer test (duplicated in `crate::hash`) so the re-export
        // cannot silently change partitioning of existing workloads.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn empty_table() {
        let t = AtomTable::new();
        assert!(t.is_empty());
        t.intern("x");
        assert!(!t.is_empty());
    }

    #[test]
    fn concurrent_interning_converges_to_one_allocation_per_token() {
        // Simulates many map workers interning the same small property
        // vocabulary plus worker-private tokens through one shared table.
        let table = AtomTable::new();
        let vocab: Vec<String> = (0..32).map(|i| format!("<p{i}>")).collect();
        let per_worker: Vec<Vec<Atom>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|w| {
                    let table = &table;
                    let vocab = &vocab;
                    scope.spawn(move || {
                        let mut got = Vec::new();
                        for round in 0..50 {
                            for v in vocab {
                                got.push(table.intern(v));
                            }
                            got.push(table.intern(&format!("<worker{w}-{round}>")));
                        }
                        got
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Shared vocab (32) + 8 workers × 50 private tokens.
        assert_eq!(table.len(), 32 + 8 * 50);
        // Every clone of a given token points at the same allocation, even
        // across workers that raced on the first insert.
        let canon: Vec<Atom> = vocab.iter().map(|v| table.intern(v)).collect();
        for atoms in &per_worker {
            for a in atoms {
                if let Some(i) = vocab.iter().position(|v| **v == **a) {
                    assert!(Arc::ptr_eq(a, &canon[i]), "duplicate allocation for {a}");
                }
            }
        }
    }

    #[test]
    fn separate_tables_share_content_not_allocations() {
        // Each map task owns its own table: tokens agree by content across
        // tables (shuffle ordering is unaffected) without sharing memory.
        let t1 = AtomTable::new();
        let t2 = AtomTable::new();
        let a = t1.intern("<gene9>");
        let b = t2.intern("<gene9>");
        assert_eq!(a, b);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(a.cmp(&b), std::cmp::Ordering::Equal);
    }
}
