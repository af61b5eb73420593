//! Cheaply-clonable lexical tokens.
//!
//! Typed RDF values clone subject/property/object tokens constantly (every
//! triplegroup, every n-tuple). Using `Arc<str>` makes a clone a
//! reference-count bump instead of a heap copy. A decode makes one atom per
//! token occurrence; the operators that move data do not decode at all.

use std::sync::Arc;

/// A lexical token: subject, property or object in canonical N-Triples
/// token form (e.g. `<http://ex.org/p>` or `"42"`).
///
/// Cloning an `Atom` is O(1). Equality and ordering are by string content,
/// *not* by pointer.
pub type Atom = Arc<str>;

/// Create an atom from a string.
pub fn atom(s: &str) -> Atom {
    Arc::from(s)
}

// The spec-stable deterministic hash now lives in [`crate::hash`] (one
// home for the constants); re-exported here for the existing callers.
pub use crate::hash::fnv1a;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_is_stable() {
        // Known-answer test (duplicated in `crate::hash`) so the re-export
        // cannot silently change partitioning of existing workloads.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
