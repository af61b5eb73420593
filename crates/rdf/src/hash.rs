//! Shared deterministic hashing.
//!
//! Everything in the workspace that needs a *reproducible* hash — shuffle
//! partitioning in `mrsim`, the `φ_m` partition function of the partial
//! unnest, fault-draw streams, and the build sides of the triplegroup
//! joins — goes through this one FNV-1a implementation, so the constants
//! live in exactly one place. `std`'s default `HashMap` hasher is
//! randomly seeded per process and would make workloads non-reproducible
//! (and it is also measurably slower than FNV on the short RDF tokens
//! these maps key on).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Deterministic 64-bit FNV-1a hash of a byte string.
///
/// This is the *spec-stable* hash: reducer partitioning and `φ_m` depend
/// on its exact output, and the known-answer test below pins it.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Streaming [`Hasher`] over the same FNV-1a function, for use as a
/// deterministic drop-in `HashMap` hasher.
#[derive(Debug, Clone)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(FNV_OFFSET)
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

/// `BuildHasher` for [`FnvHasher`].
pub type FnvBuildHasher = BuildHasherDefault<FnvHasher>;

/// Streaming FNV-style *block checksum*: folds eight input bytes per
/// multiply instead of one, so checksumming a spill buffer costs roughly
/// an eighth of the byte-at-a-time [`FnvHasher`]. This is **not** FNV-1a
/// (the dispersion per byte is weaker and the output differs) — it is a
/// data-integrity checksum in the spirit of HDFS's CRC32C block
/// checksums, where the requirement is detecting bit flips cheaply, not
/// uniform key dispersion. Never use it for partitioning.
///
/// Framing: each [`update`](Self::update) call folds its slice as
/// little-endian `u64` words plus a byte-at-a-time tail, then folds the
/// slice length, so `update(a); update(b)` differs from `update(ab)` —
/// record boundaries are part of the checksum, as with CRC-framed blocks.
#[derive(Debug, Clone)]
pub struct BlockChecksum(u64);

impl Default for BlockChecksum {
    fn default() -> Self {
        BlockChecksum(FNV_OFFSET)
    }
}

impl BlockChecksum {
    /// Fold one framed block into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            h ^= u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            h = h.wrapping_mul(FNV_PRIME);
        }
        for &b in chunks.remainder() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        h ^= bytes.len() as u64;
        self.0 = h.wrapping_mul(FNV_PRIME);
    }

    /// The checksum over everything folded so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Streaming word-at-a-time token hasher: eight bytes per
/// rotate-xor-multiply round, far cheaper per byte than byte-serial FNV on
/// typical 10–60-byte RDF tokens. For in-memory lookup tables whose
/// iteration order never reaches an output — the ANALYZE accumulator
/// ([`crate::StatsBuilder`]); shuffle partitioning keeps the spec-stable
/// [`fnv1a`].
#[derive(Debug, Clone, Copy, Default)]
pub struct TokenHasher(u64);

impl Hasher for TokenHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        const SEED: u64 = 0x517c_c1b7_2722_0a95;
        let mut h = self.0 ^ bytes.len() as u64;
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            h = (h.rotate_left(5) ^ u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                .wrapping_mul(SEED);
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            h = (h.rotate_left(5) ^ u64::from_le_bytes(tail)).wrapping_mul(SEED);
        }
        self.0 = h;
    }
}

/// `BuildHasher` for [`TokenHasher`].
pub type TokenBuildHasher = BuildHasherDefault<TokenHasher>;

/// A `HashMap` with deterministic (FNV-1a) hashing — the map type for
/// join build sides and any other lookup structure whose behaviour must
/// not depend on the process's random hasher seed.
pub type DetHashMap<K, V> = HashMap<K, V, FnvBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oneshot_is_stable() {
        // Known-answer test so a refactor cannot silently change
        // partitioning of existing workloads.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn streaming_matches_oneshot() {
        for input in [&b""[..], b"a", b"<http://example.org/resource/s1>"] {
            let mut h = FnvHasher::default();
            h.write(input);
            assert_eq!(h.finish(), fnv1a(input), "input {input:?}");
        }
        // Split writes accumulate identically to one write.
        let mut h = FnvHasher::default();
        h.write(b"<sub");
        h.write(b"ject>");
        assert_eq!(h.finish(), fnv1a(b"<subject>"));
    }

    #[test]
    fn block_checksum_detects_flips_and_frames_blocks() {
        let base = {
            let mut c = BlockChecksum::default();
            c.update(b"hello spill arena bytes!!");
            c.finish()
        };
        // Deterministic.
        let mut again = BlockChecksum::default();
        again.update(b"hello spill arena bytes!!");
        assert_eq!(again.finish(), base);
        // Any single-bit flip, at word-aligned or tail positions, changes
        // the checksum.
        let data = b"hello spill arena bytes!!";
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.to_vec();
                flipped[i] ^= 1 << bit;
                let mut c = BlockChecksum::default();
                c.update(&flipped);
                assert_ne!(c.finish(), base, "flip at byte {i} bit {bit} undetected");
            }
        }
        // Framing: block boundaries are part of the checksum.
        let mut split = BlockChecksum::default();
        split.update(b"hello");
        split.update(b" world");
        let mut joined = BlockChecksum::default();
        joined.update(b"hello world");
        assert_ne!(split.finish(), joined.finish());
        // Empty-vs-absent blocks also differ.
        let mut one_empty = BlockChecksum::default();
        one_empty.update(b"");
        assert_ne!(one_empty.finish(), BlockChecksum::default().finish());
    }

    #[test]
    fn det_hash_map_basic() {
        let mut m: DetHashMap<String, u64> = DetHashMap::default();
        m.insert("k".into(), 1);
        assert_eq!(m.get("k"), Some(&1));
    }
}
