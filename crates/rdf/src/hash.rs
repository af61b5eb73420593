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

/// Streaming FNV-style *block checksum* at word speed: a block's 32-byte
/// stripes fold into four independent xor-multiply lanes (four
/// multiplies in flight instead of one serial chain), so checksumming a
/// spill buffer or a DFS block costs a small fraction of the
/// byte-at-a-time [`FnvHasher`]. This is **not** FNV-1a (the dispersion
/// per byte is weaker and the output differs) — it is a data-integrity
/// checksum in the spirit of HDFS's CRC32C block checksums, where the
/// requirement is detecting bit flips cheaply, not uniform key
/// dispersion. Never use it for partitioning.
///
/// Framing: each [`update`](Self::update) call folds its slice — whole
/// stripes through the lanes, then the remaining little-endian `u64`
/// words and tail bytes through the running state — and then folds the
/// slice length, so `update(a); update(b)` differs from `update(ab)`:
/// record boundaries are part of the checksum, as with CRC-framed blocks.
/// [`fold_word`](Self::fold_word) folds one fixed-width word unframed.
///
/// **Every single-bit flip changes the checksum.** Each step is a
/// bijection of the value it updates: `x ↦ (x ^ w)·P` is one in `x` for a
/// fixed word `w` and one in `w` for a fixed `x`, because the multiplier
/// `P` is odd and so invertible modulo 2⁶⁴. A flip changes exactly one
/// input word — a stripe word, a tail word, a tail byte, or a folded
/// word. Stripe word `i` feeds only lane `i`, so that lane ends
/// different and the other three do not change. The lanes combine in
/// order from a constant, `h = (h ^ lane)·P`, which is a bijection in
/// each lane given the others, so the block's combined state differs.
/// Lane 0 starts from the running state and lanes 1–3 from constants, so
/// a state that already differs stays different through the lanes;
/// every later step is again a bijection of the state. A flipped bit
/// therefore reaches [`finish`](Self::finish) as a different value —
/// detection is certain, not probabilistic, for any single flip.
#[derive(Debug, Clone)]
pub struct BlockChecksum(u64);

impl Default for BlockChecksum {
    fn default() -> Self {
        BlockChecksum(FNV_OFFSET)
    }
}

/// Starting values of lanes 1–3 (lane 0 starts from the running state).
const LANE_SEEDS: [u64; 3] = [0x9e37_79b9_7f4a_7c15, 0xc2b2_ae3d_27d4_eb4f, 0x1656_67b1_9e37_79f9];

#[inline]
fn le_word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte word"))
}

impl BlockChecksum {
    /// Fold one framed block into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        let mut stripes = bytes.chunks_exact(32);
        if bytes.len() >= 32 {
            let [s1, s2, s3] = LANE_SEEDS;
            let mut lanes = [h, s1, s2, s3];
            for stripe in &mut stripes {
                for (lane, word) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
                    *lane = (*lane ^ le_word(word)).wrapping_mul(FNV_PRIME);
                }
            }
            h = FNV_OFFSET;
            for lane in lanes {
                h = (h ^ lane).wrapping_mul(FNV_PRIME);
            }
        }
        let mut words = stripes.remainder().chunks_exact(8);
        for word in &mut words {
            h = (h ^ le_word(word)).wrapping_mul(FNV_PRIME);
        }
        for &b in words.remainder() {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        self.0 = (h ^ bytes.len() as u64).wrapping_mul(FNV_PRIME);
    }

    /// Fold one fixed-width word, unframed: for records of known shape
    /// (a spill index frame is two words), cheaper than a framed block.
    #[inline]
    pub fn fold_word(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(FNV_PRIME);
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
        // Every length 0..=100 crosses the word (8) and stripe (32)
        // boundaries, so flips land in lanes, tail words and tail bytes.
        let by_update = |data: &[u8]| {
            let mut c = BlockChecksum::default();
            c.update(data);
            c.finish()
        };
        // The word fold: little-endian words, the last one zero-padded.
        let by_words = |data: &[u8]| {
            let mut c = BlockChecksum::default();
            for word in data.chunks(8) {
                let mut w = [0u8; 8];
                w[..word.len()].copy_from_slice(word);
                c.fold_word(u64::from_le_bytes(w));
            }
            c.finish()
        };
        for len in 0..=100usize {
            let data: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(151) ^ 0x5a).collect();
            let (base, base_words) = (by_update(&data), by_words(&data));
            // Deterministic.
            assert_eq!(by_update(&data), base);
            let mut flipped = data.clone();
            for i in 0..len {
                for bit in 0..8 {
                    flipped[i] ^= 1 << bit;
                    assert_ne!(by_update(&flipped), base, "len {len}: flip at {i}.{bit}");
                    assert_ne!(by_words(&flipped), base_words, "len {len}: word fold at {i}.{bit}");
                    flipped[i] ^= 1 << bit;
                }
            }
        }
        // Framing: block boundaries are part of the checksum, including a
        // split on a stripe boundary.
        let data: Vec<u8> = (0..80u8).collect();
        for split in [5, 32, 64] {
            let mut parts = BlockChecksum::default();
            parts.update(&data[..split]);
            parts.update(&data[split..]);
            assert_ne!(parts.finish(), by_update(&data), "split at {split}");
        }
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
