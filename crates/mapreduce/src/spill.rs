//! Arena-backed shuffle spill storage.
//!
//! A [`SpillArena`] holds one map task's bucket (or one reduce
//! partition's) shuffle records as byte *chunks* plus one small index
//! entry per record — `(chunk, offset, key_len, val_len)` with an 8-byte
//! big-endian **key-prefix cache**. A map-side bucket writes one chunk:
//! emitting appends the encoded key and value straight into it (no
//! per-record `Vec` allocations). A reduce partition is its column of
//! sealed buckets, one chunk each, read where the map side wrote them.
//! The shuffle sort reorders the index entries, never the bytes.
//!
//! ## Prefix cache
//!
//! Each entry caches the first 8 key bytes, zero-padded, as a big-endian
//! `u64`. Because big-endian integer order over zero-padded prefixes
//! equals lexicographic byte order over the prefixes themselves, and a
//! shorter key that is a prefix of a longer key also compares less in
//! both orders, `prefix(a) < prefix(b)` implies `key(a) < key(b)`. The
//! prefix decides almost every ordering question; full key (then value)
//! memcmp runs only on prefix ties.
//!
//! ## Sort and merge
//!
//! [`SpillArena::sort_unstable`] orders the index with one comparison
//! sort. The cached prefixes settle almost every comparison; only prefix
//! ties read the key tail, then the value, then the position.
//!
//! Sorting marks the arena as one **sorted run**. A reduce partition's
//! fetch absorbs map-side-sorted buckets with
//! [`SpillArena::absorb_sorted`], which takes each bucket by value, keeps
//! its buffer as one chunk (no byte is copied) and records the bucket as
//! a run; the reduce side then calls [`SpillArena::merge_sorted_runs`] —
//! a k-way index-entry merge over the runs (iterative pairwise ping-pong
//! merge, no payload copies) — instead of paying a second full sort.
//! Concatenating absorption survives only as the `#[cfg(test)]`
//! reference the differential tests compare against.
//!
//! ## Short keys never memcmp
//!
//! When two keys tie on the prefix *and both fit entirely inside the
//! 8-byte cache* (`key_len ≤ 8`), their zero-padded forms are equal, so
//! the longer key is the shorter key followed by zero bytes: lexicographic
//! order equals length order, and equal lengths mean byte-identical keys.
//! The sort therefore breaks such ties with a `key_len` compare and
//! grouping with a `key_len` equality check — no memcmp. Today's short
//! keys are tokens of at most 4 text bytes, such as the decimal `φ`
//! partition keys. The tie-break is still required in general: `"a"` and
//! `"a\0"` share a prefix and differ only in length.
//!
//! ## Determinism
//!
//! Every sort and merge path realizes the same **canonical total order**:
//! `(prefix, key bytes, value bytes, (chunk, offset))`. Entries that
//! compare equal under `(prefix, key, value)` are byte-identical records,
//! so any permutation of them yields the same record stream — the
//! trailing position tie-break adds nothing observable, but it makes the
//! order *total* (positions are unique), so the sort and the k-way merge
//! produce the identical index array, bit for bit, checksums included.
//! Chunks are absorbed in task order, so `(chunk, offset)` orders records
//! exactly as their offsets in the concatenation of the chunks would.
//! That is what the differential tests pin.

/// One record's index entry: where its key/value bytes live in the arena,
/// plus the sort-prefix cache.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IndexEntry {
    /// First 8 key bytes, zero-padded, as a big-endian `u64`.
    prefix: u64,
    /// Byte offset of the key in its chunk (the value follows the key).
    off: u32,
    /// Encoded key length in bytes.
    key_len: u32,
    /// Encoded value length in bytes.
    val_len: u32,
    /// Index of the chunk holding the record.
    chunk: u32,
}

// `footprint_bytes` — and so the exact `peak_arena_bytes` counter —
// charges this size per record: the chunk id lives in what was padding.
const _: () = assert!(std::mem::size_of::<IndexEntry>() == 24);

impl IndexEntry {
    /// The record's `key ++ value` bytes.
    #[inline]
    fn record<'a>(&self, chunks: &'a [Vec<u8>]) -> &'a [u8] {
        let start = self.off as usize;
        &chunks[self.chunk as usize][start..start + self.key_len as usize + self.val_len as usize]
    }
}

/// Compute the 8-byte big-endian, zero-padded prefix of `key`.
#[inline]
fn key_prefix(key: &[u8]) -> u64 {
    if key.len() >= 8 {
        u64::from_be_bytes(key[..8].try_into().expect("8-byte slice"))
    } else {
        let mut p = [0u8; 8];
        p[..key.len()].copy_from_slice(key);
        u64::from_be_bytes(p)
    }
}

/// The canonical total order over index entries: `(prefix, key bytes,
/// value bytes, (chunk, offset))` — with the short-key length fast path
/// on prefix ties (see module docs). Total because positions are unique
/// within an arena; every sort/merge path realizes exactly this order.
#[inline]
fn cmp_entries(chunks: &[Vec<u8>], a: &IndexEntry, b: &IndexEntry) -> std::cmp::Ordering {
    a.prefix
        .cmp(&b.prefix)
        .then_with(|| {
            let (ra, rb) = (a.record(chunks), b.record(chunks));
            let (ka, va) = ra.split_at(a.key_len as usize);
            let (kb, vb) = rb.split_at(b.key_len as usize);
            if a.key_len <= 8 && b.key_len <= 8 {
                // Equal prefixes with both keys inside the cache: the
                // longer key is the shorter plus zero bytes, so
                // lexicographic order is length order.
                a.key_len.cmp(&b.key_len)
            } else {
                ka.cmp(kb)
            }
            .then_with(|| va.cmp(vb))
        })
        .then_with(|| (a.chunk, a.off).cmp(&(b.chunk, b.off)))
}

/// A contiguous spill buffer of `(key, value)` records with a sortable
/// record index. See the module docs for layout and determinism notes.
#[derive(Debug, Default, Clone)]
pub struct SpillArena {
    /// `key ++ value` encodings of every record. Emission appends to the
    /// last chunk; [`absorb_sorted`](Self::absorb_sorted) adds the
    /// absorbed arena's chunks whole.
    chunks: Vec<Vec<u8>>,
    /// One entry per record, in emission order until [`sort_unstable`]
    /// reorders them.
    ///
    /// [`sort_unstable`]: SpillArena::sort_unstable
    entries: Vec<IndexEntry>,
    /// Sum of the simulated text-row sizes of every record (the map
    /// phase's byte counters are per-bucket sums, so the per-record value
    /// never needs to be stored).
    text_bytes: u64,
    /// Checksum recorded by [`seal`](Self::seal), cleared by any mutation
    /// through the normal API. `None` = never sealed (nothing to verify).
    sealed: Option<u64>,
    /// Exclusive end index (into `entries`) of each tracked sorted run.
    /// Valid only while the last boundary equals `entries.len()`; empty
    /// or stale boundaries mean "no run structure" and force a full
    /// sort. Driver-side bookkeeping, not data-plane bytes, so it is
    /// excluded from [`footprint_bytes`](Self::footprint_bytes).
    runs: Vec<u32>,
}

impl SpillArena {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no record has been spilled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total simulated text bytes of the spilled records.
    pub(crate) fn text_bytes(&self) -> u64 {
        self.text_bytes
    }

    /// Total *post-encoding* wire bytes of the spilled records — the
    /// exact size of the concatenated key/value encodings. This is what
    /// actually crosses the simulated network; it diverges from
    /// [`text_bytes`](Self::text_bytes) whenever the codec is not the
    /// text model (length-prefixed tokens vs. separated text rows).
    pub(crate) fn encoded_bytes(&self) -> u64 {
        self.chunks.iter().map(|c| c.len() as u64).sum()
    }

    /// In-memory footprint of the arena: the record bytes plus one
    /// [`IndexEntry`] per record. Arenas only ever grow (emission,
    /// `absorb`; sorting reorders entries in place), so the current
    /// footprint *is* the lifetime high-water mark — the engine's memory
    /// accounting reads it after each phase without per-push bookkeeping.
    pub(crate) fn footprint_bytes(&self) -> u64 {
        self.encoded_bytes() + (self.entries.len() * std::mem::size_of::<IndexEntry>()) as u64
    }

    /// Append one record: copy the already-encoded key, then let
    /// `encode_val` append the value bytes directly into the arena.
    pub fn push(&mut self, key: &[u8], text_size: u64, encode_val: impl FnOnce(&mut Vec<u8>)) {
        if self.chunks.is_empty() {
            self.chunks.push(Vec::new());
        }
        let chunk = self.chunks.len() - 1;
        let bytes = &mut self.chunks[chunk];
        let off = u32::try_from(bytes.len()).expect("spill chunk exceeds 4 GiB");
        bytes.extend_from_slice(key);
        let val_start = bytes.len();
        encode_val(bytes);
        self.entries.push(IndexEntry {
            prefix: key_prefix(key),
            off,
            key_len: u32::try_from(key.len()).expect("key exceeds 4 GiB"),
            val_len: u32::try_from(bytes.len() - val_start).expect("value exceeds 4 GiB"),
            chunk: u32::try_from(chunk).expect("spill arena exceeds 4 Gi chunks"),
        });
        self.text_bytes += text_size;
        self.sealed = None;
        self.runs.clear();
    }

    /// Append one already-encoded `(key, value)` record.
    pub fn push_pair(&mut self, key: &[u8], value: &[u8], text_size: u64) {
        self.push(key, text_size, |buf| buf.extend_from_slice(value));
    }

    /// Key bytes of record `i` (current index order).
    #[inline]
    pub fn key(&self, i: usize) -> &[u8] {
        let e = &self.entries[i];
        &e.record(&self.chunks)[..e.key_len as usize]
    }

    /// Value bytes of record `i` (current index order).
    #[inline]
    pub fn value(&self, i: usize) -> &[u8] {
        let e = &self.entries[i];
        &e.record(&self.chunks)[e.key_len as usize..]
    }

    /// True when records `i` and `j` have byte-identical keys.
    #[inline]
    pub fn keys_equal(&self, i: usize, j: usize) -> bool {
        let (a, b) = (&self.entries[i], &self.entries[j]);
        if a.prefix != b.prefix {
            // Differing prefixes settle inequality outright — in
            // particular two *full* prefixes (`key_len > 8` on both
            // sides) jump straight here without touching the lengths,
            // the hot path for long-key grouping.
            return false;
        }
        // Prefix tie: equal lengths ≤ 8 imply byte-identical keys (both
        // fit the cache, see module docs) — short keys never memcmp.
        a.key_len == b.key_len && (a.key_len <= 8 || self.key(i) == self.key(j))
    }

    /// Iterate `(key, value)` slices in current index order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], &[u8])> {
        (0..self.len()).map(|i| (self.key(i), self.value(i)))
    }

    /// Iterate maximal ranges of equal-key records in current index
    /// order. Only meaningful on a sorted (or merged) arena, where equal
    /// keys are adjacent — the reduce side's grouping loop.
    pub fn group_ranges(&self) -> GroupRanges<'_> {
        GroupRanges { arena: self, start: 0 }
    }

    /// Append every record of `other` by copying its bytes onto the end
    /// of this arena's last chunk, without tracking runs — the
    /// concatenating shuffle transfer, whose reduce side paid a full sort.
    /// Reference path for the differential tests.
    #[cfg(test)]
    fn absorb(&mut self, other: &SpillArena) {
        self.runs.clear();
        if self.chunks.is_empty() {
            self.chunks.push(Vec::new());
        }
        let last = self.chunks.len() - 1;
        let bytes = &mut self.chunks[last];
        let mut bases = Vec::with_capacity(other.chunks.len());
        for chunk in &other.chunks {
            bases.push(u32::try_from(bytes.len()).expect("spill chunk exceeds 4 GiB"));
            bytes.extend_from_slice(chunk);
        }
        self.entries.extend(other.entries.iter().map(|e| IndexEntry {
            chunk: last as u32,
            off: bases[e.chunk as usize] + e.off,
            ..*e
        }));
        self.text_bytes += other.text_bytes;
        self.sealed = None;
    }

    /// Append every record of `other`, preserving its record order, and
    /// record it as one sorted run so the reduce side can
    /// [`merge_sorted_runs`](Self::merge_sorted_runs) instead of paying a
    /// full re-sort. `other`'s chunks become chunks of this arena as they
    /// are — no record byte is copied; only its index entries are, with
    /// their chunk ids rebased. The caller guarantees `other` is sorted
    /// (the reduce-side fetch only routes map-side-sorted, seal-verified
    /// buckets here).
    pub fn absorb_sorted(&mut self, other: SpillArena) {
        debug_assert_eq!(
            self.runs.last().map_or(0, |&e| e as usize),
            self.entries.len(),
            "absorb_sorted on an accumulator without run structure"
        );
        self.sealed = None;
        if other.entries.is_empty() {
            return;
        }
        let base = self.chunks.len();
        self.chunks.extend(other.chunks);
        // Every chunk id, the rebased ones included, is below this bound.
        assert!(self.chunks.len() <= u32::MAX as usize, "spill arena exceeds 4 Gi chunks");
        self.entries.extend(
            other.entries.iter().map(|e| IndexEntry { chunk: base as u32 + e.chunk, ..*e }),
        );
        self.text_bytes += other.text_bytes;
        self.runs
            .push(u32::try_from(self.entries.len()).expect("spill arena exceeds 4 Gi records"));
    }

    /// Number of tracked sorted runs, or 0 when the arena has no valid
    /// run structure (freshly pushed, unsorted records).
    pub fn sorted_run_count(&self) -> usize {
        if self.runs.last().map_or(0, |&e| e as usize) == self.entries.len() {
            self.runs.len()
        } else {
            0
        }
    }

    /// Compute the arena's integrity checksum: the record bytes as one
    /// framed block, then each index entry's position and lengths in
    /// current index order, folded as two words — so both the bytes *and*
    /// the record layout (including post-sort record order) are covered,
    /// CRC-framed-block style. Positions are offsets into the
    /// concatenation of the chunks, so the checksum is a function of the
    /// records' layout, not of how they are chunked. Only map-side
    /// buckets — one chunk each — are sealed; the copying branch serves
    /// the tests that compare a partition against its concatenation.
    fn checksum(&self) -> u64 {
        let mut c = crate::hash::BlockChecksum::default();
        let mut bases = Vec::with_capacity(self.chunks.len());
        let mut total = 0u64;
        for chunk in &self.chunks {
            bases.push(total);
            total += chunk.len() as u64;
        }
        match self.chunks.as_slice() {
            [] => c.update(&[]),
            [only] => c.update(only),
            many => c.update(&many.concat()),
        }
        for e in &self.entries {
            c.fold_word(bases[e.chunk as usize] + u64::from(e.off));
            c.fold_word(u64::from(e.key_len) | u64::from(e.val_len) << 32);
        }
        c.finish()
    }

    /// Seal the arena: record its checksum for later [`verify`], and
    /// release the growth slack of its buffers first, so a sealed bucket
    /// travels to its reducer at its exact size. The map side calls this
    /// once a bucket's contents are final; any later mutation through the
    /// normal API clears the seal.
    ///
    /// [`verify`]: Self::verify
    pub(crate) fn seal(&mut self) {
        for chunk in &mut self.chunks {
            chunk.shrink_to_fit();
        }
        self.sealed = Some(self.checksum());
    }

    /// Recompute the checksum and compare against the seal. `Ok(())` for
    /// an unsealed arena (nothing committed to verify against);
    /// `Err((expected, actual))` on mismatch — the shuffle's
    /// fetch-failure signal.
    pub(crate) fn verify(&self) -> Result<(), (u64, u64)> {
        match self.sealed {
            None => Ok(()),
            Some(expected) => {
                let actual = self.checksum();
                if actual == expected {
                    Ok(())
                } else {
                    Err((expected, actual))
                }
            }
        }
    }

    /// Flip one bit of byte `offset` of the concatenated chunks **without
    /// clearing the seal** — the fault injector's model of silent
    /// corruption in transit or at rest. Flipping the same offset again
    /// restores the original contents (the re-executed map's clean
    /// output).
    pub(crate) fn flip_byte(&mut self, mut offset: usize) {
        for chunk in &mut self.chunks {
            if offset < chunk.len() {
                chunk[offset] ^= 0x01;
                return;
            }
            offset -= chunk.len();
        }
        panic!("flip offset beyond the arena's {} bytes", self.encoded_bytes());
    }

    /// Sort the record index into the canonical `(prefix, key bytes,
    /// value bytes, (chunk, offset))` order and mark the arena as a single sorted
    /// run. Unstable, but observationally deterministic (see module docs).
    pub fn sort_unstable(&mut self) {
        let SpillArena { chunks, entries, .. } = self;
        entries.sort_unstable_by(|a, b| cmp_entries(chunks, a, b));
        self.runs.clear();
        if !self.entries.is_empty() {
            self.runs.push(u32::try_from(self.entries.len()).expect("spill arena entry count"));
        }
    }

    /// Bring the arena into the canonical sorted order by k-way merging
    /// its tracked sorted runs — an index-entry merge; record bytes never
    /// move and no payloads are copied. Falls back to a full sort
    /// when no valid run structure is tracked. Produces exactly the array
    /// [`sort_unstable`](Self::sort_unstable) would (the canonical order is
    /// total), in `O(n log k)` compares instead of a second full sort.
    ///
    /// The merge is an iterative pairwise ping-pong between two entry
    /// buffers — `⌈log₂ k⌉` passes each 2-way-merging adjacent runs —
    /// rather than a k-way heap: a 2-way merge costs ~1 comparison per
    /// element per pass against the heap's ~2 log₂ k sift comparisons per
    /// element, which matters precisely in the degenerate case (shared
    /// long key prefixes) where every comparison is a full memcmp.
    pub fn merge_sorted_runs(&mut self) {
        let n = self.entries.len();
        if self.runs.last().map_or(0, |&e| e as usize) != n {
            self.sort_unstable();
            return;
        }
        if self.runs.len() <= 1 {
            return;
        }
        let mut bounds: Vec<(usize, usize)> = {
            let mut v = Vec::with_capacity(self.runs.len());
            let mut start = 0usize;
            for &end in &self.runs {
                v.push((start, end as usize));
                start = end as usize;
            }
            v
        };
        let mut src = std::mem::take(&mut self.entries);
        let mut dst = vec![src[0]; n];
        let chunks = &self.chunks;
        while bounds.len() > 1 {
            let mut next_bounds = Vec::with_capacity(bounds.len().div_ceil(2));
            let mut pair = 0;
            while pair + 1 < bounds.len() {
                let (a_start, a_end) = bounds[pair];
                let (b_start, b_end) = bounds[pair + 1];
                let (mut a, mut b, mut out) = (a_start, b_start, a_start);
                while a < a_end && b < b_end {
                    // The position tie-break makes the order total, so
                    // distinct entries never compare equal and either
                    // branch choice on a tie would be unreachable.
                    let take_a = {
                        let (ea, eb) = (&src[a], &src[b]);
                        ea.prefix < eb.prefix
                            || (ea.prefix == eb.prefix && cmp_entries(chunks, ea, eb).is_lt())
                    };
                    if take_a {
                        dst[out] = src[a];
                        a += 1;
                    } else {
                        dst[out] = src[b];
                        b += 1;
                    }
                    out += 1;
                }
                dst[out..out + (a_end - a)].copy_from_slice(&src[a..a_end]);
                out += a_end - a;
                dst[out..out + (b_end - b)].copy_from_slice(&src[b..b_end]);
                next_bounds.push((a_start, b_end));
                pair += 2;
            }
            if pair < bounds.len() {
                let (start, end) = bounds[pair];
                dst[start..end].copy_from_slice(&src[start..end]);
                next_bounds.push((start, end));
            }
            std::mem::swap(&mut src, &mut dst);
            bounds = next_bounds;
        }
        self.entries = src;
        self.runs = vec![u32::try_from(n).expect("spill arena entry count")];
    }
}

/// Iterator over maximal equal-key record ranges of a sorted arena,
/// produced by [`SpillArena::group_ranges`].
#[derive(Debug)]
pub struct GroupRanges<'a> {
    arena: &'a SpillArena,
    start: usize,
}

impl Iterator for GroupRanges<'_> {
    type Item = std::ops::Range<usize>;

    fn next(&mut self) -> Option<Self::Item> {
        let n = self.arena.len();
        if self.start >= n {
            return None;
        }
        let i = self.start;
        let mut j = i + 1;
        while j < n && self.arena.keys_equal(i, j) {
            j += 1;
        }
        self.start = j;
        Some(i..j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(arena: &SpillArena) -> Vec<(Vec<u8>, Vec<u8>)> {
        arena.iter().map(|(k, v)| (k.to_vec(), v.to_vec())).collect()
    }

    #[test]
    fn push_and_slice_roundtrip() {
        let mut a = SpillArena::default();
        a.push(b"key1", 7, |buf| buf.extend_from_slice(b"value1"));
        a.push_pair(b"k", b"", 3);
        assert_eq!(a.len(), 2);
        assert_eq!(a.key(0), b"key1");
        assert_eq!(a.value(0), b"value1");
        assert_eq!(a.key(1), b"k");
        assert_eq!(a.value(1), b"");
        assert_eq!(a.text_bytes(), 10);
    }

    #[test]
    fn prefix_matches_lexicographic_order() {
        // prefix(a) < prefix(b) must imply key(a) < key(b) bytewise, for
        // keys shorter, longer, and exactly 8 bytes — including embedded
        // zero bytes (which collide with padding and must fall through to
        // the memcmp tie-break, never mis-order).
        let keys: Vec<&[u8]> = vec![
            b"",
            b"\0",
            b"\0a",
            b"a",
            b"a\0",
            b"ab",
            b"abcdefgh",
            b"abcdefghi",
            b"abcdefgi",
            b"b",
            b"\xff\xff\xff\xff\xff\xff\xff\xff\xff",
        ];
        for x in &keys {
            for y in &keys {
                let (px, py) = (key_prefix(x), key_prefix(y));
                if px < py {
                    assert!(x < y, "{x:?} vs {y:?}");
                } else if px > py {
                    assert!(x > y, "{x:?} vs {y:?}");
                }
                // px == py says nothing; the sort memcmps the full keys.
            }
        }
    }

    #[test]
    fn sort_matches_owned_pair_reference() {
        let mut a = SpillArena::default();
        let mut reference: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for i in [5u32, 3, 11, 3, 0, 7, 3] {
            let key = format!("key{i}").into_bytes();
            let val = format!("v{}", i * 2).into_bytes();
            a.push_pair(&key, &val, 1);
            reference.push((key, val));
        }
        a.sort_unstable();
        reference.sort();
        assert_eq!(collect(&a), reference);

        // Every key family at once, many records per key.
        let mut a = mixed_arena(2000);
        let mut reference: Vec<(Vec<u8>, Vec<u8>)> =
            a.iter().map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
        a.sort_unstable();
        reference.sort();
        assert_eq!(collect(&a), reference);
    }

    #[test]
    fn prefix_tie_keys_sort_and_group_correctly() {
        // All keys share the same 8-byte prefix; order must come from the
        // tails (memcmp fallback), and grouping must separate them.
        let tails = ["", "a", "aa", "b", "\0"];
        let mut a = SpillArena::default();
        for t in tails.iter().rev() {
            let key = format!("SHARED8B{t}");
            a.push_pair(key.as_bytes(), b"v", 1);
        }
        // Two extra records with a duplicate key, to exercise grouping.
        a.push_pair(b"SHARED8Ba", b"w", 1);
        a.push_pair(b"SHARED8B", b"u", 1);
        a.sort_unstable();

        let mut reference: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for t in tails.iter().rev() {
            reference.push((format!("SHARED8B{t}").into_bytes(), b"v".to_vec()));
        }
        reference.push((b"SHARED8Ba".to_vec(), b"w".to_vec()));
        reference.push((b"SHARED8B".to_vec(), b"u".to_vec()));
        reference.sort();
        assert_eq!(collect(&a), reference);

        // Group boundaries: equal keys adjacent, distinct keys separated.
        let mut groups = Vec::new();
        let mut i = 0;
        while i < a.len() {
            let mut j = i + 1;
            while j < a.len() && a.keys_equal(i, j) {
                j += 1;
            }
            groups.push((a.key(i).to_vec(), j - i));
            i = j;
        }
        assert_eq!(
            groups,
            vec![
                (b"SHARED8B".to_vec(), 2),
                (b"SHARED8B\0".to_vec(), 1),
                (b"SHARED8Ba".to_vec(), 2),
                (b"SHARED8Baa".to_vec(), 1),
                (b"SHARED8Bb".to_vec(), 1),
            ]
        );
    }

    #[test]
    fn absorb_concatenates_in_order() {
        let mut a = SpillArena::default();
        a.push_pair(b"z", b"1", 2);
        let mut b = SpillArena::default();
        b.push_pair(b"a", b"2", 3);
        b.push_pair(b"m", b"3", 4);
        a.absorb(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.text_bytes(), 9);
        assert_eq!(
            collect(&a),
            vec![
                (b"z".to_vec(), b"1".to_vec()),
                (b"a".to_vec(), b"2".to_vec()),
                (b"m".to_vec(), b"3".to_vec()),
            ]
        );
    }

    #[test]
    fn encoded_bytes_is_exact_buffer_size() {
        let mut a = SpillArena::default();
        assert_eq!(a.encoded_bytes(), 0);
        a.push_pair(b"key1", b"value1", 99);
        a.push_pair(b"k", b"", 99);
        // 4 + 6 + 1 + 0 buffer bytes, regardless of simulated text size.
        assert_eq!(a.encoded_bytes(), 11);
        let mut b = SpillArena::default();
        b.push_pair(b"xy", b"z", 1);
        a.absorb(&b);
        assert_eq!(a.encoded_bytes(), 14);
    }

    #[test]
    fn short_key_length_ties_sort_and_group_like_memcmp() {
        // Keys that share a prefix cache and fit inside it entirely —
        // including embedded/trailing NULs, the adversarial case for the
        // zero-padding argument. The length-compare fast path must agree
        // with full lexicographic order, and grouping must not merge
        // "a" with "a\0". Values fall as keys grow, so a length rule that
        // let the value decide would show.
        let keys: Vec<&[u8]> =
            vec![b"", b"\0", b"\0\0", b"a", b"a\0", b"a\0\0", b"a\0b", b"ab", b"abcdefgh"];
        let value = |i: usize| format!("v{}", keys.len() - i);
        let mut a = SpillArena::default();
        for (i, k) in keys.iter().enumerate().rev() {
            a.push_pair(k, value(i).as_bytes(), 1);
            a.push_pair(k, value(i).as_bytes(), 1); // duplicate for grouping
        }
        a.sort_unstable();
        let mut reference: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for (i, k) in keys.iter().enumerate() {
            for _ in 0..2 {
                reference.push((k.to_vec(), value(i).into_bytes()));
            }
        }
        reference.sort();
        assert_eq!(collect(&a), reference);

        // Each distinct key forms exactly one group of two records.
        let mut i = 0;
        let mut groups = Vec::new();
        while i < a.len() {
            let mut j = i + 1;
            while j < a.len() && a.keys_equal(i, j) {
                j += 1;
            }
            groups.push((a.key(i).to_vec(), j - i));
            i = j;
        }
        assert_eq!(groups.len(), keys.len());
        for (k, n) in &groups {
            assert_eq!(*n, 2, "key {k:?} must group exactly its two records");
        }
    }

    /// `k` as a `φ` partition key: its decimal token.
    fn decimal_key(k: u64) -> Vec<u8> {
        let mut key = Vec::new();
        crate::codec::put_decimal_token(&mut key, k);
        key
    }

    #[test]
    fn nine_byte_token_keys_share_prefix_and_still_sort() {
        // A 5-digit token is 9 bytes: its 4 length bytes and first 4
        // digits fill the prefix cache, so keys that differ only in the
        // last digit tie on the prefix and are ordered by their tails.
        let k1 = decimal_key(12_347);
        let k2 = decimal_key(12_343);
        assert_eq!(k1.len(), 9);
        assert_eq!(k2.len(), 9);
        assert_eq!(key_prefix(&k1), key_prefix(&k2), "test needs a genuine prefix tie");
        assert_ne!(k1, k2);

        let mut a = SpillArena::default();
        a.push_pair(&k1, b"big", 1);
        a.push_pair(&k2, b"small", 1);
        a.push_pair(&k1, b"big2", 1);
        a.sort_unstable();
        // Tail digit '3' < '7' puts k2 first; the two k1 records group.
        assert_eq!(
            collect(&a),
            vec![
                (k2.clone(), b"small".to_vec()),
                (k1.clone(), b"big".to_vec()),
                (k1.clone(), b"big2".to_vec()),
            ]
        );
        assert!(a.keys_equal(1, 2));
        assert!(!a.keys_equal(0, 1));
    }

    #[test]
    fn footprint_tracks_contents() {
        let mut a = SpillArena::default();
        assert_eq!(a.footprint_bytes(), 0);
        a.push_pair(b"key1", b"value1", 99);
        a.push_pair(b"k", b"", 99);
        let entry = std::mem::size_of::<IndexEntry>() as u64;
        assert_eq!(a.footprint_bytes(), 11 + 2 * entry);
        let mut b = SpillArena::default();
        b.push_pair(b"xy", b"z", 1);
        a.absorb(&b);
        assert_eq!(a.footprint_bytes(), 14 + 3 * entry);
        // Sorting moves no bytes: the footprint is unchanged.
        a.sort_unstable();
        assert_eq!(a.footprint_bytes(), 14 + 3 * entry);
    }

    #[test]
    fn seal_and_verify_catch_flips() {
        let mut a = SpillArena::default();
        a.push_pair(b"key1", b"value1", 1);
        a.push_pair(b"key2", b"value2", 1);
        // Unsealed arenas have nothing to verify against.
        assert_eq!(a.verify(), Ok(()));
        a.seal();
        assert_eq!(a.verify(), Ok(()));
        // A silent bit flip is caught, and restoring the byte re-verifies.
        a.flip_byte(3);
        let err = a.verify().expect_err("flip must be detected");
        assert_ne!(err.0, err.1);
        a.flip_byte(3);
        assert_eq!(a.verify(), Ok(()));
        // Every byte position is covered.
        for off in 0..a.encoded_bytes() as usize {
            a.flip_byte(off);
            assert!(a.verify().is_err(), "flip at {off} undetected");
            a.flip_byte(off);
        }
        // Mutation through the normal API clears the seal.
        a.push_pair(b"key3", b"v", 1);
        assert_eq!(a.verify(), Ok(()));
    }

    #[test]
    fn seal_covers_record_order() {
        // Same bytes, different index order (post-sort) must checksum
        // differently: the record stream is entries-order, not byte-order.
        let mut a = SpillArena::default();
        a.push_pair(b"zz", b"1", 1);
        a.push_pair(b"aa", b"2", 1);
        a.seal();
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.seal();
        assert_eq!(a.verify(), Ok(()));
        assert_eq!(sorted.verify(), Ok(()));
        assert_ne!(a.sealed, sorted.sealed);
        // absorb clears the seal on the accumulator.
        let mut acc = SpillArena::default();
        acc.seal();
        acc.absorb(&a);
        assert_eq!(acc.sealed, None);
    }

    #[test]
    fn equal_keys_sort_by_value() {
        let mut a = SpillArena::default();
        a.push_pair(b"k", b"bb", 1);
        a.push_pair(b"k", b"aa", 1);
        a.push_pair(b"k", b"", 1);
        a.sort_unstable();
        assert_eq!(
            collect(&a),
            vec![
                (b"k".to_vec(), b"".to_vec()),
                (b"k".to_vec(), b"aa".to_vec()),
                (b"k".to_vec(), b"bb".to_vec()),
            ]
        );
    }

    /// Every key family the existing fixtures pin: short keys with
    /// embedded/trailing NULs (length-tie path), long keys sharing an
    /// 8-byte prefix (memcmp path), long keys with distinct full
    /// prefixes (the no-touch fast path), short decimal tokens, and 9-byte
    /// decimal tokens that tie on the prefix.
    fn fixture_keys() -> Vec<Vec<u8>> {
        let mut keys: Vec<Vec<u8>> =
            [b"" as &[u8], b"\0", b"\0\0", b"a", b"a\0", b"a\0\0", b"a\0b", b"ab", b"abcdefgh"]
                .iter()
                .map(|k| k.to_vec())
                .collect();
        for t in ["", "a", "aa", "b", "\0"] {
            keys.push(format!("SHARED8B{t}").into_bytes());
        }
        keys.push(b"DIFFER8Bx".to_vec());
        for k in [0, 7, 1023, 12_343, 12_347] {
            keys.push(decimal_key(k));
        }
        keys
    }

    #[test]
    fn keys_equal_matches_memcmp_on_prefix_tie_fixtures() {
        let keys = fixture_keys();
        let mut a = SpillArena::default();
        for k in &keys {
            a.push_pair(k, b"v", 1);
            a.push_pair(k, b"w", 1); // duplicate: the equality side
        }
        for i in 0..a.len() {
            for j in 0..a.len() {
                assert_eq!(
                    a.keys_equal(i, j),
                    a.key(i) == a.key(j),
                    "keys_equal diverges from memcmp on {:?} vs {:?}",
                    a.key(i),
                    a.key(j)
                );
            }
        }
    }

    /// Deterministic mixed workload of the keys operators ship: short
    /// and 9-byte decimal tokens, IRI tokens, and tag-led composites that
    /// tie on the prefix — plus raw keys sharing an 8-byte prefix.
    fn mixed_arena(records: usize) -> SpillArena {
        let mut a = SpillArena::default();
        for i in 0..records {
            let x = (i as u32).wrapping_mul(0x9e37_79b9);
            let mut key = Vec::new();
            match i % 4 {
                0 => crate::codec::put_decimal_token(&mut key, u64::from(x % 5000)),
                1 => {
                    crate::codec::put_token(&mut key, &format!("<http://example.org/r{}>", x % 300))
                }
                2 => key.extend_from_slice(format!("SHARED8B{}", x % 40).as_bytes()),
                _ => {
                    crate::codec::put_tag(&mut key, u64::from(x % 2));
                    crate::codec::put_decimal_token(&mut key, u64::from(10_000 + x % 64));
                }
            }
            a.push_pair(&key, format!("v{}", x % 7).as_bytes(), 1);
        }
        a
    }

    /// The index with each `(chunk, offset)` mapped to the record's offset
    /// in the concatenation of the chunks — so a partition that keeps its
    /// buckets as chunks compares equal to the concatenating reference.
    fn index_snapshot(a: &SpillArena) -> Vec<(u64, u64, u32, u32)> {
        let bases: Vec<u64> = a
            .chunks
            .iter()
            .scan(0u64, |total, c| {
                let base = *total;
                *total += c.len() as u64;
                Some(base)
            })
            .collect();
        a.entries
            .iter()
            .map(|e| (e.prefix, bases[e.chunk as usize] + u64::from(e.off), e.key_len, e.val_len))
            .collect()
    }

    #[test]
    fn absorb_sorted_merge_equals_full_sort() {
        // Split a workload into map-style buckets, sort each, absorb as
        // runs, merge — must equal plain absorb + full sort, entries,
        // checksum, and group boundaries alike.
        let buckets: Vec<SpillArena> = (0..5)
            .map(|b| {
                let src = mixed_arena(300 + 67 * b);
                let mut bucket = SpillArena::default();
                for (k, v) in src.iter().skip(40 * b) {
                    bucket.push_pair(k, v, 1);
                }
                bucket
            })
            .collect();
        let mut merged = SpillArena::default();
        for bucket in &buckets {
            let mut sorted = bucket.clone();
            sorted.sort_unstable();
            merged.absorb_sorted(sorted);
        }
        assert_eq!(merged.sorted_run_count(), 5);
        assert_eq!(merged.chunks.len(), 5, "each bucket stays one chunk");
        merged.merge_sorted_runs();
        assert_eq!(merged.sorted_run_count(), 1);

        let mut resorted = SpillArena::default();
        for bucket in &buckets {
            let mut sorted = bucket.clone();
            sorted.sort_unstable();
            resorted.absorb(&sorted);
        }
        assert_eq!(resorted.sorted_run_count(), 0);
        resorted.sort_unstable();
        assert_eq!(index_snapshot(&merged), index_snapshot(&resorted));
        assert_eq!(merged.checksum(), resorted.checksum());
        assert_eq!(collect(&merged), collect(&resorted));
        let groups: Vec<_> = merged.group_ranges().collect();
        assert_eq!(groups, resorted.group_ranges().collect::<Vec<_>>());
        assert_eq!(groups.iter().map(|r| r.len()).sum::<usize>(), merged.len());
    }

    #[test]
    fn merge_without_run_structure_falls_back_to_full_sort() {
        let mut a = mixed_arena(500);
        assert_eq!(a.sorted_run_count(), 0);
        a.merge_sorted_runs();
        let mut reference = mixed_arena(500);
        reference.sort_unstable();
        assert_eq!(index_snapshot(&a), index_snapshot(&reference));
        // A push invalidates the run structure again.
        a.push_pair(b"zzz", b"v", 1);
        assert_eq!(a.sorted_run_count(), 0);
    }

    #[test]
    fn group_ranges_matches_manual_grouping_loop() {
        let mut a = mixed_arena(700);
        a.sort_unstable();
        let mut manual = Vec::new();
        let mut i = 0;
        while i < a.len() {
            let mut j = i + 1;
            while j < a.len() && a.keys_equal(i, j) {
                j += 1;
            }
            manual.push(i..j);
            i = j;
        }
        assert_eq!(a.group_ranges().collect::<Vec<_>>(), manual);
    }

    mod differential {
        use super::*;
        use proptest::prelude::{prop_assert_eq, proptest};
        use proptest::strategy::{BoxedStrategy, Just, Strategy, Union};

        /// `φ` partition keys: decimal tokens of 5–9 bytes, the 9-byte
        /// ones tying on the prefix in runs of ten.
        fn decimal_keys() -> BoxedStrategy<Vec<Vec<u8>>> {
            proptest::collection::vec(0u64..20_000, 1..400)
                .prop_map(|ks| ks.into_iter().map(decimal_key).collect())
                .boxed()
        }

        fn lexical_keys() -> BoxedStrategy<Vec<Vec<u8>>> {
            proptest::collection::vec(0u32..300, 1..400)
                .prop_map(|ids| {
                    ids.into_iter()
                        .map(|v| {
                            let mut k = Vec::new();
                            crate::codec::put_token(
                                &mut k,
                                &format!("<http://example.org/res{v}>"),
                            );
                            k
                        })
                        .collect()
                })
                .boxed()
        }

        /// Pathological: every key shares (at least) an 8-byte prefix,
        /// with short-tail collisions and embedded NULs.
        fn shared_prefix_keys() -> BoxedStrategy<Vec<Vec<u8>>> {
            let tail = Union::new([
                Just(Vec::new()).boxed(),
                Just(b"\0".to_vec()).boxed(),
                Just(b"a".to_vec()).boxed(),
                Just(b"a\0".to_vec()).boxed(),
                Just(b"ab".to_vec()).boxed(),
                proptest::collection::vec(0u8..=255, 0..12).boxed(),
            ]);
            proptest::collection::vec(tail, 1..400)
                .prop_map(|tails| {
                    tails
                        .into_iter()
                        .map(|t| {
                            let mut k = b"SHARED8B".to_vec();
                            k.extend_from_slice(&t);
                            k
                        })
                        .collect()
                })
                .boxed()
        }

        fn any_key_set() -> Union<Vec<Vec<u8>>> {
            Union::new([decimal_keys(), lexical_keys(), shared_prefix_keys()])
        }

        fn build(keys: &[Vec<u8>]) -> SpillArena {
            let mut a = SpillArena::default();
            for (i, k) in keys.iter().enumerate() {
                // Few distinct values so equal (key, value) pairs occur.
                a.push_pair(k, format!("v{}", i % 3).as_bytes(), 1);
            }
            a
        }

        proptest! {
            /// The merge path is just another route to the same array, and
            /// both match the owned-pair reference order.
            #[test]
            fn run_merge_equals_full_sort(
                chunks in proptest::collection::vec(any_key_set(), 1..6)
            ) {
                let mut merged = SpillArena::default();
                let mut resorted = SpillArena::default();
                for keys in &chunks {
                    let mut bucket = build(keys);
                    bucket.sort_unstable();
                    resorted.absorb(&bucket);
                    merged.absorb_sorted(bucket);
                }
                let mut reference = collect(&resorted);
                reference.sort();
                merged.merge_sorted_runs();
                resorted.sort_unstable();
                prop_assert_eq!(index_snapshot(&merged), index_snapshot(&resorted));
                prop_assert_eq!(merged.checksum(), resorted.checksum());
                prop_assert_eq!(collect(&merged), collect(&resorted));
                prop_assert_eq!(collect(&resorted), reference);
            }
        }
    }
}
