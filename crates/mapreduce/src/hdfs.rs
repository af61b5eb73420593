//! Simulated HDFS: an in-memory distributed file system with replication
//! accounting and a bounded disk budget.
//!
//! The paper's clusters had only 20 GB of disk per node; with a replication
//! factor of 2 the redundant intermediate results of relational plans
//! exceeded the budget and jobs failed. [`SimHdfs`] reproduces exactly that
//! failure mode: every stored file consumes `text_bytes × replication` of
//! the configured capacity, and a write that would exceed capacity fails
//! with [`MrError::DiskFull`].
//!
//! How a [`DfsFile`] lays out its records is private to this module and
//! depends on who wrote it. A file a *caller* builds
//! ([`DfsFile::push_record`], as [`load_store`](crate::triples::load_store) and
//! [`Engine::put_records`](crate::Engine::put_records) build one) is one
//! byte buffer holding every record back to back plus an index of record
//! end offsets — the paper's N-Triples input is a byte range HDFS cuts into
//! blocks, not a list of row objects — and [`SimHdfs::put`] checksums it in
//! one pass. A file a *job* writes keeps one buffer per record, as its
//! tasks emitted them, under the checksums those tasks took. Readers see
//! `&[u8]` records through [`DfsFile::len`], [`DfsFile::iter`] and
//! [`DfsFile::range`], identically for both layouts.

use crate::error::MrError;
use crate::hash::BlockChecksum;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

/// The records of a [`DfsFile`], in the layout its writer gave them.
#[derive(Debug, Clone)]
enum Records {
    /// A caller-built file: every record's bytes back to back in `bytes`,
    /// record `i` ending at byte `ends[i]`.
    Packed { bytes: Vec<u8>, ends: Vec<u32> },
    /// A job-written file: one buffer per record, as its task emitted it.
    /// Concatenating task output at commit measured slower and larger (see
    /// DESIGN.md §8, "Data integrity").
    PerRecord(Vec<Vec<u8>>),
}

impl Default for Records {
    fn default() -> Self {
        Records::Packed { bytes: Vec::new(), ends: Vec::new() }
    }
}

/// Start offset of packed record `i` (the end of record `i - 1`).
fn packed_start(ends: &[u32], i: usize) -> usize {
    i.checked_sub(1).map_or(0, |prev| ends[prev] as usize)
}

/// A packed file's buffer length as an end offset: the one checked
/// conversion on the load path. A caller-built file may hold at most
/// `u32::MAX` payload bytes.
fn end_offset(len: usize) -> Result<u32, MrError> {
    u32::try_from(len).map_err(|_| MrError::FileTooLarge { bytes: len as u64 })
}

/// One file in the simulated DFS.
///
/// Records are stored in their compact binary encoding (see
/// [`crate::codec::Rec`]), but the *accounted* size is `text_bytes` — the
/// size the file would have as Hadoop text rows.
///
/// Like an HDFS file, it is checksummed per block, by its writer: each
/// task that writes records into the file checksums them as it closes,
/// and [`SimHdfs::put`] checksums whatever records no writer covered — all
/// of a caller-built file, as one block.
///
/// A caller-built file is one block, checksummed in one pass: one framed
/// [`BlockChecksum::update`] over its whole buffer, then one
/// [`BlockChecksum::fold_word`] per record end offset. Detection of a
/// single-bit payload flip is still certain: the update's result differs
/// (the argument is on [`BlockChecksum`]), and every later fold
/// `x ↦ (x ^ w)·P` is a bijection of the state. So is detection of a
/// forged boundary: a changed end offset is a different word folded into
/// an equal state, and the fold is a bijection in the word as well.
/// Per-record framing is needed for neither. The update covers the whole
/// buffer wherever the offsets point, which is why the file is one block.
#[derive(Debug, Clone, Default)]
pub struct DfsFile {
    records: Records,
    /// Simulated text size of the file in bytes.
    pub text_bytes: u64,
    /// Replication factor this file was written with.
    pub replication: u32,
    /// `(end record, checksum)` per writer block, in record order: block
    /// `i` covers the records from block `i - 1`'s end up to its own.
    /// Readers verify reads against them block by block,
    /// HDFS-block-checksum style.
    pub(crate) blocks: Vec<(usize, u64)>,
}

/// Checksum of one job-written DFS block: each record folded as one framed
/// block, so both record bytes and record boundaries are covered. A
/// writing task folds its records into one [`BlockChecksum`] per output
/// file the same way as it closes.
pub(crate) fn records_checksum<'a>(records: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut c = BlockChecksum::default();
    for rec in records {
        c.update(rec);
    }
    c.finish()
}

impl DfsFile {
    /// An empty caller-built file with room for exactly `bytes` payload
    /// bytes in `records` records: filled to that size by
    /// [`push_record`](Self::push_record), it is allocated once.
    pub fn with_capacity(bytes: usize, records: usize) -> Self {
        let records =
            Records::Packed { bytes: Vec::with_capacity(bytes), ends: Vec::with_capacity(records) };
        DfsFile { records, ..DfsFile::default() }
    }

    /// A job's output file: its records as the tasks emitted them, and one
    /// `(end record, checksum)` block per writing task.
    pub(crate) fn written(
        records: Vec<Vec<u8>>,
        text_bytes: u64,
        blocks: Vec<(usize, u64)>,
    ) -> Self {
        DfsFile { records: Records::PerRecord(records), text_bytes, blocks, ..DfsFile::default() }
    }

    /// Append one record: `encode` appends its encoded bytes to the buffer
    /// it is handed, and `text_bytes` is its simulated text size. A
    /// caller-built file whose payload would outgrow `u32::MAX` bytes is
    /// refused with [`MrError::FileTooLarge`] and left as it was.
    pub fn push_record(
        &mut self,
        text_bytes: u64,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(), MrError> {
        match &mut self.records {
            Records::Packed { bytes, ends } => {
                let start = bytes.len();
                encode(bytes);
                match end_offset(bytes.len()) {
                    Ok(end) => ends.push(end),
                    Err(e) => {
                        bytes.truncate(start);
                        return Err(e);
                    }
                }
            }
            Records::PerRecord(records) => {
                let mut rec = Vec::new();
                encode(&mut rec);
                records.push(rec);
            }
        }
        self.text_bytes += text_bytes;
        Ok(())
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        match &self.records {
            Records::Packed { ends, .. } => ends.len(),
            Records::PerRecord(records) => records.len(),
        }
    }

    /// True if the file holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The records, in order.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> {
        self.range(0..self.len())
    }

    /// Records `range.start..range.end`, in order. Panics if the range
    /// is out of bounds, like slicing.
    pub fn range(&self, range: Range<usize>) -> impl Iterator<Item = &[u8]> {
        range.map(move |i| self.record(i))
    }

    /// Record `i`.
    fn record(&self, i: usize) -> &[u8] {
        match &self.records {
            Records::Packed { bytes, ends } => &bytes[packed_start(ends, i)..ends[i] as usize],
            Records::PerRecord(records) => &records[i],
        }
    }

    /// Disk consumption including replication.
    pub fn disk_bytes(&self) -> u64 {
        self.text_bytes * u64::from(self.replication)
    }

    /// Total encoded payload bytes across all records — the address space
    /// the fault injector draws corruption offsets from.
    pub fn payload_bytes(&self) -> u64 {
        match &self.records {
            Records::Packed { bytes, .. } => bytes.len() as u64,
            Records::PerRecord(records) => records.iter().map(|r| r.len() as u64).sum(),
        }
    }

    /// The checksum of records `range` as one block: a job-written file's
    /// records framed one by one, or a whole caller-built file in one pass
    /// (see the type's docs).
    fn block_checksum(&self, range: Range<usize>) -> u64 {
        #[cfg(test)]
        tests::CHECKSUM_PASSES.with(|n| n.set(n.get() + 1));
        match &self.records {
            Records::Packed { bytes, ends } => {
                let mut c = BlockChecksum::default();
                c.update(bytes);
                for &end in ends {
                    c.fold_word(u64::from(end));
                }
                c.finish()
            }
            Records::PerRecord(records) => {
                records_checksum(records[range].iter().map(Vec::as_slice))
            }
        }
    }

    /// Checksum the records no writer covered as one last block: a whole
    /// caller-built file (again, if a caller appended to a copy of a
    /// committed one), or what a caller appended to a copy of a
    /// job-written file.
    fn seal(&mut self) {
        if let Records::Packed { .. } = self.records {
            self.blocks.clear();
        }
        let covered = self.blocks.last().map_or(0, |&(end, _)| end);
        debug_assert!(
            self.blocks.windows(2).all(|w| w[0].0 < w[1].0) && covered <= self.len(),
            "writer blocks must tile a prefix of the records"
        );
        if covered < self.len() {
            let sum = self.block_checksum(covered..self.len());
            self.blocks.push((self.len(), sum));
        }
    }

    /// Recompute every block's checksum and compare it against the one its
    /// writer recorded. `Err((expected, actual))` for the first block that
    /// mismatches.
    pub fn verify(&self) -> Result<(), (u64, u64)> {
        let mut start = 0;
        for &(end, expected) in &self.blocks {
            let actual = self.block_checksum(start..end);
            if actual != expected {
                return Err((expected, actual));
            }
            start = end;
        }
        Ok(())
    }

    /// Flip one bit of payload byte `offset` (record-concatenation order)
    /// without touching the committed checksums — the injector's model of
    /// at-rest block corruption. Out-of-range offsets are a no-op.
    pub fn flip_byte(&mut self, offset: u64) {
        let Ok(mut remaining) = usize::try_from(offset) else { return };
        match &mut self.records {
            // Record-concatenation order is buffer order.
            Records::Packed { bytes, .. } => {
                if let Some(byte) = bytes.get_mut(remaining) {
                    *byte ^= 0x01;
                }
            }
            Records::PerRecord(records) => {
                for rec in records {
                    if let Some(byte) = rec.get_mut(remaining) {
                        *byte ^= 0x01;
                        return;
                    }
                    remaining -= rec.len();
                }
            }
        }
    }
}

/// The simulated cluster file system.
#[derive(Debug)]
pub struct SimHdfs {
    files: BTreeMap<String, Arc<DfsFile>>,
    /// Total disk capacity across the cluster in bytes. `u64::MAX` means
    /// effectively unbounded.
    capacity: u64,
    /// Default replication factor for new files (`dfs.replication`).
    default_replication: u32,
    /// High-water mark of disk usage ever observed.
    peak_usage: u64,
}

impl SimHdfs {
    /// A DFS with the given total capacity and default replication, which
    /// [`Engine::new`](crate::Engine::new) has checked to be at least 1.
    pub(crate) fn new(capacity: u64, default_replication: u32) -> Self {
        SimHdfs { files: BTreeMap::new(), capacity, default_replication, peak_usage: 0 }
    }

    /// Default replication factor.
    pub fn default_replication(&self) -> u32 {
        self.default_replication
    }

    /// Current disk usage (text bytes × replication, summed over files).
    pub fn usage(&self) -> u64 {
        self.files.values().map(|f| f.disk_bytes()).sum()
    }

    /// Highest disk usage ever reached.
    pub fn peak_usage(&self) -> u64 {
        self.peak_usage
    }

    /// Total capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes still available.
    pub fn available(&self) -> u64 {
        self.capacity.saturating_sub(self.usage())
    }

    /// Store a file with the default replication factor.
    pub fn put(&mut self, name: &str, file: DfsFile) -> Result<(), MrError> {
        self.put_with_replication(name, file, self.default_replication)
    }

    /// Store a file with an explicit replication factor, at least 1: the
    /// engine's callers pass the checked default or a job's checked override.
    pub fn put_with_replication(
        &mut self,
        name: &str,
        mut file: DfsFile,
        replication: u32,
    ) -> Result<(), MrError> {
        if self.files.contains_key(name) {
            return Err(MrError::OutputExists(name.to_string()));
        }
        file.replication = replication;
        let needed = file.disk_bytes();
        let available = self.available();
        if needed > available {
            return Err(MrError::DiskFull { file: name.to_string(), needed, available });
        }
        // Records no writing task checksummed (all of a caller-built file)
        // are checksummed only once the write is admitted: a refused write
        // pays no pass over data it discards, and no file is committed
        // unchecked.
        file.seal();
        self.files.insert(name.to_string(), Arc::new(file));
        self.peak_usage = self.peak_usage.max(self.usage());
        Ok(())
    }

    /// Fetch a file by name. The returned handle is cheap to clone and
    /// can be read outside the DFS lock.
    pub fn get(&self, name: &str) -> Result<Arc<DfsFile>, MrError> {
        self.files.get(name).cloned().ok_or_else(|| MrError::NoSuchFile(name.to_string()))
    }

    /// True if a file with this name exists.
    pub fn exists(&self, name: &str) -> bool {
        self.files.contains_key(name)
    }

    /// Delete a file, freeing its space. Deleting a missing file is an
    /// error (catching workflow-cleanup bugs early).
    pub fn delete(&mut self, name: &str) -> Result<Arc<DfsFile>, MrError> {
        self.files.remove(name).ok_or_else(|| MrError::NoSuchFile(name.to_string()))
    }

    /// Names of all stored files, sorted.
    pub fn file_names(&self) -> Vec<String> {
        self.files.keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    thread_local! {
        /// Block checksums computed on this thread: a refused write pays
        /// none.
        pub(super) static CHECKSUM_PASSES: std::cell::Cell<usize> =
            const { std::cell::Cell::new(0) };
    }

    fn checksum_passes() -> usize {
        CHECKSUM_PASSES.with(std::cell::Cell::get)
    }

    /// A caller-built file of `records`, as `load_store` builds one.
    fn packed(records: &[&[u8]], text_bytes: u64) -> DfsFile {
        let len = records.iter().map(|r| r.len()).sum();
        let mut file = DfsFile::with_capacity(len, records.len());
        for rec in records {
            file.push_record(0, |buf| buf.extend_from_slice(rec)).unwrap();
        }
        file.text_bytes = text_bytes;
        file
    }

    fn file(bytes: u64) -> DfsFile {
        packed(&[&[0u8; 4]], bytes)
    }

    #[test]
    fn put_get_roundtrip() {
        let mut fs = SimHdfs::new(u64::MAX, 1);
        fs.put("a", file(100)).unwrap();
        assert_eq!(fs.get("a").unwrap().text_bytes, 100);
        assert!(fs.exists("a"));
        assert!(!fs.exists("b"));
    }

    #[test]
    fn refuses_overwrite() {
        let mut fs = SimHdfs::new(u64::MAX, 1);
        fs.put("a", file(1)).unwrap();
        assert!(matches!(fs.put("a", file(1)), Err(MrError::OutputExists(_))));
    }

    #[test]
    fn replication_multiplies_usage() {
        let mut fs = SimHdfs::new(1000, 2);
        fs.put("a", file(100)).unwrap();
        assert_eq!(fs.usage(), 200);
        fs.put_with_replication("b", file(100), 3).unwrap();
        assert_eq!(fs.usage(), 500);
    }

    #[test]
    fn disk_full_failure() {
        let mut fs = SimHdfs::new(250, 2);
        fs.put("a", file(100)).unwrap(); // 200 used
        let err = fs.put("b", file(100)).unwrap_err(); // needs 200, only 50 left
        match err {
            MrError::DiskFull { needed, available, .. } => {
                assert_eq!(needed, 200);
                assert_eq!(available, 50);
            }
            other => panic!("expected DiskFull, got {other:?}"),
        }
        // The failed write must not consume space.
        assert_eq!(fs.usage(), 200);
    }

    #[test]
    fn refused_write_leaves_usage_and_peak_untouched() {
        let mut fs = SimHdfs::new(250, 2);
        fs.put("a", file(100)).unwrap();
        let (usage, peak) = (fs.usage(), fs.peak_usage());
        // A refused caller-built write pays no checksum pass.
        let passes = checksum_passes();
        assert!(fs.put("b", file(100)).unwrap_err().is_disk_full());
        assert!(fs.put_with_replication("b", file(60), 1).unwrap_err().is_disk_full());
        assert_eq!(checksum_passes(), passes);
        assert_eq!((fs.usage(), fs.peak_usage()), (usage, peak));
        assert!(!fs.exists("b"));
        // An admitted caller-built write is checksummed at commit, once.
        fs.put_with_replication("b", file(50), 1).unwrap();
        assert_eq!(checksum_passes(), passes + 1);
        let b = fs.get("b").unwrap();
        assert_eq!((b.blocks.len(), b.verify()), (1, Ok(())));
        assert_eq!(fs.peak_usage(), 250);
    }

    #[test]
    fn delete_frees_space() {
        let mut fs = SimHdfs::new(100, 1);
        fs.put("a", file(100)).unwrap();
        assert!(fs.put("b", file(1)).is_err());
        fs.delete("a").unwrap();
        fs.put("b", file(1)).unwrap();
        assert!(fs.delete("missing").is_err());
    }

    #[test]
    fn peak_usage_tracks_high_water() {
        let mut fs = SimHdfs::new(1000, 1);
        fs.put("a", file(300)).unwrap();
        fs.put("b", file(200)).unwrap();
        fs.delete("a").unwrap();
        assert_eq!(fs.usage(), 200);
        assert_eq!(fs.peak_usage(), 500);
    }

    #[test]
    fn end_offsets_outgrowing_u32_are_a_typed_error() {
        let max = u32::MAX as usize;
        assert_eq!(end_offset(max), Ok(u32::MAX));
        assert_eq!(end_offset(max + 1), Err(MrError::FileTooLarge { bytes: 1 << 32 }));
    }

    /// Every payload-byte flip of `file` fails `verify`, and flipping it
    /// back restores a verifying file.
    fn assert_every_flip_detected(file: &DfsFile) {
        let mut f = file.clone();
        assert_eq!(f.verify(), Ok(()));
        for off in 0..f.payload_bytes() {
            f.flip_byte(off);
            assert!(f.verify().is_err(), "flip at {off} undetected");
            f.flip_byte(off);
            assert_eq!(f.verify(), Ok(()), "flip at {off} not restored");
        }
    }

    const RECORDS: [&[u8]; 3] = [b"alpha", b"beta", b"gamma"];

    fn per_record() -> Vec<Vec<u8>> {
        RECORDS.iter().map(|r| r.to_vec()).collect()
    }

    #[test]
    fn commit_checksums_and_verify_catches_flips() {
        let mut fs = SimHdfs::new(u64::MAX, 1);
        // A caller-built file: no writer covered it, so commit checksums
        // all of it as one block, in one pass.
        fs.put("a", packed(&RECORDS, 17)).unwrap();
        let a = fs.get("a").unwrap();
        assert_eq!(a.blocks, vec![(3, a.block_checksum(0..3))]);
        assert_eq!((a.len(), a.payload_bytes()), (3, 14));
        assert_eq!(a.iter().collect::<Vec<_>>(), RECORDS);
        assert_eq!(a.range(1..3).collect::<Vec<_>>(), RECORDS[1..]);
        assert_every_flip_detected(&a);

        // Writer blocks are kept; commit only covers the uncovered tail.
        let written = DfsFile::written(per_record(), 17, vec![(1, records_checksum([RECORDS[0]]))]);
        fs.put("b", written).unwrap();
        let b = fs.get("b").unwrap();
        assert_eq!(b.blocks.len(), 2);
        assert_eq!(b.blocks[1], (3, records_checksum(RECORDS[1..].iter().copied())));
        assert_eq!(b.iter().collect::<Vec<_>>(), RECORDS);
        assert_every_flip_detected(&b);

        // A block that does not match its records fails verification.
        let forged = DfsFile { blocks: vec![(3, 0xBAD)], ..(*b).clone() };
        assert_eq!(forged.verify(), Err((0xBAD, records_checksum(RECORDS))));
        // Record boundaries are framed: ["alpha","beta"] != ["alphabeta"].
        assert_ne!(
            records_checksum([&b"alphabeta"[..]]),
            records_checksum([RECORDS[0], RECORDS[1]])
        );
    }

    #[test]
    fn a_forged_end_offset_fails_verify() {
        let mut fs = SimHdfs::new(u64::MAX, 1);
        fs.put("a", packed(&RECORDS, 17)).unwrap();
        let a = fs.get("a").unwrap();
        for i in 0..a.len() {
            for end in 0..=a.payload_bytes() as u32 {
                let mut f = (*a).clone();
                let Records::Packed { ends, .. } = &mut f.records else { unreachable!() };
                if ends[i] == end {
                    continue;
                }
                ends[i] = end;
                assert!(f.verify().is_err(), "end {i} moved to {end} undetected");
            }
        }
    }

    #[test]
    fn both_layouts_read_alike() {
        // A caller appends to a copy of a committed file of each layout: a
        // packed file is re-sealed whole as one block, a job-written one
        // gains a block for the appended records.
        let mut fs = SimHdfs::new(u64::MAX, 1);
        fs.put("packed", packed(&RECORDS[..1], 0)).unwrap();
        fs.put("written", DfsFile::written(per_record()[..1].to_vec(), 0, vec![])).unwrap();
        for (name, blocks) in [("packed", 1), ("written", 2)] {
            let mut file = (*fs.get(name).unwrap()).clone();
            for rec in &RECORDS[1..] {
                file.push_record(6, |buf| buf.extend_from_slice(rec)).unwrap();
            }
            let copy = format!("{name}-copy");
            fs.put(&copy, file).unwrap();
            let f = fs.get(&copy).unwrap();
            assert_eq!(f.iter().collect::<Vec<_>>(), RECORDS);
            assert_eq!((f.len(), f.payload_bytes(), f.text_bytes), (3, 14, 12));
            assert_eq!(f.range(3..3).count(), 0);
            assert_eq!(f.blocks.len(), blocks, "{name}");
            assert_every_flip_detected(&f);
        }
        // An empty caller-built file commits with no block and reads empty.
        fs.put("empty", DfsFile::default()).unwrap();
        let empty = fs.get("empty").unwrap();
        assert_eq!((empty.len(), empty.iter().count(), empty.blocks.len()), (0, 0, 0));
    }
}
