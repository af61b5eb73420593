//! Simulated HDFS: an in-memory distributed file system with replication
//! accounting and a bounded disk budget.
//!
//! The paper's clusters had only 20 GB of disk per node; with a replication
//! factor of 2 the redundant intermediate results of relational plans
//! exceeded the budget and jobs failed. [`SimHdfs`] reproduces exactly that
//! failure mode: every stored file consumes `text_bytes × replication` of
//! the configured capacity, and a write that would exceed capacity fails
//! with [`MrError::DiskFull`].

use crate::error::MrError;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One file in the simulated DFS.
///
/// Records are stored in their compact binary encoding (see
/// [`crate::codec::Rec`]), but the *accounted* size is `text_bytes` — the
/// size the file would have as Hadoop text rows.
///
/// Like an HDFS file, it is checksummed per block, by its writer: each
/// task that writes records into the file checksums them as it closes,
/// and [`SimHdfs::put`] checksums whatever records no writer covered.
#[derive(Debug, Clone, Default)]
pub struct DfsFile {
    /// Encoded records.
    pub records: Vec<Vec<u8>>,
    /// Simulated text size of the file in bytes.
    pub text_bytes: u64,
    /// Replication factor this file was written with.
    pub replication: u32,
    /// `(end record, checksum)` per writer block, in record order: block
    /// `i` covers the records from block `i - 1`'s end up to its own, and
    /// its checksum is [`records_checksum`] over them. Readers verify
    /// reads against them block by block, HDFS-block-checksum style.
    pub(crate) blocks: Vec<(usize, u64)>,
}

/// Checksum of one DFS block: each record folded as one framed block, so
/// both record bytes and record boundaries are covered. A writing task
/// folds its records into one [`BlockChecksum`](crate::hash::BlockChecksum)
/// per output file the same way as it closes.
pub(crate) fn records_checksum(records: &[Vec<u8>]) -> u64 {
    let mut c = crate::hash::BlockChecksum::default();
    for rec in records {
        c.update(rec);
    }
    c.finish()
}

impl DfsFile {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if the file holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Disk consumption including replication.
    pub fn disk_bytes(&self) -> u64 {
        self.text_bytes * u64::from(self.replication)
    }

    /// Total encoded payload bytes across all records — the address space
    /// the fault injector draws corruption offsets from.
    pub fn payload_bytes(&self) -> u64 {
        self.records.iter().map(|r| r.len() as u64).sum()
    }

    /// Recompute every block's checksum and compare it against the one its
    /// writer recorded. `Err((expected, actual))` for the first block that
    /// mismatches.
    pub fn verify(&self) -> Result<(), (u64, u64)> {
        let mut start = 0;
        for &(end, expected) in &self.blocks {
            let actual = records_checksum(&self.records[start..end]);
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
        let mut remaining = offset;
        for rec in &mut self.records {
            if remaining < rec.len() as u64 {
                rec[remaining as usize] ^= 0x01;
                return;
            }
            remaining -= rec.len() as u64;
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
    /// An unbounded DFS with replication factor 1 (unit-test friendly).
    pub fn unbounded() -> Self {
        SimHdfs::new(u64::MAX, 1)
    }

    /// Create a DFS with the given total capacity and default replication.
    pub fn new(capacity: u64, default_replication: u32) -> Self {
        assert!(default_replication >= 1, "replication must be >= 1");
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

    /// Store a file with an explicit replication factor.
    pub fn put_with_replication(
        &mut self,
        name: &str,
        mut file: DfsFile,
        replication: u32,
    ) -> Result<(), MrError> {
        if self.files.contains_key(name) {
            return Err(MrError::OutputExists(name.to_string()));
        }
        file.replication = replication.max(1);
        let needed = file.disk_bytes();
        let available = self.available();
        if needed > available {
            return Err(MrError::DiskFull { file: name.to_string(), needed, available });
        }
        // Records no writing task checksummed (a caller-built file) form
        // one last block, checksummed only once the write is admitted: a
        // refused write pays no pass over data it discards, and no file is
        // committed unchecked.
        let covered = file.blocks.last().map_or(0, |&(end, _)| end);
        debug_assert!(
            file.blocks.windows(2).all(|w| w[0].0 < w[1].0) && covered <= file.records.len(),
            "writer blocks must tile a prefix of the records"
        );
        if covered < file.records.len() {
            let sum = records_checksum(&file.records[covered..]);
            file.blocks.push((file.records.len(), sum));
        }
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

    fn file(bytes: u64) -> DfsFile {
        DfsFile {
            records: vec![vec![0u8; 4]],
            text_bytes: bytes,
            replication: 1,
            ..DfsFile::default()
        }
    }

    #[test]
    fn put_get_roundtrip() {
        let mut fs = SimHdfs::unbounded();
        fs.put("a", file(100)).unwrap();
        assert_eq!(fs.get("a").unwrap().text_bytes, 100);
        assert!(fs.exists("a"));
        assert!(!fs.exists("b"));
    }

    #[test]
    fn refuses_overwrite() {
        let mut fs = SimHdfs::unbounded();
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
        assert!(fs.put("b", file(100)).unwrap_err().is_disk_full());
        assert!(fs.put_with_replication("b", file(60), 1).unwrap_err().is_disk_full());
        assert_eq!((fs.usage(), fs.peak_usage()), (usage, peak));
        assert!(!fs.exists("b"));
        // An admitted caller-built write is checksummed at commit.
        fs.put_with_replication("b", file(50), 1).unwrap();
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

    #[test]
    fn commit_checksums_and_verify_catches_flips() {
        let records = || vec![b"alpha".to_vec(), b"beta".to_vec(), b"gamma".to_vec()];
        let mut fs = SimHdfs::unbounded();
        // A caller-built file, as `load_store` builds one: no writer
        // covered it, so commit checksums all of it as one block.
        let built = DfsFile { records: records(), text_bytes: 14, ..DfsFile::default() };
        fs.put("a", built).unwrap();
        let a = fs.get("a").unwrap();
        assert_eq!(a.blocks, vec![(3, records_checksum(&records()))]);
        assert_eq!(a.payload_bytes(), 14);
        assert_every_flip_detected(&a);

        // Writer blocks are kept; commit only covers the uncovered tail.
        let written = DfsFile {
            records: records(),
            text_bytes: 14,
            blocks: vec![(1, records_checksum(&records()[..1]))],
            ..DfsFile::default()
        };
        fs.put("b", written).unwrap();
        let b = fs.get("b").unwrap();
        assert_eq!(b.blocks.len(), 2);
        assert_eq!(b.blocks[1], (3, records_checksum(&records()[1..])));
        assert_every_flip_detected(&b);

        // A block that does not match its records fails verification.
        let forged = DfsFile { blocks: vec![(3, 0xBAD)], ..(*a).clone() };
        assert_eq!(forged.verify(), Err((0xBAD, records_checksum(&records()))));
        // Record boundaries are framed: ["alpha","beta"] != ["alphabeta"].
        assert_ne!(
            records_checksum(&[b"alphabeta".to_vec()]),
            records_checksum(&[b"alpha".to_vec(), b"beta".to_vec()])
        );
    }
}
