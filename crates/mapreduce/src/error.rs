//! Engine error types.

use std::fmt;

/// Errors surfaced by the MapReduce engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MrError {
    /// The simulated HDFS ran out of space while a job was writing.
    ///
    /// This reproduces the paper's failed executions (bars marked `X` in
    /// Figures 9(a), 12, 13): Pig/Hive runs on BSBM-2M with replication 2
    /// died because redundant intermediate results exceeded the cluster's
    /// 20 GB-per-node disk budget.
    DiskFull {
        /// File being written when space ran out.
        file: String,
        /// Bytes the write would have required (after replication).
        needed: u64,
        /// Bytes actually available.
        available: u64,
    },
    /// A record could not be decoded (wrong type read from a file, or a
    /// corrupted buffer).
    Codec(String),
    /// An input file does not exist in the simulated DFS.
    NoSuchFile(String),
    /// A job wrote to a file name that already exists (Hadoop refuses to
    /// overwrite job output directories; so do we).
    OutputExists(String),
    /// A task failed every one of its allowed attempts (injected faults;
    /// Hadoop's `mapreduce.map.maxattempts` exceeded), failing the job.
    TaskExhausted {
        /// Job whose task exhausted its attempts.
        job: String,
        /// Phase the task belonged to (`"map"` or `"reduce"`).
        phase: &'static str,
        /// Task index within the phase.
        task: u64,
        /// Attempt budget that was exhausted.
        attempts: u32,
    },
    /// A job's broadcast side files exceed the engine's per-task memory
    /// budget for the simulated distributed cache. A broadcast join whose
    /// build side outgrows task memory must fall back to a reduce-side
    /// join; the optimizer treats this bound as its broadcast threshold.
    BroadcastTooLarge {
        /// Job that declared the broadcast.
        job: String,
        /// Total text bytes of the declared broadcast files.
        needed: u64,
        /// The engine's broadcast memory budget in bytes.
        budget: u64,
    },
    /// A checksum mismatch was detected on the data plane: a shuffle
    /// bucket failed verification when a reducer fetched it, or a DFS
    /// file failed verification on read. With verification enabled the
    /// engine recovers (fetch-failure semantics re-execute the producing
    /// map; DFS reads refetch from a replica); this error surfaces only
    /// when corruption is detected somewhere recovery cannot reach.
    Corruption {
        /// Job (or file) whose data failed verification.
        job: String,
        /// Where the mismatch was caught (`"shuffle"` or `"dfs"`).
        site: &'static str,
        /// Checksum recorded when the data was sealed/committed.
        expected: u64,
        /// Checksum recomputed at read time.
        actual: u64,
    },
    /// A stage was submitted to a workflow that already failed. The
    /// workflow records its first failure and refuses further stages.
    WorkflowDead,
    /// A caller-built DFS file outgrew the `u32` end offsets that index
    /// its one packed buffer.
    FileTooLarge {
        /// Payload bytes the file would have held.
        bytes: u64,
    },
    /// Catch-all for operator-level failures.
    Op(String),
}

impl fmt::Display for MrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MrError::DiskFull { file, needed, available } => write!(
                f,
                "simulated HDFS full while writing '{file}': needed {needed} B, available {available} B"
            ),
            MrError::Codec(m) => write!(f, "codec error: {m}"),
            MrError::NoSuchFile(name) => write!(f, "no such DFS file: {name}"),
            MrError::OutputExists(name) => write!(f, "output already exists: {name}"),
            MrError::TaskExhausted { job, phase, task, attempts } => write!(
                f,
                "task {task} ({phase}) of '{job}' failed {attempts} consecutive attempts"
            ),
            MrError::BroadcastTooLarge { job, needed, budget } => write!(
                f,
                "broadcast side files of '{job}' need {needed} B but the task memory budget is {budget} B"
            ),
            MrError::Corruption { job, site, expected, actual } => write!(
                f,
                "checksum mismatch in '{job}' at {site}: expected {expected:#018x}, got {actual:#018x}"
            ),
            MrError::WorkflowDead => write!(f, "workflow already failed; stage refused"),
            MrError::FileTooLarge { bytes } => write!(
                f,
                "caller-built DFS file of {bytes} B outgrows its u32 record offsets"
            ),
            MrError::Op(m) => write!(f, "operator error: {m}"),
        }
    }
}

impl std::error::Error for MrError {}

impl MrError {
    /// True if this error is the disk-capacity failure mode.
    pub fn is_disk_full(&self) -> bool {
        matches!(self, MrError::DiskFull { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_disk_full() {
        let e = MrError::DiskFull { file: "out".into(), needed: 10, available: 5 };
        assert!(e.to_string().contains("out"));
        assert!(e.is_disk_full());
    }

    #[test]
    fn display_others() {
        assert!(!MrError::Codec("x".into()).is_disk_full());
        assert!(MrError::NoSuchFile("f".into()).to_string().contains('f'));
    }

    #[test]
    fn task_exhausted_display() {
        let e = MrError::TaskExhausted { job: "j".into(), phase: "map", task: 3, attempts: 4 };
        assert!(!e.is_disk_full());
        let msg = e.to_string();
        assert!(msg.contains("consecutive attempts"), "{msg}");
        assert!(msg.contains("task 3 (map) of 'j'"), "{msg}");
        assert!(MrError::WorkflowDead.to_string().contains("already failed"));
    }

    #[test]
    fn corruption_display() {
        let e = MrError::Corruption {
            job: "j".into(),
            site: "shuffle",
            expected: 0xDEAD,
            actual: 0xBEEF,
        };
        let msg = e.to_string();
        assert!(msg.contains("checksum mismatch in 'j' at shuffle"), "{msg}");
        assert!(msg.contains("0x000000000000dead"), "{msg}");
    }
}
