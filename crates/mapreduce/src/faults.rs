//! Deterministic fault injection: task failures, node loss, stragglers.
//!
//! Hadoop materializes and replicates every job's output *because tasks
//! and nodes fail*; the paper's cost analysis (intermediate HDFS writes ×
//! replication) exists precisely to pay for this fault tolerance. The
//! engine therefore models the failure side too:
//!
//! * **task-attempt failure** — map/reduce task attempts fail with a
//!   configured probability, and the engine retries each task up to a
//!   bounded number of attempts (Hadoop's `mapreduce.map.maxattempts`,
//!   default 4) before failing the job;
//! * **node loss** — a simulated node dies during a job's shuffle; the
//!   completed map outputs it held (map output lives on the node's local
//!   disk until reducers fetch it) are lost, and the affected map tasks
//!   are re-executed. Reduce output is committed to the DFS, so node loss
//!   never corrupts results — it only costs re-executed work;
//! * **stragglers** — selected tasks run `straggler_slowdown ×` their
//!   normal time. With *speculative execution* enabled, a backup attempt
//!   launches once a straggler exceeds a configured multiple of the
//!   typical task time; the first finisher wins and the loser's work is
//!   wasted (charged, not lost).
//!
//! Injection is deterministic: every decision is a pure function of
//! `(seed, stream, task, attempt)` via a splitmix64-style hash, so runs
//! are reproducible and results must be bit-identical with and without
//! injected failures — which the chaos tests assert. Node-to-task
//! assignment uses a fixed count of simulated nodes (not the engine's
//! worker-thread count), so fault statistics are independent of the host's
//! parallelism.

use crate::error::MrError;

/// Hash-stream tag for task-attempt failures (implicit: stream 0 keeps
/// the original attempt-failure hash stable).
const STREAM_NODE_LOSS: u64 = 0x4E4F_4445; // "NODE"
/// Hash-stream tag for straggler selection.
const STREAM_STRAGGLER: u64 = 0x534C_4F57; // "SLOW"
/// Hash-stream tag for data corruption (bit flips in map output and
/// at-rest DFS blocks).
const STREAM_CORRUPTION: u64 = 0x4352_5054; // "CRPT"

/// Number of simulated nodes map tasks are spread over (`task % NODES`)
/// for node loss. Fixed, and decoupled from the engine's worker-thread
/// count, so fault statistics do not depend on host parallelism.
const NODES: u32 = 8;

/// Failure-injection configuration; [`Engine::new`](crate::Engine::new) checks each field's range.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Probability in `[0, 1)` that any single task attempt fails.
    pub task_failure_probability: f64,
    /// Maximum attempts per task before the job is failed (≥ 1).
    pub max_attempts: u32,
    /// Seed making the injection deterministic.
    pub seed: u64,
    /// Probability in `[0, 1)` that any given simulated node dies during a
    /// job's map→reduce handoff, losing its completed map outputs.
    pub node_loss_probability: f64,
    /// Probability in `[0, 1)` that any given task is a straggler.
    pub straggler_probability: f64,
    /// Slowdown factor a straggler runs at (≥ 1; e.g. 6.0 = six times the
    /// normal task time).
    pub straggler_slowdown: f64,
    /// Speculative-execution threshold (≥ 0): a backup attempt launches when
    /// a task exceeds this multiple of the typical task time. `0.0` disables
    /// speculation (backups never launch; stragglers run to completion).
    pub speculative_multiple: f64,
    /// Probability in `[0, 1)` that any given data unit (a map task's
    /// shuffle output, or a DFS file read) is silently corrupted — a
    /// deterministic bit flip the checksummed data plane must catch.
    pub corruption_probability: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            task_failure_probability: 0.0,
            max_attempts: 4,
            seed: 0,
            node_loss_probability: 0.0,
            straggler_probability: 0.0,
            straggler_slowdown: 6.0,
            speculative_multiple: 0.0,
            corruption_probability: 0.0,
        }
    }
}

impl FaultConfig {
    /// No injected failures.
    pub fn none() -> Self {
        Self::default()
    }

    /// Fail each attempt with probability `p` under `seed`.
    pub fn with_probability(p: f64, seed: u64) -> Self {
        FaultConfig { task_failure_probability: p, seed, ..Self::default() }
    }

    /// Set the per-task attempt budget (Hadoop's
    /// `mapreduce.map.maxattempts`; the default is 4).
    pub fn with_max_attempts(mut self, max_attempts: u32) -> Self {
        self.max_attempts = max_attempts;
        self
    }

    /// Kill each simulated node with probability `p` per job.
    pub fn with_node_loss(mut self, p: f64) -> Self {
        self.node_loss_probability = p;
        self
    }

    /// Make each task a straggler with probability `p`, running at
    /// `slowdown ×` its normal time.
    pub fn with_stragglers(mut self, p: f64, slowdown: f64) -> Self {
        self.straggler_probability = p;
        self.straggler_slowdown = slowdown;
        self
    }

    /// Enable speculative execution: launch a backup attempt once a task
    /// exceeds `multiple ×` the typical task time.
    pub fn with_speculation(mut self, multiple: f64) -> Self {
        self.speculative_multiple = multiple;
        self
    }

    /// Corrupt each data unit with probability `p`.
    pub fn with_corruption(mut self, p: f64) -> Self {
        self.corruption_probability = p;
        self
    }

    /// [`MrError::Op`] naming the first field out of its documented range
    /// (NaN is in none): the check the setters above leave to `Engine::new`.
    pub(crate) fn check(&self) -> Result<(), MrError> {
        let p = |name, p: f64| (name, p, "in [0, 1)", (0.0..1.0).contains(&p));
        let (slowdown, multiple) = (self.straggler_slowdown, self.speculative_multiple);
        let fields = [
            p("task_failure_probability", self.task_failure_probability),
            p("node_loss_probability", self.node_loss_probability),
            p("straggler_probability", self.straggler_probability),
            p("corruption_probability", self.corruption_probability),
            ("max_attempts", f64::from(self.max_attempts), ">= 1", self.max_attempts >= 1),
            ("straggler_slowdown", slowdown, ">= 1", (1.0..).contains(&slowdown)),
            ("speculative_multiple", multiple, ">= 0 (0 is off)", (0.0..).contains(&multiple)),
        ];
        let Some((name, got, range, _)) = fields.into_iter().find(|&(.., ok)| !ok) else {
            return Ok(());
        };
        Err(MrError::Op(format!("fault {name} must be {range}, got {got}")))
    }

    /// True when any fault channel is active.
    pub fn any(&self) -> bool {
        self.task_failure_probability > 0.0
            || self.node_loss_probability > 0.0
            || self.straggler_probability > 0.0
            || self.corruption_probability > 0.0
    }

    /// Raw splitmix64-style hash bits of `(seed, a, b)`.
    fn bits(&self, a: u64, b: u64) -> u64 {
        let mut x = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(a)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add(b);
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        x
    }

    /// Splitmix64-style hash of `(seed, a, b)` mapped to `[0, 1)`.
    fn unit(&self, a: u64, b: u64) -> f64 {
        (self.bits(a, b) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// True if attempt `attempt` of task `task_id` should fail.
    ///
    /// Deterministic splitmix64-style hash of `(seed, task, attempt)`
    /// mapped to `[0, 1)` and compared against the probability.
    fn attempt_fails(&self, task_id: u64, attempt: u32) -> bool {
        if self.task_failure_probability <= 0.0 {
            return false;
        }
        self.unit(task_id, u64::from(attempt)) < self.task_failure_probability
    }

    /// Number of attempts task `task_id` needs before succeeding, or
    /// `None` if it exhausts `max_attempts`.
    pub fn attempts_needed(&self, task_id: u64) -> Option<u32> {
        (1..=self.max_attempts).find(|&attempt| !self.attempt_fails(task_id, attempt))
    }

    /// The simulated nodes that die during the job identified by
    /// `job_salt` (the engine's per-job/phase hash base) while they hold
    /// the completed outputs of `map_tasks` map tasks, spread over the
    /// nodes round-robin: each lost node with the count of outputs it held.
    /// A lost node that held none is skipped.
    pub(crate) fn lost_nodes(
        &self,
        job_salt: u64,
        map_tasks: u64,
    ) -> impl Iterator<Item = (u32, u64)> + '_ {
        (0..NODES).filter(move |&node| self.node_lost(job_salt, node)).filter_map(move |node| {
            let held = (map_tasks + u64::from(NODES) - 1 - u64::from(node)) / u64::from(NODES);
            (held > 0).then_some((node, held))
        })
    }

    /// True if simulated node `node` dies during the job identified by
    /// `job_salt`.
    fn node_lost(&self, job_salt: u64, node: u32) -> bool {
        if self.node_loss_probability <= 0.0 {
            return false;
        }
        self.unit(job_salt ^ STREAM_NODE_LOSS.rotate_left(32), u64::from(node))
            < self.node_loss_probability
    }

    /// True if task `task_id` is a straggler.
    pub fn is_straggler(&self, task_id: u64) -> bool {
        if self.straggler_probability <= 0.0 {
            return false;
        }
        self.unit(task_id ^ STREAM_STRAGGLER.rotate_left(32), 1) < self.straggler_probability
    }

    /// True if the data unit identified by `(salt, unit_id)` is silently
    /// corrupted. `salt` is the engine's per-job/phase hash base (or a
    /// file-name hash for at-rest DFS blocks), `unit_id` the producing
    /// task or block index — the same identity scheme as node loss, so
    /// corruption draws are independent of worker count.
    pub fn data_corrupted(&self, salt: u64, unit_id: u64) -> bool {
        if self.corruption_probability <= 0.0 {
            return false;
        }
        self.unit(salt ^ STREAM_CORRUPTION.rotate_left(32), unit_id) < self.corruption_probability
    }

    /// Deterministic byte offset (into a buffer of `len` bytes) at which
    /// the corruption of unit `(salt, unit_id)` flips a bit. Returns
    /// `None` for an empty buffer (nothing to flip).
    pub fn corruption_offset(&self, salt: u64, unit_id: u64, len: usize) -> Option<usize> {
        if len == 0 {
            return None;
        }
        // A second draw (unit_id rotated) decorrelates the offset from
        // the corrupted-or-not decision.
        let raw = self.bits(salt ^ STREAM_CORRUPTION.rotate_left(32), unit_id.rotate_left(17));
        Some((raw % len as u64) as usize)
    }

    /// Outcome of one straggler task under this config:
    /// `(effective completion multiple, backup launched, backup won)`.
    ///
    /// Without speculation the straggler runs to completion at its full
    /// slowdown. With speculation, a backup launches once the task passes
    /// `speculative_multiple ×` the typical task time and finishes one
    /// task-time later; the first finisher wins, so the effective
    /// completion multiple is `min(slowdown, speculative_multiple + 1)`.
    pub fn straggler_outcome(&self) -> (f64, bool, bool) {
        let slow = self.straggler_slowdown; // >= 1: `Engine::new` checked it
        if self.speculative_multiple > 0.0 && slow > self.speculative_multiple {
            let backup_finish = self.speculative_multiple + 1.0;
            (slow.min(backup_finish), true, backup_finish < slow)
        } else {
            (slow, false, false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_probability_never_fails() {
        let f = FaultConfig::none();
        for t in 0..100 {
            assert_eq!(f.attempts_needed(t), Some(1));
        }
        assert!(!f.any());
        assert!(!f.node_lost(12345, 0));
        assert!(!f.is_straggler(7));
    }

    #[test]
    fn deterministic_for_seed() {
        let a = FaultConfig::with_probability(0.5, 7);
        let b = FaultConfig::with_probability(0.5, 7);
        for t in 0..200 {
            assert_eq!(a.attempts_needed(t), b.attempts_needed(t));
        }
        let c = FaultConfig::with_probability(0.5, 8);
        assert!((0..200).any(|t| a.attempts_needed(t) != c.attempts_needed(t)));
    }

    #[test]
    fn probability_roughly_respected() {
        let f = FaultConfig::with_probability(0.3, 42);
        let failures = (0..10_000).filter(|&t| f.attempt_fails(t, 1)).count();
        assert!((2_500..3_500).contains(&failures), "got {failures}");
    }

    #[test]
    fn high_probability_exhausts_attempts() {
        let f = FaultConfig {
            task_failure_probability: 0.95,
            max_attempts: 2,
            seed: 1,
            ..FaultConfig::default()
        };
        let exhausted = (0..1000).filter(|&t| f.attempts_needed(t).is_none()).count();
        // ~0.95^2 ≈ 90 % of tasks exhaust two attempts.
        assert!(exhausted > 800, "{exhausted}");
    }

    #[test]
    fn max_attempts_builder() {
        let f = FaultConfig::with_probability(0.9, 3).with_max_attempts(1);
        assert_eq!(f.max_attempts, 1);
        // With one attempt, every first-attempt failure is exhaustion.
        let exhausted = (0..1000).filter(|&t| f.attempts_needed(t).is_none()).count();
        assert!((800..1000).contains(&exhausted), "{exhausted}");
    }

    #[test]
    fn node_loss_rate_and_independence() {
        let f = FaultConfig::none().with_node_loss(0.25);
        assert!(f.any());
        let losses = (0..10_000u64).filter(|&salt| f.node_lost(salt, 1)).count();
        assert!((2_000..3_000).contains(&losses), "{losses}");
        // Different nodes of the same job decide independently.
        assert!((0..200u64).any(|salt| f.node_lost(salt, 0) != f.node_lost(salt, 1)));
        // The node-loss stream is independent of the attempt-failure
        // stream: with only node loss configured, attempts never fail.
        assert_eq!(f.attempts_needed(9), Some(1));
    }

    #[test]
    fn lost_nodes_held_their_round_robin_share() {
        let f = FaultConfig::none().with_node_loss(0.999);
        let salt = (0..100u64).find(|&s| f.lost_nodes(s, 8).count() == 8).unwrap();
        let held: Vec<(u32, u64)> = f.lost_nodes(salt, 10).collect();
        assert_eq!(held, [(0, 2), (1, 2), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (7, 1)]);
        // A node that held no output lost nothing and is not reported.
        assert_eq!(f.lost_nodes(salt, 3).collect::<Vec<_>>(), [(0, 1), (1, 1), (2, 1)]);
        assert_eq!(FaultConfig::none().lost_nodes(salt, 10).count(), 0);
    }

    #[test]
    fn straggler_selection_and_outcome() {
        let f = FaultConfig::none().with_stragglers(0.2, 6.0);
        let picked = (0..10_000u64).filter(|&t| f.is_straggler(t)).count();
        assert!((1_500..2_500).contains(&picked), "{picked}");
        // No speculation: run to completion at full slowdown.
        assert_eq!(f.straggler_outcome(), (6.0, false, false));

        // Speculation at 2×: backup finishes at 3× — wins over a 6× task.
        let spec = f.clone().with_speculation(2.0);
        let (eff, launched, won) = spec.straggler_outcome();
        assert!((eff - 3.0).abs() < 1e-12);
        assert!(launched && won);

        // A mild straggler (1.5×) under a 2× threshold never triggers a
        // backup.
        let mild = FaultConfig::none().with_stragglers(0.2, 1.5).with_speculation(2.0);
        assert_eq!(mild.straggler_outcome(), (1.5, false, false));

        // A 2.5× straggler triggers the backup but beats it (2.5 < 3).
        let close = FaultConfig::none().with_stragglers(0.2, 2.5).with_speculation(2.0);
        let (eff, launched, won) = close.straggler_outcome();
        assert!((eff - 2.5).abs() < 1e-12);
        assert!(launched && !won);
    }

    #[test]
    fn corruption_rate_and_independence() {
        let f = FaultConfig::none().with_corruption(0.2);
        assert!(f.any());
        let hits = (0..10_000u64).filter(|&u| f.data_corrupted(99, u)).count();
        assert!((1_500..2_500).contains(&hits), "{hits}");
        // Corruption draws are independent of the attempt-failure and
        // node-loss streams: only corruption is configured here.
        assert_eq!(f.attempts_needed(3), Some(1));
        assert!(!f.node_lost(99, 0));
        // Off by default.
        assert!(!FaultConfig::none().data_corrupted(99, 7));
    }

    #[test]
    fn corruption_offset_is_deterministic_and_in_bounds() {
        let f = FaultConfig::none().with_corruption(0.5);
        assert_eq!(f.corruption_offset(1, 2, 0), None);
        for len in [1usize, 7, 4096] {
            for unit in 0..50u64 {
                let a = f.corruption_offset(42, unit, len).unwrap();
                let b = f.corruption_offset(42, unit, len).unwrap();
                assert_eq!(a, b);
                assert!(a < len);
            }
        }
        // Offsets vary across units (not all zero).
        let distinct: std::collections::BTreeSet<_> =
            (0..50u64).filter_map(|u| f.corruption_offset(42, u, 4096)).collect();
        assert!(distinct.len() > 10, "{}", distinct.len());
    }
}
