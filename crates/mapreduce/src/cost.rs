//! Cost model: converts counted bytes/records into simulated seconds.
//!
//! The paper reports wall-clock times on 2015-era 60/80-node Hadoop
//! clusters. Absolute times are not reproducible; what must be reproduced
//! is their *shape* — which approach wins and roughly by how much. Those
//! shapes are driven by deterministic quantities the engine counts exactly
//! (scan bytes, shuffle bytes, sort volume, write bytes × replication, and
//! per-cycle startup overhead). The model below is a standard linear
//! I/O-dominated cost function over those counters; the default constants
//! approximate the paper's hardware (dual-core nodes, HDD-backed HDFS,
//! 1 GbE) at cluster aggregate level.

use crate::counters::JobStats;
use crate::MrError;

/// Cost-model parameters. All rates are cluster-aggregate.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Fixed per-job startup overhead in seconds (JVM spawn, scheduling;
    /// the dominant term for small inputs).
    pub job_startup_s: f64,
    /// Aggregate HDFS read bandwidth, bytes/second.
    pub hdfs_read_bps: f64,
    /// Aggregate HDFS write bandwidth, bytes/second (per replica).
    pub hdfs_write_bps: f64,
    /// Aggregate shuffle (network) bandwidth, bytes/second.
    pub shuffle_bps: f64,
    /// Sort throughput constant: seconds per byte × log2(records).
    pub sort_s_per_byte_log: f64,
    /// CPU cost per map input record, seconds.
    pub map_cpu_s_per_record: f64,
    /// CPU cost per reduce input record, seconds.
    pub reduce_cpu_s_per_record: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // Roughly a 60-node cluster of 2-core/4 GB nodes with single HDDs:
        // aggregate sequential read ~3 GB/s, write ~1.5 GB/s per replica,
        // shuffle over 1 GbE ~1 GB/s aggregate, ~15 s Hadoop job startup.
        CostModel {
            job_startup_s: 15.0,
            hdfs_read_bps: 3.0e9,
            hdfs_write_bps: 1.5e9,
            shuffle_bps: 1.0e9,
            sort_s_per_byte_log: 1.0 / 40.0e9,
            map_cpu_s_per_record: 2.0e-6,
            reduce_cpu_s_per_record: 2.0e-6,
        }
    }
}

impl CostModel {
    /// A model whose I/O rates are scaled to a given input size so that a
    /// full scan of the input costs ~40 simulated seconds — the regime of
    /// the paper's cluster, where a job over the full relation is
    /// bandwidth-bound, not startup-bound. Use this when benchmarking
    /// scaled-down datasets; with the [`Default`] constants a kilobyte-
    /// scale dataset would be pure job-startup overhead and every
    /// approach would look identical.
    pub fn scaled_to(input_bytes: u64) -> Self {
        let input = input_bytes.max(1) as f64;
        CostModel {
            job_startup_s: 15.0,
            hdfs_read_bps: input / 40.0,
            hdfs_write_bps: input / 80.0,
            shuffle_bps: input / 60.0,
            // A full-input shuffle with log2(records) ~ 20 costs ~10 s.
            sort_s_per_byte_log: 0.5 / input,
            map_cpu_s_per_record: 0.0,
            reduce_cpu_s_per_record: 0.0,
        }
    }

    /// A model scaled for unit tests: zero startup, unit rates.
    pub fn zero_overhead() -> Self {
        CostModel {
            job_startup_s: 0.0,
            hdfs_read_bps: 1.0,
            hdfs_write_bps: 1.0,
            shuffle_bps: 1.0,
            sort_s_per_byte_log: 0.0,
            map_cpu_s_per_record: 0.0,
            reduce_cpu_s_per_record: 0.0,
        }
    }

    /// [`MrError::Op`] naming the first field out of range (NaN is in
    /// none): every field finite and `>= 0`, the three bandwidths `> 0`, so
    /// that no job costs NaN or infinite seconds. `Engine::new` calls it.
    pub(crate) fn check(&self) -> Result<(), MrError> {
        let rate = |name, x: f64| (name, x, "finite and > 0", x.is_finite() && x > 0.0);
        let cost = |name, x: f64| (name, x, "finite and >= 0", x.is_finite() && x >= 0.0);
        let fields = [
            cost("job_startup_s", self.job_startup_s),
            rate("hdfs_read_bps", self.hdfs_read_bps),
            rate("hdfs_write_bps", self.hdfs_write_bps),
            rate("shuffle_bps", self.shuffle_bps),
            cost("sort_s_per_byte_log", self.sort_s_per_byte_log),
            cost("map_cpu_s_per_record", self.map_cpu_s_per_record),
            cost("reduce_cpu_s_per_record", self.reduce_cpu_s_per_record),
        ];
        let Some((name, got, range, _)) = fields.into_iter().find(|&(.., ok)| !ok) else {
            return Ok(());
        };
        Err(MrError::Op(format!("cost {name} must be {range}, got {got}")))
    }

    /// Seconds the map phase works: input read + broadcast distribution
    /// (one payload copy per map task, read from the DFS like any other
    /// bytes) + map CPU, plus the output write for map-only jobs (whose
    /// mappers write the DFS output directly).
    pub fn map_phase_seconds(&self, s: &JobStats) -> f64 {
        let read = s.hdfs_read_bytes as f64 / self.hdfs_read_bps;
        let broadcast = s.broadcast_ship_bytes as f64 / self.hdfs_read_bps;
        let map_cpu = s.input_records as f64 * self.map_cpu_s_per_record;
        let write =
            if s.reduce_tasks == 0 { s.hdfs_write_bytes as f64 / self.hdfs_write_bps } else { 0.0 };
        read + broadcast + map_cpu + write
    }

    /// Seconds the reduce phase works: shuffle + sort + reduce CPU + output
    /// write. Zero for map-only jobs.
    pub fn reduce_phase_seconds(&self, s: &JobStats) -> f64 {
        if s.reduce_tasks == 0 {
            return 0.0;
        }
        let shuffle = s.map_output_bytes as f64 / self.shuffle_bps;
        let log = if s.map_output_records > 1 { (s.map_output_records as f64).log2() } else { 0.0 };
        let sort = s.map_output_bytes as f64 * log * self.sort_s_per_byte_log;
        let reduce_cpu = s.reduce_input_records as f64 * self.reduce_cpu_s_per_record;
        let write = s.hdfs_write_bytes as f64 / self.hdfs_write_bps;
        shuffle + sort + reduce_cpu + write
    }

    /// Seconds of *work* (everything except startup) implied by a job's
    /// counters: exactly [`CostModel::map_phase_seconds`] +
    /// [`CostModel::reduce_phase_seconds`], which trace task spans rely on.
    fn work_seconds(&self, s: &JobStats) -> f64 {
        self.map_phase_seconds(s) + self.reduce_phase_seconds(s)
    }

    /// Average map-task time implied by a job's counters: the map phase's
    /// work divided by the scheduled map-task count (falls back to the
    /// whole phase when no per-task schedule was recorded).
    fn avg_map_task_seconds(&self, s: &JobStats) -> f64 {
        self.map_phase_seconds(s) / (s.faults.map_tasks_scheduled.max(1) as f64)
    }

    /// Average reduce-task time implied by a job's counters (0 for
    /// map-only jobs).
    fn avg_reduce_task_seconds(&self, s: &JobStats) -> f64 {
        if s.reduce_tasks == 0 {
            return 0.0;
        }
        self.reduce_phase_seconds(s) / s.reduce_tasks as f64
    }

    /// Simulated seconds of *wasted* work from faults: failed task
    /// attempts that were retried, completed map tasks re-executed after
    /// node loss or a detected-corruption fetch failure, speculative
    /// duplicates, and DFS replica refetches — each priced at one average
    /// task-time of its phase. Pure over the job's fault counters, so it
    /// is as worker-count-independent as they are.
    pub fn retry_seconds(&self, s: &JobStats) -> f64 {
        let f = &s.faults;
        // A DFS refetch re-reads one block from a replica; a map task's
        // input read is the closest task-shaped unit of that cost.
        let map_wasted = f.map_task_retries
            + f.maps_reexecuted
            + f.speculative_map_tasks
            + f.corrupt_refetches
            + f.dfs_refetches;
        let reduce_wasted = f.reduce_task_retries + f.speculative_reduce_tasks;
        map_wasted as f64 * self.avg_map_task_seconds(s)
            + reduce_wasted as f64 * self.avg_reduce_task_seconds(s)
    }

    /// Extra critical-path seconds from stragglers: each straggler's
    /// effective completion overshoot (in average-task units, recorded by
    /// the engine per phase) priced at the phase's average task time.
    fn straggler_tail_seconds(&self, s: &JobStats) -> f64 {
        s.faults.map_straggler_units * self.avg_map_task_seconds(s)
            + s.faults.reduce_straggler_units * self.avg_reduce_task_seconds(s)
    }

    /// Total simulated seconds the job loses to faults:
    /// [`CostModel::retry_seconds`] + [`CostModel::straggler_tail_seconds`].
    fn fault_seconds(&self, s: &JobStats) -> f64 {
        self.retry_seconds(s) + self.straggler_tail_seconds(s)
    }

    /// A job's work plus its fault losses — the quantity workflows charge
    /// per job when computing stage makespans (startup excluded).
    pub fn charged_work_seconds(&self, s: &JobStats) -> f64 {
        self.work_seconds(s) + self.fault_seconds(s)
    }

    /// Total simulated seconds for a job run in isolation, including time
    /// lost to injected faults.
    pub fn job_seconds(&self, s: &JobStats) -> f64 {
        self.job_startup_s + self.charged_work_seconds(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> JobStats {
        JobStats {
            input_records: 10,
            hdfs_read_bytes: 100,
            map_output_records: 10,
            map_output_bytes: 50,
            reduce_input_records: 10,
            output_records: 5,
            output_text_bytes: 25,
            hdfs_write_bytes: 50,
            reduce_tasks: 2,
            ..JobStats::default()
        }
    }

    #[test]
    fn zero_overhead_is_io_sum() {
        let m = CostModel::zero_overhead();
        let s = stats();
        // read 100 + shuffle 50 + write 50 at unit rates
        assert!((m.work_seconds(&s) - 200.0).abs() < 1e-9);
        assert!((m.job_seconds(&s) - 200.0).abs() < 1e-9);
    }

    #[test]
    fn map_only_jobs_skip_shuffle_and_sort() {
        let m = CostModel::zero_overhead();
        let mut s = stats();
        s.reduce_tasks = 0;
        assert!((m.work_seconds(&s) - 150.0).abs() < 1e-9);
        // Map-only: the whole job is the map phase (read 100 + write 50).
        assert!((m.map_phase_seconds(&s) - 150.0).abs() < 1e-9);
        assert!((m.reduce_phase_seconds(&s) - 0.0).abs() < 1e-9);
    }

    #[test]
    fn phase_times_partition_work_exactly() {
        for m in [CostModel::default(), CostModel::zero_overhead(), CostModel::scaled_to(1 << 20)] {
            let s = stats();
            let sum = m.map_phase_seconds(&s) + m.reduce_phase_seconds(&s);
            assert!((sum - m.work_seconds(&s)).abs() < 1e-12);
            // With a reduce phase, the output write is charged to reduce.
            assert!(
                (m.map_phase_seconds(&s)
                    - 100.0 / m.hdfs_read_bps
                    - s.input_records as f64 * m.map_cpu_s_per_record)
                    .abs()
                    < 1e-9
            );
        }
    }

    #[test]
    fn startup_adds_constant() {
        let mut m = CostModel::zero_overhead();
        m.job_startup_s = 7.0;
        let s = stats();
        assert!((m.job_seconds(&s) - (m.work_seconds(&s) + 7.0)).abs() < 1e-9);
    }

    #[test]
    fn fault_counters_are_charged_time() {
        let m = CostModel::zero_overhead();
        let clean = stats();
        assert!((m.retry_seconds(&clean) - 0.0).abs() < 1e-12);
        assert!((m.fault_seconds(&clean) - 0.0).abs() < 1e-12);
        assert!((m.job_seconds(&clean) - m.work_seconds(&clean)).abs() < 1e-12);

        // One map chunk scheduled: avg map task = whole map phase (100 s);
        // reduce phase 100 s over 2 tasks = 50 s each.
        let mut s = stats();
        s.faults.map_tasks_scheduled = 1;
        assert!((m.avg_map_task_seconds(&s) - 100.0).abs() < 1e-9);
        assert!((m.avg_reduce_task_seconds(&s) - 50.0).abs() < 1e-9);

        s.faults.map_task_retries = 2;
        s.faults.maps_reexecuted = 1;
        s.faults.speculative_map_tasks = 1;
        s.faults.reduce_task_retries = 1;
        s.faults.speculative_reduce_tasks = 1;
        // 4 wasted map tasks × 100 + 2 wasted reduce tasks × 50.
        assert!((m.retry_seconds(&s) - 500.0).abs() < 1e-9);

        // A straggler overshooting by 2 average map-task times.
        s.faults.map_straggler_units = 2.0;
        assert!((m.straggler_tail_seconds(&s) - 200.0).abs() < 1e-9);
        assert!((m.fault_seconds(&s) - 700.0).abs() < 1e-9);
        assert!((m.job_seconds(&s) - (m.work_seconds(&s) + 700.0)).abs() < 1e-9);
        assert!((m.charged_work_seconds(&s) - (m.work_seconds(&s) + 700.0)).abs() < 1e-9);
    }

    #[test]
    fn map_only_faults_price_map_tasks_only() {
        let m = CostModel::zero_overhead();
        let mut s = stats();
        s.reduce_tasks = 0;
        s.faults.map_tasks_scheduled = 2;
        s.faults.map_task_retries = 1;
        s.faults.reduce_task_retries = 5; // impossible, but must price to 0
                                          // Map phase = read 100 + write 50 = 150 s over 2 tasks = 75 s each.
        assert!((m.avg_reduce_task_seconds(&s) - 0.0).abs() < 1e-12);
        assert!((m.retry_seconds(&s) - 75.0).abs() < 1e-9);
    }

    #[test]
    fn default_model_monotone_in_bytes() {
        let m = CostModel::default();
        let small = stats();
        let mut big = stats();
        big.hdfs_read_bytes *= 10;
        big.map_output_bytes *= 10;
        big.hdfs_write_bytes *= 10;
        assert!(m.work_seconds(&big) > m.work_seconds(&small));
    }
}
