//! Plain-text report tables for the figure binaries, plus the
//! machine-readable JSON rendering behind the shared `--json` flag.

use mr_rdf::QueryRun;
use mrsim::trace::JsonObject;
use mrsim::OpCounters;
use ntga_core::physical::op;

/// One report row: a (query, approach) measurement.
#[derive(Debug, Clone)]
pub struct Row {
    /// Query id (e.g. "B3").
    pub query: String,
    /// Approach label (e.g. "LazyUnnest(auto,phi_1024)").
    pub approach: String,
    /// MR cycles.
    pub mr_cycles: u64,
    /// Full scans of the base relation.
    pub full_scans: u64,
    /// Total HDFS read bytes.
    pub read_bytes: u64,
    /// Total HDFS write bytes (× replication).
    pub write_bytes: u64,
    /// Intermediate HDFS write bytes (all jobs but the last).
    pub intermediate_write_bytes: u64,
    /// Total shuffle bytes under the text-row cost model.
    pub shuffle_bytes: u64,
    /// Total post-encoding shuffle bytes: the binary framing of lexical
    /// tokens the spill arenas actually buffer. Larger than `shuffle_bytes`
    /// today — a length prefix costs more than the separator it stands for.
    pub shuffle_wire_bytes: u64,
    /// Simulated seconds.
    pub sim_seconds: f64,
    /// Worst per-job cardinality q-error across the workflow
    /// (`max(est/actual, actual/est)`); `None` when no job carried an
    /// optimizer estimate.
    pub max_q_error: Option<f64>,
    /// Worst reduce skew over the workflow's jobs (heaviest partition ÷
    /// mean partition load; 1.0 = perfectly balanced shuffles).
    pub reduce_skew: f64,
    /// Heaviest single reduce partition across the workflow, in shuffle
    /// bytes — the absolute figure behind `reduce_skew`'s ratio.
    pub max_partition_shuffle_bytes: u64,
    /// Peak bytes held by any one task's spill arenas (always accounted,
    /// profiling or not).
    pub peak_arena_bytes: u64,
    /// Peak live bytes attributed to a single task across the workflow.
    pub peak_task_live_bytes: u64,
    /// β-unnest expansion factor: records leaving the unnest operators ÷
    /// records entering them ([`op::UNNEST_OUT`]` + `[`op::PARTIAL_OUT`]
    /// over [`op::UNNEST_IN`]` + `[`op::PARTIAL_IN`]); 1.0 when the plan
    /// never unnested.
    pub beta_expansion: f64,
    /// Final-output record count (for chaos bit-identity checks).
    pub result_records: u64,
    /// Final-output text bytes (for chaos bit-identity checks).
    pub result_bytes: u64,
    /// Task retries across all jobs (injected faults).
    pub task_retries: u64,
    /// Node losses across all jobs (injected faults).
    pub node_losses: u64,
    /// Speculative backup tasks launched across all jobs.
    pub speculative_tasks: u64,
    /// Checksum mismatches detected (shuffle + DFS) across all jobs.
    pub corruptions_detected: u64,
    /// Undecodable input records quarantined by skip mode across all jobs.
    pub records_skipped: u64,
    /// Simulated seconds charged to retries/re-execution/speculation.
    pub retry_seconds: f64,
    /// Workflow-level stage re-runs under a recovery policy.
    pub stage_retries: u64,
    /// Stages skipped by a checkpoint resume (outputs already committed).
    pub stages_skipped: u64,
    /// True if `DegradeOnDiskFull` dropped output replication to 1.
    pub degraded: bool,
    /// Operator-level counters merged across the workflow's jobs.
    pub ops: OpCounters,
    /// Completed without failure.
    pub ok: bool,
}

impl Row {
    /// Build a row from a run.
    pub fn from_run(query: &str, approach: &str, run: &QueryRun) -> Row {
        let ops = run.op_counters();
        let unnest_in = ops.get(op::UNNEST_IN) + ops.get(op::PARTIAL_IN);
        let unnest_out = ops.get(op::UNNEST_OUT) + ops.get(op::PARTIAL_OUT);
        Row {
            query: query.to_string(),
            approach: approach.to_string(),
            mr_cycles: run.stats.mr_cycles,
            full_scans: run.stats.full_scans,
            read_bytes: run.stats.total_read_bytes(),
            write_bytes: run.stats.total_write_bytes(),
            intermediate_write_bytes: run.stats.intermediate_write_bytes(),
            shuffle_bytes: run.stats.total_shuffle_bytes(),
            shuffle_wire_bytes: run.stats.total_shuffle_wire_bytes(),
            sim_seconds: run.stats.sim_seconds,
            max_q_error: run.stats.max_q_error(),
            reduce_skew: run.stats.max_reduce_skew(),
            max_partition_shuffle_bytes: run.stats.max_partition_shuffle_bytes(),
            peak_arena_bytes: run.stats.peak_arena_bytes(),
            peak_task_live_bytes: run.stats.peak_task_live_bytes(),
            beta_expansion: if unnest_in > 0 { unnest_out as f64 / unnest_in as f64 } else { 1.0 },
            result_records: run.stats.final_output_records(),
            result_bytes: run.stats.final_output_text_bytes(),
            task_retries: run.stats.total_task_retries(),
            node_losses: run.stats.total_node_losses(),
            speculative_tasks: run.stats.total_speculative_tasks(),
            corruptions_detected: run.stats.total_corruptions_detected(),
            records_skipped: run.stats.total_records_skipped(),
            retry_seconds: run.stats.total_retry_seconds(),
            stage_retries: run.stats.stage_retries,
            stages_skipped: run.stats.stages_skipped,
            degraded: run.stats.degraded_replication,
            ops,
            ok: run.succeeded(),
        }
    }
}

/// Render bytes with binary units.
pub fn human_bytes(b: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = b as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit < UNITS.len() - 1 {
        v /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{b} B")
    } else {
        format!("{v:.2} {}", UNITS[unit])
    }
}

/// Print a figure table: header, one block per query, aligned columns.
pub fn print_table(title: &str, note: &str, rows: &[Row]) {
    println!("\n=== {title} ===");
    if !note.is_empty() {
        println!("{note}");
    }
    let header = format!(
        "{:<10} {:<26} {:>3} {:>3} {:>12} {:>12} {:>12} {:>12} {:>12} {:>10} {:>6} {:>12} {:>7} {:>4} {:>8}  status",
        "query",
        "approach",
        "MR",
        "FS",
        "read",
        "write",
        "interm.w",
        "shuffle",
        "wire",
        "sim(s)",
        "skew",
        "maxpart",
        "βx",
        "rtry",
        "rty(s)"
    );
    // Separator width follows the rendered header, so column changes never
    // leave a stale hardcoded width behind.
    let separator = "-".repeat(header.chars().count());
    println!("{header}");
    let mut last_query = String::new();
    for r in rows {
        if r.query != last_query && !last_query.is_empty() {
            println!("{separator}");
        }
        last_query = r.query.clone();
        println!(
            "{:<10} {:<26} {:>3} {:>3} {:>12} {:>12} {:>12} {:>12} {:>12} {:>10.1} {:>6.2} {:>12} {:>7.1} {:>4} {:>8.1}  {}",
            r.query,
            r.approach,
            r.mr_cycles,
            r.full_scans,
            human_bytes(r.read_bytes),
            human_bytes(r.write_bytes),
            human_bytes(r.intermediate_write_bytes),
            human_bytes(r.shuffle_bytes),
            human_bytes(r.shuffle_wire_bytes),
            r.sim_seconds,
            r.reduce_skew,
            human_bytes(r.max_partition_shuffle_bytes),
            r.beta_expansion,
            r.task_retries + r.stage_retries,
            r.retry_seconds,
            if r.ok { "OK" } else { "FAILED (X)" },
        );
    }
    println!();
}

/// Render rows as a JSON array — the payload of the figure binaries'
/// `--json <path>` flag — through the workspace's one JSON writer.
pub fn rows_json(rows: &[Row]) -> String {
    JsonObject::array(rows.iter().map(|r| {
        let mut o = JsonObject::new();
        o.str("query", &r.query);
        o.str("approach", &r.approach);
        o.u64("mr_cycles", r.mr_cycles);
        o.u64("full_scans", r.full_scans);
        o.u64("read_bytes", r.read_bytes);
        o.u64("write_bytes", r.write_bytes);
        o.u64("intermediate_write_bytes", r.intermediate_write_bytes);
        o.u64("shuffle_bytes", r.shuffle_bytes);
        o.u64("shuffle_wire_bytes", r.shuffle_wire_bytes);
        o.f64("sim_seconds", r.sim_seconds);
        o.opt_f64("max_q_error", r.max_q_error);
        o.f64("reduce_skew", r.reduce_skew);
        o.u64("max_partition_shuffle_bytes", r.max_partition_shuffle_bytes);
        o.u64("peak_arena_bytes", r.peak_arena_bytes);
        o.u64("peak_task_live_bytes", r.peak_task_live_bytes);
        o.f64("beta_expansion", r.beta_expansion);
        o.u64("result_records", r.result_records);
        o.u64("result_bytes", r.result_bytes);
        o.u64("task_retries", r.task_retries);
        o.u64("node_losses", r.node_losses);
        o.u64("speculative_tasks", r.speculative_tasks);
        o.u64("corruptions_detected", r.corruptions_detected);
        o.u64("records_skipped", r.records_skipped);
        o.f64("retry_seconds", r.retry_seconds);
        o.u64("stage_retries", r.stage_retries);
        o.u64("stages_skipped", r.stages_skipped);
        o.bool("degraded", r.degraded);
        o.raw("ops", &r.ops.to_json());
        o.bool("ok", r.ok);
        o.finish()
    }))
}

/// Percentage reduction of `ours` versus `theirs` (positive = we wrote
/// less), for the "N % less HDFS writes" comparisons of the paper.
pub fn pct_less(theirs: u64, ours: u64) -> f64 {
    if theirs == 0 {
        return 0.0;
    }
    (1.0 - ours as f64 / theirs as f64) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(0), "0 B");
        assert_eq!(human_bytes(1023), "1023 B");
        assert_eq!(human_bytes(1024), "1.00 KiB");
        assert_eq!(human_bytes(1536), "1.50 KiB");
        assert_eq!(human_bytes(1024 * 1024 * 3), "3.00 MiB");
    }

    #[test]
    fn pct_less_basics() {
        assert!((pct_less(100, 20) - 80.0).abs() < 1e-9);
        assert_eq!(pct_less(0, 5), 0.0);
        assert!((pct_less(50, 50) - 0.0).abs() < 1e-9);
    }

    fn sample_row() -> Row {
        let mut ops = OpCounters::new();
        ops.add(op::UNNEST_IN, 2);
        ops.add(op::UNNEST_OUT, 10);
        Row {
            query: "B\"1".into(),
            approach: "Lazy\\Unnest".into(),
            mr_cycles: 2,
            full_scans: 1,
            read_bytes: 100,
            write_bytes: 200,
            intermediate_write_bytes: 50,
            shuffle_bytes: 75,
            shuffle_wire_bytes: 80,
            sim_seconds: f64::NAN,
            max_q_error: Some(2.5),
            reduce_skew: 1.25,
            max_partition_shuffle_bytes: 40,
            peak_arena_bytes: 512,
            peak_task_live_bytes: 768,
            beta_expansion: 5.0,
            result_records: 7,
            result_bytes: 70,
            task_retries: 3,
            node_losses: 1,
            speculative_tasks: 2,
            corruptions_detected: 2,
            records_skipped: 5,
            retry_seconds: 4.5,
            stage_retries: 1,
            stages_skipped: 1,
            degraded: false,
            ops,
            ok: true,
        }
    }

    #[test]
    fn rows_json_is_valid_and_complete() {
        let json = rows_json(&[sample_row()]);
        mrsim::trace::validate_json(&json).unwrap_or_else(|e| panic!("{json}: {e}"));
        // Strings are escaped, non-finite floats become null, operator
        // counters ride along.
        assert!(json.contains("\"query\":\"B\\\"1\""), "{json}");
        assert!(json.contains("\"approach\":\"Lazy\\\\Unnest\""), "{json}");
        assert!(json.contains("\"sim_seconds\":null"), "{json}");
        assert!(json.contains("\"max_q_error\":2.5"), "{json}");
        assert!(json.contains("\"shuffle_wire_bytes\":80"), "{json}");
        assert!(json.contains("\"max_partition_shuffle_bytes\":40"), "{json}");
        assert!(json.contains("\"peak_arena_bytes\":512"), "{json}");
        assert!(json.contains("\"peak_task_live_bytes\":768"), "{json}");
        assert!(json.contains("\"ntga.unnest.in\":2"), "{json}");
        assert!(json.contains("\"result_bytes\":70"), "{json}");
        assert!(json.contains("\"retry_seconds\":4.5"), "{json}");
        assert!(json.contains("\"corruptions_detected\":2"), "{json}");
        assert!(json.contains("\"records_skipped\":5"), "{json}");
        assert!(json.contains("\"stages_skipped\":1"), "{json}");
        assert!(json.contains("\"degraded\":false"), "{json}");
        assert!(json.contains("\"ok\":true"), "{json}");
        assert_eq!(rows_json(&[]), "[]");
    }
}
