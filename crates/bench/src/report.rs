//! Plain-text report tables for the figure binaries, plus the
//! machine-readable JSON rendering behind the shared `--json` flag.

use mr_rdf::QueryRun;
use mrsim::trace::JsonObject;
use mrsim::{OpCounters, WorkflowStats};
use ntga_core::physical::op;

/// One report row: a (query, approach) measurement. Every number of the
/// row is read from `stats` where the engine put it.
#[derive(Debug, Clone)]
pub struct Row {
    /// Query id (e.g. "B3").
    pub query: String,
    /// Approach label (e.g. "LazyUnnest(auto,phi_1024)").
    pub approach: String,
    /// The run's workflow counters.
    pub stats: WorkflowStats,
}

impl Row {
    /// Build a row from a run.
    pub fn from_run(query: &str, approach: &str, run: &QueryRun) -> Row {
        Row { query: query.to_string(), approach: approach.to_string(), stats: run.stats.clone() }
    }

    /// Completed without failure.
    pub fn ok(&self) -> bool {
        self.stats.succeeded
    }

    /// Operator-level counters merged across the workflow's jobs.
    pub fn ops(&self) -> OpCounters {
        self.stats.op_counters()
    }

    /// β-unnest expansion factor: records leaving the unnest operators ÷
    /// records entering them ([`op::UNNEST_OUT`]` + `[`op::PARTIAL_OUT`]
    /// over [`op::UNNEST_IN`]` + `[`op::PARTIAL_IN`]); 1.0 when the plan
    /// never unnested.
    pub fn beta_expansion(&self) -> f64 {
        let ops = self.ops();
        let unnest_in = ops.get(op::UNNEST_IN) + ops.get(op::PARTIAL_IN);
        let unnest_out = ops.get(op::UNNEST_OUT) + ops.get(op::PARTIAL_OUT);
        if unnest_in > 0 {
            unnest_out as f64 / unnest_in as f64
        } else {
            1.0
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
    println!("\n=== {title} ===\n{note}");
    let header = "query      approach                    MR  FS         read        write     interm.w      shuffle         wire     sim(s)   skew      maxpart      βx rtry   rty(s)  status";
    // Separator width follows the header, so a column change never leaves a
    // stale hardcoded width behind.
    let separator = "-".repeat(header.chars().count());
    println!("{header}");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 && rows[i - 1].query != r.query {
            println!("{separator}");
        }
        let s = &r.stats;
        println!(
            "{:<10} {:<26} {:>3} {:>3} {:>12} {:>12} {:>12} {:>12} {:>12} {:>10.1} {:>6.2} {:>12} {:>7.1} {:>4} {:>8.1}  {}",
            r.query,
            r.approach,
            s.mr_cycles,
            s.full_scans,
            human_bytes(s.total_read_bytes()),
            human_bytes(s.total_write_bytes()),
            human_bytes(s.intermediate_write_bytes()),
            human_bytes(s.total_shuffle_bytes()),
            human_bytes(s.total_shuffle_wire_bytes()),
            s.sim_seconds,
            s.max_reduce_skew(),
            human_bytes(s.max_partition_shuffle_bytes()),
            r.beta_expansion(),
            s.total_task_retries() + s.stage_retries,
            s.total_retry_seconds(),
            if r.ok() { "OK" } else { "FAILED (X)" },
        );
    }
    println!();
}

/// Print Figure 11's table: the last MR cycle of each run — the join on
/// the unbound-property pattern — with the partial unnest's nested and
/// expanded bytes.
pub fn print_last_cycle_table(title: &str, note: &str, rows: &[Row]) {
    println!("\n=== {title} ===\n{note}\n");
    println!("query  strategy                    map-out      shuffle     max-part   skew    last(s)     nested.B   expanded.B");
    for (i, r) in rows.iter().enumerate() {
        let last = r.stats.jobs.last().cloned().unwrap_or_default();
        println!(
            "{:<6} {:<22} {:>12} {:>12} {:>12} {:>6.2} {:>10.1} {:>12} {:>12}",
            r.query,
            r.approach,
            human_bytes(last.map_output_bytes),
            human_bytes(last.shuffle_bytes()),
            human_bytes(last.max_partition_shuffle_bytes()),
            last.reduce_skew(),
            last.sim_seconds,
            human_bytes(last.ops.get(op::PARTIAL_NESTED_BYTES)),
            human_bytes(last.ops.get(op::PARTIAL_EXPANDED_BYTES)),
        );
        if rows.get(i + 1).is_none_or(|next| next.query != r.query) {
            println!("{}", "-".repeat(110));
        }
    }
}

/// Render rows as a JSON array — the payload of the figure binaries'
/// `--json <path>` flag — through the workspace's one JSON writer.
pub fn rows_json(rows: &[Row]) -> String {
    JsonObject::array(rows.iter().map(|r| {
        let s = &r.stats;
        let mut o = JsonObject::new();
        o.str("query", &r.query);
        o.str("approach", &r.approach);
        o.u64("mr_cycles", s.mr_cycles);
        o.u64("full_scans", s.full_scans);
        o.u64("read_bytes", s.total_read_bytes());
        o.u64("write_bytes", s.total_write_bytes());
        o.u64("intermediate_write_bytes", s.intermediate_write_bytes());
        o.u64("shuffle_bytes", s.total_shuffle_bytes());
        o.u64("shuffle_wire_bytes", s.total_shuffle_wire_bytes());
        o.f64("sim_seconds", s.sim_seconds);
        o.opt_f64("max_q_error", s.max_q_error());
        o.f64("reduce_skew", s.max_reduce_skew());
        o.u64("max_partition_shuffle_bytes", s.max_partition_shuffle_bytes());
        o.u64("peak_arena_bytes", s.peak_arena_bytes());
        o.u64("peak_task_live_bytes", s.peak_task_live_bytes());
        o.f64("beta_expansion", r.beta_expansion());
        o.u64("result_records", s.final_output_records());
        o.u64("result_bytes", s.final_output_text_bytes());
        o.u64("task_retries", s.total_task_retries());
        o.u64("node_losses", s.total_node_losses());
        o.u64("speculative_tasks", s.total_speculative_tasks());
        o.u64("corruptions_detected", s.total_corruptions_detected());
        o.f64("retry_seconds", s.total_retry_seconds());
        o.u64("stage_retries", s.stage_retries);
        o.bool("degraded", s.degraded_replication);
        o.raw("ops", &r.ops().to_json());
        o.bool("ok", r.ok());
        o.finish()
    }))
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

    fn sample_row() -> Row {
        use mrsim::{FaultStats, JobStats};
        let mut ops = OpCounters::new();
        ops.add(op::UNNEST_IN, 2);
        ops.add(op::UNNEST_OUT, 10);
        let group = JobStats {
            hdfs_read_bytes: 60,
            hdfs_write_bytes: 50,
            map_output_bytes: 50,
            map_output_encoded_bytes: 52,
            shuffle_partition_bytes: vec![40, 10],
            reduce_tasks: 2,
            task_retries: 3,
            faults: FaultStats {
                node_losses: 1,
                speculative_map_tasks: 2,
                corruptions_detected: 2,
                ..FaultStats::default()
            },
            retry_seconds: 4.5,
            peak_arena_bytes: 512,
            ops,
            ..JobStats::default()
        };
        let join = JobStats {
            hdfs_read_bytes: 40,
            hdfs_write_bytes: 150,
            map_output_bytes: 25,
            map_output_encoded_bytes: 28,
            shuffle_partition_bytes: vec![25],
            reduce_tasks: 1,
            output_records: 7,
            output_text_bytes: 70,
            estimated_output_records: Some(17.5),
            peak_task_live_bytes: 768,
            ..JobStats::default()
        };
        let stats = WorkflowStats {
            jobs: vec![group, join],
            mr_cycles: 2,
            full_scans: 1,
            sim_seconds: f64::NAN,
            succeeded: true,
            stage_retries: 1,
            ..WorkflowStats::default()
        };
        Row { query: "B\"1".into(), approach: "Lazy\\Unnest".into(), stats }
    }

    #[test]
    fn rows_json_is_valid_and_complete() {
        let json = rows_json(&[sample_row()]);
        mrsim::trace::validate_json(&json).unwrap_or_else(|e| panic!("{json}: {e}"));
        // Key order and number formatting are pinned; strings are escaped, a
        // non-finite float is null, workflow totals sum over both jobs.
        let golden = concat!(
            r#"[{"query":"B\"1","approach":"Lazy\\Unnest","mr_cycles":2,"full_scans":1,"#,
            r#""read_bytes":100,"write_bytes":200,"intermediate_write_bytes":50,"#,
            r#""shuffle_bytes":75,"shuffle_wire_bytes":80,"sim_seconds":null,"max_q_error":2.5,"#,
            r#""reduce_skew":1.6,"max_partition_shuffle_bytes":40,"peak_arena_bytes":512,"#,
            r#""peak_task_live_bytes":768,"beta_expansion":5,"result_records":7,"result_bytes":70,"#,
            r#""task_retries":3,"node_losses":1,"speculative_tasks":2,"corruptions_detected":2,"#,
            r#""retry_seconds":4.5,"stage_retries":1,"degraded":false,"#,
            r#""ops":{"ntga.unnest.in":2,"ntga.unnest.out":10},"ok":true}]"#,
        );
        assert_eq!(json, golden);
        assert_eq!(rows_json(&[]), "[]");
    }
}
