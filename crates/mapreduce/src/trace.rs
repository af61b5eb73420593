//! Structured execution tracing: typed events, one recording sink, and two
//! renderings of the recording — a JSONL event log and a Chrome trace-event
//! document on the *simulated* timeline.
//!
//! The paper's whole evaluation is an observability exercise — every figure
//! is a function of MR cycles, HDFS/shuffle bytes, and where redundancy is
//! paid. End-of-run aggregates ([`JobStats`]/[`crate::WorkflowStats`])
//! answer *how much*; tracing answers *where*: which job inflated the
//! shuffle, how tasks were laid out on the cost model's timeline, which
//! task attempts were wasted on injected faults.
//!
//! ## Event model
//!
//! An [`Engine`](crate::Engine) with an attached [`TraceSink`] emits
//! [`TraceEvent`]s as it executes:
//!
//! * per job: [`TraceEvent::JobStart`], the injected faults
//!   ([`TraceEvent::TaskRetry`], [`TraceEvent::NodeLoss`],
//!   [`TraceEvent::Straggler`], [`TraceEvent::CorruptionDetected`]), the
//!   shuffle's [`TraceEvent::SortPlan`], per-task [`TraceEvent::TaskSpan`]s
//!   (simulated start/duration derived from the cost model's phase times,
//!   apportioned by per-task bytes; a reduce task's span carries its
//!   partition's shuffle records and bytes), and a closing
//!   [`TraceEvent::JobEnd`] carrying the job's [`JobStats`];
//! * per workflow: [`TraceEvent::WorkflowStart`]/[`TraceEvent::WorkflowEnd`]
//!   plus [`TraceEvent::StageStart`]/[`TraceEvent::JobSpan`]/
//!   [`TraceEvent::StageEnd`] placing every job on the *absolute* simulated
//!   timeline (task spans inside a job are relative to the job's start).
//!
//! Each event states only facts no other event states: a per-job counter
//! appears once, as a [`JobStats`] field on `JobEnd`.
//!
//! Tracing is strictly opt-in: without a sink the engine emits nothing and
//! constructs no events (the closure passed to the internal emit hook never
//! runs), so the disabled path costs one `Option` check per site.
//!
//! ## Sinks
//!
//! A [`TraceSink`] receives events and nothing else. [`MemorySink`] is the
//! one recording sink: it keeps every event in emission order. A file is a
//! pure rendering of that list, written by whoever owns the recording:
//!
//! * [`render_jsonl`] — one JSON object per event per line;
//! * [`render_chrome`] — the Chrome trace-event format: open the file in
//!   [Perfetto](https://ui.perfetto.dev) (or `chrome://tracing`) to see
//!   workflows as processes and job/task lanes as threads, laid out in
//!   simulated microseconds.

use crate::counters::JobStats;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Which phase of a job a task belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TaskPhase {
    /// Map phase (also map-only jobs).
    Map,
    /// Reduce phase.
    Reduce,
}

impl TaskPhase {
    /// Stable lowercase name (used in JSON output).
    pub fn as_str(self) -> &'static str {
        match self {
            TaskPhase::Map => "map",
            TaskPhase::Reduce => "reduce",
        }
    }
}

/// One structured trace event. All times are *simulated* seconds from the
/// engine's [`CostModel`](crate::CostModel); byte counts are the engine's
/// text-size accounting.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A workflow began.
    WorkflowStart {
        /// Workflow report label.
        label: String,
    },
    /// A workflow stage (one MR cycle; possibly several concurrent jobs)
    /// began at `sim_start` on the workflow's absolute timeline.
    StageStart {
        /// Zero-based stage index within the workflow.
        stage: u64,
        /// Absolute simulated second the stage starts at.
        sim_start: f64,
    },
    /// A job began executing.
    JobStart {
        /// Job name.
        job: String,
    },
    /// One task's span on the simulated timeline, *relative to its job's
    /// start*. The cost model's phase time is apportioned over the phase's
    /// tasks by their byte share (record share when no bytes moved), and
    /// tasks are laid end-to-end — the aggregate-bandwidth reading of the
    /// cost model, where a phase's tasks share the cluster's full I/O rate.
    TaskSpan {
        /// Job name.
        job: String,
        /// Map or reduce.
        phase: TaskPhase,
        /// Task index within the phase.
        task: u64,
        /// Input records processed by this task.
        records: u64,
        /// Encoded input bytes for map tasks; shuffle bytes routed to this
        /// partition for reduce tasks.
        bytes: u64,
        /// Simulated start second, relative to the job's start.
        start: f64,
        /// Simulated duration in seconds.
        dur: f64,
    },
    /// Injected fault retries: task `task` needed `wasted_attempts` extra
    /// attempts before succeeding.
    TaskRetry {
        /// Job name.
        job: String,
        /// Map or reduce.
        phase: TaskPhase,
        /// Task index within the phase.
        task: u64,
        /// Number of failed (retried) attempts.
        wasted_attempts: u64,
    },
    /// A simulated node died during the job's map→reduce handoff; the
    /// completed map outputs it held were lost and the affected map tasks
    /// re-executed.
    NodeLoss {
        /// Job name.
        job: String,
        /// Simulated node index that died.
        node: u64,
        /// Completed map tasks whose outputs were lost (re-executed).
        maps_lost: u64,
    },
    /// A task was selected as a straggler, running `slowdown ×` its
    /// normal time.
    Straggler {
        /// Job name.
        job: String,
        /// Map or reduce.
        phase: TaskPhase,
        /// Task index within the phase.
        task: u64,
        /// Injected slowdown factor.
        slowdown: f64,
        /// `None` when no speculative backup was launched; else whether
        /// the backup finished before the original attempt.
        backup_won: Option<bool>,
    },
    /// The verified data plane caught a checksum mismatch — a corrupt
    /// shuffle bucket at reducer fetch, or a corrupt DFS block at read —
    /// and recovered the clean copy: the producing map task re-executed
    /// (fetch-failure semantics) or the DFS block re-read from a replica.
    CorruptionDetected {
        /// Job name.
        job: String,
        /// Where the mismatch was caught (`"shuffle"` or `"dfs"`).
        site: &'static str,
        /// Producing map-task index (shuffle) or block index (dfs).
        task: u64,
    },
    /// The shuffle sort work of one map-reduce job: how many
    /// map-side-sorted runs reached the reduce side, and how many index
    /// entries the reducers brought into canonical order. Work counts,
    /// not wall-clock: the event stream must stay worker-count- and
    /// fault-regime-invariant.
    SortPlan {
        /// Job name.
        job: String,
        /// Map-side sorted runs absorbed across all reduce partitions.
        map_sorted_runs: u64,
        /// Index entries the reduce side merged into canonical order.
        merge_entries: u64,
    },
    /// A job finished; carries its [`JobStats`], the one statement of
    /// every per-job counter (memory marks, broadcast, planner estimate).
    JobEnd {
        /// The finished job's counters.
        stats: Box<JobStats>,
    },
    /// A job's placement on the workflow's *absolute* simulated timeline:
    /// `sim_end − sim_start − startup_seconds` is the job's work time, and
    /// per stage `max(startup) + Σ work` over its [`TraceEvent::JobSpan`]s
    /// reconstructs the stage makespan exactly.
    JobSpan {
        /// Job name.
        job: String,
        /// Zero-based stage index the job ran in.
        stage: u64,
        /// Absolute simulated start second (== the stage's start).
        sim_start: f64,
        /// Absolute simulated end second (start + startup + own work).
        sim_end: f64,
        /// Fixed startup seconds included in the span.
        startup_seconds: f64,
    },
    /// A failed stage attempt is being re-run by a
    /// [`RecoveryPolicy`](crate::workflow::RecoveryPolicy).
    StageRetry {
        /// Zero-based stage-attempt index of the attempt that failed.
        stage: u64,
        /// Retry attempt number about to run (1-based).
        attempt: u32,
        /// Backoff seconds charged to the makespan before the re-run.
        backoff_seconds: f64,
        /// Display form of the error that failed the attempt.
        error: String,
    },
    /// A stage completed at `sim_end` (start + max startup + Σ work).
    StageEnd {
        /// Zero-based stage index.
        stage: u64,
        /// Absolute simulated end second of the stage.
        sim_end: f64,
    },
    /// A workflow finished (successfully or not).
    WorkflowEnd {
        /// Workflow report label.
        label: String,
        /// Total simulated seconds (stage makespans summed).
        sim_seconds: f64,
        /// False when the workflow aborted (e.g. `DiskFull`).
        succeeded: bool,
    },
}

impl TraceEvent {
    /// Stable event-kind tag (the `"event"` field of the JSON form).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::WorkflowStart { .. } => "workflow_start",
            TraceEvent::StageStart { .. } => "stage_start",
            TraceEvent::JobStart { .. } => "job_start",
            TraceEvent::TaskSpan { .. } => "task_span",
            TraceEvent::TaskRetry { .. } => "task_retry",
            TraceEvent::NodeLoss { .. } => "node_loss",
            TraceEvent::Straggler { .. } => "straggler",
            TraceEvent::CorruptionDetected { .. } => "corruption_detected",
            TraceEvent::SortPlan { .. } => "sort_plan",
            TraceEvent::JobEnd { .. } => "job_end",
            TraceEvent::JobSpan { .. } => "job_span",
            TraceEvent::StageRetry { .. } => "stage_retry",
            TraceEvent::StageEnd { .. } => "stage_end",
            TraceEvent::WorkflowEnd { .. } => "workflow_end",
        }
    }

    /// Render as one JSON object (the [`render_jsonl`] line format).
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.str("event", self.kind());
        match self {
            TraceEvent::WorkflowStart { label } => {
                o.str("label", label);
            }
            TraceEvent::StageStart { stage, sim_start } => {
                o.u64("stage", *stage);
                o.f64("sim_start", *sim_start);
            }
            TraceEvent::JobStart { job } => {
                o.str("job", job);
            }
            TraceEvent::TaskSpan { job, phase, task, records, bytes, start, dur } => {
                o.str("job", job);
                o.str("phase", phase.as_str());
                o.u64("task", *task);
                o.u64("records", *records);
                o.u64("bytes", *bytes);
                o.f64("start", *start);
                o.f64("dur", *dur);
            }
            TraceEvent::TaskRetry { job, phase, task, wasted_attempts } => {
                o.str("job", job);
                o.str("phase", phase.as_str());
                o.u64("task", *task);
                o.u64("wasted_attempts", *wasted_attempts);
            }
            TraceEvent::NodeLoss { job, node, maps_lost } => {
                o.str("job", job);
                o.u64("node", *node);
                o.u64("maps_lost", *maps_lost);
            }
            TraceEvent::Straggler { job, phase, task, slowdown, backup_won } => {
                o.str("job", job);
                o.str("phase", phase.as_str());
                o.u64("task", *task);
                o.f64("slowdown", *slowdown);
                match backup_won {
                    Some(won) => o.bool("backup_won", *won),
                    None => o.raw("backup_won", "null"),
                }
            }
            TraceEvent::CorruptionDetected { job, site, task } => {
                o.str("job", job);
                o.str("site", site);
                o.u64("task", *task);
            }
            TraceEvent::SortPlan { job, map_sorted_runs, merge_entries } => {
                o.str("job", job);
                o.u64("map_sorted_runs", *map_sorted_runs);
                o.u64("merge_entries", *merge_entries);
            }
            TraceEvent::JobEnd { stats } => {
                o.str("job", &stats.name);
                o.f64("sim_seconds", stats.sim_seconds);
                o.f64("startup_seconds", stats.startup_seconds);
                o.u64("hdfs_read_bytes", stats.hdfs_read_bytes);
                o.u64("hdfs_write_bytes", stats.hdfs_write_bytes);
                o.u64("shuffle_bytes", stats.shuffle_bytes());
                o.u64("task_retries", stats.task_retries);
                o.f64("retry_seconds", stats.retry_seconds);
                o.u64("output_records", stats.output_records);
                o.opt_f64("estimated_output_records", stats.estimated_output_records);
                o.opt_f64("q_error", stats.q_error());
                o.u64("broadcast_files", stats.broadcast_files);
                o.u64("broadcast_bytes", stats.broadcast_bytes);
                o.u64("broadcast_ship_bytes", stats.broadcast_ship_bytes);
                o.u64("peak_arena_bytes", stats.peak_arena_bytes);
                o.u64("peak_task_live_bytes", stats.peak_task_live_bytes);
                o.u64("peak_spill_entries", stats.peak_spill_entries);
                o.raw("ops", &stats.ops.to_json());
            }
            TraceEvent::JobSpan { job, stage, sim_start, sim_end, startup_seconds } => {
                o.str("job", job);
                o.u64("stage", *stage);
                o.f64("sim_start", *sim_start);
                o.f64("sim_end", *sim_end);
                o.f64("startup_seconds", *startup_seconds);
            }
            TraceEvent::StageRetry { stage, attempt, backoff_seconds, error } => {
                o.u64("stage", *stage);
                o.u64("attempt", u64::from(*attempt));
                o.f64("backoff_seconds", *backoff_seconds);
                o.str("error", error);
            }
            TraceEvent::StageEnd { stage, sim_end } => {
                o.u64("stage", *stage);
                o.f64("sim_end", *sim_end);
            }
            TraceEvent::WorkflowEnd { label, sim_seconds, succeeded } => {
                o.str("label", label);
                o.f64("sim_seconds", *sim_seconds);
                o.bool("succeeded", *succeeded);
            }
        }
        o.finish()
    }
}

/// A consumer of [`TraceEvent`]s. Implementations must be thread-safe: the
/// engine emits from the driver thread but sinks are shared via `Arc`
/// across engines and workflows.
pub trait TraceSink: Send + Sync {
    /// Receive one event. Called in emission order per engine.
    fn event(&self, ev: &TraceEvent);
}

impl std::fmt::Debug for dyn TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("<sink>")
    }
}

// ---------------------------------------------------------------------------
// JSON plumbing: the workspace's one JSON writer, and the validator that
// checks what it wrote.
// ---------------------------------------------------------------------------

/// Append `s` to `out` with JSON string escaping (quotes not included).
fn escape_json_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Minimal incremental JSON-object writer: ordered keys, correct escaping,
/// `null` for non-finite floats. Every JSON document the workspace writes
/// — trace renderings, counters, profiles, report rows — is built
/// from it and [`JsonObject::array`].
#[derive(Default)]
pub struct JsonObject {
    buf: String,
}

impl JsonObject {
    /// Start an empty object.
    pub fn new() -> Self {
        JsonObject { buf: String::from("{") }
    }

    fn key(&mut self, k: &str) {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        self.buf.push('"');
        escape_json_into(k, &mut self.buf);
        self.buf.push_str("\":");
    }

    /// Append a string field (escaped).
    pub fn str(&mut self, k: &str, v: &str) {
        self.key(k);
        self.buf.push('"');
        escape_json_into(v, &mut self.buf);
        self.buf.push('"');
    }

    /// Append an unsigned integer field.
    pub fn u64(&mut self, k: &str, v: u64) {
        self.key(k);
        self.buf.push_str(&v.to_string());
    }

    /// Append a float field (`null` when non-finite, which JSON cannot
    /// represent).
    pub fn f64(&mut self, k: &str, v: f64) {
        self.opt_f64(k, Some(v));
    }

    /// Append a float field that may be absent (`null` then, too).
    pub fn opt_f64(&mut self, k: &str, v: Option<f64>) {
        self.key(k);
        match v.filter(|v| v.is_finite()) {
            Some(v) => self.buf.push_str(&v.to_string()),
            None => self.buf.push_str("null"),
        }
    }

    /// Append a boolean field.
    pub fn bool(&mut self, k: &str, v: bool) {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
    }

    /// Insert a pre-rendered JSON value verbatim.
    pub fn raw(&mut self, k: &str, json: &str) {
        self.key(k);
        self.buf.push_str(json);
    }

    /// Close the object and return its JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }

    /// Render pre-rendered JSON values as an array, for [`raw`](Self::raw)
    /// or as a document of its own.
    pub fn array(values: impl IntoIterator<Item = String>) -> String {
        let mut out = String::from("[");
        for (i, v) in values.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&v);
        }
        out.push(']');
        out
    }
}

/// Validate that `s` is one complete JSON value (with optional surrounding
/// whitespace). A tiny recursive-descent checker — the workspace has no
/// JSON dependency, and the renderings hand-write their output, so tests and
/// smoke checks use this to prove the emitted bytes actually parse.
pub fn validate_json(s: &str) -> Result<(), String> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: u32) -> Result<(), String> {
    if depth > 128 {
        return Err("nesting too deep".into());
    }
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(());
            }
            loop {
                skip_ws(b, pos);
                parse_string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                skip_ws(b, pos);
                parse_value(b, pos, depth + 1)?;
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(());
            }
            loop {
                skip_ws(b, pos);
                parse_value(b, pos, depth + 1)?;
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => parse_string(b, pos),
        Some(b't') => parse_literal(b, pos, "true"),
        Some(b'f') => parse_literal(b, pos, "false"),
        Some(b'n') => parse_literal(b, pos, "null"),
        Some(c) if *c == b'-' || c.is_ascii_digit() => parse_number(b, pos),
        Some(c) => Err(format!("unexpected byte {c:#x} at {pos}")),
    }
}

fn parse_literal(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        if b.len() < *pos + 5
                            || !b[*pos + 1..*pos + 5].iter().all(u8::is_ascii_hexdigit)
                        {
                            return Err(format!("bad \\u escape at byte {pos}"));
                        }
                        *pos += 5;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
            }
            c if c < 0x20 => return Err(format!("raw control byte {c:#x} in string at {pos}")),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".into())
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |b: &[u8], pos: &mut usize| {
        let s = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos > s
    };
    let int_start = *pos;
    if !digits(b, pos) {
        return Err(format!("bad number at byte {start}"));
    }
    // RFC 8259 §6: the integer part is `0` or starts with a nonzero digit.
    if b[int_start] == b'0' && *pos - int_start > 1 {
        return Err(format!("leading zero in number at byte {start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(b, pos) {
            return Err(format!("bad number at byte {start}"));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(b, pos) {
            return Err(format!("bad number at byte {start}"));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The recording sink and its two renderings
// ---------------------------------------------------------------------------

/// In-memory sink: records every event, in emission order, for the
/// renderings ([`render_jsonl`], [`render_chrome`]) and for programmatic
/// inspection (tests, golden-trace comparisons).
#[derive(Default)]
pub struct MemorySink {
    events: Mutex<Vec<TraceEvent>>,
}

impl MemorySink {
    /// New empty sink, ready to share with an engine.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Snapshot of every event received so far, in emission order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().clone()
    }

    /// Drain and return the buffered events.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events.lock())
    }
}

impl TraceSink for MemorySink {
    fn event(&self, ev: &TraceEvent) {
        self.events.lock().push(ev.clone());
    }
}

/// The JSON Lines event log: one [`TraceEvent::to_json`] line per event.
pub fn render_jsonl(events: &[TraceEvent]) -> String {
    events.iter().map(|ev| ev.to_json() + "\n").collect()
}

/// Chrome thread-id of the workflow-summary lane.
const WORKFLOW_LANE: u64 = 0;
/// Chrome thread-id of the job-bars lane.
const JOB_LANE: u64 = 1;
/// First thread-id handed out to per-job task lanes.
const FIRST_TASK_LANE: u64 = 8;

/// The Chrome trace-event document of `events` (open it in
/// [Perfetto](https://ui.perfetto.dev) or `chrome://tracing`).
///
/// Layout: each workflow is a Chrome *process* (pid); within it, lane 0
/// holds the whole-workflow span, lane 1 the per-job bars on the absolute
/// simulated timeline, and each job gets its own task lane with the map
/// and reduce task spans laid end-to-end. Faults appear as instant events
/// on the job's task lane, stage retries on the job lane. Timestamps are
/// simulated microseconds. Sort work and job counters are the JSONL log's
/// alone: `SortPlan` and `JobEnd` draw nothing.
pub fn render_chrome(events: &[TraceEvent]) -> String {
    let mut chrome = Chrome {
        out: Vec::new(),
        pid: 1,
        next_pid: 2,
        base: 0.0,
        lanes: HashMap::new(),
        next_tid: FIRST_TASK_LANE,
    };
    for ev in events {
        chrome.event(ev);
    }
    let mut doc = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    if !chrome.out.is_empty() {
        doc += &chrome.out.join(",\n");
        doc.push('\n');
    }
    doc + "]}\n"
}

/// [`render_chrome`]'s state over one pass: the current workflow's pid, the
/// stage offset task spans are placed at, and the task lane of each job.
struct Chrome<'a> {
    /// Rendered trace-event objects, in emission order.
    out: Vec<String>,
    /// Current workflow's process id; workflows map to Chrome processes.
    pid: u64,
    next_pid: u64,
    /// Absolute simulated offset applied to job-relative task spans.
    base: f64,
    /// Task lane (Chrome thread id) per job name.
    lanes: HashMap<&'a str, u64>,
    next_tid: u64,
}

impl<'a> Chrome<'a> {
    fn event(&mut self, ev: &'a TraceEvent) {
        match ev {
            TraceEvent::WorkflowStart { label } => {
                self.pid = self.next_pid;
                self.next_pid += 1;
                self.base = 0.0;
                self.lanes.clear();
                self.next_tid = FIRST_TASK_LANE;
                self.meta(None, "process_name", label);
                self.meta(Some(WORKFLOW_LANE), "thread_name", "workflow");
                self.meta(Some(JOB_LANE), "thread_name", "jobs");
            }
            TraceEvent::StageStart { sim_start: base, .. }
            | TraceEvent::StageEnd { sim_end: base, .. } => self.base = *base,
            TraceEvent::JobStart { job } => {
                self.task_lane(job);
            }
            TraceEvent::TaskSpan { job, phase, task, records, bytes, start, dur } => {
                let tid = self.task_lane(job);
                let mut args = JsonObject::new();
                args.u64("records", *records);
                args.u64("bytes", *bytes);
                let name = format!("{} {}", phase.as_str(), task);
                self.span(tid, &name, self.base + *start, *dur, args);
            }
            TraceEvent::TaskRetry { job, phase, task, wasted_attempts } => {
                let tid = self.task_lane(job);
                let mut args = JsonObject::new();
                args.u64("wasted_attempts", *wasted_attempts);
                self.instant(tid, &format!("retry {} {}", phase.as_str(), task), args);
            }
            TraceEvent::NodeLoss { job, node, maps_lost } => {
                let tid = self.task_lane(job);
                let mut args = JsonObject::new();
                args.u64("maps_lost", *maps_lost);
                self.instant(tid, &format!("node {node} lost"), args);
            }
            TraceEvent::Straggler { job, phase, task, slowdown, backup_won } => {
                let tid = self.task_lane(job);
                let mut args = JsonObject::new();
                args.f64("slowdown", *slowdown);
                self.instant(tid, &format!("straggler {} {}", phase.as_str(), task), args);
                if let Some(won) = backup_won {
                    let mut args = JsonObject::new();
                    args.bool("backup_won", *won);
                    self.instant(tid, &format!("speculative {} {}", phase.as_str(), task), args);
                }
            }
            TraceEvent::StageRetry { stage, attempt, backoff_seconds, error } => {
                let mut args = JsonObject::new();
                args.u64("attempt", u64::from(*attempt));
                args.f64("backoff_seconds", *backoff_seconds);
                args.str("error", error);
                self.instant(JOB_LANE, &format!("stage {stage} retry"), args);
            }
            TraceEvent::CorruptionDetected { job, site, task } => {
                let tid = self.task_lane(job);
                self.instant(tid, &format!("corrupt {site} {task}"), JsonObject::new());
                self.instant(tid, &format!("refetch {site} {task}"), JsonObject::new());
            }
            TraceEvent::SortPlan { .. } | TraceEvent::JobEnd { .. } => {}
            TraceEvent::JobSpan { job, sim_start, sim_end, startup_seconds, .. } => {
                let mut args = JsonObject::new();
                args.f64("startup_seconds", *startup_seconds);
                self.span(JOB_LANE, job, *sim_start, *sim_end - *sim_start, args);
            }
            TraceEvent::WorkflowEnd { label, sim_seconds, succeeded } => {
                let mut args = JsonObject::new();
                args.bool("succeeded", *succeeded);
                self.span(WORKFLOW_LANE, label, 0.0, *sim_seconds, args);
            }
        }
    }

    fn meta(&mut self, tid: Option<u64>, what: &str, name: &str) {
        let mut o = JsonObject::new();
        o.str("ph", "M");
        o.u64("pid", self.pid);
        if let Some(tid) = tid {
            o.u64("tid", tid);
        }
        o.str("name", what);
        let mut args = JsonObject::new();
        args.str("name", name);
        o.raw("args", &args.finish());
        self.out.push(o.finish());
    }

    fn span(&mut self, tid: u64, name: &str, ts: f64, dur: f64, args: JsonObject) {
        let mut o = JsonObject::new();
        o.str("ph", "X");
        o.u64("pid", self.pid);
        o.u64("tid", tid);
        o.str("name", name);
        o.f64("ts", ts * 1e6);
        o.f64("dur", dur * 1e6);
        o.raw("args", &args.finish());
        self.out.push(o.finish());
    }

    fn instant(&mut self, tid: u64, name: &str, args: JsonObject) {
        let mut o = JsonObject::new();
        o.str("ph", "i");
        o.u64("pid", self.pid);
        o.u64("tid", tid);
        o.str("name", name);
        o.f64("ts", self.base * 1e6);
        o.str("s", "t");
        o.raw("args", &args.finish());
        self.out.push(o.finish());
    }

    fn task_lane(&mut self, job: &'a str) -> u64 {
        if let Some(&tid) = self.lanes.get(job) {
            return tid;
        }
        let tid = self.next_tid;
        self.next_tid += 1;
        self.lanes.insert(job, tid);
        self.meta(Some(tid), "thread_name", &format!("tasks:{job}"));
        tid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::counters::OpCounters;

    /// A finished job's counters, by hand: every field `job_end` renders
    /// set to a distinct value.
    fn job_stats(estimate: Option<f64>) -> Box<JobStats> {
        let mut ops = OpCounters::new();
        ops.add("tg.unnest.out", 12);
        Box::new(JobStats {
            name: "j1".into(),
            hdfs_read_bytes: 1,
            hdfs_write_bytes: 2,
            map_output_bytes: 3,
            reduce_tasks: 1,
            task_retries: 2,
            retry_seconds: 1.25,
            sim_seconds: 40.0,
            startup_seconds: 15.0,
            output_records: 10,
            estimated_output_records: estimate,
            broadcast_files: 1,
            broadcast_bytes: 640,
            broadcast_ship_bytes: 2560,
            peak_arena_bytes: 4096,
            peak_task_live_bytes: 2048,
            peak_spill_entries: 128,
            ops,
            ..JobStats::default()
        })
    }

    fn straggler(backup_won: Option<bool>) -> TraceEvent {
        TraceEvent::Straggler {
            job: "j1".into(),
            phase: TaskPhase::Map,
            task: 1,
            slowdown: 6.0,
            backup_won,
        }
    }

    #[test]
    fn events_serialize_to_valid_json() {
        let events = vec![
            TraceEvent::WorkflowStart { label: "NTGA/\"C4\"\n".into() },
            TraceEvent::StageStart { stage: 0, sim_start: 0.0 },
            TraceEvent::JobStart { job: "j1".into() },
            TraceEvent::TaskSpan {
                job: "j1".into(),
                phase: TaskPhase::Map,
                task: 3,
                records: 100,
                bytes: 4096,
                start: 15.0,
                dur: 1.25,
            },
            TraceEvent::TaskRetry {
                job: "j1".into(),
                phase: TaskPhase::Reduce,
                task: 0,
                wasted_attempts: 2,
            },
            TraceEvent::NodeLoss { job: "j1".into(), node: 2, maps_lost: 5 },
            straggler(Some(true)),
            TraceEvent::StageRetry {
                stage: 0,
                attempt: 1,
                backoff_seconds: 30.0,
                error: "disk \"full\"".into(),
            },
            TraceEvent::CorruptionDetected { job: "j1".into(), site: "shuffle", task: 4 },
            TraceEvent::SortPlan { job: "j1".into(), map_sorted_runs: 16, merge_entries: 4096 },
            TraceEvent::JobEnd { stats: job_stats(Some(12.5)) },
            TraceEvent::JobSpan {
                job: "j1".into(),
                stage: 0,
                sim_start: 0.0,
                sim_end: 40.0,
                startup_seconds: 15.0,
            },
            TraceEvent::StageEnd { stage: 0, sim_end: 40.0 },
            TraceEvent::WorkflowEnd { label: "w".into(), sim_seconds: 40.0, succeeded: true },
        ];
        for ev in &events {
            let json = ev.to_json();
            validate_json(&json).unwrap_or_else(|e| panic!("{json}: {e}"));
            assert!(json.contains(&format!("\"event\":\"{}\"", ev.kind())), "{json}");
        }
    }

    #[test]
    fn job_end_renders_its_job_stats() {
        let head = r#"{"event":"job_end","job":"j1","sim_seconds":40,"startup_seconds":15,"#
            .to_owned()
            + r#""hdfs_read_bytes":1,"hdfs_write_bytes":2,"shuffle_bytes":3,"task_retries":2,"#
            + r#""retry_seconds":1.25,"output_records":10,"#;
        let tail = r#""broadcast_files":1,"broadcast_bytes":640,"broadcast_ship_bytes":2560,"#
            .to_owned()
            + r#""peak_arena_bytes":4096,"peak_task_live_bytes":2048,"peak_spill_entries":128,"#
            + r#""ops":{"tg.unnest.out":12}}"#;
        assert_eq!(
            TraceEvent::JobEnd { stats: job_stats(Some(12.5)) }.to_json(),
            format!(r#"{head}"estimated_output_records":12.5,"q_error":1.25,{tail}"#)
        );
        assert_eq!(
            TraceEvent::JobEnd { stats: job_stats(None) }.to_json(),
            format!(r#"{head}"estimated_output_records":null,"q_error":null,{tail}"#)
        );
    }

    #[test]
    fn straggler_states_its_backup() {
        let head = r#"{"event":"straggler","job":"j1","phase":"map","task":1,"slowdown":6,"#;
        assert_eq!(straggler(Some(true)).to_json(), format!(r#"{head}"backup_won":true}}"#));
        assert_eq!(straggler(Some(false)).to_json(), format!(r#"{head}"backup_won":false}}"#));
        assert_eq!(straggler(None).to_json(), format!(r#"{head}"backup_won":null}}"#));
    }

    #[test]
    fn string_escaping_round_trips_validator() {
        let mut s = String::new();
        escape_json_into("a\"b\\c\nd\te\u{1}", &mut s);
        assert_eq!(s, "a\\\"b\\\\c\\nd\\te\\u0001");
        validate_json(&format!("\"{s}\"")).unwrap();
    }

    #[test]
    fn optional_numbers_and_arrays() {
        let mut o = JsonObject::new();
        o.opt_f64("some", Some(1.5));
        o.opt_f64("none", None);
        o.f64("inf", f64::INFINITY);
        o.f64("nan", f64::NAN);
        o.raw("list", &JsonObject::array(["1".to_string(), "{}".to_string()]));
        o.raw("empty", &JsonObject::array([]));
        let json = o.finish();
        assert_eq!(
            json,
            r#"{"some":1.5,"none":null,"inf":null,"nan":null,"list":[1,{}],"empty":[]}"#
        );
        validate_json(&json).unwrap();
    }

    #[test]
    fn validator_accepts_and_rejects() {
        for good in [
            "{}",
            "[]",
            "null",
            "true",
            "-1.5e-7",
            "0",
            "-0",
            "0.5",
            "10",
            r#"{"a":[1,2,{"b":"c"}],"d":null}"#,
            "  [1, 2]  ",
            r#""ÿ""#,
        ] {
            validate_json(good).unwrap_or_else(|e| panic!("{good}: {e}"));
        }
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\"}",
            "tru",
            "1.2.3",
            "\"unterminated",
            "[1] trailing",
            "01x",
            "01",
            "-01",
            "[00]",
        ] {
            assert!(validate_json(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn memory_sink_buffers_in_order() {
        let sink = MemorySink::new();
        sink.event(&TraceEvent::JobStart { job: "a".into() });
        sink.event(&TraceEvent::JobStart { job: "b".into() });
        let evs = sink.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0], TraceEvent::JobStart { job: "a".into() });
        assert_eq!(sink.take().len(), 2);
        assert!(sink.events().is_empty());
    }

    /// Every event variant over two workflows, with a job before either
    /// (drawn in pid 1) and one job name reused across the workflows (its
    /// task lane resets with the pid).
    fn two_workflows() -> Vec<TraceEvent> {
        let span = |job: &str, phase, records, start, dur| TraceEvent::TaskSpan {
            job: job.into(),
            phase,
            task: 0,
            records,
            bytes: records * 10,
            start,
            dur,
        };
        let job_span = |job: &str, stage, sim_start, sim_end| TraceEvent::JobSpan {
            job: job.into(),
            stage,
            sim_start,
            sim_end,
            startup_seconds: 15.0,
        };
        vec![
            TraceEvent::JobStart { job: "loose".into() },
            TraceEvent::WorkflowStart { label: "wf/\"1\"".into() },
            TraceEvent::StageStart { stage: 0, sim_start: 0.0 },
            TraceEvent::JobStart { job: "j1".into() },
            span("j1", TaskPhase::Map, 5, 15.0, 2.0),
            span("j1", TaskPhase::Reduce, 3, 17.0, 1.0),
            TraceEvent::TaskRetry {
                job: "j1".into(),
                phase: TaskPhase::Map,
                task: 0,
                wasted_attempts: 1,
            },
            TraceEvent::NodeLoss { job: "j1".into(), node: 3, maps_lost: 1 },
            straggler(Some(false)),
            straggler(None),
            TraceEvent::CorruptionDetected { job: "j1".into(), site: "dfs", task: 0 },
            TraceEvent::SortPlan { job: "j1".into(), map_sorted_runs: 2, merge_entries: 8 },
            TraceEvent::JobEnd { stats: job_stats(None) },
            job_span("j1", 0, 0.0, 18.0),
            TraceEvent::StageRetry {
                stage: 0,
                attempt: 1,
                backoff_seconds: 30.0,
                error: "disk \"full\"".into(),
            },
            TraceEvent::StageEnd { stage: 0, sim_end: 18.0 },
            TraceEvent::StageStart { stage: 1, sim_start: 18.0 },
            TraceEvent::JobStart { job: "j2".into() },
            span("j2", TaskPhase::Map, 4, 15.0, 0.5),
            TraceEvent::TaskRetry {
                job: "j2".into(),
                phase: TaskPhase::Reduce,
                task: 2,
                wasted_attempts: 3,
            },
            job_span("j2", 1, 18.0, 33.5),
            TraceEvent::StageEnd { stage: 1, sim_end: 33.5 },
            TraceEvent::WorkflowEnd {
                label: "wf/\"1\"".into(),
                sim_seconds: 33.5,
                succeeded: true,
            },
            TraceEvent::WorkflowStart { label: "wf2".into() },
            TraceEvent::StageStart { stage: 0, sim_start: 0.0 },
            TraceEvent::JobStart { job: "j1".into() },
            span("j1", TaskPhase::Map, 1, 15.0, 0.25),
            job_span("j1", 0, 0.0, 15.25),
            TraceEvent::StageEnd { stage: 0, sim_end: 15.25 },
            TraceEvent::WorkflowEnd { label: "wf2".into(), sim_seconds: 15.25, succeeded: false },
        ]
    }

    /// The Chrome document of [`two_workflows`], byte for byte: pids count
    /// from 2 per workflow (pid 1 holds what ran outside any), task lanes
    /// from 8 per workflow in order of first mention, task spans and fault
    /// instants sit at the current stage's base, and `SortPlan`/`JobEnd`
    /// draw nothing.
    const TWO_WORKFLOWS_CHROME: &str = r#"{"displayTimeUnit":"ms","traceEvents":[
{"ph":"M","pid":1,"tid":8,"name":"thread_name","args":{"name":"tasks:loose"}},
{"ph":"M","pid":2,"name":"process_name","args":{"name":"wf/\"1\""}},
{"ph":"M","pid":2,"tid":0,"name":"thread_name","args":{"name":"workflow"}},
{"ph":"M","pid":2,"tid":1,"name":"thread_name","args":{"name":"jobs"}},
{"ph":"M","pid":2,"tid":8,"name":"thread_name","args":{"name":"tasks:j1"}},
{"ph":"X","pid":2,"tid":8,"name":"map 0","ts":15000000,"dur":2000000,"args":{"records":5,"bytes":50}},
{"ph":"X","pid":2,"tid":8,"name":"reduce 0","ts":17000000,"dur":1000000,"args":{"records":3,"bytes":30}},
{"ph":"i","pid":2,"tid":8,"name":"retry map 0","ts":0,"s":"t","args":{"wasted_attempts":1}},
{"ph":"i","pid":2,"tid":8,"name":"node 3 lost","ts":0,"s":"t","args":{"maps_lost":1}},
{"ph":"i","pid":2,"tid":8,"name":"straggler map 1","ts":0,"s":"t","args":{"slowdown":6}},
{"ph":"i","pid":2,"tid":8,"name":"speculative map 1","ts":0,"s":"t","args":{"backup_won":false}},
{"ph":"i","pid":2,"tid":8,"name":"straggler map 1","ts":0,"s":"t","args":{"slowdown":6}},
{"ph":"i","pid":2,"tid":8,"name":"corrupt dfs 0","ts":0,"s":"t","args":{}},
{"ph":"i","pid":2,"tid":8,"name":"refetch dfs 0","ts":0,"s":"t","args":{}},
{"ph":"X","pid":2,"tid":1,"name":"j1","ts":0,"dur":18000000,"args":{"startup_seconds":15}},
{"ph":"i","pid":2,"tid":1,"name":"stage 0 retry","ts":0,"s":"t","args":{"attempt":1,"backoff_seconds":30,"error":"disk \"full\""}},
{"ph":"M","pid":2,"tid":9,"name":"thread_name","args":{"name":"tasks:j2"}},
{"ph":"X","pid":2,"tid":9,"name":"map 0","ts":33000000,"dur":500000,"args":{"records":4,"bytes":40}},
{"ph":"i","pid":2,"tid":9,"name":"retry reduce 2","ts":18000000,"s":"t","args":{"wasted_attempts":3}},
{"ph":"X","pid":2,"tid":1,"name":"j2","ts":18000000,"dur":15500000,"args":{"startup_seconds":15}},
{"ph":"X","pid":2,"tid":0,"name":"wf/\"1\"","ts":0,"dur":33500000,"args":{"succeeded":true}},
{"ph":"M","pid":3,"name":"process_name","args":{"name":"wf2"}},
{"ph":"M","pid":3,"tid":0,"name":"thread_name","args":{"name":"workflow"}},
{"ph":"M","pid":3,"tid":1,"name":"thread_name","args":{"name":"jobs"}},
{"ph":"M","pid":3,"tid":8,"name":"thread_name","args":{"name":"tasks:j1"}},
{"ph":"X","pid":3,"tid":8,"name":"map 0","ts":15000000,"dur":250000,"args":{"records":1,"bytes":10}},
{"ph":"X","pid":3,"tid":1,"name":"j1","ts":0,"dur":15250000,"args":{"startup_seconds":15}},
{"ph":"X","pid":3,"tid":0,"name":"wf2","ts":0,"dur":15250000,"args":{"succeeded":false}}
]}
"#;

    #[test]
    fn chrome_rendering_is_golden() {
        let chrome = render_chrome(&two_workflows());
        assert_eq!(chrome, TWO_WORKFLOWS_CHROME);
        validate_json(&chrome).unwrap();
    }

    #[test]
    fn chrome_rendering_of_no_events_is_a_valid_document() {
        let chrome = render_chrome(&[]);
        assert_eq!(chrome, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n]}\n");
        validate_json(&chrome).unwrap();
    }

    #[test]
    fn jsonl_rendering_is_one_parseable_line_per_event() {
        let events = two_workflows();
        let jsonl = render_jsonl(&events);
        assert!(jsonl.ends_with('\n'));
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), events.len());
        for (line, ev) in lines.iter().zip(&events) {
            assert_eq!(*line, ev.to_json());
            validate_json(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        assert_eq!(render_jsonl(&[]), "");
    }
}
