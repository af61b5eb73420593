//! Wall-clock span tree per op, rebuilt from outside the program: the
//! harness owns a [`TraceSink`] that stamps each event with its arrival
//! time, and [`reconstruct`] turns one `run_query` call's stamps into
//! spans. Nothing inside the workspace measures time.
//!
//! ```text
//! query (call .. return)
//! ├─ plan      call .. first WorkflowStart
//! ├─ workflow  WorkflowStart .. WorkflowEnd     self time = driver
//! │  └─ job    JobStart .. JobEnd, by job-name suffix
//! │     ├─ map side     JobStart .. SortPlan (whole job when map-only)
//! │     └─ reduce side  SortPlan .. JobEnd
//! └─ extract   last WorkflowEnd .. return
//! ```
//!
//! A job attempt that fails never emits `JobEnd`; it is closed by the next
//! `StageRetry`, `JobStart` or `WorkflowEnd` and charged to its job kind,
//! so recovery work shows up in the layer that redid it.

use mrsim::{TraceEvent, TraceSink};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// The events the span tree is built from; every other event is dropped
/// at the sink.
#[derive(Debug, Clone, PartialEq)]
pub enum Mark {
    WorkflowStart,
    JobStart(String),
    SortPlan { map_sorted_runs: u64, merge_entries: u64 },
    JobEnd,
    StageRetry,
    WorkflowEnd,
}

/// A [`TraceSink`] that stamps span-boundary events with milliseconds
/// since `epoch`.
pub struct WallSink {
    epoch: Instant,
    stamps: Mutex<Vec<(f64, Mark)>>,
}

impl WallSink {
    pub fn new(epoch: Instant) -> Self {
        WallSink { epoch, stamps: Mutex::new(Vec::new()) }
    }

    /// Take every stamp recorded since the last drain.
    pub fn drain(&self) -> Vec<(f64, Mark)> {
        std::mem::take(&mut *self.stamps.lock().expect("no thread panics holding the stamps"))
    }
}

impl TraceSink for WallSink {
    fn event(&self, ev: &TraceEvent) {
        let mark = match ev {
            TraceEvent::WorkflowStart { .. } => Mark::WorkflowStart,
            TraceEvent::JobStart { job } => Mark::JobStart(job.clone()),
            TraceEvent::SortPlan { map_sorted_runs, merge_entries, .. } => {
                Mark::SortPlan { map_sorted_runs: *map_sorted_runs, merge_entries: *merge_entries }
            }
            TraceEvent::JobEnd { .. } => Mark::JobEnd,
            TraceEvent::StageRetry { .. } => Mark::StageRetry,
            TraceEvent::WorkflowEnd { .. } => Mark::WorkflowEnd,
            _ => return,
        };
        let at = ms_since(self.epoch);
        self.stamps.lock().expect("no thread panics holding the stamps").push((at, mark));
    }
}

/// Milliseconds elapsed since `epoch`.
pub fn ms_since(epoch: Instant) -> f64 {
    epoch.elapsed().as_secs_f64() * 1e3
}

/// Layer prefix of a job, from the suffix the planners give its name
/// (`<label>.tgjoin0` → `ntga-core.tgjoin`).
pub fn job_layer(job: &str) -> Result<&'static str, String> {
    let suffix =
        job.rsplit('.').next().unwrap_or(job).trim_end_matches(|c: char| c.is_ascii_digit());
    match suffix {
        "group" => Ok("ntga-core.group"),
        "tgjoin" => Ok("ntga-core.tgjoin"),
        "star" => Ok("relbase.star"),
        "join" => Ok("relbase.join"),
        "load" => Ok("relbase.load"),
        _ => Err(format!("job `{job}` has no layer metric; add its suffix to spans::job_layer")),
    }
}

/// Spans of one `run_query` call, in milliseconds.
#[derive(Debug, Default, PartialEq)]
pub struct OpSpans {
    pub query_ms: f64,
    pub plan_ms: f64,
    pub workflow_ms: f64,
    pub extract_ms: f64,
    /// Workflow self time: workflow minus its jobs.
    pub driver_ms: f64,
    /// Query self time: what plan, workflows and extract do not cover.
    pub query_self_ms: f64,
    /// `(map side, reduce side)` per job layer.
    pub jobs: BTreeMap<&'static str, (f64, f64)>,
    pub map_sorted_runs: u64,
    pub merge_entries: u64,
}

struct OpenJob {
    layer: &'static str,
    start: f64,
    sort_plan: Option<f64>,
}

/// Build the span tree of one op from the harness's own `call`/`ret`
/// clock readings and the stamps that arrived between them.
pub fn reconstruct(call: f64, ret: f64, stamps: &[(f64, Mark)]) -> Result<OpSpans, String> {
    let mut spans = OpSpans { query_ms: ret - call, ..OpSpans::default() };
    let mut last = call;
    let mut workflow_start: Option<f64> = None;
    let mut first_start: Option<f64> = None;
    let mut last_end: Option<f64> = None;
    let mut jobs_ms = 0.0;
    let mut open: Option<OpenJob> = None;

    let close = |job: OpenJob, at: f64, spans: &mut OpSpans, jobs_ms: &mut f64| {
        let split = job.sort_plan.unwrap_or(at);
        let entry = spans.jobs.entry(job.layer).or_default();
        entry.0 += split - job.start;
        entry.1 += at - split;
        *jobs_ms += at - job.start;
    };

    for (at, mark) in stamps {
        let at = *at;
        if at < last || at > ret {
            return Err(format!("{mark:?} stamped at {at} outside {last}..{ret}"));
        }
        last = at;
        if workflow_start.is_none() && *mark != Mark::WorkflowStart {
            return Err(format!("{mark:?} outside a workflow"));
        }
        match mark {
            Mark::WorkflowStart => {
                if workflow_start.is_some() {
                    return Err("nested WorkflowStart".into());
                }
                workflow_start = Some(at);
                first_start.get_or_insert(at);
            }
            Mark::JobStart(name) => {
                if let Some(failed) = open.take() {
                    close(failed, at, &mut spans, &mut jobs_ms);
                }
                open = Some(OpenJob { layer: job_layer(name)?, start: at, sort_plan: None });
            }
            Mark::SortPlan { map_sorted_runs, merge_entries } => {
                let job = open.as_mut().ok_or("SortPlan outside a job")?;
                job.sort_plan = Some(at);
                spans.map_sorted_runs += map_sorted_runs;
                spans.merge_entries += merge_entries;
            }
            Mark::JobEnd => {
                let job = open.take().ok_or("JobEnd without JobStart")?;
                close(job, at, &mut spans, &mut jobs_ms);
            }
            Mark::StageRetry => {
                if let Some(failed) = open.take() {
                    close(failed, at, &mut spans, &mut jobs_ms);
                }
            }
            Mark::WorkflowEnd => {
                if let Some(failed) = open.take() {
                    close(failed, at, &mut spans, &mut jobs_ms);
                }
                let start = workflow_start.take().expect("checked above");
                spans.workflow_ms += at - start;
                last_end = Some(at);
            }
        }
    }
    if workflow_start.is_some() {
        return Err("workflow never ended".into());
    }
    let (Some(first_start), Some(last_end)) = (first_start, last_end) else {
        return Err("no workflow ran".into());
    };
    spans.plan_ms = first_start - call;
    spans.extract_ms = ret - last_end;
    spans.driver_ms = spans.workflow_ms - jobs_ms;
    spans.query_self_ms = spans.query_ms - spans.plan_ms - spans.workflow_ms - spans.extract_ms;
    Ok(spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(job: &str) -> Mark {
        Mark::JobStart(job.into())
    }
    const SORT: Mark = Mark::SortPlan { map_sorted_runs: 3, merge_entries: 40 };

    fn assert_no_negative_self(s: &OpSpans) {
        assert!(s.driver_ms >= 0.0 && s.query_self_ms >= -1e-9, "{s:?}");
        assert!(s.jobs.values().all(|&(m, r)| m >= 0.0 && r >= 0.0), "{s:?}");
    }

    #[test]
    fn map_reduce_and_map_only_jobs() {
        let stamps = [
            (2.0, Mark::WorkflowStart),
            (3.0, start("Pig-B1.load")),
            (5.0, Mark::JobEnd),
            (5.5, start("Pig-B1.star0")),
            (7.5, SORT),
            (10.5, Mark::JobEnd),
            (11.0, Mark::WorkflowEnd),
        ];
        let s = reconstruct(1.0, 14.0, &stamps).unwrap();
        assert_eq!(s.query_ms, 13.0);
        assert_eq!(s.plan_ms, 1.0);
        assert_eq!(s.workflow_ms, 9.0);
        assert_eq!(s.extract_ms, 3.0);
        // A map-only job has no SortPlan: all of it is map side.
        assert_eq!(s.jobs["relbase.load"], (2.0, 0.0));
        assert_eq!(s.jobs["relbase.star"], (2.0, 3.0));
        assert_eq!(s.driver_ms, 2.0);
        assert_eq!(s.query_self_ms, 0.0);
        assert_eq!((s.map_sorted_runs, s.merge_entries), (3, 40));
        assert_no_negative_self(&s);
    }

    #[test]
    fn failed_job_is_closed_by_the_workflow_end() {
        let stamps = [
            (0.0, Mark::WorkflowStart),
            (1.0, start("Hive-B1.star0")),
            (2.0, SORT),
            (4.0, Mark::WorkflowEnd),
        ];
        let s = reconstruct(0.0, 4.0, &stamps).unwrap();
        assert_eq!(s.jobs["relbase.star"], (1.0, 2.0));
        assert_eq!(s.driver_ms, 1.0);
        assert_no_negative_self(&s);
    }

    #[test]
    fn stage_retry_reruns_the_same_job_name() {
        let stamps = [
            (0.0, Mark::WorkflowStart),
            (1.0, start("x.tgjoin0")),
            (3.0, Mark::StageRetry),
            (3.5, start("x.tgjoin0")),
            (4.5, SORT),
            (6.5, Mark::JobEnd),
            (7.0, Mark::WorkflowEnd),
        ];
        let s = reconstruct(0.0, 7.0, &stamps).unwrap();
        // Failed attempt (2 ms, no SortPlan seen) plus the re-run.
        assert_eq!(s.jobs["ntga-core.tgjoin"], (3.0, 2.0));
        assert_eq!(s.driver_ms, 2.0);
        assert_eq!(s.map_sorted_runs, 3);
        assert_no_negative_self(&s);
    }

    #[test]
    fn time_between_two_workflows_is_query_self_time() {
        let stamps = [
            (1.0, Mark::WorkflowStart),
            (2.0, Mark::WorkflowEnd),
            (5.0, Mark::WorkflowStart),
            (6.0, Mark::WorkflowEnd),
        ];
        let s = reconstruct(0.0, 8.0, &stamps).unwrap();
        assert_eq!((s.plan_ms, s.workflow_ms, s.extract_ms), (1.0, 2.0, 2.0));
        assert_eq!(s.query_self_ms, 3.0);
    }

    #[test]
    fn malformed_sequences_are_errors() {
        assert!(reconstruct(0.0, 1.0, &[]).is_err());
        assert!(reconstruct(0.0, 9.0, &[(1.0, Mark::WorkflowStart)]).is_err());
        assert!(reconstruct(0.0, 9.0, &[(1.0, Mark::JobEnd)]).is_err());
        let backwards = [(2.0, Mark::WorkflowStart), (1.0, Mark::WorkflowEnd)];
        assert!(reconstruct(0.0, 9.0, &backwards).is_err());
        let unknown = [(1.0, Mark::WorkflowStart), (2.0, start("x.mystery7"))];
        assert!(reconstruct(0.0, 9.0, &unknown).unwrap_err().contains("mystery7"));
    }
}
