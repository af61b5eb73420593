//! # ntga-bench — benchmark harness for the paper's figures
//!
//! One binary per figure/table of the paper's evaluation section
//! (`cargo run -p ntga-bench --release --bin fig<N>`), plus Criterion
//! micro-benchmarks for the core operators (`cargo bench`).
//!
//! The nine paper figures are values ([`figure::Figure`]): panels of a
//! dataset, a cluster, queries and approaches, each with the claims the
//! paper makes about its table. One runner prints every table — per
//! (query, approach) the MR-cycle count, full scans, HDFS read/write bytes,
//! shuffle bytes, simulated seconds and OK/FAILED status — and checks every
//! claim; a claim that does not hold exits 1 with its words. Absolute values
//! differ from the paper (simulated substrate, scaled-down datasets); the
//! *shape* — who wins, by what factor, who dies of DiskFull — is what the
//! claims state, and `EXPERIMENTS.md` is rendered from them.
//!
//! Scale is controlled by the `NTGA_SCALE` environment variable:
//! `small` (default; seconds per figure), `medium`, or `large`; any other
//! value exits 2.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod figure;
pub mod report;

use mrsim::trace::{render_chrome, render_jsonl, JsonObject};
use mrsim::{MemorySink, TraceEvent};
use rdf_model::TripleStore;
use rdf_query::Query;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Shared command-line options of every figure binary:
///
/// * `--trace <path>` — record every engine event of the run and render it
///   twice: a Chrome trace-event file (loadable in `chrome://tracing` /
///   Perfetto) at `<path>` and a JSONL event log at `<path>` with the
///   extension replaced by `.jsonl`, both on the simulated timeline. Both
///   files are created when the flags are parsed, so a path that cannot be
///   written is refused before anything runs;
/// * `--json <path>` — write the report rows as a JSON array;
/// * `--profile <path>` — run EXPLAIN ANALYZE for the figure's queries
///   (cost-based plan executed on a fresh engine, its `JobStats` joined
///   against the plan's estimates) and write the profile documents as a
///   JSON array at `<path>`, printing the annotated plan trees to stdout.
///
/// With no flags, tracing stays disabled and costs nothing, and no
/// EXPLAIN ANALYZE run is made.
#[derive(Default)]
pub struct BenchOpts {
    /// Chrome trace output path (`--trace`).
    pub trace: Option<PathBuf>,
    /// Report-row JSON output path (`--json`).
    pub json: Option<PathBuf>,
    /// EXPLAIN ANALYZE JSON output path (`--profile`).
    pub profile: Option<PathBuf>,
    /// The one recording behind both trace files, with `--trace`.
    sink: Option<Arc<MemorySink>>,
    /// Set once the trace files are written; until then, dropping the
    /// options writes them.
    traced: AtomicBool,
}

impl BenchOpts {
    /// Read the flags from an argument list (program name already
    /// stripped), touching no file.
    fn flags(args: impl IntoIterator<Item = String>) -> Result<BenchOpts, String> {
        let mut opts = BenchOpts::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let slot = match arg.as_str() {
                "--trace" => &mut opts.trace,
                "--json" => &mut opts.json,
                "--profile" => &mut opts.profile,
                other => {
                    return Err(format!(
                        "unknown argument `{other}` (expected --trace <path>, --json <path> \
                         and/or --profile <path>)"
                    ))
                }
            };
            *slot = Some(it.next().map(PathBuf::from).ok_or(format!("{arg} requires a path"))?);
        }
        Ok(opts)
    }

    /// With `--trace`, create both trace files and start recording.
    fn open_trace(&mut self) -> Result<(), String> {
        if let Some(path) = &self.trace {
            write_trace_files(path, &[])?;
            self.sink = Some(MemorySink::new());
        }
        Ok(())
    }

    /// Parse the process arguments; on an error, print it and exit 2, with
    /// the usage line when the flags themselves are wrong.
    pub fn from_env() -> BenchOpts {
        let exit = |e: String, usage: bool| -> ! {
            eprintln!("error: {e}");
            if usage {
                eprintln!("usage: fig<N> [--trace <path>] [--json <path>] [--profile <path>]");
            }
            std::process::exit(2)
        };
        let mut opts = BenchOpts::flags(std::env::args().skip(1)).unwrap_or_else(|e| exit(e, true));
        opts.open_trace().unwrap_or_else(|e| exit(e, false));
        opts
    }

    /// Attach the trace sink (if any) to a cluster config.
    pub fn cluster(&self, mut cluster: ntga::ClusterConfig) -> ntga::ClusterConfig {
        if let Some(sink) = &self.sink {
            cluster.trace = Some(sink.clone());
        }
        cluster
    }

    /// Write the flags' outputs: first the `--profile` EXPLAIN ANALYZE of
    /// `queries` (each optimized under `cluster`'s cost model, executed on
    /// a fresh engine and joined plan-vs-actual; the annotated trees go to
    /// stdout, the JSON array to the path), then the `--json` rows, then
    /// the two trace files. Each output is written even when an earlier
    /// one failed; every error is returned, joined, for the caller to exit
    /// on. Call once, after the figure's tables are printed.
    pub fn finish(
        &self,
        cluster: &ntga::ClusterConfig,
        store: &TripleStore,
        queries: &[(String, Query)],
        rows: &[report::Row],
    ) -> Result<(), String> {
        all_ok([
            self.write_profile(cluster, store, queries),
            self.write_rows(rows),
            self.write_trace(),
        ])
    }

    /// Render the recording into both trace files, once.
    fn write_trace(&self) -> Result<(), String> {
        let (Some(sink), Some(path)) = (&self.sink, &self.trace) else { return Ok(()) };
        if self.traced.swap(true, Ordering::SeqCst) {
            return Ok(());
        }
        write_trace_files(path, &sink.take())?;
        let log = path.with_extension("jsonl");
        println!("wrote Chrome trace to {} and event log to {}", path.display(), log.display());
        Ok(())
    }

    fn write_profile(
        &self,
        cluster: &ntga::ClusterConfig,
        store: &TripleStore,
        queries: &[(String, Query)],
    ) -> Result<(), String> {
        let Some(path) = &self.profile else { return Ok(()) };
        let profiles = profile_queries(cluster, store, queries)?;
        for profile in &profiles {
            print!("{}", profile.render());
        }
        let payload = JsonObject::array(profiles.iter().map(ntga_core::Profile::to_json));
        std::fs::write(path, payload).map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("wrote {} EXPLAIN ANALYZE profiles to {}", profiles.len(), path.display());
        Ok(())
    }

    fn write_rows(&self, rows: &[report::Row]) -> Result<(), String> {
        let Some(path) = &self.json else { return Ok(()) };
        std::fs::write(path, report::rows_json(rows))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("wrote {} report rows to {}", rows.len(), path.display());
        Ok(())
    }
}

/// Optimize each query under the cluster's cost model, execute the plan on
/// a fresh engine, and join it against the measured run's `JobStats` — the
/// engine behind the `--profile` flag and the `fig_profile` exhibit.
pub fn profile_queries(
    cluster: &ntga::ClusterConfig,
    store: &TripleStore,
    queries: &[(String, Query)],
) -> Result<Vec<ntga_core::Profile>, String> {
    queries
        .iter()
        .map(|(qid, query)| {
            let engine = cluster.engine_with(store);
            let plan = ntga::Approach::NtgaAutoCost
                .plan(query, &engine)
                .map_err(|e| format!("{qid}: planning failed: {e}"))?;
            let run = ntga_core::execute_plan(&plan, &engine, mr_rdf::TRIPLES_FILE, qid, false)
                .map_err(|e| format!("{qid}: execution failed: {e}"))?;
            if !run.succeeded() {
                return Err(format!(
                    "{qid}: analyzed run failed: {}",
                    run.stats.failure.as_deref().unwrap_or("unknown")
                ));
            }
            ntga_core::explain_analyze(&plan, &run.stats)
                .map_err(|e| format!("{qid}: profile join failed: {e}"))
        })
        .collect()
}

/// A figure that ends without [`BenchOpts::finish`] (a panic unwinding
/// through `main`) still leaves both trace files, holding what was recorded.
impl Drop for BenchOpts {
    fn drop(&mut self) {
        if let Err(e) = self.write_trace() {
            eprintln!("error: {e}");
        }
    }
}

/// Write the Chrome rendering of `events` at `path` and the JSONL rendering
/// beside it, both attempted; each error names the file it could not write.
fn write_trace_files(path: &Path, events: &[TraceEvent]) -> Result<(), String> {
    let log = path.with_extension("jsonl");
    all_ok([(path, render_chrome(events)), (&log, render_jsonl(events))].map(|(file, text)| {
        std::fs::write(file, text)
            .map_err(|e| format!("writing trace file {}: {e}", file.display()))
    }))
}

/// `Ok` when every result is; else every error, joined.
fn all_ok(results: impl IntoIterator<Item = Result<(), String>>) -> Result<(), String> {
    let errors: Vec<String> = results.into_iter().filter_map(Result::err).collect();
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors.join("; "))
    }
}

/// Benchmark scale, from `NTGA_SCALE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds per figure; CI-friendly.
    Small,
    /// Tens of seconds.
    Medium,
    /// Minutes; closest to the paper's relative regimes.
    Large,
}

impl Scale {
    /// Read the scale from `NTGA_SCALE` (default `small`). Any other value
    /// exits 2 and names the accepted ones, as a bad flag does.
    pub fn from_env() -> Scale {
        let value = std::env::var_os("NTGA_SCALE").map(|v| v.to_string_lossy().into_owned());
        Scale::parse(value.as_deref()).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        })
    }

    /// The scale an `NTGA_SCALE` value names; `None` is unset.
    fn parse(value: Option<&str>) -> Result<Scale, String> {
        match value {
            None | Some("small") => Ok(Scale::Small),
            Some("medium") => Ok(Scale::Medium),
            Some("large") => Ok(Scale::Large),
            Some(other) => Err(format!("NTGA_SCALE={other:?}: expected small, medium or large")),
        }
    }

    /// Multiply a base entity count by the scale.
    pub fn entities(self, small: usize) -> usize {
        match self {
            Scale::Small => small,
            Scale::Medium => small * 4,
            Scale::Large => small * 16,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntga::Approach;

    /// What `from_env` makes of an argument list, errors returned.
    fn parse(args: impl IntoIterator<Item = String>) -> Result<BenchOpts, String> {
        let mut opts = BenchOpts::flags(args)?;
        opts.open_trace()?;
        Ok(opts)
    }

    #[test]
    fn scale_parses_three_names_and_refuses_the_rest() {
        assert_eq!(Scale::parse(None), Ok(Scale::Small));
        assert_eq!(Scale::parse(Some("small")), Ok(Scale::Small));
        assert_eq!(Scale::parse(Some("medium")), Ok(Scale::Medium));
        assert_eq!(Scale::parse(Some("large")), Ok(Scale::Large));
        for typo in ["Large", "larg", "", " small", "\u{fffd}"] {
            let err = Scale::parse(Some(typo)).unwrap_err();
            assert!(err.contains(&format!("{typo:?}")), "{err}");
            assert!(err.contains("expected small, medium or large"), "{err}");
        }
    }

    #[test]
    fn scale_entities() {
        assert_eq!(Scale::Small.entities(10), 10);
        assert_eq!(Scale::Medium.entities(10), 40);
        assert_eq!(Scale::Large.entities(10), 160);
    }

    #[test]
    fn bench_opts_parse() {
        let opts = parse(Vec::new()).unwrap();
        assert!(opts.trace.is_none() && opts.json.is_none() && opts.sink.is_none());

        let dir = std::env::temp_dir();
        let trace = dir.join(format!("bench-opts-{}.trace.json", std::process::id()));
        let json = dir.join(format!("bench-opts-{}.rows.json", std::process::id()));
        let opts = parse(
            ["--trace", trace.to_str().unwrap(), "--json", json.to_str().unwrap()]
                .map(String::from),
        )
        .unwrap();
        assert_eq!(opts.trace.as_deref(), Some(trace.as_path()));
        assert!(opts.sink.is_some());
        // The traced cluster config carries the sink.
        let cluster = opts.cluster(ntga::ClusterConfig::default());
        assert!(cluster.trace.is_some());
        let store = TripleStore::default();
        opts.finish(&cluster, &store, &[], &[]).unwrap();
        assert_eq!(std::fs::read_to_string(&json).unwrap(), "[]");
        for p in [&json, &trace, &trace.with_extension("jsonl")] {
            let _ = std::fs::remove_file(p);
        }

        assert!(parse(["--trace".to_string()]).is_err());
        assert!(parse(["--profile".to_string()]).is_err());
        assert!(parse(["--bogus".to_string()]).is_err());
    }

    #[test]
    fn a_failed_json_write_still_finishes_the_trace() {
        let store = datagen::bsbm::generate(&datagen::BsbmConfig::with_products(20));
        let q =
            rdf_query::parse_query("SELECT * WHERE { ?p <rdfs:label> ?l . ?p ?u ?x . }").unwrap();
        let dir = std::env::temp_dir();
        let trace = dir.join(format!("bench-failed-{}.trace.json", std::process::id()));
        let json = dir.join(format!("bench-no-such-dir-{}", std::process::id())).join("rows.json");
        let opts = parse(
            ["--trace", trace.to_str().unwrap(), "--json", json.to_str().unwrap()]
                .map(String::from),
        )
        .unwrap();
        let cluster = opts.cluster(ntga::ClusterConfig::default());
        let run = figure::run_cell(&cluster, &store, &q, Approach::NtgaLazyFull, "traced").unwrap();
        assert!(run.succeeded());
        let err = opts.finish(&cluster, &store, &[], &[]).unwrap_err();
        assert!(err.contains("rows.json"), "{err}");

        let log = std::fs::read_to_string(trace.with_extension("jsonl")).unwrap();
        for line in log.lines() {
            mrsim::trace::validate_json(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        let last = log.lines().last().unwrap();
        assert!(last.starts_with(r#"{"event":"workflow_end","#), "{last}");
        assert!(last.contains(r#"/traced","#), "{last}");
        let chrome = std::fs::read_to_string(&trace).unwrap();
        mrsim::trace::validate_json(&chrome).unwrap_or_else(|e| panic!("{e}\n{chrome}"));
        assert!(chrome.contains(r#"/traced","ts":0"#), "the workflow span is in the file");
        for p in [&trace, &trace.with_extension("jsonl")] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn an_unwritable_trace_path_is_refused_by_parse() {
        let dir = std::env::temp_dir().join(format!("bench-trace-dir-{}.json", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let err = parse(["--trace", dir.to_str().unwrap()].map(String::from))
            .err()
            .expect("a directory is not a trace file");
        let _ = std::fs::remove_file(dir.with_extension("jsonl"));
        let _ = std::fs::remove_dir(&dir);
        assert!(err.contains(dir.to_str().unwrap()), "{err}");
    }

    #[test]
    fn a_failed_trace_write_still_writes_every_other_output() {
        let dir = std::env::temp_dir();
        let trace = dir.join(format!("bench-trace-gone-{}.trace.json", std::process::id()));
        let json = dir.join(format!("bench-trace-gone-{}.rows.json", std::process::id()));
        let opts = parse(
            ["--trace", trace.to_str().unwrap(), "--json", json.to_str().unwrap()]
                .map(String::from),
        )
        .unwrap();
        // The Chrome file's place is taken after parse created it.
        std::fs::remove_file(&trace).unwrap();
        std::fs::create_dir(&trace).unwrap();
        let cluster = opts.cluster(ntga::ClusterConfig::default());
        cluster.trace.as_ref().unwrap().event(&TraceEvent::JobStart { job: "j".into() });
        let err = opts.finish(&cluster, &TripleStore::default(), &[], &[]).unwrap_err();
        let rows = std::fs::read_to_string(&json);
        let log = std::fs::read_to_string(trace.with_extension("jsonl"));
        for p in [&json, &trace.with_extension("jsonl")] {
            let _ = std::fs::remove_file(p);
        }
        let _ = std::fs::remove_dir(&trace);
        assert!(err.contains(trace.to_str().unwrap()), "{err}");
        assert_eq!(rows.unwrap(), "[]");
        assert_eq!(log.unwrap(), "{\"event\":\"job_start\",\"job\":\"j\"}\n");
    }

    #[test]
    fn dropping_unfinished_options_writes_the_trace() {
        let trace = std::env::temp_dir()
            .join(format!("bench-trace-drop-{}.trace.json", std::process::id()));
        {
            let opts = parse(["--trace", trace.to_str().unwrap()].map(String::from)).unwrap();
            let sink = opts.cluster(ntga::ClusterConfig::default()).trace.unwrap();
            sink.event(&TraceEvent::JobStart { job: "j".into() });
        }
        let chrome = std::fs::read_to_string(&trace).unwrap();
        let log = std::fs::read_to_string(trace.with_extension("jsonl")).unwrap();
        for p in [&trace, &trace.with_extension("jsonl")] {
            let _ = std::fs::remove_file(p);
        }
        mrsim::trace::validate_json(&chrome).unwrap_or_else(|e| panic!("{e}\n{chrome}"));
        assert!(chrome.contains(r#""args":{"name":"tasks:j"}"#), "{chrome}");
        assert_eq!(log, "{\"event\":\"job_start\",\"job\":\"j\"}\n");
    }

    #[test]
    fn profile_flag_writes_explain_analyze() {
        let store = datagen::bsbm::generate(&datagen::BsbmConfig::with_products(20));
        let q = rdf_query::parse_query(
            "SELECT * WHERE { ?p <rdfs:label> ?l . ?p ?u ?x . ?x <rdfs:label> ?l2 . }",
        )
        .unwrap();
        let queries = vec![("B1ish".to_string(), q)];
        let path = std::env::temp_dir().join(format!("bench-profile-{}.json", std::process::id()));
        let opts = parse(["--profile", path.to_str().unwrap()].map(String::from)).unwrap();
        assert_eq!(opts.profile.as_deref(), Some(path.as_path()));
        let cluster = ntga::ClusterConfig::default();
        opts.finish(&cluster, &store, &queries, &[]).unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        mrsim::trace::validate_json(&json).unwrap_or_else(|e| panic!("{json}: {e}"));
        assert!(json.contains("\"operators\":["), "{json}");
        assert!(json.contains("TG_GroupFilter"), "{json}");
        assert!(json.contains("\"reconciliation\":"), "{json}");

        // Without the flag, no profile is run or written.
        let opts = parse(Vec::new()).unwrap();
        opts.finish(&cluster, &store, &queries, &[]).unwrap();
        assert!(!path.exists());

        // The library entry point returns the same profiles directly.
        let profiles = profile_queries(&cluster, &store, &queries).unwrap();
        assert_eq!(profiles.len(), 1);
        assert!(json.contains(&profiles[0].to_json()), "{json}");
    }
}
