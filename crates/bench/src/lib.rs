//! # ntga-bench — benchmark harness for the paper's figures
//!
//! One binary per figure/table of the paper's evaluation section
//! (`cargo run -p ntga-bench --release --bin fig<N>`), plus Criterion
//! micro-benchmarks for the core operators (`cargo bench`).
//!
//! The binaries print tables shaped like the paper's exhibits: per (query,
//! approach) the MR-cycle count, full scans, HDFS read/write bytes,
//! shuffle bytes, simulated seconds and OK/FAILED status. Absolute values
//! differ from the paper (simulated substrate, scaled-down datasets); the
//! *shape* — who wins, by what factor, who dies of DiskFull — is the
//! reproduction target recorded in `EXPERIMENTS.md`.
//!
//! Scale is controlled by the `NTGA_SCALE` environment variable:
//! `small` (default; seconds per figure), `medium`, or `large`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod report;

use mr_rdf::QueryRun;
use mrsim::trace::JsonObject;
use mrsim::{ChromeTraceSink, JsonlSink, MultiSink, TraceSink};
use ntga_core::Strategy;
use rdf_model::TripleStore;
use rdf_query::Query;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Shared command-line options of every figure binary:
///
/// * `--trace <path>` — write a Chrome trace-event file (loadable in
///   `chrome://tracing` / Perfetto) at `<path>` plus a JSONL event log at
///   `<path>` with the extension replaced by `.jsonl`, both on the
///   simulated timeline;
/// * `--json <path>` — write the report rows as a JSON array;
/// * `--strategy <name>` — replace the figure's approach panel with a
///   single named approach, in `ntga-cli --approach`'s grammar
///   ([`ntga::Approach::GRAMMAR`]): `auto-cost` (the statistics-driven
///   optimizer), `eager`, `lazy-full`, `lazy-partial:<m>`, `auto:<m>`, …;
/// * `--profile <path>` — run EXPLAIN ANALYZE for the figure's queries
///   (cost-based plan executed on a profiling engine, joined against the
///   measured run) and write the profile documents as a JSON array at
///   `<path>`, printing the annotated plan trees to stdout.
///
/// With no flags, tracing and profiling stay disabled and cost nothing.
pub struct BenchOpts {
    /// Chrome trace output path (`--trace`).
    pub trace: Option<PathBuf>,
    /// Report-row JSON output path (`--json`).
    pub json: Option<PathBuf>,
    /// EXPLAIN ANALYZE JSON output path (`--profile`).
    pub profile: Option<PathBuf>,
    /// Panel override (`--strategy`).
    pub strategy: Option<Runner>,
    sink: Option<Arc<dyn TraceSink>>,
}

impl BenchOpts {
    /// Parse from an argument list (program name already stripped).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<BenchOpts, String> {
        let mut trace = None;
        let mut json = None;
        let mut profile = None;
        let mut strategy = None;
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let mut value = |what| it.next().ok_or_else(|| format!("{arg} requires a {what}"));
            match arg.as_str() {
                "--trace" => trace = Some(PathBuf::from(value("path")?)),
                "--json" => json = Some(PathBuf::from(value("path")?)),
                "--profile" => profile = Some(PathBuf::from(value("path")?)),
                "--strategy" => strategy = Some(value("name")?.parse::<ntga::Approach>()?.into()),
                other => {
                    return Err(format!(
                        "unknown argument `{other}` (expected --trace <path>, --json <path>, \
                         --profile <path> and/or --strategy <name>)"
                    ))
                }
            }
        }
        let sink = match &trace {
            Some(path) => Some(build_trace_sink(path)?),
            None => None,
        };
        Ok(BenchOpts { trace, json, profile, strategy, sink })
    }

    /// Parse the process arguments; print usage and exit on error.
    pub fn from_env() -> BenchOpts {
        BenchOpts::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            eprintln!(
                "usage: fig<N> [--trace <path>] [--json <path>] [--profile <path>] \
                 [--strategy <name>]\n\
                 strategies: {}",
                ntga::Approach::GRAMMAR
            );
            std::process::exit(2);
        })
    }

    /// The figure's approach panel: the `--strategy` override when given,
    /// otherwise `default`.
    pub fn panel_or(&self, default: Vec<Runner>) -> Vec<Runner> {
        match self.strategy {
            Some(runner) => vec![runner],
            None => default,
        }
    }

    /// Attach the trace sink (if any) to a cluster config.
    pub fn cluster(&self, mut cluster: ntga::ClusterConfig) -> ntga::ClusterConfig {
        if let Some(sink) = &self.sink {
            cluster.trace = Some(sink.clone());
        }
        cluster
    }

    /// Write the `--json` rows file (if requested) and flush the trace
    /// sinks. Call once, after the figure's tables are printed.
    pub fn finish(&self, rows: &[report::Row]) {
        if let Some(path) = &self.json {
            let payload = report::rows_json(rows);
            if let Err(e) = std::fs::write(path, payload) {
                eprintln!("error: writing {}: {e}", path.display());
                std::process::exit(1);
            }
            println!("wrote {} report rows to {}", rows.len(), path.display());
        }
        if let Some(sink) = &self.sink {
            sink.finish();
            let trace = self.trace.as_ref().expect("sink implies --trace");
            println!(
                "wrote Chrome trace to {} and event log to {}",
                trace.display(),
                trace.with_extension("jsonl").display()
            );
        }
    }

    /// Run EXPLAIN ANALYZE for the figure's queries and write the
    /// `--profile` JSON array (if requested). Each query is optimized under
    /// the cluster's cost model, executed on a fresh profiling engine, and
    /// joined plan-vs-actual; the annotated trees go to stdout and the
    /// stable JSON documents to the `--profile` path. No-op without the
    /// flag. Call once, after the figure's tables are printed.
    pub fn write_profile(
        &self,
        cluster: &ntga::ClusterConfig,
        store: &TripleStore,
        queries: &[(String, Query)],
    ) {
        let Some(path) = &self.profile else { return };
        let profiles = profile_queries(cluster, store, queries).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1);
        });
        for profile in &profiles {
            print!("{}", profile.render());
        }
        let payload = JsonObject::array(profiles.iter().map(ntga_core::Profile::to_json));
        if let Err(e) = std::fs::write(path, payload) {
            eprintln!("error: writing {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("wrote {} EXPLAIN ANALYZE profiles to {}", profiles.len(), path.display());
    }
}

/// Optimize each query under the cluster's cost model, execute the plan on
/// a fresh profiling engine, and join it against the measured run — the
/// engine behind the `--profile` flag and the `fig_profile` exhibit.
pub fn profile_queries(
    cluster: &ntga::ClusterConfig,
    store: &TripleStore,
    queries: &[(String, Query)],
) -> Result<Vec<ntga_core::Profile>, String> {
    let stats = store.stats();
    let cluster = cluster.clone().with_profiling(true);
    queries
        .iter()
        .map(|(qid, query)| {
            let engine = cluster.engine_with(store);
            let config = ntga_core::OptimizerConfig::for_engine(&engine);
            let plan = ntga_core::optimize(query, &stats, &engine.cost, &config)
                .map_err(|e| format!("{qid}: planning failed: {e}"))?;
            let (run, stars) =
                ntga_core::execute_plan(&plan, &engine, query, mr_rdf::TRIPLES_FILE, qid, false)
                    .map_err(|e| format!("{qid}: execution failed: {e}"))?;
            if !run.succeeded() {
                return Err(format!(
                    "{qid}: profiled run failed: {}",
                    run.stats.failure.as_deref().unwrap_or("unknown")
                ));
            }
            ntga_core::explain_analyze(&plan, &run.stats, &stars)
                .map_err(|e| format!("{qid}: profile join failed: {e}"))
        })
        .collect()
}

fn build_trace_sink(path: &Path) -> Result<Arc<dyn TraceSink>, String> {
    let jsonl = JsonlSink::create(path.with_extension("jsonl"))
        .map_err(|e| format!("cannot create JSONL event log: {e}"))?;
    Ok(Arc::new(MultiSink::new(vec![Arc::new(jsonl), Arc::new(ChromeTraceSink::create(path))])))
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
    /// Read the scale from the environment (default `small`).
    pub fn from_env() -> Scale {
        match std::env::var("NTGA_SCALE").as_deref() {
            Ok("medium") => Scale::Medium,
            Ok("large") => Scale::Large,
            _ => Scale::Small,
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

/// An execution approach paired with its report label — thin wrapper so
/// figure binaries can mix relational flavors, NTGA strategies and the
/// Figure 3 groupings in one panel.
#[derive(Debug, Clone, Copy)]
pub enum Runner {
    /// Pig-like or Hive-like relational execution.
    Relational(relbase::RelFlavor),
    /// A Figure 3 grouping.
    Grouping(relbase::Grouping),
    /// An NTGA strategy.
    Ntga(Strategy),
    /// The cost-based optimizer: per-star / per-cycle choices derived from
    /// [`rdf_model::StoreStats`] and the engine's [`mrsim::CostModel`]
    /// (`--strategy auto-cost`).
    NtgaCost,
}

impl From<ntga::Approach> for Runner {
    fn from(approach: ntga::Approach) -> Runner {
        use ntga::Approach;
        match (approach.strategy(), approach) {
            (Some(strategy), _) => Runner::Ntga(strategy),
            (None, Approach::Pig) => Runner::Relational(relbase::RelFlavor::Pig),
            (None, Approach::Hive) => Runner::Relational(relbase::RelFlavor::Hive),
            (None, _) => Runner::NtgaCost,
        }
    }
}

impl Runner {
    /// Report label.
    pub fn label(&self) -> String {
        match self {
            Runner::Relational(f) => f.label().to_string(),
            Runner::Grouping(g) => g.label().to_string(),
            Runner::Ntga(s) => s.label(),
            Runner::NtgaCost => "CostBased".to_string(),
        }
    }

    /// The panel used by most figures: Pig, Hive, EagerUnnest, LazyUnnest.
    pub fn paper_panel(phi: u64) -> Vec<Runner> {
        vec![
            Runner::Relational(relbase::RelFlavor::Pig),
            Runner::Relational(relbase::RelFlavor::Hive),
            Runner::Ntga(Strategy::Eager),
            Runner::Ntga(Strategy::Auto(phi)),
        ]
    }

    /// Execute one query on a fresh engine built from `cluster`. A disk too
    /// small for the input itself is reported like any other `DiskFull`: a
    /// failed run with no jobs.
    pub fn run(
        &self,
        cluster: &ntga::ClusterConfig,
        store: &TripleStore,
        query: &Query,
        label: &str,
    ) -> QueryRun {
        let engine = match cluster.try_engine_with(store) {
            Ok(engine) => engine,
            Err(e) => {
                let stats = mrsim::WorkflowStats {
                    label: label.to_string(),
                    failure: Some(e.to_string()),
                    ..Default::default()
                };
                return QueryRun { stats, solutions: None };
            }
        };
        let input = mr_rdf::TRIPLES_FILE;
        let result = match *self {
            Runner::Relational(f) => relbase::execute(f, &engine, query, input, label, false),
            Runner::Grouping(g) => {
                relbase::execute_grouping(g, &engine, query, input, label, false)
            }
            Runner::Ntga(s) => ntga_core::execute(s, &engine, query, input, label, false),
            Runner::NtgaCost => {
                ntga_core::execute_cost_based(&engine, query, input, label, false, &store.stats())
            }
        };
        result.unwrap_or_else(|e| panic!("{label}: planning failed: {e}"))
    }
}

/// Run a panel of runners over a set of queries, returning report rows.
pub fn run_panel(
    cluster: &ntga::ClusterConfig,
    store: &TripleStore,
    queries: &[(String, Query)],
    runners: &[Runner],
) -> Vec<report::Row> {
    let mut rows = Vec::new();
    for (qid, query) in queries {
        for runner in runners {
            let label = format!("{qid}-{}", runner.label());
            let run = runner.run(cluster, store, query, &label);
            rows.push(report::Row::from_run(qid, &runner.label(), &run));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_entities() {
        assert_eq!(Scale::Small.entities(10), 10);
        assert_eq!(Scale::Medium.entities(10), 40);
        assert_eq!(Scale::Large.entities(10), 160);
    }

    #[test]
    fn panel_runs_and_reports() {
        let store = datagen::bsbm::generate(&datagen::BsbmConfig::with_products(20));
        let q = rdf_query::parse_query(
            "SELECT * WHERE { ?p <rdfs:label> ?l . ?p ?u ?x . ?x <rdfs:label> ?l2 . }",
        )
        .unwrap();
        let rows = run_panel(
            &ntga::ClusterConfig::default(),
            &store,
            &[("B1ish".to_string(), q)],
            &Runner::paper_panel(64),
        );
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.ok()));
        // NTGA rows should show fewer cycles than relational rows.
        let cycles = |approach| report::stats_of(&rows, "B1ish", approach).mr_cycles;
        assert!(cycles("Lazy") < cycles("Hive"));
        // The NTGA rows carry operator counters; relational plans record
        // none (their operators don't count yet).
        for r in &rows {
            if r.approach.contains("Lazy") || r.approach == "EagerUnnest" {
                assert!(r.ops().get(ntga_core::physical::op::GROUPS_IN) > 0, "{}", r.approach);
            }
        }
        let json = report::rows_json(&rows);
        mrsim::trace::validate_json(&json).unwrap();
    }

    #[test]
    fn input_larger_than_the_disk_is_a_failed_row_not_a_panic() {
        let store = datagen::bsbm::generate(&datagen::BsbmConfig::with_products(20));
        let q = rdf_query::parse_query("SELECT * WHERE { ?p <rdfs:label> ?l . }").unwrap();
        let cluster = ntga::ClusterConfig::default().tight_disk(&store, 0.5);
        let run = Runner::Ntga(Strategy::LazyFull).run(&cluster, &store, &q, "tiny");
        assert!(!run.succeeded());
        assert!(run.stats.failure.as_deref().is_some_and(|f| f.contains("full")), "{run:?}");
        assert!(run.stats.jobs.is_empty());
    }

    #[test]
    fn bench_opts_parse() {
        let opts = BenchOpts::parse(Vec::new()).unwrap();
        assert!(opts.trace.is_none() && opts.json.is_none() && opts.sink.is_none());

        let dir = std::env::temp_dir();
        let trace = dir.join(format!("bench-opts-{}.trace.json", std::process::id()));
        let json = dir.join(format!("bench-opts-{}.rows.json", std::process::id()));
        let opts = BenchOpts::parse(
            ["--trace", trace.to_str().unwrap(), "--json", json.to_str().unwrap()]
                .map(String::from),
        )
        .unwrap();
        assert_eq!(opts.trace.as_deref(), Some(trace.as_path()));
        assert!(opts.sink.is_some());
        // The traced cluster config carries the sink.
        let cluster = opts.cluster(ntga::ClusterConfig::default());
        assert!(cluster.trace.is_some());
        opts.finish(&[]);
        assert_eq!(std::fs::read_to_string(&json).unwrap(), "[]");
        for p in [&json, &trace, &trace.with_extension("jsonl")] {
            let _ = std::fs::remove_file(p);
        }

        assert!(BenchOpts::parse(["--trace".to_string()]).is_err());
        assert!(BenchOpts::parse(["--profile".to_string()]).is_err());
        assert!(BenchOpts::parse(["--bogus".to_string()]).is_err());
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
        let opts =
            BenchOpts::parse(["--profile", path.to_str().unwrap()].map(String::from)).unwrap();
        assert_eq!(opts.profile.as_deref(), Some(path.as_path()));
        let cluster = ntga::ClusterConfig::default();
        opts.write_profile(&cluster, &store, &queries);
        let json = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        mrsim::trace::validate_json(&json).unwrap_or_else(|e| panic!("{json}: {e}"));
        assert!(json.contains("\"operators\":["), "{json}");
        assert!(json.contains("TG_GroupFilter"), "{json}");
        assert!(json.contains("\"reconciliation\":"), "{json}");

        // Without the flag, write_profile is a no-op.
        let opts = BenchOpts::parse(Vec::new()).unwrap();
        opts.write_profile(&cluster, &store, &queries);
        assert!(!path.exists());

        // The library entry point returns the same profiles directly.
        let profiles = profile_queries(&cluster, &store, &queries).unwrap();
        assert_eq!(profiles.len(), 1);
        assert!(json.contains(&profiles[0].to_json()), "{json}");
    }

    #[test]
    fn strategy_flag_overrides_panel() {
        let opts = BenchOpts::parse(["--strategy", "auto-cost"].map(String::from)).unwrap();
        assert!(matches!(opts.strategy, Some(Runner::NtgaCost)));
        let panel = opts.panel_or(Runner::paper_panel(64));
        assert_eq!(panel.len(), 1);
        assert_eq!(panel[0].label(), "CostBased");

        // No override: the default panel passes through untouched.
        let opts = BenchOpts::parse(Vec::new()).unwrap();
        assert_eq!(opts.panel_or(Runner::paper_panel(64)).len(), 4);

        assert!(BenchOpts::parse(["--strategy".to_string()]).is_err());
        assert!(BenchOpts::parse(["--strategy", "bogus"].map(String::from)).is_err());
        assert!(BenchOpts::parse(["--strategy", "lazy-partial:x"].map(String::from)).is_err());
    }

    #[test]
    fn both_doors_take_every_spelling() {
        // `ntga-cli --approach` parses with `str::parse::<Approach>`, the
        // fig binaries' `--strategy` goes on to a `Runner`: one grammar.
        use ntga::Approach;
        for (spelling, approach, runner_label) in [
            ("pig", Approach::Pig, "Pig"),
            ("hive", Approach::Hive, "Hive"),
            ("eager", Approach::NtgaEager, "EagerUnnest"),
            ("lazy", Approach::NtgaLazyFull, "LazyUnnest(full)"),
            ("lazyfull", Approach::NtgaLazyFull, "LazyUnnest(full)"),
            ("lazy-full", Approach::NtgaLazyFull, "LazyUnnest(full)"),
            ("partial", Approach::NtgaLazyPartial(1024), "LazyUnnest(phi_1024)"),
            ("partial:8", Approach::NtgaLazyPartial(8), "LazyUnnest(phi_8)"),
            ("lazy-partial:8", Approach::NtgaLazyPartial(8), "LazyUnnest(phi_8)"),
            ("auto", Approach::NtgaAuto(1024), "LazyUnnest(auto,phi_1024)"),
            ("auto:8", Approach::NtgaAuto(8), "LazyUnnest(auto,phi_8)"),
            ("auto-cost", Approach::NtgaAutoCost, "CostBased"),
            ("cost", Approach::NtgaAutoCost, "CostBased"),
        ] {
            assert_eq!(spelling.parse(), Ok(approach), "{spelling}");
            let opts = BenchOpts::parse(["--strategy", spelling].map(String::from)).unwrap();
            assert_eq!(opts.strategy.unwrap().label(), runner_label, "{spelling}");
            let name = spelling.split(':').next().unwrap();
            assert!(Approach::GRAMMAR.contains(name), "{name} missing from the usage grammar");
        }
        let err = "bogus".parse::<Approach>().unwrap_err();
        assert!(err.contains("unknown approach") && err.contains(Approach::GRAMMAR), "{err}");
    }

    #[test]
    fn cost_based_runner_reports_q_error() {
        let store = datagen::bsbm::generate(&datagen::BsbmConfig::with_products(20));
        let q = rdf_query::parse_query(
            "SELECT * WHERE { ?p <rdfs:label> ?l . ?p ?u ?x . ?x <rdfs:label> ?l2 . }",
        )
        .unwrap();
        let rows = run_panel(
            &ntga::ClusterConfig::default(),
            &store,
            &[("B1ish".to_string(), q)],
            &[Runner::NtgaCost, Runner::Ntga(Strategy::Auto(64))],
        );
        assert!(rows.iter().all(|r| r.ok()));
        let cost = report::stats_of(&rows, "B1ish", "CostBased");
        let auto = report::stats_of(&rows, "B1ish", "auto");
        // Same answer, and the cost-based rows carry the estimator's
        // q-error while hand-picked strategies have no estimates.
        assert_eq!(cost.final_output_records(), auto.final_output_records());
        assert!(cost.max_q_error().is_some());
        assert!(auto.max_q_error().is_none());
        let json = report::rows_json(&rows);
        mrsim::trace::validate_json(&json).unwrap();
        assert!(json.contains("\"max_q_error\":null"), "{json}");
    }
}
