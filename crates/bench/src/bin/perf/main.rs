//! `perf` — the wall-clock ledger: real catalog queries through
//! `ntga::run_query`, end to end, with a per-layer split taken from
//! outside the program. See `README.md` beside this file.
//!
//! ```text
//! perf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--passes <n>] [--out <file>]
//! perf --check A.jsonl B.jsonl
//! ```

mod check;
mod json;
mod measure;
mod spans;
mod workloads;

use measure::{calib_ms, cpu_ms, highest_percentile, median, peak_rss_mb, percentile};
use mrsim::trace::JsonObject;
use ntga::Approach;
use spans::{ms_since, WallSink};
use std::collections::BTreeMap;
use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use workloads::{prepare, run_op, workers, Prepared, Workload, WORKLOADS};

/// End-to-end metrics and units, as `BENCHMARK.json` lists them. Measured
/// with tracing off.
pub const END_TO_END: [(&str, &str); 8] = [
    ("pass_ms_p50", "ms"),
    ("pass_ms_p75", "ms"),
    ("triples_per_s", "1/s"),
    ("cpu_ms_per_pass", "ms"),
    ("load_ms_p50", "ms"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
    ("dfs_peak_ratio", "ratio"),
];

/// Per-layer metrics and units, as `BENCHMARK.json` lists them: wall
/// spans as mean ms per traced pass, then exact counts per pass.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("ntga.query_ms", "ms"),
    ("ntga.query_self_ms", "ms"),
    ("ntga-core.plan_ms", "ms"),
    ("relbase.plan_ms", "ms"),
    ("mr-rdf.read_store_ms", "ms"),
    ("rdf-model.stats_ms", "ms"),
    ("ntga-core.optimize_ms", "ms"),
    ("rdf-query.parse_ms", "ms"),
    ("ntga-core.group.map_ms", "ms"),
    ("ntga-core.group.reduce_ms", "ms"),
    ("ntga-core.tgjoin.map_ms", "ms"),
    ("ntga-core.tgjoin.reduce_ms", "ms"),
    ("relbase.star.map_ms", "ms"),
    ("relbase.star.reduce_ms", "ms"),
    ("relbase.join.map_ms", "ms"),
    ("relbase.join.reduce_ms", "ms"),
    ("relbase.load.map_ms", "ms"),
    ("mrsim.driver_ms", "ms"),
    ("ntga-core.extract_ms", "ms"),
    ("relbase.extract_ms", "ms"),
    ("mr-rdf.load_store_ms", "ms"),
    ("harness.trace_overhead_pct", "%"),
    ("harness.calib_ms", "ms"),
    ("mrsim.jobs", "count"),
    ("mrsim.map_tasks", "count"),
    ("mrsim.reduce_tasks", "count"),
    ("mrsim.input_records", "count"),
    ("mrsim.hdfs_read_bytes", "B"),
    ("mrsim.map_output_records", "count"),
    ("mrsim.shuffle_text_bytes", "B"),
    ("mrsim.shuffle_wire_bytes", "B"),
    ("mrsim.map_sorted_runs", "count"),
    ("mrsim.merge_entries", "count"),
    ("mrsim.reduce_groups", "count"),
    ("mrsim.output_records", "count"),
    ("mrsim.hdfs_write_bytes", "B"),
    ("mrsim.peak_arena_bytes", "B"),
    ("mrsim.sim_s", "sim_s"),
    ("mrsim.task_retries", "count"),
    ("mrsim.maps_reexecuted", "count"),
    ("mrsim.corruptions_detected", "count"),
    ("mrsim.refetches", "count"),
    ("mrsim.stage_retries", "count"),
    ("ntga-core.unnest_in", "count"),
    ("ntga-core.unnest_out", "count"),
    ("ntga-core.partial_out", "count"),
    ("ntga-core.group_admitted", "count"),
];

/// How long the timed loop runs.
#[derive(Debug, Clone, Copy)]
enum Budget {
    /// At least this long, and with tracing off at least [`P75_PASSES`]
    /// passes, however slow the machine.
    Seconds(f64),
    Passes(usize),
}

/// `pass_ms_p75` needs forty samples to have ten beyond it.
const P75_PASSES: usize = 40;

/// The shape of one run.
#[derive(Debug, Clone, Copy)]
struct Plan {
    /// Set-up is repeated and its median reported: one reading of a
    /// sub-second set-up is mostly noise.
    setups: usize,
    warmup_passes: usize,
    budget: Budget,
}

impl Plan {
    fn measured(budget: Budget) -> Plan {
        Plan { setups: 3, warmup_passes: 3, budget }
    }
}

/// One run's result: what goes on the last line of stdout, plus the
/// provenance a result file records.
struct Report {
    workload: &'static str,
    seed: u64,
    trace: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    meta: Vec<(&'static str, String)>,
    /// Wall ms of every untraced timed pass, in order.
    pass_ms: Vec<f64>,
}

/// Wall-span sums over the traced ops, keyed by metric name.
struct Tracer {
    sink: Arc<WallSink>,
    sums: BTreeMap<String, f64>,
    /// `(map_sorted_runs, merge_entries)` of the first traced pass; every
    /// later pass must repeat it.
    sort_work: Option<(u64, u64)>,
    passes: usize,
}

impl Tracer {
    fn add(&mut self, name: impl Into<String>, ms: f64) {
        *self.sums.entry(name.into()).or_default() += ms;
    }
}

fn is_relational(approach: Approach) -> bool {
    matches!(approach, Approach::Pig | Approach::Hive)
}

/// Run the cell list once. Returns the pass's wall ms (the sum of its
/// `run_query` calls) and appends each op's load ms; ops that fail or do
/// not reproduce their verification run are counted in `failed`.
fn run_pass(
    p: &Prepared,
    epoch: Instant,
    mut tracer: Option<&mut Tracer>,
    load_ms: &mut Vec<f64>,
    failed: &mut u64,
) -> f64 {
    let traced_cluster = tracer
        .as_ref()
        .map(|t| p.cluster.clone().with_trace(t.sink.clone() as Arc<dyn mrsim::TraceSink>));
    let cluster = traced_cluster.as_ref().unwrap_or(&p.cluster);
    let mut pass_ms = 0.0;
    let mut sort_work = (0, 0);
    for cell in &p.cells {
        let op = run_op(cluster, &p.store, &cell.query, cell.approach, p.extract, epoch);
        pass_ms += op.ret - op.call;
        load_ms.push(op.load_ms);
        let mut ok = op.run.as_ref().is_ok_and(|run| cell.reproduced_by(run));
        if let Some(t) = tracer.as_deref_mut() {
            match spans::reconstruct(op.call, op.ret, &t.sink.drain()) {
                Ok(s) => {
                    let family = if is_relational(cell.approach) { "relbase" } else { "ntga-core" };
                    t.add("ntga.query_ms", s.query_ms);
                    t.add("ntga.query_self_ms", s.query_self_ms);
                    t.add(format!("{family}.plan_ms"), s.plan_ms);
                    t.add(format!("{family}.extract_ms"), s.extract_ms);
                    t.add("mrsim.driver_ms", s.driver_ms);
                    t.add("mr-rdf.load_store_ms", op.load_ms);
                    for (layer, (map_ms, reduce_ms)) in s.jobs {
                        t.add(format!("{layer}.map_ms"), map_ms);
                        t.add(format!("{layer}.reduce_ms"), reduce_ms);
                    }
                    sort_work.0 += s.map_sorted_runs;
                    sort_work.1 += s.merge_entries;
                }
                Err(e) => {
                    eprintln!("perf: {}: span tree: {e}", cell.label());
                    ok = false;
                }
            }
        }
        if !ok {
            eprintln!(
                "perf: {}: op failed or did not reproduce its verification run",
                cell.label()
            );
            *failed += 1;
        }
    }
    if let Some(t) = tracer {
        if *t.sort_work.get_or_insert(sort_work) != sort_work {
            eprintln!("perf: sort work {sort_work:?} differs from the first traced pass");
            *failed += 1;
        }
        time_plan_children(p, t);
        t.passes += 1;
    }
    pass_ms
}

/// Children of the plan span that emit no event, timed by calling them
/// directly: the cost-based ANALYZE (`read_store`, `stats`) and `optimize`
/// once per CostBased cell, and the parser over the pass's query texts.
fn time_plan_children(p: &Prepared, t: &mut Tracer) {
    fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let value = f();
        (value, ms_since(start))
    }
    for cell in &p.cells {
        let (parsed, parse_ms) = timed(|| rdf_query::parse_query(&cell.query.text));
        parsed.expect("the catalog parsed this text in set-up");
        t.add("rdf-query.parse_ms", parse_ms);
        if cell.approach != Approach::NtgaAutoCost {
            continue;
        }
        let engine = p.cluster.engine_with(&p.store);
        let (store, read_ms) = timed(|| mr_rdf::read_store(&engine, mr_rdf::TRIPLES_FILE));
        let store = store.expect("the engine holds the triple relation");
        let (stats, stats_ms) = timed(|| store.stats());
        let config = ntga_core::OptimizerConfig::for_engine(&engine);
        let (plan, optimize_ms) =
            timed(|| ntga_core::optimize(&cell.query.query, &stats, &engine.cost, &config));
        plan.expect("the verification run planned this query");
        t.add("mr-rdf.read_store_ms", read_ms);
        t.add("rdf-model.stats_ms", stats_ms);
        t.add("ntga-core.optimize_ms", optimize_ms);
    }
}

fn run(w: &Workload, seed: u64, plan: Plan, trace: bool) -> Result<Report, String> {
    let calib_before = calib_ms();

    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..plan.setups {
        let start = Instant::now();
        prepared = Some(prepare(w, seed)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let p = prepared.ok_or("a run sets up at least once")?;

    let epoch = Instant::now();
    let mut failed = 0u64;
    let mut scratch = Vec::new();
    for _ in 0..plan.warmup_passes {
        run_pass(&p, epoch, None, &mut scratch, &mut failed);
    }
    if failed > 0 {
        return Err("a warm-up op failed".into());
    }

    let mut tracer = trace.then(|| Tracer {
        sink: Arc::new(WallSink::new(epoch)),
        sums: BTreeMap::new(),
        sort_work: None,
        passes: 0,
    });
    let mut pass_ms = Vec::new();
    let mut traced_pass_ms = Vec::new();
    let mut load_ms = Vec::new();
    let cpu_start = cpu_ms()?;
    let loop_start = Instant::now();
    loop {
        pass_ms.push(run_pass(&p, epoch, None, &mut load_ms, &mut failed));
        if let Some(t) = tracer.as_mut() {
            // Traced and untraced passes alternate, so machine drift
            // falls on both sides of the overhead figure alike.
            traced_pass_ms.push(run_pass(&p, epoch, Some(t), &mut load_ms, &mut failed));
        }
        let done = match plan.budget {
            Budget::Seconds(s) => {
                loop_start.elapsed().as_secs_f64() >= s && (trace || pass_ms.len() >= P75_PASSES)
            }
            Budget::Passes(n) => pass_ms.len() >= n,
        };
        if done {
            break;
        }
    }
    let cpu_ms_total = cpu_ms()? - cpu_start;
    let calib_after = calib_ms();

    let passes = pass_ms.len();
    let cells = p.cells.len();
    let attempted = ((passes + traced_pass_ms.len()) * cells) as u64;
    let p50 = median(&pass_ms);
    let mut metrics: Vec<(&'static str, f64, &'static str)> = Vec::new();
    if let Some(t) = tracer {
        let mut sums = t.sums;
        for v in sums.values_mut() {
            *v /= t.passes as f64;
        }
        let query_ms = sums["ntga.query_ms"];
        let self_ms = sums["ntga.query_self_ms"];
        if self_ms > 0.03 * query_ms {
            return Err(format!(
                "ntga.query_self_ms {self_ms} is over 3 % of ntga.query_ms {query_ms}"
            ));
        }
        let overhead = (median(&traced_pass_ms) - p50) / p50 * 100.0;
        sums.insert("harness.trace_overhead_pct".into(), overhead);
        sums.insert("harness.calib_ms".into(), (calib_before + calib_after) / 2.0);
        let (runs, entries) = t.sort_work.expect("at least one traced pass ran");
        sums.insert("mrsim.map_sorted_runs".into(), runs as f64);
        sums.insert("mrsim.merge_entries".into(), entries as f64);
        sums.extend(p.counts.iter().map(|(k, v)| (k.to_string(), *v)));
        for (name, unit) in PER_LAYER {
            metrics.push((name, sums.remove(name).unwrap_or(0.0), unit));
        }
        if let Some((name, _)) = sums.iter().find(|(_, v)| **v != 0.0) {
            return Err(format!("span `{name}` has no per-layer metric"));
        }
    } else {
        let value = |name: &str| match name {
            "pass_ms_p50" => Ok(p50),
            "pass_ms_p75" => Ok(percentile(&pass_ms, 75)),
            "triples_per_s" => Ok((cells * p.store.len()) as f64 / (p50 / 1e3)),
            "cpu_ms_per_pass" => Ok(cpu_ms_total / passes as f64),
            "load_ms_p50" => Ok(median(&load_ms)),
            "peak_rss_mb" => peak_rss_mb(),
            "setup_s" => Ok(median(&setup_s)),
            "dfs_peak_ratio" => Ok(p.dfs_peak_ratio),
            _ => Err(format!("no reading for {name}")),
        };
        for (name, unit) in END_TO_END {
            metrics.push((name, value(name)?, unit));
        }
    }

    let meta = vec![
        ("nproc", std::thread::available_parallelism().map_or(0, |n| n.get()).to_string()),
        ("workers", workers().to_string()),
        ("scale", w.scale.to_string()),
        ("triples", p.store.len().to_string()),
        ("cells", cells.to_string()),
        ("setups", plan.setups.to_string()),
        ("warmup_passes", plan.warmup_passes.to_string()),
        ("timed_passes", passes.to_string()),
        ("traced_passes", traced_pass_ms.len().to_string()),
        (
            "highest_percentile",
            highest_percentile(passes).map_or("none".into(), |p| format!("p{p}")),
        ),
        ("calib_ms_before", calib_before.to_string()),
        ("calib_ms_after", calib_after.to_string()),
    ];
    Ok(Report { workload: w.name, seed, trace, attempted, failed, metrics, meta, pass_ms })
}

impl Report {
    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    fn result_fields(&self, o: &mut JsonObject) {
        o.bool("correct", self.failed == 0);
        o.u64("attempted", self.attempted);
        o.u64("failed", self.failed);
        let mut metrics = JsonObject::new();
        for (name, value, unit) in &self.metrics {
            let mut m = JsonObject::new();
            m.f64("value", *value);
            m.str("unit", unit);
            metrics.raw(name, &m.finish());
        }
        o.raw("metrics", &metrics.finish());
    }

    fn result_line(&self) -> String {
        let mut o = JsonObject::new();
        self.result_fields(&mut o);
        o.finish()
    }

    /// One line of a result file: the result plus where it came from.
    fn file_line(&self) -> String {
        let mut o = JsonObject::new();
        o.str("workload", self.workload);
        o.u64("seed", self.seed);
        o.u64("trace", u64::from(self.trace));
        let mut meta = JsonObject::new();
        meta.str("rustc", &tool_output("rustc", &["--version"]));
        meta.str("commit", &tool_output("git", &["rev-parse", "HEAD"]));
        for (k, v) in &self.meta {
            meta.str(k, v);
        }
        o.raw("meta", &meta.finish());
        let samples: Vec<String> = self.pass_ms.iter().map(f64::to_string).collect();
        o.raw("pass_ms", &format!("[{}]", samples.join(",")));
        self.result_fields(&mut o);
        o.finish()
    }

    fn print(&self) {
        println!("workload {} seed {} trace {}", self.workload, self.seed, u8::from(self.trace));
        for (k, v) in &self.meta {
            println!("  {k} = {v}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{name} = {value} {unit}");
        }
        println!("ops attempted {} failed {}", self.attempted, self.failed);
        println!("{}", self.result_line());
    }
}

/// First line a tool prints, or `unknown` (a benchmark checkout is not a
/// git repository).
fn tool_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: perf --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--passes <n>] [--out <file>]\n       perf --check A.jsonl B.jsonl",
        names.join("|")
    )
}

fn main_inner(args: &[String]) -> Result<bool, String> {
    if args.first().map(String::as_str) == Some("--check") {
        let [_, a, b] = args else { return Err(usage()) };
        return check::check("BENCHMARK.json", a, b);
    }
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in args.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => flags.insert(&k[2..], v),
            _ => return Err(usage()),
        };
    }
    let mut take = |name: &str| flags.remove(name);
    let number = |name: &str, v: Option<&str>| -> Result<Option<f64>, String> {
        v.map(|v| v.parse::<f64>().map_err(|_| format!("--{name} {v}: not a number\n{}", usage())))
            .transpose()
    };
    let name = take("workload").ok_or_else(usage)?;
    let w = WORKLOADS.iter().find(|w| w.name == name).ok_or_else(usage)?;
    let seed = take("seed").and_then(|s| s.parse::<u64>().ok()).ok_or_else(usage)?;
    let trace = match take("trace") {
        Some("0") | None => false,
        Some("1") => true,
        Some(_) => return Err(usage()),
    };
    let passes = number("passes", take("passes"))?;
    let seconds = number("seconds", take("seconds"))?;
    let out = take("out");
    if let Some(unknown) = flags.keys().next() {
        return Err(format!("unknown flag --{unknown}\n{}", usage()));
    }
    let budget = match (passes, seconds) {
        (Some(n), _) if n >= 1.0 => Budget::Passes(n as usize),
        (None, Some(s)) if s > 0.0 => Budget::Seconds(s),
        _ => return Err(usage()),
    };

    let report = run(w, seed, Plan::measured(budget), trace)?;
    if let Some(path) = out {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        writeln!(file, "{}", report.file_line()).map_err(|e| format!("{path}: {e}"))?;
    }
    report.print();
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match main_inner(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Json;

    /// Every workload end to end at a tiny scale, one pass, both modes.
    #[test]
    fn smoke_all_workloads_one_pass() {
        for w in &WORKLOADS {
            let tiny = Workload { scale: 30, ..w.clone() };
            for trace in [false, true] {
                let plan = Plan { setups: 1, warmup_passes: 0, budget: Budget::Passes(1) };
                let report = run(&tiny, 7, plan, trace)
                    .unwrap_or_else(|e| panic!("{} trace {trace}: {e}", w.name));
                assert_eq!(report.failed, 0, "{}", w.name);
                assert_eq!(report.attempted as usize, w.cells.len() * if trace { 2 } else { 1 });
                let expected = if trace { &PER_LAYER[..] } else { &END_TO_END[..] };
                let names: Vec<_> = report.metrics.iter().map(|m| (m.0, m.2)).collect();
                assert_eq!(names, expected);
                for line in [report.result_line(), report.file_line()] {
                    mrsim::trace::validate_json(&line).unwrap();
                    Json::parse(&line).unwrap();
                }
                if !trace {
                    assert!(report.metrics.iter().all(|m| m.1 > 0.0), "{:?}", report.metrics);
                }
            }
        }
    }

    /// The harness's metric tables are what `BENCHMARK.json` declares.
    #[test]
    fn benchmark_json_lists_the_same_names_and_units() {
        let spec = Json::parse(include_str!("../../../../../BENCHMARK.json")).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), owned(&END_TO_END));
        assert_eq!(listed("per_layer"), owned(&PER_LAYER));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());
    }
}
