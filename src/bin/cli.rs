//! `ntga-cli` — run unbound-property queries over N-Triples files on the
//! simulated MapReduce cluster.
//!
//! ```text
//! ntga-cli generate --dataset bsbm --scale 100 --out data.nt [--seed 42]
//! ntga-cli stats    --data data.nt
//! ntga-cli explain  --query q.rq [--approach auto:1024]
//! ntga-cli explain  --query q.rq --approach auto-cost --data data.nt
//!                   [--replication 2] [--disk-factor 6.5]
//! ntga-cli query    --data data.nt --query q.rq [--approach auto:1024]
//!                   [--replication 2] [--disk-factor 6.5] [--limit 20] [--no-solutions]
//! ntga-cli compare  --data data.nt --query q.rq [--replication 2] [--disk-factor F]
//! ```
//!
//! `--approach` takes [`Approach::GRAMMAR`] (`pig`, `hive`, `eager`, `lazy`,
//! `partial:M`, `auto:M`, `auto-cost`, …). `auto-cost` plans with the
//! statistics-driven optimizer (per-star unnest placement, broadcast joins,
//! reducer sizing) and needs `--data` even for `explain`, since the plan
//! depends on the store's statistics; `explain` takes `--data`,
//! `--replication` and `--disk-factor` with no other approach.
//! `--disk-factor F` bounds the cluster's disk to `F ×` the replicated
//! input (reproducing the paper's constrained clusters); without it the
//! disk is unbounded.

use ntga::prelude::*;
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    // Exit quietly when stdout is closed early (e.g. piping into `head`).
    std::panic::set_hook(Box::new(|info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if msg.contains("Broken pipe") {
            std::process::exit(0);
        }
        eprintln!("{info}");
    }));
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let Some(&(_, reads, run)) = COMMANDS.iter().find(|(name, ..)| name == command) else {
        eprintln!("error: unknown command '{command}'");
        return ExitCode::FAILURE;
    };
    let opts = match parse_flags(command, rest, reads).and_then(|o| check_combinations(command, o))
    {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type Run = fn(&HashMap<String, String>) -> Result<(), String>;

/// Each command, the flags it reads, and what runs it. A flag a command
/// does not read is an error, not silently dropped.
const COMMANDS: &[(&str, &[&str], Run)] = &[
    ("generate", &["dataset", "scale", "out", "seed"], cmd_generate),
    ("stats", &["data"], cmd_stats),
    ("explain", &["query", "approach", "data", "replication", "disk-factor"], cmd_explain),
    (
        "query",
        &["data", "query", "approach", "replication", "disk-factor", "limit", "no-solutions"],
        cmd_query,
    ),
    ("compare", &["data", "query", "replication", "disk-factor"], cmd_compare),
    ("help", &[], cmd_help),
    ("--help", &[], cmd_help),
    ("-h", &[], cmd_help),
];

fn cmd_help(_: &HashMap<String, String>) -> Result<(), String> {
    println!("{}", usage());
    Ok(())
}

fn usage() -> String {
    format!(
        "ntga-cli — unbound-property RDF queries on a simulated MapReduce cluster

USAGE:
  ntga-cli generate --dataset bsbm|bio2rdf|dbpedia|btc --scale N --out FILE [--seed S]
  ntga-cli stats    --data FILE
  ntga-cli explain  --query FILE [--approach APPROACH]
  ntga-cli explain  --query FILE --approach auto-cost --data FILE
                    [--replication N] [--disk-factor F]
  ntga-cli query    --data FILE --query FILE [--approach APPROACH]
                    [--replication N] [--disk-factor F] [--limit N] [--no-solutions]
  ntga-cli compare  --data FILE --query FILE [--replication N] [--disk-factor F]

APPROACH: {}
          (default auto:1024; auto-cost requires --data, also for explain)",
        Approach::GRAMMAR
    )
}

/// `args` as `--flag value` pairs, each flag one `command` reads.
fn parse_flags(
    command: &str,
    args: &[String],
    reads: &[&str],
) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let flag = &args[i];
        if !flag.starts_with("--") {
            return Err(format!("expected a --flag, found '{flag}'"));
        }
        let key = flag.trim_start_matches("--").to_string();
        if !reads.contains(&key.as_str()) {
            return Err(format!("{command} does not take {flag}"));
        }
        if key == "no-solutions" {
            out.insert(key, "true".to_string());
            i += 1;
            continue;
        }
        let value = args.get(i + 1).ok_or_else(|| format!("flag --{key} needs a value"))?.clone();
        out.insert(key, value);
        i += 2;
    }
    Ok(out)
}

/// A flag a command reads only together with another is refused outside
/// that combination, like a flag it never reads; `query --limit` is parsed
/// here, so a bad one is refused before anything runs.
fn check_combinations(
    command: &str,
    opts: HashMap<String, String>,
) -> Result<HashMap<String, String>, String> {
    match command {
        "explain" if approach_of(&opts).is_ok_and(|a| a != Approach::NtgaAutoCost) => {
            let data_flags = ["data", "replication", "disk-factor"];
            if let Some(flag) = data_flags.iter().find(|f| opts.contains_key(**f)) {
                return Err(format!("explain takes --{flag} only with --approach auto-cost"));
            }
        }
        "query" => {
            parsed::<usize>(&opts, "limit")?;
            if opts.contains_key("limit") && opts.contains_key("no-solutions") {
                return Err("query does not take --limit with --no-solutions".into());
            }
        }
        _ => {}
    }
    Ok(opts)
}

fn required<'a>(opts: &'a HashMap<String, String>, key: &str) -> Result<&'a str, String> {
    opts.get(key).map(String::as_str).ok_or_else(|| format!("missing --{key}"))
}

fn approach_of(opts: &HashMap<String, String>) -> Result<Approach, String> {
    opts.get("approach").map_or("auto:1024", String::as_str).parse()
}

/// `--key`'s value as a `T` (`None` without the flag), or `bad --key`.
fn parsed<T: std::str::FromStr>(
    opts: &HashMap<String, String>,
    key: &str,
) -> Result<Option<T>, String> {
    opts.get(key).map(|v| v.parse().map_err(|_| format!("bad --{key}"))).transpose()
}

fn load_data(opts: &HashMap<String, String>) -> Result<TripleStore, String> {
    let path = required(opts, "data")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    TripleStore::from_ntriples(&text).map_err(|e| format!("parsing {path}: {e}"))
}

fn load_query(opts: &HashMap<String, String>) -> Result<Query, String> {
    let path = required(opts, "query")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    parse_query(&text).map_err(|e| e.to_string())
}

fn cluster_for(
    opts: &HashMap<String, String>,
    store: &TripleStore,
) -> Result<ClusterConfig, String> {
    let replication: u32 = parsed(opts, "replication")?.unwrap_or(1);
    if replication == 0 {
        return Err("bad --replication".into());
    }
    let mut cfg = ClusterConfig { replication, ..Default::default() };
    cfg.cost = CostModel::scaled_to(store.text_bytes());
    if let Some(factor) = parsed::<f64>(opts, "disk-factor")? {
        if factor.is_nan() || factor <= 0.0 {
            return Err("bad --disk-factor".into());
        }
        cfg = cfg.tight_disk(store, factor);
    }
    Ok(cfg)
}

fn cmd_generate(opts: &HashMap<String, String>) -> Result<(), String> {
    let dataset = required(opts, "dataset")?;
    let scale: usize = required(opts, "scale")?.parse().map_err(|_| "bad --scale".to_string())?;
    let seed: u64 = parsed(opts, "seed")?.unwrap_or(42);
    let out = required(opts, "out")?;
    let store = match dataset {
        "bsbm" => {
            datagen::bsbm::generate(&datagen::BsbmConfig::with_products(scale).with_seed(seed))
        }
        "bio2rdf" => {
            datagen::bio2rdf::generate(&datagen::Bio2RdfConfig::with_genes(scale).with_seed(seed))
        }
        "dbpedia" => datagen::dbpedia::generate(
            &datagen::DbpediaConfig::with_entities(scale).with_seed(seed),
        ),
        "btc" => datagen::dbpedia::generate(&datagen::DbpediaConfig::btc_like(scale)),
        other => return Err(format!("unknown dataset '{other}' (bsbm|bio2rdf|dbpedia|btc)")),
    };
    let mut text = String::with_capacity(store.len() * 48);
    for t in store.iter() {
        text.push_str(&t.to_string());
        text.push('\n');
    }
    std::fs::write(out, text).map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {} triples ({} B) to {out}", store.len(), store.text_bytes());
    Ok(())
}

fn cmd_stats(opts: &HashMap<String, String>) -> Result<(), String> {
    let store = load_data(opts)?;
    let stats = store.stats();
    println!("triples:             {}", stats.triples);
    println!("distinct subjects:   {}", stats.distinct_subjects);
    println!("distinct properties: {}", stats.distinct_properties);
    println!("text bytes:          {}", stats.text_bytes);
    println!("multi-valued props:  {:.1}%", stats.multi_valued_fraction * 100.0);
    let mut props: Vec<_> = stats.per_property.iter().collect();
    props.sort_by_key(|(_, s)| std::cmp::Reverse(s.max_multiplicity));
    println!("\ntop properties by multiplicity:");
    for (prop, p) in props.iter().take(10) {
        println!("  {:<40} count={:<8} max-multiplicity={}", prop, p.count, p.max_multiplicity);
    }
    Ok(())
}

fn cmd_explain(opts: &HashMap<String, String>) -> Result<(), String> {
    let query = load_query(opts)?;
    let approach = approach_of(opts)?;
    // Only the cost-based plan depends on the data: it plans from the
    // engine `query` would run on. Every other plan needs no data.
    let engine = if approach == Approach::NtgaAutoCost {
        let store = load_data(opts)
            .map_err(|e| format!("--approach auto-cost needs --data to plan from: {e}"))?;
        engine_for(&cluster_for(opts, &store)?, &store)?
    } else {
        Engine::unbounded()
    };
    let plan = approach.plan(&query, &engine).map_err(|e| e.to_string())?;
    print!("{}", ntga_core::explain_plan(&plan));
    Ok(())
}

/// A fresh engine holding `store`; an `--disk-factor` too small for the
/// input itself is the user's typed `DiskFull`, not a panic.
fn engine_for(cluster: &ClusterConfig, store: &TripleStore) -> Result<Engine, String> {
    cluster.try_engine_with(store).map_err(|e| format!("loading the input: {e}"))
}

fn print_stats(stats: &WorkflowStats) {
    println!("  MR cycles:          {}", stats.mr_cycles);
    println!("  full input scans:   {}", stats.full_scans);
    println!("  HDFS read bytes:    {}", stats.total_read_bytes());
    println!("  HDFS write bytes:   {}", stats.total_write_bytes());
    println!("  shuffle bytes:      {}", stats.total_shuffle_bytes());
    println!("  peak disk bytes:    {}", stats.peak_disk_bytes);
    println!("  simulated seconds:  {:.1}", stats.sim_seconds);
}

fn cmd_query(opts: &HashMap<String, String>) -> Result<(), String> {
    let store = load_data(opts)?;
    let query = load_query(opts)?;
    let approach = approach_of(opts)?;
    let want_solutions = !opts.contains_key("no-solutions");
    let cluster = cluster_for(opts, &store)?;
    let engine = engine_for(&cluster, &store)?;
    let run =
        run_query(approach, &engine, &query, "cli", want_solutions).map_err(|e| e.to_string())?;
    if !run.succeeded() {
        println!("execution FAILED: {}", run.stats.failure.as_deref().unwrap_or("unknown failure"));
        print_stats(&run.stats);
        return Ok(());
    }
    if let Some(solutions) = &run.solutions {
        let limit: usize = parsed(opts, "limit")?.unwrap_or(20);
        println!(
            "{} solution(s){}:",
            solutions.len(),
            if solutions.len() > limit { format!(", showing {limit}") } else { String::new() }
        );
        for b in solutions.iter().take(limit) {
            println!("  {b}");
        }
    }
    println!("\nexecution profile [{}]:", approach.label());
    print_stats(&run.stats);
    Ok(())
}

fn cmd_compare(opts: &HashMap<String, String>) -> Result<(), String> {
    let store = load_data(opts)?;
    let query = load_query(opts)?;
    let cluster = cluster_for(opts, &store)?;
    println!(
        "{:<22} {:>6} {:>4} {:>14} {:>14} {:>12} {:>10}  status",
        "approach", "cycles", "FS", "read B", "written B", "shuffled B", "sim(s)"
    );
    let mut reference: Option<SolutionSet> = None;
    for approach in [
        Approach::Pig,
        Approach::Hive,
        Approach::NtgaEager,
        Approach::NtgaLazyFull,
        Approach::NtgaAuto(1024),
        Approach::NtgaAutoCost,
    ] {
        let engine = engine_for(&cluster, &store)?;
        let run = run_query(approach, &engine, &query, "cmp", true).map_err(|e| e.to_string())?;
        println!(
            "{:<22} {:>6} {:>4} {:>14} {:>14} {:>12} {:>10.1}  {}",
            approach.label(),
            run.stats.mr_cycles,
            run.stats.full_scans,
            run.stats.total_read_bytes(),
            run.stats.total_write_bytes(),
            run.stats.total_shuffle_bytes(),
            run.stats.sim_seconds,
            if run.succeeded() { "OK" } else { "FAILED" },
        );
        if let Some(sols) = run.solutions {
            match &reference {
                None => reference = Some(sols),
                Some(r) => {
                    if *r != sols {
                        return Err(format!(
                            "approach {} returned different solutions!",
                            approach.label()
                        ));
                    }
                }
            }
        }
    }
    if let Some(r) = reference {
        println!("\nall completed approaches agree on {} solution(s)", r.len());
    }
    Ok(())
}
