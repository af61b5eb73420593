//! End-to-end tests of the `ntga-cli` binary: generate → stats → explain →
//! query → compare, through real files and real process invocations.

use std::path::PathBuf;
use std::process::{Command, Output};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ntga-cli"))
}

fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ntga-cli-test-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn run_ok(cmd: &mut Command) -> Output {
    let out = cmd.output().expect("spawn ntga-cli");
    assert!(
        out.status.success(),
        "command failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).to_string()
}

/// A fresh temp dir holding `d.nt` (generated BSBM, `scale` products) and
/// `q.rq` (the query text): `(dir, data path, query path)`.
fn bsbm_fixture(name: &str, scale: &str, query: &str) -> (PathBuf, String, String) {
    let dir = tempdir(name);
    let data = dir.join("d.nt").to_str().unwrap().to_string();
    let path = dir.join("q.rq");
    run_ok(cli().args(["generate", "--dataset", "bsbm", "--scale", scale, "--out", &data]));
    std::fs::write(&path, query).unwrap();
    (dir, data, path.to_str().unwrap().to_string())
}

#[test]
fn generate_stats_query_compare_pipeline() {
    let dir = tempdir("pipeline");
    let data = dir.join("d.nt");
    let query = dir.join("q.rq");

    // generate
    let out = run_ok(cli().args([
        "generate",
        "--dataset",
        "bio2rdf",
        "--scale",
        "40",
        "--out",
        data.to_str().unwrap(),
        "--seed",
        "9",
    ]));
    assert!(stdout(&out).contains("wrote"));
    assert!(data.exists());

    // stats
    let out = run_ok(cli().args(["stats", "--data", data.to_str().unwrap()]));
    let text = stdout(&out);
    assert!(text.contains("triples:"));
    assert!(text.contains("multi-valued props:"));

    // query file
    std::fs::write(
        &query,
        "SELECT * WHERE { ?g <rdfs:label> ?l . ?g ?p ?go . ?go <go:label> ?gl . }",
    )
    .unwrap();

    // explain
    let out = run_ok(cli().args(["explain", "--query", query.to_str().unwrap()]));
    let text = stdout(&out);
    assert!(text.contains("MR1:"), "{text}");
    assert!(text.contains("TG_UnbGrpFilter"), "{text}");
    // ...also under the fig binaries' spelling of an approach.
    run_ok(cli().args(["explain", "--query", query.to_str().unwrap(), "--approach", "lazy-full"]));

    // query (lazy)
    let out = run_ok(cli().args([
        "query",
        "--data",
        data.to_str().unwrap(),
        "--query",
        query.to_str().unwrap(),
        "--approach",
        "lazy",
        "--limit",
        "2",
    ]));
    let text = stdout(&out);
    assert!(text.contains("solution(s)"), "{text}");
    assert!(text.contains("MR cycles:          2"), "{text}");

    // compare: all approaches agree
    let out = run_ok(cli().args([
        "compare",
        "--data",
        data.to_str().unwrap(),
        "--query",
        query.to_str().unwrap(),
    ]));
    let text = stdout(&out);
    assert!(text.contains("all completed approaches agree"), "{text}");
    assert!(text.contains("Pig"));
    assert!(text.contains("LazyUnnest-auto1024"));

    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn constrained_disk_reports_failure() {
    let (dir, data, query) = bsbm_fixture(
        "diskfail",
        "60",
        "SELECT * WHERE { ?p <rdfs:label> ?l . ?p ?u ?x . ?x <rdfs:label> ?l2 . }",
    );
    let out = run_ok(cli().args([
        "query",
        "--data",
        &data,
        "--query",
        &query,
        "--approach",
        "hive",
        "--replication",
        "2",
        "--disk-factor",
        "1.3",
    ]));
    let text = stdout(&out);
    assert!(text.contains("FAILED"), "{text}");
    assert!(text.contains("full"), "{text}");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn disk_too_small_for_the_input_is_an_error_not_a_panic() {
    // `--disk-factor 0.5` cannot even hold the input: both commands must
    // report the typed DiskFull and exit non-zero (this used to abort with
    // "input must fit in the cluster").
    let (dir, data, query) =
        bsbm_fixture("tinydisk", "5", "SELECT * WHERE { ?s <rdfs:label> ?l . }");
    for command in ["query", "compare"] {
        let out = cli()
            .args([command, "--data", &data, "--query", &query, "--disk-factor", "0.5"])
            .output()
            .expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{command}: {stderr}");
        assert!(stderr.contains("error: loading the input"), "{command}: {stderr}");
        assert!(stderr.contains("HDFS full"), "{command}: {stderr}");
        assert!(!stderr.contains("panicked"), "{command}: {stderr}");
    }
    // Values no cluster can have are refused at the door: `--replication 0`
    // used to reach `SimHdfs::new`'s assert (exit 101), `--disk-factor nan`
    // and `-1` to run against a 60-byte disk.
    for (flag, value) in [
        ("--replication", "0"),
        ("--replication", "-1"),
        ("--disk-factor", "nan"),
        ("--disk-factor", "0"),
        ("--disk-factor", "-1"),
    ] {
        let out = cli()
            .args(["query", "--data", &data, "--query", &query, flag, value])
            .output()
            .expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag} {value}: {stderr}");
        assert_eq!(stderr, format!("error: bad {flag}\n"), "{flag} {value}");
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn more_stars_than_the_cost_search_takes_is_an_error_not_a_panic() {
    let chain: String = (0..17)
        .map(|i| format!("?s{i} <bsbm:producer> ?s{} . ?s{i} ?p{i} ?o{i} . ", i + 1))
        .collect();
    let (dir, data, query) =
        bsbm_fixture("manystars", "5", &format!("SELECT * WHERE {{ {chain}}}"));
    let run = |command: &str, approach: &str| {
        cli()
            .args([command, "--data", &data, "--query", &query, "--approach", approach])
            .output()
            .expect("spawn")
    };
    for command in ["query", "explain"] {
        let out = run(command, "auto-cost");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{command}: {stderr}");
        assert!(stderr.contains("unsupported by MR planners: 17 stars"), "{command}: {stderr}");
        assert!(!stderr.contains("panicked at"), "{command}: {stderr}");
    }
    // The hand-picked strategies enumerate nothing and still run it.
    assert!(run("query", "auto:1024").status.success());
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn explain_and_query_report_the_same_planner_error_for_every_approach() {
    let queries = [
        // Two stars that share two variables.
        "SELECT * WHERE { ?a <bsbm:producer> ?b . ?a <rdfs:label> ?c . ?b <rdfs:comment> ?c . }",
        // A variable in two positions of one pattern.
        "SELECT * WHERE { ?a <bsbm:producer> ?a . }",
    ];
    let grammar = ntga::Approach::GRAMMAR;
    let spellings: Vec<&str> =
        grammar.split('|').map(|s| s.trim().trim_end_matches("[:M]")).collect();
    assert!(spellings.contains(&"sel-sj-first"), "{grammar}");
    for (i, text) in queries.into_iter().enumerate() {
        let (dir, data, query) = bsbm_fixture(&format!("planerror{i}"), "5", text);
        for approach in &spellings {
            let error_line = |command: &str| {
                let mut cmd = cli();
                cmd.args([command, "--query", &query, "--approach", approach]);
                // `explain` reads the data only to plan auto-cost.
                if command == "query" || approach.parse() == Ok(ntga::Approach::NtgaAutoCost) {
                    cmd.args(["--data", &data]);
                }
                let out = cmd.output().expect("spawn");
                let stderr = String::from_utf8_lossy(&out.stderr).to_string();
                assert_eq!(out.status.code(), Some(1), "{command} {approach}: {stderr}");
                assert!(!stderr.contains("panicked at"), "{command} {approach}: {stderr}");
                stderr
            };
            let (explain, query) = (error_line("explain"), error_line("query"));
            assert!(
                explain.starts_with("error: unsupported by MR planners: "),
                "{approach}: {explain}"
            );
            assert_eq!(explain, query, "{approach}: explain and query disagree");
        }
        std::fs::remove_dir_all(dir).ok();
    }
}

#[test]
fn bad_usage_fails_cleanly() {
    let out = cli().args(["query", "--data"]).output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("needs a value"));

    let out = cli().args(["frobnicate"]).output().expect("spawn");
    assert!(!out.status.success());

    let out = cli().output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));

    // A flag the command does not read is refused by name, never dropped.
    let (dir, data, query) =
        bsbm_fixture("badusage", "5", "SELECT * WHERE { ?s <rdfs:label> ?l . }");
    for (args, want) in [
        (
            &["query", "--data", &data, "--query", &query, "--aproach", "pig"][..],
            "query does not take --aproach",
        ),
        (
            &["compare", "--data", &data, "--query", &query, "--approach", "pig"],
            "compare does not take --approach",
        ),
        (
            &["compare", "--data", &data, "--query", &query, "--limit", "3"],
            "compare does not take --limit",
        ),
        (&["stats", "--data", &data, "--no-solutions"], "stats does not take --no-solutions"),
        // Flags a command reads only in some combinations.
        (
            &["explain", "--query", &query, "--approach", "pig", "--data", "/nonexistent.nt"],
            "explain takes --data only with --approach auto-cost",
        ),
        (
            &["explain", "--query", &query, "--disk-factor", "0.001"],
            "explain takes --disk-factor only with --approach auto-cost",
        ),
        (
            &["explain", "--query", &query, "--approach", "hive", "--replication", "2"],
            "explain takes --replication only with --approach auto-cost",
        ),
        (
            &["query", "--data", &data, "--query", &query, "--no-solutions", "--limit", "3"],
            "query does not take --limit with --no-solutions",
        ),
        // `--limit` is parsed before the query runs, solutions or none.
        (&["query", "--data", &data, "--query", &query, "--limit", "abc"], "bad --limit"),
        (
            &["query", "--data", &data, "--query", &query, "--no-solutions", "--limit", "abc"],
            "bad --limit",
        ),
        (
            &["query", "--data", &data, "--query", &query, "--approach", "hive", "--limit", "-1"],
            "bad --limit",
        ),
    ] {
        let out = cli().args(args).output().expect("spawn");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(want) && stderr.contains("USAGE"), "{args:?}: {stderr}");
    }
    // A φ range on an approach that has none is refused, not dropped.
    let out = cli()
        .args(["query", "--data", &data, "--query", &query, "--approach", "eager:16"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("'eager' takes no φ range"));
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn unknown_approach_is_an_error() {
    let (dir, data, query) =
        bsbm_fixture("badapproach", "5", "SELECT * WHERE { ?s <rdfs:label> ?l . }");
    let out = cli()
        .args(["query", "--data", &data, "--query", &query, "--approach", "magic"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown approach"));
    std::fs::remove_dir_all(dir).ok();
}
