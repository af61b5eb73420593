//! Smoke tests for the figure binaries: each must run to completion and
//! print the structural markers its paper exhibit is defined by. Keeps the
//! harness itself under `cargo test` coverage (the full outputs are
//! exercised manually / in EXPERIMENTS.md at release scale).

use std::process::Command;

fn run_fig(bin: &str) -> String {
    let out = Command::new(bin)
        .env("NTGA_SCALE", "small")
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).to_string()
}

#[test]
fn fig3_reports_grouping_counts() {
    let text = run_fig(env!("CARGO_BIN_EXE_fig3"));
    // The paper's table shape: every grouping appears, NTGA has 2MR/1FS.
    assert!(text.contains("SJ-per-cycle"));
    assert!(text.contains("Sel-SJ-first"));
    for q in ["Q1a", "Q1b", "Q2a", "Q2b", "Q3a", "Q3b"] {
        assert!(text.contains(q), "missing {q}");
    }
    assert!(text.contains("NTGA=2/1"), "NTGA must report 2 cycles / 1 full scan");
    assert!(text.contains("Sel-SJ-first=2/2"), "OS joins: 2 cycles / 2 scans");
    assert!(text.contains("Sel-SJ-first=3/3"), "OO joins: 3 cycles / 3 scans");
}

#[test]
fn fig9a_reproduces_failure_pattern() {
    let text = run_fig(env!("CARGO_BIN_EXE_fig9a"));
    assert!(text.contains("LazyUnnest completed all queries: true"));
    for expected_failure in ["B1/Pig", "B3/EagerUnnest", "B4/Hive"] {
        assert!(
            text.contains(expected_failure),
            "expected {expected_failure} in failed executions:\n{text}"
        );
    }
    assert!(!text.contains("B3/LazyUnnest"), "lazy must not fail B3");
}

#[test]
fn fig10_shows_flat_ntga_writes() {
    let text = run_fig(env!("CARGO_BIN_EXE_fig10"));
    for q in ["B1-3bnd", "B1-4bnd", "B1-5bnd", "B1-6bnd"] {
        assert!(text.contains(q), "missing {q}");
    }
    assert!(text.contains("write growth from 3 to 6 bound patterns"));
    // The paper's 80-86% less: accept anything above 60% at smoke scale.
    let reductions: Vec<f64> = text
        .lines()
        .filter(|l| l.contains("less than Hive ("))
        .filter_map(|l| l.split("writes ").nth(1)?.split('%').next()?.trim().parse().ok())
        .collect();
    assert_eq!(reductions.len(), 4, "{text}");
    for r in reductions {
        assert!(r > 60.0, "write reduction {r}% below the paper's regime");
    }
}

#[test]
fn fig11_shows_partial_unnest_dichotomy() {
    let text = run_fig(env!("CARGO_BIN_EXE_fig11"));
    assert!(text.contains("LazyUnnest(full)"));
    assert!(text.contains("LazyUnnest(phi_16)"));
    for q in ["B1", "B2", "B3"] {
        assert!(text.contains(q));
    }
}

#[test]
fn fig_optimizer_asserts_every_cell_in_process() {
    // Not a paper figure; run here so the binary's own assertions (cost
    // plan ≤ best hand-picked per query, same solutions, broadcast output
    // identical across worker counts) hold under `cargo test`.
    let text = run_fig(env!("CARGO_BIN_EXE_fig_optimizer"));
    assert!(
        text.contains("matched-or-beat the best hand-picked strategy in 27/27 cells"),
        "{text}"
    );
    let bcast = text.lines().find(|l| l.starts_with("broadcast join:")).expect("broadcast line");
    assert!(bcast.ends_with("bit-identical"), "{bcast}");
    // One plane: a row's query id is the catalog id, with no plane tag.
    let tagged: Vec<&str> = text.lines().filter(|l| l.contains('[')).collect();
    assert!(tagged.is_empty(), "{tagged:?}");
}

#[test]
fn fig3_trace_and_json_flags_emit_valid_json() {
    let dir = std::env::temp_dir();
    let trace = dir.join(format!("fig3-smoke-{}.trace.json", std::process::id()));
    let jsonl = trace.with_extension("jsonl");
    let rows_path = dir.join(format!("fig3-smoke-{}.rows.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_fig3"))
        .env("NTGA_SCALE", "small")
        .args(["--trace", trace.to_str().unwrap(), "--json", rows_path.to_str().unwrap()])
        .output()
        .expect("spawn fig3");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    // Chrome trace: one JSON document with "X" span events.
    let chrome = std::fs::read_to_string(&trace).unwrap();
    mrsim::trace::validate_json(&chrome).unwrap_or_else(|e| panic!("chrome trace invalid: {e}"));
    assert!(chrome.contains("\"traceEvents\""));
    assert!(chrome.contains("\"ph\":\"X\""));

    // JSONL event log: every line parses; workflow lifecycles present.
    let log = std::fs::read_to_string(&jsonl).unwrap();
    assert!(log.lines().count() > 50, "expected a rich event log");
    for line in log.lines() {
        mrsim::trace::validate_json(line).unwrap_or_else(|e| panic!("{line}: {e}"));
    }
    assert!(log.contains("\"event\":\"workflow_end\""));
    assert!(log.contains("\"event\":\"task_span\""));

    // Report rows: valid JSON carrying the headline counters.
    let rows = std::fs::read_to_string(&rows_path).unwrap();
    mrsim::trace::validate_json(&rows).unwrap_or_else(|e| panic!("rows invalid: {e}"));
    assert!(rows.contains("\"beta_expansion\""));
    assert!(rows.contains("\"sim_seconds\""));

    for p in [&trace, &jsonl, &rows_path] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn fig_binaries_reject_unknown_flags() {
    let out = Command::new(env!("CARGO_BIN_EXE_fig3"))
        .env("NTGA_SCALE", "small")
        .arg("--frobnicate")
        .output()
        .expect("spawn fig3");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown argument"));
}

#[test]
fn fig14_reports_redundancy_factor() {
    let text = run_fig(env!("CARGO_BIN_EXE_fig14"));
    assert!(text.contains("DBInfobox-like"));
    assert!(text.contains("BTC-09-like"));
    assert!(text.contains("redundancy factor"));
    for q in ["C1", "C2", "C3", "C4"] {
        assert!(text.contains(q));
    }
}
