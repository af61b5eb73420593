//! The figures under test. The nine paper figures run in-process at
//! `Scale::Small`: every claim must hold, and each figure's rendered block
//! must be the one committed in `EXPERIMENTS.md`. The other tests run
//! binaries: `fig_optimizer`'s in-process asserts and the shared flags.

use ntga_bench::figure::{fig10, fig11, fig12, fig13, fig14, fig3, fig9a, fig9b, fig9c, Figure};
use ntga_bench::{BenchOpts, Scale};
use std::process::Command;

/// The nine paper figures, in the paper's order.
const FIGURES: [fn(Scale) -> Figure; 9] =
    [fig3, fig9a, fig9b, fig9c, fig10, fig11, fig12, fig13, fig14];

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
fn paper_figures_hold_their_claims_and_match_experiments_md() {
    let doc = include_str!("../../../EXPERIMENTS.md");
    let mut problems = Vec::new();
    for build in FIGURES {
        let figure = build(Scale::Small);
        let run = figure.run(&BenchOpts::default());
        problems
            .extend(run.verdicts().filter(|v| !v.holds()).map(|v| format!("{}: {v}", figure.id())));
        let (begin, end) =
            (format!("<!-- begin {} -->\n", figure.id()), format!("<!-- end {} -->", figure.id()));
        let committed = doc
            .split_once(&begin)
            .and_then(|(_, rest)| rest.split_once(&end))
            .map(|(block, _)| block);
        let fresh = run.markdown();
        if committed != Some(fresh.as_str()) {
            println!("{begin}{fresh}{end}\n");
            problems.push(format!(
                "{}: EXPERIMENTS.md's block differs from the one printed above",
                figure.id()
            ));
        }
    }
    assert!(problems.is_empty(), "{}", problems.join("\n"));
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
fn fig_binaries_print_usage_only_for_flag_errors() {
    let dir = std::env::temp_dir().join(format!("fig3-trace-dir-{}.json", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let run = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_fig3"))
            .env("NTGA_SCALE", "small")
            .args(args)
            .output()
            .expect("spawn fig3");
        (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
    };
    let (unwritable, bogus) = (run(&["--trace", dir.to_str().unwrap()]), run(&["--bogus"]));
    let _ = std::fs::remove_file(dir.with_extension("jsonl"));
    let _ = std::fs::remove_dir(&dir);

    let (code, stderr) = unwritable;
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.starts_with("error: writing trace file"), "{stderr}");
    assert!(!stderr.contains("usage:"), "an I/O error is not a flag error: {stderr}");
    let (code, stderr) = bogus;
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown argument `--bogus`") && stderr.contains("usage: fig<N>"));
}
