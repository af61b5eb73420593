//! `perf --check A B`: do two sets of result lines agree within the
//! bounds `BENCHMARK.json` fixes? `A` is the base of every ratio.

use crate::json::Json;
use crate::measure::median;
use std::collections::BTreeMap;

/// A metric is exact when its unit is not a wall-clock, CPU or memory
/// reading: counts, bytes, simulated seconds and the DFS ratio repeat
/// bit for bit and are compared for equality, not against a bound.
fn is_exact(unit: &str) -> bool {
    !matches!(unit, "ms" | "s" | "1/s" | "MiB" | "%")
}

struct RunLine {
    workload: String,
    seed: u64,
    trace: bool,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// Parse a result file's lines; `path` only labels errors.
fn parse_runs(path: &str, text: &str) -> Result<Vec<RunLine>, String> {
    let mut runs = Vec::new();
    for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let at = |what: &str| format!("{path}:{}: no {what}", i + 1);
        let v = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let num = |key: &str| v.get(key).and_then(Json::as_f64).ok_or_else(|| at(key));
        let mut metrics = BTreeMap::new();
        for (name, m) in v.get("metrics").and_then(Json::as_obj).ok_or_else(|| at("metrics"))? {
            metrics.insert(
                name.clone(),
                m.get("value").and_then(Json::as_f64).ok_or_else(|| at(name))?,
            );
        }
        runs.push(RunLine {
            workload: v
                .get("workload")
                .and_then(Json::as_str)
                .ok_or_else(|| at("workload"))?
                .into(),
            seed: num("seed")? as u64,
            trace: num("trace")? != 0.0,
            failed: num("failed")? as u64,
            metrics,
        });
    }
    if runs.is_empty() {
        return Err(format!("{path}: no result lines"));
    }
    Ok(runs)
}

pub fn check(spec_path: &str, a_path: &str, b_path: &str) -> Result<bool, String> {
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let spec = Json::parse(&read(spec_path)?).map_err(|e| format!("{spec_path}: {e}"))?;
    compare(&spec, &parse_runs(a_path, &read(a_path)?)?, &parse_runs(b_path, &read(b_path)?)?)
}

/// Print one row per (workload, metric) and return whether every bound
/// and every exact metric held.
fn compare(spec: &Json, a: &[RunLine], b: &[RunLine]) -> Result<bool, String> {
    let list =
        |key: &str| spec.get(key).and_then(Json::as_arr).ok_or(format!("BENCHMARK.json: no {key}"));
    let text = |m: &Json, key: &str| -> Result<String, String> {
        m.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or(format!("BENCHMARK.json: no {key}"))
    };
    let mut ok = true;

    println!(
        "{:<16} {:<28} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "B vs A", "bound"
    );
    for w in list("workloads")? {
        let workload = text(w, "name")?;
        let values = |runs: &[RunLine], trace: bool, metric: &str| -> Vec<f64> {
            runs.iter()
                .filter(|r| r.workload == workload && r.trace == trace)
                .filter_map(|r| r.metrics.get(metric).copied())
                .collect()
        };
        let metrics = list("end_to_end")?
            .iter()
            .map(|m| (m, false))
            .chain(list("per_layer")?.iter().map(|m| (m, true)));
        for (m, trace) in metrics {
            let (name, unit) = (text(m, "name")?, text(m, "unit")?);
            let (va, vb) = (values(a, trace, &name), values(b, trace, &name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma };
            let bound = m.get("bound").and_then(Json::as_f64);
            let verdict = if is_exact(&unit) {
                // Exact metrics are compared run by run below; the row
                // shows the medians.
                if ma == mb {
                    "same"
                } else {
                    "differs"
                }
            } else if let Some(bound) = bound {
                let worse = if text(m, "better")? == "lower" { change } else { -change };
                if worse > bound {
                    ok = false;
                    "BREACH"
                } else {
                    "within"
                }
            } else {
                "-"
            };
            let bound = bound.map_or("-".into(), |b| format!("{:.0}%", b * 100.0));
            println!(
                "{workload:<16} {name:<28} {ma:>14.4} {mb:>14.4} {:>+8.2}% {bound:>7}  {verdict} (of A, {}+{} runs)",
                change * 100.0,
                va.len(),
                vb.len()
            );
        }
    }

    // Exact metrics must be identical wherever the inputs were: between
    // any two runs of one (workload, seed, trace), within and across sets.
    let units: BTreeMap<String, String> = list("end_to_end")?
        .iter()
        .chain(list("per_layer")?)
        .map(|m| Ok((text(m, "name")?, text(m, "unit")?)))
        .collect::<Result<_, String>>()?;
    let mut first: BTreeMap<(&str, u64, bool), &RunLine> = BTreeMap::new();
    for run in a.iter().chain(b) {
        if run.failed > 0 {
            println!(
                "FAILED OPS: {} seed {} has {} failed ops",
                run.workload, run.seed, run.failed
            );
            ok = false;
        }
        let base = *first.entry((&run.workload, run.seed, run.trace)).or_insert(run);
        for (name, value) in &run.metrics {
            let exact = units.get(name).is_some_and(|u| is_exact(u));
            if exact && base.metrics.get(name) != Some(value) {
                println!(
                    "NOT EXACT: {} seed {} {name}: {value} vs {:?}",
                    run.workload,
                    run.seed,
                    base.metrics.get(name)
                );
                ok = false;
            }
        }
    }
    println!("{}", if ok { "OK: the sets agree" } else { "FAIL: the sets do not agree" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{
        "workloads": [{"name": "w", "why": "test"}],
        "end_to_end": [{"name": "pass_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1},
                       {"name": "triples_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}],
        "per_layer": [{"name": "mrsim.jobs", "unit": "count", "better": "lower"}]}"#;

    fn line(trace: u8, metrics: &str) -> String {
        format!(r#"{{"workload":"w","seed":1,"trace":{trace},"failed":0,"metrics":{{{metrics}}}}}"#)
    }

    fn verdict(a: &[String], b: &[String]) -> bool {
        let runs = |lines: &[String]| parse_runs("test", &lines.join("\n")).unwrap();
        compare(&Json::parse(SPEC).unwrap(), &runs(a), &runs(b)).unwrap()
    }

    fn timing(ms: f64, tps: f64) -> String {
        line(
            0,
            &format!(
                r#""pass_ms_p50":{{"value":{ms},"unit":"ms"}},"triples_per_s":{{"value":{tps},"unit":"1/s"}}"#
            ),
        )
    }

    fn jobs(n: u64) -> String {
        line(1, &format!(r#""mrsim.jobs":{{"value":{n},"unit":"count"}}"#))
    }

    #[test]
    fn timings_within_bound_and_equal_counts_agree() {
        assert!(verdict(&[timing(100.0, 50.0), jobs(7)], &[timing(109.0, 46.0), jobs(7)]));
    }

    #[test]
    fn a_timing_past_its_bound_is_a_breach_in_either_direction() {
        assert!(!verdict(&[timing(100.0, 50.0)], &[timing(111.0, 50.0)]));
        assert!(!verdict(&[timing(100.0, 50.0)], &[timing(100.0, 44.0)]));
        assert!(verdict(&[timing(100.0, 50.0)], &[timing(50.0, 100.0)]));
    }

    #[test]
    fn a_count_that_moves_is_a_breach_even_within_one_set() {
        assert!(!verdict(&[jobs(7)], &[jobs(8)]));
        assert!(!verdict(&[jobs(7), jobs(8)], &[jobs(7)]));
    }
}
