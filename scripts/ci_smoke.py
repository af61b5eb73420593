#!/usr/bin/env python3
"""CI smoke checks over the JSON the figure binaries emit.

usage: ci_smoke.py <check> [file...]

  trace      ROWS TRACE EVENTS     fig3 --json rows, Chrome trace, JSONL log
  chaos      ROWS                  fig_chaos --json rows
  profiler   PROFILES              fig_profile --profile document
  optimizer  ROWS                  fig_optimizer --json rows

Each check asserts and prints one `ok: ...` line; any failure is an
AssertionError (exit code 1).
"""

import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def trace(rows_path, trace_path, events_path):
    rows = load(rows_path)
    assert rows and all("sim_seconds" in r and "ops" in r for r in rows), rows[:1]
    chrome = load(trace_path)
    assert any(e.get("ph") == "X" for e in chrome["traceEvents"])
    with open(events_path) as f:
        events = [json.loads(line) for line in f]
    assert any(e.get("event") == "workflow_end" for e in events)
    print(f"ok: {len(rows)} rows, {len(chrome['traceEvents'])} chrome events, "
          f"{len(events)} log events")


def chaos(rows_path):
    rows = load(rows_path)
    sweep = [r for r in rows if r["query"] != "policy"]
    assert len(sweep) == 21, f"expected 7 regimes x 3 worker counts, got {len(sweep)}"
    base = [r for r in sweep if r["approach"] == "none/w1"][0]
    for r in sweep:
        assert r["ok"], r["approach"]
        assert (r["result_records"], r["result_bytes"]) == \
            (base["result_records"], base["result_bytes"]), \
            f"{r['approach']}: result differs from fault-free run"
        if not r["approach"].startswith("none/"):
            assert r["retry_seconds"] > 0 or r["speculative_tasks"] > 0, r["approach"]
            assert r["sim_seconds"] > base["sim_seconds"], r["approach"]
    # Corruption regimes: checksums must detect injections, and the
    # detection count is a pure function of the fault draws — identical
    # across worker counts within a regime.
    for regime in ("corrupt", "corrupt+faults"):
        cells = [r for r in sweep if r["approach"].startswith(regime + "/")]
        assert len(cells) == 3, f"{regime}: expected 3 worker counts"
        detected = {r["corruptions_detected"] for r in cells}
        assert detected != {0}, f"{regime}: no corruption detected"
        assert len(detected) == 1, \
            f"{regime}: detection count varies with workers: {detected}"
    policy = {r["approach"]: r for r in rows if r["query"] == "policy"}
    assert not policy["exhaust/failfast"]["ok"] and policy["exhaust/retrystage"]["ok"]
    assert policy["exhaust/retrystage"]["stage_retries"] > 0
    assert not policy["diskfull/failfast"]["ok"] and policy["diskfull/degrade"]["ok"]
    assert policy["diskfull/degrade"]["degraded"]
    print(f"ok: {len(sweep)} chaos cells bit-identical, recovery policies exercised")


def profiler(profiles_path):
    profiles = load(profiles_path)
    assert profiles, "no EXPLAIN ANALYZE profiles in the output"
    for p in profiles:
        ops = p["operators"]
        assert ops, f"{p['label']}: no operator rows"
        rec = p["reconciliation"]
        for key in ("actual_records", "actual_bytes", "actual_shuffle_bytes"):
            s = sum(o[key] for o in ops)
            assert s == rec[key], f"{p['label']}: {key} rows sum {s} != total {rec[key]}"
        s = sum(o["actual_seconds"] for o in ops)
        assert abs(s - rec["actual_seconds"]) <= 1e-6 * max(rec["actual_seconds"], 1.0), \
            f"{p['label']}: seconds rows sum {s} != total {rec['actual_seconds']}"
        qs = [o["q_error"] for o in ops if o["q_error"] is not None]
        if p["max_q_error"] is not None:
            assert abs(max(qs) - p["max_q_error"]) <= 1e-9, \
                f"{p['label']}: operator q-errors inconsistent with max_q_error"
    print(f"ok: {len(profiles)} profiles, plan-vs-actual reconciled to 1e-6")


def optimizer(rows_path):
    rows = load(rows_path)
    cells = {}
    for r in rows:
        if r["query"].startswith("bcast/"):
            continue
        cells.setdefault(r["query"], []).append(r)
    assert cells, "no optimizer cells in the report"
    wins = 0
    for qid, cell in cells.items():
        assert all(r["ok"] for r in cell), f"{qid}: a strategy failed"
        cost = [r for r in cell if r["approach"] == "CostBased"]
        hand = [r for r in cell if r["approach"] != "CostBased"]
        assert len(cost) == 1 and len(hand) == 5, f"{qid}: malformed cell"
        assert cost[0]["max_q_error"] is not None, \
            f"{qid}: CostBased row must carry max_q_error"
        best = min(r["sim_seconds"] for r in hand)
        assert cost[0]["sim_seconds"] <= best + 1e-9, \
            f"{qid}: cost plan {cost[0]['sim_seconds']}s behind best hand-picked {best}s"
        wins += cost[0]["sim_seconds"] < best - 1e-9
    bcast = {r["query"]: r for r in rows if r["query"].startswith("bcast/")}
    assert set(bcast) == {"bcast/w1", "bcast/w4", "bcast/w8"}, sorted(bcast)
    keys = {(r["result_records"], r["result_bytes"]) for r in bcast.values()}
    assert all(r["ok"] for r in bcast.values()) and len(keys) == 1, \
        f"broadcast output differs across worker counts: {keys}"
    print(f"ok: cost plan matched-or-beat best hand-picked in {len(cells)} cells "
          f"(strictly faster in {wins}); broadcast bit-identical across workers")


CHECKS = {
    "trace": (trace, 3),
    "chaos": (chaos, 1),
    "profiler": (profiler, 1),
    "optimizer": (optimizer, 1),
}


def main(argv):
    if len(argv) < 2 or argv[1] not in CHECKS:
        sys.exit(__doc__)
    check, arity = CHECKS[argv[1]]
    if len(argv) - 2 != arity:
        sys.exit(f"ci_smoke.py {argv[1]}: expected {arity} file argument(s)\n\n{__doc__}")
    check(*argv[2:])


if __name__ == "__main__":
    main(sys.argv)
