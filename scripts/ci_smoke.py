#!/usr/bin/env python3
"""CI smoke checks over the JSON the figure binaries emit.

usage: ci_smoke.py <check> <path>

  trace      DIR        every *.json and *.jsonl file `exhibits.py --keep DIR` left
  profiler   PROFILES   fig_profile --profile document

`trace` parses every document and every JSONL line with Python's json
module, a parser that is not the workspace's own, and checks each job of
each JSONL log from the consumer's side: its reduce `task_span` bytes sum
to its `job_end` shuffle_bytes, and `q_error` is null exactly when
`estimated_output_records` is. Both trace files render one recording, so
each `<fig>.trace.jsonl` must have its `<fig>.trace.json` beside it (and
the reverse), with one Chrome `"ph":"X"` bar on the job lane (tid 1) per
`job_span` line and one on a task lane (tid 8 and up) per `task_span` line. `profiler` checks, from the consumer's
side, that each profile's operator rows sum to its `reconciliation`
totals. Each check prints one `ok: ...` line; any failure
is an exception (exit code 1).
"""

import json
import os
import sys


def trace(directory):
    documents = lines = jobs = pairs = 0
    names = set(os.listdir(directory))
    for name in sorted(names):
        with open(os.path.join(directory, name)) as f:
            if name.endswith(".jsonl"):
                # Reduce task-span bytes per running job; a job attempt
                # that fails emits a job_start and nothing after it.
                reduce_bytes = {}
                kinds = {"job_span": 0, "task_span": 0}
                for line in f:
                    ev = json.loads(line)
                    lines += 1
                    kind = ev["event"]
                    if kind in kinds:
                        kinds[kind] += 1
                    if kind == "job_start":
                        reduce_bytes[ev["job"]] = 0
                    elif kind == "task_span" and ev["phase"] == "reduce":
                        reduce_bytes[ev["job"]] += ev["bytes"]
                    elif kind == "job_end":
                        where = f"{name}: job {ev['job']}"
                        spans = reduce_bytes.pop(ev["job"])
                        assert spans == ev["shuffle_bytes"], \
                            f"{where}: reduce spans carry {spans} bytes, shuffle_bytes " \
                            f"{ev['shuffle_bytes']}"
                        assert (ev["q_error"] is None) == \
                            (ev["estimated_output_records"] is None), \
                            f"{where}: q_error without an estimate, or the reverse"
                        jobs += 1
                if name.endswith(".trace.jsonl"):
                    chrome = name[:-1]
                    assert chrome in names, f"{name}: no {chrome} beside it"
                    with open(os.path.join(directory, chrome)) as c:
                        bars = [e for e in json.load(c)["traceEvents"] if e["ph"] == "X"]
                    drawn = {"job_span": sum(e["tid"] == 1 for e in bars),
                             "task_span": sum(e["tid"] >= 8 for e in bars)}
                    assert drawn == kinds, \
                        f"{chrome} draws {drawn} bars, {name} logs {kinds}"
                    pairs += 1
            elif name.endswith(".json"):
                if name.endswith(".trace.json"):
                    assert name + "l" in names, f"{name}: no {name}l beside it"
                json.load(f)
                documents += 1
    assert documents and lines and jobs and pairs, \
        f"no JSON documents, JSONL lines, jobs or trace pairs in {directory}"
    print(f"ok: {documents} JSON documents and {lines} JSONL lines parse; "
          f"{jobs} jobs' reduce spans sum to their shuffle bytes; "
          f"{pairs} Chrome traces draw their logs' job and task spans")


def profiler(profiles_path):
    with open(profiles_path) as f:
        profiles = json.load(f)
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


CHECKS = {"trace": trace, "profiler": profiler}


def main(argv):
    if len(argv) != 3 or argv[1] not in CHECKS:
        sys.exit(__doc__)
    CHECKS[argv[1]](argv[2])


if __name__ == "__main__":
    main(sys.argv)
