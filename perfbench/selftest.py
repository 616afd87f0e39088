#!/usr/bin/env python3
"""Smoke test of the benchmark itself. Run from the repository root:

    python3 perfbench/selftest.py

Builds perfbench, then runs every workload of BENCHMARK.json at the tiny
sizes of spec.json, untraced and traced, and asserts that:
  - every output check passes and the contract line is well formed;
  - every end-to-end metric is produced with its BENCHMARK.json unit;
  - every per-layer metric whose spec.json 'on' list names the workload
    is produced by it (not filled in as idle) with its unit;
  - on the training workloads the traced replay's wire CRC and simulated
    makespan equal the untraced trainer's, and every value the replay
    decompressed stayed within its bound.
Exits 1 listing every failure.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

REPLAY_CHECKS = ("replay_wire_crc_matches", "replay_makespan_matches",
                 "replay_values_within_bound")


def check_workload(binary, bench, spec, workload, trace):
    where = "%s trace=%d" % (workload, trace)
    record, code = run.run_binary(binary, spec, workload, spec["seeds"]["default"],
                                  spec["tiny"]["seconds"], trace, tiny=True)
    if record is None:
        return [where + ": no result (exit %d)" % code]
    failures = []
    for c in record["checks"]:
        if not c["ok"]:
            failures.append("%s: check %s failed: %s" % (where, c["name"], c["detail"]))
    if code != 0:
        failures.append("%s: exit code %d" % (where, code))
    produced = record["metrics"]
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    for m in wanted:
        name = m["name"]
        expected_here = not trace or workload in spec["per_layer"][name]["on"]
        if name not in produced:
            if expected_here:
                failures.append("%s: metric %s not printed" % (where, name))
            continue
        if produced[name]["unit"] != m["unit"]:
            failures.append("%s: metric %s has unit %s, BENCHMARK.json says %s" % (
                where, name, produced[name]["unit"], m["unit"]))
    line = run.contract_line(record, code, bench, trace)
    if not line["correct"] or set(line["metrics"]) != {m["name"] for m in wanted}:
        failures.append("%s: contract line: %s" % (where, json.dumps(line)))
    if trace and workload.startswith("train"):
        names = {c["name"] for c in record["checks"]}
        for c in REPLAY_CHECKS:
            if c not in names:
                failures.append("%s: replay check %s missing" % (where, c))
    print("%-24s %s" % (where, "ok" if not failures else "FAILED"), flush=True)
    return failures


def main():
    bench = run.load_json(os.path.join(run.ROOT, "BENCHMARK.json"))
    spec = run.load_json(os.path.join(run.HERE, "spec.json"))
    binary = run.build()
    failures = []
    for w in bench["workloads"]:
        for trace in (0, 1):
            failures += check_workload(binary, bench, spec, w["name"], trace)
    for f in failures:
        print("FAIL " + f)
    print("selftest: %s" % ("passed" if not failures else "%d failures" % len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
