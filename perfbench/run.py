#!/usr/bin/env python3
"""Repository benchmark: builds perfbench and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload train-hybrid --seed 1 --seconds 30 --trace 0

Workloads, their sizes and the reasoning behind every metric are in
perfbench/spec.json; metric names, units and regression bounds are in
BENCHMARK.json. The library is built from this checkout in Release mode
into $CARGO_TARGET_DIR (default .bench_build). The last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1). The lines before it are a readable report:
the metrics under the names they have on this workload, the output
checks and the host provenance. A traced run also writes its spans to
$CARGO_TARGET_DIR/scratch/spans-<workload>.csv. The exit code is nonzero
when the build fails or any output check fails.

Multi-seed mode, for the run-to-run spread of every end-to-end metric and
of the raw log-loss:

    python3 perfbench/run.py --workload train-raw --seeds 1,2,3,4,5
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_TIMEOUT_S = 170


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds the perfbench target; returns its path."""
    out = build_dir()
    log = sys.stderr
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=log, stderr=log)
    subprocess.run(["cmake", "--build", out, "--target", "perfbench", "-j", "4"],
                   check=True, stdout=log, stderr=log)
    return os.path.join(out, "perfbench")


def workload_args(spec, workload, tiny):
    args = dict(spec["workloads"][workload]["args"])
    if tiny:
        args.update(spec["tiny"]["args"])
    flags = []
    for key, value in args.items():
        flags += ["--" + key, str(value)]
    return flags


def run_binary(binary, spec, workload, seed, seconds, trace, tiny=False):
    """Runs one workload; returns (full record or None, exit code)."""
    scratch = os.path.join(build_dir(), "scratch")
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--scratch", scratch] + workload_args(spec, workload, tiny)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                          timeout=WORKLOAD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    record = None
    if lines and lines[-1].startswith("{"):
        record = json.loads(lines[-1])
    return record, proc.returncode


def contract_metrics(record, bench, trace):
    """The BENCHMARK.json metrics for this mode, and the end-to-end ones
    the record lacks. A per-layer metric the workload does not produce
    belongs to a layer that is idle on it: 0. A missing end-to-end metric
    is also reported as 0, and the caller marks the run failed."""
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    have = record["metrics"] if record else {}
    out = {}
    missing = []
    for m in wanted:
        if m["name"] in have:
            value = have[m["name"]]["value"]
        else:
            value = 0.0
            if not trace:
                missing.append(m["name"])
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out, missing


def contract_line(record, code, bench, trace):
    """The last line of output. A run that printed no record, exited
    nonzero or lacks an end-to-end metric is reported as failed."""
    metrics, missing = contract_metrics(record, bench, trace)
    if record is None:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": metrics}
    attempted = max(1, int(record["attempted"]))
    failed = int(record["failed"])
    correct = bool(record["correct"]) and code == 0 and not missing
    if not correct:
        failed = max(1, failed)
    return {"correct": correct, "attempted": attempted, "failed": min(failed, attempted),
            "metrics": metrics}


def family(workload):
    return "serve" if workload.startswith("serve") else "train"


def report(record, spec, bench, trace):
    """Readable report: metrics under their per-workload names, checks,
    provenance."""
    fam = family(record["workload"])
    metrics = record["metrics"]
    lines = ["perfbench %s seed=%s trace=%s  attempted=%d failed=%d correct=%s" % (
        record["workload"], record["seed"], record["trace"], record["attempted"],
        record["failed"], record["correct"])]
    prov = record["provenance"]
    lines.append("host: nproc=%s simd=%s compiler=%s build=%s" % (
        prov["nproc"], prov["simd"], prov["compiler"], prov["build_type"]))
    if not trace:
        e2e = spec["end_to_end"]
        for m in bench["end_to_end"]:
            meaning = e2e[m["name"]].get(fam) or e2e[m["name"]]["all"]
            if m["name"] not in metrics:
                lines.append("  %-22s   missing (%s)" % (meaning["as"], m["name"]))
                continue
            lines.append("  %-22s = %-14.6g %-10s (%s)" % (
                meaning["as"], metrics[m["name"]]["value"], meaning["unit"], m["name"]))
        for name, text in e2e["also_printed"].items():
            if name in metrics:
                lines.append("  %-22s = %-14.6g %-10s (%s)" % (
                    text.split(" ")[0], metrics[name]["value"], metrics[name]["unit"], name))
        for name in ("step_samples", "latency_samples", "tail_percentile", "trials", "rounds"):
            if name in metrics:
                lines.append("  %-22s = %g" % (name, metrics[name]["value"]))
    else:
        for m in bench["per_layer"]:
            value = metrics[m["name"]]["value"] if m["name"] in metrics else 0.0
            lines.append("  %-34s = %-14.6g %s" % (m["name"], value, m["unit"]))
    for c in record["checks"]:
        lines.append("  check %-28s %s  %s" % (c["name"], "ok" if c["ok"] else "FAILED",
                                             c["detail"]))
    return "\n".join(lines)


# Raw log-losses, reported beside the end-to-end metrics in multi-seed mode.
LOSSES = ("eval_logloss", "serve_logloss")


def multi_seed(binary, spec, bench, workload, seeds, seconds):
    """Runs each seed untraced and reports the median and quartile spread
    (Q3 - Q1) / median of every end-to-end metric and the raw log-loss."""
    values = {m["name"]: [] for m in bench["end_to_end"]}
    ok = True
    for seed in seeds:
        record, code = run_binary(binary, spec, workload, seed, seconds, 0)
        if record is None or code != 0:
            ok = False
            print("seed %d: failed (exit %d)" % (seed, code))
            continue
        metrics, missing = contract_metrics(record, bench, 0)
        if missing:
            ok = False
            print("seed %d: no value for %s" % (seed, ", ".join(missing)))
            continue
        got = {k: v["value"] for k, v in metrics.items()}
        got.update({k: record["metrics"][k]["value"] for k in LOSSES if k in record["metrics"]})
        print("seed %d: " % seed + " ".join("%s=%.6g" % kv for kv in got.items()), flush=True)
        for k, v in got.items():
            values.setdefault(k, []).append(v)
    summary = {}
    for name, vals in values.items():
        if len(vals) >= 2:
            q = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            summary[name] = {"median": med, "spread": (q[2] - q[0]) / med if med else 0.0,
                             "n": len(vals)}
    for name, s in summary.items():
        print("  %-18s median %-12.6g spread %.4f (n=%d)" % (name, s["median"], s["spread"],
                                                          s["n"]))
    print(json.dumps({"workload": workload, "seeds": seeds, "ok": ok, "spread": summary}))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seeds", default=None, help="comma list: multi-seed spread mode")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    spec = load_json(os.path.join(HERE, "spec.json"))
    if args.workload not in spec["workloads"]:
        print("error: unknown workload " + args.workload, file=sys.stderr)
        return 2
    seconds = args.seconds or (spec["tiny"]["seconds"] if args.tiny else bench["run_seconds"])
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print("error: build failed: %s" % e, file=sys.stderr)
        return 1

    if args.seeds:
        seeds = [int(s) for s in args.seeds.split(",")]
        return multi_seed(binary, spec, bench, args.workload, seeds, seconds)

    seed = spec["seeds"]["default"] if args.seed is None else args.seed
    try:
        record, code = run_binary(binary, spec, args.workload, seed, seconds, args.trace,
                                  args.tiny)
    except (subprocess.TimeoutExpired, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        record, code = None, 1
    if record is None:
        print("error: perfbench exited %d without a result" % code, file=sys.stderr)
    else:
        print(report(record, spec, bench, args.trace))
    line = contract_line(record, code, bench, args.trace)
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
