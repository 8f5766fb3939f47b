#!/usr/bin/env python3
"""Runs every workload over several seeds and records the results.

Run from the repository root:

    python3 pipeline-bench/record.py --seeds 1-10 --out pipeline-bench/BASELINE.json

For each seed the workloads run one after another, so a drift of the
host's speed spreads over all of them instead of landing on one. Each
end-to-end metric is summarised as its median and its quartile spread
(Q3 - Q1 as a share of the median, quartiles as Python's
statistics.quantiles(values, n=4) gives them). One traced run per
workload (first seed) adds the per-layer metrics. The record holds
results and provenance only: command, date, commit, CPU count, pinning,
seeds and workload parameters. BENCHMARK.json declares the metrics, their
units, directions and bounds.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("record.py: %s failed (exit %d):\n%s" % (" ".join(argv), proc.returncode, proc.stderr))
    params = [l for l in proc.stderr.splitlines() if l.startswith("workload: ")]
    return json.loads(lines[-1]), lines[0], params[0][len("workload: "):] if params else None


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--out", help="write the record here (default: stdout)")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    command, seconds = bench["command"], bench["run_seconds"]
    values = {name: {} for name in names}
    record = {
        "declarations": "BENCHMARK.json",
        "command": " ".join(command) + " --workload <name> --seed <n> --seconds %d --trace <0|1>" % seconds,
        "date": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "commit": commit(),
        "nproc": os.cpu_count(),
        "pinning": "run.py pins every thread of a run to one CPU, the highest the process may use",
        "seeds": args.seeds,
        "parameters": {},
        "results": {},
        "per_layer": {},
        "fingerprints": {},
    }
    for seed in args.seeds:
        for name in names:
            result, fingerprint, record["parameters"][name] = run(command, name, seed, seconds, 0)
            if not result["correct"] or result["failed"]:
                sys.exit("record.py: %s seed %d: correct=%s failed=%d"
                         % (name, seed, result["correct"], result["failed"]))
            for metric, m in result["metrics"].items():
                values[name].setdefault(metric, []).append(m["value"])
            record["fingerprints"].setdefault(name, []).append(fingerprint)
            print("%s seed %d: %s" % (name, seed, fingerprint), file=sys.stderr)
    for name in names:
        rows = {}
        for spec in bench["end_to_end"]:
            v = values[name][spec["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
            med = statistics.median(v)
            rows[spec["name"]] = {"median": med, "q1": q1, "q3": q3,
                                  "spread": (q3 - q1) / med if med else 0.0, "values": v}
            print("%-12s %-20s median %-14.6g spread %.4f (bound %.2f)"
                  % (name, spec["name"], med, rows[spec["name"]]["spread"], spec["bound"]),
                  file=sys.stderr)
        record["results"][name] = rows
        result, fingerprint, _ = run(command, name, args.seeds[0], seconds, 1)
        if fingerprint != record["fingerprints"][name][0]:
            sys.exit("record.py: %s: traced fingerprint %s differs from untraced %s"
                     % (name, fingerprint, record["fingerprints"][name][0]))
        record["per_layer"][name] = {k: m["value"] for k, m in result["metrics"].items()}
    text = json.dumps(record, indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
