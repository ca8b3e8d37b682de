#!/usr/bin/env python3
"""Steadiness check and baseline recorder for the benchmark.

    python3 perfbench/steady.py --runs 10 --trace --out perfbench/baseline.json

Runs every workload of BENCHMARK.json once per seed, with seeds
1 .. runs, for its run_seconds, and reports for each end-to-end
metric its median, quartiles and spread (interquartile distance as a share
of the median) against the metric's bound.  --trace adds one traced run
per workload.  Run from the root of a source checkout.
"""

import argparse
import json
import os
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402


def run_once(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace",
                              str(trace)]
    t0 = time.monotonic()
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    wall = time.monotonic() - t0
    if r.returncode != 0:
        sys.exit("steady: %s seed %d exited with %d" % (workload, seed,
                                                        r.returncode))
    lines = r.stdout.strip().splitlines()
    record = next((json.loads(x)["record"] for x in lines
                   if x.startswith('{"record"')), {})
    record["wall_s"] = wall
    return json.loads(lines[-1]), record


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = list(range(1, 1 + args.runs))

    report = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    steady = True
    for w in names:
        rows, walls = [], []
        for seed in seeds:
            result, record = run_once(bench, w, seed, seconds, 0)
            rows.append(result)
            walls.append(record["wall_s"])
            print("%s seed %d: correct=%s attempted=%d failed=%d wall %.1fs"
                  % (w, seed, result["correct"], result["attempted"],
                     result["failed"], record["wall_s"]), file=sys.stderr,
                  flush=True)
        entry = {"stamp": record.get("stamp"), "run_wall_s": walls,
                 "correct": all(r["correct"] for r in rows),
                 "error_rate": sum(r["failed"] for r in rows) /
                 sum(r["attempted"] for r in rows), "metrics": {}}
        steady &= entry["correct"]
        for name in rows[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in rows]
            q1, med, q3 = stats.quartiles(vals)
            spread = stats.spread(vals)
            ok = spread < bounds[name] / 3
            steady &= ok
            entry["metrics"][name] = {
                "unit": rows[0]["metrics"][name]["unit"], "median": med,
                "q1": q1, "q3": q3, "spread": spread,
                "bound": bounds[name], "values": vals}
            print("  %-16s median %-12.6g spread %.4f bound %.2f%s" % (
                name, med, spread, bounds[name], "" if ok else "  WIDE"),
                file=sys.stderr)
        if args.trace:
            result, record = run_once(bench, w, seeds[0], seconds, 1)
            entry["traced"] = {"seed": seeds[0], "correct": result["correct"],
                               "run_wall_s": record["wall_s"],
                               "metrics": {k: v["value"] for k, v in
                                           result["metrics"].items()}}
            steady &= result["correct"]
        report["workloads"][w] = entry
    report["steady"] = steady
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    print("steady" if steady else "NOT steady", file=sys.stderr)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
