#!/usr/bin/env python3
"""Runs one workload N times with different seeds and reports, per metric,
the median, the quartiles and the spread (Q3 - Q1) / median next to the
metric's bound in BENCHMARK.json.

    python3 stackbench/steady.py --workload olap --runs 10 [--seed0 1]
        [--seconds <s>] [--trace 0|1]

Run from the repository root. Every run's result line is appended to
stackbench/work/steady-<workload>.jsonl, its log goes to
stackbench/work/steady-<workload>-<seed>.log.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", default="0")
    a = ap.parse_args()
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    spec = json.load(open(spec_path)) if os.path.exists(spec_path) else {}
    seconds = a.seconds or spec.get("run_seconds", 10)
    bounds = {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}

    os.makedirs(os.path.join(HERE, "work"), exist_ok=True)
    log_path = os.path.join(HERE, "work", "steady-%s.jsonl" % a.workload)
    results = []
    for i in range(a.runs):
        seed = a.seed0 + i
        t0 = time.time()
        err_path = os.path.join(HERE, "work", "steady-%s-%d.log" % (a.workload, seed))
        with open(err_path, "w") as err:
            p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", a.workload,
                                "--seed", str(seed), "--seconds", str(seconds), "--trace", a.trace],
                               cwd=ROOT, stdout=subprocess.PIPE, stderr=err)
        lines = p.stdout.decode("utf-8", "replace").strip().splitlines()
        wall = time.time() - t0
        if p.returncode != 0 or not lines:
            print("seed %d: exit %d after %.0f s" % (seed, p.returncode, wall))
            continue
        r = json.loads(lines[-1])
        r["seed"] = seed
        r["wall_s"] = wall
        results.append(r)
        with open(log_path, "a") as f:
            f.write(json.dumps(r) + "\n")
        print("seed %d: %.0f s, correct=%s attempted=%d failed=%d  %s" % (
            seed, wall, r["correct"], r["attempted"], r["failed"],
            " ".join("%s=%.6g" % (k, v["value"]) for k, v in r["metrics"].items())), flush=True)
    if len(results) < 2:
        sys.exit("fewer than two successful runs")

    print("\n%-34s %12s %12s %12s %8s %6s  %s" % ("metric", "median", "Q1", "Q3", "spread", "bound", "ok"))
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        ok = "-" if bound is None else ("yes" if spread < bound / 3 else "NO")
        print("%-34s %12.6g %12.6g %12.6g %7.1f%% %6s  %s" % (
            name, med, q1, q3, spread * 100, "-" if bound is None else "%.2f" % bound, ok))
    shares = {r["failed"] / r["attempted"] for r in results}
    print("\nfailed/attempted: %s; correct in every run: %s; wall per run: %.0f s (median)" % (
        sorted(shares), all(r["correct"] for r in results),
        statistics.median(r["wall_s"] for r in results)))


if __name__ == "__main__":
    main()
