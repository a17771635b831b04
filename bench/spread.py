"""Run the benchmark on several seeds and report each metric's spread.

  python3 bench/spread.py --runs 10 [--workload NAME ...] [--trace 1]
                          [--write FILE]

For every workload it runs ``bench/run.py`` once per seed and prints, for
each end-to-end metric, the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median
next to a third of the metric's bound in BENCHMARK.json.  With
``--trace 1``, or a single run, it prints only the medians.
``--write`` merges the numbers into a baseline JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    header = next(json.loads(ln[len("# header "):]) for ln in lines
                  if ln.startswith("# header "))
    return {"header": header, "result": json.loads(lines[-1])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    baseline = {}
    if args.write and os.path.exists(args.write):
        with open(args.write, encoding="utf-8") as fh:
            baseline = json.load(fh)
    section = "per_layer" if args.trace else "end_to_end"
    steady = True
    for workload in args.workload or workloads.WORKLOADS:
        runs = [run_once(workload, seed, seconds, args.trace)
                for seed in range(1, args.runs + 1)]
        results = [r["result"] for r in runs]
        bad = [r for r in results if not r["correct"]]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"== {workload}: {len(runs)} runs, seeds 1..{args.runs}, "
              f"{len(bad)} not correct")
        print(f"failed_frac    {failed}/{attempted} = {failed / attempted:.6g} ratio")
        steady &= not bad
        entry = {}
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            if args.trace or len(values) < 2:     # no quartiles of one run
                entry[name] = {"median": median, "unit": first["unit"]}
                print(f"{name:<30} {median:.6g} {first['unit']}")
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            limit = bounds[name] / 3
            ok = spread < limit
            steady &= ok
            entry[name] = {"median": median, "q1": q1, "q3": q3,
                           "spread": spread, "unit": first["unit"],
                           "runs": len(values)}
            print(f"{name:<14} median {median:.6g} {first['unit']}  q1 {q1:.6g}"
                  f"  q3 {q3:.6g}  spread {spread:.4f}  (bound/3 {limit:.4f})"
                  f"{'' if ok else '  TOO WIDE'}")
        baseline.setdefault(section, {})[workload] = entry
        baseline.setdefault("header", runs[0]["header"])
    if args.write:
        baseline["run_seconds"] = seconds
        with open(args.write, "w", encoding="utf-8") as fh:
            json.dump(baseline, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
