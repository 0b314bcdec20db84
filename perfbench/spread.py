#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each end-to-end metric's
median, quartiles and spread (interquartile range over median), beside the
bound BENCHMARK.json fixes for it.

Run from the repository root:

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--workloads a,b]
                                [--trace 0|1] [--out file.json]

Spreads are computed as `statistics.quantiles(values, n=4)` gives the
quartiles. A spread above a third of its bound is marked; `setup_s` is
exempt from the spread rule but is listed all the same.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    bench = json.loads(pathlib.Path("BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary = {"runs": args.runs, "first_seed": args.first_seed, "trace": args.trace, "workloads": {}}
    worst = 0.0
    for workload in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if out.returncode != 0 or not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: run failed or incorrect")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        rows = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name)
            rows[name] = {"median": median, "q1": q1, "q3": q3, "min": min(vals), "max": max(vals),
                          "spread": spread, "bound": bound, "values": vals}
            flag = ""
            if bound and name != "setup_s":
                worst = max(worst, spread / bound)
                flag = "  <-- above bound/3" if spread > bound / 3 else ""
            print(f"  {workload:<16} {name:<32} median {median:<14.6g} spread {spread:7.4f}"
                  f"  bound {bound}{flag}")
        summary["workloads"][workload] = rows
    print(f"largest spread/bound (setup_s excluded): {worst:.3f}")
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")


if __name__ == "__main__":
    main()
