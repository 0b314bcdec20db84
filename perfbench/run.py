#!/usr/bin/env python3
"""Builds and runs the AVMON simulator benchmark (see README.md).

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --check [--seed <n>] [--seconds <s>]

The first form runs one workload and prints its metrics; the last line of
standard output is the JSON result. `--check` runs the benchmark's own
tests, then every workload untraced and traced on `--seed` and untraced on
the held-out seed, and fails unless every run is correct and the traced and
untraced runs of a seed produce the same report digest.

The program is built from source with cargo into $CARGO_TARGET_DIR
(default: .bench_build).
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

WORKLOADS = ["stat_10k", "churn_apps_2k", "faults_query_2k"]
# A seed kept out of tuning, so that a claim can be confirmed on a seed not
# used while making it.
HELD_OUT_SEED = 7_340_033
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def target_dir(root):
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return target if target.is_absolute() else root / target


def cargo(root, *args, timeout=BUILD_TIMEOUT_S):
    """Runs a cargo command on the benchmark package; its output goes to stderr."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir(root)))
    manifest = root / "perfbench" / "Cargo.toml"
    cmd = ["cargo", *args, "--release", "--offline", "--manifest-path", str(manifest)]
    try:
        return subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        fail(f"cargo {args[0]} did not finish within {timeout} s")


def build(root):
    if not (root / "crates" / "sim" / "Cargo.toml").is_file():
        fail("run from the repository root: the simulator sources (crates/) are not here", 2)
    if cargo(root, "build") != 0:
        fail("build failed")
    return target_dir(root) / "release" / "perfbench"


def commit(root):
    """The checked-out commit, or "unknown" outside a git checkout."""
    if not (root / ".git").exists():
        return "unknown"
    out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run(root, binary, workload, seed, seconds, trace):
    """Runs one benchmark process; returns its exit code and standard output."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--commit", commit(root)]
    if trace:
        spans = target_dir(root) / "perfbench" / f"spans-{workload}-{seed}.json"
        cmd += ["--spans-out", str(spans)]
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    return proc.returncode, proc.stdout


def parse(stdout):
    """The JSON result (last line) and the report digest of a run's output."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    digest = next((l.split()[-1] for l in lines if l.startswith("digest ")), None)
    return result, digest


def check(root, binary, seed, seconds):
    if cargo(root, "test") != 0:
        fail("the benchmark's self-tests failed")
    problems = []
    for workload in WORKLOADS:
        digests = {}
        for run_seed, trace in [(seed, 0), (seed, 1), (HELD_OUT_SEED, 0)]:
            label = f"{workload} seed {run_seed} trace {trace}"
            print(f"== {label}", flush=True)
            code, stdout = run(root, binary, workload, run_seed, seconds, trace)
            print(stdout, end="", flush=True)
            result, digest = parse(stdout) if code == 0 else (None, None)
            if result is None or not result["correct"] or result["failed"]:
                problems.append(f"{label}: not correct")
            digests[(run_seed, trace)] = digest
        if digests[(seed, 0)] != digests[(seed, 1)]:
            problems.append(f"{workload}: traced and untraced digests differ: {digests}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print("check passed" if not problems else "check failed")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args()
    if not args.check and args.workload is None:
        parser.error("give --workload or --check")
    root = pathlib.Path.cwd()
    binary = build(root)
    if args.check:
        return check(root, binary, args.seed, args.seconds)
    code, stdout = run(root, binary, args.workload, args.seed, args.seconds, args.trace)
    print(stdout, end="", flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
