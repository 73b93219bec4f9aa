#!/usr/bin/env python3
"""Build and run the canonical benchmark (see perfbench/README.md).

Run from the repository root:

  python3 perfbench/run.py --workload point_mem --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --smoke

The first form builds perfbench/gistbench.exe from source with dune and
runs one workload; the last line of its output is the JSON result. The
second runs every workload of BENCHMARK.json at tiny sizes, untraced and
traced, and checks that every metric named there is printed with its unit
and that every correctness check ran and passed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKS = [
    "no_io_under_latch",
    "repeatable_snapshot",
    "tree_check",
    "model",
    "restart_tree_check",
    "restart_committed_state",
]


def build():
    """Build the benchmark executable; returns its path."""
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("run.py: run from the repository root (no dune-project or lib/ here)")
    rel = os.path.relpath(HERE, os.getcwd())
    build_dir = os.environ.get("CARGO_TARGET_DIR") or "_build"
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", build_dir,
           "--profile", "release", f"./{rel}/gistbench.exe"]
    # Build output goes to stderr: stdout carries only benchmark results.
    r = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if r.returncode != 0:
        sys.exit(f"run.py: build failed ({r.returncode})")
    return os.path.join(build_dir, "default", rel, "gistbench.exe")


def run(exe, args, capture=False):
    return subprocess.run([exe] + args, stdout=subprocess.PIPE if capture else None,
                          text=True, timeout=900)


def smoke(exe):
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        for trace, wanted in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            p = run(exe, ["--workload", w["name"], "--seed", "1", "--seconds", "1",
                          "--trace", trace, "--tiny"], capture=True)
            lines = p.stdout.strip().splitlines()
            tag = f"{w['name']} --trace {trace}"
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                problems.append(f"{tag}: no JSON result line")
                continue
            if p.returncode != 0 or not result["correct"]:
                problems.append(f"{tag}: exit {p.returncode}, correct={result['correct']}")
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{tag}: result keys {sorted(result)}")
            for m in wanted:
                got = result["metrics"].get(m["name"])
                if got is None:
                    problems.append(f"{tag}: metric {m['name']} missing")
                elif got["unit"] != m["unit"]:
                    problems.append(f"{tag}: {m['name']} unit {got['unit']} != {m['unit']}")
            for c in CHECKS:
                if f"check {c}" not in "\n".join(lines):
                    problems.append(f"{tag}: check {c} did not run")
            print(f"smoke {tag}: {len(result['metrics'])} metrics, attempted {result['attempted']}")
    for p in problems:
        print("FAIL " + p)
    print("smoke ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", default="1")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--smoke", action="store_true", help="tiny run of every workload")
    a = ap.parse_args()
    exe = build()
    if a.smoke:
        return smoke(exe)
    if not a.workload:
        ap.error("--workload is required")
    return run(exe, ["--workload", a.workload, "--seed", a.seed, "--seconds", a.seconds,
                     "--trace", a.trace]).returncode


if __name__ == "__main__":
    sys.exit(main())
