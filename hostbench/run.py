#!/usr/bin/env python3
"""Host-wall benchmark of the o2k simulator.

    python3 hostbench/run.py --workload nbody-sas --seed 1 --seconds 15 --trace 0

Builds the benchmark (and the simulator sources it compiles) on first use,
runs one workload, verifies every simulated run and prints its metrics.
The last line of stdout is one JSON object.  With --trace 0 it carries the
end-to-end metrics, with --trace 1 the per-layer ones.  See README.md.
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
# Each timed process sets up once and measures its share of --seconds;
# setup_s and peak_rss_mb are medians over the processes.
TIMED_PROCESSES = 5
# Every process must end well inside the 180 s a benchmark run may take.
DEADLINE_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure and build the benchmark; returns the binary's path."""
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "hostbench")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "hostbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("hostbench: build failed:", " ".join(cmd))
            sys.exit(1)
    return out


def child(cmd, deadline):
    """Run one benchmark process; returns its JSON result or exits."""
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("hostbench: timed out:", " ".join(cmd))
        sys.exit(1)
    if p.returncode != 0:
        sys.exit(p.returncode)
    return json.loads(p.stdout.strip().splitlines()[-1])


def header(r, args):
    print(f"hostbench  workload={args.workload} seed={args.seed} host_cores={r['host_cores']} "
          f"workers={r['workers']} backend={r['backend']} build={r['build_type']}")
    if r["host_cores"] < 4:
        print("WARNING: fewer than 4 host cores; these numbers do not count (ROADMAP)")


def report(attempted, failed, errors, metrics):
    for e in errors:
        print("FAILED:", e)
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_rate':28s} {failed / attempted:>14.6g} ratio"
          f"  ({failed} failed of {attempted} attempted)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def timed(binary, args, deadline):
    runs = []
    for _ in range(TIMED_PROCESSES):
        spawn = time.monotonic_ns()
        runs.append(child([binary, "--mode=timed", f"--workload={args.workload}",
                           f"--seed={args.seed}", f"--seconds={args.seconds / TIMED_PROCESSES}",
                           f"--spawn-ns={spawn}"], deadline))
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    errors = [e for r in runs for e in r["errors"]]
    # Every process must reproduce the first one's virtual time bit for bit.
    for r in runs[1:]:
        if r["makespan"] != runs[0]["makespan"]:
            failed += r["attempted"] - r["failed"]
            errors.append(f"makespan {r['makespan']} differs across processes "
                          f"from {runs[0]['makespan']}")
    walls = [w for r in runs for w in r["wall_s"]]
    cpus = [c for r in runs for c in r["cpu_s"]]
    header(runs[0], args)
    print(f"  {len(walls)} timed runs in {len(runs)} processes")
    metrics = {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
        "setup_s": {"value": statistics.median(r["setup_s"] for r in runs), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r["maxrss_kb"] for r in runs) / 1024,
                        "unit": "MiB"},
    }
    report(attempted, failed, errors, metrics)


def traced(binary, args, build_dir, deadline):
    r = child([binary, "--mode=traced", f"--workload={args.workload}", f"--seed={args.seed}",
               f"--tmp={os.path.join(build_dir, 'session')}"], deadline)
    header(r, args)
    report(r["attempted"], r["failed"], r["errors"], r["metrics"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["nbody-sas", "nbody-mp", "dht-mp", "mesh-shmem"])
    ap.add_argument("--seed", type=int, default=20000101)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    build_dir = build()
    deadline = time.monotonic() + DEADLINE_S
    binary = os.path.join(build_dir, "hostbench")
    if args.trace:
        traced(binary, args, build_dir, deadline)
    else:
        timed(binary, args, deadline)


if __name__ == "__main__":
    main()
