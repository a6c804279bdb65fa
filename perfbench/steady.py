#!/usr/bin/env python3
"""Steadiness self-check of the benchmark.

Runs every workload (or the ones named with --workload) once per seed with
--trace 0, then repeats the first seed. For each end-to-end metric it prints
the median and the spread: the distance between the first and third
quartile (statistics.quantiles, n=4) as a share of the median. It fails when
a spread reaches its bound from BENCHMARK.json, when a run fails its output
checks, or when the repeated seed disagrees with the first run on the plan
fingerprint or an exact count. Each run's line also shows the
CPU time the host stole from this machine while it ran (Linux), which is
where most of the run-to-run spread of wall-clock metrics comes from on a
shared host.

Run from the repository root:

    python3 perfbench/steady.py --seeds 10
    python3 perfbench/steady.py --workload serve-zipf-updates --seeds 5
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time

EXACT = re.compile(r"perfbench: (plan fingerprint=.*|exact counts .*)")


def steal_ticks():
    """Returns the host's stolen CPU ticks so far, or None off Linux."""
    try:
        with open("/proc/stat") as f:
            return int(f.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def run(workload, seed, seconds):
    s0, t0 = steal_ticks(), time.time()
    proc = subprocess.run(
        ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    s1 = steal_ticks()
    if s0 is not None and s1 is not None:
        # Ticks are 1/100 s; the share is of one CPU, over the run's wall time.
        result["steal"] = (s1 - s0) / 100 / (time.time() - t0)
    return result, EXACT.findall(proc.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", help="workload to check (default: all)")
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = list(range(1, args.seeds + 1))

    ok = True
    for w in workloads:
        values = {name: [] for name in bounds}
        exact = {}
        for seed in seeds:
            result, counts = run(w, seed, bench["run_seconds"])
            if not result["correct"] or result["failed"]:
                print(f"{w} seed {seed}: {result['failed']} of {result['attempted']} operations failed")
                ok = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            exact[seed] = counts
            steal = f" steal={result['steal']:.2f}cpu" if "steal" in result else ""
            print(f"{w} seed {seed}: " + " ".join(
                f"{n}={result['metrics'][n]['value']:.6g}" for n in bounds) + steal, flush=True)
        _, again = run(w, seeds[0], bench["run_seconds"])
        if again != exact[seeds[0]]:
            print(f"{w} seed {seeds[0]}: repeat run disagrees: {again} vs {exact[seeds[0]]}")
            ok = False
        for name, xs in values.items():
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread >= bounds[name]:
                flag = "  SPREAD EXCEEDS BOUND"
                ok = False
            elif spread >= bounds[name] / 3:
                flag = "  (above a third of the bound)"
            print(f"{w:20s} {name:16s} median={med:.6g} spread={spread:.3f} bound={bounds[name]}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
