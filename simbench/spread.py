#!/usr/bin/env python3
"""Run-to-run spread of the simulator benchmark.

Runs each workload N times through run.py, each time with the next seed, and
prints for every metric the median, the quartiles (statistics.quantiles with
n=4) and the interquartile range as a share of the median, next to the
metric's bound from BENCHMARK.json. Use it to set run lengths and bounds from
measurement.

Usage (from the root of a checkout):
  python3 simbench/spread.py [--runs 10] [--seed 1] [--trace 0|1]
                             [--workloads mega-cell,fleet] [--seconds S]
                             [--json out.json]
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: run.py exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan")}


def main(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seed-step", type=int, default=1000,
                   help="seed distance between runs (keeps seed sets apart)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--json", help="also write every measured value here")
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2")
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    report = {}
    for workload in args.workloads.split(","):
        values, failed = {}, 0
        for i in range(args.runs):
            result = run_once(workload, args.seed + i * args.seed_step,
                              args.seconds, args.trace)
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        report[workload] = {"failed": failed, "values": values}
        print(f"\n{workload}: {args.runs} runs, seeds {args.seed} + i * "
              f"{args.seed_step}, {failed} failed trials")
        print(f"  {'metric':28} {'median':>12} {'q1':>12} {'q3':>12}"
              f" {'iqr/med':>8} {'bound':>6}")
        for name, vals in values.items():
            s = summarize(vals)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and s["spread"] > bound / 3:
                flag = "  > bound/3"
            print(f"  {name:28} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g}"
                  f" {s['spread']:8.4f} {'' if bound is None else bound:>6}{flag}")
        sys.stdout.flush()
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
