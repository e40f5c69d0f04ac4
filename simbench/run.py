#!/usr/bin/env python3
"""Simulator benchmark entry point.

Builds the simulator and the simbench binary from source (Release), runs one
workload in rounds of single-threaded simbench processes of its own and prints,
as the last line of standard output, one JSON object:

  {"correct": bool, "attempted": trials, "failed": failed trials,
   "metrics": {name: {"value": v, "unit": u}, ...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 they are its per-layer metrics, taken from one more, traced process
that runs the same seeds. Every digest of a seed must agree.

Usage:
  python3 simbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR/simbench
(default .bench_build/simbench). See simbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("mega-cell", "hifi-contended", "fleet", "mesos-offers")
# Each simbench process must end well inside the benchmark's 180 s limit.
PROCESS_TIMEOUT_S = 60
BUILD_TIMEOUT_S = 840
# A timed run is a series of rounds, one simbench process each, that runs every
# seed once; rounds go on while the next one is expected to end within
# --seconds. Fresh processes give independent samples of where memory lands.
MIN_ROUNDS = 3
MAX_ROUNDS = 50


class BenchError(Exception):
    pass


def log(msg):
    print(f"simbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build") / "simbench"


def build():
    """Configures (once) and builds the simbench binary; returns its path."""
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            raise BenchError(f"build step {cmd[:2]} failed: {e}") from e
        if proc.returncode != 0:
            raise BenchError(f"build step {cmd[:2]} exited {proc.returncode}")
    binary = out / "simbench"
    if not binary.exists():
        raise BenchError("build produced no simbench binary")
    return binary


def run_simbench(binary, args, extra):
    """Runs one simbench process; returns (digests, failures, summary).

    digests maps each seed to the digests of all its repetitions."""
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed)]
    cmd += extra
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PROCESS_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"simbench did not finish: {e}") from e
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"simbench exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("simbench printed nothing")
    try:
        summary = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        raise BenchError(f"unparsable simbench summary: {e}") from e
    digests, failures = {}, {}
    for line in lines[:-1]:
        kind, _, rest = line.partition(" ")
        seed, _, body = rest.partition(" ")
        if kind == "digest":
            digests.setdefault(int(seed), []).append(body)
        elif kind == "fail":
            failures.setdefault(int(seed), []).append(body)
    return digests, failures, summary


def timed_rounds(binary, args):
    """Runs rounds until --seconds is used up; returns (digests, failures,
    summary) merged over the rounds."""
    start = time.monotonic()
    digests, failures, rows, rss = {}, {}, [], 0.0
    rounds = 0
    while rounds < MIN_ROUNDS or (
            rounds < MAX_ROUNDS
            and (time.monotonic() - start) * (rounds + 1) / rounds <= args.seconds):
        d, f, summary = run_simbench(binary, args, ["--seconds", str(args.seconds)])
        for seed, v in d.items():
            digests.setdefault(seed, []).extend(v)
        for seed, v in f.items():
            failures.setdefault(seed, []).extend(v)
        rows += summary["trials"]
        rss = max(rss, summary["peak_rss_mb"])
        rounds += 1
    merged = {"seeds": summary["seeds"], "reps": rounds, "trials": rows,
              "peak_rss_mb": rss}
    return digests, failures, merged


def per_seed(summary, column, reduce):
    """Reduces one timing column over each seed's repetitions."""
    by_seed = {}
    for row in summary["trials"]:
        by_seed.setdefault(row[0], []).append(row[column])
    return {seed: reduce(v) for seed, v in by_seed.items()}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**63 or not 1 <= args.seconds <= 600:
        p.error("--seed must be in [0, 2^63) and --seconds in [1, 600]")
    return args


def main(argv):
    args = parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        kind = "per_layer" if args.trace else "end_to_end"
        wanted = {m["name"]: m["unit"] for m in spec[kind]}
    except (OSError, ValueError, KeyError, TypeError) as e:
        log(f"cannot read metric list from BENCHMARK.json: {e}")
        return 1
    try:
        binary = build()
        timed = timed_rounds(binary, args)
        runs = [timed]
        if args.trace:
            spans = build_dir() / f"spans-{args.workload}-{args.seed}.json"
            seeds = str(timed[2]["seeds"])
            runs.append(run_simbench(binary, args, ["--seeds", seeds, "--traced",
                                                  "--spans-out", str(spans)]))
    except BenchError as e:
        log(str(e))
        return 1

    # A trial fails when a check fails, or when its repetitions or its traced
    # run do not all print the same digest.
    summary = timed[2]
    expected = set(range(args.seed, args.seed + summary["seeds"]))
    digests, failed = {}, set()
    for run_digests, run_failures, run_summary in runs:
        for seed, reasons in run_failures.items():
            log(f"trial {seed} failed: {'; '.join(reasons)}")
            failed.add(seed)
        if set(run_digests) != expected or any(
                len(d) != run_summary["reps"] for d in run_digests.values()):
            log("simbench printed a digest count that does not match its trials")
            return 1
        for seed, ds in run_digests.items():
            digests.setdefault(seed, set()).update(ds)
    for seed, ds in digests.items():
        if len(ds) != 1:
            log(f"trial {seed}: repetitions or traced run printed other digests")
            failed.add(seed)

    if args.trace:
        traced = runs[1][2]
        values = dict(traced["layers"])
        values["trace.overhead_s"] = (
            sum(per_seed(traced, 2, sum).values())
            - sum(per_seed(summary, 2, statistics.mean).values()))
    else:
        values = {
            "wall_s": sum(per_seed(summary, 3, statistics.median).values()),
            "setup_s": sum(per_seed(summary, 1, statistics.median).values()),
            "run_s": sum(per_seed(summary, 2, statistics.median).values()),
            "peak_rss_mb": summary["peak_rss_mb"],
        }
    missing = sorted(set(wanted) - set(values))
    if missing:
        log(f"simbench reported no value for {missing}")
        return 1
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in wanted.items()}
    print(json.dumps({"correct": not failed, "attempted": len(expected),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
