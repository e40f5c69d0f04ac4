#!/usr/bin/env python3
"""The simulator benchmark's own test.

Runs every workload at a tiny simulated horizon and checks that
  - two runs of the same seed print the same digests, and so do the
    repetitions inside one run;
  - a traced run prints the same digests as an untraced one (for
    hifi-contended the traced run rebuilds the simulation through
    PlacerFactory, so this also proves it matches MakeHifiSimulation);
  - a different seed gives a different digest;
  - no trial fails a check;
  - fleet spills jobs, and hifi-contended conflicts on claims and aborts gangs;
and that run.py prints a result line with exactly the metrics BENCHMARK.json
names, for both --trace values.

Usage (from the root of a checkout):  python3 simbench/selftest.py
Exits 0 when every check passes.
"""

import argparse
import json
import subprocess
import sys

import run as bench

TINY_DAYS = {"mega-cell": 0.005, "hifi-contended": 0.02, "fleet": 0.01,
             "mesos-offers": 0.01}
SEED = 11


def drive(binary, workload, seed, *extra):
    args = argparse.Namespace(workload=workload, seed=seed)
    return bench.run_simbench(binary, args,
                              ["--horizon-days", str(TINY_DAYS[workload]), *extra])


def field(digest, name):
    for item in digest.split():
        key, _, value = item.partition("=")
        if key == name:
            return value
    raise KeyError(name)


def check_workload(binary, workload, check):
    a_digests, a_fail, _ = drive(binary, workload, SEED, "--seeds", "2", "--reps", "2")
    b_digests, b_fail, _ = drive(binary, workload, SEED, "--seeds", "2", "--reps", "1")
    t_digests, t_fail, traced = drive(binary, workload, SEED, "--seeds", "2",
                                      "--traced")
    check(workload, "no failed checks", not (a_fail or b_fail or t_fail),
          f"{a_fail} {b_fail} {t_fail}")
    check(workload, "repetitions agree",
          all(len(set(d)) == 1 for d in a_digests.values()))
    check(workload, "two runs agree", a_digests == {
        s: d * 2 for s, d in b_digests.items()})
    check(workload, "traced run agrees", t_digests == b_digests)
    check(workload, "seeds differ", b_digests[SEED] != b_digests[SEED + 1])
    layers = traced["layers"]
    if workload == "fleet":
        check(workload, "spills > 0",
              all(int(field(d[0], "spills")) > 0 for d in b_digests.values()))
    if workload == "hifi-contended":
        check(workload, "claims conflict", layers["cluster.claims_conflicted"] > 0)
        check(workload, "gangs abort", layers["cluster.gang_aborts"] > 0)


def check_result_line(workload, trace, check):
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    proc = subprocess.run(
        [sys.executable, str(bench.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=bench.ROOT, check=False)
    ok = proc.returncode == 0
    if ok:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = (set(result) == {"correct", "attempted", "failed", "metrics"}
              and result["correct"] and result["failed"] == 0
              and result["attempted"] >= 1 and set(result["metrics"]) == wanted)
    check(workload, f"run.py --trace {trace} result line", ok, proc.stderr[-500:])


def main():
    failures = []

    def check(workload, what, ok, detail=""):
        print(f"{'PASS' if ok else 'FAIL'} {workload}: {what}"
              + ("" if ok or not detail else f" ({detail})"), flush=True)
        if not ok:
            failures.append(f"{workload}: {what}")

    try:
        binary = bench.build()
        for workload in bench.WORKLOADS:
            check_workload(binary, workload, check)
    except bench.BenchError as e:
        print(f"FAIL: {e}")
        return 1
    for trace in (0, 1):
        check_result_line("fleet", trace, check)
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
