#!/usr/bin/env python3
"""Smoke test of the fountain benchmark, at tiny sizes (about a minute).

    python3 perfbench/smoke_test.py

Builds the benchmark the way run.py does, then for every workload:
  * runs it untraced and traced and checks that the result line has exactly
    the keys correct/attempted/failed/metrics, that every metric BENCHMARK.json
    names for the mode is there with its unit, and that every gate passed;
  * for population, checks that the report hash is the same untraced,
    traced and in a repeated run;
  * runs it with --corrupt and checks that the correctness gates fire: a
    non-zero exit, "correct": false and failed > 0.
Exits 0 when every check holds.
"""
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the benchmark's own builder)

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def bench(binary, workload, trace, *extra, seed=5):
    done = subprocess.run(
        [str(binary), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny", *extra],
        stdout=subprocess.PIPE, text=True, timeout=170)
    lines = done.stdout.splitlines()
    return done.returncode, lines, json.loads(lines[-1])


def hashes(lines):
    return [m.group(1) for m in
            (re.search(r"report_hash ([0-9a-f]+)", line) for line in lines)
            if m]


def main():
    binary = run.build(run.build_dir())
    if binary is None:
        print("FAIL build")
        return 1
    for workload in WORKLOADS:
        population_hashes = []
        for trace, table in ((0, "end_to_end"), (1, "per_layer")):
            code, lines, result = bench(binary, workload, trace)
            what = f"{workload} trace={trace}"
            check(code == 0 and result.get("correct") is True and
                  result.get("failed") == 0 and result.get("attempted", 0) >= 1,
                  f"{what}: gates pass")
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{what}: result keys")
            metrics = result.get("metrics", {})
            for spec in SPEC[table]:
                got = metrics.get(spec["name"])
                check(got is not None and got.get("unit") == spec["unit"] and
                      isinstance(got.get("value"), (int, float)),
                      f"{what}: {spec['name']} [{spec['unit']}]")
            check(len(metrics) == len(SPEC[table]), f"{what}: no extra metrics")
            population_hashes += hashes(lines)
        if workload == "population":
            _, lines, _ = bench(binary, workload, 0)
            population_hashes += hashes(lines)
            check(len(population_hashes) >= 4 and
                  len(set(population_hashes)) == 1,
                  "population: report hash equal across runs and tracing")
        code, _, result = bench(binary, workload, 0, "--corrupt")
        check(code != 0 and result.get("correct") is False and
              result.get("failed", 0) > 0,
              f"{workload}: gates fire on a corrupted file/report")
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
