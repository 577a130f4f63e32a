#!/usr/bin/env python3
"""Builds and runs the fountain benchmark.

Run one workload (from the root of the source tree):

    python3 perfbench/run.py --workload lt_udp --seed 1 --seconds 20 --trace 0

The first call configures and builds perfbench/ (and the library it links)
into the build directory: $CARGO_TARGET_DIR if set, else .bench_build. Build
output goes to stderr; the benchmark's own output goes to stdout, and its
last line is the result object. Each result is also saved, with the run's
metadata (seed, nproc, kernel tier, build type), under
<build>/results/<workload>-seed<N>-trace<T>.json, and a traced run writes
its spans under <build>/spans/.

Compare two saved results (refused when they were taken on different
kernel tiers or are of different workloads or modes):

    python3 perfbench/run.py compare A.json B.json
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
META_PREFIX = "perfbench-meta "


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build(out):
    """Configures and builds; returns the binary path or None."""
    jobs = str(os.cpu_count() or 1)
    configure = ["cmake", "-S", str(HERE), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", str(out), "-j", jobs]):
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: {' '.join(cmd)}: {err}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"perfbench: {' '.join(cmd)} failed", file=sys.stderr)
            return None
    binary = out / "perfbench"
    return binary if binary.exists() else None


def run(args):
    out = build_dir()
    binary = build(out)
    if binary is None:
        return 1
    spans = out / "spans"
    spans.mkdir(parents=True, exist_ok=True)
    try:
        done = subprocess.run([str(binary), *args, "--spans", str(spans)],
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = done.stdout.splitlines()
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    meta = next((json.loads(line[len(META_PREFIX):]) for line in lines
                 if line.startswith(META_PREFIX)), None)
    if meta is not None and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
        if result is not None:
            results = out / "results"
            results.mkdir(parents=True, exist_ok=True)
            name = (f"{meta['workload']}-seed{meta['seed']}"
                    f"-trace{meta['trace']}.json")
            (results / name).write_text(
                json.dumps({"meta": meta, "result": result}, indent=1) + "\n")
    return done.returncode


def compare(path_a, path_b):
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    for key in ("isa", "workload", "trace"):
        if a["meta"][key] != b["meta"][key]:
            print(f"refusing to compare: {key} differs "
                  f"({a['meta'][key]} vs {b['meta'][key]})", file=sys.stderr)
            return 2
    for key in ("nproc", "build_type"):
        if a["meta"][key] != b["meta"][key]:
            print(f"warning: {key} differs ({a['meta'][key]} vs "
                  f"{b['meta'][key]})", file=sys.stderr)
    print(f"{'metric':32} {'A':>14} {'B':>14} {'B/A':>8}")
    for name, ma in a["result"]["metrics"].items():
        mb = b["result"]["metrics"].get(name)
        if mb is None:
            continue
        ratio = mb["value"] / ma["value"] if ma["value"] else float("nan")
        print(f"{name:32} {ma['value']:14.6g} {mb['value']:14.6g} "
              f"{ratio:8.3f}  {ma['unit']}")
    return 0


def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print(__doc__, file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    return run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
