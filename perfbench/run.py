#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload <power-dram|power-llc|serve-open> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree. Builds the library from ./src and
the benchmark from ./perfbench into .bench_build/perfbench (Release,
kernel instrumentation compiled out), runs the arithmetic self-test,
then the workload. The benchmark's output is passed through; its last
line is one JSON object {correct, attempted, failed, metrics}, checked
here against the metric lists in BENCHMARK.json before it is printed.
Full records (provenance, every metric) and traces are written to
.bench_build/results.

Exit codes: 0 ok, 1 a wrong answer, 2 a build, usage or run error
(no result line), 3 a result that does not match BENCHMARK.json.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RESULTS = ROOT / ".bench_build" / "results"
WORKLOADS = ("power-dram", "power-llc", "serve-open")
RUN_TIMEOUT_S = 175


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "core" / "plan.hpp").is_file():
        die(f"library sources not found under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1)])
    with open(log, "a") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                tail = log.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                die(f"build failed: {' '.join(cmd)} (log: {log})")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if rev.returncode == 0:
            return rev.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        die("the benchmark's last line is not JSON", 3)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        die(f"unexpected result keys {sorted(result)}", 3)
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        die(f"metrics differ from BENCHMARK.json: missing {missing}, "
            f"extra {extra}, unit mismatch {units}", 3)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    # A SIGTERM unwinds through the handlers below, which kill and reap
    # whatever child is running, instead of leaving it orphaned.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    build()
    selftest = subprocess.run([str(BUILD / "perfbench_selftest")],
                              capture_output=True, text=True)
    if selftest.returncode != 0:
        print(selftest.stdout, file=sys.stderr)
        die("arithmetic self-test failed")

    env = dict(os.environ, PERFBENCH_COMMIT=source_id())
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(RESULTS)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    last = None
    try:
        for line in proc.stdout:
            if last is not None:
                print(last, flush=True)
            last = line.rstrip("\n")
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code not in (0, 1) or last is None or not last.startswith("{"):
        if last is not None:
            print(last)
        die(f"benchmark run failed (exit {code})")
    check_result(last, args.trace)
    print(last, flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
