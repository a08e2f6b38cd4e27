#!/usr/bin/env python3
"""Builds and runs the nexit performance benchmark (see README.md here).

Run from the root of a checkout:

    python3 perfbench/run.py --workload engine_distance --seed 1 --seconds 30 --trace 0

builds perfbench/ (CMake, Release) into $CARGO_TARGET_DIR or .bench_build,
times the two host-speed reference kernels, runs one workload, times the
kernels again, and prints the result as the last stdout line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Other modes:

    python3 perfbench/run.py --self-check [--runs 5] [--seconds 30] [--workloads a,b]
        two interleaved sets of runs (A, B, A, B, ...) of each workload; prints
        each set's median and quartiles per end-to-end metric and the gap
        between the sets against the metric's bound; exits 1 if a gap or a
        spread exceeds its bound.
    python3 perfbench/run.py --record-digests --seeds 0-63 [--workloads a,b]
        records the outcome digest of every (or each named) workload for those
        seeds in perfbench/digests.json (after an intended change of outcomes).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BINARY_NAME = "nexit_perfbench"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    configured = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = Path(configured)
    return (path if path.is_absolute() else ROOT / path) / "perfbench"


def build():
    """Configures once, then lets CMake decide what is stale."""
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        fail(f"no library sources next to {HERE.name}/; run from a full checkout")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", BINARY_NAME,
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    binary = out / BINARY_NAME
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def probe(binary):
    done = subprocess.run([str(binary), "--probe"], capture_output=True,
                          text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        fail(f"host-speed probe failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def recorded_digests():
    path = HERE / "digests.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def run_workload(binary, workload, seed, seconds, trace, echo=True):
    """One run of the benchmark binary between two host-speed probes.
    Returns (exit code, result object, diagnostics object)."""
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}"]
    expected = recorded_digests().get(workload, {}).get(str(seed))
    if expected:
        cmd.append(f"--expect-digest={expected}")
    before = probe(binary)
    done = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    after = probe(binary)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        fail(f"{workload}: the benchmark printed no result "
             f"(exit {done.returncode})")
    result = json.loads(lines[-1])
    diagnostics = json.loads(lines[-2])["diagnostics"]
    diagnostics["digest_recorded"] = expected
    diagnostics["probe_start"] = before
    diagnostics["probe_end"] = after
    if echo:
        print(json.dumps({"diagnostics": diagnostics}))
    return done.returncode, result, diagnostics


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record_digests(binary, seeds, workloads):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = recorded_digests()
    for name in workloads or [w["name"] for w in spec["workloads"]]:
        table[name] = {}
        for seed in seeds:
            done = subprocess.run(
                [str(binary), f"--workload={name}", f"--seed={seed}",
                 "--seconds=1", "--trace=0", "--digest-only"],
                capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            if done.returncode != 0:
                fail(f"{name} seed {seed}: {done.stderr.strip()}")
            table[name][str(seed)] = done.stdout.strip().splitlines()[-1]
            print(f"{name} seed {seed}: {table[name][str(seed)]}")
    (HERE / "digests.json").write_text(json.dumps(table, indent=1) + "\n")


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def self_check(binary, runs, seconds, workloads):
    """Two interleaved sets of runs of the same code, compared per metric."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = workloads or [w["name"] for w in spec["workloads"]]
    ok = True
    for name in names:
        sets = {"A": {}, "B": {}}
        probes = []
        for i in range(runs):
            for label in ("A", "B"):
                code, result, diag = run_workload(binary, name, 1000 + i,
                                                  seconds, 0, echo=False)
                probes.append((label, diag["probe_start"], diag["probe_end"]))
                if code != 0 or not result["correct"] or result["failed"]:
                    print(f"{name}: run {label}{i} failed "
                          f"{result['failed']}/{result['attempted']}")
                    ok = False
                for metric, entry in result["metrics"].items():
                    sets[label].setdefault(metric, []).append(entry["value"])
        print(f"\n== {name}: {runs} runs per set, {seconds} s each, "
              f"seeds 1000-{1000 + runs - 1} in both sets")
        print(f"{'metric':24} {'A median [q1, q3]':>32} {'B median [q1, q3]':>32}"
              f" {'spreadA':>8} {'spreadB':>8} {'gap':>8} {'bound':>6}")
        for m in spec["end_to_end"]:
            metric, bound = m["name"], m["bound"]
            a, b = sets["A"][metric], sets["B"][metric]
            qa, qb = quartiles(a), quartiles(b)
            spread_a = (qa[2] - qa[0]) / qa[1]
            spread_b = (qb[2] - qb[0]) / qb[1]
            gap = abs(qb[1] - qa[1]) / qa[1]
            verdict = "ok"
            if gap > bound:
                verdict = "GAP"
            elif metric != "setup_s" and max(spread_a, spread_b) > bound:
                verdict = "SPREAD"
            ok = ok and verdict == "ok"
            print(f"{metric:24} {qa[1]:12.5g} [{qa[0]:8.5g}, {qa[2]:8.5g}]"
                  f" {qb[1]:12.5g} [{qb[0]:8.5g}, {qb[2]:8.5g}]"
                  f" {spread_a:8.3f} {spread_b:8.3f} {gap:8.3f} {bound:6.2f} {verdict}")
        l1 = [p[k]["l1_ns_per_op"] for p in probes for k in (1, 2)]
        rr = [p[k]["random_read_8mb_ns_per_load"] for p in probes for k in (1, 2)]
        print(f"host probe: L1 kernel {min(l1):.3f}-{max(l1):.3f} ns/op, "
              f"8 MB random read {min(rr):.1f}-{max(rr):.1f} ns/load")
    print("\nself-check:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--record-digests", action="store_true")
    parser.add_argument("--seeds", default="0-63")
    args = parser.parse_args()

    binary = build()
    names = [n for n in args.workloads.split(",") if n]
    if args.record_digests:
        record_digests(binary, parse_seeds(args.seeds), names)
        return 0
    if args.self_check:
        return self_check(binary, args.runs, args.seconds, names)
    if not args.workload:
        fail("--workload is required")
    code, result, _ = run_workload(binary, args.workload, args.seed,
                                   args.seconds, args.trace)
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
