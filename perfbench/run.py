#!/usr/bin/env python3
"""Builds and runs the PJVM benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload point_l4 --seed 1 --seconds 40 --trace 0

Run from the repository root. The first run configures and builds the engine
and the benchmark into .bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench)
and runs the span-arithmetic test. The last stdout line is one JSON object:
correct, attempted, failed, and every end-to-end metric (--trace 0) or every
per-layer metric (--trace 1) named in BENCHMARK.json, each with its unit.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(REPO, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build(out):
    """Configures (once) and builds; compiler output goes to stderr."""
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    test = subprocess.run([os.path.join(out, "span_math_test"), "--gtest_brief=1"],
                          stdout=sys.stderr)
    if test.returncode != 0:
        fail("span_math_test failed")


def git_sha():
    """The commit when the tree is a git checkout, else None."""
    if not os.path.isdir(os.path.join(REPO, ".git")):
        return None
    r = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else None


def source_digest():
    """Digest of the engine and benchmark sources (works without git)."""
    digest = hashlib.sha1()
    for top in ("src", "bench", "perfbench"):
        for root, dirs, files in os.walk(os.path.join(REPO, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                digest.update(os.path.relpath(path, REPO).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def check_repeat(out, key, fingerprints):
    """The gate prefix runs on fixed data with a fixed stream, so its cost
    fingerprints must repeat across runs (and seeds) of the same sources.
    Returns an error message or None."""
    path = os.path.join(out, "gate_fingerprints.json")
    seen = {}
    if os.path.exists(path):
        with open(path) as f:
            seen = json.load(f)
    if key in seen and seen[key] != fingerprints:
        return "cost fingerprints differ from an earlier run of %s: %s vs %s" % (
            key, seen[key], fingerprints)
    seen[key] = fingerprints
    with open(path, "w") as f:
        json.dump(seen, f, indent=1, sort_keys=True)
    return None


def cpu_ticks():
    """The aggregate line of /proc/stat as a list of tick counts, or None."""
    try:
        with open("/proc/stat") as f:
            return [int(v) for v in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before, after):
    """Share of all CPU time the hypervisor gave to other guests between two
    cpu_ticks() readings (field 8 of /proc/stat), or None."""
    if not before or not after or len(before) < 8 or len(after) < 8:
        return None
    total = sum(after) - sum(before)
    return (after[7] - before[7]) / total if total > 0 else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not os.path.exists(os.path.join(REPO, "src", "CMakeLists.txt")):
        fail("engine sources (src/) not found next to perfbench/")
    if os.environ.get("PJVM_TRACE"):
        fail("PJVM_TRACE is set; the untraced passes must run with tracing off")
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)

    out = build_dir()
    build(out)

    digest = source_digest()
    env = dict(os.environ, PJVM_GIT_SHA=git_sha() or "nogit-" + digest)
    cmd = [os.path.join(out, "pjvm_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    start = time.monotonic()
    ticks = cpu_ticks()
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    steal = steal_share(ticks, cpu_ticks())
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        fail("benchmark exited with %d" % run.returncode)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    report = result["report"]
    report["wall_s"] = time.monotonic() - start
    # Time stolen by other guests of a shared host, to judge a run's timings.
    report["host_steal_frac"] = steal
    print("report: " + json.dumps(report, sort_keys=True))

    correct = bool(result["correct"])
    fingerprints = {p["method"]: p["cost_fingerprint"]
                    for p in report["passes"] if not p["traced"]}
    err = check_repeat(out, "%s/%s" % (digest, args.workload), fingerprints)
    if err:
        print("GATE FAILED: " + err)
        correct = False

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = result["metrics"].get(m["name"])
        if value is None or not math.isfinite(value):
            fail("metric %s missing from the benchmark output" % m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))


if __name__ == "__main__":
    main()
