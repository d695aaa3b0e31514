#!/usr/bin/env python3
"""Build and run one workload of the RIME stack benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the repository root.  --workload all runs every workload of
BENCHMARK.json in turn and exits nonzero when any of them fails.  The
first run configures and builds perfbench/ (which compiles ../src) into
$CARGO_TARGET_DIR or .bench_build; later runs reuse the build.  Each
run then

  1. runs the arithmetic self-tests (perfbench_selftest),
  2. runs the workload (perfbench), which checks its own outputs,
  3. compares the values that must repeat bit for bit ("EXACT" line)
     with those stored by earlier runs of the same workload and seed
     on the same sources (see code_key),
  4. checks the result line against BENCHMARK.json's metric lists,

and prints the result object as the last line of stdout.  Any failed
check exits nonzero; a failed build, self-test or schema check prints
no result at all.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(build_root):
    """Configure (once) and build the benchmark; the binary dir."""
    out = os.path.join(build_root, "perfbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", out, "-j", str(os.cpu_count() or 1),
         "--target", "perfbench", "perfbench_selftest"],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return out


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def expected_metrics(trace):
    """(name, unit) pairs the result must carry, from BENCHMARK.json."""
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in benchmark_spec()[key]]


def check_schema(result, expected):
    """Problems with the result object; empty when it is well formed."""
    problems = []
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return ["result keys must be correct/attempted/failed/metrics"]
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for k in ("attempted", "failed"):
        if not isinstance(result[k], int) or isinstance(result[k], bool):
            problems.append(k + " is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["metrics is not an object"]
    names = [n for n, _ in expected]
    if sorted(metrics) != sorted(names):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        problems.append("metric names differ: missing %s, extra %s"
                        % (missing, extra))
    for name, unit in expected:
        m = metrics.get(name)
        if m is None:
            continue
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            problems.append(name + ": needs exactly value and unit")
            continue
        if m["unit"] != unit:
            problems.append("%s: unit %r, BENCHMARK.json says %r"
                            % (name, m["unit"], unit))
        v = m["value"]
        if not isinstance(v, (int, float)) or isinstance(v, bool) \
                or not math.isfinite(v):
            problems.append(name + ": value is not a finite number")
    return problems


def code_key(dirs):
    """A hash of every file under `dirs` (paths and contents).  Exact
    values are stored per key, so a change to the sources that alters
    a simulated result starts a fresh record instead of failing."""
    h = hashlib.sha256()
    for top in dirs:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                with open(path, "rb") as f:
                    data = f.read()
                rel = os.path.relpath(path, top).encode()
                h.update(b"%d:%s%d:" % (len(rel), rel, len(data)))
                h.update(data)
    return h.hexdigest()[:16]


def exact_path(build_root, key, workload, seed):
    """Where the exact values of one workload and seed are stored."""
    return os.path.join(build_root, "exact", key,
                        "%s-seed%d.json" % (workload, seed))


def check_exact(path, exact):
    """Compare with the values stored for this workload and seed, then
    store the union.  Returns the names whose values differ."""
    stored = {}
    if os.path.exists(path):
        with open(path) as f:
            stored = json.load(f)
    differ = sorted(k for k in exact if k in stored and stored[k] != exact[k])
    for k in differ:
        log("%s = %r, an earlier run with this seed gave %r"
            % (k, exact[k], stored[k]))
    if not differ:
        stored.update(exact)
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(stored, f, sort_keys=True)
        os.replace(tmp, path)
    return differ


def run_workload(args, workload, bindir, build_root, key):
    """Run one workload and print its output; the exit status."""
    work = os.path.join(build_root, "work")
    # Journals a killed run left behind.
    if os.path.isdir(work):
        for entry in os.listdir(work):
            if entry.startswith("journal-"):
                shutil.rmtree(os.path.join(work, entry), ignore_errors=True)
    cmd = [os.path.join(bindir, "perfbench"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--work-dir", work]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("workload timed out after %d s" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        log("workload exited %d without a result" % proc.returncode)
        return proc.returncode or 1
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    problems = check_schema(result, expected_metrics(args.trace == "1"))
    if problems:
        for p in problems:
            log("schema: " + p)
        return 1

    exact = {}
    for line in lines:
        if line.startswith("EXACT "):
            exact = json.loads(line[len("EXACT "):])
    path = exact_path(build_root, key, workload, args.seed)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    if check_exact(path, exact):
        result["correct"] = False

    print(json.dumps(result), flush=True)
    if proc.returncode != 0 or not result["correct"]:
        return proc.returncode or 1
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        key = code_key([os.path.join(ROOT, "src"), HERE])
        bindir = build(build_root)
    except (subprocess.CalledProcessError,
            subprocess.TimeoutExpired, OSError) as e:
        log("build failed: %s" % e)
        return 1
    if subprocess.run([os.path.join(bindir, "perfbench_selftest")],
                      stdout=sys.stderr).returncode != 0:
        log("arithmetic self-tests failed")
        return 1

    if args.workload != "all":
        return run_workload(args, args.workload, bindir, build_root, key)
    status = 0
    for w in benchmark_spec()["workloads"]:
        print("== " + w["name"], flush=True)
        status = run_workload(args, w["name"], bindir, build_root,
                              key) or status
    return status


if __name__ == "__main__":
    sys.exit(main())
