#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --update-digests

Run from the repository root.  The first form builds perfbench (a
Release CMake build of the simulator sources plus the benchmark, under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), runs one
workload, writes its run record (and with --trace 1 its Chrome trace)
next to the build, and prints the result object as the last stdout
line.  It exits non-zero, printing no result, when the build or the
run fails, and non-zero with the result when a correctness check
fails.

--update-digests re-runs every workload at the pinned seed and
rewrites perfbench/pinned_digests.json; do it only for a change that is
meant to alter simulated results, and say so in the change.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINNED = os.path.join(HERE, "pinned_digests.json")
PINNED_SEED = 1
RUN_TIMEOUT_S = 175


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(os.path.abspath(os.path.join(ROOT, target)), "perfbench")


def build():
    """Configure (once) and build; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "fleet.hh")):
        raise RuntimeError("simulator sources not found under " + ROOT)
    out = build_dir()
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout's last line is the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise RuntimeError("build step failed: " + " ".join(step))
    return out


def source_digest():
    """sha256 over the simulator and benchmark sources, path-ordered."""
    digest = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for directory, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".cc", ".hh", ".txt", ".json", ".py")):
                    path = os.path.join(directory, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()


def commit():
    try:
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def expected_metrics(traced):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if traced else "end_to_end"]]


def validate(result, traced):
    """Problems with a result object, [] when it meets the contract."""
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return ["result keys are " + ", ".join(sorted(result))]
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(key + " is not a whole number")
        elif result[key] < (1 if key == "attempted" else 0):
            problems.append(key + " is out of range")
    got = [(name, m.get("unit")) for name, m in result["metrics"].items()]
    if got != expected_metrics(traced):
        problems.append("metric names/units differ from BENCHMARK.json")
    for name, metric in result["metrics"].items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            problems.append(name + " has no numeric value")
    return problems


def run(binary_dir, workload, seed, seconds, trace, pinned=True):
    """Run one workload; returns (exit code, run record, result)."""
    runs = os.path.join(binary_dir, "runs")
    os.makedirs(runs, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (workload, seed, trace)
    command = [os.path.join(binary_dir, "perfbench"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if pinned:
        command += ["--pinned", PINNED]
    if trace:
        command += ["--trace-out", os.path.join(runs, stem + ".trace.json")]
    proc = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("run-record "):
        raise RuntimeError("perfbench exited %d without a result" % proc.returncode)
    record = json.loads(lines[-2][len("run-record "):])
    result = json.loads(lines[-1])
    record["commit"] = commit()
    record["source_sha256"] = source_digest()
    record["correct"] = result.get("correct")
    with open(os.path.join(runs, stem + ".record.json"), "w") as handle:
        json.dump(record, handle, indent=1)
    return proc.returncode, record, result


def update_digests(binary_dir):
    pinned = {"seed": PINNED_SEED}
    for workload in [w["name"] for w in json.load(open(os.path.join(ROOT, "BENCHMARK.json")))["workloads"]]:
        code, record, result = run(binary_dir, workload, PINNED_SEED, 0.001, 0, pinned=False)
        if code != 0:
            raise RuntimeError(workload + " failed its invariants; not pinning")
        pinned[workload] = record["op_digests"]
        log("pinned %s: %s" % (workload, record["digest"]))
    with open(PINNED, "w") as handle:
        json.dump(pinned, handle, indent=1)
        handle.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--update-digests", action="store_true")
    args = parser.parse_args()
    try:
        binary_dir = build()
        if args.update_digests:
            update_digests(binary_dir)
            return 0
        if None in (args.workload, args.seed, args.seconds, args.trace) or args.seed < 0:
            parser.error("--workload, --seed (>= 0), --seconds and --trace are required")
        code, record, result = run(binary_dir, args.workload, args.seed,
                                   args.seconds, args.trace)
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as error:
        log(str(error))
        return 1
    problems = validate(result, bool(args.trace))
    if problems:
        log("result breaks the contract: " + "; ".join(problems))
        return 1
    print("run-record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
