#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 repobench/run.py --workload train32|prep1500|serve --seed N \\
        --seconds S --trace 0|1 [--pad serve.backend=F | --pad core.augment_set=F]

Run it from the root of a checkout.  The first run configures and builds the
library and the benchmark (Release) in .bench_build/repobench; later runs
reuse that build.  The last line of stdout is the result JSON; the line
before it stamps the run with the commit (when the checkout is a git
repository), a hash of the sources, nproc, load1 before and after, and the
seed.  The result's metric names and units are checked against
BENCHMARK.json.  --pad is the slowdown self-test's switch (see selftest.py).
"""
import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build", "repobench")


def die(message):
    print(f"repobench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then builds incrementally; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no src/CMakeLists.txt here: run from the root of a full checkout")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
        steps.append(["cmake", "--build", BUILD, "--target", "repobench", "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr).returncode != 0:
                die("build failed: " + " ".join(step))
    return os.path.join(BUILD, "repobench")


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_hash():
    """sha256 over the files the benchmark builds from (the checkout may
    not be a git repository, so this identifies the code)."""
    digest = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", os.path.relpath(HERE, ROOT)):
        for directory, _, names in os.walk(os.path.join(ROOT, top)):
            files += [os.path.join(directory, n) for n in names]
    for path in sorted(files):
        if path.endswith((".cpp", ".hpp", ".txt", ".py")):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["train32", "prep1500", "serve"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--pad")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    binary = build()
    load_before = os.getloadavg()[0]
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.pad:
        command += ["--pad", args.pad]
    if args.trace == "1":
        command += ["--trace-out",
                    os.path.join(BUILD, f"trace-{args.workload}-{args.seed}.json")]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    load_after = os.getloadavg()[0]
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        die(f"benchmark exited with {proc.returncode}")

    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        die("result has keys " + ", ".join(sorted(result)))
    declared = declared_metrics(args.trace == "1")
    measured = {name: m["unit"] for name, m in result["metrics"].items()}
    if measured != declared:
        missing = sorted(set(declared) - set(measured))
        extra = sorted(set(measured) - set(declared))
        wrong = sorted(n for n in set(declared) & set(measured) if declared[n] != measured[n])
        die(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, "
            f"unit differs {wrong}")

    stamp = {"commit": commit(), "source_sha256": source_hash(),
             "nproc": len(os.sched_getaffinity(0)), "load1_before": load_before,
             "load1_after": load_after, "seed": args.seed, "workload": args.workload,
             "trace": int(args.trace), "pad": args.pad}
    for line in lines[:-1]:
        print(line)
    print("stamp: " + json.dumps(stamp))
    print(lines[-1])


if __name__ == "__main__":
    main()
