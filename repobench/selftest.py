#!/usr/bin/env python3
"""Slowdown self-test: an injected layer slowdown must be flagged by name.

    python3 repobench/selftest.py [--seconds 10] [--seeds 5] [--fraction 2.0]

Runs serve and prep1500 unpadded, then with --pad serve.backend=F (every
serve::Backend::classify_scored call spins for F of its own duration) and
with --pad core.augment_set=F (the same for core::augment_set).  With
compare.py's rule, the backend pad must flag items_per_s on serve and leave
prep1500 unchanged, and the augment_set pad must flag items_per_s on
prep1500 and leave serve unchanged; no other metric may be flagged worse.
Results go to .bench_build/repobench/selftest/.  Exits 1 when an
expectation fails.
"""
import argparse
import json
import os
import subprocess
import sys

import compare

WORKLOADS = ("serve", "prep1500")
EXPECTED = {"serve.backend": {("serve", "items_per_s")},
            "core.augment_set": {("prep1500", "items_per_s")}}


def run_set(out_dir, pad, seeds, seconds):
    os.makedirs(out_dir, exist_ok=True)
    for workload in WORKLOADS:
        for seed in seeds:
            command = [sys.executable, os.path.join(os.path.dirname(__file__), "run.py"),
                       "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                       "--trace", "0"] + (["--pad", pad] if pad else [])
            proc = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  text=True, check=True)
            result = proc.stdout.rstrip("\n").split("\n")[-1]
            with open(os.path.join(out_dir, f"{workload}-{seed}.json"), "w") as f:
                f.write(result + "\n")
            print(f"{pad or 'unpadded'} {workload} seed {seed}: "
                  f"{json.loads(result)['metrics']['items_per_s']['value']:.1f} items/s",
                  flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--fraction", type=float, default=2.0)
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    root = os.path.join(".bench_build", "repobench", "selftest")
    seeds = range(1, args.seeds + 1)
    run_set(os.path.join(root, "unpadded"), None, seeds, args.seconds)
    ok = True
    for layer, expected in EXPECTED.items():
        padded = os.path.join(root, layer)
        run_set(padded, f"{layer}={args.fraction}", seeds, args.seconds)
        rows = compare.compare(os.path.join(root, "unpadded"), padded, spec)
        print(f"\n--pad {layer}={args.fraction} against unpadded:")
        for workload, name, old, new, change, verdict in rows:
            print(f"  {workload:10} {name:14} {old:12.5g} {new:12.5g} {change:+8.1%}  {verdict}")
        flagged = {(row[0], row[1]) for row in rows if row[5] == "worse"}
        bypass_ok = all(row[5] in ("unchanged", "better") for row in rows
                        if (row[0], row[1]) not in expected and row[1] != "setup_s")
        passed = flagged == expected and bypass_ok
        ok = ok and passed
        print(f"  expected worse: {sorted(expected)}; flagged: {sorted(flagged)}; "
              f"{'PASS' if passed else 'FAIL'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
