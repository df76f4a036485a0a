#!/usr/bin/env python3
"""Disabled-path overhead gate over a pair of micro_benchmarks workloads.

Usage: tests/overhead_gate.py <micro_benchmarks> <baseline> <candidate> [label]

Runs the two benchmarks for REPETITIONS repetitions each with google-benchmark's
random interleaving, so a change in machine load during the run lands on both
sides alike instead of on whichever benchmark ran second.  Each repetition is
measured in thread CPU time per iteration: the gated quantity is the work the
disabled path adds, and wall time also counts the time the benchmark thread
spends descheduled when other processes share the cores (under a parallel
ctest run that alone moved wall-time repetitions between 115 and 205 ns/op).
Each side is summarised by the median over its repetitions, and the gate
requires

    candidate <= 1.02 * baseline + 2 ns

Exits 0 when the gate holds, 1 when it fails or the run produced no data.
"""
import json
import os
import statistics
import subprocess
import sys
import tempfile

REPETITIONS = 9
MIN_TIME_S = 0.2


def quartiles(values):
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv):
    if len(argv) not in (4, 5):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    binary, baseline, candidate = argv[1:4]
    label = argv[4] if len(argv) == 5 else "overhead_gate"
    if not os.access(binary, os.X_OK):
        print(f"{label}: FAIL: micro benchmark binary '{binary}' not found", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory(prefix="fptc_overhead_gate.") as work:
        out = os.path.join(work, "runs.json")
        with open(os.path.join(work, "stdout.txt"), "w") as log:
            subprocess.run(
                [binary,
                 f"--benchmark_filter=^({baseline}|{candidate})$",
                 f"--benchmark_min_time={MIN_TIME_S}",
                 f"--benchmark_repetitions={REPETITIONS}",
                 "--benchmark_enable_random_interleaving=true",
                 f"--benchmark_out={out}", "--benchmark_out_format=json"],
                env=dict(os.environ, FPTC_ARTIFACTS_DIR=work),
                stdout=log, stderr=subprocess.STDOUT, check=True)
        try:
            with open(out) as f:
                runs = json.load(f)["benchmarks"]
        except (OSError, ValueError, KeyError) as error:
            print(f"{label}: FAIL: micro_benchmarks wrote no usable {out} ({error})",
                  file=sys.stderr)
            return 1

    summary = {}
    for name in (baseline, candidate):
        times = [r["cpu_time"] for r in runs
                 if r["name"] == name and r["run_type"] == "iteration" and r["time_unit"] == "ns"]
        if len(times) < REPETITIONS:
            print(f"{label}: FAIL: {len(times)} of {REPETITIONS} repetitions of {name} "
                  f"in {out}", file=sys.stderr)
            return 1
        summary[name] = (statistics.median(times), *quartiles(times))
    base, base_q1, base_q3 = summary[baseline]
    cand, cand_q1, cand_q3 = summary[candidate]
    limit = base * 1.02 + 2.0
    print(f"{label}: median CPU ns/op of {REPETITIONS} interleaved repetitions: "
          f"{baseline} {base:.1f} ns/op (IQR {base_q1:.1f}-{base_q3:.1f}), "
          f"{candidate} {cand:.1f} ns/op (IQR {cand_q1:.1f}-{cand_q3:.1f}), "
          f"limit {limit:.1f}")
    if cand > limit:
        print(f"{label}: FAIL: {candidate} overhead regressed: {cand:.1f} ns/op > "
              f"{limit:.1f} ns/op ({baseline} {base:.1f} * 1.02 + 2 ns)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
