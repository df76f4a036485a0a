#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric.

    python3 repobench/compare.py BASE_DIR NEW_DIR

Each directory holds one result file per run, named <workload>-<seed>.json
and holding the last stdout line of run.py.  For every workload present in
both directories and every end-to-end metric of BENCHMARK.json, this prints
both medians, the change as a share of the base median and a verdict:

  worse       the new median is worse than the base median by more than the
              metric's bound
  better      it is better by more than the bound
  unchanged   otherwise
  unresolved  the base runs' own quartile spread is wider than the bound,
              unless every new run is worse (or better) than every base run

setup_s is compared like the others.  Exits 1 when any metric is worse.
"""
import json
import os
import statistics
import sys


def load(directory):
    """{workload: [result, ...]} from the directory's result files."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            with open(os.path.join(directory, name)) as f:
                runs.setdefault(name.rsplit("-", 1)[0], []).append(json.load(f))
    return runs


def spread(values):
    """Quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def compare(base_dir, new_dir, spec):
    """Rows of (workload, metric, base, new, change, verdict)."""
    base, new = load(base_dir), load(new_dir)
    rows = []
    for workload in sorted(set(base) & set(new)):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            old = [r["metrics"][name]["value"] for r in base[workload]]
            cur = [r["metrics"][name]["value"] for r in new[workload]]
            old_median, new_median = statistics.median(old), statistics.median(cur)
            change = (new_median - old_median) / abs(old_median)
            worse = sign * change > bound
            better = -sign * change > bound
            if spread(old) > bound:
                separated = min(cur) > max(old) or max(cur) < min(old)
                verdict = ("worse" if worse else "better") if separated else "unresolved"
            else:
                verdict = "worse" if worse else "better" if better else "unchanged"
            rows.append((workload, name, old_median, new_median, change, verdict))
    return rows


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    rows = compare(sys.argv[1], sys.argv[2], spec)
    print(f"{'workload':10} {'metric':14} {'base':>12} {'new':>12} {'change':>8}  verdict")
    for workload, name, old, new, change, verdict in rows:
        print(f"{workload:10} {name:14} {old:12.5g} {new:12.5g} {change:+8.1%}  {verdict}")
    sys.exit(1 if any(row[5] == "worse" for row in rows) else 0)


if __name__ == "__main__":
    main()
