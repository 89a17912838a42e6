#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 perfbench/compare.py base.out change.out

Each file holds the stdout of one or more untraced runs of ``run.py``.  For
every end-to-end metric the script prints the median and quartile spread of
each set and the change between medians, and marks a change that is worse
than the metric's bound in BENCHMARK.json.  Sets taken on different kernel
lanes are refused: the lanes differ by about an order of magnitude.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def reports(path):
    out = []
    with open(path) as handle:
        for line in handle:
            if line.startswith('{"report"'):
                report = json.loads(line)["report"]
                if not report["trace"]:
                    out.append(report)
    return out


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, change = (reports(path) for path in argv)
    lanes = {label: {r["machine"]["lane"] for r in runs}
             for label, runs in (("base", base), ("change", change))}
    if len(lanes["base"] | lanes["change"]) != 1:
        print(f"refusing to compare runs on different kernel lanes: {lanes}", file=sys.stderr)
        return 3
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    worse = 0
    print(f"{'workload':14} {'metric':13} {'base':>11} {'spread':>7} {'change':>11} "
          f"{'spread':>7} {'delta':>7} {'bound':>6}")
    for workload in sorted({r["workload"] for r in base + change}):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in base if r["workload"] == workload]
            b = [r["metrics"][name]["value"] for r in change if r["workload"] == workload]
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            delta = mb / ma - 1.0 if ma else 0.0
            worsening = delta if metric["better"] == "lower" else -delta
            bad = worsening > metric["bound"]
            worse += bad
            print(f"{workload:14} {name:13} {ma:11.5g} {spread(a):7.3f} {mb:11.5g} "
                  f"{spread(b):7.3f} {delta:+7.3f} {metric['bound']:6.2f}"
                  f"{'  WORSE' if bad else ''}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
