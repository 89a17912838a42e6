#!/usr/bin/env python3
"""Run every workload once and print all end-to-end metrics as one table.

    python3 perfbench/all.py --seed 1 --seconds 20

Each workload runs in its own ``run.py`` process, so ``peak_rss_mb`` belongs
to that workload alone.  Exits 1 if any workload reports a failed op.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

METRICS = ("wall_s", "cell_ms.p50", "cell_ms.tail", "setup_s", "peak_rss_mb",
           "ops_failed", "disagreements")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    failed = False
    print(f"{'workload':14} {'metric':14} {'value':>12} {'p25':>12} {'p75':>12} "
          f"{'n':>6}  unit")
    for workload in (w["name"] for w in spec["workloads"]):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=True)
        lines = out.stdout.splitlines()
        report = json.loads(lines[-2])["report"]
        failed = failed or not json.loads(lines[-1])["correct"]
        for name in METRICS:
            m = report["metrics"][name]
            p25, p75 = m.get("p25", m["value"]), m.get("p75", m["value"])
            print(f"{workload:14} {name:14} {m['value']:12.6g} {p25:12.6g} {p75:12.6g} "
                  f"{m['n']:6}  {m['unit']}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
