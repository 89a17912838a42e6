#!/usr/bin/env python3
"""Run one benchmark workload against the ``bitype`` sources of a checkout.

    python3 perfbench/run.py --workload oracle-grid --seed 1 --seconds 20 --trace 0

The run repeats passes until ``--seconds`` have elapsed.  A pass is a
cost-stratified sample of the workload's frozen pool, drawn from the seed,
and every op in it is checked against its reference.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` every pass runs twice, untraced and traced, the run
reports the per-layer metrics, and the spans are written to
``.perfbench-spans/<workload>.tsv``.  The next-to-last line of stdout is a
report with machine facts, quartiles and sample counts; the last line is
the result object.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS = ROOT / ".perfbench-spans"

SETUP_RUNS = 11
SETUP_CODE = (
    "import time; start = time.perf_counter(); import bitype, bitype.cli; "
    "bitype.kernels.implementation_name(); print(time.perf_counter() - start)"
)


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup():
    """Import time of ``bitype`` and ``bitype.cli`` in fresh interpreters.

    One launch first writes the bytecode caches, which users pay once.
    """
    samples = []
    for _ in range(SETUP_RUNS + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=_env(), cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(out.stdout))
    return samples[1:]


def summary(values, unit):
    """Median, quartiles and sample count of one metric."""
    if len(values) > 1:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return {"value": q2, "unit": unit, "p25": q1, "p75": q3, "n": len(values)}


def tail(latencies):
    """The highest percentile that leaves at least ten ops beyond it."""
    ranked = sorted(latencies)
    count = len(ranked)
    if count <= 10:
        return ranked[-1], 100.0, 0
    return ranked[count - 11], 100.0 * (count - 10) / count, 10


class Tally:
    """Checked outcomes of the ops one run attempted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.disagreeing = {}

    def run(self, workloads, op):
        self.attempted += 1
        try:
            outcome = workloads.run_op(op)
        except Exception as exc:  # one failing op must not end the run
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"op {op['id']}: {exc!r}")
            return None
        if not outcome.ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"op {op['id']}: output differs from the reference")
        if outcome.disagreements:
            self.disagreeing[op["id"]] = outcome.disagreements
        return outcome


def timed_pass(workloads, ops, tally, latencies=None, on_outcome=None):
    clock = time.perf_counter
    start = clock()
    for op in ops:
        began = clock()
        outcome = tally.run(workloads, op)
        if latencies is not None:
            latencies.append((clock() - began) * 1000.0)
        if on_outcome is not None and outcome is not None:
            on_outcome(outcome)
    return clock() - start


def traced_pass(tracer, workloads, ops, tally, on_outcome):
    tracer.begin_pass()
    tracer.install()
    try:
        return timed_pass(workloads, ops, tally, on_outcome=on_outcome)
    finally:
        tracer.uninstall()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bitype" / "__init__.py").is_file():
        print(f"perfbench: no bitype sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bitype
    import workloads

    if Path(bitype.__file__).resolve().parent != (SRC / "bitype").resolve():
        print(f"perfbench: imported bitype from {bitype.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sampler = workloads.Sampler(args.workload)
    setup = [] if args.trace else measure_setup()

    tally = Tally()
    walls, traced_walls, latencies, drawn = [], [], [], {}
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        stdout_bytes = 0

        def count_stdout(outcome):
            nonlocal stdout_bytes
            stdout_bytes += outcome.stdout_bytes

    begun = time.perf_counter()
    index = 0
    for ops in sampler.passes(args.seed):
        if index and time.perf_counter() - begun >= args.seconds:
            break
        drawn.update((op["id"], op) for op in ops)
        # A traced run alternates which copy of the pass goes first, so
        # warm-up effects cancel out of the tracing overhead.
        if tracer is not None and index % 2:
            traced_walls.append(traced_pass(tracer, workloads, ops, tally, count_stdout))
        walls.append(timed_pass(workloads, ops, tally, None if args.trace else latencies))
        if tracer is not None and not index % 2:
            traced_walls.append(traced_pass(tracer, workloads, ops, tally, count_stdout))
        index += 1

    machine = {"nproc": os.cpu_count(), "python": platform.python_version(),
               "lane": bitype.kernels.implementation_name(), "arch": platform.machine()}
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": machine, "pool": sampler.describe(), "passes": index,
              "headroom": workloads.headroom(drawn.values()), "errors": tally.errors}
    disagreements = sum(tally.disagreeing.values())
    wall = {**summary(walls, "s"), "value": statistics.fmean(walls)}

    if tracer is None:
        value, percentile, beyond = tail(latencies)
        full = {
            "wall_s": wall,
            "cell_ms.p50": summary(latencies, "ms"),
            "cell_ms.tail": {"value": value, "unit": "ms", "percentile": percentile,
                             "beyond": beyond, "n": len(latencies)},
            "setup_s": summary(setup, "s"),
            "peak_rss_mb": summary(
                [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0], "MB"),
            "ops_failed": {"value": tally.failed / tally.attempted, "unit": "ratio",
                           "n": tally.attempted},
            "disagreements": {"value": disagreements, "unit": "count", "n": len(drawn)},
        }
        chosen = spec["end_to_end"]
    else:
        metrics, report["layer_share"] = tracer.metrics(index, sum(traced_walls))
        metrics["cli.stdout_bytes"] = stdout_bytes / index
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        full = {name: {"value": value} for name, value in metrics.items()}
        full["wall_s"] = wall
        full["ops_failed"] = {"value": tally.failed / tally.attempted, "n": tally.attempted}
        full["disagreements"] = {"value": disagreements, "n": len(drawn)}
        SPANS.mkdir(exist_ok=True)
        report["spans"] = {"count": len(tracer.start),
                           "file": str(tracer.write_spans(SPANS / f"{args.workload}.tsv")
                                       .relative_to(ROOT))}
        chosen = spec["per_layer"]

    report["metrics"] = full
    print(json.dumps({"report": report}, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": full.get(m["name"], {"value": 0.0})["value"],
                                "unit": m["unit"]} for m in chosen},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
