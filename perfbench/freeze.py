"""Freeze a workload pool and its reference outputs into ``data/``.

Run from the repository root, once per workload, at the commit whose
outputs become the reference:

    PYTHONPATH=src python3 perfbench/freeze.py --workload oracle-grid

Every candidate op is run once: its output becomes the reference and its
wall time the ``cost_ms`` that the sampler stratifies on.  The benchmark
itself never enumerates pools; it only reads these files.
"""

import argparse
import itertools
import json
import math
import os
import platform
import subprocess
import sys
import time

from bitype import builders, kernels, report
from bitype.errors import ParameterRangeError

import workloads


def _triples(n_blocks, sizes, caps):
    for n in n_blocks:
        for blocks in itertools.product(sizes, repeat=n):
            for s in caps:
                for t in range(1, s * sum(blocks) + 1):
                    try:
                        yield builders.make_params(blocks, t, s)
                    except ParameterRangeError:
                        continue


def _grid(params, quantities):
    return {"blocks": list(params.blocks.block_sizes), "t": params.t, "s": params.s,
            "quantities": quantities}


def _argv(command, params, *flags):
    return [command, "--blocks", ",".join(map(str, params.blocks.block_sizes)),
            "--t", str(params.t), "--s", str(params.s), *flags]


def _box(ideal):
    return math.prod(e + 1 for e in ideal.lcm_of_generators().entries)


def candidates(workload):
    """The unfrozen pool: ops as dicts without id, cost or reference."""
    if workload in ("sortable-grid", "oracle-grid"):
        grouped = {}
        for blocks, t, s, quantity in report.grid_cells("full"):
            if (quantity == "sortable") == (workload == "sortable-grid"):
                grouped.setdefault((blocks, t, s), []).append(quantity)
        return [_grid(builders.make_params(*key), qs) for key, qs in grouped.items()]
    if workload == "betti-colon":
        ops = [{"argv": ["betti", "--blocks", "2,2", "--t", "2", "--s", "2"]},
               {"argv": ["ass", "--blocks", "2,2", "--t", "15", "--s", "4",
                         "--oracle", "--witnesses"]}]
        for params in _triples((1, 2, 3), (1, 2, 3), (1, 2, 3)):
            box = _box(builders.bitype_ideal(params))
            top = 1 <= params.deficit <= params.s - 1
            if 729 <= box <= 4096:
                ops.append({"argv": _argv("betti", params)})
            if not top and 4096 <= box <= 19683:
                ops.append({"argv": _argv("ass", params, "--oracle", "--witnesses")})
        return ops
    if workload == "gb-fibers":
        return [{"argv": _argv("sort-check", params, "--gb-evidence", "--max-degree", "3")}
                for params in _triples((2, 3), (1, 2, 3), (1, 2, 3))
                if _multisets(len(builders.bitype_ideal(params))) <= 200000]
    raise SystemExit(f"unknown workload {workload!r}")


def _multisets(gens, degree=3):
    return math.comb(gens + degree - 1, degree)


def _size(op):
    if "argv" in op:
        argv = op["argv"]
        blocks = tuple(int(b) for b in argv[argv.index("--blocks") + 1].split(","))
        t, s = int(argv[argv.index("--t") + 1]), int(argv[argv.index("--s") + 1])
    else:
        blocks, t, s = op["blocks"], op["t"], op["s"]
    ideal = builders.bitype_ideal(builders.make_params(blocks, t, s))
    gens = len(ideal)
    return {
        "box": _box(ideal),
        "gens": gens,
        "multisets3": _multisets(gens),
        "vars": sum(1 for e in ideal.lcm_of_generators().entries if e),
    }


def _commit():
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    args = parser.parse_args()
    ops = candidates(args.workload)
    frozen = []
    for index, op in enumerate(ops):
        start = time.perf_counter()
        ref = workloads.reference(op)
        cost = (time.perf_counter() - start) * 1000.0
        frozen.append({"id": index, **op, "size": _size(op), "cost_ms": round(cost, 3),
                       "ref": ref})
        print(f"{args.workload} {index + 1}/{len(ops)} {cost:.1f} ms", file=sys.stderr)
    doc = {
        "workload": args.workload,
        "frozen_at": _commit(),
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "lane": kernels.implementation_name()},
        "ops": frozen,
    }
    workloads.DATA.mkdir(exist_ok=True)
    with open(workloads.DATA / f"{args.workload}.json", "w") as handle:
        handle.write("{\n")
        for key in ("workload", "frozen_at", "machine"):
            handle.write(f"{json.dumps(key)}: {json.dumps(doc[key], sort_keys=True)},\n")
        handle.write('"ops": [\n')
        handle.write(",\n".join(json.dumps(op, sort_keys=True) for op in frozen))
        handle.write("\n]\n}\n")


if __name__ == "__main__":
    main()
