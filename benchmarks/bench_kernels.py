#!/usr/bin/env python3
"""Benchmark the compiled kernels against the pure-Python fallback.

Loads both implementations directly (ignoring the import-time selector) and
times the hot loops on representative workloads: membership scans over a
multidegree box, the face-mask pass behind the Betti oracle, the colon
search behind the associated-primes oracle, and boundary-matrix ranks.  The
sortability search is not timed here: it runs on the pure lane either way.
Run from the repository root:

    python benchmarks/bench_kernels.py [--repeat 3]
"""

import argparse
import time
from itertools import product

from bitype import bitype_ideal, make_params
from bitype.kernels import _pure

try:
    from bitype.kernels import _speedups
except ImportError:
    _speedups = None


def _flat(ideal):
    return tuple(x for g in ideal.gens for x in g.entries)


def bench(label, impls, make_args, run, repeat):
    timings = {}
    for name, impl in impls.items():
        args = make_args(impl)
        best = float("inf")
        for _ in range(repeat):
            start = time.perf_counter()
            run(impl, args)
            best = min(best, time.perf_counter() - start)
        timings[name] = best
    pure = timings["pure"]
    fast = timings.get("compiled")
    speedup = f"{pure / fast:7.1f}x" if fast else "      -"
    fast_text = f"{fast * 1000:9.2f}" if fast is not None else "        -"
    print(f"{label:<34} {pure * 1000:9.2f} {fast_text} {speedup}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    impls = {"pure": _pure}
    if _speedups is not None:
        impls["compiled"] = _speedups
    else:
        print("note: compiled kernels unavailable; timing the pure lane only")

    ideal = bitype_ideal(make_params((2, 2, 2), 6, 3))
    flat, count, width = _flat(ideal), len(ideal.gens), 6
    bounds = ideal.lcm_of_generators().entries
    box = list(product(*(range(b + 1) for b in bounds)))
    print(f"workload ideal: blocks (2,2,2), degree 6, cap 3 -> {count} generators, "
          f"box of {len(box)} multidegrees")
    print(f"{'kernel workload':<34} {'pure ms':>9} {'compiled':>9} {'speedup':>8}")

    bench(
        "membership scan over the box",
        impls,
        lambda impl: impl.make_table(flat, count, width),
        lambda impl, table: [table.contains(a) for a in box],
        args.repeat,
    )
    bench(
        "face masks over the box",
        impls,
        lambda impl: impl.make_table(flat, count, width),
        lambda impl, table: [table.deficit_masks(a) for a in box],
        args.repeat,
    )

    witness_ideal = bitype_ideal(make_params((1, 1, 1, 1, 1), 17, 4))
    w_flat, w_count = _flat(witness_ideal), len(witness_ideal.gens)
    w_bounds = witness_ideal.lcm_of_generators().entries
    print(f"colon-search ideal: blocks (1,1,1,1,1), degree 17, cap 4 -> "
          f"{w_count} generators, box of {len(list(product(*(range(b+1) for b in w_bounds))))}")
    bench(
        "colon search over the box",
        impls,
        lambda impl: impl.make_table(w_flat, w_count, 5),
        lambda impl, table: table.ass_scan(w_bounds),
        args.repeat,
    )

    # boundary matrices of every Koszul complex of a mid-size ideal
    small = bitype_ideal(make_params((2, 2), 4, 2))
    matrices = []
    s_flat, s_count = _flat(small), len(small.gens)
    s_bounds = small.lcm_of_generators().entries
    pure_table = _pure.make_table(s_flat, s_count, 4)
    for a in product(*(range(b + 1) for b in s_bounds)):
        masks = pure_table.deficit_masks(a)
        faces = set()
        for m in masks:
            sub = m
            while True:
                faces.add(sub)
                if sub == 0:
                    break
                sub = (sub - 1) & m
        by_size = {}
        for f in faces:
            by_size.setdefault(bin(f).count("1"), []).append(f)
        for size, bucket in sorted(by_size.items()):
            if size == 0 or size - 1 not in by_size:
                continue
            bucket.sort()
            lower = {f: i for i, f in enumerate(sorted(by_size[size - 1]))}
            rows = []
            for face in bucket:
                row = [0] * len(lower)
                bits = [b for b in range(face.bit_length()) if (face >> b) & 1]
                for pos, b in enumerate(bits):
                    row[lower[face ^ (1 << b)]] = -1 if pos % 2 else 1
                rows.append(row)
            if rows:
                matrices.append(rows)
    print(f"rank workload: {len(matrices)} boundary matrices from a 17-generator ideal")
    bench(
        "boundary-matrix ranks",
        impls,
        lambda impl: None,
        lambda impl, _: [impl.rank_int_rows(rows) for rows in matrices],
        args.repeat,
    )


if __name__ == "__main__":
    main()
