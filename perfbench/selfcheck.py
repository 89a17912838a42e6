#!/usr/bin/env python3
"""Show that the benchmark's correctness check can fail.

    python3 perfbench/selfcheck.py

For every workload, a few cheap ops from its pool are checked three times:
as frozen (no failures expected), against a tampered reference, and with
the program patched to produce a wrong output.  The last two must each
make ``ops_failed`` positive.  Exits non-zero if any expectation fails.
"""

import copy
import sys

import run

sys.path.insert(0, str(run.SRC))

from bitype import builders, cli, core, sorting  # noqa: E402

import workloads  # noqa: E402

OPS_PER_WORKLOAD = 12


def _tamper(op):
    op = copy.deepcopy(op)
    if "argv" in op:
        op["ref"] = op["ref"][:-1] + ("0" if op["ref"][-1] != "0" else "1")
    else:
        first = op["quantities"][0]
        op["ref"][first] = "tampered"
    return op


def _drop_last_generator(build):
    def wrong(params):
        ideal = build(params)
        return core.MonomialIdeal(ideal.blocks, ideal.gens[:-1])
    return wrong


def _extra_newline(main):
    def wrong(argv=None):
        code = main(argv)
        print()
        return code
    return wrong


# A wrong program per workload: (module, function, wrapper making it wrong).
PERTURB = {
    "sortable-grid": (sorting, "sortable_violation", lambda f: lambda params: (0,)),
    "oracle-grid": (builders, "bitype_ideal", _drop_last_generator),
    "betti-colon": (cli, "main", _extra_newline),
    "gb-fibers": (cli, "main", _extra_newline),
}


def ops_failed(ops):
    tally = run.Tally()
    for op in ops:
        tally.run(workloads, op)
    return tally.failed / tally.attempted


def main():
    ok = True
    for name in workloads.WORKLOADS:
        sampler = workloads.Sampler(name)
        middle = len(sampler.groups) // 2
        ops = [group[0] for group in sampler.groups[middle:middle + OPS_PER_WORKLOAD]]
        clean = ops_failed(ops)
        tampered = ops_failed([_tamper(op) for op in ops])
        module, function, make_wrong = PERTURB[name]
        original = getattr(module, function)
        setattr(module, function, make_wrong(original))
        try:
            perturbed = ops_failed(ops)
        finally:
            setattr(module, function, original)
        passed = clean == 0 and tampered > 0 and perturbed > 0
        ok = ok and passed
        print(f"{name:14} ops={len(ops):3} ops_failed: frozen={clean:.2f} "
              f"tampered-reference={tampered:.2f} perturbed-output={perturbed:.2f} "
              f"{'ok' if passed else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
