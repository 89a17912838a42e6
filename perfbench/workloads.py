"""The four benchmark workloads: frozen pools, operations and their checks.

Each workload is a pool of operations frozen by ``freeze.py`` into
``data/<workload>.json``.  An operation is one call into the public API of
``bitype`` (a grid cell) or one CLI invocation.  Its output is reduced to a
fingerprint and compared with the reference recorded when the pool was
frozen; a mismatch, an exception or a non-zero exit is a failed operation.

Grid references hold oracle values only.  The closed form is recomputed and
compared with the live oracle, so a later fix to a closed form moves the
``disagreements`` count and never the failure count.
"""

import contextlib
import hashlib
import inspect
import io
import json
import random
from pathlib import Path
from typing import NamedTuple

from bitype import assoc, builders, cli, covers, graphs, homology, sorting

DATA = Path(__file__).resolve().parent / "data"

WORKLOADS = ("sortable-grid", "oracle-grid", "betti-colon", "gb-fibers")


def multiset_cap():
    """The default multiset cap of ``fibers_of_degree``, traced or not."""
    return inspect.unwrap(sorting.fibers_of_degree).__defaults__[0]


# Size guards whose headroom is reported: name -> (pool size field, cap).
# Caps are read from the program so a changed default moves the headroom.
GUARDS = {
    "betti_box": ("box", lambda: homology.DEFAULT_BOX_CAP),
    "colon_box": ("box", lambda: assoc.DEFAULT_WITNESS_BOX),
    "multisets3": ("multisets3", multiset_cap),
    "cover_vars": ("vars", lambda: covers.DEFAULT_COVER_VARS),
}

# The guard each grid quantity or CLI command runs into.
GUARD_OF = {"regularity": "betti_box", "betti": "betti_box", "ass": "colon_box",
            "dim": "cover_vars", "unmixed": "cover_vars", "sort-check": "multisets3"}


def fingerprint(value):
    """Scalars as themselves, anything larger as a sha256 of its JSON form."""
    if value is None or isinstance(value, (bool, int)):
        return value
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def _params(op):
    return builders.make_params(op["blocks"], op["t"], op["s"])


def _supports(primes):
    return sorted(sorted(p.indices) for p in primes)


# Each grid quantity returns (closed form, oracle value) as JSON-able data;
# they agree when the two are equal.
def _regularity(params):
    ideal = builders.bitype_ideal(params)
    return covers.regularity_formula(params), homology.regularity_oracle(ideal)


def _dim(params):
    ideal = builders.bitype_ideal(params)
    return covers.dim_formula(params), covers.dim_oracle(ideal)


def _unmixed(params):
    ideal = builders.bitype_ideal(params)
    return covers.unmixed_formula(params), covers.is_unmixed(ideal)


def _ass(params):
    formula = _supports(assoc.associated_primes_formula(params))
    oracle = assoc.associated_primes_oracle(builders.bitype_ideal(params))
    return formula, _supports(oracle), [list(w.entries) for w in oracle.values()]


def _graph(params):
    graph = graphs.strong_block_graph(params.blocks, "all")
    walk = graphs.generalized_graph_ideal(graph, params.t)
    direct = builders.bitype_ideal(params)
    return direct.to_dict()["gens"], walk.to_dict()["gens"]


def _sortable(params):
    return None, sorting.sortable_violation(params)


QUANTITIES = {
    "regularity": _regularity,
    "dim": _dim,
    "unmixed": _unmixed,
    "ass": _ass,
    "graph": _graph,
    "sortable": _sortable,
}


def run_grid(op):
    """Run every quantity of a grid op: (oracle fingerprints, disagreements)."""
    params = _params(op)
    prints, disagreements = {}, 0
    for quantity in op["quantities"]:
        formula, oracle, *extra = QUANTITIES[quantity](params)
        if formula != oracle:
            disagreements += 1
        prints[quantity] = fingerprint([oracle, *extra] if extra else oracle)
    return prints, disagreements


def run_cli(op):
    """One in-process CLI invocation: (exit code, stdout bytes)."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(list(op["argv"]))
    return code, buffer.getvalue().encode()


class Outcome(NamedTuple):
    """Checked result of one operation."""

    ok: bool
    disagreements: int = 0
    stdout_bytes: int = 0


def run_op(op):
    """Run one op and check it against its reference."""
    if "argv" in op:
        code, out = run_cli(op)
        digest = hashlib.sha256(out).hexdigest()
        return Outcome(code == 0 and digest == op["ref"], 0, len(out))
    prints, disagreements = run_grid(op)
    return Outcome(prints == op["ref"], disagreements)


def reference(op):
    """The value ``run_op`` checks against; computed when freezing a pool."""
    if "argv" in op:
        code, out = run_cli(op)
        if code != 0:
            raise RuntimeError(f"{op['argv']} exited {code}")
        return hashlib.sha256(out).hexdigest()
    return run_grid(op)[0]


def load(workload):
    with open(DATA / f"{workload}.json") as handle:
        return json.load(handle)


# How each workload's passes are drawn from its pool.  Ops costlier than
# ``ceiling_ms`` (frozen pure-lane cost) are left out of the pool, so that a
# whole pool costs less than one 20 s run and each run walks every stratum
# to its end; that makes the median and tail nearly independent of the seed.
# The ``certain`` costliest remaining ops are in every pass, which fixes the
# tail; the rest of the pool is cut into ``strata`` equal-count strata by
# cost and each pass takes one op from every stratum.
SPECS = {
    "sortable-grid": {"ceiling_ms": 500, "certain": 2, "strata": 150},
    "oracle-grid": {"ceiling_ms": None, "certain": 2, "strata": 150},
    "betti-colon": {"ceiling_ms": 200, "certain": 2, "strata": 93},
    "gb-fibers": {"ceiling_ms": 250, "certain": 2, "strata": 100},
}


class Sampler:
    """Cost-stratified passes over one workload's frozen pool."""

    def __init__(self, workload):
        self.spec = SPECS[workload]
        ops = load(workload)["ops"]
        ceiling = self.spec["ceiling_ms"]
        pool = sorted((op for op in ops if ceiling is None or op["cost_ms"] <= ceiling),
                      key=lambda op: (op["cost_ms"], op["id"]))
        self.excluded = len(ops) - len(pool)
        split = len(pool) - self.spec["certain"]
        self.certain, rest = pool[split:], pool[:split]
        count = self.spec["strata"]
        bounds = [round(i * len(rest) / count) for i in range(count + 1)]
        self.groups = [rest[bounds[i]:bounds[i + 1]] for i in range(count)]
        self.size = len(pool)

    def passes(self, seed):
        """Endless passes under ``seed``.

        Each stratum is walked in a seeded random order, so a run draws
        distinct ops from a stratum until it has used them all.
        """
        rng = random.Random(seed)
        orders = [rng.sample(group, len(group)) for group in self.groups]
        index = 0
        while True:
            picked = self.certain + [order[index % len(order)] for order in orders]
            rng.shuffle(picked)
            yield picked
            index += 1

    def describe(self):
        return {"size": self.size, "excluded": self.excluded, **self.spec}


def headroom(ops):
    """Largest share of each size guard that the drawn inputs reach."""
    sizes = {}
    for op in ops:
        for kind in [op["argv"][0]] if "argv" in op else op["quantities"]:
            guard = GUARD_OF.get(kind)
            if guard is not None:
                field = GUARDS[guard][0]
                sizes[guard] = max(sizes.get(guard, 0), op["size"][field])
    return {guard: size / GUARDS[guard][1]() for guard, size in sorted(sizes.items())}
