"""Command-line front end.

Subcommands: gen, invariants, ass, betti, sort-check, graph, report.
JSON on stdout is the primary output (CSV for grid reports, readable text
behind --human); identical invocations yield byte-identical documents.
Exit codes: 0 ok, 1 stdout closed early (broken pipe), 2 usage, 3 range
error, 4 size-guard error.
"""

import argparse
import json
import os
import sys

from . import assoc, covers, homology, report, sorting
from .builders import bitype_ideal, bitype_ideal_by_compositions, make_params
from .core import BlockStructure
from .errors import BitypeError, ParameterRangeError, SizeGuardError
from .graphs import edge_ideal, generalized_graph_ideal, strong_block_graph, to_dot

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_USAGE = 2
EXIT_RANGE = 3
EXIT_GUARD = 4


def _parse_blocks(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ParameterRangeError(f"cannot parse block sizes from {text!r}")
    return sizes


def _params(args):
    return make_params(_parse_blocks(args.blocks), args.t, args.s)


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1)


def _emit(doc, human_lines=None, human=False):
    if human and human_lines is not None:
        for line in human_lines:
            print(line)
    else:
        print(_dumps(doc))


def _dumps(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``, byte for byte.

    The stdlib encodes any indented document with its pure-Python encoder,
    one call per value.  This writer has the same layout but writes a list
    of plain ints, such as an exponent vector, in one join.  It takes only
    what the CLI emits: dicts with str keys, lists, tuples, str, int, bool
    and None.  Anything else is a TypeError.
    """
    return _encode(doc, "\n")


_quote = json.encoder.encode_basestring_ascii


def _encode(value, newline: str) -> str:
    """One value of :func:`_dumps`; ``newline`` ends a line at this value's depth."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    inner = newline + "  "
    if kind is dict:
        if not value:
            return "{}"
        # _quote raises the TypeError for a key that is not a str
        body = [_quote(key) + ": " + _encode(value[key], inner) for key in sorted(value)]
        return "{" + inner + ("," + inner).join(body) + newline + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        if all(type(item) is int for item in value):
            body = map(int.__repr__, value)
        else:
            body = [_encode(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(body) + newline + "]"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _cmd_gen(args) -> int:
    params = _params(args)
    build = bitype_ideal_by_compositions if args.by_compositions else bitype_ideal
    ideal = build(params)
    doc = ideal.to_dict()
    doc.update(
        {
            "t": args.t,
            "s": args.s,
            "construction": "compositions" if args.by_compositions else "direct",
            "pretty": ideal.pretty_gens(),
            "count": len(ideal),
        }
    )
    human = [f"{len(ideal)} generators:"] + [f"  {p}" for p in ideal.pretty_gens()]
    _emit(doc, human_lines=human, human=args.human)
    return EXIT_OK


def _cmd_invariants(args) -> int:
    params = _params(args)
    ideal = bitype_ideal(params)
    covers_list = covers.minimal_vertex_covers(ideal, args.max_cover_vars)
    dim_o = covers.dim_from_covers(ideal, covers_list)

    def names(w):
        return [ideal.blocks.var_name(k) for k in sorted(w)]

    try:
        dim_f = covers.dim_formula(params)
        unmixed_f = covers.unmixed_formula(params)
    except ParameterRangeError:
        dim_f = None
        unmixed_f = None
    doc = {
        "blocks": list(params.blocks.block_sizes),
        "t": args.t,
        "s": args.s,
        "dimFormula": dim_f,
        "dimOracle": dim_o,
        "h": ideal.blocks.n_vars - dim_o,
        "minimalCovers": [names(w) for w in covers_list],
        "unmixedFormula": unmixed_f,
        "unmixedOracle": covers.unmixed_from_covers(covers_list),
        "regFormula": covers.regularity_formula(params),
    }
    human = [
        f"dim: formula={doc['dimFormula']} oracle={doc['dimOracle']}",
        f"cover number h: {doc['h']}",
        f"minimal covers: {['{' + ', '.join(w) + '}' for w in doc['minimalCovers']]}",
        f"unmixed: formula={doc['unmixedFormula']} oracle={doc['unmixedOracle']}",
        f"regularity formula: {doc['regFormula']}",
    ]
    _emit(doc, human_lines=human, human=args.human)
    return EXIT_OK


def _cmd_ass(args) -> int:
    params = _params(args)
    formula = None
    try:
        formula = assoc.associated_primes_formula(params)
    except ParameterRangeError:
        if not args.oracle:
            raise
    doc = {"blocks": list(params.blocks.block_sizes), "t": args.t, "s": args.s}
    doc["formula"] = [list(p.names()) for p in formula] if formula is not None else None
    if args.oracle:
        oracle = assoc.associated_primes_oracle(bitype_ideal(params), args.max_witness_box)
        doc["oracle"] = [list(p.names()) for p in oracle]
        if formula is not None:
            doc["agree"] = {p.indices for p in formula} == {p.indices for p in oracle}
    if args.witnesses:
        if formula is not None:
            doc["witnesses"] = {
                "+".join(p.names()): assoc.witness_monomial(params, p).pretty() for p in formula
            }
        else:
            doc["witnesses"] = {"+".join(p.names()): w.pretty() for p, w in oracle.items()}
    human = [f"associated prime supports ({'formula' if formula else 'oracle'}):"]
    for entry in doc.get("formula") or doc.get("oracle") or []:
        human.append("  (" + ", ".join(entry) + ")")
    if "agree" in doc:
        human.append(f"formula agrees with oracle: {doc['agree']}")
    _emit(doc, human_lines=human, human=args.human)
    return EXIT_OK


def _cmd_betti(args) -> int:
    params = _params(args)
    ideal = bitype_ideal(params)
    table = homology.betti_table(ideal, args.max_box)
    doc = table.to_dict()
    doc.update(
        {
            "blocks": list(params.blocks.block_sizes),
            "t": args.t,
            "s": args.s,
            "regularity": table.quotient_regularity(),
            "regularityFormula": covers.regularity_formula(params),
        }
    )
    human = [
        f"regularity: oracle={doc['regularity']} formula={doc['regularityFormula']}",
        "coarse table (ideal convention):",
    ] + [f"  beta_{e['i']},{e['j']} = {e['rank']}" for e in doc["coarse"]]
    _emit(doc, human_lines=human, human=args.human)
    return EXIT_OK


def _cmd_sort_check(args) -> int:
    params = _params(args)
    violation = sorting.sortable_violation(params)
    doc = {
        "blocks": list(params.blocks.block_sizes),
        "t": args.t,
        "s": args.s,
        "sortable": violation is None,
        "violation": list(violation) if violation is not None else None,
    }
    pres = sorting.ToricPresentation(bitype_ideal(params))
    if args.gb_evidence:
        evidence = sorting.quadratic_gb_evidence(
            pres, max_degree=args.max_degree, pair_cap=args.max_pairs
        )
        doc.update(evidence.to_dict())
    else:
        try:
            doc["relationCount"] = len(sorting.sorting_relations(pres, args.max_pairs))
        except SizeGuardError as exc:
            # sortability itself is already settled by sortable_violation above
            doc["relationCount"] = None
            doc["guardNote"] = str(exc)
        doc["fibersChecked"] = {}
        doc["violations"] = []
    human = [
        f"sortable: {doc['sortable']}",
        f"sorting relations: {doc.get('relationCount')}",
        f"fibers checked: {doc.get('fibersChecked')}",
        f"violations: {doc.get('violations')}",
    ]
    _emit(doc, human_lines=human, human=args.human)
    return EXIT_OK


def _cmd_graph(args) -> int:
    blocks = BlockStructure(_parse_blocks(args.blocks))
    graph = strong_block_graph(blocks, args.mode)
    if args.edge_ideal:
        ideal = edge_ideal(graph)
        t_for_compare = 2
    else:
        ideal = generalized_graph_ideal(
            graph, args.t, ordered=args.ordered, span_blocks=not args.no_span
        )
        t_for_compare = args.t
    try:
        direct = bitype_ideal(make_params(blocks.block_sizes, t_for_compare, 2))
        equals = ideal == direct
    except ParameterRangeError:
        equals = False
    doc = {
        "blocks": list(blocks.block_sizes),
        "t": t_for_compare,
        "mode": args.mode,
        "ordered": args.ordered,
        "spanBlocks": not args.no_span,
        "edgeIdeal": bool(args.edge_ideal),
        "edges": [[blocks.var_name(u), blocks.var_name(w)] for u, w in graph.edge_pairs()],
        "generators": [list(g.entries) for g in ideal.gens],
        "pretty": ideal.pretty_gens(),
        "equalsLStar": equals,
    }
    if args.dot:
        try:
            with open(args.dot, "w") as handle:
                handle.write(to_dot(graph))
        except OSError as exc:
            raise ParameterRangeError(f"cannot write {args.dot!r}: {exc.strerror}") from None
    human = [
        f"edges: {len(doc['edges'])}",
        f"generators: {len(doc['generators'])}",
        f"matches the degree-capped block ideal: {equals}",
    ]
    _emit(doc, human_lines=human, human=args.human)
    return EXIT_OK


def _cmd_report(args) -> int:
    rows = report.report_grid(args.grid)
    if args.human:
        for row in rows:
            print(
                f"{'.'.join(map(str, row.blocks)):>8} t={row.t:<3} s={row.s} "
                f"{row.quantity:<11} formula={row.formula:<10} oracle={row.oracle:<10} "
                f"agree={row.agree:<5} [{row.status}]"
            )
    else:
        sys.stdout.write(report.rows_to_csv(rows, timings=args.timings))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bitype",
        description="Exact combinatorics for degree-capped block monomial ideals.",
    )
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="accepted for compatibility; all work runs on one thread",
    )
    shared.add_argument("--human", action="store_true", help="readable text instead of JSON/CSV")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, help_text):
        return sub.add_parser(name, help=help_text, parents=[shared])

    def common(p, with_s=True):
        p.add_argument("--blocks", required=True, help="comma-separated block sizes, e.g. 2,2")
        p.add_argument("--t", type=int, required=True, help="generating degree")
        if with_s:
            p.add_argument("--s", type=int, required=True, help="exponent cap")

    p_gen = add_command("gen", "construct the ideal")
    common(p_gen)
    p_gen.add_argument("--by-compositions", action="store_true", help="use the literal composition sum")
    p_gen.set_defaults(fn=_cmd_gen)

    p_inv = add_command("invariants", "covers, dimension, unmixedness, regularity formula")
    common(p_inv)
    p_inv.add_argument("--max-cover-vars", type=_positive_int, default=None, help="cover enumeration guard")
    p_inv.set_defaults(fn=_cmd_invariants)

    p_ass = add_command("ass", "associated prime supports")
    common(p_ass)
    p_ass.add_argument("--oracle", action="store_true", help="run the exhaustive colon search too")
    p_ass.add_argument("--witnesses", action="store_true", help="include a witness monomial per support")
    p_ass.add_argument("--max-witness-box", type=_positive_int, default=None, help="witness box guard")
    p_ass.set_defaults(fn=_cmd_ass)

    p_betti = add_command("betti", "multigraded Betti table and regularity oracle")
    common(p_betti)
    p_betti.add_argument("--max-box", type=_positive_int, default=None, help="multidegree box guard")
    p_betti.set_defaults(fn=_cmd_betti)

    p_sort = add_command("sort-check", "sortability and quadratic relation evidence")
    common(p_sort)
    p_sort.add_argument("--gb-evidence", action="store_true", help="check fibers in degrees 2..max-degree")
    p_sort.add_argument("--max-degree", type=_int_at_least(2), default=3, help="largest fiber degree to check")
    p_sort.add_argument("--max-pairs", type=_positive_int, default=None, help="generator pair guard")
    p_sort.set_defaults(fn=_cmd_sort_check)

    p_graph = add_command("graph", "strong block graph and its walk ideal")
    p_graph.add_argument("--blocks", required=True, help="comma-separated block sizes")
    p_graph.add_argument("--t", type=int, default=3, help="walk ideal degree (>= 3)")
    p_graph.add_argument("--mode", choices=["all", "consecutive"], default="all")
    p_graph.add_argument("--ordered", action="store_true", help="restrict to nondecreasing block order")
    p_graph.add_argument("--no-span", action="store_true", help="do not require walks to span all blocks")
    p_graph.add_argument("--edge-ideal", action="store_true", help="emit the degree-2 edge ideal instead")
    p_graph.add_argument("--dot", default=None, help="also write the graph in DOT form to this path")
    p_graph.set_defaults(fn=_cmd_graph)

    p_rep = add_command("report", "formula-vs-oracle sweep as CSV")
    p_rep.add_argument("--grid", default="small", help="named grid: small or full")
    p_rep.add_argument("--timings", action="store_true", help="include per-row milliseconds")
    p_rep.set_defaults(fn=_cmd_report)

    return parser


def _error(kind: str, message: str) -> None:
    print(json.dumps({"error": {"type": kind, "message": message}}, sort_keys=True))


def _run(args) -> int:
    try:
        return args.fn(args)
    except SizeGuardError as exc:
        _error("guard", str(exc))
        return EXIT_GUARD
    except BitypeError as exc:
        _error("range", str(exc))
        return EXIT_RANGE
    except RecursionError:
        # the generator builders and the sortability search recurse once
        # per variable, so very wide block structures run out of stack
        where = ""
        if hasattr(args, "blocks"):  # every command but report
            where = f" over {sum(_parse_blocks(args.blocks))} variables"
        _error("guard", f"enumeration{where} exceeds the recursion limit {sys.getrecursionlimit()}")
        return EXIT_GUARD


_PARSER = None


def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reuses, built on its first call.

    Not at import, which stays cheap.  Reuse is safe: each ``parse_args``
    returns a fresh namespace, no action keeps state between calls, and
    usage errors go to ``sys.stderr`` as it is at the time of the call.
    """
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    return _PARSER


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = _run(args)
        sys.stdout.flush()  # a closed pipe must fail here, not at shutdown
    except BrokenPipeError:
        # the recipe from the signal module docs: later writes and the flush
        # at interpreter exit go to devnull, so nothing is printed
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
