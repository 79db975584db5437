"""Command-line front end.

Subcommands: gen, cr, book, convert12, bounds, experiment.  All output is
JSON on stdout; graph, book, and certificate files use the versioned
formats from the library modules.  Exit codes: 0 when every verdict
passes, 1 when a verdict fails, 2 for usage errors (argparse uses 2 on
its own already), and 141 (as for SIGPIPE in a shell), with nothing on
stderr, when the reader closes stdout early (``conecross cr fig1 | head``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .apex import cone_cr
from .books import BookDrawing, CyclicOrder, count_crossings, one_page_drawing
from .bounds import bound_report, thm12_min_c, thm41_lower
from .experiments import (
    cor22_suite,
    family_points,
    fs_small,
    hh_table,
    longrun_f5_lower,
    longrun_z7,
)
from .graphs import (
    Multigraph,
    complete_graph,
    cone,
    cycle_graph,
    disjoint_union,
    f_graph,
    fig1_graph,
    fig3_graph,
    multiply_edges,
    subdivide_edge,
)
from .pages import one_to_two, outerplanar_search, split_report, two_page_search
from .deadline import Deadline
from .solver import cr_exact


class UsageError(Exception):
    pass


def _load_graph(path: str) -> Multigraph:
    if path in ("fig1", "fig3"):
        return fig1_graph() if path == "fig1" else fig3_graph()
    try:
        with open(path, encoding="utf-8") as fh:
            return Multigraph.from_json(fh.read())
    except OSError as exc:
        raise UsageError(f"cannot read graph file {path!r}: {exc}") from exc
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"malformed graph file {path!r}: {exc}") from exc


def _parse_order(raw: str | None, n: int) -> CyclicOrder:
    if raw is None:
        return CyclicOrder.natural(n)
    try:
        seq = tuple(int(part) for part in raw.split(","))
        return CyclicOrder(seq)
    except ValueError as exc:
        raise UsageError(f"bad --order {raw!r}: {exc}") from exc


def _emit(obj, out: str | None = None) -> None:
    text = json.dumps(obj, indent=2)
    if out is None:
        # Flushed here, so that a closed pipe raises inside ``main``.
        print(text, flush=True)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _book_dot(d: BookDrawing) -> str:
    """DOT text with page and crossing annotations."""
    pairs = d.crossing_pairs()
    per_edge: dict[int, int] = {}
    for e, f in pairs:
        per_edge[e] = per_edge.get(e, 0) + 1
        per_edge[f] = per_edge.get(f, 0) + 1
    lines = [
        "graph book {",
        f'  label="{len(pairs)} crossings";',
        "  layout=circo;",
    ]
    for pos, v in enumerate(d.order.seq):
        lines.append(f'  {v} [spine_position={pos}];')
    for idx, (u, v, _copy) in enumerate(d.graph.instances()):
        page = d.pages[idx]
        crossed = per_edge.get(idx, 0)
        lines.append(f'  {u} -- {v} [page={page}, crossings={crossed}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# Family name -> (the flags it needs, its builder from the parsed args).
FAMILIES = {
    "kn": (("n",), lambda a: complete_graph(a.n)),
    "cycle": (("n",), lambda a: cycle_graph(a.n)),
    "fk": (("k",), lambda a: f_graph(a.k)),
    "fig1": ((), lambda a: fig1_graph()),
    "fig3": ((), lambda a: fig3_graph()),
    "mult": (("base", "r"), lambda a: multiply_edges(_load_graph(a.base), a.r)),
    "union": (
        ("base", "other"),
        lambda a: disjoint_union(_load_graph(a.base), _load_graph(a.other)),
    ),
    "cone": (("base",), lambda a: cone(_load_graph(a.base))),
    "subdivide": (
        ("base", "edge"),
        lambda a: subdivide_edge(_load_graph(a.base), a.edge, a.t),
    ),
}


def cmd_gen(args: argparse.Namespace) -> int:
    needs, build = FAMILIES[args.family]
    if any(getattr(args, flag) is None for flag in needs):
        flags = " and ".join(f"--{flag}" for flag in needs)
        raise UsageError(f"--family {args.family} needs {flags}")
    g = build(args)
    _emit(g.to_json_dict(), args.out)
    if args.dot is not None:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(g.to_dot())
    return 0


def cmd_cr(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    if args.cone:
        res = cone_cr(g, max_k=args.max_k, budget_ms=args.budget_ms)
    else:
        res = cr_exact(g, max_k=args.max_k, budget_ms=args.budget_ms)
    _emit(res.to_json_dict(), args.out)
    return 0


def cmd_book(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    mode = args.optimize
    pages = 2 if mode in ("partition", "both") else 1
    # Only the order searches spend the budget, but every mode refuses a bad one.
    Deadline(args.budget_ms)

    if mode in ("order", "both"):
        if args.order is not None:
            raise UsageError(f"--optimize {mode} searches orders; drop --order")
        search = outerplanar_search if mode == "order" else two_page_search
        res, drawing = search(g, budget_ms=args.budget_ms)
        crossings, status = res.upper, res.status
    else:
        draw = one_page_drawing if mode == "none" else one_to_two
        drawing = draw(g, _parse_order(args.order, g.n))
        crossings, status = count_crossings(drawing), "exact"

    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(drawing.to_json() + "\n")
    if args.dot is not None:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(_book_dot(drawing))
    _emit(
        {
            "crossings": crossings,
            "status": status,
            "pages": pages,
            "order": list(drawing.order.seq),
        }
    )
    return 0


def cmd_convert12(args: argparse.Namespace) -> int:
    """Split a 1-page drawing onto 2 pages.  A split that misses the
    Edwards bound raises RuntimeError, exit 1."""
    g = _load_graph(args.graph)
    order = _parse_order(args.order, g.n)
    report = split_report(g, order)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.drawing.to_json() + "\n")
    _emit(
        {
            "k": report.one_page_crossings,
            "cut": report.cut.size,
            "crossings": report.crossings,
        }
    )
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    if args.sweep is not None:
        if args.sweep < 0:
            raise ValueError("--sweep must be non-negative")
        rows = []
        violations = 0
        for k in range(args.sweep + 1):
            simple = thm41_lower(k)
            sqrt_form = thm12_min_c(k)
            dominates = simple >= sqrt_form
            violations += 0 if dominates else 1
            rows.append(
                {
                    "k": k,
                    "cone-lower-sqrt": sqrt_form,
                    "cone-lower-simple": simple,
                    "dominates": dominates,
                }
            )
        _emit({"rows": rows, "dominance_violations": violations}, args.out)
        return 0
    if args.k is None:
        raise UsageError("bounds needs --k or --sweep")
    rows = bound_report(args.k)
    if args.multigraph:
        # The simple-graph lower bound does not apply to multigraphs.
        rows = [r for r in rows if r["bound"] != "cone-lower-simple"]
    _emit(rows, args.out)
    return 0


# Experiment name -> (its runner from the parsed args, its pass rule, or
# None for a runner that raises on a miss).
EXPERIMENTS = {
    "fs-small": (
        lambda a: fs_small(budget_ms=a.budget_ms),
        lambda rows: all(r["ok"] for r in rows),
    ),
    "family-points": (
        lambda a: family_points(budget_ms=a.budget_ms),
        lambda rows: all(r["verified"] and r["matches_formula"] for r in rows),
    ),
    "cor22-suite": (lambda a: cor22_suite(count=a.count, seed=a.seed), None),
    "hh-table": (
        lambda a: hh_table(verify_upto=a.verify_upto),
        lambda rows: all(r.get("verified", True) for r in rows),
    ),
    "f5-lower": (
        lambda a: longrun_f5_lower(budget_ms=a.budget_ms),
        lambda result: result["status"] == "exact",
    ),
    "z7": (
        lambda a: longrun_z7(budget_ms=a.budget_ms),
        lambda result: result["value"] == result["expected"],
    ),
}


def cmd_experiment(args: argparse.Namespace) -> int:
    run, passes = EXPERIMENTS[args.name]
    result = run(args)
    _emit(result, args.out)
    return 0 if passes is None or passes(result) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conecross",
        description="Crossing-number workbench for cones and book drawings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a graph file")
    p_gen.add_argument("--family", required=True, choices=list(FAMILIES))
    p_gen.add_argument("--n", type=int)
    p_gen.add_argument("--k", type=int)
    p_gen.add_argument("--r", type=int)
    p_gen.add_argument("--base", help="graph file path, or fig1/fig3")
    p_gen.add_argument("--other", help="second operand for union")
    p_gen.add_argument("--edge", type=int, help="edge id for subdivide")
    p_gen.add_argument("--t", type=int, default=1, help="subdivision points")
    p_gen.add_argument("--out")
    p_gen.add_argument("--dot", help="also write DOT here")
    p_gen.set_defaults(func=cmd_gen)

    p_cr = sub.add_parser("cr", help="crossing number of a graph file")
    p_cr.add_argument("graph")
    p_cr.add_argument("--max-k", type=int, dest="max_k")
    p_cr.add_argument("--budget-ms", type=int, dest="budget_ms")
    p_cr.add_argument("--cone", action="store_true", help="solve the cone instead")
    p_cr.add_argument("--out")
    p_cr.set_defaults(func=cmd_cr)

    p_book = sub.add_parser("book", help="build or optimize a book drawing")
    p_book.add_argument("graph")
    p_book.add_argument("--order", help="comma-separated spine order")
    p_book.add_argument(
        "--optimize",
        choices=["none", "partition", "order", "both"],
        default="none",
    )
    p_book.add_argument("--budget-ms", type=int, dest="budget_ms")
    p_book.add_argument("--out", help="write the book drawing here")
    p_book.add_argument("--dot", help="write annotated DOT here")
    p_book.set_defaults(func=cmd_book)

    p_conv = sub.add_parser("convert12", help="move one page onto two via a max cut")
    p_conv.add_argument("graph")
    p_conv.add_argument("--order", help="comma-separated spine order")
    p_conv.add_argument("--out", help="write the 2-page drawing here")
    p_conv.set_defaults(func=cmd_convert12)

    p_bounds = sub.add_parser("bounds", help="closed-form bound report")
    p_bounds.add_argument("--k", type=int)
    p_bounds.add_argument("--sweep", type=int, help="emit rows for 0..K")
    p_bounds.add_argument(
        "--multigraph",
        action="store_true",
        help="drop bounds that require a simple graph",
    )
    p_bounds.add_argument("--out")
    p_bounds.set_defaults(func=cmd_bounds)

    p_exp = sub.add_parser("experiment", help="run a canned experiment")
    p_exp.add_argument("name", choices=list(EXPERIMENTS))
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--count", type=int, default=1000)
    p_exp.add_argument("--verify-upto", type=int, default=0, dest="verify_upto")
    p_exp.add_argument("--budget-ms", type=int, dest="budget_ms")
    p_exp.add_argument("--out")
    p_exp.set_defaults(func=cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Python docs recipe: stdout to devnull, so the flush at exit is quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
