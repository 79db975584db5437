"""Command-line front end.

Subcommands: gen, cr, book, convert12, bounds, experiment.  All output is
JSON on stdout; graph, book, and certificate files use the versioned
formats from the library modules.  Exit codes: 0 when every verdict
passes, 1 when a verdict fails, 2 for usage errors (argparse uses 2 on
its own already).
"""

from __future__ import annotations

import argparse
import json
import sys

from .books import BookDrawing, CyclicOrder, count_crossings, one_page_drawing
from .bounds import bound_report, thm12_min_c, thm41_lower
from .experiments import (
    cor22_suite,
    family_points,
    fs_small,
    hh_table,
    longrun_cone_exhaustion,
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
from .pages import outerplanar_search, split_report, two_page_search
from .parallel import Deadline
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
        print(text)
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


def _thread_count(raw: str) -> int:
    """argparse type for --threads: an integer of at least 1."""
    if not raw.isdecimal() or int(raw) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {raw!r}")
    return int(raw)


def cmd_gen(args: argparse.Namespace) -> int:
    family = args.family
    if family == "kn":
        if args.n is None:
            raise UsageError("--family kn needs --n")
        g = complete_graph(args.n)
    elif family == "cycle":
        if args.n is None:
            raise UsageError("--family cycle needs --n")
        g = cycle_graph(args.n)
    elif family == "fk":
        if args.k is None:
            raise UsageError("--family fk needs --k")
        g = f_graph(args.k)
    elif family == "fig1":
        g = fig1_graph()
    elif family == "fig3":
        g = fig3_graph()
    elif family == "mult":
        if args.base is None or args.r is None:
            raise UsageError("--family mult needs --base and --r")
        g = multiply_edges(_load_graph(args.base), args.r)
    elif family == "union":
        if args.base is None or args.other is None:
            raise UsageError("--family union needs --base and --other")
        g = disjoint_union(_load_graph(args.base), _load_graph(args.other))
    elif family == "cone":
        if args.base is None:
            raise UsageError("--family cone needs --base")
        g = cone(_load_graph(args.base))
    elif family == "subdivide":
        if args.base is None or args.edge is None:
            raise UsageError("--family subdivide needs --base and --edge")
        g = subdivide_edge(_load_graph(args.base), args.edge, args.t)
    else:
        raise UsageError(f"unknown family {family!r}")
    _emit(g.to_json_dict(), args.out)
    if args.dot is not None:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(g.to_dot())
    return 0


def cmd_cr(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    if args.cone:
        from .apex import cone_cr

        res = cone_cr(g, max_k=args.max_k, budget_ms=args.budget_ms, threads=args.threads)
    else:
        res = cr_exact(g, max_k=args.max_k, budget_ms=args.budget_ms, threads=args.threads)
    _emit(res.to_json_dict(), args.out)
    return 0


def cmd_book(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    mode = args.optimize
    pages = args.pages
    if pages is None:
        pages = 2 if mode in ("partition", "both") else 1
    if mode in ("partition", "both") and pages != 2:
        raise UsageError(f"--optimize {mode} produces 2 pages, got --pages {pages}")
    if mode in ("none", "order") and pages != 1:
        raise UsageError(f"--optimize {mode} keeps 1 page; use partition or both for 2")
    # Only the order searches spend the budget, but every mode refuses a bad one.
    Deadline(args.budget_ms)

    status = "exact"
    if mode == "none":
        order = _parse_order(args.order, g.n)
        drawing = one_page_drawing(g, order)
        crossings = count_crossings(drawing)
    elif mode == "partition":
        order = _parse_order(args.order, g.n)
        report = split_report(g, order)
        drawing = report.drawing
        crossings = report.crossings
    elif mode == "order":
        if args.order is not None:
            raise UsageError("--optimize order searches orders; drop --order")
        res, drawing = outerplanar_search(g, budget_ms=args.budget_ms, threads=args.threads)
        crossings = res.upper
        status = res.status
    else:
        if args.order is not None:
            raise UsageError("--optimize both searches orders; drop --order")
        res, drawing = two_page_search(g, budget_ms=args.budget_ms, threads=args.threads)
        crossings = res.upper
        status = res.status

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
            "verdict": "pass" if report.bound_ok else "fail",
        }
    )
    return 0 if report.bound_ok else 1


def cmd_bounds(args: argparse.Namespace) -> int:
    if args.sweep is not None:
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
    report = bound_report(args.k)
    rows = report.rows()
    if args.multigraph:
        # The simple-graph lower bound does not apply to multigraphs.
        rows = [r for r in rows if r["bound"] != "cone-lower-simple"]
    _emit(rows, args.out)
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    name = args.name
    if name == "fs-small":
        rows = fs_small(threads=args.threads, budget_ms=args.budget_ms)
        _emit(rows, args.out)
        return 0 if all(r["ok"] for r in rows) else 1
    if name == "family-points":
        rows = family_points(threads=args.threads, budget_ms=args.budget_ms)
        _emit(rows, args.out)
        return 0 if all(r["verified"] and r["matches_formula"] for r in rows) else 1
    if name == "cor22-suite":
        result = cor22_suite(count=args.count, seed=args.seed)
        _emit(result, args.out)
        return 0 if not result["failures"] else 1
    if name == "hh-table":
        rows = hh_table(verify_upto=args.verify_upto, threads=args.threads)
        _emit(rows, args.out)
        return 0 if all(r.get("verified", True) for r in rows) else 1
    if name == "cone-exhaustion":
        result = longrun_cone_exhaustion(threads=args.threads, budget_ms=args.budget_ms)
        _emit(result, args.out)
        return 0 if result["status"] == "exact" else 1
    if name == "f5-lower":
        result = longrun_f5_lower(threads=args.threads, budget_ms=args.budget_ms)
        _emit(result, args.out)
        return 0 if result["status"] == "exact" else 1
    if name == "z7":
        result = longrun_z7(threads=args.threads, budget_ms=args.budget_ms)
        _emit(result, args.out)
        return 0 if result["value"] == result["expected"] else 1
    raise UsageError(f"unknown experiment {name!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conecross",
        description="Crossing-number workbench for cones and book drawings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a graph file")
    p_gen.add_argument(
        "--family",
        required=True,
        choices=[
            "kn",
            "cycle",
            "fk",
            "fig1",
            "fig3",
            "mult",
            "union",
            "cone",
            "subdivide",
        ],
    )
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
    p_cr.add_argument("--threads", type=_thread_count, default=1)
    p_cr.add_argument("--out")
    p_cr.set_defaults(func=cmd_cr)

    p_book = sub.add_parser("book", help="build or optimize a book drawing")
    p_book.add_argument("graph")
    p_book.add_argument("--order", help="comma-separated spine order")
    p_book.add_argument("--pages", type=int, choices=[1, 2])
    p_book.add_argument(
        "--optimize",
        choices=["none", "partition", "order", "both"],
        default="none",
    )
    p_book.add_argument("--budget-ms", type=int, dest="budget_ms")
    p_book.add_argument("--threads", type=_thread_count, default=1)
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
    p_exp.add_argument(
        "name",
        choices=[
            "fs-small",
            "family-points",
            "cor22-suite",
            "hh-table",
            "cone-exhaustion",
            "f5-lower",
            "z7",
        ],
    )
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--count", type=int, default=1000)
    p_exp.add_argument("--verify-upto", type=int, default=0, dest="verify_upto")
    p_exp.add_argument("--budget-ms", type=int, dest="budget_ms")
    p_exp.add_argument("--threads", type=_thread_count, default=1)
    p_exp.add_argument("--out")
    p_exp.set_defaults(func=cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
