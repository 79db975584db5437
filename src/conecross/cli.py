"""Command-line front end.

Subcommands: gen, cr, book, convert12, bounds, experiment.  All output is
JSON on stdout; graph, book, and certificate files use the versioned
formats from the library modules.  Exit codes: 0 when every verdict
passes, 1 when a verdict fails, 2 for usage errors, an option that the
command does not read among them (argparse uses 2 on its own already),
and 141 (as for SIGPIPE in a shell), with nothing on stderr, when the
reader closes stdout early (``conecross cr fig1 | head``).
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


# Family name -> (the flags it reads, its builder, which takes them as
# keywords).  Only --t may be left out: subdivide_edge draws one point.
FAMILIES = {
    "kn": (("n",), complete_graph),
    "cycle": (("n",), cycle_graph),
    "fk": (("k",), f_graph),
    "fig1": ((), fig1_graph),
    "fig3": ((), fig3_graph),
    "mult": (("base", "r"), lambda base, r: multiply_edges(_load_graph(base), r)),
    "union": (
        ("base", "other"),
        lambda base, other: disjoint_union(_load_graph(base), _load_graph(other)),
    ),
    "cone": (("base",), lambda base: cone(_load_graph(base))),
    "subdivide": (
        ("base", "edge", "t"),
        lambda base, edge, **t: subdivide_edge(_load_graph(base), edge, **t),
    ),
}


def cmd_gen(args: argparse.Namespace) -> int:
    reads, build = FAMILIES[args.family]
    flags = {flag for names, _ in FAMILIES.values() for flag in names}
    given = {f: getattr(args, f) for f in flags if getattr(args, f) is not None}
    if not set(reads) - {"t"} <= set(given) <= set(reads):
        usage = " ".join(f"[--{f}]" if f == "t" else f"--{f}" for f in reads)
        raise UsageError(f"--family {args.family} takes {usage or 'no flags'}")
    g = build(**given)
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

    if mode in ("order", "both"):
        if args.order is not None:
            raise UsageError(f"--optimize {mode} searches orders; drop --order")
        search = outerplanar_search if mode == "order" else two_page_search
        res, drawing = search(g, budget_ms=args.budget_ms)
        crossings, status = res.upper, res.status
        # Only a search proves a lower bound, so only it names the reason.
        found = {"lower_reason": res.lower_reason}
    else:
        if args.budget_ms is not None:
            raise UsageError(f"--optimize {mode} searches nothing; drop --budget-ms")
        draw = one_page_drawing if mode == "none" else one_to_two
        drawing = draw(g, _parse_order(args.order, g.n))
        crossings, status = count_crossings(drawing), "exact"
        found = {}

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
            **found,
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
        if args.multigraph:
            raise UsageError("--sweep compares simple-graph bounds; drop --multigraph")
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
    rows = bound_report(args.k)
    if args.multigraph:
        # The simple-graph lower bound does not apply to multigraphs.
        rows = [r for r in rows if r["bound"] != "cone-lower-simple"]
    _emit(rows, args.out)
    return 0


# Experiment name -> (its runner's name here, looked up when called, the
# keywords it reads, its pass rule, or None for a runner that raises on a
# miss).  A runner gets only the options given: its defaults are its own.
EXPERIMENTS = {
    "fs-small": ("fs_small", ("budget_ms",), lambda rows: all(r["ok"] for r in rows)),
    "family-points": (
        "family_points",
        ("budget_ms",),
        lambda rows: all(r["verified"] and r["matches_formula"] for r in rows),
    ),
    "cor22-suite": ("cor22_suite", ("count", "seed"), None),
    "hh-table": (
        "hh_table",
        ("verify_upto",),
        lambda rows: all(r.get("verified", True) for r in rows),
    ),
    "f5-lower": ("longrun_f5_lower", ("budget_ms",), lambda r: r["status"] == "exact"),
    "z7": ("longrun_z7", ("budget_ms",), lambda r: r["value"] == r["expected"]),
}


def cmd_experiment(args: argparse.Namespace) -> int:
    runner, reads, passes = EXPERIMENTS[args.name]
    given = {kw: v for kw, v in vars(args).items() if kw in reads}
    result = globals()[runner](**given)
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
    p_gen.add_argument("--t", type=int, help="subdivision points")
    p_gen.add_argument("--out")
    p_gen.add_argument("--dot", help="also write DOT here")
    p_gen.set_defaults(func=cmd_gen, parser=p_gen)

    p_cr = sub.add_parser("cr", help="crossing number of a graph file")
    p_cr.add_argument("graph")
    p_cr.add_argument("--max-k", type=int, dest="max_k")
    p_cr.add_argument("--budget-ms", type=int, dest="budget_ms")
    p_cr.add_argument("--cone", action="store_true", help="solve the cone instead")
    p_cr.add_argument("--out")
    p_cr.set_defaults(func=cmd_cr, parser=p_cr)

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
    p_book.set_defaults(func=cmd_book, parser=p_book)

    p_conv = sub.add_parser("convert12", help="move one page onto two via a max cut")
    p_conv.add_argument("graph")
    p_conv.add_argument("--order", help="comma-separated spine order")
    p_conv.add_argument("--out", help="write the 2-page drawing here")
    p_conv.set_defaults(func=cmd_convert12, parser=p_conv)

    p_bounds = sub.add_parser("bounds", help="closed-form bound report")
    mode = p_bounds.add_mutually_exclusive_group(required=True)
    mode.add_argument("--k", type=int)
    mode.add_argument("--sweep", type=int, help="emit rows for 0..K")
    p_bounds.add_argument(
        "--multigraph",
        action="store_true",
        help="drop bounds that require a simple graph",
    )
    p_bounds.add_argument("--out")
    p_bounds.set_defaults(func=cmd_bounds, parser=p_bounds)

    p_exp = sub.add_parser("experiment", help="run a canned experiment")
    runs = p_exp.add_subparsers(dest="name", required=True)
    for name, (_, reads, _) in EXPERIMENTS.items():
        p_run = runs.add_parser(name)
        for kw in reads:
            flag = "--" + kw.replace("_", "-")
            p_run.add_argument(flag, type=int, dest=kw, default=argparse.SUPPRESS)
        p_run.add_argument("--out")
        p_run.set_defaults(parser=p_run)
    p_exp.set_defaults(func=cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args, unread = parser.parse_known_args(argv)
    if unread:
        # Refused by the command's own parser, so the usage line shown is
        # the command's, not the root's.
        args.parser.error(f"unrecognized arguments: {' '.join(unread)}")
    try:
        return args.func(args)
    except BrokenPipeError:
        # Python docs recipe: stdout to devnull, so the flush at exit is quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
