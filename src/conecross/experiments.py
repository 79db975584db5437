"""Canned experiment drivers behind the `conecross experiment` subcommand.

Each driver returns plain dict rows so the CLI can print them as JSON and
tests can assert on them directly.  The F5 lower bound and the K7
two-page sweep run in seconds and are always tested.
"""

from __future__ import annotations

import random

from .apex import cone_cr, insert_apex
from .books import CyclicOrder
from .bounds import fs_known, harary_hill, multigraph_family_point, thm41_lower
from .certificates import (
    SolveResult,
    f_graph_certificate,
    fig1_certificate,
    fig1_cone_certificate,
    scale_certificate,
    verify_certificate,
)
from .graphs import (
    Multigraph,
    complete_graph,
    cone,
    f_graph,
    fig1_graph,
    fig3_graph,
    multiply_edges,
    random_graph,
)
from .maxcut import EXACT_LIMIT
from .pages import split_report, two_page_cr
from .solver import cr_exact


def _fs_witness(k: int) -> tuple[str, Multigraph]:
    if k == 1:
        return "K5", complete_graph(5)
    if k == 2:
        return "wheel-with-chords", fig3_graph()
    if k == 3:
        return "triangle-hexagon", fig1_graph()
    return f"fan-family-{k}", f_graph(k)


def _exact(res: SolveResult) -> int | None:
    """The bracket's value if it is closed, else None."""
    return res.lower if res.status == "exact" else None


def fs_small(budget_ms: int | None = None) -> list[dict]:
    """The f_s(k) table for k = 1..5 with per-row provenance.

    Each row reads two brackets: the witness's crossing number and its
    cone's.  For k <= 3 both come from search (``cr_exact`` and
    ``cone_cr``).  For k = 4, 5 the witness solve is seeded with the
    family's k-crossing drawing, whose lower bound the counting argument
    closes, and the cone's bracket pairs that drawing with the apex
    inserted and the closed-form floor of Theorem 4.1 (``thm41``).  An
    open bracket prints as null and fails its row.
    """
    rows = []
    for k in range(1, 6):
        name, g = _fs_witness(k)
        if k <= 3:
            base = cr_exact(g, budget_ms=budget_ms)
            conev = cone_cr(g, budget_ms=budget_ms)
            provenance = "solver-exact"
        else:
            cert = f_graph_certificate(k)
            base = cr_exact(g, budget_ms=budget_ms, upper_seed=(k, cert))
            conev = SolveResult(thm41_lower(k), insert_apex(g, cert), lower_reason="thm41")
            provenance = "certificate+theorem"
        value, witness_cr = _exact(conev), _exact(base)
        lower = thm41_lower(k)
        ok = witness_cr is not None and witness_cr >= k and value == fs_known(k) == lower
        rows.append(
            {
                "k": k,
                "value": value,
                "witness": name,
                "witness_cr": witness_cr,
                "provenance": provenance,
                "lower_bound": lower,
                "ok": ok,
            }
        )
    return rows


def family_points(budget_ms: int | None = None) -> list[dict]:
    """Multigraph family datapoints (3r^2, 3r^2 + 3r) for r = 1, 2.

    Each row scales the triangle-hexagon graph's drawing and its cone's
    (the apex outside the hexagon, so only three of the six crossings
    touch apex edges) to the r-fold graph and verifies both; scaling
    multiplies base crossings by r^2 and apex crossings by r, and is the
    identity at r = 1.  The r = 1 row is verified only if the exact
    solver also closes the base graph at the drawing's count.
    """
    g1 = fig1_graph()
    cert1, cone_cert1 = fig1_certificate(), fig1_cone_certificate()
    base = cr_exact(g1, budget_ms=budget_ms)
    rows = []
    for r in (1, 2):
        g = multiply_edges(g1, r)
        k, ok = verify_certificate(g, scale_certificate(g1, cert1, g))
        c, cone_ok = verify_certificate(
            cone(g), scale_certificate(cone(g1), cone_cert1, cone(g))
        )
        solved = r > 1 or _exact(base) == k
        rows.append(
            {
                "r": r,
                "k": k,
                "cone_crossings": c,
                "verified": ok and cone_ok and solved,
                "matches_formula": (k, c) == multigraph_family_point(r),
            }
        )
    return rows


def cor22_suite(count: int = 1000, seed: int = 0) -> dict:
    """Random page-splitting sweep: crossings == k - maxcut, bound holds.

    Each trial draws a random simple graph (n <= 12, m <= 30) and a
    random spine order and splits the one-page drawing onto two pages.
    ``split_report`` checks both; a miss raises RuntimeError (exit 1), so
    the result only names the sweep that passed.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 12)
        m = rng.randint(0, min(30, n * (n - 1) // 2))
        g = random_graph(n, m, seed=rng.randrange(2**32))
        order = list(range(n))
        rng.shuffle(order)
        split_report(g, CyclicOrder(tuple(order)))
    return {"count": count, "seed": seed}


def hh_table(verify_upto: int = 0) -> list[dict]:
    """Z(n) for n = 5..12, optionally cross-checked by two-page search.

    Verification solves the free-order two-page problem for K_n, which
    is only feasible for small n; the cut solver caps the largest
    checkable complete graph well before the table ends.
    """
    top = min(verify_upto, 12)
    if top >= 5 and top * (top - 1) // 2 > EXACT_LIMIT:
        raise ValueError(f"two-page check infeasible for n={top}")
    rows = []
    for n in range(5, 13):
        row = {"n": n, "z": harary_hill(n)}
        if 5 <= n <= verify_upto:
            row["two_page"] = _exact(two_page_cr(complete_graph(n)))
            row["verified"] = row["two_page"] == row["z"]
        rows.append(row)
    return rows


def longrun_f5_lower(budget_ms: int | None = None) -> dict:
    """Prove the k = 5 fan-family graph needs at least five crossings.

    The solve is seeded with the family's 5-crossing drawing, so the
    vertex count closes it: one capped sub-search per vertex orbit of F5
    (under a second on a 2-core x86 host).
    """
    res = cr_exact(f_graph(5), upper_seed=(5, f_graph_certificate(5)), budget_ms=budget_ms)
    return {
        "value": _exact(res),
        "lower": res.lower,
        "status": res.status,
        "nodes": res.stats.nodes,
        "planarity_calls": res.stats.planarity_calls,
    }


def longrun_z7(budget_ms: int | None = None) -> dict:
    """Two-page crossing number of K7, expected to equal Z(7) = 9."""
    res = two_page_cr(complete_graph(7), budget_ms=budget_ms)
    return {
        "value": _exact(res),
        "status": res.status,
        "expected": harary_hill(7),
    }
