"""Page optimization: 1-page to 2-page conversion and order search.

The conversion step is the redrawing argument made executable: a 1-page
drawing with k crossings has circle graph C with k edges, and moving one
side of a cut of C to a second page removes exactly the cut edges from
the crossing set.  A max cut therefore leaves k - maxcut(C) crossings,
and the Edwards bound turns that into the guarantee
k/2 - (sqrt(8k+1)-1)/8.

Order search (outerplanar and free 2-page) enumerates canonical spine
orders, one vertex at a time for the 1-page case so that partial crossing
counts prune the (n-1)!/2 space.  Both searches run through one driver,
``_order_search``: it runs a scan (``_prefix_search`` or
``_two_page_scan``), draws the best order (or the natural order when no
order finished), and certifies and verifies that drawing before it
answers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from .books import (
    BookDrawing,
    CyclicOrder,
    canonical_orders,
    circle_graph,
    count_crossings,
    one_page_drawing,
)
from .certificates import SolveResult, SolveStats, certificate_from_book, verify_certificate
from .graphs import Multigraph
from .maxcut import EXACT_LIMIT, Cut, EdwardsBound, maxcut_edwards, maxcut_exact
from .deadline import Deadline, require_one_thread

ORDER_SEARCH_LIMIT = 11


def cor22_bound_ok(k: int, crossings: int) -> bool:
    """Exact check of crossings <= k/2 - (sqrt(8k+1)-1)/8.

    That is the Edwards bound met by the cut k - crossings of a circle
    graph with k edges.
    """
    return EdwardsBound(k).met_by(k - crossings)


@dataclass(frozen=True)
class PageSplit:
    """What one_to_two did: the drawing plus its accounting."""

    drawing: BookDrawing
    one_page_crossings: int
    cut: Cut
    crossings: int
    bound_ok: bool


def split_report(g: Multigraph, order: CyclicOrder) -> PageSplit:
    cg = circle_graph(g, order)
    k = cg.m
    if k == 0:
        drawing = one_page_drawing(g, order)
        return PageSplit(drawing, 0, Cut((0,) * g.m, 0), 0, True)
    if cg.n_vertices <= EXACT_LIMIT:
        cut = maxcut_exact(cg.n_vertices, cg.edges)
    else:
        cut = maxcut_edwards(cg.n_vertices, cg.edges)
    drawing = BookDrawing(g, order, tuple(cut.side))
    after = k - cut.size
    report = PageSplit(drawing, k, cut, after, cor22_bound_ok(k, after))
    if count_crossings(drawing) != after:
        raise RuntimeError("page split does not match its cut accounting")
    if not report.bound_ok:
        # Unreachable while maxcut_edwards honours the Edwards bound on
        # every component: component bounds sum to at least the whole
        # bound because (a-1)(b-1) >= 0 for a, b >= 1.
        raise RuntimeError("page split missed the redrawing guarantee")
    return report


def one_to_two(g: Multigraph, order: CyclicOrder) -> BookDrawing:
    """Redraw a 1-page layout on 2 pages, spine order unchanged.

    The result has k - cut crossings where k counts the 1-page crossings
    and cut is a maximum (or Edwards-guaranteed) cut of the circle graph.
    """
    return split_report(g, order).drawing


# An order search's result: (best, best spine order, completed, work count).
OrderScan = tuple[int | None, tuple[int, ...] | None, bool, int]


def _prefix_search(g: Multigraph, deadline: Deadline) -> OrderScan:
    """Best 1-page crossing count over canonical orders, pruned by prefix.

    Crossings between chords with all endpoints placed never change when
    later vertices are appended, so a partial count that reaches the
    incumbent prunes.  Returns (best, best order, completed, nodes).
    """
    n = g.n
    if n <= 2:
        return 0, tuple(range(n)), True, 1
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v, m in g.edges:
        adj[u].append((v, m))
        adj[v].append((u, m))

    best: int | None = None
    best_seq: tuple[int, ...] | None = None
    nodes = 0
    complete = True
    pos = [-1] * n
    seq = [0] * n
    pos[0] = 0
    # Edges with both endpoints placed, as (low position, high position, mult).
    placed: list[tuple[int, int, int]] = []

    def place(t: int, cnt: int) -> None:
        nonlocal best, best_seq, nodes, complete
        if not complete:
            return
        nodes += 1
        if nodes % 1024 == 0 and deadline.expired():
            complete = False
            return
        if best is not None and cnt >= best:
            return
        if t == n:
            best = cnt
            best_seq = tuple(seq)
            return
        for w in range(1, n):
            if pos[w] != -1:
                continue
            if t == n - 1 and w < seq[1]:
                continue
            gained = 0
            new_edges = []
            for x, m in adj[w]:
                px = pos[x]
                if px == -1:
                    continue
                for pa, pb, m2 in placed:
                    if pa < px < pb:
                        gained += m * m2
                new_edges.append((px, t, m))
            pos[w] = t
            seq[t] = w
            placed.extend(new_edges)
            place(t + 1, cnt + gained)
            del placed[len(placed) - len(new_edges) :]
            pos[w] = -1
        return

    place(1, 0)
    return best, best_seq, complete, nodes


def two_page_cr_fixed_order(g: Multigraph, order: CyclicOrder) -> int:
    """Fewest crossings on 2 pages with this spine order: k - maxcut(C)."""
    cg = circle_graph(g, order)
    if cg.n_vertices > EXACT_LIMIT:
        raise ValueError(
            f"circle graph has {cg.n_vertices} vertices, over the exact max-cut limit"
        )
    if cg.m == 0:
        return 0
    return cg.m - maxcut_exact(cg.n_vertices, cg.edges).size


def _two_page_scan(g: Multigraph, deadline: Deadline) -> OrderScan:
    """Fewest 2-page crossings over canonical orders, each split by an
    exact max cut; stops early at 0.

    Returns (best, best order, completed, orders run); no order runs with
    more than EXACT_LIMIT edges, too many for an exact cut.
    """
    if g.m > EXACT_LIMIT:
        return None, None, False, 0
    best: int | None = None
    best_seq: tuple[int, ...] | None = None
    orders_run = 0
    for order in canonical_orders(g.n):
        if deadline.expired():
            return best, best_seq, False, orders_run
        orders_run += 1
        value = two_page_cr_fixed_order(g, order)
        if best is None or value < best:
            best = value
            best_seq = order.seq
            if best == 0:
                break
    return best, best_seq, True, orders_run


def _order_search(
    g: Multigraph,
    scan: Callable[[Multigraph, Deadline], OrderScan],
    drawing_of: Callable[[Multigraph, CyclicOrder], BookDrawing],
    budget_ms: int | None,
) -> tuple[SolveResult, BookDrawing]:
    """Run an order scan and certify the drawing of its best order.

    The scan is exhaustive for n <= ORDER_SEARCH_LIMIT.  When no order
    finished (past the limit, out of budget, or too many edges for an
    exact 2-page split) the natural order's drawing gives a bounds-only
    bracket, unless it has no crossings.  Every drawing returned has a
    verified certificate witnessing the upper bound.
    """
    start = time.monotonic()
    deadline = Deadline(budget_ms)
    if g.n > ORDER_SEARCH_LIMIT:
        value, seq, complete, work = None, None, False, 1
    else:
        value, seq, complete, work = scan(g, deadline)

    order = CyclicOrder.natural(g.n) if seq is None else CyclicOrder(seq)
    drawing = drawing_of(g, order)
    cert = certificate_from_book(drawing)
    count, ok = verify_certificate(g, cert)
    if not ok or (value is not None and count != value):
        raise RuntimeError("order search produced an unrealizable drawing")
    stats = SolveStats(work, 1, (time.monotonic() - start) * 1000)
    if count == 0 or (complete and value is not None):
        return SolveResult(count, count, "exact", cert, stats), drawing
    return SolveResult(0, count, "bounds-only", cert, stats), drawing


def outerplanar_search(
    g: Multigraph, budget_ms: int | None = None, threads: int = 1
) -> tuple[SolveResult, BookDrawing]:
    """Minimum crossings over 1-page (convex) drawings, with the drawing.

    ``threads`` must be 1: the search runs in this process, and the
    keyword goes once the benchmark stops passing it (ROADMAP item 1).
    """
    require_one_thread(threads)
    return _order_search(g, _prefix_search, one_page_drawing, budget_ms)


def outerplanar_cr(g: Multigraph, budget_ms: int | None = None) -> SolveResult:
    """Minimum crossings over 1-page (convex) drawings."""
    return outerplanar_search(g, budget_ms)[0]


def two_page_search(
    g: Multigraph, budget_ms: int | None = None, threads: int = 1
) -> tuple[SolveResult, BookDrawing]:
    """Minimum crossings over all 2-page drawings, with the drawing.

    ``threads`` must be 1, as for ``outerplanar_search``.
    """
    require_one_thread(threads)
    return _order_search(g, _two_page_scan, one_to_two, budget_ms)


def two_page_cr(g: Multigraph, budget_ms: int | None = None) -> SolveResult:
    """Minimum crossings over all 2-page drawings (free spine order)."""
    return two_page_search(g, budget_ms)[0]
