"""Page optimization: 1-page to 2-page conversion and order search.

The conversion step is the redrawing argument made executable: a 1-page
drawing with k crossings has circle graph C with k edges, and moving one
side of a cut of C to a second page removes exactly the cut edges from
the crossing set.  A max cut therefore leaves k - maxcut(C) crossings,
and the Edwards bound turns that into the guarantee
k/2 - (sqrt(8k+1)-1)/8.

Order search (outerplanar and free 2-page) enumerates canonical spine
orders, one vertex at a time for the 1-page case so that partial crossing
counts prune the (n-1)!/2 space.  The canonical rule is the one of
``books.canonical_orders``: the 2-page scan iterates it, and
``_prefix_search`` pins vertex 0 first and lets its bound cut mirror
images.  Both searches run through one driver, ``_order_search``: it
runs a scan (``_prefix_search`` or ``_two_page_scan``), draws the best
order (or the natural order when no order finished), and certifies and
verifies that drawing before it answers.
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
    # Kept for the benchmark's tracer, which patches pages.count_crossings
    # (ROADMAP item 1a); nothing here calls it.
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
    """What one_to_two did: the drawing plus its accounting.  Every split
    meets the Edwards bound: ``split_report`` raises on a miss."""

    drawing: BookDrawing
    one_page_crossings: int
    cut: Cut
    crossings: int


def split_report(g: Multigraph, order: CyclicOrder) -> PageSplit:
    """Move the 1-page drawing of g on ``order`` onto two pages.

    The circle graph's cut is exact up to EXACT_LIMIT chords and meets the
    Edwards bound past it; the chords on its side 1 go to page 1.  The 2-page
    drawing's crossings are recounted as the circle graph's pairs on one
    side of the cut, the pairs left on a common page; unless they equal
    k - cut, with k the 1-page crossings, and meet the guarantee of
    ``cor22_bound_ok``, the split raises ``RuntimeError``.  Only the
    returned drawing is built.
    """
    n = g.m  # the circle graph's vertices: one per edge instance
    edges = circle_graph(g, order)
    k = len(edges)
    if k == 0:
        return PageSplit(one_page_drawing(g, order), 0, Cut((0,) * n, 0), 0)
    if n <= EXACT_LIMIT:
        cut = maxcut_exact(n, edges)
    else:
        cut = maxcut_edwards(n, edges)
    side = cut.side
    after = len([1 for i, j in edges if side[i] == side[j]])
    if after != k - cut.size:
        raise RuntimeError("page split does not match its cut accounting")
    if not cor22_bound_ok(k, after):
        # Unreachable while maxcut_edwards honours the Edwards bound on
        # every component: component bounds sum to at least the whole
        # bound because (a-1)(b-1) >= 0 for a, b >= 1.
        raise RuntimeError("page split missed the redrawing guarantee")
    return PageSplit(BookDrawing(g, order, side), k, cut, after)


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
    later vertices are appended.  A chord from an earlier position p to the
    new last position crosses exactly the placed chords that pass over p,
    so ``cover[p]``, their summed multiplicity, prices it with no rescan.
    A chord still pending from a placed vertex x ends past every placed
    chord, so it crosses at least the ``cover[pos[x]]`` chords over x:
    the sum of ``pend[x] * cover[pos[x]]``, with ``pend[x]`` the
    multiplicity of x's edges to unplaced vertices, is a lower bound on
    what the rest of the order adds.  A prefix whose count plus that bound
    reaches the incumbent prunes.  The bound follows the cover array as it
    changes: placing w prices w's chords at exactly the bound they carried,
    and each new unit of ``cover[p]`` adds ``pend`` of the vertex at p.
    One pass over the positions from w's first placed neighbour raises
    ``cover`` by a running sum of w's chords, so a dense graph pays the
    order's length per vertex placed, not its square.
    Vertex 0 goes first, and an order ending below its second vertex
    mirrors one tried earlier; with one vertex left the bound is exact, so
    it cuts that order.
    Returns (best, best order, completed, nodes).
    """
    n = g.n
    if n <= 2:
        return 0, tuple(range(n)), True, 1
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    # mult[w][x]: multiplicity of the pair wx, 0 for a non-edge.
    mult = [[0] * n for _ in range(n)]
    for u, v, m in g.edges:
        adj[u].append((v, m))
        adj[v].append((u, m))
        mult[u][v] = mult[v][u] = m

    best: int | None = None
    best_seq: tuple[int, ...] | None = None
    nodes = 0
    complete = True
    pos = [-1] * n
    seq = [0] * n
    pos[0] = 0
    # cover[p]: summed multiplicity of placed chords (a, b) with a < p < b.
    cover = [0] * n
    # pend[x]: multiplicity of edges from placed x to unplaced vertices.
    pend = [sum(m for _, m in adj[x]) for x in range(n)]

    def place(t: int, cnt: int, bound: int) -> None:
        nonlocal best, best_seq, nodes, complete
        if not complete:
            return
        nodes += 1
        if nodes % 1024 == 0 and deadline.expired():
            complete = False
            return
        if best is not None and cnt + bound >= best:
            return
        if t == n:
            best = cnt
            best_seq = tuple(seq)
            return
        for w in range(1, n):
            if pos[w] != -1:
                continue
            gained = 0
            placed = 0
            first = t
            for x, m in adj[w]:
                px = pos[x]
                if px != -1:
                    gained += m * cover[px]
                    placed += m
                    if px < first:
                        first = px
            pos[w] = t
            seq[t] = w
            # Placing w turns ``gained`` of the bound into crossings; only a
            # child that places more vertices reads the cover and pend.
            rest = bound - gained
            deeper = t + 1 < n and (best is None or cnt + bound < best)
            if deeper:
                row = mult[w]
                pend[w] -= placed
                for p in range(first, t):
                    pend[seq[p]] -= row[seq[p]]
                # w's chords over position p: those from positions before p.
                over = 0
                for p in range(first + 1, t):
                    over += row[seq[p - 1]]
                    cover[p] += over
                    rest += over * pend[seq[p]]
            place(t + 1, cnt + gained, rest)
            if deeper:
                pend[w] += placed
                over = 0
                for p in range(first + 1, t):
                    over += row[seq[p - 1]]
                    cover[p] -= over
                for p in range(first, t):
                    pend[seq[p]] += row[seq[p]]
            pos[w] = -1
        return

    place(1, 0, 0)
    return best, best_seq, complete, nodes


def _two_page_scan(g: Multigraph, deadline: Deadline) -> OrderScan:
    """Fewest 2-page crossings over canonical orders, each split by an
    exact max cut; stops early at 0.

    Returns (best, best order, completed, orders run).  A graph with more
    than EXACT_LIMIT edge instances runs no order: its circle graphs have
    that many vertices, too many for an exact cut.
    """
    n = g.m  # the circle graphs' vertices: one per edge instance
    if n > EXACT_LIMIT:
        return None, None, False, 0
    best: int | None = None
    best_seq: tuple[int, ...] | None = None
    orders_run = 0
    for order in canonical_orders(g.n):
        if deadline.expired():
            return best, best_seq, False, orders_run
        orders_run += 1
        # k - maxcut(C) crossings: the best split of this spine order.
        edges = circle_graph(g, order)
        value = len(edges) - maxcut_exact(n, edges).size if edges else 0
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
    verified certificate witnessing the upper bound.  A finished scan
    proves its best count and names ``order-search`` as the reason; the
    trivial 0 of an unfinished one names none.
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
    if complete and value is not None:
        return SolveResult(count, cert, stats, "order-search"), drawing
    return SolveResult(0, cert, stats), drawing


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
