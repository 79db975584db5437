"""Page optimization: 1-page to 2-page conversion and order search.

The conversion step is the redrawing argument made executable: a 1-page
drawing with k crossings has circle graph C with k edges, and moving one
side of a cut of C to a second page removes exactly the cut edges from
the crossing set.  A max cut therefore leaves k - maxcut(C) crossings,
and the Edwards bound turns that into the guarantee
k/2 - (sqrt(8k+1)-1)/8.

Order search (outerplanar and free 2-page) enumerates canonical spine
orders, one vertex at a time for the 1-page case so that partial crossing
counts prune the (n-1)!/2 space.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

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
from .maxcut import EXACT_LIMIT, Cut, maxcut_edwards, maxcut_exact
from .parallel import worker_count

ORDER_SEARCH_LIMIT = 11


def cor22_bound_ok(k: int, crossings: int) -> bool:
    """Exact check of crossings <= k/2 - (sqrt(8k+1)-1)/8.

    Equivalent integer form: s = 4k + 1 - 8*crossings must satisfy s >= 0
    and s^2 >= 8k + 1.
    """
    s = 4 * k + 1 - 8 * crossings
    return s >= 0 and s * s >= 8 * k + 1


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


def _prefix_search(
    g: Multigraph,
    second: int | None,
    deadline: float | None,
) -> tuple[int | None, tuple[int, ...] | None, bool, int]:
    """Best 1-page crossing count over canonical orders, pruned by prefix.

    Crossings between chords with all endpoints placed never change when
    later vertices are appended, so a partial count that reaches the
    incumbent prunes.  ``second`` pins the vertex at position 1 (the unit
    of parallel splitting).  Returns (best, best order, completed, nodes).
    """
    n = g.n
    if n <= 2:
        return 0, tuple(range(n)), True, 1
    mult: dict[tuple[int, int], int] = {}
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v, m in g.edges:
        mult[(u, v)] = m
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
        if deadline is not None and nodes % 1024 == 0 and time.monotonic() > deadline:
            complete = False
            return
        if best is not None and cnt >= best:
            return
        if t == n:
            best = cnt
            best_seq = tuple(seq)
            return
        candidates = range(1, n) if t != 1 or second is None else (second,)
        for w in candidates:
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


def outerplanar_search(
    g: Multigraph,
    budget_ms: int | None = None,
    limit: int = ORDER_SEARCH_LIMIT,
    threads: int = 1,
) -> tuple[SolveResult, BookDrawing]:
    """Minimum crossings over 1-page (convex) drawings, with the drawing.

    Exhaustive over canonical spine orders for n <= limit; larger graphs
    get a bounds-only bracket from the natural order.  The certificate of
    the best drawing witnesses the upper bound.
    """
    start = time.monotonic()
    deadline = start + budget_ms / 1000 if budget_ms is not None else None

    if g.n > limit:
        drawing = one_page_drawing(g)
        upper = count_crossings(drawing)
        cert = certificate_from_book(drawing)
        stats = SolveStats(1, 1, (time.monotonic() - start) * 1000)
        return SolveResult(0, upper, "bounds-only", cert, stats), drawing

    if threads > 1 and g.n > 3:
        value, seq, complete, nodes = _parallel_prefix_search(g, deadline, threads)
    else:
        value, seq, complete, nodes = _prefix_search(g, None, deadline)

    if value is None or seq is None:
        # Budget ran out before any order completed; fall back to the
        # natural order for an honest upper bound.
        drawing = one_page_drawing(g)
        upper = count_crossings(drawing)
        cert = certificate_from_book(drawing)
        stats = SolveStats(nodes, 1, (time.monotonic() - start) * 1000)
        return SolveResult(0, upper, "bounds-only", cert, stats), drawing

    drawing = one_page_drawing(g, CyclicOrder(seq))
    cert = certificate_from_book(drawing)
    count, ok = verify_certificate(g, cert)
    if not ok or count != value:
        raise RuntimeError("order search produced an unrealizable drawing")
    stats = SolveStats(nodes, 1, (time.monotonic() - start) * 1000)
    if complete:
        return SolveResult(value, value, "exact", cert, stats), drawing
    return SolveResult(0, value, "bounds-only", cert, stats), drawing


def outerplanar_cr(
    g: Multigraph,
    budget_ms: int | None = None,
    limit: int = ORDER_SEARCH_LIMIT,
    threads: int = 1,
) -> SolveResult:
    """Minimum crossings over 1-page (convex) drawings."""
    return outerplanar_search(g, budget_ms, limit, threads)[0]


def _parallel_prefix_search(
    g: Multigraph, deadline: float | None, threads: int
) -> tuple[int | None, tuple[int, ...] | None, bool, int]:
    from concurrent.futures import ProcessPoolExecutor

    remaining = None
    if deadline is not None:
        remaining = max(0, int((deadline - time.monotonic()) * 1000))
    args = [(g.to_json(), w, remaining) for w in range(1, g.n)]
    best: int | None = None
    best_seq: tuple[int, ...] | None = None
    complete = True
    nodes = 0
    with ProcessPoolExecutor(max_workers=worker_count(threads, len(args))) as pool:
        for value, seq, done, n_nodes in pool.map(_prefix_worker, args):
            nodes += n_nodes
            complete = complete and done
            if value is not None and (best is None or value < best):
                best = value
                best_seq = tuple(seq)
    return best, best_seq, complete, nodes


def _prefix_worker(
    packed: tuple[str, int, int | None]
) -> tuple[int | None, list[int] | None, bool, int]:
    text, second, remaining_ms = packed
    g = Multigraph.from_json(text)
    deadline = time.monotonic() + remaining_ms / 1000 if remaining_ms is not None else None
    value, seq, complete, nodes = _prefix_search(g, second, deadline)
    return value, list(seq) if seq is not None else None, complete, nodes


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


def two_page_search(
    g: Multigraph,
    budget_ms: int | None = None,
    limit: int = ORDER_SEARCH_LIMIT,
    threads: int = 1,
) -> tuple[SolveResult, BookDrawing | None]:
    """Minimum crossings over all 2-page drawings, with the drawing."""
    start = time.monotonic()
    deadline = start + budget_ms / 1000 if budget_ms is not None else None

    def finish(
        value: int | None, order: CyclicOrder | None, complete: bool, orders_run: int
    ) -> tuple[SolveResult, BookDrawing | None]:
        planarity = 0
        cert = None
        drawing = None
        if order is not None and value is not None:
            report = split_report(g, order)
            drawing = report.drawing
            cert = certificate_from_book(drawing)
            count, ok = verify_certificate(g, cert)
            planarity = 1
            if not ok or count != value:
                raise RuntimeError("page assignment does not match its drawing")
        stats = SolveStats(orders_run, planarity, (time.monotonic() - start) * 1000)
        if complete and value is not None:
            return SolveResult(value, value, "exact", cert, stats), drawing
        if value is None:
            # Nothing finished in time; a 1-page count still bounds it.
            value = count_crossings(one_page_drawing(g))
        return SolveResult(0, value, "bounds-only", cert, stats), drawing

    if g.n > limit:
        order = CyclicOrder.natural(g.n)
        return finish(two_page_cr_fixed_order(g, order), order, False, 1)

    if threads > 1 and g.n > 3:
        return finish(*_parallel_two_page(g, deadline, threads))

    best: int | None = None
    best_order: CyclicOrder | None = None
    orders_run = 0
    for order in canonical_orders(g.n):
        if deadline is not None and time.monotonic() > deadline:
            return finish(best, best_order, False, orders_run)
        orders_run += 1
        value = two_page_cr_fixed_order(g, order)
        if best is None or value < best:
            best = value
            best_order = order
            if best == 0:
                return finish(best, best_order, True, orders_run)
    return finish(best, best_order, True, orders_run)


def two_page_cr(
    g: Multigraph,
    budget_ms: int | None = None,
    limit: int = ORDER_SEARCH_LIMIT,
    threads: int = 1,
) -> SolveResult:
    """Minimum crossings over all 2-page drawings (free spine order)."""
    return two_page_search(g, budget_ms, limit, threads)[0]


def _parallel_two_page(
    g: Multigraph, deadline: float | None, threads: int
) -> tuple[int | None, CyclicOrder | None, bool, int]:
    from concurrent.futures import ProcessPoolExecutor

    remaining = None
    if deadline is not None:
        remaining = max(0, int((deadline - time.monotonic()) * 1000))
    args = [(g.to_json(), w, remaining) for w in range(1, g.n)]
    best: int | None = None
    best_order: CyclicOrder | None = None
    complete = True
    orders_run = 0
    with ProcessPoolExecutor(max_workers=worker_count(threads, len(args))) as pool:
        for value, seq, done, count in pool.map(_two_page_worker, args):
            orders_run += count
            complete = complete and done
            if value is not None and (best is None or value < best):
                best = value
                best_order = CyclicOrder(tuple(seq))
    return best, best_order, complete, orders_run


def _two_page_worker(
    packed: tuple[str, int, int | None]
) -> tuple[int | None, list[int] | None, bool, int]:
    text, second, remaining_ms = packed
    g = Multigraph.from_json(text)
    deadline = time.monotonic() + remaining_ms / 1000 if remaining_ms is not None else None
    best: int | None = None
    best_seq: list[int] | None = None
    orders_run = 0
    for order in canonical_orders(g.n):
        if order.seq[1] != second:
            continue
        if deadline is not None and time.monotonic() > deadline:
            return best, best_seq, False, orders_run
        orders_run += 1
        value = two_page_cr_fixed_order(g, order)
        if best is None or value < best:
            best = value
            best_seq = list(order.seq)
    return best, best_seq, True, orders_run
