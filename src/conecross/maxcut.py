"""Maximum cuts of simple graphs, exact and Edwards-guaranteed heuristic.

Functions here work on a plain ``(n, edges)`` view: n vertices labelled
0..n-1 and an iterable of endpoint pairs, no parallel edges.  Callers pass
``g.n, g.simple_pairs()`` for a Multigraph or ``cg.n_vertices, cg.edges``
for a circle graph.

The Edwards bound says every connected graph with m edges has a cut of
size at least m/2 + (sqrt(8m+1)-1)/8.  Comparisons against it are done in
exact integer arithmetic, never through floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt, sqrt
from typing import Callable, Iterable, Sequence

from .graphs import components


@dataclass(frozen=True)
class Cut:
    """A bipartition: side[v] is 0 or 1; size counts edges across."""

    side: tuple[int, ...]
    size: int


def cut_value(edges: Iterable[tuple[int, int]], side: Sequence[int]) -> int:
    return sum(1 for u, v in edges if side[u] != side[v])


@dataclass(frozen=True)
class EdwardsBound:
    """The guarantee m/2 + (sqrt(8m+1)-1)/8 for a connected graph with m edges."""

    m: int

    def approx(self) -> float:
        return self.m / 2 + (sqrt(8 * self.m + 1) - 1) / 8

    def met_by(self, size: int) -> bool:
        """Is size >= m/2 + (sqrt(8m+1)-1)/8, decided exactly?

        size >= bound  iff  8*size + 1 - 4m >= sqrt(8m+1), so the test is
        s >= 0 and s*s >= 8m+1 with s = 8*size + 1 - 4m.
        """
        s = 8 * size + 1 - 4 * self.m
        return s >= 0 and s * s >= 8 * self.m + 1

    def minimum_met(self) -> int:
        """Smallest integer cut size meeting the bound."""
        c = max(0, (4 * self.m - 1 + isqrt(8 * self.m + 1)) // 8 - 1)
        while not self.met_by(c):
            c += 1
        return c


def edwards_bound(m: int) -> EdwardsBound:
    if m < 0:
        raise ValueError("edge count must be non-negative")
    return EdwardsBound(m)


EXACT_LIMIT = 32


def _exact_connected(n: int, edges: Sequence[tuple[int, int]]) -> Cut:
    """Branch and bound over side assignments in vertex order.

    Vertex 0 is pinned to side 0 and branches try side 0 before side 1, so
    the first optimum reached is the lexicographically smallest indicator
    vector among all maximum cuts with 0 on side A.  Pruning with
    bound <= best is safe for that tie-break: any equal-value cut in a
    pruned subtree is lexicographically later than the incumbent.
    """
    if n == 0:
        return Cut((), 0)
    adj_below: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj_below[max(u, v)].append(min(u, v))
    # suffix[i] = edges whose larger endpoint is >= i: still winnable after
    # vertices 0..i-1 have been fixed.
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + len(adj_below[i])

    side = [0] * n
    best_side: list[int] | None = None
    best = -1

    def walk(i: int, cut: int) -> None:
        nonlocal best, best_side
        if cut + suffix[i] <= best:
            return
        if i == n:
            best = cut
            best_side = side[:]
            return
        for s in (0, 1) if i > 0 else (0,):
            side[i] = s
            gain = sum(1 for u in adj_below[i] if side[u] != s)
            walk(i + 1, cut + gain)

    walk(0, 0)
    if best_side is None:
        raise RuntimeError("max-cut search recorded no cut")
    return Cut(tuple(best_side), best)


def _edwards_connected(n: int, edges: Sequence[tuple[int, int]]) -> Cut:
    """A cut of a connected graph meeting the Edwards bound, 0 on side 0.

    Greedy placement along a BFS order from vertex 0 plus single-flip
    local search gets there on its own in practice; the bound is still
    checked, with exact search as the fallback so the guarantee is
    unconditional for graphs of at most 32 vertices.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    order = [0]
    seen = {0}
    for v in order:
        for u in sorted(adj[v]):
            if u not in seen:
                seen.add(u)
                order.append(u)
    side = [-1] * n
    for v in order:
        placed0 = sum(1 for u in adj[v] if side[u] == 0)
        placed1 = sum(1 for u in adj[v] if side[u] == 1)
        side[v] = 1 if placed0 > placed1 else 0
    improved = True
    while improved:
        improved = False
        for v in range(n):
            same = sum(1 for u in adj[v] if side[u] == side[v])
            if same > len(adj[v]) - same:
                side[v] = 1 - side[v]
                improved = True
    size = cut_value(edges, side)
    if not edwards_bound(len(edges)).met_by(size):
        if n > EXACT_LIMIT:
            raise RuntimeError(
                "heuristic missed the Edwards bound on a component too large "
                f"for exact fallback ({n} vertices)"
            )
        return _exact_connected(n, edges)
    if side[0] == 1:
        side = [1 - s for s in side]
    return Cut(tuple(side), size)


def _per_component(
    n: int,
    edges: Iterable[tuple[int, int]],
    solve: Callable[[int, list[tuple[int, int]]], Cut],
) -> Cut:
    """Cut each connected component with ``solve`` and add the results.

    ``solve(k, local_edges)`` sees one component relabelled 0..k-1 in
    vertex order, so its vertex 0 is the component's smallest vertex.
    """
    edge_list = [tuple(e) for e in edges]
    for u, v in edge_list:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise ValueError(f"bad edge ({u}, {v})")
    comps = components(n, edge_list)
    comp_of = [0] * n
    local_id = [0] * n
    for c, comp in enumerate(comps):
        for i, v in enumerate(comp):
            comp_of[v] = c
            local_id[v] = i
    local_edges: list[list[tuple[int, int]]] = [[] for _ in comps]
    for u, v in edge_list:
        local_edges[comp_of[u]].append((local_id[u], local_id[v]))
    side = [0] * n
    total = 0
    for comp, comp_edges in zip(comps, local_edges):
        cut = solve(len(comp), comp_edges)
        for v, s in zip(comp, cut.side):
            side[v] = s
        total += cut.size
    return Cut(tuple(side), total)


def maxcut_exact(n: int, edges: Iterable[tuple[int, int]]) -> Cut:
    """Maximum cut, exact, for up to 32 vertices.

    Solves each connected component separately; the lexicographic
    tie-break then anchors every component's smallest vertex on side A.
    """
    if n > EXACT_LIMIT:
        raise ValueError(f"exact max-cut is limited to {EXACT_LIMIT} vertices, got {n}")
    return _per_component(n, edges, _exact_connected)


def maxcut_edwards(n: int, edges: Iterable[tuple[int, int]]) -> Cut:
    """A cut meeting the Edwards bound on every connected component.

    Every component's smallest vertex is on side A, and the cut sizes of
    the components add up to the size reported.
    """
    return _per_component(n, edges, _edwards_connected)
