"""Maximum cuts of simple graphs, exact and Edwards-guaranteed heuristic.

Functions here work on a plain ``(n, edges)`` view: n vertices labelled
0..n-1 and an iterable of endpoint pairs, no parallel edges (a pair given
twice, in either orientation, is a ValueError).  Callers pass
``g.n, g.simple_pairs()`` for a Multigraph or ``cg.n_vertices, cg.edges``
for a circle graph.

The exact solver is a branch and bound in vertex order that holds the
assignment as one bitmask and prunes with a per-vertex bound: each unplaced
vertex can add at most the larger of its placed neighbours on either side,
plus the edges among unplaced vertices.  Cuts come out the same as from a
plain enumeration that keeps the first maximum in lexicographic order.

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

    def __post_init__(self) -> None:
        if self.m < 0:
            raise ValueError("edge count must be non-negative")

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


EXACT_LIMIT = 32


def _exact_connected(n: int, edges: Sequence[tuple[int, int]]) -> Cut:
    """Branch and bound over side assignments in vertex order.

    Vertex 0 is pinned to side 0 and branches try side 0 before side 1, so
    the search meets complete assignments in lexicographic order of their
    indicator vectors.  A subtree is pruned when an upper bound on every
    cut inside it is <= best.  Any valid upper bound keeps the first
    optimum: until it is reached the incumbent is below the optimum, so
    no node on its path is pruned, and afterwards nothing beats it.  The
    result is therefore the lexicographically smallest indicator vector
    among all maximum cuts with 0 on side A, whatever bound is used.

    The bound at depth i (vertices 0..i-1 placed) is the cut so far, plus
    for each unplaced vertex j the larger of its placed neighbours on side
    0 and on side 1, plus every edge between unplaced vertices.  It is
    kept up to date as vertices are placed: ``on0[j]`` and ``on1[j]``
    count j's placed neighbours per side, so placing i on side 0 cuts
    ``on1[i]`` edges and on side 1 cuts ``on0[i]``.  The assignment so far
    is one ``ones`` bitmask of the vertices on side 1.
    """
    if n == 0:
        return Cut((), 0)
    above: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        above[min(u, v)].append(max(u, v))
    # inner[i] = edges with both endpoints >= i: all still winnable once
    # vertices 0..i-1 have been fixed.
    inner = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        inner[i] = inner[i + 1] + len(above[i])
    on0 = [0] * n
    on1 = [0] * n
    best = -1
    best_ones = 0

    def walk(i: int, cut: int, ones: int, reach: int) -> None:
        # reach = sum of max(on0[j], on1[j]) over the unplaced j >= i.
        nonlocal best, best_ones
        if i == n:
            best = cut
            best_ones = ones
            return
        gain0, gain1 = on1[i], on0[i]
        rest = reach - max(gain0, gain1)
        later = inner[i + 1]
        up = above[i]
        reach0 = rest
        for j in up:
            if on0[j] >= on1[j]:
                reach0 += 1
            on0[j] += 1
        if cut + gain0 + reach0 + later > best:
            walk(i + 1, cut + gain0, ones, reach0)
        for j in up:
            on0[j] -= 1
        if i == 0:
            return
        reach1 = rest
        for j in up:
            if on1[j] >= on0[j]:
                reach1 += 1
            on1[j] += 1
        if cut + gain1 + reach1 + later > best:
            walk(i + 1, cut + gain1, ones | 1 << i, reach1)
        for j in up:
            on1[j] -= 1

    walk(0, 0, 0, 0)
    if best < 0:
        raise RuntimeError("max-cut search recorded no cut")
    return Cut(tuple(best_ones >> v & 1 for v in range(n)), best)


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
    if not EdwardsBound(len(edges)).met_by(size):
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
    seen: set[tuple[int, int]] = set()
    for u, v in edge_list:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise ValueError(f"bad edge ({u}, {v})")
        pair = (u, v) if u < v else (v, u)
        if pair in seen:
            raise ValueError(f"repeated edge {pair}: max cut takes simple graphs")
        seen.add(pair)
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
