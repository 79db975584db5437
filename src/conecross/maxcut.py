"""Maximum cuts of simple graphs, exact and Edwards-guaranteed heuristic.

Functions here work on a plain ``(n, edges)`` view: n vertices labelled
0..n-1 and an iterable of endpoint pairs, no parallel edges (a pair given
twice, in either orientation, is a ValueError).  Callers pass
``g.n, g.simple_pairs()`` for a Multigraph or ``g.m, circle_graph(g, order)``
for a circle graph.

Both solvers cut each connected component on its own, with the
component's smallest vertex on side 0, and both return, for a bipartite
component, its one cut of every edge with that vertex on side 0: the
exact solver because that is the first (indeed the only) maximum cut, the
heuristic because greedy placement along a BFS order two-colours a
bipartite graph and leaves no vertex to flip.  So ``_per_component``
two-colours each component by BFS and hands only the components with an
odd cycle to a solver.

The exact solver is a branch and bound in vertex order that holds the
assignment as one bitmask and prunes with a per-vertex bound: each unplaced
vertex can add at most the larger of its placed neighbours on either side,
plus the edges among unplaced vertices.  The walk keeps one array,
``lean[j]``, the placed neighbours of j on side 0 minus those on side 1,
and reads both counts back from it and j's fixed number of earlier
neighbours; the bound is the same number it would be with two counts.
Cuts come out the same as from a plain enumeration that keeps the first
maximum in lexicographic order: any valid bound keeps that one (see
``_exact_connected``).  The heuristic's greedy placement and 1-flip scan
keep per-vertex counts up to date as vertices are placed and flipped,
rather than recounting neighbours, and flip the same vertices in the same
order as a recount would.

The Edwards bound says every connected graph with m edges has a cut of
size at least m/2 + (sqrt(8m+1)-1)/8.  Comparisons against it are done in
exact integer arithmetic, never through floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence


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

    def met_by(self, size: int) -> bool:
        """Is size >= m/2 + (sqrt(8m+1)-1)/8, decided exactly?

        size >= bound  iff  8*size + 1 - 4m >= sqrt(8m+1), so the test is
        s >= 0 and s*s >= 8m+1 with s = 8*size + 1 - 4m.
        """
        s = 8 * size + 1 - 4 * self.m
        return s >= 0 and s * s >= 8 * self.m + 1


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
    kept up to date as vertices are placed.  With ``on0[j]`` and ``on1[j]``
    the counts of j's placed neighbours per side, only their difference
    ``lean[j] = on0[j] - on1[j]`` is stored: when i is placed its placed
    neighbours are exactly its ``back[i]`` neighbours below it, so
    on0[i] + on1[i] = back[i] gives both counts back.  Placing i on side 0
    cuts ``on1[i]`` edges and on side 1 cuts ``on0[i]``.  The assignment
    so far is one ``ones`` bitmask of the vertices on side 1.  Only
    components with an odd cycle reach it, so n >= 3.
    """
    above: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        above[min(u, v)].append(max(u, v))
    # inner[i] = edges with both endpoints >= i: all still winnable once
    # vertices 0..i-1 have been fixed.
    inner = [0] * (n + 1)
    # back[j]: j's neighbours below j, all placed by the time j is.
    back = [0] * n
    for i in range(n - 1, -1, -1):
        inner[i] = inner[i + 1] + len(above[i])
        for j in above[i]:
            back[j] += 1
    lean = [0] * n
    best = -1
    best_ones = 0

    def walk(i: int, cut: int, ones: int, reach: int) -> None:
        # reach = sum of max(on0[j], on1[j]) over the unplaced j >= i.
        nonlocal best, best_ones
        if i == n:
            best = cut
            best_ones = ones
            return
        d = lean[i]
        gain0 = (back[i] - d) >> 1  # on1[i]
        gain1 = gain0 + d  # on0[i]
        rest = reach - (gain1 if d > 0 else gain0)
        later = inner[i + 1]
        up = above[i]
        reach0 = rest
        for j in up:
            # on0[j] rises: its max does too unless on1[j] was ahead.
            if lean[j] >= 0:
                reach0 += 1
            lean[j] += 1
        if cut + gain0 + reach0 + later > best:
            walk(i + 1, cut + gain0, ones, reach0)
        reach1 = rest
        for j in up:
            # Undo side 0 and put i on side 1: on1[j] rises instead.
            d = lean[j] - 1
            if d <= 0:
                reach1 += 1
            lean[j] = d - 1
        if i and cut + gain1 + reach1 + later > best:
            walk(i + 1, cut + gain1, ones | 1 << i, reach1)
        for j in up:
            lean[j] += 1

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
    # lean[v]: v's placed neighbours on side 0 minus those on side 1.
    lean = [0] * n
    side = [-1] * n
    for v in order:
        side[v] = 1 if lean[v] > 0 else 0
        step = -1 if side[v] else 1
        for u in adj[v]:
            lean[u] += step
    # same[v]: v's neighbours on v's side, kept up to date as vertices flip.
    same = [(len(adj[v]) + (-lean[v] if side[v] else lean[v])) >> 1 for v in range(n)]
    improved = True
    while improved:
        improved = False
        for v in range(n):
            if 2 * same[v] > len(adj[v]):
                s = side[v] = 1 - side[v]
                same[v] = len(adj[v]) - same[v]
                for u in adj[v]:
                    same[u] += 1 if side[u] == s else -1
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
    """Cut each connected component and add the results.

    A BFS from each component's smallest vertex two-colours it.  A
    bipartite component keeps that colouring: cutting every edge with
    the start vertex on side 0 is its only maximum cut of that kind, so
    it is what ``solve`` would return.  Any other component goes to
    ``solve(k, local_edges)``, relabelled 0..k-1 in vertex order, so its
    vertex 0 is the component's smallest vertex.
    """
    edge_list = [tuple(e) for e in edges]
    seen: set[tuple[int, int]] = set()
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edge_list:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise ValueError(f"bad edge ({u}, {v})")
        pair = (u, v) if u < v else (v, u)
        if pair in seen:
            raise ValueError(f"repeated edge {pair}: max cut takes simple graphs")
        seen.add(pair)
        adj[u].append(v)
        adj[v].append(u)
    side = [-1] * n
    total = 0
    # The components with an odd cycle, as sorted vertex lists.
    odd: list[list[int]] = []
    for start in range(n):
        if side[start] >= 0:
            continue
        side[start] = 0
        comp = [start]
        bipartite = True
        for x in comp:
            s = 1 - side[x]
            for y in adj[x]:
                if side[y] < 0:
                    side[y] = s
                    comp.append(y)
                elif side[y] != s:
                    bipartite = False
        if bipartite:
            total += sum(len(adj[x]) for x in comp) >> 1
        else:
            odd.append(sorted(comp))
    if odd:
        comp_of = [-1] * n
        local_id = [0] * n
        for c, comp in enumerate(odd):
            for i, v in enumerate(comp):
                comp_of[v] = c
                local_id[v] = i
        local_edges: list[list[tuple[int, int]]] = [[] for _ in odd]
        for u, v in edge_list:
            if comp_of[u] >= 0:
                local_edges[comp_of[u]].append((local_id[u], local_id[v]))
        for comp, comp_edges in zip(odd, local_edges):
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
