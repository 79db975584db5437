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

Everything runs on one neighbour bitmask per vertex, ``nbr[v]``, built in
one pass over the edges that also rejects bad and repeated pairs.  A
solver gets a component as its ascending vertex list plus the shared
masks, in the caller's labels, and returns its side-1 mask and size.

The exact solver is a branch and bound in vertex order that holds the
assignment as one bitmask and prunes with an upper bound on every cut
below a node: the cut so far, plus for each unplaced vertex the larger of
its placed neighbours on either side, plus what the edges among unplaced
vertices can add.  Those three parts count disjoint sets of edges, and an
unplaced vertex, once placed, cuts exactly one of its two placed groups.
Cuts come out the same as from a plain enumeration that keeps the first
maximum in lexicographic order, for three reasons (see
``_exact_connected``):

- Any valid bound and any incumbent below the optimum keep the first
  optimum.  Every leaf met before it is below the optimum, so until it is
  met the incumbent stays below the optimum and no node on its path,
  whose bound is at least the optimum, is pruned; afterwards nothing
  beats it.  The walk starts at ``best = floor - 1``, with ``floor`` the
  cut of the BFS two-colouring that ``_per_component`` already made: a
  cut, so at most the optimum.
- The edges among the unplaced vertices add at most their number less
  one per triangle of an edge-disjoint triangle packing among them: a cut
  leaves at least one edge of every triangle uncut, a different edge for
  each triangle of the packing.  The packing of the vertices from i up
  extends the packing of those from i + 1 up by triangles through vertex
  i on edges the smaller packing leaves free, so one pass from the top
  vertex down gives every suffix its own packing.
- At the last vertex both children are leaves, whose bound is exactly
  their cut, so the walk records side 0 and then side 1 inline, each
  when it beats the incumbent: the same leaves, in the same order, under
  the same test as two calls would make.

The heuristic places vertices in BFS order (neighbours lowest first), each
on the side holding fewer of its placed neighbours (side 0 on a tie), then
flips, in vertex order and until nothing flips, any vertex with more
neighbours on its own side than across.  Both counts are popcounts of the
neighbour mask against a side's mask.

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


def _exact_connected(comp: list[int], nbr: list[int], floor: int) -> tuple[int, int]:
    """Branch and bound over side assignments in vertex order.

    ``comp`` lists a connected component's vertices in ascending order,
    ``nbr[v]`` is v's neighbour bitmask and ``floor`` is the size of some
    cut of the component.  Returns the side-1 mask and the size of the
    first maximum cut in lexicographic order with ``comp[0]`` on side 0.

    ``comp[0]`` is pinned to side 0 and branches try side 0 before side 1,
    so the search meets complete assignments in lexicographic order of
    their indicator vectors.  A subtree is pruned when its bound is
    <= best, and ``best`` starts at ``floor - 1``; the module docstring
    shows why neither changes which cut comes out.

    The bound at depth i (``comp[:i]`` placed) is the cut so far, plus for
    each unplaced vertex j the larger of its placed neighbours on side 0
    and on side 1, plus ``inner[i + 1]`` for the edges among unplaced
    vertices.  It is kept up to date as vertices are placed.  With
    ``on0[j]`` and ``on1[j]`` the counts of j's placed neighbours per
    side, only their difference ``lean[j] = on0[j] - on1[j]`` is stored:
    when j is placed its placed neighbours are exactly its ``back``
    neighbours below it, so on0[j] + on1[j] = back gives both counts back.
    Placing j on side 0 cuts ``on1[j]`` edges and on side 1 cuts
    ``on0[j]``.  The assignment so far is one ``ones`` bitmask of the
    vertices on side 1.  Only components with an odd cycle reach it, so
    the component has at least 3 vertices.
    """
    k = len(comp)
    # For v = comp[i]: above[i] lists v's neighbours above it and back[i]
    # counts those below it.  inner[i] is what the edges among comp[i:] can
    # still add to the cut: their number less one per triangle of an
    # edge-disjoint packing of comp[i:], grown from the top vertex down.
    above: list[list[int]] = [[]] * k
    back = [0] * k
    inner = [0] * (k + 1)
    used = [0] * (comp[-1] + 1)  # used[j]: j's edges in a packed triangle
    for i in range(k - 1, -1, -1):
        v = comp[i]
        bit = 1 << v
        up = nbr[v] >> v + 1 << v + 1
        back[i] = (nbr[v] ^ up).bit_count()
        row = above[i] = []
        avail = rest = up  # avail: v's edges up that no triangle uses yet
        packed = 0
        while rest:
            low = rest & -rest
            rest ^= low
            j = low.bit_length() - 1
            row.append(j)
            if avail & low:
                third = avail & nbr[j] & ~used[j]
                if third:
                    w = third & -third
                    avail ^= low | w
                    used[j] |= bit | w
                    used[w.bit_length() - 1] |= bit | low
                    packed += 1
        used[v] = up ^ avail
        inner[i] = inner[i + 1] + len(row) - packed
    lean = [0] * (comp[-1] + 1)
    last = k - 1
    best = floor - 1
    best_ones = -1

    def walk(i: int, cut: int, ones: int, reach: int) -> None:
        # reach = sum of max(on0[j], on1[j]) over the unplaced comp[i:].
        nonlocal best, best_ones
        v = comp[i]
        d = lean[v]
        gain0 = (back[i] - d) >> 1  # on1[v]
        gain1 = gain0 + d  # on0[v]
        if i == last:
            # Both leaves, side 0 first: nothing is left to bound.
            if cut + gain0 > best:
                best = cut + gain0
                best_ones = ones
            if cut + gain1 > best:
                best = cut + gain1
                best_ones = ones | 1 << v
            return
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
            # Undo side 0 and put v on side 1: on1[j] rises instead.
            d = lean[j] - 1
            if d <= 0:
                reach1 += 1
            lean[j] = d - 1
        if i and cut + gain1 + reach1 + later > best:
            walk(i + 1, cut + gain1, ones | 1 << v, reach1)
        for j in up:
            lean[j] += 1

    walk(0, 0, 0, 0)
    if best_ones < 0:
        raise RuntimeError("max-cut search recorded no cut")
    return best_ones, best


def _edwards_connected(comp: list[int], nbr: list[int], floor: int) -> tuple[int, int]:
    """A cut of a connected component meeting the Edwards bound.

    Takes what ``_exact_connected`` takes and returns the side-1 mask and
    the size, with ``comp[0]`` on side 0.  Greedy placement along a BFS
    order from ``comp[0]`` plus single-flip local search gets there on its
    own in practice; the bound is still checked, with exact search as the
    fallback so the guarantee is unconditional for components of at most
    32 vertices.
    """
    start = comp[0]
    seen = 1 << start
    order = [start]
    zeros = ones = 0
    for v in order:
        # Each vertex joins the side holding fewer of its placed neighbours,
        # side 0 on a tie; BFS visits neighbours lowest first.
        nv = nbr[v]
        if (nv & zeros).bit_count() > (nv & ones).bit_count():
            ones |= 1 << v
        else:
            zeros |= 1 << v
        new = nv & ~seen
        seen |= new
        while new:
            low = new & -new
            order.append(low.bit_length() - 1)
            new ^= low
    improved = True
    while improved:
        improved = False
        for v in comp:
            # Flip v when more of its neighbours share its side than not.
            nv = nbr[v]
            lean = 2 * (nv & ones).bit_count() - nv.bit_count()
            if (lean > 0) if ones >> v & 1 else (lean < 0):
                ones ^= 1 << v
                improved = True
    m2 = size = 0
    for v in comp:
        nv = nbr[v]
        m2 += nv.bit_count()
        if not ones >> v & 1:
            size += (nv & ones).bit_count()
    if not EdwardsBound(m2 >> 1).met_by(size):
        if len(comp) > EXACT_LIMIT:
            raise RuntimeError(
                "heuristic missed the Edwards bound on a component too large "
                f"for exact fallback ({len(comp)} vertices)"
            )
        return _exact_connected(comp, nbr, floor)
    if ones >> start & 1:
        ones ^= seen
    return ones, size


def _per_component(
    n: int,
    edges: Iterable[tuple[int, int]],
    solve: Callable[[list[int], list[int], int], tuple[int, int]],
) -> Cut:
    """Cut each connected component and add the results.

    One pass over the edges checks each pair and sets one bit per end in
    the neighbour masks; a pair met twice finds its bit already set.  A
    BFS from each component's smallest vertex two-colours it by layer
    parity.  A bipartite component keeps that colouring: cutting every
    edge with the start vertex on side 0 is its only maximum cut of that
    kind, so it is what ``solve`` would return.  Any other component goes
    to ``solve(comp, nbr, floor)`` with its vertices in ascending order
    and ``floor`` the size of the two-colouring's cut.
    """
    nbr = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise ValueError(f"bad edge ({u}, {v})")
        if nbr[u] >> v & 1:
            pair = (u, v) if u < v else (v, u)
            raise ValueError(f"repeated edge {pair}: max cut takes simple graphs")
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    ones = 0  # side 1 of every component
    total = 0
    left = (1 << n) - 1  # vertices no BFS has reached yet
    while left:
        layer = left & -left
        left ^= layer
        sides = [0, 0]  # the even and the odd layers
        s = 0
        # m2: twice the component's edges.  same2: twice those inside one
        # layer, the edges the colouring leaves uncut, as a BFS edge joins
        # layers at most one apart.
        m2 = same2 = 0
        while layer:
            sides[s] |= layer
            s ^= 1
            reach = 0
            rest = layer
            while rest:
                low = rest & -rest
                nv = nbr[low.bit_length() - 1]
                reach |= nv
                m2 += nv.bit_count()
                same2 += (nv & layer).bit_count()
                rest ^= low
            layer = reach & left
            left ^= layer
        if not same2:
            ones |= sides[1]
            total += m2 >> 1
            continue
        rest = sides[0] | sides[1]
        comp = []
        while rest:
            low = rest & -rest
            comp.append(low.bit_length() - 1)
            rest ^= low
        side1, size = solve(comp, nbr, (m2 - same2) >> 1)
        ones |= side1
        total += size
    return Cut(tuple([ones >> v & 1 for v in range(n)]), total)


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
