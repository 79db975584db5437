"""Loopless undirected multigraphs and the graph families used throughout.

Vertices are integers 0..n-1.  Parallel edges are stored compressed as
(u, v, multiplicity) entries but every downstream consumer works with
*edge instances*: copy j of pair (u, v) is one instance, and instances
are numbered 0..M-1 in sorted (u, v, copy) order.  That numbering is
the identity that crossing certificates and book drawings refer to, so
it must be stable under serialization round-trips.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, Sequence

GRAPH_FORMAT = "conecross-graph-v1"


def json_object(data: object, fmt: str) -> dict:
    """``data`` if it is a JSON object of format ``fmt``; ValueError if not."""
    if not isinstance(data, dict):
        raise ValueError(f"not a {fmt} object: the top level is a {type(data).__name__}")
    if data.get("format") != fmt:
        raise ValueError(f"not a {fmt} object")
    return data


def json_int(value: object, field: str) -> int:
    """``value`` if it is a JSON integer (a bool is not one); ValueError
    naming ``field`` if not."""
    if type(value) is not int:
        raise ValueError(f"{field}: {value!r} is not an integer")
    return value


def json_int_map(value: object, field: str) -> dict[int, object]:
    """``value``, a JSON object keyed by integers in canonical decimal
    (ASCII digits, no sign, space or leading zero), with its keys read as
    ints; ValueError naming ``field`` if not."""
    if not isinstance(value, dict):
        raise ValueError(f"{field}: a {type(value).__name__} is not a JSON object")
    out = {}
    for key, item in value.items():
        if not (type(key) is str and key.isascii() and key.isdigit() and str(int(key)) == key):
            raise ValueError(f"{field}: key {key!r} is not a canonical integer")
        out[int(key)] = item
    return out


def split(n: int, items: Sequence[Sequence[int]]) -> list[tuple[list[int], Sequence]]:
    """The components of vertices 0..n-1 joined by ``items`` (each item's
    first two entries are its ends), isolated ones included, in order of
    their smallest vertex: (sorted vertices, items with each end renamed
    to its position there).  Renaming keeps the order of ends, so sorted
    items stay sorted and copy j of a pair stays copy j.  A connected
    graph gets back ``items`` itself."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for item in items:
        u, v = item[0], item[1]
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        stack = [start]
        comp = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    comp.append(y)
                    stack.append(y)
        comps.append(sorted(comp))
    if len(comps) == 1:
        return [(comps[0], items)]
    # where[v]: v's component and its label there.
    where = [(0, 0)] * n
    for c, comp in enumerate(comps):
        for i, v in enumerate(comp):
            where[v] = (c, i)
    parts: list[list[tuple]] = [[] for _ in comps]
    for item in items:
        c, a = where[item[0]]
        parts[c].append((a, where[item[1]][1], *item[2:]))
    return list(zip(comps, parts))


@dataclass(frozen=True)
class Multigraph:
    """Immutable loopless multigraph.

    ``edges`` holds one ``(u, v, mult)`` triple per unordered pair with
    u < v, sorted by (u, v).  Use :meth:`build` instead of the raw
    constructor when the input may contain duplicates or (v, u) pairs.
    """

    n: int
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        prev = None
        for u, v, mult in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            if u > v:
                raise ValueError(f"edge ({u},{v}) not normalized (need u < v)")
            if mult < 1:
                raise ValueError(f"edge ({u},{v}) has multiplicity {mult}")
            if prev is not None and (u, v) <= prev:
                raise ValueError("edges not sorted or pair repeated")
            prev = (u, v)

    @staticmethod
    def build(n: int, pairs: Iterable[Sequence[int]]) -> "Multigraph":
        """Normalize an edge list: orient pairs, merge duplicates.

        Entries may be (u, v) or (u, v, mult); multiplicities of repeated
        pairs accumulate.
        """
        acc: dict[tuple[int, int], int] = {}
        for entry in pairs:
            if len(entry) == 2:
                u, v = entry
                mult = 1
            else:
                u, v, mult = entry
            if u > v:
                u, v = v, u
            acc[(u, v)] = acc.get((u, v), 0) + mult
        edges = tuple((u, v, m) for (u, v), m in sorted(acc.items()))
        return Multigraph(n, edges)

    # ------------------------------------------------------------------
    # edge instances

    @property
    def m(self) -> int:
        """Number of edge instances (multiplicities counted)."""
        return sum(mult for _, _, mult in self.edges)

    def instances(self) -> list[tuple[int, int, int]]:
        """All (u, v, copy) instances; list index == instance id."""
        out = []
        for u, v, mult in self.edges:
            for copy in range(mult):
                out.append((u, v, copy))
        return out

    def instance_index(self) -> dict[tuple[int, int, int], int]:
        """Instance id of every (u, v, copy), for lookups in a loop."""
        return {inst: eid for eid, inst in enumerate(self.instances())}

    def instance_id(self, u: int, v: int, copy: int = 0) -> int:
        """Id of copy ``copy`` of pair (u, v); raises KeyError if absent."""
        u, v = min(u, v), max(u, v)
        eid = 0
        for a, b, mult in self.edges:
            if a == u and b == v:
                if 0 <= copy < mult:
                    return eid + copy
                break
            eid += mult
        raise KeyError((u, v, copy))

    def simple_pairs(self) -> list[tuple[int, int]]:
        return [(u, v) for u, v, _ in self.edges]

    def components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists (isolated included)."""
        return [vertices for vertices, _ in split(self.n, self.edges)]

    def component_subgraphs(self) -> list[tuple["Multigraph", list[int]]]:
        """Each component as (subgraph, vertices); vertex i of the subgraph
        is ``vertices[i]`` here.  A connected graph is its own part."""
        parts = split(self.n, self.edges)
        if len(parts) == 1:
            return [(self, parts[0][0])]
        return [(Multigraph(len(vertices), tuple(es)), vertices) for vertices, es in parts]

    def relabel(self, perm: Sequence[int]) -> "Multigraph":
        """Apply the bijection v -> perm[v] to the vertex set."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("perm is not a bijection on 0..n-1")
        return Multigraph.build(
            self.n, [(perm[u], perm[v], mult) for u, v, mult in self.edges]
        )

    # ------------------------------------------------------------------
    # serialization

    def to_json_dict(self) -> dict:
        return {
            "format": GRAPH_FORMAT,
            "n": self.n,
            "edges": [[u, v, mult] for u, v, mult in self.edges],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @staticmethod
    def from_json_dict(data: dict) -> "Multigraph":
        data = json_object(data, GRAPH_FORMAT)
        return Multigraph(
            json_int(data["n"], "n"),
            tuple(
                (json_int(u, "edges"), json_int(v, "edges"), json_int(m, "edges"))
                for u, v, m in data["edges"]
            ),
        )

    @staticmethod
    def from_json(text: str) -> "Multigraph":
        return Multigraph.from_json_dict(json.loads(text))

    def to_dot(self) -> str:
        """DOT export as ``graph g``; parallel edges appear once per instance."""
        lines = ["graph g {"]
        for v in range(self.n):
            lines.append(f"  {v};")
        for u, v, mult in self.edges:
            for _ in range(mult):
                lines.append(f"  {u} -- {v};")
        lines.append("}")
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# generators


def complete_graph(n: int) -> Multigraph:
    if n < 1:
        raise ValueError("complete_graph needs n >= 1")
    return Multigraph(n, tuple((u, v, 1) for u in range(n) for v in range(u + 1, n)))


def cycle_graph(n: int) -> Multigraph:
    if n < 3:
        raise ValueError("cycle_graph needs n >= 3")
    pairs = [(i, (i + 1) % n) for i in range(n)]
    return Multigraph.build(n, pairs)


def cone(g: Multigraph) -> Multigraph:
    """Add an apex vertex (id = g.n) joined by a simple edge to every vertex."""
    apex = g.n
    pairs = [(u, v, mult) for u, v, mult in g.edges]
    pairs += [(v, apex, 1) for v in range(g.n)]
    return Multigraph.build(g.n + 1, pairs)


def multiply_edges(g: Multigraph, r: int) -> Multigraph:
    if r < 1:
        raise ValueError("multiplicity factor must be >= 1")
    return Multigraph(g.n, tuple((u, v, mult * r) for u, v, mult in g.edges))


def disjoint_union(g: Multigraph, h: Multigraph) -> Multigraph:
    shift = g.n
    pairs = [(u, v, mult) for u, v, mult in g.edges]
    pairs += [(u + shift, v + shift, mult) for u, v, mult in h.edges]
    return Multigraph.build(g.n + h.n, pairs)


def subdivide_edge(g: Multigraph, eid: int, t: int = 1) -> Multigraph:
    """Replace edge instance ``eid`` by a path of t+1 edges through t new vertices."""
    insts = g.instances()
    if not (0 <= eid < len(insts)):
        raise ValueError(f"no edge instance {eid}")
    if t < 1:
        raise ValueError("subdivision needs t >= 1")
    u, v, _ = insts[eid]
    pairs = []
    for i, (a, b, _copy) in enumerate(insts):
        if i != eid:
            pairs.append((a, b))
    chain = [u] + [g.n + i for i in range(t)] + [v]
    pairs += list(zip(chain, chain[1:]))
    return Multigraph.build(g.n + t, pairs)


def f_graph(k: int) -> Multigraph:
    """Two nested cycles with four consecutive spokes per inner vertex.

    Inner cycle x_0..x_{k-1} gets ids 0..k-1, outer cycle y_0..y_{2k-1}
    gets ids k..3k-1, and x_i is joined to y_{2i-2}, y_{2i-1}, y_{2i},
    y_{2i+1} with y-indices modulo 2k.  3k vertices, 7k edge instances.
    """
    if k < 3:
        raise ValueError("f_graph needs k >= 3")

    def y(j: int) -> int:
        return k + (j % (2 * k))

    pairs = [(i, (i + 1) % k) for i in range(k)]
    pairs += [(y(j), y(j + 1)) for j in range(2 * k)]
    for i in range(k):
        pairs += [(i, y(2 * i - 2)), (i, y(2 * i - 1)), (i, y(2 * i)), (i, y(2 * i + 1))]
    return Multigraph.build(3 * k, pairs)


def fig1_graph() -> Multigraph:
    """The 9-vertex counterexample graph: triangle inside a hexagon.

    Transcription: inner triangle vertices get ids 0, 1, 2 and the hexagon
    vertices ids 3..8 in circular order.  Edges, read off the figure:

    * triangle: 0-1, 0-2, 1-2;
    * hexagon cycle: 3-4, 4-5, 5-6, 6-7, 7-8, 8-3;
    * each triangle vertex joins four consecutive hexagon vertices:
      0 -> {8, 3, 4, 5}, 1 -> {4, 5, 6, 7}, 2 -> {6, 7, 8, 3}.

    21 edges total; isomorphic to f_graph(3) (checked in tests with an
    explicit mapping, not assumed).
    """
    pairs = [
        (0, 1), (0, 2), (1, 2),
        (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 3),
        (0, 8), (0, 3), (0, 4), (0, 5),
        (1, 4), (1, 5), (1, 6), (1, 7),
        (2, 6), (2, 7), (2, 8), (2, 3),
    ]
    return Multigraph.build(9, pairs)


def fig3_graph() -> Multigraph:
    """The 7-vertex wheel-with-chords example.

    Hub 0 is adjacent to every rim vertex 1..6; the rim is the cycle
    1-2-3-4-5-6-1; four chords 1-3, 3-5, 2-4, 4-6.  16 edges.
    """
    pairs = [(0, i) for i in range(1, 7)]
    pairs += [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)]
    pairs += [(1, 3), (3, 5), (2, 4), (4, 6)]
    return Multigraph.build(7, pairs)


def random_graph(n: int, m: int, seed: int) -> Multigraph:
    """Deterministic simple random graph with exactly min(m, C(n,2)) edges."""
    if m < 0:
        raise ValueError("random_graph needs m >= 0")
    import random as _random

    rng = _random.Random(seed)
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(all_pairs)
    return Multigraph.build(n, all_pairs[: min(m, len(all_pairs))])


def orbit(x: Hashable, gens: Sequence, image: Callable) -> set:
    """Every image of ``x`` under products of ``gens``, ``x`` included;
    ``image(p, y)`` is the image of y under generator p."""
    found = {x}
    stack = [x]
    while stack:
        y = stack.pop()
        for p in gens:
            z = image(p, y)
            if z not in found:
                found.add(z)
                stack.append(z)
    return found


class _Stopped(Exception):
    """Raised inside the automorphism search when its caller says stop."""


def automorphism_generators(
    g: Multigraph, stop: Callable[[], bool] = lambda: False
) -> Iterator[tuple[int, ...]]:
    """Vertex permutations that keep every pair's multiplicity and together
    generate Aut(g), yielded as they are found.  The search ends early,
    with the permutations yielded so far, once ``stop()`` returns True; it
    is asked before each refinement.

    Colour refinement splits the vertices into ordered cells that no
    automorphism mixes.  A round keys each vertex v by one integer, the
    sum of mult(v, w) << (colour(w) * shift) over its neighbours w, and
    splits each cell of two or more vertices by key.  The key is exact:
    the weighted count of v's neighbours of one colour is at most v's
    weighted degree, which is below 2**shift, so the counts fill disjoint
    bit fields and two vertices share a key only if they agree on every
    colour's count.  Individualising the first vertex of the first
    cell with two or more vertices and refining again, down to single
    vertices, fixes a base b_0, b_1, ...  Deepest level first, every
    vertex v in b_i's cell that the permutations found so far do not map
    b_i to is tried: a backtracking search over the same refinements looks
    for one automorphism fixing b_0..b_{i-1} that maps b_i to v.  One
    automorphism per coset of each stabiliser in the chain generates the
    group, so it is never enumerated.
    """
    adj: list[dict[int, int]] = [{} for _ in range(g.n)]
    for u, v, mult in g.edges:
        adj[u][v] = adj[v][u] = mult
    shift = max((sum(a.values()) for a in adj), default=0).bit_length()

    def refine(cells: list[list[int]]) -> list[list[int]]:
        while True:
            offset = [0] * g.n
            for c, cell in enumerate(cells):
                for v in cell:
                    offset[v] = c * shift
            split: list[list[int]] = []
            for cell in cells:
                if len(cell) == 1:
                    split.append(cell)
                    continue
                by_key: dict[int, list[int]] = {}
                for v in cell:
                    key = sum(mult << offset[w] for w, mult in adj[v].items())
                    by_key.setdefault(key, []).append(v)
                split += [by_key[key] for key in sorted(by_key)]
            if len(split) == len(cells):
                return cells
            cells = split

    def pin(cells: list[list[int]], k: int, v: int) -> list[list[int]]:
        if stop():
            raise _Stopped
        return refine(cells[:k] + [[v], [w for w in cells[k] if w != v]] + cells[k + 1:])

    path = [refine([list(range(g.n))])]
    base: list[tuple[int, int]] = []  # (cell index, base vertex) per level

    def extend(d: int, cells: list[list[int]], targets: list[int]) -> list[int] | None:
        # Map b_d to each target in turn and follow the base path below it.
        for y in targets:
            image = pin(cells, base[d][0], y)
            if [len(cell) for cell in image] != [len(cell) for cell in path[d + 1]]:
                continue
            if d + 1 < len(base):
                found = extend(d + 1, image, image[base[d + 1][0]])
            else:
                found = [0] * g.n
                for (a,), (b,) in zip(path[-1], image):
                    found[a] = b
                if any(adj[found[u]].get(found[v]) != mult for u, v, mult in g.edges):
                    found = None
            if found is not None:
                return found
        return None

    try:
        while len(path[-1]) < g.n:
            k = next(k for k, cell in enumerate(path[-1]) if len(cell) > 1)
            base.append((k, path[-1][k][0]))
            path.append(pin(path[-1], k, path[-1][k][0]))
        gens: list[list[int]] = []
        for i in reversed(range(len(base))):
            k, b = base[i]
            reached = {b}
            for v in path[i][k]:
                if v in reached:
                    continue
                perm = extend(i, path[i], [v])
                if perm is None:
                    continue
                gens.append(perm)
                yield tuple(perm)
                reached = orbit(b, gens, lambda p, x: p[x])
    except _Stopped:
        return

