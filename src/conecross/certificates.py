"""Crossing certificates: combinatorial witnesses that cr(G) <= c.

A certificate lists c unordered pairs of edge instances that cross, plus,
for every edge crossed at least twice, the order of its crossings along
the edge (traversed from its smaller endpoint).  Replacing each crossing
by a degree-4 dummy vertex planarizes the drawing, so the certificate is
realizable exactly when that planarization is planar.

Good-drawing restrictions are baked into validity: adjacent edge
instances (sharing an endpoint, which includes parallel copies of one
pair) never cross, and no pair of edges crosses twice.  Some optimal
drawing of any loopless multigraph satisfies both, so searching over such
certificates loses nothing.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

from .books import BookDrawing
from .graphs import Multigraph
from .planarity import lr_planar

CERT_FORMAT = "conecross-cert-v1"


@dataclass(frozen=True)
class CrossingCertificate:
    """crossings: sorted distinct (e, f) instance-id pairs with e < f.

    edge_orders maps an edge-instance id to the indices (into crossings)
    of that edge's crossings, in traversal order from the smaller
    endpoint, stored sorted by edge id.  Entries are mandatory for edges
    crossed twice or more and optional otherwise: :meth:`build` keeps
    only the mandatory ones, so callers may hand it every edge's order,
    while a certificate read from JSON may carry one-crossing orders too.
    """

    crossings: tuple[tuple[int, int], ...]
    edge_orders: tuple[tuple[int, tuple[int, ...]], ...] = ()

    @staticmethod
    def build(
        crossings: Iterable[tuple[int, int]],
        edge_orders: Mapping[int, Sequence[int]] | None = None,
    ) -> "CrossingCertificate":
        """Normalize (sort pairs, sort lists, drop orders of fewer than
        two crossings) and construct."""
        raw = [(min(e, f), max(e, f)) for e, f in crossings]
        argsort = sorted(range(len(raw)), key=raw.__getitem__)
        if edge_orders is None:
            edge_orders = {}
        # Order lists refer to positions in the original sequence; remap.
        remap = [0] * len(raw)
        for new, old in enumerate(argsort):
            remap[old] = new
        fixed = {
            eid: tuple(remap[i] for i in order)
            for eid, order in edge_orders.items()
            if len(order) >= 2
        }
        return CrossingCertificate(
            tuple(raw[i] for i in argsort), tuple(sorted(fixed.items()))
        )

    @property
    def count(self) -> int:
        return len(self.crossings)

    def orders(self) -> dict[int, tuple[int, ...]]:
        return dict(self.edge_orders)

    def sequences(self) -> dict[int, list[int]]:
        """Each crossed edge's crossing indices in traversal order."""
        seqs: dict[int, list[int]] = {}
        for idx, (e, f) in enumerate(self.crossings):
            seqs.setdefault(e, []).append(idx)
            seqs.setdefault(f, []).append(idx)
        seqs.update((eid, list(seq)) for eid, seq in self.edge_orders)
        return seqs

    def to_json_dict(self) -> dict:
        return {
            "format": CERT_FORMAT,
            "crossings": [list(pair) for pair in self.crossings],
            "edge_orders": {str(eid): list(seq) for eid, seq in self.edge_orders},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @staticmethod
    def from_json_dict(data: dict) -> "CrossingCertificate":
        if data.get("format") != CERT_FORMAT:
            raise ValueError(f"not a {CERT_FORMAT} object")
        crossings = tuple((int(e), int(f)) for e, f in data["crossings"])
        orders = {
            int(eid): tuple(int(i) for i in seq)
            for eid, seq in data.get("edge_orders", {}).items()
        }
        return CrossingCertificate(crossings, tuple(sorted(orders.items())))

    @staticmethod
    def from_json(text: str) -> "CrossingCertificate":
        return CrossingCertificate.from_json_dict(json.loads(text))


def certificate_error(g: Multigraph, cert: CrossingCertificate) -> str | None:
    """Why cert is structurally invalid for g, or None if it is fine."""
    m = g.m
    insts = g.instances()
    seen: set[tuple[int, int]] = set()
    prev: tuple[int, int] | None = None
    for e, f in cert.crossings:
        if not (0 <= e < m and 0 <= f < m):
            return f"edge instance out of range in crossing ({e}, {f})"
        if e >= f:
            return f"crossing pair ({e}, {f}) not in sorted form"
        if prev is not None and (e, f) < prev:
            return "crossings not sorted"
        prev = (e, f)
        if (e, f) in seen:
            return f"repeated crossing ({e}, {f})"
        seen.add((e, f))
        ue, ve, _ = insts[e]
        uf, vf, _ = insts[f]
        if ue in (uf, vf) or ve in (uf, vf):
            return f"adjacent edge instances cross in ({e}, {f})"
    hits: dict[int, list[int]] = {}
    for idx, (e, f) in enumerate(cert.crossings):
        hits.setdefault(e, []).append(idx)
        hits.setdefault(f, []).append(idx)
    declared = dict(cert.edge_orders)
    for eid, order in declared.items():
        if not (0 <= eid < m):
            return f"edge order for unknown instance {eid}"
        if sorted(order) != sorted(hits.get(eid, [])):
            return f"edge order for instance {eid} does not list its crossings"
    for eid, indices in hits.items():
        if len(indices) >= 2 and eid not in declared:
            return f"instance {eid} crossed {len(indices)} times but has no order"
    return None


def planar_segments(
    g: Multigraph, cert: CrossingCertificate
) -> list[tuple[int, int, int, int]]:
    """Planarization segments as (endpoint a, endpoint b, host id, slot):
    each edge is split along its crossing order, crossing i being vertex
    n + i.  Slot j of a host is the gap between its j-th and (j+1)-th
    crossings in traversal order; a host crossed c times has slots 0..c.
    """
    seqs = cert.sequences()
    out: list[tuple[int, int, int, int]] = []
    for eid, (u, v, _) in enumerate(g.instances()):
        chain = [u] + [g.n + idx for idx in seqs.get(eid, [])] + [v]
        out.extend((a, b, eid, j) for j, (a, b) in enumerate(zip(chain, chain[1:])))
    return out


def planarize(g: Multigraph, cert: CrossingCertificate) -> Multigraph:
    """Replace each crossing by a degree-4 dummy vertex (ids n, n+1, ...),
    as in :func:`planar_segments`.  Raises ValueError on a malformed certificate.
    """
    reason = certificate_error(g, cert)
    if reason is not None:
        raise ValueError(reason)
    pairs = [(a, b) for a, b, _, _ in planar_segments(g, cert)]
    return Multigraph.build(g.n + cert.count, pairs)


def verify_certificate(g: Multigraph, cert: CrossingCertificate) -> tuple[int, bool]:
    """(crossing count, realizable?).  Malformed certificates are just invalid."""
    if certificate_error(g, cert) is not None:
        return cert.count, False
    pairs = [(a, b) for a, b, _, _ in planar_segments(g, cert)]
    return cert.count, lr_planar(g.n + cert.count, pairs)


def lift_certificate(
    whole: Multigraph,
    parts: Iterable[tuple[Multigraph, Sequence[int], CrossingCertificate]],
) -> CrossingCertificate:
    """One certificate of ``whole`` from certificates of edge-disjoint subgraphs.

    Each part is (sub, vertices, cert) with vertex i of ``sub`` being
    ``vertices[i]`` of ``whole``; copy j of a pair stays copy j.  Crossing
    indices are shifted past those of the parts before.  Only the instances
    a certificate names are looked up.
    """
    # first[(u, v)]: the id of copy 0 of pair (u, v) in ``whole``.
    first: dict[tuple[int, int], int] = {}
    count = 0
    for u, v, mult in whole.edges:
        first[(u, v)] = count
        count += mult
    pairs: list[tuple[int, int]] = []
    orders: dict[int, list[int]] = {}
    for sub, vertices, cert in parts:
        insts = sub.instances()

        def lifted(eid: int) -> int:
            u, v, copy = insts[eid]
            a, b = vertices[u], vertices[v]
            return first[(a, b) if a < b else (b, a)] + copy

        offset = len(pairs)
        pairs.extend((lifted(e), lifted(f)) for e, f in cert.crossings)
        for eid, seq in cert.edge_orders:
            orders[lifted(eid)] = [i + offset for i in seq]
    return CrossingCertificate.build(pairs, orders)


@dataclass(frozen=True)
class SolveStats:
    nodes: int = 0
    planarity_calls: int = 0
    elapsed_ms: float = 0.0


def rolled_up(solves: list[SolveStats], started: float) -> SolveStats:
    """Counters of nested solves added up, timed from ``started``
    (``time.monotonic()``) to now."""
    return SolveStats(
        sum(st.nodes for st in solves),
        sum(st.planarity_calls for st in solves),
        (time.monotonic() - started) * 1000,
    )


@dataclass(frozen=True)
class SolveResult:
    """Bracket on a crossing number, exact when the two sides meet.

    ``lower`` is proven and ``certificate`` is a verified drawing, whose
    count is the upper bound :attr:`upper`, so :attr:`status` is read off
    the bracket: ``exact`` when they meet, ``bounds-only`` otherwise.
    ``lower_reason`` names the argument behind ``lower``: ``euler`` (the
    Euler bound), ``search`` (an exhausted level), ``vertex-count`` or
    ``edge-count`` (a counting bound over deletions, see ``solver``),
    ``component sum``, or empty where no crossing-number search ran.  A
    lower bound above the drawing's count raises ``RuntimeError``: no
    result is built from outside input, so that is an internal fault.
    """

    lower: int
    certificate: CrossingCertificate
    stats: SolveStats = field(default_factory=SolveStats)
    lower_reason: str = ""

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise RuntimeError(
                f"lower bound {self.lower} ({self.lower_reason or 'no reason'}) "
                f"exceeds the drawing's count {self.upper}"
            )

    @property
    def upper(self) -> int:
        return self.certificate.count

    @property
    def status(self) -> str:
        return "exact" if self.lower == self.upper else "bounds-only"

    @property
    def value(self) -> int:
        if self.status != "exact":
            raise ValueError("no exact value, bracket is open")
        return self.lower

    def to_json_dict(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "status": self.status,
            "lower_reason": self.lower_reason,
            "stats": {
                "nodes": self.stats.nodes,
                "planarity_calls": self.stats.planarity_calls,
                "elapsed_ms": round(self.stats.elapsed_ms, 3),
            },
            "certificate": self.certificate.to_json_dict(),
        }


def combine_brackets(
    whole: Multigraph,
    parts: Sequence[tuple[Multigraph, Sequence[int], SolveResult]],
    started: float,
) -> SolveResult:
    """The bracket of ``whole`` from those of edge-disjoint parts whose
    crossing numbers add up to its own (components, component cones).

    Parts are (sub, vertices, result) as in :func:`lift_certificate`, each
    certificate verified where it was made.  A lone part that is ``whole``
    itself, on the same labels, is returned as it stands; otherwise the
    lifted certificate is verified.  Either way the stats are rolled up
    from ``started``, the caller's ``time.monotonic()`` at entry."""
    stats = rolled_up([res.stats for _, _, res in parts], started)
    if len(parts) == 1:
        sub, vertices, res = parts[0]
        if sub == whole and list(vertices) == list(range(whole.n)):
            return replace(res, stats=stats)
    cert = lift_certificate(
        whole, [(sub, vertices, res.certificate) for sub, vertices, res in parts]
    )
    count, ok = verify_certificate(whole, cert)
    if not ok or count != sum(res.upper for _, _, res in parts):
        raise RuntimeError("part certificates do not combine into a drawing")
    return SolveResult(sum(res.lower for _, _, res in parts), cert, stats, "component sum")


def certificate_from_book(d: BookDrawing) -> CrossingCertificate:
    """Read a crossing certificate off a 1- or 2-page book drawing.

    The crossing pairs are the interleaving same-page chords.  Their
    orders along each edge come from an integer orthogonal drawing: the
    spine is cut open at the order's first vertex, and each chord of one
    page runs up from its left end to its height, across, and down to its
    right end (the other page is the mirror image below the spine, with
    the same orders).  Heights rank chords by (span, -copy, id), so a chord is
    taller than every chord nested inside it and copy 0 of a parallel
    pair is outermost.  At each vertex the chord ends are spread along
    the spine: first the chords arriving from the left, shortest first,
    then those leaving to the right, tallest first.

    Chords sharing a vertex, nested chords and disjoint chords never
    meet.  Two interleaving chords meet once, where a vertical of one
    crosses the horizontal of the other.  Verticals have distinct x and
    horizontals distinct heights, so no two crossings share a point and
    plain sorts give every order.  Three or more pages make no plane
    drawing and raise ValueError.
    """
    pages = d.page_count
    if pages > 2:
        raise ValueError(
            f"a book drawing on {pages} pages is not a plane drawing; "
            "certificates are read off 1 or 2 pages"
        )
    crossings = d.crossing_pairs()
    if not crossings:
        return CrossingCertificate.build([])
    insts = d.graph.instances()
    pos = d.order.position_map()
    left = [min(pos[u], pos[v]) for u, v, _ in insts]
    right = [max(pos[u], pos[v]) for u, v, _ in insts]
    ids = range(len(insts))
    height = [0] * len(insts)
    by_height = sorted(ids, key=lambda e: (right[e] - left[e], -insts[e][2], e))
    for h, eid in enumerate(by_height):
        height[eid] = h
    # x of each chord end: its rank along the spine.
    ends = sorted(
        [(right[e], 0, height[e], e) for e in ids]
        + [(left[e], 1, -height[e], e) for e in ids]
    )
    x_left = [0] * len(insts)
    x_right = [0] * len(insts)
    for x, (_, leaving, _, eid) in enumerate(ends):
        (x_left if leaving else x_right)[eid] = x

    # Keys along a chord from its left end: up (0, height), across
    # (1, x), down (2, -height).
    keyed: dict[int, list[tuple[tuple[int, int], int]]] = {}
    for idx, (e, f) in enumerate(crossings):
        a, b = (e, f) if x_left[e] < x_left[f] else (f, e)
        if height[a] < height[b]:
            key_a, key_b = (1, x_left[b]), (0, height[a])
        else:
            key_a, key_b = (2, -height[b]), (1, x_right[a])
        keyed.setdefault(a, []).append((key_a, idx))
        keyed.setdefault(b, []).append((key_b, idx))

    orders: dict[int, list[int]] = {}
    for eid, found in keyed.items():
        seq = [idx for _, idx in sorted(found)]
        # Orders run from the smaller endpoint u.
        if pos[insts[eid][0]] != left[eid]:
            seq.reverse()
        orders[eid] = seq
    return CrossingCertificate.build(crossings, orders)


def scale_certificate(
    base: Multigraph, cert: CrossingCertificate, target: Multigraph
) -> CrossingCertificate:
    """Lift a certificate of base to target = base with multiplied edges.

    target must have the same vertices and pairs, with each pair's
    multiplicity an integer multiple of its base multiplicity.  Copies of
    an edge run in a narrow tube around it, so a base crossing between
    edges with ratios r and s becomes an r-by-s grid of crossings, the grid
    rows meeting every column in one consistent order.  Crossings of the
    target: sum of r*s over base crossings.
    """
    if target.n != base.n:
        raise ValueError("vertex sets differ")
    base_mult = {(u, v): mult for u, v, mult in base.edges}
    ratio: dict[tuple[int, int], int] = {}
    for u, v, mult in target.edges:
        bm = base_mult.get((u, v))
        if bm is None or mult % bm != 0:
            raise ValueError(f"pair ({u}, {v}) does not scale from the base graph")
        ratio[(u, v)] = mult // bm
    if len(base_mult) != len(ratio):
        raise ValueError("target is missing pairs of the base graph")

    insts = base.instances()
    index = target.instance_index()

    def group(eid: int) -> list[int]:
        u, v, copy = insts[eid]
        r = ratio[(u, v)]
        return [index[(u, v, copy * r + i)] for i in range(r)]

    new_pairs: list[tuple[int, int]] = []
    grid_of: list[list[list[int]]] = []
    for e, f in cert.crossings:
        ge, gf = group(e), group(f)
        grid = [[-1] * len(gf) for _ in ge]
        for i, te in enumerate(ge):
            for j, tf in enumerate(gf):
                grid[i][j] = len(new_pairs)
                new_pairs.append((min(te, tf), max(te, tf)))
        grid_of.append(grid)

    # Along a copy of e, partner copies are met in ascending index; a base
    # edge crossed several times keeps its base order, each crossing
    # expanded into its row or column of the grid.
    new_orders: dict[int, list[int]] = {}
    for eid, along in cert.sequences().items():
        for slot, teid in enumerate(group(eid)):
            seq: list[int] = []
            for idx in along:
                e, f = cert.crossings[idx]
                grid = grid_of[idx]
                if eid == e:
                    seq.extend(grid[slot])
                else:
                    seq.extend(row[slot] for row in grid)
            new_orders[teid] = seq
    return CrossingCertificate.build(new_pairs, new_orders)


def f_graph_certificate(k: int) -> CrossingCertificate:
    """The k-crossing certificate of f_graph(k) from its standard drawing.

    Drawing the outer cycle as a circle with each x_i inside near its four
    spoke targets, the only crossings are between consecutive spoke fans:
    x_i's last spoke crosses x_{i+1}'s first, cyclically.  Every edge is
    crossed at most once, so no order lists are needed.
    """
    from .graphs import f_graph

    index = f_graph(k).instance_index()

    def spoke(i: int, j: int) -> int:
        # x_i = i lies below every outer-cycle id k..3k-1.
        return index[(i, k + (j % (2 * k)), 0)]

    pairs = []
    for i in range(k):
        e = spoke(i, 2 * i + 1)
        f = spoke((i + 1) % k, 2 * i)
        pairs.append((min(e, f), max(e, f)))
    return CrossingCertificate.build(pairs)


def fig1_certificate() -> CrossingCertificate:
    """A 3-crossing certificate for the triangle-hexagon graph.

    Hexagon 3..8 drawn convex, each triangle vertex placed inside near
    its four consecutive neighbors; the fans of adjacent triangle
    vertices overlap in two hexagon vertices and cross exactly once.
    """
    from .graphs import fig1_graph

    g = fig1_graph()

    def eid(u: int, v: int) -> int:
        return g.instance_id(min(u, v), max(u, v))

    pairs = [
        (eid(0, 5), eid(1, 4)),
        (eid(1, 7), eid(2, 6)),
        (eid(2, 3), eid(0, 8)),
    ]
    return CrossingCertificate.build(pairs)


def fig1_cone_certificate() -> CrossingCertificate:
    """A 6-crossing certificate for the coned triangle-hexagon graph.

    Extends fig1_certificate: the apex sits outside the hexagon, reaches
    3..8 freely, and reaches each triangle vertex through the one hexagon
    edge whose endpoints are both neighbors of that vertex.  Three base
    crossings plus three apex crossings; no edge is crossed twice.
    """
    from .graphs import cone, fig1_graph

    cg = cone(fig1_graph())

    def eid(u: int, v: int) -> int:
        return cg.instance_id(min(u, v), max(u, v))

    pairs = [
        (eid(0, 5), eid(1, 4)),
        (eid(1, 7), eid(2, 6)),
        (eid(2, 3), eid(0, 8)),
        (eid(9, 0), eid(3, 4)),
        (eid(9, 1), eid(5, 6)),
        (eid(9, 2), eid(7, 8)),
    ]
    return CrossingCertificate.build(pairs)
