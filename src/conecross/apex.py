"""Cone crossing numbers: apex insertion into a drawing plus the solver.

Two certificate routes feed the upper bound for cr(cone(G)):

  - A 1-page drawing of G puts every vertex on the outer face, so the
    apex can be joined from outside with zero new crossings; the cone
    inherits the drawing's crossing count.
  - Any certificate of G planarizes to an embedded plane graph; placing
    the apex inside one of its faces and routing each apex edge through a
    shortest sequence of faces adds one crossing per face boundary
    stepped over.  Minimizing over apex faces gives a cone certificate
    whose apex edges cross G where the geometry says they must.  One
    dual search per vertex prices every face at once (the method of
    Gutwenger, Mutzel and Weiskircher, "Inserting an edge into a planar
    graph", 2005), so only the faces tried in price order are routed, and
    each route steps down its vertex's prices from the apex face.

``cone_cr`` splits G into components and combines their cones' brackets
as ``cr_exact`` does.  It puts the apex into each optimal drawing of a
component as ``cr_exact``'s own search finds it: the level of the
component's crossing number is searched once per cone solve.  A drawing
whose cheapest face cannot beat the best seed so far is given up before
anything is assembled (``insert_apex``'s ``below``).  A best
seed above the cone's Euler floor caps ``solver.solve_component`` on the
cone, the component solve ``cr_exact`` runs, which closes the bracket
from below.  Each cone seed is verified once, where it enters: an apex
insertion verifies what it assembles, and ``cone_cr`` verifies the
lifted 1-page seed when it keeps it; the component solve returns a seed
unchecked and verifies only the drawings it finds itself.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import replace

# Kept for the benchmark's tracer, which patches apex.nx (ROADMAP item 1).
import networkx as nx

from .certificates import (
    CrossingCertificate,
    SolveResult,
    SolveStats,
    combine_brackets,
    lift_certificate,
    planar_segments,
    verify_certificate,
)
from .graphs import Multigraph, cone
from .pages import outerplanar_cr
from .planarity import lr_embedding
from .deadline import Deadline, require_one_thread
# cr_certificates stays importable here for the benchmark's tracer (ROADMAP item 1).
from .solver import cr_certificates, cr_exact, cr_lower, solve_component

class ApexRoutingError(RuntimeError):
    """The apex found no route into this particular drawing of G.

    This is a property of the drawing, not a fault: ``cone_cr`` skips the
    drawing and tries the next one.
    """


def lift_to_cone(g: Multigraph, cert: CrossingCertificate) -> CrossingCertificate:
    """Re-express a certificate of G in the instance ids of cone(G)."""
    return lift_certificate(cone(g), [(g, range(g.n), cert)])


def _embedding_faces(
    segments: list[tuple[int, int, int]], n_nodes: int
) -> tuple[list[dict[int, int]], list[list[int]]]:
    """Faces of the planarized drawing, via one midpoint per segment.

    Subdividing every segment keeps the embedding but makes the graph
    simple, so parallel segments get their faces too.  Node ``n_nodes + i``
    is the midpoint of segment i.  ``lr_embedding`` gives the clockwise
    rotation at every node, and a face walk that reaches w from v leaves
    w towards the neighbour just counterclockwise of v; walks start from
    the half-edges in sorted order.  Returns, per face, each node's first
    position on the face's walk, and per segment the face that walks it
    from a to b and the face that walks it from b to a (the midpoint has
    one corner in each; a bridge has the same face twice).  Raises
    ``ValueError`` when the planarization is not planar, and
    ``RuntimeError`` when the faces break Euler's formula, which would be
    a fault of the embedding.
    """
    edges = []
    for i, (a, b, _) in enumerate(segments):
        mid = n_nodes + i
        edges.append((a, mid))
        edges.append((mid, b))
    rotation = lr_embedding(n_nodes + len(segments), edges)
    if rotation is None:
        raise ValueError("base certificate does not verify: its planarization is not planar")
    # turn[w, v]: the node a face walk goes to after arriving at w from v.
    turn: dict[tuple[int, int], int] = {}
    for w, nbrs in enumerate(rotation):
        if nbrs:
            ccw = nbrs[-1]
            for v in nbrs:
                turn[w, v] = ccw
                ccw = v
    walks: list[dict[int, int]] = []
    seg_faces = [[0, 0] for _ in segments]
    seen: set[tuple[int, int]] = set()
    for start in sorted(turn):
        if start in seen:
            continue
        nodes = []
        u, v = start
        while True:
            seen.add((u, v))
            nodes.append(u)
            u, v = v, turn[v, u]
            if (u, v) == start:
                break
        pos: dict[int, int] = {}
        for p, node in enumerate(nodes):
            pos.setdefault(node, p)
            if node >= n_nodes:
                i = node - n_nodes
                seg_faces[i][nodes[p - 1] != segments[i][0]] = len(walks)
        walks.append(pos)
    if not walks:
        # Without edges the whole plane is one face holding every vertex.
        walks.append({v: v for v in range(n_nodes)})
    # V - E + F = 2 for the connected planarization: n_nodes + s nodes,
    # 2s edges.
    if n_nodes - len(segments) + len(walks) != 2:
        raise RuntimeError(
            f"embedding has {len(walks)} faces, against Euler's formula for "
            f"{n_nodes} nodes and {len(segments)} segments"
        )
    return walks, seg_faces


def insert_apex(
    g: Multigraph, cert: CrossingCertificate, *, below: int | None = None
) -> CrossingCertificate | None:
    """Certificate for cone(G) built on top of a certificate for G.

    G must be connected.  The apex face is chosen to minimize the total
    crossings of the apex edges, ties going to the lowest face id; along
    the way each apex edge avoids edges at its own endpoint and never
    crosses one host twice.  Faces are ranked before any route is built:
    one breadth-first search per vertex v over the dual, from the faces
    that hold v and over no segment of a host at v, gives every face's
    distance to v, which is the length of the route from that face to v.
    A face's cost is the sum over the vertices, and a face some vertex
    cannot reach is out.  Faces are tried in (cost, face id) order, each
    routed by stepping down the distances to each vertex, until one routes
    no apex edge across a host twice; that is the face a full scan of all
    faces would pick.

    With ``below`` set, the insertion returns ``None`` as soon as the
    next face to try would give a cone drawing of at least ``below``
    crossings (``cert.count`` plus its cost): every face left costs as
    much or more, so no drawing under ``below`` is lost, and nothing is
    routed, assembled or verified.  Only the routes through the one face
    picked are assembled, and the returned certificate has been verified
    against cone(G).  Raises ``ValueError`` when ``cert`` is malformed
    (before any embedding is built) or its planarization is not planar
    (the embedding's own test), and ``ApexRoutingError`` when no apex
    face admits such routes or the cheapest face's routes do not
    assemble into a realizable certificate.
    """
    if len(g.components()) != 1:
        raise ValueError("apex insertion needs a connected base graph")
    try:
        segments = planar_segments(g, cert)
    except ValueError as err:
        raise ValueError(f"base certificate does not verify: {err}") from err
    walks, seg_faces = _embedding_faces(segments, g.n + cert.count)

    # Dual steps: (i, h) in face_steps[f] crosses segment i from face f
    # into h, the other face beside it (f itself beside a bridge).
    face_steps: list[list[tuple[int, int]]] = [[] for _ in walks]
    for i, (f1, f2) in enumerate(seg_faces):
        face_steps[f1].append((i, f2))
        if f2 != f1:
            face_steps[f2].append((i, f1))

    insts = g.instances()
    incident: list[set[int]] = [set() for _ in range(g.n)]
    for eid, (a, b, _) in enumerate(insts):
        incident[a].add(eid)
        incident[b].add(eid)

    # dist[v][f]: the fewest segments crossed from face f to a face holding
    # v, over no segment of a host at v (-1: none reachable).
    dist: list[list[int]] = []
    for v in range(g.n):
        to_v = [0 if v in walk else -1 for walk in walks]
        queue = deque(fid for fid, d in enumerate(to_v) if not d)
        while queue:
            fid = queue.popleft()
            for i, nxt in face_steps[fid]:
                if to_v[nxt] < 0 and segments[i][2] not in incident[v]:
                    to_v[nxt] = to_v[fid] + 1
                    queue.append(nxt)
        dist.append(to_v)
    ranked = sorted(
        (sum(col), fid) for fid, col in enumerate(zip(*dist)) if min(col) >= 0
    )

    def paths_from(apex_face: int) -> list[list[tuple[int, int]]] | None:
        """Per-vertex shortest routes as (segment crossed, face entered)
        steps, or None when a route crosses one host twice.

        Each route steps down v's prices: from each face it crosses the
        first segment in ``face_steps`` order that is on no host at v
        and whose far face is one step nearer v, until it is in a face
        holding v.  This is the route a forward breadth-first search from
        the apex face returns: that search first reaches each face on a
        shortest route to v from a face on such a route, in segment order,
        so the first face holding v that it takes off its queue is where
        this walk ends.  A ranked face reaches every vertex, so every step
        finds a segment.
        """
        out: list[list[tuple[int, int]]] = []
        for v, to_v in enumerate(dist):
            path: list[tuple[int, int]] = []
            fid = apex_face
            while to_v[fid]:
                for i, nxt in face_steps[fid]:
                    if to_v[nxt] == to_v[fid] - 1 and segments[i][2] not in incident[v]:
                        break
                path.append((i, nxt))
                fid = nxt
            if len({segments[i][2] for i, _ in path}) != len(path):
                return None
            out.append(path)
        return out

    for cost, fid in ranked:
        if below is not None and cert.count + cost >= below:
            return None
        routes = paths_from(fid)
        if routes is not None:
            break
    else:
        raise ApexRoutingError("no admissible apex face")

    cg = cone(g)
    index = cg.instance_index()
    lift = [index[inst] for inst in insts]
    apex_edge = [index[(v, g.n, 0)] for v in range(g.n)]

    coned = _assemble_cone_cert(
        cg, cert, segments, walks, seg_faces, routes, lift, apex_edge
    )
    if coned is None:
        raise ApexRoutingError("the cheapest apex face gives no realizable certificate")
    return coned


def _assemble_cone_cert(
    cg: Multigraph,
    cert: CrossingCertificate,
    segments: list[tuple[int, int, int]],
    walks: list[dict[int, int]],
    seg_faces: list[list[int]],
    routes: list[list[tuple[int, int]]],
    lift: list[int],
    apex_edge: list[int],
) -> CrossingCertificate | None:
    """Combine base crossings with routed apex crossings and verify.

    Apex crossings on one segment are ordered by where their routes go.
    Take two routes that enter a face F through the same segment s and
    follow both while they leave each face through the same segment.  In
    the first face where they part, they are disjoint chords that start
    side by side on the entry segment; for them not to cross, the one
    whose exit lies farther along that face's walk (in traversal order
    from the entry) starts nearer the segment end the walk comes from.
    Sides carry over a shared segment: the next face walks it the other
    way, so the route nearer the walk's start on leaving one face is
    nearer it on entering the next.  Routes end at distinct vertices, so
    they always part, and the rule reaches back to s: sorting by the
    negated exit offsets from F on puts first the crossing nearest the
    end of s that F's walk comes from.  The order is reversed when F
    walks s against its host.  A segment entered from both sides is
    outside the rule, so the face is given up.  Returns the verified
    certificate, or None.
    """
    n = cg.n - 1
    first_mid = n + cert.count
    cg_pairs: list[tuple[int, int]] = [
        (lift[e], lift[f]) for e, f in cert.crossings
    ]
    # segment -> (face entered through it, [(sort key, crossing index)])
    slots: dict[int, tuple[int, list]] = {}
    orders: dict[int, list[int]] = {}
    for v, route in enumerate(routes):
        exits = [first_mid + seg for seg, _ in route[1:]] + [v]
        # Sorts like the negated offset of each exit from its face's entry
        # along the face's walk.
        keys = [
            (walks[face][out] > walks[face][first_mid + seg], -walks[face][out])
            for (seg, face), out in zip(route, exits)
        ]
        steps = []
        for t, (seg, face) in enumerate(route):
            entry, group = slots.setdefault(seg, (face, []))
            if entry != face:
                return None
            group.append((keys[t:], len(cg_pairs)))
            steps.append(len(cg_pairs))
            cg_pairs.append((apex_edge[v], lift[segments[seg][2]]))
        # Traversal starts at v, the smaller endpoint; the route walks
        # apex -> v, so reverse it.
        orders[apex_edge[v]] = steps[::-1]

    host_seqs: dict[int, list[int]] = {}
    # Segments run along each host in order; one that ends at vertex n + i
    # is followed by base crossing i.
    for seg, (_, b, host) in enumerate(segments):
        seq = host_seqs.setdefault(host, [])
        if seg in slots:
            face, group = slots[seg]
            ranked = [idx for _, idx in sorted(group)]
            seq.extend(ranked if face == seg_faces[seg][0] else ranked[::-1])
        if b >= n:
            seq.append(b - n)
    orders.update((lift[h], seq) for h, seq in host_seqs.items())
    cand = CrossingCertificate.build(cg_pairs, orders)
    _, ok = verify_certificate(cg, cand)
    return cand if ok else None


def cone_cr(
    g: Multigraph,
    max_k: int | None = None,
    budget_ms: int | None = None,
    threads: int = 1,
) -> SolveResult:
    """cr(cone(G)) with upper bound seeded from drawings of G.

    G is split into its components and each component's cone is solved on
    its own: gluing the component cones at the shared apex, each shrunk
    into a face corner of the previous one, realizes the sum of their
    crossing numbers, and any drawing of cone(G) restricts to
    edge-disjoint drawings of all of them, so the sum is exact.  An empty
    G is one part, the lone apex.  A component's seeds come in this
    order, each tried only while the best so far is above its cone's
    Euler floor:

      1. its best 1-page drawing, lifted (the apex joins from the outer
         face for free); past the order-search limit, or when no order
         finishes in budget, the natural order's drawing;
      2. the apex inserted into each of its optimal drawings as
         ``cr_exact``'s own search finds them, the returned one first,
         until a seed meets the floor, the level is exhausted, or the
         budget runs out.  Different optimal drawings expose very
         different face structures to the apex; one whose cheapest face
         cannot beat the best seed so far is not assembled.

    A best seed at the floor is returned as it stands, exact by the Euler
    bound, with no solve of the cone.  Above the floor it caps the
    deepening of ``solver.solve_component`` on the cone, the component
    solve of ``cr_exact``; ``cr_exact`` itself runs only on G.  Each cone
    certificate is verified once: apex insertion verifies what it
    assembles; the lifted 1-page seed, if no insertion beats it, is
    verified here before the floor test; the component solve verifies
    only a drawing it finds itself; ``combine_brackets`` verifies a sum
    where it lifts it.  A 1-page seed that fails its check raises
    ``RuntimeError`` on either side of the floor: lifting a 1-page drawing
    cannot lose realizability, so that is an internal fault.  ``threads``
    must be 1: the solves run in this process, and the keyword goes once
    the benchmark stops passing it (ROADMAP item 1).
    """
    require_one_thread(threads)
    # Checked here, not only in the solve of G, which a seed at the floor
    # may never reach.
    if max_k is not None and max_k < 0:
        raise ValueError(f"max_k={max_k}: must be None or >= 0")
    started = time.monotonic()
    deadline = Deadline(budget_ms)
    parts = []
    for sub, vertices in g.component_subgraphs() or [(g, [])]:
        cs = cone(sub)
        parts.append((cs, vertices + [g.n], _cone_cr_connected(sub, cs, max_k, deadline)))
    return combine_brackets(cone(g), parts, started)


def _cone_cr_connected(
    g: Multigraph, cg: Multigraph, max_k: int | None, deadline: Deadline
) -> SolveResult:
    """``cone_cr`` of a connected (or empty) base graph ``g``, whose cone is
    ``cg``."""
    floor = cr_lower(cg)
    ocr = outerplanar_cr(g, budget_ms=deadline.remaining_ms())
    one_page = best = lift_to_cone(g, ocr.certificate)

    def seed_from(drawing: CrossingCertificate) -> bool:
        """Insert the apex into one optimal drawing of G; True stops the stream.

        A drawing that cannot beat the best seed is given up unassembled.
        """
        nonlocal best
        try:
            coned = insert_apex(g, drawing, below=best.count)
        except ApexRoutingError:
            return False
        if coned is not None:
            best = coned
        return best.count <= floor

    # The solve of G that fed the seeds is part of this answer's work.  A
    # part's counters are summed here; ``cone_cr`` times the whole answer.
    nodes = calls = 0
    if best.count > floor:
        inner = cr_exact(g, max_k=max_k, budget_ms=deadline.remaining_ms(), until=seed_from)
        nodes, calls = inner.stats.nodes, inner.stats.planarity_calls
    # Apex insertion verified its seeds; the 1-page seed is checked only if kept.
    if best is one_page and not verify_certificate(cg, best)[1]:
        raise RuntimeError("the lifted 1-page seed does not verify on cone(G)")
    if best.count <= floor:
        return SolveResult(floor, best, SolveStats(nodes, calls), "euler")
    res = solve_component(cg, max_k, deadline, best)
    stats = SolveStats(nodes + res.stats.nodes, calls + res.stats.planarity_calls)
    return replace(res, stats=stats)
