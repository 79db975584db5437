"""Cone crossing numbers: apex insertion into a drawing plus the solver.

Two certificate routes feed the solver's upper bound for cr(cone(G)):

  - A 1-page drawing of G puts every vertex on the outer face, so the
    apex can be joined from outside with zero new crossings; the cone
    inherits the drawing's crossing count.
  - Any certificate of G planarizes to an embedded plane graph; placing
    the apex inside one of its faces and routing each apex edge through a
    shortest sequence of faces adds one crossing per face boundary
    stepped over.  Minimizing over apex faces gives a cone certificate
    whose apex edges cross G where the geometry says they must.

Both seeds are verified before use; the solver itself then closes the
bracket from below.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import replace
from itertools import permutations, product

import networkx as nx

from .certificates import (
    CrossingCertificate,
    SolveResult,
    combine_brackets,
    lift_certificate,
    planar_segments,
    rolled_up,
    verify_certificate,
)
from .graphs import Multigraph, cone
from .pages import ORDER_SEARCH_LIMIT, outerplanar_cr
from .parallel import Deadline
from .solver import cr_certificates, cr_exact, cr_lower

# Orderings of crossings that share a slot, tried per apex face before the
# face is given up; their number grows factorially with the slot sizes.
SLOT_ORDERINGS_CAP = 5000
# Cheapest apex faces assembled per drawing before the drawing is given up.
APEX_FACES_CAP = 8


class ApexRoutingError(RuntimeError):
    """The apex found no route into this particular drawing of G.

    This is a property of the drawing, not a fault: ``cone_cr`` skips the
    drawing and tries the next one.
    """


def lift_to_cone(g: Multigraph, cert: CrossingCertificate) -> CrossingCertificate:
    """Re-express a certificate of G in the instance ids of cone(G)."""
    return lift_certificate(cone(g), [(g, range(g.n), cert)])


def _embedding_faces(
    segments: list[tuple[int, int, int, int]], n_nodes: int
) -> tuple[list[list[int]], dict[tuple[int, int], int]]:
    """Faces of the planarized drawing, via one midpoint per segment.

    Subdividing every segment keeps the embedding but makes the graph
    simple, so parallel segments get their faces too.  Returns the face
    vertex lists and the face id of each directed half-edge.
    """
    G = nx.Graph()
    G.add_nodes_from(range(n_nodes))
    for i, (a, b, _, _) in enumerate(segments):
        mid = n_nodes + i
        G.add_edge(a, mid)
        G.add_edge(mid, b)
    planar, emb = nx.check_planarity(G)
    if not planar:
        raise ValueError("certificate does not planarize; cannot place the apex")
    faces: list[list[int]] = []
    half_face: dict[tuple[int, int], int] = {}
    seen: set[tuple[int, int]] = set()
    for u, v in sorted(emb.edges()):
        if (u, v) in seen:
            continue
        nodes = emb.traverse_face(u, v, mark_half_edges=seen)
        fid = len(faces)
        faces.append(nodes)
        cycle = nodes + [nodes[0]]
        for a, b in zip(cycle, cycle[1:]):
            half_face[(a, b)] = fid
    if not faces:
        # Without edges the whole plane is one face holding every vertex.
        faces.append(list(range(n_nodes)))
    return faces, half_face


def insert_apex(g: Multigraph, cert: CrossingCertificate) -> CrossingCertificate:
    """Certificate for cone(G) built on top of a certificate for G.

    G must be connected.  The apex face is chosen to minimize the total
    crossings of the apex edges; along the way each apex edge avoids
    edges at its own endpoint and never crosses one host twice.  The
    returned certificate has been verified against cone(G).  Raises
    ``ApexRoutingError`` when no apex face admits such routes, or none of
    the routes through the ``APEX_FACES_CAP`` cheapest faces assembles
    into a realizable certificate.
    """
    if len(g.components()) != 1:
        raise ValueError("apex insertion needs a connected base graph")
    count, ok = verify_certificate(g, cert)
    if not ok:
        raise ValueError("base certificate does not verify")
    segments = planar_segments(g, cert)
    n_nodes = g.n + cert.count
    faces, half_face = _embedding_faces(segments, n_nodes)

    # Dual steps: crossing segment i moves between the two faces of either
    # of its halves.  Both halves of one midpoint always border the same
    # two faces, so one entry per segment suffices.
    seg_faces: list[tuple[int, int]] = []
    face_segments: list[list[int]] = [[] for _ in faces]
    for i, (a, b, _, _) in enumerate(segments):
        mid = n_nodes + i
        f1 = half_face[(a, mid)]
        f2 = half_face[(mid, a)]
        seg_faces.append((f1, f2))
        face_segments[f1].append(i)
        if f2 != f1:
            face_segments[f2].append(i)

    face_vertices: list[set[int]] = [set(f) for f in faces]
    insts = g.instances()

    def paths_from(apex_face: int) -> list[list[int]] | None:
        """Per-vertex shortest crossing sequences (segment indices)."""
        out: list[list[int]] = []
        for v in range(g.n):
            blocked = {
                eid for eid, (a, b, _) in enumerate(insts) if v in (a, b)
            }
            if v in face_vertices[apex_face]:
                out.append([])
                continue
            prev: dict[int, tuple[int, int]] = {}
            dist = {apex_face: 0}
            queue = deque([apex_face])
            goal = None
            while queue:
                fid = queue.popleft()
                if v in face_vertices[fid]:
                    goal = fid
                    break
                for i in face_segments[fid]:
                    if segments[i][2] in blocked:
                        continue
                    fa, fb = seg_faces[i]
                    nxt = fb if fa == fid else fa
                    if nxt not in dist:
                        dist[nxt] = dist[fid] + 1
                        prev[nxt] = (fid, i)
                        queue.append(nxt)
            if goal is None:
                return None
            path: list[int] = []
            cur = goal
            while cur != apex_face:
                cur, seg = prev[cur]
                path.append(seg)
            path.reverse()
            hosts = [segments[i][2] for i in path]
            if len(set(hosts)) != len(hosts):
                return None
            out.append(path)
        return out

    ranked = []
    for fid in range(len(faces)):
        found = paths_from(fid)
        if found is not None:
            ranked.append((sum(len(p) for p in found), fid, found))
    if not ranked:
        raise ApexRoutingError("no admissible apex face")
    ranked.sort(key=lambda t: (t[0], t[1]))

    cg = cone(g)
    index = cg.instance_index()
    lift = [index[inst] for inst in insts]
    apex_edge = [index[(v, g.n, 0)] for v in range(g.n)]

    tried = ranked[:APEX_FACES_CAP]
    capped = 0
    for _, _, found in tried:
        cert_try, hit_cap = _assemble_cone_cert(cg, cert, segments, found, lift, apex_edge)
        if cert_try is not None:
            return cert_try
        capped += hit_cap
    raise ApexRoutingError(
        "apex routing produced no realizable certificate from the "
        f"{len(tried)} cheapest apex faces (cap {APEX_FACES_CAP}); "
        f"{capped} of them stopped at the cap of {SLOT_ORDERINGS_CAP} slot orderings"
    )


def _assemble_cone_cert(
    cg: Multigraph,
    cert: CrossingCertificate,
    segments: list[tuple[int, int, int, int]],
    paths: list[list[int]],
    lift: list[int],
    apex_edge: list[int],
) -> tuple[CrossingCertificate | None, bool]:
    """Combine base crossings with routed apex crossings and verify.

    Crossings landing in the same slot of the same host have no forced
    relative order, so their orderings are tried until one verifies, at
    most ``SLOT_ORDERINGS_CAP`` of them.  Returns the certificate (None
    if no ordering verified) and whether the cap cut the search short.
    """
    cg_pairs: list[tuple[int, int]] = [
        (lift[e], lift[f]) for e, f in cert.crossings
    ]
    # (host, slot) -> crossing indices landing there
    slot_groups: dict[tuple[int, int], list[int]] = {}
    apex_orders: dict[int, list[int]] = {}
    for v, path in enumerate(paths):
        step_indices = []
        for seg_i in path:
            _, _, host, slot = segments[seg_i]
            idx = len(cg_pairs)
            cg_pairs.append((apex_edge[v], lift[host]))
            slot_groups.setdefault((host, slot), []).append(idx)
            step_indices.append(idx)
        if len(step_indices) >= 2:
            # Traversal starts at v, the smaller endpoint; the path walks
            # apex -> v, so reverse it.
            apex_orders[apex_edge[v]] = list(reversed(step_indices))

    base_seqs = cert.sequences()

    ambiguous = [grp for grp in slot_groups.values() if len(grp) > 1]
    choice_sets = [list(permutations(grp)) for grp in ambiguous]

    for attempt, combo in enumerate(product(*choice_sets)):
        if attempt >= SLOT_ORDERINGS_CAP:
            return None, True
        resolved: dict[tuple[int, int], list[int]] = {}
        combo_iter = iter(combo)
        for key, grp in slot_groups.items():
            resolved[key] = list(next(combo_iter)) if len(grp) > 1 else grp

        host_orders: dict[int, list[int]] = {}
        for eid in range(len(lift)):
            base_seq = base_seqs.get(eid, [])
            seq: list[int] = []
            for slot in range(len(base_seq) + 1):
                seq.extend(resolved.get((eid, slot), []))
                if slot < len(base_seq):
                    seq.append(base_seq[slot])
            if len(seq) >= 2:
                host_orders[lift[eid]] = seq
        orders = dict(apex_orders)
        orders.update(host_orders)
        cand = CrossingCertificate.build(cg_pairs, orders)
        _, ok = verify_certificate(cg, cand)
        if ok:
            return cand, False
    return None, False


def _cone_cr_split(
    g: Multigraph,
    max_k: int | None,
    deadline: Deadline,
    threads: int,
    started: float,
) -> SolveResult:
    """Sum per-component cone solutions for a disconnected base graph.

    cr(cone(G)) splits exactly over the components of G: gluing the
    component cones at the shared apex, each shrunk into a face corner of
    the previous one, realizes the sum of their crossing numbers, and any
    drawing of cone(G) restricts to edge-disjoint drawings of all the
    component cones, so the sum is a lower bound too.
    """
    parts = []
    for sub, vertices in g.component_subgraphs():
        res = cone_cr(
            sub, max_k=max_k, budget_ms=deadline.remaining_ms(), threads=threads
        )
        parts.append((cone(sub), vertices + [g.n], res))
    return combine_brackets(cone(g), parts, started)


def cone_cr(
    g: Multigraph,
    max_k: int | None = None,
    budget_ms: int | None = None,
    threads: int = 1,
) -> SolveResult:
    """cr(cone(G)) with upper bound seeded from drawings of G.

    A disconnected base splits: the cone's crossing number is the sum
    over component cones, solved independently.  For a connected base the
    first seed is the best 1-page drawing of G (its apex joins from the
    outer face for free).  If that does not meet the cone's own lower
    bound and cr(G) is solvable in budget, the optimal drawings of G are
    streamed from the level search, the first being the one cr_exact just
    returned.  Different optimal drawings expose very different face
    structures to the apex, so the apex is inserted into each drawing as
    it is found, until a seed meets the cone's lower bound, the level is
    exhausted, or the budget runs out.  The best seed caps the deepening.
    """
    started = time.monotonic()
    deadline = Deadline(budget_ms)
    if len(g.components()) > 1:
        return _cone_cr_split(g, max_k, deadline, threads, started)

    cg = cone(g)
    floor = cr_lower(cg)
    best: tuple[int, CrossingCertificate] | None = None
    inner = None

    if g.n <= ORDER_SEARCH_LIMIT:
        ocr = outerplanar_cr(g, budget_ms=deadline.remaining_ms(), threads=threads)
        if ocr.certificate is not None:
            lifted = lift_to_cone(g, ocr.certificate)
            count, ok = verify_certificate(cg, lifted)
            if ok:
                best = (count, lifted)

    def seed_from(drawing: CrossingCertificate) -> bool:
        """Insert the apex into one optimal drawing of G; True stops the stream."""
        nonlocal best
        try:
            coned = insert_apex(g, drawing)
        except ApexRoutingError:
            return deadline.expired()
        if best is None or coned.count < best[0]:
            best = (coned.count, coned)
        return deadline.expired() or best[0] <= floor

    if best is None or best[0] > floor:
        inner = cr_exact(
            g, max_k=max_k, budget_ms=deadline.remaining_ms(), threads=threads
        )
        if inner.status == "exact":
            cr_certificates(
                g,
                inner.value,
                limit=None,
                budget_ms=deadline.remaining_ms(),
                until=seed_from,
            )

    res = cr_exact(
        cg,
        max_k=max_k,
        budget_ms=deadline.remaining_ms(),
        threads=threads,
        upper_seed=best,
    )
    # The solve of G that fed the seeds is part of this answer's work.
    solves = [res.stats] if inner is None else [inner.stats, res.stats]
    return replace(res, stats=rolled_up(solves, started))
