"""Apex insertion and cone crossing numbers."""

import random
from collections import Counter, deque

import networkx as nx
import pytest

import conecross.apex
import conecross.solver
from conecross import (
    ApexRoutingError,
    BookDrawing,
    CrossingCertificate,
    CyclicOrder,
    Multigraph,
    certificate_from_book,
    complete_graph,
    cone,
    cone_cr,
    cr_certificates,
    cr_exact,
    cycle_graph,
    disjoint_union,
    f_graph,
    fig1_graph,
    fig3_graph,
    insert_apex,
    lift_to_cone,
    one_page_drawing,
    random_graph,
    verify_certificate,
)
from conecross.apex import _embedding_faces
from conecross.certificates import planar_segments
from conecross.planarity import lr_embedding
from oracle import assert_drawing, brute_force_cr


def test_lift_of_a_book_certificate_verifies_in_the_cone():
    """Every vertex of a 1-page drawing borders the outer face, so the
    apex joins with no new crossings and the lifted certificate stands."""
    g = complete_graph(4)
    cert = certificate_from_book(one_page_drawing(g))
    lifted = lift_to_cone(g, cert)
    assert lifted.count == 1
    count, ok = verify_certificate(cone(g), lifted)
    assert ok and count == 1


def test_lift_alone_does_not_pay_for_the_apex():
    # a non-book drawing of K5 leaves the apex edges of K6 unpaid, so the
    # lifted certificate is structurally fine but unrealizable
    g = complete_graph(5)
    lifted = lift_to_cone(g, CrossingCertificate.build([(1, 5)]))
    count, ok = verify_certificate(cone(g), lifted)
    assert not ok


def test_insert_apex_on_k5():
    """cone(K5) = K6, so a one-crossing drawing must admit two more."""
    g = complete_graph(5)
    cert = CrossingCertificate.build([(1, 5)])
    cone_cert = insert_apex(g, cert)
    count, ok = verify_certificate(cone(g), cone_cert)
    assert ok and count == 3


def test_insert_apex_on_a_planar_base():
    g = cycle_graph(5)
    cert = CrossingCertificate.build([])
    cone_cert = insert_apex(g, cert)
    assert verify_certificate(cone(g), cone_cert) == (0, True)


def test_insert_apex_on_a_single_vertex():
    # No edges, so one face holds the lone vertex; the cone is K2.
    cert = insert_apex(Multigraph(1, ()), CrossingCertificate.build([]))
    assert_drawing(cone(Multigraph(1, ())), cert, 0)


def test_insert_apex_demands_connectivity():
    g = disjoint_union(cycle_graph(3), cycle_graph(3))
    with pytest.raises(ValueError):
        insert_apex(g, CrossingCertificate.build([]))


def test_insert_apex_demands_a_valid_base_certificate():
    # K5 with no crossings is well formed but not a drawing.
    with pytest.raises(ValueError, match="not planar"):
        insert_apex(complete_graph(5), CrossingCertificate.build([]))


def test_insert_apex_rejects_a_malformed_certificate_before_embedding(monkeypatch):
    def no_embedding(*args):
        raise AssertionError("embedding built for a malformed certificate")

    monkeypatch.setattr(conecross.apex, "_embedding_faces", no_embedding)
    # Instances 0 = (0, 1) and 1 = (0, 2) share vertex 0.
    with pytest.raises(ValueError, match="adjacent edge instances"):
        insert_apex(complete_graph(5), CrossingCertificate.build([(0, 1)]))


def test_cone_of_planar_graphs():
    assert cone_cr(cycle_graph(4)).value == 0
    assert cone_cr(Multigraph(4, ())).value == 0
    # K4 has a planar drawing but no outerplanar one, so its cone crosses
    assert cone_cr(complete_graph(4)).value == 1


def test_cone_of_k5_is_k6():
    res = cone_cr(complete_graph(5))
    assert res.value == 3
    assert res.value == cr_exact(complete_graph(6)).value


def test_cone_cr_matches_the_brute_force_oracle_on_the_atlas():
    # Cones of every graph on 1-5 vertices, atlas indices 1-52: cone(K5) is
    # K6.  Each closes exact, by the Euler floor, a component sum or a
    # search, at the oracle's crossing number.
    reasons = Counter()
    for index, a in enumerate(nx.graph_atlas_g()[1:53], start=1):
        g = Multigraph.build(a.number_of_nodes(), list(a.edges()))
        res = cone_cr(g)
        assert res.status == "exact", index
        assert brute_force_cr(cone(g), res.upper) == res.upper, index
        reasons[res.lower_reason] += 1
    assert set(reasons) == {"euler", "component sum", "search"}, reasons


# Multigraphs whose cones have Euler floor 1 and a best seed of 2 that
# is not optimal, from a seeded census of connected 4-6-vertex graphs
# with each pair doubled with probability 0.4.
_SEEDS_ONE_ABOVE_THE_FLOOR = [
    [(0, 3, 1), (0, 5, 1), (1, 2, 1), (1, 3, 1), (1, 4, 1), (1, 5, 1), (2, 3, 1), (2, 4, 2),
     (3, 5, 1), (4, 5, 2)],
    [(0, 2, 1), (0, 3, 1), (0, 4, 1), (0, 5, 1), (1, 2, 2), (1, 3, 2), (1, 5, 1), (2, 3, 1),
     (3, 5, 2), (4, 5, 2)],
    [(0, 1, 1), (0, 2, 2), (0, 3, 1), (0, 4, 2), (0, 5, 1), (1, 5, 2), (2, 3, 1), (3, 4, 1),
     (3, 5, 1), (4, 5, 1)],
    [(0, 1, 2), (0, 2, 1), (0, 3, 2), (0, 4, 1), (1, 3, 2), (1, 4, 1), (1, 5, 1), (2, 4, 2),
     (3, 5, 1), (4, 5, 1)],
    [(0, 1, 2), (0, 2, 1), (0, 3, 2), (0, 4, 2), (1, 4, 2), (2, 3, 1), (2, 4, 1), (3, 4, 2)],
    [(0, 1, 2), (0, 3, 1), (0, 4, 1), (0, 5, 2), (1, 4, 2), (2, 3, 2), (2, 4, 1), (3, 4, 2),
     (3, 5, 1), (4, 5, 2)],
    [(0, 1, 2), (0, 2, 2), (0, 3, 1), (0, 4, 2), (1, 2, 1), (2, 3, 2), (2, 4, 2), (3, 4, 2)],
    [(0, 1, 2), (0, 2, 2), (0, 3, 1), (0, 4, 2), (1, 3, 1), (1, 4, 2), (2, 3, 1), (3, 4, 2)],
]


def test_cone_closes_below_a_best_seed_one_above_the_floor(monkeypatch):
    # The cone of each multigraph has Euler floor 1, but its best seed
    # has 2 crossings and is not optimal: the component solve, started
    # from that seed, finds a 1-crossing drawing.  A cone_cr that took a
    # seed one above the floor as exact would return 2.
    pinned = [(0, 2, 2), (0, 3, 2), (0, 4, 1), (1, 2, 2), (1, 3, 2), (2, 3, 1), (2, 4, 2), (3, 4, 1)]
    seeds = []
    real = conecross.apex.solve_component

    def recorded(cg, max_k, deadline, seed=None, until=None):
        seeds.append(seed.count)
        return real(cg, max_k, deadline, seed, until)

    monkeypatch.setattr(conecross.apex, "solve_component", recorded)
    certificates = []
    for index, edges in enumerate([pinned] + _SEEDS_ONE_ABOVE_THE_FLOOR):
        g = Multigraph.build(1 + max(v for _, v, _ in edges), edges)
        seeds.clear()
        res = cone_cr(g)
        assert seeds == [2], index
        assert (res.lower, res.upper, res.status, res.lower_reason) == (1, 1, "exact", "euler"), index
        assert brute_force_cr(cone(g), 1) == 1, index
        assert_drawing(cone(g), res.certificate, 1)
        certificates.append(res.certificate)
    assert certificates[0] == CrossingCertificate.build([(5, 15)])


def test_cone_of_the_wheel_with_chords():
    res = cone_cr(fig3_graph())
    assert res.status == "exact" and res.value == 5
    count, ok = verify_certificate(cone(fig3_graph()), res.certificate)
    assert ok and count == 5


@pytest.mark.parametrize(
    "g",
    [
        # The one optimal drawing of G that lets the apex meet the cone's
        # floor of 6 is the 82nd and the 73rd the level search yields.
        fig1_graph().relabel([5, 6, 7, 4, 3, 0, 8, 1, 2]),
        f_graph(3).relabel([1, 2, 6, 7, 8, 5, 0, 4, 3]),
    ],
    ids=["triangle-hexagon", "F3"],
)
def test_cone_streams_drawings_past_the_first_64(g):
    res = cone_cr(g, budget_ms=10_000)
    assert res.status == "exact" and res.value == 6
    assert_drawing(cone(g), res.certificate, res.value)


def test_cone_stops_the_stream_at_the_floor(monkeypatch):
    # The drawing cr_exact returns for K5 already gives cone(K5) = K6 its
    # floor of 3, so the apex goes into that one drawing and the level
    # search goes no further than that solve's own first hit.
    calls = []
    solved = []
    real_insert = conecross.apex.insert_apex
    real_solve = conecross.apex.cr_exact

    def counted_insert(g, cert, *, below=None):
        calls.append(cert)
        return real_insert(g, cert, below=below)

    def counted_solve(*args, **kwargs):
        res = real_solve(*args, **kwargs)
        solved.append(res)
        return res

    monkeypatch.setattr(conecross.apex, "insert_apex", counted_insert)
    monkeypatch.setattr(conecross.apex, "cr_exact", counted_solve)
    res = cone_cr(complete_graph(5))
    assert res.status == "exact" and res.value == 3
    assert res.lower_reason == "euler"
    assert [r.certificate for r in solved] == calls
    assert len(calls) == 1
    alone = real_solve(complete_graph(5)).stats
    assert (res.stats.nodes, res.stats.planarity_calls) == (
        alone.nodes, alone.planarity_calls)


def test_cone_tries_each_drawing_once(monkeypatch):
    # Wheel-with-chords: cr_exact's drawing does not reach the cone's floor
    # of 5, so its level search runs on to the next drawings.
    calls = []
    real_insert = conecross.apex.insert_apex

    def counted_insert(g, cert, *, below=None):
        calls.append(cert)
        return real_insert(g, cert, below=below)

    monkeypatch.setattr(conecross.apex, "insert_apex", counted_insert)
    res = cone_cr(fig3_graph())
    assert len(calls) > 1
    assert len(set(calls)) == len(calls)
    assert res.status == "exact" and res.value == 5
    assert res.lower_reason == "euler"
    assert res.stats.nodes > 0
    assert_drawing(cone(fig3_graph()), res.certificate, 5)


def test_cone_streams_a_prefix_of_the_optimal_drawings(monkeypatch):
    # The apex goes into the drawings of level cr(G) = 2 in the order one
    # search of that level finds them, the first being cr_exact's own.
    g = fig3_graph()
    calls = []
    real_insert = conecross.apex.insert_apex

    def counted_insert(h, cert, *, below=None):
        calls.append(cert)
        return real_insert(h, cert, below=below)

    monkeypatch.setattr(conecross.apex, "insert_apex", counted_insert)
    cone_cr(g)
    level = cr_certificates(g, 2)
    assert 1 < len(calls) < len(level)
    assert calls == level[: len(calls)]
    assert calls[0] == cr_exact(g).certificate


@pytest.mark.parametrize(
    "g", [fig3_graph(), fig1_graph()], ids=["wheel-with-chords", "triangle-hexagon"]
)
def test_cone_stats_count_every_planarity_test_of_the_search(monkeypatch, g):
    # The stream that feeds the apex runs inside cr_exact's own search, so
    # the rolled-up stats miss none of the solver's planarity tests.
    tests = []
    real = conecross.solver.lr_planar

    def counted(n, pairs):
        tests.append(n)
        return real(n, pairs)

    monkeypatch.setattr(conecross.solver, "lr_planar", counted)
    res = cone_cr(g)
    assert res.status == "exact"
    assert res.stats.planarity_calls == len(tests)


def test_cone_of_a_disconnected_graph():
    g = disjoint_union(complete_graph(5), complete_graph(5))
    res = cone_cr(g)
    assert res.status == "exact" and res.value == 6
    count, ok = verify_certificate(cone(g), res.certificate)
    assert ok and count == 6


def test_cone_of_interleaved_components_and_an_isolated_vertex():
    # Two K5s on interleaved labels (one relabelled) and an isolated vertex:
    # the split, the per-component lift and the merge into cone(G) all run.
    k5 = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    perm = [3, 0, 4, 1, 2]
    pairs = [(2 * u, 2 * v) for u, v in k5]
    pairs += [(2 * perm[u] + 1, 2 * perm[v] + 1) for u, v in k5]
    g = Multigraph.build(11, pairs)
    res = cone_cr(g)
    assert res.status == "exact" and res.value == 3 + 3 + 0
    assert_drawing(cone(g), res.certificate, res.value)
    assert res.stats.nodes > 0


def test_cone_budget_gives_a_bracket():
    res = cone_cr(fig3_graph(), budget_ms=0)
    assert res.lower <= res.upper
    if res.status == "exact":
        assert res.value == 5


def test_cone_skips_a_drawing_the_apex_cannot_enter(monkeypatch):
    # cone(K5) = K6: the 1-page seed (5) is above the cone's floor (3), so
    # cone_cr tries apex insertion into optimal drawings of K5.
    def no_route(g, cert, *, below=None):
        raise ApexRoutingError("no admissible apex face")

    monkeypatch.setattr(conecross.apex, "insert_apex", no_route)
    res = cone_cr(complete_graph(5))
    assert res.status == "exact" and res.value == 3


def test_cone_does_not_hide_internal_faults_of_apex_insertion(monkeypatch):
    def broken(g, cert, *, below=None):
        raise RuntimeError("inconsistent embedding")

    monkeypatch.setattr(conecross.apex, "insert_apex", broken)
    with pytest.raises(RuntimeError, match="inconsistent embedding"):
        cone_cr(complete_graph(5))


@pytest.mark.parametrize(
    "bad",
    [
        # At the cone's floor of 3, cone_cr would return the seed.
        CrossingCertificate.build([]),
        # Above it, the seed would cap the closing solve.
        CrossingCertificate.build([(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]),
    ],
    ids=["at-floor", "above-floor"],
)
def test_cone_raises_on_a_one_page_seed_that_does_not_verify(monkeypatch, bad):
    # cone_cr checks the lifted seed once, before the floor test; a seed
    # that fails is an internal fault on either side of the floor.
    def no_route(g, cert, *, below=None):
        raise ApexRoutingError("no admissible apex face")

    monkeypatch.setattr(conecross.apex, "lift_to_cone", lambda g, cert: bad)
    monkeypatch.setattr(conecross.apex, "insert_apex", no_route)
    with pytest.raises(RuntimeError, match="does not verify"):
        cone_cr(complete_graph(5))


@pytest.mark.parametrize(
    "g, k, histogram",
    [
        (fig1_graph(), 3, {6: 1, 7: 9, 8: 24, 9: 35, 10: 39}),
        (fig3_graph(), 2, {5: 2, 6: 6, 7: 10}),
    ],
    ids=["triangle-hexagon", "wheel-with-chords"],
)
def test_insert_apex_into_every_optimal_drawing(monkeypatch, g, k, histogram):
    # All 108 and 18 optimal drawings take the apex through their cheapest
    # face, the one face assembled, and each cone drawing stands up to both
    # planarity oracles.
    assembled = []
    real_assemble = conecross.apex._assemble_cone_cert

    def counted_assemble(*args):
        assembled.append(args)
        return real_assemble(*args)

    monkeypatch.setattr(conecross.apex, "_assemble_cone_cert", counted_assemble)
    counts = Counter()
    for inserted, drawing in enumerate(cr_certificates(g, k), start=1):
        coned = insert_apex(g, drawing)
        assert len(assembled) == inserted
        assert_drawing(cone(g), coned, coned.count)
        counts[coned.count] += 1
    assert counts == histogram


_K5_DOUBLED = Multigraph.build(5, [(u, v) for u in range(5) for v in range(u + 1, 5)] + [(0, 1)])


def test_insert_apex_into_drawings_with_parallel_segments():
    # K5 with edge (0, 1) doubled has cr 1, and in each of its 12 optimal
    # drawings the two copies run side by side between the same ends: the
    # midpoints give those parallel segments the face between them.
    g = _K5_DOUBLED
    drawings = cr_certificates(g, 1)
    assert len(drawings) == 12
    for drawing in drawings:
        ends = Counter(tuple(sorted(seg[:2])) for seg in planar_segments(g, drawing))
        assert max(ends.values()) == 2
        coned = insert_apex(g, drawing)
        assert_drawing(cone(g), coned, 3)


def _full_scan_insertion(g, cert):
    """Apex insertion by a full scan: a forward breadth-first search from
    every face to every vertex, the cheapest face whose routes cross no
    host twice kept (ties to the lowest face id), its routes assembled;
    None when no face is kept or its routes do not assemble."""
    segments = planar_segments(g, cert)
    walks, seg_faces = _embedding_faces(segments, g.n + cert.count)
    face_segments = [[] for _ in walks]
    for i, (f1, f2) in enumerate(seg_faces):
        face_segments[f1].append(i)
        if f2 != f1:
            face_segments[f2].append(i)
    insts = g.instances()

    def route(apex_face, v):
        prev = {apex_face: None}
        queue = deque([apex_face])
        while queue:
            fid = queue.popleft()
            if v in walks[fid]:
                path = []
                while prev[fid] is not None:
                    back, seg = prev[fid]
                    path.append((seg, fid))
                    fid = back
                return path[::-1]
            for i in face_segments[fid]:
                if v not in insts[segments[i][2]][:2]:
                    fa, fb = seg_faces[i]
                    nxt = fb if fa == fid else fa
                    if nxt not in prev:
                        prev[nxt] = (fid, i)
                        queue.append(nxt)
        return None

    admissible = []
    for fid in range(len(walks)):
        routes = [route(fid, v) for v in range(g.n)]
        if all(r is not None and len({segments[i][2] for i, _ in r}) == len(r)
               for r in routes):
            admissible.append((sum(map(len, routes)), fid, routes))
    if not admissible:
        return None
    _, _, routes = min(admissible, key=lambda t: t[:2])
    cg = cone(g)
    index = cg.instance_index()
    return conecross.apex._assemble_cone_cert(
        cg, cert, segments, walks, seg_faces, routes,
        [index[inst] for inst in insts], [index[(v, g.n, 0)] for v in range(g.n)],
    )


_OPTIMAL_DRAWINGS = pytest.mark.parametrize(
    "g, k, drawings",
    [(fig1_graph(), 3, 108), (fig3_graph(), 2, 18), (_K5_DOUBLED, 1, 12)],
    ids=["triangle-hexagon", "wheel-with-chords", "doubled-edge-K5"],
)


@_OPTIMAL_DRAWINGS
def test_ranked_faces_pick_what_a_full_scan_picks(g, k, drawings):
    # Ranking faces by one dual search per vertex and routing only the face
    # tried gives the face, routes and certificate of scanning every face.
    level = cr_certificates(g, k)
    assert len(level) == drawings
    for drawing in level:
        scanned = _full_scan_insertion(g, drawing)
        assert scanned is not None
        assert insert_apex(g, drawing) == scanned


def test_routes_through_book_drawings_are_the_full_scans_routes():
    # Book drawings of random multigraphs are far from optimal, so their
    # apex routes are longer than in optimal drawings and pass hosts at
    # their own vertex: each step must keep off those hosts and take the
    # first segment that leads one face nearer, as the full scan's
    # forward search does.  Drawings alternate between 1 and 2 pages.
    rng = random.Random(38)
    tried = routed = 0
    while tried < 300:
        n = rng.randint(5, 8)
        simple = random_graph(n, rng.randint(n - 1, 2 * n + 2), rng.randrange(10**6))
        g = Multigraph.build(n, [(u, v) for u, v, _ in simple.edges for _ in
                                 range(1 + (rng.random() < 0.3))])
        if len(g.components()) != 1:
            continue
        tried += 1
        spine = list(range(n))
        rng.shuffle(spine)
        pages = [rng.randrange(tried % 2 + 1) for _ in range(g.m)]
        drawing = certificate_from_book(BookDrawing(g, CyclicOrder(tuple(spine)), tuple(pages)))
        try:
            coned = insert_apex(g, drawing)
        except ApexRoutingError:
            coned = None
        assert coned == _full_scan_insertion(g, drawing), tried
        if coned is not None and coned.count - drawing.count >= 3:
            routed += 1
    assert routed > 80, routed


@_OPTIMAL_DRAWINGS
def test_below_skips_exactly_the_drawings_that_cannot_beat_it(monkeypatch, g, k, drawings):
    # A drawing whose cheapest insertion has at least `below` crossings
    # comes back as None, unassembled; any other comes back as without
    # `below`.
    plain = [(d, insert_apex(g, d)) for d in cr_certificates(g, k)]
    assembled = []
    real_assemble = conecross.apex._assemble_cone_cert

    def counted_assemble(*args):
        assembled.append(args)
        return real_assemble(*args)

    monkeypatch.setattr(conecross.apex, "_assemble_cone_cert", counted_assemble)
    kept = 0
    for drawing, coned in plain:
        for below in range(coned.count - 1, coned.count + 2):
            got = insert_apex(g, drawing, below=below)
            if coned.count >= below:
                assert got is None
            else:
                assert got == coned
                kept += 1
    assert len(assembled) == kept == drawings


class _NoNetworkx:
    def __getattr__(self, name):
        raise AssertionError(f"apex insertion used networkx ({name})")


def test_cone_needs_no_networkx(monkeypatch):
    # apex.nx stays only as the benchmark tracer's patch point.
    monkeypatch.setattr(conecross.apex, "nx", _NoNetworkx())
    res = cone_cr(fig3_graph())
    assert res.status == "exact" and res.value == 5
    assert_drawing(cone(fig3_graph()), res.certificate, 5)


def test_embedding_faces_check_euler(monkeypatch):
    # A rotation system that is not a plane embedding has too few faces;
    # that is an internal fault, not a drawing to skip.
    def flipped(n, edges):
        rotation = lr_embedding(n, edges)
        rotation[0] = rotation[0][::-1]
        return rotation

    monkeypatch.setattr(conecross.apex, "lr_embedding", flipped)
    with pytest.raises(RuntimeError, match="Euler"):
        insert_apex(complete_graph(5), CrossingCertificate.build([(1, 5)]))


def test_cheapest_face_that_does_not_assemble_gives_up_the_drawing(monkeypatch):
    # No second face is tried: the drawing is given up, and cone_cr falls
    # back on its other seeds and the closing solve.
    assembled = []

    def unrealizable(*args):
        assembled.append(args)
        return None

    monkeypatch.setattr(conecross.apex, "_assemble_cone_cert", unrealizable)
    with pytest.raises(ApexRoutingError, match="cheapest apex face"):
        insert_apex(complete_graph(5), CrossingCertificate.build([(1, 5)]))
    assert len(assembled) == 1
    res = cone_cr(complete_graph(5))
    assert res.status == "exact" and res.value == 3
    assert_drawing(cone(complete_graph(5)), res.certificate, 3)


def _one_page(g, order):
    return certificate_from_book(BookDrawing(g, CyclicOrder(order), (0,) * g.m))


def test_a_drawing_with_no_admissible_apex_face_is_given_up():
    # A tree on one page in this spine order: each of the five faces that
    # reach every vertex routes some apex edge across one host twice.
    g = Multigraph(7, ((0, 3, 1), (1, 4, 1), (2, 3, 1), (2, 4, 1), (3, 6, 1), (5, 6, 1)))
    drawing = _one_page(g, (3, 2, 0, 6, 4, 5, 1))
    assert drawing.count == 4
    with pytest.raises(ApexRoutingError, match="no admissible apex face"):
        insert_apex(g, drawing)


def test_a_segment_entered_from_both_sides_gives_up_the_drawing(monkeypatch):
    # The cheapest face's routes enter one segment from both of its faces,
    # which the crossing order along a segment does not cover: the face is
    # given up before anything is verified.
    g = Multigraph(10, ((0, 3, 3), (0, 8, 1), (1, 3, 1), (1, 8, 3), (2, 5, 1), (2, 7, 2),
                        (2, 9, 1), (3, 6, 1), (3, 8, 2), (4, 5, 1), (4, 9, 1), (5, 6, 1),
                        (5, 8, 1)))
    drawing = _one_page(g, (7, 4, 5, 3, 9, 1, 0, 6, 8, 2))
    assert verify_certificate(g, drawing) == (38, True)
    verified = []
    real_verify = conecross.apex.verify_certificate

    def counted(*args):
        verified.append(args)
        return real_verify(*args)

    monkeypatch.setattr(conecross.apex, "verify_certificate", counted)
    with pytest.raises(ApexRoutingError, match="cheapest apex face"):
        insert_apex(g, drawing)
    assert verified == []
    monkeypatch.undo()
    res = cone_cr(g)
    assert (res.status, res.value) == ("exact", 1)
    assert_drawing(cone(g), res.certificate, 1)


def test_cone_past_the_order_search_limit_lifts_the_natural_drawing():
    # K12 has 12 vertices, past the order search's 11: the natural 1-page
    # drawing has C(12, 4) = 495 crossings and lifts to the cone for free,
    # where the closing solve's own fallback, cone(K12) = K13 drawn
    # naturally, has C(13, 4) = 715.
    g = complete_graph(12)
    res = cone_cr(g, budget_ms=300)
    assert (res.lower, res.upper, res.status) == (45, 495, "bounds-only")
    assert_drawing(cone(g), res.certificate, 495)
