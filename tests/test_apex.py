"""Apex insertion and cone crossing numbers."""

from collections import Counter

import pytest

import conecross.apex
import conecross.solver
from conecross import (
    ApexRoutingError,
    CrossingCertificate,
    Multigraph,
    certificate_from_book,
    complete_graph,
    cone,
    cone_cr,
    cr_certificates,
    cr_exact,
    cycle_graph,
    disjoint_union,
    empty_graph,
    f_graph,
    fig1_graph,
    fig3_graph,
    insert_apex,
    lift_to_cone,
    one_page_drawing,
    verify_certificate,
)
from oracle import assert_drawing


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
    cert = insert_apex(empty_graph(1), CrossingCertificate.build([]))
    assert_drawing(cone(empty_graph(1)), cert, 0)


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
    assert cone_cr(empty_graph(4)).value == 0
    # K4 has a planar drawing but no outerplanar one, so its cone crosses
    assert cone_cr(complete_graph(4)).value == 1


def test_cone_of_k5_is_k6():
    res = cone_cr(complete_graph(5))
    assert res.value == 3
    assert res.value == cr_exact(complete_graph(6)).value


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

    def counted_insert(g, cert):
        calls.append(cert)
        return real_insert(g, cert)

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

    def counted_insert(g, cert):
        calls.append(cert)
        return real_insert(g, cert)

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

    def counted_insert(h, cert):
        calls.append(cert)
        return real_insert(h, cert)

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
    def no_route(g, cert):
        raise ApexRoutingError("no admissible apex face")

    monkeypatch.setattr(conecross.apex, "insert_apex", no_route)
    res = cone_cr(complete_graph(5))
    assert res.status == "exact" and res.value == 3


def test_cone_does_not_hide_internal_faults_of_apex_insertion(monkeypatch):
    def broken(g, cert):
        raise RuntimeError("inconsistent embedding")

    monkeypatch.setattr(conecross.apex, "insert_apex", broken)
    with pytest.raises(RuntimeError, match="inconsistent embedding"):
        cone_cr(complete_graph(5))


@pytest.mark.parametrize(
    "bad, error",
    [
        # At the cone's floor of 3, cone_cr returns the seed and checks it.
        (CrossingCertificate.build([]), RuntimeError),
        # Above it, the closing solve checks its upper seed.
        (CrossingCertificate.build([(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]), ValueError),
    ],
    ids=["at-floor", "above-floor"],
)
def test_cone_raises_on_a_one_page_seed_that_does_not_verify(monkeypatch, bad, error):
    def no_route(g, cert):
        raise ApexRoutingError("no admissible apex face")

    monkeypatch.setattr(conecross.apex, "lift_to_cone", lambda g, cert: bad)
    monkeypatch.setattr(conecross.apex, "insert_apex", no_route)
    with pytest.raises(error, match="does not verify"):
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


def test_cone_past_the_order_search_limit_lifts_the_natural_drawing():
    # K12 has 12 vertices, past the order search's 11: the natural 1-page
    # drawing has C(12, 4) = 495 crossings and lifts to the cone for free,
    # where the closing solve's own fallback, cone(K12) = K13 drawn
    # naturally, has C(13, 4) = 715.
    g = complete_graph(12)
    res = cone_cr(g, budget_ms=300)
    assert (res.lower, res.upper, res.status) == (45, 495, "bounds-only")
    assert_drawing(cone(g), res.certificate, 495)
