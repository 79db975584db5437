"""Certificate validity, planarization, and book-to-certificate export."""

import json
import random
import re
from collections import Counter

import pytest

from conecross import (
    BookDrawing,
    CrossingCertificate,
    CyclicOrder,
    Multigraph,
    SolveResult,
    SolveStats,
    certificate_from_book,
    complete_graph,
    cone,
    count_crossings,
    cr_certificates,
    f_graph,
    f_graph_certificate,
    fig1_certificate,
    fig1_cone_certificate,
    fig1_graph,
    insert_apex,
    lr_planar,
    multiply_edges,
    one_page_drawing,
    planarize,
    random_graph,
    scale_certificate,
    verify_certificate,
)
from conecross import certificates
from conecross.certificates import planar_segments
from conecross.pages import outerplanar_search, two_page_search
from oracle import assert_drawing


def k5_cert():
    # in K5's instance numbering, (0,2) is 1 and (1,3) is 5
    return CrossingCertificate.build([(1, 5)])


def test_build_normalizes_pair_order():
    cert = CrossingCertificate.build([(5, 1), (2, 0)])
    assert cert.crossings == ((0, 2), (1, 5))
    assert cert.count == 2


def test_build_remaps_order_indices_after_sorting():
    # declare crossings out of order; the entry for edge 7 must follow them
    cert = CrossingCertificate.build(
        [(7, 9), (3, 7)], edge_orders={7: [0, 1]}
    )
    assert cert.crossings == ((3, 7), (7, 9))
    assert dict(cert.edge_orders)[7] == (1, 0)


def test_build_keeps_orders_only_for_edges_crossed_twice():
    assert CrossingCertificate.build([(0, 5)], {0: [0], 5: [0]}) == (
        CrossingCertificate.build([(0, 5)])
    )
    g = fig1_graph()
    drawings = cr_certificates(g, 3)
    assert len(drawings) == 108
    coned = [insert_apex(g, cert) for cert in drawings]
    k6 = complete_graph(6)
    books = [search(k6)[0].certificate for search in (outerplanar_search, two_page_search)]
    # The coned fig1 drawing crosses every edge at most once; doubling the
    # apex edges crosses each of their copies once and each base host twice.
    cg = cone(fig1_graph())
    apex_doubled = Multigraph.build(
        cg.n, [(u, v, 2 if v == 9 else 1) for u, v, _ in cg.edges]
    )
    scaled = [
        scale_certificate(cg, fig1_cone_certificate(), target)
        for target in (cg, apex_doubled)
    ]
    assert verify_certificate(apex_doubled, scaled[1]) == (9, True)
    for cert in drawings + coned + books + scaled:
        assert all(len(order) >= 2 for _, order in cert.edge_orders)


def test_a_one_crossing_order_in_json_still_loads_and_verifies():
    data = k5_cert().to_json_dict()
    data["edge_orders"] = {"1": [0], "5": [0]}
    cert = CrossingCertificate.from_json(json.dumps(data))
    assert cert.edge_orders == ((1, (0,)), (5, (0,)))
    assert verify_certificate(complete_graph(5), cert) == (1, True)


def test_empty_certificate_of_planar_graph():
    g = complete_graph(4)
    cert = CrossingCertificate.build([])
    assert verify_certificate(g, cert) == (0, True)


def test_empty_certificate_of_k5_is_rejected():
    assert verify_certificate(complete_graph(5), CrossingCertificate.build([])) == (
        0,
        False,
    )


def test_single_crossing_certificate_of_k5():
    assert verify_certificate(complete_graph(5), k5_cert()) == (1, True)


def test_planarize_adds_one_dummy_per_crossing():
    g = complete_graph(5)
    h = planarize(g, k5_cert())
    assert h.n == 6
    assert h.m == 12
    assert lr_planar(h.n, h.simple_pairs())
    assert [(u, v, mult) for u, v, mult in h.edges if 5 in (u, v)] == [
        (0, 5, 1), (1, 5, 1), (2, 5, 1), (3, 5, 1)
    ]


def assert_rejected(g, cert, message):
    """``cert`` is malformed for ``g`` with exactly ``message``: the check
    raises it, verification reports the drawing invalid, and planarizing
    or inserting the apex raises."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        planar_segments(g, cert)
    assert verify_certificate(g, cert) == (cert.count, False)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        planarize(g, cert)
    prefixed = f"^base certificate does not verify: {re.escape(message)}$"
    with pytest.raises(ValueError, match=prefixed):
        insert_apex(g, cert)


def test_planar_segments_messages():
    g = complete_graph(5)
    assert verify_certificate(g, k5_cert()) == (1, True)
    for cert, message in [
        (CrossingCertificate(((1, 99),)), "edge instance out of range in crossing (1, 99)"),
        (CrossingCertificate(((5, 1),)), "crossing pair (5, 1) not in sorted form"),
        # (0,2)=1 crosses (3,4)=9 and (1,3)=5, listed out of order.
        (CrossingCertificate(((1, 9), (1, 5))), "crossings not sorted"),
        (CrossingCertificate(((1, 5), (1, 5))), "repeated crossing (1, 5)"),
        # (0,1) and (0,2) share vertex 0.
        (CrossingCertificate(((0, 1),)), "adjacent edge instances cross in (0, 1)"),
        (CrossingCertificate(((1, 5),), ((99, (0,)),)), "edge order for unknown instance 99"),
    ]:
        assert_rejected(g, cert, message)


def test_missing_edge_order_is_an_error():
    g = complete_graph(6)
    # instance 2 = (0,3); cross it with (1,2)=5 and (4,5)=14, both disjoint
    twice = CrossingCertificate.build([(2, 5), (2, 14)])
    assert_rejected(g, twice, "instance 2 crossed 2 times but has no order")
    ordered = CrossingCertificate.build([(2, 5), (2, 14)], edge_orders={2: [0, 1]})
    # Well formed, though K6 needs three crossings: each crossing splits
    # two hosts.
    assert len(planar_segments(g, ordered)) == g.m + 2 * ordered.count
    assert verify_certificate(g, ordered) == (2, False)
    wrong_list = CrossingCertificate.build([(2, 5), (2, 14)], edge_orders={2: [0, 0]})
    assert_rejected(g, wrong_list, "edge order for instance 2 does not list its crossings")


def test_segments_run_along_each_host_in_its_crossing_order():
    # Apex insertion reads each host's base crossing order off its
    # segments: one that ends at vertex n + i is followed by crossing i.
    rng = random.Random(36)
    doubled = Multigraph.build(5, [(0, 2, 2), (0, 3), (1, 3, 3), (1, 4), (2, 4, 2)])
    graphs = [complete_graph(7), doubled]
    graphs += [random_multigraph(rng, rng.randint(4, 8)) for _ in range(20)]
    crossed = Counter()
    for g in graphs:
        insts = g.instances()
        seq = list(range(g.n))
        rng.shuffle(seq)
        order = CyclicOrder(tuple(seq))
        for d in (
            one_page_drawing(g, order),
            BookDrawing(g, order, tuple(rng.randint(0, 1) for _ in range(g.m))),
        ):
            cert = certificate_from_book(d)
            chains = {}
            for a, b, host in planar_segments(g, cert):
                chain = chains.setdefault(host, [a])
                assert chain[-1] == a
                chain.append(b)
            assert [chains[h][::len(chains[h]) - 1] for h in range(g.m)] == [
                list(inst[:2]) for inst in insts
            ]
            along = {
                h: [x - g.n for x in chain[1:-1]] for h, chain in chains.items() if len(chain) > 2
            }
            assert along == cert.sequences()
            crossed.update(min(len(xs), 3) for xs in along.values())
    assert crossed[3] > 50, crossed


def test_verify_flags_malformed_as_invalid_not_raising():
    g = complete_graph(5)
    count, ok = verify_certificate(g, CrossingCertificate(((0, 1),)))
    assert not ok


def test_certificate_json_round_trip():
    cert = CrossingCertificate.build([(2, 5), (2, 14)], edge_orders={2: [1, 0]})
    again = CrossingCertificate.from_json(cert.to_json())
    assert again == cert
    data = json.loads(cert.to_json())
    data["format"] = "nope"
    with pytest.raises(ValueError):
        CrossingCertificate.from_json_dict(data)


@pytest.mark.parametrize(
    "data, field",
    [
        ("crossings", "top level"),
        ({"format": "conecross-cert-v1", "crossings": [[0.7, 5.2]]}, "crossings"),
        ({"format": "conecross-cert-v1", "crossings": [[0, True]]}, "crossings"),
        ({"format": "conecross-cert-v1", "crossings": [], "edge_orders": {"2": [True, 0]}},
         "edge_orders"),
    ],
    ids=["string", "float-pair", "bool-pair", "bool-order"],
)
def test_json_reader_refuses_what_is_not_a_certificate_of_integers(data, field):
    with pytest.raises(ValueError, match=field):
        CrossingCertificate.from_json_dict(data)


NON_CANONICAL_KEYS = ["1_0", " 10 ", "+5", "-1", "01", "00", "", "1.0", "\u0663"]


@pytest.mark.parametrize("key", NON_CANONICAL_KEYS)
def test_certificate_reader_takes_only_canonical_edge_ids(key):
    data = {"format": "conecross-cert-v1", "crossings": [], "edge_orders": {key: [0, 1]}}
    with pytest.raises(ValueError, match=f"^edge_orders: key {re.escape(repr(key))}"):
        CrossingCertificate.from_json_dict(data)


def test_certificate_reader_reads_canonical_edge_ids_and_refuses_a_list_map():
    data = {"format": "conecross-cert-v1", "crossings": [],
            "edge_orders": {"0": [1, 0], "10": [0, 1]}}
    cert = CrossingCertificate.from_json_dict(data)
    assert cert.edge_orders == ((0, (1, 0)), (10, (0, 1)))
    data["edge_orders"] = [[1, 0]]
    with pytest.raises(ValueError, match="^edge_orders: a list is not a JSON object$"):
        CrossingCertificate.from_json_dict(data)


def random_multigraph(rng, n):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picked = rng.sample(pairs, rng.randint(0, len(pairs)))
    return Multigraph.build(n, [(u, v, rng.randint(1, 3)) for u, v in picked])


def test_certificate_from_book_matches_the_drawing():
    rng = random.Random(23)
    for trial in range(60):
        n = rng.randint(3, 8)
        if trial % 2:
            g = random_multigraph(rng, n)
        else:
            g = random_graph(n, rng.randint(0, 2 * n), seed=trial)
        seq = list(range(n))
        rng.shuffle(seq)
        order = CyclicOrder(tuple(seq))
        drawings = [
            one_page_drawing(g, order),
            BookDrawing(g, order, tuple(rng.randint(0, 1) for _ in range(g.m))),
        ]
        for d in drawings:
            assert_drawing(g, certificate_from_book(d), count_crossings(d))


def test_certificate_from_convex_k6_carries_edge_orders():
    d = one_page_drawing(complete_graph(6))
    cert = certificate_from_book(d)
    assert_drawing(complete_graph(6), cert, 15)
    # the three long diagonals each cross several edges, so orders exist
    assert len(cert.edge_orders) > 0


def test_certificate_from_book_handles_parallel_edges():
    g = Multigraph.build(4, [(0, 2, 2), (1, 3, 3)])
    d = one_page_drawing(g)
    assert_drawing(g, certificate_from_book(d), 6)


def test_certificate_from_book_reads_a_one_page_k14():
    order = CyclicOrder((1, 7, 4, 6, 9, 0, 10, 8, 5, 13, 11, 3, 12, 2))
    g = complete_graph(14)
    assert_drawing(g, certificate_from_book(one_page_drawing(g, order)), 1001)


def test_certificate_from_book_refuses_three_pages_in_use():
    g, order = complete_graph(5), CyclicOrder.natural(5)
    with pytest.raises(ValueError, match="3 pages"):
        certificate_from_book(BookDrawing(g, order, (0, 1, 2) * 3 + (0,)))
    # Pages 0 and 2 are two pages.
    assert_drawing(g, certificate_from_book(BookDrawing(g, order, (0, 2) * 5)), 3)


def test_scale_certificate_doubles_to_a_grid():
    base = fig1_graph()
    cert = fig1_certificate()
    target = multiply_edges(base, 2)
    lifted = scale_certificate(base, cert, target)
    assert lifted.count == 12
    assert verify_certificate(target, lifted) == (12, True)


def test_scale_certificate_identity():
    base = complete_graph(5)
    assert scale_certificate(base, k5_cert(), base) == k5_cert()


def test_scale_certificate_rejects_non_multiples():
    base = complete_graph(5)
    with pytest.raises(ValueError):
        scale_certificate(base, k5_cert(), complete_graph(6))
    with pytest.raises(ValueError):
        scale_certificate(multiply_edges(base, 2), k5_cert(), base)


def test_f_graph_certificates():
    for k in (3, 4, 5):
        g = f_graph(k)
        cert = f_graph_certificate(k)
        assert verify_certificate(g, cert) == (k, True)


def test_named_certificates_verify():
    assert verify_certificate(fig1_graph(), fig1_certificate()) == (3, True)
    cg = cone(fig1_graph())
    cert = fig1_cone_certificate()
    assert verify_certificate(cg, cert) == (6, True)


def test_cone_certificate_splits_three_and_three():
    """Three crossings stay inside the base graph, three involve the apex."""
    cg = cone(fig1_graph())
    insts = cg.instances()
    apex_edges = {i for i, (u, v, _) in enumerate(insts) if 9 in (u, v)}
    touching = sum(
        1 for e, f in fig1_cone_certificate().crossings
        if e in apex_edges or f in apex_edges
    )
    assert touching == 3


def test_solve_result_validation():
    # The upper bound is the drawing's count; a lower bound above it is an
    # internal fault, named by its reason.
    g = complete_graph(5)
    natural = certificate_from_book(one_page_drawing(g))
    assert verify_certificate(g, natural) == (5, True)
    with pytest.raises(RuntimeError, match=r"lower bound 6 \(search\) exceeds the drawing's count 5"):
        SolveResult(6, natural, lower_reason="search")
    open_result = SolveResult(1, natural)
    assert (open_result.upper, open_result.status) == (5, "bounds-only")
    with pytest.raises(ValueError):
        open_result.value
    done = SolveResult(1, k5_cert(), SolveStats(10, 20, 1.5), "euler")
    assert verify_certificate(g, done.certificate) == (1, True)
    assert (done.upper, done.status, done.value) == (1, "exact", 1)
    blob = done.to_json_dict()
    assert list(blob) == ["lower", "upper", "status", "lower_reason", "stats", "certificate"]
    assert (blob["upper"], blob["status"], blob["lower_reason"]) == (1, "exact", "euler")
    assert blob["stats"]["planarity_calls"] == 20
    assert blob["certificate"] == k5_cert().to_json_dict()


def tied_one_page_drawing():
    # Chords of this convex drawing meet three at a point when the
    # vertices sit on a parabola: crossings 35, 43 and 59 of its 83.
    g = random_graph(10, 30, seed=278859136)
    return g, one_page_drawing(g, CyclicOrder((8, 4, 5, 9, 0, 7, 1, 6, 3, 2)))


def test_concurrent_chords_give_a_certificate_without_a_retry(monkeypatch):
    g, d = tied_one_page_drawing()
    calls = []
    real = certificates.verify_certificate

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(certificates, "verify_certificate", counted)
    cert = certificate_from_book(d)
    assert calls == []
    monkeypatch.undo()
    assert_drawing(g, cert, 83)
