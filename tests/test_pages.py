"""One-page and two-page optimization, and the cut-based page split."""

import pytest

from conecross import (
    CyclicOrder,
    Multigraph,
    complete_graph,
    cone,
    cor22_bound_ok,
    count_crossings,
    cycle_graph,
    fig3_graph,
    multiply_edges,
    one_to_two,
    outerplanar_cr,
    random_graph,
    split_report,
    two_page_cr,
    two_page_cr_fixed_order,
    verify_certificate,
)
from conecross.maxcut import EXACT_LIMIT
from conecross.pages import ORDER_SEARCH_LIMIT, outerplanar_search, two_page_search


def three_interleaved_chords():
    return Multigraph.build(6, [(0, 3), (1, 4), (2, 5)])


def test_cor22_bound_values():
    assert cor22_bound_ok(5, 1)
    assert not cor22_bound_ok(5, 2)
    assert cor22_bound_ok(0, 0)
    # s = 4k + 1 - 8c must be non-negative with s*s >= 8k + 1
    assert cor22_bound_ok(9, 3)
    assert not cor22_bound_ok(9, 4)


def test_split_halves_the_three_chord_bundle():
    g = three_interleaved_chords()
    d = one_to_two(g, CyclicOrder.natural(6))
    assert d.page_count == 2
    assert count_crossings(d) == 1


def test_split_keeps_planar_orders_planar():
    g = cycle_graph(6)
    d = one_to_two(g, CyclicOrder.natural(6))
    assert count_crossings(d) == 0


def test_split_report_accounting():
    g = complete_graph(5)
    report = split_report(g, CyclicOrder.natural(5))
    assert report.one_page_crossings == 5
    assert report.crossings == report.one_page_crossings - report.cut.size
    assert count_crossings(report.drawing) == report.crossings
    assert report.bound_ok == cor22_bound_ok(
        report.one_page_crossings, report.crossings
    )
    assert report.bound_ok


def test_one_page_k4_after_split_is_planar():
    d = one_to_two(complete_graph(4), CyclicOrder.natural(4))
    assert count_crossings(d) == 0


def test_outerplanar_values():
    assert outerplanar_cr(complete_graph(4)).value == 1
    assert outerplanar_cr(complete_graph(5)).value == 5
    assert outerplanar_cr(cycle_graph(6)).value == 0
    assert outerplanar_cr(fig3_graph()).value == 11


def test_outerplanar_certificate_witnesses_the_bound():
    g = complete_graph(5)
    res, drawing = outerplanar_search(g)
    assert res.status == "exact"
    assert count_crossings(drawing) == res.value
    assert verify_certificate(g, res.certificate) == (res.value, True)


def test_two_page_values():
    assert two_page_cr(complete_graph(5)).value == 1
    assert two_page_cr(complete_graph(6)).value == 3
    assert two_page_cr(cycle_graph(7)).value == 0
    assert two_page_cr_fixed_order(complete_graph(5), CyclicOrder.natural(5)) == 1


def test_two_page_search_returns_a_matching_drawing():
    g = complete_graph(6)
    res, drawing = two_page_search(g)
    assert res.status == "exact"
    assert drawing is not None and drawing.page_count <= 2
    assert count_crossings(drawing) == res.value


def test_wheel_two_page_is_planar():
    g = cone(cycle_graph(6))
    res = two_page_cr(g)
    assert res.value == 0


def assert_certified_bounds_only(g, res, drawing, pages):
    assert res.status == "bounds-only"
    assert res.lower <= res.upper
    count, ok = verify_certificate(g, res.certificate)
    assert ok and count == res.upper
    assert drawing.page_count <= pages
    assert count_crossings(drawing) == res.upper


def test_order_search_degrades_to_bounds_past_the_size_limit():
    g = complete_graph(ORDER_SEARCH_LIMIT + 1)
    res = outerplanar_cr(g)
    assert res.status == "bounds-only"
    assert res.lower == 0
    count, ok = verify_certificate(g, res.certificate)
    assert ok and count == res.upper
    two = two_page_cr(g)
    assert two.status == "bounds-only"
    assert two.upper >= two.lower
    assert_certified_bounds_only(g, *outerplanar_search(g), pages=1)
    assert_certified_bounds_only(g, *two_page_search(g), pages=2)
    # Few enough vertices to scan, but every circle graph has more than
    # EXACT_LIMIT vertices: the natural order's Edwards split answers.
    k9 = complete_graph(9)
    res, drawing = two_page_search(k9)
    assert_certified_bounds_only(k9, res, drawing, pages=2)
    assert res.upper == 42
    doubled = multiply_edges(random_graph(8, 21, 5), 2)
    assert doubled.m > EXACT_LIMIT
    assert_certified_bounds_only(doubled, *two_page_search(doubled), pages=2)


@pytest.mark.parametrize("search", [outerplanar_search, two_page_search])
def test_a_drawing_without_crossings_closes_the_bracket_past_the_size_limit(search):
    # C12 is past the order-search limit, but its natural drawing has no
    # crossings: 0 is the crossing number, whatever the scan did not try.
    g = cycle_graph(ORDER_SEARCH_LIMIT + 1)
    res, drawing = search(g)
    assert (res.lower, res.upper, res.status, res.value) == (0, 0, "exact", 0)
    assert verify_certificate(g, res.certificate) == (0, True)
    assert count_crossings(drawing) == 0


def test_budget_zero_still_returns_an_honest_bracket():
    g = complete_graph(7)
    res = outerplanar_cr(g, budget_ms=0)
    assert res.status == "bounds-only"
    assert res.lower <= res.upper
    count, ok = verify_certificate(g, res.certificate)
    assert ok and count == res.upper
    assert_certified_bounds_only(g, *two_page_search(g, budget_ms=0), pages=2)


def test_two_page_search_on_a_planar_graph_is_exact_zero():
    res = two_page_cr(cycle_graph(7))
    assert res.status == "exact" and res.value == 0


def test_fixed_order_rejects_huge_circle_graphs():
    layers = Multigraph.build(
        12, [(u, v) for u in range(12) for v in range(u + 1, 12)]
    )
    with pytest.raises(ValueError):
        two_page_cr_fixed_order(layers, CyclicOrder.natural(12))
