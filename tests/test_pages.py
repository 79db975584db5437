"""One-page and two-page optimization, and the cut-based page split."""

import itertools
import random

import pytest

from conecross import (
    CyclicOrder,
    EdwardsBound,
    Multigraph,
    complete_graph,
    cone,
    cor22_bound_ok,
    count_crossings,
    cycle_graph,
    fig1_graph,
    fig3_graph,
    multiply_edges,
    one_page_drawing,
    one_to_two,
    outerplanar_cr,
    random_graph,
    split_report,
    two_page_cr,
    verify_certificate,
)
from conecross.deadline import Deadline
from conecross.maxcut import EXACT_LIMIT
from conecross.pages import (
    ORDER_SEARCH_LIMIT,
    _prefix_search,
    _two_page_scan,
    outerplanar_search,
    two_page_search,
)
from test_books import interleaving_pairs


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
    assert cor22_bound_ok(report.one_page_crossings, report.crossings)


def brute_force_max_cut(n, edges):
    """The largest cut over every split of n vertices, the last pinned to
    side 0 (a split and its mirror cut the same edges)."""
    return max(
        sum((split >> i ^ split >> j) & 1 for i, j in edges)
        for split in range(1 << max(n - 1, 0))
    )


def test_split_report_matches_the_brute_force_oracle():
    rng = random.Random(41)
    seen = set()
    for trial in range(150):
        n = rng.randint(2, 12)
        # g.m == m: repeats of a pair become parallel copies, and on many
        # vertices few pairs leave some isolated.
        m = rng.choice([rng.randint(0, 14), rng.randint(15, EXACT_LIMIT),
                        rng.randint(EXACT_LIMIT + 1, 48)])
        g = Multigraph.build(n, [rng.sample(range(n), 2) for _ in range(m)])
        seq = list(range(n))
        rng.shuffle(seq)
        order = CyclicOrder(tuple(seq))
        split = split_report(g, order)
        circle = interleaving_pairs(one_page_drawing(g, order))
        side = split.cut.side
        assert split.one_page_crossings == len(circle), trial
        assert split.cut.size == sum(side[i] != side[j] for i, j in circle), trial
        assert (split.drawing.graph, split.drawing.order) == (g, order), trial
        assert split.drawing.pages == side, trial
        assert split.crossings == len(interleaving_pairs(split.drawing)), trial
        assert split.crossings <= split.one_page_crossings, trial
        assert EdwardsBound(len(circle)).met_by(split.cut.size), trial
        if g.m <= 14:
            assert split.cut.size == brute_force_max_cut(g.m, circle), trial
        seen.add(g.m > EXACT_LIMIT)
        seen.add("parallel" if len(g.edges) < g.m else "simple")
        seen.add("isolated" if len({v for e in g.edges for v in e[:2]}) < n else "spanning")
    assert seen == {False, True, "parallel", "simple", "isolated", "spanning"}


def test_one_page_k4_after_split_is_planar():
    d = one_to_two(complete_graph(4), CyclicOrder.natural(4))
    assert count_crossings(d) == 0


def test_outerplanar_values():
    assert outerplanar_cr(complete_graph(4)).value == 1
    assert outerplanar_cr(complete_graph(5)).value == 5
    assert outerplanar_cr(cycle_graph(6)).value == 0
    assert outerplanar_cr(fig3_graph()).value == 11


def test_prefix_search_is_pinned_on_the_triangle_hexagon_graph():
    # Best count, best order, completion and node count: how a new chord
    # is priced must not change the tree the search visits.  The bound on
    # the pending chords cut the tree from 62,891 nodes.
    assert _prefix_search(fig1_graph(), Deadline(None)) == (
        15, (0, 3, 8, 2, 7, 6, 1, 5, 4), True, 7142
    )


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
    # One spine order: its best 2-page split is the exact max cut's.
    assert split_report(complete_graph(5), CyclicOrder.natural(5)).crossings == 1


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


@pytest.mark.parametrize("search", [outerplanar_search, two_page_search])
def test_a_finished_order_search_names_its_reason(search):
    # Every canonical order searched proves the best count: the reason is
    # the search, also when a planar order stops the scan early.
    for g in (complete_graph(6), fig3_graph(), cycle_graph(7)):
        res, _ = search(g)
        assert (res.status, res.lower_reason) == ("exact", "order-search")
        assert res.to_json_dict()["lower_reason"] == "order-search"


@pytest.mark.parametrize("search", [outerplanar_search, two_page_search])
def test_an_unfinished_order_search_names_no_reason(search):
    # The trivial 0 of a scan that did not finish (out of budget, or past
    # the size limit, even when the drawing closes the bracket at 0) rests
    # on no argument.
    graphs = [(complete_graph(7), 0), (complete_graph(ORDER_SEARCH_LIMIT + 1), None),
              (cycle_graph(ORDER_SEARCH_LIMIT + 1), None)]
    for g, budget_ms in graphs:
        res, _ = search(g, budget_ms=budget_ms)
        assert (res.lower, res.lower_reason) == (0, "")
    # K9 scans no order on 2 pages: its circle graphs are too large.
    if search is two_page_search:
        assert search(complete_graph(9))[0].lower_reason == ""


def test_two_page_search_on_a_planar_graph_is_exact_zero():
    res = two_page_cr(cycle_graph(7))
    assert res.status == "exact" and res.value == 0


def test_two_page_scan_runs_no_order_past_the_exact_limit():
    # K12's 66 edges give every spine order a 66-vertex circle graph.
    assert _two_page_scan(complete_graph(12), Deadline(None)) == (None, None, False, 0)


def brute_force_minima(g):
    """Fewest 1-page and 2-page crossings over all (n-1)! spine orders
    with vertex 0 first, every split of the chords onto two pages tried."""
    chords = [(u, v) for u, v, mult in g.edges for _ in range(mult)]
    one = two = None
    for rest in itertools.permutations(range(1, g.n)):
        pos = {v: p for p, v in enumerate((0,) + rest)}
        # crosses[i]: bitmask of the chords that chord i crosses on its page.
        crosses = [0] * len(chords)
        for (i, (a, b)), (j, (c, d)) in itertools.combinations(enumerate(chords), 2):
            lo, hi = sorted((pos[a], pos[b]))
            if len({a, b, c, d}) == 4 and (lo < pos[c] < hi) != (lo < pos[d] < hi):
                crosses[i] |= 1 << j
                crosses[j] |= 1 << i
        k = sum(bin(x).count("1") for x in crosses) // 2
        # Page 1 takes a set of the chords that cross something.
        movable = [(1 << i, x) for i, x in enumerate(crosses) if x]
        best_cut = 0
        for pick in range(1 << max(len(movable) - 1, 0)):
            side = sum(bit for t, (bit, _) in enumerate(movable) if pick >> t & 1)
            cut = sum(bin(x & ~side).count("1") for bit, x in movable if side & bit)
            best_cut = max(best_cut, cut)
        one = k if one is None else min(one, k)
        two = k - best_cut if two is None else min(two, k - best_cut)
    return one, two


def test_order_searches_match_brute_force_over_every_spine_order():
    rng = random.Random(24)
    for trial in range(24):
        n = rng.randint(4, 6)
        if trial % 4 == 3:
            g = multiply_edges(random_graph(n, n, seed=trial), 2)
        else:
            g = random_graph(n, rng.randint(n, min(2 * n + 1, n * (n - 1) // 2)), seed=300 + trial)
        one, two = brute_force_minima(g)
        outer, _ = outerplanar_search(g)
        both, _ = two_page_search(g)
        assert (outer.status, outer.value) == ("exact", one), trial
        assert (both.status, both.value) == ("exact", two), trial
