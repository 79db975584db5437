"""Acceptance gate: one test per advertised guarantee.

Each test prints as its own pass/fail line under ``pytest -v``.  Wall
clock limits are part of the contract and are asserted with
``time.monotonic`` around the actual solve.  Every test is always on.

Shared solves live in a session fixture so the suite solves each graph
once, keeps its timing, and later criteria can sweep over everything
that was solved exactly.
"""

import itertools
import math
import random
import time
from dataclasses import dataclass

import networkx as nx
import pytest

from conecross import (
    CyclicOrder,
    EdwardsBound,
    Multigraph,
    SolveResult,
    complete_graph,
    cone,
    cone_cr,
    count_crossings,
    cr_exact,
    circle_graph,
    conjecture_ratio,
    cycle_graph,
    disjoint_union,
    f_graph,
    f_graph_certificate,
    fig1_certificate,
    fig1_cone_certificate,
    fig1_graph,
    fig3_graph,
    harary_hill,
    hh_phi_upper,
    maxcut_exact,
    multiply_edges,
    one_page_drawing,
    random_graph,
    scale_certificate,
    subdivide_edge,
    thm12_check,
    thm41_lower,
    verify_certificate,
)
from conecross.experiments import (
    cor22_suite,
    longrun_f5_lower,
    longrun_z7,
)


@dataclass
class Timed:
    graph: Multigraph
    simple: bool
    base: SolveResult
    base_seconds: float
    cone_res: SolveResult | None = None
    cone_seconds: float = 0.0


def timed_solve(g, simple=True, with_cone=True, seed=None):
    t0 = time.monotonic()
    base = cr_exact(g, upper_seed=seed)
    base_s = time.monotonic() - t0
    entry = Timed(g, simple, base, base_s)
    if with_cone:
        t0 = time.monotonic()
        entry.cone_res = cone_cr(g)
        entry.cone_seconds = time.monotonic() - t0
    return entry


@pytest.fixture(scope="session")
def solved():
    """Exactly solved graphs, keyed by name, each with its cone when cheap."""
    table = {
        "K4": timed_solve(complete_graph(4)),
        "C4": timed_solve(cycle_graph(4)),
        "K5": timed_solve(complete_graph(5)),
        "K6": timed_solve(complete_graph(6), with_cone=False),
        "fig3": timed_solve(fig3_graph()),
        "fig1": timed_solve(fig1_graph()),
        "F3": timed_solve(f_graph(3)),
        "F4": timed_solve(
            f_graph(4),
            with_cone=False,
            seed=(4, f_graph_certificate(4)),
        ),
        "2xK5": timed_solve(
            disjoint_union(complete_graph(5), complete_graph(5))
        ),
    }
    return table


def test_criterion_01_small_complete_graphs(solved):
    k5 = solved["K5"]
    assert k5.base.status == "exact" and k5.base.value == 1
    assert k5.base_seconds < 1.0
    k6 = solved["K6"]
    assert k6.base.status == "exact" and k6.base.value == 3
    assert k6.base_seconds < 30.0


def test_criterion_02_triangle_hexagon_and_its_cone(solved):
    entry = solved["fig1"]
    assert entry.base.status == "exact" and entry.base.value == 3
    assert entry.base_seconds < 120.0

    # upper bound: an explicit 6-crossing drawing of the cone, verified
    t0 = time.monotonic()
    cert = fig1_cone_certificate()
    count, ok = verify_certificate(cone(fig1_graph()), cert)
    assert ok and count == 6
    assert time.monotonic() - t0 < 60.0

    # lower bound: the cone's Euler bound (the next test); the
    # theorem-backed row 3 + 3 = 6 must agree
    assert entry.cone_res.status == "exact" and entry.cone_res.value == 6
    assert thm41_lower(entry.base.value) == 6


def test_criterion_02_cone_lower_bound_from_level_zero(solved):
    # The cone's Euler bound is 6: each level below it closes at its root
    # node (tests/test_solver.py sweeps that), so the bound needs no search.
    res = solved["fig1"].cone_res
    assert (res.status, res.value, res.lower_reason) == ("exact", 6, "euler")


def test_criterion_03_wheel_with_chords_pair(solved):
    entry = solved["fig3"]
    assert entry.base.status == "exact" and entry.base.value == 2
    assert entry.base_seconds < 60.0
    assert entry.cone_res.status == "exact" and entry.cone_res.value == 5
    assert entry.cone_seconds < 600.0


def test_criterion_04_fan_family(solved):
    f3 = solved["F3"]
    assert f3.base.status == "exact" and f3.base.value == 3
    assert f3.base_seconds < 120.0
    f4 = solved["F4"]
    assert f4.base.status == "exact" and f4.base.value == 4
    assert f4.base_seconds < 600.0
    count, ok = verify_certificate(f_graph(5), f_graph_certificate(5))
    assert ok and count == 5


def test_criterion_04_longrun_f5_lower_bound():
    # Seeded at 5, the vertex count over F5's two vertex orbits closes the
    # bracket in well under a second.
    result = longrun_f5_lower(budget_ms=30 * 1000)
    assert result["status"] == "exact" and result["value"] == 5
    assert (result["nodes"], result["planarity_calls"]) == (169, 1864)


def test_criterion_05_fs_small_table(fs_rows):
    rows = fs_rows
    assert [(r["k"], r["value"]) for r in rows] == [
        (1, 3),
        (2, 5),
        (3, 6),
        (4, 8),
        (5, 10),
    ]
    for row in rows:
        assert row["ok"], row
        expected = "solver-exact" if row["k"] <= 3 else "certificate+theorem"
        assert row["provenance"] == expected


def test_criterion_06_cut_conversion_property_suite():
    # split_report raises on a split that misses either check.
    assert cor22_suite(count=1000, seed=0) == {"count": 1000, "seed": 0}


def test_criterion_07_edwards_bound_on_all_small_graphs():
    checked = 0
    for g in nx.graph_atlas_g()[1:]:
        if g.number_of_nodes() == 0 or not nx.is_connected(g):
            continue
        n = g.number_of_nodes()
        edges = [tuple(sorted(e)) for e in g.edges()]
        m = len(edges)
        cut = maxcut_exact(n, edges)
        assert EdwardsBound(m).met_by(cut.size)
        if m >= 1:
            assert cut.size > m / 2
        checked += 1
    assert checked > 800  # the atlas holds every graph on <= 7 vertices
    k3 = maxcut_exact(3, complete_graph(3).simple_pairs())
    assert EdwardsBound(3).met_by(k3.size) and not EdwardsBound(3).met_by(k3.size - 1)


def test_criterion_08_harary_hill_formula(solved):
    assert [harary_hill(n) for n in range(5, 13)] == [
        1, 3, 9, 18, 36, 60, 100, 150,
    ]
    assert harary_hill(5) == solved["K5"].base.value
    assert harary_hill(6) == solved["K6"].base.value


def test_criterion_08_z7_against_the_two_page_solver():
    result = longrun_z7()
    assert result["value"] == result["expected"] == 9


def test_criterion_09_multigraph_family_datapoint():
    base = fig1_graph()
    doubled = multiply_edges(base, 2)
    lifted = scale_certificate(base, fig1_certificate(), doubled)
    assert verify_certificate(doubled, lifted) == (12, True)

    cone_base = cone(base)
    cone_doubled = Multigraph.build(
        cone_base.n,
        [
            (u, v, mult * (2 if 9 not in (u, v) else 1))
            for u, v, mult in cone_base.edges
        ],
    )
    assert cone_doubled == cone(doubled)
    cone_lifted = scale_certificate(
        cone_base, fig1_cone_certificate(), cone_doubled
    )
    assert verify_certificate(cone_doubled, cone_lifted) == (18, True)

    # 12 + sqrt(3 * 12) = 18, all integers
    assert math.isqrt(3 * 12) ** 2 == 3 * 12
    assert 12 + math.isqrt(3 * 12) == 18


def test_criterion_10_theorem_consistency_sweep(solved):
    pairs = 0
    for name, entry in solved.items():
        if entry.cone_res is None:
            continue
        if entry.base.status != "exact" or entry.cone_res.status != "exact":
            continue
        k = entry.base.value
        c = entry.cone_res.value
        assert thm12_check(k, c), name
        if entry.simple:
            assert c >= thm41_lower(k), name
        pairs += 1
    # (K5, K6) is a cone pair too: cone(K4) appears via K4's entry
    assert pairs >= 6


def test_criterion_11_conditional_phi_fixtures():
    row = hh_phi_upper(10)
    assert row.n == 8 and row.n1 == 5 and row.phi_upper == 11
    assert row.conditional
    fixtures = {
        10**3: 1.2843622269587867,
        10**4: 1.2791561671664644,
        10**5: 1.1637546391715565,
        10**6: 1.074631909306624,
    }
    for k, value in fixtures.items():
        assert conjecture_ratio(k) == pytest.approx(value, rel=1e-9)


def test_criterion_12_structural_properties(solved):
    # (a) 1-page crossings equal the circle graph's edge count
    rng = random.Random(0)
    for trial in range(1000):
        n = rng.randint(3, 10)
        g = random_graph(n, rng.randint(0, min(30, n * (n - 1) // 2)), seed=trial)
        seq = list(range(n))
        rng.shuffle(seq)
        order = CyclicOrder(tuple(seq))
        assert len(circle_graph(g, order)) == count_crossings(
            one_page_drawing(g, order)
        )

    # (b) invariance and additivity on the small-graph suite
    suite = [
        complete_graph(5),
        fig3_graph(),
        cycle_graph(6),
        random_graph(7, 12, seed=5),
        multiply_edges(complete_graph(4), 2),
    ]
    values = []
    for g in suite:
        base = cr_exact(g)
        assert base.status == "exact"
        values.append(base.value)
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert cr_exact(g.relabel(tuple(perm))).value == base.value
        if g.m:
            sub = subdivide_edge(g, rng.randrange(g.m))
            assert cr_exact(sub).value == base.value
    union = disjoint_union(suite[0], suite[1])
    assert cr_exact(union).value == values[0] + values[1]
