"""Exact crossing-number search.

Known values used as oracles here are classical: cr(K5) = 1, cr(K6) = 3,
cr(Petersen) = 2, and crossing numbers are invariant under relabeling
and edge subdivision and additive over disjoint unions.
"""

import itertools
import random
from collections import Counter

import networkx as nx
import pytest

from conecross import (
    CrossingCertificate,
    Multigraph,
    complete_graph,
    cone,
    cone_cr,
    cr_certificates,
    cr_exact,
    cr_lower,
    cycle_graph,
    disjoint_union,
    certificate_from_book,
    f_graph,
    f_graph_certificate,
    fig1_graph,
    fig3_graph,
    lift_to_cone,
    lr_planar,
    multiply_edges,
    one_page_drawing,
    outerplanar_cr,
    random_graph,
    subdivide_edge,
    verify_certificate,
)
from conecross import graphs, solver
from conecross.deadline import Deadline
from conecross.graphs import automorphism_generators
from conecross.pages import outerplanar_search, two_page_search
from oracle import assert_drawing, brute_force_cr, nx_planar


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Multigraph.build(10, outer + inner + spokes)


def bits(mask):
    """The positions of the set bits of ``mask``, lowest first."""
    return [b for b in range(mask.bit_length()) if mask >> b & 1]


def solved(g, **kw):
    res = cr_exact(g, **kw)
    assert res.status == "exact"
    if res.value > 0:
        count, ok = verify_certificate(g, res.certificate)
        assert ok and count == res.value
    return res.value


def test_euler_lower_bound():
    assert cr_lower(complete_graph(5)) == 1
    assert cr_lower(complete_graph(6)) == 3
    assert cr_lower(cycle_graph(5)) == 0
    assert cr_lower(fig1_graph()) == 0
    assert cr_lower(cone(fig3_graph())) == 5
    assert cr_lower(cone(fig1_graph())) == 6


def test_euler_bound_ignores_multiplicities():
    assert cr_lower(multiply_edges(complete_graph(6), 3)) == 3


def test_euler_bound_adds_over_components():
    g = disjoint_union(complete_graph(6), complete_graph(6))
    assert cr_lower(g) == 6


def test_planar_graphs_have_crossing_number_zero():
    for g in (cycle_graph(8), complete_graph(4), Multigraph(5, ())):
        res = cr_exact(g)
        assert res.status == "exact" and res.value == 0


def test_zero_vertex_graph():
    assert cr_exact(Multigraph(0, ())).value == 0


def test_complete_graph_values():
    assert solved(complete_graph(5)) == 1
    assert solved(complete_graph(6)) == 3


def test_wheel_with_chords_needs_two_crossings():
    assert solved(fig3_graph()) == 2


def test_triangle_hexagon_needs_three_crossings():
    assert solved(fig1_graph()) == 3


def test_petersen_graph():
    assert solved(petersen()) == 2


def test_multiplied_k5():
    # each of the two copies of every edge inherits the single crossing
    assert solved(multiply_edges(complete_graph(5), 2)) == 4


def test_crossing_number_survives_relabeling():
    perm = (3, 5, 1, 6, 0, 2, 4)
    assert solved(fig3_graph().relabel(perm)) == 2


def test_crossing_number_survives_subdivision():
    g = subdivide_edge(complete_graph(5), 4, t=2)
    assert solved(g) == 1


def test_crossings_add_over_disjoint_unions():
    g = disjoint_union(complete_graph(5), complete_graph(5))
    assert solved(g) == 2
    h = disjoint_union(complete_graph(5), cycle_graph(4))
    assert solved(h) == 1


def test_max_k_caps_the_search():
    res = cr_exact(complete_graph(6), max_k=1)
    assert res.status == "bounds-only"
    assert res.lower == 3
    count, ok = verify_certificate(complete_graph(6), res.certificate)
    assert ok and count == res.upper


@pytest.mark.parametrize("max_k", [0, 1])
def test_max_k_caps_the_counting_bound(max_k):
    # The wheel-with-chords cone has its Euler floor 5 as its value, and
    # the closing solve is seeded with the lifted 1-page drawing (11).
    # Under max_k the count must not aim at 11: it used to run the whole
    # budget, ending at [5, 11] after 26,097 nodes.
    res = cone_cr(fig3_graph(), max_k=max_k, budget_ms=15_000)
    assert (res.lower, res.upper, res.status) == (5, 11, "bounds-only")
    assert res.stats.nodes <= 1
    g = cone(fig3_graph())
    seed = lift_to_cone(fig3_graph(), outerplanar_cr(fig3_graph()).certificate)
    res = cr_exact(g, max_k=max_k, budget_ms=15_000, upper_seed=(11, seed))
    assert (res.lower, res.upper, res.status, res.stats.nodes) == (5, 11, "bounds-only", 0)


@pytest.mark.parametrize("max_k", [2, None])
def test_max_k_above_the_base_value_keeps_the_cone_exact(max_k):
    res = cone_cr(fig3_graph(), max_k=max_k)
    assert (res.value, res.status, res.stats.nodes) == (5, "exact", 17)


def test_tiny_budget_returns_a_bracket_not_a_lie():
    res = cr_exact(fig1_graph(), budget_ms=1)
    assert res.status == "bounds-only"
    assert 0 <= res.lower <= 3
    assert res.upper >= 3
    count, ok = verify_certificate(fig1_graph(), res.certificate)
    assert ok and count == res.upper


def test_a_closed_bracket_is_exact_at_every_entry_point():
    for g in (cycle_graph(5), Multigraph(3, ())):
        res = cr_exact(g, budget_ms=0)
        assert (res.lower, res.upper, res.status, res.value) == (0, 0, "exact", 0)
    named = [fig1_graph(), fig3_graph(), f_graph(3), complete_graph(5),
             complete_graph(6), subdivide_edge(complete_graph(5), 0),
             multiply_edges(complete_graph(4), 2), K33, cycle_graph(5), Multigraph(3, ())]
    solves = {
        "cr_exact": cr_exact,
        "cone_cr": cone_cr,
        "outerplanar_search": lambda g, budget_ms: outerplanar_search(g, budget_ms)[0],
        "two_page_search": lambda g, budget_ms: two_page_search(g, budget_ms)[0],
    }
    # Unbudgeted, these take seconds (2-page, 9 vertices) or minutes (cone(K6) = K7).
    slow = {(0, "two_page_search"), (2, "two_page_search"), (4, "cone_cr")}
    for i, g in enumerate(named):
        for name, solve in solves.items():
            for budget in (0, None):
                if budget is None and (i, name) in slow:
                    continue
                res = solve(g, budget_ms=budget)
                assert (res.status == "exact") == (res.lower == res.upper), (i, name, budget)
                if res.status == "exact":
                    assert res.value == res.upper


def test_negative_budget_and_max_k_are_rejected():
    # Every entry point refuses a negative budget where it makes its
    # Deadline, instead of reading it as already expired.
    for solve in (cr_exact, cone_cr, outerplanar_cr):
        with pytest.raises(ValueError, match="budget_ms=-1"):
            solve(complete_graph(6), budget_ms=-1)
    with pytest.raises(ValueError, match="budget_ms=-5"):
        cr_certificates(complete_graph(6), 3, budget_ms=-5)
    with pytest.raises(ValueError, match="max_k=-1"):
        cr_exact(complete_graph(6), max_k=-1)
    # Planar bases close at the cone's floor with no solve of G, so
    # cone_cr checks max_k itself, with cr_exact's message.
    cases = [(cycle_graph(5), -1), (disjoint_union(cycle_graph(4), cycle_graph(4)), -3),
             (complete_graph(5), -1)]
    for g, max_k in cases:
        with pytest.raises(ValueError, match=f"max_k={max_k}: must be None or >= 0"):
            cone_cr(g, max_k=max_k)


def test_upper_seed_is_verified_before_use():
    # A drawing that does not verify and a value that is not the
    # drawing's count are two faults, each with its own message.
    k5 = complete_graph(5)
    with pytest.raises(ValueError, match="^upper seed certificate does not verify$"):
        cr_exact(k5, upper_seed=(0, CrossingCertificate.build([])))
    natural = certificate_from_book(one_page_drawing(k5))
    assert verify_certificate(k5, natural) == (5, True)
    with pytest.raises(
        ValueError, match="^upper seed value 2 differs from its certificate's count 5$"
    ):
        cr_exact(k5, upper_seed=(2, natural))


def test_upper_seed_short_circuits_exhausted_levels():
    g = complete_graph(5)
    cert = CrossingCertificate.build([(1, 5)])
    res = cr_exact(g, upper_seed=(1, cert))
    assert res.status == "exact" and res.value == 1
    assert res.certificate == cert


def test_certificate_enumeration_yields_distinct_optima():
    certs = cr_certificates(complete_graph(5), 1)[:8]
    assert len(certs) == 8
    assert len({c.crossings for c in certs}) == 8
    for cert in certs:
        assert verify_certificate(complete_graph(5), cert) == (1, True)
    # The level search of cone(K3,3) at 3 finds some crossing sets more
    # than once (156 hits, 150 sets); each set is yielded once.
    g = cone(Multigraph.build(6, [(u, v) for u in range(3) for v in range(3, 6)]))
    certs = cr_certificates(g, 3)
    assert len(certs) == len({c.crossings for c in certs}) == 150


def test_cr_exact_matches_brute_force_on_random_cubic_graphs():
    # Colour refinement cannot split a cubic graph's vertices, so the root
    # skip rests on the automorphism search rejecting candidate maps.
    nx = pytest.importorskip("networkx")
    solved = 0
    for seed in range(40):
        g = Multigraph.build(10, nx.random_regular_graph(3, 10, seed).edges())
        if len(g.components()) == 1 and not nx_planar(g):
            assert cr_exact(g).value == brute_force_cr(g, 2), seed
            solved += 1
    assert solved == 19


def streamed(g, stop_after=None, **kwargs):
    """``cr_exact(g)`` with an ``until`` test that accepts the drawing
    numbered ``stop_after`` (never, if None), and the drawings it saw."""
    seen = []

    def until(cert):
        seen.append(cert)
        return len(seen) == stop_after

    return cr_exact(g, until=until, **kwargs), seen


def test_certificate_enumeration_without_a_limit_takes_the_whole_level():
    g = fig1_graph()
    certs = cr_certificates(g, 3)
    assert len(certs) == 108
    assert len({c.crossings for c in certs}) == 108
    res, seen = streamed(g)
    assert seen == certs and res.certificate == certs[0]
    assert streamed(g, 64)[1] == certs[:64]


def test_certificate_enumeration_stops_at_the_first_accepted_drawing():
    g = fig3_graph()
    res, seen = streamed(g, 2)
    assert seen == cr_certificates(g, 2)[:2]
    assert streamed(g, 1)[1] == [cr_exact(g).certificate] == [res.certificate]


def test_the_drawing_stream_keeps_the_answer_and_counts_its_search():
    # The stream goes on where cr_exact's first hit left the level search:
    # the bracket and the drawing stay, and its work adds to the stats.
    for g in (fig1_graph(), fig3_graph(), f_graph(3)):
        alone = cr_exact(g)
        res, seen = streamed(g)
        assert (res.lower, res.upper, res.status, res.certificate, res.lower_reason) == (
            alone.lower, alone.upper, alone.status, alone.certificate, alone.lower_reason)
        assert res.stats.nodes > alone.stats.nodes
        assert res.stats.planarity_calls > alone.stats.planarity_calls
        # Accepting the first drawing ends the stream before any search.
        first = streamed(g, 1)[0].stats
        assert (first.nodes, first.planarity_calls) == (
            alone.stats.nodes, alone.stats.planarity_calls)


def test_only_the_closing_search_streams_its_drawings():
    # A seed at cr(F3) is proved by the count, whose sub-searches find
    # drawings of F3 - x; none of them reaches until, nor does the seed.
    g = f_graph(3)
    res, seen = streamed(g, upper_seed=(3, f_graph_certificate(3)))
    assert res.status == "exact" and res.lower_reason == "edge-count" and seen == []
    # A seed above cr(F3): the count falls short, the search hits level 3,
    # and only that level's drawings of F3 are streamed.
    loose = certificate_from_book(one_page_drawing(g))
    res, seen = streamed(g, upper_seed=(loose.count, loose))
    assert res.value == 3 and seen and seen[0] == res.certificate
    for cert in seen:
        assert_drawing(g, cert, 3)


def test_until_needs_a_connected_graph():
    g = disjoint_union(complete_graph(5), complete_graph(5))
    with pytest.raises(ValueError, match="until needs a connected graph, got 2 components"):
        cr_exact(g, until=lambda cert: True)


def test_upper_seed_needs_a_connected_graph(monkeypatch):
    # The seed is refused before it is checked, not checked and dropped.
    g = disjoint_union(complete_graph(5), complete_graph(5))
    seed = certificate_from_book(one_page_drawing(g))
    monkeypatch.setattr(solver, "verify_certificate", None)
    with pytest.raises(ValueError, match="upper_seed needs a connected graph, got 2 components"):
        cr_exact(g, upper_seed=(seed.count, seed))


@pytest.mark.parametrize(
    "g, k, message",
    [
        (cycle_graph(4), -1, r"k=-1: the crossing count must be >= 0"),
        # cr(K5) = 1: the level-2 search finds 1-crossing drawings.
        (complete_graph(5), 2, r"k=2 is above cr\(g\): the search found a 1-crossing drawing"),
        # A planar graph is its own drawing at the root, whatever k.
        (cycle_graph(4), 3, r"k=3 is above cr\(g\): the search found a 0-crossing drawing"),
    ],
    ids=["negative-k", "k-above-cr", "k-above-cr-planar"],
)
def test_certificate_enumeration_rejects_bad_arguments(g, k, message):
    with pytest.raises(ValueError, match=message):
        cr_certificates(g, k)


def test_a_level_cut_short_mid_search_gives_a_certified_bracket(monkeypatch):
    # The deadline passes inside level 3 of fig1 (cr = 3, Euler bound 0):
    # levels 0..2 are exhausted, and the natural 1-page drawing gives the
    # upper bound.
    checks = itertools.count()
    monkeypatch.setattr(Deadline, "expired", lambda self: next(checks) >= 60)
    g = fig1_graph()
    res = cr_exact(g, budget_ms=10**7)
    assert (res.lower, res.upper, res.status) == (3, 39, "bounds-only")
    assert_drawing(g, res.certificate, res.upper)


def test_bracket_that_crosses_over_raises_instead_of_returning(monkeypatch):
    # A lower bound above the drawing's count is an internal fault, not bad
    # input: the one lower <= upper check, in SolveResult, raises
    # RuntimeError (the CLI's exit 1), which survives ``python -O``.
    monkeypatch.setattr(solver, "_counting_lower", lambda search, level, target: (6, "edge-count"))
    g = complete_graph(5)
    seed = certificate_from_book(one_page_drawing(g))
    message = r"lower bound 6 \(edge-count\) exceeds the drawing's count 5"
    with pytest.raises(RuntimeError, match=message):
        cr_exact(g, upper_seed=(5, seed))


def test_levels_below_the_euler_bound_close_at_the_root():
    # A solve starts at its Euler bound: below it, the root is non-planar
    # and its Euler cut (or, at level 0, the empty budget) closes the level
    # after one node, so a lower start could change no bracket.
    rng = random.Random(25)
    graphs = [complete_graph(6), complete_graph(7), cone(fig1_graph()),
              cone(fig3_graph()), multiply_edges(complete_graph(6), 2), petersen()]
    while len(graphs) < 30:
        n = rng.randint(5, 9)
        g = random_graph(n, rng.randint(3 * n - 5, n * (n - 1) // 2), rng.randrange(10**6))
        if len(g.components()) == 1:
            graphs.append(g)
    levels = 0
    for g in graphs:
        for r in range(cr_lower(g)):
            search = solver._LevelSearch.of(g, Deadline(None))
            assert list(search.hits(r)) == []
            assert (search.nodes, search.planarity, search.out_of_time) == (1, 1, False)
            levels += 1
    assert levels > 50


def test_disconnected_multigraph_with_interleaved_labels():
    # A K5 on 0, 2, .., 8 with one doubled edge, a 4-cycle on 1, 3, 5, 7
    # with a tripled edge, a K5 on 9, 11, .., 17, and isolated 10, .., 16.
    k5 = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    pairs = [(2 * u, 2 * v) for u, v in k5] + [(0, 2)]
    pairs += [(1, 3), (3, 5), (5, 7), (7, 1), (1, 3), (1, 3)]
    pairs += [(9 + 2 * u, 9 + 2 * v) for u, v in k5]
    g = Multigraph.build(18, pairs)
    res = cr_exact(g)
    # A doubled edge of K5 can stay uncrossed, so the parts give 1 + 0 + 1.
    assert res.status == "exact" and res.value == 2
    assert_drawing(g, res.certificate, res.value)
    assert res.stats.nodes > 0


def test_first_enumerated_certificate_is_the_solvers_certificate():
    for g in (complete_graph(6), fig3_graph()):
        res, seen = streamed(g, 1)
        assert seen == [res.certificate] == cr_certificates(g, res.value)[:1]


def test_search_tree_sizes_are_pinned():
    # Node counts fix the search tree: a change to host extraction that
    # moves them has to say so.  Planarity calls only have a ceiling.
    fig1 = cr_exact(fig1_graph()).stats
    f3 = cr_exact(f_graph(3)).stats
    assert (fig1.nodes, f3.nodes) == (131, 131)
    # The cone's solve of G counts the drawing stream its seeds come from.
    assert cone_cr(fig3_graph()).stats.nodes == 17
    assert fig1.planarity_calls < 3000
    assert f3.planarity_calls < 2200


def test_a_live_one_left_root_stops_testing_at_its_first_hit():
    # K5's level-1 root: one test of K5, three settle host 0 (its block,
    # the half, the host), three settle host 7, its first partner, and one
    # finds the child planar.  The other hosts are never tested.
    stats = cr_exact(complete_graph(5)).stats
    assert (stats.nodes, stats.planarity_calls) == (2, 8)


def test_a_one_left_root_tests_no_host_ahead_of_its_branches():
    # K5 with edge 0 subdivided, relabelled: the level-1 root's first
    # branch misses, so the root skip runs.  It closes orbits only for the
    # branches it starts, so no host is tested for a root pair that no
    # branch reaches.
    g = subdivide_edge(complete_graph(5), 0).relabel([2, 3, 5, 0, 4, 1])
    res = cr_exact(g)
    assert res.value == 1
    assert (res.stats.nodes, res.stats.planarity_calls) == (4, 11)


def complete_bipartite(a, b):
    return Multigraph.build(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def test_no_node_proposes_a_pair_its_path_crosses(monkeypatch):
    # A branch's pair joins the forbidden set of its subtree, so no node
    # offers a pair that its own path has placed: a good drawing crosses a
    # pair once.  The one-left stream is re-yielded lazily, since drawing a
    # pair from it tests hosts.
    real_expand = solver._LevelSearch.expand
    offered = Counter()

    def expand(self, chains, crossings, forbidden):
        cert, cands = real_expand(self, chains, crossings, forbidden)
        placed = set(crossings)

        def watched():
            for pair in cands:
                assert pair not in placed, (pair, crossings)
                offered[len(crossings) > 0] += 1
                yield pair

        return cert, watched()

    monkeypatch.setattr(solver._LevelSearch, "expand", expand)
    cases = [(complete_bipartite(3, 5), 4), (complete_bipartite(4, 4), 4),
             (complete_graph(5), 1), (complete_graph(6), 3), (fig3_graph(), 2),
             (petersen(), 2)]
    for g, value in cases:
        assert solved(g) == value
    assert offered[True] > 50 and offered[False] > 50, offered


def relabelled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return g.relabel(perm)


def orbit_differential_graphs():
    named = [fig1_graph(), f_graph(3), complete_graph(6), fig3_graph(),
             disjoint_union(complete_graph(5), complete_graph(5))]
    graphs = [relabelled(g, seed) for seed, g in enumerate(named, start=11)]
    rng = random.Random(2016)
    for seed in range(20):
        n = rng.randint(6, 9)
        graphs.append(random_graph(n, rng.randint(n + 3, 2 * n + 3), seed))
    return graphs


def test_root_orbit_skip_keeps_the_answer_and_shrinks_the_tree(monkeypatch):
    # Skipping root branches that an automorphism maps from an earlier one
    # leaves the lowest-index hit in place, so the bracket and the drawing
    # are those of the full root, found with no more nodes.
    graphs = orbit_differential_graphs()
    pruned = [cr_exact(g) for g in graphs]
    monkeypatch.setattr(solver._LevelSearch, "generators", [])
    full = [cr_exact(g) for g in graphs]
    for g, a, b in zip(graphs, pruned, full):
        assert (a.lower, a.upper, a.status, a.certificate) == (
            b.lower, b.upper, b.status, b.certificate)
        assert a.stats.nodes <= b.stats.nodes
        assert_drawing(g, a.certificate, a.value)
    assert sum(a.stats.nodes for a in pruned) < sum(b.stats.nodes for b in full)


def test_enumeration_skips_orbit_repeats_only_before_its_first_hit(monkeypatch):
    # Before the first hit no earlier root branch holds a drawing, so
    # neither does one that an automorphism maps from an earlier branch:
    # the skip drops no drawing, and after the hit every image is listed.
    graphs = orbit_differential_graphs()
    solved = [cr_exact(g) for g in graphs]
    levels = [res.value for res in solved]
    tests = []
    real = solver.lr_planar
    monkeypatch.setattr(solver, "lr_planar", lambda n, pairs: tests.append(n) or real(n, pairs))
    pruned = [cr_certificates(g, k) for g, k in zip(graphs, levels)]
    pruned_tests = len(tests)
    monkeypatch.setattr(solver._LevelSearch, "generators", [])
    full = [cr_certificates(g, k) for g, k in zip(graphs, levels)]
    assert pruned == full
    # 27,245 against 27,745 tests for 663 drawings.
    assert pruned_tests < len(tests) - pruned_tests
    for g, res, certs in zip(graphs, solved, pruned):
        assert certs[0] == res.certificate
        assert_drawing(g, certs[-1], res.value)


def test_root_orbit_skip_keeps_the_drawing_of_a_relabelled_f3():
    g = relabelled(f_graph(3), 7)
    res = cr_exact(g)
    assert (res.lower, res.upper, res.status) == (3, 3, "exact")
    assert_drawing(g, res.certificate, 3)


@pytest.mark.parametrize("threads", [0, 2])
@pytest.mark.parametrize(
    "entry",
    [cr_exact, cone_cr, outerplanar_search, two_page_search],
    ids=lambda entry: entry.__name__,
)
def test_only_one_thread_is_accepted(entry, threads):
    with pytest.raises(ValueError, match="threads"):
        entry(complete_graph(5), threads=threads)


def test_root_orbit_repeats_follow_the_symmetry():
    # The level-2 root of F3 has 35 candidate pairs in 19 orbits under its
    # 6 automorphisms, and its search starts one branch per orbit; the
    # path on 4 vertices has no repeats.
    g = f_graph(3)
    search = solver._LevelSearch.of(g, Deadline(None))
    search.r = 2
    _, cands = search.expand({}, [], frozenset())
    started = []
    branch = search.branch

    def recorded(chains, crossings, forbidden, pair):
        if not crossings:
            started.append(pair)
        return branch(chains, crossings, forbidden, pair)

    search.branch = recorded
    assert list(search.hits(2)) == []
    repeats = {j for j, pair in enumerate(cands) if pair not in started}
    assert (len(cands), len(cands) - len(repeats)) == (35, 19)
    # Branch j is skipped exactly when an automorphism (listed here by
    # networkx) maps an earlier root pair onto it.
    nx = pytest.importorskip("networkx")
    h = nx.Graph(g.simple_pairs())
    index = g.instance_index()

    def image(sigma, pair):
        ends = [g.instances()[e] for e in pair]
        ids = [index[(min(sigma[u], sigma[v]), max(sigma[u], sigma[v]), 0)] for u, v, _ in ends]
        return tuple(sorted(ids))

    autos = list(nx.algorithms.isomorphism.GraphMatcher(h, h).isomorphisms_iter())
    assert len(autos) == 6
    assert repeats == {
        j for j, pair in enumerate(cands)
        if any(image(sigma, earlier) == pair for sigma in autos for earlier in cands[:j])
    }


def test_one_automorphism_search_per_graph_per_solve(monkeypatch):
    # A solve's one search of G finds Aut(G) once, for the root skip of
    # every level and for the count; the count's sub-searches find that
    # of their own G - x at most once each.
    searched = []
    real = solver.automorphism_generators

    def recorded(g, stop):
        searched.append(g)
        return real(g, stop)

    monkeypatch.setattr(solver, "automorphism_generators", recorded)
    f3 = f_graph(3)
    natural = certificate_from_book(one_page_drawing(f3))
    solves = [
        (lambda: cr_exact(fig1_graph()), 1),
        (lambda: cr_exact(f3), 1),
        (lambda: cone_cr(fig1_graph()), 1),
        (lambda: cr_exact(f3, upper_seed=(natural.count, natural)), 3),
    ]
    for solve, expected in solves:
        searched.clear()
        solve()
        assert len(searched) == expected
        assert len({(g.n, tuple(g.edges)) for g in searched}) == expected


def test_one_crossing_left_hosts_are_the_single_deletions(monkeypatch):
    # With one crossing left the search pairs the hosts h with H - h planar.
    # At every such node reached, the pairs yielded must be, in order, the
    # valid pairs of the hosts that single deletions find, and every host
    # the group tests settle must agree with deleting it on its own; the
    # greedy host set filtered the same way gives the same hosts.  Checked
    # as each node is reached: a wrong set can blow up the search.
    seen = []
    lazy_pairs = solver._LevelSearch._one_left_pairs
    group_tested = solver._LevelSearch._deletable

    def planar_without(search, chains, n_extra, h):
        pairs = search._pairs(chains, 1 << h)
        return lr_planar(search.n + n_extra, pairs)

    def checked_host(self, chains, n_extra, outside, planar_blocks, h):
        assert not outside >> h & 1
        after = group_tested(self, chains, n_extra, outside, planar_blocks, h)
        # Hosts already settled outside stay there.
        assert after & outside == outside
        assert (not after >> h & 1) == planar_without(self, chains, n_extra, h)
        for b in bits(after & ~outside):
            assert not planar_without(self, chains, n_extra, b)
        return after

    def checked_pairs(self, chains, n_extra, forbidden):
        hosts = [h for h in range(len(self.ends)) if planar_without(self, chains, n_extra, h)]
        greedy = self._minimal_hosts(chains, n_extra)
        assert hosts == [h for h in bits(greedy) if planar_without(self, chains, n_extra, h)]
        # The node's forbidden set holds its placed pairs too.
        expected = [
            (e, f) for e, f in itertools.combinations(hosts, 2)
            if not set(self.ends[e]) & set(self.ends[f]) and (e, f) not in forbidden
        ]
        got = list(lazy_pairs(self, chains, n_extra, forbidden))
        assert got == expected
        seen.append(hosts)
        yield from got

    monkeypatch.setattr(solver._LevelSearch, "_deletable", checked_host)
    monkeypatch.setattr(solver._LevelSearch, "_one_left_pairs", checked_pairs)
    perm = (2, 1, 0, 4, 8, 3, 5, 6, 7)
    graphs = [f_graph(3).relabel(perm)]
    graphs += [random_graph(8, 18, seed) for seed in range(1, 10)]
    for g in graphs:
        cr_exact(g)
    # Seeded solves run the count, whose edge sub-searches settle root
    # hosts from their shared pair table as well.
    for g, value, seed in edge_count_cases().values():
        cr_exact(g, upper_seed=(value, seed))
    assert len(seen) > 100
    assert any(seen) and not all(seen)


def test_partner_masks_are_the_later_instances_sharing_no_end():
    # partners[e] holds exactly the instances f > e with no end in common
    # with e, the ones e can cross in a good drawing.  Seeded multigraphs
    # with parallel copies and isolated vertices, each whole and, as an
    # edge count's sub-search reads it, with one instance left out.
    rng = random.Random(42)
    checked = 0
    for _ in range(80):
        n = rng.randint(1, 9)
        g = random_graph(n, rng.randint(0, n * (n - 1) // 2), rng.randrange(10**6))
        copies = [(u, v, k + rng.randrange(3)) for u, v, k in g.edges]
        g = Multigraph.build(n + rng.randint(0, 2), copies)
        ends = [(u, v) for u, v, _ in g.instances()]
        left_out = rng.sample(range(len(ends)), min(2, len(ends)))
        lists = [ends] + [ends[:x] + ends[x + 1:] for x in left_out]
        for hosts in lists:
            search = solver._LevelSearch(g.n, hosts, Deadline(None))
            want = [
                [f for f in range(e + 1, len(hosts)) if not set(hosts[e]) & set(hosts[f])]
                for e in range(len(hosts))
            ]
            assert [bits(mask) for mask in search.partners] == want
            assert all(mask >> len(hosts) == 0 for mask in search.partners)
            checked += sum(map(len, want))
    assert checked > 1000


def seeded_sweep_graphs():
    # Connected multigraphs on 5-8 vertices, about a fifth of the pairs
    # doubled.
    rng = random.Random(2016)
    graphs = []
    while len(graphs) < 40:
        n = rng.randint(5, 8)
        g = random_graph(n, rng.randint(n + 2, 2 * n + 3), rng.randrange(10**6))
        if len(g.components()) == 1:
            pairs = [(u, v, k + (rng.random() < 0.2)) for u, v, k in g.edges]
            graphs.append(Multigraph.build(n, pairs))
    return graphs


def test_counting_bound_never_passes_the_crossing_number(monkeypatch):
    # Seeded with the natural 1-page drawing, the count aims at a target
    # that is often above cr: it must still prove no more than cr, and the
    # bracket must be the unseeded one.
    counted = []
    count = solver._counting_lower

    def observed(search, level, target):
        found = count(search, level, target)
        counted.append((search.g, found[0], found[1]))
        return found

    monkeypatch.setattr(solver, "_counting_lower", observed)
    exact = {}
    for g in seeded_sweep_graphs():
        plain = cr_exact(g)
        exact[g] = plain.value
        natural = certificate_from_book(one_page_drawing(g))
        seeded = cr_exact(g, upper_seed=(natural.count, natural))
        assert (seeded.lower, seeded.upper, seeded.status) == (
            plain.lower, plain.upper, plain.status)
        assert_drawing(g, seeded.certificate, seeded.value)
    assert len(counted) > 20
    assert all(bound <= exact[g] for g, bound, _ in counted)
    assert any(reason for _, _, reason in counted)


def test_counting_bound_closes_a_relabelled_seeded_f3():
    # Seeded with the unseeded solve's drawing, the count closes the same
    # bracket with that drawing and fewer nodes than exhausting the levels.
    g = relabelled(f_graph(3), 5)
    searched = cr_exact(g)
    counted = cr_exact(g, upper_seed=(3, searched.certificate))
    assert (counted.lower, counted.upper, counted.status, counted.certificate) == (
        searched.lower, searched.upper, searched.status, searched.certificate)
    assert counted.stats.nodes < searched.stats.nodes
    assert (counted.lower_reason, searched.lower_reason) == ("edge-count", "search")


def test_seeded_solve_work_is_pinned():
    # The count's sub-searches and the level search add to one tally, so
    # a sub-search whose work goes uncounted moves these pairs.  The edge
    # count's shared pair table saves F3 and F4 planarity tests (57 and
    # 2,484 without it): it settles root hosts untested, and a root block
    # is tested without the hosts it already places outside U.  F5 closes
    # by the vertex count, which has no table.
    pins = {3: (11, 24), 4: (232, 2450), 5: (169, 1864)}
    for k, pin in pins.items():
        stats = cr_exact(f_graph(k), upper_seed=(k, f_graph_certificate(k))).stats
        assert (stats.nodes, stats.planarity_calls) == pin


def test_lower_bounds_name_their_reason():
    f3 = cr_exact(f_graph(3), upper_seed=(3, f_graph_certificate(3)))
    f5 = cr_exact(f_graph(5), upper_seed=(5, f_graph_certificate(5)))
    assert (f3.value, f3.lower_reason) == (3, "edge-count")
    assert (f5.value, f5.lower_reason) == (5, "vertex-count")
    assert cr_exact(f_graph(3)).lower_reason == "search"
    assert cr_exact(complete_graph(6)).lower_reason == "euler"
    two = cr_exact(disjoint_union(complete_graph(5), complete_graph(5)))
    assert two.lower_reason == "component sum"
    assert two.to_json_dict()["lower_reason"] == "component sum"
    # The cone of the wheel with chords closes at its Euler bound.
    assert cone_cr(fig3_graph()).lower_reason == "euler"


def shared_split_graphs():
    k5 = complete_graph(5)
    return {
        "empty-0": Multigraph(0, ()),
        "empty-3": Multigraph(3, ()),
        "K5+K1": disjoint_union(k5, Multigraph(1, ())),
        "2xK5": disjoint_union(k5, k5),
    }


def pinned(crossings, lower, reason, nodes, tests):
    return {
        "lower": lower, "upper": lower, "status": "exact", "lower_reason": reason,
        "stats": {"nodes": nodes, "planarity_calls": tests},
        "certificate": {
            "format": "conecross-cert-v1", "crossings": crossings, "edge_orders": {},
        },
    }


SHARED_SPLIT_PINS = [
    (cr_exact, "empty-0", pinned([], 0, "component sum", 0, 0)),
    (cr_exact, "empty-3", pinned([], 0, "component sum", 3, 3)),
    (cr_exact, "K5+K1", pinned([[0, 7]], 1, "component sum", 3, 9)),
    (cr_exact, "2xK5", pinned([[0, 7], [10, 17]], 2, "component sum", 4, 16)),
    # An empty G is one part: the lone apex, at its Euler floor.
    (cone_cr, "empty-0", pinned([], 0, "euler", 0, 0)),
    (cone_cr, "empty-3", pinned([], 0, "component sum", 0, 0)),
    (cone_cr, "K5+K1", pinned([[0, 9], [3, 13], [8, 10]], 3, "component sum", 2, 8)),
    (cone_cr, "2xK5", pinned(
        [[0, 9], [3, 13], [8, 10], [15, 24], [18, 28], [23, 25]], 6, "component sum", 4, 16)),
]


@pytest.mark.parametrize(
    "entry, name, want",
    SHARED_SPLIT_PINS,
    ids=[f"{entry.__name__}-{name}" for entry, name, _ in SHARED_SPLIT_PINS],
)
def test_split_solve_combine_answers_are_pinned(entry, name, want):
    # cr_exact and cone_cr split G into components, solve each part and
    # combine the parts' brackets the same way.
    got = entry(shared_split_graphs()[name]).to_json_dict()
    del got["stats"]["elapsed_ms"]
    assert got == want


K33 = Multigraph.build(6, [(a, b, 1) for a in range(3) for b in range(3, 6)])


def seeded_f3(g):
    return cr_exact(g, upper_seed=(3, f_graph_certificate(3)))


@pytest.mark.parametrize(
    "entry, g, lifts, checks",
    [
        (cr_exact, fig3_graph(), 0, 1),
        # The seed is checked on entry; the count proves it optimal and the
        # component solve returns it unchecked.
        (seeded_f3, f_graph(3), 0, 1),
        # Cones at their floor, with no closing solve.  Apex insertion
        # assembles, and so checks, only drawings that beat the best seed.
        (cone_cr, fig3_graph(), 1, 5),
        (cone_cr, fig1_graph(), 1, 7),
        (cone_cr, disjoint_union(complete_graph(5), complete_graph(5)), 3, 7),
        # Cones above their floor close through the component solve, which
        # takes the seed as checked where it was made.
        (cone_cr, subdivide_edge(complete_graph(5), 0), 1, 3),
        (cone_cr, multiply_edges(complete_graph(4), 2), 1, 3),
        (cone_cr, K33, 1, 3),
    ],
    ids=["cr-connected", "proof-F3", "cone-wheel-with-chords", "cone-triangle-hexagon",
         "cone-2xK5", "cone-K5-subdivided", "cone-doubled-K4", "cone-K33"],
)
def test_only_real_lifts_are_made(monkeypatch, entry, g, lifts, checks):
    # A lone part that is the whole graph is returned as it stands.  A
    # connected cone lifts only its 1-page seed; each K5 of 2xK5 lifts its
    # seed, and the sum over the two cones is one more.  Every certificate
    # is checked once where it is made, the answer's own among them.
    from conecross import apex, certificates, pages

    calls = Counter()
    checked = []
    real_lift = certificates.lift_certificate
    real_verify = certificates.verify_certificate

    def lifted(whole, parts):
        calls["lift"] += 1
        return real_lift(whole, parts)

    def verified(h, cert):
        checked.append(cert)
        return real_verify(h, cert)

    for module in (certificates, apex):
        monkeypatch.setattr(module, "lift_certificate", lifted)
    for module in (certificates, solver, apex, pages):
        monkeypatch.setattr(module, "verify_certificate", verified)
    res = entry(g)
    assert res.status == "exact"
    assert (calls["lift"], len(checked)) == (lifts, checks)
    assert sum(cert is res.certificate for cert in checked) == 1


@pytest.mark.parametrize(
    "g",
    [
        subdivide_edge(complete_graph(5), 0),
        multiply_edges(complete_graph(4), 2),
        K33,
        fig3_graph(),
        disjoint_union(complete_graph(5), complete_graph(5)),
    ],
    ids=["K5-subdivided", "doubled-K4", "K33", "wheel-with-chords", "2xK5"],
)
def test_cone_cr_solves_only_g_through_cr_exact(monkeypatch, g):
    # A cone part above its floor closes through the component solve; the
    # public entry point sees only the components of G.
    from conecross import apex

    solved = []
    real = apex.cr_exact

    def recorded(h, **kwargs):
        solved.append(h)
        return real(h, **kwargs)

    monkeypatch.setattr(apex, "cr_exact", recorded)
    assert cone_cr(g).status == "exact"
    assert solved == [sub for sub, _ in g.component_subgraphs()]


def test_a_component_certificate_that_does_not_verify_raises(monkeypatch):
    # Each part's certificate is checked where it is made, so a connected
    # solve, which lifts nothing, still refuses a drawing that fails.
    monkeypatch.setattr(solver, "verify_certificate", lambda g, cert: (cert.count, False))
    with pytest.raises(RuntimeError, match="does not verify"):
        cr_exact(complete_graph(5))


def edge_count_cases():
    """Seeded solves, (G, seed value, seed drawing) by name, most of them
    closed or raised by the edge count: F3 and F4 with the family's
    drawing, a relabelled F3 with the unseeded solve's drawing, and K6,
    two K5s joined by a bridge (whose deletion leaves two components) and
    sweep graphs with their natural 1-page drawing."""
    cases = {f"F{k}": (f_graph(k), k, f_graph_certificate(k)) for k in (3, 4)}
    g = relabelled(f_graph(3), 5)
    plain = cr_exact(g)
    cases["F3-relabelled"] = (g, plain.upper, plain.certificate)
    sweep = seeded_sweep_graphs()
    k5 = complete_graph(5)
    bridged = Multigraph.build(10, [(u, v) for u, v, _ in disjoint_union(k5, k5).edges] + [(4, 5)])
    named = [("K6", complete_graph(6)), ("K5-bridge-K5", bridged)]
    for name, g in named + [(f"sweep-{j}", sweep[j]) for j in (0, 2, 3, 34)]:
        natural = certificate_from_book(one_page_drawing(g))
        cases[name] = (g, natural.count, natural)
    return cases


def test_pair_table_halves_hold_only_what_they_claim(monkeypatch):
    # Every pair in the edge count's non-planar half leaves G non-planar
    # when both instances are deleted, and every pair in its planar half
    # leaves G planar (networkx's opinion).  Both halves are symmetric,
    # closed under the moves and disjoint.  A sub-search root that a known
    # pair marks non-planar is non-planar.
    tables = []
    marked = []
    real_hits = solver._LevelSearch.hits

    class Recorded(solver._PairTable):
        def __init__(self, moves, m):
            super().__init__(moves, m)
            tables.append(self)

    def checked_root(self, r):
        if self.root_nonplanar and self.deleted is not None:
            marked.append(self.g)
            assert not nx_planar(self.g)
        return real_hits(self, r)

    monkeypatch.setattr(solver, "_PairTable", Recorded)
    monkeypatch.setattr(solver._LevelSearch, "hits", checked_root)
    checked = {False: 0, True: 0}
    for g, value, seed in edge_count_cases().values():
        tables.clear()
        cr_exact(g, upper_seed=(value, seed))
        for table in tables:
            assert not any(a & b for a, b in zip(table.nonplanar, table.planar))
            for planar, half in ((False, table.nonplanar), (True, table.planar)):
                assert len(half) == g.m and all(row >> g.m == 0 for row in half)
                pairs = {(a, b) for a, row in enumerate(half) for b in range(g.m) if row >> b & 1}
                for a, b in pairs:
                    assert a != b and (b, a) in pairs
                    for move in table.moves:
                        assert (move[a], move[b]) in pairs
                    if a < b:
                        assert nx_planar(g, (a, b)) == planar
                        checked[planar] += 1
    assert checked[False] > 1000 and checked[True] > 150 and marked, checked


def test_root_group_tests_leave_out_hosts_the_table_rules_out(monkeypatch):
    # At the root of a count sub-search of G - x, a group test deletes no
    # host b whose pair {x, b} the table held as non-planar when the test
    # ran: such a b is already known to lie outside U(G - x).
    real_deletable = solver._LevelSearch._deletable
    real_pairs = solver._LevelSearch._pairs
    testing = []
    deleted = Counter()

    def deletable(self, *args):
        testing.append(self)
        try:
            return real_deletable(self, *args)
        finally:
            testing.pop()

    def pairs(self, chains, skip=0):
        if testing and testing[-1] is self and self.deleted is not None and not chains:
            table, x = self.deleted
            known = [b for b in bits(skip) if table.nonplanar[x] >> (b + (b >= x)) & 1]
            assert known == [], (x, bits(skip), known)
            deleted[skip.bit_count()] += 1
        return real_pairs(self, chains, skip)

    monkeypatch.setattr(solver._LevelSearch, "_deletable", deletable)
    monkeypatch.setattr(solver._LevelSearch, "_pairs", pairs)
    for k in (3, 4):
        res = cr_exact(f_graph(k), upper_seed=(k, f_graph_certificate(k)))
        assert (res.value, res.lower_reason) == (k, "edge-count")
    # Whole blocks and single hosts were tested.
    assert deleted[1] and deleted[solver.HOST_BLOCK], deleted


def test_root_hosts_ruled_out_are_in_the_pair_table(monkeypatch):
    # At the root of a table-backed count sub-search of G - x, every host b
    # settled outside U(G - x) has {x, b} in the table's non-planar half
    # after each host settles: the root's group tests can then trim their
    # blocks by the table alone.
    real_deletable = solver._LevelSearch._deletable
    settled = Counter()

    def deletable(self, chains, n_extra, outside, planar_blocks, h):
        after = real_deletable(self, chains, n_extra, outside, planar_blocks, h)
        if self.deleted is not None and not n_extra:
            table, x = self.deleted
            out = bits(after)
            missing = [b for b in out if not table.nonplanar[x] >> (b + (b >= x)) & 1]
            assert missing == [], (x, missing)
            settled[not after >> h & 1] += 1
            settled["out"] += len(out)
        return after

    monkeypatch.setattr(solver._LevelSearch, "_deletable", deletable)
    for g, value, seed in edge_count_cases().values():
        cr_exact(g, upper_seed=(value, seed))
    assert settled[True] and settled[False] and settled["out"] > 100, settled


# The cases' answers as they were before the pair table: (lower, reason,
# nodes, crossings, edge orders, planarity tests), with the tests the
# solve makes now.  The table changes no bracket, certificate, reason or
# node count, and only removes tests.
EDGE_COUNT_PINS = {
    "F3": ((3, "edge-count", 11, [[3, 7], [4, 14], [10, 11]], {}, 57), 24),
    "F3-relabelled": ((3, "edge-count", 11, [[1, 13], [2, 4], [5, 18]], {}, 63), 28),
    "F4": ((4, "edge-count", 232, [[3, 7], [4, 19], [10, 12], [15, 16]], {}, 2484), 2450),
    "K6": ((3, "euler", 11, [[1, 14], [2, 8], [5, 12]], {}, 91), 91),
    "K5-bridge-K5": ((2, "vertex-count", 15, [[0, 7], [11, 18]], {}, 72), 66),
    "sweep-0": ((2, "vertex-count", 148, [[2, 15], [7, 16]], {}, 1119), 1058),
    "sweep-2": ((1, "euler", 29, [[1, 14]], {}, 112), 97),
    "sweep-3": ((2, "edge-count", 126, [[0, 15], [2, 14]], {}, 1107), 1030),
    "sweep-34": ((1, "vertex-count", 63, [[3, 12]], {}, 292), 236),
}


@pytest.mark.parametrize("name", sorted(EDGE_COUNT_PINS))
def test_pair_table_keeps_the_seeded_answers(name):
    g, value, seed = edge_count_cases()[name]
    res = cr_exact(g, upper_seed=(value, seed))
    (lower, reason, nodes, crossings, orders, before), tests = EDGE_COUNT_PINS[name]
    assert (res.lower, res.upper, res.lower_reason, res.stats.nodes) == (lower, lower, reason, nodes)
    assert res.certificate == CrossingCertificate.build(crossings, orders)
    assert res.stats.planarity_calls == tests <= before


def ends_of(g):
    return [(u, v) for u, v, _ in g.instances()]


def minus(g, x, vertices):
    """G - x built from scratch: vertex x and its pairs gone, the other
    vertices labelled 0.. in order; or edge instance x gone."""
    if not vertices:
        kept = [(u, v) for eid, (u, v, _) in enumerate(g.instances()) if eid != x]
        return Multigraph.build(g.n, kept)
    label = {v: i for i, v in enumerate(w for w in range(g.n) if w != x)}
    kept = [(label[u], label[v], k) for u, v, k in g.edges if x not in (u, v)]
    return Multigraph.build(g.n - 1, kept)


def deletion_graphs(seed):
    """Random multigraphs on 2-7 vertices, connected or not, with up to 12
    pairs, half of them with every pair's multiplicity the same (which
    keeps the simple graph's symmetry)."""
    rng = random.Random(seed)
    graphs = []
    for trial in range(60):
        n = rng.randint(2, 7)
        simple = random_graph(n, rng.randint(1, 12), seed=100 * seed + trial)
        r = rng.randint(1, 3)
        mults = [r if trial % 2 else rng.randint(1, 3) for _ in simple.edges]
        pairs = [(u, v, k) for (u, v, _), k in zip(simple.edges, mults)]
        graphs.append(Multigraph.build(n, pairs))
    return graphs


@pytest.mark.parametrize("vertices", [False, True], ids=["edge", "vertex"])
def test_a_deletion_lists_the_hosts_of_g_minus_x(vertices):
    # The count reads G - x off G's host list: the list is that of G - x
    # built with Multigraph, and its split is G - x's components, each
    # with its own instance order.  The weights cover every vertex or
    # every edge instance once.
    split = Counter()
    for g in deletion_graphs(41):
        weights = 0
        ends = ends_of(g)
        for weight, x, n, hosts in solver._deletions(
                g.n, ends, list(automorphism_generators(g)), vertices):
            h = minus(g, x, vertices)
            assert (n, hosts) == (h.n, ends_of(h))
            parts = graphs.split(n, hosts)
            assert parts == [(vertices, ends_of(sub)) for sub, vertices in h.component_subgraphs()]
            if len(parts) == 1:
                assert parts[0][1] is hosts
            split[len(parts) > 1] += 1
            weights += weight
        assert weights == (g.n if vertices else g.m)
    assert split[False] > 50 and split[True] > 50, split


def test_an_edge_deletion_drops_its_pairs_last_copy():
    # The count maps host h of G - x to instance h + (h >= x) of G, which
    # holds when G - x lists G's instances with entry x left out.
    orbits = 0
    for g in deletion_graphs(29):
        insts = g.instances()
        ends = ends_of(g)
        mult = {(a, b): k for a, b, k in g.edges}
        for _, x, _, hosts in solver._deletions(
                g.n, ends, list(automorphism_generators(g)), vertices=False):
            u, v, copy = insts[x]
            assert copy == mult[(u, v)] - 1
            assert hosts == ends[:x] + ends[x + 1:]
            orbits += 1
    assert orbits > 100


def test_every_search_of_the_count_holds_a_multigraphs_host_list(monkeypatch):
    # In a solve, every search of the count, edge or vertex, connected
    # part or not, holds the host list of a Multigraph; the graph it
    # builds for automorphisms is that one.
    seen = Counter()
    searches = []
    real_hits = solver._LevelSearch.hits

    def checked_root(self, r):
        h = Multigraph.build(self.n, self.ends)
        assert ends_of(h) == self.ends and len(h.components()) == 1
        seen[self.deleted is not None] += 1
        searches.append(self)
        return real_hits(self, r)

    monkeypatch.setattr(solver._LevelSearch, "hits", checked_root)
    for g, value, seed in edge_count_cases().values():
        cr_exact(g, upper_seed=(value, seed))
    assert seen[True] > 20 and seen[False] > 20, seen
    # Besides each solve's own search, some sub-searches reach a second
    # root branch and build their graph.
    built = {id(search): search for search in searches if "g" in vars(search)}
    assert all(search.g == Multigraph.build(search.n, search.ends) for search in built.values())
    assert len(built) > len(edge_count_cases())


def count_oracle_graphs():
    """Connected non-planar multigraphs on 6-7 vertices with at most 12
    edge instances, about a quarter of the pairs doubled."""
    rng = random.Random(34)
    graphs = []
    while len(graphs) < 30:
        n = rng.randint(6, 7)
        simple = random_graph(n, rng.randint(n + 2, 11), rng.randrange(10**6))
        g = Multigraph.build(n, [(u, v, k + (rng.random() < 0.25)) for u, v, k in simple.edges])
        if g.m <= 12 and len(g.components()) == 1 and not nx_planar(g):
            graphs.append(g)
    return graphs


def test_seeded_solves_match_the_brute_force_oracle(monkeypatch):
    # Seeded with the natural 1-page drawing, the count aims above cr;
    # seeded with the solver's own optimum, it aims at cr.  Either way
    # the bracket is the oracle's crossing number, so no sub-search of
    # the count, edge or vertex, may report more than it proved.
    kinds = Counter()
    reasons = Counter()
    real = solver._deletions

    def recorded(n, ends, gens, vertices):
        for deletion in real(n, ends, gens, vertices):
            kinds[vertices] += 1
            yield deletion

    monkeypatch.setattr(solver, "_deletions", recorded)
    for g in count_oracle_graphs():
        plain = cr_exact(g)
        want = brute_force_cr(g, plain.upper)
        natural = certificate_from_book(one_page_drawing(g))
        for value, seed in ((natural.count, natural), (plain.upper, plain.certificate)):
            res = cr_exact(g, upper_seed=(value, seed))
            assert (res.lower, res.upper, res.status) == (want, want, "exact")
            assert_drawing(g, res.certificate, want)
            reasons[res.lower_reason] += 1
    assert kinds[False] > 200 and kinds[True] > 100, kinds
    assert reasons["edge-count"] > 10 and reasons["vertex-count"], reasons


def test_cr_exact_matches_the_brute_force_oracle_on_the_atlas():
    # Every graph on 1-6 vertices except K6: atlas indices 1-207.
    for index, a in enumerate(nx.graph_atlas_g()[1:208], start=1):
        g = Multigraph.build(a.number_of_nodes(), list(a.edges()))
        res = cr_exact(g)
        assert res.status == "exact", index
        assert brute_force_cr(g, res.upper) == res.upper, index
