"""Multigraph container and generator tests."""

import inspect
import itertools
import json
import random
import sys
from collections import Counter

import pytest

from conecross import (
    Multigraph,
    complete_graph,
    cone,
    cycle_graph,
    disjoint_union,
    f_graph,
    fig1_graph,
    fig3_graph,
    multiply_edges,
    random_graph,
    subdivide_edge,
)
from conecross.graphs import automorphism_generators, split


def test_build_merges_parallel_and_reversed_pairs():
    g = Multigraph.build(3, [(0, 1), (1, 0), (2, 1, 3)])
    assert g.edges == ((0, 1, 2), (1, 2, 3))
    assert g.m == 5


def test_constructor_rejects_malformed_input():
    with pytest.raises(ValueError):
        Multigraph(-1, ())
    with pytest.raises(ValueError):
        Multigraph(2, ((0, 0, 1),))
    with pytest.raises(ValueError):
        Multigraph(2, ((0, 2, 1),))
    with pytest.raises(ValueError):
        Multigraph(2, ((1, 0, 1),))
    with pytest.raises(ValueError):
        Multigraph(2, ((0, 1, 0),))
    with pytest.raises(ValueError):
        # unsorted pair list
        Multigraph(3, ((1, 2, 1), (0, 1, 1)))


def test_instance_ids_follow_edge_order():
    g = Multigraph.build(3, [(0, 1, 2), (0, 2)])
    assert g.instances() == [(0, 1, 0), (0, 1, 1), (0, 2, 0)]
    assert g.instance_id(0, 1) == 0
    assert g.instance_id(1, 0, copy=1) == 1
    assert g.instance_id(0, 2) == 2
    with pytest.raises(KeyError):
        g.instance_id(0, 1, copy=2)
    with pytest.raises(KeyError):
        g.instance_id(1, 2)
    # A negative copy is absent too, not an id counted back from the pair.
    with pytest.raises(KeyError):
        g.instance_id(0, 2, copy=-1)
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(2, 7)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        picked = rng.sample(pairs, rng.randint(0, len(pairs)))
        h = Multigraph.build(n, [(u, v, rng.randint(1, 3)) for u, v in picked])
        index = h.instance_index()
        mult = {(u, v): count for u, v, count in h.edges}
        assert len(index) == h.m
        for i, inst in enumerate(h.instances()):
            u, v, copy = inst
            assert index[inst] == i == h.instance_id(*inst) == h.instance_id(v, u, copy)
        for u, v in pairs:
            for copy in (-1, mult.get((u, v), 0)):
                with pytest.raises(KeyError):
                    h.instance_id(u, v, copy)


def test_degree_counts_multiplicity():
    g = Multigraph.build(3, [(0, 1, 2), (1, 2)])
    assert g.edges == ((0, 1, 2), (1, 2, 1))
    assert [inst for inst in g.instances() if 1 in inst[:2]] == [(0, 1, 0), (0, 1, 1), (1, 2, 0)]
    assert g.simple_pairs() == [(0, 1), (1, 2)]


def test_components_include_isolated_vertices():
    g = Multigraph.build(5, [(0, 1), (3, 4)])
    assert g.components() == [[0, 1], [2], [3, 4]]
    assert Multigraph(3, ()).components() == [[0], [1], [2]]


def test_split_renames_each_component_in_order_and_keeps_a_connected_list():
    # Items are edge triples or host pairs; a component's items keep their
    # order and their multiplicities, with each end renamed to its place
    # in the component.
    nx = pytest.importorskip("networkx")
    rng = random.Random(39)
    for trial in range(200):
        n = rng.randint(0, 9)
        g = multiply_edges(random_graph(n, rng.randint(0, 2 * n), seed=trial), 1 + trial % 2)
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(g.simple_pairs())
        parts = split(n, g.edges)
        assert [vertices for vertices, _ in parts] == sorted(
            (sorted(c) for c in nx.connected_components(h)), key=min)
        for vertices, items in parts:
            label = {v: i for i, v in enumerate(vertices)}
            assert list(items) == [(label[u], label[v], k) for u, v, k in g.edges if u in label]
        hosts = [(u, v) for u, v, _ in g.instances()]
        assert [part for _, part in split(n, hosts)] == [
            [(a, b) for a, b, k in items for _ in range(k)] for _, items in parts]
        if len(parts) == 1:
            assert parts[0][1] is g.edges and split(n, hosts)[0][1] is hosts


def test_relabel_requires_a_bijection():
    g = complete_graph(4)
    assert g.relabel((3, 2, 1, 0)) == g
    with pytest.raises(ValueError):
        g.relabel((0, 0, 1, 2))


def test_json_round_trip():
    g = Multigraph.build(4, [(0, 1, 2), (2, 3)])
    again = Multigraph.from_json(g.to_json())
    assert again == g
    data = json.loads(g.to_json())
    data["format"] = "something-else"
    with pytest.raises(ValueError):
        Multigraph.from_json_dict(data)


@pytest.mark.parametrize(
    "data, field",
    [
        ([1, 2], "top level"),
        ({"format": "conecross-graph-v1", "n": 5.9, "edges": []}, "n"),
        ({"format": "conecross-graph-v1", "n": 5, "edges": [[0, 1, 2.5]]}, "edges"),
        ({"format": "conecross-graph-v1", "n": 5, "edges": [[1, 2, True]]}, "edges"),
    ],
    ids=["list", "float-n", "float-multiplicity", "bool-multiplicity"],
)
def test_json_reader_refuses_what_is_not_a_graph_object_of_integers(data, field):
    # A non-object, a fractional number and a bool are refused by name,
    # not read as an AttributeError or truncated to an integer.
    with pytest.raises(ValueError, match=field):
        Multigraph.from_json_dict(data)


def test_dot_export_repeats_parallel_edges():
    text = Multigraph.build(2, [(0, 1, 2)]).to_dot()
    assert text.count("0 -- 1") == 2
    assert text.startswith("graph g {")


# ----------------------------------------------------------------------
# generators


def test_complete_graph_sizes():
    assert complete_graph(5).m == 10
    assert complete_graph(1).m == 0
    with pytest.raises(ValueError):
        complete_graph(0)


def test_cycle_graph_sizes():
    g = cycle_graph(6)
    assert g.n == 6 and g.m == 6
    assert g.edges == ((0, 1, 1), (0, 5, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1))
    with pytest.raises(ValueError):
        cycle_graph(2)


def test_cone_of_k4_is_k5():
    assert cone(complete_graph(4)) == complete_graph(5)
    wheel = cone(cycle_graph(4))
    assert wheel.n == 5
    assert wheel.edges == (
        (0, 1, 1), (0, 3, 1), (0, 4, 1), (1, 2, 1), (1, 4, 1), (2, 3, 1), (2, 4, 1), (3, 4, 1)
    )


def test_cone_apex_keeps_parallel_base_edges():
    g = multiply_edges(cycle_graph(3), 2)
    cg = cone(g)
    assert cg.edges == ((0, 1, 2), (0, 2, 2), (0, 3, 1), (1, 2, 2), (1, 3, 1), (2, 3, 1))


def test_multiply_edges():
    doubled = multiply_edges(fig1_graph(), 2)
    assert doubled.m == 42
    assert doubled.n == 9
    with pytest.raises(ValueError):
        multiply_edges(fig1_graph(), 0)


def test_disjoint_union_shifts_the_second_block():
    g = disjoint_union(complete_graph(3), cycle_graph(4))
    assert g.n == 7
    assert g.edges == (
        (0, 1, 1), (0, 2, 1), (1, 2, 1), (3, 4, 1), (3, 6, 1), (4, 5, 1), (5, 6, 1)
    )
    assert len(g.components()) == 2


def test_subdivide_edge_inserts_a_path():
    g = subdivide_edge(complete_graph(5), 0, t=1)
    assert g.n == 6
    assert g.edges == tuple(sorted(complete_graph(5).edges[1:] + ((0, 5, 1), (1, 5, 1))))
    longer = subdivide_edge(complete_graph(5), 0, t=3)
    assert longer.n == 8 and longer.m == 13
    with pytest.raises(ValueError):
        subdivide_edge(complete_graph(5), 10)
    with pytest.raises(ValueError):
        subdivide_edge(complete_graph(5), 0, t=0)


def test_f_graph_shape():
    """7k instances: inner cycle k, outer cycle 2k, four spokes per inner vertex."""
    for k in (3, 4, 5):
        g = f_graph(k)
        assert g.n == 3 * k
        assert g.m == 7 * k
        degree = Counter(x for u, v, _ in g.instances() for x in (u, v))
        assert [degree[i] for i in range(k)] == [6] * k
    with pytest.raises(ValueError):
        f_graph(2)


def test_fig1_is_f3_up_to_relabeling():
    # Checked mapping: hexagon vertex 8 precedes 3..7 when matching the
    # outer-cycle indexing of f_graph.
    assert fig1_graph().relabel((0, 1, 2, 8, 3, 4, 5, 6, 7)) == f_graph(3)


def test_named_graphs_have_expected_sizes():
    g1 = fig1_graph()
    assert g1.n == 9 and g1.m == 21
    g3 = fig3_graph()
    assert g3.n == 7 and g3.m == 16
    degree = Counter(x for u, v, _ in g3.instances() for x in (u, v))
    assert degree[0] == 6
    # two chords meet at each of vertices 3 and 4, one at each other rim vertex
    assert sorted(degree[v] for v in range(1, 7)) == [4, 4, 4, 4, 5, 5]


def test_random_graph_is_deterministic_per_seed():
    a = random_graph(10, 15, seed=7)
    b = random_graph(10, 15, seed=7)
    assert a == b
    assert a.m == 15
    assert random_graph(10, 999, seed=0).m == 45  # capped at C(10,2)
    assert random_graph(10, 15, seed=8) != a


def test_random_graph_refuses_a_negative_edge_count():
    # A negative count would slice the shuffled pairs from the end.
    for m in (-1, -3):
        with pytest.raises(ValueError, match="m >= 0"):
            random_graph(5, m, seed=0)
    assert random_graph(5, 0, seed=0).m == 0


def group_closure(gens, n):
    """Every product of the generators, the identity included."""
    group = {tuple(range(n))}
    stack = list(group)
    while stack:
        p = stack.pop()
        for q in gens:
            r = tuple(q[x] for x in p)
            if r not in group:
                group.add(r)
                stack.append(r)
    return group


def wheel_with_a_doubled_spoke():
    return Multigraph.build(5, [(0, 1), (0, 1), (0, 2), (0, 3), (0, 4),
                                (1, 2), (2, 3), (3, 4), (4, 1)])


@pytest.mark.parametrize("g", [
    fig1_graph(), f_graph(3), fig3_graph(), complete_graph(5), cycle_graph(7),
    Multigraph(4, ()), multiply_edges(fig1_graph(), 2), wheel_with_a_doubled_spoke(),
    random_graph(8, 14, seed=3),
])
def test_automorphism_generators_keep_every_multiplicity(g):
    for perm in automorphism_generators(g):
        assert sorted(perm) == list(range(g.n))
        assert g.relabel(perm) == g


@pytest.mark.parametrize("g, order", [
    (fig1_graph(), 6), (f_graph(3), 6), (fig3_graph(), 2), (complete_graph(5), 120),
    (cycle_graph(7), 14), (Multigraph(0, ()), 1),
    (disjoint_union(complete_graph(5), complete_graph(5)), 2 * 120 * 120),
])
def test_automorphism_generators_generate_the_whole_group(g, order):
    assert len(group_closure(list(automorphism_generators(g)), g.n)) == order


def test_automorphisms_of_a_multigraph_fix_its_doubled_pair():
    # The 4-wheel has the 8 symmetries of its square rim; doubling spoke
    # 0-1 leaves the reflection through rim vertices 1 and 3.
    g = wheel_with_a_doubled_spoke()
    group = group_closure(list(automorphism_generators(g)), g.n)
    assert group == {(0, 1, 2, 3, 4), (0, 1, 4, 3, 2)}
    h = Multigraph.build(4, [(0, 1), (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    group = group_closure(list(automorphism_generators(h)), h.n)
    assert len(group) == 4
    assert all({p[0], p[1]} == {0, 1} for p in group)


def networkx_automorphism_count(g):
    """|Aut(g)| as networkx counts it: VF2++ on a simple graph and, since
    VF2++ reads no edge attributes, VF2 with each pair's multiplicity as
    an edge attribute on a multigraph.  VF2 lists 2xK5's 28,800
    automorphisms about three times slower than VF2++."""
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_weighted_edges_from(g.edges, weight="mult")
    if all(mult == 1 for _, _, mult in g.edges):
        return sum(1 for _ in nx.vf2pp_all_isomorphisms(h, h))
    same = lambda a, b: a["mult"] == b["mult"]  # noqa: E731
    return sum(1 for _ in GraphMatcher(h, h, edge_match=same).isomorphisms_iter())


def rejected_candidates(g):
    """The generators of Aut(g), and how often the search rejected a
    candidate map by its cells' sizes ("size") and by a pair whose
    multiplicity it does not keep ("pair"), counted by tracing the lines
    that reject one."""
    source, first = inspect.getsourcelines(automorphism_generators)

    def line_after(text):
        return first + 1 + next(i for i, line in enumerate(source) if text in line)

    kinds = {
        line_after("!= [len(cell) for cell in path[d + 1]]"): "size",
        line_after("adj[found[u]].get(found[v]) != mult"): "pair",
    }
    rejected = Counter()

    def in_extend(frame, event, arg):
        if event == "line" and frame.f_lineno in kinds:
            rejected[kinds[frame.f_lineno]] += 1
        return in_extend

    sys.settrace(lambda frame, event, arg: in_extend if frame.f_code.co_name == "extend" else None)
    try:
        gens = list(automorphism_generators(g))
    finally:
        sys.settrace(None)
    return gens, rejected


def frucht_graph():
    """The Frucht graph, labelled as networkx's ``frucht_graph``."""
    return Multigraph.build(12, [
        (0, 1), (0, 6), (0, 7), (1, 2), (1, 7), (2, 3), (2, 8), (3, 4), (3, 9),
        (4, 5), (4, 9), (5, 6), (5, 10), (6, 10), (7, 11), (8, 9), (8, 11), (10, 11),
    ])


@pytest.mark.parametrize("g, rejected, order", [
    (disjoint_union(cycle_graph(6), disjoint_union(cycle_graph(3), cycle_graph(3))),
     {"size": 6}, 864),
    (frucht_graph(), {"pair": 11}, 1),
], ids=["C6+2C3", "Frucht"])
def test_automorphism_search_rejects_candidates_refinement_lets_through(g, rejected, order):
    # Colour refinement cannot tell C6 from 2C3 (all three are 2-regular)
    # nor the Frucht graph's vertices apart (it is 3-regular), so the
    # search meets candidate maps that it must reject.
    gens, seen = rejected_candidates(g)
    assert seen == rejected
    for perm in gens:
        assert g.relabel(perm) == g
    assert len(group_closure(gens, g.n)) == networkx_automorphism_count(g) == order


def test_automorphism_generators_agree_with_networkx_on_random_graphs():
    for seed in range(40):
        n = 3 + seed % 6
        g = random_graph(n, seed % 11 + 2, seed)
        if seed % 3 == 0:
            g = Multigraph.build(n, [(u, v, 1 + (u + v) % 2) for u, v, _ in g.edges])
        expected = networkx_automorphism_count(g)
        assert len(group_closure(list(automorphism_generators(g)), n)) == expected


def test_automorphism_generators_agree_with_networkx_on_the_atlas():
    # Every graph on 1 to 6 vertices (VF2++ finds no automorphism of the
    # null graph; its one is pinned above).
    nx = pytest.importorskip("networkx")
    atlas = [a for a in nx.graph_atlas_g() if 1 <= a.number_of_nodes() <= 6]
    assert len(atlas) == 208
    for a in atlas:
        g = Multigraph.build(a.number_of_nodes(), a.edges())
        expected = networkx_automorphism_count(g)
        assert len(group_closure(list(automorphism_generators(g)), g.n)) == expected


NAMED_GRAPHS = {
    "K6": complete_graph(6),
    "wheel-with-chords": fig3_graph(),
    "triangle-hexagon": fig1_graph(),
    "F3": f_graph(3),
    "F4": f_graph(4),
    "2xK5": disjoint_union(complete_graph(5), complete_graph(5)),
    "cone-F3": cone(f_graph(3)),
}


@pytest.mark.parametrize("name", NAMED_GRAPHS)
def test_automorphism_generators_agree_with_networkx_on_named_graphs(name):
    g = NAMED_GRAPHS[name]
    perm = list(range(g.n))
    random.Random(name).shuffle(perm)
    g = g.relabel(perm)
    expected = networkx_automorphism_count(g)
    assert len(group_closure(list(automorphism_generators(g)), g.n)) == expected


def test_automorphism_search_stops_when_asked():
    # Stopped after its t-th refinement, the search has yielded a prefix of
    # the full list; the solver passes its deadline this way.
    g = complete_graph(7)
    full = list(automorphism_generators(g))
    assert list(automorphism_generators(g, lambda: True)) == []
    for t in (1, 5, 12):
        asked = itertools.count()
        part = list(automorphism_generators(g, lambda: next(asked) >= t))
        assert part == full[:len(part)]
    assert len(part) < len(full)
