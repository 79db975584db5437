"""Left-right planarity test and embedding, cross-checked against networkx.

networkx ships an independent implementation of the same criterion, so a
seeded sweep over it is a real oracle rather than a mirror of our code.
Embeddings are checked on their own terms: every rotation lists exactly
a vertex's neighbours, and its face walks satisfy Euler's formula on
every component.
"""

import itertools
import random
from collections import Counter

import networkx as nx
import pytest

from conecross import (
    Multigraph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    fig1_graph,
    fig3_graph,
    multiply_edges,
    subdivide_edge,
)
from conecross.planarity import lr_embedding, lr_planar


def nx_graph(n, edges):
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from((u, v) for u, v in edges if u != v)
    return g


def nx_planar(n, edges):
    return nx.check_planarity(nx_graph(n, edges))[0]


def assert_embedding(n, edges, rotation):
    """``rotation`` is a planar rotation system of the simple graph under
    ``edges``: each vertex lists its neighbours once, and on every
    component V - E + F = 2, with F counted by walking faces."""
    g = nx_graph(n, edges)
    assert len(rotation) == n
    turn = {}
    for w, nbrs in enumerate(rotation):
        assert len(nbrs) == len(set(nbrs)) and set(nbrs) == set(g[w])
        for i, v in enumerate(nbrs):
            # A walk arriving at w from v leaves towards v's
            # counterclockwise neighbour.
            turn[w, v] = nbrs[i - 1]
    seen = set()
    faces = {}
    for start in turn:
        if start in seen:
            continue
        u, v = start
        while (u, v) not in seen:
            seen.add((u, v))
            u, v = v, turn[v, u]
        faces[u] = faces.get(u, 0) + 1
    for comp in nx.connected_components(g):
        sub = g.subgraph(comp)
        f = sum(faces.get(v, 0) for v in comp) or 1
        assert sub.number_of_nodes() - sub.number_of_edges() + f == 2


def check_embedding(n, edges, planar):
    """``lr_embedding`` agrees with the decision ``planar`` and, when it
    gives an embedding, the embedding holds up."""
    rotation = lr_embedding(n, edges)
    assert (rotation is not None) == planar, (n, edges)
    if rotation is not None:
        assert_embedding(n, edges, rotation)


def test_embedding_small_cases():
    assert lr_embedding(0, []) == []
    assert lr_embedding(3, []) == [[], [], []]
    assert lr_embedding(2, [(0, 1), (1, 0), (1, 1)]) == [[1], [0]]
    assert lr_embedding(5, list(itertools.combinations(range(5), 2))) is None
    k4 = list(itertools.combinations(range(4), 2))
    assert_embedding(4, k4, lr_embedding(4, k4))


def test_embedding_is_networkx_embedding_on_sorted_edges():
    # Fed sorted edges, the DFS visits neighbours as networkx's does, so
    # the rotation systems agree exactly, start vertex included.
    rng = random.Random(11)
    planar = 0
    for _ in range(400):
        n = rng.randint(1, 14)
        pool = list(itertools.combinations(range(n), 2))
        rng.shuffle(pool)
        edges = sorted(pool[: rng.randint(0, min(len(pool), 3 * n))])
        ok, emb = nx.check_planarity(nx_graph(n, edges))
        expected = [list(emb.neighbors_cw_order(v)) for v in range(n)] if ok else None
        assert lr_embedding(n, edges) == expected
        # Each pair followed by its reverse: first-seen order stays sorted.
        assert lr_embedding(n, [e for u, v in edges for e in ((u, v), (v, u))]) == expected
        planar += ok
    assert 100 < planar < 400


def test_back_edges_returning_to_a_dfs_root_match_networkx():
    # Fed sorted edges, the DFS starts at a wheel's hub and walks its rim as
    # one path, so every spoke but the first returns to the root as a back
    # edge.  Two wheels on one hub give the root two tree edges, each with
    # its own back edges; two disjoint wheels give two roots.
    def wheel(hub, rim):
        return [(hub, v) for v in rim] + list(zip(rim, rim[1:])) + [(rim[0], rim[-1])]

    for k in (3, 5, 8):
        one = range(1, k + 1)
        for n, edges in ((k + 1, wheel(0, one)),
                         (2 * k + 1, wheel(0, one) + wheel(0, range(k + 1, 2 * k + 1))),
                         (2 * k + 2, wheel(0, one) + wheel(k + 1, range(k + 2, 2 * k + 2)))):
            edges = sorted(edges)
            ok, emb = nx.check_planarity(nx_graph(n, edges))
            assert ok
            assert lr_embedding(n, edges) == [list(emb.neighbors_cw_order(v)) for v in range(n)]


@pytest.mark.parametrize("seed", range(3))
def test_repeats_loops_and_unused_labels_match_networkx(seed):
    # The input is read in one pass: a pair repeated in either
    # orientation counts once, a loop not at all, and a label no edge
    # uses is an isolated vertex.
    rng = random.Random(300 + seed)
    kinds = Counter()
    for _ in range(150):
        used = rng.randint(1, 11)
        n = used + rng.randint(0, 4)
        pool = list(itertools.combinations(range(used), 2))
        rng.shuffle(pool)
        edges = pool[: rng.randint(0, len(pool))]
        edges += [(v, u) for u, v in edges if rng.random() < 0.3]
        edges += [rng.choice(edges) for _ in range(rng.randint(0, 3))] if edges else []
        edges += [(v, v) for v in range(n) if rng.random() < 0.1]
        rng.shuffle(edges)
        expected = nx_planar(n, edges)
        assert lr_planar(n, edges) == expected, (n, edges)
        check_embedding(n, edges, expected)
        kinds[expected] += 1
    assert kinds[True] > 20 and kinds[False] > 20, kinds


def test_small_known_cases():
    assert lr_planar(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3)])
    assert not lr_planar(5, list(itertools.combinations(range(5), 2)))
    k33 = [(a, b) for a in range(3) for b in range(3, 6)]
    assert not lr_planar(6, k33)
    assert lr_planar(0, [])
    assert lr_planar(1, [])
    assert lr_planar(2, [(0, 1)])


def test_k5_minus_any_edge_is_planar():
    pairs = list(itertools.combinations(range(5), 2))
    for drop in range(len(pairs)):
        kept = [p for i, p in enumerate(pairs) if i != drop]
        assert lr_planar(5, kept)


def test_atlas_agreement():
    """Every graph on at most seven vertices, versus the oracle."""
    for g in nx.graph_atlas_g()[1:]:
        n = g.number_of_nodes()
        edges = [tuple(sorted(e)) for e in g.edges()]
        assert lr_planar(n, edges) == nx.check_planarity(g)[0]


@pytest.mark.parametrize("seed", range(6))
def test_random_sweep_matches_networkx(seed):
    rng = random.Random(seed)
    for _ in range(120):
        n = rng.randint(1, 12)
        max_m = n * (n - 1) // 2
        m = rng.randint(0, max_m)
        pool = list(itertools.combinations(range(n), 2))
        rng.shuffle(pool)
        edges = pool[:m]
        expected = nx_planar(n, edges)
        assert lr_planar(n, edges) == expected
        check_embedding(n, edges, expected)


def test_subdivided_kuratowski_graphs_stay_nonplanar():
    rng = random.Random(42)
    for base in (complete_graph(5), Multigraph.build(6, [(a, b) for a in range(3) for b in range(3, 6)])):
        g = base
        for _ in range(8):
            g = subdivide_edge(g, rng.randrange(g.m))
            assert not lr_planar(g.n, g.simple_pairs())
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = g.relabel(perm)
        assert not lr_planar(h.n, h.simple_pairs())


def test_disconnected_graphs():
    g = disjoint_union(cycle_graph(6), complete_graph(4))
    assert lr_planar(g.n, g.simple_pairs())
    h = disjoint_union(g, complete_graph(5))
    assert not lr_planar(h.n, h.simple_pairs())
    assert lr_planar(40, [])


def test_multiplicities_do_not_affect_planarity():
    # Each parallel copy is handed to the test as its own pair.
    for g, planar in ((multiply_edges(complete_graph(4), 3), True),
                      (multiply_edges(complete_graph(5), 2), False)):
        assert lr_planar(g.n, [(u, v) for u, v, _ in g.instances()]) == planar


def test_named_graphs_are_nonplanar():
    for g in (fig1_graph(), fig3_graph()):
        assert not lr_planar(g.n, g.simple_pairs())


def test_sparse_graphs_near_the_edge_bound():
    # planar graphs can reach 3n - 6 edges; push random graphs close to it
    rng = random.Random(9)
    for n in range(10, 26, 5):
        pool = list(itertools.combinations(range(n), 2))
        for _ in range(30):
            rng.shuffle(pool)
            m = rng.randint(2 * n, 3 * n - 6)
            edges = pool[:m]
            assert lr_planar(n, edges) == nx_planar(n, edges)


# Differential sweep on inputs shaped like the solver's calls: the solver
# tests planarizations (crossings replaced by degree-4 vertices) of graphs
# that are mostly non-planar, and deletes one Kuratowski host at a time.


def _oracle(n, edges):
    return nx_planar(n, [(u, v) for u, v in edges if u != v])


def _cross(edges, n, rng, count):
    """Replace ``count`` random pairs of disjoint edges by a crossing vertex."""
    for _ in range(count):
        i, j = rng.sample(range(len(edges)), 2)
        (a, b), (c, d) = edges[i], edges[j]
        if len({a, b, c, d}) < 4:
            continue
        edges = [e for k, e in enumerate(edges) if k not in (i, j)]
        edges += [(a, n), (n, b), (c, n), (n, d)]
        n += 1
    return n, edges


def _scramble(n, edges, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u]) for u, v in edges]
    rng.shuffle(out)
    return out


def _planarization(rng):
    n = rng.randint(5, 9)
    pool = list(itertools.combinations(range(n), 2))
    rng.shuffle(pool)
    edges = pool[: rng.randint(n, min(len(pool), 3 * n))]
    n, edges = _cross(edges, n, rng, rng.randint(1, 4))
    return n, _scramble(n, edges, rng), None


def _kuratowski_minus_chain(rng):
    if rng.random() < 0.5:
        base = list(itertools.combinations(range(5), 2))
        n = 5
    else:
        base = [(a, b) for a in range(3) for b in range(3, 6)]
        n = 6
    dropped = rng.randrange(len(base))
    edges = []
    for i, (u, v) in enumerate(base):
        chain = [u] + list(range(n, n + rng.randint(0, 3))) + [v]
        n += len(chain) - 2
        if i != dropped:
            edges += list(zip(chain, chain[1:]))
    # Without its chain the subdivision is planar; a chord may undo that.
    known = True
    if rng.random() < 0.5:
        edges.append(tuple(rng.sample(range(n), 2)))
        known = None
    return n, _scramble(n, edges, rng), known


def _messy(rng):
    """Parallel edges, self-loops, isolated vertices, several components."""
    n = 0
    edges = []
    for _ in range(rng.randint(2, 4)):
        size = rng.randint(1, 7)
        pool = [(n + a, n + b) for a, b in itertools.combinations(range(size), 2)]
        rng.shuffle(pool)
        edges += pool[: rng.randint(0, len(pool))]
        n += size
    edges += [rng.choice(edges) for _ in range(rng.randint(0, 6))] if edges else []
    edges += [(v, v) for v in rng.sample(range(n), rng.randint(0, 3))]
    n += rng.randint(0, 3)
    return n, _scramble(n, edges, rng), None


@pytest.mark.parametrize("shape", [_planarization, _kuratowski_minus_chain, _messy])
def test_solver_shaped_inputs_match_networkx(shape):
    rng = random.Random(f"lr-{shape.__name__}")
    answers = set()
    for _ in range(300):
        n, edges, known = shape(rng)
        expected = _oracle(n, edges)
        assert lr_planar(n, edges) == expected, (n, edges)
        check_embedding(n, edges, expected)
        if known is not None:
            assert expected == known
        answers.add(expected)
    assert answers == {True, False}


def test_large_sparse_graph_needs_no_recursion():
    # The DFS tree of this grid is well over a thousand levels deep, past
    # the interpreter's default recursion limit.
    grid = nx.convert_node_labels_to_integers(nx.grid_2d_graph(60, 60))
    n = grid.number_of_nodes()
    edges = list(grid.edges())
    k5 = [(n + a, n + b) for a, b in itertools.combinations(range(5), 2)]
    assert lr_planar(n, edges)
    assert not lr_planar(n + 5, edges + k5)
    assert not lr_planar(n + 5, edges + k5 + [(n - 1, n)])
    assert_embedding(n, edges, lr_embedding(n, edges))
    assert lr_embedding(n + 5, edges + k5 + [(n - 1, n)]) is None
    # A long path of midpoints, as apex insertion builds them.
    chain = [(i, i + 1) for i in range(5000)]
    assert_embedding(5001, chain, lr_embedding(5001, chain))
