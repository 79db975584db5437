"""Max-cut solver and the Edwards guarantee.

The exact solver is checked against a direct enumeration of every vertex
split in lexicographic order, which is slow but independent of the
pruning logic under test.
"""

import itertools
import math
import random

import networkx as nx
import pytest

from conecross import (
    CyclicOrder,
    EdwardsBound,
    Multigraph,
    circle_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    maxcut_edwards,
    maxcut_exact,
    random_graph,
)
from conecross.maxcut import EXACT_LIMIT, Cut, cut_value


def first_maximum_cut(n, edges):
    """The first maximum cut in lexicographic order of side vectors, among
    those with every component's smallest vertex on side 0."""
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    pinned = [min(comp) for comp in nx.connected_components(g)]
    best = None
    for side in itertools.product((0, 1), repeat=n):
        if any(side[v] for v in pinned):
            continue
        size = cut_value(edges, side)
        if best is None or size > best.size:
            best = Cut(side, size)
    return best


def test_exact_matches_brute_force_on_random_graphs():
    rng = random.Random(5)
    for trial in range(30):
        n = rng.randint(1, 9)
        g = random_graph(n, rng.randint(0, n * (n - 1) // 2), seed=trial)
        edges = g.simple_pairs()
        cut = maxcut_exact(n, edges)
        assert cut.size == first_maximum_cut(n, edges).size
        assert cut_value(edges, cut.side) == cut.size


def test_exact_returns_the_first_maximum_cut():
    """The whole side vector matches, not only the size."""
    rng = random.Random(11)
    for trial in range(40):
        n = rng.randint(0, 14)
        # Sparse draws leave many graphs disconnected.
        m = rng.randint(0, min(n * (n - 1) // 2, 2 * n))
        g = random_graph(n, m, seed=900 + trial) if n else Multigraph(0, ())
        edges = g.simple_pairs()
        assert maxcut_exact(n, edges) == first_maximum_cut(n, edges), trial
    for trial in range(30):
        # One circle-graph vertex per edge of g, so at most 14.
        n = rng.randint(5, 9)
        g = random_graph(n, rng.randint(6, 14), seed=1900 + trial)
        seq = list(range(n))
        rng.shuffle(seq)
        edges = circle_graph(g, CyclicOrder(tuple(seq)))
        assert g.m <= 14
        assert maxcut_exact(g.m, edges) == first_maximum_cut(g.m, edges), trial


@pytest.mark.parametrize("solve", [maxcut_exact, maxcut_edwards])
def test_repeated_edges_are_rejected(solve):
    for edges in ([(0, 1), (0, 1)], [(0, 1), (1, 2), (1, 0)]):
        with pytest.raises(ValueError, match=r"repeated edge \(0, 1\)"):
            solve(3, edges)


def test_known_small_values():
    assert maxcut_exact(5, cycle_graph(5).simple_pairs()).size == 4
    assert maxcut_exact(6, cycle_graph(6).simple_pairs()).size == 6
    assert maxcut_exact(3, complete_graph(3).simple_pairs()).size == 2
    assert maxcut_exact(4, complete_graph(4).simple_pairs()).size == 4
    assert maxcut_exact(3, []).size == 0


def test_cut_is_reported_lexicographically_first():
    """Vertex 0 is pinned to side 0 and ties break toward smaller vectors."""
    cut = maxcut_exact(4, cycle_graph(4).simple_pairs())
    assert cut.side == (0, 1, 0, 1)
    repeat = maxcut_exact(4, cycle_graph(4).simple_pairs())
    assert repeat.side == cut.side


def test_cut_splits_add_over_components():
    g = disjoint_union(complete_graph(3), complete_graph(3))
    assert maxcut_exact(g.n, g.simple_pairs()).size == 4


def test_exact_solver_rejects_oversized_instances():
    with pytest.raises(ValueError):
        maxcut_exact(EXACT_LIMIT + 1, [])
    with pytest.raises(ValueError):
        maxcut_exact(3, [(0, 3)])


def test_edwards_bound_values():
    b = EdwardsBound(3)
    assert b.met_by(2)
    assert not b.met_by(1)
    assert EdwardsBound(0).met_by(0)
    with pytest.raises(ValueError):
        EdwardsBound(-1)


def test_edwards_integer_form_brackets_the_float_form():
    # met_by must agree with the real-number inequality away from ties
    for m in range(0, 60):
        b = EdwardsBound(m)
        low = next(c for c in range(m + 1) if b.met_by(c))
        assert all(b.met_by(c) for c in range(low, m + 1))
        assert low - 1 < m / 2 + (math.sqrt(8 * m + 1) - 1) / 8 <= low + 1e-9


def test_k3_meets_edwards_with_equality():
    g = complete_graph(3)
    size = maxcut_exact(3, g.simple_pairs()).size
    assert size == 3 / 2 + (math.sqrt(8 * 3 + 1) - 1) / 8
    assert EdwardsBound(3).met_by(size) and not EdwardsBound(3).met_by(size - 1)


def test_heuristic_cut_always_meets_the_guarantee():
    rng = random.Random(17)
    for trial in range(25):
        n = rng.randint(2, 14)
        g = random_graph(n, rng.randint(1, 2 * n), seed=500 + trial)
        edges = g.simple_pairs()
        cut = maxcut_edwards(n, edges)
        assert cut_value(edges, cut.side) == cut.size
        assert EdwardsBound(len(edges)).met_by(cut.size)


def test_heuristic_works_past_the_exact_limit():
    g = random_graph(40, 120, seed=2)
    cut = maxcut_edwards(g.n, g.simple_pairs())
    assert EdwardsBound(g.m).met_by(cut.size)
    assert len(cut.side) == 40


def test_heuristic_handles_the_empty_graph():
    assert maxcut_edwards(4, []).size == 0


def test_heuristic_cuts_each_component_on_its_own():
    # Two components and an isolated vertex, interleaved in label order.
    comp_a = [1, 4, 6, 7, 9]
    comp_b = [0, 2, 3, 5, 8, 11]
    edges_a = [(1, 4), (4, 6), (6, 1), (6, 7), (7, 9), (9, 1), (4, 9)]
    edges_b = [(0, 2), (2, 3), (3, 0), (3, 5), (5, 8), (8, 11), (11, 0), (2, 8)]
    cut = maxcut_edwards(12, edges_a + edges_b)
    assert len(cut.side) == 12
    for comp, edges in ((comp_a, edges_a), (comp_b, edges_b), ([10], [])):
        assert cut.side[min(comp)] == 0
        assert EdwardsBound(len(edges)).met_by(cut_value(edges, cut.side))
    assert cut.size == cut_value(edges_a, cut.side) + cut_value(edges_b, cut.side)
    assert cut.size == cut_value(edges_a + edges_b, cut.side)


def grid_edges(rows, cols):
    """Cell (r, c) is vertex r * cols + c."""
    right = [(v, v + 1) for v in range(rows * cols) if v % cols < cols - 1]
    down = [(v, v + cols) for v in range(rows * cols - cols)]
    return right + down


BIPARTITE = {
    "path": (5, [(3, 1), (1, 4), (4, 0), (0, 2)]),
    "star": (6, [(5, v) for v in range(5)]),
    "tree": (7, [(0, 3), (3, 6), (3, 1), (6, 2), (2, 5), (4, 2)]),
    "even-cycle": (8, cycle_graph(8).simple_pairs()),
    "Q3": (8, [(v, v ^ bit) for v in range(8) for bit in (1, 2, 4) if v < v ^ bit]),
    "grid": (12, grid_edges(3, 4)),
    "K3,3": (6, [(u, v) for u in (0, 2, 4) for v in (1, 3, 5)]),
}


@pytest.mark.parametrize("name", sorted(BIPARTITE))
@pytest.mark.parametrize("solve", [maxcut_exact, maxcut_edwards])
def test_bipartite_components_are_cut_whole(solve, name):
    n, edges = BIPARTITE[name]
    cut = solve(n, edges)
    assert cut == first_maximum_cut(n, edges) and cut.size == len(edges)
    # Next to a triangle and an isolated vertex, relabelled so that the
    # components interleave: the bipartite part keeps its first maximum cut.
    perm = list(range(n + 4))
    random.Random(name).shuffle(perm)
    mixed = [(perm[u], perm[v]) for u, v in edges + [(n, n + 1), (n + 1, n + 2), (n + 2, n)]]
    cut, first = solve(n + 4, mixed), first_maximum_cut(n + 4, mixed)
    assert [cut.side[perm[v]] for v in range(n)] == [first.side[perm[v]] for v in range(n)]
    assert cut.size == cut_value(mixed, cut.side)
    if solve is maxcut_exact:
        assert cut == first


# Side vectors and sizes of the Edwards heuristic on random_graph(n, m,
# seed), recorded before its greedy and 1-flip counts became incremental.
EDWARDS_PINS = {
    (8, 14, 1): ("01101001", 10),
    (12, 30, 2): ("011010110110", 23),
    (16, 24, 3): ("0011000010111000", 20),
    (20, 60, 4): ("00001001110110111100", 45),
    (24, 40, 5): ("000011010011000111010000", 30),
    (33, 70, 6): ("001100100111100001011110100011101", 55),
    (40, 120, 7): ("0001110011011000111110111001101000100100", 83),
    (48, 90, 8): ("001110100110101011000011000110111100111000000011", 70),
}


@pytest.mark.parametrize("n, m, seed", sorted(EDWARDS_PINS))
def test_heuristic_cuts_are_pinned(n, m, seed):
    cut = maxcut_edwards(n, random_graph(n, m, seed).simple_pairs())
    assert ("".join(map(str, cut.side)), cut.size) == EDWARDS_PINS[(n, m, seed)]
