"""Book drawings: spine orders, page assignments, crossing counts."""

import itertools
import math
import random
import re

import pytest

from conecross import (
    BookDrawing,
    CyclicOrder,
    Multigraph,
    canonical_orders,
    circle_graph,
    complete_graph,
    count_crossings,
    cycle_graph,
    one_page_drawing,
    random_graph,
)
from conecross.maxcut import cut_value


def test_cyclic_order_validation():
    with pytest.raises(ValueError):
        CyclicOrder((0, 0, 1))
    with pytest.raises(ValueError):
        CyclicOrder((1, 2, 3))
    assert CyclicOrder.natural(4).seq == (0, 1, 2, 3)
    assert CyclicOrder(()).n == 0


def rotation_reflection_class(seq):
    """The smallest of the 2n rotations and reflections of seq."""
    turns = [seq[i:] + seq[:i] for i in range(len(seq))]
    return min(turns + [t[::-1] for t in turns])


def test_canonical_form_fixes_rotation_and_reflection():
    # canonical_orders yields one order per class of all n! sequences.
    for n in range(1, 8):
        classes = {rotation_reflection_class(p) for p in itertools.permutations(range(n))}
        orders = [o.seq for o in canonical_orders(n)]
        assert len(orders) == len(set(orders)) == len(classes), n
        assert {rotation_reflection_class(seq) for seq in orders} == classes, n


def test_position_map_inverts_the_sequence():
    order = CyclicOrder((2, 0, 3, 1))
    pos = order.position_map()
    assert [order.seq[pos[v]] for v in range(4)] == [0, 1, 2, 3]


def test_canonical_orders_counts():
    """(n-1)!/2 circular orders once rotation and reflection are gone."""
    assert len(list(canonical_orders(5))) == 12
    assert len(list(canonical_orders(4))) == 3
    assert len(list(canonical_orders(3))) == 1
    assert len(list(canonical_orders(2))) == 1
    for n in (5, 6):
        orders = list(canonical_orders(n))
        assert len(set(orders)) == math.factorial(n - 1) // 2
        assert all(o.seq[0] == 0 for o in orders)


def test_interleaves_on_the_natural_hexagon():
    def cross(e, f):
        g = Multigraph.build(6, [e, f])
        pairs = one_page_drawing(g).crossing_pairs()
        assert pairs in ([], [(0, 1)])
        return bool(pairs)

    assert cross((0, 3), (1, 4))
    assert cross((0, 3), (2, 5))
    assert not cross((0, 1), (2, 3))
    assert not cross((0, 3), (1, 3))  # shared endpoint
    assert not cross((0, 2), (3, 5))


def test_book_drawing_validation():
    g = complete_graph(3)
    with pytest.raises(ValueError):
        BookDrawing(g, CyclicOrder.natural(4), (0, 0, 0))
    with pytest.raises(ValueError):
        BookDrawing(g, CyclicOrder.natural(3), (0, 0))
    with pytest.raises(ValueError):
        BookDrawing(g, CyclicOrder.natural(3), (0, -1, 0))
    d = BookDrawing(g, CyclicOrder.natural(3), (0, 1, 0))
    assert d.page_count == 2


def test_page_count_counts_the_pages_in_use():
    # Page indices need not be consecutive: edges on pages 0 and 2 use two.
    d = BookDrawing(complete_graph(5), CyclicOrder.natural(5), (0, 2) * 5)
    assert d.page_count == 2
    empty = BookDrawing(Multigraph(3, ()), CyclicOrder.natural(3), ())
    assert empty.page_count == 1


def test_one_page_k4_has_one_crossing():
    d = one_page_drawing(complete_graph(4))
    assert count_crossings(d) == 1
    assert d.crossing_pairs() == [(1, 4)]  # instance ids of (0,2) and (1,3)


def test_one_page_complete_graphs_count_four_subsets():
    # convex position: every 4 vertices contribute exactly one crossing
    for n in (5, 6, 7):
        expected = math.comb(n, 4)
        for order in list(canonical_orders(n))[:12]:
            d = one_page_drawing(complete_graph(n), order)
            assert count_crossings(d) == expected


def test_crossings_invariant_under_rotation_and_reflection():
    rng = random.Random(3)
    for trial in range(25):
        g = random_graph(8, rng.randint(0, 20), seed=trial)
        seq = list(range(8))
        rng.shuffle(seq)
        shift = rng.randrange(8)
        counts = {
            count_crossings(one_page_drawing(g, CyclicOrder(tuple(s))))
            for s in (seq, seq[shift:] + seq[:shift], seq[::-1])
        }
        assert len(counts) == 1


def test_circle_graph_vertices_are_instances():
    g = complete_graph(4)
    # Instances 1 and 4 of K4's six are the chords (0, 2) and (1, 3).
    assert circle_graph(g, CyclicOrder.natural(4)) == [(1, 4)]


def test_circle_graph_refuses_an_order_of_the_wrong_size():
    for size in (3, 6):
        with pytest.raises(ValueError, match="^order size does not match vertex count$"):
            circle_graph(complete_graph(5), CyclicOrder.natural(size))


def test_circle_graph_edge_count_equals_one_page_crossings():
    rng = random.Random(11)
    for trial in range(40):
        n = rng.randint(3, 9)
        g = random_graph(n, rng.randint(0, 2 * n), seed=100 + trial)
        seq = list(range(n))
        rng.shuffle(seq)
        order = CyclicOrder(tuple(seq))
        assert len(circle_graph(g, order)) == count_crossings(one_page_drawing(g, order))


def test_cut_size_counts_separated_pairs():
    g = complete_graph(5)
    edges = circle_graph(g, CyclicOrder.natural(5))
    all_one_side = cut_value(edges, (0,) * g.m)
    assert all_one_side == 0
    # any balanced assignment leaves at most the uncut pairs in place
    side = tuple(i % 2 for i in range(g.m))
    assert 0 < cut_value(edges, side) <= len(edges)


def test_parallel_copies_on_one_page_do_not_cross_each_other():
    g = Multigraph.build(4, [(0, 2, 2), (1, 3)])
    d = one_page_drawing(g)
    # both copies of (0,2) interleave with (1,3); the copies themselves share ends
    assert count_crossings(d) == 2


def interleaving_pairs(d):
    """Brute-force oracle for ``crossing_pairs``: every pair of instances
    on one page, tested for interleaving around the circle."""
    insts = d.graph.instances()
    pos = d.order.position_map()
    n = d.graph.n
    out = []
    for i, (a, b, _) in enumerate(insts):
        span = (pos[b] - pos[a]) % n
        for j in range(i + 1, len(insts)):
            c, e, _ = insts[j]
            if d.pages[j] != d.pages[i] or {a, b} & {c, e}:
                continue
            if ((pos[c] - pos[a]) % n < span) != ((pos[e] - pos[a]) % n < span):
                out.append((i, j))
    return out


def test_crossing_pairs_match_the_brute_force_oracle():
    rng = random.Random(29)
    for trial in range(300):
        n = rng.randint(0, 9)
        # Some vertices stay isolated; repeats of a pair become parallel copies.
        pairs = [rng.sample(range(n), 2) for _ in range(rng.randint(0, 3 * n))] if n >= 2 else []
        pairs += [pairs[i % len(pairs)] for i in range(rng.randint(0, 4))] if pairs else []
        g = Multigraph.build(n, pairs)
        seq = list(range(n))
        rng.shuffle(seq)
        n_pages = rng.randint(1, 3)
        d = BookDrawing(g, CyclicOrder(tuple(seq)), tuple(rng.randrange(n_pages) for _ in range(g.m)))
        want = interleaving_pairs(d)
        assert d.crossing_pairs() == want, trial
        assert count_crossings(d) == len(want), trial
        if n_pages == 1:
            assert circle_graph(g, d.order) == want, trial


@pytest.mark.parametrize("labels", [(2,), (0, 2), (1, 3, 5)])
def test_crossings_match_the_oracle_on_page_labels_not_from_0(labels):
    # The oracle test above draws page labels from range(n_pages); these
    # skip 0 or leave gaps, so a one-page shortcut that assumes labels
    # 0..k-1 shows.
    rng = random.Random(sum(labels))
    for trial in range(100):
        n = rng.randint(2, 9)
        g = Multigraph.build(n, [rng.sample(range(n), 2) for _ in range(rng.randint(0, 3 * n))])
        seq = list(range(n))
        rng.shuffle(seq)
        d = BookDrawing(g, CyclicOrder(tuple(seq)), tuple(rng.choice(labels) for _ in range(g.m)))
        want = interleaving_pairs(d)
        masks = [0] * g.m
        for i, j in want:
            masks[i] |= 1 << j
        assert d.crossing_masks() == masks, trial
        assert d.crossing_pairs() == want, trial
        assert count_crossings(d) == len(want), trial
        if len(labels) == 1:
            assert circle_graph(g, d.order) == want, trial


def test_book_json_round_trip():
    g = complete_graph(4)
    d = BookDrawing(g, CyclicOrder((1, 3, 0, 2)), (0, 1, 0, 1, 0, 1))
    again = BookDrawing.from_json(d.to_json())
    assert again == d
    assert again.page_count == 2


@pytest.mark.parametrize(
    "change, field",
    [
        (lambda data: [data], "top level"),
        (lambda data: {**data, "graph": None}, "top level"),
        (lambda data: {**data, "order": [0, 1.9, 2, 3]}, "order"),
        (lambda data: {**data, "pages": {**data["pages"], "0": 0.5}}, "pages"),
        (lambda data: {**data, "pages": {**data["pages"], "1": True}}, "pages"),
    ],
    ids=["list", "graph-null", "float-order", "float-page", "bool-page"],
)
def test_json_reader_refuses_what_is_not_a_book_of_integers(change, field):
    d = BookDrawing(complete_graph(4), CyclicOrder((1, 3, 0, 2)), (0, 1, 0, 1, 0, 1))
    with pytest.raises(ValueError, match=field):
        BookDrawing.from_json_dict(change(d.to_json_dict()))


@pytest.mark.parametrize("key", ["1_0", " 1 ", "+1", "-1", "01", "", "1.0", "\u0661"])
def test_book_reader_takes_only_canonical_edge_ids(key):
    data = BookDrawing(complete_graph(4), CyclicOrder((1, 3, 0, 2)), (0,) * 6).to_json_dict()
    data["pages"] = {**{str(i): 0 for i in (0, 2, 3, 4, 5)}, key: 1}
    with pytest.raises(ValueError, match=f"^pages: key {re.escape(repr(key))}"):
        BookDrawing.from_json_dict(data)


def test_book_reader_refuses_a_list_map_and_a_page_map_with_a_gap():
    data = BookDrawing(complete_graph(4), CyclicOrder((1, 3, 0, 2)), (0,) * 6).to_json_dict()
    with pytest.raises(ValueError, match="^pages: a list is not a JSON object$"):
        BookDrawing.from_json_dict({**data, "pages": [0] * 6})
    del data["pages"]["5"]
    with pytest.raises(ValueError, match="^pages must cover edge ids 0..M-1$"):
        BookDrawing.from_json_dict(data)
    data["pages"]["6"] = 0
    with pytest.raises(ValueError, match="^pages must cover edge ids 0..M-1$"):
        BookDrawing.from_json_dict(data)
