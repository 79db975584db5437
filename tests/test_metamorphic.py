"""Metamorphic checks of ``cr_exact``: relations between the answers on
related graphs, which need no known crossing number.

Crossing numbers do not depend on the labelling, so relabelling a graph
keeps the bracket and the argument behind its lower bound, solved with no
seed or with a seed carried across by the same bijection.  Deleting an edge
instance never raises the crossing number: any drawing of G, less that
edge, draws G - e.

The graphs are hypothesis-drawn multigraphs on up to 7 vertices with
parallel copies.  The runs are derandomized, so every run of the suite
draws the same examples.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from conecross import (
    CrossingCertificate,
    Multigraph,
    certificate_from_book,
    cr_exact,
    one_page_drawing,
)

# At most 15 distinct pairs and 3 extra copies keep every solve exact and
# quick: each check's 200 examples take under 2 s.
MAX_PAIRS = 15
MAX_COPIES = 3
CHECKS = settings(derandomize=True, database=None, max_examples=200, deadline=None)


@st.composite
def multigraphs(draw, min_instances=0):
    """A multigraph on 1-7 vertices: a random set of pairs, some of them
    with parallel copies."""
    # Drawn as the vertices and pairs left out, so the draws lean dense.
    n = 7 - draw(st.integers(0, 5 if min_instances else 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    draw(st.randoms(use_true_random=False)).shuffle(pairs)
    simple = pairs[:min(MAX_PAIRS, len(pairs) - draw(st.integers(0, len(pairs) - min_instances)))]
    copies = draw(st.lists(st.sampled_from(simple), max_size=MAX_COPIES)) if simple else []
    return Multigraph.build(n, simple + copies)


def carried(g, h, perm, cert):
    """``cert``, a certificate of g, as one of h = g relabelled by ``perm``.

    Crossing orders run from an edge's smaller end, so an edge whose ends
    swap order under ``perm`` has its order reversed.  The benchmark's
    ``map_certificate`` does the same; tier-1 does not import ``bench/``."""
    ids, flipped = [], []
    for u, v, copy in g.instances():
        a, b = perm[u], perm[v]
        ids.append(h.instance_id(min(a, b), max(a, b), copy))
        flipped.append(a > b)
    orders = {
        ids[eid]: list(reversed(seq)) if flipped[eid] else list(seq)
        for eid, seq in cert.edge_orders
    }
    return CrossingCertificate.build([(ids[e], ids[f]) for e, f in cert.crossings], orders)


def answer(res):
    return res.lower, res.upper, res.lower_reason


@CHECKS
@given(st.data())
def test_relabelling_keeps_the_bracket_and_its_reason(data):
    g = data.draw(multigraphs())
    perm = data.draw(st.permutations(range(g.n)))
    h = g.relabel(perm)
    plain = answer(cr_exact(g))
    assert plain[0] == plain[1]
    assert answer(cr_exact(h)) == plain
    if len(g.components()) == 1:
        seed = certificate_from_book(one_page_drawing(g))
        seeded = answer(cr_exact(g, upper_seed=(seed.count, seed)))
        assert seeded[:2] == plain[:2]
        moved = carried(g, h, perm, seed)
        assert answer(cr_exact(h, upper_seed=(moved.count, moved))) == seeded


@CHECKS
@given(st.data())
def test_deleting_an_edge_never_raises_the_crossing_number(data):
    g = data.draw(multigraphs(min_instances=1))
    x, y, _ = g.instances()[data.draw(st.integers(0, g.m - 1))]
    kept = [(u, v, mult - ((u, v) == (x, y))) for u, v, mult in g.edges]
    smaller = Multigraph.build(g.n, [edge for edge in kept if edge[2]])
    assert smaller.m == g.m - 1
    assert cr_exact(smaller).value <= cr_exact(g).value
