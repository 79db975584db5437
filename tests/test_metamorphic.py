"""Metamorphic checks of ``cr_exact``: relations between the answers on
related graphs, which need no known crossing number.

Crossing numbers do not depend on the labelling, so relabelling a graph
keeps the bracket and the argument behind its lower bound, solved with no
seed or with a seed carried across by the same bijection.  Deleting an edge
instance never raises the crossing number: any drawing of G, less that
edge, draws G - e.  Subdividing an edge instance keeps it: a drawing of
either graph draws the other with its crossings.  The cone sits between
the two: cr(G) <= cr(cone G), since cone G contains G, and
cr(cone G) <= the 1-page crossing number of G, since the apex joins a
1-page drawing from the outer face with no crossing.  So does the 2-page
crossing number: a 2-page drawing is a drawing, and a 1-page drawing is
a 2-page one with an empty page.  Crossing numbers add over a disjoint
union, and so do those of its cone, which is the one-point union of the
parts' cones at the apex (crossing numbers add over blocks).

The graphs are hypothesis-drawn multigraphs on up to 7 vertices with
parallel copies, up to 5 for the cone and 4 for each part of a union.
The runs are derandomized, so every run of the suite draws the same
examples.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from conecross import (
    CrossingCertificate,
    Multigraph,
    certificate_from_book,
    cone_cr,
    cr_exact,
    disjoint_union,
    one_page_drawing,
    outerplanar_cr,
    subdivide_edge,
    two_page_cr,
)

# At most 15 distinct pairs and 3 extra copies keep every solve exact and
# quick: each check's 200 examples take under 2 s.
MAX_PAIRS = 15
MAX_COPIES = 3
CHECKS = settings(derandomize=True, database=None, max_examples=200, deadline=None)


@st.composite
def multigraphs(draw, min_instances=0, max_n=7):
    """A multigraph on 1-``max_n`` vertices (2 or more with an instance
    required): a random set of pairs, some of them with parallel copies."""
    # Drawn as the vertices and pairs left out, so the draws lean dense.
    n = max_n - draw(st.integers(0, max_n - (2 if min_instances else 1)))
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


@CHECKS
@given(st.data())
def test_subdividing_an_edge_keeps_the_crossing_number(data):
    g = data.draw(multigraphs(min_instances=1))
    eid = data.draw(st.integers(0, g.m - 1))
    assert answer(cr_exact(subdivide_edge(g, eid)))[:2] == answer(cr_exact(g))[:2]


# Cones of dense 7-vertex draws take seconds each: the cone check stops at 5.
@CHECKS
@given(multigraphs(max_n=5))
def test_the_cone_lies_between_the_graph_and_its_one_page_drawings(g):
    cone = cone_cr(g)
    assert cone.status == "exact"
    assert cr_exact(g).value <= cone.value <= outerplanar_cr(g).value


@CHECKS
@given(multigraphs())
def test_two_page_drawings_lie_between_the_graph_and_its_one_page_drawings(g):
    one, two = outerplanar_cr(g), two_page_cr(g)
    assert one.status == two.status == "exact"
    assert cr_exact(g).value <= two.value <= one.value


@CHECKS
@given(st.data())
def test_crossing_numbers_add_over_a_disjoint_union(data):
    g = data.draw(multigraphs(max_n=4))
    h = data.draw(multigraphs(max_n=4))
    # Relabelled, so the parts' vertices interleave.
    union = disjoint_union(g, h)
    union = union.relabel(data.draw(st.permutations(range(union.n))))
    assert cr_exact(union).value == cr_exact(g).value + cr_exact(h).value
    cones = [cone_cr(graph) for graph in (union, g, h)]
    assert all(res.status == "exact" for res in cones)
    assert cones[0].value == cones[1].value + cones[2].value
