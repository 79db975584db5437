"""Answer checks that share no planarity code with the library.

``verify_certificate`` runs the in-house left-right test on the
planarization; networkx's own planarity test on the same planarization is
the second, independent opinion.  ``brute_force_cr`` is an independent
lower bound: it tries every good drawing up to a crossing count, with no
pruning, by networkx's test alone.
"""

import itertools

import networkx as nx

from conecross import planarize, verify_certificate


def assert_drawing(g, cert, crossings):
    """``cert`` is a realizable drawing of ``g`` with ``crossings`` crossings,
    according to both planarity tests."""
    assert verify_certificate(g, cert) == (crossings, True)
    h = planarize(g, cert)
    planar, _ = nx.check_planarity(nx.Graph(h.simple_pairs()))
    assert planar


def nx_planar(g, without=()):
    """Whether ``g`` minus the edge instances ``without`` is planar,
    according to networkx."""
    gone = set(without)
    pairs = [(u, v) for eid, (u, v, _) in enumerate(g.instances()) if eid not in gone]
    simple = nx.Graph(pairs)
    simple.add_nodes_from(range(g.n))
    return nx.check_planarity(simple)[0]


def brute_force_cr(g, cap):
    """The least k <= ``cap`` for which some k distinct pairs of
    non-adjacent edge instances of ``g``, with some order of the crossings
    along each edge crossed twice or more, planarize ``g`` by networkx's
    test; None if no k up to ``cap`` does.

    Some drawing with cr(g) crossings is good (no adjacent or repeated
    pairs cross), so the least such k is cr(g) whenever it is at most
    ``cap``.  The crossing of chosen pair c is vertex n + c.
    """
    insts = g.instances()
    pairs = [
        (e, f) for e, f in itertools.combinations(range(len(insts)), 2)
        if not set(insts[e][:2]) & set(insts[f][:2])
    ]
    for k in range(cap + 1):
        for chosen in itertools.combinations(pairs, k):
            on = [[] for _ in insts]
            for c, (e, f) in enumerate(chosen):
                on[e].append(g.n + c)
                on[f].append(g.n + c)
            for along in itertools.product(*(itertools.permutations(xs) for xs in on)):
                h = nx.Graph()
                h.add_nodes_from(range(g.n + k))
                for (u, v, _), inner in zip(insts, along):
                    path = [u, *inner, v]
                    h.add_edges_from(zip(path, path[1:]))
                if nx.check_planarity(h)[0]:
                    return k
    return None
