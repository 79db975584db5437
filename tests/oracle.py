"""An answer check that shares no planarity code with the library.

``verify_certificate`` runs the in-house left-right test on the
planarization; networkx's own planarity test on the same planarization is
the second, independent opinion.
"""

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
