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
