"""Exact crossing numbers by iterative-deepening certificate search.

The solver asks, for k = lower bound, lower+1, ...: is there a realizable
certificate with exactly k crossings?  A level is decided by depth-first
search over partial certificates.  At each node the partial planarization
H is tested; if H is planar the partial certificate is already a drawing,
and otherwise H contains a subdivision of K5 or K33 whose edges must be
crossed by any completion, so it suffices to branch on crossing pairs
drawn from the hosts of one such subdivision.  Branch i keeps pair i and
forbids pairs 1..i-1 in its subtree, which makes the enumeration
duplicate-free without losing completions.

Prunes, all sound:
  - Euler bound of the partial planarization exceeding the remaining
    crossing budget (a completion would draw H with that few crossings);
  - with one crossing left, both of its hosts must individually restore
    planarity when deleted, so candidates shrink to the set U of hosts h
    with H - h planar (h's whole chain deleted).  U is resolved in branch
    order: the node yields its pairs in sorted order and settles a host
    only when that order reaches it, by group testing: one test deletes
    the host's block of HOST_BLOCK hosts at once, and only a planar
    result is halved towards the host, since H - h contains H - S for
    every h in S.  A block is tested at most once per node, so a dead
    node pays at most the tests that settle all of U, and a live node
    stops testing once its caller takes a hit.  A host whose later
    non-adjacent hosts are all known to lie outside U starts no pair and
    is not tested.  U lies inside any greedy host set K (a host outside
    K leaves the non-planar K intact), so U is K filtered by single
    deletions, found here with about a third of the tests;
  - certificates inherit the good-drawing restrictions (no adjacent or
    repeated pairs), which some optimal drawing always satisfies;
  - ``cr_exact`` skips root branch j when an automorphism sigma of G maps
    an earlier root pair c_i (i < j) onto c_j; branch j still forbids
    every earlier pair, skipped ones included.  A certificate C whose
    first root pair is c_j has the realizable image sigma^-1(C), which
    crosses c_i and so belongs to a branch of lower index.  Indices only
    go down, so this ends at a searched branch, and the lowest-index hit
    is never skipped: the bracket and the certificate stay the same.
    The argument holds for any set of automorphisms, so the generators
    found before the deadline suffice.  A drawing stream (``cr_exact``'s
    ``until``, ``cr_certificates``) wants every drawing of the level,
    images included, so the skip ends at the first hit: while no earlier
    branch holds a drawing, neither does one that an automorphism maps
    from an earlier branch;
  - a counting bound (Kleitman's method) sets the start level of a
    component whose verified upper seed U lies above it.  Some optimal
    drawing is good, so each of its crossings lies on two distinct edges
    with four distinct ends, and it survives deleting any of the other
    n - 4 vertices or m - 2 edge instances.  Hence
    sum_v cr(G - v) <= (n - 4) cr(G) and sum_e cr(G - e) <= (m - 2) cr(G),
    and cr(G) >= ceil(sum_x lb(G - x) / div) for any proven bounds lb.
    Deletions in one orbit of the automorphisms found are isomorphic, so
    one sub-search per orbit, weighted by the orbit's size, gives them
    all.  The count aims at U: when U > cr(G) it cannot close, and the
    level search takes over from whatever it proved.

The search at a level is one generator, ``_LevelSearch.hits``, that
yields realizable certificates with distinct crossing sets in a fixed
order.  ``cr_exact`` takes its first hit and, given an ``until`` test,
drains the same generator to the test's first True or the level's end,
so a caller acts on each optimal drawing as the level's one search finds
it; ``cr_certificates`` lists a whole level.  The generator closes the
root orbits as branches start, from the second branch on: a pair inside
the orbits closed so far is skipped, and any other adds its orbit.  So a
level whose first branch hits pays nothing for them, and no root pair is
drawn ahead of its branch (with one crossing left, drawing a pair tests
its hosts).

Every level search of ``cr_exact`` runs in one deepening loop,
``_deepen``, which ends at the first level with a hit, the first level
cut short, or a stop.  One ``_LevelSearch`` serves all levels of a
graph: they share one set of partner lists and one set of automorphism
generators, found on first use and read by the count too, and a level
with no hit proves G non-planar, so no later level tests the root again.
Its counters are the component solve's work, the count's sub-searches
included.
A component solve (``solve_component``, shared by ``cr_exact`` and by
``cone_cr`` for a cone above its floor) runs it once, from the count's
bound if higher, up to the seed's count or ``max_k`` + 1; the count runs
it on each component of G - x up to the level that U needs on average.
No solve starts below a component's Euler bound, and none needs to: at
such a level r the root is non-planar and closes at once, with no
crossing left at r = 0 and otherwise by its Euler cut
simple_m - 3n + 6 > r, whose left side is that bound.  So a lower start
adds one root node per level and changes no bracket and no certificate.
Levels below the first success are exhausted, so the found level is the
crossing number.  Each drawing is verified once: a seed where it enters,
a search hit or the natural drawing before the component solve returns
it, and the sum of several components where ``combine_brackets`` lifts
them.
"""

from __future__ import annotations

import math
import time
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

from .certificates import (
    CrossingCertificate,
    SolveResult,
    SolveStats,
    certificate_from_book,
    combine_brackets,
    verify_certificate,
)
from .books import one_page_drawing
from .graphs import Multigraph, automorphism_generators, orbit
from .deadline import Deadline, require_one_thread
from .planarity import lr_planar

# Hosts deleted together by the first group test at a one-crossing-left node.
HOST_BLOCK = 4


def _euler(sub: Multigraph) -> int:
    """Euler bound max(0, m' - 3n + 6) of a connected graph, simplified."""
    return max(0, len(sub.edges) - 3 * sub.n + 6) if sub.n >= 3 else 0


def cr_lower(g: Multigraph) -> int:
    """Sum of per-component Euler bounds."""
    return sum(_euler(sub) for sub, _ in g.component_subgraphs())


def _partners(ends: list[tuple[int, int]]) -> list[list[int]]:
    """For each host e, the later hosts f > e that share no end with e:
    the hosts e can be crossed with in a good drawing."""
    return [
        [f for f in range(e + 1, len(ends))
         if ends[f][0] != u and ends[f][0] != v and ends[f][1] != u and ends[f][1] != v]
        for e, (u, v) in enumerate(ends)
    ]


class _LevelSearch:
    """Depth-first search of one graph's levels: ``hits(r)`` yields the
    certificates with exactly ``r`` crossings.

    The exclusion discipline makes the certificates it yields free of
    rediscoveries across sibling branches.  ``nodes`` and ``planarity``
    count the nodes entered and the planarity tests made over all levels,
    and the work of the counting bound's sub-searches when it runs on
    this search.  ``generators`` is found once, on first use, for the
    root skip of every level and for the count.
    """

    def __init__(self, g: Multigraph, deadline: Deadline):
        self.g = g
        self.deadline = deadline
        self.r = 0
        self.root_nonplanar = False
        self.nodes = 0
        self.planarity = 0
        self.out_of_time = False

    @cached_property
    def ends(self) -> list[tuple[int, int]]:
        return [(u, v) for u, v, _ in self.g.instances()]

    @cached_property
    def partners(self) -> list[list[int]]:
        """partners[e]: the hosts f > e that share no end with e."""
        return _partners(self.ends)

    @cached_property
    def generators(self) -> list[tuple[int, ...]]:
        """Automorphisms of g that generate Aut(g), or those found before
        the deadline: the root skip and the count hold for any set."""
        return list(automorphism_generators(self.g, self.deadline.expired))

    @cached_property
    def moves(self) -> list[list[int]]:
        """The generators' action on instance ids."""
        index = self.g.instance_index()
        insts = self.g.instances()
        return [
            [index[(min(p[u], p[v]), max(p[u], p[v]), copy)] for u, v, copy in insts]
            for p in self.generators
        ]

    # -- planarization plumbing ------------------------------------------

    def _pairs(
        self,
        chains: dict[int, list[int]],
        skip: frozenset[int] = frozenset(),
    ) -> list[tuple[int, int]]:
        n = self.g.n
        pairs: list[tuple[int, int]] = []
        for eid, (u, v) in enumerate(self.ends):
            if eid in skip:
                continue
            chain = chains.get(eid)
            if not chain:
                pairs.append((u, v))
                continue
            prev = u
            for idx in chain:
                pairs.append((prev, n + idx))
                prev = n + idx
            pairs.append((prev, v))
        return pairs

    def _planar(self, n_extra: int, pairs: list[tuple[int, int]]) -> bool:
        self.planarity += 1
        return lr_planar(self.g.n + n_extra, pairs)

    # -- search -----------------------------------------------------------

    def hits(self, r: int) -> Iterator[CrossingCertificate]:
        """The realizable certificates with ``r`` crossings, in search order,
        with pairwise distinct crossing sets, until they are exhausted or the
        deadline passes (then ``out_of_time`` is set).  The root counts as
        one node.  Until the first hit, root branches that an automorphism
        maps from an earlier one are skipped.  One level at a time: a new
        call resets the level of any earlier generator."""
        self.r = r
        self.nodes += 1
        cert, cands = self.expand({}, [], frozenset())
        if cert is not None:
            yield cert
            return
        seen: set[tuple[tuple[int, int], ...]] = set()
        reached: set[tuple[int, int]] = set()
        tried: list[tuple[int, int]] = []
        for pair in cands:
            if tried and not seen:
                # Close the orbits of the branches started so far; the
                # first branch's orbit waits until a second one is due.
                reached = reached or orbit(tried[0], self.moves, _sorted_image)
                if pair in reached:
                    tried.append(pair)
                    continue
                reached |= orbit(pair, self.moves, _sorted_image)
            for cert in self.branch({}, [], frozenset(tried), pair):
                if cert.crossings not in seen:
                    seen.add(cert.crossings)
                    yield cert
            if self.out_of_time:
                return
            tried.append(pair)

    def expand(
        self,
        chains: dict[int, list[int]],
        crossings: list[tuple[int, int]],
        forbidden: frozenset[tuple[int, int]],
    ) -> tuple[CrossingCertificate | None, Iterable[tuple[int, int]]]:
        """A node's own drawing if its planarization is planar, else the
        crossing pairs to branch on, sorted (none: the node is a dead end).
        With one crossing left the pairs come from a generator that tests
        hosts only as the order reaches them."""
        s = len(crossings)
        pairs = self._pairs(chains)
        if (crossings or not self.root_nonplanar) and self._planar(s, pairs):
            return CrossingCertificate.build(list(crossings), chains), []
        self.root_nonplanar |= not crossings
        if s == self.r:
            return None, []
        remaining = self.r - s
        simple_m = len({(min(a, b), max(a, b)) for a, b in pairs})
        if simple_m - 3 * (self.g.n + s) + 6 > remaining:
            return None, []

        used = set(crossings)
        if remaining == 1:
            return None, self._one_left_pairs(chains, s, used, forbidden)
        usable = self._minimal_hosts(chains, s)
        keep = set(usable)
        return None, [
            (e, f) for e in usable for f in self.partners[e]
            if f in keep and (e, f) not in used and (e, f) not in forbidden
        ]

    def _node(
        self,
        chains: dict[int, list[int]],
        crossings: list[tuple[int, int]],
        forbidden: frozenset[tuple[int, int]],
    ) -> Iterator[CrossingCertificate]:
        self.nodes += 1
        if self.deadline.expired():
            self.out_of_time = True
            return
        cert, cands = self.expand(chains, crossings, forbidden)
        if cert is not None:
            yield cert
            return
        banned = set(forbidden)
        for pair in cands:
            yield from self.branch(chains, crossings, frozenset(banned), pair)
            if self.out_of_time:
                return
            banned.add(pair)

    def branch(
        self,
        chains: dict[int, list[int]],
        crossings: list[tuple[int, int]],
        forbidden: frozenset[tuple[int, int]],
        pair: tuple[int, int],
    ) -> Iterator[CrossingCertificate]:
        """Certificates below a node that cross ``pair`` next, over every
        placement of the new crossing along both hosts."""
        e, f = pair
        idx = len(crossings)
        chain_e = chains.get(e, [])
        chain_f = chains.get(f, [])
        for pe in range(len(chain_e) + 1):
            for pf in range(len(chain_f) + 1):
                next_chains = dict(chains)
                next_chains[e] = chain_e[:pe] + [idx] + chain_e[pe:]
                next_chains[f] = chain_f[:pf] + [idx] + chain_f[pf:]
                yield from self._node(next_chains, crossings + [pair], forbidden)
                if self.out_of_time:
                    return

    def _one_left_pairs(
        self,
        chains: dict[int, list[int]],
        n_extra: int,
        used: set[tuple[int, int]],
        forbidden: frozenset[tuple[int, int]],
    ) -> Iterator[tuple[int, int]]:
        """The pairs of hosts in U, sorted, with U resolved in that order.
        A host none of whose partners can still be in U starts no pair and
        is not tested."""
        inside: list[bool | None] = [None] * len(self.ends)
        planar_blocks: set[tuple[int, int]] = set()
        for e, later in enumerate(self.partners):
            if all(inside[f] is False for f in later):
                continue
            if not self._deletable(chains, n_extra, inside, planar_blocks, e):
                continue
            for f in later:
                pair = (e, f)
                if pair in used or pair in forbidden:
                    continue
                if self._deletable(chains, n_extra, inside, planar_blocks, f):
                    yield pair

    def _deletable(
        self,
        chains: dict[int, list[int]],
        n_extra: int,
        inside: list[bool | None],
        planar_blocks: set[tuple[int, int]],
        h: int,
    ) -> bool:
        """Whether deleting host h alone makes the planarization planar.

        Settled by group tests over h's block of ``HOST_BLOCK`` hosts,
        halved towards h on a planar result: a non-planar H - S rules out
        every host in S, since H - h contains it.  ``inside`` holds the
        node's settled hosts and ``planar_blocks`` its planar blocks, so
        no block is tested twice at one node."""
        m = len(self.ends)
        lo = h - h % HOST_BLOCK
        hi = min(lo + HOST_BLOCK, m)
        while inside[h] is None:
            if (lo, hi) not in planar_blocks:
                if not self._planar(n_extra, self._pairs(chains, frozenset(range(lo, hi)))):
                    inside[lo:hi] = [False] * (hi - lo)
                    break
                planar_blocks.add((lo, hi))
            if hi - lo == 1:
                inside[h] = True
                break
            mid = lo + (hi - lo) // 2
            lo, hi = (lo, mid) if h < mid else (mid, hi)
        return bool(inside[h])

    def _minimal_hosts(self, chains: dict[int, list[int]], n_extra: int) -> list[int]:
        """Hosts of an inclusion-minimal non-planar set of edge chains.

        Greedy single pass: drop each host whose removal keeps the rest
        non-planar.  What remains hosts a Kuratowski subdivision, and any
        completion must cross two of these hosts with each other.  Used
        only with two or more crossings left; with one left,
        ``_one_left_pairs`` tests the usable hosts directly.
        """
        removed: set[int] = set()
        for h in range(len(self.ends)):
            trial = frozenset(removed | {h})
            if not self._planar(n_extra, self._pairs(chains, trial)):
                removed.add(h)
        return [h for h in range(len(self.ends)) if h not in removed]


def _deepen(
    search: _LevelSearch,
    level: int,
    stop: float,
    until: Callable[[CrossingCertificate], bool] | None = None,
) -> tuple[int, CrossingCertificate | None]:
    """Search ``search``'s levels from ``level``, which must not exceed
    cr(g), below ``stop``: (the first level with a certificate, its first
    certificate), or (the first level left unexhausted, None), at ``stop``
    or the deadline; ``until`` sees the found level's hits up to one it
    accepts."""
    cert = None
    while level < stop and not search.deadline.expired():
        hits = search.hits(level)
        cert = next(hits, None)
        if cert is not None and cert.count != level:
            raise RuntimeError("search found a certificate below an exhausted level")
        if cert is not None and until is not None and not until(cert):
            next(filter(until, hits), None)
        if cert is not None or search.out_of_time:
            break
        level += 1
    return level, cert


def _sorted_image(p: Sequence[int], items: tuple[int, ...]) -> tuple[int, ...]:
    """The image of a sorted tuple of vertices or instances under ``p``."""
    return tuple(sorted(p[x] for x in items))


def _deletions(
    g: Multigraph, gens: list[tuple[int, ...]], vertices: bool
) -> Iterator[tuple[int, Multigraph]]:
    """(orbit size, G - x) for one x per orbit of ``gens`` on the vertices
    or, with ``vertices`` False, on the edge instances.  The copies of a
    parallel pair lie in one orbit: deleting any of them gives one graph."""
    mult = {(u, v): k for u, v, k in g.edges}
    # An item is a vertex (v,) or a pair (u, v); images keep the ends sorted.
    items = [(v,) for v in range(g.n)] if vertices else list(mult)
    seen: set[tuple[int, ...]] = set()
    for x in items:
        if x in seen:
            continue
        found = orbit(x, gens, _sorted_image)
        seen |= found
        if vertices:
            (w,) = x
            kept = [(a - (a > w), b - (b > w), k) for a, b, k in g.edges if w not in (a, b)]
            yield len(found), Multigraph.build(g.n - 1, kept)
        else:
            kept = [(a, b, k - ((a, b) == x)) for a, b, k in g.edges]
            yield sum(mult[e] for e in found), Multigraph.build(
                g.n, [edge for edge in kept if edge[2]]
            )


def _counting_lower(search: _LevelSearch, level: int, target: int) -> tuple[int, str]:
    """(bound, reason): ``level`` raised by the vertex and edge counts,
    which aim to prove cr(g) >= ``target``, and the count that raised it
    (empty if neither did).

    A count over items of one kind (``size`` of them) proves
    ceil(sum lb / div) and reaches ``target`` once the sum meets ``need``;
    ``cap`` is the per-item bound that gets there on average, and no
    sub-search goes past it.  A kind whose cap exceeds target - 1 is not
    tried, and the kind with the lower cap goes first (edges on a tie:
    G - v lies inside G - e for an edge e at v).  A kind stops once the
    sum meets ``need`` or its untried orbits, all at ``cap``, could not
    beat the current level.  A sub-search deepens each component of
    G - x while the components' sum is below ``cap``, and adds its work
    to ``search``; the orbits are those of ``search.generators``.
    """
    g = search.g
    kinds = []
    for vertices, size, div in ((False, g.m, g.m - 2), (True, g.n, g.n - 4)):
        if div < 1:
            continue
        need = div * (target - 1) + 1
        cap = -(-need // size)
        if cap <= target - 1:
            kinds.append((cap, vertices, size, div, need))
    kinds.sort(key=lambda kind: kind[0])
    reason = ""
    for cap, vertices, size, div, need in kinds:
        total, rest = 0, size
        for weight, h in _deletions(g, search.generators, vertices):
            if total >= need or search.deadline.expired():
                break
            if -(-(total + rest * cap) // div) <= level:
                break
            comps = [sub for sub, _ in h.component_subgraphs()]
            levels = [_euler(sub) for sub in comps]
            for i, sub in enumerate(comps):
                stop = cap - sum(levels) + levels[i]
                part = _LevelSearch(sub, search.deadline)
                levels[i], _ = _deepen(part, levels[i], stop)
                search.nodes += part.nodes
                search.planarity += part.planarity
            total += weight * sum(levels)
            rest -= weight
        if -(-total // div) > level:
            level = -(-total // div)
            reason = "vertex-count" if vertices else "edge-count"
        if level >= target:
            break
    return level, reason


def solve_component(
    g: Multigraph,
    max_k: int | None,
    deadline: Deadline,
    level: int,
    seed: CrossingCertificate | None = None,
    until: Callable[[CrossingCertificate], bool] | None = None,
) -> SolveResult:
    """Solve a connected ``g``: deepen from ``level``, which must not
    exceed cr(g), up to ``max_k`` + 1 or the ``seed`` drawing's count,
    whichever is lower; with a seed, start from the counting bound if
    higher, which aims at that same level.  ``until`` is as for
    ``cr_exact``.

    The caller verifies ``seed`` where it enters (``cr_exact`` checks its
    ``upper_seed``, ``cone_cr`` its cone seeds), so a seed that closes the
    bracket is returned unchecked; a search hit and the natural drawing
    are verified here."""
    search = _LevelSearch(g, deadline)
    reason = "euler"
    stop = math.inf if max_k is None else max_k + 1
    if seed is not None:
        stop = min(stop, seed.count)
        if stop > level:
            level, kind = _counting_lower(search, level, stop)
            reason = kind or reason
    lower, cert = _deepen(search, level, stop, until)
    if lower > level:
        reason = "search"
    # The natural convex drawing is always available.
    cert = cert or seed or certificate_from_book(one_page_drawing(g))
    if cert is not seed and not verify_certificate(g, cert)[1]:
        raise RuntimeError("the component's certificate does not verify")
    return SolveResult(lower, cert, SolveStats(search.nodes, search.planarity), reason)


def cr_exact(
    g: Multigraph,
    max_k: int | None = None,
    budget_ms: int | None = None,
    threads: int = 1,
    upper_seed: tuple[int, CrossingCertificate] | None = None,
    until: Callable[[CrossingCertificate], bool] | None = None,
) -> SolveResult:
    """Crossing number with certificate, or an honest bracket.

    Components are solved independently (crossings add over a disjoint
    union), each from its Euler bound.  ``max_k`` caps the deepening
    level per component, and the counting bound aims no higher than
    ``max_k + 1`` either; ``upper_seed``, for a connected graph only, is
    a known (value, certificate) pair, verified here once.  A seeded
    solve first tries to prove the seed's value by counting over vertex
    or edge deletions.  ``until``, for a connected graph only, sees each
    drawing of the level the search closes at, the returned one first,
    until it returns True or the level or the budget ends; the stats
    count that search.  ``threads`` must be 1: the search runs in this
    process, and the keyword goes once the benchmark stops passing it
    (ROADMAP item 1).
    """
    require_one_thread(threads)
    started = time.monotonic()
    deadline = Deadline(budget_ms)
    if max_k is not None and max_k < 0:
        raise ValueError(f"max_k={max_k}: must be None or >= 0")
    comps = g.component_subgraphs()
    for name, given in (("until", until), ("upper_seed", upper_seed)):
        if given is not None and len(comps) > 1:
            raise ValueError(f"{name} needs a connected graph, got {len(comps)} components")
    seed = None
    if upper_seed is not None:
        value, seed = upper_seed
        count, ok = verify_certificate(g, seed)
        if not ok or count != value:
            raise ValueError("upper seed certificate does not verify")
    parts = [
        (sub, vertices, solve_component(sub, max_k, deadline, _euler(sub), seed, until))
        for sub, vertices in comps
    ]
    return combine_brackets(g, parts, started)


def cr_certificates(
    g: Multigraph, k: int, budget_ms: int | None = None
) -> list[CrossingCertificate]:
    """Drawings of ``g`` with ``k`` = cr(g) crossings each, in search order.

    The certificates are the level search's hits with pairwise distinct
    crossing sets, the first being the drawing ``cr_exact`` returns; the
    list ends with the level or when ``budget_ms`` runs out.  Raises
    ``ValueError`` on a drawing with fewer than ``k`` crossings, which
    shows that ``k`` is above cr(g).
    """
    if k < 0:
        raise ValueError(f"k={k}: the crossing count must be >= 0")
    found: list[CrossingCertificate] = []
    for cert in _LevelSearch(g, Deadline(budget_ms)).hits(k):
        if cert.count != k:
            raise ValueError(
                f"k={k} is above cr(g): the search found a {cert.count}-crossing drawing"
            )
        found.append(cert)
    return found
