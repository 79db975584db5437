"""Exact crossing numbers by iterative-deepening certificate search.

The solver asks, for k = lower bound, lower+1, ...: is there a realizable
certificate with exactly k crossings?  A level is decided by depth-first
search over partial certificates.  At each node the partial planarization
H is tested; if H is planar the partial certificate is already a drawing,
and otherwise H contains a subdivision of K5 or K33 whose edges must be
crossed by any completion, so it suffices to branch on crossing pairs
drawn from the hosts of one such subdivision.  Branch i crosses pair i
and forbids pairs 1..i in its subtree: pairs 1..i-1 make the enumeration
duplicate-free without losing completions, and pair i, now crossed, is
not crossed again (a good drawing crosses a pair at most once).

Prunes, all sound:
  - Euler bound of the partial planarization exceeding the remaining
    crossing budget (a completion would draw H with that few crossings).
    On a simple graph every crossing adds one vertex and two distinct
    edges, so a node's bound is at most the root's less the crossings
    placed, and the cut can fire only at levels below the root's Euler
    bound, which no solve starts at.  It stays for multigraphs: crossing
    one copy of a parallel pair whose other copies remain adds a third
    distinct edge, so the bound holds while the budget shrinks (doubled
    K5 takes 206 planarity tests with the cut, 315 with it at the root
    only);
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
  - the root, a ``_node`` like any other, skips its branch j when an
    automorphism sigma of G maps an earlier root pair c_i (i < j) onto
    c_j; this skip is the one root-only step of the candidate loop, and
    branch j still forbids every earlier pair, skipped ones included.
    A certificate C whose first root pair is c_j has the realizable
    image sigma^-1(C), which crosses c_i and so belongs to a branch of
    lower index.  Indices only go down, so this ends at a searched
    branch, and the lowest-index hit is never skipped: the bracket and
    the certificate stay the same.
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
    level search takes over from whatever it proved.  The edge count's
    sub-searches share one table of edge pairs {a, b} known to leave G
    non-planar, or planar, when both are deleted.  At the root of a
    connected G - x the planarization is G - x itself, so a known
    non-planar pair {x, b} puts b outside the one-crossing-left set
    U(G - x).  It also shows G - x non-planar (it contains G - x - b), so
    the sub-search skips its first root test.  A known planar pair
    {x, b} puts b inside U(G - x) and shows G - x - B planar for every
    host set B holding b, a subgraph of G - x - b.  A root test that
    finds G - x - B non-planar shows every pair inside {x} u B
    non-planar, and only those: G - a - b contains G - x - B exactly when
    {a, b} lies in {x} u B.  One that finds G - x - h planar shows
    {x, h} planar.  Each pair enters with its orbit under the
    automorphisms found, since an automorphism maps G - {a, b} onto G
    minus the image pair.  The root's group tests read and fill the
    table (``_deletable``); only tests go: U, the branch order, the nodes
    and the certificates stay as they were.  A sub-search reads its graph
    off G's host list, with no graph built: an edge deletion leaves out
    entry x, a vertex deletion the hosts at x, with the ends above x
    moved down by one, and ``graphs.split`` gives each component of a
    disconnected G - x its hosts relabelled in order.  Each keeps G's
    instance order and builds its own partner masks off its host list in
    O(m): one incidence mask per vertex, and host e's partners are the
    later hosts outside the masks of its two ends.  A sub-search builds
    its ``Multigraph`` only if it asks for its automorphisms, when its
    root reaches a second branch.

The search at a level is one generator, ``_LevelSearch.hits``, that
yields realizable certificates with distinct crossing sets in a fixed
order.  ``cr_exact`` takes its first hit and, given an ``until`` test,
drains the same generator to the test's first True or the level's end,
so a caller acts on each optimal drawing as the level's one search finds
it; ``cr_certificates`` lists a whole level.  ``hits`` runs the root as
an ordinary search node, ``_node``, and drops any crossing set it has
already yielded at the level.  ``_node`` is the one node routine: the
planarity test, the cuts, the candidate pairs and the loop over each
pair's placements along both hosts.  At the root, its candidate loop
closes the orbits as branches start, from the second branch on: a pair
inside the orbits closed so far is skipped, and any other adds its
orbit.  So a level whose first branch hits pays nothing for them, and
no root pair is drawn ahead of its branch (with one crossing left,
drawing a pair tests its hosts).

Every level search of ``cr_exact`` runs in one deepening loop,
``_deepen``, which ends at the first level with a hit, the first level
cut short, or a stop.  One ``_LevelSearch`` serves all levels of a
graph: they share one set of partner masks and one set of automorphism
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
from collections import Counter
from functools import cached_property
from typing import Callable, Iterator, Sequence

from .certificates import (
    CrossingCertificate,
    SolveResult,
    SolveStats,
    certificate_from_book,
    combine_brackets,
    verify_certificate,
)
from .books import one_page_drawing
from .graphs import Multigraph, automorphism_generators, orbit, split
from .deadline import Deadline, require_one_thread
from .planarity import lr_planar

# Hosts deleted together by the first group test at a one-crossing-left node.
HOST_BLOCK = 4


def _euler(n: int, simple_m: int) -> int:
    """Euler bound max(0, m' - 3n + 6) of a connected graph on ``n``
    vertices with ``simple_m`` distinct pairs."""
    return max(0, simple_m - 3 * n + 6) if n >= 3 else 0


def cr_lower(g: Multigraph) -> int:
    """Sum of per-component Euler bounds."""
    return sum(_euler(len(vertices), len(edges)) for vertices, edges in split(g.n, g.edges))


class _PairTable:
    """Pairs {a, b} of a graph's edge instances whose joint deletion is
    known to leave it non-planar (``nonplanar``) or planar (``planar``),
    closed under ``moves`` (automorphisms acting on instance ids).  Each
    half holds one bitmask per instance: bit b of ``half[a]`` is set with
    bit a of ``half[b]`` when {a, b} is known.  The group tests at the
    root of a search of G - x read and fill it (``_deletable``).

    A pair enters with its whole orbit, found by following the moves from
    it; a pair already known is skipped, its orbit being known too, so the
    closure costs at most one image per move per pair of instances.  The
    closure is written out, not taken from ``graphs.orbit``: its bit tests
    are its seen set, and ``orbit`` made the ``exact`` bench about 3%
    slower end to end.
    """

    def __init__(self, moves: list[list[int]], m: int):
        self.moves = moves
        self.nonplanar = [0] * m
        self.planar = [0] * m

    def learn(self, half: list[int], ids: int) -> None:
        """Enter every pair inside the instance mask ``ids``, with its
        orbit, in ``half``."""
        moves = self.moves
        while ids:
            a = (ids & -ids).bit_length() - 1
            ids &= ids - 1
            new = ids & ~half[a]
            while new:
                low = new & -new
                new ^= low
                # An orbit entered since may hold {a, b} by now.
                if half[a] & low:
                    continue
                b = low.bit_length() - 1
                half[a] |= low
                half[b] |= 1 << a
                stack = [(a, b)]
                while stack:
                    e, f = stack.pop()
                    for move in moves:
                        c, d = move[e], move[f]
                        if not half[c] >> d & 1:
                            half[c] |= 1 << d
                            half[d] |= 1 << c
                            stack.append((c, d))


class _LevelSearch:
    """Depth-first search of one graph's levels: ``hits(r)`` yields the
    certificates with exactly ``r`` crossings.

    Every node, the root included, is one call of ``_node``.  The
    exclusion discipline makes the certificates it yields free of
    rediscoveries across sibling branches.  ``nodes`` and ``planarity``
    count the nodes entered and the planarity tests made over all levels,
    and the work of the counting bound's sub-searches when it runs on
    this search.  ``generators`` is found once, on first use, for the
    root skip of every level and for the count.

    The graph is given as ``n`` vertices and ``ends``, the (u, v) ends of
    its edge instances in instance order; host h is instance h.  ``of``
    starts the search of a ``Multigraph``.  The count's sub-searches are
    given their lists only, and build their ``g`` if the automorphisms are
    asked for.

    ``deleted`` = (table, x) makes this the search of a connected G - x,
    x an edge instance of G: host h here is instance h + (h >= x) of G,
    and ``table`` is G's ``_PairTable``, read and filled by the group
    tests at the root (``_deletable``).
    """

    def __init__(
        self,
        n: int,
        ends: list[tuple[int, int]],
        deadline: Deadline,
        deleted: tuple[_PairTable, int] | None = None,
    ):
        self.n = n
        self.ends = ends
        self.deadline = deadline
        self.deleted = deleted
        self.r = 0
        # G - x - b non-planar for a known pair {x, b} makes G - x non-planar.
        self.root_nonplanar = deleted is not None and deleted[0].nonplanar[deleted[1]] != 0
        self.nodes = 0
        self.planarity = 0
        self.out_of_time = False
        # The crossing sets ``hits`` has yielded at the current level.
        self.seen: set[tuple[tuple[int, int], ...]] = set()

    @classmethod
    def of(cls, g: Multigraph, deadline: Deadline) -> _LevelSearch:
        """The search of ``g``, which finds its automorphisms on ``g``."""
        search = cls(g.n, [(u, v) for u, v, _ in g.instances()], deadline)
        search.g = g
        return search

    @cached_property
    def g(self) -> Multigraph:
        """The searched graph, built from the host list on first use."""
        return Multigraph.build(self.n, self.ends)

    @cached_property
    def partners(self) -> list[int]:
        """partners[e]: the mask of hosts f > e that share no end with e,
        the hosts e can be crossed with in a good drawing.  Built in O(m)
        from one incidence mask per vertex."""
        at = [0] * self.n
        for eid, (u, v) in enumerate(self.ends):
            at[u] |= 1 << eid
            at[v] |= 1 << eid
        every = (1 << len(self.ends)) - 1
        return [
            (every ^ (at[u] | at[v])) >> (e + 1) << (e + 1) for e, (u, v) in enumerate(self.ends)
        ]

    @cached_property
    def generators(self) -> list[tuple[int, ...]]:
        """Automorphisms of g that generate Aut(g), or those found before
        the deadline: the root skip and the count hold for any set."""
        return list(automorphism_generators(self.g, self.deadline.expired))

    @cached_property
    def moves(self) -> list[list[int]]:
        """The generators' action on instance ids: copy j of pair (u, v)
        goes to copy j of the image pair."""
        first: dict[tuple[int, int], int] = {}
        for eid, pair in enumerate(self.ends):
            first.setdefault(pair, eid)
        return [
            [first[(p[u], p[v]) if p[u] < p[v] else (p[v], p[u])] + eid - first[(u, v)]
             for eid, (u, v) in enumerate(self.ends)]
            for p in self.generators
        ]

    # -- planarization plumbing ------------------------------------------

    def _pairs(self, chains: dict[int, list[int]], skip: int = 0) -> list[tuple[int, int]]:
        """The planarization's edges: each host's chain through its
        crossings, the hosts of the mask ``skip`` left out.  With no
        crossings that is the host list itself."""
        if not chains:
            if not skip:
                return self.ends
            # Highest first, so each deletion leaves the lower ids in place.
            kept = self.ends.copy()
            while skip:
                top = skip.bit_length() - 1
                del kept[top]
                skip ^= 1 << top
            return kept
        n = self.n
        pairs: list[tuple[int, int]] = []
        for eid, (u, v) in enumerate(self.ends):
            if skip >> eid & 1:
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
        return lr_planar(self.n + n_extra, pairs)

    # -- search -----------------------------------------------------------

    def hits(self, r: int) -> Iterator[CrossingCertificate]:
        """The realizable certificates with ``r`` crossings, in search order,
        with pairwise distinct crossing sets, until they are exhausted or the
        deadline passes (then ``out_of_time`` is set).  The root is a
        ``_node``; ``seen`` holds the crossing sets yielded at this level.
        One level at a time: a new call resets the level of any earlier
        generator."""
        self.r = r
        self.seen = set()
        for cert in self._node({}, [], frozenset()):
            if cert.crossings not in self.seen:
                self.seen.add(cert.crossings)
                yield cert

    def _node(
        self,
        chains: dict[int, list[int]],
        crossings: list[tuple[int, int]],
        forbidden: frozenset[tuple[int, int]],
    ) -> Iterator[CrossingCertificate]:
        """The certificates below one node: its own drawing if its
        planarization is planar, else those of its branches, one per
        candidate pair (sorted) and placement of the new crossing along
        both hosts.  With one crossing left the pairs come from a generator
        that tests hosts only as the order reaches them.

        Each branch's pair joins the forbidden set of its subtree and of the
        later branches.  The root (no crossings) makes no deadline check,
        skips its planarity test once a level has shown G non-planar, and,
        until the level's first hit, skips a pair inside the orbits of the
        pairs started so far; the first pair's orbit waits until a second
        branch is due."""
        self.nodes += 1
        s = len(crossings)
        if s and self.deadline.expired():
            self.out_of_time = True
            return
        pairs = self._pairs(chains)
        if (s or not self.root_nonplanar) and self._planar(s, pairs):
            yield CrossingCertificate.build(list(crossings), chains)
            return
        self.root_nonplanar |= not s
        remaining = self.r - s
        if not remaining:
            return
        simple_m = len({(min(a, b), max(a, b)) for a, b in pairs})
        if _euler(self.n + s, simple_m) > remaining:
            return
        if remaining == 1:
            cands = self._one_left_pairs(chains, s, forbidden)
        else:
            usable = self._minimal_hosts(chains, s)
            cands = (
                (e, f) for e in _bits(usable) for f in _bits(self.partners[e] & usable)
                if (e, f) not in forbidden
            )
        root = not s
        banned = set(forbidden)
        reached = None
        for pair in cands:
            banned.add(pair)
            if root and len(banned) > 1 and not self.seen:
                # banned holds the root's pairs so far, the first lowest.
                if reached is None:
                    reached = orbit(min(banned), self.moves, _sorted_image)
                if pair in reached:
                    continue
                reached |= orbit(pair, self.moves, _sorted_image)
            below = frozenset(banned)
            e, f = pair
            chain_e, chain_f = chains.get(e, []), chains.get(f, [])
            for pe in range(len(chain_e) + 1):
                for pf in range(len(chain_f) + 1):
                    next_chains = dict(chains)
                    next_chains[e] = chain_e[:pe] + [s] + chain_e[pe:]
                    next_chains[f] = chain_f[:pf] + [s] + chain_f[pf:]
                    yield from self._node(next_chains, crossings + [pair], below)
                    if self.out_of_time:
                        return

    def _one_left_pairs(
        self,
        chains: dict[int, list[int]],
        n_extra: int,
        forbidden: frozenset[tuple[int, int]],
    ) -> Iterator[tuple[int, int]]:
        """The pairs of hosts in U, sorted, with U resolved in that order.
        ``outside`` and ``inside`` mask the hosts settled so far on either
        side of U.  A host e with ``partners[e] & ~outside`` empty, no
        partner left that can be in U, starts no pair and is not tested;
        the partners of a host in U are walked bit by bit, upwards."""
        outside = inside = 0
        planar_blocks: set[int] = set()
        for e, later in enumerate(self.partners):
            if not later & ~outside:
                continue
            bit = 1 << e
            if not inside & bit:
                if outside & bit:
                    continue
                outside = self._deletable(chains, n_extra, outside, planar_blocks, e)
                if outside & bit:
                    continue
                inside |= bit
            while later := later & ~outside:
                low = later & -later
                later ^= low
                f = low.bit_length() - 1
                if (e, f) in forbidden:
                    continue
                if not inside & low:
                    outside = self._deletable(chains, n_extra, outside, planar_blocks, f)
                    if outside & low:
                        continue
                    inside |= low
                yield e, f

    def _deletable(
        self,
        chains: dict[int, list[int]],
        n_extra: int,
        outside: int,
        planar_blocks: set[int],
        h: int,
    ) -> int:
        """Settle host h, which is not yet settled, as deletable (H - h
        planar, h in U) or not: returns the mask ``outside`` of the hosts
        known outside U, with h's bit set if h is not deletable and the
        bits of every host the tests rule out on the way.

        Settled by group tests over h's block of ``HOST_BLOCK`` hosts, a
        mask, halved towards h on a planar result: a non-planar H - S rules
        out every host in S, since H - h contains it.  ``planar_blocks``
        holds the node's planar blocks, so no block is tested twice at one
        node.

        At the root of a search of G - x (``deleted``), G's pair table
        only adds knowledge.  Its row ``nonplanar[x]`` moves into G - x's
        ids with one shift, and a block moves back to G's ids the same way.
        The block leaves out the hosts b of known non-planar pairs {x, b},
        which lie outside U; these include every host an earlier test at
        this root ruled out, since a non-planar block B teaches the table
        every pair inside {x} u B.  A block holding a host of a known
        planar pair is planar untested, and a planar single host h teaches
        the table {x, h}.  Search nodes keep the aligned blocks: trimming
        there costs more tests than it saves on wheel-with-chords cones."""
        lo = h - h % HOST_BLOCK
        block = (1 << min(lo + HOST_BLOCK, len(self.ends))) - (1 << lo)
        bit = 1 << h
        table, x = self.deleted if self.deleted and not n_extra else (None, 0)
        below = (1 << x) - 1
        if table:
            row = table.nonplanar[x]
            outside |= block & ((row & below) | (row >> (x + 1) << x))
            if outside & bit:
                return outside
            block &= ~outside
        while True:
            if block not in planar_blocks:
                ids = (block & below) | (block >> x << (x + 1)) if table else 0
                if not (table and table.planar[x] & ids) and not self._planar(
                    n_extra, self._pairs(chains, block)
                ):
                    if table:
                        table.learn(table.nonplanar, ids | 1 << x)
                    return outside | block
                planar_blocks.add(block)
            if block == bit:
                if table:
                    table.learn(table.planar, 1 << x | 1 << (h + (h >= x)))
                return outside
            upper = block
            for _ in range(block.bit_count() // 2):
                upper &= upper - 1
            block = upper if upper & bit else block ^ upper

    def _minimal_hosts(self, chains: dict[int, list[int]], n_extra: int) -> int:
        """The mask of hosts of an inclusion-minimal non-planar set of edge
        chains.

        Greedy single pass: drop each host whose removal keeps the rest
        non-planar.  What remains hosts a Kuratowski subdivision, and any
        completion must cross two of these hosts with each other.  Used
        only with two or more crossings left; with one left,
        ``_one_left_pairs`` tests the usable hosts directly.
        """
        removed = 0
        for h in range(len(self.ends)):
            if not self._planar(n_extra, self._pairs(chains, removed | 1 << h)):
                removed |= 1 << h
        return ((1 << len(self.ends)) - 1) ^ removed


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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
    n: int, ends: list[tuple[int, int]], gens: list[tuple[int, ...]], vertices: bool
) -> Iterator[tuple[int, int, int, list[tuple[int, int]]]]:
    """(orbit size, x, n', ends') for one x per orbit of ``gens`` on the
    vertices or, with ``vertices`` False, on the edge instances of G, the
    graph on ``n`` vertices with host list ``ends``; ``ends'`` is the host
    list of G - x, on n' vertices.  The copies of a parallel pair lie in
    one orbit: deleting any of them gives one graph, and x is the last
    copy, so ``ends'`` is ``ends`` with entry x left out.  Deleting vertex
    x drops the hosts at x and moves the ends above x down by one, which
    keeps the list in instance order."""
    mult = Counter(ends)
    # last[(u, v)]: the instance id of the pair's last copy, which
    # overwrites the ids of its earlier copies here.
    last = {pair: eid for eid, pair in enumerate(ends)}
    # An item is a vertex (v,) or a pair (u, v); images keep the ends sorted.
    items = [(v,) for v in range(n)] if vertices else list(mult)
    seen: set[tuple[int, ...]] = set()
    for item in items:
        if item in seen:
            continue
        found = orbit(item, gens, _sorted_image)
        seen |= found
        if vertices:
            (w,) = item
            kept = [(a - (a > w), b - (b > w)) for a, b in ends if a != w and b != w]
            yield len(found), w, n - 1, kept
        else:
            x = last[item]
            yield sum(mult[e] for e in found), x, n, ends[:x] + ends[x + 1:]


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
    G - x, read off G's host list, while the components' sum is below
    ``cap``, and adds its work to ``search``; the orbits are those of
    ``search.generators``.  The edge kind's sub-searches of a connected
    G - x share one ``_PairTable`` of G; a disconnected G - x gets no
    table, since G - x - b may owe its non-planarity to a component
    other than the searched one.
    """
    n, m = search.n, len(search.ends)
    kinds = []
    for vertices, size, div in ((False, m, m - 2), (True, n, n - 4)):
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
        table = None if vertices else _PairTable(search.moves, m)
        for weight, x, n_x, ends_x in _deletions(n, search.ends, search.generators, vertices):
            if total >= need or search.deadline.expired():
                break
            if -(-(total + rest * cap) // div) <= level:
                break
            parts = split(n_x, ends_x)
            levels = [_euler(len(comp), len(set(hosts))) for comp, hosts in parts]
            deleted = (table, x) if table is not None and len(parts) == 1 else None
            for i, (comp, hosts) in enumerate(parts):
                stop = cap - sum(levels) + levels[i]
                part = _LevelSearch(len(comp), hosts, search.deadline, deleted)
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
    seed: CrossingCertificate | None = None,
    until: Callable[[CrossingCertificate], bool] | None = None,
) -> SolveResult:
    """Solve a connected ``g``: deepen from its Euler bound up to
    ``max_k`` + 1 or the ``seed`` drawing's count, whichever is lower;
    with a seed, start from the counting bound if higher, which aims at
    that same level.  ``until`` is as for ``cr_exact``.

    The caller verifies ``seed`` where it enters (``cr_exact`` checks its
    ``upper_seed``, ``cone_cr`` its cone seeds), so a seed that closes the
    bracket is returned unchecked; a search hit and the natural drawing
    are verified here."""
    search = _LevelSearch.of(g, deadline)
    level, reason = _euler(g.n, len(g.edges)), "euler"
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
        if not ok:
            raise ValueError("upper seed certificate does not verify")
        if count != value:
            raise ValueError(f"upper seed value {value} differs from its certificate's count {count}")
    parts = [
        (sub, vertices, solve_component(sub, max_k, deadline, seed, until))
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
    for cert in _LevelSearch.of(g, Deadline(budget_ms)).hits(k):
        if cert.count != k:
            raise ValueError(
                f"k={k} is above cr(g): the search found a {cert.count}-crossing drawing"
            )
        found.append(cert)
    return found
