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
    with H - h planar (h's whole chain deleted).  U is found by group
    testing: one test deletes a block of HOST_BLOCK hosts at once, and
    only a planar result is split in halves, since H - h contains H - S
    for every h in S.  U lies inside any greedy host set K (a host
    outside K leaves the non-planar K intact), so U is K filtered by
    single deletions, found here with about a third of the tests;
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
    component whose verified upper seed U lies above it, unless
    ``lower_start`` asks for pure search.  Some optimal drawing is good,
    so each of its crossings lies on two distinct edges with four
    distinct ends, and it survives deleting any of the other n - 4
    vertices or m - 2 edge instances.  Hence
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
it; ``cr_certificates`` lists a whole level.  The generator computes the
root orbits only when it is about to start a branch of index 1 or more,
so a level whose first branch hits pays nothing for them.

Every level search of ``cr_exact`` runs in one deepening loop,
``_deepen``, which ends at the first level with a hit, the first level
cut short, or a stop, and adds its work to the component solve's tally.
A component solve runs it once, from the count's bound if higher, up to
the seed's count or ``max_k`` + 1; the count runs it on each component
of G - x up to the level that U needs on average.  Levels below the
first success are exhausted, so the found level is the crossing number;
the certificate is re-verified before it is returned.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
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


class _LevelSearch:
    """Depth-first search for certificates with exactly ``r`` crossings.

    The exclusion discipline makes the certificates it yields free of
    rediscoveries across sibling branches.  ``nodes`` and ``planarity``
    count the nodes entered and the planarity tests made.
    """

    def __init__(self, g: Multigraph, r: int, deadline: Deadline):
        self.g = g
        self.ends = [(u, v) for u, v, _ in g.instances()]
        self.r = r
        self.deadline = deadline
        self.nodes = 0
        self.planarity = 0
        self.out_of_time = False

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

    def hits(self) -> Iterator[CrossingCertificate]:
        """The realizable certificates with ``r`` crossings, in search order,
        with pairwise distinct crossing sets, until they are exhausted or the
        deadline passes (then ``out_of_time`` is set).  The root counts as
        one node.  Until the first hit, root branches that an automorphism
        maps from an earlier one are skipped."""
        self.nodes += 1
        cert, cands = self.expand({}, [], frozenset())
        if cert is not None:
            yield cert
            return
        seen: set[tuple[tuple[int, int], ...]] = set()
        repeats: set[int] | None = None
        for index, pair in enumerate(cands):
            if index and not seen:
                if repeats is None:
                    repeats = _orbit_repeats(self.g, cands, self.deadline)
                if index in repeats:
                    continue
            for cert in self.branch({}, [], frozenset(cands[:index]), pair):
                if cert.crossings not in seen:
                    seen.add(cert.crossings)
                    yield cert
            if self.out_of_time:
                return

    def expand(
        self,
        chains: dict[int, list[int]],
        crossings: list[tuple[int, int]],
        forbidden: frozenset[tuple[int, int]],
    ) -> tuple[CrossingCertificate | None, list[tuple[int, int]]]:
        """A node's own drawing if its planarization is planar, else the
        crossing pairs to branch on, sorted (none: the node is a dead end)."""
        s = len(crossings)
        pairs = self._pairs(chains)
        if self._planar(s, pairs):
            orders = {eid: chain for eid, chain in chains.items() if len(chain) >= 2}
            return CrossingCertificate.build(list(crossings), orders), []
        if s == self.r:
            return None, []
        remaining = self.r - s
        simple_m = len({(min(a, b), max(a, b)) for a, b in pairs})
        if simple_m - 3 * (self.g.n + s) + 6 > remaining:
            return None, []

        if remaining == 1:
            usable = self._deletable_hosts(chains, s)
        else:
            usable = self._minimal_hosts(chains, s)
        used = set(crossings)
        cands: list[tuple[int, int]] = []
        for a in range(len(usable)):
            e = usable[a]
            ue, ve = self.ends[e]
            for b in range(a + 1, len(usable)):
                f = usable[b]
                uf, vf = self.ends[f]
                if ue in (uf, vf) or ve in (uf, vf):
                    continue
                pair = (e, f) if e < f else (f, e)
                if pair in used or pair in forbidden:
                    continue
                cands.append(pair)
        cands.sort()
        return None, cands

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

    def _deletable_hosts(self, chains: dict[int, list[int]], n_extra: int) -> list[int]:
        """Hosts whose deletion alone makes the planarization planar, in
        increasing order, by group tests over blocks of ``HOST_BLOCK``."""
        found: list[int] = []

        def test(block: range) -> None:
            # A non-planar H - S rules out every h in S: H - h contains it.
            if not self._planar(n_extra, self._pairs(chains, frozenset(block))):
                return
            if len(block) == 1:
                found.append(block[0])
                return
            half = len(block) // 2
            test(block[:half])
            test(block[half:])

        m = len(self.ends)
        for start in range(0, m, HOST_BLOCK):
            test(range(start, min(start + HOST_BLOCK, m)))
        return found

    def _minimal_hosts(self, chains: dict[int, list[int]], n_extra: int) -> list[int]:
        """Hosts of an inclusion-minimal non-planar set of edge chains.

        Greedy single pass: drop each host whose removal keeps the rest
        non-planar.  What remains hosts a Kuratowski subdivision, and any
        completion must cross two of these hosts with each other.  Used
        only with two or more crossings left; with one left,
        ``_deletable_hosts`` finds the usable hosts directly.
        """
        removed: set[int] = set()
        for h in range(len(self.ends)):
            trial = frozenset(removed | {h})
            if not self._planar(n_extra, self._pairs(chains, trial)):
                removed.add(h)
        return [h for h in range(len(self.ends)) if h not in removed]


@dataclass
class _Tally:
    """Nodes entered and planarity tests made by one component's searches."""

    nodes: int = 0
    planarity: int = 0


def _deepen(
    g: Multigraph,
    level: int,
    stop: float,
    deadline: Deadline,
    tally: _Tally,
    until: Callable[[CrossingCertificate], bool] | None = None,
) -> tuple[int, CrossingCertificate | None]:
    """Search levels from ``level``, which must not exceed cr(g), below
    ``stop``: (the first level with a certificate, its first certificate),
    or (the first level left unexhausted, None), at ``stop`` or the
    deadline; ``until`` sees the found level's hits up to one it accepts."""
    while level < stop and not deadline.expired():
        search = _LevelSearch(g, level, deadline)
        hits = search.hits()
        cert = next(hits, None)
        if cert is not None and cert.count != level:
            raise RuntimeError("search found a certificate below an exhausted level")
        if cert is not None and until is not None and not until(cert):
            next(filter(until, hits), None)
        tally.nodes += search.nodes
        tally.planarity += search.planarity
        if cert is not None:
            return level, cert
        if search.out_of_time:
            break
        level += 1
    return level, None


def _sorted_image(p: Sequence[int], items: tuple[int, ...]) -> tuple[int, ...]:
    """The image of a sorted tuple of vertices or instances under ``p``."""
    return tuple(sorted(p[x] for x in items))


def _orbit_repeats(
    g: Multigraph, cands: list[tuple[int, int]], deadline: Deadline
) -> set[int]:
    """Indices j of root pairs that an automorphism of ``g`` maps from an
    earlier root pair, over the generators found before the deadline."""
    index = g.instance_index()
    insts = g.instances()
    moves = [
        [index[(min(perm[u], perm[v]), max(perm[u], perm[v]), copy)] for u, v, copy in insts]
        for perm in automorphism_generators(g, deadline.expired)
    ]
    reached: set[tuple[int, int]] = set()
    repeats: set[int] = set()
    for j, pair in enumerate(cands):
        if pair in reached:
            repeats.add(j)
        else:
            reached |= orbit(pair, moves, _sorted_image)
    return repeats


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


def _counting_lower(
    g: Multigraph, level: int, target: int, deadline: Deadline, tally: _Tally
) -> tuple[int, str]:
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
    G - x while the components' sum is below ``cap``.
    """
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
    gens = list(automorphism_generators(g, deadline.expired)) if kinds else []
    for cap, vertices, size, div, need in kinds:
        total, rest = 0, size
        for weight, h in _deletions(g, gens, vertices):
            if total >= need or deadline.expired():
                break
            if -(-(total + rest * cap) // div) <= level:
                break
            comps = [sub for sub, _ in h.component_subgraphs()]
            levels = [_euler(sub) for sub in comps]
            for i, sub in enumerate(comps):
                stop = cap - sum(levels) + levels[i]
                levels[i], _ = _deepen(sub, levels[i], stop, deadline, tally)
            total += weight * sum(levels)
            rest -= weight
        if -(-total // div) > level:
            level = -(-total // div)
            reason = "vertex-count" if vertices else "edge-count"
        if level >= target:
            break
    return level, reason


def _solve_component(
    g: Multigraph,
    stop: float,
    deadline: Deadline,
    level: int,
    seed: CrossingCertificate | None,
    count: bool,
    until: Callable[[CrossingCertificate], bool] | None,
) -> SolveResult:
    """Deepen from ``level``, which must not exceed cr(g), up to ``stop``
    or the verified ``seed`` drawing's count; with ``count`` and a seed
    above ``level``, start from the counting bound if higher."""
    tally = _Tally()
    reason = "euler"
    if count and seed is not None and seed.count > level:
        level, kind = _counting_lower(g, level, seed.count, deadline, tally)
        reason = kind or reason
    if seed is not None:
        stop = min(stop, seed.count)
    lower, cert = _deepen(g, level, stop, deadline, tally, until)
    if lower > level:
        reason = "search"
    # Every level below a seed that the search reaches is exhausted.
    exact = cert is not None or (seed is not None and lower >= seed.count)
    # The natural convex drawing is always available.
    cert = cert or seed or certificate_from_book(one_page_drawing(g))
    # Neither a proven count nor exhausted levels pass a valid upper bound.
    if lower > cert.count:
        raise RuntimeError(f"{reason} bound {lower} exceeds the upper bound {cert.count}")
    stats = SolveStats(tally.nodes, tally.planarity)
    status = "exact" if exact else "bounds-only"
    return SolveResult(lower, cert.count, status, cert, stats, reason)


def cr_exact(
    g: Multigraph,
    max_k: int | None = None,
    budget_ms: int | None = None,
    threads: int = 1,
    lower_start: int | None = None,
    upper_seed: tuple[int, CrossingCertificate] | None = None,
    until: Callable[[CrossingCertificate], bool] | None = None,
) -> SolveResult:
    """Crossing number with certificate, or an honest bracket.

    Components are solved independently (crossings add over a disjoint
    union).  ``max_k`` caps the deepening level per component;
    ``lower_start`` forces exhaustion to begin at a lower level than the
    Euler bound (useful to re-derive the bound by pure search), and must
    lie between 0 and every component's Euler bound;
    ``upper_seed`` is a known (value, certificate) pair for the whole
    graph, honoured when it is connected.  A seeded solve first tries to
    prove the seed's value by counting over vertex or edge deletions,
    unless ``lower_start`` is given.  ``until``, for a connected graph
    only, sees each drawing of the level the search closes at, the
    returned one first, until it returns True or the level or the budget
    ends; the stats count that search.  ``threads`` must be 1: the search
    runs in this process, and the keyword goes once the benchmark stops
    passing it (ROADMAP item 1).
    """
    require_one_thread(threads)
    started = time.monotonic()
    deadline = Deadline(budget_ms)
    if max_k is not None and max_k < 0:
        raise ValueError(f"max_k={max_k}: must be None or >= 0")
    if upper_seed is not None:
        value, cert = upper_seed
        count, ok = verify_certificate(g, cert)
        if not ok or count != value:
            raise ValueError("upper seed certificate does not verify")

    comps = g.component_subgraphs()
    if until is not None and len(comps) > 1:
        raise ValueError(f"until needs a connected graph, got {len(comps)} components")
    levels = [_euler(sub) for sub, _ in comps]
    if lower_start is not None:
        # A start above cr(G) would treat unsearched levels as exhausted.
        if not 0 <= lower_start <= min(levels, default=0):
            raise ValueError(
                f"lower_start={lower_start} is outside 0..{min(levels, default=0)}, "
                "the least Euler bound of a component"
            )
        levels = [lower_start] * len(comps)

    seed = upper_seed[1] if upper_seed is not None and len(comps) == 1 else None
    count = lower_start is None
    stop = math.inf if max_k is None else max_k + 1
    parts = [
        (sub, vertices, _solve_component(sub, stop, deadline, level, seed, count, until))
        for (sub, vertices), level in zip(comps, levels)
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
    for cert in _LevelSearch(g, k, Deadline(budget_ms)).hits():
        if cert.count != k:
            raise ValueError(
                f"k={k} is above cr(g): the search found a {cert.count}-crossing drawing"
            )
        found.append(cert)
    return found
