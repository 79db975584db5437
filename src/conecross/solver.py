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
    planarity when deleted, so candidates shrink to those hosts;
  - certificates inherit the good-drawing restrictions (no adjacent or
    repeated pairs), which some optimal drawing always satisfies.

Levels below the first success are exhausted, so the found level is the
crossing number; the certificate is re-verified before it is returned.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .certificates import (
    CrossingCertificate,
    SolveResult,
    SolveStats,
    certificate_from_book,
    verify_certificate,
)
from .books import one_page_drawing
from .graphs import Multigraph
from .parallel import worker_count
from .planarity import lr_planar


def cr_lower(g: Multigraph) -> int:
    """Sum of per-component Euler bounds max(0, m' - 3n + 6), simplified."""
    total = 0
    for comp in g.components():
        if len(comp) < 3:
            continue
        members = set(comp)
        m_simple = sum(1 for u, v, _ in g.edges if u in members)
        total += max(0, m_simple - 3 * len(comp) + 6)
    return total


class _Stats:
    __slots__ = ("nodes", "planarity")

    def __init__(self) -> None:
        self.nodes = 0
        self.planarity = 0


class _Deadline:
    """Monotonic deadline; None means unlimited."""

    __slots__ = ("at",)

    def __init__(self, budget_ms: int | None) -> None:
        self.at = time.monotonic() + budget_ms / 1000 if budget_ms is not None else None

    def expired(self) -> bool:
        return self.at is not None and time.monotonic() > self.at

    def remaining_ms(self) -> int | None:
        if self.at is None:
            return None
        return max(0, int((self.at - time.monotonic()) * 1000))


class _LevelSearch:
    """Depth-first search for a certificate with exactly ``r`` crossings.

    With ``want > 1`` the search keeps going after a hit and collects up
    to ``want`` certificates with pairwise distinct crossing sets in
    ``found``; the exclusion discipline makes the collection free of
    rediscoveries across sibling branches.
    """

    def __init__(
        self,
        g: Multigraph,
        r: int,
        deadline: _Deadline,
        stats: _Stats,
        want: int = 1,
    ):
        self.g = g
        self.insts = g.instances()
        self.ends = [(u, v) for u, v, _ in self.insts]
        self.r = r
        self.deadline = deadline
        self.stats = stats
        self.out_of_time = False
        self.want = want
        self.found: list[CrossingCertificate] = []

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
        self.stats.planarity += 1
        return lr_planar(self.g.n + n_extra, pairs)

    # -- search -----------------------------------------------------------

    def run(self, forbidden: frozenset[tuple[int, int]] = frozenset()) -> CrossingCertificate | None:
        return self._node({}, [], forbidden)

    def _node(
        self,
        chains: dict[int, list[int]],
        crossings: list[tuple[int, int]],
        forbidden: frozenset[tuple[int, int]],
    ) -> CrossingCertificate | None:
        self.stats.nodes += 1
        if self.deadline.expired():
            self.out_of_time = True
            return None
        s = len(crossings)
        pairs = self._pairs(chains)
        if self._planar(s, pairs):
            orders = {eid: chain for eid, chain in chains.items() if len(chain) >= 2}
            cert = CrossingCertificate.build(list(crossings), orders)
            if self.want <= 1:
                return cert
            if all(cert.crossings != c.crossings for c in self.found):
                self.found.append(cert)
            if len(self.found) >= self.want:
                return cert
            return None
        if s == self.r:
            return None
        remaining = self.r - s
        simple_m = len({(min(a, b), max(a, b)) for a, b in pairs})
        if simple_m - 3 * (self.g.n + s) + 6 > remaining:
            return None

        hosts = self._minimal_hosts(chains)
        if remaining == 1:
            usable = [h for h in hosts if self._planar_without(chains, h)]
        else:
            usable = hosts
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

        banned = set(forbidden)
        for e, f in cands:
            found = self._branch(chains, crossings, frozenset(banned), (e, f))
            if found is not None:
                return found
            if self.out_of_time:
                return None
            banned.add((e, f))
        return None

    def _branch(
        self,
        chains: dict[int, list[int]],
        crossings: list[tuple[int, int]],
        forbidden: frozenset[tuple[int, int]],
        pair: tuple[int, int],
    ) -> CrossingCertificate | None:
        e, f = pair
        idx = len(crossings)
        chain_e = chains.get(e, [])
        chain_f = chains.get(f, [])
        for pe in range(len(chain_e) + 1):
            for pf in range(len(chain_f) + 1):
                next_chains = dict(chains)
                next_chains[e] = chain_e[:pe] + [idx] + chain_e[pe:]
                next_chains[f] = chain_f[:pf] + [idx] + chain_f[pf:]
                found = self._node(next_chains, crossings + [pair], forbidden)
                if found is not None:
                    return found
                if self.out_of_time:
                    return None
        return None

    def _planar_without(self, chains: dict[int, list[int]], host: int) -> bool:
        pairs = self._pairs(chains, frozenset((host,)))
        return self._planar(len([i for ch in chains.values() for i in ch]) // 2, pairs)

    def _minimal_hosts(self, chains: dict[int, list[int]]) -> list[int]:
        """Hosts of an inclusion-minimal non-planar set of edge chains.

        Greedy single pass: drop each host whose removal keeps the rest
        non-planar.  What remains hosts a Kuratowski subdivision, and any
        completion must cross two of these hosts with each other.
        """
        n_extra = len([i for ch in chains.values() for i in ch]) // 2
        removed: set[int] = set()
        for h in range(len(self.ends)):
            trial = frozenset(removed | {h})
            if not self._planar(n_extra, self._pairs(chains, trial)):
                removed.add(h)
        return [h for h in range(len(self.ends)) if h not in removed]


def _find_certificate(
    g: Multigraph,
    r: int,
    deadline: _Deadline,
    threads: int,
    stats: _Stats,
) -> tuple[CrossingCertificate | None, bool]:
    """(certificate, level fully exhausted).  Parallel over root branches."""
    if threads <= 1:
        search = _LevelSearch(g, r, deadline, stats)
        cert = search.run()
        return cert, not search.out_of_time

    # Recompute the root frontier once, then farm out branch subtrees.
    probe = _LevelSearch(g, r, deadline, stats)
    pairs = probe._pairs({})
    if probe._planar(0, pairs):
        return CrossingCertificate.build([]), True
    if r == 0:
        return None, True
    simple_m = len({(min(a, b), max(a, b)) for a, b in pairs})
    if simple_m - 3 * g.n + 6 > r:
        return None, True
    hosts = probe._minimal_hosts({})
    if r == 1:
        hosts = [h for h in hosts if probe._planar_without({}, h)]
    ends = probe.ends
    cands: list[tuple[int, int]] = []
    for a in range(len(hosts)):
        e = hosts[a]
        ue, ve = ends[e]
        for b in range(a + 1, len(hosts)):
            f = hosts[b]
            uf, vf = ends[f]
            if ue in (uf, vf) or ve in (uf, vf):
                continue
            cands.append((min(e, f), max(e, f)))
    cands.sort()
    if not cands:
        return None, True

    from concurrent.futures import ProcessPoolExecutor

    text = g.to_json()
    remaining = deadline.remaining_ms()
    workers = worker_count(threads, len(cands))
    jobs = [
        (text, r, cands, list(range(w, len(cands), workers)), remaining)
        for w in range(workers)
    ]
    best_index: int | None = None
    best_cert: str | None = None
    complete = True
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for index, cert_json, nodes, planarity, done in pool.map(_branch_worker, jobs):
            stats.nodes += nodes
            stats.planarity += planarity
            complete = complete and done
            if index is not None and (best_index is None or index < best_index):
                best_index = index
                best_cert = cert_json
    if best_cert is not None:
        return CrossingCertificate.from_json(best_cert), True
    return None, complete


def _branch_worker(
    packed: tuple[str, int, list[tuple[int, int]], list[int], int | None]
) -> tuple[int | None, str | None, int, int, bool]:
    text, r, cands, assigned, remaining_ms = packed
    g = Multigraph.from_json(text)
    deadline = _Deadline(remaining_ms)
    stats = _Stats()
    for index in assigned:
        search = _LevelSearch(g, r, deadline, stats)
        forbidden = frozenset(tuple(p) for p in cands[:index])
        found = search._branch({}, [], forbidden, tuple(cands[index]))
        if found is not None:
            return index, found.to_json(), stats.nodes, stats.planarity, True
        if search.out_of_time:
            return None, None, stats.nodes, stats.planarity, False
    return None, None, stats.nodes, stats.planarity, True


def _fallback_upper(g: Multigraph) -> tuple[int, CrossingCertificate]:
    """A certificate from the natural convex drawing: always available."""
    drawing = one_page_drawing(g)
    cert = certificate_from_book(drawing)
    return cert.count, cert


def _solve_component(
    g: Multigraph,
    max_k: int | None,
    deadline: _Deadline,
    threads: int,
    lower_start: int | None,
    upper_seed: tuple[int, CrossingCertificate] | None,
    stats: _Stats,
) -> SolveResult:
    euler = cr_lower(g)
    level = euler if lower_start is None else lower_start
    seed_val: int | None = None
    seed_cert: CrossingCertificate | None = None
    if upper_seed is not None:
        seed_val, seed_cert = upper_seed

    def bounds_only(lower: int) -> SolveResult:
        if seed_val is not None:
            upper, cert = seed_val, seed_cert
        else:
            upper, cert = _fallback_upper(g)
        # Exhausted levels never pass a valid upper bound.
        if lower > upper:
            raise RuntimeError(
                f"lower bound {lower} exceeds the upper bound {upper}"
            )
        return SolveResult(lower, upper, "bounds-only", cert, SolveStats())

    while True:
        if seed_val is not None and level >= seed_val:
            # Everything below the seeded upper bound is exhausted.
            return SolveResult(seed_val, seed_val, "exact", seed_cert, SolveStats())
        if max_k is not None and level > max_k:
            return bounds_only(level)
        if deadline.expired():
            return bounds_only(level)
        cert, complete = _find_certificate(g, level, deadline, threads, stats)
        if cert is not None:
            if cert.count != level:
                raise RuntimeError(
                    "search found a certificate below an exhausted level"
                )
            return SolveResult(level, level, "exact", cert, SolveStats())
        if not complete:
            return bounds_only(level)
        level += 1


def _lift_component_certificate(
    whole: Multigraph,
    comp_graphs: list[tuple[Multigraph, list[int]]],
    certs: list[CrossingCertificate | None],
) -> CrossingCertificate | None:
    if any(c is None for c in certs):
        return None
    pairs: list[tuple[int, int]] = []
    orders: dict[int, list[int]] = {}
    offset = 0
    for (sub, vertices), cert in zip(comp_graphs, certs):
        if cert is None:
            raise RuntimeError("component certificate vanished while lifting")
        mapping: dict[int, int] = {}
        for eid, (u, v, copy) in enumerate(sub.instances()):
            gu, gv = vertices[u], vertices[v]
            mapping[eid] = whole.instance_id(min(gu, gv), max(gu, gv), copy)
        for e, f in cert.crossings:
            a, b = mapping[e], mapping[f]
            pairs.append((min(a, b), max(a, b)))
        for eid, seq in cert.edge_orders:
            orders[mapping[eid]] = [i + offset for i in seq]
        offset += cert.count
    return CrossingCertificate.build(pairs, orders)


def cr_exact(
    g: Multigraph,
    max_k: int | None = None,
    budget_ms: int | None = None,
    threads: int = 1,
    lower_start: int | None = None,
    upper_seed: tuple[int, CrossingCertificate] | None = None,
) -> SolveResult:
    """Crossing number with certificate, or an honest bracket.

    Components are solved independently (crossings add over a disjoint
    union).  ``max_k`` caps the deepening level per component;
    ``lower_start`` forces exhaustion to begin at a lower level than the
    Euler bound (useful to re-derive the bound by pure search);
    ``upper_seed`` is a known (value, certificate) pair for the whole
    graph, honoured when it is connected.
    """
    started = time.monotonic()
    deadline = _Deadline(budget_ms)
    stats = _Stats()
    if upper_seed is not None:
        value, cert = upper_seed
        count, ok = verify_certificate(g, cert)
        if not ok or count != value:
            raise ValueError("upper seed certificate does not verify")

    comps = g.components()
    comp_graphs: list[tuple[Multigraph, list[int]]] = []
    for comp in comps:
        vertices = sorted(comp)
        back = {v: i for i, v in enumerate(vertices)}
        pairs = []
        for u, v, mult in g.edges:
            if u in back:
                pairs.extend([(back[u], back[v])] * mult)
        comp_graphs.append((Multigraph.build(len(vertices), pairs), vertices))

    results: list[SolveResult] = []
    for sub, _ in comp_graphs:
        seed = upper_seed if len(comp_graphs) == 1 else None
        results.append(
            _solve_component(sub, max_k, deadline, threads, lower_start, seed, stats)
        )

    lower = sum(r.lower for r in results)
    upper = sum(r.upper for r in results)
    status = "exact" if all(r.status == "exact" for r in results) else "bounds-only"
    cert = _lift_component_certificate(
        whole=g,
        comp_graphs=comp_graphs,
        certs=[r.certificate for r in results],
    )
    if cert is not None:
        count, ok = verify_certificate(g, cert)
        if not ok or count != upper:
            raise RuntimeError("combined certificate failed verification")
    elif status == "exact":
        raise RuntimeError("exact result without certificate")
    elapsed = (time.monotonic() - started) * 1000
    return SolveResult(
        lower, upper, status, cert, SolveStats(stats.nodes, stats.planarity, elapsed)
    )


def cr_certificates(
    g: Multigraph,
    k: int,
    limit: int = 16,
    budget_ms: int | None = None,
) -> list[CrossingCertificate]:
    """Up to ``limit`` drawings of ``g`` with ``k`` crossings each.

    Meant for ``k = cr(g)``, where every hit has exactly ``k`` crossings;
    the certificates differ pairwise in their crossing sets.  Callers use
    the variety to pick a drawing with friendlier face structure, for
    instance one that admits a cheap apex insertion.
    """
    deadline = _Deadline(budget_ms)
    stats = _Stats()
    search = _LevelSearch(g, k, deadline, stats, want=limit)
    search.run()
    return list(search.found)
