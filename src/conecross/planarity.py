"""Planarity test and planar embedding via the left-right (LR) criterion.

The test runs on a plain ``(n, edge list)`` description so the solver can
call it on throwaway planarizations without building graph objects.  The
list is read in one pass straight into adjacency lists: a loop is
dropped, and a pair seen before in either orientation (keyed by one
integer) is skipped.  ``lr_planar`` runs two cheap screens next: a graph
with at most 8 distinct edges is always planar (the smallest non-planar
subdivisions need 9), and a simple graph with m > 3n - 6 never is.

The LR test itself is the two-pass DFS of Brandes, "The left-right
planarity test" (2009): an orientation pass computing lowpoints and
nesting depths, then a testing pass maintaining a stack of conflict pairs
of return-edge intervals.  ``lr_planar`` stops there with the decision.
``lr_embedding`` shares both passes and then runs the paper's third one:
it resolves each edge's side from the ``ref`` chains the testing pass
left, re-sorts the outgoing edges by signed nesting depth, and inserts
the back edges into the rotation system in a last DFS.

Every pass runs on integer edge ids.  An edge gets its id when the
orientation pass orients it away from an endpoint (the parent for a tree
edge, the descendant for a back edge), and every per-edge quantity lives
in a flat list indexed by that id.  A conflict pair is a 4-slot list
``[L.low, L.high, R.low, R.high]`` of edge ids, with -1 for an empty slot.
The embedding pass works on half-edges: id e runs from the edge's source
and id e + m back from its target.  Edges are deduplicated in the order
given, so the DFS, and with it the embedding, follows the input order;
fed its edges in sorted order, the embedding is the one networkx's LR
implementation returns.  All passes are iterative, keeping one list
iterator per open vertex, so deep graphs (long subdivided chains) cannot
overflow the interpreter's recursion limit.
"""

from __future__ import annotations

from typing import Iterable


def lr_planar(n: int, edges: Iterable[tuple[int, int]]) -> bool:
    """Planarity of the simple graph underlying ``edges`` on vertices 0..n-1."""
    m, adj = _adjacency(n, edges)
    if m <= 8:
        return True
    if n >= 3 and m > 3 * n - 6:
        return False
    return _lr_test(n, m, adj) is not None


def lr_embedding(n: int, edges: Iterable[tuple[int, int]]) -> list[list[int]] | None:
    """A planar embedding of the simple graph underlying ``edges``, or None.

    Returns, for each vertex 0..n-1, its neighbours in clockwise order
    (empty for an isolated vertex), or None when the graph is not planar.
    """
    m, adj = _adjacency(n, edges)
    tested = _lr_test(n, m, adj)
    return None if tested is None else _embed(n, *tested)


def _adjacency(n: int, edges: Iterable[tuple[int, int]]) -> tuple[int, list[list[int]]]:
    """(distinct edge count, adjacency lists) of the simple graph under
    ``edges``, read in one pass: loops go, and a pair seen before in
    either orientation is skipped, so each list keeps first-seen order."""
    adj: list[list[int]] = [[] for _ in range(n)]
    seen = set()
    for u, v in edges:
        key = u * n + v if u < v else v * n + u
        if u != v and key not in seen:
            seen.add(key)
            adj[u].append(v)
            adj[v].append(u)
    return len(seen), adj


def _lr_test(n: int, m: int, adj: list[list[int]]) -> tuple | None:
    """The orientation and testing passes over ``m`` edges: None if not
    planar, else what the embedding pass reads (roots, edge ends,
    outgoing edges, nesting depths, parent edges, ``ref`` and relative
    ``side`` of every edge)."""
    # --- orientation pass ---------------------------------------------
    # At v, neighbour w is a new tree edge if unvisited, a back edge if it
    # is a proper ancestor other than v's parent, and already oriented
    # otherwise (the parent, or a descendant that walked the edge first).
    height = [-1] * n
    parent_edge = [-1] * n
    src = [0] * m
    dst = [0] * m
    lowpt = [0] * m
    lowpt2 = [0] * m
    nesting = [0] * m
    out: list[list[int]] = [[] for _ in range(n)]
    k = 0
    roots = []
    for s in range(n):
        if height[s] >= 0 or not adj[s]:
            continue
        height[s] = 0
        roots.append(s)
        stack = [(s, iter(adj[s]))]
        while stack:
            v, it = stack[-1]
            hv = height[v]
            e = parent_edge[v]
            parent = src[e] if e >= 0 else -1
            for w in it:
                hw = height[w]
                if hw < 0:
                    src[k] = v
                    dst[k] = w
                    lowpt[k] = lowpt2[k] = hv
                    out[v].append(k)
                    parent_edge[w] = k
                    height[w] = hv + 1
                    k += 1
                    stack.append((w, iter(adj[w])))
                    break
                if hw >= hv or w == parent:
                    continue
                # Back edge v -> w (its lowpt2 is never read): lowpt = hw;
                # fold into e, whose lowpt and lowpt2 start at hv - 1 and fall.
                src[k] = v
                dst[k] = w
                lowpt[k] = hw
                nesting[k] = 2 * hw
                out[v].append(k)
                k += 1
                le = lowpt[e]
                if hw < le:
                    lowpt2[e] = le
                    lowpt[e] = hw
                elif hw > le:
                    if hw < lowpt2[e]:
                        lowpt2[e] = hw
            else:
                # v is finished: settle its tree edge e = parent -> v at the
                # parent, whose height is hv - 1.
                stack.pop()
                if e < 0:
                    continue
                le, le2 = lowpt[e], lowpt2[e]
                nesting[e] = 2 * le + (le2 < hv - 1)
                f = parent_edge[parent]
                if f < 0:
                    continue
                lf = lowpt[f]
                if le < lf:
                    lowpt2[f] = lf if lf < le2 else le2
                    lowpt[f] = le
                elif le > lf:
                    if le < lowpt2[f]:
                        lowpt2[f] = le
                elif le2 < lowpt2[f]:
                    lowpt2[f] = le2

    ordered = [
        sorted(o, key=nesting.__getitem__) if len(o) > 1 else o for o in out
    ]

    # --- testing pass --------------------------------------------------
    S: list[list[int]] = []
    stack_bottom: list = [None] * m
    lowpt_edge = [-1] * m
    # One slot past the last edge: the algorithm may write ref[] of an empty
    # (-1) interval end, which lands here instead of clobbering a real edge.
    # Nothing ever reads it.
    ref = [-1] * (m + 1)
    side = [1] * m
    for s in roots:
        stack = [(s, iter(ordered[s]))]
        ei = -1  # edge out of the top vertex still to be settled there
        while stack:
            v, it = stack[-1]
            hv = height[v]
            e = parent_edge[v]
            while True:
                if ei >= 0 and lowpt[ei] < hv:
                    if ei == ordered[v][0]:
                        lowpt_edge[e] = lowpt_edge[ei]
                    else:
                        # add_constraints(ei, e): merge the return edges of
                        # ei into P.R ...
                        P = [-1, -1, -1, -1]
                        le = lowpt[e]
                        bottom = stack_bottom[ei]
                        while True:
                            q = S.pop()
                            if q[0] != -1 or q[1] != -1:
                                q[0], q[1], q[2], q[3] = q[2], q[3], q[0], q[1]
                                if q[0] != -1 or q[1] != -1:
                                    return None
                            if lowpt[q[2]] > le:
                                if P[2] == -1 and P[3] == -1:
                                    P[3] = q[3]
                                else:
                                    ref[P[2]] = q[3]
                                P[2] = q[2]
                            else:
                                ref[q[2]] = lowpt_edge[e]
                            if (S[-1] if S else None) is bottom:
                                break
                        # ... then those conflicting with ei into P.L.
                        li = lowpt[ei]
                        while S:
                            q = S[-1]
                            r_conf = q[3] != -1 and lowpt[q[3]] > li
                            if not (r_conf or (q[1] != -1 and lowpt[q[1]] > li)):
                                break
                            S.pop()
                            if r_conf:
                                q[0], q[1], q[2], q[3] = q[2], q[3], q[0], q[1]
                                if q[3] != -1 and lowpt[q[3]] > li:
                                    return None
                            ref[P[2]] = q[3]
                            if q[2] != -1:
                                P[2] = q[2]
                            if P[0] == -1 and P[1] == -1:
                                P[1] = q[1]
                            else:
                                ref[P[0]] = q[1]
                            P[0] = q[0]
                        if P[0] != -1 or P[1] != -1 or P[2] != -1 or P[3] != -1:
                            S.append(P)
                ei = next(it, -1)
                if ei < 0:
                    break
                stack_bottom[ei] = S[-1] if S else None
                w = dst[ei]
                if ei == parent_edge[w]:
                    break
                lowpt_edge[ei] = ei
                S.append([-1, -1, ei, ei])
            if ei >= 0:
                w = dst[ei]
                stack.append((w, iter(ordered[w])))
                ei = -1
                continue
            # v is finished: remove_back_edges(e) at its parent u, after
            # which e is settled at u like any other outgoing edge.
            stack.pop()
            if e < 0:
                continue
            u = src[e]
            hu = hv - 1
            while S:
                q = S[-1]
                if q[0] == -1 and q[1] == -1:
                    low = lowpt[q[2]]
                elif q[2] == -1 and q[3] == -1:
                    low = lowpt[q[0]]
                else:
                    low = min(lowpt[q[0]], lowpt[q[2]])
                if low != hu:
                    break
                S.pop()
                if q[0] != -1:
                    side[q[0]] = -1
            if S:
                q = S[-1]
                h = q[1]
                while h != -1 and dst[h] == u:
                    h = ref[h]
                q[1] = h
                if h == -1 and q[0] != -1:
                    ref[q[0]] = q[2]
                    side[q[0]] = -1
                    q[0] = -1
                h = q[3]
                while h != -1 and dst[h] == u:
                    h = ref[h]
                q[3] = h
                if h == -1 and q[2] != -1:
                    ref[q[2]] = q[0]
                    side[q[2]] = -1
                    q[2] = -1
                # e lies on the side of its highest return edge.
                if lowpt[e] < hu:
                    hl, hr = q[1], q[3]
                    ref[e] = hl if hl != -1 and (hr == -1 or lowpt[hl] > lowpt[hr]) else hr
            ei = e
    return roots, src, dst, out, nesting, parent_edge, ref, side


def _embed(
    n: int,
    roots: list[int],
    src: list[int],
    dst: list[int],
    out: list[list[int]],
    nesting: list[int],
    parent_edge: list[int],
    ref: list[int],
    side: list[int],
) -> list[list[int]]:
    """Brandes's embedding pass: clockwise neighbour lists per vertex."""
    m = len(src)
    # sign(e): an edge's side is relative to its ref edge's; resolve each
    # chain from its far end and cut it, so every edge is resolved once.
    for e in range(m):
        f = ref[e]
        if f < 0:
            continue
        chain = [e]
        while ref[f] >= 0:
            chain.append(f)
            f = ref[f]
        for c in reversed(chain):
            side[c] *= side[ref[c]]
            ref[c] = -1
    for e in range(m):
        nesting[e] *= side[e]
    ordered = [
        sorted(o, key=nesting.__getitem__) if len(o) > 1 else o for o in out
    ]

    # Half-edge rotation as a circular doubly linked list: nxt is the next
    # half-edge clockwise around the same vertex, prv counterclockwise.
    # Outgoing edges start in signed nesting order; first[v] is v's
    # leftmost half-edge, the one its parent edge goes in front of.
    to = dst + src
    nxt = [0] * (2 * m)
    prv = [0] * (2 * m)
    first = [-1] * n
    for v, o in enumerate(ordered):
        if o:
            prev = o[-1]
            for h in o:
                nxt[prev] = h
                prv[h] = prev
                prev = h
            first[v] = o[0]
    left_ref = [-1] * n
    right_ref = [-1] * n
    for s in roots:
        stack = [(s, iter(ordered[s]))]
        while stack:
            v, it = stack[-1]
            for ei in it:
                w = dst[ei]
                t = ei + m
                if ei == parent_edge[w]:
                    # The tree edge goes in just counterclockwise of w's
                    # leftmost half-edge and becomes the leftmost itself.
                    f = first[w]
                    if f < 0:
                        nxt[t] = prv[t] = t
                    else:
                        p = prv[f]
                        nxt[p] = prv[f] = t
                        prv[t] = p
                        nxt[t] = f
                    first[w] = t
                    left_ref[v] = right_ref[v] = ei
                    stack.append((w, iter(ordered[w])))
                    break
                if side[ei] > 0:
                    # Right back edge: just clockwise of right_ref[w].
                    r = right_ref[w]
                    q = nxt[r]
                    nxt[r] = prv[q] = t
                    prv[t] = r
                    nxt[t] = q
                else:
                    # Left back edge: just counterclockwise of left_ref[w],
                    # and the new left reference.
                    lr = left_ref[w]
                    p = prv[lr]
                    nxt[p] = prv[lr] = t
                    prv[t] = p
                    nxt[t] = lr
                    if first[w] == lr:
                        first[w] = t
                    left_ref[w] = t
            else:
                stack.pop()

    rotation: list[list[int]] = []
    for f in first:
        nbrs = []
        if f >= 0:
            nbrs.append(to[f])
            h = nxt[f]
            while h != f:
                nbrs.append(to[h])
                h = nxt[h]
        rotation.append(nbrs)
    return rotation
