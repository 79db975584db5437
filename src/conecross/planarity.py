"""Planarity decision via the left-right (LR partition) criterion.

The test runs on a plain ``(n, edge list)`` description so the solver can
call it on throwaway planarizations without building graph objects.  Two
cheap screens run first: a graph with at most 8 distinct edges is always
planar (the smallest non-planar subdivisions need 9), and a simple graph
with m > 3n - 6 never is.

The LR test itself is the two-pass DFS of Brandes, "The left-right
planarity test" (2009): an orientation pass computing lowpoints and
nesting depths, then a testing pass maintaining a stack of conflict pairs
of return-edge intervals.  Only the decision is produced; no embedding is
constructed.

Both passes run on integer edge ids.  An edge gets its id when the
orientation pass orients it away from an endpoint (the parent for a tree
edge, the descendant for a back edge), and every per-edge quantity lives
in a flat list indexed by that id.  A conflict pair is a 4-slot list
``[L.low, L.high, R.low, R.high]`` of edge ids, with -1 for an empty slot.
Both DFS passes are iterative, keeping one list iterator per open vertex,
so deep graphs (long subdivided chains) cannot overflow the interpreter's
recursion limit.
"""

from __future__ import annotations

from typing import Iterable

from .graphs import Multigraph


def lr_planar(n: int, edges: Iterable[tuple[int, int]]) -> bool:
    """Planarity of the simple graph underlying ``edges`` on vertices 0..n-1."""
    seen = {(u, v) if u < v else (v, u) for u, v in edges if u != v}
    m = len(seen)
    if m <= 8:
        return True
    if n >= 3 and m > 3 * n - 6:
        return False

    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in seen:
        adj[u].append(v)
        adj[v].append(u)

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
                # Back edge v -> w: lowpt = hw, lowpt2 = hv; fold into e.
                src[k] = v
                dst[k] = w
                lowpt[k] = hw
                lowpt2[k] = hv
                nesting[k] = 2 * hw
                out[v].append(k)
                k += 1
                le = lowpt[e]
                if hw < le:
                    lowpt2[e] = le if le < hv else hv
                    lowpt[e] = hw
                elif hw > le:
                    if hw < lowpt2[e]:
                        lowpt2[e] = hw
                elif hv < lowpt2[e]:
                    lowpt2[e] = hv
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
                                    return False
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
                                    return False
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
            if S:
                q = S[-1]
                h = q[1]
                while h != -1 and dst[h] == u:
                    h = ref[h]
                q[1] = h
                if h == -1 and q[0] != -1:
                    ref[q[0]] = q[2]
                    q[0] = -1
                h = q[3]
                while h != -1 and dst[h] == u:
                    h = ref[h]
                q[3] = h
                if h == -1 and q[2] != -1:
                    ref[q[2]] = q[0]
                    q[2] = -1
            # Brandes also sets ref[e] here, but only the embedding phase
            # reads ref of a tree edge; interval ends are all back edges.
            ei = e
    return True


def is_planar(g: Multigraph) -> bool:
    """True iff the underlying simple graph of ``g`` is planar.

    Parallel edges never affect planarity of a loopless multigraph, so the
    input is deduplicated first.  Disconnected graphs are handled.
    """
    return lr_planar(g.n, g.simple_pairs())
