"""Exact minimum vertex cover for the small graphs used in equivalence tests."""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Optional

from .errors import CapExceededError, ValidationError


class Graph:
    """Simple undirected graph on arbitrary hashable vertex ids."""

    def __init__(self, vertices: Iterable, edges: Iterable[tuple]):
        self.vertices = sorted(set(vertices))
        self.edges = []
        seen = set()
        for u, v in edges:
            if u == v:
                raise ValidationError(f"loop at {u}")
            e = (u, v) if repr(u) <= repr(v) else (v, u)
            if e in seen:
                continue
            seen.add(e)
            self.edges.append(e)
        known = set(self.vertices)
        for u, v in self.edges:
            if u not in known or v not in known:
                raise ValidationError(f"edge {(u, v)} uses unknown vertex")

    @property
    def n(self) -> int:
        return len(self.vertices)


def is_cover(g: Graph, cover) -> tuple[bool, Optional[tuple]]:
    """(True, None) when every edge is covered, else (False, witness edge)."""
    s = set(cover)
    for e in g.edges:
        if e[0] not in s and e[1] not in s:
            return False, e
    return True, None


def exact_vc(g: Graph, cap: int = 10 ** 5) -> tuple[int, frozenset]:
    """Minimum vertex cover size and a witness, by branch and bound.

    Branches on a max-degree vertex (take it, or take its whole
    neighborhood) with degree-1 reduction, depth first with the first
    branch explored first.  The search visits at most `cap` branch nodes
    and raises `CapExceededError` on the next one.  An explicit stack keeps
    deep searches off the interpreter's recursion limit.
    """
    adj: dict = {v: set() for v in g.vertices}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)

    best_size = g.n + 1
    best_set: frozenset = frozenset()

    def without(live_adj, rm):
        out = {x: set(ns) for x, ns in live_adj.items()}
        for x in rm:
            for w in out.get(x, ()):
                out[w].discard(x)
            out.pop(x, None)
        return {x: ns for x, ns in out.items() if ns}

    stack = [(adj, set())]
    nodes = 0
    while stack:
        live_adj, chosen = stack.pop()
        nodes += 1
        if nodes > cap:
            raise CapExceededError(
                f"vertex cover search spent its budget of {cap} branch nodes "
                f"on a graph of {g.n} vertices")
        # degree-1 reduction: taking the neighbor is always at least as good;
        # every stacked node owns its sets, so they are reduced in place
        changed = True
        while changed:
            changed = False
            for v, ns in list(live_adj.items()):
                if v in live_adj and len(ns) == 1:
                    (u,) = ns
                    chosen.add(u)
                    for w in list(live_adj.get(u, ())):
                        live_adj[w].discard(u)
                        if not live_adj[w]:
                            del live_adj[w]
                    live_adj.pop(u, None)
                    changed = True
                    break
        live_adj = {v: ns for v, ns in live_adj.items() if ns}
        if not live_adj:
            if len(chosen) < best_size:
                best_size = len(chosen)
                best_set = frozenset(chosen)
            continue
        # lower bound from a greedy matching
        m = 0
        used = set()
        for v in sorted(live_adj):
            if v in used:
                continue
            for u in sorted(live_adj[v]):
                if u not in used:
                    used.add(v)
                    used.add(u)
                    m += 1
                    break
        if len(chosen) + m >= best_size:
            continue
        v = max(sorted(live_adj), key=lambda x: len(live_adj[x]))
        nbrs = set(live_adj[v])
        # popped last: the neighbourhood branch runs after the whole
        # subtree of the branch that takes v
        stack.append((without(live_adj, nbrs | {v}), chosen | nbrs))
        stack.append((without(live_adj, {v}), chosen | {v}))

    ok, _ = is_cover(g, best_set)
    assert ok
    return best_size, best_set


def brute_force_vc(g: Graph) -> tuple[int, frozenset]:
    """Subset enumeration oracle; only sensible for tiny graphs."""
    for size in range(g.n + 1):
        for combo in combinations(g.vertices, size):
            ok, _ = is_cover(g, combo)
            if ok:
                return size, frozenset(combo)
    raise AssertionError("unreachable")
