"""Exact flip-distance search and flip-graph enumeration.

The primary solver is a bidirectional best-first search with the admissible
edge-difference lower bound (each flip replaces exactly one edge, so at least
|edges(t1) - edges(t2)| flips are needed).  It and flip-graph enumeration run
on a per-call flip kernel over integer edge ids; `Triangulation` stays the
type at the API boundary, and witnesses are replayed through
`Triangulation.apply_flip`.  An independent plain BFS over `Triangulation`
objects and a dynamic-programming triangulation counter serve as oracles in
the tests.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .errors import (CapExceededError, DomainMismatchError, IllegalFlipError,
                     IllegalScriptError)
from .geometry import on_segment, point_in_cycle, segments_share_interior
from .triangulation import (FlipMove, Triangulation, flip_is_convex,
                            flip_triangles)


@dataclass(frozen=True)
class FlipScript:
    start_key: bytes
    moves: tuple[FlipMove, ...]

    def __len__(self):
        return len(self.moves)

    def reversed_from(self, end: Triangulation) -> "FlipScript":
        return FlipScript(end.canonical_key(),
                          tuple(m.reverse() for m in reversed(self.moves)))

    def replay(self, start: Triangulation) -> Triangulation:
        """Apply all moves, verifying legality; raises IllegalScriptError."""
        if start.canonical_key() != self.start_key:
            raise IllegalScriptError("script does not start at this triangulation",
                                     index=-1)
        t = start
        for i, m in enumerate(self.moves):
            try:
                t = t.apply_flip(m)
            except IllegalFlipError as exc:
                raise IllegalScriptError(f"move {i} ({m}) is illegal",
                                         index=i) from exc
        return t


@dataclass
class SearchResult:
    distance: Optional[int]
    script: Optional[FlipScript]
    nodes_expanded: int
    frontier_peak: int

    @property
    def exceeds_budget(self) -> bool:
        return self.distance is None


def lower_bound(t1: Triangulation, t2: Triangulation) -> int:
    if t1.domain != t2.domain:
        raise DomainMismatchError("triangulations live on different domains")
    return len(t1.edges - t2.edges)


def _neighbors(t: Triangulation):
    for m in t.legal_flips():
        yield m, t.apply_flip(m)


def bfs_distance(t1: Triangulation, t2: Triangulation,
                 budget: Optional[int] = None) -> Optional[int]:
    """Plain breadth-first flip distance; the oracle the fast search is
    checked against."""
    if t1.domain != t2.domain:
        raise DomainMismatchError("triangulations live on different domains")
    goal = t2.canonical_key()
    start = t1.canonical_key()
    if start == goal:
        return 0
    dist = {start: 0}
    frontier = [t1]
    d = 0
    while frontier:
        d += 1
        if budget is not None and d > budget:
            return None
        nxt = []
        for t in frontier:
            for _, t_new in _neighbors(t):
                k = t_new.canonical_key()
                if k in dist:
                    continue
                if k == goal:
                    return d
                dist[k] = d
                nxt.append(t_new)
        frontier = nxt
    return None


class _FlipKernel:
    """The flip relation of one domain, for the length of one search or
    enumeration call.

    A state is a sorted tuple of edge ids `u * n + v` (u < v), which sort
    like the `(u, v)` pairs, with the triangle frozenset of
    `Triangulation.triangles`.  Keys are the exact bytes of
    `Triangulation.canonical_key`, joined from a token per edge id.
    Convexity depends only on the geometry, so it is memoised per flip.
    """

    def __init__(self, domain):
        self.domain = domain
        self.n = len(domain.points)
        self.tokens: dict[int, bytes] = {}      # edge id -> b"u,v"
        self.pairs: dict[int, tuple[int, int]] = {}   # edge id -> (u, v)
        # removed id * n**2 + inserted id -> the flip is legal
        self.convex: dict[int, bool] = {}

    def _register(self, i: int) -> None:
        u, v = self.pairs[i] = divmod(i, self.n)
        self.tokens[i] = f"{u},{v}".encode("ascii")

    def ids(self, t: Triangulation) -> tuple[int, ...]:
        n = self.n
        ids = tuple(sorted(u * n + v for u, v in t.edges))
        for i in ids:
            if i not in self.tokens:
                self._register(i)
        return ids

    def key(self, ids) -> bytes:
        return b";".join(map(self.tokens.__getitem__, ids))

    def move(self, r: int, a: int) -> FlipMove:
        return FlipMove(self.pairs[r], self.pairs[a])

    def triangles_after(self, triangles, r: int, a: int) -> frozenset:
        return flip_triangles(triangles, self.pairs[r], self.pairs[a])

    def flips(self, ids, triangles):
        """(removed id, inserted id, ids after the flip) for every legal
        flip, in the order of `Triangulation.legal_flips`."""
        n, convex = self.n, self.convex
        # an interior edge lies in two triangles, whose apexes x, y are the
        # ends of the edge a flip would insert
        first: dict[int, int] = {}
        apexes: dict[int, tuple[int, int]] = {}
        for a, b, c in triangles:
            for e, w in ((a * n + b, c), (a * n + c, b), (b * n + c, a)):
                if e in first:
                    apexes[e] = (first[e], w)
                else:
                    first[e] = w
        out = []
        for i, r in enumerate(ids):
            xy = apexes.get(r)
            if xy is None:
                continue
            x, y = xy
            a = x * n + y if x < y else y * n + x
            legal = convex.get(r * n * n + a)
            if legal is None:
                legal = convex[r * n * n + a] = flip_is_convex(
                    self.domain, *self.pairs[r], x, y)
                if a not in self.tokens:
                    self._register(a)
            if not legal:
                continue
            j = bisect_left(ids, a)
            if a < r:
                after = ids[:j] + (a,) + ids[j:i] + ids[i + 1:]
            else:
                after = ids[:i] + ids[i + 1:j] + (a,) + ids[j:]
            out.append((r, a, after))
        return out


def exact_distance(t1: Triangulation, t2: Triangulation,
                   budget: int = 10 ** 9) -> SearchResult:
    """Exact flip distance by bidirectional A* with the edge-difference bound.

    Returns EXCEEDS_BUDGET (distance None) when the distance is > budget.
    Deterministic: ties break on canonical keys and the two frontiers
    alternate by size.
    """
    if t1.domain != t2.domain:
        raise DomainMismatchError("triangulations live on different domains")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    k1, k2 = t1.canonical_key(), t2.canonical_key()
    if k1 == k2:
        return SearchResult(0, FlipScript(k1, ()), 0, 0)

    kernel = _FlipKernel(t1.domain)
    ids1, ids2 = kernel.ids(t1), kernel.ids(t2)
    h1, h2 = lower_bound(t1, t2), lower_bound(t2, t1)
    # a side's open states: ids, triangles and the edge-difference bound
    sides = [
        {"target": frozenset(ids2), "open": [(h1, k1)], "g": {k1: 0},
         "closed": set(), "state": {k1: (ids1, t1.triangles, h1)},
         "parent": {k1: None}},
        {"target": frozenset(ids1), "open": [(h2, k2)], "g": {k2: 0},
         "closed": set(), "state": {k2: (ids2, t2.triangles, h2)},
         "parent": {k2: None}},
    ]

    best = None          # (total length, meet key)
    expanded = 0
    peak = 2

    while sides[0]["open"] and sides[1]["open"]:
        fmins = []
        for side in sides:
            while side["open"] and side["open"][0][1] in side["closed"]:
                heapq.heappop(side["open"])
            fmins.append(side["open"][0][0] if side["open"] else None)
        if fmins[0] is None or fmins[1] is None:
            break
        if best is not None and best[0] <= max(fmins):
            break
        # any undiscovered solution of length L satisfies fminF <= L and
        # fminB <= L, so one frontier past the budget rules out length <= budget
        if (best is None or best[0] > budget) and max(fmins) > budget:
            return SearchResult(None, None, expanded, peak)

        side_idx = 0 if len(sides[0]["open"]) <= len(sides[1]["open"]) else 1
        side = sides[side_idx]
        other_g = sides[1 - side_idx]["g"]

        f, key = heapq.heappop(side["open"])
        if key in side["closed"]:
            continue
        side["closed"].add(key)
        expanded += 1
        # a closed state is never expanded again, so its triangles can go
        ids, triangles, h = side["state"].pop(key)
        g, states, parent = side["g"], side["state"], side["parent"]
        target = side["target"]
        g_new = g[key] + 1
        for r, a, ids_new in kernel.flips(ids, triangles):
            k_new = kernel.key(ids_new)
            if k_new in g and g[k_new] <= g_new:
                continue
            g[k_new] = g_new
            h_new = h - (r not in target) + (a not in target)
            states[k_new] = (ids_new, kernel.triangles_after(triangles, r, a),
                             h_new)
            parent[k_new] = (key, r, a)
            heapq.heappush(side["open"], (g_new + h_new, k_new))
            if k_new in other_g:
                total = g_new + other_g[k_new]
                if best is None or total < best[0]:
                    best = (total, k_new)
        peak = max(peak, len(sides[0]["open"]) + len(sides[1]["open"]))

    if best is None or best[0] > budget:
        return SearchResult(None, None, expanded, peak)

    # stitch the witness: forward start -> meet, then reversed backward moves
    def unwind(side, key):
        moves = []
        while side["parent"][key] is not None:
            key, r, a = side["parent"][key]
            moves.append(kernel.move(r, a))
        moves.reverse()
        return moves

    forward = unwind(sides[0], best[1])
    backward = unwind(sides[1], best[1])
    moves = forward + [m.reverse() for m in reversed(backward)]
    script = FlipScript(k1, tuple(moves))
    end = script.replay(t1)
    if end.canonical_key() != k2 or len(moves) != best[0]:
        raise AssertionError("witness script does not certify the distance")
    return SearchResult(best[0], script, expanded, peak)


class FlipGraph:
    """Complete flip graph of a domain: nodes are canonical keys."""

    def __init__(self, nodes, adjacency, representatives):
        self.nodes = nodes                    # key -> frozenset of edges
        self.adjacency = adjacency            # key -> sorted list of keys
        self.representatives = representatives  # key -> Triangulation

    def __len__(self):
        return len(self.nodes)

    def bfs_distances(self, source_key: bytes) -> dict[bytes, int]:
        dist = {source_key: 0}
        frontier = [source_key]
        while frontier:
            nxt = []
            for k in frontier:
                for k2 in self.adjacency[k]:
                    if k2 not in dist:
                        dist[k2] = dist[k] + 1
                        nxt.append(k2)
            frontier = nxt
        return dist


def enumerate_flip_graph(seed: Triangulation, cap: int = 10 ** 6) -> FlipGraph:
    """Reachable closure of the flip relation from a seed triangulation.

    Flip connectivity makes this the complete flip graph for any valid seed.
    Raises CapExceededError beyond `cap` nodes.
    """
    kernel = _FlipKernel(seed.domain)
    start_key = seed.canonical_key()
    nodes = {start_key: seed.edges}
    reps = {start_key: seed}
    adjacency: dict[bytes, list[bytes]] = {}
    stack = [(start_key, kernel.ids(seed), seed.triangles)]
    while stack:
        key, ids, triangles = stack.pop()
        nbrs = []
        for r, a, ids_new in kernel.flips(ids, triangles):
            k_new = kernel.key(ids_new)
            nbrs.append(k_new)
            if k_new not in nodes:
                if len(nodes) >= cap:
                    raise CapExceededError(
                        f"flip graph exceeds the {cap}-node cap")
                t_new = Triangulation(seed.domain,
                                      [kernel.pairs[i] for i in ids_new],
                                      kernel.triangles_after(triangles, r, a))
                nodes[k_new] = t_new.edges
                reps[k_new] = t_new
                stack.append((k_new, ids_new, t_new.triangles))
        adjacency[key] = sorted(nbrs)
    return FlipGraph(nodes, adjacency, reps)


def greedy_upper_bound(t1: Triangulation, t2: Triangulation,
                       move_cap: Optional[int] = None) -> FlipScript:
    """Heuristic script from t1 to t2: prefer flips that create target edges.

    Hill-climbs on the edge difference with deterministic tie-breaking and a
    seen-state guard for plateau escapes.  No approximation guarantee is
    claimed beyond convex polygons; raises CapExceededError past the cap.
    """
    if t1.domain != t2.domain:
        raise DomainMismatchError("triangulations live on different domains")
    if move_cap is None:
        move_cap = 8 * len(t1.domain.points) ** 2 + 64
    target = t2.edges
    goal = t2.canonical_key()
    t = t1
    seen = {t1.canonical_key()}
    moves: list[FlipMove] = []
    while t.canonical_key() != goal:
        if len(moves) >= move_cap:
            raise CapExceededError(f"no script within {move_cap} moves")
        candidates = []
        for m in t.legal_flips():
            score = (1 if m.inserted in target else 0) - \
                    (1 if m.removed in target else 0)
            candidates.append((-score, m))
        candidates.sort()
        stepped = False
        for _, m in candidates:
            t_new = t.apply_flip(m)
            k = t_new.canonical_key()
            if k in seen:
                continue
            seen.add(k)
            moves.append(m)
            t = t_new
            stepped = True
            break
        if not stepped:
            raise CapExceededError("greedy walk ran out of unvisited states")
    return FlipScript(t1.canonical_key(), tuple(moves))


def count_polygon_triangulations(domain, cycle) -> int:
    """Independent triangulation counter for a simple polygon boundary cycle.

    Classic interval dynamic program over the polygon's visibility structure;
    used as an oracle against flip-graph enumeration.
    """
    n = len(cycle)
    ip = domain.ipoints
    pts = [ip[v] for v in cycle]
    pts2 = [(2 * x, 2 * y) for x, y in pts]

    def diagonal_ok(i, j):
        if (i + 1) % n == j or (j + 1) % n == i:
            return True
        a, b = pts[i], pts[j]
        for k in range(n):
            if segments_share_interior(a, b, pts[k], pts[(k + 1) % n]):
                return False
        for k in range(n):
            if k not in (i, j) and on_segment(pts[k], a, b):
                return False
        mid2 = (a[0] + b[0], a[1] + b[1])
        return point_in_cycle(mid2, pts2) > 0

    ok = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            ok[i][j] = ok[j][i] = diagonal_ok(i, j)

    @lru_cache(maxsize=None)
    def count(i, j):
        # triangulations of the sub-polygon spanned by boundary path i..j
        if j - i < 2:
            return 1
        total = 0
        for k in range(i + 1, j):
            if ok[i][k] and ok[k][j]:
                total += count(i, k) * count(k, j)
        return total

    return count(0, n - 1) if ok[0][n - 1] else 0
