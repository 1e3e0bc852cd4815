"""Exact flip-distance search and flip-graph enumeration.

The primary solver is a bidirectional best-first search with the admissible
edge-difference lower bound (each flip replaces exactly one edge, so at
least |edges(t1) - edges(t2)| flips are needed).  It, flip-graph enumeration
and the greedy upper bound run on a per-call flip kernel whose state is the
sorted tuple of integer edge ids plus, per edge, its flip: the id `a` of its
opposite edge (the edge its flip would insert) when the flip is legal, `~a`
when it is not; a flip updates five entries of that state, and decides the
legality of each changed entry once, in place of rebuilding the state from
the triangles and testing every edge again.  A state is known by an exact
edge bitmask, so duplicate children cost an integer lookup, and canonical
bytes are built once per kept state.  Enumeration numbers its nodes densely
as they are found and builds no key.  As in reverse search (Avis and
Fukuda), a node is recovered from its parent and one flip: enumeration
keeps a node as its mask, its parent's index and that flip, and all
neighbour indices in one flat array, and a found node waits on the stack
as its parent's state and the flip, its own state built when it is
popped.  Its `FlipGraph` reports its node and flip counts from this index
form, and builds the canonical keys and each node's edges, a sorted tuple
of the kernel's shared `(u, v)` pairs rebuilt from its parent's by one
flip, only when `nodes` or `adjacency` is first read.  `Triangulation`
stays the type at the API boundary, and witnesses are replayed by the one
in-place `triangulation.replay`.  A plain BFS and a triangulation counter
serve as oracles in the tests.

Each side of the search keeps one record per state it has reached, an int
`g * W + move` keyed by the mask: `g` is the best known number of flips
from that side's start, and `move` packs the flip that reached the state
(`r * n**2 + a + 1` for a flip of `r` to `a`, 0 at the start; `W = n**4 +
1` exceeds every move).  The witness is unwound from the meet by decoding
each move and toggling its two bits back out of the mask, so no parent
pointer, closed set or separate `g` map is kept.  The edge-difference
bound is consistent, since one flip changes it by at most 1, so each side
expands each state at its final `g` and never reopens one: a recorded
state is closed exactly when it is no longer in the side's open-state dict,
and a heap entry whose mask is not there is stale.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import lru_cache
from heapq import heappop, heappush
from itertools import chain
from typing import Optional

from .errors import (CapExceededError, DomainMismatchError, IllegalFlipError,
                     IllegalScriptError, ValidationError)
from .geometry import on_segment, point_in_cycle, segments_share_interior
from .triangulation import (FlipMove, Triangulation, flip_is_convex,
                            quad_sides, replay)


@dataclass(frozen=True)
class FlipScript:
    start_key: bytes
    moves: tuple[FlipMove, ...]

    def __len__(self):
        return len(self.moves)

    def reversed_from(self, end: Triangulation) -> "FlipScript":
        return FlipScript(end.canonical_key(),
                          tuple(m.reverse() for m in reversed(self.moves)))

    def replay(self, start: Triangulation, on_flip=None) -> Triangulation:
        """Apply all moves, verifying legality, by one in-place
        `triangulation.replay` (which hands `on_flip` each flip); raises
        IllegalScriptError."""
        if start.canonical_key() != self.start_key:
            raise IllegalScriptError("script does not start at this triangulation",
                                     index=-1)
        try:
            return replay(start, self.moves, on_flip)
        except IllegalFlipError as exc:
            i = exc.index
            raise IllegalScriptError(f"move {i} ({self.moves[i]}) is illegal",
                                     index=i) from exc


@dataclass
class SearchResult:
    distance: Optional[int]
    script: Optional[FlipScript]
    nodes_expanded: int
    frontier_peak: int
    states_recorded: int

    @property
    def exceeds_budget(self) -> bool:
        return self.distance is None


def lower_bound(t1: Triangulation, t2: Triangulation) -> int:
    if t1.domain != t2.domain:
        raise DomainMismatchError("triangulations live on different domains")
    return len(t1.edges - t2.edges)


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
            for m in t.legal_flips():
                t_new = t.apply_flip(m)
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

    A state is a triple `(mask, ids, opp)`.  `ids` holds the edge ids
    `u * n + v` (u < v), sorted, which sort like the `(u, v)` pairs.
    `opp[i]` carries the flip of `ids[i]` and its legality: the id `a` of
    the edge joining the two apexes (the edge the flip would insert) when
    the quadrilateral is strictly convex, `~a` when it is not (`a >= 1`, so
    `~a <= -2`), and -1 for an edge with one triangle, which is never
    flipped.  A flip moves one id and changes the opposite edges of the
    quadrilateral's four sides (`quad_sides`), so no state is rebuilt from
    its triangles, and legality is decided once, when an entry is written;
    the inserted edge's entry is the removed edge, legal because it undoes
    a legal flip.  `mask`, the exact identity, has one bit per edge of a
    state passed to `state` or inserted by a legal flip, handed out densely
    by `_register`; a flip of `r` to `a` toggles `bit[r] ^ bit[a]`.
    `_key` builds the bytes of `Triangulation.canonical_key` from `tokens`,
    once per kept state, never per child.  Convexity depends only on the
    geometry, so it is memoised per flip, in `entry`.

    The legal flips of a state are its entries `opp[i] >= 0`, in the order
    of `Triangulation.legal_flips`; the search, the enumeration and the
    greedy walk scan `opp` for them, and call `child` only for a child they
    keep.  The search records the flip of `r` to `a` that reached a kept
    child as `r * n**2 + a`: `move(r, a)` turns it back into a `FlipMove`,
    and `bit[r] ^ bit[a]` takes the child's mask back to its parent's.
    """

    def __init__(self, domain):
        self.domain = domain
        self.n = len(domain.points)
        self.bit: dict[int, int] = {}           # edge id -> its mask bit
        self.tokens: dict[int, bytes] = {}      # edge id -> b"u,v"
        self.pairs: dict[int, tuple[int, int]] = {}   # edge id -> (u, v)
        # removed id * n**2 + inserted id -> its `opp` entry, a or ~a
        self.entry: dict[int, int] = {}

    def _register(self, i: int) -> None:
        u, v = self.pairs[i] = divmod(i, self.n)
        self.tokens[i] = f"{u},{v}".encode("ascii")
        self.bit[i] = 1 << len(self.bit)

    def _id(self, x: int, y: int) -> int:
        return x * self.n + y if x < y else y * self.n + x

    def _opp(self, r: int, a: int) -> int:
        """The `opp` entry of edge `r` whose flip would insert `a`: `a` if
        the flip is convex, else `~a`."""
        k = r * self.n * self.n + a
        o = self.entry.get(k)
        if o is None:
            if flip_is_convex(self.domain, *self.pairs[r],
                              *divmod(a, self.n)):
                o = a
                if a not in self.bit:
                    self._register(a)
            else:
                o = ~a
            self.entry[k] = o
        return o

    def state(self, t: Triangulation):
        """The `(mask, ids, opp)` state of a triangulation."""
        apexes = t.edge_apexes()
        ids = tuple(sorted(u * self.n + v for u, v in t.edges))
        mask, opp = 0, []
        for i in ids:
            if i not in self.bit:
                self._register(i)
            mask |= self.bit[i]
            aps = apexes.get(self.pairs[i], ())
            opp.append(self._opp(i, self._id(*aps)) if len(aps) == 2 else -1)
        return mask, ids, tuple(opp)

    def move(self, r: int, a: int) -> FlipMove:
        return FlipMove(self.pairs[r], self.pairs[a])

    def child(self, ids, opp, i: int, a: int):
        """The `(ids, opp)` state after the legal flip of `ids[i]` to `a`
        (`opp[i] == a >= 0`): the removed edge becomes the inserted edge's
        opposite edge, and each two-sided side of the quadrilateral swaps
        one apex."""
        n, entry = self.n, self.entry
        nn = n * n
        r = ids[i]
        ids, opp = list(ids), list(opp)
        del ids[i], opp[i]
        j = bisect_left(ids, a)
        ids.insert(j, a)
        opp.insert(j, r)
        for (p, q), old, new in quad_sides(divmod(r, n), divmod(a, n)):
            s = p * n + q
            k = bisect_left(ids, s)
            o = opp[k]
            if o != -1:
                w, z = divmod(o if o >= 0 else ~o, n)
                if w == old:
                    w = z
                b = w * n + new if w < new else new * n + w
                o = entry.get(s * nn + b)
                opp[k] = self._opp(s, b) if o is None else o
        return tuple(ids), tuple(opp)


def _key(tokens: dict, edges) -> bytes:
    """The `Triangulation.canonical_key` of a state's sorted edges, given
    as ids or as `(u, v)` pairs with `tokens` keyed alike."""
    return b";".join(map(tokens.__getitem__, edges))


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
        raise ValidationError(f"budget must be nonnegative, got {budget}")
    k1, k2 = t1.canonical_key(), t2.canonical_key()
    if k1 == k2:
        return SearchResult(0, FlipScript(k1, ()), 0, 0, 0)

    kernel = _FlipKernel(t1.domain)
    bit, tokens, child = kernel.bit, kernel.tokens, kernel.child
    nn = kernel.n * kernel.n
    W = nn * nn + 1      # a record is g * W + move, with move < W
    m1, ids1, opp1 = kernel.state(t1)
    m2, ids2, opp2 = kernel.state(t2)
    h1, h2 = lower_bound(t1, t2), lower_bound(t2, t1)
    # each side: its heap of (f, key, mask), its records, its open states
    # mask -> (ids, opp, bound), and the other side's start edges
    heap_f, rec_f, open_f, target_f = \
        [(h1, k1, m1)], {m1: 0}, {m1: (ids1, opp1, h1)}, frozenset(ids2)
    heap_b, rec_b, open_b, target_b = \
        [(h2, k2, m2)], {m2: 0}, {m2: (ids2, opp2, h2)}, frozenset(ids1)

    best = meet = None   # shortest meet length found so far, and its mask
    expanded = 0
    peak = 2

    while True:
        # a heap entry is stale once its mask has been expanded
        while heap_f and heap_f[0][2] not in open_f:
            heappop(heap_f)
        while heap_b and heap_b[0][2] not in open_b:
            heappop(heap_b)
        if not heap_f or not heap_b:
            break
        fmax = max(heap_f[0][0], heap_b[0][0])
        if best is not None and best <= fmax:
            break
        # any undiscovered solution of length L satisfies fminF <= L and
        # fminB <= L, so one frontier past the budget rules out length <= budget
        if (best is None or best > budget) and fmax > budget:
            break

        if len(heap_f) <= len(heap_b):
            heap, rec, states, target, other = \
                heap_f, rec_f, open_f, target_f, rec_b
        else:
            heap, rec, states, target, other = \
                heap_b, rec_b, open_b, target_b, rec_f
        mask = heappop(heap)[2]
        ids, opp, h = states.pop(mask)
        expanded += 1
        g_new = rec[mask] // W + 1
        base = g_new * W + 1
        limit = base + W - 1     # a record below it has g <= g_new
        for i, a in enumerate(opp):
            if a < 0:
                continue
            r = ids[i]
            m_new = mask ^ bit[r] ^ bit[a]
            if rec.get(m_new, limit) < limit:
                continue
            rec[m_new] = base + r * nn + a
            h_new = h - (r not in target) + (a not in target)
            ids_new, opp_new = child(ids, opp, i, a)
            states[m_new] = (ids_new, opp_new, h_new)
            heappush(heap, (g_new + h_new, _key(tokens, ids_new), m_new))
            o = other.get(m_new)
            if o is not None:
                total = g_new + o // W
                if best is None or total < best:
                    best, meet = total, m_new
        peak = max(peak, len(heap_f) + len(heap_b))

    states_recorded = len(rec_f) + len(rec_b)
    if best is None or best > budget:
        return SearchResult(None, None, expanded, peak, states_recorded)

    # stitch the witness: forward start -> meet, then reversed backward
    # moves; a record's move undoes to its parent's mask
    def unwind(rec, mask):
        moves = []
        move = rec[mask] % W
        while move:
            r, a = divmod(move - 1, nn)
            moves.append(kernel.move(r, a))
            mask ^= bit[r] ^ bit[a]
            move = rec[mask] % W
        moves.reverse()
        return moves

    forward = unwind(rec_f, meet)
    backward = unwind(rec_b, meet)
    moves = forward + [m.reverse() for m in reversed(backward)]
    script = FlipScript(k1, tuple(moves))
    end = script.replay(t1)
    if end.canonical_key() != k2 or len(moves) != best:
        raise AssertionError("witness script does not certify the distance")
    return SearchResult(best, script, expanded, peak, states_recorded)


class FlipGraph:
    """Complete flip graph of a domain: nodes are canonical keys.

    Enumeration hands over the index form it builds: the seed's edge ids,
    and for every later node, in the order the nodes were found, the index
    of the node whose flip found it with that flip's removed and inserted
    edge ids; then the node indices in expansion order, the end offset of
    each one's neighbours in one flat array of neighbour indices, and the
    kernel's `tokens` and `pairs`.  `len` and `flip_count` are read from
    it; `nodes` and `adjacency` are built from it on first access of
    either, and the index form goes.
    """

    def __init__(self, seed_ids, parent, removed, inserted, expanded, ends,
                 neighbours, tokens, pairs):
        self._index = (seed_ids, parent, removed, inserted, expanded, ends,
                       neighbours, tokens, pairs)
        self._nodes = self._adjacency = None
        self._len = len(parent) + 1
        self.flip_count = len(neighbours) // 2

    def __len__(self):
        return self._len

    def _build(self):
        (seed_ids, parent, removed, inserted, expanded, ends, neighbours,
         tokens, pairs) = self._index
        self._index = None
        # a parent is found before its children, so each node's edges are
        # its parent's with one flip applied; the shared (u, v) pairs sort
        # like the ids
        pair = pairs.__getitem__
        found = [tuple(map(pair, seed_ids))]
        for p, r, a in zip(parent, removed, inserted):
            edges = list(found[p])
            del edges[bisect_left(edges, pair(r))]
            insort(edges, pair(a))
            found.append(tuple(edges))
        # each array goes once it has been read, so none is held at the peak
        del parent, removed, inserted
        # the keys are joined from the edges' tokens, keyed here by pair
        tokens = {pair(i): token for i, token in tokens.items()}
        keys = [_key(tokens, edges) for edges in found]
        key = keys.__getitem__
        self._adjacency = {
            keys[node]: sorted(map(key, neighbours[start:end]))
            for node, start, end in zip(expanded, chain((0,), ends), ends)}
        del expanded, ends, neighbours
        self._nodes = dict(zip(keys, found))

    @property
    def nodes(self) -> dict[bytes, tuple]:
        """Canonical key -> the edges as a sorted tuple of `(u, v)` pairs,
        in the order the nodes were found."""
        if self._nodes is None:
            self._build()
        return self._nodes

    @property
    def adjacency(self) -> dict[bytes, list[bytes]]:
        """Canonical key -> its neighbours' keys, sorted, in the order the
        nodes were expanded."""
        if self._adjacency is None:
            self._build()
        return self._adjacency

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
    A node's value is its edges as a sorted tuple of `(u, v)` pairs; build a
    `Triangulation` from it where one is needed.  Nodes are kept in the
    order they were found and adjacency in the order nodes were expanded.
    A node is found by a depth-first search on the flip kernel and kept as
    its mask, the index of the node whose flip found it and that flip; its
    state is built from its parent's when it is popped to be expanded.  No
    canonical key is built here: the graph builds them when `nodes` or
    `adjacency` is first read.  Raises CapExceededError beyond `cap` nodes,
    and ValidationError for a `cap` below 1.
    """
    if cap < 1:
        raise ValidationError(f"cap must be positive, got {cap}")
    kernel = _FlipKernel(seed.domain)
    bit, child = kernel.bit, kernel.child
    mask, seed_ids, opp = kernel.state(seed)
    # a node gets a dense index when it is found, so the adjacency holds
    # small ints, not masks; edge ids reach n**2, past 32 bits on large
    # point sets, hence 64-bit arrays, unsigned since CPython stores those
    # items without parsing a format string for each
    index = {mask: 0}                         # mask -> node index
    parent, removed, inserted = array("Q"), array("Q"), array("Q")
    expanded = array("Q")                     # node indices, in expansion order
    ends = array("Q")                         # their neighbours' end offsets
    neighbours = array("Q")                   # all neighbours, flat
    # a pending node is its parent's state, the flip of `ids[i]` to `a`
    # that found it, its mask and its index; i == -1 marks the seed
    stack = [(seed_ids, opp, -1, 0, mask, 0)]
    while stack:
        ids, opp, i, a, mask, node = stack.pop()
        if i >= 0:
            ids, opp = child(ids, opp, i, a)
        for i, a in enumerate(opp):
            if a < 0:
                continue
            r = ids[i]
            m_new = mask ^ bit[r] ^ bit[a]
            j = index.get(m_new)
            if j is None:
                if len(index) >= cap:
                    raise CapExceededError(
                        f"flip graph exceeds the {cap}-node cap")
                j = index[m_new] = len(index)
                parent.append(node)
                removed.append(r)
                inserted.append(a)
                stack.append((ids, opp, i, a, m_new, j))
            neighbours.append(j)
        expanded.append(node)
        ends.append(len(neighbours))
    return FlipGraph(seed_ids, parent, removed, inserted, expanded, ends,
                     neighbours, kernel.tokens, kernel.pairs)


def greedy_upper_bound(t1: Triangulation, t2: Triangulation,
                       move_cap: Optional[int] = None) -> FlipScript:
    """Heuristic script from t1 to t2: prefer flips that create target edges.

    Hill-climbs on the edge difference with deterministic tie-breaking (the
    flip's `FlipMove` order) and a seen-state guard for plateau escapes,
    on the flip kernel: a candidate's state is its mask, and only the flip
    taken builds a child.  No approximation guarantee is claimed beyond
    convex polygons; raises CapExceededError past the cap.
    """
    if t1.domain != t2.domain:
        raise DomainMismatchError("triangulations live on different domains")
    if move_cap is None:
        move_cap = 8 * len(t1.domain.points) ** 2 + 64
    kernel = _FlipKernel(t1.domain)
    bit = kernel.bit
    goal, target, _ = kernel.state(t2)
    target = frozenset(target)
    mask, ids, opp = kernel.state(t1)
    seen = {mask}
    moves: list[FlipMove] = []
    while mask != goal:
        if len(moves) >= move_cap:
            raise CapExceededError(f"no script within {move_cap} moves")
        # a flip that inserts a target edge first, one that removes one
        # last; ids sort like the edges, so ties go by the removed edge
        for _, i in sorted(((ids[i] in target) - (a in target), i)
                           for i, a in enumerate(opp) if a >= 0):
            r, a = ids[i], opp[i]
            m_new = mask ^ bit[r] ^ bit[a]
            if m_new not in seen:
                break
        else:
            raise CapExceededError("greedy walk ran out of unvisited states")
        seen.add(m_new)
        moves.append(kernel.move(r, a))
        mask = m_new
        ids, opp = kernel.child(ids, opp, i, a)
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
