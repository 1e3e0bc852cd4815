"""Exact flip-distance search and flip-graph enumeration.

The primary solver is a bidirectional best-first search with the admissible
edge-difference lower bound (each flip replaces exactly one edge, so at
least |edges(t1) - edges(t2)| flips are needed).  It and flip-graph
enumeration run on a per-call flip kernel (`_FlipKernel`):
a state holds only the diagonals, each with its flip as an index into the
kernel's flip table, decided once by two orientations (`flip_is_convex`),
a flip updates at most five entries of a state with
no rebuild from the triangles, and a state is known by an exact bitmask
of its diagonals, so a duplicate child costs one xor and an integer
lookup.  The search breaks ties on a key that orders exactly as the
canonical key (`_heap_key`), spliced from the parent's for each kept
child.  Enumeration numbers its nodes densely as they are found and builds
no key.  As in reverse search (Avis and Fukuda), a node is recovered from
its parent and one flip: enumeration keeps a node as its mask, its
parent's index and that flip's index, and all neighbour indices in one
flat array, and a found node waits on the stack as its parent's state and
the flip, its own state built when it is popped.  Its `FlipGraph` reports
its node and flip counts from this index form, and builds the canonical
keys and each node's edges, a sorted tuple of the kernel's shared `(u, v)`
pairs rebuilt from its parent's by one flip, only when `nodes` or
`adjacency` is first read.  `Triangulation` stays the type at the API
boundary, and witnesses are replayed by the one in-place
`triangulation.replay`.  A plain BFS and a triangulation counter serve as
oracles in the tests.

Each side of the search keeps one record per state it has reached, an int
`g * W + f + 1` keyed by the mask: `g` is the best known number of flips
from that side's start, and `f` the index of the flip that reached the
state (the record is `g * W` at the start; `W = n**4 + 1` exceeds every
flip index plus one).  The witness is unwound from the meet by decoding
each flip and xoring its delta back out of the mask, so no parent
pointer, closed set or separate `g` map is kept.  The edge-difference
bound is consistent, since one flip changes it by at most 1, so each side
expands each state at its final `g` and never reopens one: a recorded
state is closed exactly when it is no longer in the side's open-state dict,
and a heap entry whose mask is not there is stale.  The open states do not
hold keys: a popped heap entry carries its own.  A cap on the records of
both sides together, checked once per expansion, bounds the search's
memory.
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
    # why no distance was returned: "budget" (the distance exceeds the
    # budget) or "states" (the state cap was reached); None with a distance
    reason: Optional[str] = None

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

    Every triangulation of the domain has its boundary edges, each with one
    triangle, and only its diagonals, each with two, can flip; the kernel
    holds the boundary once, as the sorted tuple `boundary` of edge ids
    `u * n + v` (u < v), which sort like the `(u, v)` pairs.  A state is a
    triple `(mask, ids, opp)`: `ids` holds the diagonals' ids, sorted, and
    `opp[i]` the flip of `ids[i]`: its flip index `f >= 0` when the
    quadrilateral around `ids[i]` is strictly convex, else `~a`, with `a`
    the id of the edge joining the two apexes (`a >= 1`, so `~a <= -2`).

    The flip table gives each convex flip of `r` to `a` a dense index `f`
    the first time `_opp` meets it, and its reverse the index `f ^ 1`.  Per
    index it keeps the mask delta `bit[r] ^ bit[a]`, the removed and
    inserted ids, the quadrilateral's sides that are diagonals, each with
    the apex it loses, the one it gains (`quad_sides`) and the entries it
    has taken after the flip, keyed by its entry before, and what `splice`
    needs.  `mask`, the exact identity, has one bit per diagonal
    of a state passed to `state` or inserted by a convex flip, so a flip
    turns it into `mask ^ delta[f]`.  A flip moves one id, takes the entry
    `f ^ 1`, and changes the opposite edges of its diagonal sides, so no
    state is rebuilt from its triangles, and legality is decided once per
    flip: convexity depends only on the geometry, so it is memoised in
    `entry`.

    The legal flips of a state are its entries `opp[i] >= 0`, in the order
    of `Triangulation.legal_flips`; the search and the enumeration scan
    `opp` for them, and call `child` only for a child they keep.
    """

    def __init__(self, domain):
        self.domain = domain
        n = self.n = len(domain.points)
        self.nn = n * n
        self.bit: dict[int, int] = {}           # diagonal id -> its mask bit
        self.tokens: dict[int, bytes] = {}      # edge id -> b"u,v"
        self.pairs: dict[int, tuple[int, int]] = {}   # edge id -> (u, v)
        # removed id * n**2 + inserted id -> its `opp` entry, f or ~a
        self.entry: dict[int, int] = {}
        # the flip table, by flip index
        self.delta: list[int] = []
        self.removed: list[int] = []
        self.inserted: list[int] = []
        # per diagonal side: (side id, apex lost, apex gained, its entry
        # before the flip -> its entry after)
        self.sides: list[tuple] = []
        # (boundary ids below r, boundary ids below a, a's padded token)
        self.splices: list[tuple[int, int, bytes]] = []
        # the widest token "u,v" padded to this width keeps one pad byte
        self.width = 2 * len(str(n - 1)) + 2
        self.boundary = tuple(sorted(u * n + v
                                     for u, v in domain.mandatory_edges))
        for i in self.boundary:
            self._name(i)

    def _name(self, i: int) -> None:
        u, v = self.pairs[i] = divmod(i, self.n)
        self.tokens[i] = f"{u},{v}".encode("ascii")

    def _register(self, i: int) -> None:
        self._name(i)
        self.bit[i] = 1 << len(self.bit)

    def _id(self, x: int, y: int) -> int:
        return x * self.n + y if x < y else y * self.n + x

    def _opp(self, r: int, a: int) -> int:
        """The `opp` entry of diagonal `r` whose flip would insert `a`: the
        flip's index if its quadrilateral is convex, else `~a`."""
        k = r * self.nn + a
        o = self.entry.get(k)
        if o is None:
            if flip_is_convex(self.domain, *self.pairs[r],
                              *divmod(a, self.n)):
                if a not in self.bit:
                    self._register(a)
                o = len(self.removed)
                self._add_flip(r, a)
                self._add_flip(a, r)
                self.entry[a * self.nn + r] = o ^ 1
            else:
                o = ~a
            self.entry[k] = o
        return o

    def _add_flip(self, r: int, a: int) -> None:
        n, boundary = self.n, self.boundary
        self.delta.append(self.bit[r] ^ self.bit[a])
        self.removed.append(r)
        self.inserted.append(a)
        self.sides.append(tuple(
            (p * n + q, old, new, {})
            for (p, q), old, new in quad_sides(self.pairs[r], self.pairs[a])
            if p * n + q not in boundary))
        self.splices.append((bisect_left(boundary, r),
                             bisect_left(boundary, a),
                             self.tokens[a].ljust(self.width, b";")))

    def state(self, t: Triangulation):
        """The `(mask, ids, opp)` state of a triangulation of the domain,
        which must pass `validate`: its triangles are then its faces, so
        each diagonal has two apexes."""
        apexes = t.edge_apexes()
        ids = sorted(u * self.n + v
                     for u, v in t.edges - self.domain.mandatory_edges)
        mask, opp = 0, []
        for i in ids:
            if i not in self.bit:
                self._register(i)
            mask |= self.bit[i]
            opp.append(self._opp(i, self._id(*apexes[self.pairs[i]])))
        return mask, tuple(ids), tuple(opp)

    def edges(self, ids) -> list[int]:
        """The sorted ids of all edges of the state with diagonals `ids`."""
        return sorted(self.boundary + ids)

    def move(self, f: int) -> FlipMove:
        return FlipMove(self.pairs[self.removed[f]],
                        self.pairs[self.inserted[f]])

    def child(self, ids, opp, i: int, f: int):
        """`(ids, opp, j)` after the legal flip `f` of `ids[i]` (`opp[i] ==
        f`), with `j` the slot of the inserted edge, whose entry is `f ^ 1`;
        each diagonal side of the quadrilateral swaps one apex, and its new
        entry, a function of its old one, is memoised per flip and side."""
        n, inserted = self.n, self.inserted
        a = inserted[f]
        ids, opp = list(ids), list(opp)
        del ids[i], opp[i]
        j = bisect_left(ids, a)
        ids.insert(j, a)
        opp.insert(j, f ^ 1)
        for s, old, new, after in self.sides[f]:
            k = bisect_left(ids, s)
            o = opp[k]
            e = after.get(o)
            if e is None:
                w, z = divmod(inserted[o] if o >= 0 else ~o, n)
                if w == old:
                    w = z
                e = after[o] = self._opp(
                    s, w * n + new if w < new else new * n + w)
            opp[k] = e
        return tuple(ids), tuple(opp), j

    def splice(self, body: bytes, last: bytes, i: int, j: int, f: int):
        """The `_heap_key` of the child that the flip `f` of `ids[i]` makes
        from a state keyed `(body, last)`, given the inserted edge's slot
        `j` in the child: one block goes and one comes.  Only a flip that
        moves the last token splices the whole key and splits it again."""
        below_r, below_a, token = self.splices[f]
        w = self.width
        p, q = (i + below_r) * w, (j + below_a) * w
        whole = len(body) <= max(p, q)
        s = body + last.ljust(w, b";") if whole else body
        s = (s[:p] + s[p + w:q + w] + token + s[q + w:] if p <= q
             else s[:q] + token + s[q:p] + s[p + w:])
        return (s[:-w], s[-w:].rstrip(b";")) if whole else (s, last)


def _key(tokens: dict, edges) -> bytes:
    """The `Triangulation.canonical_key` of a state's sorted edges, given
    as ids or as `(u, v)` pairs with `tokens` keyed alike."""
    return b";".join(map(tokens.__getitem__, edges))


def _heap_key(tokens, width: int) -> tuple[bytes, bytes]:
    """The search's tie-break key `(body, last)` of a state's sorted edge
    tokens: every token but the last padded with ";" to `width` and joined
    into `body`, and the last token as it is.

    It orders exactly as the canonical key does.  A token holds no ";",
    and ";" sorts above the digits, so a padded token compares with
    another as it does followed by the key's ";"; the last token ends the
    key, and bytes order puts b"7,8" below b"7,80", as the key's end does.
    """
    return b"".join(t.ljust(width, b";") for t in tokens[:-1]), tokens[-1]


def exact_distance(t1: Triangulation, t2: Triangulation,
                   budget: int = 10 ** 9,
                   max_states: Optional[int] = None) -> SearchResult:
    """Exact flip distance by bidirectional A* with the edge-difference bound.

    Returns no distance when the distance is > budget (`reason` "budget"),
    or when the two sides together have recorded more than `max_states`
    states (`reason` "states"; checked once per expansion).
    Deterministic: ties break on canonical keys and the two frontiers
    alternate by size.
    """
    if t1.domain != t2.domain:
        raise DomainMismatchError("triangulations live on different domains")
    if budget < 0:
        raise ValidationError(f"budget must be nonnegative, got {budget}")
    if max_states is not None and max_states < 1:
        raise ValidationError(
            f"max_states must be positive, got {max_states}")
    k1, k2 = t1.canonical_key(), t2.canonical_key()
    if k1 == k2:
        return SearchResult(0, FlipScript(k1, ()), 0, 0, 0)

    kernel = _FlipKernel(t1.domain)
    delta, removed, inserted = kernel.delta, kernel.removed, kernel.inserted
    child, splice = kernel.child, kernel.splice
    W = kernel.nn ** 2 + 1   # a record is g * W + f + 1, with f < n**4
    cap = float("inf") if max_states is None else max_states
    m1, ids1, opp1 = kernel.state(t1)
    m2, ids2, opp2 = kernel.state(t2)
    h1, h2 = lower_bound(t1, t2), lower_bound(t2, t1)
    tokens, width = kernel.tokens, kernel.width
    b1, l1 = _heap_key([tokens[e] for e in kernel.edges(ids1)], width)
    b2, l2 = _heap_key([tokens[e] for e in kernel.edges(ids2)], width)
    # each side: its heap of (g + h, body, last, mask), its records, its
    # open states mask -> (ids, opp, h), and the other side's start diagonals
    heap_f, rec_f, open_f, target_f = \
        [(h1, b1, l1, m1)], {m1: 0}, {m1: (ids1, opp1, h1)}, frozenset(ids2)
    heap_b, rec_b, open_b, target_b = \
        [(h2, b2, l2, m2)], {m2: 0}, {m2: (ids2, opp2, h2)}, frozenset(ids1)

    best = meet = None   # shortest meet length found so far, and its mask
    expanded = 0
    peak = 2
    reason = "budget"

    while True:
        # a heap entry is stale once its mask has been expanded
        while heap_f and heap_f[0][3] not in open_f:
            heappop(heap_f)
        while heap_b and heap_b[0][3] not in open_b:
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
        if len(rec_f) + len(rec_b) > cap:
            best, reason = None, "states"
            break

        if len(heap_f) <= len(heap_b):
            heap, rec, states, target, other = \
                heap_f, rec_f, open_f, target_f, rec_b
        else:
            heap, rec, states, target, other = \
                heap_b, rec_b, open_b, target_b, rec_f
        _, body, last, mask = heappop(heap)
        ids, opp, h = states.pop(mask)
        expanded += 1
        g_new = rec[mask] // W + 1
        base = g_new * W + 1
        limit = base + W - 1     # a record below it has g <= g_new
        for i, f in enumerate(opp):
            if f < 0:
                continue
            m_new = mask ^ delta[f]
            if rec.get(m_new, limit) < limit:
                continue
            rec[m_new] = base + f
            h_new = h - (removed[f] not in target) + (inserted[f] not in target)
            ids_new, opp_new, j = child(ids, opp, i, f)
            states[m_new] = (ids_new, opp_new, h_new)
            heappush(heap, (g_new + h_new, *splice(body, last, i, j, f),
                            m_new))
            o = other.get(m_new)
            if o is not None:
                total = g_new + o // W
                if best is None or total < best:
                    best, meet = total, m_new
        peak = max(peak, len(heap_f) + len(heap_b))

    states_recorded = len(rec_f) + len(rec_b)
    if best is None or best > budget:
        return SearchResult(None, None, expanded, peak, states_recorded,
                            reason)

    # stitch the witness: forward start -> meet, then reversed backward
    # moves; a record's flip undoes to its parent's mask
    def unwind(rec, mask):
        moves = []
        move = rec[mask] % W
        while move:
            moves.append(kernel.move(move - 1))
            mask ^= delta[move - 1]
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
    of the node whose flip found it and that flip's index; then the node
    indices in expansion order, the end offset of each one's neighbours in
    one flat array of neighbour indices, and the kernel's removed and
    inserted ids by flip index, `tokens` and `pairs`.  `len` and
    `flip_count` are read from it; `nodes` and `adjacency` are built from
    it on first access of either, and the index form goes.
    """

    def __init__(self, seed_ids, parent, flips, expanded, ends, neighbours,
                 removed, inserted, tokens, pairs):
        self._index = (seed_ids, parent, flips, expanded, ends, neighbours,
                       removed, inserted, tokens, pairs)
        self._nodes = self._adjacency = None
        self._len = len(parent) + 1
        self.flip_count = len(neighbours) // 2

    def __len__(self):
        return self._len

    def _build(self):
        (seed_ids, parent, flips, expanded, ends, neighbours, removed,
         inserted, tokens, pairs) = self._index
        self._index = None
        # a parent is found before its children, so each node's edges are
        # its parent's with one flip applied; the shared (u, v) pairs sort
        # like the ids
        pair = pairs.__getitem__
        found = [tuple(map(pair, seed_ids))]
        for p, f in zip(parent, flips):
            edges = list(found[p])
            del edges[bisect_left(edges, pair(removed[f]))]
            insort(edges, pair(inserted[f]))
            found.append(tuple(edges))
        # each array goes once it has been read, so none is held at the peak
        del parent, flips
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
    its mask, the index of the node whose flip found it and that flip's
    index; its state is built from its parent's when it is popped to be
    expanded.  No canonical key is built here: the graph builds them when
    `nodes` or `adjacency` is first read.  Raises CapExceededError beyond
    `cap` nodes, and ValidationError for a `cap` below 1.
    """
    if cap < 1:
        raise ValidationError(f"cap must be positive, got {cap}")
    kernel = _FlipKernel(seed.domain)
    delta, child = kernel.delta, kernel.child
    mask, ids, opp = kernel.state(seed)
    # a node gets a dense index when it is found, so the adjacency holds
    # small ints, not masks; 64-bit arrays, unsigned since CPython stores
    # those items without parsing a format string for each
    index = {mask: 0}                         # mask -> node index
    parent, flips = array("Q"), array("Q")    # per node after the seed
    expanded = array("Q")                     # node indices, in expansion order
    ends = array("Q")                         # their neighbours' end offsets
    neighbours = array("Q")                   # all neighbours, flat
    # a pending node is its parent's state, the flip `f` of `ids[i]` that
    # found it, its mask and its index; i == -1 marks the seed
    stack = [(ids, opp, -1, 0, mask, 0)]
    seed_ids = kernel.edges(ids)
    while stack:
        ids, opp, i, f, mask, node = stack.pop()
        if i >= 0:
            ids, opp, _ = child(ids, opp, i, f)
        for i, f in enumerate(opp):
            if f < 0:
                continue
            m_new = mask ^ delta[f]
            j = index.get(m_new)
            if j is None:
                if len(index) >= cap:
                    raise CapExceededError(
                        f"flip graph exceeds the {cap}-node cap")
                j = index[m_new] = len(index)
                parent.append(node)
                flips.append(f)
                stack.append((ids, opp, i, f, m_new, j))
            neighbours.append(j)
        expanded.append(node)
        ends.append(len(neighbours))
    return FlipGraph(seed_ids, parent, flips, expanded, ends, neighbours,
                     kernel.removed, kernel.inserted, kernel.tokens,
                     kernel.pairs)


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
