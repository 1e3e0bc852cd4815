"""Spans and counters installed around flipdist's public functions.

Nothing here edits flipdist: `install` replaces module and class attributes
with timing wrappers after import.  A function is replaced under every name
that refers to it in any flipdist module, so names imported into `cli`,
`reduction`, `gadgets` and `search`, and imports done inside function bodies
at call time, all go through the wrapper.

Spans are aggregated by name as they close instead of being kept one by one:
the hot spans (`apply_flip`, `canonical_key`) close hundreds of thousands of
times per pass, and a record per span would change the memory and time being
measured.  Self time is a span's duration minus the time its child spans
cover, so nested spans are not counted twice.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (metric name, module, attribute path) of every span; self time and calls
# are recorded for each.  `halfplane_intersection` is the ConvexRegion
# constructor: `geometry.halfplane_intersection` only wraps it, and the
# library builds ConvexRegion directly.
SPANS = [
    ("cli.main", "cli", "main"),
    ("triangulation.validate", "triangulation", "validate"),
    ("triangulation.domain_init", "triangulation", "PolygonalRegion.__init__"),
    ("triangulation.domain_init", "triangulation", "PointSet.__init__"),
    ("triangulation.apply_flip", "triangulation", "Triangulation.apply_flip"),
    ("triangulation.legal_flips", "triangulation", "Triangulation.legal_flips"),
    ("triangulation.canonical_key", "triangulation",
     "Triangulation.canonical_key"),
    ("search.exact_distance", "search", "exact_distance"),
    ("search.enumerate", "search", "enumerate_flip_graph"),
    ("gadgets.build_channel", "gadgets", "build_channel"),
    ("gadgets.build_vertex_gadget", "gadgets", "build_vertex_gadget"),
    ("gadgets.capped_transform_replays", "gadgets", "capped_transform_replays"),
    ("gadgets.blocking_set", "gadgets", "blocking_set"),
    ("geometry.halfplane_intersection", "geometry", "ConvexRegion.__init__"),
    ("geometry.interior_point", "geometry", "interior_point"),
    ("reduction.convex_drawing", "reduction", "convex_drawing"),
    ("reduction.eliminate_sharp", "reduction", "eliminate_sharp"),
    ("reduction.build_instance", "reduction", "build_instance"),
    ("reduction.region_to_pointset", "reduction", "region_to_pointset"),
    ("reduction.cover_to_script", "reduction", "cover_to_script"),
    ("reduction.audit_script", "reduction", "audit_script"),
    ("reduction.from_doc", "reduction", "ReductionInstance.from_doc"),
    ("instanceio.loads", "instanceio", "loads"),
    ("instanceio.dumps", "instanceio", "dumps"),
    ("vertexcover.exact_vc", "vertexcover", "exact_vc"),
]

# Hot exact predicates: only their calls are counted, since a span around
# each of millions of calls would cost more than the predicate itself.
COUNTERS = [
    ("triangulation.orient", "triangulation", "_DomainBase.orient"),
    ("triangulation.iorient", "triangulation", "_iorient"),
]


class Tracer:
    """Per-name self time, call counts and byte totals for one pass."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.instance_bytes = 0
        self._stack = []     # child time accumulated by each open span

    def span(self, name, fn):
        stack, self_s, calls = self._stack, self.self_s, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                self_s[name] += took - child[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += took
        return wrapper

    def counter(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def snapshot(self) -> dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "instance_bytes": self.instance_bytes}


def _flipdist_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "flipdist"
                                  or name.startswith("flipdist."))]


def replace_everywhere(module_name: str, path: str, make_wrapper) -> None:
    """Replace `module.path` (a function, or `Class.method`) by a wrapper.

    Functions are replaced under every flipdist module global bound to
    them; methods are replaced on their class, keeping classmethods bound
    as classmethods.
    """
    module = sys.modules["flipdist." + module_name]
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make_wrapper(raw.__func__)))
        else:
            setattr(owner, attr, make_wrapper(raw))
        return
    original = getattr(module, attr)
    wrapper = make_wrapper(original)
    for mod in _flipdist_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every span and counter of SPANS and COUNTERS; `flipdist.cli`
    and the modules it imports must already be imported."""
    for name, module, path in SPANS:
        replace_everywhere(module, path,
                           functools.partial(tracer.span, name))
    for name, module, path in COUNTERS:
        replace_everywhere(module, path,
                           functools.partial(tracer.counter, name))

    def count_bytes(fn):
        @functools.wraps(fn)
        def dumps(doc):
            text = fn(doc)
            tracer.instance_bytes += len(text)
            return text
        return dumps
    replace_everywhere("instanceio", "dumps", count_bytes)
