"""Suite-wide test settings and shared fixtures.

One hypothesis profile: fixed seeds, so every run draws the same examples,
and no per-example deadline, so a slow host cannot fail a correct test.
"""

from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import settings

from flipdist.geometry import pt
from flipdist.reduction import (build_instance, convex_drawing,
                                drawing_from_coords, eliminate_sharp)

settings.register_profile("flipdist", derandomize=True, deadline=None)
settings.load_profile("flipdist")

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
# the 3-prism C3 x K2: triangles 0 1 2 and 3 4 5, joined by 0-3, 1-4, 2-5
PRISM_EDGES = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
               (0, 3), (1, 4), (2, 5)]


@pytest.fixture(scope="module")
def c3_instance():
    """The reduction instance of the triangle graph C3 with k = 2."""
    pos = {0: pt(0, 0), 1: pt(1200, 0), 2: pt(600, 1000)}
    d = drawing_from_coords(pos, [(0, 1), (1, 2), (0, 2)])
    return build_instance(d, k_input=2, t_outer=0)


@pytest.fixture(scope="module")
def k4_drawing():
    """K4's convex drawing with outer face 0 1 2, its sharp vertices
    eliminated: `(drawing, t_outer)`."""
    return eliminate_sharp(convex_drawing([0, 1, 2, 3], K4_EDGES,
                                          outer=[0, 1, 2]))


@pytest.fixture(scope="module")
def k4_instance(k4_drawing):
    """The reduction instance of K4 with k = 3 (threshold 348)."""
    d, t_outer = k4_drawing
    return build_instance(d, k_input=3, t_outer=t_outer)


@pytest.fixture(scope="module")
def prism_instance():
    """The reduction instance of the 3-prism with k = 4."""
    d, t_outer = eliminate_sharp(convex_drawing(list(range(6)), PRISM_EDGES,
                                                outer=[0, 1, 2]))
    return build_instance(d, k_input=4, t_outer=t_outer)


@contextmanager
def _count_fractions():
    """Yields a list that collects every `Fraction` built through
    `Fraction.__new__` inside the block: constructors, and on Python 3.11
    every arithmetic result too."""
    built = []
    original = vars(Fraction)["__new__"]
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(None)
        return new(cls, *args, **kwargs)

    Fraction.__new__ = counting
    try:
        yield built
    finally:
        Fraction.__new__ = original


@pytest.fixture
def count_fractions():
    """`with count_fractions() as built:` counts the `Fraction`s built in
    the block as `len(built)`."""
    return _count_fractions
