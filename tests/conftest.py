"""Suite-wide test settings and shared fixtures.

One hypothesis profile: fixed seeds, so every run draws the same examples,
and no per-example deadline, so a slow host cannot fail a correct test.
"""

from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import settings

from flipdist.geometry import pt
from flipdist.reduction import build_instance, drawing_from_coords

settings.register_profile("flipdist", derandomize=True, deadline=None)
settings.load_profile("flipdist")


@pytest.fixture(scope="module")
def c3_instance():
    """The reduction instance of the triangle graph C3 with k = 2."""
    pos = {0: pt(0, 0), 1: pt(1200, 0), 2: pt(600, 1000)}
    d = drawing_from_coords(pos, [(0, 1), (1, 2), (0, 2)])
    return build_instance(d, k_input=2, t_outer=0)


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
