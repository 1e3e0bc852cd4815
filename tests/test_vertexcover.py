import random

import pytest

from flipdist.errors import CapExceededError
from flipdist.vertexcover import Graph, brute_force_vc, exact_vc, is_cover


def complete_graph(n):
    return Graph(range(n), [(i, j) for i in range(n) for j in range(i + 1, n)])


def test_small_graphs():
    assert exact_vc(complete_graph(4))[0] == 3
    assert exact_vc(Graph(range(3), [(0, 1), (1, 2), (2, 0)]))[0] == 2
    assert exact_vc(Graph(range(5), []))[0] == 0


def test_is_cover_witnesses():
    k4 = complete_graph(4)
    ok, _ = is_cover(k4, {0, 1, 2})
    assert ok
    ok, witness = is_cover(k4, {0, 1})
    assert not ok and witness == (2, 3)
    ok, witness = is_cover(Graph(range(3), [(0, 1), (1, 2), (2, 0)]), {0})
    assert not ok and witness == (1, 2)


def test_witness_always_covers():
    rng = random.Random(5)
    for trial in range(40):
        n = rng.randint(2, 12)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.4]
        g = Graph(range(n), edges)
        size, witness = exact_vc(g)
        assert is_cover(g, witness)[0]
        assert len(witness) == size


def test_agrees_with_brute_force():
    rng = random.Random(99)
    for trial in range(30):
        n = rng.randint(2, 11)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.35]
        g = Graph(range(n), edges)
        assert exact_vc(g)[0] == brute_force_vc(g)[0]


def prism_graph(n):
    return Graph(range(2 * n), [(i, (i + 1) % n) for i in range(n)]
                 + [(n + i, n + (i + 1) % n) for i in range(n)]
                 + [(i, n + i) for i in range(n)])


def test_cap():
    # `cap` bounds branch nodes, not vertices: a 50-vertex graph with one
    # edge takes one node, and K4 needs more than one
    assert exact_vc(Graph(range(50), [(0, 1)]), cap=1)[0] == 1
    with pytest.raises(CapExceededError, match="budget of 1 branch nodes"):
        exact_vc(complete_graph(4), cap=1)


def test_30_prism_cover():
    # 60 vertices, well past the old 40-vertex refusal; the prism of an
    # even cycle is bipartite, so the cover is half the vertices
    g = prism_graph(30)
    size, witness = exact_vc(g)
    assert size == 30 and is_cover(g, witness)[0]


def test_prism_cover():
    prism = Graph(range(6), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                             (0, 3), (1, 4), (2, 5)])
    assert exact_vc(prism)[0] == 4
