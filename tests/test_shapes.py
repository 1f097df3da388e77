import random

from hyperchrome.hypercore import Hypergraph
from hyperchrome import constructions as cons
from hyperchrome import shapes

import lemmas
import oracles
from conftest import relabelled


def test_complete_graph():
    assert shapes.is_complete_graph(cons.complete_graph(1))
    assert shapes.is_complete_graph(cons.complete_graph(4))
    assert not shapes.is_complete_graph(cons.cycle(4))
    assert not shapes.is_complete_graph(Hypergraph.of(3, [(0, 1, 2)]))


def test_cycles():
    assert shapes.is_cycle(cons.cycle(4))
    assert shapes.is_odd_cycle(cons.cycle(5))
    assert not shapes.is_odd_cycle(cons.cycle(6))
    assert shapes.is_odd_cycle(cons.complete_graph(3))
    two = Hypergraph.of(6, set(cons.cycle(3).edges) | {(3, 4), (4, 5), (3, 5)})
    assert not shapes.is_cycle(two)


def test_single_edge():
    assert shapes.is_single_edge(Hypergraph.of(3, [(0, 1, 2)]))
    assert not shapes.is_single_edge(Hypergraph.of(4, [(0, 1, 2)]))  # isolated vertex
    assert not shapes.is_single_edge(cons.cycle(3))


def test_wheels():
    assert shapes._odd_wheel_layout(cons.odd_wheel(5))[-1] == 5
    assert shapes._odd_wheel_layout(cons.odd_wheel(7))[-1] == 7
    assert shapes._odd_wheel_layout(cons.complete_graph(4))[-1] == 0  # K4 is the triangle wheel
    assert shapes._odd_wheel_layout(cons.cycle(6)) is None
    assert shapes.is_odd_wheel(cons.odd_wheel(9))
    assert not shapes.is_odd_wheel(cons.hyperwheel(5))


def _hub_over_triangles(count):
    """A hub joined to every vertex of disjoint triangles: the degrees and
    edge count of an odd wheel, but a rim of several cycles."""
    rim = 3 * count
    edges = [(3 * t + i, 3 * t + (i + 1) % 3) for t in range(count) for i in range(3)]
    return Hypergraph.of(rim + 1, edges + [(v, rim) for v in range(rim)])


def test_wheel_layout_matches_the_reference():
    """The one rim walk gives the leaf layout of the induced-rim test
    and second walk it replaced, and the same hub."""
    rng = random.Random(12)
    wheels = [relabelled(cons.odd_wheel(rim), rng) for rim in range(3, 24, 2) for _ in range(5)]
    others = [cons.complete_graph(4), _hub_over_triangles(3)]
    others += [cons.cycle(n) for n in range(4, 13, 2)]
    others += [cons.hyperwheel(size) for size in range(3, 8)]
    for g in wheels + others:
        leaf = oracles.reference_wheel_leaf(g, range(g.n))
        layout = shapes._odd_wheel_layout(g)
        assert layout == (leaf and leaf.labels), g
        assert (None if layout is None else layout[-1]) == oracles.reference_wheel_hub(g)
        assert shapes.is_odd_wheel(g) == (leaf is not None)
    assert all(shapes.is_odd_wheel(g) for g in wheels)
    assert shapes._odd_wheel_layout(cons.complete_graph(4)) == (1, 2, 3, 0)


def test_wheel_layout_walks_the_whole_rim():
    g = _hub_over_triangles(3)
    assert sorted(g.degree(v) for v in range(g.n)) == [3] * 9 + [9]
    assert g.m == 2 * (g.n - 1)
    assert shapes._odd_wheel_layout(g) is None


def test_hyperwheels():
    assert lemmas.is_hyperwheel(cons.hyperwheel(3))
    assert lemmas.is_hyperwheel(cons.hyperwheel(5))
    assert lemmas.is_hyperwheel(cons.complete_graph(3))  # edge {a,b} plus apex
    assert not lemmas.is_hyperwheel(cons.odd_wheel(5))
    assert not lemmas.is_hyperwheel(Hypergraph.of(4, [(0, 1, 2, 3)]))
