"""Structural shape predicates for the named base families."""

from __future__ import annotations

from .hypercore import Hypergraph
from .connectivity import is_connected


def is_complete_graph(g: Hypergraph) -> bool:
    """K_n: all ordinary edges, every pair adjacent (K_1 included)."""
    if g.n == 0:
        return False
    return g.is_graph() and g.m == g.n * (g.n - 1) // 2


def is_cycle(g: Hypergraph) -> bool:
    """C_n, n >= 3: connected, 2-regular, ordinary edges only."""
    if g.n < 3 or g.m != g.n or not g.is_graph():
        return False
    return all(g.degree(v) == 2 for v in range(g.n)) and is_connected(g)


def is_odd_cycle(g: Hypergraph) -> bool:
    return is_cycle(g) and g.n % 2 == 1


def is_single_edge(g: Hypergraph) -> bool:
    """A connected hypergraph consisting of exactly one edge."""
    return g.m == 1 and g.n == len(g.edges[0])


def _odd_wheel_layout(g: Hypergraph) -> tuple[int, ...] | None:
    """An odd wheel's leaf layout: the rim in cyclic order from its
    smallest id, stepping first to that vertex's smaller rim neighbour,
    then the hub; None for any other hypergraph.  The hub is the first
    vertex of degree n - 1: for n > 4 any other fails the degree-3 test
    that follows, and in K_4 it is 0.  The rim is then 2-regular, so it
    is an odd cycle iff one walk round it reaches all n - 1 vertices."""
    n = g.n
    if n < 4 or n % 2 or g.m != 2 * (n - 1) or not g.is_graph():
        return None
    degrees = [len(refs) for refs in g.incidence]
    hub = next((v for v in range(n) if degrees[v] == n - 1), None)
    if hub is None or any(d != 3 for v, d in enumerate(degrees) if v != hub):
        return None

    def rim_neighbours(v: int) -> list[int]:
        return [w for ref in g.incidence[v] for w in g.edges[ref] if w != v and w != hub]

    start = 1 if hub == 0 else 0
    order = [start]
    prev, cur = start, min(rim_neighbours(start))
    while cur != start:
        order.append(cur)
        prev, cur = cur, next(w for w in rim_neighbours(cur) if w != prev)
    return (*order, hub) if len(order) == n - 1 else None


def is_odd_wheel(g: Hypergraph) -> bool:
    return _odd_wheel_layout(g) is not None

