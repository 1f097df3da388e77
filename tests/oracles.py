"""Independent brute-force oracles used to pin the fast implementations.

Deliberately naive: full assignment enumeration for coloring, explicit
hyperpath enumeration plus packing search for connectivity, and subset
enumeration for cuts.  Only usable at toy sizes.
"""

from __future__ import annotations

import itertools

from hyperchrome.hypercore import Hypergraph


def brute_valid(g: Hypergraph, colors) -> bool:
    return not any(len({colors[v] for v in e}) == 1 for e in g.edges)


def brute_chi(g: Hypergraph) -> int:
    if g.n == 0:
        return 0
    for k in range(1, g.n + 1):
        for colors in itertools.product(range(k), repeat=g.n):
            if brute_valid(g, colors):
                return k
    raise AssertionError("unreachable: n colors always suffice")


def brute_count_colorings(g: Hypergraph, k: int) -> int:
    return sum(
        1 for colors in itertools.product(range(k), repeat=g.n) if brute_valid(g, colors)
    )


def all_hyperpaths(g: Hypergraph, v: int, w: int):
    """Every simple (v,w)-hyperpath as (vertex tuple, edge-ref tuple)."""
    out = []

    def extend(vertices, edges):
        here = vertices[-1]
        if here == w:
            out.append((tuple(vertices), tuple(edges)))
            return
        for ref in g.incident(here):
            if ref in edges:
                continue
            for nxt in g.edge(ref):
                if nxt not in vertices:
                    extend(vertices + [nxt], edges + [ref])

    if v == w:
        return []
    extend([v], [])
    return out


def brute_local_lambda(g: Hypergraph, v: int, w: int) -> int:
    """Max number of pairwise edge-disjoint (v,w)-hyperpaths.

    Packing search over (path index, used-edge bitmask) states: after
    the first i paths, ``best[used]`` is the most paths packable using
    exactly the edges in ``used``, so equal masks are searched once."""
    masks = [sum(1 << ref for ref in edges) for _, edges in all_hyperpaths(g, v, w)]
    best = {0: 0}
    for mask in masks:
        for used, size in list(best.items()):
            if not used & mask and best.get(used | mask, -1) < size + 1:
                best[used | mask] = size + 1
    return max(best.values())


def brute_min_cut(g: Hypergraph, v: int, w: int) -> int:
    """Min |boundary(X)| over X containing v but not w."""
    rest = [u for u in range(g.n) if u not in (v, w)]
    best = g.m + 1
    for r in range(len(rest) + 1):
        for pick in itertools.combinations(rest, r):
            best = min(best, len(g._boundary(set(pick) | {v})))
    return best
