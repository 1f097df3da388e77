import itertools
import random
import sys

import pytest
from hypothesis import strategies as st

from hyperchrome.hypercore import Hypergraph
from hyperchrome.connectivity import is_connected


def _possible_edges(n: int, sizes):
    return [
        e
        for size in sizes
        if size <= n
        for e in itertools.combinations(range(n), size)
    ]


@pytest.fixture
def default_recursion_limit():
    """Run at CPython's default recursion limit, whatever the runner set."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(old)


@st.composite
def hypergraphs(draw, min_n=0, max_n=6, sizes=(2, 3)):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pool = _possible_edges(n, sizes)
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=12)) if pool else []
    return Hypergraph.of(n, edges)


@st.composite
def connected_hypergraphs(draw, min_n=1, max_n=6, sizes=(2, 3)):
    g = draw(hypergraphs(min_n=min_n, max_n=max_n, sizes=sizes))
    if is_connected(g):
        return g
    # stitch components together with a spanning chain of extra edges
    comps = []
    from hyperchrome.connectivity import components

    for c in components(g):
        comps.append(c[0])
    extra = [(a, b) for a, b in zip(comps, comps[1:])]
    return Hypergraph.of(g.n, set(g.edges) | {tuple(sorted(e)) for e in extra})


def forest_edges(n: int, drawn) -> list[tuple[int, ...]]:
    """The drawn vertex sets, in order, that keep the incidence graph a
    forest: each is kept only when its vertices lie in distinct
    components of the sets kept before it, so no Berge cycle closes."""
    root = list(range(n))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    kept = []
    for e in drawn:
        tops = {find(v) for v in e}
        if len(tops) == len(e):
            top = find(e[0])
            for t in tops:
                root[t] = top
            kept.append(tuple(sorted(e)))
    return kept


@st.composite
def hyperforests(draw, max_n=10, sizes=(2, 3, 4)):
    """A hyperforest: a hypergraph whose vertex-edge incidence graph is
    a forest, with isolated vertices and several pieces."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    pool = _possible_edges(n, sizes)
    drawn = draw(st.lists(st.sampled_from(pool), max_size=12)) if pool else []
    return Hypergraph.of(n, forest_edges(n, drawn))


def stars_and_c5(stars: int) -> Hypergraph:
    """``stars`` disjoint K1,3 (centre 4s, leaves 4s + 1..3) and a C5 on
    the last five vertices: chi 3, and a 2-coloring search that
    backtracks through every coloring of the stars before it fails."""
    edges = [(4 * s, 4 * s + leaf) for s in range(stars) for leaf in (1, 2, 3)]
    c = 4 * stars
    edges += [(c + i, c + i + 1) for i in range(4)] + [(c, c + 4)]
    return Hypergraph.of(c + 5, edges)


def stars_and_grotzsch(stars: int) -> Hypergraph:
    """``stars`` disjoint K1,7 (centre 8s, leaves 8s + 1..7) and the
    Grötzsch graph on the last 11 vertices: rim C5, its five shadows,
    each joined to its rim vertex's neighbours, and a hub on the
    shadows.  chi 4 with clique bound 2 and no certified block; the
    centres come first in degree order, so a 3-coloring search of the
    whole graph backtracks through every coloring of the stars."""
    edges = [(8 * s, 8 * s + leaf) for s in range(stars) for leaf in range(1, 8)]
    c = 8 * stars
    grotzsch = [(i, (i + 1) % 5) for i in range(5)]
    grotzsch += [(i, 5 + (i + d) % 5) for i in range(5) for d in (1, 4)]
    grotzsch += [(5 + i, 10) for i in range(5)]
    edges += [(c + a, c + b) for a, b in grotzsch]
    return Hypergraph.of(c + 11, edges)


def seeded_random_hypergraph(rng: random.Random, n: int, sizes, m_max: int) -> Hypergraph:
    pool = _possible_edges(n, sizes)
    m = rng.randint(0, min(m_max, len(pool)))
    return Hypergraph.of(n, rng.sample(pool, m))


def random_nested_join(
    rng: random.Random, k: int, n_max: int, joins: int, include_vstar: bool | None = None
) -> Hypergraph:
    """Nested Hajos joins over the base shapes for the given k; every
    join keeps v* on the merged edge or drops it as ``include_vstar``
    says, or at random when it is None (the draw is made either way)."""
    from hyperchrome import constructions as cons

    if k == 3:
        bases = [cons.odd_wheel(5), cons.complete_graph(4), cons.odd_wheel(7)]
    else:
        bases = [cons.complete_graph(k + 1)]
    g = rng.choice(bases)
    for _ in range(joins):
        other = rng.choice(bases)
        if g.n + other.n - 1 > n_max:
            break
        for _ in range(40):
            e1, e2 = rng.randrange(g.m), rng.randrange(other.m)
            v1, v2 = rng.choice(g.edge(e1)), rng.choice(other.edge(e2))
            include = rng.random() < 0.5
            if include_vstar is not None:
                include = include_vstar
            try:
                g = cons.hajos_join(
                    cons.HajosJoinSpec(g, other, v1, v2, e1, e2, include)
                ).graph
                break
            except ValueError:
                continue
    return g


def join_chain(base: Hypergraph, t: int) -> Hypergraph:
    """A chain of t copies of base: t - 1 times, join a fresh copy at
    its edge 0 and that edge's first vertex, without v*, to the
    highest-ref edge inside the vertices added last, at that edge's
    first vertex.  Its certificate has depth t."""
    from hyperchrome import constructions as cons

    g, fresh = base, set(range(base.n))
    for _ in range(t - 1):
        ref = max(r for r, e in enumerate(g.edges) if fresh.issuperset(e))
        spec = cons.HajosJoinSpec(g, base, g.edge(ref)[0], base.edge(0)[0], ref, 0, False)
        joined = cons.hajos_join(spec).graph
        g, fresh = joined, set(range(g.n, joined.n))
    return g


def relabelled(g: Hypergraph, rng: random.Random) -> Hypergraph:
    """g with its vertices renamed by a random permutation."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Hypergraph.of(g.n, [[perm[v] for v in e] for e in g.edges])


def perturbed_join(rng: random.Random, k: int) -> Hypergraph:
    """A nested join, perturbed as ``perturb`` says."""
    return perturb(rng, random_nested_join(rng, k, 14, rng.randint(0, 2)))


def perturb(rng: random.Random, g: Hypergraph) -> Hypergraph:
    """g with one edge deleted, one edge added, one edge grown by a
    vertex, or a degree-2 vertex added; a drawn edge that is already
    present leaves g as it was."""
    edges, n = list(g.edges), g.n
    how = rng.choice(["delete", "add", "grow", "degree-2"])
    if how == "delete":
        edges.pop(rng.randrange(len(edges)))
    elif how == "add":
        e = tuple(sorted(rng.sample(range(n), rng.choice([2, 3]))))
        if e not in edges:
            edges.append(e)
    elif how == "grow":
        i = rng.randrange(len(edges))
        grown = tuple(sorted(edges[i] + (rng.choice([v for v in range(n) if v not in edges[i]]),)))
        if grown not in edges:
            edges[i] = grown
    else:
        u, w = rng.sample(range(n), 2)
        edges += [(u, n), (w, n)]
        n += 1
    return Hypergraph.of(n, edges)
