"""Constructive operators and named families: Hajos join, Dirac sum,
splitting, the decomposition theorems, and the generators for the
families used throughout the calculus."""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass

from .hypercore import MAX_VERTICES, Hypergraph, Relabeled
from . import connectivity as conn
from . import coloring as col


# -- generators ------------------------------------------------------------


def _check_size(n: int, m: int) -> None:
    """Refuse, before anything is built, a family member with more than
    ``MAX_VERTICES`` vertices or edges: the limit HGR input has, since a
    short command line must not ask for unbounded time and memory."""
    if n > MAX_VERTICES or m > MAX_VERTICES:
        raise ValueError(
            f"the construction has {n} vertices and {m} edges, "
            f"past the limit of {MAX_VERTICES} on each"
        )


def complete_graph(n: int) -> Hypergraph:
    _check_size(n, math.comb(max(n, 0), 2))
    return Hypergraph.of(n, itertools.combinations(range(n), 2))


def cycle(n: int) -> Hypergraph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    _check_size(n, n)
    return Hypergraph.of(n, [(i, (i + 1) % n) for i in range(n)])


def odd_wheel(rim_len: int) -> Hypergraph:
    """Rim cycle 0..rim_len-1 plus hub vertex rim_len."""
    if rim_len < 3 or rim_len % 2 == 0:
        raise ValueError("rim length must be odd and >= 3")
    _check_size(rim_len + 1, 2 * rim_len)
    edges = [(i, (i + 1) % rim_len) for i in range(rim_len)]
    edges += [(i, rim_len) for i in range(rim_len)]
    return Hypergraph.of(rim_len + 1, edges)


def hyperwheel(edge_size: int) -> Hypergraph:
    """Base hyperedge 0..edge_size-1 plus hub vertex edge_size with
    ordinary spokes."""
    if edge_size < 3:
        raise ValueError("base edge size must be >= 3")
    _check_size(edge_size + 1, edge_size + 1)
    edges = [tuple(range(edge_size))]
    edges += [(i, edge_size) for i in range(edge_size)]
    return Hypergraph.of(edge_size + 1, edges)


def dirac_sum(g1: Hypergraph, g2: Hypergraph) -> Hypergraph:
    """Disjoint union plus all ordinary edges across; g2 ids shift up."""
    shift = g1.n
    edges = list(g1.edges)
    edges += [tuple(v + shift for v in e) for e in g2.edges]
    edges += [(a, b + shift) for a in range(g1.n) for b in range(g2.n)]
    return Hypergraph.of(g1.n + g2.n, edges)


def kc(n: int, p: int) -> Hypergraph:
    """KC_{n,p}: the Dirac sum of K_n and the odd cycle C_{2p+1}."""
    if n < 1 or p < 1:
        raise ValueError("need n >= 1 and p >= 1")
    _check_size(n + 2 * p + 1, math.comb(n, 2) + (2 * p + 1) * (n + 1))
    return dirac_sum(complete_graph(n), cycle(2 * p + 1))


def c2_tree(parents: list[int]) -> Hypergraph:
    """A tree (parent array, root marked -1) plus the hyperedge of its
    leaves.  The root must have degree >= 2 and all leaf depths must
    share a parity."""
    n = len(parents)
    roots = [v for v, p in enumerate(parents) if p == -1]
    if len(roots) != 1:
        raise ValueError("exactly one root (-1 entry) required")
    root = roots[0]
    children: list[list[int]] = [[] for _ in range(n)]
    for v, p in enumerate(parents):
        if v != root:
            if not 0 <= p < n:
                raise ValueError(f"parent of {v} out of range")
            children[p].append(v)
    depth = [0] * n
    order = [root]  # the root, then each vertex after its parent
    for v in order:
        for c in children[v]:
            depth[c] = depth[v] + 1
            order.append(c)
    if len(order) != n:
        raise ValueError("parent array does not form a tree")
    if len(children[root]) < 2:
        raise ValueError("root degree must be >= 2")
    leaves = sorted(v for v in range(n) if not children[v])
    if len({depth[v] % 2 for v in leaves}) != 1:
        raise ValueError("leaf depths must all have the same parity")
    edges = [tuple(sorted((v, parents[v]))) for v in range(n) if v != root]
    edges.append(tuple(leaves))
    return Hypergraph.of(n, edges)


def figure3() -> Hypergraph:
    """The tree-based 3-critical member without small separators: root
    of degree 3, three internal vertices, six leaves on one hyperedge."""
    return c2_tree([-1, 0, 0, 0, 1, 1, 2, 2, 3, 3])


def toft_graph(p: int) -> Hypergraph:
    """Toft's dense 4-critical graph: the Dirac sum of two single-edge
    hypergraphs of size 2p+1, with both hyperedges split away using
    wheel hubs.  Order 8p+4 with (2p+1)^2 + 8p + 4 edges."""
    if p < 1:
        raise ValueError("need p >= 1")
    size = 2 * p + 1
    _check_size(8 * p + 4, size * size + 8 * p + 4)
    base = Hypergraph.of(size, [tuple(range(size))])
    g = dirac_sum(base, base)
    for offset in (0, size):
        edge_vs = tuple(range(offset, offset + size))
        wheel = kc(1, p)  # hub is vertex 0
        hub_edges = wheel.incident(0)
        s = {ref: (edge_vs[i],) for i, ref in enumerate(hub_edges)}
        g = split(SplitSpec(g, g.edge_ref(edge_vs), wheel, 0, s)).graph
    return g


def figure2_g2() -> Hypergraph:
    """The 9-vertex 4-critical graph whose degree-6 vertex (id 8) can
    be split into an independent pair."""
    edges = [
        (0, 1), (0, 5), (0, 8), (1, 2), (2, 3), (2, 6), (3, 4), (4, 7),
        (4, 8), (1, 3), (1, 8), (3, 8), (5, 6), (5, 8), (6, 7), (7, 8),
    ]
    return Hypergraph.of(9, edges)


def figure2_g1() -> Hypergraph:
    """The 10-vertex 4-critical companion of figure2_g2: the degree-6
    vertex split into the independent pair {8, 9}."""
    g2 = figure2_g2()
    s = {g2.edge_ref(e): (0 if e in {(0, 8), (1, 8), (5, 8)} else 1,)
         for e in [(0, 8), (1, 8), (5, 8), (4, 8), (3, 8), (7, 8)]}
    return split_vertex(g2, 8, 2, s).graph


# -- Hajos join ------------------------------------------------------------


@dataclass(frozen=True)
class HajosJoinSpec:
    """Join data: delete e1 from g1 and e2 from g2, identify v1 with v2
    and add the merged edge (with or without the merged vertex)."""

    g1: Hypergraph
    g2: Hypergraph
    v1: int
    v2: int
    e1: int
    e2: int
    include_vstar: bool

    def __post_init__(self) -> None:
        if self.v1 not in self.g1.edge(self.e1):
            raise ValueError("v1 must lie on e1")
        if self.v2 not in self.g2.edge(self.e2):
            raise ValueError("v2 must lie on e2")


@dataclass(frozen=True)
class JoinResult:
    """The join plus provenance: result ids 0..n1-1 are g1's ids (the
    merged vertex keeps v1's id), then g2's other vertices in order."""

    graph: Hypergraph
    vstar: int
    g1_map: tuple[int, ...]
    g2_map: tuple[int, ...]
    estar: tuple[int, ...]


def hajos_join(spec: HajosJoinSpec) -> JoinResult:
    """The merged edge holds a vertex of each side other than v*, so it
    has two or more vertices and equals no other edge."""
    g1, g2 = spec.g1, spec.g2
    g1_map = tuple(range(g1.n))
    g2_map = tuple(
        spec.v1 if u == spec.v2 else g1.n + u - (u > spec.v2) for u in range(g2.n)
    )
    edges = [e for i, e in enumerate(g1.edges) if i != spec.e1]
    edges += [
        tuple(sorted(g2_map[u] for u in e))
        for i, e in enumerate(g2.edges)
        if i != spec.e2
    ]
    estar = set(g1.edge(spec.e1)) - {spec.v1}
    estar |= {g2_map[u] for u in g2.edge(spec.e2) if u != spec.v2}
    if spec.include_vstar:
        estar.add(spec.v1)
    estar_t = tuple(sorted(estar))
    edges.append(estar_t)
    return JoinResult(
        Hypergraph.of(g1.n + g2.n - 1, edges), spec.v1, g1_map, g2_map, estar_t
    )


def figure1_join(include_vstar: bool) -> JoinResult:
    """Either Hajos join of two K4 (7 vertices, 11 edges)."""
    k4 = complete_graph(4)
    return hajos_join(HajosJoinSpec(k4, k4, 0, 0, k4.edge_ref((0, 1)),
                                    k4.edge_ref((0, 1)), include_vstar))


@dataclass(frozen=True)
class MixedDecomposition:
    """Hajos decomposition at a mixed separating set (v*, e*)."""

    spec: HajosJoinSpec
    g1_old: tuple[int, ...]  # spec.g1 vertex -> original id
    g2_old: tuple[int, ...]
    vstar: int
    estar: int  # original edge ref


def hajos_decompose_mixed(g: Hypergraph, v_star: int, e_star: int) -> MixedDecomposition:
    """Peel one Hajos-join layer at a mixed separating set: G - e* is
    the union of two parts meeting exactly at v*, and each part plus
    its half of e* (through v*) is an operand of the join.

    The first side is the first component of (G - e*) / v*, the one
    holding the smallest vertex other than v*, and the search stops
    there; the second side is the rest.  Every other edge lies in one
    side plus v*, so one pass over the edges builds both parts.  A
    side's vertices keep their order when renumbered, so its edges stay
    strictly sorted and in canonical order, and the half edge is
    inserted at its place."""
    estar_vs = g.edge(e_star)
    g._check_vertex(v_star)
    n, edges = g.n, g.edges
    # g has an edge, so a vertex other than v* exists
    side1 = next(conn._pieces(g, (v_star,), (e_star,)))
    if len(side1) == n - 1:  # (G - e*) / v* is one piece
        raise ValueError(f"({v_star}, edge {e_star}) is not a mixed separating set")
    in_side1 = [False] * n
    for u in side1:
        in_side1[u] = True
    tips = [u for u in estar_vs if u != v_star]
    if all(in_side1[u] for u in tips) or not any(in_side1[u] for u in tips):
        raise ValueError("deleted edge does not meet both sides")
    # v* is in both parts: unmarked, it falls in the second, and the
    # first adds it
    old1 = [u for u in range(n) if in_side1[u] or u == v_star]
    old2 = [u for u in range(n) if not in_side1[u]]
    pos1, pos2 = [0] * n, [0] * n
    for pos, old in ((pos1, old1), (pos2, old2)):
        for i, u in enumerate(old):
            pos[u] = i
    edges1, edges2 = [], []
    for ref, e in enumerate(edges):
        if ref != e_star:
            # an edge has two or more vertices, so the getter gives a tuple
            if in_side1[e[1] if e[0] == v_star else e[0]]:
                edges1.append(operator.itemgetter(*e)(pos1))
            else:
                edges2.append(operator.itemgetter(*e)(pos2))
    parts = []
    for first, old, pos, part_edges in ((True, old1, pos1, edges1), (False, old2, pos2, edges2)):
        half = tuple(sorted([pos[v_star]] + [pos[u] for u in tips if in_side1[u] == first]))
        ref = bisect.bisect_left(part_edges, half)
        if ref < len(part_edges) and part_edges[ref] == half:
            raise ValueError(
                "half edge already present; input violates the decomposition"
            )
        part_edges.insert(ref, half)
        parts.append((Hypergraph._trusted(len(old), tuple(part_edges)), tuple(old), pos[v_star], ref))
    (p1, old1, v1, ref1), (p2, old2, v2, ref2) = parts
    spec = HajosJoinSpec(p1, p2, v1, v2, ref1, ref2, include_vstar=v_star in estar_vs)
    return MixedDecomposition(spec, old1, old2, v_star, e_star)


# -- splitting -------------------------------------------------------------


@dataclass(frozen=True)
class SplitSpec:
    """Split data: replace vertex v_tilde of g2 by the edge e_tilde of
    g1, redistributing its incident edges via the covering map s (g2
    edge ref -> non-empty tuple of e_tilde vertices, union = e_tilde)."""

    g1: Hypergraph
    e_tilde: int
    g2: Hypergraph
    v_tilde: int
    s: dict[int, tuple[int, ...]]

    def __post_init__(self) -> None:
        target = set(self.g1.edge(self.e_tilde))
        incident = set(self.g2.incident(self.v_tilde))
        if set(self.s) != incident:
            raise ValueError("s must cover exactly the edges at v_tilde")
        covered: set[int] = set()
        for ref, img in self.s.items():
            if not img:
                raise ValueError(f"s({ref}) is empty")
            if not set(img) <= target:
                raise ValueError(f"s({ref}) leaves the target edge")
            covered.update(img)
        if covered != target:
            raise ValueError("images of s must cover the target edge")


@dataclass(frozen=True)
class SplitResult:
    graph: Hypergraph
    g1_map: tuple[int, ...]
    g2_map: tuple[int, ...]  # v_tilde maps to -1 (it disappears)


def split(spec: SplitSpec) -> SplitResult:
    """S(G1, e~, G2, v~, s): g1 keeps its ids, g2's other vertices are
    appended.  No two edges collide: each edge through v~ has a vertex
    of each side, and two of them differ off v~."""
    g1, g2 = spec.g1, spec.g2
    g2_map = tuple(
        -1 if u == spec.v_tilde else g1.n + u - (u > spec.v_tilde) for u in range(g2.n)
    )
    edges = [e for i, e in enumerate(g1.edges) if i != spec.e_tilde]
    for i, e in enumerate(g2.edges):
        if spec.v_tilde in e:
            moved = {g2_map[u] for u in e if u != spec.v_tilde}
            moved.update(spec.s[i])
        else:
            moved = {g2_map[u] for u in e}
        edges.append(tuple(sorted(moved)))
    return SplitResult(Hypergraph.of(g1.n + g2.n - 1, edges), tuple(range(g1.n)), g2_map)


def split_vertex(g: Hypergraph, v: int, count: int, s: dict[int, tuple[int, ...]]) -> Relabeled:
    """Split a vertex into `count` fresh vertices: S(G, v, X, s).  The
    surviving vertices compact to 0..n-2, the fresh set is appended;
    s maps each edge at v to the fresh slots (0-based) it moves to.  No
    two edges collide: only those at v gain one, and they differ off v."""
    if count < 1:
        raise ValueError("need at least one fresh vertex")
    incident = set(g.incident(v))
    if set(s) != incident:
        raise ValueError("s must cover exactly the edges at v")
    covered: set[int] = set()
    for ref, img in s.items():
        if not img or not all(0 <= i < count for i in img):
            raise ValueError(f"bad image for edge {ref}")
        covered.update(img)
    if covered != set(range(count)):
        raise ValueError("images of s must cover the fresh set")
    old = [u for u in range(g.n) if u != v]
    pos = {u: i for i, u in enumerate(old)}
    fresh = [len(old) + i for i in range(count)]
    edges = []
    for i, e in enumerate(g.edges):
        if v in e:
            moved = {pos[u] for u in e if u != v} | {fresh[j] for j in s[i]}
        else:
            moved = {pos[u] for u in e}
        edges.append(tuple(sorted(moved)))
    return Relabeled(Hypergraph.of(len(old) + count, edges), tuple(old) + (-1,) * count)


# -- decomposition theorems ------------------------------------------------


@dataclass(frozen=True)
class VertexPairDecomposition:
    """Decomposition at an independent separating pair {v, w}: side 1
    forces equal colors on the pair, side 2 forces distinct colors."""

    v: int
    w: int
    h1: tuple[int, ...]
    h2: tuple[int, ...]
    g1: Relabeled
    g2: Relabeled
    g1_prime: Hypergraph  # g1 plus the edge vw, in g1's id space
    g2_prime: Hypergraph  # g2 with v and w identified


def decompose_vertex_pair(
    g: Hypergraph, k: int, force: bool = False
) -> VertexPairDecomposition | None:
    """Theorem-backed decomposition of a (k+1)-critical hypergraph at
    a separating vertex pair; None when no size-<=2 separator exists.
    Side 1 is the side for which G1' = side 1 + vw and G2' = side 2 / vw
    are (k+1)-critical (``_orient``), as the theorem requires.  That
    implies the dichotomy: every k-coloring of side 1 gives v and w one
    color, and none of side 2, which has some as a proper subgraph of g.
    The pair is independent: were {v, w} an edge, k-colorings of both
    sides plus {v, w}, proper subgraphs of g, would color v and w apart
    and glue, after renaming colors, into a k-coloring of g."""
    col.require_critical(g, k, force=force)
    sep = next(conn._separating_sets(g, 2), None)
    if sep is None:
        return None
    # a critical hypergraph is 2-connected, and the theorem gives two sides
    if len(sep) != 2:
        raise conn.InternalError("critical hypergraph has a separating vertex; bug upstream")
    v, w = sep
    if any(set(e) == {v, w} for e in g.edges):
        raise conn.InternalError("separating pair of a critical input is an edge; bug upstream")
    comps = list(conn._pieces(g, (v, w)))
    if len(comps) != 2:
        raise conn.InternalError(f"expected exactly 2 components, found {len(comps)}")

    def build(sides):
        side1, side2 = (g.induced(sorted(set(h) | {v, w})) for h in sides)
        (pv, pw), (qv, qw) = ((s.old_ids.index(v), s.old_ids.index(w)) for s in (side1, side2))
        g1_prime = Hypergraph.of(side1.graph.n, side1.graph.edges + ((pv, pw),))
        g2_prime = identify_vertices(side2.graph, qv, qw)
        dec = VertexPairDecomposition(v, w, *sides, side1, side2, g1_prime, g2_prime)
        return dec, ((g1_prime, "G1'"), (g2_prime, "G2'"))

    h1, h2 = comps
    return _orient(k, force, build, ((h1, h2), (h2, h1)))


def _orient(k: int, force: bool, build, orientations):
    """The first orientation whose parts are all (k+1)-critical, as the
    decomposition theorems require; at most one is, or one side's
    colorings would be both constant and not on its separator.
    ``build`` gives (result, ((part, name), ...)) or raises ValueError.
    At k >= 3 one whose parts certify goes first, with no search; then
    each in order under ``require_critical``.  Raises the first error."""
    from . import classifier as cls  # the classifier imports this module

    error, built = None, []
    for orientation in orientations:
        try:
            built.append(build(orientation))
        except ValueError as exc:
            error = error or exc
    if k >= 3:
        for result, parts in built:
            if all(cls.is_in_Ck(part, k) for part, _ in parts):
                return result
    for result, parts in built:
        try:
            for part, name in parts:
                col.require_critical(part, k, name, force=force)
        except ValueError as exc:
            error = error or exc
        else:
            return result
    raise error


def identify_vertices(g: Hypergraph, v: int, w: int) -> Hypergraph:
    """Merge w into v; duplicate images collapse (identification is a
    quotient, unlike join/split)."""
    if v == w:
        raise ValueError("vertices must be distinct")
    old = [u for u in range(g.n) if u != w]
    pos = {u: i for i, u in enumerate(old)}
    pos[w] = pos[v]
    edges = set()
    for e in g.edges:
        img = tuple(sorted({pos[u] for u in e}))
        if len(img) >= 2:
            edges.add(img)
    return Hypergraph.of(g.n - 1, edges)


@dataclass(frozen=True)
class EdgeCutDecomposition:
    """Decomposition at a size-k edge cut, oriented so that side X
    forces one color on X_F and side Y spreads all k colors on Y_F."""

    cut: conn.EdgeCut
    g1: Hypergraph | None  # G[X] + hyperedge X_F, absent when |X_F| < 2
    g1_old: tuple[int, ...]
    g2: Hypergraph  # G[Y] + apex (last vertex) with the redirected cut edges
    g2_old: tuple[int, ...]  # apex maps to -1


def decompose_edge_cut(g: Hypergraph, k: int, f, force: bool = False) -> EdgeCutDecomposition:
    """Theorem-backed decomposition of a (k+1)-critical hypergraph at a
    separating edge set of size <= k, which is minimal of size k: such
    a hypergraph is k-edge-connected (Toft), so anything else is a bug.
    Side X is the side for which each vertex of Y_F lies on one cut edge
    and G2 = G[Y] + apex and, at |X_F| >= 2, G1 = G[X] + X_F are
    (k+1)-critical (``_orient``), as the theorem requires.  That implies
    the coloring structure: every k-coloring of G[X] is constant on X_F
    (trivially at |X_F| = 1), and every one of G[Y] fills some cut
    edge's trace f & Y with each color."""
    col.require_critical(g, k, force=force)
    refs = conn._edge_refs(g, f)
    # critical, so connected: one component pass decides all three tests
    pieces = list(conn._pieces(g, (), refs))
    if len(pieces) < 2:
        raise ValueError("edge set is not separating")
    if len(refs) > k:
        raise ValueError(f"separating set has size {len(refs)} > {k}")
    if len(refs) != k or not conn._is_minimal_cut(g, refs, pieces):
        raise conn.InternalError(f"separating set {refs} is not minimal of size {k}; bug upstream")

    def build(cut):
        for u in cut.y_f:
            if sum(1 for ref in cut.f if u in g.edge(ref)) != 1:
                raise ValueError(f"vertex {u} not incident to exactly one cut edge")
        g2, g2_old = _apex_side(g, cut.y, cut.f)
        if len(cut.x_f) < 2:
            return EdgeCutDecomposition(cut, None, (), g2, g2_old), ((g2, "G2"),)
        sub, old = g.induced(cut.x)
        pos = {u: i for i, u in enumerate(old)}
        g1 = Hypergraph.of(sub.n, sub.edges + (tuple(sorted(pos[u] for u in cut.x_f)),))
        return EdgeCutDecomposition(cut, g1, old, g2, g2_old), ((g2, "G2"), (g1, "G1"))

    cut = conn._cut_of(g, pieces)
    return _orient(k, force, build, (cut, conn.EdgeCut(cut.y, cut.x, cut.f, cut.y_f, cut.x_f)))


def _apex_side(g: Hypergraph, ys, refs) -> Relabeled:
    """G[ys] plus an apex, its last vertex with old id -1, and the edge
    (f & ys) + apex for each cut edge f in ``refs``."""
    sub, old = g.induced(ys)
    pos = {u: i for i, u in enumerate(old)}
    apex = sub.n
    traces = (tuple(sorted({pos[u] for u in g.edge(ref) if u in pos} | {apex})) for ref in refs)
    return Relabeled(Hypergraph.of(sub.n + 1, sub.edges + tuple(traces)), old + (-1,))
