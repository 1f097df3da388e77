"""Exact chromatic numbers, k-coloring search, criticality testing,
and low/high vertex structure checks.

An edge is violated only when it is monochromatic, which is weaker
than pairwise-distinct graph coloring, so the search propagates a
not-all-equal constraint: a color is forbidden for the last uncolored
vertex of an edge only if all other vertices of that edge share it.
A vertex left with one allowed color takes it at once, and one left
with none ends the branch (unit propagation, as in DPLL).  This cuts
only branches that hold no coloring, so colorings come out in the
order of the plain depth-first search.

A 2-coloring with no preset starts with one linear propagation pass
(``_two_coloring``): each uncolored vertex in the search's order takes
color 1, and the colors it forces spread out from it.  When the pass
meets no conflict, its coloring is the search's first.  On an ordinary
graph a conflict is an odd cycle, so no coloring exists; a hypergraph
with a conflict, which has a Berge cycle, is searched as before.  So a
hyperforest, a path, a tree or an even cycle is never searched.

Every search the library runs for its own answers counts its decisions
and raises GuardExceeded once one search passes ``SEARCH_GUARD`` of
them, unless force (``--force``) is set: the cap measures the work, not
the input's size.  The cap bounds each search, not a whole question:
a question that runs many searches (the per-edge test, the chi scan)
can take that many times as long.  The linear 2-coloring pass is not
capped, and counts no decisions.  ``find_k_coloring`` called with its
public arguments (and ``color -k``) is unbounded.

chi and criticality come from the classifier's decision first: by the
theorem, chi(G) = lambda(G) + 1 >= 4 iff some block of G is in the
class at lambda, whose members are (lambda+1)-critical, so a certified
block gives chi with no search, and G is critical when that block is
all of G.  Only other inputs are searched.

The criticality test needs a k-coloring of G - e for every edge e, where
chi(G) = k + 1.  It searches G - e on G itself, with edge e skipped and
its vertices preset to color 1, since no k-coloring of G - e can color
e properly.  It searches only edges not already witnessed: from a
coloring of G - e in which e is the only monochromatic edge, moving one
vertex of e to another color gives a coloring of G - f whenever f is
then the only monochromatic edge through that vertex.  Walking these
moves witnesses most edges without a search (on KC graphs, all of them
after the first), and the first edge whose search fails is the same as
if every edge were searched.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

from .hypercore import Hypergraph
from .connectivity import GuardExceeded, InternalError, Block, blocks, bridges, components
from .connectivity import is_connected
from .shapes import is_complete_graph, is_odd_cycle

SEARCH_GUARD = 10**6


@dataclass(frozen=True)
class Coloring:
    """Vertex colors in 1..palette; valid iff no edge is monochromatic."""

    colors: tuple[int, ...]
    palette: int

    def __post_init__(self) -> None:
        if self.colors and (min(self.colors) < 1 or max(self.colors) > self.palette):
            raise ValueError("color out of palette range")

    def is_valid_for(self, g: Hypergraph) -> bool:
        if g.n != len(self.colors):
            return False
        return not any(self.is_monochromatic(e) for e in g.edges)

    def is_monochromatic(self, edge) -> bool:
        first = self.colors[edge[0]]
        return all(self.colors[v] == first for v in edge[1:])


@dataclass(frozen=True)
class CriticalityReport:
    is_critical: bool
    chi: int
    failing_edge: int | None = None
    reason: str = ""


def find_k_coloring(
    g: Hypergraph, k: int, preset: dict[int, int] | None = None, *, _force: bool = True
) -> Coloring | None:
    """A valid k-coloring if one exists, else None.  Deterministic:
    vertices are tried in descending-degree order with symmetry
    breaking (color c only after 1..c-1 appear), unless colors are
    preset, which disables symmetry breaking.  Unbounded: no decision
    cap applies.  The library's own searches pass their force as the
    private ``_force``, which puts them under the cap unless it is set.
    With k = 2 and no preset, one propagation pass, under no cap,
    gives the search's first coloring or, on an ordinary graph, finds
    that there is none; only a hypergraph on which the pass meets a
    conflict is searched."""
    if k < 1:
        raise ValueError("palette size must be >= 1")
    if g.n == 0:
        return Coloring((), k)
    preset = preset or {}
    for v, c in preset.items():
        g._check_vertex(v)
        if not 1 <= c <= k:
            raise ValueError(f"preset color {c} outside 1..{k}")
    # descending degree, ties by ascending id: a reversed sort is stable
    order = sorted(range(g.n), key=list(map(len, g.incidence)).__getitem__, reverse=True)
    if k == 2 and not preset:
        phi = _two_coloring(g, order)
        if phi is not None or g.is_graph():
            return phi
    return next(_colorings(g, k, order, preset, not preset, force=_force), None)


def _two_coloring(g: Hypergraph, order) -> Coloring | None:
    """The search's first 2-coloring of g, or None where the search's
    first descent fails, by one propagation pass: each vertex of
    ``order`` not yet colored takes color 1, and the colors it forces
    spread out from it in breadth-first order.  An ordinary edge forces
    the other color on its other end.  A larger edge keeps the packed
    counter of ``_Search.free``, set when it is first met, and
    ``shade``, the color its passed vertices share, or 3 once they
    differ: when one vertex is left and the others share color c, that
    vertex is forced to 3 - c.  A vertex forced to the color it does
    not have is a conflict, and the pass returns None.

    This is what the search does with k = 2 and no preset.  It tries
    color 1 first at every decision, and no uncolored vertex at a
    decision has a color banned, since a vertex with one color banned
    is forced at once.  So every decision is at an unbanned vertex, the
    first uncolored one in ``order``, and takes color 1.  Propagation
    is unit propagation on the clauses "not all of e in color c", which
    is confluent: the colors it forces do not depend on the order they
    are met in, and a wipe-out happens in every order or in none.  So
    when the pass meets no conflict, the search's first descent makes
    the same decisions, forces the same colors and never backtracks, and
    the pass's coloring is the search's first.

    On an ordinary graph a conflict is an odd cycle, so None is the
    answer; on a hypergraph a later branch may still find a coloring,
    and the caller runs the search.  A conflict needs a Berge cycle, so
    a hyperforest, whose incidence graph B(G) is a forest, is never
    searched.  Take a decision v, with the colors fixed before it closed
    under propagation, and root v's tree of B(G) at v.  The vertices of
    an edge e other than its parent vertex are reached from v only
    through e, so this decision colors them only when e forces them.
    And e forces a vertex only once all its others are colored, one of
    them by this decision, or it would have forced it before: its parent.
    So e forces at most its one child, and is the only edge that forces
    it, and no edge is left monochromatic, since its child takes the
    other color, and a parent colored last would have been forced
    before.  The pass is linear, so no decision cap applies."""
    n = g.n
    colors = [0] * n
    edges, incidence = g.edges, g.incidence
    big = n
    twice = 2 * big
    # a larger edge's packed counter, 0 until it is met and again once
    # all its vertices have passed, when no vertex is left to meet it
    free = [0] * g.m
    shade = [0] * g.m
    for root in order:
        if colors[root]:
            continue
        colors[root] = 1
        queue = [root]
        for v in queue:  # the loop reads what it appends
            c = colors[v]
            for ref in incidence[v]:
                e = edges[ref]
                if len(e) == 2:
                    a, b = e
                    u = b if a == v else a
                else:
                    x = (free[ref] or len(e) * big + sum(e)) - big - v
                    free[ref] = x
                    s = shade[ref]
                    if s != c:
                        shade[ref] = s = 3 if s else c
                    if not x or x >= twice or s != c:
                        continue
                    u = x - big  # the one vertex left, the others all in color c
                if not colors[u]:
                    colors[u] = 3 - c
                    queue.append(u)
                elif colors[u] == c:
                    return None
    return Coloring(tuple(colors), 2)


def chromatic_number(g: Hypergraph, force: bool = False) -> int:
    """Least k admitting a valid coloring; 0 for the empty hypergraph,
    1 for edgeless graphs of any size.  When a block of g is in the
    class at lambda >= 3, chi = lambda + 1 by the theorem, with no
    search; otherwise chi is searched under the decision cap unless
    force is set."""
    return _chi(g, force)[0]


def chi_lambda_critical(g: Hypergraph) -> tuple[int, int, bool]:
    """(chi, lambda, critical): chi and lambda of g, and whether g is
    chi-critical, from one decision of the classifier (see ``_chi``).
    When the theorem does not decide g, a critical g with chi <= 2 is a
    single vertex or edge, and the per-edge test runs only on a g with
    chi >= 3 that can be critical: 2-connected, with minimum degree at
    least chi - 1.  ``is_critical`` cannot skip it so, since it reports
    the first failing edge."""
    chi, lam, critical = _chi(g, False, need_lam=True)
    if critical is None:
        if chi <= 2:
            critical = g.n == 1 if chi == 1 else g.m == 1 and len(g.edges[0]) == g.n
        else:
            critical = (
                min(map(len, g.incidence)) >= chi - 1
                and len(blocks(g)) == 1
                and next(_failing_edges(g, chi - 1), None) is None
            )
    return chi, lam, critical


def _chi(
    g: Hypergraph, force: bool, need_lam: bool = False
) -> tuple[int, int | None, bool | None]:
    """(chi, lambda, critical) from the classifier's decision.  When a
    block certifies at lambda >= 3, chi = lambda + 1 with no search,
    and critical says whether that block is all of g: g
    is then in the class, so chi-critical, or has a proper subgraph with
    its chi, so is not.  Otherwise critical is None and chi is searched
    as ``_chi_by_search`` says, below the bound lambda gives.  lambda is
    None when no block certifies and ``need_lam`` is false, and no flow
    runs then."""
    from .classifier import _decide, _is_all_of  # the classifier imports this module

    lam, tight = _decide(g, need_lam)
    if tight is not None:
        return lam + 1, lam, _is_all_of(tight[1], g)
    return _chi_by_search(g, force, lam), lam, None


def _chi_by_search(g: Hypergraph, force: bool = False, lam: int | None = None) -> int:
    """chi of g by the coloring search alone.  ``lam`` is lambda(G)
    when it is known and no block of g is in the class at it: chi is
    then at most lambda for lambda >= 3, by the theorem, and at most
    lambda + 1 below (Toft's bound), and that bound is not searched.
    The scan goes up from max(2, clique bound), over each component with
    edges on its own, so that no search backtracks through another's
    colorings, when two or more have edges and one 2-coloring pass fails."""
    if g.n == 0:
        return 0
    if g.m == 0:
        return 1
    cap = None if lam is None else lam if lam >= 3 else lam + 1
    k = max(2, _clique_lower_bound(g))
    parts = [g]
    # a chi at its bound needs no search, and an isolated vertex has no edge
    if (cap is None or k < cap) and len(comps := components(g)) - g.incidence.count(()) > 1:
        if k == 2 and _two_coloring(g, range(g.n)) is not None:
            return 2  # one pass colored every component
        parts = _component_graphs(g, comps)
    for part in parts:
        while (cap is None or k < cap) and find_k_coloring(part, k, _force=force) is None:
            k += 1
    return k


def _component_graphs(g: Hypergraph, comps):
    """g[C] for each component C in ``comps`` other than a hyperforest
    (sum |e| = |C| - 1 + #edges), which the 2-coloring pass colors.  C's
    edges are those whose least vertex is in C; their refs ascend."""
    for comp in comps:
        refs = tuple(ref for v in comp for ref in g.incidence[v] if g.edges[ref][0] == v)
        if sum(len(g.edges[ref]) for ref in refs) > len(comp) - 1 + len(refs):
            yield Block(comp, refs).graph(g)


def _clique_lower_bound(g: Hypergraph) -> int:
    """Greedy clique on the ordinary-edge subgraph; cheap and sound."""
    adj: dict[int, set[int]] = {v: set() for v in range(g.n)}
    for e in g.edges:
        if len(e) == 2:
            adj[e[0]].add(e[1])
            adj[e[1]].add(e[0])
    best = 1
    for start in sorted(range(g.n), key=lambda v: -len(adj[v])):
        clique = [start]
        for u in sorted(adj[start], key=lambda v: -len(adj[v])):
            if all(u in adj[c] for c in clique):
                clique.append(u)
        best = max(best, len(clique))
    return best


def _colorings(
    g: Hypergraph,
    k: int,
    order,
    preset: dict[int, int],
    symmetric: bool,
    skip: int | None = None,
    force: bool = False,
    search: _Search | None = None,
):
    """Every valid k-coloring of g, or of g minus edge ``skip``, in the
    depth-first order of the static vertex ``order``; GuardExceeded once
    the search passes ``SEARCH_GUARD`` decisions, unless force is set.
    ``search``, a ``_Search`` of g that leaves ``skip`` out already, is
    run in place of a new one."""
    if search is None:
        search = _Search(g, k, skip)
    return search.colorings(order, preset, symmetric, force)


class _Search:
    """Forward-checking not-all-equal search with unit propagation.

    Bit c of ``ban[v]`` is set while color c is forbidden at the
    uncolored vertex v, because an edge through v has all its other
    vertices in color c; a candidate is rejected in O(1).  The first
    such edge to be completed sets the bit, and undoing that assignment
    clears it: every later one is undone first.  An ordinary edge bans
    its color at the other end as soon as one end is colored.  A
    hyperedge keeps its count of uncolored vertices and the sum of their
    ids, packed in one integer: when one vertex is left, the sum is its
    id.  A vertex with one allowed color left is forced to it at once,
    out of order, and one with none kills the branch; backtracking pops
    the trail of colored vertices back to the decision's mark.

    The walk still visits ``order`` position by position with colors
    tried in ascending order, and passes through forced vertices, so
    only branches that hold no coloring are cut and the colorings come
    out in the same order as from the search without propagation.
    ``decisions`` counts the colors tried at unforced positions.

    The packed counter is ``free[ref] = left * big + sum`` with
    ``big = n``: while two or more vertices are left it is at least
    ``2 * big``, and with one left, u, it is ``big + u < 2 * big``, since
    every id is below n.  So it is set in the one pass over the edges
    that builds the adjacency, and only for the larger edges.
    """

    def __init__(self, g: Hypergraph, k: int, skip: int | None = None) -> None:
        self.g = g
        self.k = k
        n = g.n
        adj: list[list[int]] = [[] for _ in range(n)]  # over ordinary edges
        hyper: list[list[int]] = [[] for _ in range(n)]  # refs of larger edges
        free = [0] * g.m  # read only at the refs in ``hyper``
        for ref, e in enumerate(g.edges):
            if ref == skip:
                continue
            if len(e) == 2:
                a, b = e
                adj[a].append(b)
                adj[b].append(a)
            else:
                for v in e:
                    hyper[v].append(ref)
                free[ref] = len(e) * n + sum(e)
        self.adj, self.hyper, self.free = adj, hyper, free
        self.decisions = 0

    @contextmanager
    def skipping(self, ref: int):
        """The search with edge ``ref`` left out, as if built with
        ``skip=ref``: its entries are taken out of the neighbour lists
        and put back in place on exit.  ``free`` is left as it is, since
        no list then reaches ``free[ref]``."""
        e = self.g.edges[ref]
        if len(e) == 2:
            a, b = e
            holes = [(self.adj[a], b), (self.adj[b], a)]
        else:
            holes = [(self.hyper[v], ref) for v in e]
        spots = []
        for refs, x in holes:
            spots.append(refs.index(x))
            del refs[spots[-1]]
        try:
            yield
        finally:
            for (refs, x), i in zip(holes, spots):
                refs.insert(i, x)

    def colorings(self, order, preset: dict[int, int], symmetric: bool, force: bool = False):
        """A preset vertex takes its preset color only; any other vertex
        tries 1..k in turn, or only up to one more than the largest
        color at earlier positions or in the preset when ``symmetric``.
        With a preset, that keeps a coloring of every class up to
        renaming colors when the preset colors are 1..c for some c.  It
        counts on a copy of the built counters, which it may abandon."""
        g, k, adj, hyper, free = self.g, self.k, self.adj, self.hyper, self.free[:]
        self.decisions = 0  # a reused search may have counted some already
        limit = SEARCH_GUARD
        n, edges = g.n, g.edges
        big = n
        twice = 2 * big
        ban = [0] * n
        colors = [0] * n
        trail: list[tuple[int, list[int]]] = []  # (vertex, the bans it set)
        forced: list[int] = []

        def propagate(v: int, c: int) -> bool:
            """Color v with c, then every vertex this forces; False on
            a wipe-out.  Each vertex's bookkeeping completes, so the
            trail can always be undone."""
            while True:
                bit = 1 << c
                colors[v] = c
                hit = []
                for u in adj[v]:
                    if not colors[u] and not ban[u] & bit:
                        hit.append(u)
                step = big + v
                for ref in hyper[v]:
                    x = free[ref] - step
                    free[ref] = x
                    if x < twice and x:  # one vertex, u, is left
                        u = x - big
                        if not ban[u] & bit:
                            for w in edges[ref]:
                                if colors[w] != c and w != u:
                                    break
                            else:
                                hit.append(u)
                trail.append((v, hit))
                ok = True
                for u in hit:
                    b = ban[u] | bit
                    ban[u] = b
                    left = k - b.bit_count()
                    if left == 1:
                        forced.append(u)
                    elif not left:
                        ok = False
                if not ok:
                    forced.clear()
                    return False
                while forced:
                    v = forced.pop()
                    if not colors[v]:
                        break
                else:
                    return True
                low = ban[v] | 1  # the one clear bit is v's color
                c = ((low + 1) & ~low).bit_length() - 1

        for v, c in preset.items():  # a vertex forced to another color has c banned
            if colors[v] != c and (ban[v] >> c & 1 or not propagate(v, c)):
                return
        stack: list[list[int]] = []  # [pos, used, color tried, trail mark]
        pos = decisions = 0
        used = max(preset.values(), default=0)
        while True:
            # Pass through the forced vertices.  No forced color exceeds
            # used + 1: the first vertex forced on a branch sees k - 1
            # colors in use, all from the preset and from decisions at
            # earlier positions.
            while pos < n:
                c = colors[order[pos]]
                if not c:
                    stack.append([pos, used, 0, len(trail)])
                    break
                if c > used:
                    used = c
                pos += 1
            else:
                self.decisions = decisions
                yield Coloring(tuple(colors), k)
            while stack:
                frame = stack[-1]
                pos, used, c, mark = frame
                while len(trail) > mark:  # undo back to the mark
                    v, hit = trail.pop()
                    if hit:
                        clear = ~(1 << colors[v])
                        for u in hit:
                            ban[u] &= clear
                    for ref in hyper[v]:
                        free[ref] += big + v
                    colors[v] = 0
                v = order[pos]
                top = used + 1 if symmetric and used < k else k
                banned = ban[v]
                c += 1
                while c <= top and banned >> c & 1:
                    c += 1
                if c > top:
                    stack.pop()
                    continue
                frame[2] = c
                decisions += 1
                if decisions > limit and not force:
                    raise GuardExceeded(
                        f"the {k}-coloring search passed {limit} decisions without force"
                    )
                if propagate(v, c):
                    if c > used:
                        used = c
                    pos += 1
                    break
            else:
                self.decisions = decisions
                return


def _failing_edges(g: Hypergraph, k: int, force: bool = False):
    """The refs of g's edges, ascending, whose deletion leaves no
    k-coloring once the edges yielded before them are deleted too, for
    a g with chromatic number k + 1; each one stays deleted.

    Edges are taken in ref order.  One not yet witnessed is searched on
    the current graph with the edge skipped, in the vertex order of
    G - e's degrees.  G has no k-coloring, so every k-coloring of G - e
    leaves e monochromatic: the search presets e's vertices to color 1,
    which counts as used from the start, and cuts only branches that
    hold no coloring.  A coloring found is walked from
    (``_witnesses``), which marks every edge f it reaches as witnessed,
    with a k-coloring of G - f in hand.  A witnessed edge's search would
    find a coloring too, so skipping it leaves the answer as if every
    edge were searched.  Deleting edges keeps every coloring, so a
    coloring of G - f, found or walked to, stays one after later
    deletions: the scan goes on past each deleted edge and yields the
    edges that deleting the first failing one until none fails would.

    One ``_Search`` of the current graph serves every search on it, and
    is built again only after a deletion: each search leaves its edge
    out in place (``_Search.skipping``)."""
    cur = g
    degree = [len(refs) for refs in g.incidence]
    witnessed = [False] * g.m  # by ref in cur
    search = None  # of cur
    for ref, e in enumerate(g.edges):
        i = ref - (g.m - cur.m)  # e's ref in cur: every deleted edge came before it
        if witnessed[i]:
            continue
        if search is None:
            search = _Search(cur, k)
        for v in e:
            degree[v] -= 1
        # descending degree, ties by ascending id: a reversed sort is stable
        order = sorted(range(g.n), key=degree.__getitem__, reverse=True)
        with search.skipping(i):
            phi = next(_colorings(cur, k, order, dict.fromkeys(e, 1), True, skip=i,
                                  force=force, search=search), None)
        if phi is None:  # deleted, so its vertices keep the lowered degrees
            yield ref
            cur = cur.delete_edge(i)
            del witnessed[i]
            search = None
            continue
        for v in e:
            degree[v] += 1
        witnessed[i] = True
        for _ in _witnesses(cur, k, list(phi.colors), i, witnessed):
            pass


def _witnesses(g: Hypergraph, k: int, colors: list[int], ref: int, witnessed: list[bool]):
    """Walk from ``colors``, a k-coloring of g minus edge ``ref``,
    through one-vertex recolorings.

    Moving a vertex v of the skipped edge e to another color leaves
    every edge off v as it was, so none of them is monochromatic.  If
    exactly one edge f through v is then monochromatic, the result is a
    k-coloring of G - f.  Each such f not yet ``witnessed`` is marked
    and yielded while ``colors`` holds that coloring, and the walk goes
    on from it, depth first.  ``colors`` is changed in place and
    restored by the end."""
    edges, incidence = g.edges, g.incidence

    def moves(e):
        return ((v, colors[v], c) for v in e for c in range(1, k + 1) if c != colors[v])

    stack = [(-1, 0, moves(edges[ref]))]  # (vertex moved to get here, its old color, moves)
    while stack:
        _, _, left = stack[-1]
        for v, old, c in left:
            sole = -1
            for f in incidence[v]:
                for u in edges[f]:
                    if colors[u] != c and u != v:
                        break
                else:
                    if sole >= 0:  # a second monochromatic edge
                        sole = -1
                        break
                    sole = f
            if sole >= 0 and not witnessed[sole]:
                witnessed[sole] = True
                colors[v] = c
                yield sole
                stack.append((v, old, moves(edges[sole])))
                break
        else:
            v, old, _ = stack.pop()
            if v >= 0:
                colors[v] = old


def is_critical(g: Hypergraph, k_plus_1: int, force: bool = False) -> CriticalityReport:
    """(k+1)-criticality via the per-edge test: connected, chi = k+1,
    and chi(G - e) <= k for every edge.  A g in the class at k >= 3 is
    critical by the theorem, and a g with a block in the class at
    lambda >= 3 has chi = lambda + 1, with no search.  Any other answer
    needs a search, which runs under the decision cap unless force is
    set: chi's, or the per-edge test's for the first failing edge."""
    if k_plus_1 < 1:
        raise ValueError("target chromatic number must be >= 1")
    if not is_connected(g):
        return CriticalityReport(False, -1, reason="not connected")
    chi, _, critical = _chi(g, force)
    if chi != k_plus_1:
        return CriticalityReport(False, chi, reason=f"chi is {chi}, not {k_plus_1}")
    ref = None if critical or chi == 1 else next(_failing_edges(g, chi - 1, force), None)
    if ref is not None:
        return CriticalityReport(False, chi, failing_edge=ref, reason="edge deletion keeps chi")
    return CriticalityReport(True, chi)


def require_critical(g: Hypergraph, k: int, name: str = "hypergraph", force: bool = False) -> None:
    """Raise ValueError, naming ``name`` and the reason, unless g is
    (k+1)-critical."""
    report = is_critical(g, k + 1, force=force)
    if not report.is_critical:
        raise ValueError(f"{name} is not {k + 1}-critical: {report.reason}")


def low_high_partition(
    g: Hypergraph, k: int, force: bool = False
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(L, H): vertices of degree exactly k vs. degree > k, for a
    (k+1)-critical hypergraph (checked), whose degrees are all >= k."""
    require_critical(g, k, force=force)
    low, high = [], []
    for v in range(g.n):
        d = g.degree(v)
        if d < k:
            raise InternalError(f"critical input has vertex {v} of degree {d} < {k}; internal bug")
        (low if d == k else high).append(v)
    return tuple(low), tuple(high)


# -- Gallai structure ------------------------------------------------------


def classify_gallai_block(b: Hypergraph) -> str | None:
    """'complete', 'odd_cycle', or 'single_edge' if the block matches
    one of the Gallai shapes, else None."""
    if b.m == 1:
        return "single_edge"
    if is_complete_graph(b):
        return "complete"
    if is_odd_cycle(b):
        return "odd_cycle"
    return None


def is_gallai_forest(g: Hypergraph) -> tuple[bool, list[str | None]]:
    """True iff every block is a complete graph, an odd cycle, or a
    single hyperedge; also returns the per-block classification."""
    # an isolated vertex is a K1 block
    kinds = [classify_gallai_block(b.graph(g)) if b.edge_refs else "complete" for b in blocks(g)]
    return None not in kinds, kinds


@dataclass(frozen=True)
class GallaiLemmaReport:
    low: tuple[int, ...]
    high: tuple[int, ...]
    forest_ok: bool
    traces_distinct: bool
    bridges_ok: bool
    no_high_shape_ok: bool

    @property
    def all_ok(self) -> bool:
        return (
            self.forest_ok
            and self.traces_distinct
            and self.bridges_ok
            and self.no_high_shape_ok
        )


def verify_gallai_lemma(g: Hypergraph, k: int, force: bool = False) -> GallaiLemmaReport:
    """Check the low-vertex structure of a (k+1)-critical hypergraph:
    the shrink to the low set is a Gallai forest, the mixed edges have
    distinct low-traces which are bridges there, and the no-high-vertex
    case matches one of the closed shapes."""
    if k < 2:
        raise ValueError("k must be >= 2")
    low, high = low_high_partition(g, k, force=force)
    if not low:
        raise ValueError("no low vertices; lemma preconditions unmet")
    low_set, high_set = set(low), set(high)
    mixed = [e for e in g.edges if len(low_set.intersection(e)) >= 2 and not high_set.isdisjoint(e)]
    gl, gl_old = g.shrink(low)
    pos = {v: i for i, v in enumerate(gl_old)}
    forest_ok, _ = is_gallai_forest(gl)
    traces = [tuple(sorted(pos[v] for v in e if v in low_set)) for e in mixed]
    traces_distinct = len(set(traces)) == len(traces)
    # each trace is sorted, like the edges of gl
    bridge_edges = {gl.edges[ref] for ref in bridges(gl)}
    bridges_ok = all(trace in bridge_edges for trace in traces)
    no_high_shape_ok = (
        bool(high) or is_complete_graph(g) and g.n == k + 1 or k == 2 and is_odd_cycle(g)
    )
    return GallaiLemmaReport(
        low, high, forest_ok, traces_distinct, bridges_ok, no_high_shape_ok
    )
