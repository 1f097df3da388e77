"""Hyperpaths, local edge connectivity, components, blocks, and
separating-structure searches.

Local edge connectivity is computed by unit-capacity max flow on a
network where every hyperedge is split into an in/out node pair of
capacity one, so a flow unit may cross each hyperedge at most once.
The network lives in flat lists: arc ids, heads and capacities, with
each search marking the nodes it reaches by a fresh stamp in one
reused list.

lambda(G) comes from Gusfield's flow-equivalent tree, which exists
because the hypergraph cut function is symmetric submodular, cut short
by the star bound lambda(v, w) <= min(deg v, deg w) (``_tree_flows``,
``max_local_edge_connectivity``).

The decompositions at separating edge sets, vertex pairs and mixed
pairs ask for the pieces of G with some vertices and edges deleted;
``_pieces`` is the one component search, and ``_articulation`` the one
articulation search, which serves the block and separator listings.
A hyperforest, whose vertex-edge incidence graph is a forest, has its
blocks and separators read off its degrees instead, after one
component search (``_is_forest``, ``_whole_graph_blocks``).

``GuardExceeded`` and ``InternalError`` are defined here, where every
module that raises them can import them; ``coloring`` and the package
re-export the first, ``classifier`` the second.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

from .hypercore import Hypergraph


class GuardExceeded(RuntimeError):
    """A search passed its guard.  ``force`` lifts ``coloring.SEARCH_GUARD``,
    the cap on the decisions of each colouring search; nothing lifts
    ``CUT_GUARD``: lower the cut size instead."""


class InternalError(RuntimeError):
    """An internal invariant broke: a bug, not bad input, such as a built
    certificate that does not replay or a theorem's separator failing."""


@dataclass(frozen=True)
class Hyperpath:
    """Alternating vertex/edge sequence v1, e1, v2, ..., e_{q-1}, v_q."""

    vertices: tuple[int, ...]
    edges: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.vertices) != len(self.edges) + 1 or not self.vertices:
            raise ValueError("hyperpath lengths do not match")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("repeated vertex in hyperpath")
        if len(set(self.edges)) != len(self.edges):
            raise ValueError("repeated edge in hyperpath")

    def is_valid_in(self, g: Hypergraph) -> bool:
        try:
            for i, ref in enumerate(self.edges):
                e = set(g.edge(ref))
                if self.vertices[i] not in e or self.vertices[i + 1] not in e:
                    return False
        except ValueError:
            return False
        return all(0 <= v < g.n for v in self.vertices)


@dataclass(frozen=True)
class EdgeCut:
    """An edge cut (X, Y, F) with the cut-incident vertex sets."""

    x: tuple[int, ...]
    y: tuple[int, ...]
    f: tuple[int, ...]
    x_f: tuple[int, ...]
    y_f: tuple[int, ...]

    @classmethod
    def from_side(cls, g: Hypergraph, xs) -> "EdgeCut":
        inside = set(xs)
        x = tuple(sorted(inside))
        y = tuple(v for v in range(g.n) if v not in inside)
        f = g.boundary(x)
        touched = {v for ref in f for v in g.edges[ref]}
        return cls(x, y, f, tuple(v for v in x if v in touched), tuple(v for v in y if v in touched))


@dataclass(frozen=True)
class FlowResult:
    """Max number of edge-disjoint hyperpaths plus both witnesses."""

    value: int
    paths: tuple[Hyperpath, ...]
    cut_side: tuple[int, ...]


# -- components ------------------------------------------------------------


def components(g: Hypergraph) -> list[tuple[int, ...]]:
    """Partition of V(G) into maximal hyperpath-connected classes, in
    order of least vertex.  Their number comes from the cached
    whole-graph block pass: the block-cut forest has a node per block
    and per separating vertex, and an edge per block through each
    separating vertex, so it has len(blocks) - sum(count[v] - 1) trees
    over the separating vertices v, one per component.  ``_pieces``
    lists them only when there are two or more, and once: the block
    pass keeps the two or more pieces its forest test listed."""
    found, seps, count = _whole_graph_blocks(g)
    listed = g.__dict__.get("_components")
    if listed is not None:
        return list(listed)
    trees = len(found) + len(seps) - sum(map(count.__getitem__, seps))
    if trees > 1:
        return list(_pieces(g))
    return [tuple(range(g.n))] if trees else []


def _pieces(g: Hypergraph, dead=(), cut=()):
    """The components of (G - F) / X in g's ids, for the vertices X in
    ``dead`` and the in-range edge refs F in ``cut``: each yielded
    sorted as it closes, in order of least vertex, so a caller that
    reads only the first piece visits no other.  X starts seen and F
    used, and an edge is marked used when first crossed, so each edge
    tuple is scanned once."""
    incidence, edges = g.incidence, g.edges
    seen = [False] * g.n
    for v in dead:
        seen[v] = True
    used = [False] * g.m
    for ref in cut:
        used[ref] = True
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        piece = [start]
        for v in piece:  # the list iterator also visits appended vertices
            for ref in incidence[v]:
                if not used[ref]:
                    used[ref] = True
                    for w in edges[ref]:
                        if not seen[w]:
                            seen[w] = True
                            piece.append(w)
        piece.sort()
        yield tuple(piece)


def is_connected(g: Hypergraph) -> bool:
    """Whether g has at most one component: one ``_pieces`` search,
    which stops once the first piece closes."""
    return len(next(_pieces(g), ())) == g.n


# -- max flow / Menger -----------------------------------------------------


class _FlowNet:
    """Unit-capacity network: node 0..n-1 are vertices, then per edge i
    an in-node n+2i and out-node n+2i+1 joined by a capacity-1 arc.

    Arc a and its reverse a^1 are adjacent in ``to``/``cap``.  Each
    search marks the nodes it reaches with a fresh stamp in one reused
    list, and records the arc it entered them by in another."""

    def __init__(self, g: Hypergraph) -> None:
        self.g = g
        n = g.n
        size = n + 2 * g.m
        adj: list[list[int]] = [[] for _ in range(size)]
        to: list[int] = []
        cap: list[int] = []
        big = g.m + 1
        for i, e in enumerate(g.edges):
            a = n + 2 * i  # in-node; a + 1 is the out-node
            adj[a].append(len(to))
            adj[a + 1].append(len(to) + 1)
            to += (a + 1, a)
            cap += (1, 0)
            for v in e:
                # v -> in-node and out-node -> v, each with its reverse
                arc = len(to)
                adj[v].append(arc)
                adj[a].append(arc + 1)
                adj[a + 1].append(arc + 2)
                adj[v].append(arc + 3)
                to += (a, v, v, a + 1)
                cap += (big, 0, big, 0)
        self.adj = adj
        self.to = to
        self.cap = cap
        self._initial_cap = cap[:]
        self.mark = [0] * size
        self.stamp = 0
        self.pred = [0] * size

    def reset(self) -> None:
        """Drop all flow, so the network can serve another pair."""
        self.cap[:] = self._initial_cap

    def max_flow(self, s: int, t: int, limit: int) -> int:
        """Augment from s to t until no path is left or the flow reaches
        ``limit``.  Below the limit, the last search failed, and
        ``residual_side`` reads the source side of a minimum cut off it."""
        cap, to, pred = self.cap, self.to, self.pred
        flow = 0
        while flow < limit and self._bfs(s, t):
            # unit bottleneck: the path crosses at least one edge pair
            node = t
            while node != s:
                arc = pred[node]
                cap[arc] -= 1
                cap[arc ^ 1] += 1
                node = to[arc ^ 1]
            flow += 1
        return flow

    def _bfs(self, s: int, t: int) -> bool:
        """Breadth-first search for t in the residual network, recording
        each reached node's entry arc in ``pred``."""
        adj, to, cap, mark, pred = self.adj, self.to, self.cap, self.mark, self.pred
        self.stamp += 1
        stamp = self.stamp
        mark[s] = stamp
        queue = [s]
        for node in queue:  # the list iterator also visits appended nodes
            for arc in adj[node]:
                if cap[arc]:
                    nxt = to[arc]
                    if mark[nxt] != stamp:
                        mark[nxt] = stamp
                        pred[nxt] = arc
                        if nxt == t:
                            return True
                        queue.append(nxt)
        return False

    def residual_side(self) -> set[int]:
        """Original vertices the last, failed, search reached."""
        mark, stamp = self.mark, self.stamp
        return {v for v in range(self.g.n) if mark[v] == stamp}

    def edge_flow(self, ref: int) -> int:
        # the capacity-1 arc of edge `ref` is the first arc added for it
        arc = self.adj[self.g.n + 2 * ref][0]
        return 1 - self.cap[arc]

    def decompose(self, s: int, t: int, value: int) -> list[Hyperpath]:
        """Trace the integral flow into edge-disjoint hyperpaths,
        following lowest-index arcs first."""
        n, to, cap, adj = self.g.n, self.to, self.cap, self.adj
        entries: list[list[int]] = [[] for _ in range(n)]  # used edges by entry vertex, ascending
        exits = []  # per edge, the vertex the flow unit leaves towards
        for i in range(self.g.m):
            exit_v = None
            if self.edge_flow(i):
                # entry: a vertex whose arc into the in-node carries flow;
                # exit: the first forward arc out of the out-node with
                # flow, whose remaining capacity is below big
                for arc in adj[n + 2 * i]:
                    if to[arc] < n and arc % 2 == 1 and cap[arc] > 0:
                        entries[to[arc]].append(i)
                exit_v = next(
                    (to[arc] for arc in adj[n + 2 * i + 1]
                     if to[arc] < n and arc % 2 == 0 and cap[arc] < self.g.m + 1),
                    None,
                )
            exits.append(exit_v)
        paths = []
        for _ in range(value):
            walk_v, walk_e, v = [s], [], s
            while v != t:
                ref = entries[v].pop(0)
                walk_e.append(ref)
                v = exits[ref]
                walk_v.append(v)
            paths.append(_shorten(walk_v, walk_e))
        return paths


def _shorten(walk_v: list[int], walk_e: list[int]) -> Hyperpath:
    """Cut loops out of an edge-distinct walk, yielding a hyperpath: on
    each return to a vertex, the walk since its last visit goes."""
    out_v, out_e = [walk_v[0]], []
    for ref, v in zip(walk_e, walk_v[1:]):
        if v in out_v:
            i = out_v.index(v)
            del out_v[i + 1 :], out_e[i:]
        else:
            out_v.append(v)
            out_e.append(ref)
    return Hyperpath(tuple(out_v), tuple(out_e))


def local_edge_connectivity(g: Hypergraph, v: int, w: int) -> FlowResult:
    """Menger: max edge-disjoint (v,w)-hyperpaths, with an explicit
    path system and a side X (v in X, w not) with |boundary(X)| equal."""
    g._check_vertex(v)
    g._check_vertex(w)
    if v == w:
        raise ValueError("endpoints must be distinct")
    net = _FlowNet(g)
    # a limit no flow reaches, so the last search fails and marks the
    # residual side
    value = net.max_flow(v, w, g.m + 1)
    cut_side = tuple(sorted(net.residual_side()))
    paths = net.decompose(v, w, value)
    return FlowResult(value, tuple(paths), cut_side)


def _tree_flows(net: _FlowNet, order: list[int], deg: list[int]):
    """Gusfield's flow-equivalent tree on the vertices ``order`` of one
    component, taken in descending degree order, lazily: yields one
    flow value per vertex after the first, each computed only when
    asked for.  Every pairwise value among the vertices reached is the
    minimum over their tree path, so these give both the max and the
    min over those pairs.

    Every edge has two or more vertices, so the star of s, the edges on
    it, is a cut of size deg s.  The flow from s to its tree parent t,
    which came earlier in the order, stops at deg s <= deg t.  One that
    reaches it has {s} as a minimum cut, which moves no later vertex to
    s, so the failing search and the residual side are needed only
    below deg s."""
    parent = dict.fromkeys(order, order[0])
    for i, s in enumerate(order[1:], start=1):
        t = parent[s]
        net.reset()
        value = net.max_flow(s, t, deg[s])
        if value < deg[s]:
            side = net.residual_side()
            for u in order[i + 1 :]:
                if parent[u] == t and u in side:
                    parent[u] = s
        yield value


def _is_forest(g: Hypergraph, sizes: int, pieces: int) -> bool:
    """Whether the vertex-edge incidence graph B(G) is a forest, given
    ``sizes``, the sum of g's edge sizes, and ``pieces``, the number of
    g's components.  B(G) has n + m nodes and sum(|e|) edges, and its
    components are g's, since every edge node has a vertex neighbour; a
    graph is a forest iff its edges are its nodes less its components."""
    return sizes == g.n + g.m - pieces


def _degree_order(comp: tuple[int, ...], deg: list[int]) -> list[int]:
    """The component's vertices by descending degree, ties by id."""
    return sorted(comp, key=lambda v: -deg[v])


def max_local_edge_connectivity(g: Hypergraph) -> int:
    """lambda(G): max over all vertex pairs; 0 when |G| <= 1.

    Runs Gusfield on each component in descending degree order, on one
    reused network, and stops before the first vertex whose degree is
    at most the best value so far: every pair with an endpoint from
    there on is bounded by that degree, and Gusfield on a prefix of the
    order is the same run cut short, so it gives the max over the pairs
    inside the prefix.  Two edge-disjoint paths close
    a cycle, which lies in one block, so without a block of two or more
    edges lambda is min(m, 1) and no flow runs.  That is when the
    vertex-edge incidence graph is a forest (``_is_forest``), read off
    g's components.  They come from one ``_pieces`` search, not
    ``components``: the forest test needs no block pass, and the CLI's
    ``lambda`` has none cached."""
    comps = list(_pieces(g))
    if _is_forest(g, sum(map(len, g.edges)), len(comps)):
        return min(g.m, 1)
    deg = [len(refs) for refs in g.incidence]
    net = _FlowNet(g)
    best = 0
    for comp in comps:
        order = _degree_order(comp, deg)
        flows = _tree_flows(net, order, deg)
        for s in order[1:]:
            if deg[s] <= best:
                break
            best = max(best, next(flows))
    return best


# -- blocks ----------------------------------------------------------------


class Block(NamedTuple):
    """A block, annotated with original vertex ids and edge refs.  A
    tuple, so blocks sort by their vertex tuples with no key function:
    two blocks share at most one vertex, so no two have equal ones."""

    vertices: tuple[int, ...]
    edge_refs: tuple[int, ...]

    def graph(self, g: Hypergraph) -> Hypergraph:
        """The block as a hypergraph on 0..|vertices|-1.  A block of g
        lists its vertices and refs ascending, and renumbering by rank
        keeps each edge strictly sorted and the edges in g's order, so
        the renumbered edges are already canonical."""
        pos = {v: i for i, v in enumerate(self.vertices)}
        return Hypergraph._trusted(
            len(self.vertices), tuple(tuple(pos[v] for v in g.edge(r)) for r in self.edge_refs)
        )


def blocks(g: Hypergraph) -> list[Block]:
    """The blocks of G, sorted by vertex tuple: one per biconnected
    component of the 2-section, with the hyperedges whose cliques lie in
    it, plus a singleton block per vertex on no edge."""
    return list(_whole_graph_blocks(g)[0])


def separating_vertices(g: Hypergraph) -> tuple[int, ...]:
    """Vertices contained in more than one block."""
    return _whole_graph_blocks(g)[1]


def _whole_graph_blocks(g: Hypergraph) -> tuple[tuple[Block, ...], tuple[int, ...], list[int]]:
    """Blocks, separating vertices and ``_articulation``'s node counts
    from one pass, cached on the value beside its incidence table:
    outside the dataclass fields, so equality and hashing ignore it.
    Callers share the counts and only read them.

    A hyperforest, whose incidence graph B(G) is a forest, needs no
    depth-first search.  Every block of B(G) is then a single tree edge,
    so every block of G, B(G)'s blocks glued at edge nodes, is a single
    edge of G, and a vertex lies in deg(v) blocks of B(G) and an edge
    node in |e| of them: the counts are the vertex degrees followed by
    the edge sizes, those ``_articulation`` returns.  In a forest,
    sum(|e| - 1) = n - #pieces, and each isolated vertex is a piece, as
    are the other vertices, together, when there is an edge.  So an
    input with edges whose sum(|e| - 1) exceeds n - #isolated - 1, such
    as a cycle, a dense input or a cycle beside isolated vertices, goes
    to the search with no component pass; any other takes one
    ``_pieces`` search for the forest test, and keeps the pieces on the
    value for ``components`` when there are two or more."""
    cached = g.__dict__.get("_whole_graph_blocks")
    if cached is None:
        n, m, edges, incidence = g.n, g.m, g.edges, g.incidence
        sizes = sum(map(len, edges))
        count = list(map(len, incidence))  # the degrees
        forest = False
        if sizes - m + count.count(0) + (m > 0) <= n:
            pieces = list(_pieces(g))
            if len(pieces) > 1:
                g.__dict__["_components"] = pieces
            forest = _is_forest(g, sizes, len(pieces))
        if forest:
            # Block(e, (r,)) per edge, each built by tuple.__new__ in C
            # rather than through Block.__new__'s Python frame
            out = list(map(tuple.__new__, itertools.repeat(Block), zip(edges, zip(range(m)))))
            count += map(len, edges)
        else:
            block_refs, count = _articulation(g)
            out = [
                Block(edges[refs[0]], (refs[0],))  # edges are stored strictly sorted
                if len(refs) == 1
                else Block(tuple(sorted({v for r in refs for v in edges[r]})), tuple(sorted(refs)))
                for refs in block_refs
            ]
        out.extend(Block((v,), ()) for v in range(n) if not incidence[v])
        out.sort()
        seps = tuple(v for v in range(n) if count[v] > 1)
        cached = g.__dict__["_whole_graph_blocks"] = (tuple(out), seps, count)
    return cached


def _articulation(g: Hypergraph, dead: int | None = None) -> tuple[list[list[int]], list[int]]:
    """Hopcroft-Tarjan depth-first search for the articulation points of
    the incidence graph B(G), with node ``dead`` deleted: node u < n is
    vertex u and node n + r is edge r.  Each node on the search path
    keeps an index into its own neighbour tuple, ``g.incidence[u]`` or
    ``g.edges[r]``, where its scan resumes when the search returns to
    it.

    Returns the edge refs of each block of G that has an edge, and per
    node the number of blocks of B(G) it lies in, two or more for a cut
    node.  Only the whole graph keeps a block stack and lists blocks.
    With a node deleted, the callers read only the cut nodes: the
    separating vertices of G - e for ``dead = n + e``, and for
    ``dead = v`` the cut edges of G - v, those e for which G - v - e has
    more components than G - v.

    The blocks of G are those of B(G) glued at edge nodes.  A hyperedge's
    vertices form a clique of the 2-section, so the 2-section block of an
    edge holds every block of B(G) through that edge's node, and blocks
    of B(G) glued at an edge node lie in one block of G.  Two blocks of
    B(G) that contain a vertex node v are never joined by a chain of such
    gluings, since that chain and v would close a cycle in the block-cut
    tree.  So v separates G iff its node is a cut node of B(G).

    Every root is a vertex node, so each edge node is reached from a
    vertex, and its ref is pushed on a stack when it is discovered.  A
    block closes only under a vertex node u, when a child c has
    low[c] >= disc[u]; it is the refs pushed since c.  An edge node with
    such a child is a cut node, but no block closes there.  Each node
    counts the blocks of B(G) it lies in, one above a non-root plus one
    per child closed at it, and is a cut node when it lies in two or
    more.  The graph is bipartite and simple, so the tree edge back to
    the parent may count as a back edge: it lowers low[c] to disc[parent]
    at most, which leaves that test unchanged.

    The node of a two-vertex edge {x, u} is stepped over: the search
    goes from x straight to u, which records the edge in ``via``, and
    the node is marked seen with a discovery time past every other, so
    it lowers no low value.  Its only other neighbour is u, so when u
    is already found this is a back edge to u.  Otherwise u's subtree
    reaches above the edge node exactly when it reaches x or above,
    without the edge itself: the edge node is a cut node iff
    low[u] > disc[x], and x closes it with u's subtree iff
    low[u] >= disc[x], the test of every other tree edge.  So the
    blocks and counts are those of B(G), but for one count no caller
    reads: with u deleted, the edge node hangs from x alone, and x's
    count leaves that block out."""
    n = g.n
    incidence, edges = g.incidence, g.edges
    size = n + g.m
    keep = dead is None
    disc = [-1] * size
    if not keep:
        # as if discovered after every other node: the search never
        # enters it, and it lowers no low value
        disc[dead] = size
    low = [0] * size
    # next unexamined neighbour of each node on the path
    nxt = [0] * size
    count = [1] * size
    # stack height when each edge node was discovered
    mark = [0] * size if keep else None
    # the node of the two-vertex edge a vertex was reached through, or -1
    via = [-1] * n
    stack: list[int] = []
    out: list[list[int]] = []
    timer = 0
    for root in range(n):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = timer
        timer += 1
        count[root] = 0
        path = [root]
        while path:
            x = path[-1]
            if x < n:
                todo, off = incidence[x], n
            else:
                todo, off = edges[x - n], 0
            i, end = nxt[x], len(todo)
            while i < end:
                w = todo[i] + off
                i += 1
                d = disc[w]
                if d >= 0:
                    if d < low[x]:
                        low[x] = d
                    continue
                if off:
                    e = edges[w - n]
                    if len(e) == 2:
                        disc[w] = size
                        if keep:
                            mark[w] = len(stack)
                            stack.append(w - n)
                        u = e[1] if e[0] == x else e[0]
                        d = disc[u]
                        if d < 0:
                            via[u] = w
                            w = u
                            break
                        if d < low[x]:
                            low[x] = d
                        continue
                break
            else:
                path.pop()
                if path:
                    p = path[-1]
                    if low[x] < low[p]:
                        low[p] = low[x]
                    elif low[x] >= disc[p]:
                        count[p] += 1
                        r = via[x] if x < n else -1
                        if r >= 0:
                            if low[x] > disc[p]:
                                count[r] += 1
                            if keep:
                                out.append(stack[mark[r]:])
                                del stack[mark[r]:]
                        elif keep and p < n:
                            out.append(stack[mark[x]:])
                            del stack[mark[x]:]
                continue
            nxt[x] = i
            disc[w] = low[w] = timer
            timer += 1
            if keep and w >= n:
                mark[w] = len(stack)
                stack.append(w - n)
            path.append(w)
    return out, count


# -- separating structures -------------------------------------------------


def enumerate_separating_sets(g: Hypergraph, max_size: int) -> list[tuple[int, ...]]:
    """All separating vertex sets S of size <= max_size, those for which
    G / S has more components than G: single vertices, then pairs, each
    ascending.  The decomposition theorems need no larger size.

    The cached whole-graph articulation pass and one with each vertex v
    deleted, O(n(n + m)) in all.  A node's count is the number of pieces
    its deletion leaves of its component, 0 for an isolated vertex, and
    an edge node keeps a vertex neighbour when one vertex goes.  So {v}
    separates iff whole[v] > 1, and {v, w} iff whole[v] + count_v[w] > 2:
    the pass with v deleted leaves the leaf of an edge {v, w}, which
    G / {v, w} drops, out of w's count."""
    return list(_separating_sets(g, max_size))


def _separating_sets(g: Hypergraph, max_size: int):
    """``enumerate_separating_sets`` as a generator: the pass with v
    deleted runs only when the pairs (v, w) are asked for."""
    if max_size > 2:
        raise ValueError(f"separating sets are enumerated up to size 2, not {max_size}")
    if max_size < 1:
        return
    whole = _whole_graph_blocks(g)[2]
    yield from ((v,) for v in range(g.n) if whole[v] > 1)
    if max_size == 2:
        for v in range(g.n):
            count = _articulation(g, v)[1]
            yield from ((v, w) for w in range(v + 1, g.n) if whole[v] + count[w] > 2)


def bridges(g: Hypergraph) -> list[int]:
    """Edges e whose deletion creates |e|-1 extra components, read from
    the cached whole-graph pass: those whose node lies in |e| blocks of the
    incidence graph B(G).  B(G - e) is B(G) minus the node of e, and
    each of its components holds a vertex.  Deleting a node that lies in
    c blocks splits its component into c pieces, each holding a
    neighbour of the node, a vertex of e; so G - e has c - 1 extra
    components, and c = |e| iff no two vertices of e are joined in B(G)
    minus the node."""
    count = _whole_graph_blocks(g)[2]
    n = g.n
    return [r for r, e in enumerate(g.edges) if count[n + r] == len(e)]


def is_separating_edge_set(g: Hypergraph, refs) -> bool:
    return len(list(_pieces(g, (), _edge_refs(g, refs)))) > len(list(_pieces(g)))


def _edge_refs(g: Hypergraph, refs) -> tuple[int, ...]:
    """The distinct refs ascending; ValueError for one out of range."""
    f = tuple(sorted(set(refs)))
    for ref in set(f):  # in the order ``Hypergraph.delete_edges`` checks them
        g.edge(ref)
    return f


CUT_GUARD = 10**4  # edge subsets minimal_separating_edge_sets may test


def minimal_separating_edge_sets(g: Hypergraph, max_size: int) -> list[EdgeCut]:
    """All minimal separating edge sets of size <= max_size as EdgeCuts.

    Tests every edge subset of size <= max_size by one component pass
    (``_is_minimal_cut``), so it raises GuardExceeded when there are
    more than ``CUT_GUARD``."""
    if not is_connected(g):
        raise ValueError("hypergraph must be connected")
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    top = min(max_size, g.m)
    subsets = sum(math.comb(g.m, size) for size in range(1, top + 1))
    if subsets > CUT_GUARD:
        raise GuardExceeded(
            f"{subsets} edge subsets of size <= {max_size} exceed the cut-search "
            f"guard of {CUT_GUARD}; lower --max-size"
        )
    found = []
    for size in range(1, top + 1):
        for f in itertools.combinations(range(g.m), size):
            pieces = list(_pieces(g, (), f))
            if _is_minimal_cut(g, f, pieces):
                found.append(_cut_of(g, pieces))
    return found


def _is_minimal_cut(g: Hypergraph, f: tuple[int, ...], pieces: list[tuple[int, ...]]) -> bool:
    """Whether the edge set F, in range, is a minimal separating set of
    the connected g, given the components of G - F.  Deleting edges
    never joins components, so a separating F is minimal iff no F - f
    separates; and G - F + f is connected iff f meets every component
    of G - F."""
    if not f or len(pieces) < 2:
        return False
    label = [0] * g.n
    for i, piece in enumerate(pieces):
        for v in piece:
            label[v] = i
    return all(len({label[v] for v in g.edges[r]}) == len(pieces) for r in f)


def edge_cut_for(g: Hypergraph, refs) -> EdgeCut:
    """The edge cut (X, Y, F) realizing a minimal separating set F of
    the connected g; ValueError for any other F."""
    f = _edge_refs(g, refs)
    pieces = list(_pieces(g, (), f))
    if not _is_minimal_cut(g, f, pieces):
        raise ValueError(f"edge set {f} is not a minimal separating set of a connected hypergraph")
    return _cut_of(g, pieces)


def _cut_of(g: Hypergraph, pieces: list[tuple[int, ...]]) -> EdgeCut:
    """The edge cut of a minimal separating set F of g, from the pieces
    of G - F: each edge of F meets every piece, so every non-empty
    proper union of them has boundary F; X is the least, sorted."""
    picks = (p for r in range(1, len(pieces)) for p in itertools.combinations(pieces, r))
    return EdgeCut.from_side(g, min(sorted(itertools.chain(*p)) for p in picks))


def mixed_separating_sets(g: Hypergraph) -> list[tuple[int, int]]:
    """All pairs (v, e) with v a separating vertex of G - e, sorted by
    (edge ref, vertex id): one articulation pass with the edge's node
    deleted per edge."""
    if not is_connected(g):
        raise ValueError("hypergraph must be connected")
    n = g.n
    out = []
    for ref in range(g.m):
        count = _articulation(g, n + ref)[1]
        out += ((v, ref) for v in range(n) if count[v] > 1)
    return out
