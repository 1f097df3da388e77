"""Independent brute-force oracles used to pin the fast implementations.

Deliberately naive: full assignment enumeration for coloring, explicit
hyperpath enumeration plus packing search for connectivity, and subset
enumeration for cuts.  Only usable at toy sizes.

``reference_find_k_coloring`` and ``reference_enumerate_k_colorings``
are the recursive searches that the stack-based search in
``hyperchrome.coloring`` replaced, kept to pin it to the same results
(the enumeration pins read ``coloring._colorings`` directly, since the
library no longer lists colorings); they recurse once per vertex.
``reference_stack_colorings`` is the stack search without propagation that the forward-checking one
replaced, kept with a count of the colors it assigns.  ``reference_blocks`` is the
block decomposition that the incidence-table pass in
``hyperchrome.connectivity`` replaced: it builds the 2-section graph
and groups edges by the biconnected component of their first pair.
``ReferenceFlowNet`` is the flow network that the flat-array kernel in
``hyperchrome.connectivity`` replaced: built arc by arc, searched with a
fresh predecessor dict and seen set per augmenting path, run to a
failing search with no limit, and a second search for the cut side.
``reference_classify`` is the colour-first classifier that the
certify-first one in ``hyperchrome.classifier`` replaced, and
``reference_decompose_mixed`` the mixed-pair decomposition built from
``delete_edge``, ``div_vertices``, ``components`` and ``induced`` that
the one-search version in ``hyperchrome.constructions`` replaced; that
search is now the first piece of ``connectivity._pieces``.
``reference_pieces`` is the component listing of the derived
(G - F) / X, ``delete_edges`` then ``div_vertices`` then
``components``, that ``_pieces`` replaced in the vertex-pair and
edge-cut layers, where X and F are marked before one search.
``reference_pair_behavior`` and ``reference_forced_side`` are the
coloring enumerations that the vertex-pair and edge-cut decompositions
ran before they made preset searches, and
``reference_decompose_vertex_pair`` and ``reference_decompose_edge_cut``
those decompositions as they were before the parts' required
criticality alone chose the orientation, with these enumerations in
place of the preset searches that the enumerations were pinned to.
``is_separating_vertex_set`` and ``reference_enumerate_separating_sets``
are the quotient-and-count test per candidate set that
``connectivity.enumerate_separating_sets`` ran before it read
articulation passes.  ``has_separating_subset``,
``reference_minimal_separating_edge_sets`` and
``reference_edge_cut_for`` are the test of every proper subset of a cut,
each on a rebuilt G - F, and the scan of every union of the pieces of
G - F for one whose boundary is F, that ``connectivity`` ran before one
component pass of G - F decided both.  ``reference_bridges`` is the
bridge test by one component count per derived G - e that
``connectivity.bridges`` ran before it read the articulation pass.
``reference_is_in_Ck`` is the semantic membership test ((k+1)-critical
with lambda <= k) that ``classifier.is_in_Ck`` was before it read the
certifier, and ``reference_wheel_hub`` / ``reference_wheel_leaf`` the
odd-wheel recognition through the induced rim and a second rim walk
that ``shapes._odd_wheel_layout`` replaced.  ``reference_block_pass``
is the articulation search on the 2-section, walked through per-vertex
lists of (edge ref, neighbour) pairs with one edge skipped, that the
incidence-graph search ``connectivity._articulation`` replaced, and
``reference_from_hgr`` the HGR parser that the one-loop
``Hypergraph.from_hgr`` replaced.  ``reference_chromatic_number`` and
``reference_is_critical`` are ``chromatic_number`` and ``is_critical``
by search alone, with the n > ``REFERENCE_GUARD_N`` refusal that the
library had before its searches counted decisions, as they were before
they read the classifier's decision; the latter tests each derived G - e
(``reference_failing_edge``).  ``reference_instance_stats`` builds the
corpus entry from them, and ``reference_is_in_Ck`` and
``chromatic_number_by_blocks`` use them too, so no pin compares the
certifier with itself.  ``reference_extract_critical`` is
``classifier.extract_critical`` as it was before it ran the per-edge
scan once to the end: it started the scan
(``reference_failing_edge_walked``, the library's first-edge scan with
the same searches and witness walk) again from edge 0 after each
deleted edge, then searched chi of each component.
"""

from __future__ import annotations

import itertools
from collections import deque

from hyperchrome import classifier as cls
from hyperchrome import coloring as col
from hyperchrome import connectivity as conn
from hyperchrome import constructions as cons
from hyperchrome import shapes
from hyperchrome.coloring import Coloring
from hyperchrome.connectivity import Block, FlowResult, _FlowNet
from hyperchrome.constructions import HajosJoinSpec, MixedDecomposition
from hyperchrome.hypercore import MAX_VERTICES, Edge, HgrFormatError, Hypergraph, Relabeled


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


def _scan_incident(g: Hypergraph, v: int) -> tuple[int, ...]:
    return tuple(i for i, e in enumerate(g.edges) if v in e)


def reference_find_k_coloring(
    g: Hypergraph, k: int, preset: dict[int, int] | None = None
) -> Coloring | None:
    """The recursive degree-ordered search with symmetry breaking."""
    if g.n == 0:
        return Coloring((), k)
    incident = [_scan_incident(g, v) for v in range(g.n)]
    order = sorted(range(g.n), key=lambda v: (-len(incident[v]), v))
    preset = preset or {}
    colors = [0] * g.n

    def forbidden(v: int, c: int) -> bool:
        for ref in incident[v]:
            e = g.edge(ref)
            mono = True
            for u in e:
                if u != v and colors[u] != c:
                    mono = False
                    break
            if mono:
                return True
        return False

    def assign(pos: int, used: int) -> bool:
        if pos == g.n:
            return True
        v = order[pos]
        if v in preset:
            c = preset[v]
            if forbidden(v, c):
                return False
            colors[v] = c
            if assign(pos + 1, max(used, c)):
                return True
            colors[v] = 0
            return False
        top = k if preset else min(k, used + 1)
        for c in range(1, top + 1):
            if forbidden(v, c):
                continue
            colors[v] = c
            if assign(pos + 1, max(used, c)):
                return True
            colors[v] = 0
        return False

    if assign(0, 0):
        return Coloring(tuple(colors), k)
    return None


def reference_enumerate_k_colorings(
    g: Hypergraph, k: int, limit: int | None = None
) -> list[Coloring]:
    """The recursive enumeration in lexicographic order."""
    incident = [_scan_incident(g, v) for v in range(g.n)]
    colors = [0] * g.n
    out: list[Coloring] = []

    def walk(v: int) -> bool:
        if v == g.n:
            out.append(Coloring(tuple(colors), k))
            return limit is not None and len(out) >= limit
        for c in range(1, k + 1):
            colors[v] = c
            bad = False
            for ref in incident[v]:
                e = g.edge(ref)
                if e[-1] == v and all(colors[u] == c for u in e):
                    bad = True
                    break
            if not bad and walk(v + 1):
                return True
            colors[v] = 0
        return False

    walk(0)
    return out


def reference_stack_colorings(
    g: Hypergraph, k: int, order, preset: dict[int, int], symmetric: bool, nodes: list[int]
):
    """Every valid k-coloring in depth-first order over ``order``, with
    no propagation: a color is forbidden at v iff an edge through v has
    all its other vertices in that color.  ``nodes[0]`` counts the
    colors assigned."""
    n = g.n
    counts: dict[int, list[int]] = {}
    slots = [[(ref, len(g.edges[ref]) - 1) for ref in g.incidence[v]] for v in range(n)]
    colors = [0] * n
    used = [0] * (n + 1)
    pos = 0
    while pos >= 0:
        if pos == n:
            yield Coloring(tuple(colors), k)
            pos -= 1
            continue
        v = order[pos]
        slot = slots[v]
        c = colors[v]
        if c:
            row = counts[c]
            for ref, _ in slot:
                row[ref] -= 1
            colors[v] = 0
        if v in preset:
            top = preset[v]
            c = c or top - 1
        else:
            top = min(k, used[pos] + 1) if symmetric else k
        while c < top:
            c += 1
            row = counts.setdefault(c, [0] * g.m)
            if all(row[ref] != need for ref, need in slot):
                break
        else:
            pos -= 1
            continue
        for ref, _ in slot:
            row[ref] += 1
        colors[v] = c
        nodes[0] += 1
        used[pos + 1] = max(used[pos], c)
        pos += 1


def reference_blocks(g: Hypergraph) -> list[Block]:
    """Blocks via biconnected components of the built 2-section graph.

    A vertex separates G iff it is an articulation point of the
    2-section, and each hyperedge's clique lies in one biconnected
    component, so grouping hyperedges by component gives the blocks.
    """
    adj: list[set[int]] = [set() for _ in range(g.n)]
    for e in g.edges:
        for a, b in itertools.combinations(e, 2):
            adj[a].add(b)
            adj[b].add(a)
    comp_of_pair = _reference_biconnected_pairs(g.n, adj)
    groups: dict[int, list[int]] = {}
    for i, e in enumerate(g.edges):
        a, b = e[0], e[1]
        key = comp_of_pair[(a, b) if a < b else (b, a)]
        groups.setdefault(key, []).append(i)
    out = []
    covered: set[int] = set()
    for refs in groups.values():
        vs: set[int] = set()
        for r in refs:
            vs.update(g.edge(r))
        covered.update(vs)
        out.append(Block(tuple(sorted(vs)), tuple(sorted(refs))))
    for v in range(g.n):
        if v not in covered:
            out.append(Block((v,), ()))
    out.sort(key=lambda b: b.vertices)
    return out


def _reference_biconnected_pairs(n: int, adj: list[set[int]]) -> dict[tuple[int, int], int]:
    """Map each 2-section edge (a<b) to a biconnected-component id."""
    comp_of: dict[tuple[int, int], int] = {}
    disc = [-1] * n
    low = [0] * n
    comp_id = 0
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        stack: list[tuple[int, int]] = []
        # iterative DFS: (vertex, parent, neighbor iterator)
        frame = [(root, -1, iter(sorted(adj[root])))]
        disc[root] = low[root] = timer
        timer += 1
        while frame:
            v, parent, it = frame[-1]
            advanced = False
            for w in it:
                if disc[w] == -1:
                    stack.append((v, w) if v < w else (w, v))
                    disc[w] = low[w] = timer
                    timer += 1
                    frame.append((w, v, iter(sorted(adj[w]))))
                    advanced = True
                    break
                elif w != parent and disc[w] < disc[v]:
                    stack.append((v, w) if v < w else (w, v))
                    low[v] = min(low[v], disc[w])
            if advanced:
                continue
            frame.pop()
            if frame:
                pv = frame[-1][0]
                low[pv] = min(low[pv], low[v])
                if low[v] >= disc[pv]:
                    edge = (pv, v) if pv < v else (v, pv)
                    while stack:
                        top = stack.pop()
                        comp_of[top] = comp_id
                        if top == edge:
                            break
                    comp_id += 1
    return comp_of


def reference_separating_vertices(g: Hypergraph) -> tuple[int, ...]:
    """Vertices contained in more than one reference block."""
    count: dict[int, int] = {}
    for b in reference_blocks(g):
        for v in b.vertices:
            count[v] = count.get(v, 0) + 1
    return tuple(sorted(v for v, c in count.items() if c > 1))


def _reference_pair_lists(g: Hypergraph) -> list[list[tuple[int, int]]]:
    """Per vertex v, the 2-section pairs (edge ref, neighbour w) of v in
    incidence order: edges by ascending ref, then w by ascending id."""
    edges = g.edges
    return [
        [(r, w) for r in refs for w in edges[r] if w != v]
        for v, refs in enumerate(g.incidence)
    ]


def reference_block_pass(
    g: Hypergraph, skip: int | None = None
) -> tuple[list[list[int]], list[bool]]:
    """Hopcroft-Tarjan depth-first search for the biconnected components
    of the 2-section, walked through per-vertex pair lists, with edge
    ``skip`` treated as deleted.  Each vertex on the search path keeps an
    index into its own pair list, where its scan resumes when the search
    returns to it.

    Returns the edge refs of each block that has an edge, and per vertex
    whether it lies in two or more of them (an articulation point).

    The stack holds edge refs, each pushed once, when the first of its
    2-section pairs, (v, w), is examined.  Every discovered vertex of the
    edge is then still on the search path, since a finished one would
    have examined the edge.  If w is new, the ref lands above w's mark
    and closes with the tree edge (v, w); otherwise w is an ancestor of
    v and the ref closes with v's own tree edge, whose block the back
    edge (v, w) belongs to.  Either block holds a pair of the edge, whose
    vertices form a clique, so it is the edge's block.
    """
    pairs = _reference_pair_lists(g)
    n = g.n
    disc = [-1] * n
    low = [0] * n
    # next unexamined pair of each vertex on the path
    nxt = [0] * n
    # stack height at each non-root vertex's tree edge
    mark = [0] * n
    # blocks containing v: one above a non-root v, plus one per block
    # closed at v
    count = [1] * n
    pushed = [False] * g.m
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
            v = path[-1]
            todo = pairs[v]
            i = nxt[v]
            while i < len(todo):
                r, w = todo[i]
                i += 1
                if r == skip:
                    continue
                if not pushed[r]:
                    pushed[r] = True
                    stack.append(r)
                    if disc[w] < 0:
                        mark[w] = len(stack) - 1
                        break
                elif disc[w] < 0:
                    mark[w] = len(stack)
                    break
                if disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                path.pop()
                if path:
                    u = path[-1]
                    if low[v] < low[u]:
                        low[u] = low[v]
                    if low[v] >= disc[u]:
                        out.append(stack[mark[v]:])
                        del stack[mark[v]:]
                        count[u] += 1
                continue
            nxt[v] = i
            disc[w] = low[w] = timer
            timer += 1
            path.append(w)
    return out, [c > 1 for c in count]


def reference_from_hgr(text: str) -> Hypergraph:
    """The HGR parser with a per-line strip, a set and a sort per edge
    for the order test, and a membership test for duplicates."""
    n: int | None = None
    edges: list[Edge] = []
    seen: set[Edge] = set()
    got_header = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not got_header:
            if line != "HGR 1":
                raise HgrFormatError(line_no, "expected header 'HGR 1'")
            got_header = True
            continue
        parts = line.split()
        ids = parts[1:]
        # int() alone also takes '+1', '1_0' and non-ASCII digits such as '０２'
        digits = "".join(ids)
        if parts[0] in ("n", "e") and ids and not (digits.isascii() and digits.isdigit()):
            raise HgrFormatError(line_no, "counts and vertex ids must be ASCII digits")
        if parts[0] == "n":
            if n is not None:
                raise HgrFormatError(line_no, "duplicate vertex-count line")
            if len(parts) != 2:
                raise HgrFormatError(line_no, "expected 'n <count>'")
            # the length test comes first: int() refuses over 4300 digits
            count = parts[1].lstrip("0") or "0"
            if len(count) > len(str(MAX_VERTICES)) or int(count) > MAX_VERTICES:
                raise HgrFormatError(line_no, f"vertex count exceeds the limit of {MAX_VERTICES}")
            n = int(count)
        elif parts[0] == "e":
            if n is None:
                raise HgrFormatError(line_no, "edge before vertex-count line")
            try:
                vs = tuple(map(int, ids))
            except ValueError:  # ASCII digits already, so over int()'s 4300-digit limit
                raise HgrFormatError(line_no, "vertex id out of range") from None
            if len(vs) < 2:
                raise HgrFormatError(line_no, "edge has fewer than 2 vertices")
            if len(set(vs)) != len(vs) or list(vs) != sorted(vs):
                raise HgrFormatError(line_no, "vertex ids not strictly increasing")
            if vs[-1] >= n:
                raise HgrFormatError(line_no, "vertex id out of range")
            if vs in seen:
                raise HgrFormatError(line_no, f"duplicate edge {vs}")
            seen.add(vs)
            edges.append(vs)
        else:
            raise HgrFormatError(line_no, f"unknown directive {parts[0]!r}")
    if not got_header:
        raise HgrFormatError(1, "empty input, expected header 'HGR 1'")
    if n is None:
        raise HgrFormatError(1, "missing vertex-count line")
    return Hypergraph.of(n, edges)


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


class ReferenceFlowNet(_FlowNet):
    """The unit-capacity network and breadth-first search that the
    flat-array kernel replaced; path decomposition is inherited."""

    def __init__(self, g: Hypergraph) -> None:
        self.g = g
        size = g.n + 2 * g.m
        self.adj: list[list[int]] = [[] for _ in range(size)]
        self.to: list[int] = []
        self.cap: list[int] = []
        big = g.m + 1
        for i, e in enumerate(g.edges):
            self._arc(g.n + 2 * i, g.n + 2 * i + 1, 1)
            for v in e:
                self._arc(v, g.n + 2 * i, big)
                self._arc(g.n + 2 * i + 1, v, big)
        self._initial_cap = self.cap[:]

    def _arc(self, a: int, b: int, c: int) -> None:
        self.adj[a].append(len(self.to))
        self.to.append(b)
        self.cap.append(c)
        self.adj[b].append(len(self.to))
        self.to.append(a)
        self.cap.append(0)

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            pred = self._bfs(s, t)
            if pred is None:
                return flow
            node = t
            while node != s:
                arc = pred[node]
                self.cap[arc] -= 1
                self.cap[arc ^ 1] += 1
                node = self.to[arc ^ 1]
            flow += 1

    def _bfs(self, s: int, t: int) -> dict[int, int] | None:
        pred: dict[int, int] = {}
        seen = {s}
        queue = deque([s])
        while queue:
            node = queue.popleft()
            for arc in self.adj[node]:
                nxt = self.to[arc]
                if self.cap[arc] > 0 and nxt not in seen:
                    seen.add(nxt)
                    pred[nxt] = arc
                    if nxt == t:
                        return pred
                    queue.append(nxt)
        return None

    def residual_side(self, s: int) -> set[int]:
        seen = {s}
        queue = deque([s])
        while queue:
            node = queue.popleft()
            for arc in self.adj[node]:
                nxt = self.to[arc]
                if self.cap[arc] > 0 and nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return {v for v in seen if v < self.g.n}


def reference_local_edge_connectivity(g: Hypergraph, v: int, w: int) -> FlowResult:
    """Value, witness paths and cut side as the replaced kernel gave them."""
    net = ReferenceFlowNet(g)
    value = net.max_flow(v, w)
    paths = net.decompose(v, w, value)
    return FlowResult(value, tuple(paths), tuple(sorted(net.residual_side(v))))


def reference_pair_lambdas(g: Hypergraph) -> list[int]:
    """lambda(v, w) for every pair v < w, one replaced-kernel flow each."""
    out = []
    for v, w in itertools.combinations(range(g.n), 2):
        net = ReferenceFlowNet(g)
        out.append(net.max_flow(v, w))
    return out


def reference_classify(g: Hypergraph) -> cls.ClassifyOutcome:
    """For lambda >= 3, search for a lambda-coloring first and certify
    the blocks, by descending first edge ref, only when there is none;
    below 3 the classifier's own branch, which did not change."""
    lam = conn.max_local_edge_connectivity(g)
    if lam < 3:
        return cls.classify(g)
    phi = col.find_k_coloring(g, lam)
    if phi is not None:
        chi = lam  # scanned down, as the classifier did
        while chi > 1 and col.find_k_coloring(g, chi - 1) is not None:
            chi -= 1
        return cls.ClassifyOutcome(lam, chi, "colorable", coloring=phi)
    for b in sorted((b for b in conn.blocks(g) if b.edge_refs), key=lambda b: -b.edge_refs[0]):
        cert = cls._build_certificate(b.graph(g), lam, b.vertices)
        if cert is not None:
            return cls.ClassifyOutcome(lam, lam + 1, "tight", block=b.vertices, certificate=cert)
    raise cls.InternalError("no block of a tight instance certifies; internal bug")


def reference_pieces(g: Hypergraph, dead, cut) -> list[tuple[int, ...]]:
    """The components of (G - F) / X from the derived values: the
    components of ``g.delete_edges(cut).div_vertices(dead)``, mapped
    back to g's ids."""
    shrunk, old = g.delete_edges(cut).div_vertices(dead)
    return [tuple(old[v] for v in c) for c in conn.components(shrunk)]


def reference_decompose_mixed(g: Hypergraph, v_star: int, e_star: int) -> MixedDecomposition:
    """The decomposition through the derived values G - e*, (G - e*) / v*,
    its components and the induced parts, each part validated twice."""
    estar_vs = set(g.edge(e_star))
    rest = g.delete_edge(e_star)
    div, div_old = rest.div_vertices((v_star,))
    comps = [{div_old[v] for v in c} for c in conn.components(div)]
    if len(comps) < 2:
        raise ValueError(f"({v_star}, edge {e_star}) is not a mixed separating set")
    side1 = comps[0]
    side2 = set().union(*comps[1:])
    if not (estar_vs - {v_star}) & side1 or not (estar_vs - {v_star}) & side2:
        raise ValueError("deleted edge does not meet both sides")
    parts = []
    for side in (side1, side2):
        vs = sorted(side | {v_star})
        sub, old = rest.induced(vs)
        pos = {u: i for i, u in enumerate(old)}
        half = tuple(sorted({pos[u] for u in estar_vs if u in side} | {pos[v_star]}))
        if half in set(sub.edges):
            raise ValueError(
                "half edge already present; input violates the decomposition"
            )
        parts.append((Hypergraph.of(sub.n, sub.edges + (half,)), old, pos, half))
    (p1, old1, pos1, half1), (p2, old2, pos2, half2) = parts
    spec = HajosJoinSpec(
        p1, p2, pos1[v_star], pos2[v_star], p1.edge_ref(half1), p2.edge_ref(half2),
        include_vstar=v_star in estar_vs,
    )
    return MixedDecomposition(spec, old1, old2, v_star, e_star)


def reference_pair_behavior(g: Hypergraph, k: int, v: int, w: int) -> bool | None:
    """True if every k-coloring of g gives v and w one color, False if
    every one gives them two or g has none, None on a mix: by
    enumerating every k-coloring."""
    same = differ = False
    for phi in reference_enumerate_k_colorings(g, k):
        if phi.colors[v] == phi.colors[w]:
            same = True
        else:
            differ = True
        if same and differ:
            return None
    return same


def reference_forced_side(g: Hypergraph, k: int, xs, marked) -> bool | None:
    """True if every k-coloring of G[xs] is constant on ``marked``,
    False if every one uses all k colors there, None otherwise: by
    enumerating every k-coloring."""
    sub, old = g.induced(xs)
    pos = [old.index(u) for u in marked]
    one = full = True
    for phi in reference_enumerate_k_colorings(sub, k):
        img = {phi.colors[p] for p in pos}
        one = one and len(img) == 1
        full = full and len(img) == k
        if not one and not full:
            return None
    return one


def reference_decompose_vertex_pair(g: Hypergraph, k: int) -> cons.VertexPairDecomposition | None:
    """The vertex-pair decomposition that checked each side's behaviour
    at the pair before requiring the parts to be critical: the first of
    the enumerated separating sets, then the side whose colorings all
    give the pair one color as side 1."""
    col.require_critical(g, k)
    seps = reference_enumerate_separating_sets(g, 2)
    if not seps:
        return None
    s = seps[0]
    if len(s) != 2:
        raise ValueError("critical hypergraph has a separating vertex; bug upstream")
    v, w = s
    if any(set(e) == {v, w} for e in g.edges):
        raise ValueError("separating pair is not independent; theorem violated")
    shrunk, old = g.div_vertices(s)
    comps = [tuple(sorted(old[x] for x in c)) for c in conn.components(shrunk)]
    if len(comps) != 2:
        raise ValueError(f"expected exactly 2 components, found {len(comps)}")
    h1, h2 = sorted(comps)
    side1 = g.induced(sorted(set(h1) | {v, w}))
    side2 = g.induced(sorted(set(h2) | {v, w}))
    b1, b2 = (
        reference_pair_behavior(side.graph, k, side.old_ids.index(v), side.old_ids.index(w))
        for side in (side1, side2)
    )
    if b1 is None or b2 is None or b1 == b2:
        raise ValueError("coloring dichotomy fails; theorem violated")
    if not b1:
        side1, side2 = side2, side1
        h1, h2 = h2, h1
    pv, pw = side1.old_ids.index(v), side1.old_ids.index(w)
    g1_prime = Hypergraph.of(side1.graph.n, side1.graph.edges + ((pv, pw),))
    pv2, pw2 = side2.old_ids.index(v), side2.old_ids.index(w)
    g2_prime = cons.identify_vertices(side2.graph, pv2, pw2)
    for part, name in ((g1_prime, "G1'"), (g2_prime, "G2'")):
        col.require_critical(part, k, name)
    return cons.VertexPairDecomposition(v, w, h1, h2, side1, side2, g1_prime, g2_prime)


def reference_decompose_edge_cut(g: Hypergraph, k: int, f) -> cons.EdgeCutDecomposition:
    """The edge-cut decomposition that found side X, the side whose
    colorings are all constant on X_F, before requiring the parts to
    be critical."""
    refs = tuple(sorted(set(f)))
    col.require_critical(g, k)
    if not conn.is_separating_edge_set(g, refs):
        raise ValueError("edge set is not separating")
    if len(refs) > k:
        raise ValueError(f"separating set has size {len(refs)} > {k}")
    if has_separating_subset(g, refs):
        raise ValueError("separating edge set is not minimal; k-edge-connectivity bug")
    if len(refs) != k:
        raise ValueError(f"minimal separating set of size {len(refs)} != {k}")
    cut = reference_edge_cut_for(g, refs)
    if reference_forced_side(g, k, cut.x, cut.x_f) is not True:
        cut = conn.EdgeCut(cut.y, cut.x, cut.f, cut.y_f, cut.x_f)
        if reference_forced_side(g, k, cut.x, cut.x_f) is not True:
            raise ValueError("no side's k-colorings are constant on its cut; theorem violated")
    for u in cut.y_f:
        if sum(1 for ref in cut.f if u in g.edge(ref)) != 1:
            raise ValueError(f"vertex {u} not incident to exactly one cut edge")
    g2, g2_old = cons._apex_side(g, cut.y, cut.f)
    col.require_critical(g2, k, "G2")
    g1 = None
    g1_old: tuple[int, ...] = ()
    if len(cut.x_f) >= 2:
        sub, old = g.induced(cut.x)
        pos = {u: i for i, u in enumerate(old)}
        g1 = Hypergraph.of(sub.n, sub.edges + (tuple(sorted(pos[u] for u in cut.x_f)),))
        g1_old = old
        col.require_critical(g1, k, "G1")
    return cons.EdgeCutDecomposition(cut, g1, g1_old, g2, g2_old)


def is_separating_vertex_set(g: Hypergraph, sep) -> bool:
    """S separates iff G / S has more components than G."""
    s = tuple(sorted(set(sep)))
    if len(s) >= g.n:
        return False
    shrunk = g.div_vertices(s).graph
    return len(conn.components(shrunk)) > len(conn.components(g))


def reference_enumerate_separating_sets(g: Hypergraph, max_size: int) -> list[tuple[int, ...]]:
    """All separating vertex sets of size <= max_size, by size and then
    lexicographically: one quotient and one component count per
    candidate set."""
    out = []
    for size in range(1, max_size + 1):
        for s in itertools.combinations(range(g.n), size):
            if is_separating_vertex_set(g, s):
                out.append(s)
    return out


def has_separating_subset(g: Hypergraph, f: tuple[int, ...]) -> bool:
    """Whether a non-empty proper subset of the edge set f separates g."""
    return any(
        conn.is_separating_edge_set(g, sub)
        for r in range(1, len(f))
        for sub in itertools.combinations(f, r)
    )


def reference_edge_cut_for(g: Hypergraph, refs) -> conn.EdgeCut:
    """The edge cut (X, Y, F) for F: X is the lexicographically smallest
    union of components of G - F whose boundary is exactly F."""
    f = tuple(sorted(set(refs)))
    comps = conn.components(g.delete_edges(f))
    fset = set(f)
    best = None
    for r in range(1, len(comps)):
        for pick in itertools.combinations(comps, r):
            xs = sorted(v for comp in pick for v in comp)
            if len(xs) == g.n:
                continue
            if set(g._boundary(set(xs))) == fset:
                if best is None or xs < best:
                    best = xs
    if best is None:
        raise ValueError(f"edge set {f} is not a boundary cut")
    return conn.EdgeCut.from_side(g, best)


def reference_minimal_separating_edge_sets(g: Hypergraph, max_size: int) -> list[conn.EdgeCut]:
    """Every edge subset of size <= max_size that separates g while no
    non-empty proper subset of it does, as ``reference_edge_cut_for``
    cuts, by size and then lexicographically."""
    return [
        reference_edge_cut_for(g, f)
        for size in range(1, min(max_size, g.m) + 1)
        for f in itertools.combinations(range(g.m), size)
        if conn.is_separating_edge_set(g, f) and not has_separating_subset(g, f)
    ]


def reference_bridges(g: Hypergraph) -> list[int]:
    """Edges e whose deletion creates |e|-1 extra components, by one
    component count of each derived G - e."""
    base = len(conn.components(g))
    out = []
    for i, e in enumerate(g.edges):
        if len(conn.components(g.delete_edge(i))) == base + len(e) - 1:
            out.append(i)
    return out


REFERENCE_GUARD_N = 24


def reference_chromatic_number(g: Hypergraph, force: bool = False) -> int:
    """chi by search alone, from the clique bound up, refusing
    n > ``REFERENCE_GUARD_N`` unless force is set."""
    if g.n == 0:
        return 0
    if g.m == 0:
        return 1
    if g.n > REFERENCE_GUARD_N and not force:
        raise col.GuardExceeded(f"exact chi refuses n={g.n} > {REFERENCE_GUARD_N} without force")
    k = max(2, col._clique_lower_bound(g))
    while col.find_k_coloring(g, k) is None:
        k += 1
    return k


def chromatic_number_by_blocks(g: Hypergraph, force: bool = False) -> int:
    """Max of the searched chi over the blocks."""
    if g.n == 0:
        return 0
    return max(reference_chromatic_number(b.graph(g), force=force) for b in conn.blocks(g))


def reference_failing_edge(g: Hypergraph, k: int) -> int | None:
    """The first edge ref whose deletion leaves g without a k-coloring,
    by one search on each derived G - e."""
    for ref in range(g.m):
        if col.find_k_coloring(g.delete_edge(ref), k) is None:
            return ref
    return None


def reference_failing_edge_walked(g: Hypergraph, k: int, force: bool = False) -> int | None:
    """The first failing edge by the per-edge scan as it was before it
    became the generator ``coloring._failing_edges``: searched with e
    skipped and preset, and walked from each coloring found, with
    ``coloring._colorings`` and ``coloring._witnesses`` (so a count of
    the searches compares with the library's), from edge 0 of g."""
    degree = [len(refs) for refs in g.incidence]
    witnessed = [False] * g.m
    for ref, e in enumerate(g.edges):
        if witnessed[ref]:
            continue
        for v in e:
            degree[v] -= 1
        order = sorted(range(g.n), key=lambda v: (-degree[v], v))
        for v in e:
            degree[v] += 1
        phi = next(col._colorings(g, k, order, dict.fromkeys(e, 1), True, skip=ref, force=force), None)
        if phi is None:
            return ref
        witnessed[ref] = True
        for _ in col._witnesses(g, k, list(phi.colors), ref, witnessed):
            pass
    return None


def reference_extract_critical(g: Hypergraph, target_chi: int, force: bool = False) -> Relabeled:
    """``classifier.extract_critical`` as it was before it ran one scan
    to the end: the scan started again from edge 0 after every deleted
    edge (``reference_failing_edge_walked``), and chi was searched on
    each component with edges until one had the target."""
    chi, _, critical = col._chi(g, force)
    if chi != target_chi:
        raise ValueError(f"chromatic number is not {target_chi}")
    if critical:
        return g.induced(range(g.n))
    if target_chi <= 1:
        return g.induced(range(min(g.n, 1)))
    cur = g
    while (ref := reference_failing_edge_walked(cur, target_chi - 1, force)) is not None:
        cur = cur.delete_edge(ref)
    for comp in conn.components(cur):
        sub, old = cur.induced(comp)
        if sub.m and col.chromatic_number(sub, force=force) == target_chi:
            return Relabeled(sub, old)
    raise AssertionError("no component kept the chromatic number")


def reference_is_critical(g: Hypergraph, k_plus_1: int, force: bool = False) -> col.CriticalityReport:
    """The criticality report by search alone: connected, chi = k+1 by
    ``reference_chromatic_number``, and the first edge whose deletion
    keeps chi by ``reference_failing_edge``."""
    if k_plus_1 < 1:
        raise ValueError("target chromatic number must be >= 1")
    if not conn.is_connected(g):
        return col.CriticalityReport(False, -1, reason="not connected")
    chi = reference_chromatic_number(g, force=force)
    if chi != k_plus_1:
        return col.CriticalityReport(False, chi, reason=f"chi is {chi}, not {k_plus_1}")
    ref = reference_failing_edge(g, chi - 1) if chi > 1 else None
    if ref is not None:
        return col.CriticalityReport(False, chi, failing_edge=ref, reason="edge deletion keeps chi")
    return col.CriticalityReport(True, chi)


def reference_instance_stats(g: Hypergraph, force: bool = False) -> dict:
    """The corpus entry from the searched chi, lambda from the flows
    and the searched criticality report."""
    stats: dict = {"n": g.n, "m": g.m}
    try:
        chi = reference_chromatic_number(g, force=force)
    except col.GuardExceeded:
        return stats
    stats["chi"] = chi
    stats["lambda"] = conn.max_local_edge_connectivity(g)
    if chi >= 1:
        critical = reference_is_critical(g, chi, force=True).is_critical
        stats["critical_k"] = chi if critical else None
    return stats


def reference_is_in_Ck(g: Hypergraph, k: int, force: bool = False) -> bool:
    """Semantic membership oracle: (k+1)-critical with local edge
    connectivity at most k, both by search.  Only k >= 3 is decided."""
    if k < 3:
        raise ValueError("membership is only decided for k >= 3")
    if not reference_is_critical(g, k + 1, force=force).is_critical:
        return False
    return conn.max_local_edge_connectivity(g) <= k


def reference_wheel_hub(g: Hypergraph) -> int | None:
    """The hub of an odd wheel: rim vertices have degree 3 and the hub
    is adjacent to all of them by ordinary edges.  For K_4 (= the wheel
    over a triangle) any vertex qualifies; the smallest id is returned."""
    if not g.is_graph() or g.n < 4 or g.n % 2 == 1:
        return None
    rim_len = g.n - 1
    if g.m != 2 * rim_len:
        return None
    for hub in range(g.n):
        if g.degree(hub) != rim_len:
            continue
        rim = [v for v in range(g.n) if v != hub]
        if any(g.degree(v) != 3 for v in rim):
            continue
        rim_graph, _ = g.induced(rim)
        if shapes.is_odd_cycle(rim_graph):
            return hub
    return None


def reference_wheel_leaf(g: Hypergraph, ids) -> cls.Leaf | None:
    hub = reference_wheel_hub(g)
    if hub is None:
        return None
    rim = [v for v in range(g.n) if v != hub]
    adj = {v: [] for v in rim}
    for e in g.edges:
        if hub not in e:
            adj[e[0]].append(e[1])
            adj[e[1]].append(e[0])
    order = [rim[0], min(adj[rim[0]])]
    while len(order) < len(rim):
        a, b = order[-2], order[-1]
        order.append(next(u for u in adj[b] if u != a))
    return cls.Leaf("odd_wheel", tuple(ids[v] for v in order) + (ids[hub],))

