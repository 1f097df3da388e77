"""Exact chromatic numbers, k-coloring search and enumeration,
criticality testing, and low/high vertex structure checks.

An edge is violated only when it is monochromatic, which is weaker
than pairwise-distinct graph coloring, so the search propagates a
not-all-equal constraint: a color is forbidden for the last uncolored
vertex of an edge only if all other vertices of that edge share it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .hypercore import Hypergraph
from .connectivity import blocks, bridges, enumerate_separating_sets, is_connected
from .shapes import is_complete_graph, is_hyperwheel, is_odd_cycle, is_odd_wheel, is_single_edge

CHI_GUARD_N = 24
ENUM_GUARD = 10**8


class GuardExceeded(RuntimeError):
    """Search-space guard tripped; pass force/limit to override."""


@dataclass(frozen=True)
class Coloring:
    """Vertex colors in 1..palette; valid iff no edge is monochromatic."""

    colors: tuple[int, ...]
    palette: int

    def __post_init__(self) -> None:
        if any(c < 1 or c > self.palette for c in self.colors):
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
    g: Hypergraph, k: int, preset: dict[int, int] | None = None
) -> Coloring | None:
    """A valid k-coloring if one exists, else None.  Deterministic:
    vertices are tried in descending-degree order with symmetry
    breaking (color c only after 1..c-1 appear), unless colors are
    preset, which disables symmetry breaking."""
    if k < 1:
        raise ValueError("palette size must be >= 1")
    if g.n == 0:
        return Coloring((), k)
    preset = preset or {}
    for v, c in preset.items():
        g._check_vertex(v)
        if not 1 <= c <= k:
            raise ValueError(f"preset color {c} outside 1..{k}")
    order = sorted(range(g.n), key=lambda v: (-len(g.incidence[v]), v))
    return next(_colorings(g, k, order, preset, symmetric=not preset), None)


def chromatic_number(g: Hypergraph, force: bool = False) -> int:
    """Least k admitting a valid coloring; 0 for the empty hypergraph,
    1 for edgeless graphs.  Refuses n > 24 unless force is set."""
    if g.n == 0:
        return 0
    if g.n > CHI_GUARD_N and not force:
        raise GuardExceeded(f"exact chi refuses n={g.n} > {CHI_GUARD_N} without force")
    if g.m == 0:
        return 1
    k = max(2, _clique_lower_bound(g))
    while find_k_coloring(g, k) is None:
        k += 1
    return k


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


def chromatic_number_by_blocks(g: Hypergraph, force: bool = False) -> int:
    """Max of chi over blocks; agrees with the direct computation."""
    if g.n == 0:
        return 0
    return max(chromatic_number(b.graph(g), force=force) for b in blocks(g))


def enumerate_k_colorings(
    g: Hypergraph, k: int, limit: int | None = None
) -> list[Coloring]:
    """All valid k-colorings in lexicographic order, up to limit."""
    if k < 1:
        raise ValueError("palette size must be >= 1")
    if limit is not None and limit < 0:
        raise ValueError("limit must be >= 0")
    if limit == 0:
        return []
    if limit is None and k**g.n > ENUM_GUARD:
        raise GuardExceeded(f"{k}^{g.n} assignments exceed the enumeration guard")
    out: list[Coloring] = []
    for phi in _colorings(g, k, range(g.n), {}, symmetric=False):
        out.append(phi)
        if limit is not None and len(out) >= limit:
            break
    return out


def _colorings(g: Hypergraph, k: int, order, preset: dict[int, int], symmetric: bool):
    """Every valid k-coloring, in depth-first order, from a search
    whose stack is the colored prefix ``order[:pos]``.

    A preset vertex takes its preset color only; any other vertex tries
    1..k in turn, or only up to one more than the largest color so far
    when ``symmetric``.  Color c is forbidden at v iff an edge through v
    has all its other vertices in color c, which the per-edge color
    counts show at once."""
    n = g.n
    m = g.m
    # counts[c][ref]: vertices of edge ref in color c; a row appears
    # when color c is first tried
    counts: defaultdict[int, list[int]] = defaultdict(lambda: [0] * m)
    # per vertex: (ref, size - 1) of each incident edge
    slots = [[(ref, len(g.edges[ref]) - 1) for ref in g.incidence[v]] for v in range(n)]
    colors = [0] * n
    used = [0] * (n + 1)  # used[pos]: largest color on order[:pos]
    pos = 0
    while pos >= 0:
        if pos == n:
            yield Coloring(tuple(colors), k)
            pos -= 1
            continue
        v = order[pos]
        slot = slots[v]
        c = colors[v]
        if c:  # back from depth pos + 1: take v's color off, try the next
            row = counts[c]
            for ref, _ in slot:
                row[ref] -= 1
            colors[v] = 0
        if v in preset:  # one candidate, already tried if c is set
            top = preset[v]
            c = c or top - 1
        else:
            top = min(k, used[pos] + 1) if symmetric else k
        while c < top:
            c += 1
            row = counts[c]
            for ref, need in slot:
                if row[ref] == need:
                    break
            else:
                break
        else:
            pos -= 1
            continue
        for ref, _ in slot:
            row[ref] += 1
        colors[v] = c
        used[pos + 1] = max(used[pos], c)
        pos += 1


def is_critical(g: Hypergraph, k_plus_1: int, force: bool = False) -> CriticalityReport:
    """(k+1)-criticality via the per-edge test: connected, chi = k+1,
    and chi(G - e) <= k for every edge."""
    if k_plus_1 < 1:
        raise ValueError("target chromatic number must be >= 1")
    if not is_connected(g):
        return CriticalityReport(False, -1, reason="not connected")
    chi = chromatic_number(g, force=force)
    if chi != k_plus_1:
        return CriticalityReport(False, chi, reason=f"chi is {chi}, not {k_plus_1}")
    if k_plus_1 == 1:
        return CriticalityReport(True, chi)
    for ref in range(g.m):
        if find_k_coloring(g.delete_edge(ref), k_plus_1 - 1) is None:
            return CriticalityReport(
                False, chi, failing_edge=ref, reason="edge deletion keeps chi"
            )
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
    (k+1)-critical hypergraph (checked; min degree >= k is asserted)."""
    require_critical(g, k, force=force)
    low, high = [], []
    for v in range(g.n):
        d = g.degree(v)
        if d < k:
            raise ValueError(f"vertex {v} has degree {d} < {k}; corrupted input")
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
    kinds = []
    ok = True
    for b in blocks(g):
        if not b.edge_refs:  # isolated vertex: a K1 block
            kinds.append("complete")
            continue
        kind = classify_gallai_block(b.graph(g))
        kinds.append(kind)
        ok = ok and kind is not None
    return ok, kinds


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
    mixed = [
        e
        for e in g.edges
        if len(set(e) & low_set) >= 2 and len(set(e) & high_set) >= 1
    ]
    gl, gl_old = g.shrink(low)
    pos = {v: i for i, v in enumerate(gl_old)}
    forest_ok, _ = is_gallai_forest(gl)
    traces = [tuple(sorted(pos[v] for v in e if v in low_set)) for e in mixed]
    traces_distinct = len(set(traces)) == len(traces)
    bridge_set = set(bridges(gl))
    bridges_ok = True
    for trace in traces:
        try:
            ref = gl.edge_ref(trace)
        except ValueError:
            bridges_ok = False
            continue
        if ref not in bridge_set:
            bridges_ok = False
    if high:
        no_high_shape_ok = True
    else:
        no_high_shape_ok = (
            is_complete_graph(g)
            and g.n == k + 1
            or (k == 2 and is_odd_cycle(g))
            or (k == 1 and is_single_edge(g))
        )
    return GallaiLemmaReport(
        low, high, forest_ok, traces_distinct, bridges_ok, no_high_shape_ok
    )


@dataclass(frozen=True)
class OneHighVertexReport:
    has_separating_pair: bool
    is_hyperwheel_case: bool
    is_odd_wheel_case: bool

    @property
    def exactly_one(self) -> bool:
        return (
            int(self.has_separating_pair)
            + int(self.is_hyperwheel_case)
            + int(self.is_odd_wheel_case)
        ) == 1


def verify_one_high_vertex_lemma(
    g: Hypergraph, k: int, force: bool = False
) -> OneHighVertexReport:
    """For a (k+1)-critical hypergraph with exactly one high vertex:
    exactly one of {separating pair exists, k=2 hyperwheel, k=3 odd
    wheel} holds."""
    low, high = low_high_partition(g, k, force=force)
    if len(high) != 1:
        raise ValueError(f"expected exactly one high vertex, found {len(high)}")
    return OneHighVertexReport(
        has_separating_pair=any(
            len(s) == 2 for s in enumerate_separating_sets(g, 2)
        ),
        is_hyperwheel_case=k == 2 and is_hyperwheel(g),
        is_odd_wheel_case=k == 3 and is_odd_wheel(g),
    )
