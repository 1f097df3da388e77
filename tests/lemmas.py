"""The paper's lemma checks, moved out of ``hyperchrome`` because no
library path, CLI verb or benchmark workload calls them.  Their bodies
are as they were in the library; only the module prefixes changed,
and ``check_general_split_precondition`` bounds its palette assignments
by ``ASSIGNMENT_BOUND``, the library's enumeration bound before the
library stopped enumerating colorings.

- ``validate_split_low``: a split at a low vertex of G2 is
  (k+1)-critical with the boundary of G1's side a separating edge set
  of size k (from ``constructions``).
- ``validate_split_ordinary`` with ``OrdinarySplitReport``: a split of
  an ordinary edge is critical with that edge a separating pair when
  the quotient side stays k-colourable (from ``constructions``).
- ``check_general_split_precondition``: every non-constant palette on
  the split edge extends to the quotient side (from ``constructions``).
- ``is_universal_vertex_bounded`` with ``UniversalVerdict``: bounded
  universality of a vertex under splitting (from ``constructions``).
- ``_infer_k``: k = chi - 1 of the first operand (from
  ``constructions``).
- ``replay_mixed``: the round-trip oracle of
  ``constructions.hajos_decompose_mixed``, re-joining the parts in the
  original ids (from ``constructions``).
- ``verify_one_high_vertex_lemma`` with ``OneHighVertexReport``: a
  (k+1)-critical hypergraph with one high vertex has a separating pair,
  or is a hyperwheel (k = 2) or an odd wheel (k = 3), and exactly one of
  these (from ``coloring``), with ``is_hyperwheel``: one base edge plus
  an apex joined to each base vertex (from ``shapes``).
- ``is_k_edge_connected``: connected with every Gusfield tree flow at
  least k, so the min over all pairs (from ``connectivity``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from hyperchrome import coloring as col
from hyperchrome import connectivity as conn
from hyperchrome import constructions as cons
from hyperchrome import shapes
from hyperchrome.constructions import MixedDecomposition, SplitResult, SplitSpec
from hyperchrome.hypercore import Hypergraph

import oracles

ASSIGNMENT_BOUND = 10**8

# -- from constructions ------------------------------------------------------


def replay_mixed(dec: MixedDecomposition) -> Hypergraph:
    """Re-join the decomposition and relabel back to the original ids."""
    joined = cons.hajos_join(dec.spec)
    new_of_join = [0] * joined.graph.n
    for old_v1, res in enumerate(joined.g1_map):
        new_of_join[res] = dec.g1_old[old_v1]
    for old_v2, res in enumerate(joined.g2_map):
        new_of_join[res] = dec.g2_old[old_v2]
    edges = [tuple(sorted(new_of_join[v] for v in e)) for e in joined.graph.edges]
    return Hypergraph.of(joined.graph.n, edges)


def _infer_k(g: Hypergraph, force: bool = False) -> int:
    return col.chromatic_number(g, force=force) - 1


def validate_split_low(
    spec: SplitSpec, k: int | None = None, force: bool = False
) -> SplitResult:
    """Split at a low vertex of g2: the result must be (k+1)-critical
    with the boundary of g1's side a size-k separating edge set."""
    if k is None:
        k = _infer_k(spec.g1, force=force)
    col.require_critical(spec.g1, k, "G1", force=force)
    col.require_critical(spec.g2, k, "G2", force=force)
    if spec.g2.degree(spec.v_tilde) != k:
        raise ValueError("v_tilde is not a low vertex of G2")
    result = cons.split(spec)
    col.require_critical(result.graph, k, "split result", force=force)
    f = result.graph.boundary(range(spec.g1.n))
    if len(f) != k or not conn.is_separating_edge_set(result.graph, f):
        raise ValueError("expected a separating boundary of size k")
    return result


@dataclass(frozen=True)
class OrdinarySplitReport:
    result: SplitResult
    theorem_applies: bool  # chi(G2') <= k
    is_critical: bool
    pair_separates: bool


def validate_split_ordinary(
    spec: SplitSpec, k: int | None = None, force: bool = False
) -> OrdinarySplitReport:
    """Split an ordinary edge of g1 into a vertex of g2.  When the
    quotient side stays k-colorable the result must be critical with
    the edge a separating pair; otherwise both outcomes are reported
    (the quotient is then itself critical)."""
    if k is None:
        k = _infer_k(spec.g1, force=force)
    if len(spec.g1.edge(spec.e_tilde)) != 2:
        raise ValueError("e_tilde must be an ordinary edge")
    col.require_critical(spec.g1, k, "G1", force=force)
    col.require_critical(spec.g2, k, "G2", force=force)
    result = cons.split(spec)
    pair = spec.g1.edge(spec.e_tilde)
    g2_side = sorted(set(range(spec.g1.n, result.graph.n)) | set(pair))
    quotient, _ = result.graph.induced(g2_side)
    applies = col.chromatic_number(quotient, force=force) <= k
    rep = col.is_critical(result.graph, k + 1, force=force)
    separates = oracles.is_separating_vertex_set(result.graph, pair)
    if applies and not (rep.is_critical and separates):
        raise ValueError("theorem conclusion failed despite its precondition")
    return OrdinarySplitReport(result, applies, rep.is_critical, separates)


def check_general_split_precondition(
    spec: SplitSpec, k: int | None = None, force: bool = False
) -> bool:
    """True iff every non-constant palette assignment on the split edge
    extends to a k-coloring of the quotient side, which guarantees the
    split result is (k+1)-critical."""
    if k is None:
        k = _infer_k(spec.g1, force=force)
    col.require_critical(spec.g1, k, "G1", force=force)
    col.require_critical(spec.g2, k, "G2", force=force)
    result = cons.split(spec)
    pair = spec.g1.edge(spec.e_tilde)
    g2_side = sorted(set(range(spec.g1.n, result.graph.n)) | set(pair))
    quotient, old = result.graph.induced(g2_side)
    marked = [old.index(u) for u in pair]
    if k ** len(marked) > ASSIGNMENT_BOUND:
        raise col.GuardExceeded("too many palette assignments on the split edge")
    for assignment in itertools.product(range(1, k + 1), repeat=len(marked)):
        if len(set(assignment)) < 2:
            continue
        preset = dict(zip(marked, assignment))
        if col.find_k_coloring(quotient, k, preset=preset) is None:
            return False
    return True


@dataclass(frozen=True)
class UniversalVerdict:
    universal_up_to_bound: bool
    counterexample: tuple[int, dict[int, tuple[int, ...]], tuple[int, ...]] | None


def is_universal_vertex_bounded(
    g: Hypergraph,
    v: int,
    k: int,
    max_set_size: int,
    guard: int = 200_000,
    force: bool = False,
) -> UniversalVerdict:
    """Bounded universality check: enumerate splittings of v into fresh
    independent sets of size <= max_set_size and test that every
    non-constant palette assignment on the fresh set extends."""
    col.require_critical(g, k, "G", force=force)
    incident = g.incident(v)
    d = len(incident)
    for t in range(2, max_set_size + 1):
        images = [x for r in range(1, t + 1) for x in itertools.combinations(range(t), r)]
        if len(images) ** d > guard:
            raise col.GuardExceeded("too many splitting maps at this bound")
        for choice in itertools.product(images, repeat=d):
            if set().union(*choice) != set(range(t)):
                continue
            s = dict(zip(incident, choice))
            g_split = cons.split_vertex(g, v, t, s).graph
            fresh = range(g_split.n - t, g_split.n)
            for assignment in itertools.product(range(1, k + 1), repeat=t):
                if len(set(assignment)) < 2:
                    continue
                preset = dict(zip(fresh, assignment))
                if col.find_k_coloring(g_split, k, preset=preset) is None:
                    return UniversalVerdict(False, (t, s, assignment))
    return UniversalVerdict(True, None)


# -- from coloring -----------------------------------------------------------


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
    low, high = col.low_high_partition(g, k, force=force)
    if len(high) != 1:
        raise ValueError(f"expected exactly one high vertex, found {len(high)}")
    return OneHighVertexReport(
        has_separating_pair=any(
            len(s) == 2 for s in conn.enumerate_separating_sets(g, 2)
        ),
        is_hyperwheel_case=k == 2 and is_hyperwheel(g),
        is_odd_wheel_case=k == 3 and shapes.is_odd_wheel(g),
    )


def is_hyperwheel(g: Hypergraph) -> bool:
    """One base edge plus an apex joined to each base vertex by an
    ordinary edge."""
    if g.n < 3:
        return False
    base_size = g.n - 1
    if g.m != base_size + 1:
        return False
    candidates = [e for e in g.edges if len(e) == base_size]
    for base in candidates:
        (hub,) = set(range(g.n)) - set(base)
        spokes = {tuple(sorted((hub, v))) for v in base}
        if spokes == set(g.edges) - {base}:
            return True
    return False


# -- from connectivity -------------------------------------------------------


def is_k_edge_connected(g: Hypergraph, k: int) -> bool:
    """Connected, with every one of the n-1 tree flows at least k."""
    if g.n < 2:
        raise ValueError("edge connectivity needs at least 2 vertices")
    comps = conn.components(g)
    if len(comps) > 1:
        return False
    deg = [len(refs) for refs in g.incidence]
    flows = conn._tree_flows(conn._FlowNet(g), conn._degree_order(comps[0], deg), deg)
    return all(value >= k for value in flows)
