import collections
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from hyperchrome.hypercore import Hypergraph
from hyperchrome import coloring as col
from hyperchrome import connectivity as conn
from hyperchrome import constructions as cons
from hyperchrome import corpus

import lemmas
import oracles
from conftest import (
    connected_hypergraphs,
    perturb,
    perturbed_join,
    random_nested_join,
    relabelled,
)


class TestGenerators:
    def test_complete_and_cycle(self):
        assert cons.complete_graph(4).m == 6
        assert cons.cycle(5).m == 5
        with pytest.raises(ValueError):
            cons.cycle(2)

    def test_odd_wheel(self):
        w = cons.odd_wheel(5)
        assert (w.n, w.m) == (6, 10)
        with pytest.raises(ValueError):
            cons.odd_wheel(4)

    def test_hyperwheel(self):
        h = cons.hyperwheel(4)
        assert (h.n, h.m) == (5, 5)
        assert (0, 1, 2, 3) in h.edges

    def test_dirac_sum_chi_additive(self):
        g = cons.dirac_sum(cons.cycle(5), cons.complete_graph(2))
        assert col.chromatic_number(g) == 3 + 2

    def test_kc(self):
        assert cons.kc(1, 1) == cons.complete_graph(4)
        assert cons.kc(2, 1) == cons.complete_graph(5)
        g = cons.kc(1, 2)
        assert (g.n, g.m) == (6, 10)

    def test_c2_tree_validation(self):
        with pytest.raises(ValueError, match="root"):
            cons.c2_tree([0, -1, -1])
        with pytest.raises(ValueError, match="parity"):
            cons.c2_tree([-1, 0, 0, 1])  # leaves at depths 1 and 2
        with pytest.raises(ValueError, match="degree"):
            cons.c2_tree([-1, 0, 1, 1])
        with pytest.raises(ValueError, match="tree"):
            cons.c2_tree([-1, 2, 1, 0])

    def test_c2_tree_structure(self):
        g = cons.c2_tree([-1, 0, 0, 1, 1, 2, 2])
        assert g.n == 7
        assert (3, 4, 5, 6) in g.edges
        assert g.m == 7

    def test_figure3(self):
        g = cons.figure3()
        assert (g.n, g.m) == (10, 10)
        assert (4, 5, 6, 7, 8, 9) in g.edges

    def test_toft_sizes(self):
        t1 = cons.toft_graph(1)
        assert (t1.n, t1.m) == (12, 21)
        t2 = cons.toft_graph(2)
        assert (t2.n, t2.m) == (20, 45)
        assert t1.m == t1.n**2 // 16 + t1.n


class TestHajosJoin:
    def test_figure1_both_variants(self):
        for include in (True, False):
            j = cons.figure1_join(include)
            assert (j.graph.n, j.graph.m) == (7, 11)
            assert (j.vstar in j.estar) == include

    def test_join_keeps_operand_ids(self):
        k4 = cons.complete_graph(4)
        j = cons.hajos_join(cons.HajosJoinSpec(k4, k4, 0, 0, 0, 0, False))
        assert j.g1_map == (0, 1, 2, 3)
        assert j.g2_map == (0, 4, 5, 6)

    def test_join_criticality_both_ways(self):
        w5 = cons.odd_wheel(5)
        k4 = cons.complete_graph(4)
        j = cons.hajos_join(cons.HajosJoinSpec(w5, k4, 1, 2, w5.edge_ref((1, 2)), k4.edge_ref((2, 3)), False))
        assert col.is_critical(j.graph, 4).is_critical

    def test_g2_ids_follow_g1_in_order(self):
        """g2's vertices other than the identified or split one keep
        their order after g1's ids, as numbering them by position in
        the list of the rest does."""
        rng = random.Random(77)
        for _ in range(40):
            g1, g2 = cons.odd_wheel(rng.choice([5, 7])), cons.odd_wheel(rng.choice([5, 7, 9]))
            e1, e2 = rng.randrange(g1.m), rng.randrange(g2.m)
            v1, v2 = rng.choice(g1.edge(e1)), rng.choice(g2.edge(e2))
            rest = [u for u in range(g2.n) if u != v2]
            want = [g1.n + rest.index(u) if u != v2 else None for u in range(g2.n)]
            j = cons.hajos_join(cons.HajosJoinSpec(g1, g2, v1, v2, e1, e2, False))
            assert list(j.g2_map) == [v1 if w is None else w for w in want]
            s = {ref: (g1.edge(e1)[0],) for ref in g2.incident(v2)}
            s[g2.incident(v2)[0]] = g1.edge(e1)
            split = cons.split(cons.SplitSpec(g1, e1, g2, v2, s))
            assert list(split.g2_map) == [-1 if w is None else w for w in want]

    def test_invalid_vertex_edge_pairing(self):
        k4 = cons.complete_graph(4)
        with pytest.raises(ValueError, match="v1 must lie"):
            cons.HajosJoinSpec(k4, k4, 3, 0, k4.edge_ref((0, 1)), 0, False)

    def test_mixed_decompose_round_trip(self):
        for include in (True, False):
            j = cons.figure1_join(include)
            estar_ref = j.graph.edge_ref(j.estar)
            dec = cons.hajos_decompose_mixed(j.graph, j.vstar, estar_ref)
            assert lemmas.replay_mixed(dec) == j.graph

    def test_mixed_decompose_rejects_non_separator(self):
        with pytest.raises(ValueError, match="not a mixed separating set"):
            cons.hajos_decompose_mixed(cons.complete_graph(4), 0, 5)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_join_round_trips(self, seed):
        rng = random.Random(seed)
        bases = [cons.odd_wheel(5), cons.complete_graph(4), cons.odd_wheel(7)]
        g1, g2 = rng.choice(bases), rng.choice(bases)
        e1 = rng.randrange(g1.m)
        e2 = rng.randrange(g2.m)
        v1 = rng.choice(g1.edge(e1))
        v2 = rng.choice(g2.edge(e2))
        include = rng.random() < 0.5
        j = cons.hajos_join(cons.HajosJoinSpec(g1, g2, v1, v2, e1, e2, include))
        estar_ref = j.graph.edge_ref(j.estar)
        dec = cons.hajos_decompose_mixed(j.graph, j.vstar, estar_ref)
        assert lemmas.replay_mixed(dec) == j.graph


class TestSplitting:
    def test_split_spec_validation(self):
        g1 = cons.complete_graph(4)
        g2 = cons.complete_graph(4)
        with pytest.raises(ValueError, match="cover exactly"):
            cons.SplitSpec(g1, 0, g2, 0, {0: (0,)})
        full = {ref: (0,) for ref in g2.incident(0)}
        with pytest.raises(ValueError, match="cover the target"):
            cons.SplitSpec(g1, 0, g2, 0, full)

    def test_simple_split_of_k4_into_k4(self):
        # replace vertex 0 of one K4 by the edge {0,1} of another
        g1 = cons.complete_graph(4)
        g2 = cons.complete_graph(4)
        refs = g2.incident(0)
        s = {refs[0]: (0,), refs[1]: (1,), refs[2]: (0, 1)}
        res = cons.split(cons.SplitSpec(g1, g1.edge_ref((0, 1)), g2, 0, s))
        assert res.graph.n == 7
        assert res.g2_map == (-1, 4, 5, 6)

    def test_figure2_g1_from_g2(self):
        assert cons.figure2_g1() == cons.split_vertex(
            cons.figure2_g2(),
            8,
            2,
            {
                cons.figure2_g2().edge_ref(e): (0 if e in {(0, 8), (1, 8), (5, 8)} else 1,)
                for e in [(0, 8), (1, 8), (5, 8), (4, 8), (3, 8), (7, 8)]
            },
        ).graph

    def test_figure2_graphs_are_4_critical(self):
        assert col.is_critical(cons.figure2_g1(), 4).is_critical
        assert col.is_critical(cons.figure2_g2(), 4).is_critical
        assert conn.enumerate_separating_sets(cons.figure2_g1(), 2)

    def test_validate_split_low_k3(self):
        # split edge (1,2) of W5 into the low vertex 0 of a K4
        w5 = cons.odd_wheel(5)
        k4 = cons.complete_graph(4)
        refs = k4.incident(0)
        s = {refs[0]: (1,), refs[1]: (2,), refs[2]: (1, 2)}
        res = lemmas.validate_split_low(
            cons.SplitSpec(w5, w5.edge_ref((1, 2)), k4, 0, s), k=3
        )
        assert col.is_critical(res.graph, 4).is_critical

    def test_validate_split_low_rejects_high_vertex(self):
        w5 = cons.odd_wheel(5)
        refs = w5.incident(5)  # hub: degree 5 > 3
        s = {r: (0,) for r in refs[:-1]} | {refs[-1]: (1,)}
        with pytest.raises(ValueError, match="low vertex"):
            lemmas.validate_split_low(
                cons.SplitSpec(w5, w5.edge_ref((0, 1)), w5, 5, s), k=3
            )

    def test_validate_split_ordinary(self):
        k4 = cons.complete_graph(4)
        refs = k4.incident(0)
        s = {refs[0]: (0,), refs[1]: (1,), refs[2]: (0, 1)}
        report = lemmas.validate_split_ordinary(
            cons.SplitSpec(k4, k4.edge_ref((0, 1)), k4, 0, s), k=3
        )
        if report.theorem_applies:
            assert report.is_critical and report.pair_separates

    def test_general_split_precondition_on_k4(self):
        k4 = cons.complete_graph(4)
        refs = k4.incident(0)
        s = {refs[0]: (0,), refs[1]: (1,), refs[2]: (0, 1)}
        spec = cons.SplitSpec(k4, k4.edge_ref((0, 1)), k4, 0, s)
        assert lemmas.check_general_split_precondition(spec, k=3)


class TestDecompositions:
    def test_vertex_pair_on_figure2_g1(self):
        g = cons.figure2_g1()
        dec = cons.decompose_vertex_pair(g, 3)
        assert dec is not None
        assert col.is_critical(dec.g1_prime, 4).is_critical
        assert col.is_critical(dec.g2_prime, 4).is_critical

    def test_vertex_pair_none_without_separator(self):
        assert cons.decompose_vertex_pair(cons.complete_graph(4), 3) is None

    def test_vertex_pair_rejects_non_critical(self):
        with pytest.raises(ValueError, match="critical"):
            cons.decompose_vertex_pair(cons.cycle(6), 3)

    @pytest.mark.parametrize(
        "call,name",
        [
            (lambda g: cons.decompose_vertex_pair(g, 3), "hypergraph"),
            (lambda g: cons.decompose_edge_cut(g, 3, (0, 1, 2)), "hypergraph"),
            (lambda g: col.low_high_partition(g, 3), "hypergraph"),
            (lambda g: lemmas.is_universal_vertex_bounded(g, 0, 3, 2), "G"),
        ],
        ids=["vertex-pair", "edge-cut", "low-high", "universal-vertex"],
    )
    def test_non_critical_message(self, call, name):
        with pytest.raises(ValueError) as info:
            call(cons.cycle(5))
        assert str(info.value) == f"{name} is not 4-critical: chi is 3, not 4"

    def test_edge_cut_on_w5(self):
        w5 = cons.odd_wheel(5)
        cut = conn.minimal_separating_edge_sets(w5, 3)[0]
        dec = cons.decompose_edge_cut(w5, 3, cut.f)
        assert col.is_critical(dec.g2, 4).is_critical
        if dec.g1 is not None:
            assert col.is_critical(dec.g1, 4).is_critical

    def test_edge_cut_rejects_non_minimal(self):
        w5 = cons.odd_wheel(5)
        with pytest.raises(ValueError):
            cons.decompose_edge_cut(w5, 3, (0, 1, 2, 3))

    def test_vertex_pair_past_the_enumeration_guard(self, monkeypatch):
        # W17 joined to K4 has n = 21; enumerating the W17 side's
        # 3-colorings (3^18) would pass the enumeration guard.  It is a
        # member, so g and both parts certify, and no search runs
        _refuse_searches(monkeypatch)
        g = _wheel_join_k4(17)
        dec = cons.decompose_vertex_pair(g, 3)
        assert (dec.v, dec.w) == (0, 1)
        assert dec.g1_prime == cons.odd_wheel(17)
        assert dec.g2_prime == cons.complete_graph(4)

    def test_edge_cut_past_the_enumeration_guard(self, monkeypatch):
        # every minimal 3-edge cut of W17 joined to K4; the spread side
        # was enumerated before, and 3^17 or more assignments exceeded
        # the enumeration guard at 20 of the 21.  No search runs
        _refuse_searches(monkeypatch)
        g = _wheel_join_k4(17)
        cuts = [c for c in conn.minimal_separating_edge_sets(g, 3) if len(c.f) == 3]
        assert len(cuts) == 21
        for cut in cuts:
            dec = cons.decompose_edge_cut(g, 3, cut.f)
            assert dec.g2.n == len(dec.cut.y) + 1

    def test_relabelled_member_runs_no_search(self, monkeypatch):
        """A relabelled k = 4 join whose pair takes the swapped
        orientation: its parts certify before any criticality check."""
        _refuse_searches(monkeypatch)
        g = relabelled(random_nested_join(random.Random(1), 4, 41, 10**6), random.Random(4))
        dec = cons.decompose_vertex_pair(g, 4)
        assert dec is not None and dec.h1 > dec.h2
        cuts = _k_cuts(g, 4, random.Random(5), 10)
        assert len(cuts) >= 3
        for f in cuts:
            cons.decompose_edge_cut(g, 4, f)

    def test_identify_vertices(self):
        g = Hypergraph.of(4, [(0, 1), (1, 2, 3), (0, 3)])
        merged = cons.identify_vertices(g, 0, 3)
        assert merged.n == 3
        assert (0, 1) in merged.edges


def _refuse_searches(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a coloring search ran")

    monkeypatch.setattr(col, "_colorings", refuse)


def _critical_named_4():
    """The named families that are 4-critical, as acceptance criteria
    08 and 09 decompose them."""
    fams = corpus.named_families()
    return [(name, fams[name]) for name in sorted(fams) if corpus.KNOWN[name].get("critical_k") == 4]


def _count_enumerations(monkeypatch) -> collections.Counter:
    """Counts the coloring searches, and those asked for a second
    coloring: an enumeration, where a decision needs one or none."""
    calls = collections.Counter()
    search = col._colorings

    def counted(*args, **kwargs):
        calls["searches"] += 1
        for i, phi in enumerate(search(*args, **kwargs)):
            calls["enumerations"] += i == 1
            yield phi

    monkeypatch.setattr(col, "_colorings", counted)
    return calls


class TestEnumerationCount:
    """The searches left in the decompositions are the criticality
    checks of the non-members among these inputs and of their parts;
    none asks for a second coloring."""

    def test_edge_cut_enumerates_no_coloring(self, monkeypatch):
        calls = _count_enumerations(monkeypatch)
        exercised = 0
        for name, g in _critical_named_4():
            cuts = [c for c in conn.minimal_separating_edge_sets(g, 3) if len(c.f) == 3]
            for cut in cuts[:12]:
                cons.decompose_edge_cut(g, 3, cut.f)
                exercised += 1
        assert exercised >= 10
        assert calls["searches"] >= exercised and calls["enumerations"] == 0

    def test_vertex_pair_enumerates_no_coloring(self, monkeypatch):
        calls = _count_enumerations(monkeypatch)
        decomposed = sum(cons.decompose_vertex_pair(g, 3) is not None for _, g in _critical_named_4())
        assert decomposed >= 2
        assert calls["searches"] >= 2 * decomposed and calls["enumerations"] == 0


def _wheel_join_k4(rim: int) -> Hypergraph:
    """The Hajos join of W_rim and K4 at vertex 0 and edge (0, 1) of
    each, without v*."""
    w, k4 = cons.odd_wheel(rim), cons.complete_graph(4)
    spec = cons.HajosJoinSpec(w, k4, 0, 0, w.edge_ref((0, 1)), k4.edge_ref((0, 1)), False)
    return cons.hajos_join(spec).graph


def _k_cuts(g: Hypergraph, k: int, rng: random.Random, tries: int) -> list[tuple[int, ...]]:
    """Distinct size-k boundaries of minimum cuts between random vertex
    pairs: minimal separating edge sets of a k-edge-connected g, found
    by flows where testing every edge subset would pass ``CUT_GUARD``."""
    cuts = set()
    for _ in range(tries):
        v, w = rng.sample(range(g.n), 2)
        flow = conn.local_edge_connectivity(g, v, w)
        if flow.value == k:
            cuts.add(g.boundary(flow.cut_side))
    return sorted(cuts)


def _spider(legs: int, length: int) -> Hypergraph:
    """``c2_tree`` with a root and ``legs`` paths of ``length`` vertices."""
    return cons.c2_tree([-1] + [0 if i % length == 0 else i for i in range(legs * length)])


def _decomposed_or_error(decompose, *args):
    try:
        return decompose(*args)
    except ValueError:
        return ValueError


class TestOrientation:
    """Both decompositions take the first orientation whose parts pass
    the criticality they require, which implies the coloring behaviour
    at the separator.  They are pinned to the versions that decided
    that behaviour by enumerating each side's colorings
    (``oracles.reference_decompose_vertex_pair`` and
    ``reference_decompose_edge_cut``): the same decomposition, or
    ValueError from both."""

    @staticmethod
    def _inputs():
        rng = random.Random(2203)
        # the references enumerate every coloring of a side, so k = 4
        # and 5 stay at three and two copies of K_{k+1}
        joins = [
            (k, relabelled(random_nested_join(random.Random(seed), k, n_max, 10**6), rng))
            for k, n_max in ((3, 22), (4, 13), (5, 11)) for seed in range(4)
        ]
        f2, toft, w5, k4 = cons.figure2_g2(), cons.toft_graph(1), cons.odd_wheel(5), cons.complete_graph(4)
        mixed = [
            cons.hajos_join(cons.HajosJoinSpec(a, b, a.edge(ea)[0], b.edge(eb)[-1], ea, eb, include)).graph
            for a, b, ea, eb in ((f2, k4, 0, 2), (k4, f2, 5, 7), (toft, w5, 3, 0), (f2, toft, 1, 9))
            for include in (False, True)
        ]
        joins += [(3, relabelled(g, rng)) for g in mixed]
        joins += [(3, _wheel_join_k4(rim)) for rim in (5, 7, 9, 11)]
        joins += [(3, perturb(rng, random_nested_join(rng, 3, 16, 10**6))) for _ in range(4)]
        small = [cons.cycle(n) for n in (3, 5, 7, 9)] + [_spider(2, 3), _spider(3, 3), _spider(4, 2)]
        joins += [(2, relabelled(g, rng)) for g in small] + [(2, g) for g in small]
        return rng, joins

    def test_vertex_pair_matches_the_reference(self):
        _, inputs = self._inputs()
        seen = collections.Counter()
        for k, g in inputs:
            got = _decomposed_or_error(cons.decompose_vertex_pair, g, k)
            assert got == _decomposed_or_error(oracles.reference_decompose_vertex_pair, g, k), (k, g)
            if isinstance(got, cons.VertexPairDecomposition):
                seen["swapped" if got.h1 > got.h2 else "sorted"] += 1
            else:
                seen[got] += 1
        assert seen["swapped"] and seen["sorted"] and seen[ValueError], seen

    def test_edge_cut_matches_the_reference(self):
        rng, inputs = self._inputs()
        seen = collections.Counter()
        for k, g in inputs:
            for f in _k_cuts(g, k, rng, 2):
                got = _decomposed_or_error(cons.decompose_edge_cut, g, k, f)
                assert got == _decomposed_or_error(oracles.reference_decompose_edge_cut, g, k, f), (k, g, f)
                if got is ValueError:
                    seen[got] += 1
                else:
                    seen["swapped" if got.cut.x != conn.edge_cut_for(g, f).x else "sorted"] += 1
        assert seen["swapped"] and seen["sorted"] and seen[ValueError], seen


def _decomposition_or_message(decompose, g, v, e):
    try:
        return decompose(g, v, e)
    except ValueError as exc:
        return str(exc)


class TestDecomposeMixed:
    """``hajos_decompose_mixed`` finds the sides by one search and builds
    each part once; it is pinned to the decomposition through derived
    values that it replaced (``oracles.reference_decompose_mixed``),
    on every mixed pair and with the same message on other pairs."""

    def _check(self, g, v, e, seen):
        got = _decomposition_or_message(cons.hajos_decompose_mixed, g, v, e)
        assert got == _decomposition_or_message(oracles.reference_decompose_mixed, g, v, e)
        seen[got.spec.include_vstar if isinstance(got, cons.MixedDecomposition) else got] += 1

    def test_matches_reference_on_nested_joins(self):
        rng = random.Random(3)
        seen = collections.Counter()
        for k, n_max in ((3, 30), (4, 29), (5, 31)):
            for include in (True, False):
                for seed in range(2):
                    g = random_nested_join(random.Random(seed), k, n_max, 8, include)
                    pairs = conn.mixed_separating_sets(g)
                    for v, e in pairs:
                        self._check(g, v, e, seen)
                    others = sorted(
                        set(itertools.product(range(g.n), range(g.m))) - set(pairs)
                    )
                    for v, e in rng.sample(others, 25):
                        self._check(g, v, e, seen)
        assert seen[True] >= 20 and seen[False] >= 20, seen
        assert sum(c for key, c in seen.items() if isinstance(key, str)) >= 12 * 25

    def test_matches_reference_on_every_pair_of_perturbed_joins(self):
        seen = collections.Counter()
        graphs = [perturbed_join(random.Random(1000 * k + seed), k)
                  for k in (3, 4, 5) for seed in range(4)]
        # two triangles at vertex 0, and a disconnected pair of edges
        graphs.append(Hypergraph.of(5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)]))
        graphs.append(Hypergraph.of(5, [(0, 1, 2), (3, 4)]))
        for g in graphs:
            for v in range(-1, g.n + 1):
                for e in range(-1, g.m + 1):
                    self._check(g, v, e, seen)
        assert seen[True] and seen[False], seen
        for message in (
            "is not a mixed separating set", "does not meet both sides",
            "half edge already present", "out of range",
        ):
            assert any(message in key for key in seen if isinstance(key, str)), message


def _check_parts_canonical(g, v, e):
    """Each part the decomposition builds without validation is the
    value ``Hypergraph.of`` builds from its edges, it passes the full
    checks, and its e1 or e2 is its half of e*."""
    try:
        dec = cons.hajos_decompose_mixed(g, v, e)
    except ValueError:
        return False
    spec = dec.spec
    for part, half_ref, vstar in ((spec.g1, spec.e1, spec.v1), (spec.g2, spec.e2, spec.v2)):
        assert part == Hypergraph.of(part.n, part.edges)
        Hypergraph(part.n, part.edges)  # raises on a broken invariant
        assert vstar in part.edge(half_ref)
    halves = {dec.g1_old[u] for u in spec.g1.edge(spec.e1)}
    halves |= {dec.g2_old[u] for u in spec.g2.edge(spec.e2)}
    assert halves == set(g.edge(e)) | {v}
    return True


class TestDecomposedPartsAreCanonical:
    """The parts are built with ``Hypergraph._trusted``, skipping the
    sort and the checks of ``Hypergraph.of``; they must be the values
    those would build."""

    @settings(max_examples=60, deadline=None)
    @given(connected_hypergraphs(min_n=3, max_n=7, sizes=(2, 3, 4)))
    def test_hypothesis_inputs(self, g):
        for v in range(g.n):
            for e in range(g.m):
                _check_parts_canonical(g, v, e)

    def test_nested_joins(self):
        built = 0
        for k, n_max in ((3, 30), (4, 29), (5, 31)):
            for include in (True, False):
                for seed in range(4):
                    g = random_nested_join(random.Random(seed), k, n_max, 8, include)
                    for v, e in conn.mixed_separating_sets(g):
                        built += _check_parts_canonical(g, v, e)
        assert built >= 100, built


class TestUniversalVertex:
    def test_k4_vertices_are_universal_at_small_bound(self):
        verdict = lemmas.is_universal_vertex_bounded(cons.complete_graph(4), 0, 3, 2)
        assert verdict.universal_up_to_bound

    def test_figure2_x_is_not_universal(self):
        # vertex 8 of the 9-vertex graph splits into a pair whose
        # 2-colored preset cannot extend (that is the point of the pair)
        verdict = lemmas.is_universal_vertex_bounded(cons.figure2_g2(), 8, 3, 2)
        assert not verdict.universal_up_to_bound
        assert verdict.counterexample is not None
