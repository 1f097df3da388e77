import collections
import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from hyperchrome.hypercore import Hypergraph
from hyperchrome import classifier as cls
from hyperchrome import coloring as col
from hyperchrome import constructions as cons
from hyperchrome import corpus
from hyperchrome import connectivity as conn
from hyperchrome.connectivity import is_connected

from conftest import (
    hyperforests,
    hypergraphs,
    perturb,
    random_nested_join,
    stars_and_c5,
    stars_and_grotzsch,
)
import lemmas
import oracles


class TestFindColoring:
    def test_triangle_needs_three(self):
        k3 = cons.complete_graph(3)
        assert col.find_k_coloring(k3, 2) is None
        phi = col.find_k_coloring(k3, 3)
        assert phi is not None and phi.is_valid_for(k3)

    def test_hyperedge_is_two_colorable(self):
        g = Hypergraph.of(4, [(0, 1, 2, 3)])
        phi = col.find_k_coloring(g, 2)
        assert phi is not None and phi.is_valid_for(g)

    def test_preset_respected(self):
        g = cons.cycle(4)
        phi = col.find_k_coloring(g, 2, preset={0: 2, 2: 2})
        assert phi is not None and phi.colors[0] == 2 and phi.colors[2] == 2

    def test_unsatisfiable_preset(self):
        g = Hypergraph.of(2, [(0, 1)])
        assert col.find_k_coloring(g, 2, preset={0: 1, 1: 1}) is None

    def test_preset_out_of_palette(self):
        with pytest.raises(ValueError):
            col.find_k_coloring(Hypergraph.of(2, [(0, 1)]), 2, preset={0: 3})

    def test_deterministic(self):
        g = cons.odd_wheel(5)
        assert col.find_k_coloring(g, 4) == col.find_k_coloring(g, 4)

    @given(hypergraphs(max_n=10, sizes=(2, 3, 4)))
    @settings(max_examples=150, deadline=None)
    def test_vertex_order_is_descending_degree_then_id(self, g):
        orders = []
        search = col._colorings

        def recorded(g, k, order, *args, **kwargs):
            orders.append(list(order))
            return search(g, k, order, *args, **kwargs)

        with mock.patch.object(col, "_colorings", recorded):
            col.find_k_coloring(g, 3)
        deg = [len(refs) for refs in g.incidence]
        assert orders == ([sorted(range(g.n), key=lambda v: (-deg[v], v))] if g.n else [])


class TestChromaticNumber:
    @pytest.mark.parametrize(
        "g,chi",
        [
            (Hypergraph.of(0), 0),
            (Hypergraph.of(3), 1),
            (Hypergraph.of(4, [(0, 1, 2, 3)]), 2),
            (cons.complete_graph(4), 4),
            (cons.cycle(5), 3),
            (cons.cycle(6), 2),
            (cons.odd_wheel(5), 4),
            (cons.hyperwheel(4), 3),
        ],
    )
    def test_known_values(self, g, chi):
        assert col.chromatic_number(g) == chi

    def test_guard(self, monkeypatch):
        """The edges (0, 1, 2), (0, 1, 3) and (2, 3) are 2-colorable, but
        the propagation pass conflicts: 0 and 1 take color 1 and force
        both 2 and 3 to color 2.  So the 2-coloring is searched, and takes
        4 decisions: the cap passes it, and only a cap below that refuses
        it.  C30 is 2-colored by one pass, which no cap refuses."""
        g = Hypergraph.of(4, [(0, 1, 2), (0, 1, 3), (2, 3)])
        assert col.chromatic_number(g) == 2
        monkeypatch.setattr(col, "SEARCH_GUARD", 4)
        assert col.chromatic_number(g) == 2
        monkeypatch.setattr(col, "SEARCH_GUARD", 3)
        with pytest.raises(col.GuardExceeded, match="passed 3 decisions"):
            col.chromatic_number(g)
        monkeypatch.setattr(col, "SEARCH_GUARD", 0)
        with pytest.raises(col.GuardExceeded):
            col.chromatic_number(g)
        assert col.chromatic_number(g, force=True) == 2
        assert col.chromatic_number(cons.cycle(30)) == 2

    @pytest.mark.parametrize("n", [25, 30, 3000])
    def test_edgeless_is_one_past_the_guard(self, n):
        assert col.chromatic_number(Hypergraph.of(n)) == 1

    @given(hypergraphs(max_n=5))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, g):
        assert col.chromatic_number(g) == oracles.brute_chi(g)

    @given(hypergraphs(min_n=1, max_n=6))
    @settings(max_examples=40, deadline=None)
    def test_block_decomposition_agrees(self, g):
        assert oracles.chromatic_number_by_blocks(g) == col.chromatic_number(g)


def _disjoint_union(parts):
    edges, n = [], 0
    for part in parts:
        edges += [tuple(n + v for v in e) for e in part.edges]
        n += part.n
    return Hypergraph.of(n, edges)


def _incidence_graph_is_forest(h):
    """Whether the vertex-edge incidence graph of h has no cycle."""
    root = list(range(h.n + h.m))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for ref, e in enumerate(h.edges):
        for v in e:
            a, b = find(v), find(h.n + ref)
            if a == b:
                return False
            root[a] = b
    return True


class TestChiPerComponent:
    """chi is the max over the components, and once two or more have
    edges, each that is no hyperforest is searched on its own."""

    @given(st.lists(hypergraphs(min_n=1, max_n=5, sizes=(2, 3)), min_size=2, max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_matches_the_whole_graph_search(self, parts):
        g = _disjoint_union(parts)
        chi = oracles.reference_chromatic_number(g)
        assert col.chromatic_number(g) == chi
        assert cls.classify(g).chi == chi
        whole = [g.induced(comp).graph for comp in conn.components(g)]
        searched = [h for h in whole if not _incidence_graph_is_forest(h)]
        assert list(col._component_graphs(g, conn.components(g))) == searched

    def test_parts_are_built_in_one_linear_pass(self):
        """500 disjoint K2, 400 disjoint C4 and a C5: the whole graph's
        2-coloring pass fails, so the components are taken one by one,
        and the cycles, which are no hyperforests, are built and
        searched.  That reads each edge a bounded number of times, where
        one subgraph per component reads every edge once per component."""
        reads = [0]

        class CountingEdges(tuple):
            def __getitem__(self, i):
                reads[0] += 1
                return tuple.__getitem__(self, i)

            def __iter__(self):
                for e in tuple.__iter__(self):
                    reads[0] += 1
                    yield e

        plain = _disjoint_union(
            [cons.complete_graph(2)] * 500 + [cons.cycle(4)] * 400 + [cons.cycle(5)]
        )
        comps = conn.components(plain)
        g = Hypergraph._trusted(plain.n, CountingEdges(plain.edges))
        parts = list(col._component_graphs(g, comps))
        assert reads[0] <= 3 * (plain.m + sum(map(len, plain.edges)))
        assert parts == [cons.cycle(4)] * 400 + [cons.cycle(5)]
        assert col.chromatic_number(plain) == 3

    def test_two_colorable_components_take_one_pass(self, monkeypatch):
        """With k = 2, one 2-coloring pass over the whole graph answers
        chi = 2 before any component is built or searched."""
        g = _disjoint_union([cons.cycle(4)] * 50 + [Hypergraph.of(5, [(0, 1, 2), (2, 3, 4)])])
        monkeypatch.setattr(col, "find_k_coloring", None)
        monkeypatch.setattr(col, "_component_graphs", None)
        assert col.chromatic_number(g) == 2

    def test_stars_and_grotzsch(self, monkeypatch):
        """12 disjoint K1,7 and the Grötzsch graph: the whole graph's
        3-coloring search passed the cap of 10^6 decisions; the
        Grötzsch graph's alone takes fewer than 100.  classify's
        4-coloring of the whole graph takes more."""
        g = stars_and_grotzsch(12)
        assert g.n == 107
        assert cls.classify(g).chi == 4
        monkeypatch.setattr(col, "SEARCH_GUARD", 100)
        assert col.chromatic_number(g) == 4

    @pytest.mark.parametrize(
        "g",
        [stars_and_grotzsch(0), _disjoint_union([stars_and_grotzsch(0), Hypergraph.of(3)])],
        ids=["connected", "with-isolated-vertices"],
    )
    def test_one_component_with_edges_searches_the_whole_graph(self, monkeypatch, g):
        searched = []
        real = col.find_k_coloring

        def spy(h, k, *args, **kwargs):
            searched.append(h)
            return real(h, k, *args, **kwargs)

        monkeypatch.setattr(col, "find_k_coloring", spy)
        assert col.chromatic_number(g) == 4
        assert searched and all(h is g for h in searched)


def _enumerate(g, k, limit=None):
    """The first ``limit`` k-colorings of g (all when None) that the
    search yields over the vertex order 0..n-1 with no symmetry
    breaking: lexicographic order."""
    return list(itertools.islice(col._colorings(g, k, range(g.n), {}, False), limit))


class TestEnumeration:
    def test_triangle_count(self):
        assert len(_enumerate(cons.complete_graph(3), 3)) == 6

    def test_counts_match_oracle(self):
        g = Hypergraph.of(4, [(0, 1, 2), (1, 2, 3)])
        for k in (2, 3):
            assert len(_enumerate(g, k)) == oracles.brute_count_colorings(g, k)

    def test_limit(self):
        out = _enumerate(cons.cycle(5), 3, 4)
        assert len(out) == 4 and out == _enumerate(cons.cycle(5), 3)[:4]

    def test_lexicographic_order(self):
        out = _enumerate(Hypergraph.of(2, [(0, 1)]), 2)
        assert [c.colors for c in out] == [(1, 2), (2, 1)]


class TestCriticality:
    def test_k4_is_4_critical(self):
        assert col.is_critical(cons.complete_graph(4), 4).is_critical

    def test_odd_cycle_is_3_critical(self):
        assert col.is_critical(cons.cycle(7), 3).is_critical

    def test_k4_plus_pendant_is_not(self):
        g = Hypergraph.of(5, list(cons.complete_graph(4).edges) + [(3, 4)])
        report = col.is_critical(g, 4)
        assert not report.is_critical and report.failing_edge is not None

    def test_disconnected_verdict(self):
        g = Hypergraph.of(4, [(0, 1), (2, 3)])
        report = col.is_critical(g, 2)
        assert not report.is_critical and report.reason == "not connected"

    def test_wrong_target(self):
        report = col.is_critical(cons.complete_graph(4), 3)
        assert not report.is_critical and "chi is 4" in report.reason

    def test_single_edge_is_2_critical(self):
        assert col.is_critical(Hypergraph.of(3, [(0, 1, 2)]), 2).is_critical


class TestLowHighStructure:
    def test_w5_partition(self):
        low, high = col.low_high_partition(cons.odd_wheel(5), 3)
        assert low == (0, 1, 2, 3, 4) and high == (5,)

    def test_k4_all_low(self):
        low, high = col.low_high_partition(cons.complete_graph(4), 3)
        assert low == (0, 1, 2, 3) and high == ()

    def test_rejects_non_critical(self):
        with pytest.raises(ValueError):
            col.low_high_partition(cons.cycle(6), 2)

    def test_low_degree_past_the_criticality_check_is_internal(self, monkeypatch):
        """A (k+1)-critical input has minimum degree at least k, so a
        vertex below it once ``require_critical`` has passed is a bug."""
        monkeypatch.setattr(col, "require_critical", lambda *args, **kwargs: None)
        g = Hypergraph.of(5, list(cons.complete_graph(4).edges) + [(3, 4)])
        with pytest.raises(conn.InternalError, match="vertex 4 of degree 1 < 3"):
            col.low_high_partition(g, 3)

    def test_gallai_lemma_on_w5(self):
        report = col.verify_gallai_lemma(cons.odd_wheel(5), 3)
        assert report.all_ok
        assert report.high == (5,)

    def test_gallai_lemma_on_hyperwheel(self):
        report = col.verify_gallai_lemma(cons.hyperwheel(4), 2)
        assert report.all_ok

    def test_gallai_forest_classification(self):
        g = Hypergraph.of(6, [(0, 1), (1, 2), (0, 2), (2, 3, 4), (4, 5)])
        ok, kinds = col.is_gallai_forest(g)
        assert ok and sorted(kinds) == ["complete", "single_edge", "single_edge"]

    def test_one_high_vertex_lemma(self):
        assert lemmas.verify_one_high_vertex_lemma(cons.odd_wheel(5), 3).exactly_one
        assert lemmas.verify_one_high_vertex_lemma(cons.hyperwheel(4), 2).exactly_one


@given(hypergraphs(min_n=1, max_n=6, sizes=(2, 3, 4)))
@settings(max_examples=60, deadline=None)
def test_found_colorings_are_always_valid(g):
    k = col.chromatic_number(g)
    phi = col.find_k_coloring(g, k)
    assert phi is not None and phi.is_valid_for(g)
    if k > 1:
        assert col.find_k_coloring(g, k - 1) is None


class TestPinnedToRecursiveSearch:
    """The stack-based search walks the same tree as the recursive one
    it replaced (``oracles.reference_*``), so it returns the same
    colorings in the same order."""

    @given(hypergraphs(max_n=7, sizes=(2, 3, 4)), st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_find_matches_reference(self, g, k):
        assert col.find_k_coloring(g, k) == oracles.reference_find_k_coloring(g, k)

    @given(hypergraphs(min_n=1, max_n=7, sizes=(2, 3, 4)), st.integers(1, 4), st.data())
    @settings(max_examples=150, deadline=None)
    def test_find_with_preset_matches_reference(self, g, k, data):
        preset = data.draw(
            st.dictionaries(st.integers(0, g.n - 1), st.integers(1, k), max_size=3)
        )
        assert col.find_k_coloring(g, k, preset) == oracles.reference_find_k_coloring(
            g, k, preset
        )

    @given(hypergraphs(max_n=7, sizes=(2, 3, 4)), st.integers(1, 3), st.integers(1, 40))
    @settings(max_examples=100, deadline=None)
    def test_enumeration_matches_reference(self, g, k, limit):
        assert _enumerate(g, k, limit) == oracles.reference_enumerate_k_colorings(
            g, k, limit=limit
        )

    def test_seeded_random_instances(self):
        rng = random.Random(2024)
        for _ in range(200):
            g = corpus.random_hypergraph(rng, 10)
            for k in (2, 3, 4):
                assert col.find_k_coloring(g, k) == oracles.reference_find_k_coloring(g, k)
            preset = {v: rng.randint(1, 3) for v in rng.sample(range(g.n), min(g.n, 2))}
            assert col.find_k_coloring(g, 3, preset) == oracles.reference_find_k_coloring(
                g, 3, preset
            )
            limit = rng.randint(1, 30)
            assert _enumerate(g, 3, limit) == oracles.reference_enumerate_k_colorings(
                g, 3, limit=limit
            )


def _path(n):
    return Hypergraph.of(n, [(i, i + 1) for i in range(n - 1)])


@pytest.mark.usefixtures("default_recursion_limit")
class TestDeepInputs:
    """Inputs far deeper than the default recursion limit."""

    @pytest.mark.parametrize(
        "g",
        [
            _path(3000),
            cons.cycle(1500),
            Hypergraph.of(1200, [((v - 1) // 2, v) for v in range(1, 1200)]),
            Hypergraph.of(3001, [(i, i + 1, i + 2) for i in range(0, 2999, 2)]),
        ],
        ids=["path3000", "cycle1500", "binary-tree1200", "hyperpath3001"],
    )
    def test_two_coloring(self, g):
        phi = col.find_k_coloring(g, 2)
        assert phi is not None and phi.is_valid_for(g)

    def test_enumeration(self):
        g = _path(3000)
        [phi] = _enumerate(g, 2, 1)
        assert phi.is_valid_for(g)


def _degree_order(g, skip=None):
    """find_k_coloring's vertex order for g, or for g minus edge skip."""
    degree = [len(refs) for refs in g.incidence]
    if skip is not None:
        for v in g.edges[skip]:
            degree[v] -= 1
    return sorted(range(g.n), key=lambda v: (-degree[v], v))


def _pinned_search(g, k, order, preset, symmetric, limit):
    """The first ``limit`` colorings from the forward-checking search
    and from the stack search it replaced, which must agree, and the
    decisions against the nodes each took to get there."""
    search = col._Search(g, k)
    got = list(itertools.islice(search.colorings(order, preset, symmetric), limit))
    nodes = [0]
    want = list(
        itertools.islice(
            oracles.reference_stack_colorings(g, k, order, preset, symmetric, nodes), limit
        )
    )
    assert got == want
    return search.decisions, nodes[0]


class TestForwardChecking:
    """Propagation cuts only branches that hold no coloring, so the
    search yields what the stack search without it yields, in the same
    order, and never tries more colors than that search assigns."""

    @given(hypergraphs(max_n=7, sizes=(2, 3, 4)), st.integers(1, 4), st.integers(1, 30))
    @settings(max_examples=150, deadline=None)
    def test_same_colorings_no_more_decisions(self, g, k, limit):
        for order, symmetric in ((_degree_order(g), True), (range(g.n), False)):
            decisions, nodes = _pinned_search(g, k, order, {}, symmetric, limit)
            assert decisions <= nodes

    @given(hypergraphs(min_n=1, max_n=7, sizes=(2, 3, 4)), st.integers(1, 4), st.data())
    @settings(max_examples=150, deadline=None)
    def test_presets(self, g, k, data):
        preset = data.draw(
            st.dictionaries(st.integers(0, g.n - 1), st.integers(1, k), max_size=3)
        )
        decisions, nodes = _pinned_search(g, k, _degree_order(g), preset, False, 20)
        assert decisions <= nodes

    @given(hypergraphs(min_n=2, max_n=7, sizes=(2, 3, 4)), st.integers(1, 4), st.data())
    @settings(max_examples=150, deadline=None)
    def test_skip_matches_deleted_edge(self, g, k, data):
        if not g.m:
            return
        ref = data.draw(st.integers(0, g.m - 1))
        rest = g.delete_edge(ref)
        order = _degree_order(g, skip=ref)
        assert order == _degree_order(rest)
        first = next(col._colorings(g, k, order, {}, True, skip=ref), None)
        assert first == col.find_k_coloring(rest, k)
        assert first == oracles.reference_find_k_coloring(rest, k)
        preset = data.draw(
            st.dictionaries(st.integers(0, g.n - 1), st.integers(1, k), max_size=2)
        )
        assert next(
            col._colorings(g, k, order, preset, not preset, skip=ref), None
        ) == oracles.reference_find_k_coloring(rest, k, preset)
        assert list(
            itertools.islice(col._colorings(g, k, range(g.n), {}, False, skip=ref), 25)
        ) == oracles.reference_enumerate_k_colorings(rest, k, limit=25)

    def test_seeded_random_instances(self):
        rng = random.Random(8)
        for _ in range(200):
            g = corpus.random_hypergraph(rng, 10)
            for k in (1, 2, 3, 4):
                decisions, nodes = _pinned_search(g, k, _degree_order(g), {}, True, 1)
                assert decisions <= nodes
                decisions, nodes = _pinned_search(g, k, range(g.n), {}, False, 30)
                assert decisions <= nodes
            preset = {v: rng.randint(1, 3) for v in rng.sample(range(g.n), min(g.n, 2))}
            decisions, nodes = _pinned_search(g, 3, _degree_order(g), preset, False, 5)
            assert decisions <= nodes
            if g.m:
                ref = rng.randrange(g.m)
                rest = g.delete_edge(ref)
                for k in (2, 3):
                    assert next(
                        col._colorings(g, k, _degree_order(g, ref), {}, True, skip=ref), None
                    ) == col.find_k_coloring(rest, k)
                    if k == 3:
                        assert next(
                            col._colorings(g, k, _degree_order(g, ref), preset, False, skip=ref),
                            None,
                        ) == col.find_k_coloring(rest, k, preset)
                    assert list(
                        itertools.islice(
                            col._colorings(g, k, range(g.n), {}, False, skip=ref), 30
                        )
                    ) == _enumerate(rest, k, 30)

    @pytest.mark.parametrize(
        "g,k",
        [(cons.toft_graph(p), k) for p in (1, 2, 3) for k in (3, 4)]
        + [(cons.kc(n, p), n + 2) for n in (1, 2, 3) for p in (1, 2)]
        + [(cons.odd_wheel(rim), k) for rim in (5, 9, 13) for k in (3, 4)]
        + [(cons.complete_graph(n), n - 1) for n in (4, 6, 8)],
    )
    def test_named_families(self, g, k):
        decisions, nodes = _pinned_search(g, k, _degree_order(g), {}, True, 1)
        assert decisions <= nodes

    def test_toft3_three_coloring(self):
        g = cons.toft_graph(3)
        assert _pinned_search(g, 3, _degree_order(g), {}, True, 1) == (1676, 7958)


def _critical_by_deletion(g, k_plus_1):
    """is_critical's report, testing each G - e as a derived value."""
    if not is_connected(g):
        return col.CriticalityReport(False, -1, reason="not connected")
    chi = col.chromatic_number(g, force=True)
    if chi != k_plus_1:
        return col.CriticalityReport(False, chi, reason=f"chi is {chi}, not {k_plus_1}")
    if k_plus_1 == 1:
        return col.CriticalityReport(True, chi)
    for ref in range(g.m):
        if col.find_k_coloring(g.delete_edge(ref), k_plus_1 - 1) is None:
            return col.CriticalityReport(
                False, chi, failing_edge=ref, reason="edge deletion keeps chi"
            )
    return col.CriticalityReport(True, chi)


def _critical_inputs():
    w7 = cons.odd_wheel(7)
    k4 = cons.complete_graph(4)
    out = [cons.toft_graph(p) for p in (1, 2, 3)]
    out += [cons.kc(n, p) for n in (1, 2, 3) for p in (1, 2)]
    out += [cons.odd_wheel(rim) for rim in (5, 7, 9, 11)]
    out += [cons.complete_graph(n) for n in (1, 2, 3, 5)]
    rng = random.Random(5)
    out += [random_nested_join(rng, k, 14, 3) for k in (3, 4, 5) for _ in range(4)]
    out += [
        Hypergraph.of(5, list(k4.edges) + [(3, 4)]),  # pendant edge
        w7.delete_edge(0),
        Hypergraph.of(w7.n, list(w7.edges) + [(0, 2)]),  # chord
        cons.cycle(6),
        Hypergraph.of(4, [(0, 1), (2, 3)]),
        Hypergraph.of(4, [(0, 1, 2), (1, 2, 3), (0, 3)]),
    ]
    out += [corpus.random_hypergraph(rng, 8) for _ in range(30)]
    return out


def _perturbations():
    """Inputs one step from a critical one, none of them critical: a
    pendant edge, an extra edge, or a copy of an edge grown by one
    vertex.  Deleting the new edge keeps chi, but an earlier edge may
    be the first to fail."""
    rng = random.Random(9)
    bases = [cons.toft_graph(1), cons.toft_graph(2), cons.kc(1, 1), cons.kc(2, 1)]
    bases += [cons.odd_wheel(rim) for rim in (5, 7, 9)]
    bases += [cons.complete_graph(n) for n in (4, 5, 6)]
    bases += [random_nested_join(rng, k, 14, 3) for k in (3, 4) for _ in range(2)]
    out = []
    for g in bases:
        edges = list(g.edges)
        out.append(Hypergraph.of(g.n + 1, edges + [(rng.randrange(g.n), g.n)]))
        out.append(Hypergraph.of(g.n + 2, edges + [(rng.randrange(g.n), g.n, g.n + 1)]))
        for size in (2, 3):
            new = [e for e in itertools.combinations(range(g.n), size) if e not in g.edges]
            if new:
                out.append(Hypergraph.of(g.n, edges + [rng.choice(new)]))
        for _ in range(2):
            e = rng.choice(edges)
            w = rng.choice([v for v in range(g.n) if v not in e])
            out.append(Hypergraph.of(g.n, edges + [e + (w,)]))
    return out


class TestCriticalityPinned:
    """is_critical searches G - e, on G with e skipped, only for edges no
    coloring derived by the witness walk covers; its reports equal those
    of the test on each derived G - e."""

    @pytest.mark.parametrize("g", _critical_inputs())
    def test_reports_match_deletion(self, g):
        chi = col.chromatic_number(g, force=True) if g.n else 0
        for k_plus_1 in {max(1, chi - 1), max(1, chi), chi + 1}:
            assert col.is_critical(g, k_plus_1, force=True) == _critical_by_deletion(
                g, k_plus_1
            )

    @pytest.mark.parametrize("g", _perturbations())
    def test_perturbations_match_deletion(self, g):
        chi = col.chromatic_number(g, force=True)
        for k_plus_1 in (chi - 1, chi, chi + 1):
            assert col.is_critical(g, k_plus_1, force=True) == _critical_by_deletion(
                g, k_plus_1
            )

    def test_perturbations_fail_past_the_first_edge(self):
        reports = [
            col.is_critical(g, col.chromatic_number(g, force=True)) for g in _perturbations()
        ]
        assert len(reports) >= 60
        assert all(not r.is_critical and r.failing_edge is not None for r in reports)
        assert 2 * sum(r.failing_edge != 0 for r in reports) >= len(reports)

    def test_inputs_cover_each_verdict(self):
        reports = [
            col.is_critical(g, col.chromatic_number(g, force=True), force=True)
            for g in _critical_inputs()
            if g.n
        ]
        assert sum(r.is_critical for r in reports) >= 20
        assert sum(r.failing_edge is not None for r in reports) >= 10
        assert sum(r.reason == "not connected" for r in reports) >= 2

    def test_instance_stats_proves_chi_once(self, monkeypatch):
        """One decision of the classifier per instance, and no separate
        chi or criticality call."""
        calls = collections.Counter()

        def count(owner, name):
            real = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        for owner, name in [(cls, "_decide"), (col, "chromatic_number"), (col, "is_critical")]:
            count(owner, name)
        rng = random.Random(3)
        graphs = list(corpus.named_families().values())
        graphs += [corpus.random_hypergraph(rng, 8) for _ in range(20)]
        for g in graphs:
            calls.clear()
            stats = corpus.instance_stats(g)
            assert calls == {"_decide": 1}
            chi = stats["chi"]
            if chi >= 1:
                report = oracles.reference_is_critical(g, chi)
                assert stats["critical_k"] == (chi if report.is_critical else None)


@pytest.mark.usefixtures("default_recursion_limit")
@pytest.mark.parametrize("n", [600, 800, 3000])
def test_random_recursive_tree_two_coloring(n):
    """Vertex v hangs on a uniform earlier vertex; propagation colors
    the whole tree from its first vertex."""
    rng = random.Random(n)
    g = Hypergraph.of(n, [(rng.randrange(v), v) for v in range(1, n)])
    search = col._Search(g, 2)
    phi = next(search.colorings(_degree_order(g), {}, True))
    assert phi.is_valid_for(g) and phi == col.find_k_coloring(g, 2)
    assert search.decisions == 1


class TestTwoColoringOfGraphs:
    """``find_k_coloring(g, 2)`` with no preset starts with one
    propagation pass.  Wherever it answers, its coloring is the search's
    first; on an ordinary graph its None is the answer too, so neither a
    graph nor a hyperforest builds a search, and a hypergraph on which
    the pass conflicts is searched as before."""

    @staticmethod
    def _check(g, conflict=None):
        order = _degree_order(g)
        want = next(col._Search(g, 2).colorings(order, {}, True, force=True), None)
        passed = col._two_coloring(g, order)
        if conflict is not None:
            assert (passed is None) == conflict
        if passed is not None or g.is_graph():
            # the pass answers: its coloring, or on a graph its None
            assert passed == want
            assert (passed is None) == (oracles.reference_find_k_coloring(g, 2) is None)
            with mock.patch.object(col, "_Search", side_effect=AssertionError("a search was built")):
                assert col.find_k_coloring(g, 2, _force=False) == want
        else:  # a hypergraph on which the pass conflicts is searched
            assert col.find_k_coloring(g, 2, _force=False) == want

    @given(hypergraphs(min_n=1, max_n=10, sizes=(2, 3, 4)))
    @settings(max_examples=300, deadline=None)
    def test_pinned_to_the_search(self, g):
        self._check(g)

    @given(hyperforests(max_n=12))
    @settings(max_examples=200, deadline=None)
    def test_hyperforests_are_never_searched(self, g):
        self._check(g, conflict=False)

    @pytest.mark.parametrize(
        "g,conflict",
        [
            (Hypergraph.of(5), False),
            (Hypergraph.of(9, list(cons.cycle(4).edges) + [(4, 5), (4, 8), (5, 6), (6, 7), (7, 8)]),
             True),
            (Hypergraph.of(9, list(cons.cycle(5).edges) + [(5, 6), (5, 8), (6, 7), (7, 8)]), True),
            (Hypergraph.of(8, [(1, 2), (2, 3), (5, 6)]), False),
            (stars_and_c5(3), True),
            (cons.cycle(30), False),
            (cons.cycle(31), True),
            (Hypergraph.of(30, [(i, i + 1) for i in range(29)] + [(0, 15, 29)]), False),
            (Hypergraph.of(4, [(0, 1, 2), (0, 1, 3), (2, 3)]), True),
            (Hypergraph.of(301, [(i, i + 1, i + 2) for i in range(0, 299, 2)]), False),
        ],
        ids=["edgeless", "c4-then-c5", "c5-then-c4", "isolated-vertices", "3-stars-and-c5",
             "c30", "c31", "c30-widened", "conflict-then-colorable", "hyperpath301"],
    )
    def test_components_and_cycles(self, g, conflict):
        self._check(g, conflict)

    @pytest.mark.usefixtures("default_recursion_limit")
    def test_hyperpath_of_3009_builds_no_search(self):
        g = Hypergraph.of(3009, [(i, i + 1, i + 2) for i in range(0, 3007, 2)])
        want = next(col._Search(g, 2).colorings(_degree_order(g), {}, True))
        with mock.patch.object(col, "_Search", side_effect=AssertionError("a search was built")):
            assert col.find_k_coloring(g, 2, _force=False) == want

    def test_seeded_random_hypergraphs(self):
        """Hypergraphs of 2- to 4-vertex edges: the pass answers most,
        and the search answers some of the rest both ways."""
        rng = random.Random(2029)
        answered = searched_yes = searched_no = 0
        for _ in range(400):
            n = rng.randint(2, 12)
            g = Hypergraph.of(n, {tuple(sorted(rng.sample(range(n), min(n, rng.choice((2, 3, 4))))))
                                  for _ in range(rng.randint(0, 2 * n))})
            self._check(g)
            phi = col._two_coloring(g, _degree_order(g))
            answered += phi is not None
            if phi is None and not g.is_graph():
                found = col.find_k_coloring(g, 2) is not None
                searched_yes += found
                searched_no += not found
        assert answered >= 300 and searched_yes >= 10 and searched_no >= 20, (
            answered, searched_yes, searched_no)

    def test_stars_and_c5_need_no_backtracking(self, monkeypatch):
        """22 disjoint K1,3 and a C5 (n = 93): the search tried every
        coloring of the stars before the C5 failed, so ``color -k 2``
        ran for 27 s and ``chi`` passed the cap after 3 s.  Under a cap
        of 0 the 2-coloring still answers.  ``chromatic_number`` then
        searches for a 3-coloring, which makes a decision, while
        ``chi_lambda_critical`` has lambda = 2 to bound chi at 3."""
        g = stars_and_c5(22)
        assert col.chromatic_number(g) == 3
        monkeypatch.setattr(col, "SEARCH_GUARD", 0)
        assert col.find_k_coloring(g, 2, _force=False) is None
        assert col.chi_lambda_critical(g) == (3, 2, False)
        with pytest.raises(col.GuardExceeded, match="the 3-coloring search"):
            col.chromatic_number(g)


def _monochromatic(g, colors):
    return [ref for ref, e in enumerate(g.edges) if len({colors[v] for v in e}) == 1]


def _walk_every_edge(g, k):
    """Walk from the first k-coloring of each G - e in which e is
    monochromatic, and check each coloring the walk derives: a valid
    k-coloring of G - f, f its only monochromatic edge, each f yielded
    once and marked; ``colors`` comes back as it went in.  Returns the
    number of colorings derived."""
    derived = 0
    for ref in range(g.m):
        phi = next(col._colorings(g, k, _degree_order(g, ref), {}, True, skip=ref), None)
        if phi is None:
            continue
        assert _monochromatic(g, phi.colors) == [ref]
        colors = list(phi.colors)
        witnessed = [False] * g.m
        witnessed[ref] = True
        yielded = []
        for f in col._witnesses(g, k, colors, ref, witnessed):
            assert witnessed[f] and f not in yielded and f != ref
            rest = g.delete_edge(f)
            assert col.Coloring(tuple(colors), k).is_valid_for(rest)
            assert _monochromatic(g, colors) == [f]
            yielded.append(f)
        assert colors == list(phi.colors)
        assert sum(witnessed) == len(yielded) + 1
        derived += len(yielded)
    return derived


def _walk_inputs():
    rng = random.Random(12)
    out = [cons.toft_graph(p) for p in (1, 2, 3)]
    out += [cons.kc(n, p) for n in (1, 2, 3) for p in (1, 2)]
    out += [cons.odd_wheel(rim) for rim in (5, 7, 9, 11)]
    out += [cons.complete_graph(n) for n in (3, 4, 5, 6, 7)]
    out += [random_nested_join(rng, k, 14, 3) for k in (3, 4, 5) for _ in range(3)]
    return out


class TestWitnessWalk:
    """A k-coloring of G - e whose only monochromatic edge is e, with one
    vertex of e moved to another color, is a k-coloring of G - f when f
    is the only edge through that vertex left monochromatic."""

    @pytest.mark.parametrize("g", _walk_inputs())
    def test_derived_colorings_are_witnesses(self, g):
        k = col.chromatic_number(g, force=True) - 1
        assert _walk_every_edge(g, k) > 0

    def test_seeded_random_instances(self):
        rng = random.Random(21)
        derived = 0
        for _ in range(200):
            g = corpus.random_hypergraph(rng, 10)
            chi = col.chromatic_number(g, force=True) if g.n else 0
            if chi >= 2:
                derived += _walk_every_edge(g, chi - 1)
        assert derived >= 50

    @staticmethod
    def _searches(monkeypatch, g):
        """The G - e searches of the per-edge test on a critical g."""
        chi = col.chromatic_number(g, force=True)
        skipped = []
        real = col._colorings

        def counted(*args, skip=None, **kw):
            if skip is not None:
                skipped.append(skip)
            return real(*args, skip=skip, **kw)

        monkeypatch.setattr(col, "_colorings", counted)
        assert next(col._failing_edges(g, chi - 1), None) is None
        return skipped

    @pytest.mark.parametrize(
        "g",
        [cons.odd_wheel(rim) for rim in range(5, 20, 2)]
        + [cons.complete_graph(n) for n in range(4, 10)]
        + [cons.kc(n, p) for n in (1, 2, 3, 4) for p in (1, 2)],
    )
    def test_one_search_per_call(self, monkeypatch, g):
        assert self._searches(monkeypatch, g) == [0]

    @pytest.mark.parametrize("p,searches", [(1, 5), (2, 17), (3, 37)])
    def test_toft_search_counts(self, monkeypatch, p, searches):
        skipped = self._searches(monkeypatch, cons.toft_graph(p))
        assert len(skipped) == searches and skipped == sorted(set(skipped))

    @pytest.mark.usefixtures("default_recursion_limit")
    def test_long_odd_cycle_needs_one_search(self, monkeypatch):
        assert self._searches(monkeypatch, cons.cycle(1001)) == [0]


def _theorem_inputs():
    """Seeded nested joins for k = 3, 4 and 5, one perturbation of each,
    and the corpus named families."""
    out = []
    for k, n_max in ((3, 20), (4, 17), (5, 16)):
        for seed in range(8):
            rng = random.Random(100 * k + seed)
            g = random_nested_join(rng, k, n_max, rng.randint(0, 4))
            out += [g, perturb(rng, g)]
    return out + list(corpus.named_families().values())


class TestChiAndCriticalityFromTheTheorem:
    """A block certified at lambda >= 3 gives chi = lambda + 1 with no
    search, and g is critical when that block is all of g; pinned to the
    search-only references in ``oracles``, which reach no certifier."""

    @given(hypergraphs(max_n=7, sizes=(2, 3, 4)))
    @settings(max_examples=120, deadline=None)
    def test_chromatic_number_matches_the_search(self, g):
        assert col.chromatic_number(g) == oracles.reference_chromatic_number(g)

    @given(hypergraphs(max_n=7, sizes=(2, 3, 4)))
    @settings(max_examples=120, deadline=None)
    def test_is_critical_matches_the_search(self, g):
        chi = oracles.reference_chromatic_number(g)
        for k_plus_1 in {max(1, chi - 1), max(1, chi), chi + 1}:
            assert col.is_critical(g, k_plus_1) == oracles.reference_is_critical(g, k_plus_1)

    @given(hypergraphs(max_n=7, sizes=(2, 3, 4)))
    @settings(max_examples=120, deadline=None)
    def test_instance_stats_matches_the_search(self, g):
        assert corpus.instance_stats(g) == oracles.reference_instance_stats(g)

    def test_joins_and_named_families(self):
        verdicts = collections.Counter()
        for g in _theorem_inputs():
            chi = oracles.reference_chromatic_number(g, force=True)
            assert col.chromatic_number(g, force=True) == chi, g
            for k_plus_1 in {max(1, chi - 1), chi, chi + 1}:
                report = col.is_critical(g, k_plus_1, force=True)
                assert report == oracles.reference_is_critical(g, k_plus_1, force=True), g
                verdicts[report.is_critical, report.failing_edge is not None] += 1
            assert corpus.instance_stats(g) == oracles.reference_instance_stats(g), g
        assert verdicts[True, False] >= 30 and verdicts[False, True] >= 10, verdicts

    def test_instance_stats_on_seeded_random_hypergraphs(self):
        rng = random.Random(17)
        critical = collections.Counter()
        for _ in range(400):
            g = corpus.random_hypergraph(rng, 10)
            stats = corpus.instance_stats(g)
            assert stats == oracles.reference_instance_stats(g), g
            critical[stats.get("critical_k")] += 1
        assert critical[None] >= 100 and critical[2] + critical[3] >= 20, critical

    def test_preset_failing_edge_matches_the_full_search(self):
        found = 0
        for g in _perturbations() + _critical_inputs():
            if not is_connected(g) or g.m == 0:
                continue
            k = oracles.reference_chromatic_number(g, force=True) - 1
            ref = next(col._failing_edges(g, k), None)
            assert ref == oracles.reference_failing_edge(g, k), g
            found += ref is not None
        assert found >= 70

    def test_scan_to_the_end_matches_the_restarted_search(self):
        """Every edge the scan yields, in g's refs, is the first failing
        edge of g with the edges yielded before it deleted, found by one
        search on each derived G - e from edge 0, until none fails."""
        deleted = 0
        for g in _perturbations() + _critical_inputs():
            if not is_connected(g) or g.m == 0:
                continue
            k = oracles.reference_chromatic_number(g, force=True) - 1
            want, cur, origin = [], g, list(range(g.m))
            while (ref := oracles.reference_failing_edge(cur, k)) is not None:
                want.append(origin.pop(ref))
                cur = cur.delete_edge(ref)
            assert list(col._failing_edges(g, k)) == want, g
            deleted += len(want)
        assert deleted >= 100

    @staticmethod
    def _refuse_search(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a coloring search ran")

        monkeypatch.setattr(col, "_colorings", refuse)

    @staticmethod
    def _refuse_decisions(monkeypatch):
        """A cap of 0: any search that makes a decision raises."""
        monkeypatch.setattr(col, "SEARCH_GUARD", 0)

    @pytest.mark.parametrize(
        "g,chi",
        [(cons.complete_graph(9), 9)] + [(cons.odd_wheel(rim), 4) for rim in range(5, 20, 2)],
    )
    def test_members_run_no_coloring_search(self, monkeypatch, g, chi):
        self._refuse_search(monkeypatch)
        assert col.chromatic_number(g) == chi
        assert col.is_critical(g, chi) == col.CriticalityReport(True, chi)

    def test_decided_inputs_pass_the_guard(self, monkeypatch):
        """Each took minutes by search, or was refused without force."""
        wheel = cons.odd_wheel(29)
        join = random_nested_join(random.Random(1), 4, 41, 10**6)
        assert min(wheel.n, join.n) > 24 and join.n == 41
        self._refuse_search(monkeypatch)
        assert col.chromatic_number(wheel) == 4
        assert col.chromatic_number(join) == 5
        assert col.is_critical(join, 5).is_critical
        assert not col.is_critical(join, 4).is_critical

    def test_undecided_inputs_keep_the_guard(self, monkeypatch):
        """Both are searched, in a few decisions each, so the cap passes
        them; one below their decisions refuses them."""
        g = _wheel_path()
        assert col.chromatic_number(g) == 4  # the wheel block certifies
        c31, h = cons.cycle(31), g.delete_edge(0)
        assert col.chromatic_number(c31) == col.chromatic_number(h) == 3
        assert col.is_critical(c31, 3) == col.CriticalityReport(True, 3)
        assert col.is_critical(h, 3).failing_edge == 0
        self._refuse_decisions(monkeypatch)
        for g in (c31, h):
            with pytest.raises(col.GuardExceeded):
                col.chromatic_number(g)
            with pytest.raises(col.GuardExceeded):
                col.is_critical(g, 3)

    def test_a_tight_block_short_of_g_keeps_the_edge_guard(self, monkeypatch):
        """The theorem gives chi when a certified block is not all of g,
        but not the first failing edge, which only a search finds."""
        join = random_nested_join(random.Random(1), 4, 41, 10**6)
        pendant = Hypergraph.of(42, list(join.edges) + [(0, 41)])
        self._refuse_decisions(monkeypatch)
        for g, chi, lam in ((pendant, 5, 4), (_wheel_path(), 4, 3)):
            assert col.chromatic_number(g) == chi
            assert col.is_critical(g, chi - 1) == col.CriticalityReport(
                False, chi, reason=f"chi is {chi}, not {chi - 1}")
            with pytest.raises(col.GuardExceeded):
                col.is_critical(g, chi)
            with pytest.raises(col.GuardExceeded):
                col.require_critical(g, chi - 1)
            assert corpus.instance_stats(g) == {
                "n": g.n, "m": g.m, "chi": chi, "lambda": lam, "critical_k": None}

    def test_stats_past_the_cap_give_n_and_m_only(self, monkeypatch):
        """Without force, an input whose search passes the cap gets n
        and m only; under the real cap these are searched in a few
        decisions.  The hyperwheel on a 30-vertex edge has C31's stats,
        but its 2-coloring is searched; C31's is one pass, lambda + 1
        bounds its chi at 3, and its per-edge test is all forced, so it
        answers under any cap."""
        toft_path = Hypergraph.of(
            30, list(cons.toft_graph(1).edges) + [(i, i + 1) for i in range(11, 29)])
        wheel31 = cons.hyperwheel(30)
        c31_stats = {"n": 31, "m": 31, "chi": 3, "lambda": 2, "critical_k": 3}
        assert corpus.instance_stats(wheel31) == c31_stats
        assert corpus.instance_stats(toft_path) == {
            "n": 30, "m": 39, "chi": 4, "lambda": 4, "critical_k": None}
        self._refuse_decisions(monkeypatch)
        for g in (wheel31, toft_path):
            assert corpus.instance_stats(g) == {"n": g.n, "m": g.m}
        assert corpus.instance_stats(cons.cycle(31)) == c31_stats

    @given(hypergraphs(max_n=7, sizes=(2, 3)))
    @settings(max_examples=60, deadline=None)
    def test_preset_search_finds_a_coloring_iff_one_exists(self, g):
        """With e's vertices preset to color 1 and color 1 counted as
        used, the search of G - e finds a coloring iff G - e has one in
        which e is monochromatic."""
        for ref, e in enumerate(g.edges):
            for k in (2, 3):
                phi = next(col._colorings(g, k, _degree_order(g, ref), dict.fromkeys(e, 1),
                                          True, skip=ref), None)
                preset = oracles.reference_find_k_coloring(
                    g.delete_edge(ref), k, dict.fromkeys(e, 1))
                assert (phi is None) == (preset is None), (g, ref, k)
                if phi is not None:
                    assert phi.is_valid_for(g.delete_edge(ref)) and set(phi.colors[v] for v in e) == {1}


def _wheel_path():
    """W5 with a pendant path out to 31 vertices: chi = 4 from the
    certified wheel block, and a first failing edge only a search finds."""
    return Hypergraph.of(31, list(cons.odd_wheel(5).edges) + [(i, i + 1) for i in range(5, 30)])


def _k4_path():
    return Hypergraph.of(30, list(cons.complete_graph(4).edges) + [(v, v + 1) for v in range(3, 29)])


def _k6_minus_edge():
    """lambda = 4 and no block certifies: ``classify``'s colorable branch."""
    return Hypergraph.of(6, [e for e in itertools.combinations(range(6), 2) if e != (0, 1)])


def _figure2_g2_join():
    """The Hajos join of figure2_g2 and K4, without v*: 4-critical with
    a separating pair, and not in the class, so its criticality is
    searched (a member's certifies with no search)."""
    f2, k4 = cons.figure2_g2(), cons.complete_graph(4)
    return cons.hajos_join(cons.HajosJoinSpec(f2, k4, f2.edge(0)[0], k4.edge(2)[-1], 0, 2, False)).graph


def _figure2_g2_join_edge_cut(force):
    g = _figure2_g2_join()
    cut = [c for c in conn.minimal_separating_edge_sets(g, 3) if len(c.f) == 3][1]
    return cons.decompose_edge_cut(g, 3, cut.f, force=force)


class TestDecisionCap:
    """Every search the library runs for its own answers raises
    GuardExceeded once it passes ``SEARCH_GUARD`` decisions, unless
    force is set; force gives the answer the uncapped search gives."""

    @pytest.mark.parametrize(
        "answer",
        [
            lambda force: col.chromatic_number(cons.cycle(31), force=force),
            lambda force: col.is_critical(_wheel_path(), 4, force=force),
            lambda force: tuple(cls.extract_critical(_k4_path(), 4, force=force)),
            lambda force: cls.classify(_k6_minus_edge(), force=force),
            lambda force: cons.decompose_vertex_pair(_figure2_g2_join(), 3, force=force),
            _figure2_g2_join_edge_cut,
        ],
        ids=["chromatic_number", "is_critical", "extract_critical", "classify-colorable",
             "decompose_vertex_pair", "decompose_edge_cut"],
    )
    def test_low_cap_raises_and_force_lifts_it(self, monkeypatch, answer):
        want = answer(False)
        monkeypatch.setattr(col, "SEARCH_GUARD", 0)
        with pytest.raises(col.GuardExceeded, match="decisions without force"):
            answer(False)
        assert answer(True) == want

    def test_the_cap_counts_decisions(self, monkeypatch):
        """A search passes at its own decision count and is refused one
        below it; find_k_coloring is never capped."""
        g = cons.odd_wheel(7)
        search = col._Search(g, 3)
        assert next(search.colorings(range(g.n), {}, False), None) is None
        monkeypatch.setattr(col, "SEARCH_GUARD", search.decisions)
        assert next(col._colorings(g, 3, range(g.n), {}, False), None) is None
        monkeypatch.setattr(col, "SEARCH_GUARD", search.decisions - 1)
        with pytest.raises(col.GuardExceeded):
            next(col._colorings(g, 3, range(g.n), {}, False), None)
        assert next(col._colorings(g, 3, range(g.n), {}, False, force=True), None) is None
        assert col.find_k_coloring(g, 3) is None
