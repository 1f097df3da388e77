import random

import pytest
from hypothesis import given, settings, strategies as st

from hyperchrome.hypercore import Hypergraph
from hyperchrome import coloring as col
from hyperchrome import constructions as cons
from hyperchrome import corpus

from conftest import hypergraphs
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

    def test_guard(self):
        big = Hypergraph.of(30, [(i, i + 1) for i in range(29)])
        with pytest.raises(col.GuardExceeded):
            col.chromatic_number(big)
        assert col.chromatic_number(big, force=True) == 2

    @given(hypergraphs(max_n=5))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, g):
        assert col.chromatic_number(g) == oracles.brute_chi(g)

    @given(hypergraphs(min_n=1, max_n=6))
    @settings(max_examples=40, deadline=None)
    def test_block_decomposition_agrees(self, g):
        assert col.chromatic_number_by_blocks(g) == col.chromatic_number(g)


class TestEnumeration:
    def test_triangle_count(self):
        assert len(col.enumerate_k_colorings(cons.complete_graph(3), 3)) == 6

    def test_counts_match_oracle(self):
        g = Hypergraph.of(4, [(0, 1, 2), (1, 2, 3)])
        for k in (2, 3):
            assert len(col.enumerate_k_colorings(g, k)) == oracles.brute_count_colorings(g, k)

    def test_limit(self):
        out = col.enumerate_k_colorings(cons.cycle(5), 3, limit=4)
        assert len(out) == 4

    def test_limit_zero_is_empty(self):
        assert col.enumerate_k_colorings(cons.cycle(5), 3, limit=0) == []

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError, match="limit"):
            col.enumerate_k_colorings(cons.cycle(5), 3, limit=-1)

    def test_lexicographic_order(self):
        out = col.enumerate_k_colorings(Hypergraph.of(2, [(0, 1)]), 2)
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
        assert col.verify_one_high_vertex_lemma(cons.odd_wheel(5), 3).exactly_one
        assert col.verify_one_high_vertex_lemma(cons.hyperwheel(4), 2).exactly_one


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
        assert col.enumerate_k_colorings(
            g, k, limit=limit
        ) == oracles.reference_enumerate_k_colorings(g, k, limit=limit)

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
            assert col.enumerate_k_colorings(
                g, 3, limit=limit
            ) == oracles.reference_enumerate_k_colorings(g, 3, limit=limit)


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
        [phi] = col.enumerate_k_colorings(g, 2, limit=1)
        assert phi.is_valid_for(g)
