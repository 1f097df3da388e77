import collections
import itertools
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from hyperchrome.hypercore import Hypergraph
from hyperchrome import coloring as col
from hyperchrome import connectivity as conn
from hyperchrome import constructions as cons
from hyperchrome import corpus

from conftest import (
    connected_hypergraphs,
    forest_edges,
    hyperforests,
    hypergraphs,
    join_chain,
    perturbed_join,
    random_nested_join,
    seeded_random_hypergraph,
)
import lemmas
import oracles


class TestComponents:
    def test_hyperedge_connects_all_its_vertices(self):
        g = Hypergraph.of(5, [(0, 1, 2), (3, 4)])
        assert conn.components(g) == [(0, 1, 2), (3, 4)]

    def test_isolated_vertices_are_components(self):
        g = Hypergraph.of(3, [(0, 1)])
        assert conn.components(g) == [(0, 1), (2,)]
        assert not conn.is_connected(g)

    def test_empty_graph_connected(self):
        assert conn.is_connected(Hypergraph.of(0))
        assert conn.is_connected(Hypergraph.of(1))

    @settings(max_examples=300, deadline=None)
    @given(hypergraphs(max_n=9, sizes=(2, 3, 4)))
    @example(Hypergraph.of(0))
    @example(Hypergraph.of(4))
    @example(Hypergraph.of(8, [(0, 1), (2, 3, 4), (5, 6)]))
    def test_the_block_pass_count_matches_the_search(self, g):
        """``components`` counts the components from the cached block
        pass and searches only when there are two or more; the blocks it
        caches are the reference's."""
        assert conn.components(g) == list(conn._pieces(g))
        assert conn.is_connected(g) == (len(conn.components(g)) <= 1)
        assert conn.blocks(g) == oracles.reference_blocks(g)

    @pytest.mark.parametrize(
        "g,want,passes",
        [
            (cons.cycle(9), [tuple(range(9))], (1, 0)),
            (Hypergraph.of(6, [(0, 1), (1, 2, 3), (3, 4), (4, 5)]), [tuple(range(6))], (0, 1)),
            (Hypergraph.of(0), [], (0, 1)),
            (Hypergraph.of(5, [(0, 1), (1, 2), (3, 4)]), [(0, 1, 2), (3, 4)], (0, 1)),
            (Hypergraph.of(7, cons.cycle(5).edges), [tuple(range(5)), (5,), (6,)], (1, 1)),
            (Hypergraph.of(8, list(cons.cycle(5).edges) + [(5, 6), (6, 7)]),
             [tuple(range(5)), (5, 6, 7)], (1, 1)),
        ],
        ids=["cycle", "path-with-hyperedge", "empty", "two-pieces", "cycle-and-isolated",
             "cycle-and-path"],
    )
    def test_one_block_pass_serves_components_and_blocks(self, monkeypatch, g, want, passes):
        """The block pass runs once, and the blocks and separating
        vertices read after ``components`` run no second one.  It is
        (articulation passes, component searches): a cycle, alone or
        beside isolated vertices, has too large a sum(|e| - 1) for a
        forest and goes to the depth-first search with no component
        search; a hyperforest takes one component search for the forest
        test and no depth-first search; any other input, such as a cycle
        beside a path, takes both.  ``components`` reads the pieces of
        that component search, and adds a search of its own only after
        a block pass with none, when there are two or more components."""
        calls = collections.Counter()
        pieces, articulation = conn._pieces, conn._articulation

        def counted_pieces(*args, **kwargs):
            calls["pieces"] += 1
            return pieces(*args, **kwargs)

        def counted_articulation(*args, **kwargs):
            calls["articulation"] += 1
            return articulation(*args, **kwargs)

        monkeypatch.setattr(conn, "_pieces", counted_pieces)
        monkeypatch.setattr(conn, "_articulation", counted_articulation)
        assert conn.components(g) == want
        conn.blocks(g)
        conn.separating_vertices(g)
        assert (calls["articulation"], calls["pieces"]) == passes

    def test_the_block_pass_count_on_seeded_instances(self):
        rng = random.Random(26)
        empty = isolated = several = 0
        for i in range(400):
            g = seeded_random_hypergraph(rng, rng.randint(0, 12), (2, 3, 4) if i % 2 else (2,), 8)
            comps = conn.components(g)
            assert comps == list(conn._pieces(g))
            assert conn.is_connected(g) == (len(comps) <= 1)
            empty += g.n == 0
            isolated += any(len(c) == 1 for c in comps)
            several += sum(len(c) > 1 for c in comps) > 1
        assert empty >= 10 and isolated >= 100 and several >= 30, (empty, isolated, several)


def _blocks_by_articulation(g):
    """``_whole_graph_blocks``' blocks, separating vertices and counts,
    built from one ``_articulation`` run as its depth-first branch
    builds them."""
    block_refs, count = conn._articulation(g)
    edges = g.edges
    found = [
        conn.Block(tuple(sorted({v for r in refs for v in edges[r]})), tuple(sorted(refs)))
        for refs in block_refs
    ]
    found += [conn.Block((v,), ()) for v in range(g.n) if not g.incidence[v]]
    return tuple(sorted(found)), tuple(v for v in range(g.n) if count[v] > 1), count


def _sparse_forests():
    """Paths, complete trees and 3-uniform hyperpaths at the sizes the
    benchmark's large-sparse workload builds, seeded."""
    rng = random.Random(29)
    out = []
    for base in tuple(range(250, 601, 50)) + (1200, 2000, 3000):
        n = base + 1 + 2 * rng.randrange(8)
        branching = rng.choice((2, 3))
        out.append(Hypergraph.of(n, [(i, i + 1) for i in range(n - 1)]))
        out.append(Hypergraph.of(n, [((v - 1) // branching, v) for v in range(1, n)]))
        out.append(Hypergraph.of(n, [(i, i + 1, i + 2) for i in range(0, n - 2, 2)]))
    return out


class TestForestBlockPass:
    """A hyperforest, whose incidence graph B(G) is a forest, gets its
    blocks, separating vertices and node counts from its degrees and
    edge sizes after one component search, with no depth-first search;
    pinned to an unpatched ``_articulation`` run on an equal value and
    to ``oracles.reference_blocks``."""

    @staticmethod
    def _check(g):
        want = _blocks_by_articulation(Hypergraph.of(g.n, g.edges))
        refuse = AssertionError("a depth-first block search ran")
        with mock.patch.object(conn, "_articulation", side_effect=refuse):
            got = conn._whole_graph_blocks(g)
            assert conn.components(g) == list(conn._pieces(g))
            assert conn.bridges(g) == list(range(g.m))
            assert list(conn._separating_sets(g, 1)) == [(v,) for v in got[1]]
        assert got == want
        assert list(got[0]) == oracles.reference_blocks(g)

    @settings(max_examples=300, deadline=None)
    @given(hyperforests())
    @example(Hypergraph.of(0))
    @example(Hypergraph.of(5))
    @example(Hypergraph.of(9, [(0, 1), (1, 2, 3), (4, 5, 6, 7)]))
    def test_pinned_to_the_depth_first_search(self, g):
        self._check(g)

    @pytest.mark.parametrize("g", _sparse_forests(), ids=lambda g: f"n{g.n}-m{g.m}")
    def test_large_sparse_forests(self, g):
        self._check(g)

    def test_seeded_random_forests(self):
        rng = random.Random(2029)
        hyper = isolated = several = 0
        for _ in range(300):
            n = rng.randint(1, 16)
            drawn = [rng.sample(range(n), min(n, rng.choice((2, 3, 4))))
                     for _ in range(rng.randint(0, n))]
            g = Hypergraph.of(n, forest_edges(n, [e for e in drawn if len(e) >= 2]))
            self._check(g)
            hyper += not g.is_graph()
            isolated += any(not refs for refs in g.incidence)
            several += len(conn.components(g)) > 1
        assert hyper >= 150 and isolated >= 200 and several >= 200, (hyper, isolated, several)

    @pytest.mark.parametrize(
        "g",
        [
            cons.cycle(6),
            Hypergraph.of(12, cons.cycle(6).edges),
            Hypergraph.of(4, [(0, 1, 2), (1, 2, 3)]),
            Hypergraph.of(8, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
            Hypergraph.of(8, list(cons.cycle(5).edges) + [(5, 6), (6, 7)]),
        ],
        ids=["cycle", "cycle-and-isolated", "two-hyperedges", "two-triangles", "cycle-and-path"],
    )
    def test_other_inputs_keep_the_depth_first_search(self, g):
        want = _blocks_by_articulation(Hypergraph.of(g.n, g.edges))
        with mock.patch.object(conn, "_articulation", wraps=conn._articulation) as search:
            assert conn._whole_graph_blocks(g) == want
        search.assert_called_once_with(g)


@st.composite
def deletions(draw):
    """A hypergraph, up to 2 of its vertices and up to 3 of its edges."""
    g = draw(hypergraphs(max_n=8, sizes=(2, 3, 4)))
    dead = draw(st.lists(st.integers(0, g.n - 1), max_size=2, unique=True)) if g.n else []
    cut = draw(st.lists(st.integers(0, g.m - 1), max_size=3, unique=True)) if g.m else []
    return g, tuple(dead), tuple(cut)


class TestPieces:
    """``_pieces(g, dead, cut)``, the one component search, is pinned to
    the components of the derived (G - F) / X
    (``oracles.reference_pieces``)."""

    @settings(max_examples=300, deadline=None)
    @given(deletions())
    # a dead vertex leaves the rest of a hyperedge joined, or cuts a path
    @example((Hypergraph.of(4, [(0, 1, 2), (2, 3)]), (0,), ()))
    @example((Hypergraph.of(4, [(0, 1, 2), (2, 3)]), (2,), ()))
    @example((Hypergraph.of(4, [(0, 1, 2), (2, 3)]), (1, 2), (1,)))
    def test_matches_the_derived_reference(self, case):
        g, dead, cut = case
        assert list(conn._pieces(g, dead, cut)) == oracles.reference_pieces(g, dead, cut)

    def test_components_are_the_pieces_with_nothing_deleted(self):
        g = Hypergraph.of(6, [(0, 3), (1, 4, 5), (3, 5)])
        assert conn.components(g) == list(conn._pieces(g)) == [(0, 1, 3, 4, 5), (2,)]


class TestLocalEdgeConnectivity:
    def test_complete_graph(self):
        k5 = cons.complete_graph(5)
        assert conn.local_edge_connectivity(k5, 0, 4).value == 4
        assert conn.max_local_edge_connectivity(k5) == 4

    def test_cycle(self):
        assert conn.max_local_edge_connectivity(cons.cycle(6)) == 2

    def test_single_hyperedge(self):
        g = Hypergraph.of(4, [(0, 1, 2, 3)])
        assert conn.local_edge_connectivity(g, 0, 3).value == 1

    def test_two_triangles_sharing_a_vertex(self):
        g = Hypergraph.of(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
        assert conn.local_edge_connectivity(g, 0, 3).value == 2
        assert conn.local_edge_connectivity(g, 0, 1).value == 2

    def test_disconnected_pair_is_zero(self):
        g = Hypergraph.of(4, [(0, 1), (2, 3)])
        assert conn.local_edge_connectivity(g, 0, 2).value == 0

    def test_lambda_of_tiny_graphs(self):
        assert conn.max_local_edge_connectivity(Hypergraph.of(1)) == 0
        assert conn.max_local_edge_connectivity(Hypergraph.of(0)) == 0
        assert conn.max_local_edge_connectivity(Hypergraph.of(2, [(0, 1)])) == 1

    def test_witness_paths_are_valid_and_edge_disjoint(self):
        g = cons.odd_wheel(5)
        res = conn.local_edge_connectivity(g, 0, 3)
        assert res.value == len(res.paths) == 3
        used = []
        for p in res.paths:
            assert p.is_valid_in(g)
            assert p.vertices[0] == 0 and p.vertices[-1] == 3
            used.extend(p.edges)
        assert len(used) == len(set(used))

    def test_cut_side_matches_value(self):
        g = cons.odd_wheel(7)
        for v, w in [(0, 4), (1, 7)]:
            res = conn.local_edge_connectivity(g, v, w)
            assert v in res.cut_side and w not in res.cut_side
            assert len(g.boundary(res.cut_side)) == res.value

    @given(hypergraphs(min_n=2, max_n=5, sizes=(2, 3)))
    @settings(max_examples=60, deadline=None)
    def test_flow_matches_brute_force(self, g):
        for v, w in itertools.combinations(range(min(g.n, 4)), 2):
            res = conn.local_edge_connectivity(g, v, w)
            assert res.value == oracles.brute_local_lambda(g, v, w)
            assert res.value == oracles.brute_min_cut(g, v, w)

    def test_is_k_edge_connected(self):
        k4 = cons.complete_graph(4)
        assert lemmas.is_k_edge_connected(k4, 3)
        assert not lemmas.is_k_edge_connected(cons.cycle(5), 3)


def _pair_values(g, value):
    return [value(g, v, w) for v, w in itertools.combinations(range(g.n), 2)]


class TestAllPairs:
    """lambda and k-edge-connectivity come from n-1 tree flows; pin
    them against every pair."""

    @given(hypergraphs())
    @settings(max_examples=100, deadline=None)
    def test_match_brute_min_cut_over_all_pairs(self, g):
        cuts = _pair_values(g, oracles.brute_min_cut)
        assert conn.max_local_edge_connectivity(g) == max(cuts, default=0)
        if g.n >= 2:
            for k in range(1, max(cuts) + 2):
                assert lemmas.is_k_edge_connected(g, k) == (min(cuts) >= k)

    def test_match_per_pair_flows_on_random_instances(self):
        rng = random.Random(11)
        for _ in range(60):
            g = corpus.random_hypergraph(rng, 12)
            flows = _pair_values(g, lambda h, v, w: conn.local_edge_connectivity(h, v, w).value)
            assert conn.max_local_edge_connectivity(g) == max(flows, default=0)
            if g.n >= 2:
                for k in range(max(flows) + 2):
                    expected = conn.is_connected(g) and min(flows) >= k
                    assert lemmas.is_k_edge_connected(g, k) == expected

    def test_disconnected_and_isolated_vertex(self):
        g = Hypergraph.of(7, [(0, 1), (0, 2), (1, 2), (3, 4, 5)])
        assert conn.max_local_edge_connectivity(g) == 2
        assert not lemmas.is_k_edge_connected(g, 0)
        assert not lemmas.is_k_edge_connected(Hypergraph.of(2), 1)
        assert conn.max_local_edge_connectivity(Hypergraph.of(3)) == 0

    def test_only_children_of_the_sink_move_to_the_source(self):
        # the flow 3 -> 1 leaves 5 on the side of 3; moving 5, a child
        # of 2 and not of the sink 1, to 3 would hide (2, 5), the only
        # pair of value 2, from the tree
        g = Hypergraph.of(6, [(1, 3), (2, 3, 4, 5), (2, 5)])
        assert conn.max_local_edge_connectivity(g) == 2

    def test_fewer_than_two_vertices(self):
        for n in (0, 1):
            assert conn.max_local_edge_connectivity(Hypergraph.of(n)) == 0
            with pytest.raises(ValueError):
                lemmas.is_k_edge_connected(Hypergraph.of(n), 1)

    def test_complete_graph_stops_at_degree_after_one_flow(self, monkeypatch):
        flows = []
        max_flow = conn._FlowNet.max_flow

        def counted(net, s, t, limit):
            flows.append((s, t))
            return max_flow(net, s, t, limit)

        monkeypatch.setattr(conn._FlowNet, "max_flow", counted)
        assert conn.max_local_edge_connectivity(cons.complete_graph(7)) == 6
        assert flows == [(1, 0)]
        flows.clear()
        assert lemmas.is_k_edge_connected(cons.complete_graph(7), 6)
        assert len(flows) == 6


def _lambda_sweep():
    """Seeded inputs for the lambda pins: 2-, 3-, 4-uniform and mixed
    random hypergraphs (some disconnected, some with isolated vertices),
    disjoint unions, degree-regular graphs where every degree ties, and
    nested joins as in the benchmark's tight-joins workload."""
    rng = random.Random(31)
    out = []
    for sizes in [(2,), (3,), (4,), (2, 3, 4)]:
        for _ in range(40):
            out.append(seeded_random_hypergraph(rng, rng.randint(2, 7), sizes, 12))
    for _ in range(20):
        a = seeded_random_hypergraph(rng, rng.randint(2, 4), (2, 3), 5)
        b = seeded_random_hypergraph(rng, rng.randint(2, 4), (2, 3), 5)
        shifted = [tuple(v + a.n for v in e) for e in b.edges]
        out.append(Hypergraph.of(a.n + b.n + rng.randint(0, 1), list(a.edges) + shifted))
    out += [cons.cycle(n) for n in (3, 6, 9)] + [cons.complete_graph(n) for n in (3, 5, 7)]
    out += [cons.hyperwheel(3), cons.hyperwheel(4), cons.kc(2, 2), cons.odd_wheel(7)]
    for k, n_max in ((3, 20), (4, 13), (5, 11)):
        for _ in range(6):
            out.append(random_nested_join(rng, k, n_max, 4))
    return out


class TestPrunedLambda:
    """lambda runs Gusfield on a prefix of the degree order, and every
    flow stops at its source's degree, the smaller of the pair; pinned
    to per-pair flows of the replaced kernel and to brute-force minimum
    cuts."""

    def test_sweep_covers_its_cases(self):
        sweep = _lambda_sweep()
        degrees = [[len(refs) for refs in g.incidence] for g in sweep]
        assert sum(not conn.is_connected(g) for g in sweep) >= 60
        assert sum(0 in deg for deg in degrees) >= 40
        assert sum(deg.count(max(deg)) > 1 for deg in degrees if deg) >= 100
        assert sum(g.n >= 10 for g in sweep) >= 18

    def test_match_per_pair_flows_and_brute_min_cut(self):
        for g in _lambda_sweep():
            flows = oracles.reference_pair_lambdas(g)
            if g.n <= 7:
                assert flows == _pair_values(g, oracles.brute_min_cut)
            assert conn.max_local_edge_connectivity(g) == max(flows, default=0)
            for k in range(max(flows, default=0) + 2):
                expected = conn.is_connected(g) and min(flows) >= k
                assert lemmas.is_k_edge_connected(g, k) == expected

    def test_w5_join_w5_runs_two_flows(self, monkeypatch):
        flows = []
        max_flow = conn._FlowNet.max_flow

        def counted(net, s, t, limit):
            flows.append((s, t))
            return max_flow(net, s, t, limit)

        monkeypatch.setattr(conn._FlowNet, "max_flow", counted)
        assert conn.max_local_edge_connectivity(corpus.named_families()["w5-join-w5"]) == 3
        assert len(flows) == 2

    def test_capped_flow_skips_the_failing_search(self, monkeypatch):
        searches = []
        bfs = conn._FlowNet._bfs

        def counted(net, s, t):
            searches.append(bfs(net, s, t))
            return searches[-1]

        monkeypatch.setattr(conn._FlowNet, "_bfs", counted)
        assert conn.max_local_edge_connectivity(cons.complete_graph(7)) == 6
        assert searches == [True] * 6
        searches.clear()
        # the uncapped flow of local_edge_connectivity ends in a failed search
        assert conn.local_edge_connectivity(cons.complete_graph(7), 0, 1).value == 6
        assert searches == [True] * 6 + [False]

    def test_path_runs_no_flow(self, monkeypatch):
        # every block is one edge, so lambda = 1 without a flow
        flows = []
        max_flow = conn._FlowNet.max_flow

        def counted(net, s, t, limit):
            flows.append((s, t))
            return max_flow(net, s, t, limit)

        monkeypatch.setattr(conn._FlowNet, "max_flow", counted)
        assert conn.max_local_edge_connectivity(_path(12)) == 1
        assert flows == []


    @pytest.mark.parametrize("seed", range(30))
    def test_hyperforests_run_no_flow(self, monkeypatch, seed):
        """Every block has at most one edge, so lambda = min(m, 1) without
        a flow; pinned to per-pair flows of the replaced kernel."""
        rng = random.Random(seed)
        n, edges = 1, []
        for _ in range(rng.randint(0, 6)):
            grow = rng.choice([1, 1, 2])
            edges.append((rng.randrange(n), *range(n, n + grow)))
            n += grow
        g = Hypergraph.of(n + rng.randint(0, 2), edges)
        want = max(oracles.reference_pair_lambdas(g), default=0)
        built = []
        monkeypatch.setattr(conn._FlowNet, "__init__", lambda net, g: built.append(g))
        assert conn.max_local_edge_connectivity(g) == want == min(g.m, 1)
        assert built == []

    @given(hypergraphs(max_n=8, sizes=(2, 3, 4)))
    @settings(max_examples=150, deadline=None)
    def test_forest_count_is_the_one_edge_blocks(self, g):
        """The incidence graph is a forest, by counting, iff no block has
        two edges, so lambda takes the shortcut exactly then."""
        forest = sum(map(len, g.edges)) == g.n + g.m - len(conn.components(g))
        assert forest == all(len(b.edge_refs) < 2 for b in conn.blocks(g))
        assert conn.max_local_edge_connectivity(g) == max(oracles.reference_pair_lambdas(g), default=0)


class TestFlowKernel:
    """The flat-array kernel is pinned to the network and search it
    replaced (``oracles.ReferenceFlowNet``)."""

    def test_network_matches_reference(self):
        for g in _lambda_sweep():
            net, ref = conn._FlowNet(g), oracles.ReferenceFlowNet(g)
            assert (net.adj, net.to, net.cap) == (ref.adj, ref.to, ref.cap)

    def test_local_edge_connectivity_matches_reference_on_seeded_pairs(self):
        rng = random.Random(17)
        checked = 0
        for g in _lambda_sweep():
            pairs = list(itertools.combinations(range(g.n), 2))
            for v, w in rng.sample(pairs, min(4, len(pairs))):
                for a, b in ((v, w), (w, v)):
                    expected = oracles.reference_local_edge_connectivity(g, a, b)
                    assert conn.local_edge_connectivity(g, a, b) == expected
                    checked += 1
        assert checked >= 1400


class TestBlocks:
    def test_single_block(self):
        w5 = cons.odd_wheel(5)
        bs = conn.blocks(w5)
        assert len(bs) == 1
        assert bs[0].vertices == tuple(range(6))
        assert bs[0].graph(w5) == w5

    @given(hypergraphs(max_n=8, sizes=(2, 3, 4)))
    @settings(max_examples=150, deadline=None)
    def test_block_graph_is_the_canonical_value(self, g):
        """Built without the constructor's checks, a block's graph equals
        the value ``Hypergraph.of`` builds from the same edges."""
        for b in conn.blocks(g):
            pos = {v: i for i, v in enumerate(b.vertices)}
            want = Hypergraph.of(len(b.vertices), [[pos[v] for v in g.edges[r]] for r in b.edge_refs])
            got = b.graph(g)
            assert got == want and hash(got) == hash(want)
            assert got.incidence == want.incidence

    def test_k4_with_pendant_edge(self):
        g = Hypergraph.of(5, list(itertools.combinations(range(4), 2)) + [(3, 4)])
        bs = conn.blocks(g)
        assert sorted(b.vertices for b in bs) == [(0, 1, 2, 3), (3, 4)]
        assert conn.separating_vertices(g) == (3,)

    def test_hyperedge_is_one_block(self):
        g = Hypergraph.of(5, [(0, 1, 2), (2, 3), (3, 4)])
        bs = conn.blocks(g)
        assert sorted(b.vertices for b in bs) == [(0, 1, 2), (2, 3), (3, 4)]

    def test_isolated_vertex_is_singleton_block(self):
        g = Hypergraph.of(3, [(0, 1)])
        assert sorted(b.vertices for b in conn.blocks(g)) == [(0, 1), (2,)]

    @given(hypergraphs(min_n=1, max_n=6))
    @settings(max_examples=60, deadline=None)
    def test_blocks_cover_and_overlap_in_separators(self, g):
        bs = conn.blocks(g)
        covered = set()
        for b in bs:
            covered.update(b.vertices)
        assert covered == set(range(g.n))
        refs = [r for b in bs for r in b.edge_refs]
        assert sorted(refs) == list(range(g.m))
        seps = set(conn.separating_vertices(g))
        counts = {}
        for b in bs:
            for v in b.vertices:
                counts[v] = counts.get(v, 0) + 1
        assert {v for v, c in counts.items() if c > 1} == seps


def _path(n):
    return Hypergraph.of(n, [(i, i + 1) for i in range(n - 1)])


def _hyperpath(n):
    return Hypergraph.of(n, [(i, i + 1, i + 2) for i in range(0, n - 2, 2)])


def _assert_articulation_matches(g: Hypergraph) -> None:
    """The incidence-graph search against the pair-list pass it replaced
    (``oracles.reference_block_pass``): the blocks and separating
    vertices of G and of each G - e, and with each vertex v deleted, the
    edges whose deletion splits G - v further."""
    n = g.n
    found, count = conn._articulation(g)
    want, want_cut = oracles.reference_block_pass(g)
    assert sorted(map(sorted, found)) == sorted(map(sorted, want))
    assert [c > 1 for c in count[:n]] == want_cut
    for ref in range(g.m):
        count = conn._articulation(g, n + ref)[1]
        assert [c > 1 for c in count[:n]] == oracles.reference_block_pass(g, ref)[1], ref
    for v in range(n):
        assert _cut_edges(g, v) == _bridges_without_by_definition(g, v), v


class TestBlockPass:
    """The incidence-table pass is pinned to the 2-section computation
    it replaced (``oracles.reference_blocks``)."""

    @given(hypergraphs(max_n=7, sizes=(2, 3, 4)))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, g):
        assert conn.blocks(g) == oracles.reference_blocks(g)
        assert conn.separating_vertices(g) == oracles.reference_separating_vertices(g)

    @given(hypergraphs(max_n=8, sizes=(2, 3, 4, 5)))
    @settings(max_examples=200, deadline=None)
    def test_articulation_matches_the_pair_list_pass(self, g):
        _assert_articulation_matches(g)

    def test_articulation_matches_the_pair_list_pass_on_seeded_instances(self):
        rng = random.Random(16)
        isolated = five = 0
        for _ in range(400):
            g = seeded_random_hypergraph(rng, rng.randint(1, 12), (2, 3, 4, 5), 14)
            isolated += any(not refs for refs in g.incidence)
            five += any(len(e) == 5 for e in g.edges)
            _assert_articulation_matches(g)
        assert isolated >= 100 and five >= 100, (isolated, five)

    def test_articulation_matches_the_pair_list_pass_on_graphs(self):
        """Ordinary graphs, where the search steps over every edge
        node: bridges, pendant edges and edges to the deleted vertex."""
        rng = random.Random(21)
        bridged = 0
        for _ in range(300):
            g = seeded_random_hypergraph(rng, rng.randint(2, 12), (2,), 20)
            assert conn.bridges(g) == oracles.reference_bridges(g)
            bridged += bool(conn.bridges(g))
            _assert_articulation_matches(g)
        assert bridged >= 100, bridged

    def test_matches_reference_on_seeded_instances(self):
        rng = random.Random(5)
        isolated = 0
        for i in range(500):
            g = corpus.random_hypergraph(rng, 12)
            if i % 2:  # thin it out: sparse, with isolated vertices
                g = Hypergraph(g.n, tuple(e for e in g.edges if rng.random() < 0.3))
            isolated += any(not refs for refs in g.incidence)
            assert conn.blocks(g) == oracles.reference_blocks(g)
            assert conn.separating_vertices(g) == oracles.reference_separating_vertices(g)
        assert isolated >= 100

    @given(connected_hypergraphs(max_n=7, sizes=(2, 3, 4)))
    @settings(max_examples=100, deadline=None)
    def test_mixed_pairs_skip_the_edge_in_place(self, g):
        listing = [
            (v, ref) for ref in range(g.m) for v in conn.separating_vertices(g.delete_edge(ref))
        ]
        assert conn.mixed_separating_sets(g) == listing

    def test_mixed_pairs_skip_the_edge_in_place_on_hyperedge_joins(self):
        """Nested joins that keep v* on every merged edge carry
        hyperedges.  No pair of theirs lies on two edges, since a join
        deletes the one edge on each pair it merges, so one-edge
        perturbations of joins add the pairs that do, where the pair
        list holds a neighbour once per edge."""
        graphs = [
            random_nested_join(random.Random(seed), k, n_max, 8, include_vstar=True)
            for k, n_max in ((3, 22), (4, 17), (5, 16)) for seed in range(4)
        ]
        assert all(any(len(e) > 2 for e in g.edges) for g in graphs)
        graphs += [perturbed_join(random.Random(seed), k) for k in (3, 4, 5) for seed in range(12)]
        multi_covered = 0
        for g in graphs:
            listing = [
                (v, ref) for ref in range(g.m) for v in conn.separating_vertices(g.delete_edge(ref))
            ]
            assert conn.mixed_separating_sets(g) == listing
            covers = collections.Counter(p for e in g.edges for p in itertools.combinations(e, 2))
            multi_covered += max(covers.values()) > 1
        assert multi_covered >= 6

    def test_one_pass_serves_blocks_and_separating_vertices(self, monkeypatch):
        passes = []
        search = conn._articulation

        def counted(g, dead=None):
            passes.append(dead)
            return search(g, dead)

        monkeypatch.setattr(conn, "_articulation", counted)
        g = Hypergraph.of(5, list(itertools.combinations(range(4), 2)) + [(3, 4)])
        assert conn.separating_vertices(g) == (3,)
        assert len(conn.blocks(g)) == 2
        assert conn.separating_vertices(g) == (3,)
        assert conn.bridges(g) == [6]
        assert conn.enumerate_separating_sets(g, 1) == [(3,)]
        assert passes == [None]

    def test_cache_is_not_part_of_the_value(self):
        a = Hypergraph.of(5, [(0, 1), (1, 2, 3), (3, 4)])
        b = Hypergraph.of(5, [(3, 4), (1, 2, 3), (0, 1)])
        conn.blocks(a)
        assert "_whole_graph_blocks" in vars(a) and "_whole_graph_blocks" not in vars(b)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_a_block_is_a_vertices_and_refs_tuple(self):
        g = Hypergraph.of(6, [(0, 1), (1, 2, 3), (3, 4)])
        found = conn.blocks(g)
        assert found == [((0, 1), (0,)), ((1, 2, 3), (1,)), ((3, 4), (2,)), ((5,), ())]
        vertices, refs = found[1]
        assert (vertices, refs) == (found[1].vertices, found[1].edge_refs)
        assert sorted(reversed(found)) == sorted(found, key=lambda b: b.vertices) == found

    def test_returned_list_is_the_callers(self):
        g = Hypergraph.of(5, [(0, 1), (1, 2, 3), (3, 4)])
        first = conn.blocks(g)
        expected = list(first)
        first.pop()
        first.append(conn.Block((9,), ()))
        assert conn.blocks(g) == expected

    @pytest.mark.usefixtures("default_recursion_limit")
    @pytest.mark.parametrize("g", [_path(3000), _hyperpath(3001)], ids=["path3000", "hyperpath3001"])
    def test_deep_inputs(self, g):
        assert conn.blocks(g) == [conn.Block(e, (i,)) for i, e in enumerate(g.edges)]
        inner = {v for e in g.edges for v in e if g.degree(v) > 1}
        assert conn.separating_vertices(g) == tuple(sorted(inner))


class TestSeparators:
    def test_separating_pair_of_even_wheel(self):
        assert conn.enumerate_separating_sets(cons.cycle(4), 2) == [(0, 2), (1, 3)]

    def test_hyperedge_residue_keeps_connection(self):
        # removing v from {v,a,b} leaves residue {a,b}: still connected
        g = Hypergraph.of(3, [(0, 1, 2)])
        assert conn.enumerate_separating_sets(g, 2) == []

    @given(hypergraphs(max_n=8, sizes=(2, 3, 4)))
    @example(Hypergraph.of(8, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4, 5), (5, 6)]))
    @example(Hypergraph.of(6, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5)]))
    @settings(max_examples=150, deadline=None)
    def test_enumeration_matches_the_quotient_reference(self, g):
        """The articulation passes give the sets that one quotient and
        component count per candidate does, on inputs with isolated
        vertices, several components and cut vertices."""
        for size in (0, 1, 2):
            want = oracles.reference_enumerate_separating_sets(g, size)
            assert conn.enumerate_separating_sets(g, size) == want, (g, size)

    def test_enumeration_stops_at_pairs(self):
        with pytest.raises(ValueError, match="up to size 2"):
            conn.enumerate_separating_sets(cons.cycle(5), 3)

    def test_pair_search_stops_at_the_first_pair(self, monkeypatch):
        """``_separating_sets``, whose first set ``decompose_vertex_pair``
        takes, runs the pass with v deleted only for v up to the first
        pair's; the W5 chain of 8 has 41 vertices and first pair (4, 5)."""
        g = join_chain(cons.odd_wheel(5), 8)
        first = conn.enumerate_separating_sets(g, 2)[0]
        assert first == (4, 5)
        real, dead = conn._articulation, []
        monkeypatch.setattr(conn, "_articulation", lambda g, v=None: dead.append(v) or real(g, v))
        assert next(conn._separating_sets(g, 2)) == first
        assert dead == [0, 1, 2, 3, 4]

    def test_enumerate_separating_sets_sorted(self):
        g = Hypergraph.of(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        sets = conn.enumerate_separating_sets(g, 2)
        assert all(len(s) == 2 for s in sets)
        assert sets == sorted(sets)
        assert (0, 2) in sets and (0, 1) not in sets

    def test_bridges(self):
        g = Hypergraph.of(5, [(0, 1, 2), (2, 3), (3, 4), (2, 4)])
        assert conn.bridges(g) == [0]

    def test_bridges_match_the_component_count_reference(self):
        """One articulation pass gives the edges that one component
        count per derived G - e gives (``oracles.reference_bridges``)."""
        rng = random.Random(5353)
        graphs = [seeded_random_hypergraph(rng, rng.randint(1, 9), (2, 3, 4), 12) for _ in range(400)]
        graphs += [perturbed_join(rng, k) for k in (3, 4) for _ in range(20)]
        graphs += list(corpus.named_families().values())
        found = 0
        for g in graphs:
            want = oracles.reference_bridges(g)
            assert conn.bridges(g) == want, g
            found += len(want)
        assert found > 100

    def test_minimal_separating_edge_sets(self):
        w5 = cons.odd_wheel(5)
        cuts = conn.minimal_separating_edge_sets(w5, 3)
        assert cuts, "low-vertex cuts must exist"
        for cut in cuts:
            assert len(cut.f) == 3
            assert set(w5.boundary(cut.x)) == set(cut.f)

    def test_cut_search_guard(self):
        # 60 + 1770 + 34220 subsets at size <= 3; the guard trips before any is tested
        with pytest.raises(col.GuardExceeded, match="--max-size"):
            conn.minimal_separating_edge_sets(cons.cycle(60), 3)
        assert len(conn.minimal_separating_edge_sets(cons.cycle(60), 1)) == 0
        assert conn.CUT_GUARD < 60 + 1770 + 34220

    def test_cut_search_size_past_the_edge_count(self):
        w5 = cons.odd_wheel(5)
        assert conn.minimal_separating_edge_sets(w5, 10**9) == conn.minimal_separating_edge_sets(
            w5, w5.m
        )

    @settings(max_examples=200, deadline=None)
    @given(connected_hypergraphs(max_n=7, sizes=(2, 3, 4)))
    @example(Hypergraph.of(4, [(0, 1, 2), (0, 3)]))
    def test_minimal_cut_rule_matches_the_subset_scan(self, g):
        """One component pass of G - F decides "F is a minimal separating
        set" as the test of every proper subset does
        (``oracles.has_separating_subset``)."""
        for size in range(1, 4):
            for f in itertools.combinations(range(g.m), size):
                pieces = list(conn._pieces(g, (), f))
                minimal = conn.is_separating_edge_set(g, f) and not oracles.has_separating_subset(g, f)
                assert conn._is_minimal_cut(g, f, pieces) == minimal, f
                assert pieces == conn.components(g.delete_edges(f))

    def test_cut_search_matches_the_reference(self):
        """``minimal_separating_edge_sets`` and ``edge_cut_for`` give the
        cuts of the subset scan (``oracles.reference_minimal_separating_edge_sets``
        and ``reference_edge_cut_for``)."""
        rng = random.Random(2323)
        graphs = list(corpus.named_families().values())
        graphs += [seeded_random_hypergraph(rng, rng.randint(2, 9), (2, 3, 4), 12) for _ in range(300)]
        graphs += [random_nested_join(random.Random(seed), k, 12, 3) for k in (3, 4) for seed in range(4)]
        graphs = [g for g in graphs if conn.is_connected(g)]
        assert len(graphs) > 100
        pieces = collections.Counter()
        for g in graphs:
            size = 3 if g.m <= 16 else 2
            want = oracles.reference_minimal_separating_edge_sets(g, size)
            assert conn.minimal_separating_edge_sets(g, size) == want, g
            for cut in want:
                assert conn.edge_cut_for(g, cut.f) == cut
                pieces[len(conn.components(g.delete_edges(cut.f)))] += 1
        assert pieces[2] and pieces[3], pieces

    @pytest.mark.parametrize(
        "g,f",
        [
            (Hypergraph.of(4, [(0, 1), (1, 2), (2, 3)]), (0, 1)),  # separates, but (0,) does
            (cons.cycle(4), ()),
            (Hypergraph.of(5, [(0, 1), (1, 2), (3, 4)]), ()),
            (Hypergraph.of(5, [(0, 1), (1, 2), (3, 4)]), (0,)),
            (Hypergraph.of(5, [(0, 1), (1, 2), (3, 4)]), (0, 2)),
        ],
        ids=["non-minimal", "empty", "disconnected-empty", "disconnected", "disconnected-pair"],
    )
    def test_edge_cut_for_refuses_other_sets(self, g, f):
        assert not conn._is_minimal_cut(g, f, list(conn._pieces(g, (), f)))
        with pytest.raises(ValueError, match="not a minimal separating set"):
            conn.edge_cut_for(g, f)

    def test_edge_cut_from_side(self):
        g = Hypergraph.of(5, [(0, 1), (1, 2, 3), (3, 4), (0, 4)])
        cut = conn.EdgeCut.from_side(g, [3, 0, 3, 4])
        # edges in canonical order: (0, 1), (0, 4), (1, 2, 3), (3, 4)
        assert cut == conn.EdgeCut(x=(0, 3, 4), y=(1, 2), f=(0, 2), x_f=(0, 3), y_f=(1, 2))

    def test_edge_cut_for_orients_lexicographically(self):
        g = Hypergraph.of(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        cut = conn.edge_cut_for(g, (0, 1))  # edges (0,1) and (0,3)
        assert set(g._boundary(set(cut.x))) == {0, 1}
        assert list(cut.x) == sorted(cut.x)

    def test_mixed_separating_sets_of_figure1(self):
        j = cons.figure1_join(False)
        pairs = conn.mixed_separating_sets(j.graph)
        estar_ref = j.graph.edge_ref(j.estar)
        assert (j.vstar, estar_ref) in pairs
        assert pairs == sorted(pairs, key=lambda p: (p[1], p[0]))

    def test_mixed_separating_sets_require_connected(self):
        with pytest.raises(ValueError, match="connected"):
            conn.mixed_separating_sets(Hypergraph.of(4, [(0, 1), (2, 3)]))


def _cut_edges(g: Hypergraph, v: int) -> list[int]:
    """The cut edge nodes of the incidence graph with v deleted."""
    count = conn._articulation(g, v)[1]
    return [ref for ref in range(g.m) if count[g.n + ref] > 1]


def _bridges_without_by_definition(g: Hypergraph, v: int) -> list[int]:
    """Edges e such that G - v - e has more components than G - v."""
    base = len(conn.components(g.div_vertices([v]).graph))
    return [
        ref for ref in range(g.m)
        if len(conn.components(g.delete_edge(ref).div_vertices([v]).graph)) > base
    ]


def _disconnecting_edges(g: Hypergraph) -> list[int]:
    return [ref for ref in range(g.m) if not conn.is_connected(g.delete_edge(ref))]


class TestBridgesWithout:
    @given(hypergraphs(min_n=1, max_n=8, sizes=(2, 3, 4)))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_definition(self, g):
        for v in range(g.n):
            assert _cut_edges(g, v) == _bridges_without_by_definition(g, v), v

    def test_gives_the_mixed_pairs_of_bridgeless_2_connected_graphs(self):
        """Nested joins and their one-edge perturbations that stay
        2-connected with no bridge edge: (v, e) is a mixed pair exactly
        when e is among v's bridges."""
        graphs = [
            random_nested_join(random.Random(seed), k, 18, 8)
            for k in (3, 4, 5) for seed in range(6)
        ] + [perturbed_join(random.Random(seed), k) for k in (3, 4, 5) for seed in range(20)]
        checked = 0
        for g in graphs:
            if conn.separating_vertices(g) or _disconnecting_edges(g):
                continue
            pairs = sorted(
                ((v, ref) for v in range(g.n) for ref in _cut_edges(g, v)),
                key=lambda p: (p[1], p[0]),
            )
            assert pairs == conn.mixed_separating_sets(g)
            checked += 1
        assert checked >= 40

    def test_a_disconnecting_edge_is_not_a_mixed_pair(self):
        """Deleting the edge e = (0, 1, 2) disconnects a 2-connected
        graph.  It disconnects G - 0 too, but 0 does not separate G - e."""
        g = Hypergraph.of(4, [(0, 1, 2), (0, 3), (1, 3)])
        assert not conn.separating_vertices(g) and _disconnecting_edges(g) == [0]
        assert _cut_edges(g, 0) == [0, 2]
        assert (0, 0) not in conn.mixed_separating_sets(g)
        assert {(0, 2), (3, 0)} <= set(conn.mixed_separating_sets(g))


def test_randomized_flow_oracle_consistency():
    rng = random.Random(7)
    for _ in range(40):
        g = seeded_random_hypergraph(rng, rng.randint(2, 6), (2, 3), 8)
        v, w = rng.sample(range(g.n), 2)
        assert conn.local_edge_connectivity(g, v, w).value == oracles.brute_local_lambda(g, v, w)
