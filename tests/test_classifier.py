import collections
import dataclasses
import importlib.util
import itertools
import json
import random
import sys
import types
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hyperchrome.hypercore import Hypergraph
from hyperchrome import classifier as cls
from hyperchrome import coloring as col
from hyperchrome import connectivity as conn
from hyperchrome import constructions as cons
from hyperchrome import corpus
from hyperchrome import shapes

import oracles
from conftest import hypergraphs, perturb, random_nested_join, seeded_random_hypergraph
from conftest import perturbed_join as _perturbed_join
from test_acceptance import _all_hypergraphs


class TestCertificateReplay:
    def test_wheel_leaf(self):
        leaf = cls.Leaf("odd_wheel", (0, 1, 2, 3, 4, 5))
        assert cls.verify_certificate(cons.odd_wheel(5), leaf)

    def test_complete_leaf(self):
        leaf = cls.Leaf("complete", (0, 1, 2, 3, 4))
        assert cls.verify_certificate(cons.complete_graph(5), leaf)

    def test_wrong_graph_fails(self):
        leaf = cls.Leaf("complete", (0, 1, 2, 3))
        assert not cls.verify_certificate(cons.cycle(4), leaf)

    def test_join_node_replays_figure1(self):
        for include in (True, False):
            j = cons.figure1_join(include)
            cert = cls.Join(
                cls.Leaf("complete", tuple(j.g1_map)),
                cls.Leaf("complete", tuple(j.g2_map)),
                j.vstar,
                (0, 1),
                tuple(sorted((j.vstar, j.g2_map[1]))),
                include,
            )
            assert cls.verify_certificate(j.graph, cert)

    def test_join_invariants_enforced(self):
        bad = cls.Join(
            cls.Leaf("complete", (0, 1, 2, 3)),
            cls.Leaf("complete", (2, 3, 4, 5)),  # overlap {2,3}, not one vertex
            2,
            (0, 2),
            (2, 4),
            False,
        )
        with pytest.raises(cls.CertificateError):
            cls.replay_certificate(bad)

    def test_leaf_validation(self):
        with pytest.raises(cls.CertificateError):
            cls.Leaf("odd_wheel", (0, 1, 2, 3, 4))  # odd order
        with pytest.raises(cls.CertificateError):
            cls.Leaf("triangle", (0, 1, 2))
        with pytest.raises(cls.CertificateError):
            cls.Leaf("complete", (0, 0, 1))

    def test_json_round_trip(self):
        cert = cls.hk_certificate(cons.figure1_join(True).graph, 3)
        blob = json.dumps(cls.certificate_to_json(cert))
        assert cls.certificate_from_json(json.loads(blob)) == cert

    def test_malformed_json(self):
        with pytest.raises(cls.CertificateError):
            cls.certificate_from_json({"type": "mystery"})
        with pytest.raises(cls.CertificateError):
            cls.certificate_from_json({"type": "join"})


class TestMembership:
    def test_w5_in_c3(self):
        assert cls.is_in_Ck(cons.odd_wheel(5), 3)

    def test_k5_in_c4(self):
        assert cls.is_in_Ck(cons.complete_graph(5), 4)

    def test_c7_not_in_c3(self):
        assert not cls.is_in_Ck(cons.cycle(7), 3)

    def test_toft_not_in_c3(self):
        # 4-critical but lambda = 4 exceeds the bound
        assert not cls.is_in_Ck(cons.toft_graph(1), 3)

    def test_k_below_three_refused(self):
        with pytest.raises(ValueError):
            cls.is_in_Ck(cons.hyperwheel(3), 2)

    def test_pinned_to_the_semantic_reference(self):
        """``is_in_Ck`` reads the certifier; pin it to the semantic
        definition on members and non-members alike."""
        verdicts = collections.Counter()
        for k, g in _membership_sweep():
            member = oracles.reference_is_in_Ck(g, k)
            assert cls.is_in_Ck(g, k) == member, (k, g)
            verdicts[member] += 1
        assert verdicts[True] >= 100 and verdicts[False] >= 100, verdicts

    def test_pinned_on_the_criterion_02_sweep(self):
        """The graphs of the acceptance test's criterion 02, whose right
        hand side reads ``is_in_Ck``, and their blocks."""
        checked = 0
        for g in _criterion_02_sweep():
            lam = conn.max_local_edge_connectivity(g) if conn.is_connected(g) else 0
            for h in [g] + [b.graph(g) for b in conn.blocks(g) if b.edge_refs]:
                for k in sorted({3, 4, 5, max(lam, 3)}):
                    assert cls.is_in_Ck(h, k) == oracles.reference_is_in_Ck(h, k), (k, h)
                    checked += 1
        assert checked >= 10_000

    def test_reads_only_the_certifier(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("is_in_Ck ran an oracle")

        for owner, name in [
            (col, "chromatic_number"), (col, "is_critical"), (conn, "max_local_edge_connectivity"),
        ]:
            monkeypatch.setattr(owner, name, refuse)
        verdicts = collections.Counter(cls.is_in_Ck(g, k) for k, g in _membership_sweep())
        assert verdicts[True] >= 100 and verdicts[False] >= 100, verdicts

    def test_odd_wheel_past_the_chi_guard(self):
        g = cons.odd_wheel(29)
        assert cls.is_in_Ck(g, 3)
        with pytest.raises(col.GuardExceeded):
            oracles.reference_is_in_Ck(g, 3)


def _membership_sweep():
    """Nested joins at k = 3, 4, 5 with v* kept on and dropped from every
    merged edge, each followed by a one-edge perturbation of it."""
    for k, n_max in ((3, 20), (4, 17), (5, 16)):
        for include in (True, False):
            for seed in range(20):
                rng = random.Random(seed)
                g = random_nested_join(rng, k, n_max, 8, include)
                yield k, g
                yield k, perturb(rng, g)


def _criterion_02_sweep():
    for n in range(1, 5):
        yield from _all_hypergraphs(n, (2, 3))
    rng = random.Random(2)
    for n in (5, 6, 7):
        for _ in range(400):
            yield seeded_random_hypergraph(rng, n, (2, 3), 14)


def _subtrees(cert):
    stack = [cert]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, cls.Join):
            stack += [node.left, node.right]


def _replayed_graph(cert) -> Hypergraph:
    vs, es = cls.replay_certificate(cert)
    pos = {v: i for i, v in enumerate(sorted(vs))}
    return Hypergraph.of(len(vs), [[pos[v] for v in e] for e in es])


def _count_passes(monkeypatch) -> collections.Counter:
    """Count the articulation passes: "block" for the block passes of G
    or of G - e, "vertex" for the per-vertex passes on G - v."""
    passes = collections.Counter()
    search = conn._articulation

    def counted(g, dead=None):
        passes["vertex" if dead is not None and dead < g.n else "block"] += 1
        return search(g, dead)

    monkeypatch.setattr(conn, "_articulation", counted)
    return passes


def _count_flow_nets(monkeypatch) -> list:
    """Record the hypergraph of every flow network built."""
    built = []

    class Counted(conn._FlowNet):
        def __init__(self, g):
            built.append(g)
            super().__init__(g)

    monkeypatch.setattr(conn, "_FlowNet", Counted)
    return built


class TestHkCertificate:
    def test_wheel_leaves(self):
        for rim in (3, 5, 7):
            cert = cls.hk_certificate(cons.odd_wheel(rim), 3)
            assert isinstance(cert, cls.Leaf)

    def test_k5_join_k5(self):
        k5 = cons.complete_graph(5)
        j = cons.hajos_join(cons.HajosJoinSpec(k5, k5, 0, 0, 0, 0, False))
        cert = cls.hk_certificate(j.graph, 4)
        assert isinstance(cert, cls.Join)
        assert isinstance(cert.left, cls.Leaf) and isinstance(cert.right, cls.Leaf)

    def test_three_leaf_tree(self):
        rng = random.Random(5)
        w5 = cons.odd_wheel(5)
        g = w5
        for _ in range(2):
            g = cons.hajos_join(
                cons.HajosJoinSpec(g, w5, 0, 0, 0, 0, False)
            ).graph
        cert = cls.hk_certificate(g, 3)
        assert cert is not None

        def leaves(c):
            if isinstance(c, cls.Leaf):
                return 1
            return leaves(c.left) + leaves(c.right)

        assert leaves(cert) == 3

    def test_none_outside_class(self):
        assert cls.hk_certificate(cons.cycle(7), 3) is None

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_nested_joins_certify(self, seed):
        rng = random.Random(seed)
        k = rng.choice([3, 3, 4])
        g = random_nested_join(rng, k, 16, rng.randint(1, 3))
        cert = cls.hk_certificate(g, k)
        assert cert is not None
        assert cls.verify_certificate(g, cert)

    @pytest.mark.parametrize("k,seed", [(k, seed) for k in (3, 4, 5) for seed in range(4)])
    def test_every_subtree_is_in_the_class(self, k, seed):
        """The builder trusts join closure instead of re-checking each
        operand, and takes a separating (vertex, edge) pair to mean a
        join: pin both against the membership oracle and the separator
        enumerator."""
        g = random_nested_join(random.Random(seed), k, 16, 3)
        cert = cls.hk_certificate(g, k)
        assert isinstance(cert, cls.Join)
        for node in _subtrees(cert):
            sub = _replayed_graph(node)
            assert oracles.reference_is_in_Ck(sub, k)
            assert isinstance(node, cls.Join) == bool(conn.enumerate_separating_sets(sub, 2))


    @pytest.mark.parametrize("k,seed", [(k, seed) for k in (3, 4, 5) for seed in range(4)])
    def test_first_mixed_pair_is_the_listed_first(self, k, seed):
        """The builder takes the first pair from one articulation pass
        per vertex of degree > k instead of listing every pair."""
        g = random_nested_join(random.Random(seed), k, 16, 3)
        for node in _subtrees(cls.hk_certificate(g, k)):
            sub = _replayed_graph(node)
            listed = conn.mixed_separating_sets(sub)
            assert cls._first_mixed_pair(sub, k) == (listed[0] if listed else None)


def _tight_joins(seed: int) -> list:
    """The benchmark's ``tight-joins`` instances for a seed, as
    (k, hypergraph) pairs."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    workloads = sys.modules.get("perfbench_workloads")
    if workloads is None:
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    prog = types.SimpleNamespace(constructions=cons)
    items = workloads.tight_joins(prog, seed, None).items
    return [(inst.k, Hypergraph.of(inst.n, inst.edges)) for inst in items]


class TestFirstMixedPair:
    """The certifier looks for its mixed pair (v, e) only at vertices of
    degree > k: in a (k+1)-critical hypergraph with k >= 3 the vertex of
    every mixed pair has degree at least 2k - 2 >= k + 1."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([3, 4, 5]), st.booleans())
    def test_mixed_pair_vertices_have_degree_at_least_2k_minus_2(self, seed, k, include):
        g = random_nested_join(random.Random(seed), k, 20, 8, include)
        deg = [len(refs) for refs in g.incidence]
        pairs = conn.mixed_separating_sets(g)
        assert pairs or g.n == k + 1 or k == 3 and shapes.is_odd_wheel(g)
        for v, _ in pairs:
            assert deg[v] >= 2 * k - 2, (v, g)

    def test_first_pair_is_the_listed_first_at_every_node(self, monkeypatch):
        """At every node the certifier visits on nested joins and their
        perturbations, the first pair is the first listed one wherever
        the node is a member.  On other nodes it may differ, and the
        certifier returns None there either way."""
        nodes = []
        certify = cls._certify

        def recorded(g, k, ids):
            cert = certify(g, k, ids)
            nodes.append((g, k, cert is not None))
            return cert

        monkeypatch.setattr(cls, "_certify", recorded)
        for k, g in _membership_sweep():
            cls.hk_certificate(g, k)
        joins = 0
        verdicts = collections.Counter()
        for g, k, certified in list(nodes):
            member = certified or conn.is_connected(g) and oracles.reference_is_in_Ck(g, k)
            assert certified == member, (k, g)
            verdicts[member] += 1
            if member:
                listed = conn.mixed_separating_sets(g)
                assert cls._first_mixed_pair(g, k) == (listed[0] if listed else None), (k, g)
                joins += bool(listed)
        assert joins >= 300 and verdicts[False] >= 100, (joins, verdicts)

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_a_vertex_below_degree_k_ends_the_search_without_a_pass(self, k, monkeypatch):
        """Members are (k+1)-critical, so their minimum degree is k."""
        g = random_nested_join(random.Random(k), k, 20, 8)
        assert cls._first_mixed_pair(g, k) is not None
        passes = _count_passes(monkeypatch)
        cut = g.delete_edge(0)
        assert min(len(refs) for refs in cut.incidence) == k - 1
        assert cls._first_mixed_pair(cut, k) is None and not passes
        assert cls.hk_certificate(cut, k) is None

    def test_one_pass_per_high_degree_vertex_on_tight_joins(self, monkeypatch):
        """On the benchmark's seed-1 ``tight-joins`` pass, each join node
        makes at most one articulation pass per vertex of degree > k and
        no block pass, and at most two passes on average."""
        passes = _count_passes(monkeypatch)
        first_pair = cls._first_mixed_pair
        join_nodes = bridge_passes = 0

        def counted(g, k):
            nonlocal join_nodes, bridge_passes
            before = passes["vertex"]
            pair = first_pair(g, k)
            made = passes["vertex"] - before
            assert made <= sum(len(refs) > k for refs in g.incidence)
            if pair is not None:
                join_nodes += 1
                bridge_passes += made
            return pair

        monkeypatch.setattr(cls, "_first_mixed_pair", counted)
        instances = _tight_joins(1)
        for k, g in instances:
            out = cls.classify(g)
            assert out.verdict == "tight" and out.lam == k
        assert passes["block"] == len(instances)  # the blocks of each input
        assert join_nodes >= 50
        assert bridge_passes <= 2 * join_nodes, (bridge_passes, join_nodes)


class TestHkCertificateByReplay:
    """``hk_certificate`` decides membership by its replay alone."""

    @pytest.mark.parametrize(
        "g,k",
        [(cons.complete_graph(n), n - 1) for n in range(4, 10)]
        + [(cons.odd_wheel(rim), 3) for rim in range(3, 23, 2)],
    )
    def test_base_shape_makes_no_block_pass(self, g, k, monkeypatch):
        passes = _count_passes(monkeypatch)
        cert = cls.hk_certificate(g, k)
        assert isinstance(cert, cls.Leaf) and cls.verify_certificate(g, cert)
        assert not passes
        assert not conn.mixed_separating_sets(g)  # the leaf skipped no join

    def test_agrees_with_the_membership_oracle(self):
        verdicts = collections.Counter()
        for k in (3, 4, 5):
            for seed in range(134):
                g = _perturbed_join(random.Random(1000 * k + seed), k)
                member = oracles.reference_is_in_Ck(g, k)
                assert (cls.hk_certificate(g, k) is not None) == member, (k, seed)
                verdicts[member] += 1
        assert verdicts[True] >= 20 and verdicts[False] >= 300, verdicts

    def test_no_oracle_chi_or_lambda(self, monkeypatch):
        calls = collections.Counter()
        for owner, name in [
            (cls, "is_in_Ck"), (col, "chromatic_number"), (col, "is_critical"),
            (conn, "max_local_edge_connectivity"),
        ]:
            monkeypatch.setattr(owner, name, lambda *a, _name=name, **kw: calls.update([_name]))
        verdicts = collections.Counter()
        for seed in range(30):
            k = 3 + seed % 3
            for g in (random_nested_join(random.Random(seed), k, 14, 2),
                      _perturbed_join(random.Random(seed), k)):
                verdicts[cls.hk_certificate(g, k) is not None] += 1
        assert verdicts[True] >= 30 and verdicts[False] >= 20, verdicts
        assert not calls

    def test_every_node_wheel_layout_matches_the_reference(self, monkeypatch):
        """The rim walk gives the layout of the recognition it replaced
        at every node the certifier visits."""
        nodes = []
        certify = cls._certify

        def recorded(g, k, ids):
            nodes.append(g)
            return certify(g, k, ids)

        monkeypatch.setattr(cls, "_certify", recorded)
        for k in (3, 4, 5):
            for seed in range(6):
                for include in (True, False):
                    g = random_nested_join(random.Random(seed), k, 20, 8, include)
                    assert cls.hk_certificate(g, k) is not None
        wheels = 0
        for g in nodes:
            leaf = oracles.reference_wheel_leaf(g, range(g.n))
            assert shapes._odd_wheel_layout(g) == (leaf and leaf.labels), g
            wheels += leaf is not None
        assert wheels >= 30 and len(nodes) - wheels >= 30

    def test_wheel_leaf_derives_no_hypergraph(self, monkeypatch):
        """An odd wheel is recognised from degree counts and one rim
        walk: no induced rim, no block pass, and no component search
        beyond the root's connectivity test."""
        calls = collections.Counter()
        induced, pieces = Hypergraph.induced, conn._pieces
        whole = conn._whole_graph_blocks

        def counted_induced(*args, **kwargs):
            calls["induced"] += 1
            return induced(*args, **kwargs)

        def counted_pieces(*args, **kwargs):
            calls["pieces"] += 1
            return pieces(*args, **kwargs)

        def counted_whole(*args, **kwargs):
            calls["blocks"] += 1
            return whole(*args, **kwargs)

        monkeypatch.setattr(Hypergraph, "induced", counted_induced)
        monkeypatch.setattr(conn, "_pieces", counted_pieces)
        monkeypatch.setattr(conn, "_whole_graph_blocks", counted_whole)
        g = cons.odd_wheel(21)
        assert isinstance(cls._build_certificate(g, 3, range(g.n)), cls.Leaf)
        assert calls == {}
        assert isinstance(cls.hk_certificate(g, 3), cls.Leaf)
        assert calls == {"pieces": 1}

    def test_past_the_chi_guard(self):
        g = cons.odd_wheel(29)
        assert g.n == 30
        cert = cls.hk_certificate(g, 3)
        assert isinstance(cert, cls.Leaf) and cls.verify_certificate(g, cert)

    def test_disconnected_is_none(self):
        two_k4 = Hypergraph.of(8, list(K4.edges) + [tuple(v + 4 for v in e) for e in K4.edges])
        assert cls.hk_certificate(two_k4, 3) is None
        assert cls.hk_certificate(Hypergraph.of(0), 3) is None


def _extract_critical_restarting(g, target_chi):
    """The edge scan before it resumed at the deleted index: restart at
    edge 0 after every deletion; the rest as in ``extract_critical``."""
    if col.chromatic_number(g) != target_chi:
        raise ValueError(f"chromatic number is not {target_chi}")
    cur = g
    progress = True
    while progress:
        progress = False
        for ref in range(cur.m):
            if col.find_k_coloring(cur.delete_edge(ref), target_chi - 1) is None:
                cur = cur.delete_edge(ref)
                progress = True
                break
    covered = sorted({v for e in cur.edges for v in e})
    sub, old = cur.induced(covered)
    for comp in conn.components(sub):
        csub, cold = sub.induced(comp)
        if col.chromatic_number(csub) == target_chi:
            return csub, tuple(old[v] for v in cold)
    raise AssertionError("no component kept the chromatic number")


def _pinned_extraction(g, chi, force=False):
    """extract_critical(g, chi), pinned to the restarting scan of
    ``oracles.reference_extract_critical``, with the coloring searches
    (``coloring._colorings`` calls) each of them made."""
    calls = [0]
    search = col._colorings

    def counted(*args, **kwargs):
        calls[0] += 1
        return search(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(col, "_colorings", counted)
        crit = cls.extract_critical(g, chi, force=force)
        scan = calls[0]
        want = oracles.reference_extract_critical(g, chi, force=force)
    assert crit == want, g
    return crit, scan, calls[0] - scan


def _padded(base, length):
    """base with a pendant path of ``length`` edges out of vertex 0."""
    n = base.n
    path = [(0 if i == 0 else n + i - 1, n + i) for i in range(length)]
    return Hypergraph.of(n + length, list(base.edges) + path)


class TestExtractCritical:
    @settings(max_examples=150, deadline=None)
    @given(hypergraphs(max_n=7, sizes=(2, 3, 4)))
    def test_matches_the_restarting_reference(self, g):
        _, scan, restart = _pinned_extraction(g, col.chromatic_number(g))
        assert scan <= restart

    def test_glued_instances_match_the_restarting_reference(self):
        fewer = 0
        for seed in range(60):
            g = glued_instance(random.Random(seed))
            chi = col.chromatic_number(g, force=True)
            _, scan, restart = _pinned_extraction(g, chi, force=True)
            assert scan <= restart, seed
            fewer += scan < restart
        assert fewer >= 40
        # the 3-chromatic blocks of glued lambda = 2 instances
        parts = [
            cons.cycle(3), cons.cycle(4), cons.cycle(5), cons.hyperwheel(3),
            cons.hyperwheel(4), cons.figure3(), Hypergraph.of(3, [(0, 1, 2)]),
        ]
        pinned = 0
        for seed in range(40):
            rng = random.Random(seed)
            g = _pendant_tree(_glue(rng.sample(parts, rng.randint(1, 3)), rng), rng, 2)
            out = cls.classify(g)
            if out.lam != 2 or out.chi != 3:
                continue
            for b in conn.blocks(g):
                sub = b.graph(g)
                if col.chromatic_number(sub) == 3:
                    _, scan, restart = _pinned_extraction(sub, 3)
                    assert scan <= restart, seed
                    pinned += 1
        assert pinned >= 50

    @pytest.mark.parametrize("length", [1, 3, 8])
    @pytest.mark.parametrize("base", ["K4", "toft1", "toft2"])
    def test_padded_members_match_the_restarting_reference(self, base, length):
        g = {"K4": K4, "toft1": cons.toft_graph(1), "toft2": cons.toft_graph(2)}[base]
        crit, scan, restart = _pinned_extraction(_padded(g, length), 4)
        assert crit.graph == g and crit.old_ids == tuple(range(g.n))
        assert scan < restart

    def test_k4_with_a_long_path_scans_once(self):
        # the restarting scan made 53 searches here
        path = [(v, v + 1) for v in range(3, 29)]
        g = Hypergraph.of(30, list(K4.edges) + path)
        crit, scan, restart = _pinned_extraction(g, 4)
        assert crit.old_ids == (0, 1, 2, 3)
        assert scan <= 27 and restart == 53

    @pytest.mark.parametrize("k,seed", [(k, seed) for k in (3, 4) for seed in range(6)])
    def test_one_pass_matches_restarting_scan(self, k, seed, monkeypatch):
        g = random_nested_join(random.Random(seed), k, 16, 3)
        # a spare 3-edge path between vertices 0 and 1 that the scan deletes
        a, b = g.n, g.n + 1
        g = Hypergraph.of(g.n + 2, list(g.edges) + [(0, a), (a, b), (1, b)])
        # every search of both scans, chi's and the edge tests', starts here
        calls = collections.Counter()
        search = col._colorings

        def counted(*args, **kwargs):
            calls[mode] += 1
            return search(*args, **kwargs)

        monkeypatch.setattr(col, "_colorings", counted)
        mode = "resume"
        crit = cls.extract_critical(g, k + 1)
        mode = "restart"
        assert tuple(crit) == _extract_critical_restarting(g, k + 1)
        assert calls["resume"] < calls["restart"]


    def test_k4_plus_pendant(self):
        g = Hypergraph.of(5, list(cons.complete_graph(4).edges) + [(3, 4)])
        crit = cls.extract_critical(g, 4)
        assert crit.graph == cons.complete_graph(4)
        assert crit.old_ids == (0, 1, 2, 3)

    def test_two_disjoint_k4_is_deterministic(self):
        # lowest-index edge deletions strip the first K4 (the second
        # keeps chi at 4), so the second K4 is the surviving component
        edges = list(cons.complete_graph(4).edges)
        edges += [tuple(v + 4 for v in e) for e in cons.complete_graph(4).edges]
        g = Hypergraph.of(8, edges)
        crit, scan, restart = _pinned_extraction(g, 4)
        assert crit.old_ids == (4, 5, 6, 7)
        assert crit.graph == cons.complete_graph(4)
        assert scan <= restart

    def test_chi_mismatch(self):
        with pytest.raises(ValueError):
            cls.extract_critical(cons.complete_graph(4), 3)

    def test_edges_left_in_two_components_are_internal(self, monkeypatch):
        # a scan that deletes nothing leaves both K4 of two disjoint K4
        g = Hypergraph.of(8, list(K4.edges) + [tuple(v + 4 for v in e) for e in K4.edges])
        monkeypatch.setattr(col, "_failing_edges", lambda g, k, force: iter(()))
        with pytest.raises(cls.InternalError, match="form 2 components"):
            cls.extract_critical(g, 4)

    def test_theorem_critical_input_is_returned_without_a_search(self, monkeypatch):
        # the k = 4, n = 41 join is in the class at 4, so 5-critical
        g = random_nested_join(random.Random(1), 4, 41, 10**6)
        assert (g.n, g.m) == (41, 91)

        def refused(*args, **kwargs):
            raise AssertionError("a coloring search ran")

        monkeypatch.setattr(col, "_colorings", refused)
        crit = cls.extract_critical(g, 5)
        assert crit.graph == g and crit.old_ids == tuple(range(41))
        with pytest.raises(ValueError, match="not 4"):
            cls.extract_critical(g, 4)

    def test_size_guard_before_the_edge_scan(self, monkeypatch):
        # chi comes from the join block with no search, but the join
        # with a pendant edge is not critical, and the scan's first
        # search is the one that passes a cap of 0 decisions
        join = random_nested_join(random.Random(1), 4, 41, 10**6)
        g = Hypergraph.of(42, list(join.edges) + [(0, 41)])
        searches = []
        search = col._colorings

        def counted(*args, **kwargs):
            searches.append(kwargs.get("skip"))
            return search(*args, **kwargs)

        monkeypatch.setattr(col, "_colorings", counted)
        monkeypatch.setattr(col, "SEARCH_GUARD", 0)
        with pytest.raises(col.GuardExceeded, match="passed 0 decisions without force"):
            cls.extract_critical(g, 5)
        assert searches == [0]

    def test_force_passes_the_size_guard(self, monkeypatch):
        # K4 with a pendant path out to 30 vertices: chi from the
        # theorem, and each search of the scan is quick, so the real cap
        # passes it; a cap of 0 refuses it unless force lifts it
        path = [(v, v + 1) for v in range(3, 29)]
        g = Hypergraph.of(30, list(cons.complete_graph(4).edges) + path)
        crit = cls.extract_critical(g, 4)
        assert crit.graph == cons.complete_graph(4)
        assert crit.old_ids == (0, 1, 2, 3)
        monkeypatch.setattr(col, "SEARCH_GUARD", 0)
        with pytest.raises(col.GuardExceeded):
            cls.extract_critical(g, 4)
        assert cls.extract_critical(g, 4, force=True) == crit

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_result_is_always_critical(self, seed):
        rng = random.Random(seed)
        g = seeded_random_hypergraph(rng, rng.randint(1, 7), (2, 3), 10)
        chi = col.chromatic_number(g)
        crit = cls.extract_critical(g, chi)
        assert col.is_critical(crit.graph, chi).is_critical


def _relabel(cert, new_of_old):
    """A certificate moved to other target ids, as ``classify`` built its
    certificates before they were built in the block's ids directly."""
    if isinstance(cert, cls.Leaf):
        return cls.Leaf(cert.kind, tuple(new_of_old[v] for v in cert.labels))
    return cls.Join(
        _relabel(cert.left, new_of_old),
        _relabel(cert.right, new_of_old),
        new_of_old[cert.vstar],
        tuple(sorted(new_of_old[v] for v in cert.e1)),
        tuple(sorted(new_of_old[v] for v in cert.e2)),
        cert.include_vstar,
    )


def _classify_by_extraction(g):
    """``classify`` as it found the tight block before certifying the
    blocks directly: ``extract_critical``'s edge scan, a check that the
    result is a whole block, then a certificate relabelled to its ids."""
    lam = conn.max_local_edge_connectivity(g)
    if lam < 3 or col.find_k_coloring(g, lam) is not None:
        return cls.classify(g)
    crit = cls.extract_critical(g, lam + 1)
    assert any(b.vertices == crit.old_ids for b in conn.blocks(g))
    assert g.induced(crit.old_ids).graph == crit.graph
    cert = cls._build_certificate(crit.graph, lam, range(crit.graph.n))
    return cls.ClassifyOutcome(
        lam, lam + 1, "tight", block=crit.old_ids, certificate=_relabel(cert, crit.old_ids)
    )


def _glue(parts, rng):
    """The parts on one vertex set: each part after the first shares one
    vertex with the graph so far, or hangs on it by a bridging edge."""
    g = parts[0]
    for part in parts[1:]:
        u, w = rng.randrange(g.n), rng.randrange(part.n)
        share = rng.random() < 0.7
        ids = [0] * part.n
        nxt = g.n
        for v in range(part.n):
            if share and v == w:
                ids[v] = u
            else:
                ids[v], nxt = nxt, nxt + 1
        edges = list(g.edges) + [[ids[v] for v in e] for e in part.edges]
        if not share:
            edges.append((u, ids[w]))
        g = Hypergraph.of(nxt, edges)
    return g


def _pendant_tree(g, rng, size):
    edges, n = list(g.edges), g.n
    for _ in range(size):
        edges.append((rng.randrange(n), n))
        n += 1
    return Hypergraph.of(n, edges)


K4, K5, W5 = cons.complete_graph(4), cons.complete_graph(5), cons.odd_wheel(5)
OCTAHEDRON = Hypergraph.of(
    6, [e for e in itertools.combinations(range(6), 2) if e not in ((0, 1), (2, 3), (4, 5))]
)


def glued_instance(rng, n_max=18):
    """Two to four parts glued into a multi-block hypergraph, plus a
    pendant tree.  The parts are drawn so that tight, colourable and
    small-lambda verdicts all occur, tight ones often with several blocks
    in the class; a colourable instance starts from a 4-connected part
    that is not 5-chromatic, so its lambda leaves K4 and W5 outside."""
    def sparse():
        return rng.choice([
            cons.cycle(4), cons.cycle(5), cons.hyperwheel(3), cons.hyperwheel(4),
            seeded_random_hypergraph(rng, rng.randint(2, 5), (2, 3), 4),
        ])

    def member():
        return rng.choice([
            K4, K5, W5, cons.odd_wheel(7),
            random_nested_join(rng, 3, 10, 1), random_nested_join(rng, 4, 9, 1),
        ])

    kind = rng.choice(["tight", "colorable", "small"])
    if kind == "tight":
        parts, draw = [member()], lambda: member() if rng.random() < 0.6 else sparse()
    elif kind == "colorable":
        parts, draw = [rng.choice([OCTAHEDRON, cons.toft_graph(1)])], lambda: rng.choice([K4, W5, sparse()])
    else:
        parts, draw = [sparse()], sparse
    for _ in range(rng.randint(1, 3)):
        part = draw()
        if sum(p.n for p in parts) + part.n > n_max:
            break
        parts.append(part)
    rng.shuffle(parts)
    return _pendant_tree(_glue(parts, rng), rng, rng.randint(0, 3))


def _member_blocks(g, lam):
    return [
        b for b in conn.blocks(g)
        if b.edge_refs and cls.hk_certificate(b.graph(g), lam) is not None
    ]


def test_block_graphs_of_glued_instances_are_canonical():
    """A block's graph, built without the constructor's checks, equals
    the value ``Hypergraph.of`` builds from the same edges."""
    multi = 0
    for seed in range(300):
        g = glued_instance(random.Random(seed))
        for b in conn.blocks(g):
            pos = {v: i for i, v in enumerate(b.vertices)}
            want = Hypergraph.of(len(b.vertices), [[pos[v] for v in g.edges[r]] for r in b.edge_refs])
            assert b.graph(g) == want and hash(b.graph(g)) == hash(want), seed
            multi += len(b.edge_refs) > 1
    assert multi >= 600


class TestTightBlockByCertification:
    """The tight block comes from certifying the blocks; pin it to the
    block that ``extract_critical`` keeps."""

    @pytest.mark.parametrize(
        "parts", [(K4, K4), (W5, K4), (K4, W5), (K5, K5), (K4, K4, K4)],
        ids=["k4-k4", "w5-k4", "k4-w5", "k5-k5", "k4-k4-k4"],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_several_member_blocks(self, parts, seed):
        rng = random.Random(seed)
        g = _pendant_tree(_glue(list(parts), rng), rng, 2)
        out = cls.classify(g)
        assert out.verdict == "tight"
        assert len(_member_blocks(g, out.lam)) >= 2
        assert out == _classify_by_extraction(g)

    def test_seeded_glued_instances(self):
        verdicts = collections.Counter()
        several = 0
        for seed in range(240):
            g = glued_instance(random.Random(seed))
            out = cls.classify(g)
            assert out == _classify_by_extraction(g), seed
            verdicts[out.verdict] += 1
            if out.verdict == "tight":
                several += len(_member_blocks(g, out.lam)) >= 2
        assert min(verdicts.values()) >= 20, verdicts
        assert several >= 10

    @settings(max_examples=60, deadline=None)
    @given(hypergraphs())
    def test_hypergraphs(self, g):
        assert cls.classify(g) == _classify_by_extraction(g)

    def test_certificate_in_target_ids_equals_relabelled(self):
        for seed in range(6):
            g = random_nested_join(random.Random(seed), 3, 16, 3)
            ids = random.Random(seed).sample(range(100), g.n)
            direct = cls._build_certificate(g, 3, ids)
            assert direct == _relabel(cls._build_certificate(g, 3, range(g.n)), ids)

    def test_outside_the_class_is_none(self):
        assert cls._build_certificate(cons.cycle(7), 3, range(7)) is None
        assert cls._build_certificate(cons.toft_graph(1), 3, range(12)) is None
        assert cls._build_certificate(K4, 4, range(4)) is None


class TestClassify:
    def test_k1(self):
        out = cls.classify(Hypergraph.of(1))
        assert out.verdict == "small-lambda" and out.lam == 0 and out.chi == 1

    def test_edgeless_past_the_chi_guard(self):
        out = cls.classify(Hypergraph.of(30))
        assert out.verdict == "small-lambda" and out.lam == 0 and out.chi == 1

    def test_tree(self):
        g = Hypergraph.of(4, [(0, 1), (1, 2), (1, 3)])
        out = cls.classify(g)
        assert out.verdict == "small-lambda" and out.lam == 1 and out.chi == 2

    def test_w5_tight(self):
        out = cls.classify(cons.odd_wheel(5))
        assert out.verdict == "tight"
        assert out.block == tuple(range(6))
        assert cls.certificate_matches(
            out.certificate, range(6), cons.odd_wheel(5).edges
        )

    def test_a_block_that_is_the_whole_input_is_not_rebuilt(self, monkeypatch):
        """A 2-connected input is its own only block and is certified as
        given; a block of a larger input is still built from it."""
        rebuilt = []
        graph = conn.Block.graph

        def recorded(b, g):
            rebuilt.append(b.vertices)
            return graph(b, g)

        monkeypatch.setattr(conn.Block, "graph", recorded)
        g = random_nested_join(random.Random(3), 4, 13, 2)
        out = cls.classify(g)
        assert out.verdict == "tight" and out.block == tuple(range(g.n)) and not rebuilt
        assert cls.verify_certificate(g, out.certificate)
        padded = Hypergraph.of(g.n + 1, list(g.edges) + [(0, g.n)])
        assert cls.classify(padded) == out
        assert rebuilt == [tuple(range(g.n))]

    def test_w5_plus_pendant_tree(self):
        w5 = cons.odd_wheel(5)
        g = Hypergraph.of(8, list(w5.edges) + [(1, 6), (6, 7)])
        out = cls.classify(g)
        assert out.verdict == "tight"
        assert out.block == tuple(range(6))
        sub, _ = g.induced(out.block)
        assert cls.certificate_matches(out.certificate, out.block, w5.edges)

    def test_colorable_when_not_tight(self):
        out = cls.classify(cons.complete_graph(5))  # lambda 4, chi 5 -> tight
        assert out.verdict == "tight"
        out = cls.classify(cons.toft_graph(1))  # lambda 4, chi 4 -> colorable
        assert out.verdict == "colorable"
        assert out.coloring.is_valid_for(cons.toft_graph(1))

    def test_lambda2_reports_without_verdict(self):
        out = cls.classify(cons.hyperwheel(4))
        assert out.verdict == "small-lambda" and out.lam == 2 and out.chi == 3
        assert "h2_closure" not in {f.name for f in dataclasses.fields(cls.ClassifyOutcome)}

    def test_tight_classify_runs_no_flow_and_no_oracle(self, monkeypatch):
        calls = collections.Counter()

        def count(owner, name):
            orig = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return orig(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        count(conn, "max_local_edge_connectivity")
        count(cls, "is_in_Ck")
        count(conn, "enumerate_separating_sets")
        count(cls, "extract_critical")
        count(col, "chromatic_number")
        count(col, "find_k_coloring")
        nets = _count_flow_nets(monkeypatch)
        g = random_nested_join(random.Random(7), 3, 16, 3)
        out = cls.classify(g)
        assert out.verdict == "tight" and isinstance(out.certificate, cls.Join)
        # the one block certifies, so its lambda is known without a flow
        assert out.lam == 3 and not nets
        assert calls["max_local_edge_connectivity"] == 0
        assert calls["is_in_Ck"] == 0
        assert calls["enumerate_separating_sets"] == 0
        assert calls["extract_critical"] == 0
        assert calls["chromatic_number"] == 0
        # certified first, so the lambda-coloring search never runs
        assert calls["find_k_coloring"] == 0

    @pytest.mark.parametrize("other", ["cycle", "toft"])
    def test_an_uncertified_block_runs_lambda_once(self, monkeypatch, other):
        """A block with two or more edges that does not certify leaves
        lambda to the flows, run once on the whole input; the tight
        block is still the one certified at that lambda."""
        lams = []
        lam = conn.max_local_edge_connectivity

        def counted(g):
            lams.append(lam(g))
            return lams[-1]

        monkeypatch.setattr(conn, "max_local_edge_connectivity", counted)
        nets = _count_flow_nets(monkeypatch)
        part = cons.cycle(5) if other == "cycle" else cons.toft_graph(1)
        g = _glue([K5, part], random.Random(4))
        out = cls.classify(g)
        assert lams == [4] and len(nets) == 1
        assert out.verdict == "tight" and out.lam == 4 and len(out.block) == 5
        assert out == _classify_by_extraction(g)

    def test_member_blocks_alone_run_no_flow(self, monkeypatch):
        nets = _count_flow_nets(monkeypatch)
        g = _pendant_tree(_glue([K4, K5, W5], random.Random(2)), random.Random(2), 3)
        out = cls.classify(g)
        assert not nets
        assert out.verdict == "tight" and out.lam == 4
        assert out == _classify_by_extraction(g)
        assert out.lam == conn.max_local_edge_connectivity(g)

    @pytest.mark.parametrize("seed", range(40))
    def test_lambda1_is_decided_by_the_blocks(self, monkeypatch, seed):
        """A hyperforest (every block one edge) has lambda 1 and chi 2,
        pinned to the flows and the exact chromatic number, which
        ``classify`` itself no longer runs on it."""
        rng = random.Random(seed)
        n, edges = 1, []
        for _ in range(rng.randint(1, 8)):
            grow = rng.choice([1, 1, 2])
            edges.append((rng.randrange(n), *range(n, n + grow)))
            n += grow
        g = Hypergraph.of(n + rng.randint(0, 2), edges)
        nets = _count_flow_nets(monkeypatch)
        chi_calls = []
        chromatic_number = col.chromatic_number
        monkeypatch.setattr(col, "chromatic_number", lambda *a, **kw: chi_calls.append(1))
        out = cls.classify(g)
        assert not nets and not chi_calls
        monkeypatch.undo()
        assert (out.lam, out.chi, out.verdict) == (1, 2, "small-lambda")
        assert conn.max_local_edge_connectivity(g) == 1
        assert chromatic_number(g) == 2

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_never_exceeds_bound(self, seed):
        rng = random.Random(seed)
        g = seeded_random_hypergraph(rng, rng.randint(1, 8), (2, 3, 4), 12)
        out = cls.classify(g)
        assert out.chi <= out.lam + 1
        if out.verdict == "tight":
            assert out.chi == out.lam + 1
            assert col.find_k_coloring(g, out.lam) is None


def _certify_first_sweep():
    """Nested joins at k = 3, 4, 5, with v* kept on and dropped from
    every merged edge, up to the largest n at which the colour-first
    search stays fast (it is unsatisfiable on them); one-edge
    perturbations of nested joins; and criterion-01 random instances."""
    for k, n_max in ((3, 30), (4, 21), (5, 16)):
        for include in (True, False):
            for seed in range(10):
                yield k, random_nested_join(random.Random(seed), k, n_max, 8, include)
    for k in (3, 4, 5):
        for seed in range(40):
            yield k, _perturbed_join(random.Random(1000 * k + seed), k)
    rng = random.Random(20240824)
    for _ in range(150):
        yield None, corpus.random_hypergraph(rng, 12, sizes=(2, 3, 4))


class TestCertifyFirst:
    """``classify`` certifies the blocks before it searches for a
    colouring, and it is pinned to the colour-first classifier it
    replaced (``oracles.reference_classify``).  The counting filter
    ``_may_be_member`` is checked to pass every graph that certifies."""

    def test_matches_the_colour_first_reference(self):
        verdicts = collections.Counter()
        for _, g in _certify_first_sweep():
            out = cls.classify(g)
            assert out == oracles.reference_classify(g), g
            verdicts[out.verdict, out.lam >= 3] += 1
        assert verdicts["tight", True] >= 70, verdicts
        assert verdicts["colorable", True] >= 150, verdicts

    def test_every_certified_graph_passes_the_counting_filter(self):
        certified = 0
        for target, g in _certify_first_sweep():
            for k in (target,) if target else (3, 4, 5):
                cert = cls.hk_certificate(g, k)
                if cert is None:
                    continue
                certified += 1
                assert cls._may_be_member(g.n, g.m, k)
                for node in _subtrees(cert):
                    sub = _replayed_graph(node)
                    assert cls._may_be_member(sub.n, sub.m, k)
        assert certified >= 70

    def test_filter_rejects_the_7_cube_without_a_block_pass(self, monkeypatch):
        cube = Hypergraph.of(128, [(v, v | 1 << i) for v in range(128) for i in range(7)
                                   if not v >> i & 1])
        assert (cube.n, cube.m, conn.max_local_edge_connectivity(cube)) == (128, 448, 7)
        passes = _count_passes(monkeypatch)
        assert not cls._may_be_member(cube.n, cube.m, 7)
        assert cls.hk_certificate(cube, 7) is None
        assert not passes

    def test_no_certificate_and_no_coloring_is_internal(self, monkeypatch):
        g = Hypergraph.of(6, [e for e in itertools.combinations(range(6), 2) if e != (0, 1)])
        assert cls.classify(g).verdict == "colorable"
        monkeypatch.setattr(col, "find_k_coloring", lambda *args, **kwargs: None)
        with pytest.raises(cls.InternalError, match="no block certifies"):
            cls.classify(g)


def _lemma_sweep():
    """Nested joins at k = 3, 4, 5 with v* kept and dropped, one
    perturbation of each, and glued multi-block instances."""
    for k, n_max in ((3, 20), (4, 17), (5, 16)):
        for include in (True, False):
            for seed in range(12):
                rng = random.Random(seed)
                g = random_nested_join(rng, k, n_max, rng.randint(0, 3), include)
                yield g
                yield perturb(rng, g)
    for seed in range(120):
        yield glued_instance(random.Random(seed))


class TestLambdaOfCertifiedBlocks:
    """A block in the class at k has lambda = k, so ``classify`` reads
    lambda from the certified blocks when every block with two or more
    edges certifies; pinned to the flows."""

    def test_a_block_certified_at_k_has_lambda_k(self):
        certified = collections.Counter()
        for g in _lemma_sweep():
            for b in conn.blocks(g):
                if len(b.edge_refs) < 2:
                    continue
                found = cls._block_certificate(g, b)
                if found is not None:
                    assert conn.max_local_edge_connectivity(b.graph(g)) == found[0], g
                    certified[found[0]] += 1
            assert cls.classify(g).lam == conn.max_local_edge_connectivity(g), g
        assert min(certified[k] for k in (3, 4, 5)) >= 20, certified

    def test_flows_run_first_when_a_block_fails_the_filter(self, monkeypatch):
        """A block that fails the counting filter leaves lambda to the
        flows anyway, so they run first and only blocks whose class is
        lambda are certified; the tight block stays the first certified
        at lambda, as in the classifier that certified every block."""
        built = []
        real = cls._build_certificate

        def recorded(g, k, ids):
            built.append(k)
            return real(g, k, ids)

        monkeypatch.setattr(cls, "_build_certificate", recorded)
        flows_first = 0
        for seed in range(120):
            g = glued_instance(random.Random(seed))
            multi = [b for b in conn.blocks(g) if len(b.edge_refs) > 1]
            built.clear()
            out = cls.classify(g)
            if any(cls._candidate_class(len(b.vertices), len(b.edge_refs)) is None for b in multi):
                flows_first += 1
                assert set(built) <= {out.lam}, (seed, built, out.lam)
            assert out == oracles.reference_classify(g), seed
        assert flows_first >= 40, flows_first

    def test_candidate_class_is_the_only_k_the_filter_passes(self):
        for n in range(2, 40):
            for m in range(2, n * (n - 1) // 2 + 1):
                passing = [k for k in range(3, n) if cls._may_be_member(n, m, k)]
                assert len(passing) <= 1, (n, m, passing)
                assert cls._candidate_class(n, m) == (passing[0] if passing else None)

    def test_benchmark_tight_joins_build_no_flow_net(self, monkeypatch):
        graphs = _tight_joins(1)
        nets = _count_flow_nets(monkeypatch)
        for k, g in graphs:
            out = cls.classify(g)
            assert out.verdict == "tight" and out.lam == k
        assert len(graphs) == 50 and not nets


class TestJones:
    def test_complete(self):
        v = cls.jones_classify(cons.complete_graph(6))
        assert v.equality and v.shape == "complete"

    def test_odd_cycle(self):
        v = cls.jones_classify(cons.cycle(9))
        assert v.equality and v.shape == "odd_cycle"

    def test_single_hyperedge(self):
        v = cls.jones_classify(Hypergraph.of(4, [(0, 1, 2, 3)]))
        assert v.equality and v.shape == "single_edge"
        assert v.chi == 2 and v.max_degree == 1

    def test_non_extremal(self):
        v = cls.jones_classify(cons.cycle(6))
        assert not v.equality and v.shape is None

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            cls.jones_classify(Hypergraph.of(4, [(0, 1), (2, 3)]))


def test_three_way_agreement_sampled():
    """certificate success == semantic membership == (chi, lambda, critical)."""
    rng = random.Random(11)
    seen = 0
    for _ in range(150):
        g = seeded_random_hypergraph(rng, rng.randint(3, 6), (2, 3), 9)
        if not conn.is_connected(g):
            continue
        seen += 1
        semantic = oracles.reference_is_in_Ck(g, 3)
        direct = (
            oracles.reference_chromatic_number(g) == 4
            and conn.max_local_edge_connectivity(g) == 3
            and oracles.reference_is_critical(g, 4).is_critical
        )
        cert = cls.hk_certificate(g, 3)
        assert semantic == direct == (cert is not None)
        if cert is not None:
            assert cls.verify_certificate(g, cert)
    assert seen > 50
