"""Acceptance gate: the twelve headline properties, one test each.

Exhaustive sweeps run fully for n <= 4; larger orders use fixed-seed
samples (full enumeration is astronomically large there).  Every check
is exact — no tolerances anywhere.
"""

import itertools
import random

import pytest

from hyperchrome.hypercore import Hypergraph
from hyperchrome import classifier as cls
from hyperchrome import coloring as col
from hyperchrome import connectivity as conn
from hyperchrome import constructions as cons
from hyperchrome import corpus as corp
from hyperchrome import shapes

from conftest import random_nested_join, seeded_random_hypergraph
import lemmas
import oracles


def _all_hypergraphs(n: int, sizes):
    pool = [
        e for size in sizes if size <= n for e in itertools.combinations(range(n), size)
    ]
    for r in range(len(pool) + 1):
        for pick in itertools.combinations(pool, r):
            yield Hypergraph.of(n, pick)


def _critical_named(k: int):
    fams = corp.named_families()
    return [
        (name, fams[name])
        for name in sorted(fams)
        if corp.KNOWN.get(name, {}).get("critical_k") == k
    ]


def test_criterion_01_connectivity_bound_on_random_instances():
    rng = random.Random(20240824)
    for _ in range(1000):
        g = corp.random_hypergraph(rng, 12, sizes=(2, 3, 4))
        chi = oracles.reference_chromatic_number(g)
        lam = conn.max_local_edge_connectivity(g)
        assert chi <= lam + 1, f"bound violated on {g}"


def test_criterion_02_main_theorem_equivalence():
    def check(g):
        if not conn.is_connected(g):
            return
        chi = oracles.reference_chromatic_number(g)
        lam = conn.max_local_edge_connectivity(g)
        lhs = lam >= 3 and chi == lam + 1
        rhs = lam >= 3 and any(
            cls.is_in_Ck(b.graph(g), lam) for b in conn.blocks(g)
        )
        assert lhs == rhs, f"equivalence failed on {g} (chi={chi}, lam={lam})"

    for n in range(1, 5):
        for g in _all_hypergraphs(n, (2, 3)):
            check(g)
    rng = random.Random(2)
    for n in (5, 6, 7):
        for _ in range(400):
            check(seeded_random_hypergraph(rng, n, (2, 3), 14))
    for name, g in sorted(corp.named_families().items()):
        if g.n <= oracles.REFERENCE_GUARD_N:
            check(g)


def test_criterion_03_certificate_round_trip():
    rng = random.Random(33)
    plans = [(3, 20, 3)] * 20 + [(4, 13, 2)] * 20 + [(5, 11, 1)] * 10
    assert len(plans) == 50
    for k, n_max, joins in plans:
        g = random_nested_join(rng, k, n_max, rng.randint(1, joins))
        assert g.n <= 20
        cert = cls.hk_certificate(g, k)
        assert cert is not None, f"certification failed for k={k}, {g}"
        assert cls.verify_certificate(g, cert)


def test_criterion_04_both_joins_of_two_k4():
    for include in (True, False):
        j = cons.figure1_join(include)
        assert (j.graph.n, j.graph.m) == (7, 11)
        assert oracles.reference_is_critical(j.graph, 4).is_critical
        assert conn.max_local_edge_connectivity(j.graph) == 3


def test_criterion_05_toft_dense_graphs():
    t1 = cons.toft_graph(1)
    assert (t1.n, t1.m) == (12, 21)
    assert t1.m == t1.n**2 // 16 + t1.n
    assert oracles.reference_is_critical(t1, 4).is_critical
    t2 = cons.toft_graph(2)
    assert (t2.n, t2.m) == (20, 45)
    assert oracles.reference_is_critical(t2, 4, force=True).is_critical


def test_criterion_06_tree_family_member_without_small_separators():
    g = cons.figure3()
    assert oracles.reference_is_critical(g, 3).is_critical
    assert conn.max_local_edge_connectivity(g) == 2
    assert conn.is_connected(g)
    assert conn.enumerate_separating_sets(g, 2) == []


def test_criterion_07_menger_oracle_equivalence():
    rng = random.Random(7777)
    checked = 0
    for _ in range(200):
        g = seeded_random_hypergraph(rng, rng.randint(2, 6), (2, 3), 8)
        for v, w in itertools.combinations(range(g.n), 2):
            assert conn.local_edge_connectivity(g, v, w).value == oracles.brute_local_lambda(g, v, w)
            checked += 1
    assert checked > 200


def test_criterion_08_edge_cut_decomposition_on_4_critical_instances():
    instances = _critical_named(4)
    assert instances
    exercised = 0
    for name, g in instances:
        cuts = [c for c in conn.minimal_separating_edge_sets(g, 3) if len(c.f) == 3]
        for cut in cuts[:12]:
            dec = cons.decompose_edge_cut(g, 3, cut.f)
            assert oracles.reference_is_critical(dec.g2, 4).is_critical
            if dec.g1 is not None:
                assert oracles.reference_is_critical(dec.g1, 4).is_critical
            exercised += 1
    assert exercised >= 10


def test_criterion_09_vertex_pair_decomposition_on_4_critical_instances():
    instances = _critical_named(4)
    decomposed = 0
    for name, g in instances:
        dec = cons.decompose_vertex_pair(g, 3)
        if dec is None:
            assert conn.enumerate_separating_sets(g, 2) == []
            continue
        # criticality of both derived graphs and the coloring dichotomy
        # are asserted inside; re-verify the headline facts here
        assert oracles.reference_is_critical(dec.g1_prime, 4).is_critical
        assert oracles.reference_is_critical(dec.g2_prime, 4).is_critical
        decomposed += 1
    assert decomposed >= 2


def test_criterion_10_degree_bound_characterization():
    def check(g, expect_shape=None):
        if not conn.is_connected(g):
            return
        verdict = cls.jones_classify(g)  # asserts the iff internally
        if expect_shape is not None:
            assert verdict.equality and verdict.shape == expect_shape

    for n in range(1, 5):
        for g in _all_hypergraphs(n, (2, 3)):
            check(g)
    rng = random.Random(10)
    for n in (5, 6):
        for _ in range(300):
            check(seeded_random_hypergraph(rng, n, (2, 3), 12))
    for n in range(1, 7):
        check(cons.complete_graph(n), "complete" if n > 1 else "complete")
    check(cons.cycle(3), "complete")  # C3 = K3: complete matched first
    check(cons.cycle(5), "odd_cycle")
    for size in range(2, 7):
        g = Hypergraph.of(size, [tuple(range(size))])
        check(g, "single_edge" if size > 2 else "complete")


def test_criterion_11_low_vertex_splitting():
    rng = random.Random(1111)
    k2_g1 = [cons.cycle(5), cons.cycle(7), cons.hyperwheel(3), cons.hyperwheel(4), cons.figure3()]
    k2_g2 = [cons.cycle(5), cons.cycle(7), cons.hyperwheel(3), cons.hyperwheel(4)]
    k3_g1 = [cons.complete_graph(4), cons.odd_wheel(5), cons.odd_wheel(7)]
    k3_g2 = [cons.complete_graph(4), cons.odd_wheel(5)]
    done = 0
    for k, pool1, pool2 in ((2, k2_g1, k2_g2), (3, k3_g1, k3_g2)):
        for _ in range(15):
            g1, g2 = rng.choice(pool1), rng.choice(pool2)
            e_tilde = rng.randrange(g1.m)
            lows = [v for v in range(g2.n) if g2.degree(v) == k]
            v_tilde = rng.choice(lows)
            target = g1.edge(e_tilde)
            refs = g2.incident(v_tilde)
            while True:
                s = {r: tuple(sorted(rng.sample(target, rng.randint(1, len(target)))))
                     for r in refs}
                if set().union(*s.values()) == set(target):
                    break
            try:
                res = lemmas.validate_split_low(cons.SplitSpec(g1, e_tilde, g2, v_tilde, s), k=k)
            except ValueError as exc:
                if "duplicate edge" in str(exc):
                    continue  # collision: spec forbids multi-edges; resample
                raise
            assert oracles.reference_is_critical(res.graph, k + 1).is_critical
            f = res.graph.boundary(range(g1.n))
            assert len(f) == k and conn.is_separating_edge_set(res.graph, f)
            done += 1
    assert done >= 30 - 8  # a few collisions may be skipped

    # the documented vertex-splitting instance: x (id 8) into {x1, x2}
    g2 = cons.figure2_g2()
    s = {
        g2.edge_ref(e): (0 if e in {(0, 8), (1, 8), (5, 8)} else 1,)
        for e in [(0, 8), (1, 8), (5, 8), (4, 8), (3, 8), (7, 8)]
    }
    rebuilt = cons.split_vertex(g2, 8, 2, s).graph
    assert rebuilt == cons.figure2_g1()
    assert oracles.reference_is_critical(rebuilt, 4).is_critical


def test_criterion_12_tree_hyperedge_family():
    def spider(arms: int, depth: int) -> list[int]:
        parents = [-1]
        for _ in range(arms):
            prev = 0
            for _ in range(depth):
                parents.append(prev)
                prev = len(parents) - 1
        return parents

    plans = [(2, 1), (3, 1), (4, 1), (5, 1), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 4)]
    assert len(plans) == 10
    for arms, depth in plans:
        g = cons.c2_tree(spider(arms, depth))
        assert oracles.reference_is_critical(g, 3).is_critical, (arms, depth)
        assert conn.max_local_edge_connectivity(g) == 2, (arms, depth)
