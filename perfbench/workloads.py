"""The four seeded workloads.

Each workload is one pass: a list of items, the op that calls into the
program's public entry point for one item, and the check that turns an
op's output into its canonical form or raises ``CheckFailed``.  Inputs
depend only on the seed.  Ops look every program function up on its
module at call time, so the traced run sees the calls.

Where the seed varies an input, it varies placement and labels within
a fixed plan of sizes, so that two seeds cost about the same.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


@dataclass
class Workload:
    name: str
    items: list
    op: Callable[[Any], Any]
    check: Callable[[Any, Any], Any]
    threads: int = 1  # threads an op computes on; the speed reference uses as many


def hgr(n: int, edges) -> str:
    """HGR text for a vertex count and an edge list."""
    lines = ["HGR 1", f"n {n}"]
    lines += ["e " + " ".join(map(str, e)) for e in sorted(tuple(sorted(e)) for e in edges)]
    return "\n".join(lines) + "\n"


def is_valid_coloring(colors, n: int, edges, k: int) -> bool:
    """Every vertex has a colour in 1..k and no edge is monochromatic."""
    return (
        len(colors) == n
        and all(1 <= c <= k for c in colors)
        and all(len({colors[v] for v in e}) > 1 for e in edges)
    )


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _relabel(n: int, edges, rng: random.Random) -> list[tuple[int, ...]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return [tuple(sorted(perm[v] for v in e)) for e in edges]


# -- tight-joins -------------------------------------------------------------

# The criterion-03 plans per pass: (k, n_max, instances, most joins).
# Join counts and base order are fixed per slot; the seed picks the
# joined vertices and edges, whether v* stays on the merged edge, and a
# vertex relabelling.
JOIN_PLANS = ((3, 20, 20, 3), (4, 13, 20, 2), (5, 11, 10, 1))


@dataclass(frozen=True)
class JoinInstance:
    k: int
    n: int
    edges: tuple[tuple[int, ...], ...]
    text: str


def _nested_join(cons, rng, bases, n_max: int, joins: int, first: int):
    g = bases[first % len(bases)]
    for j in range(joins):
        other = bases[(first + j + 1) % len(bases)]
        if g.n + other.n - 1 > n_max:
            break
        for _ in range(40):
            e1, e2 = rng.randrange(g.m), rng.randrange(other.m)
            v1, v2 = rng.choice(g.edge(e1)), rng.choice(other.edge(e2))
            spec = cons.HajosJoinSpec(g, other, v1, v2, e1, e2, rng.random() < 0.5)
            try:
                g = cons.hajos_join(spec).graph
                break
            except ValueError:
                continue
    return g


def tight_joins(prog, seed: int, tmp: Path) -> Workload:
    cons = prog.constructions
    rng = random.Random(seed)
    items = []
    for k, n_max, count, max_joins in JOIN_PLANS:
        if k == 3:
            bases = [cons.odd_wheel(5), cons.complete_graph(4), cons.odd_wheel(7)]
        else:
            bases = [cons.complete_graph(k + 1)]
        for slot in range(count):
            g = _nested_join(cons, rng, bases, n_max, 1 + slot % max_joins, slot)
            edges = tuple(sorted(_relabel(g.n, g.edges, rng)))
            items.append(JoinInstance(k, g.n, edges, hgr(g.n, edges)))

    def op(inst: JoinInstance):
        out, err = io.StringIO(), io.StringIO()
        stdin = sys.stdin
        sys.stdin = io.StringIO(inst.text)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = prog.cli.main(["classify", "-"])
        finally:
            sys.stdin = stdin
        return code, out.getvalue()

    def check(inst: JoinInstance, result):
        code, text = result
        _expect(code == 0, f"exit code {code}")
        payload = json.loads(text)
        _expect(payload["verdict"] == "tight", f"verdict {payload['verdict']}")
        _expect(payload["lambda"] == inst.k, f"lambda {payload['lambda']} != {inst.k}")
        _expect(payload["chi"] == payload["lambda"] + 1, "chi != lambda + 1")
        block = payload["block"]
        _expect(block == list(range(inst.n)), "a critical join is its own block")
        cls = prog.classifier
        cert = cls.certificate_from_json(payload["certificate"])
        inside = set(block)
        block_edges = [e for e in inst.edges if inside.issuperset(e)]
        _expect(cls.certificate_matches(cert, block, block_edges), "certificate does not replay")
        return text

    return Workload("tight-joins", items, op, check)


# -- corpus-sweep ------------------------------------------------------------

# Corpora per pass and random instances per corpus; the corpus builder
# adds every named family to each.  Sizes are the criterion-01
# generator's (n <= 12, edge sizes 2..4).
CORPORA, CORPUS_COUNT, CORPUS_N_MAX = 40, 10, 12


def corpus_sweep(prog, seed: int, tmp: Path) -> Workload:
    items = [seed * 1000 + i for i in range(CORPORA)]
    dirs = itertools.count()

    def op(corpus_seed: int):
        out = tmp / f"corpus-{next(dirs)}"
        return out, prog.corpus.build_corpus(corpus_seed, CORPUS_COUNT, CORPUS_N_MAX, out)

    def check(corpus_seed: int, result):
        out, manifest = result
        try:
            entries = manifest["entries"]
            known = prog.corpus.KNOWN
            _expect(len(entries) == CORPUS_COUNT + len(prog.corpus.named_families()),
                    "wrong number of entries")
            _expect(json.loads((out / "manifest.json").read_text()) == manifest,
                    "manifest on disk differs")
            for name, entry in entries.items():
                for key, value in known.get(name, {}).items():
                    _expect(entry.get(key) == value, f"{name}: {key} is not {value}")
                if "chi" in entry and "lambda" in entry:
                    _expect(entry["chi"] <= entry["lambda"] + 1, f"{name}: chi > lambda + 1")
                if entry.get("critical_k") is not None and "chi" in entry:
                    _expect(entry["critical_k"] == entry["chi"], f"{name}: critical_k != chi")
                g = prog.hypercore.Hypergraph.from_hgr((out / f"{name}.hgr").read_text())
                _expect((g.n, g.m) == (entry["n"], entry["m"]), f"{name}: file differs")
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return manifest

    # The corpus builder's pool has one thread per CPU unless
    # HYPERCHROME_THREADS says otherwise; the benchmark leaves it unset.
    return Workload("corpus-sweep", items, op, check, threads=os.cpu_count() or 1)


# -- dense-critical ----------------------------------------------------------


@dataclass(frozen=True)
class DenseInstance:
    label: str
    graph: Any
    chi: int
    entry: str  # "is_critical" | "chromatic_number"


def _permuted(prog, g, rng):
    return prog.hypercore.Hypergraph.of(g.n, _relabel(g.n, g.edges, rng))


def dense_critical(prog, seed: int, tmp: Path) -> Workload:
    cons = prog.constructions
    rng = random.Random(seed)
    # Toft graphs keep their construction labels: their search cost
    # depends strongly on vertex order, and they dominate a pass.
    members = [(f"toft{p}", cons.toft_graph(p), 4) for p in (1, 2, 3)]
    for n, p in itertools.product((1, 2, 3, 4), (1, 2)):
        members.append((f"kc{n},{p}", _permuted(prog, cons.kc(n, p), rng), n + 3))
    for rim in range(5, 21, 2):
        members.append((f"w{rim}", _permuted(prog, cons.odd_wheel(rim), rng), 4))
    for n in range(4, 10):
        members.append((f"K{n}", cons.complete_graph(n), n))
    items = [
        DenseInstance(label, g, chi, entry)
        for label, g, chi in members
        for entry in ("is_critical", "chromatic_number")
    ]

    def op(inst: DenseInstance):
        col = prog.coloring
        if inst.entry == "is_critical":
            return col.is_critical(inst.graph, inst.chi, force=True)
        return col.chromatic_number(inst.graph, force=True)

    def check(inst: DenseInstance, out):
        if inst.entry == "is_critical":
            _expect(out.is_critical and out.chi == inst.chi, f"{inst.label}: {out}")
            return [out.is_critical, out.chi, out.failing_edge, out.reason]
        _expect(out == inst.chi, f"{inst.label}: chi {out} != {inst.chi}")
        return out

    return Workload("dense-critical", items, op, check)


# -- large-sparse ------------------------------------------------------------

# Sizes per family.  The program's coloring search recurses once per
# vertex, so with the default recursion limit the large sizes raise
# RecursionError; they stay in the workload as failed ops.  Sizes keep
# clear of the limit so that the outcome does not depend on stack depth
# spent by the benchmark or the tracer.
SMALL = tuple(range(250, 601, 50))
SPARSE_SIZES = {
    "path": SMALL + (2000,),
    "even-cycle": SMALL + (1500,),
    "tree": SMALL + (1200,),
    "hyperpath3": tuple(n + 1 for n in SMALL) + (3001,),
}
LAMBDA_SIZES = tuple(range(16, 41, 4))


@dataclass(frozen=True)
class SparseInstance:
    label: str
    n: int
    edges: tuple[tuple[int, ...], ...]
    text: str  # HGR, parsed by the op; empty for lambda items
    graph: Any  # prebuilt, for lambda items
    lam: int | None  # expected lambda, for lambda items


def _sparse_edges(family: str, n: int, branching: int) -> list[tuple[int, ...]]:
    if family == "path":
        return [(i, i + 1) for i in range(n - 1)]
    if family in ("even-cycle", "cycle"):
        return [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    if family == "tree":
        # Complete tree in breadth-first labels: the seed program's
        # degree-ordered search colours it without backtracking, while
        # random trees of a few hundred vertices make it backtrack for
        # minutes.
        return [((v - 1) // branching, v) for v in range(1, n)]
    return [(i, i + 1, i + 2) for i in range(0, n - 2, 2)]


def large_sparse(prog, seed: int, tmp: Path) -> Workload:
    rng = random.Random(seed)
    branching = rng.choice((2, 3))
    items = []
    for family, sizes in SPARSE_SIZES.items():
        for base in sizes:
            n = base + 2 * rng.randrange(8)
            edges = tuple(_sparse_edges(family, n, branching))
            items.append(SparseInstance(f"{family}{n}", n, edges, hgr(n, edges), None, None))
    for family, n in itertools.product(("cycle", "path"), LAMBDA_SIZES):
        edges = tuple(_sparse_edges(family, n, branching))
        g = prog.hypercore.Hypergraph.of(n, edges)
        lam = 2 if family == "cycle" else 1
        items.append(SparseInstance(f"lambda-{family}{n}", n, edges, "", g, lam))

    def op(inst: SparseInstance):
        if inst.lam is not None:
            return prog.connectivity.max_local_edge_connectivity(inst.graph)
        conn = prog.connectivity
        g = prog.hypercore.Hypergraph.from_hgr(inst.text)
        comps = conn.components(g)
        blocks = conn.blocks(g)
        seps = conn.separating_vertices(g)
        phi = prog.coloring.find_k_coloring(g, 2)
        return g, comps, blocks, seps, phi

    def check(inst: SparseInstance, out):
        if inst.lam is not None:
            _expect(out == inst.lam, f"{inst.label}: lambda {out} != {inst.lam}")
            return out
        g, comps, blocks, seps, phi = out
        _expect((g.n, set(g.edges)) == (inst.n, set(inst.edges)), "parse differs")
        _expect(comps == [tuple(range(inst.n))], "not one component")
        block_sets = sorted(b.vertices for b in blocks)
        degree = [0] * inst.n
        for e in inst.edges:
            for v in e:
                degree[v] += 1
        if inst.label.startswith("even-cycle"):
            _expect(block_sets == [tuple(range(inst.n))], "a cycle is one block")
            _expect(seps == (), "a cycle has no separating vertex")
        else:
            _expect(block_sets == sorted(inst.edges), "each edge is a block")
            cut = tuple(v for v in range(inst.n) if degree[v] > 1)
            _expect(seps == cut, "separating vertices differ")
        _expect(phi is not None and is_valid_coloring(phi.colors, inst.n, inst.edges, 2),
                "no valid 2-coloring")
        return [len(comps), [list(b.vertices) for b in blocks], list(seps), list(phi.colors)]

    return Workload("large-sparse", items, op, check)


WORKLOADS = {
    "tight-joins": tight_joins,
    "corpus-sweep": corpus_sweep,
    "dense-critical": dense_critical,
    "large-sparse": large_sparse,
}
