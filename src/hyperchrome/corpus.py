"""Reproducible test corpus: seeded random hypergraphs plus the named
families, with a manifest of expected invariants."""

from __future__ import annotations

import json
import random
from pathlib import Path

from .hypercore import Hypergraph
from . import coloring as col
from . import constructions as cons
from .connectivity import InternalError


def random_hypergraph(rng: random.Random, n_max: int, sizes=(2, 3, 4)) -> Hypergraph:
    """One pseudo-random hypergraph; determined by the rng state."""
    n = rng.randint(1, n_max)
    usable = [s for s in sizes if s <= n]
    if not usable:
        return Hypergraph.of(n, ())
    target = rng.randint(0, max(1, 2 * n))
    edges = set()
    for _ in range(target):
        size = rng.choice(usable)
        edges.add(tuple(sorted(rng.sample(range(n), size))))
    return Hypergraph.of(n, edges)


def named_families() -> dict[str, Hypergraph]:
    """The named instances exercised throughout the test suite."""
    out = {
        "k4": cons.complete_graph(4),
        "k5": cons.complete_graph(5),
        "c5": cons.cycle(5),
        "c7": cons.cycle(7),
        "w5": cons.odd_wheel(5),
        "w7": cons.odd_wheel(7),
        "hyperwheel3": cons.hyperwheel(3),
        "hyperwheel4": cons.hyperwheel(4),
        "fig1-with-vstar": cons.figure1_join(True).graph,
        "fig1-without-vstar": cons.figure1_join(False).graph,
        "fig2-g1": cons.figure2_g1(),
        "fig2-g2": cons.figure2_g2(),
        "fig3": cons.figure3(),
        "toft1": cons.toft_graph(1),
        "kc-2-2": cons.kc(2, 2),
        "single-edge-4": Hypergraph.of(4, [(0, 1, 2, 3)]),
        "c2tree-deep": cons.c2_tree([-1, 0, 0, 1, 1, 2, 2, 3, 4, 5, 6]),
    }
    w5 = cons.odd_wheel(5)
    join = cons.hajos_join(
        cons.HajosJoinSpec(w5, w5, 0, 0, w5.edge_ref((0, 1)), w5.edge_ref((0, 1)), False)
    )
    out["w5-join-w5"] = join.graph
    return out


# Expected invariants from the underlying theory; criticality entries
# give the chromatic number at which the instance is critical.
KNOWN = {
    "k4": {"chi": 4, "lambda": 3, "critical_k": 4},
    "k5": {"chi": 5, "lambda": 4, "critical_k": 5},
    "c5": {"chi": 3, "lambda": 2, "critical_k": 3},
    "c7": {"chi": 3, "lambda": 2, "critical_k": 3},
    "w5": {"chi": 4, "lambda": 3, "critical_k": 4},
    "w7": {"chi": 4, "lambda": 3, "critical_k": 4},
    "hyperwheel3": {"chi": 3, "lambda": 2, "critical_k": 3},
    "hyperwheel4": {"chi": 3, "lambda": 2, "critical_k": 3},
    "fig1-with-vstar": {"chi": 4, "lambda": 3, "critical_k": 4},
    "fig1-without-vstar": {"chi": 4, "lambda": 3, "critical_k": 4},
    "fig2-g1": {"chi": 4, "lambda": 3, "critical_k": 4},
    "fig2-g2": {"chi": 4, "critical_k": 4},
    "fig3": {"chi": 3, "lambda": 2, "critical_k": 3},
    "toft1": {"chi": 4, "lambda": 4, "critical_k": 4},
    "kc-2-2": {"chi": 5},
    "single-edge-4": {"chi": 2, "lambda": 1, "critical_k": 2},
    "c2tree-deep": {"chi": 3, "lambda": 2, "critical_k": 3},
    "w5-join-w5": {"chi": 4, "lambda": 3, "critical_k": 4},
}


def instance_stats(g: Hypergraph) -> dict:
    """n, m, chi, lambda and critical_k (chi when g is chi-critical,
    else None) from one decision of the classifier
    (``coloring.chi_lambda_critical``).  An input whose coloring search
    passes the decision cap (``coloring.SEARCH_GUARD``) gets n and m
    only."""
    stats: dict = {"n": g.n, "m": g.m}
    try:
        chi, lam, critical = col.chi_lambda_critical(g)
    except col.GuardExceeded:
        return stats
    stats["chi"] = chi
    stats["lambda"] = lam
    if chi >= 1:
        stats["critical_k"] = chi if critical else None
    return stats


def build_corpus(seed: int, count: int, n_max: int, out_dir: str | Path) -> dict:
    """Write <count> random instances plus every named family as HGR
    files, and a manifest of their expected invariants."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    instances: dict[str, Hypergraph] = {
        f"rand-{i:04d}": random_hypergraph(rng, n_max) for i in range(count)
    }
    instances.update(named_families())
    stats = dict(zip(instances, map(instance_stats, instances.values())))
    entries = {}
    for name in sorted(instances):
        g = instances[name]
        (out / f"{name}.hgr").write_text(g.to_hgr())
        entry = stats[name]
        for key, value in KNOWN.get(name, {}).items():
            if key in entry and entry[key] != value:
                raise InternalError(f"{name}: computed {key}={entry[key]} != {value}")
            entry.setdefault(key, value)
        entries[name] = entry
    manifest = {"seed": seed, "count": count, "n_max": n_max, "entries": entries}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest
