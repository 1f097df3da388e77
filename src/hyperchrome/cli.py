"""Command-line front end: every library operation behind one verb,
HGR/JSON I/O, deterministic output.

Exit codes: 0 success, 1 negative verdict, 2 input error, 3 guard
exceeded, 4 internal error (a broken invariant: a bug, not bad input).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

from .hypercore import Hypergraph
from . import classifier as cls
from . import coloring as col
from . import connectivity as conn
from . import constructions as cons
from . import corpus as corp

OK, VERDICT_NO, INPUT_ERROR, GUARD, INTERNAL = 0, 1, 2, 3, 4


def _read_graph(path: str) -> Hypergraph:
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    return Hypergraph.from_hgr(text)


def _emit(payload: dict) -> None:
    # json.dumps takes the C encoder; json.dump always encodes in Python
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def _cmd_chi(args) -> int:
    """The exact chromatic number.  An input with a block in the class
    at lambda >= 3 gets chi = lambda + 1 from the theorem; only an input
    the theorem does not decide is searched, and a search that passes
    the decision cap (``coloring.SEARCH_GUARD``) exits 3 unless --force
    lifts the cap."""
    _emit({"chi": col.chromatic_number(_read_graph(args.file), force=args.force)})
    return OK


def _cmd_color(args) -> int:
    phi = col.find_k_coloring(_read_graph(args.file), args.k)
    _emit({"coloring": list(phi.colors) if phi else None, "k": args.k})
    return OK if phi else VERDICT_NO


def _cmd_critical(args) -> int:
    """The criticality report for chi = k.  An input in the class at
    k - 1 >= 3 is critical by the theorem, and one with a block in the
    class at lambda >= 3 has chi = lambda + 1.  Any other answer needs
    a search, chi's or the first failing edge's when chi = k, which
    exits 3 once one search passes the decision cap, unless --force
    lifts it."""
    report = col.is_critical(_read_graph(args.file), args.k, force=args.force)
    _emit(
        {
            "critical": report.is_critical,
            "chi": report.chi,
            "failing_edge": report.failing_edge,
            "reason": report.reason,
        }
    )
    return OK if report.is_critical else VERDICT_NO


def _cmd_lambda(args) -> int:
    g = _read_graph(args.file)
    if (args.s is None) != (args.t is None):
        raise ValueError("give both -s and -t, or neither")
    if args.s is not None:
        res = conn.local_edge_connectivity(g, args.s, args.t)
        _emit(
            {
                "lambda": res.value,
                "pair": [args.s, args.t],
                "paths": [
                    {"vertices": list(p.vertices), "edges": list(p.edges)}
                    for p in res.paths
                ],
                "cut_side": list(res.cut_side),
            }
        )
    else:
        _emit({"lambda": conn.max_local_edge_connectivity(g)})
    return OK


def _cmd_blocks(args) -> int:
    g = _read_graph(args.file)
    _emit(
        {
            "blocks": [
                {"vertices": list(b.vertices), "edges": list(b.edge_refs)}
                for b in conn.blocks(g)
            ],
            "separating_vertices": list(conn.separating_vertices(g)),
        }
    )
    return OK


def _cmd_cuts(args) -> int:
    g = _read_graph(args.file)
    cuts = conn.minimal_separating_edge_sets(g, args.max_size)
    _emit({"cuts": [{"edges": list(c.f), "x": list(c.x)} for c in cuts]})
    return OK


def _cmd_mixed_seps(args) -> int:
    pairs = conn.mixed_separating_sets(_read_graph(args.file))
    _emit({"mixed": [[v, e] for v, e in pairs]})
    return OK


def _cmd_construct(args) -> int:
    name, params = args.name, args.params
    # name -> (parameter count, or None for any, builder over int params)
    builders = {
        "complete": (1, cons.complete_graph),
        "cycle": (1, cons.cycle),
        "odd-wheel": (1, cons.odd_wheel),
        "hyperwheel": (1, cons.hyperwheel),
        "kc": (2, cons.kc),
        "toft": (1, cons.toft_graph),
        "figure1": (0, lambda: cons.figure1_join(not args.no_vstar).graph),
        "figure2-g1": (0, cons.figure2_g1),
        "figure2-g2": (0, cons.figure2_g2),
        "figure3": (0, cons.figure3),
        "c2-tree": (None, lambda *parents: cons.c2_tree(list(parents))),
    }
    if name not in builders:
        raise ValueError(f"unknown construction {name!r}")
    count, build = builders[name]
    if count is not None and len(params) != count:
        raise ValueError(f"construction {name!r} takes {count} parameter(s), got {len(params)}")
    sys.stdout.write(build(*params).to_hgr())
    return OK


def _cmd_join(args) -> int:
    spec = cons.HajosJoinSpec(
        _read_graph(args.file1),
        _read_graph(args.file2),
        args.v1,
        args.v2,
        args.e1,
        args.e2,
        args.include_vstar,
    )
    sys.stdout.write(cons.hajos_join(spec).graph.to_hgr())
    return OK


def _map_item(text: str) -> tuple[int, tuple[int, ...]]:
    """One ``--map`` value: an edge ref and the ids of its image."""
    ref, sep, vs = text.partition("=")
    try:
        if sep:
            return int(ref), tuple(int(v) for v in vs.split(",") if v)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected REF=V1,V2 with integer ids, got {text!r}")


def _cmd_split(args) -> int:
    spec = cons.SplitSpec(
        _read_graph(args.file1),
        args.edge,
        _read_graph(args.file2),
        args.vertex,
        dict(args.map),
    )
    sys.stdout.write(cons.split(spec).graph.to_hgr())
    return OK


def _ints(text: str, option: str, count: int | None = None) -> tuple[int, ...]:
    """The comma-separated integers given to ``option``."""
    try:
        values = tuple(int(x) for x in text.split(","))
    except ValueError:
        values = None
    if values is None or count is not None and len(values) != count:
        what = f"{count} comma-separated integers" if count else "comma-separated integers"
        raise ValueError(f"{option} takes {what}, got {text!r}")
    return values


def _cmd_decompose(args) -> int:
    g = _read_graph(args.file)
    if args.mixed is not None:
        v, e = _ints(args.mixed, "--mixed V,E", 2)
        dec = cons.hajos_decompose_mixed(g, v, e)
        _emit(
            {
                "g1": dec.spec.g1.to_hgr(),
                "g2": dec.spec.g2.to_hgr(),
                "g1_ids": list(dec.g1_old),
                "g2_ids": list(dec.g2_old),
                "vstar": dec.vstar,
                "estar": dec.estar,
                "include_vstar": dec.spec.include_vstar,
            }
        )
        return OK
    if args.edge_cut is not None:
        refs = _ints(args.edge_cut, "--edge-cut E1,E2,...")
        dec = cons.decompose_edge_cut(g, args.k, refs, force=args.force)
        _emit(
            {
                "x": list(dec.cut.x),
                "y": list(dec.cut.y),
                "g1": dec.g1.to_hgr() if dec.g1 else None,
                "g2": dec.g2.to_hgr(),
            }
        )
        return OK
    dec = cons.decompose_vertex_pair(g, args.k, force=args.force)
    if dec is None:
        _emit({"separating_pair": None})
        return VERDICT_NO
    _emit(
        {
            "separating_pair": [dec.v, dec.w],
            "g1_prime": dec.g1_prime.to_hgr(),
            "g2_prime": dec.g2_prime.to_hgr(),
        }
    )
    return OK


def _cmd_classify(args) -> int:
    outcome = cls.classify(_read_graph(args.file), force=args.force)
    payload = {
        "lambda": outcome.lam,
        "chi": outcome.chi,
        "verdict": outcome.verdict,
        "coloring": list(outcome.coloring.colors) if outcome.coloring else None,
        "block": list(outcome.block) if outcome.block else None,
        "certificate": (
            cls.certificate_to_json(outcome.certificate) if outcome.certificate else None
        ),
        "note": outcome.note,
    }
    _emit(payload)
    return OK


def _cmd_certify(args) -> int:
    cert = cls.hk_certificate(_read_graph(args.file), args.k)
    _emit({"certificate": cls.certificate_to_json(cert) if cert else None})
    return OK if cert else VERDICT_NO


def _cmd_verify_cert(args) -> int:
    try:
        cert = cls.certificate_from_json(json.loads(Path(args.cert).read_text()))
        match = cls.verify_certificate(_read_graph(args.file), cert)
    except RecursionError:
        raise cls.CertificateError("certificate is nested too deeply") from None
    _emit({"match": match})
    return OK if match else VERDICT_NO


def _cmd_gallai_check(args) -> int:
    report = col.verify_gallai_lemma(_read_graph(args.file), args.k, force=args.force)
    _emit(dataclasses.asdict(report) | {"all_ok": report.all_ok})
    return OK if report.all_ok else VERDICT_NO


def _cmd_corpus(args) -> int:
    if args.count < 0:
        raise ValueError(f"--count must be >= 0, got {args.count}")
    if args.n_max < 1:
        raise ValueError(f"--n-max must be >= 1, got {args.n_max}")
    manifest = corp.build_corpus(args.seed, args.count, args.n_max, args.out)
    _emit({"out": args.out, "instances": len(manifest["entries"])})
    return OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperchrome",
        description="Hypergraph coloring vs. edge connectivity toolkit",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("chi", _cmd_chi, help="exact chromatic number")
    p.add_argument("file")
    p.add_argument("--force", action="store_true")

    p = add("color", _cmd_color, help="find a k-coloring")
    p.add_argument("file")
    p.add_argument("-k", type=int, required=True)

    p = add("critical", _cmd_critical, help="test k-criticality")
    p.add_argument("file")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--force", action="store_true")

    p = add("lambda", _cmd_lambda, help="local edge connectivity")
    p.add_argument("file")
    p.add_argument("-s", type=int)
    p.add_argument("-t", type=int)

    p = add("blocks", _cmd_blocks, help="block decomposition")
    p.add_argument("file")

    p = add("cuts", _cmd_cuts, help="minimal separating edge sets")
    p.add_argument("file")
    p.add_argument("--max-size", type=int, default=3)

    p = add("mixed-seps", _cmd_mixed_seps, help="mixed separating sets")
    p.add_argument("file")

    p = add("construct", _cmd_construct, help="emit a named family as HGR")
    p.add_argument("name")
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("--no-vstar", action="store_true")

    p = add("join", _cmd_join, help="join two hypergraphs at a vertex/edge pair")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--v1", type=int, required=True)
    p.add_argument("--v2", type=int, required=True)
    p.add_argument("--e1", type=int, required=True)
    p.add_argument("--e2", type=int, required=True)
    p.add_argument("--include-vstar", action="store_true")

    p = add("split", _cmd_split, help="split an edge of one graph into a vertex of another")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--edge", type=int, required=True)
    p.add_argument("--vertex", type=int, required=True)
    p.add_argument("--map", action="append", default=[], type=_map_item, metavar="REF=V1,V2")

    p = add("decompose", _cmd_decompose, help="decompose at a separator")
    p.add_argument("file")
    p.add_argument("-k", type=int, default=3)
    at = p.add_mutually_exclusive_group()
    at.add_argument("--mixed", metavar="V,E")
    at.add_argument("--edge-cut", metavar="E1,E2,...")
    p.add_argument("--force", action="store_true")

    p = add("classify", _cmd_classify, help="chromatic number vs. connectivity bound")
    p.add_argument("file")
    p.add_argument("--force", action="store_true")

    p = add("certify", _cmd_certify, help="join certificate for a critical hypergraph")
    p.add_argument("file")
    p.add_argument("-k", type=int, required=True)

    p = add("verify-cert", _cmd_verify_cert, help="replay a certificate against a graph")
    p.add_argument("cert")
    p.add_argument("file")

    p = add("gallai-check", _cmd_gallai_check, help="low-vertex structure report")
    p.add_argument("file")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--force", action="store_true")

    p = add("corpus", _cmd_corpus, help="write the reproducible corpus")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--out", default="corpus")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return INPUT_ERROR if exc.code not in (0, None) else OK
    try:
        return args.fn(args)
    except col.GuardExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return GUARD
    except cls.InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
