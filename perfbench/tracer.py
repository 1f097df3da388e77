"""Span recorder for the traced run.

Wrappers are set on the attributes of the program's modules and on the
methods of ``Hypergraph``.  The program's own intra- and cross-module
calls look these attributes up at call time, so every call to a traced
function opens a span.  Spans are aggregated per layer name as they
close: a call count and the self time, which is the span's duration
minus the part of it covered by its child spans.

Children can overlap: the corpus builder runs ``instance_stats`` on
pool threads while ``build_corpus`` waits.  A span opened on a thread
with no open span of its own takes the innermost open span of the
thread that installed the tracer as its parent, and the covered part of
a parent is the length of the union of its children's intervals.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import inspect
import threading
import time

# Layer name -> (module, attribute) of the functions traced one by one.
FUNCTIONS = {
    "connectivity.max_local_edge_connectivity": ("connectivity", "max_local_edge_connectivity"),
    "connectivity.enumerate_separating_sets": ("connectivity", "enumerate_separating_sets"),
    "connectivity.mixed_separating_sets": ("connectivity", "mixed_separating_sets"),
    "connectivity.components": ("connectivity", "components"),
    "connectivity.blocks": ("connectivity", "blocks"),
    "connectivity.separating_vertices": ("connectivity", "separating_vertices"),
    "coloring.find_k_coloring": ("coloring", "find_k_coloring"),
    "coloring.is_critical": ("coloring", "is_critical"),
    "coloring.chromatic_number": ("coloring", "chromatic_number"),
    "constructions.hajos_decompose_mixed": ("constructions", "hajos_decompose_mixed"),
    "classifier.classify": ("classifier", "classify"),
    "classifier.is_in_Ck": ("classifier", "is_in_Ck"),
    "classifier.hk_certificate": ("classifier", "hk_certificate"),
    "classifier.extract_critical": ("classifier", "extract_critical"),
    "classifier.verify_certificate": ("classifier", "verify_certificate"),
    "corpus.build_corpus": ("corpus", "build_corpus"),
    "corpus.instance_stats": ("corpus", "instance_stats"),
    "cli.main": ("cli", "main"),
}

# Layer name -> Hypergraph methods traced under it.  The derive group
# nests (delete_edge calls delete_edges); self time counts each
# interval once.
METHODS = {
    "hypercore.incident": ("incident",),
    "hypercore.degree": ("degree",),
    "hypercore.from_hgr": ("from_hgr",),
    "hypercore.derive": (
        "induced", "shrink", "delete_vertices", "div_vertices", "delete_edges", "delete_edge",
    ),
}

# Every public function of the shapes module is traced under one name.
SHAPES = "shapes"

LAYERS = tuple(FUNCTIONS) + tuple(METHODS) + (SHAPES,)


class _Span:
    __slots__ = ("name", "parent", "start", "children")

    def __init__(self, name: str, parent: "_Span | None") -> None:
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.children: list[tuple[float, float]] = []


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of the intervals, clipped to [start, end]."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


class Tracer:
    """Per-layer call counts, self time and counters of one traced phase."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stacks: dict[int, list[_Span]] = {}
        self._root = threading.get_ident()
        self.active = True
        self.calls: collections.Counter[str] = collections.Counter()
        self.self_s: dict[str, float] = collections.defaultdict(float)
        self.counts: collections.Counter[str] = collections.Counter()

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> _Span:
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                root = self._stacks.get(self._root)
                parent = root[-1] if tid != self._root and root else None
            span = _Span(name, parent)
            stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: _Span) -> None:
        end = time.perf_counter()
        with self._lock:
            self._stacks[threading.get_ident()].pop()
            if span.parent is not None:
                span.parent.children.append((span.start, end))
            self.calls[span.name] += 1
            self.self_s[span.name] += end - span.start - _covered(span.children, span.start, end)

    def count(self, name: str, amount: int = 1) -> None:
        if self.active:
            with self._lock:
                self.counts[name] += amount

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    @contextlib.contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording them."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    # -- installation --------------------------------------------------------

    @contextlib.contextmanager
    def installed(self, prog):
        """Set the wrappers on ``prog``'s modules; restore them on exit."""
        patches: list[tuple[object, str, object]] = []

        def patch(owner, attr, value):
            patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

        def patch_everywhere(orig, wrapped):
            # Also replaces names bound by `from .x import f` elsewhere.
            for mod in prog.modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        patch(mod, key, wrapped)

        hooks = {
            "coloring.find_k_coloring": lambda phi: self.count(
                "coloring.find_k_coloring.found", phi is not None
            ),
            "classifier.hk_certificate": lambda cert: self.count(
                "classifier.certificate_nodes", _certificate_nodes(prog, cert)
            ),
        }
        try:
            for name, (mod_name, attr) in FUNCTIONS.items():
                orig = getattr(getattr(prog, mod_name), attr)
                patch_everywhere(orig, self.wrap(name, orig, hooks.get(name)))
            shapes = prog.shapes
            for attr, orig in list(vars(shapes).items()):
                if (
                    inspect.isfunction(orig)
                    and not attr.startswith("_")
                    and orig.__module__ == shapes.__name__
                ):
                    patch_everywhere(orig, self.wrap(SHAPES, orig))
            hg = prog.hypercore.Hypergraph
            for name, attrs in METHODS.items():
                for attr in attrs:
                    orig = vars(hg)[attr]
                    if isinstance(orig, classmethod):
                        patch(hg, attr, classmethod(self.wrap(name, orig.__func__)))
                    else:
                        patch(hg, attr, self.wrap(name, orig))
            post_init = vars(hg)["__post_init__"]

            def counted_post_init(obj):
                self.count("hypercore.values_built")
                return post_init(obj)

            patch(hg, "__post_init__", counted_post_init)
            yield self
        finally:
            for owner, attr, orig in reversed(patches):
                setattr(owner, attr, orig)


def _certificate_nodes(prog, cert) -> int:
    """Leaves plus joins of a certificate; 0 for None."""
    nodes, todo = 0, [cert] if cert is not None else []
    while todo:
        node = todo.pop()
        nodes += 1
        if isinstance(node, prog.classifier.Join):
            todo.extend((node.left, node.right))
    return nodes
