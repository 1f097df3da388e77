"""Immutable hypergraph values and set-level operations.

Invariants
- every edge has size >= 2 and distinct, in-range vertex ids;
- no two edges are equal as sets;
- edges are stored sorted, in lexicographic order, so structural
  equality of two hypergraphs is plain value equality.

The per-vertex incidence table is built on first use and cached on the
value; it is not a field, so equality and hashing ignore it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

Edge = tuple[int, ...]

# Largest vertex count HGR input may declare: every verb spends time and
# memory linear in n, so a short line must not ask for more.
MAX_VERTICES = 10**6
_COUNT_DIGITS = len(str(MAX_VERTICES))

# str.translate table deleting the ASCII digits
_NO_DIGITS = str.maketrans("", "", "0123456789")


class HgrFormatError(ValueError):
    """Malformed HGR input; carries the offending line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class Relabeled(NamedTuple):
    """A derived hypergraph plus the map back to the original ids.

    ``old_ids[i]`` is the id, in the parent hypergraph, of vertex ``i``
    of ``graph``.  Certificates refer to original ids through this map.
    """

    graph: "Hypergraph"
    old_ids: tuple[int, ...]


def canonical_edges(edges: Iterable[Iterable[int]]) -> tuple[Edge, ...]:
    """Sort each edge and sort the edge list lexicographically."""
    return tuple(sorted(tuple(sorted(set(e))) for e in edges))


@dataclass(frozen=True)
class Hypergraph:
    """A hypergraph on vertices ``0..n-1`` with canonical edge order."""

    n: int
    edges: tuple[Edge, ...] = ()

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("negative vertex count")
        seen: set[Edge] = set()
        prev: Edge | None = None
        for e in self.edges:
            if len(e) < 2:
                raise ValueError(f"edge {e} has size < 2")
            if list(e) != sorted(set(e)):
                raise ValueError(f"edge {e} is not strictly sorted")
            if e[0] < 0 or e[-1] >= self.n:
                raise ValueError(f"edge {e} has out-of-range vertex")
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            if prev is not None and e < prev:
                raise ValueError("edges not in canonical order")
            seen.add(e)
            prev = e

    @classmethod
    def of(cls, n: int, edges: Iterable[Iterable[int]] = ()) -> "Hypergraph":
        """Build a hypergraph, canonicalizing the edge list."""
        return cls(n, canonical_edges(edges))

    @classmethod
    def _trusted(cls, n: int, edges: tuple[Edge, ...]) -> "Hypergraph":
        """The value with these fields, without the checks of
        ``__post_init__``: for a caller whose edges already meet every
        invariant, in canonical order."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "edges", edges)
        return g

    # -- basic accessors ---------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge(self, ref: int) -> Edge:
        if not 0 <= ref < len(self.edges):
            raise ValueError(f"edge ref {ref} out of range")
        return self.edges[ref]

    def edge_ref(self, e: Iterable[int]) -> int:
        """Index of the edge with the given vertex set; raises if absent."""
        key = tuple(sorted(set(e)))
        try:
            return self.edges.index(key)
        except ValueError:
            raise ValueError(f"no edge {key}") from None

    @cached_property
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        """``incidence[v]``: refs of the edges containing v, ascending."""
        table: list[list[int]] = [[] for _ in range(self.n)]
        for i, e in enumerate(self.edges):
            for v in e:
                table[v].append(i)
        return tuple(map(tuple, table))

    def incident(self, v: int) -> tuple[int, ...]:
        """Refs of all edges containing v."""
        self._check_vertex(v)
        return self.incidence[v]

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range")

    def _check_subset(self, xs: Iterable[int]) -> tuple[int, ...]:
        out = tuple(sorted(set(xs)))
        for v in out:
            self._check_vertex(v)
        return out

    # -- set-level operations ----------------------------------------------

    def induced(self, xs: Iterable[int]) -> Relabeled:
        """G[X]: keep exactly the edges fully inside X, relabel to 0..|X|-1."""
        old = self._check_subset(xs)
        pos = {v: i for i, v in enumerate(old)}
        keep = set(old)
        edges = [tuple(pos[v] for v in e) for e in self.edges if keep.issuperset(e)]
        return Relabeled(Hypergraph.of(len(old), edges), old)

    def shrink(self, xs: Iterable[int]) -> Relabeled:
        """G(X): intersect every edge with X, keep intersections of size >= 2.

        Duplicate intersections collapse to one edge (edges are sets).
        """
        old = self._check_subset(xs)
        pos = {v: i for i, v in enumerate(old)}
        keep = set(old)
        edges = set()
        for e in self.edges:
            cut = tuple(pos[v] for v in e if v in keep)
            if len(cut) >= 2:
                edges.add(cut)
        return Relabeled(Hypergraph.of(len(old), edges), old)

    def delete_vertices(self, xs: Iterable[int]) -> Relabeled:
        """G - X = G[V \\ X]."""
        drop = set(self._check_subset(xs))
        return self.induced(v for v in range(self.n) if v not in drop)

    def div_vertices(self, xs: Iterable[int]) -> Relabeled:
        """G / X = G(V \\ X)."""
        drop = set(self._check_subset(xs))
        return self.shrink(v for v in range(self.n) if v not in drop)

    def delete_edges(self, refs: Iterable[int]) -> "Hypergraph":
        """Same vertices, edges minus the given refs.  A subsequence of
        canonical edges is canonical, so only the refs are checked."""
        drop = set(refs)
        for r in drop:
            self.edge(r)
        return self._trusted(self.n, tuple(e for i, e in enumerate(self.edges) if i not in drop))

    def delete_edge(self, ref: int) -> "Hypergraph":
        return self.delete_edges((ref,))

    def boundary(self, xs: Iterable[int]) -> tuple[int, ...]:
        """Refs of the edges meeting both X and V \\ X; X must be a
        non-empty proper subset."""
        inside = set(self._check_subset(xs))
        if not inside or len(inside) == self.n:
            raise ValueError("boundary needs a non-empty proper vertex subset")
        return self._boundary(inside)

    def _boundary(self, inside: set[int]) -> tuple[int, ...]:
        out = []
        for i, e in enumerate(self.edges):
            k = sum(1 for v in e if v in inside)
            if 0 < k < len(e):
                out.append(i)
        return tuple(out)

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self.incidence[v])

    def min_degree(self) -> int:
        return min(map(len, self.incidence), default=0)

    def max_degree(self) -> int:
        return max(map(len, self.incidence), default=0)

    def union(self, other: "Hypergraph") -> "Hypergraph":
        """Union in a shared id space."""
        return Hypergraph.of(max(self.n, other.n), set(self.edges) | set(other.edges))

    def intersection(self, other: "Hypergraph") -> "Hypergraph":
        return Hypergraph.of(min(self.n, other.n), set(self.edges) & set(other.edges))

    def is_simple(self) -> bool:
        """True iff no edge is contained in another edge."""
        sets = [set(e) for e in self.edges]
        for i, a in enumerate(sets):
            for j, b in enumerate(sets):
                if i != j and a <= b:
                    return False
        return True

    def is_graph(self) -> bool:
        """True iff every edge is ordinary (size 2)."""
        return all(len(e) == 2 for e in self.edges)

    # -- HGR v1 text format -------------------------------------------------

    def to_hgr(self) -> str:
        lines = ["HGR 1", f"n {self.n}"]
        lines.extend("e " + " ".join(str(v) for v in e) for e in self.edges)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_hgr(cls, text: str) -> "Hypergraph":
        """Parse HGR v1 text.  A text in the form ``to_hgr`` writes is read
        in whole-text passes (``_from_canonical_hgr``); any other, and any
        faulty one, goes to the line loop (``_from_hgr_lines``), which
        reports the first faulty line."""
        g = cls._from_canonical_hgr(text)
        return cls._from_hgr_lines(text) if g is None else g

    @classmethod
    def _from_hgr_lines(cls, text: str) -> "Hypergraph":
        n: int | None = None
        edges: list[Edge] = []
        seen: set[Edge] = set()
        got_header = False
        for line_no, raw in enumerate(text.splitlines(), start=1):
            parts = raw.split()
            if len(parts) == 3 and parts[0] == "e" and n is not None and raw.isascii():
                # an edge of two ids after the count line, nearly every
                # line of a graph, takes one chained comparison; a faulty
                # one falls through to the checks below, which report it
                a, b = parts[1], parts[2]
                if a.isdigit() and b.isdigit():
                    try:
                        x, y = int(a), int(b)
                    except ValueError:  # over int()'s 4300-digit limit: reported below
                        x = y = 0
                    if x < y < n:
                        vs = (x, y)
                        size = len(seen)
                        seen.add(vs)
                        if len(seen) == size:
                            raise HgrFormatError(line_no, f"duplicate edge {vs}")
                        edges.append(vs)
                        continue
            if not parts or parts[0][0] == "#":  # a blank line or a comment
                continue
            if not got_header:
                if raw.strip() != "HGR 1":
                    raise HgrFormatError(line_no, "expected header 'HGR 1'")
                got_header = True
                continue
            ids = parts[1:]
            # int() alone also takes '+1', '1_0' and non-ASCII digits such as '０２'
            digits = "".join(ids)
            if parts[0] in ("n", "e") and ids and not (digits.isascii() and digits.isdigit()):
                raise HgrFormatError(line_no, "counts and vertex ids must be ASCII digits")
            if parts[0] == "e":  # tested first: all lines but two are edge lines
                if n is None:
                    raise HgrFormatError(line_no, "edge before vertex-count line")
                try:
                    vs = tuple(map(int, ids))
                except ValueError:  # ASCII digits already, so over int()'s 4300-digit limit
                    raise HgrFormatError(line_no, "vertex id out of range") from None
                if len(vs) < 2:
                    raise HgrFormatError(line_no, "edge has fewer than 2 vertices")
                if not all(map(operator.lt, vs, vs[1:])):
                    raise HgrFormatError(line_no, "vertex ids not strictly increasing")
                if vs[-1] >= n:
                    raise HgrFormatError(line_no, "vertex id out of range")
                size = len(seen)
                seen.add(vs)
                if len(seen) == size:
                    raise HgrFormatError(line_no, f"duplicate edge {vs}")
                edges.append(vs)
            elif parts[0] == "n":
                if n is not None:
                    raise HgrFormatError(line_no, "duplicate vertex-count line")
                if len(parts) != 2:
                    raise HgrFormatError(line_no, "expected 'n <count>'")
                # the length test comes first: int() refuses over 4300 digits
                count = parts[1].lstrip("0") or "0"
                if len(count) > len(str(MAX_VERTICES)) or int(count) > MAX_VERTICES:
                    raise HgrFormatError(
                        line_no, f"vertex count exceeds the limit of {MAX_VERTICES}"
                    )
                n = int(count)
            else:
                raise HgrFormatError(line_no, f"unknown directive {parts[0]!r}")
        if not got_header:
            raise HgrFormatError(1, "empty input, expected header 'HGR 1'")
        if n is None:
            raise HgrFormatError(1, "missing vertex-count line")
        # each edge is already strictly increasing; only the list needs sorting
        edges.sort()
        # the line checks above establish every invariant
        return cls._trusted(n, tuple(edges))

    @classmethod
    def _from_canonical_hgr(cls, text: str) -> "Hypergraph | None":
        """The value of a text in the form ``to_hgr`` writes, read in C-level
        passes over the whole text, or None for any other text and any
        fault, which the line loop of ``from_hgr`` then reads and reports.

        That form is ``HGR 1``, ``n <count>`` and one or more lines of
        ``e`` and the same number s >= 2 of ASCII-digit ids, each after one
        space, every line ending in LF, the last one too: ``count("\\n")``
        and the digit-deleting ``translate`` see nothing of digits after
        the last LF.  The count tests refuse a text of
        mixed edge sizes before the digit-deleting ``translate`` compares
        the rest with that layout."""
        if not (text.startswith("HGR 1\nn ") and text.endswith("\n")):
            return None
        end = text.find("\n", 8)
        count = text[8:end]
        if not (8 < end <= 8 + _COUNT_DIGITS and count.isascii() and count.isdigit()):
            return None
        n = int(count)
        body = text[end + 1 :]
        lines = body.count("\n")
        s = body.count(" ", 0, body.find("\n"))
        if (
            n > MAX_VERTICES
            or s < 2
            or body.count(" ") != s * lines
            or not body.startswith("e ")
            or body.count("\ne ") != lines - 1
            or "  " in body
            or " \n" in body
            or body.translate(_NO_DIGITS) != ("e" + " " * s + "\n") * lines
        ):
            return None
        # each line is now "e" and s runs of ASCII digits, one space before each
        try:
            ids = list(map(int, body.replace("e ", "").split()))
        except ValueError:  # over int()'s 4300-digit limit
            return None
        cols = [ids[j::s] for j in range(s)]  # cols[j]: the jth id of every line
        if max(cols[-1]) >= n or not all(all(map(operator.lt, a, b)) for a, b in zip(cols, cols[1:])):
            return None
        edges = sorted(zip(*cols))
        if not all(map(operator.ne, edges, edges[1:])):
            return None
        return cls._trusted(n, tuple(edges))
