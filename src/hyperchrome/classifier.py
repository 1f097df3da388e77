"""Membership in the join-closed critical classes, replayable join
certificates, critical-subhypergraph extraction, and the classifier
that decides whether the chromatic number meets the connectivity bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Union

from .hypercore import Hypergraph, Relabeled
from . import coloring as col
from . import connectivity as conn
from . import constructions as cons
from . import shapes
from .connectivity import InternalError  # re-exported: the CLI maps it to exit 4


class CertificateError(ValueError):
    """A certificate given to the program is malformed or fails to
    replay."""


# -- certificates ----------------------------------------------------------


@dataclass(frozen=True)
class Leaf:
    """Base shape with explicit target ids.  ``labels[i]`` is the target
    id of canonical vertex i: for an odd wheel the canonical layout is
    rim 0..r-1 in cyclic order then the hub; for a complete graph any
    order."""

    kind: str  # "odd_wheel" | "complete"
    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in ("odd_wheel", "complete"):
            raise CertificateError(f"unknown leaf kind {self.kind!r}")
        if len(set(self.labels)) != len(self.labels):
            raise CertificateError("leaf labels are not distinct")
        if self.kind == "odd_wheel" and (len(self.labels) < 4 or len(self.labels) % 2):
            raise CertificateError("odd wheel leaf needs even order >= 4")
        if self.kind == "complete" and len(self.labels) < 2:
            raise CertificateError("complete leaf needs order >= 2")


@dataclass(frozen=True)
class Join:
    """Join of the two sub-certificates in a shared target id space:
    the parts overlap exactly in ``vstar``, the edges ``e1``/``e2``
    (given as target vertex tuples) are deleted, and the merged edge
    (e1 ∪ e2) − {v*} — plus v* when ``include_vstar`` — is added."""

    left: "Certificate"
    right: "Certificate"
    vstar: int
    e1: tuple[int, ...]
    e2: tuple[int, ...]
    include_vstar: bool


Certificate = Union[Leaf, Join]

Replayed = tuple[frozenset[int], frozenset[frozenset[int]]]


def replay_certificate(cert: Certificate) -> Replayed:
    """Rebuild the certified hypergraph bottom-up as explicit vertex
    and edge sets in target ids, checking every join invariant.  The
    merged edge then holds a vertex of each part other than v*, so it
    has two or more vertices and equals no other edge."""
    if isinstance(cert, Leaf):
        vs = frozenset(cert.labels)
        if cert.kind == "complete":
            es = frozenset(frozenset(p) for p in itertools.combinations(cert.labels, 2))
        else:
            rim, hub = cert.labels[:-1], cert.labels[-1]
            es = frozenset(
                frozenset((rim[i], rim[(i + 1) % len(rim)])) for i in range(len(rim))
            ) | frozenset(frozenset((v, hub)) for v in rim)
        return vs, es
    v1, es1 = replay_certificate(cert.left)
    v2, es2 = replay_certificate(cert.right)
    if v1 & v2 != {cert.vstar}:
        raise CertificateError("join parts must overlap exactly in the merged vertex")
    e1, e2 = frozenset(cert.e1), frozenset(cert.e2)
    if e1 not in es1 or e2 not in es2:
        raise CertificateError("deleted edge missing from its part")
    if cert.vstar not in e1 or cert.vstar not in e2:
        raise CertificateError("merged vertex must lie on both deleted edges")
    estar = (e1 | e2) - {cert.vstar}
    if cert.include_vstar:
        estar |= {cert.vstar}
    return v1 | v2, (es1 - {e1}) | (es2 - {e2}) | {estar}


def certificate_matches(cert: Certificate, vertices, edges) -> bool:
    """Bit-exact comparison of the replay against explicit target sets."""
    vs, es = replay_certificate(cert)
    return vs == frozenset(vertices) and es == {frozenset(e) for e in edges}


def verify_certificate(g: Hypergraph, cert: Certificate) -> bool:
    """Whether the certificate replays to g.  A join deletes two edges
    and adds one, so an edge count of its leaves' edges less one per
    join that differs from g's answers False before any replay."""
    count, stack = 0, [cert]
    while stack:
        node = stack.pop()
        if isinstance(node, Join):
            count -= 1
            stack += (node.left, node.right)
        else:
            r = len(node.labels)
            count += r * (r - 1) // 2 if node.kind == "complete" else 2 * (r - 1)
    return count == g.m and certificate_matches(cert, range(g.n), g.edges)


def certificate_to_json(cert: Certificate) -> dict:
    if isinstance(cert, Leaf):
        return {"type": "leaf", "kind": cert.kind, "labels": list(cert.labels)}
    return {
        "type": "join",
        "left": certificate_to_json(cert.left),
        "right": certificate_to_json(cert.right),
        "vstar": cert.vstar,
        "e1": list(cert.e1),
        "e2": list(cert.e2),
        "include_vstar": cert.include_vstar,
    }


def _vertex_ids(values, where: str) -> tuple[int, ...]:
    if type(values) is not list:
        raise CertificateError(f"{where} is not a list")
    bad = [v for v in values if type(v) is not int]
    if bad:
        raise CertificateError(f"vertex id {bad[0]!r} is not an integer")
    return tuple(values)


def _flag(value) -> bool:
    """A JSON boolean; ``bool()`` would read the string "false" as True."""
    if type(value) is not bool:
        raise CertificateError(f"include_vstar {value!r} is not a boolean")
    return value


def certificate_from_json(data) -> Certificate:
    """The certificate a JSON value describes; a malformed one raises
    ``CertificateError`` naming the node at fault by its path from the
    root, such as ``certificate.right.labels``."""
    return _node_from_json(data, "certificate")


def _node_from_json(data, where: str) -> Certificate:
    if type(data) is not dict:
        raise CertificateError(f"{where} is not a JSON object")
    try:
        if data["type"] == "leaf":
            return Leaf(data["kind"], _vertex_ids(data["labels"], f"{where}.labels"))
        if data["type"] == "join":
            return Join(
                _node_from_json(data["left"], f"{where}.left"),
                _node_from_json(data["right"], f"{where}.right"),
                _vertex_ids([data["vstar"]], f"{where}.vstar")[0],
                _vertex_ids(data["e1"], f"{where}.e1"),
                _vertex_ids(data["e2"], f"{where}.e2"),
                _flag(data["include_vstar"]),
            )
    except KeyError as exc:
        raise CertificateError(f"malformed certificate JSON: {where} has no {exc}") from None
    raise CertificateError(f"unknown certificate node type {data['type']!r}")


# -- membership and certification ------------------------------------------


def is_in_Ck(g: Hypergraph, k: int) -> bool:
    """Membership in the class at k, by the one decider: a certificate
    builds.  The semantic definition, (k+1)-critical with local edge
    connectivity at most k, is a reference in the tests.  Only k >= 3
    is decided."""
    if k < 3:
        raise ValueError("membership is only decided for k >= 3")
    return hk_certificate(g, k) is not None


def hk_certificate(g: Hypergraph, k: int) -> Certificate | None:
    """A replayable join decomposition over the base shapes, or None
    outside the class.  The class is the join closure of the base
    shapes, so a certificate that replays proves membership.  This is
    the library's one membership decider; ``is_in_Ck`` reads it."""
    if k < 3:
        raise ValueError("certificates exist only for k >= 3")
    if not conn.is_connected(g):
        return None
    return _build_certificate(g, k, range(g.n))


def _build_certificate(g: Hypergraph, k: int, ids) -> Certificate | None:
    """Certificate of g in target ids ``ids[v]``, or None outside the
    join closure of the base shapes; a bit-exact replay proves membership."""
    cert = _certify(g, k, ids)
    if cert is None:
        return None
    try:
        match = certificate_matches(cert, ids, ([ids[v] for v in e] for e in g.edges))
    except CertificateError as exc:
        raise InternalError(f"built certificate does not replay: {exc}; internal bug") from exc
    if not match:
        raise InternalError("certificate replay mismatch; internal bug")
    return cert


def _may_be_member(n: int, m: int, k: int) -> bool:
    """A counting test every member of the class at k passes.  A join
    has n = n1 + n2 - 1 and m = m1 + m2 - 1, so n - 1 and m - 1 add up
    over the t leaves of a certificate.  For k >= 4 the leaves are
    K_{k+1}, each with n_i - 1 = k and m_i - 1 = k(k+1)/2 - 1.  For
    k = 3 they are odd wheels, each with an odd rim r_i = n_i - 1 >= 3
    and m_i - 1 = 2 r_i - 1, so t = 2(n - 1) - (m - 1), n - 1 >= 3t
    and n - 1 has the parity of t."""
    if k == 3:
        t = 2 * n - m - 1
        return t >= 1 and n - 1 >= 3 * t and (n - 1 - t) % 2 == 0
    t, rest = divmod(n - 1, k)
    return rest == 0 and m - 1 == t * (k * (k + 1) // 2 - 1)


def _certify(g: Hypergraph, k: int, ids) -> Certificate | None:
    """Certificate of g in target ids, or None; the caller replays it.
    g is connected: the root is checked or is a block, and each part of
    a decomposition of a connected hypergraph is connected."""
    if not _may_be_member(g.n, g.m, k):
        return None
    # A base shape has no separating (vertex, edge) pair; in the class,
    # one exists iff g is a join.
    if k == 3:
        layout = shapes._odd_wheel_layout(g)
        if layout is not None:
            return Leaf("odd_wheel", tuple(ids[v] for v in layout))
    elif shapes.is_complete_graph(g) and g.n == k + 1:
        return Leaf("complete", tuple(ids))
    first = _first_mixed_pair(g, k)
    if first is None:
        return None
    v_star, e_star = first
    try:
        dec = cons.hajos_decompose_mixed(g, v_star, e_star)
    except ValueError:
        return None
    ids1 = [ids[u] for u in dec.g1_old]
    ids2 = [ids[u] for u in dec.g2_old]
    left = _certify(dec.spec.g1, k, ids1)
    right = _certify(dec.spec.g2, k, ids2) if left is not None else None
    if right is None:
        return None
    return Join(
        left, right, ids[v_star],
        tuple(sorted(ids1[u] for u in dec.spec.g1.edge(dec.spec.e1))),
        tuple(sorted(ids2[u] for u in dec.spec.g2.edge(dec.spec.e2))),
        include_vstar=v_star in g.edge(e_star),
    )


def _first_mixed_pair(g: Hypergraph, k: int) -> tuple[int, int] | None:
    """The first pair (v, e) of ``mixed_separating_sets``, by least edge
    ref and then least vertex, when g is in the class at k.  On any
    other g it is None or a pair that the caller's decomposition or
    recursion rejects, since every certificate built at a node replays
    to that node's graph.

    Members are (k+1)-critical: every vertex has degree at least k, G
    is 2-connected, and deleting no one edge disconnects it.  In a
    (k+1)-critical G with k >= 3, every mixed pair (v, e) has
    deg v >= 2k - 2 >= k + 1.  Split G - e - v into
    sides A and B, and let G_A hold the edges other than e inside A + v.
    Every k-colouring of G_A makes (e & A) + v monochromatic; otherwise
    it glues to a k-colouring of G_B that agrees at v, with two colours
    other than v's swapped in G_B if e needs it, and G would be
    k-colourable.  With at most k - 2 edges in G_A, v could be
    recoloured away from that colour, so v has at least k - 1 edges on
    each side.  One articulation pass per vertex of degree > k thus
    finds every pair."""
    deg = [len(refs) for refs in g.incidence]
    if min(deg) < k:
        return None
    n = g.n
    best = None
    for v, d in enumerate(deg):
        if d > k:
            count = conn._articulation(g, v)[1]
            # the least ref e such that G - v - e has more components than G - v
            ref = next((ref for ref in range(g.m) if count[n + ref] > 1), None)
            if ref is not None and (best is None or ref < best[1]):
                best = (v, ref)
    return best


# -- critical subhypergraph extraction -------------------------------------


def extract_critical(g: Hypergraph, target_chi: int, force: bool = False) -> Relabeled:
    """A critical subhypergraph with the same chromatic number, with id
    provenance.  Deterministic: lowest-index edge deletions first, then
    the one component with edges is kept.

    One per-edge scan of ``is_critical`` (``coloring._failing_edges``)
    runs over g to the end and every edge it finds failing is deleted.
    An edge it passes stays needed after later deletions: a coloring
    of G - e with fewer colors is one of G - e minus more edges.  So
    the result H has chi(H) = target_chi, and deleting any edge of H
    lowers chi.  H has one component with edges: chi is the max over
    the components, and an edge outside one of chi target_chi could be
    deleted without lowering it.  The scan runs coloring searches, each
    under the decision cap unless force is set, unless the theorem
    shows g critical: g is then the answer."""
    chi, _, critical = col._chi(g, force)
    if chi != target_chi:
        raise ValueError(f"chromatic number is not {target_chi}")
    if critical:
        return g.induced(range(g.n))
    if target_chi <= 1:
        return g.induced(range(min(g.n, 1)))
    cur = g.delete_edges(col._failing_edges(g, target_chi - 1, force))
    kept = [comp for comp in conn._pieces(cur) if cur.incidence[comp[0]]]
    if len(kept) != 1:
        raise InternalError(f"the edges left form {len(kept)} components; internal bug")
    return cur.induced(kept[0])


# -- the classifier --------------------------------------------------------


@dataclass(frozen=True)
class ClassifyOutcome:
    """Either a lambda-coloring, a certified tight block, or the small
    connectivity report (where the bound's tight cases are explicitly
    characterized for lambda <= 1 and open for lambda = 2)."""

    lam: int
    chi: int
    verdict: str  # "colorable" | "tight" | "small-lambda"
    coloring: col.Coloring | None = None
    block: tuple[int, ...] | None = None
    certificate: Certificate | None = None
    note: str = ""


def classify(g: Hypergraph, force: bool = False) -> ClassifyOutcome:
    """Decide whether chi(G) = lambda(G)+1, with a witness either way
    when lambda >= 3.

    For lambda >= 3, chi(G) = lambda + 1 iff some block of G is in the
    class at lambda, and ``_decide`` finds the first such block with
    lambda.  Only when there is none does the lambda-coloring search
    run, and then it must succeed; chi is then the least k from the
    clique bound up at which a k-coloring exists, and at most lambda.
    Every search runs under the decision cap unless force is set."""
    lam, tight = _decide(g, need_lam=True)
    if tight is not None:
        cert, b = tight
        return ClassifyOutcome(lam, lam + 1, "tight", block=b.vertices, certificate=cert)
    if lam >= 3:
        phi = col.find_k_coloring(g, lam, _force=force)
        if phi is None:
            raise InternalError("no block certifies and no lambda-coloring exists; internal bug")
        chi = col._chi_by_search(g, force, lam)
        return ClassifyOutcome(lam, chi, "colorable", coloring=phi)
    if lam == 1:
        return ClassifyOutcome(
            lam, 2, "small-lambda",
            note="every block is a single edge, chi = 2 = lambda + 1",
        )
    chi = col._chi_by_search(g, force, lam)
    if lam == 0:
        note = (
            "edgeless: every component is a single vertex, chi = lambda + 1"
            if g.n else "empty hypergraph"
        )
        return ClassifyOutcome(lam, chi, "small-lambda", note=note)
    note = (
        "chi = 3 = lambda + 1; no certificate family is known at lambda = 2"
        if chi == 3 else "chi <= lambda"
    )
    return ClassifyOutcome(lam, chi, "small-lambda", note=note)


def _decide(
    g: Hypergraph, need_lam: bool
) -> tuple[int | None, tuple[Certificate, conn.Block] | None]:
    """(lambda, tight): lambda(G), and the first block of g, by
    descending first edge ref, that certifies at lambda >= 3 with its
    certificate in g's ids, or None.  By the theorem chi(G) = lambda + 1
    iff there is such a block, and then that block is (lambda+1)-critical.
    Without ``need_lam``, lambda is None when no block certifies, and
    no flow runs then.

    Each block with two or more edges is certified at the one class its
    counting test ``_candidate_class`` allows; a block that fails it
    costs O(1).  A block whose certificate replays is in the class at
    k, and then its lambda is k:

    - members are (k+1)-critical, so Toft's bound chi <= lambda + 1
      gives lambda >= k;
    - a join never raises lambda.  Let G join G1 and G2 at v*, with
      merged edge e*.  For x, y in G1, at most one of a set of
      edge-disjoint x-y hyperpaths uses e*, and only that one can enter
      G2 - v*, since it must go in and out through {v*, e*}; replacing
      its excursion, or its use of e*, by e1 gives as many x-y paths in
      G1.  For x in G1 - v* and y in G2 - v*, cutting each path at its
      first use of v* or of e* (read as e1) gives as many edge-disjoint
      x-v* paths in G1.  So lambda(G) <= max(lambda(G1), lambda(G2)),
      and the base shapes have lambda = k: K_{k+1} has k, and in an odd
      wheel every pair holds a rim vertex, of degree 3.

    lambda(G) is the max of lambda over the blocks, and a block with
    one edge has lambda 1.  So when every block with two or more edges
    certifies, lambda is known without a flow, and an input whose
    blocks are single edges has lambda = 1.  Otherwise the flows give
    lambda, and the tight block is the first certified at lambda.  When
    a block fails the counting test and lambda is needed, the flows are
    needed anyway: they run first, and only the blocks whose class is
    lambda are certified, in the same order, up to the first that
    certifies."""
    multi = sorted((b for b in conn.blocks(g) if len(b.edge_refs) > 1),
                   key=lambda b: -b.edge_refs[0])
    classes = [_candidate_class(len(b.vertices), len(b.edge_refs)) for b in multi]
    lam = None
    if need_lam and None in classes:
        lam = conn.max_local_edge_connectivity(g)
        multi = [b for b, k in zip(multi, classes) if k == lam]
    certified = []  # (k, certificate, block), in visit order
    for b in multi:
        found = _block_certificate(g, b)
        if found is not None:
            certified.append((*found, b))
            if lam is not None:
                break
    if lam is None:
        if len(certified) == len(multi):
            lam = max((k for k, _, _ in certified), default=min(g.m, 1))
        elif certified or need_lam:
            lam = conn.max_local_edge_connectivity(g)
        else:
            return None, None
    return lam, next(((cert, b) for k, cert, b in certified if k == lam), None)


def _block_certificate(g: Hypergraph, b: conn.Block) -> tuple[int, Certificate] | None:
    """(k, certificate) for a block of g in the class at k, in g's ids,
    or None.  The block's graph is built only when the counting test
    passes, and g itself stands for a block that is all of g."""
    k = _candidate_class(len(b.vertices), len(b.edge_refs))
    if k is None:
        return None
    cert = _build_certificate(g if _is_all_of(b, g) else b.graph(g), k, b.vertices)
    return None if cert is None else (k, cert)


def _is_all_of(b: conn.Block, g: Hypergraph) -> bool:
    """Whether the block b of g is all of g."""
    return len(b.vertices) == g.n and len(b.edge_refs) == g.m


def _candidate_class(n: int, m: int) -> int | None:
    """The one k >= 3 at which ``_may_be_member`` passes a hypergraph
    with n >= 2 vertices and m edges, or None.  A member at k = 3 has
    m - 1 < 2(n - 1); one at k >= 4 has (m - 1)/(n - 1) =
    (k + 1)/2 - 1/k >= 9/4, which increases with k, so at most one k
    passes, and it is the first k >= 4 at which that ratio is reached."""
    if _may_be_member(n, m, 3):
        return 3
    k = 4
    while (k * (k + 1) // 2 - 1) * (n - 1) < (m - 1) * k:
        k += 1
    return k if _may_be_member(n, m, k) else None


# -- degree-bound classifier -----------------------------------------------


@dataclass(frozen=True)
class JonesVerdict:
    equality: bool  # chi = max_degree + 1
    shape: str | None  # "complete" | "odd_cycle" | "single_edge"
    chi: int
    max_degree: int


def jones_classify(g: Hypergraph, force: bool = False) -> JonesVerdict:
    """Report whether chi reaches the degree bound max_degree + 1, and
    which extremal shape realizes it; the iff is asserted."""
    if not conn.is_connected(g):
        raise ValueError("degree-bound classification needs a connected hypergraph")
    chi = col.chromatic_number(g, force=force)
    shape = None
    if shapes.is_complete_graph(g):
        shape = "complete"
    elif shapes.is_odd_cycle(g):
        shape = "odd_cycle"
    elif g.m == 1:
        shape = "single_edge"
    equality = chi == g.max_degree() + 1
    if equality != (shape is not None):
        raise InternalError("degree-bound characterization failed; internal bug")
    return JonesVerdict(equality, shape, chi, g.max_degree())
