import dataclasses
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from hyperchrome.hypercore import MAX_VERTICES, HgrFormatError, Hypergraph, canonical_edges
from conftest import hypergraphs, seeded_random_hypergraph
import oracles


class TestConstruction:
    def test_canonicalizes_edges(self):
        g = Hypergraph.of(4, [(2, 1), (3, 0, 1)])
        assert g.edges == ((0, 1, 3), (1, 2))

    def test_duplicate_edges_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Hypergraph(3, ((0, 1), (0, 1)))

    def test_small_edges_rejected(self):
        with pytest.raises(ValueError, match="size < 2"):
            Hypergraph(3, ((1,),))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out-of-range"):
            Hypergraph.of(3, [(0, 3)])

    def test_unsorted_raw_edges_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph(3, ((1, 0),))

    def test_value_equality(self):
        assert Hypergraph.of(3, [(1, 0)]) == Hypergraph.of(3, [(0, 1)])

    def test_empty(self):
        g = Hypergraph.of(0)
        assert g.n == 0 and g.m == 0


class TestAccessors:
    def test_incident_and_degree(self):
        g = Hypergraph.of(4, [(0, 1), (0, 2, 3), (1, 2)])
        assert g.incident(0) == (0, 1)
        assert g.degree(2) == 2
        assert g.min_degree() == 1 and g.max_degree() == 2

    @given(hypergraphs(max_n=7, sizes=(2, 3, 4)))
    def test_index_matches_edge_scans(self, g):
        for v in range(g.n):
            scan = tuple(i for i, e in enumerate(g.edges) if v in e)
            assert g.incident(v) == scan
            assert g.degree(v) == len(scan)
        degrees = [sum(v in e for e in g.edges) for v in range(g.n)]
        assert g.min_degree() == min(degrees, default=0)
        assert g.max_degree() == max(degrees, default=0)

    def test_index_is_not_part_of_the_value(self):
        a = Hypergraph.of(4, [(0, 1), (1, 2, 3)])
        b = Hypergraph.of(4, [(1, 2, 3), (0, 1)])
        assert a.degree(1) == 2  # builds a's table only
        assert "incidence" in vars(a) and "incidence" not in vars(b)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    @pytest.mark.parametrize("v", [-1, 4, 10])
    def test_out_of_range_vertex(self, v):
        g = Hypergraph.of(4, [(0, 1)])
        with pytest.raises(ValueError, match="out of range"):
            g.incident(v)
        with pytest.raises(ValueError, match="out of range"):
            g.degree(v)

    def test_edge_ref_roundtrip(self):
        g = Hypergraph.of(4, [(0, 1), (0, 2, 3)])
        for ref in range(g.m):
            assert g.edge_ref(g.edge(ref)) == ref
        with pytest.raises(ValueError, match="no edge"):
            g.edge_ref((1, 3))


class TestSetOperations:
    def test_induced_keeps_only_internal_edges(self):
        g = Hypergraph.of(5, [(0, 1), (1, 2, 3), (3, 4)])
        sub, old = g.induced([1, 2, 3])
        assert old == (1, 2, 3)
        assert sub.edges == ((0, 1, 2),)

    def test_shrink_keeps_residues(self):
        g = Hypergraph.of(5, [(0, 1), (1, 2, 3), (3, 4)])
        sub, old = g.shrink([1, 2, 3])
        assert sub.edges == ((0, 1, 2),) or (0, 1, 2) in sub.edges
        # the (3,4) edge leaves residue {3} -> dropped; (0,1) leaves {1} -> dropped
        assert sub.m == 1

    def test_shrink_collapses_duplicates(self):
        g = Hypergraph.of(4, [(0, 1, 2), (0, 1, 3)])
        sub, _ = g.shrink([0, 1])
        assert sub.edges == ((0, 1),)

    def test_delete_vs_div(self):
        g = Hypergraph.of(4, [(0, 1, 2), (2, 3)])
        assert g.delete_vertices([3]).graph.m == 1
        assert g.div_vertices([0]).graph.edges == ((0, 1), (1, 2))

    @given(hypergraphs(max_n=7, sizes=(2, 3, 4)), st.randoms(use_true_random=False))
    def test_delete_edges_is_the_canonical_value(self, g, rng):
        """``delete_edges`` skips the constructor's checks: a subsequence
        of canonical edges is canonical."""
        refs = [r for r in range(g.m) if rng.random() < 0.4]
        kept = [e for r, e in enumerate(g.edges) if r not in refs]
        got = g.delete_edges(refs + refs[:1])
        assert got == Hypergraph.of(g.n, kept) and hash(got) == hash(Hypergraph.of(g.n, kept))
        for bad in (-1, g.m):
            with pytest.raises(ValueError, match="out of range"):
                g.delete_edges([bad])

    def test_boundary(self):
        g = Hypergraph.of(4, [(0, 1), (1, 2, 3), (2, 3)])
        assert g.boundary([0, 1]) == (1,)
        with pytest.raises(ValueError):
            g.boundary([])
        with pytest.raises(ValueError):
            g.boundary(range(4))

    def test_union_intersection(self):
        a = Hypergraph.of(3, [(0, 1)])
        b = Hypergraph.of(4, [(0, 1), (2, 3)])
        assert a.union(b).edges == ((0, 1), (2, 3))
        assert a.intersection(b).edges == ((0, 1),)

    def test_simple_and_graph_predicates(self):
        assert Hypergraph.of(3, [(0, 1), (1, 2)]).is_simple()
        assert not Hypergraph.of(3, [(0, 1), (0, 1, 2)]).is_simple()
        assert Hypergraph.of(3, [(0, 1)]).is_graph()
        assert not Hypergraph.of(3, [(0, 1, 2)]).is_graph()


class TestHgrFormat:
    def test_round_trip_example(self):
        g = Hypergraph.of(4, [(0, 1), (0, 2, 3)])
        assert Hypergraph.from_hgr(g.to_hgr()) == g

    def test_comments_and_blanks(self):
        text = "# header comment\nHGR 1\n\nn 3\n# edge\ne 0 2\n"
        assert Hypergraph.from_hgr(text) == Hypergraph.of(3, [(0, 2)])

    @pytest.mark.parametrize(
        "text,line",
        [
            ("", 1),
            ("HGR 2\n", 1),
            ("HGR 1\ne 0 1\n", 2),
            ("HGR 1\nn 3\ne 1 0\n", 3),
            ("HGR 1\nn 3\ne 0 3\n", 3),
            ("HGR 1\nn 3\ne 0\n", 3),
            ("HGR 1\nn 3\nn 4\n", 3),
            ("HGR 1\nn 3\nx 0 1\n", 3),
            ("HGR 1\nn 3\ne 0 1\ne 0 1\n", 4),
            ("HGR 1\nn 12\ne 0 1_0\n", 3),
            ("HGR 1\nn 12\ne +1 2\n", 3),
            ("HGR 1\nn 12\ne 1 ０２\n", 3),
            ("HGR 1\nn 12\ne 0 ²\n", 3),
            ("HGR 1\nn 12\ne -1 2\n", 3),
            ("HGR 1\nn 3\ne 0 " + "9" * 5000 + "\n", 3),
        ],
    )
    def test_errors_carry_line_numbers(self, text, line):
        with pytest.raises(HgrFormatError) as exc:
            Hypergraph.from_hgr(text)
        assert exc.value.line_no == line

    def test_vertex_count_is_bounded(self):
        assert Hypergraph.from_hgr(f"HGR 1\nn {MAX_VERTICES}\ne 0 1\n").n == MAX_VERTICES
        assert Hypergraph.from_hgr("HGR 1\nn 000000003\ne 0 2\n").n == 3
        for count in (MAX_VERTICES + 1, 10**9, "9" * 5000):
            with pytest.raises(HgrFormatError) as exc:
                Hypergraph.from_hgr(f"HGR 1\nn {count}\ne 0 1\n")
            assert str(exc.value) == f"line 2: vertex count exceeds the limit of {MAX_VERTICES}"

    @pytest.mark.parametrize(
        "text,message",
        [
            ("", "line 1: empty input, expected header 'HGR 1'"),
            ("HGR 2\n", "line 1: expected header 'HGR 1'"),
            ("HGR 1\n", "line 1: missing vertex-count line"),
            ("HGR 1\ne 0 1\n", "line 2: edge before vertex-count line"),
            ("HGR 1\nn\n", "line 2: expected 'n <count>'"),
            ("HGR 1\nn 3 4\n", "line 2: expected 'n <count>'"),
            ("HGR 1\nn 3\ne 1 0\n", "line 3: vertex ids not strictly increasing"),
            ("HGR 1\nn 3\ne 1 1\n", "line 3: vertex ids not strictly increasing"),
            ("HGR 1\nn 3\ne 0 3\n", "line 3: vertex id out of range"),
            ("HGR 1\nn 3\ne 0\n", "line 3: edge has fewer than 2 vertices"),
            ("HGR 1\nn 3\ne\n", "line 3: edge has fewer than 2 vertices"),
            ("HGR 1\nn 3\nn 4\n", "line 3: duplicate vertex-count line"),
            ("HGR 1\nn 3\nx 0 1\n", "line 3: unknown directive 'x'"),
            ("HGR 1\nn 3\ne 0 1\ne 0 1\n", "line 4: duplicate edge (0, 1)"),
            ("HGR 1\nn 3\ne 0 2\ne 2 0\n", "line 4: vertex ids not strictly increasing"),
            ("HGR 1\nn 12\ne -1 2\n", "line 3: counts and vertex ids must be ASCII digits"),
        ],
    )
    def test_error_messages(self, text, message):
        with pytest.raises(HgrFormatError) as exc:
            Hypergraph.from_hgr(text)
        assert str(exc.value) == message

    def test_parse_checks_each_line_once(self, monkeypatch):
        # the line checks establish every invariant, so the parsed value
        # skips the constructor's second pass
        def refuse(self):
            raise AssertionError("__post_init__ ran")

        text = "HGR 1\nn 5\ne 3 4\ne 0 1 2\ne 1 3\n"
        expected = Hypergraph.of(5, [(0, 1, 2), (1, 3), (3, 4)])
        monkeypatch.setattr(Hypergraph, "__post_init__", refuse)
        parsed = Hypergraph.from_hgr(text)
        monkeypatch.undo()
        assert parsed == expected and hash(parsed) == hash(expected)
        assert parsed.incidence == expected.incidence
        with pytest.raises(dataclasses.FrozenInstanceError):
            parsed.n = 6

    @pytest.mark.parametrize(
        "n,edges",
        [(-1, ()), (3, ((0,),)), (3, ((1, 0),)), (3, ((0, 3),)), (3, ((0, 1), (0, 1))),
         (3, ((1, 2), (0, 1)))],
    )
    def test_direct_construction_still_validates(self, n, edges):
        with pytest.raises(ValueError):
            Hypergraph(n, edges)

    @given(hypergraphs(sizes=(2, 3, 4)))
    def test_round_trip_property(self, g):
        assert Hypergraph.from_hgr(g.to_hgr()) == g

    @given(hypergraphs(sizes=(2, 3, 4)), st.randoms(use_true_random=False))
    def test_round_trip_with_edge_lines_shuffled(self, g, rng):
        lines = g.to_hgr().splitlines()
        edge_lines = lines[2:]
        rng.shuffle(edge_lines)
        parsed = Hypergraph.from_hgr("\n".join(lines[:2] + edge_lines) + "\n")
        assert parsed == g and hash(parsed) == hash(g)


def _parsed(parse, text: str):
    """The parsed value, or the text of the ``HgrFormatError``."""
    try:
        return parse(text)
    except HgrFormatError as exc:
        return str(exc)


# tokens the parser must refuse or read as the reference parser does
_ODD_TOKENS = ["+1", "1_0", "０２", "-1", "²", "01", "00", "9" * 5000, "#", "x", "e", "n", "1#"]


def _mutated_hgr(rng: random.Random, g: Hypergraph) -> str:
    """g's HGR text with a few random faults and decorations: blank and
    comment lines, odd tokens, duplicate, unsorted, repeated and
    out-of-range ids, duplicate lines, and other line separators."""
    lines = g.to_hgr().splitlines()
    for _ in range(rng.randint(0, 4)):
        if not lines:
            break
        i = rng.randrange(len(lines))
        parts = lines[i].split()
        kind = rng.randrange(9)
        if kind == 0:
            lines.insert(i, rng.choice(["", "  ", "\t", "# note", "  # indented", "#", "\x0b"]))
        elif kind == 1:
            lines.insert(i, lines[i])  # a duplicate edge, count or header line
        elif kind == 2 and parts:
            parts[rng.randrange(len(parts))] = rng.choice(_ODD_TOKENS)
            lines[i] = " ".join(parts)
        elif kind == 3 and len(parts) > 2:
            lines[i] = " ".join(parts[:1] + parts[:0:-1])  # ids unsorted
        elif kind == 4 and len(parts) > 2:
            j = rng.randrange(2, len(parts))
            parts[j] = parts[j - 1]  # a repeated id
            lines[i] = " ".join(parts)
        elif kind == 5 and parts:
            parts[-1] = str(g.n + rng.randrange(3))  # out of range, or a larger count
            lines[i] = " ".join(parts)
        elif kind == 6:
            lines[i] = rng.choice([" ", "\t", "\u3000"]) + lines[i] + rng.choice(["", " ", "\t"])
        elif kind == 7:
            del lines[i]
        else:
            lines[i] = lines[i].replace(" ", rng.choice(["  ", "\t", " \x0c "]))
    sep = rng.choice(["\n", "\r\n", "\r", "\u2028", "\x85"])
    return sep.join(lines) + rng.choice(["", sep])


class TestParserMatchesReference:
    """``from_hgr`` gives the value, or the error text, of the parser it
    replaced (``oracles.reference_from_hgr``)."""

    @settings(max_examples=200, deadline=None)
    @given(hypergraphs(sizes=(2, 3, 4)), st.randoms(use_true_random=False))
    def test_on_mutated_text(self, g, rng):
        text = _mutated_hgr(rng, g)
        assert _parsed(Hypergraph.from_hgr, text) == _parsed(oracles.reference_from_hgr, text)

    def test_on_seeded_mutations(self):
        rng = random.Random(16)
        outcomes = set()
        for _ in range(3000):
            g = seeded_random_hypergraph(rng, rng.randint(0, 8), (2, 3, 4, 5), 10)
            text = _mutated_hgr(rng, g)
            got = _parsed(Hypergraph.from_hgr, text)
            assert got == _parsed(oracles.reference_from_hgr, text), text
            outcomes.add(re.sub(r"^line \d+: | [('].*", "", got) if isinstance(got, str) else "parsed")
        # a value, and every message of the parser without its detail
        assert len(outcomes) == 14, outcomes

    @pytest.mark.parametrize(
        "body,want",
        [
            ("n 4\ne\n", "line 3: edge has fewer than 2 vertices"),
            ("n 4\ne 5\n", "line 3: edge has fewer than 2 vertices"),
            ("n 4\ne 3 3\n", "line 3: vertex ids not strictly increasing"),
            ("n 4\ne 4 2\n", "line 3: vertex ids not strictly increasing"),
            ("n 4\ne 0 4\n", "line 3: vertex id out of range"),
            ("n 4\ne 0 1\ne 2 3\ne 0 1\n", "line 5: duplicate edge (0, 1)"),
            ("e 0 1\nn 4\n", "line 2: edge before vertex-count line"),
            ("n 4\ne 0 ３\n", "line 3: counts and vertex ids must be ASCII digits"),
            ("n 4\ne +0 1\n", "line 3: counts and vertex ids must be ASCII digits"),
            ("n 4\ne 0 1\nn 4\n", "line 4: duplicate vertex-count line"),
            ("n 4\ne 0 1\nf 0 1\n", "line 4: unknown directive 'f'"),
            # two faults: the earlier line's is reported, whichever branch reads it
            ("n 4\ne 0 9\ne 2 1\n", "line 3: vertex id out of range"),
            ("n 4\ne 1 1 2\ne 2 1\n", "line 3: vertex ids not strictly increasing"),
            ("n 4\ne 0 1\ne 0 1\ne 0 1 9\n", "line 4: duplicate edge (0, 1)"),
            ("n 4\n# e 3 3\n\ne 00 03\ne 1 2 3\n", None),
        ],
    )
    def test_edge_lines_after_the_count_line(self, body, want):
        """The cases of the two-id edge branch and of the checks its
        faulty lines fall through to, which the mutations reach only by
        chance: fewer than two ids, equal or descending ids, a repeated
        line, an edge before the count, and two faults in one input."""
        text = "HGR 1\n" + body
        got = _parsed(Hypergraph.from_hgr, text)
        assert got == _parsed(oracles.reference_from_hgr, text)
        if want is None:
            assert got == Hypergraph.of(4, [(0, 3), (1, 2, 3)])
        else:
            assert got == want


@st.composite
def uniform_hypergraphs(draw):
    """A hypergraph whose edges all have one size from 2 to 5."""
    size = draw(st.integers(2, 5))
    return draw(hypergraphs(min_n=size, max_n=9, sizes=(size,)))


def _planted(kind: str, rng: random.Random, g: Hypergraph) -> str:
    """g's HGR text, of one or more edges, with one fault or one
    departure from the form ``to_hgr`` writes."""
    lines = g.to_hgr().splitlines()
    i = rng.randrange(2, len(lines))  # an edge line
    if kind == "repeated line":
        lines.insert(rng.randrange(2, len(lines) + 1), lines[i])
    elif kind == "e 0":
        lines.insert(rng.randrange(2, len(lines) + 1), "e 0")
    elif kind == "n 0":
        lines[1] = "n 0"
    elif kind == "no final newline":
        return "\n".join(lines)
    elif kind == "trailing id without newline":
        return "\n".join(lines) + "\n" + str(rng.randrange(g.n))
    elif kind == "CRLF line":
        lines[i] += "\r"
    else:  # a fault in the ids of line i
        ids = lines[i].split()[1:]
        j = rng.randrange(len(ids))
        if kind == "descending ids":
            ids.reverse()
        elif kind == "repeated id":
            j = rng.randrange(1, len(ids))
            ids[j] = ids[j - 1]
        elif kind == "id equal to n":
            ids[-1] = str(g.n)
        elif kind == "8-digit id":
            ids[j] = str(rng.randrange(10**7, 10**8))
        elif kind == "zero-padded 8-digit id":
            ids[j] = ids[j].zfill(8)
        else:
            assert kind == "5000-digit id", kind
            ids[j] = "9" * 5000
        lines[i] = " ".join(["e", *ids])
    return "\n".join(lines) + "\n"


class TestWholeTextPath:
    """``_from_canonical_hgr`` reads the texts ``to_hgr`` writes, in
    whole-text passes, to the value of ``oracles.reference_from_hgr``,
    and refuses every other text and every fault, which the line loop
    then reads or reports."""

    @settings(max_examples=300, deadline=None)
    @given(uniform_hypergraphs(), st.randoms(use_true_random=False))
    def test_uniform_text_is_read_whole(self, g, rng):
        lines = g.to_hgr().splitlines()
        edge_lines = lines[2:]
        rng.shuffle(edge_lines)  # the whole-text path sorts the edges
        for text in (g.to_hgr(), "\n".join(lines[:2] + edge_lines) + "\n"):
            want = oracles.reference_from_hgr(text)
            got = Hypergraph._from_canonical_hgr(text)
            if g.m:
                assert got == want and hash(got) == hash(want) and got.incidence == want.incidence
            else:  # no edge line: the line loop reads the header alone
                assert got is None
            assert Hypergraph.from_hgr(text) == want

    @pytest.mark.parametrize(
        "kind",
        ["repeated line", "descending ids", "repeated id", "id equal to n", "8-digit id",
         "zero-padded 8-digit id", "5000-digit id", "e 0", "n 0", "no final newline",
         "trailing id without newline", "CRLF line"],
    )
    @settings(max_examples=60, deadline=None)
    @given(g=uniform_hypergraphs().filter(lambda g: g.m), rng=st.randoms(use_true_random=False))
    def test_one_planted_fault(self, kind, g, rng):
        text = _planted(kind, rng, g)
        want = _parsed(oracles.reference_from_hgr, text)
        assert _parsed(Hypergraph.from_hgr, text) == want
        got = Hypergraph._from_canonical_hgr(text)
        if kind == "zero-padded 8-digit id":  # still the canonical form, and valid
            assert got == want
        else:
            assert got is None

    def test_canonical_text_skips_the_line_loop(self, monkeypatch):
        """A uniform text in the canonical form never reaches the line
        loop; a mixed-size or commented one does.  Neither runs the
        constructor's checks, and all give the one value."""
        loop, reached = Hypergraph._from_hgr_lines, []

        def spied(text):
            reached.append(text)
            return loop(text)

        def refuse(self):
            raise AssertionError("__post_init__ ran")

        uniform = Hypergraph.of(7, [(0, 3, 6), (4, 5, 6), (0, 1, 2), (2, 3, 4)])
        mixed = Hypergraph.of(7, [(0, 3, 6), (4, 5), (0, 1, 2), (2, 3, 4)])
        canonical = uniform.to_hgr()
        commented = canonical.replace("\ne 2", "\n# a comment\ne 2")
        monkeypatch.setattr(Hypergraph, "_from_hgr_lines", spied)
        monkeypatch.setattr(Hypergraph, "__post_init__", refuse)
        parsed = [Hypergraph.from_hgr(t) for t in (canonical, commented, mixed.to_hgr())]
        monkeypatch.undo()
        assert reached == [commented, mixed.to_hgr()]
        for got, want in zip(parsed, (uniform, uniform, mixed)):
            assert got == want and hash(got) == hash(want) and got.incidence == want.incidence


@given(hypergraphs())
def test_canonical_edges_idempotent(g):
    assert canonical_edges(g.edges) == g.edges
