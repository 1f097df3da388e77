import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hyperchrome import classifier, cli
from hyperchrome import coloring as col
from hyperchrome import connectivity as conn
from hyperchrome import constructions as cons
from hyperchrome import corpus
from hyperchrome.hypercore import MAX_VERTICES, Hypergraph

from conftest import (
    hypergraphs, join_chain, random_nested_join, stars_and_c5, stars_and_grotzsch,
)


# a join of two K4 leaves at vertex 3, as a user's certificate file holds it
JOIN = {
    "type": "join",
    "left": {"type": "leaf", "kind": "complete", "labels": [0, 1, 2, 3]},
    "right": {"type": "leaf", "kind": "complete", "labels": [3, 4, 5, 6]},
    "vstar": 3,
    "e1": [2, 3],
    "e2": [3, 4],
    "include_vstar": False,
}


def write_hgr(tmp_path, g, name="g.hgr"):
    path = tmp_path / name
    path.write_text(g.to_hgr())
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, argv)
    return code, json.loads(out)


class TestBasicVerbs:
    def test_chi(self, tmp_path, capsys):
        path = write_hgr(tmp_path, cons.complete_graph(4))
        code, payload = run_json(capsys, ["chi", path])
        assert code == 0 and payload == {"chi": 4}

    def test_color_negative_verdict(self, tmp_path, capsys):
        path = write_hgr(tmp_path, cons.complete_graph(4))
        code, payload = run_json(capsys, ["color", path, "-k", "3"])
        assert code == 1 and payload["coloring"] is None

    def test_critical_exit_codes(self, tmp_path, capsys):
        g = Hypergraph.of(5, list(cons.complete_graph(4).edges) + [(3, 4)])
        path = write_hgr(tmp_path, g)
        code, payload = run_json(capsys, ["critical", path, "-k", "4"])
        assert code == 1 and payload["critical"] is False
        path = write_hgr(tmp_path, cons.complete_graph(4), "k4.hgr")
        code, payload = run_json(capsys, ["critical", path, "-k", "4"])
        assert code == 0 and payload["critical"] is True

    def test_lambda_with_pair(self, tmp_path, capsys):
        path = write_hgr(tmp_path, cons.odd_wheel(5))
        code, payload = run_json(capsys, ["lambda", path])
        assert code == 0 and payload == {"lambda": 3}
        code, payload = run_json(capsys, ["lambda", path, "-s", "0", "-t", "5"])
        assert code == 0 and payload["lambda"] == 3
        assert len(payload["paths"]) == 3

    def test_blocks(self, tmp_path, capsys):
        g = Hypergraph.of(5, list(cons.complete_graph(4).edges) + [(3, 4)])
        path = write_hgr(tmp_path, g)
        code, payload = run_json(capsys, ["blocks", path])
        assert code == 0
        assert payload["separating_vertices"] == [3]
        assert sorted(b["vertices"] for b in payload["blocks"]) == [[0, 1, 2, 3], [3, 4]]

    def test_cuts_and_mixed_seps(self, tmp_path, capsys):
        path = write_hgr(tmp_path, cons.figure1_join(False).graph)
        code, payload = run_json(capsys, ["cuts", path, "--max-size", "3"])
        assert code == 0 and payload["cuts"]
        code, payload = run_json(capsys, ["mixed-seps", path])
        assert code == 0 and payload["mixed"]

    def test_cut_side_joins_two_of_three_pieces(self, tmp_path, capsys):
        """Deleting the edge {0, 1, 2} leaves the pieces {0, 3}, {1} and
        {2}; X is the smallest union of pieces, two of the three."""
        path = write_hgr(tmp_path, Hypergraph.of(4, [(0, 1, 2), (0, 3)]))
        code, payload = run_json(capsys, ["cuts", path])
        assert code == 0
        assert payload == {"cuts": [{"edges": [0], "x": [0, 1, 3]}, {"edges": [1], "x": [0, 1, 2]}]}


class TestErrorPaths:
    def test_malformed_hgr_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.hgr"
        path.write_text("HGR 1\nn 2\ne 0 5\n")
        code, _ = run(capsys, ["chi", str(path)])
        assert code == 2

    @pytest.mark.parametrize("count", ["²", "-3", "３", "3.0"])
    def test_bad_vertex_count_reports_its_line(self, tmp_path, capsys, count):
        path = tmp_path / "bad.hgr"
        path.write_text(f"HGR 1\nn {count}\n", encoding="utf-8")
        assert cli.main(["chi", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_huge_vertex_count_is_input_error(self, capsys, monkeypatch):
        """Twenty bytes that ask for a billion vertices end at once."""
        text = "HGR 1\nn 1000000000\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        start = time.perf_counter()
        assert cli.main(["classify", "-"]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "line 2" in err and "exceeds the limit" in err

    def test_decompose_at_a_non_pair_is_input_error(self, tmp_path, capsys):
        j = cons.figure1_join(False)
        path = write_hgr(tmp_path, j.graph)
        estar = j.graph.edge_ref(j.estar)
        v = next(v for v in range(j.graph.n) if (v, estar) not in
                 conn.mixed_separating_sets(j.graph))
        assert cli.main(["decompose", path, "--mixed", f"{v},{estar}"]) == 2
        assert "is not a mixed separating set" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "seps,message",
        [
            ([(0,), (1, 5)], "has a separating vertex"),
            ([(0, 1)], "separating pair of a critical input is an edge"),
            ([(0, 2)], "exactly 2 components, found 1"),
        ],
        ids=["cut-vertex", "edge-pair", "one-side"],
    )
    def test_broken_pair_invariant_is_internal(self, tmp_path, capsys, monkeypatch, seps, message):
        """A critical input is 2-connected, its separating pairs are
        independent, and it has two sides at each, so a pair search that
        says otherwise is a bug."""
        path = write_hgr(tmp_path, cons.figure2_g1())
        monkeypatch.setattr(conn, "_separating_sets", lambda g, max_size: iter(seps))
        assert cli.main(["decompose", "-k", "3", path]) == 4
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "refs,message",
        [
            ("0,1", "separating set (0, 1) is not minimal of size 3"),
            ("0,1,2", "separating set (0, 1, 2) is not minimal of size 3"),
        ],
        ids=["small", "not-minimal"],
    )
    def test_broken_cut_invariant_is_internal(self, tmp_path, capsys, monkeypatch, refs, message):
        """A (k+1)-critical input is k-edge-connected, so a separating
        set of size <= k that is not a minimal one of size k is a bug.
        The decomposition reads all its tests from one component pass of
        G - F; a pass that splits G - F into single vertices makes (0, 1)
        separating and (0, 1, 2), a minimal cut, not minimal."""
        g = cons.figure2_g1()
        assert conn.edge_cut_for(g, (0, 1, 2)).f == (0, 1, 2)
        path = write_hgr(tmp_path, g)
        real = conn._pieces

        def pieces(g, dead=(), cut=()):
            return [(v,) for v in range(g.n)] if cut and not dead else real(g, dead, cut)

        monkeypatch.setattr(conn, "_pieces", pieces)
        assert cli.main(["decompose", "-k", "3", "--edge-cut", refs, path]) == 4
        assert message in capsys.readouterr().err

    def test_corpus_invariant_mismatch_is_internal(self, tmp_path, capsys, monkeypatch):
        """A computed invariant that disagrees with a known one is a bug."""
        monkeypatch.setitem(corpus.KNOWN["k4"], "chi", 5)
        assert cli.main(["corpus", "--count", "0", "--out", str(tmp_path)]) == 4
        out, err = capsys.readouterr()
        assert out == "" and err == "internal error: k4: computed chi=4 != 5\n"

    def test_edge_ids_must_be_ascii_digits(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("HGR 1\nn 12\ne 0 1_0\ne +1 ０２\n"))
        assert cli.main(["blocks", "-"]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_huge_edge_id_reports_its_line(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("HGR 1\nn 3\ne 0 " + "9" * 5000 + "\n"))
        assert cli.main(["blocks", "-"]) == 2
        assert "line 3: vertex id out of range" in capsys.readouterr().err

    def test_split_reads_its_map(self, tmp_path, capsys):
        k4 = cons.complete_graph(4)
        path = write_hgr(tmp_path, k4)
        refs = k4.incident(0)
        maps = [f"{refs[0]}=0", f"{refs[1]}=1", f"{refs[2]}=0,1"]
        argv = ["split", path, path, "--edge", str(k4.edge_ref((0, 1))), "--vertex", "0"]
        code, out = run(capsys, argv + [a for m in maps for a in ("--map", m)])
        assert code == 0
        spec = cons.SplitSpec(k4, k4.edge_ref((0, 1)), k4, 0,
                              {refs[0]: (0,), refs[1]: (1,), refs[2]: (0, 1)})
        assert Hypergraph.from_hgr(out) == cons.split(spec).graph

    @pytest.mark.parametrize("item", ["a=1", "0=x", "0"])
    def test_bad_split_map_is_input_error(self, tmp_path, capsys, item):
        path = write_hgr(tmp_path, cons.complete_graph(4))
        argv = ["split", path, path, "--edge", "0", "--vertex", "0", "--map", item]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert f"argument --map: expected REF=V1,V2 with integer ids, got {item!r}" in err

    def test_non_integer_construct_parameter_is_input_error(self, capsys):
        assert cli.main(["construct", "c2-tree", "-1", "x"]) == 2
        assert "argument params: invalid int value: 'x'" in capsys.readouterr().err

    @pytest.mark.usefixtures("default_recursion_limit")
    def test_chi_on_a_deep_path(self, tmp_path, capsys):
        path = write_hgr(tmp_path, Hypergraph.of(3000, [(i, i + 1) for i in range(2999)]))
        code, payload = run_json(capsys, ["chi", "--force", path])
        assert code == 0 and payload == {"chi": 2}

    def test_missing_file_is_input_error(self, capsys):
        code, _ = run(capsys, ["chi", "/nonexistent/g.hgr"])
        assert code == 2

    def test_guard_exit_code(self, tmp_path, capsys, monkeypatch):
        """The edges (0, 1, 2), (0, 1, 3) and (2, 3), whose propagation
        pass conflicts, are searched in 4 decisions, so a cap of 0 refuses
        them.  C30 is 2-colored by one pass, which no cap refuses."""
        path = write_hgr(tmp_path, Hypergraph.of(4, [(0, 1, 2), (0, 1, 3), (2, 3)]))
        code, payload = run_json(capsys, ["chi", path])
        assert code == 0 and payload == {"chi": 2}
        monkeypatch.setattr(col, "SEARCH_GUARD", 0)
        assert cli.main(["chi", path]) == 3
        assert "passed 0 decisions without force" in capsys.readouterr().err
        code, payload = run_json(capsys, ["chi", path, "--force"])
        assert code == 0 and payload == {"chi": 2}
        code, payload = run_json(capsys, ["chi", write_hgr(tmp_path, cons.cycle(30), "c30.hgr")])
        assert code == 0 and payload == {"chi": 2}

    def test_stars_and_c5(self, tmp_path, capsys):
        """22 disjoint K1,3 and a C5: ``chi`` exited 3 after 3 s, and
        ``color -k 2`` ran for 27 s, in the 2-coloring search."""
        path = write_hgr(tmp_path, stars_and_c5(22))
        code, payload = run_json(capsys, ["chi", path])
        assert code == 0 and payload == {"chi": 3}
        code, payload = run_json(capsys, ["color", "-k", "2", path])
        assert code == 1 and payload == {"coloring": None, "k": 2}

    def test_stars_and_grotzsch(self, tmp_path, capsys):
        """12 disjoint K1,7 and the Grötzsch graph: ``chi`` and
        ``classify`` exited 3 when they searched the whole graph, whose
        3-coloring search backtracked through the stars' colorings past
        the decision cap."""
        path = write_hgr(tmp_path, stars_and_grotzsch(12))
        code, payload = run_json(capsys, ["chi", path])
        assert code == 0 and payload == {"chi": 4}
        code, payload = run_json(capsys, ["classify", path])
        assert code == 0 and payload["chi"] == 4 and payload["lambda"] == 4

    def test_lambda_source_without_sink_is_input_error(self, tmp_path, capsys):
        path = write_hgr(tmp_path, cons.odd_wheel(5))
        assert cli.main(["lambda", path, "-s", "0"]) == 2
        assert "give both -s and -t, or neither" in capsys.readouterr().err

    def test_gallai_invariant_is_internal(self, tmp_path, capsys, monkeypatch):
        """K4 plus a pendant vertex, let through the criticality check,
        has a vertex of degree below k: exit 4, not an input error."""
        monkeypatch.setattr(col, "require_critical", lambda *args, **kwargs: None)
        g = Hypergraph.of(5, list(cons.complete_graph(4).edges) + [(3, 4)])
        assert cli.main(["gallai-check", write_hgr(tmp_path, g), "-k", "3"]) == 4
        out, err = capsys.readouterr()
        assert out == "" and "internal error: critical input has vertex 4" in err

    def test_h2_info_is_a_usage_error(self, tmp_path, capsys):
        """classify has no --h2-info option, so the parser refuses it."""
        path = write_hgr(tmp_path, cons.hyperwheel(4))
        assert cli.main(["classify", "--h2-info", path]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "--h2-info" in err

    def test_classify_past_the_decision_cap(self, tmp_path, capsys):
        """The lambda-coloring of a k = 4, n = 41 join minus one edge
        passes the real cap in a few seconds (it ran for 45.9 s
        unguarded)."""
        g = random_nested_join(random.Random(1), 4, 41, 10**6).delete_edge(0)
        assert cli.main(["classify", write_hgr(tmp_path, g)]) == 3
        assert "4-coloring search passed 1000000 decisions" in capsys.readouterr().err

    def test_cut_search_guard_exit_code(self, tmp_path, capsys):
        path = write_hgr(tmp_path, cons.cycle(60))
        assert cli.main(["cuts", path]) == 3
        assert "--max-size" in capsys.readouterr().err
        code, payload = run_json(capsys, ["cuts", path, "--max-size", "1"])
        assert code == 0 and payload == {"cuts": []}

    @pytest.mark.parametrize("verb", ["chi", "classify"])
    def test_edgeless_chi_needs_no_force(self, capsys, monkeypatch, verb):
        monkeypatch.setattr("sys.stdin", io.StringIO("HGR 1\nn 30\n"))
        code, payload = run_json(capsys, [verb, "-"])
        assert code == 0 and payload["chi"] == 1
        if verb == "chi":
            assert payload == {"chi": 1}

    def test_unknown_construction(self, capsys):
        code, _ = run(capsys, ["construct", "mystery"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv,takes",
        [(["kc", "3"], 2), (["toft"], 1), (["complete"], 1), (["figure3", "1"], 0)],
    )
    def test_construct_parameter_count(self, capsys, argv, takes):
        assert cli.main(["construct"] + argv) == 2
        assert f"takes {takes} parameter(s), got {len(argv) - 1}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,n,m",
        [
            (["complete", "100000"], 100000, 4999950000),
            (["cycle", str(MAX_VERTICES + 1)], MAX_VERTICES + 1, MAX_VERTICES + 1),
            (["odd-wheel", "500001"], 500002, 1000002),
            (["hyperwheel", str(MAX_VERTICES)], MAX_VERTICES + 1, MAX_VERTICES + 1),
            (["kc", "1", "500000"], 1000002, 2000002),
            (["toft", "125000"], 1000004, 62501500005),
        ],
    )
    def test_construct_past_the_vertex_limit(self, capsys, monkeypatch, argv, n, m):
        """Each generator refuses a member past the limit from its counts
        alone: with every builder patched to raise, nothing is built."""

        def unbuilt(*args, **kwargs):
            raise AssertionError("a builder ran")

        monkeypatch.setattr(Hypergraph, "of", unbuilt)
        monkeypatch.setattr(cons, "dirac_sum", unbuilt)
        monkeypatch.setattr(cons, "split", unbuilt)
        assert cli.main(["construct"] + argv) == 2
        err = capsys.readouterr().err
        assert f"has {n} vertices and {m} edges, past the limit of {MAX_VERTICES}" in err

    def test_internal_index_error_is_not_input_error(self, monkeypatch):
        def broken():
            raise IndexError("list index out of range")

        monkeypatch.setattr(cons, "figure3", broken)
        with pytest.raises(IndexError):
            cli.main(["construct", "figure3"])

    def test_bad_verb(self, capsys):
        assert cli.main(["no-such-verb"]) == 2

    @pytest.mark.parametrize(
        "broken",
        [
            classifier.Leaf("complete", (0, 1, 2, 3)),  # replays, to the wrong graph
            classifier.Join(  # does not replay: the parts share two vertices
                classifier.Leaf("complete", (0, 1, 2, 3)),
                classifier.Leaf("complete", (2, 3, 4, 5)),
                2, (0, 2), (2, 4), False,
            ),
        ],
        ids=["mismatch", "no-replay"],
    )
    def test_internal_failure_exit_code(self, tmp_path, capsys, monkeypatch, broken):
        monkeypatch.setattr(classifier, "_certify", lambda g, k, ids: broken)
        path = write_hgr(tmp_path, cons.odd_wheel(5))
        assert cli.main(["classify", path]) == 4
        assert "internal error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cert",
        [
            {"type": "mystery"},
            {"type": "join", "left": {"type": "leaf", "kind": "complete", "labels": [0, 1]}},
            dict(JOIN, vstar=[3]),
            dict(JOIN, e1=[2, "3"]),
            dict(JOIN, e2=[3, 4.0]),
            dict(JOIN, left={"type": "leaf", "kind": "complete", "labels": [0, 1, 2, [3]]}),
            dict(JOIN, right={"type": "leaf", "kind": "complete", "labels": [3, 4, 5, True]}),
            dict(JOIN, include_vstar="false"),
            dict(JOIN, include_vstar=0),
        ],
        ids=[
            "unknown-node", "missing-fields", "list-vstar", "string-in-e1",
            "float-in-e2", "list-label", "bool-label", "string-include-vstar",
            "int-include-vstar",
        ],
    )
    def test_malformed_user_certificate_is_input_error(self, tmp_path, capsys, cert):
        path = write_hgr(tmp_path, cons.odd_wheel(5))
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(cert))
        assert cli.main(["verify-cert", str(cert_path), path]) == 2

    @pytest.mark.parametrize(
        "cert,message",
        [
            ([], "certificate is not a JSON object"),
            (None, "certificate is not a JSON object"),
            ("leaf", "certificate is not a JSON object"),
            (dict(JOIN, right=[]), "certificate.right is not a JSON object"),
            (dict(JOIN, left=dict(JOIN, left=7)), "certificate.left.left is not a JSON object"),
            (dict(JOIN["left"], labels=None), "certificate.labels is not a list"),
            (dict(JOIN["left"], labels="0123"), "certificate.labels is not a list"),
            (dict(JOIN, right=dict(JOIN["right"], labels={"3": 4})),
             "certificate.right.labels is not a list"),
            (dict(JOIN, e1=5), "certificate.e1 is not a list"),
            (dict(JOIN, e2=None), "certificate.e2 is not a list"),
            ({"kind": "complete"}, "certificate has no 'type'"),
            (dict(JOIN, left={"type": "leaf"}), "certificate.left has no 'kind'"),
        ],
        ids=[
            "list-root", "null-root", "string-root", "list-right", "int-left-left",
            "null-labels", "string-labels", "object-labels", "int-e1", "null-e2",
            "no-type", "no-kind",
        ],
    )
    def test_malformed_certificate_message_names_the_node(self, tmp_path, capsys, cert, message):
        path = write_hgr(tmp_path, cons.odd_wheel(5))
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(cert))
        assert cli.main(["verify-cert", str(cert_path), path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, err

    def test_verify_cert_counts_edges_before_the_replay(self, tmp_path, capsys, monkeypatch):
        """A complete leaf of r labels replays r(r - 1)/2 edges, so
        ``verify_certificate`` first counts the leaves' edges less one
        per join, and a count other than the graph's answers no match
        without any replay."""

        def no_replay(cert):
            raise AssertionError("the certificate was replayed")

        monkeypatch.setattr(classifier, "replay_certificate", no_replay)
        path = write_hgr(tmp_path, Hypergraph.of(3, [(0, 1), (1, 2)]))
        cert_path = tmp_path / "cert.json"
        leaf = {"type": "leaf", "kind": "complete", "labels": list(range(2000))}
        cert_path.write_text(json.dumps(leaf))
        code, payload = run_json(capsys, ["verify-cert", str(cert_path), path])
        assert code == 1 and payload == {"match": False}

    def test_join_malformed_certificate_exits_by_its_edge_count(self, tmp_path, capsys):
        """A certificate whose join parts overlap in two vertices fails
        its replay, exit 2, when its edge count is the graph's; with
        another count it answers no match, exit 1, before the replay."""
        cert = dict(JOIN, right=dict(JOIN["right"], labels=[2, 3, 4, 5]))
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(cert))
        same = write_hgr(tmp_path, cons.figure1_join(False).graph)  # 11 edges, as the count
        assert cli.main(["verify-cert", str(cert_path), same]) == 2
        assert "overlap exactly in the merged vertex" in capsys.readouterr().err
        other = write_hgr(tmp_path, cons.odd_wheel(5), "w5.hgr")
        code, payload = run_json(capsys, ["verify-cert", str(cert_path), other])
        assert code == 1 and payload == {"match": False}

    @pytest.mark.parametrize(
        "fault,message",
        [
            ({"e1": [0, 5]}, "deleted edge missing from its part"),
            ({"e2": [4, 5]}, "merged vertex must lie on both deleted edges"),
        ],
        ids=["missing-edge", "vstar-off-edge"],
    )
    def test_join_replay_fault_is_input_error(self, tmp_path, capsys, fault, message):
        """figure1's certificate with one deleted edge changed keeps the
        edge count, 11, so the replay runs and fails."""
        path = write_hgr(tmp_path, cons.figure1_join(True).graph)
        code, payload = run_json(capsys, ["certify", path, "-k", "3"])
        assert code == 0
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(payload["certificate"] | fault))
        assert cli.main(["verify-cert", str(cert_path), path]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and message in err

    @pytest.mark.usefixtures("default_recursion_limit")
    def test_deeply_nested_certificate_is_input_error(self, tmp_path, capsys):
        path = write_hgr(tmp_path, cons.odd_wheel(5))
        leaf = json.dumps(JOIN["left"])
        rest = json.dumps(dict(JOIN, left=None))
        head, tail = rest[: rest.index("null")], rest[rest.index("null") + 4 :]
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(head * 3000 + leaf + tail * 3000)
        assert cli.main(["verify-cert", str(cert_path), path]) == 2
        assert "nested too deeply" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option,value,message",
        [
            ("--count", "-1", "--count must be >= 0, got -1"),
            ("--n-max", "0", "--n-max must be >= 1, got 0"),
        ],
    )
    def test_bad_corpus_option_is_input_error(self, tmp_path, capsys, option, value, message):
        out = tmp_path / "c"
        assert cli.main(["corpus", option, value, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "option,value,message",
        [
            ("--mixed", "1", "--mixed V,E takes 2 comma-separated integers, got '1'"),
            ("--mixed", "a,b", "--mixed V,E takes 2 comma-separated integers, got 'a,b'"),
            ("--mixed", "", "--mixed V,E takes 2 comma-separated integers, got ''"),
            ("--edge-cut", "1,a", "--edge-cut E1,E2,... takes comma-separated integers"),
        ],
    )
    def test_bad_decompose_option_is_input_error(self, tmp_path, capsys, option, value, message):
        path = write_hgr(tmp_path, cons.figure1_join(False).graph)
        assert cli.main(["decompose", path, f"{option}={value}"]) == 2
        assert message in capsys.readouterr().err

    def test_mixed_and_edge_cut_exclude_each_other(self, tmp_path, capsys):
        """Each option names the one separator to decompose at, so both
        together are a usage error, not the mixed decomposition alone."""
        path = write_hgr(tmp_path, cons.figure1_join(True).graph)
        argv = ["decompose", "--mixed", "0,0", "--edge-cut", "0,1,2", "-k", "3", path]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage:") and "not allowed with argument --mixed" in err

    def test_tight_classify_needs_no_force_past_the_chi_guard(self, tmp_path, capsys):
        """A tight verdict is proved by the block's certificate, not by
        the guarded exact chromatic number."""
        g = Hypergraph.of(28, list(cons.odd_wheel(5).edges) + [(i, i + 1) for i in range(5, 27)])
        code, payload = run_json(capsys, ["classify", write_hgr(tmp_path, g)])
        assert code == 0 and payload["verdict"] == "tight"
        assert payload["block"] == list(range(6))

    @pytest.mark.parametrize(
        "g",
        [Hypergraph.of(30, [(i, i + 1) for i in range(29)]),
         Hypergraph.of(31, [(i, i + 1, i + 2) for i in range(0, 29, 2)])],
        ids=["path-30", "3-uniform-hyperpath-31"],
    )
    def test_lambda1_classify_needs_no_force_past_the_chi_guard(self, tmp_path, capsys, g):
        """Every block is one edge, so chi = 2 without the guarded search
        (this exited 3 when chi came from ``chromatic_number``)."""
        code, payload = run_json(capsys, ["classify", write_hgr(tmp_path, g)])
        assert code == 0
        assert (payload["lambda"], payload["chi"], payload["verdict"]) == (1, 2, "small-lambda")


    @pytest.mark.parametrize("verb", [["chi"], ["critical", "-k", "5"]])
    def test_theorem_decided_chi_and_critical_need_no_force(self, tmp_path, capsys, verb):
        """A k = 4 nested join with n = 41 is in the class at 4, so chi = 5
        and it is 5-critical by the theorem; the guarded search, which
        took minutes on it, does not run."""
        g = random_nested_join(random.Random(1), 4, 41, 10**6)
        assert g.n == 41
        code, payload = run_json(capsys, [verb[0], write_hgr(tmp_path, g), *verb[1:]])
        assert code == 0
        assert payload["chi"] == 5
        if verb[0] == "critical":
            assert payload["critical"] and payload["failing_edge"] is None

    def test_tight_block_short_of_the_input_keeps_the_edge_guard(
        self, tmp_path, capsys, monkeypatch
    ):
        """chi = 5 comes from the join block, but the first failing edge
        of the join with a pendant edge needs the guarded search (under
        the real cap too, which it passes after about 3 s)."""
        join = random_nested_join(random.Random(1), 4, 41, 10**6)
        path = write_hgr(tmp_path, Hypergraph.of(42, list(join.edges) + [(0, 41)]))
        monkeypatch.setattr(col, "SEARCH_GUARD", 0)
        assert cli.main(["critical", path, "-k", "5"]) == 3
        assert "decisions without force" in capsys.readouterr().err
        code, payload = run_json(capsys, ["critical", path, "-k", "4"])
        assert code == 1 and payload["chi"] == 5 and not payload["critical"]
        code, payload = run_json(capsys, ["chi", path])
        assert code == 0 and payload["chi"] == 5

    def test_undecided_input_keeps_the_guard(self, tmp_path, capsys, monkeypatch):
        path = write_hgr(tmp_path, cons.cycle(31))
        code, payload = run_json(capsys, ["critical", path, "-k", "3"])
        assert code == 0 and payload["critical"]
        monkeypatch.setattr(col, "SEARCH_GUARD", 0)
        assert cli.main(["critical", path, "-k", "3"]) == 3
        code, payload = run_json(capsys, ["critical", path, "-k", "3", "--force"])
        assert code == 0 and payload["critical"]


class TestPipelines:
    def test_construct_then_classify(self, capsys, monkeypatch):
        code, out = run(capsys, ["construct", "odd-wheel", "5"])
        assert code == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        code, payload = run_json(capsys, ["classify", "-"])
        assert code == 0
        assert payload["verdict"] == "tight" and payload["lambda"] == 3
        assert payload["certificate"]["type"] == "leaf"

    def test_construct_toft_classify(self, capsys, monkeypatch):
        code, out = run(capsys, ["construct", "toft", "1"])
        assert code == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        code, payload = run_json(capsys, ["classify", "-"])
        assert code == 0 and payload["verdict"] == "colorable"

    def test_every_generator_classifies(self, capsys, monkeypatch):
        cases = [
            ["complete", "4"],
            ["cycle", "5"],
            ["odd-wheel", "5"],
            ["hyperwheel", "4"],
            ["kc", "1", "2"],
            ["figure1"],
            ["figure2-g1"],
            ["figure2-g2"],
            ["figure3"],
            ["c2-tree", "-1", "0", "0", "1", "1", "2", "2"],
        ]
        for case in cases:
            code, out = run(capsys, ["construct"] + case)
            assert code == 0, case
            monkeypatch.setattr("sys.stdin", io.StringIO(out))
            code, _ = run_json(capsys, ["classify", "-"])
            assert code == 0, case

    def test_certify_and_verify_cert(self, tmp_path, capsys):
        path = write_hgr(tmp_path, cons.figure1_join(True).graph)
        code, payload = run_json(capsys, ["certify", path, "-k", "3"])
        assert code == 0 and payload["certificate"]["type"] == "join"
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(payload["certificate"]))
        code, payload = run_json(capsys, ["verify-cert", str(cert_path), path])
        assert code == 0 and payload["match"] is True
        other = write_hgr(tmp_path, cons.odd_wheel(5), "w5.hgr")
        code, payload = run_json(capsys, ["verify-cert", str(cert_path), other])
        assert code == 1 and payload["match"] is False

    def test_certify_past_the_chi_guard(self, tmp_path, capsys):
        path = write_hgr(tmp_path, cons.odd_wheel(29))
        code, payload = run_json(capsys, ["certify", path, "-k", "3"])
        assert code == 0 and payload["certificate"]["type"] == "leaf"
        assert cli.main(["certify", path, "-k", "3", "--force"]) == 2

    def test_certify_negative(self, tmp_path, capsys):
        path = write_hgr(tmp_path, cons.cycle(7))
        code, payload = run_json(capsys, ["certify", path, "-k", "3"])
        assert code == 1 and payload["certificate"] is None

    def test_certify_rejects_a_pair_whose_half_edge_exists(self, tmp_path, capsys):
        """A 2-connected graph that passes the counting test at k = 3:
        its first mixed pair is (0, 9), and the decomposition there
        refuses it, since a half edge is already an edge of its part."""
        edges = [
            (0, 1), (0, 4), (0, 5), (0, 6), (0, 9), (1, 2), (1, 5), (2, 3), (2, 5), (3, 4),
            (3, 5), (4, 8), (6, 7), (6, 10), (7, 8), (7, 10), (8, 9), (8, 10), (9, 10),
        ]
        g = Hypergraph.of(11, edges)
        assert classifier._first_mixed_pair(g, 3) == (0, 9)
        with pytest.raises(ValueError, match="half edge already present"):
            cons.hajos_decompose_mixed(g, 0, 9)
        code, payload = run_json(capsys, ["certify", write_hgr(tmp_path, g), "-k", "3"])
        assert code == 1 and payload == {"certificate": None}

    def test_join_verb(self, tmp_path, capsys):
        path = write_hgr(tmp_path, cons.complete_graph(4))
        code, out = run(
            capsys,
            ["join", path, path, "--v1", "0", "--v2", "0", "--e1", "0", "--e2", "0"],
        )
        assert code == 0
        assert Hypergraph.from_hgr(out) == cons.figure1_join(False).graph

    def test_decompose_mixed(self, tmp_path, capsys):
        j = cons.figure1_join(False)
        path = write_hgr(tmp_path, j.graph)
        estar = j.graph.edge_ref(j.estar)
        code, payload = run_json(capsys, ["decompose", path, "--mixed", f"0,{estar}"])
        assert code == 0
        assert Hypergraph.from_hgr(payload["g1"]) == cons.complete_graph(4)

    def test_decompose_edge_cut(self, tmp_path, capsys):
        path = write_hgr(tmp_path, cons.figure1_join(True).graph)
        code, payload = run_json(capsys, ["decompose", "-k", "3", "--edge-cut", "0,1,2", path])
        k4 = cons.complete_graph(4).to_hgr()
        assert code == 0
        assert payload == {"g1": k4, "g2": k4, "x": [0, 4, 5, 6], "y": [1, 2, 3]}

    def test_decompose_without_a_separating_pair(self, tmp_path, capsys):
        path = write_hgr(tmp_path, cons.complete_graph(4))
        code, payload = run_json(capsys, ["decompose", "-k", "3", path])
        assert code == 1 and payload == {"separating_pair": None}

    def test_decompose_vertex_pair_past_the_enumeration_guard(self, tmp_path, capsys):
        # the join of W17 and K4 at vertex 0 and edge (0, 1) of each,
        # without v*: n = 21, and its W17 side has 3^18 assignments
        w, k4 = cons.odd_wheel(17), cons.complete_graph(4)
        spec = cons.HajosJoinSpec(w, k4, 0, 0, w.edge_ref((0, 1)), k4.edge_ref((0, 1)), False)
        path = write_hgr(tmp_path, cons.hajos_join(spec).graph)
        code, payload = run_json(capsys, ["decompose", path, "-k", "3"])
        assert code == 0
        assert payload == {
            "separating_pair": [0, 1],
            "g1_prime": w.to_hgr(),
            "g2_prime": k4.to_hgr(),
        }

    @pytest.mark.parametrize(
        "make,k,pair",
        [
            (lambda: join_chain(cons.odd_wheel(5), 20), 3, [4, 5]),
            (lambda: random_nested_join(random.Random(1), 4, 81, 10**6), 4, [1, 2]),
        ],
        ids=["w5-chain-20", "k4-join-81"],
    )
    def test_decompose_members_past_80_vertices(self, tmp_path, capsys, make, k, pair):
        """Members of 81 and 101 vertices decompose with no search: the
        parts certify, and the pair comes from articulation passes."""
        path = write_hgr(tmp_path, make())
        start = time.perf_counter()
        code, payload = run_json(capsys, ["decompose", "-k", str(k), path])
        assert time.perf_counter() - start < 1.0
        assert code == 0 and payload["separating_pair"] == pair

    def test_gallai_check(self, tmp_path, capsys):
        path = write_hgr(tmp_path, cons.odd_wheel(5))
        code, payload = run_json(capsys, ["gallai-check", path, "-k", "3"])
        assert code == 0 and payload["all_ok"] is True

    @pytest.mark.parametrize(
        "g,k", [(cons.complete_graph(4), 3), (cons.cycle(5), 2)], ids=["k4", "c5"]
    )
    def test_gallai_check_without_high_vertices(self, tmp_path, capsys, g, k):
        code, payload = run_json(capsys, ["gallai-check", write_hgr(tmp_path, g), "-k", str(k)])
        assert code == 0 and payload["high"] == [] and payload["all_ok"] is True


class TestModuleEntryPoint:
    def test_construct_piped_into_critical(self):
        """``python3 -m hyperchrome`` runs from a checkout, with src on
        PYTHONPATH and no install step."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src}
        cmd = [sys.executable, "-m", "hyperchrome"]
        made = subprocess.run(
            cmd + ["construct", "odd-wheel", "5"], capture_output=True, text=True, env=env
        )
        assert made.returncode == 0, made.stderr
        checked = subprocess.run(
            cmd + ["critical", "-", "-k", "4"],
            input=made.stdout, capture_output=True, text=True, env=env,
        )
        assert checked.returncode == 0, checked.stderr
        assert json.loads(checked.stdout)["critical"] is True


class TestCorpus:
    def test_corpus_reproducible(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            code, _ = run(capsys, [
                "corpus", "--seed", "3", "--count", "4", "--n-max", "7",
                "--out", str(out),
            ])
            assert code == 0
        files1 = sorted(p.name for p in out1.iterdir())
        assert files1 == sorted(p.name for p in out2.iterdir())
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_corpus_files_reparse_and_manifest_holds(self, tmp_path, capsys):
        out = tmp_path / "c"
        code, _ = run(capsys, [
            "corpus", "--seed", "5", "--count", "6", "--n-max", "7", "--out", str(out),
        ])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["entries"]) >= 6 + 15
        for name, entry in manifest["entries"].items():
            g = Hypergraph.from_hgr((out / f"{name}.hgr").read_text())
            assert g.n == entry["n"] and g.m == entry["m"]


# -- fuzzing ------------------------------------------------------------------

# small ids keep every drawn graph small, so each example runs in bounded time
_TOKENS = st.one_of(
    st.integers(0, 12).map(str),
    st.sampled_from(["-1", "+1", "1_0", "０", "²", "1.5", "", "e", "n", "#", "HGR", "1e3"]),
    st.text(max_size=3),
)


_TIGHT = [
    cons.odd_wheel(5),
    cons.complete_graph(5),
    corpus.named_families()["w5-join-w5"],
    cons.figure3(),
]


@st.composite
def hgr_texts(draw):
    """HGR-like text: mostly a header, a vertex count and plausible edge
    lines (some out of range, unsorted or repeated), with junk lines of
    odd tokens and Unicode mixed in; or a well-formed graph, tight ones
    among them, with at most one junk line inserted."""
    if draw(st.booleans()):
        g = draw(hypergraphs(max_n=8, sizes=(2, 3, 4)) | st.sampled_from(_TIGHT))
        lines = g.to_hgr().splitlines()
        if draw(st.booleans()):
            junk = " ".join(draw(st.lists(_TOKENS, max_size=4)))
            lines.insert(draw(st.integers(0, len(lines))), junk)
        return "\n".join(lines) + "\n"
    n = draw(st.integers(0, 12))
    lines = [draw(st.sampled_from(["HGR 1"] * 6 + [" HGR 1 ", "HGR 2", "HGR", "# c", ""]))]
    if draw(st.integers(0, 9)):
        lines.append(f"n {n}")
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 4)):
            ids = draw(st.lists(st.integers(0, n + 1), min_size=2, max_size=4, unique=True))
            if draw(st.integers(0, 9)):
                ids.sort()
            lines.append(" ".join(["e", *map(str, ids)]))
        else:
            head = draw(st.sampled_from(["n", "e", "#", "x", ""]))
            lines.append(" ".join([head, *draw(st.lists(_TOKENS, max_size=5))]))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 12) | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(sorted(JOIN)) | st.text(max_size=3), inner, max_size=7),
    max_leaves=12,
)


@st.composite
def certificate_bytes(draw):
    """Raw bytes, arbitrary JSON, or the JOIN certificate with some
    fields replaced at any depth."""
    kind = draw(st.sampled_from(["bytes", "json", "mutated", "mutated"]))
    if kind == "bytes":
        return draw(st.binary(max_size=64))
    if kind == "json":
        return json.dumps(draw(_JSON)).encode()
    cert = json.loads(json.dumps(JOIN))
    node = cert
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(sorted(node)))
        if isinstance(node[key], dict) and draw(st.booleans()):
            node = node[key]
            continue
        node[key] = draw(_JSON)
        break
    return json.dumps(cert).encode()


def _run_quietly(argv, stdin_text):
    """cli.main with the given stdin; any exception propagates."""
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


class TestFuzz:
    """Arbitrary HGR text and certificate bytes end in a documented exit
    code, with JSON on stdout or an error message on stderr, never in a
    traceback."""

    @given(hgr_texts(), st.integers(-1, 13), st.integers(-1, 13))
    @settings(max_examples=150, deadline=None)
    def test_graph_verbs(self, text, s, t):
        for argv in (
            ["lambda", "-"],
            ["lambda", "-", "-s", str(s), "-t", str(t)],
            ["blocks", "-"],
            ["classify", "-"],
        ):
            code, out, err = _run_quietly(argv, text)
            assert code in (cli.OK, cli.VERDICT_NO, cli.INPUT_ERROR, cli.GUARD, cli.INTERNAL)
            if code in (cli.OK, cli.VERDICT_NO):
                json.loads(out)
            else:
                assert not out and err.startswith(("error: ", "internal error: "))

    @given(certificate_bytes(), st.sampled_from(_TIGHT))
    @settings(max_examples=150, deadline=None)
    def test_verify_cert(self, tmp_path_factory, data, g):
        cert_path = tmp_path_factory.mktemp("cert") / "cert.json"
        cert_path.write_bytes(data)
        code, out, err = _run_quietly(["verify-cert", str(cert_path), "-"], g.to_hgr())
        assert code in (cli.OK, cli.VERDICT_NO, cli.INPUT_ERROR, cli.GUARD, cli.INTERNAL)
        if code in (cli.OK, cli.VERDICT_NO):
            assert json.loads(out) == {"match": code == cli.OK}
        else:
            assert not out and err.startswith(("error: ", "internal error: "))
