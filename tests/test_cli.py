import csv
import io
import json
import os
import random
import subprocess
import sys

import pytest

from megsolve import (CLASSES, EdgeListParseError, GenSpec, GenerationError,
                      LimitExceededError, MethodMismatchError,
                      NotConnectedError, SelfLoopError, articulation_points,
                      cut_vertices_via_strong_ordering, detect_spider,
                      format_edge_list, gen_bipartite_permutation, generate,
                      graph_from_edge_list, mandatory_vertices, read_graph_file,
                      recognize_bipartite_permutation,
                      recognize_distance_hereditary, recognize_p4_sparse,
                      recognize_strongly_chordal, solve_p4_structural,
                      spider_graph, strong_ordering_from_orders,
                      verify_strong_ordering)
from megsolve import cli, recognizers, solvers
from megsolve.cli import main

from graphs_util import connected_graph_classes, shuffled_ids


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


C4 = "a b\nb c\nc d\nd a\n"
C5 = "a b\nb c\nc d\nd e\ne a\n"
P5 = "a b\nb c\nc d\nd e\n"


def test_meg_report_shape(tmp_path, capsys):
    path = write(tmp_path, "c4.edges", C4)
    code, out, err = run(capsys, "meg", path)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["command"] == "meg"
    assert doc["exit"] == 0
    assert doc["input"]["n"] == 4 and doc["input"]["m"] == 4
    assert doc["input"]["labels"] == ["a", "b", "c", "d"]
    assert doc["result"]["meg"] == 4
    assert doc["result"]["method"] == "cut_based"
    assert doc["result"]["class"] == "distance_hereditary"
    assert doc["result"]["witness"] == ["a", "b", "c", "d"]
    assert doc["result"]["minimal"] is True
    assert "elapsedMs" not in doc


def test_reports_are_byte_identical(tmp_path, capsys):
    path = write(tmp_path, "c5.edges", C5)
    _, first, _ = run(capsys, "meg", path)
    _, second, _ = run(capsys, "meg", path)
    assert first == second
    _, third, _ = run(capsys, "oracle", path)
    _, fourth, _ = run(capsys, "oracle", path)
    assert third == fourth


# Each graph command, the extra arguments it needs, and its result keys.
GRAPH_COMMANDS = {
    "recognize": ((), {"bipartitePermutation", "distanceHereditary",
                       "p4Sparse", "stronglyChordal"}),
    "meg": ((), {"class", "meg", "method", "minimal", "witness"}),
    "verify": (("--set", "a,c"), {"isMeg", "uncovered"}),
    "mandatory": ((), {"mandatory"}),
    "cut": ((), {"cutVertices"}),
    "oracle": ((), {"explored", "meg", "trustedBounds", "witness"}),
}


@pytest.mark.parametrize("timing", [False, True])
@pytest.mark.parametrize("command", GRAPH_COMMANDS)
def test_graph_command_report_shape(tmp_path, capsys, command, timing):
    extra, result_keys = GRAPH_COMMANDS[command]
    path = write(tmp_path, "c4.edges", C4)
    flags = ["--timing"] if timing else []
    code, out, err = run(capsys, command, path, *extra, *flags)
    assert code == 0 and err == ""
    doc = json.loads(out)
    keys = {"schema", "command", "input", "result", "exit"}
    assert set(doc) == keys | ({"elapsedMs"} if timing else set())
    assert doc["schema"] == 1 and doc["exit"] == 0
    assert doc["command"] == command
    assert doc["input"] == {"n": 4, "m": 4, "labels": ["a", "b", "c", "d"],
                            "path": path}
    assert set(doc["result"]) == result_keys
    if timing:
        assert doc["elapsedMs"] >= 0


GRAPH_FILES = {"empty": "", "one-vertex": "vertices: a\n",
               "disconnected": "a b\nc d\n"}
NO_VERTICES = "graph has no vertices"
TOO_SMALL = "need at least two vertices"


# The exit code and error message of each graph command on each small or
# disconnected file; None means a report with exit 0.
GRAPH_ERRORS = [
    ("recognize", "empty", 3, NO_VERTICES),
    ("cut", "empty", 3, NO_VERTICES),
    ("meg", "empty", 3, TOO_SMALL),
    ("mandatory", "empty", 3, TOO_SMALL),
    ("oracle", "empty", 3, TOO_SMALL),
    ("recognize", "one-vertex", 0, None),
    ("cut", "one-vertex", 0, None),
    ("meg", "one-vertex", 3, TOO_SMALL),
    ("mandatory", "one-vertex", 3, TOO_SMALL),
    ("oracle", "one-vertex", 3, TOO_SMALL),
] + [(command, "disconnected", 3, "graph must be connected")
     for command in GRAPH_COMMANDS]


@pytest.mark.parametrize("command, name, code, message", GRAPH_ERRORS,
                         ids=[f"{c}-{name}" for c, name, _, _ in GRAPH_ERRORS])
def test_graph_command_errors(tmp_path, capsys, command, name, code, message):
    path = write(tmp_path, "g.edges", GRAPH_FILES[name])
    got, out, err = run(capsys, command, path, *GRAPH_COMMANDS[command][0])
    assert got == code
    if message is None:
        assert err == "" and json.loads(out)["exit"] == 0
    else:
        assert out == "" and err == f"error: {message}\n"


def test_meg_forced_method_and_witness_sorted(tmp_path, capsys):
    path = write(tmp_path, "c5.edges", C5)
    code, out, _ = run(capsys, "meg", path, "--method", "oracle")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["meg"] == 3
    assert doc["result"]["witness"] == ["a", "b", "d"]


def test_meg_mismatch_exit_4(tmp_path, capsys):
    path = write(tmp_path, "c5.edges", C5)
    code, out, err = run(capsys, "meg", path, "--method", "cut")
    assert code == 4
    assert out == ""
    assert "cut-based" in err


def test_recognize_verdicts(tmp_path, capsys):
    path = write(tmp_path, "p5.edges", P5)
    code, out, _ = run(capsys, "recognize", path)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["distanceHereditary"] == "yes"
    assert result["stronglyChordal"] == "yes"
    assert result["bipartitePermutation"] == "yes"
    assert result["p4Sparse"] == "no"  # P5 holds two P4s on five vertices
    path = write(tmp_path, "c5.edges", C5)
    _, out, _ = run(capsys, "recognize", path)
    result = json.loads(out)["result"]
    assert set(result.values()) == {"no"}


def test_recognize_certificates(tmp_path, capsys):
    path = write(tmp_path, "p5.edges", P5)
    code, out, _ = run(capsys, "recognize", path, "--certificate")
    certs = json.loads(out)["result"]["certificates"]
    assert certs["distanceHereditary"]["type"] == "prune_sequence"
    assert certs["bipartitePermutation"]["type"] == "strong_ordering"
    assert certs["stronglyChordal"]["type"] == "simple_elimination"
    spider = write(tmp_path, "spider.edges",
                   "s1 c1\ns2 c2\ns3 c3\nc1 c2\nc1 c3\nc2 c3\n")
    _, out, _ = run(capsys, "recognize", spider, "--certificate")
    certs = json.loads(out)["result"]["certificates"]
    assert certs["spider"]["kind"] == "thin"
    assert certs["spider"]["s"] == ["s1", "s2", "s3"]


def _expected_recognize(G, certificate: bool) -> dict:
    """The recognize result built from the four recognizers and
    ``detect_spider`` one by one."""
    dh = recognize_distance_hereditary(G)
    bp = recognize_bipartite_permutation(G)
    seo = recognize_strongly_chordal(G)
    result = {
        "distanceHereditary": "yes" if dh else "no",
        "bipartitePermutation": bp.verdict,
        "stronglyChordal": "yes" if seo else "no",
        "p4Sparse": "yes" if recognize_p4_sparse(G) else "no",
    }
    if certificate:
        certs = {
            "distanceHereditary": dh.to_json(G) if dh else None,
            "bipartitePermutation":
                bp.ordering.to_json(G) if bp.ordering else None,
            "stronglyChordal": seo.to_json(G) if seo else None,
        }
        spider = detect_spider(G)
        if spider is not None:
            certs["spider"] = spider.to_json(G)
        result["certificates"] = certs
    return result


def test_recognize_report_matches_the_recognizers(tmp_path, capsys):
    """The report from the route table is what the recognizers say, with
    and without certificates, on every connected graph up to six vertices
    and on generated graphs at n = 60 and 200."""
    graphs = [G for n in range(1, 7) for G in connected_graph_classes(n)]
    for n in (60, 200):
        for cls in CLASSES:
            if cls == "bipartite_permutation":
                spec = GenSpec(cls, 1, p=n // 2, q=n - n // 2)
            else:
                spec = GenSpec(cls, 1, n=n, m=2 * n if cls == "random" else None)
            graphs.append(generate(spec))
    path = str(tmp_path / "g.edges")
    for G in graphs:
        with open(path, "w") as f:
            f.write(format_edge_list(G))
        for flags in ((), ("--certificate",)):
            code, out, err = run(capsys, "recognize", path, *flags)
            assert (code, err) == (0, "")
            doc = json.loads(out)
            assert doc["result"] == _expected_recognize(G, bool(flags)), \
                (sorted(G.edges()), flags)
            assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_recognize_bp_certificate_round_trip(tmp_path, capsys):
    """The printed strong ordering reads back to the recognizer's own; it
    replays, and its cut test finds the articulation points among the
    interim vertices."""
    rng = random.Random(1987)
    path = str(tmp_path / "bp.edges")
    for i in range(60):
        p = rng.randint(1, 100)
        q = rng.randint(max(1, 13 - p), 200 - p)
        G = shuffled_ids(gen_bipartite_permutation(p, q, seed=i), rng)
        with open(path, "w") as f:
            f.write(format_edge_list(G))
        assert read_graph_file(path) == G
        code, out, _ = run(capsys, "recognize", path, "--certificate")
        assert code == 0
        cert = json.loads(out)["result"]["certificates"]["bipartitePermutation"]
        so = strong_ordering_from_orders(G, map(G.id_of, cert["xOrder"]),
                                         map(G.id_of, cert["yOrder"]))
        assert so == recognize_bipartite_permutation(G).ordering
        assert verify_strong_ordering(G, so)
        interim = set(so.x_order[1:-1]) | set(so.y_order[1:-1])
        assert cut_vertices_via_strong_ordering(G, so) == tuple(
            sorted(set(articulation_points(G)) & interim)), (p, q, i)


def _p4_sparse_120(tmp_path):
    """gen_p4_sparse(120, seed=0): a spider, and not strongly chordal."""
    G = generate(GenSpec("p4_sparse", seed=0, n=120))
    path = tmp_path / "p4sparse120.edges"
    path.write_text(format_edge_list(G))
    return G, str(path)


def test_recognize_p4_decided_over_60(tmp_path, capsys):
    lines = "".join(f"v{i} v{i + 1}\n" for i in range(61))
    path = write(tmp_path, "long.edges", lines)
    code, out, _ = run(capsys, "recognize", path)
    assert code == 0
    assert json.loads(out)["result"]["p4Sparse"] == "no"
    _, path = _p4_sparse_120(tmp_path)
    code, out, _ = run(capsys, "recognize", path)
    assert code == 0
    assert json.loads(out)["result"]["p4Sparse"] == "yes"


@pytest.mark.parametrize("method", ["auto", "mandatory", "structural"])
def test_meg_on_p4_sparse_over_60(tmp_path, capsys, method):
    G, path = _p4_sparse_120(tmp_path)
    code, out, err = run(capsys, "meg", path, "--method", method)
    assert (code, err) == (0, "")
    result = json.loads(out)["result"]
    assert result["class"] == "p4_sparse"
    assert result["witness"] == sorted(G.labels_of(mandatory_vertices(G)))
    assert result["meg"] == len(result["witness"])


def test_structural_skips_exhaustive_spider_search(tmp_path, capsys,
                                                   monkeypatch):
    def refuse(G):
        raise AssertionError("exhaustive spider search called")

    for module in (recognizers, solvers, cli):
        monkeypatch.setattr(module, "detect_spider", refuse, raising=False)
    c12 = write(tmp_path, "c12.edges",
                "".join(f"v{i} v{(i + 1) % 12}\n" for i in range(12)))
    code, out, err = run(capsys, "meg", c12, "--method", "structural")
    assert (code, out) == (4, "")
    assert "not P4-sparse" in err
    for legs in range(2, 9):
        for head in range(5):
            for kind in ("thin", "thick"):
                G = spider_graph(legs, kind, head=head)
                witness = set(G.labels_of(solve_p4_structural(G).witness))
                if kind == "thick" and legs > 2:
                    assert witness == set(G.labels)
                else:
                    assert witness == {f"s{i + 1}" for i in range(legs)} | \
                        {f"r{i + 1}" for i in range(head)}


def test_verify_ok_and_uncovered(tmp_path, capsys):
    path = write(tmp_path, "c4.edges", C4)
    code, out, _ = run(capsys, "verify", path, "--set", "a,b,c,d")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"] == {"isMeg": True, "uncovered": None}
    _, out, _ = run(capsys, "verify", path, "--set", "a,b,c")
    doc = json.loads(out)
    assert doc["result"]["isMeg"] is False
    assert doc["result"]["uncovered"] == ["a", "d"]


def test_verify_unknown_label_exit_2(tmp_path, capsys):
    path = write(tmp_path, "c4.edges", C4)
    code, _, err = run(capsys, "verify", path, "--set", "a,zz")
    assert code == 2
    assert "unknown vertex label" in err


def test_mandatory_and_cut_commands(tmp_path, capsys):
    k4 = write(tmp_path, "k4.edges",
               "a b\na c\na d\nb c\nb d\nc d\n")
    _, out, _ = run(capsys, "mandatory", k4)
    assert json.loads(out)["result"]["mandatory"] == ["a", "b", "c", "d"]
    star = write(tmp_path, "star.edges", "c x\nc y\nc z\n")
    _, out, _ = run(capsys, "cut", star)
    assert json.loads(out)["result"]["cutVertices"] == ["c"]
    _, out, _ = run(capsys, "mandatory", star)
    assert json.loads(out)["result"]["mandatory"] == ["x", "y", "z"]


def test_oracle_command_and_flags(tmp_path, capsys):
    path = write(tmp_path, "c5.edges", C5)
    code, out, _ = run(capsys, "oracle", path)
    doc = json.loads(out)["result"]
    assert code == 0
    assert doc["meg"] == 3
    assert doc["trustedBounds"] is True
    _, out, _ = run(capsys, "oracle", path, "--no-trust-bounds")
    doc = json.loads(out)["result"]
    assert doc["trustedBounds"] is False
    assert doc["meg"] == 3


def test_oracle_limit_env(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "c5.edges", C5)
    monkeypatch.setenv("MEGSOLVE_ORACLE_LIMIT", "4")
    code, _, err = run(capsys, "oracle", path)
    assert code == 5
    assert "limit" in err
    monkeypatch.setenv("MEGSOLVE_ORACLE_LIMIT", "banana")
    code, _, err = run(capsys, "oracle", path)
    assert code == 2
    assert "MEGSOLVE_ORACLE_LIMIT" in err


def test_oracle_and_meg_past_the_vertex_limit(tmp_path, capsys,
                                             monkeypatch):
    # n = 30, but the pool (non-cut vertices outside M) fits the default
    # limit of 12: the trusted oracle and auto mode answer exactly, while
    # raw search over all 30 vertices stays refused.
    monkeypatch.delenv("MEGSOLVE_ORACLE_LIMIT", raising=False)
    path = str(tmp_path / "r30.edges")
    assert run(capsys, "gen", "--class", "random", "--n", "30", "--m", "36",
               "--seed", "1", "--out", path)[0] == 0
    code, out, err = run(capsys, "oracle", path)
    doc = json.loads(out)["result"]
    assert (code, err) == (0, "")
    assert doc["meg"] == 16 and doc["trustedBounds"] is True
    code, out, err = run(capsys, "meg", path)
    res = json.loads(out)["result"]
    assert (code, err) == (0, "")
    assert (res["class"], res["method"], res["minimal"]) == ("none", "oracle",
                                                             True)
    assert res["meg"] == 16 and res["witness"] == doc["witness"]
    assert "bounds" not in res
    code, out, _ = run(capsys, "meg", "--method", "oracle", path)
    assert code == 0 and json.loads(out)["result"] == res
    code, out, err = run(capsys, "oracle", path, "--no-trust-bounds")
    assert (code, out) == (5, "")
    assert err == "error: brute-force oracle: size 30 exceeds limit 12\n"


def test_trusted_oracle_checks_each_block_pool(tmp_path, capsys,
                                              monkeypatch):
    # Two C7s glued at a vertex pool 6 vertices per block, 12 in all, so a
    # limit of 6 answers them with the report a limit of 12 gives; C13 is
    # one block with a pool of 13.
    glued = write(tmp_path, "glued.edges",
                  "".join(f"a{i} a{(i + 1) % 7}\n" for i in range(7))
                  + "".join(f"b{i} b{i + 1}\n" for i in range(1, 6))
                  + "a0 b1\nb6 a0\n")
    monkeypatch.setenv("MEGSOLVE_ORACLE_LIMIT", "12")
    code, wide, err = run(capsys, "oracle", glued)
    assert (code, err) == (0, "")
    monkeypatch.setenv("MEGSOLVE_ORACLE_LIMIT", "6")
    code, out, err = run(capsys, "oracle", glued)
    assert (code, out, err) == (0, wide, "")
    assert json.loads(out)["result"] == {
        "meg": 4, "witness": ["a1", "a4", "b1", "b4"], "explored": 396,
        "trustedBounds": True}
    monkeypatch.delenv("MEGSOLVE_ORACLE_LIMIT")
    c13 = write(tmp_path, "c13.edges",
                "".join(f"v{i} v{(i + 1) % 13}\n" for i in range(13)))
    code, out, err = run(capsys, "oracle", c13)
    assert (code, out) == (5, "")
    assert err == "error: brute-force oracle: size 13 exceeds limit 12\n"


def test_parse_error_exit_2(tmp_path, capsys):
    path = write(tmp_path, "bad.edges", "a b\njust-one-token\n")
    code, _, err = run(capsys, "meg", path)
    assert code == 2
    assert "line 2" in err
    code, _, err = run(capsys, "meg", str(tmp_path / "missing.edges"))
    assert code == 2


def test_unreadable_input_exit_2(tmp_path, capsys):
    code, out, err = run(capsys, "meg", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    path = tmp_path / "latin1.edges"
    path.write_bytes(b"a b\n\xff c\n")
    code, out, err = run(capsys, "meg", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_self_loop_exit_2(tmp_path, capsys):
    path = write(tmp_path, "loop.edges", "a a\n")
    code, _, err = run(capsys, "meg", path)
    assert code == 2
    assert "self-loop" in err


def test_gen_stdout_and_file(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "--class", "dh", "--n", "8",
                       "--seed", "3")
    assert code == 0
    assert out.startswith("# genspec: class=distance_hereditary seed=3 n=8\n")
    expected = generate(GenSpec("distance_hereditary", seed=3, n=8))
    assert graph_from_edge_list(out) == expected
    target = tmp_path / "out.edges"
    code, out, _ = run(capsys, "gen", "--class", "dh", "--n", "8",
                       "--seed", "3", "--out", str(target))
    assert code == 0 and out == ""
    assert graph_from_edge_list(target.read_text()) == expected


def test_gen_class_aliases_and_missing_params(capsys):
    code, out, _ = run(capsys, "gen", "--class", "bipperm", "--p", "3",
                       "--q", "4", "--seed", "1")
    assert code == 0
    assert "class=bipartite_permutation" in out
    code, _, err = run(capsys, "gen", "--class", "bipperm", "--seed", "1")
    assert code == 2
    assert "--p and --q" in err
    code, _, err = run(capsys, "gen", "--class", "nosuch", "--n", "4")
    assert code == 2
    for argv, flag in ((("--class", "dh", "--n", "6", "--m", "50"), "--m"),
                       (("--class", "dh", "--n", "6", "--p", "3"), "--p"),
                       (("--class", "bipperm", "--p", "2", "--q", "2",
                         "--n", "99"), "--n"),
                       (("--class", "random", "--n", "5", "--m", "6",
                         "--q", "1"), "--q"),
                       (("--class", "stronglychordal", "--n", "5",
                         "--m", "4"), "--m")):
        code, out, err = run(capsys, "gen", *argv)
        assert code == 2 and out == ""
        assert f"{flag} is not used by class" in err


def test_bench_csv(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "c4.edges").write_text(C4)
    (corpus / "c5.edges").write_text(C5)
    (corpus / "p5.edges").write_text(P5)
    (corpus / "bad.edges").write_text("oops\n")
    (corpus / "ignored.txt").write_text("not an edge list")
    code, out, _ = run(capsys, "bench", str(corpus))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "class,n,m,method,meg,elapsed_ms,agreed_with_oracle"
    assert len(lines) == 5
    assert lines[1].startswith("error") or "error" in lines[1]
    agreed = [line.split(",")[6] for line in lines[2:]]
    assert all(a == "yes" for a in agreed)
    target = tmp_path / "bench.csv"
    code, out, _ = run(capsys, "bench", str(corpus), "--csv", str(target))
    assert code == 0 and out == ""
    assert target.read_text().splitlines()[0].startswith("class,")


def test_bench_checks_against_the_raw_oracle(tmp_path, capsys, monkeypatch):
    # Auto mode falls back to the trusted oracle, so only the raw oracle
    # is an independent check; C5 takes that fallback.
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "c4.edges").write_text(C4)
    (corpus / "c5.edges").write_text(C5)
    trusts = []
    oracle = cli.min_meg_bruteforce

    def recording(G, trust_bounds=True, limit=None):
        trusts.append(trust_bounds)
        return oracle(G, trust_bounds, limit)

    monkeypatch.setattr(cli, "min_meg_bruteforce", recording)
    code, out, _ = run(capsys, "bench", str(corpus))
    assert code == 0 and trusts == [False, False]
    rows = list(csv.reader(io.StringIO(out)))
    assert [row[3:5] + row[6:] for row in rows[1:]] == [
        ["cut_based", "4", "yes"], ["oracle", "3", "yes"]]


def test_bench_keeps_going_past_unreadable_files(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a-c4.edges").write_text(C4)
    (corpus / "b-latin1.edges").write_bytes(b"a b\n\xff c\n")
    (corpus / "c-dir.edges").mkdir()
    (corpus / "d-p5.edges").write_text(P5)
    code, out, err = run(capsys, "bench", str(corpus))
    assert code == 0 and err == ""
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["class", "n", "m", "method", "meg", "elapsed_ms",
                       "agreed_with_oracle"]
    assert [row[0] for row in rows[2:4]] == ["b-latin1.edges", "c-dir.edges"]
    for row in rows[2:4]:
        assert row[1:6] == ["", "", "error", "", ""] and row[6]
    assert "codec can't decode" in rows[2][6]
    assert rows[2][6].startswith("line 2: ")
    assert [row[1:3] + row[6:] for row in (rows[1], rows[4])] == \
        [["4", "4", "yes"], ["5", "4", "yes"]]


@pytest.mark.parametrize("data, line_no", [
    (b"a b\nb c\n\xff c\n", 3),
    (b"\xff", 1),
    (b"a b\n\xff", 2),
    (b"a b\r\nb c\r\n\r\nc d \xe2\x82", 4),  # CRLF, truncated character
    (b"# \xc3\xa9t\xc3\xa9\na b\rb c\n\xc0\xaf\n", 4),  # lone CR breaks too
    (b"\xef\xbb\xbfa b\r\nb c\r\n\xff c\r\n", 3),  # after a byte-order mark
], ids=["third-line", "first-byte", "after-newline", "crlf-truncated",
        "lone-cr", "after-bom"])
def test_undecodable_byte_names_its_line(tmp_path, capsys, data, line_no):
    path = tmp_path / "bad.edges"
    path.write_bytes(data)
    code, out, err = run(capsys, "meg", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: line {line_no}: 'utf-8' codec can't decode")
    assert err.count("\n") == 1
    with pytest.raises(EdgeListParseError) as info:
        cli.read_graph_file(str(path))
    assert info.value.line_no == line_no


@pytest.mark.parametrize("text", [
    "# gen\nvertices: a b c\na b\nb c\n",
    "a b\nb c\n",
    "vertices: a b c\r\na b\r\nb c\r\n",
], ids=["header", "plain", "crlf"])
def test_byte_order_mark_is_skipped(tmp_path, capsys, text):
    plain, marked = tmp_path / "plain.edges", tmp_path / "bom.edges"
    plain.write_bytes(text.encode())
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    G = read_graph_file(str(plain))
    assert read_graph_file(str(marked)) == G
    assert G.labels == ("a", "b", "c")
    reports = [json.loads(run(capsys, "meg", str(p))[1]) for p in (plain, marked)]
    assert reports[0]["result"] == reports[1]["result"]
    assert reports[0]["input"]["labels"] == reports[1]["input"]["labels"]


def test_byte_order_mark_elsewhere_stays_in_its_label(tmp_path):
    path = tmp_path / "boms.edges"
    path.write_bytes("\ufeff\ufeffa b\nb \ufeffc\n".encode())
    assert read_graph_file(str(path)).labels == ("\ufeffa", "b", "\ufeffc")
    assert graph_from_edge_list("\ufeffa b\n").labels == ("\ufeffa", "b")


def test_unknown_method_rejected_by_argparse(tmp_path, capsys):
    path = write(tmp_path, "c4.edges", C4)
    with pytest.raises(SystemExit):
        main(["meg", path, "--method", "nope"])


@pytest.mark.parametrize("exc, code", [
    (EdgeListParseError(3, "bad line"), 2),
    (SelfLoopError("a"), 2),
    (GenerationError("retries exhausted"), 2),
    (FileNotFoundError("no such file"), 2),
    (ValueError("bad value"), 2),
    (NotConnectedError("graph must be connected"), 3),
    (MethodMismatchError("not recognized"), 4),
    (LimitExceededError("scan", 9, 5), 5),
    (IsADirectoryError("is a directory"), 2),
    (PermissionError("permission denied"), 2),
])
def test_exit_code_table(tmp_path, capsys, monkeypatch, exc, code):
    def fail(path):
        raise exc

    monkeypatch.setattr(cli, "read_graph_file", fail)
    got, out, err = run(capsys, "meg", write(tmp_path, "c4.edges", C4))
    assert got == code
    assert out == "" and err == f"error: {exc}\n"


@pytest.mark.parametrize("exc, message", [
    (MemoryError(), "MemoryError"),
    (RecursionError("maximum recursion depth exceeded"),
     "maximum recursion depth exceeded"),
])
def test_resource_exhaustion_exits_6(tmp_path, capsys, monkeypatch, exc, message):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "solve", fail)
    got, out, err = run(capsys, "meg", write(tmp_path, "c4.edges", C4))
    assert (got, out, err) == (6, "", f"error: {message}\n")


def test_unmapped_exceptions_propagate(tmp_path, capsys, monkeypatch):
    def fail(path):
        raise RuntimeError("bug")

    monkeypatch.setattr(cli, "read_graph_file", fail)
    with pytest.raises(RuntimeError):
        main(["meg", write(tmp_path, "c4.edges", C4)])


GEM = "a b\nb c\nc d\na e\nb e\nc e\nd e\n"


def test_cached_parser_keeps_no_state_between_calls(tmp_path, capsys):
    assert cli._build_parser() is cli._build_parser()
    gem = write(tmp_path, "gem.edges", GEM)

    def call(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        out = capsys.readouterr()
        return code, out.out, out.err

    def first_in_process(argv):
        cli._build_parser.cache_clear()
        return call(argv)

    pairs = [
        (["recognize", "--certificate", gem], ["recognize", gem]),
        (["oracle", "--no-trust-bounds", gem], ["oracle", gem]),
        (["meg", "--method", "cut", gem], ["meg", gem]),
        (["meg", "--no-such-flag", gem], ["meg", gem]),
    ]
    expected = [(first_in_process(a), first_in_process(b)) for a, b in pairs]
    cli._build_parser.cache_clear()
    got = [(call(a), call(b)) for a, b in pairs]
    assert got == expected

    (_, (rc, rec, _)), (_, (_, orc, _)), (meg_cut, meg), (bad, after) = got
    assert rc == 0 and "certificates" not in json.loads(rec)["result"]
    assert json.loads(orc)["result"]["trustedBounds"] is True
    assert meg_cut[0] == 4 and meg[0] == 0
    assert json.loads(meg[1])["result"]["method"] == "mandatory_based"
    assert bad[0] == ("SystemExit", 2) and after == meg


def test_decomposition_on_a_long_path(tmp_path, capsys):
    text = "".join(f"v{i} v{i + 1}\n" for i in range(1199))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        code, out, _ = run(capsys, "meg", "--method", "decomposition",
                           write(tmp_path, "p1200.edges", text))
    finally:
        sys.setrecursionlimit(limit)
    assert code == 0
    assert json.loads(out)["result"]["witness"] == ["v0", "v1199"]


def test_decomposition_is_exact_and_refuses_an_over_limit_block(
        tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("MEGSOLVE_ORACLE_LIMIT", raising=False)
    seven = write(tmp_path, "seven.edges",
                  "0 1\n0 2\n0 3\n1 4\n2 6\n4 5\n4 6\n")
    code, out, err = run(capsys, "meg", "--method", "decomposition", seven)
    assert (code, err) == (0, "")
    res = json.loads(out)["result"]
    assert (res["method"], res["meg"], res["witness"], res["minimal"]) == (
        "decomposition", 3, ["2", "3", "5"], True)
    c13 = write(tmp_path, "c13.edges",
                "".join(f"v{i} v{(i + 1) % 13}\n" for i in range(13)))
    for method in ("oracle", "decomposition"):
        code, out, err = run(capsys, "meg", "--method", method, c13)
        assert (code, out) == (5, "")
        assert err == "error: brute-force oracle: size 13 exceeds limit 12\n"


def test_python_m_megsolve_runs_cli_main(tmp_path, capsys):
    # From a source tree, ``python -m megsolve`` prints the report that an
    # in-process cli.main call prints, with the same exit code.
    path = write(tmp_path, "p5.edges", P5)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "megsolve", "mandatory", path],
                          capture_output=True, text=True, env=env,
                          check=False)
    code, out, _ = run(capsys, "mandatory", path)
    assert (proc.returncode, proc.stdout) == (code, out)
    assert json.loads(out)["result"]["mandatory"] == ["a", "e"]
    proc = subprocess.run([sys.executable, "-m", "megsolve", "--help"],
                          capture_output=True, env=env, check=False)
    assert proc.returncode == 0
