import json
import sys

import pytest

from megsolve import (EdgeListParseError, GenSpec, GenerationError,
                      LimitExceededError, MethodMismatchError,
                      NotConnectedError, SelfLoopError, format_edge_list,
                      generate, graph_from_edge_list, mandatory_vertices,
                      solve_p4_structural, spider_graph)
from megsolve import cli, recognizers, solvers
from megsolve.cli import main


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


def test_timing_flag_adds_elapsed(tmp_path, capsys):
    path = write(tmp_path, "c4.edges", C4)
    _, out, _ = run(capsys, "meg", path, "--timing")
    assert "elapsedMs" in json.loads(out)


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


def test_parse_error_exit_2(tmp_path, capsys):
    path = write(tmp_path, "bad.edges", "a b\njust-one-token\n")
    code, _, err = run(capsys, "meg", path)
    assert code == 2
    assert "line 2" in err
    code, _, err = run(capsys, "meg", str(tmp_path / "missing.edges"))
    assert code == 2


def test_disconnected_exit_3(tmp_path, capsys):
    path = write(tmp_path, "disc.edges", "a b\nc d\n")
    for cmd in ("meg", "recognize", "cut", "oracle", "mandatory"):
        code, _, err = run(capsys, cmd, path)
        assert code == 3, cmd
        assert "connected" in err


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
])
def test_exit_code_table(tmp_path, capsys, monkeypatch, exc, code):
    def fail(path):
        raise exc

    monkeypatch.setattr(cli, "read_graph_file", fail)
    got, out, err = run(capsys, "meg", write(tmp_path, "c4.edges", C4))
    assert got == code
    assert out == "" and err == f"error: {exc}\n"


def test_unmapped_exceptions_propagate(tmp_path, capsys, monkeypatch):
    def fail(path):
        raise RuntimeError("bug")

    monkeypatch.setattr(cli, "read_graph_file", fail)
    with pytest.raises(RuntimeError):
        main(["meg", write(tmp_path, "c4.edges", C4)])


def test_decomposition_on_a_long_path(tmp_path, capsys):
    text = "".join(f"v{i} v{i + 1}\n" for i in range(299))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        code, out, _ = run(capsys, "meg", "--method", "decomposition",
                           write(tmp_path, "p300.edges", text))
    finally:
        sys.setrecursionlimit(limit)
    assert code == 0
    assert json.loads(out)["result"]["witness"] == ["v0", "v299"]
