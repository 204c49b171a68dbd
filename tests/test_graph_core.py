import itertools
import math
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from megsolve import (EdgeListParseError, Graph, INF, SelfLoopError,
                      articulation_points, bfs_distances, build_graph,
                      co_components, complement, connected_components,
                      format_edge_list, gen_bipartite_permutation,
                      gen_distance_hereditary, gen_p4_sparse,
                      gen_random_connected, gen_strongly_chordal,
                      graph_from_edge_list, is_connected, spider_graph,
                      vertex_set)
from megsolve import graph_core
from megsolve.graph_core import (block_edges, blocks, iter_bits,
                                 local_adjacency)

import battery

from graphs_util import (all_connected_graphs, brute_articulation,
                         complete_graph, connected_graph_classes,
                         cycle_graph, path_graph,
                         random_connected_graph, scan_induced_subgraph,
                         star_graph, two_stage_build, two_stage_read)


def test_build_graph_first_appearance_ids():
    G = build_graph([("b", "a"), ("a", "c")])
    assert G.labels == ("b", "a", "c")
    assert G.id_of("a") == 1
    assert G.n == 3 and G.m == 2


def test_build_graph_vertices_param_allows_isolated():
    G = build_graph([("a", "b")], vertices=["z", "a", "b"])
    assert G.labels == ("z", "a", "b")
    assert G.degree(0) == 0


def test_duplicate_edges_collapse():
    G = build_graph([("a", "b"), ("b", "a"), ("a", "b")])
    assert G.m == 1
    assert G.adj == ((1,), (0,))


def test_self_loop_rejected():
    with pytest.raises(SelfLoopError):
        build_graph([("a", "a")])
    with pytest.raises(SelfLoopError):
        Graph(["a", "b"], [(0, 0)])


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError):
        Graph(["a", "a"], [])


def test_edge_out_of_range_rejected():
    with pytest.raises(ValueError):
        Graph(["a", "b"], [(0, 2)])


def test_accessors_roundtrip():
    G = build_graph([("a", "b"), ("b", "c")])
    assert G.adj[1] == (0, 2)
    assert G.degree(1) == 2
    assert G.has_edge(0, 1) and not G.has_edge(0, 2)
    assert not G.has_edge(0, 0)
    assert not G.has_edge(-1, 1) and not G.has_edge(1, -1)
    assert not G.has_edge(3, 1) and not G.has_edge(1, 3)
    assert G.edges() == [(0, 1), (1, 2)]
    assert G.adj_masks[1] | 1 << 1 == 0b111
    assert G.label(2) == "c"
    assert G.labels_of((2, 0)) == ("c", "a")
    with pytest.raises(KeyError):
        G.id_of("zz")


def test_equal_graphs_hash_equal():
    G, H = gen_bipartite_permutation(3, 3, 1), gen_bipartite_permutation(3, 3, 1)
    assert G is not H and G == H and hash(G) == hash(H)
    assert len({G, H}) == 1
    assert len({G, graph_from_edge_list(format_edge_list(G)), path_graph(4)}) == 2


def test_vertex_set_sorts_and_dedups():
    assert vertex_set([3, 1, 3, 0]) == (0, 1, 3)
    assert vertex_set([]) == ()


def test_iter_bits():
    assert list(iter_bits(0b101001)) == [0, 3, 5]
    assert list(iter_bits(0)) == []


def test_bfs_distances_path():
    P = path_graph(5)
    assert bfs_distances(P, 0) == [0, 1, 2, 3, 4]
    assert bfs_distances(P, 2) == [2, 1, 0, 1, 2]


def test_bfs_distances_unreachable_is_inf():
    G = build_graph([("a", "b")], vertices=["a", "b", "z"])
    d = bfs_distances(G, 0)
    assert d[2] == INF and math.isinf(d[2])


def test_bfs_skip_edge_reroutes():
    C = cycle_graph(6)
    assert bfs_distances(C, 0)[1] == 1
    assert bfs_distances(C, 0, skip_edge=(0, 1))[1] == 5
    with pytest.raises(ValueError):
        bfs_distances(C, 0, skip_edge=(0, 3))


def test_all_pairs_symmetric():
    G = random_connected_graph(random.Random(5), 9, extra=5)
    dm = [bfs_distances(G, s) for s in range(G.n)]
    assert all(len(row) == 9 for row in dm)
    for u in range(9):
        for v in range(9):
            assert dm[u][v] == dm[v][u]


def test_connectivity_and_components():
    G = build_graph([("a", "b"), ("c", "d"), ("d", "e")])
    assert not is_connected(G)
    assert connected_components(G) == [(0, 1), (2, 3, 4)]
    assert is_connected(path_graph(4))
    assert is_connected(build_graph([], vertices=["solo"]))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_articulation_exhaustive_small(n):
    for G in all_connected_graphs(n):
        assert list(articulation_points(G)) == brute_articulation(G)


def test_articulation_random_larger():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randrange(6, 13)
        G = random_connected_graph(rng, n, extra=rng.randrange(0, n))
        assert list(articulation_points(G)) == brute_articulation(G)


def _assert_blocks_partition_edges(G):
    """Blocks use every edge exactly once, each is connected without a cut
    vertex of its own, and the cut vertices of G are exactly the vertices
    in two or more blocks."""
    found = blocks(G)
    assert all(len(set(b)) == len(b) for b in found)
    inside = sorted((u, v) for b in found for u in b for v in b
                    if u < v and G.has_edge(u, v))
    assert inside == G.edges()
    # block_edges lists the same edges, each once, under its block
    edges = block_edges(G)
    assert len(edges) == len(found)
    assert [sorted(es) for es in edges] == [
        sorted((u, v) for u in b for v in b if u < v and G.has_edge(u, v))
        for b in found]
    for b in found:
        H = scan_induced_subgraph(G, b)
        assert is_connected(H) and not brute_articulation(H)
    count = [0] * G.n
    for b in found:
        for v in b:
            count[v] += 1
    assert articulation_points(G) == tuple(v for v in range(G.n)
                                           if count[v] >= 2)


def test_block_lists_match_the_induced_lists():
    # On the battery's many-block graphs, each block's lists built from
    # its own edges equal the lists of the subgraph the block induces,
    # read off G's whole lists by the reference. local_adjacency does not
    # sort, so block_edges must list each block's edges (u, v), u < v, in
    # ascending order.
    for key, G in battery.many_block_inputs():
        for ids, edges in zip(blocks(G), block_edges(G)):
            ids = vertex_set(ids)
            expected = list(map(list, scan_induced_subgraph(G, ids).adj))
            assert all(u < v for u, v in edges), key
            assert edges == sorted(edges), key
            assert local_adjacency(ids, edges) == expected, key


def test_blocks_exhaustive_small():
    for n in range(2, 8):
        for G in connected_graph_classes(n):
            _assert_blocks_partition_edges(G)


def test_blocks_random_larger():
    rng = random.Random(12)
    for _ in range(200):
        n = rng.randrange(2, 40)
        G = random_connected_graph(rng, n, extra=rng.randrange(0, n))
        _assert_blocks_partition_edges(G)


def test_blocks_known_shapes():
    assert sorted(map(sorted, blocks(path_graph(4)))) == [[0, 1], [1, 2],
                                                          [2, 3]]
    assert sorted(map(sorted, blocks(cycle_graph(5)))) == [[0, 1, 2, 3, 4]]
    bowtie = build_graph([("a", "b"), ("b", "c"), ("a", "c"),
                          ("c", "d"), ("c", "e"), ("d", "e")])
    assert sorted(map(sorted, blocks(bowtie))) == [[0, 1, 2], [2, 3, 4]]
    assert blocks(build_graph([], vertices=["solo"])) == ()


def test_articulation_known_shapes():
    assert articulation_points(path_graph(5)) == (1, 2, 3)
    assert articulation_points(cycle_graph(6)) == ()
    assert articulation_points(star_graph(4)) == (0,)
    assert articulation_points(complete_graph(4)) == ()


def test_complement_and_co_components():
    P = path_graph(3)
    H = complement(P)
    assert H.edges() == [(0, 2)]
    K = complete_graph(3)
    assert co_components(K) == [(0,), (1,), (2,)]
    assert co_components(path_graph(4)) == [(0, 1, 2, 3)]


def test_co_components_match_components_of_complement():
    rng = random.Random(1990)
    joins = 0
    for _ in range(500):
        n = rng.randrange(0, 13)
        p = rng.random()
        G = Graph([f"v{i}" for i in range(n)],
                  [e for e in itertools.combinations(range(n), 2)
                   if rng.random() < p])
        expected = connected_components(complement(G))
        assert co_components(G) == expected
        joins += len(expected) > 1
    assert 100 < joins < 400  # both shapes well represented


def test_parse_edge_list_basics():
    text = "# comment\n\na b\n  b   c  \n# x y\n"
    G = graph_from_edge_list(text)
    assert G.labels == ("a", "b", "c")
    assert G.edges() == [(0, 1), (1, 2)]


def test_parse_vertices_header():
    text = "vertices: a b z\na b\n"
    G = graph_from_edge_list(text)
    assert G.labels == ("a", "b", "z")
    assert G.degree(2) == 0


def test_parse_duplicate_header_rejected():
    with pytest.raises(EdgeListParseError) as err:
        graph_from_edge_list("vertices: a\nvertices: b\n")
    assert err.value.line_no == 2


def test_parse_bad_line_reports_number():
    with pytest.raises(EdgeListParseError) as err:
        graph_from_edge_list("a b\nxyz\n")
    assert err.value.line_no == 2
    assert "line 2" in str(err.value)


def test_parse_self_loop_rejected_at_build():
    with pytest.raises(SelfLoopError):
        graph_from_edge_list("a a\n")


def test_format_roundtrip_with_isolated():
    G = build_graph([("a", "b"), ("b", "c")], vertices=["a", "b", "c", "q"])
    text = format_edge_list(G, header_comments=["hello"])
    assert text.startswith("# hello\n")
    assert "vertices: a b c q" in text
    again = graph_from_edge_list(text)
    assert again == G


def test_format_roundtrip_plain():
    G = cycle_graph(5)
    assert graph_from_edge_list(format_edge_list(G)) == G


def test_format_edgeless_graph():
    G = build_graph([], vertices=["only"])
    text = format_edge_list(G)
    assert text == "vertices: only\n"
    assert graph_from_edge_list(text) == G


@pytest.mark.parametrize("bad", ["#x", "", "a b", "vertices:a"],
                         ids=["comment", "empty", "whitespace", "header"])
def test_format_refuses_labels_that_do_not_read_back(bad):
    G = build_graph([(bad, "y")])
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        format_edge_list(G)


def test_format_names_the_first_unwritable_label():
    G = Graph(["ok", "a\tb", "vertices:", "x\u2028y", "#"],
              [(0, 1), (1, 2), (3, 4)])
    with pytest.raises(ValueError, match=re.escape(repr("a\tb"))):
        format_edge_list(G)
    G = build_graph([("y", "x#"), ("x#", "v:z")],
                    vertices=["y", "x#", "v:z", "z:vertices"])
    assert graph_from_edge_list(format_edge_list(G)) == G


LINE_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
               "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("brk", LINE_BREAKS, ids=[repr(b) for b in LINE_BREAKS])
def test_format_refuses_header_comments_with_line_breaks(brk):
    G = build_graph([("a", "b")])
    comment = f"note{brk}c d"
    with pytest.raises(ValueError, match=re.escape(repr(comment))):
        format_edge_list(G, header_comments=["fine", comment])
    with pytest.raises(ValueError):
        format_edge_list(G, header_comments=[f"trailing{brk}"])


def test_format_plain_header_comments_read_back():
    G = build_graph([("a", "b"), ("b", "c")], vertices=["a", "b", "c", "q"])
    comments = ["", "seed=3 n=4", "tab\there", "vertices: x y", "# x y",
                "\xa0nbsp\u3000wide"]
    text = format_edge_list(G, header_comments=comments)
    assert text.splitlines()[:len(comments)] == [f"# {c}" for c in comments]
    assert graph_from_edge_list(text) == G


def _read_outcome(text):
    try:
        G = graph_from_edge_list(text)
    except (EdgeListParseError, SelfLoopError) as exc:
        return type(exc), getattr(exc, "line_no", None), str(exc)
    return (G.labels, G.adj, G.adj_masks, G.m, list(G._label_ids.items()))


def _two_stage_outcome(text):
    try:
        labels, adj, masks, m, index = two_stage_read(text)
    except (EdgeListParseError, SelfLoopError) as exc:
        return type(exc), getattr(exc, "line_no", None), str(exc)
    return labels, adj, masks, m, list(index.items())


def assert_reads_like_two_stage(text):
    expected = _two_stage_outcome(text)
    assert _read_outcome(text) == expected, repr(text)
    return expected


READER_CASES = [
    "", "\n", "   ", "# only a comment", "#a b\na b\n", "a b\n  #c d  \n",
    "a b\n\n   \n\t\n\xa0\n\u3000\nb c\n", "a\xa0b\na\u3000c\n",
    "a b\r\nb c\r\n", "a b\rb c\r", "a b\x0bb c\x0cc d\x1cd e\u2028e a",
    "vertices: z y\na b\n", "a b\nvertices: z y\nb c\n",
    "a b\nb c\nvertices: c z\n", "vertices: a\nvertices: b\n",
    "vertices:a b\nb c\n", "vertices:\na b\n", "  vertices: q\n",
    "vertices: a a b\nb a\n", "a b\nb a\na b\n", "a\n", "a b c\n",
    "a b # note\n", "a b\n x \n", "a a\nb\n", "b\na a\n", "a b\nc c\n",
    "x vertices:\n", "x #y\n", "vertices:x y\nx y\n",
]

# Runs of comment lines, which the reader takes as one match each: a long
# run between edge lines, comments right after the header, and a malformed
# line or a duplicate header after a run, with its line number.
_COMMENT_RUN = "#c\n  # d e\n\t#\n" * 400
COMMENT_RUN_ERRORS = [
    ("#x\n  # y\n#\na b c\n", 4, "expected two labels"),
    ("a b\n" + _COMMENT_RUN + "q\n#z\n", 1202, "expected two labels"),
    ("vertices: a\n#1\n #2\nvertices: b\n", 4, "duplicate vertices header"),
    ("vertices: a\n" + _COMMENT_RUN + "vertices: b\n#z\n", 1202,
     "duplicate vertices header"),
    ("#a\r\n#b\r\n\r\n#c\u2028x y z\n", 5, "expected two labels"),
]
READER_CASES += [
    "a b\n" + _COMMENT_RUN + "b c\n", "a b\n" + _COMMENT_RUN + "b c",
    "a b\n" + _COMMENT_RUN, _COMMENT_RUN + "a b\n",
    "vertices: a b c\n# one\n  # two\n#\na b\n",
    "vertices: a b c\n#1\n\n#2\nvertices: d\n", "#a b\n#c\n\n#d\n",
    "a b\n#1\n#2\nb b\n#3\n", "a b\n#1\n#x y\nc d\n#2\n#3",
] + [text for text, _, _ in COMMENT_RUN_ERRORS]


@pytest.mark.parametrize("text, line_no, message", COMMENT_RUN_ERRORS)
def test_line_numbers_after_comment_runs(text, line_no, message):
    with pytest.raises(EdgeListParseError, match=message) as err:
        graph_from_edge_list(text)
    assert err.value.line_no == line_no


@pytest.mark.parametrize("text", READER_CASES)
def test_reader_matches_two_stage_reference_on_cases(text):
    assert_reads_like_two_stage(text)


# "\r\r\n" and "\r\n\r" are two breaks each; "\x1f" is whitespace that does
# not break a line.
_BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
           "\u2028", "\u2029", "\r\r\n", "\r\n\r")
_GAPS = (" ", "  ", "\t", "\xa0", "\u3000", " \t ", "\x1f")
_POOL = ("a", "b", "c", "d", "v1", "v2", "x#", "#a", "vertices:x")


def _fuzz_line(rng):
    gap = lambda: rng.choice(_GAPS)  # noqa: E731
    pad = lambda: rng.choice(("", "", gap()))  # noqa: E731
    kind = rng.random()
    if kind < 0.6:
        return pad() + rng.choice(_POOL[:6]) + gap() + rng.choice(_POOL) + pad()
    if kind < 0.7:
        return pad() + rng.choice(("# note", "#a b", "#", "# a b c"))
    if kind < 0.8:
        return rng.choice(("", "", " ", "\t", "\xa0", "\u3000"))
    if kind < 0.86:
        labels = gap().join(rng.sample(_POOL, rng.randrange(0, 4)))
        return pad() + rng.choice(("vertices:", "vertices: ")) + labels
    if kind < 0.9:
        return pad() + gap().join(rng.choices(_POOL, k=rng.choice((1, 3))))
    return pad() + rng.choice(("e", "f")) + gap() + rng.choice(("a", "g"))


def _fuzz_texts():
    rng = random.Random(20261017)
    for _ in range(3000):
        lines = [_fuzz_line(rng) for _ in range(rng.randrange(0, 12))]
        text = "".join(line + rng.choice(_BREAKS) for line in lines)
        if lines and rng.random() < 0.3:
            text = text[:-1]
        yield text


def test_reader_matches_two_stage_reference_fuzz():
    kinds = {"ok": 0, EdgeListParseError: 0, SelfLoopError: 0}
    for text in _fuzz_texts():
        expected = assert_reads_like_two_stage(text)
        kinds[expected[0] if expected[0] in kinds else "ok"] += 1
    assert min(kinds.values()) > 300, kinds


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
def test_reader_matches_two_stage_reference_in_small_chunks(monkeypatch, chunk):
    """Chunks this small cut the edge lines at nearly every line break, so
    cuts land next to every kind of line the cases and the fuzz hold."""
    monkeypatch.setattr(graph_core, "_CHUNK", chunk)
    for text in itertools.chain(READER_CASES, _fuzz_texts()):
        assert_reads_like_two_stage(text)


@pytest.mark.parametrize("crlf", [False, True], ids=["lf", "crlf"])
def test_reader_memory_is_linear_in_the_text(crlf):
    """Beyond the graph it returns, the reader holds a few bytes per byte
    of text: never a list of the lines or of all the label strings."""
    text = format_edge_list(gen_strongly_chordal(1000, 1))
    if crlf:
        text = text.replace("\n", "\r\n")
    tracemalloc.start()
    try:
        G = graph_from_edge_list(text)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert G.m > 50000
    assert peak - retained < 6 * len(text)


FAMILIES = {
    "dh": lambda n: gen_distance_hereditary(n, 3),
    "p4sparse": lambda n: gen_p4_sparse(n, 3),
    "bipperm": lambda n: gen_bipartite_permutation(n // 2, n - n // 2, 3),
    "sc-interval": lambda n: gen_strongly_chordal(n, 3),
    "sc-block": lambda n: gen_strongly_chordal(n, 3, style="block"),
    "random": lambda n: gen_random_connected(n, 2 * n, 3),
    "spider": lambda n: spider_graph(n // 3, head=n - 2 * (n // 3)),
}


def test_generator_roundtrip_in_many_chunks(monkeypatch):
    monkeypatch.setattr(graph_core, "_CHUNK", 64)
    G = FAMILIES["sc-interval"](1000)
    text = format_edge_list(G, header_comments=["sc-interval"])
    assert len(text) > 1000 * 64
    again = graph_from_edge_list(text)
    assert again == G and again.adj_masks == G.adj_masks and again.m == G.m
    assert _read_outcome(text) == _two_stage_outcome(text)


@pytest.mark.parametrize("n", [12, 200, 1000])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_generator_families_roundtrip(family, n):
    G = FAMILIES[family](n)
    text = format_edge_list(G, header_comments=[family])
    again = graph_from_edge_list(text)
    assert again == G and again.adj_masks == G.adj_masks and again.m == G.m
    assert _read_outcome(text) == _two_stage_outcome(text)
    edges = [(G.label(u), G.label(v)) for u, v in G.edges()]
    assert build_graph(edges, vertices=G.labels) == G
    fields = two_stage_build(edges, vertices=G.labels)
    assert fields[:4] == (G.labels, G.adj, G.adj_masks, G.m)


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    extra = draw(st.integers(min_value=0, max_value=n * (n - 1) // 2))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    return random_connected_graph(random.Random(seed), n, extra=extra)


@settings(max_examples=80, deadline=None)
@given(random_graphs())
def test_roundtrip_property(G):
    assert graph_from_edge_list(format_edge_list(G)) == G


@settings(max_examples=80, deadline=None)
@given(random_graphs())
def test_articulation_matches_brute_property(G):
    assert list(articulation_points(G)) == brute_articulation(G)


@settings(max_examples=60, deadline=None)
@given(random_graphs())
def test_distance_triangle_inequality(G):
    dm = [bfs_distances(G, s) for s in range(G.n)]
    for u in range(G.n):
        for v in range(G.n):
            for w in range(G.n):
                assert dm[u][v] <= dm[u][w] + dm[w][v]
