import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from megsolve import (MegSetCheck, NotConnectedError, SATURATION_CAP, bounds,
                      build_graph, gen_bipartite_permutation,
                      gen_distance_hereditary, gen_p4_sparse,
                      gen_random_connected, gen_strongly_chordal,
                      is_mandatory, is_meg_set, mandatory_bruteforce,
                      mandatory_vertices, monitors, monitors_by_counting,
                      shortest_path_counts, spider_graph)
from megsolve import graph_core, monitoring
from megsolve.graph_core import articulation_points
from megsolve.monitoring import geodesic_edge_rows

import graphs_util
from graphs_util import (all_connected_graphs, brute_is_meg, brute_mandatory,
                         brute_monitors, complete_graph,
                         connected_graph_classes, cycle_graph,
                         extended_graphs, full_scan_is_meg_set, path_graph,
                         per_x_is_mandatory, random_connected_graph,
                         sorted_shortest_path_counts, star_graph,
                         with_universal)


def test_monitors_path_endpoints_cover_everything():
    P = path_graph(4)
    for edge in P.edges():
        assert monitors(P, 0, 3, edge)


def test_monitors_c4_needs_adjacent_pairs():
    C = cycle_graph(4)
    # two shortest 0-2 routes exist, so the diagonal pair monitors nothing
    for edge in C.edges():
        assert not monitors(C, 0, 2, edge)
    assert monitors(C, 0, 1, (0, 1))
    assert not monitors(C, 0, 1, (1, 2))


def test_monitors_validations():
    P = path_graph(3)
    with pytest.raises(ValueError):
        monitors(P, 0, 0, (0, 1))
    with pytest.raises(ValueError):
        monitors(P, 0, 2, (0, 2))
    with pytest.raises(ValueError):
        monitors(P, 0, 9, (0, 1))
    G = build_graph([("a", "b"), ("c", "d")])
    with pytest.raises(NotConnectedError):
        monitors(G, 0, 1, (0, 1))
    K1 = build_graph([], vertices=["a"])
    with pytest.raises(NotConnectedError):
        mandatory_vertices(K1)


@pytest.mark.parametrize("edge", [(-1, 2), (2, -1), (9, 1), (1, 4)])
def test_edges_with_out_of_range_ids_are_not_edges(edge):
    # On C4, id -1 would index vertex 3, a neighbour of 2, and id 9 would
    # raise IndexError; every query names such an edge as not in G.
    C = cycle_graph(4)
    assert not C.has_edge(*edge)
    with pytest.raises(ValueError, match="not in graph"):
        monitors(C, 0, 3, edge)
    dist, counts = shortest_path_counts(C)
    with pytest.raises(ValueError, match="not in graph"):
        monitors_by_counting(C, dist, counts, 0, 3, edge)
    with pytest.raises(ValueError, match="not in graph"):
        graph_core.bfs_distances(C, 0, skip_edge=edge)


def test_monitors_agrees_with_geodesic_enumeration():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randrange(4, 9)
        G = random_connected_graph(rng, n, extra=rng.randrange(0, n))
        for edge in G.edges():
            for a, b in itertools.combinations(range(n), 2):
                assert monitors(G, a, b, edge) == brute_monitors(G, a, b, edge)


def assert_masks_match_monitors(G):
    masks = list(geodesic_edge_rows(G.adj, range(G.n)))
    for s in range(G.n):
        assert masks[s][s] == 0
        for t in range(G.n):
            if t == s:
                continue
            expected = sum(1 << i for i, edge in enumerate(G.edges())
                           if monitors(G, s, t, edge))
            assert masks[s][t] == expected


def test_geodesic_edge_rows_match_monitors_exhaustive():
    for n in (2, 3, 4, 5):
        for G in all_connected_graphs(n):
            assert_masks_match_monitors(G)


def test_geodesic_edge_rows_match_monitors_random():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randrange(6, 11)
        G = random_connected_graph(rng, n, extra=rng.randrange(0, 2 * n))
        assert_masks_match_monitors(G)


def test_shortest_path_counts_values():
    C = cycle_graph(4)
    dist, counts = shortest_path_counts(C)
    assert counts[0][2] == 2 and counts[0][1] == 1
    assert dist[0][2] == 2
    P = path_graph(5)
    _, counts = shortest_path_counts(P)
    assert all(counts[u][v] == 1 for u in range(5) for v in range(5))
    C6 = cycle_graph(6)
    _, counts = shortest_path_counts(C6)
    assert counts[0][3] == 2


def stacked_diamonds(k: int):
    """Chain of k diamonds; the number of end-to-end geodesics is 2**k."""
    edges = []
    for i in range(k):
        s, a, b, t = f"s{i}", f"a{i}", f"b{i}", f"s{i + 1}"
        edges += [(s, a), (s, b), (a, t), (b, t)]
    return build_graph(edges)


def test_counts_saturate_at_cap():
    G = stacked_diamonds(4)
    _, counts = shortest_path_counts(G, cap=8)
    s0, s4 = G.id_of("s0"), G.id_of("s4")
    assert counts[s0][s4] == 8  # true count is 16


def test_shortest_path_counts_match_sorted_reference():
    """One BFS per source gives the matrices of the former sorted pass,
    saturated counts included."""
    rng = random.Random(70)
    graphs = [random_connected_graph(rng, n, extra=rng.randrange(0, 2 * n))
              for n in (2, 3, 5, 8, 12, 20) for _ in range(10)]
    graphs += [stacked_diamonds(k) for k in range(1, 7)]
    for G in graphs:
        for cap in (SATURATION_CAP, 8):
            got = shortest_path_counts(G, cap=cap)
            assert got == sorted_shortest_path_counts(G, cap=cap)
    G = stacked_diamonds(6)
    s0, s6 = G.id_of("s0"), G.id_of("s6")
    assert shortest_path_counts(G)[1][s0][s6] == 64
    assert shortest_path_counts(G, cap=8)[1][s0][s6] == 8


def test_counting_route_indeterminate_on_saturation():
    G = stacked_diamonds(4)
    dist, counts = shortest_path_counts(G, cap=8)
    s0, s4 = G.id_of("s0"), G.id_of("s4")
    edge = (G.id_of("s0"), G.id_of("a0"))
    verdict = monitors_by_counting(G, dist, counts, s0, s4, edge, cap=8)
    assert verdict is None
    assert monitors(G, s0, s4, edge) is False


def test_counting_route_agrees_with_deletion_route():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randrange(4, 10)
        G = random_connected_graph(rng, n, extra=rng.randrange(0, 2 * n))
        dist, counts = shortest_path_counts(G)
        for edge in G.edges():
            for a, b in itertools.combinations(range(n), 2):
                got = monitors_by_counting(G, dist, counts, a, b, edge)
                assert got is not None
                assert got == monitors(G, a, b, edge)


def test_counting_route_off_path_edge_is_false():
    P = path_graph(4)
    dist, counts = shortest_path_counts(P)
    assert monitors_by_counting(P, dist, counts, 0, 1, (2, 3)) is False


def test_is_meg_set_c4_frozen():
    C = cycle_graph(4)
    assert is_meg_set(C, range(4)).ok
    check = is_meg_set(C, [0, 1, 2])
    assert not check.ok
    assert check.uncovered == (0, 3)
    assert not bool(check)


def test_is_meg_set_p4_endpoints():
    P = path_graph(4)
    assert is_meg_set(P, [0, 3]).ok
    check = is_meg_set(P, [0, 2])
    assert check.uncovered == (2, 3)


def test_is_meg_set_empty_and_tiny():
    P = path_graph(3)
    assert not is_meg_set(P, []).ok
    assert not is_meg_set(P, [1]).ok
    assert is_meg_set(P, [0, 2, 2]).ok  # duplicates collapse
    with pytest.raises(ValueError):
        is_meg_set(P, [0, 5])


def test_is_meg_set_matches_brute():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randrange(3, 8)
        G = random_connected_graph(rng, n, extra=rng.randrange(0, n))
        for _ in range(6):
            size = rng.randrange(0, n + 1)
            members = rng.sample(range(n), size)
            assert is_meg_set(G, members).ok == brute_is_meg(G, members)


def test_whole_vertex_set_always_monitors():
    rng = random.Random(43)
    for _ in range(25):
        n = rng.randrange(2, 10)
        G = random_connected_graph(rng, n, extra=rng.randrange(0, n))
        assert is_meg_set(G, range(n)).ok


@pytest.fixture
def bfs_runs(monkeypatch):
    """Counts BFS runs, base and deletion apart, from ``is_meg_set`` and
    from ``full_scan_is_meg_set`` alike; a call of ``is_meg_set``'s
    stopping deletion BFS counts as a deletion run."""
    runs = Counter()
    real = graph_core.bfs_distances
    real_moves = monitoring._moves_a_later_member

    def spy(G, source, skip_edge=None):
        runs["deletion" if skip_edge is not None else "base"] += 1
        return real(G, source, skip_edge)

    def moves_spy(*args):
        runs["deletion"] += 1
        return real_moves(*args)

    for module in (graph_core, monitoring, graphs_util):
        monkeypatch.setattr(module, "bfs_distances", spy)
    monkeypatch.setattr(monitoring, "_moves_a_later_member", moves_spy)
    return runs


def _assert_matches_full_scan(G, members, runs):
    """Same ``MegSetCheck`` as the full scan, with at most its BFS runs,
    and ``G.adj`` as it was."""
    runs.clear()
    adj = [list(a) for a in G.adj]
    got = is_meg_set(G, members)
    assert [list(a) for a in G.adj] == adj, (G.edges(), members)
    ours = sum(runs.values())
    runs.clear()
    assert got == full_scan_is_meg_set(G, members), (G.edges(), members)
    assert ours <= sum(runs.values()), (G.edges(), members)
    return got


def test_is_meg_set_bfs_runs_on_path4(bfs_runs):
    P = path_graph(4)
    assert is_meg_set(P, range(4)) == MegSetCheck(True, None)
    # no base row for the last member, which no deletion BFS reads
    assert bfs_runs == {"base": 3}
    bfs_runs.clear()
    # a base row from the first member only; each edge is covered by the
    # first deletion BFS, from 0
    assert is_meg_set(P, [0, 3]) == MegSetCheck(True, None)
    assert bfs_runs == {"base": 1, "deletion": 3}


class _CountingAdj(list):
    """Adjacency lists that count how many lists are read."""

    reads = 0

    def __getitem__(self, v):
        self.reads += 1
        return super().__getitem__(v)


def _id_graph(n, edges):
    return graph_core.Graph([str(v) for v in range(n)], edges)


def _moves(G, S, a, edge, adj=None):
    """``_moves_a_later_member`` for member a of the ascending S, on G's
    lists with ``edge`` taken out; ``adj``, if given, is filled with
    those lists and passed in their place."""
    u, v = edge
    adj = [] if adj is None else adj
    adj[:] = G.adj
    adj[u] = [w for w in G.adj[u] if w != v]
    adj[v] = [w for w in G.adj[v] if w != u]
    rank = [-1] * G.n
    for i, x in enumerate(S):
        rank[x] = i
    return monitoring._moves_a_later_member(
        adj, a, graph_core.bfs_distances(G, a), rank, len(S) - 1 - rank[a])


def test_deletion_bfs_is_true_when_it_cuts_a_later_member_off():
    # A tree: every deletion cuts the leaves apart, and no reached
    # distance changes, so only running out of levels says "moved".
    tree = _id_graph(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
    leaves = [3, 4, 5, 6]
    assert all(_moves(tree, leaves, 3, edge) for edge in tree.edges())
    assert not _moves(tree, leaves, 5, (1, 3))
    assert is_meg_set(tree, leaves) == MegSetCheck(True, None)
    # C6 with the pendant path 0-6-7: deleting 6-7 cuts 7 off from 1,
    # while deleting 1-2 leaves d(1, 7) = 3.
    lollipop = _id_graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5),
                             (0, 6), (6, 7)])
    assert _moves(lollipop, [1, 7], 1, (6, 7))
    assert _moves(lollipop, [1, 7], 1, (0, 6))
    assert not _moves(lollipop, [1, 7], 1, (1, 2))
    for S in ([1, 7], [2, 4, 7], [3, 7]):
        assert is_meg_set(lollipop, S) == full_scan_is_meg_set(lollipop, S)


def test_deletion_bfs_stops_once_its_answer_is_known():
    # Vertex 0's later members 1, 2, 3 are all its neighbours, with the
    # path 1-2-3 among them and a 37-vertex tail 0-4-...-40.
    G = _id_graph(41, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (0, 4)]
                  + [(v, v + 1) for v in range(4, 40)])
    S = [0, 1, 2, 3]
    # Far from S: False once 1, 2 and 3 are found, from 0's list alone.
    adj = _CountingAdj()
    assert not _moves(G, S, 0, (20, 21), adj)
    assert adj.reads == 1
    # Deleting 0-2: 1 is found unmoved first, then 2 at distance 2
    # from 1's list, and the search stops there.
    adj = _CountingAdj()
    assert _moves(G, S, 0, (0, 2), adj)
    assert adj.reads == 2
    # Deleting 0-3: 1 and 2 are found unmoved, 3 only from 2's list.
    assert _moves(G, S, 0, (0, 3))
    # Deleting 0-4 cuts off no member and moves none.
    assert not _moves(G, S, 0, (0, 4))


def test_is_meg_set_runs_on_sets_of_size_0_1_2(bfs_runs):
    # No member, or one: no pair, so no BFS at all.
    assert is_meg_set(path_graph(3), []) == MegSetCheck(False, (0, 1))
    assert bfs_runs == {}
    assert is_meg_set(path_graph(3), [1]) == MegSetCheck(False, (0, 1))
    assert bfs_runs == {}
    # Two members: the first member's base row and deletion BFS only, one
    # per edge.
    assert is_meg_set(path_graph(4), [0, 2]) == MegSetCheck(False, (2, 3))
    assert bfs_runs == {"base": 1, "deletion": 3}
    bfs_runs.clear()
    assert is_meg_set(path_graph(4), [1, 3]) == MegSetCheck(False, (0, 1))
    assert bfs_runs == {"base": 1, "deletion": 1}


def test_is_meg_set_checks_edges_with_one_end_in_s():
    # (0, 1) lies inside S; (1, 2) has one end outside and no pair of S
    # monitors it
    assert is_meg_set(path_graph(3), [0, 1]) == MegSetCheck(False, (1, 2))
    assert is_meg_set(cycle_graph(4), [0, 1]) == MegSetCheck(False, (0, 3))


@pytest.mark.parametrize("n", range(2, 7))
def test_is_meg_set_matches_full_scan_every_subset(n, bfs_runs):
    verdicts = Counter()
    for G in connected_graph_classes(n):
        for bits in range(1 << n):
            S = [v for v in range(n) if bits >> v & 1]
            verdicts[_assert_matches_full_scan(G, S, bfs_runs).ok] += 1
    assert verdicts[True] and verdicts[False]


def test_is_meg_set_matches_full_scan_every_class_n7(bfs_runs):
    rng = random.Random(71)
    V = range(7)
    for G in connected_graph_classes(7):
        subsets = [V, mandatory_vertices(G), ()]
        subsets += [[x for x in V if x != v] for v in V]
        subsets += [rng.sample(V, rng.randrange(2, 7)) for _ in range(5)]
        for S in subsets:
            _assert_matches_full_scan(G, S, bfs_runs)


def test_is_meg_set_matches_full_scan_random(bfs_runs):
    rng = random.Random(83)
    for seed in range(500):
        n = rng.randrange(8, 13)
        G = gen_random_connected(n, rng.randrange(n - 1, 3 * n), seed)
        V = range(n)
        drop = rng.randrange(n)
        for S in (V, mandatory_vertices(G), [x for x in V if x != drop],
                  rng.sample(V, rng.randrange(2, n))):
            _assert_matches_full_scan(G, S, bfs_runs)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("n", [20, 30])
@pytest.mark.parametrize("make", [
    lambda n, s: gen_distance_hereditary(n, s),
    lambda n, s: gen_p4_sparse(n, s),
    lambda n, s: gen_bipartite_permutation(n // 2, n - n // 2, s),
    lambda n, s: gen_strongly_chordal(n, s, "interval"),
    lambda n, s: gen_strongly_chordal(n, s, "block"),
    lambda n, s: gen_random_connected(n, 2 * n, s),
], ids=["dh", "p4sparse", "bipperm", "sc-interval", "sc-block", "random"])
def test_is_meg_set_matches_full_scan_on_generators(make, n, seed, bfs_runs):
    # At the benchmark's verify sizes: M, M without its lowest vertex,
    # and the non-cut set, which is always an MEG set.
    G = make(n, seed)
    M = mandatory_vertices(G)
    for S in (M, M[1:]):
        _assert_matches_full_scan(G, S, bfs_runs)
    assert _assert_matches_full_scan(G, bounds(G).non_cut, bfs_runs).ok


def test_mandatory_c4_c5_frozen():
    assert mandatory_vertices(cycle_graph(4)) == (0, 1, 2, 3)
    assert mandatory_vertices(cycle_graph(5)) == ()


def test_mandatory_star_and_k2():
    S = star_graph(3)
    assert mandatory_vertices(S) == (1, 2, 3)
    ok, witness = is_mandatory(S, 1)
    assert ok and witness == 0
    K2 = path_graph(2)
    assert mandatory_vertices(K2) == (0, 1)


def test_mandatory_path_interior_not_mandatory():
    P = path_graph(3)
    assert mandatory_vertices(P) == (0, 2)
    assert is_mandatory(P, 1) == (False, None)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_mandatory_matches_removal_definition_exhaustive(n):
    for G in all_connected_graphs(n):
        assert list(mandatory_vertices(G)) == brute_mandatory(G)


def test_mandatory_matches_removal_definition_random():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randrange(6, 9)
        G = random_connected_graph(rng, n, extra=rng.randrange(0, n))
        assert list(mandatory_vertices(G)) == brute_mandatory(G)


def test_mandatory_matches_removal_definition_every_class():
    """One graph per isomorphism class at n = 6 and 7 (112 and 853); the
    labeled graphs up to n = 5 are covered above."""
    assert [len(connected_graph_classes(n)) for n in (6, 7)] == [112, 853]
    mandatory = 0
    for n in (6, 7):
        for G in connected_graph_classes(n):
            man = mandatory_vertices(G)
            assert list(man) == brute_mandatory(G)
            mandatory += len(man)
    assert mandatory > 1000


def test_is_mandatory_witness_matches_per_x_rule_small():
    for G in itertools.chain(all_connected_graphs(5),
                             all_connected_graphs(6, degree_sorted=True),
                             extended_graphs(7)):
        expected = [per_x_is_mandatory(G, v) for v in range(G.n)]
        assert [is_mandatory(G, v) for v in range(G.n)] == expected
        assert mandatory_vertices(G) == tuple(
            v for v, (ok, _) in enumerate(expected) if ok)


@pytest.mark.parametrize("n", [200, 1000])
@pytest.mark.parametrize("make", [
    lambda n: gen_distance_hereditary(n, 3),
    lambda n: gen_p4_sparse(n, 3),
    lambda n: gen_bipartite_permutation(n // 2, n - n // 2, 3),
    lambda n: gen_strongly_chordal(n, 3, "interval"),
    lambda n: gen_strongly_chordal(n, 3, "block"),
    lambda n: gen_random_connected(n, 2 * n, 3),
    lambda n: spider_graph(n // 2 - 2, "thick", head=4),
], ids=["dh", "p4sparse", "bipperm", "sc-interval", "sc-block", "random",
        "spider-thick"])
def test_mandatory_matches_is_mandatory_on_generators(make, n):
    G = make(n)
    assert G.n == n
    witnesses = [is_mandatory(G, v) for v in range(G.n)]
    assert mandatory_vertices(G) == tuple(
        v for v, (ok, _) in enumerate(witnesses) if ok)
    assert witnesses == [per_x_is_mandatory(G, v) for v in range(G.n)]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("n", [20, 40])
@pytest.mark.parametrize("make", [
    lambda n, s: gen_distance_hereditary(n, s),
    lambda n, s: gen_p4_sparse(n, s),
    lambda n, s: gen_bipartite_permutation(n // 2, n - n // 2, s),
    lambda n, s: gen_strongly_chordal(n, s, "interval"),
    lambda n, s: gen_strongly_chordal(n, s, "block"),
    lambda n, s: gen_random_connected(n, 2 * n, s),
], ids=["dh", "p4sparse", "bipperm", "sc-interval", "sc-block", "random"])
def test_mandatory_matches_removal_definition_on_generators(make, n, seed):
    G = make(n, seed)
    assert G.n == n
    assert mandatory_vertices(G) == tuple(
        v for v in range(G.n) if mandatory_bruteforce(G, v, limit=G.n))


def test_mandatory_disjoint_from_cut_vertices():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randrange(3, 11)
        G = random_connected_graph(rng, n, extra=rng.randrange(0, n))
        man = set(mandatory_vertices(G))
        assert man.isdisjoint(articulation_points(G))


def test_bounds_star():
    b = bounds(star_graph(3))
    assert (b.lower, b.upper) == (3, 3)
    assert b.mandatory == (1, 2, 3)
    assert b.non_cut == (1, 2, 3)


def test_bounds_universal_vertex_graph():
    G = with_universal(path_graph(6))
    b = bounds(G)
    assert b.mandatory == (0, 1, 2, 3, 4, 5)
    assert b.non_cut == tuple(range(7))
    assert b.lower == 6 and b.upper == 7


@st.composite
def seeded_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    extra = draw(st.integers(min_value=0, max_value=n))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    return random_connected_graph(random.Random(seed), n, extra=extra)


@settings(max_examples=60, deadline=None)
@given(seeded_graphs())
def test_bounds_sandwich_property(G):
    b = bounds(G)
    assert 0 <= b.lower <= b.upper <= G.n
    assert set(b.mandatory) <= set(b.non_cut)


@settings(max_examples=40, deadline=None)
@given(seeded_graphs())
def test_mandatory_removal_property(G):
    man = mandatory_vertices(G)
    for v in man:
        rest = [u for u in range(G.n) if u != v]
        assert not is_meg_set(G, rest).ok


def test_saturation_cap_value():
    assert SATURATION_CAP == 2**63 - 1
