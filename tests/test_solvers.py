import random
import time

import pytest

import megsolve.solvers
from megsolve import monitoring, oracle
from megsolve import (Graph, LimitExceededError, MethodMismatchError,
                      NotConnectedError, NotP4SparseError, bounds,
                      build_graph, co_components,
                      cut_vertices_via_strong_ordering,
                      gen_bipartite_permutation_with_ordering,
                      gen_random_connected, is_meg_set,
                      mandatory_vertices, min_meg_bruteforce,
                      recognize_bipartite_permutation,
                      recognize_distance_hereditary, recognize_p4_sparse,
                      recognize_strongly_chordal, solve,
                      solve_by_cut_decomposition, solve_p4_structural,
                      spider_graph)
from megsolve.graph_core import articulation_points, non_cut_vertices
from megsolve.recognizers import spider_by_degrees

from graphs_util import (all_connected_graphs, complete_graph,
                         connected_graph_classes, cycle_graph, path_graph,
                         random_connected_graph, rescan_min_meg, star_graph,
                         with_universal)


def domino():
    """2x3 ladder: bipartite permutation but not distance-hereditary."""
    return build_graph([("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"),
                        ("e", "f"), ("f", "a"), ("b", "e")])


def three_sun():
    return spider_graph(3, "thick")


# ---------------------------------------------------------------------------
# closed-form routes


def test_cut_based_on_tree():
    res = solve(path_graph(5), method="cut")
    assert res.class_used == "distance_hereditary"
    assert res.method == "cut_based"
    assert res.meg == 2 and res.witness == (0, 4)
    assert res.minimality_guaranteed


def test_cut_based_on_bp_not_dh():
    G = domino()
    assert recognize_distance_hereditary(G) is None
    res = solve(G, method="cut")
    assert res.class_used == "bipartite_permutation"
    assert res.meg == 6
    assert res.meg == min_meg_bruteforce(G).meg


def test_cut_based_mismatch():
    with pytest.raises(MethodMismatchError) as err:
        solve(cycle_graph(5), method="cut")
    assert "distance-hereditary" in str(err.value)
    assert "bipartite permutation" in str(err.value)


def test_mandatory_based_on_strongly_chordal():
    res = solve(with_universal(path_graph(6)), method="mandatory")
    assert res.class_used == "strongly_chordal"
    assert res.method == "mandatory_based"
    assert res.meg == 6
    res = solve(complete_graph(4), method="mandatory")
    assert res.meg == 4


def test_mandatory_based_on_p4_sparse_not_sc():
    G = cycle_graph(4)
    assert recognize_strongly_chordal(G) is None
    res = solve(G, method="mandatory")
    assert res.class_used == "p4_sparse"
    assert res.meg == 4 and res.witness == (0, 1, 2, 3)


def test_mandatory_based_mismatch():
    with pytest.raises(MethodMismatchError):
        solve(cycle_graph(5), method="mandatory")


@pytest.mark.parametrize("G, bp", [(cycle_graph(5), "no"),
                                   (cycle_graph(12), "no")])
def test_mismatch_messages_list_each_verdict(G, bp):
    with pytest.raises(MethodMismatchError) as err:
        solve(G, method="cut")
    assert str(err.value) == (
        "cut-based solving needs a distance-hereditary or bipartite "
        "permutation graph (distance-hereditary: no, bipartite "
        f"permutation: {bp})")
    with pytest.raises(MethodMismatchError) as err:
        solve(G, method="mandatory")
    assert str(err.value) == (
        "mandatory-based solving needs a strongly chordal or P4-sparse "
        "graph (strongly chordal: no, P4-sparse: no)")


def test_forced_methods_follow_the_auto_route():
    """Forcing the closed form auto mode picked gives the same answer;
    where auto mode picks neither, both forced methods refuse."""
    forced = {"cut_based": "cut", "mandatory_based": "mandatory"}
    for n in range(2, 8):
        for G in connected_graph_classes(n):
            auto = solve(G)
            if auto.method in forced:
                res = solve(G, method=forced[auto.method])
                assert (res.class_used, res.method, res.meg, res.witness) \
                    == (auto.class_used, auto.method, auto.meg, auto.witness)
                continue
            for method in forced.values():
                with pytest.raises(MethodMismatchError):
                    solve(G, method=method)


def test_auto_mode_calls_the_route_functions_by_name(monkeypatch):
    """Routes read recognizers and closed forms from the module namespace
    on every call, so rebinding a name there (as a tracer does) is seen."""
    calls = []
    for name in ("recognize_distance_hereditary",
                 "recognize_bipartite_permutation",
                 "recognize_strongly_chordal", "recognize_p4_sparse",
                 "mandatory_vertices"):
        original = getattr(megsolve.solvers, name)

        def spy(G, name=name, original=original):
            calls.append(name)
            return original(G)

        monkeypatch.setattr(megsolve.solvers, name, spy)
    assert solve(three_sun()).class_used == "p4_sparse"
    assert calls == ["recognize_distance_hereditary",
                     "recognize_bipartite_permutation",
                     "recognize_strongly_chordal", "recognize_p4_sparse",
                     "mandatory_vertices"]
    calls.clear()
    assert solve(path_graph(4)).class_used == "distance_hereditary"
    assert calls == ["recognize_distance_hereditary", "mandatory_vertices"]


def test_closed_forms_match_oracle_exhaustively():
    """Whenever a closed-form route applies, it must equal the oracle."""
    for n in (2, 3, 4, 5):
        for G in all_connected_graphs(n):
            expected = min_meg_bruteforce(G).meg
            if (recognize_distance_hereditary(G) is not None
                    or recognize_bipartite_permutation(G).verdict == "yes"):
                assert solve(G, method="cut").meg == expected
            if (recognize_strongly_chordal(G) is not None
                    or recognize_p4_sparse(G)):
                assert solve(G, method="mandatory").meg == expected


def test_closed_forms_match_oracle_random():
    rng = random.Random(2)
    for _ in range(60):
        n = rng.randrange(6, 9)
        G = random_connected_graph(rng, n, extra=rng.randrange(0, n))
        expected = None
        if (recognize_distance_hereditary(G) is not None
                or recognize_bipartite_permutation(G).verdict == "yes"):
            expected = min_meg_bruteforce(G).meg
            assert solve(G, method="cut").meg == expected
        if (recognize_strongly_chordal(G) is not None
                or recognize_p4_sparse(G)):
            if expected is None:
                expected = min_meg_bruteforce(G).meg
            assert solve(G, method="mandatory").meg == expected


# ---------------------------------------------------------------------------
# structural route


def test_structural_thin_spiders():
    for legs in (2, 3, 5):
        for head in (0, 2):
            G = spider_graph(legs, "thin", head=head)
            res = solve_p4_structural(G)
            assert res.meg == legs + head
            labels = set(G.labels_of(res.witness))
            assert labels == {f"s{i + 1}" for i in range(legs)} | \
                {f"r{i + 1}" for i in range(head)}


def test_structural_thick_spiders():
    for legs in (3, 4):
        for head in (0, 1):
            G = spider_graph(legs, "thick", head=head)
            res = solve_p4_structural(G)
            assert res.meg == G.n
            assert res.witness == tuple(range(G.n))


def test_structural_two_legged_thick_collapses_to_thin():
    G = spider_graph(2, "thick", head=1)
    res = solve_p4_structural(G)
    assert res.meg == 3  # both legs plus the head vertex


def test_structural_join_cases():
    # two nontrivial sides: complement of C4 is 2K2
    res = solve_p4_structural(cycle_graph(4))
    assert res.meg == 4
    # at least two universal vertices
    res = solve_p4_structural(complete_graph(4))
    assert res.meg == 4
    # one universal vertex over a disconnected core: a star
    res = solve_p4_structural(star_graph(3))
    assert res.meg == 3
    assert res.witness == (1, 2, 3)


def test_structural_universal_over_path():
    # connected core: the answer depends on the core's eccentricities
    for k, expected in ((2, 3), (3, 4), (4, 5), (5, 6), (6, 6), (7, 7)):
        G = with_universal(path_graph(k))
        res = solve_p4_structural(G)
        assert res.meg == expected, f"P{k} plus universal vertex"
        if G.n <= 9:
            assert res.meg == min_meg_bruteforce(G).meg


def test_structural_class_labels():
    assert solve_p4_structural(spider_graph(3, "thin")).class_used == "p4_sparse"
    assert solve_p4_structural(with_universal(path_graph(6))).class_used == "p4_shape"


def test_structural_rejects_non_p4_shapes():
    with pytest.raises(NotP4SparseError):
        solve_p4_structural(cycle_graph(5))
    with pytest.raises(NotP4SparseError):
        solve_p4_structural(cycle_graph(6))
    with pytest.raises(NotP4SparseError):
        solve_p4_structural(path_graph(5))


def test_structural_matches_oracle_on_p4_sparse_instances():
    from megsolve import gen_p4_sparse

    for seed in range(25):
        G = gen_p4_sparse(8, seed)
        res = solve_p4_structural(G)
        assert res.meg == min_meg_bruteforce(G).meg


def test_every_exact_witness_is_the_mandatory_set_exhaustively():
    """On every connected graph up to seven vertices: the DH and BP
    non-cut vertices are the mandatory ones, and the structural solver
    answers with the mandatory set, minimum by the oracle, on exactly the
    join and spider shapes."""
    accepted = 0
    for n in range(2, 8):
        for G in connected_graph_classes(n):
            man = mandatory_vertices(G)
            if (recognize_distance_hereditary(G) is not None
                    or recognize_bipartite_permutation(G).verdict == "yes"):
                assert non_cut_vertices(G) == man
            shaped = (len(co_components(G)) >= 2
                      or spider_by_degrees(G) is not None)
            try:
                res = solve_p4_structural(G)
            except NotP4SparseError as err:
                assert not shaped
                assert str(err) == ("connected complement but no spider "
                                    "partition; graph is not P4-sparse")
                continue
            assert shaped
            assert res.witness == man
            assert res.meg == min_meg_bruteforce(G).meg
            accepted += 1
    assert accepted > 100


def _random_labelled(rng, prefix: str, k: int) -> list[tuple[str, str]]:
    """Edges of a random graph on vertices prefix0..prefix{k-1}, which
    need not be connected."""
    p = rng.random()
    return [(f"{prefix}{i}", f"{prefix}{j}") for i in range(k)
            for j in range(i + 1, k) if rng.random() < p]


def _join(rng, sizes):
    sides = [[f"{chr(97 + t)}{i}" for i in range(k)]
             for t, k in enumerate(sizes)]
    edges = [e for t, k in enumerate(sizes)
             for e in _random_labelled(rng, chr(97 + t), k)]
    edges += [(u, v) for t, side in enumerate(sides) for other in sides[t + 1:]
              for u in side for v in other]
    return build_graph(edges, vertices=[v for side in sides for v in side])


def test_structural_matches_oracle_on_random_shapes():
    """Joins, a universal vertex over any core, and spiders with any head,
    P4-sparse or not: the structural witness is the mandatory set and as
    small as the oracle's."""
    rng = random.Random(12)
    shapes = []
    for _ in range(200):
        shapes.append(_join(rng, [rng.randrange(1, 5)
                                  for _ in range(rng.randrange(2, 4))]))
        k = rng.randrange(1, 12)
        core = (random_connected_graph(rng, k, extra=rng.randrange(0, k))
                if rng.random() < 0.5 else
                build_graph(_random_labelled(rng, "v", k),
                            vertices=[f"v{i}" for i in range(k)]))
        shapes.append(with_universal(core))
        legs = rng.randrange(2, 5)
        head = rng.randrange(0, 12 - 2 * legs + 1)
        head_edges = tuple((i, j) for i in range(head)
                           for j in range(i + 1, head) if rng.random() < 0.4)
        shapes.append(spider_graph(legs, rng.choice(("thin", "thick")),
                                   head=head, head_edges=head_edges))
    labels = set()
    for G in shapes:
        assert G.n <= 12
        res = solve_p4_structural(G)
        assert res.witness == mandatory_vertices(G)
        assert res.meg == min_meg_bruteforce(G).meg
        labels.add(res.class_used)
    assert labels == {"p4_sparse", "p4_shape"}


# ---------------------------------------------------------------------------
# strong-ordering cut detection


def test_cut_via_ordering_path():
    G = path_graph(5)
    so = recognize_bipartite_permutation(G).ordering
    assert cut_vertices_via_strong_ordering(G, so) == (2,)
    G7 = path_graph(7)
    so7 = recognize_bipartite_permutation(G7).ordering
    assert cut_vertices_via_strong_ordering(G7, so7) == (2, 3, 4)


def test_cut_via_ordering_ladder_has_none():
    G = domino()
    so = recognize_bipartite_permutation(G).ordering
    assert cut_vertices_via_strong_ordering(G, so) == ()


def test_cut_via_ordering_agrees_with_tarjan():
    for seed in range(30):
        p = 2 + seed % 5
        q = 2 + (seed * 7) % 6
        G, so = gen_bipartite_permutation_with_ordering(p, q, seed)
        interim = set()
        for side in (so.x_order, so.y_order):
            interim.update(side[1:-1])
        expected = tuple(sorted(set(articulation_points(G)) & interim))
        assert cut_vertices_via_strong_ordering(G, so) == expected


def test_cut_via_ordering_rejects_bad_ordering():
    from megsolve import strong_ordering_from_orders

    G = path_graph(5)
    bad = strong_ordering_from_orders(G, (4, 2, 0), (1, 3))
    with pytest.raises(ValueError):
        cut_vertices_via_strong_ordering(G, bad)


# ---------------------------------------------------------------------------
# decomposition


def test_decomposition_path_returns_endpoints():
    assert solve_by_cut_decomposition(path_graph(5)) == (0, 4)


def test_decomposition_bowtie():
    G = build_graph([("a", "b"), ("b", "c"), ("a", "c"),
                     ("c", "d"), ("c", "e"), ("d", "e")])
    witness = solve_by_cut_decomposition(G)
    assert witness == tuple(G.id_of(x) for x in ("a", "b", "d", "e"))
    assert is_meg_set(G, witness).ok


def test_decomposition_without_cut_vertices_delegates():
    assert solve_by_cut_decomposition(cycle_graph(5)) == (0, 1, 3)


def test_decomposition_yields_valid_meg_sets():
    rng = random.Random(77)
    checked = 0
    while checked < 25:
        n = rng.randrange(5, 11)
        G = random_connected_graph(rng, n, extra=rng.randrange(0, 3))
        if not articulation_points(G):
            continue
        witness = solve_by_cut_decomposition(G)
        assert is_meg_set(G, witness).ok
        assert set(witness).isdisjoint(articulation_points(G))
        assert len(witness) >= min_meg_bruteforce(G).meg
        checked += 1


# Solving each block of this graph alone and dropping the cut vertices
# gives {1, 3, 5, 6}; meg is 3.
_SEVEN = Graph([str(v) for v in range(7)],
               [(0, 1), (0, 2), (0, 3), (1, 4), (2, 6), (4, 5), (4, 6)])


def test_decomposition_is_minimal_on_the_seven_vertex_graph():
    res = solve(_SEVEN, method="decomposition")
    assert (res.class_used, res.method, res.meg, res.witness,
            res.minimality_guaranteed) == ("none", "decomposition", 3,
                                           (2, 3, 5), True)
    assert solve_by_cut_decomposition(_SEVEN) == (2, 3, 5)


def _assert_block_search_matches_oracle(G, limit=None):
    """The block search's witness is the raw oracle's, the first minimum
    MEG set in combinations order, and the trusted oracle reports it with
    the rescan's count of the whole-pool walk; every method that runs it
    agrees."""
    raw = min_meg_bruteforce(G, trust_bounds=False, limit=limit)
    witness = solve_by_cut_decomposition(G, oracle_limit=limit)
    assert witness == raw.witness
    trusted = min_meg_bruteforce(G, limit=limit)
    assert (trusted.meg, trusted.witness, trusted.explored,
            trusted.trusted_bounds) == rescan_min_meg(G)
    for method in ("oracle", "decomposition"):
        res = solve(G, method=method, oracle_limit=limit)
        assert (res.meg, res.witness, res.minimality_guaranteed) == (
            raw.meg, witness, True)


def test_block_search_matches_oracle_exhaustively():
    for n in range(2, 8):
        for G in connected_graph_classes(n):
            _assert_block_search_matches_oracle(G)


def test_block_search_matches_oracle_random():
    rng = random.Random(23)
    for seed in range(400):
        n = rng.randrange(6, 17)
        m = rng.randrange(n - 1, 2 * n + 1)
        _assert_block_search_matches_oracle(gen_random_connected(n, m, seed),
                                            limit=n)


def test_block_pools_are_checked_before_any_search(monkeypatch):
    # C13 has one block, pool 13. Two C7s glued at a vertex have a pool
    # of 6 in each block, 12 in all, so a limit of 6 still answers them.
    searched = []
    search = oracle._search
    monkeypatch.setattr(oracle, "_search",
                        lambda *a: searched.append(len(a[0])) or search(*a))
    with pytest.raises(LimitExceededError,
                       match="size 13 exceeds limit 12$"):
        solve_by_cut_decomposition(cycle_graph(13))
    for method in ("oracle", "decomposition"):
        with pytest.raises(LimitExceededError):
            solve(cycle_graph(13), method=method)
    assert searched == []
    glued = build_graph([(f"a{i}", f"a{(i + 1) % 7}") for i in range(7)]
                        + [(f"b{i}", f"b{i + 1}") for i in range(1, 6)]
                        + [("a0", "b1"), ("b6", "a0")])
    res = solve(glued, oracle_limit=6)
    assert (res.method, res.meg) == ("oracle", 4)
    assert searched == [7, 7]
    assert min_meg_bruteforce(glued, trust_bounds=False, limit=13).meg == 4


# ---------------------------------------------------------------------------
# dispatcher


def test_solve_auto_prefers_dh():
    res = solve(cycle_graph(4))
    assert res.class_used == "distance_hereditary"
    assert res.method == "cut_based"
    assert res.meg == 4


def test_solve_auto_bp_second():
    res = solve(domino())
    assert res.class_used == "bipartite_permutation"
    assert res.meg == 6


def test_solve_auto_sc_third():
    G = three_sun()
    res = solve(G)
    assert res.class_used == "p4_sparse"
    assert res.method == "mandatory_based"
    assert res.meg == 6
    assert res.meg == min_meg_bruteforce(G).meg


def test_solve_auto_oracle_fallback():
    res = solve(cycle_graph(5))
    assert (res.class_used, res.method) == ("none", "oracle")
    assert res.meg == 3
    assert res.minimality_guaranteed


def test_solve_auto_bounds_only_when_too_big():
    res = solve(cycle_graph(13))
    assert (res.class_used, res.method) == ("none", "none")
    assert res.meg is None and res.witness is None
    assert not res.minimality_guaranteed
    assert res.bounds is not None
    assert res.bounds.lower == 0 and res.bounds.upper == 13


def test_solve_oracle_limit_override():
    res = solve(cycle_graph(13), oracle_limit=13)
    assert res.method == "oracle"
    assert res.meg == 3


def test_auto_oracle_past_the_vertex_limit_matches_raw_oracle():
    # The limit bounds the pool, the non-cut vertices outside M, not n. At
    # n 13-16 auto mode answers 157 sparse random graphs by the trusted
    # oracle, and the raw oracle over every vertex subset agrees on each.
    decided = 0
    for n in range(13, 17):
        for seed in range(1, 41):
            G = gen_random_connected(n, n + n // 4, seed)
            res = solve(G)
            if res.method != "oracle":
                continue
            decided += 1
            b = bounds(G)
            assert b.upper - b.lower <= 12 < G.n
            assert res.minimality_guaranteed
            assert res.meg == min_meg_bruteforce(G, trust_bounds=False,
                                                 limit=n).meg
            assert set(b.mandatory) <= set(res.witness)
            assert set(res.witness).isdisjoint(articulation_points(G))
            assert is_meg_set(G, res.witness).ok
    assert decided == 157


# Auto mode on gen_random_connected(n, m, seed), seeds 1-20: how many of
# the 20 it decides. None of these graphs is in a recognized class, so each
# is decided by the trusted oracle exactly when its pool fits the limit.
_POOL_REACH = {(30, 36): 14, (60, 66): 12, (60, 72): 1, (60, 78): 0,
               (200, 220): 0}


@pytest.mark.parametrize("n, m", sorted(_POOL_REACH))
def test_auto_mode_reach_by_pool_size(n, m):
    decided = 0
    for seed in range(1, 21):
        G = gen_random_connected(n, m, seed)
        res = solve(G)
        b = bounds(G)
        if res.method == "oracle":
            decided += 1
            assert b.upper - b.lower <= 12 and b.lower <= res.meg <= b.upper
        else:
            assert res.method == "none" and res.bounds == b
            assert b.upper - b.lower > 12
    assert decided == _POOL_REACH[n, m]


def _c5_with_tail(k):
    """C5 with a k-vertex path hanging off vertex 4. It holds a hole, an
    odd cycle and a P4 with a fifth vertex, so no route recognizes it;
    M is the tail's end and the pool is vertices 0-3."""
    return build_graph([(i, (i + 1) % 5) for i in range(5)]
                       + [(4 + i, 5 + i) for i in range(k)])


def test_auto_oracle_cost_follows_the_pool_not_n(monkeypatch):
    # The block search runs one BFS per base and pool vertex of each block
    # with a nonempty pool, on that block alone: here the five vertices of
    # the C5 block, with cut vertex 4 as base. The tail's bridges have
    # empty pools and cost no BFS, so a 2000-vertex tail adds none.
    sources = []
    rows = oracle.geodesic_edge_rows
    monkeypatch.setattr(oracle, "geodesic_edge_rows",
                        lambda adj, s: sources.append((len(adj), tuple(s)))
                        or rows(adj, s))
    short = _c5_with_tail(7)
    assert min_meg_bruteforce(short, trust_bounds=False).meg == 3
    res = solve(short)
    assert (res.method, res.meg, res.witness) == ("oracle", 3, (0, 2, 11))
    G = _c5_with_tail(2000)
    start = time.perf_counter()
    res = solve(G)
    assert time.perf_counter() - start < 5
    assert (res.method, res.meg, res.witness) == ("oracle", 3, (0, 2, 2004))
    assert sources == [(12, tuple(range(12))), (5, (4, 0, 1, 2, 3)),
                       (5, (4, 0, 1, 2, 3))]


def _c5_recursive_tree(n, seed):
    """A random recursive tree grown on a C5 core: vertex v >= 5 hangs
    off a uniformly random earlier vertex. About half the vertices are
    leaves, so M is large, and the pool is at most the core's five."""
    rng = random.Random(seed)
    return build_graph([(i, (i + 1) % 5) for i in range(5)]
                       + [(rng.randrange(v), v) for v in range(5, n)])


def test_auto_oracle_cost_on_a_large_mandatory_set():
    # A whole-graph search with M as its base runs one BFS per mandatory
    # vertex; the block search runs none outside the core, since every
    # bridge's pool is empty. Both give the same witness.
    G = _c5_recursive_tree(1000, 1)
    res = solve(G)
    assert res.method == "oracle"
    man = mandatory_vertices(G)
    assert len(man) > 400
    pool = tuple(sorted(set(non_cut_vertices(G)).difference(man)))
    hit = next(oracle._search(G.adj, man, pool))
    whole = tuple(sorted(man + tuple(pool[p] for p in hit)))
    assert res.witness == whole == min_meg_bruteforce(G).witness
    G = _c5_recursive_tree(5000, 1)
    start = time.perf_counter()
    res = solve(G)
    assert time.perf_counter() - start < 2
    assert res.method == "oracle" and res.minimality_guaranteed
    man = mandatory_vertices(G)
    assert set(man) <= set(res.witness) and res.meg <= len(man) + 5
    assert set(res.witness).isdisjoint(articulation_points(G))


def test_auto_oracle_fallback_scans_the_mandatory_vertices_once(monkeypatch):
    # Auto mode's bounds and the trusted oracle it falls back to share M,
    # cached on the graph: one witness scan per vertex per solve, not two.
    calls = []
    witness = monitoring._mandatory_witness
    monkeypatch.setattr(monitoring, "_mandatory_witness",
                        lambda *a: calls.append(a[2]) or witness(*a))
    G = gen_random_connected(30, 36, 1)
    res = solve(G)
    assert (res.method, res.meg) == ("oracle", 16)
    assert sorted(calls) == list(range(G.n))
    assert mandatory_vertices(G) == bounds(G).mandatory
    assert len(calls) == G.n


def test_solve_forced_methods():
    assert solve(path_graph(4), method="cut").method == "cut_based"
    assert solve(cycle_graph(4), method="mandatory").method == "mandatory_based"
    assert solve(spider_graph(3, "thin"), method="structural").meg == 3
    assert solve(cycle_graph(5), method="oracle").meg == 3
    res = solve(path_graph(5), method="decomposition")
    assert res.method == "decomposition"
    assert res.meg == 2
    assert res.minimality_guaranteed


def test_solve_forced_method_mismatches():
    with pytest.raises(MethodMismatchError):
        solve(cycle_graph(5), method="cut")
    with pytest.raises(MethodMismatchError):
        solve(cycle_graph(5), method="mandatory")
    with pytest.raises(NotP4SparseError):
        solve(cycle_graph(5), method="structural")
    with pytest.raises(ValueError):
        solve(path_graph(3), method="bogus")


def test_solve_rejects_bad_inputs():
    with pytest.raises(NotConnectedError):
        solve(build_graph([("a", "b"), ("c", "d")]))
    with pytest.raises(NotConnectedError):
        solve(build_graph([], vertices=["a"]))


def test_solve_auto_agrees_with_oracle_random():
    rng = random.Random(6)
    for _ in range(40):
        n = rng.randrange(2, 10)
        G = random_connected_graph(rng, n, extra=rng.randrange(0, n))
        res = solve(G)
        assert res.meg == min_meg_bruteforce(G).meg
        assert res.minimality_guaranteed
        assert is_meg_set(G, res.witness).ok


def test_witnesses_respect_sandwich():
    rng = random.Random(15)
    for _ in range(30):
        n = rng.randrange(2, 10)
        G = random_connected_graph(rng, n, extra=rng.randrange(0, n))
        res = solve(G)
        man = set(mandatory_vertices(G))
        assert man <= set(res.witness)
        assert set(res.witness).isdisjoint(articulation_points(G))
