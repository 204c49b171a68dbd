"""Acceptance suite: one test function per numbered criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get a single
pass/fail line per criterion. Every check is seeded and deterministic.
"""

import itertools
import random
import time

from megsolve import (
    all_min_meg_sets,
    articulation_points,
    build_graph,
    cut_vertices_via_strong_ordering,
    gen_bipartite_permutation,
    gen_bipartite_permutation_with_ordering,
    gen_distance_hereditary,
    gen_p4_sparse,
    gen_random_connected,
    gen_strongly_chordal,
    is_connected,
    is_meg_set,
    mandatory_vertices,
    min_meg_bruteforce,
    monitors,
    monitors_by_counting,
    shortest_path_counts,
    solve,
    solve_p4_structural,
    spider_graph,
)


def _instances_for(cls: str, seed: int):
    # Sizes stay within the oracle range (n <= 10) for criterion 1.
    if cls == "distance_hereditary":
        return gen_distance_hereditary(2 + seed % 9, seed=seed)
    if cls == "p4_sparse":
        return gen_p4_sparse(2 + seed % 9, seed=seed)
    if cls == "bipartite_permutation":
        return gen_bipartite_permutation(1 + seed % 5, 1 + (seed * 3) % 5,
                                         seed=seed)
    return gen_strongly_chordal(2 + seed % 9, seed=seed)


def test_criterion_1_solver_matches_oracle_per_class():
    started = time.perf_counter()
    checked = 0
    classes = ("distance_hereditary", "p4_sparse", "bipartite_permutation",
               "strongly_chordal")
    for cls in classes:
        for seed in range(200):
            G = _instances_for(cls, seed)
            assert 2 <= G.n <= 10
            got = solve(G).meg
            want = min_meg_bruteforce(G, trust_bounds=False).meg
            assert got == want, (cls, seed, got, want)
            checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 800
    assert elapsed < 300.0
    print(f"criterion 1: 800 instances, solver == oracle, {elapsed:.1f}s")


def _man_equals_non_cut(G) -> None:
    man = set(mandatory_vertices(G))
    non_cut = set(range(G.n)) - set(articulation_points(G))
    assert man == non_cut


def test_criterion_2_type2_identity_up_to_n200():
    started = time.perf_counter()
    for i in range(100):
        _man_equals_non_cut(gen_distance_hereditary(2 + 2 * i, seed=1000 + i))
    for i in range(100):
        _man_equals_non_cut(gen_bipartite_permutation(1 + i, 1 + i,
                                                      seed=2000 + i))
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    print(f"criterion 2: 200 instances up to n=200, {elapsed:.1f}s")


def test_criterion_3_spider_closed_forms():
    for legs in range(2, 9):
        for head in range(5):
            G = spider_graph(legs, "thin", head=head)
            assert solve_p4_structural(G).meg == legs + head
    for legs in range(3, 9):
        for head in range(5):
            G = spider_graph(legs, "thick", head=head)
            res = solve_p4_structural(G)
            assert res.meg == 2 * legs + head == G.n
    for head in range(5):
        thick = solve_p4_structural(spider_graph(2, "thick", head=head)).meg
        thin = solve_p4_structural(spider_graph(2, "thin", head=head)).meg
        assert thick == thin == 2 + head
    print("criterion 3: spider closed forms hold for legs<=8, head<=4")


def _path_plus_universal(k: int):
    edges = [(f"p{i}", f"p{i + 1}") for i in range(k - 1)]
    edges += [("u", f"p{i}") for i in range(k)]
    return build_graph(edges)


def test_criterion_4_path_plus_universal_vertex():
    for k in range(2, 10):
        G = _path_plus_universal(k)
        want = k + 1 if k <= 5 else k
        res = solve_p4_structural(G)
        assert res.meg == want, (k, res.meg, want)
        assert min_meg_bruteforce(G).meg == want
    assert solve_p4_structural(_path_plus_universal(6)).meg == 6
    print("criterion 4: path-join values match the oracle for k in [2,9]")


def test_criterion_5_mandatory_matches_removal_definition():
    rng = random.Random(5150)
    for _ in range(100):
        n = rng.randint(2, 9)
        spare = n * (n - 1) // 2 - (n - 1)
        m = n - 1 + rng.randint(0, spare)
        G = gen_random_connected(n, m, seed=rng.randrange(1 << 30))
        man = set(mandatory_vertices(G))
        removal = {v for v in range(G.n)
                   if not is_meg_set(G, [x for x in range(G.n) if x != v])}
        assert man == removal
    print("criterion 5: mandatory set equals the removal definition, 100 graphs")


def test_criterion_6_ordering_cut_test_on_interim_vertices():
    for i in range(100):
        p = 1 + i % 12
        q = 1 + (i * 5) % 12
        G, so = gen_bipartite_permutation_with_ordering(p, q, seed=600 + i)
        via = set(cut_vertices_via_strong_ordering(G, so))
        interim = set(so.x_order[1:-1]) | set(so.y_order[1:-1])
        assert via == set(articulation_points(G)) & interim
    print("criterion 6: ordering-based cut test agrees on interim vertices")


def _minimum_sets_respect_sandwich(G) -> None:
    man = set(mandatory_vertices(G))
    cut = set(articulation_points(G))
    hits = all_min_meg_sets(G)
    assert hits
    for S in hits:
        members = set(S)
        assert man <= members
        assert not (cut & members)


def test_criterion_7_all_minimum_sets_contain_man_avoid_cut():
    checked = 0
    for n in range(2, 7):
        pairs = list(itertools.combinations(range(n), 2))
        labels = [str(v) for v in range(n)]
        for bits in range(1 << len(pairs)):
            if bin(bits).count("1") < n - 1:
                continue
            edges = [(str(a), str(b))
                     for i, (a, b) in enumerate(pairs) if bits >> i & 1]
            G = build_graph(edges, vertices=labels)
            if not is_connected(G):
                continue
            _minimum_sets_respect_sandwich(G)
            checked += 1
    rng = random.Random(707)
    for _ in range(500):
        m = 6 + rng.randint(0, 15)
        G = gen_random_connected(7, m, seed=rng.randrange(1 << 30))
        _minimum_sets_respect_sandwich(G)
        checked += 1
    print(f"criterion 7: sandwich holds on {checked} graphs "
          "(exhaustive n<=6 plus 500 random n=7)")


def _stacked_diamonds(k: int):
    edges = []
    for i in range(k):
        s, a, b, t = f"s{i}", f"a{i}", f"b{i}", f"s{i + 1}"
        edges += [(s, a), (s, b), (a, t), (b, t)]
    return build_graph(edges)


def test_criterion_8_predicate_duality_and_saturation():
    rng = random.Random(808)
    agreed = 0
    for _ in range(200):
        n = rng.randint(3, 10)
        spare = n * (n - 1) // 2 - (n - 1)
        m = n - 1 + rng.randint(0, spare)
        G = gen_random_connected(n, m, seed=rng.randrange(1 << 30))
        dist, counts = shortest_path_counts(G)
        edges = G.edges()
        for _ in range(50):
            a = rng.randrange(G.n)
            b = rng.randrange(G.n)
            while b == a:
                b = rng.randrange(G.n)
            e = edges[rng.randrange(len(edges))]
            got = monitors_by_counting(G, dist, counts, a, b, e)
            assert got is not None
            assert got == monitors(G, a, b, e)
            agreed += 1
    assert agreed == 10000

    # 64 chained diamonds give 2**64 end-to-end geodesics: the counting
    # route must report indeterminate while the deletion route still works.
    G = _stacked_diamonds(64)
    dist, counts = shortest_path_counts(G)
    a = G.labels.index("s0")
    b = G.labels.index("s64")
    e = (a, G.labels.index("a0"))
    assert monitors_by_counting(G, dist, counts, a, b, e) is None
    assert monitors(G, a, b, e) is False
    print("criterion 8: 10000 queries agree; saturation falls back cleanly")


def test_criterion_9_trees_yield_exactly_the_leaves():
    rng = random.Random(909)
    oracle_checked = 0
    for i in range(50):
        n = 2 + (i * 48) // 49
        edges = [(f"t{j}", f"t{rng.randrange(j)}") for j in range(1, n)]
        G = build_graph(edges, vertices=[f"t{j}" for j in range(n)])
        res = solve(G, method="cut")
        leaves = {v for v in range(G.n) if G.degree(v) == 1}
        assert set(res.witness) == leaves
        assert res.meg == len(leaves)
        if G.n <= 10:
            assert min_meg_bruteforce(G).meg == len(leaves)
            oracle_checked += 1
    assert oracle_checked >= 5
    print(f"criterion 9: 50 trees return leaf sets; "
          f"{oracle_checked} confirmed minimum by the oracle")
