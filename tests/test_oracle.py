import itertools
import random
import time

import pytest

from megsolve import (Graph, LimitExceededError, all_min_meg_sets, bounds,
                      gen_random_connected, gen_strongly_chordal,
                      is_mandatory, is_meg_set, mandatory_bruteforce,
                      mandatory_vertices, min_meg_bruteforce)
from megsolve import build_graph, geodesic_edge_masks, oracle
from megsolve.graph_core import (articulation_points, blocks,
                                 induced_subgraph, vertex_set)
from megsolve.monitoring import geodesic_edge_rows
from megsolve.oracle import _covering_subsets, _pack, _rank

from battery import flower
from graphs_util import (all_connected_graphs, brute_all_min_meg,
                         brute_min_meg, complete_graph,
                         connected_graph_classes, cycle_graph, path_graph,
                         random_connected_graph, rescan_all_min_meg_sets,
                         rescan_min_meg, star_graph)


def test_frozen_small_values():
    assert min_meg_bruteforce(cycle_graph(4)).meg == 4
    assert min_meg_bruteforce(cycle_graph(5)).meg == 3
    assert min_meg_bruteforce(path_graph(4)).meg == 2
    assert min_meg_bruteforce(star_graph(3)).meg == 3


def test_frozen_witnesses_and_exploration():
    res = min_meg_bruteforce(cycle_graph(5), trust_bounds=False)
    assert (res.meg, res.witness, res.explored) == (3, (0, 1, 3), 12)
    assert res.trusted_bounds is False
    res = min_meg_bruteforce(cycle_graph(5), trust_bounds=True)
    assert (res.meg, res.witness, res.explored) == (3, (0, 1, 3), 18)
    assert res.trusted_bounds is True
    res = min_meg_bruteforce(star_graph(3))
    assert res.witness == (1, 2, 3)
    assert res.explored == 1  # mandatory leaves already cover everything


def test_complete_graphs_need_every_vertex():
    for n in range(2, 6):
        assert min_meg_bruteforce(complete_graph(n)).meg == n


def test_path_graphs_need_only_endpoints():
    for n in range(2, 8):
        res = min_meg_bruteforce(path_graph(n))
        assert res.meg == 2 and res.witness == (0, n - 1)


def test_witness_is_a_meg_set_of_stated_size():
    rng = random.Random(71)
    for _ in range(30):
        n = rng.randrange(2, 9)
        G = random_connected_graph(rng, n, extra=rng.randrange(0, n))
        res = min_meg_bruteforce(G)
        assert len(res.witness) == res.meg
        assert is_meg_set(G, res.witness).ok


def test_trust_bounds_modes_agree():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randrange(2, 9)
        G = random_connected_graph(rng, n, extra=rng.randrange(0, n))
        fast = min_meg_bruteforce(G, trust_bounds=True)
        raw = min_meg_bruteforce(G, trust_bounds=False)
        assert fast.meg == raw.meg


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_oracle_matches_definition_exhaustive(n):
    for G in all_connected_graphs(n):
        size, witness = brute_min_meg(G)
        res = min_meg_bruteforce(G, trust_bounds=False)
        assert res.meg == size
        assert res.witness == witness  # same enumeration order, dual routes


def test_oracle_matches_definition_random():
    rng = random.Random(37)
    for _ in range(20):
        n = rng.randrange(6, 8)
        G = random_connected_graph(rng, n, extra=rng.randrange(0, n))
        assert min_meg_bruteforce(G, trust_bounds=False).meg == brute_min_meg(G)[0]


def test_no_smaller_set_works():
    rng = random.Random(97)
    for _ in range(15):
        n = rng.randrange(3, 8)
        G = random_connected_graph(rng, n, extra=rng.randrange(0, n))
        res = min_meg_bruteforce(G)
        for combo in itertools.combinations(range(n), res.meg - 1):
            assert not is_meg_set(G, combo).ok


def test_mandatory_bruteforce_matches_characterization():
    for n in range(2, 6):
        for G in all_connected_graphs(n):
            for v in range(n):
                assert mandatory_bruteforce(G, v) == is_mandatory(G, v)[0]
    rng = random.Random(53)
    for _ in range(25):
        n = rng.randrange(6, 9)
        G = random_connected_graph(rng, n, extra=rng.randrange(0, n))
        for v in range(n):
            assert mandatory_bruteforce(G, v) == is_mandatory(G, v)[0]


def test_all_min_meg_sets_c4():
    assert all_min_meg_sets(cycle_graph(4)) == [(0, 1, 2, 3)]


def test_all_min_meg_sets_matches_brute():
    rng = random.Random(61)
    for _ in range(15):
        n = rng.randrange(3, 8)
        G = random_connected_graph(rng, n, extra=rng.randrange(0, n))
        assert all_min_meg_sets(G) == brute_all_min_meg(G)


def test_all_min_meg_sets_respect_sandwich():
    rng = random.Random(29)
    for _ in range(20):
        n = rng.randrange(3, 9)
        G = random_connected_graph(rng, n, extra=rng.randrange(0, n))
        man = set(mandatory_vertices(G))
        cut = set(articulation_points(G))
        for S in all_min_meg_sets(G):
            assert man <= set(S)
            assert cut.isdisjoint(S)


def test_size_limit_enforced():
    with pytest.raises(LimitExceededError):
        min_meg_bruteforce(cycle_graph(5), limit=4)
    with pytest.raises(LimitExceededError):
        all_min_meg_sets(path_graph(13))
    with pytest.raises(LimitExceededError):
        mandatory_bruteforce(path_graph(13), 0)


def test_size_limit_bounds_the_pool():
    # Trusted mode searches only the pool, the non-cut vertices outside M,
    # so the limit bounds the pool; raw mode searches V, so it bounds n.
    res = min_meg_bruteforce(path_graph(13))
    assert (res.meg, res.witness, res.explored) == (2, (0, 12), 1)
    with pytest.raises(LimitExceededError, match="size 13 exceeds limit 12"):
        min_meg_bruteforce(path_graph(13), trust_bounds=False)
    G = gen_random_connected(30, 36, 1)
    b = bounds(G)
    pool = b.upper - b.lower
    assert pool <= 12 < G.n
    res = min_meg_bruteforce(G, limit=pool)
    assert (res.meg, res.trusted_bounds) == (16, True)
    assert is_meg_set(G, res.witness).ok
    with pytest.raises(LimitExceededError,
                       match=f"size {pool} exceeds limit {pool - 1}$"):
        min_meg_bruteforce(G, limit=pool - 1)
    with pytest.raises(LimitExceededError, match="size 30 exceeds limit 12"):
        min_meg_bruteforce(G, trust_bounds=False)
    with pytest.raises(LimitExceededError, match="size 30 exceeds limit 12"):
        all_min_meg_sets(G)


def _assert_search_matches_rescan(G):
    for trust in (True, False):
        res = min_meg_bruteforce(G, trust_bounds=trust)
        got = (res.meg, res.witness, res.explored, res.trusted_bounds)
        assert got == rescan_min_meg(G, trust_bounds=trust)
    assert all_min_meg_sets(G) == rescan_all_min_meg_sets(G)


@pytest.mark.parametrize("n", range(2, 8))
def test_search_matches_rescan_on_every_small_graph(n):
    for G in connected_graph_classes(n):
        _assert_search_matches_rescan(G)


def test_search_matches_rescan_on_random_graphs():
    rng = random.Random(20261018)
    for seed in range(1000):
        n = rng.randrange(2, 13)
        m = rng.randrange(n - 1, n * (n - 1) // 2 + 1)
        _assert_search_matches_rescan(gen_random_connected(n, m, seed))


def test_rank_is_the_place_in_a_walk_by_size():
    for n in range(7):
        for first in range(n + 1):
            walk = itertools.chain.from_iterable(
                itertools.combinations(range(n), k)
                for k in range(first, n + 1))
            for place, picked in enumerate(walk, 1):
                assert _rank(n, picked, first) == place


def test_trusted_explored_is_counted_from_the_witness_rank():
    # Trusted mode walks no whole-pool subsets, yet reports the count a
    # walk over the pool would reach: every smaller pool subset plus the
    # witness's rank among its own size. Two C7s glued at a vertex pool
    # 12 vertices, 6 per block: every vertex but the cut vertex 0, so the
    # witness's pool positions are its ids minus one.
    G = Graph([f"a{i}" for i in range(7)] + [f"b{i}" for i in range(6)],
              [(i, (i + 1) % 7) for i in range(7)]
              + [(7 + i, 8 + i) for i in range(5)] + [(0, 7), (12, 0)])
    res = min_meg_bruteforce(G, limit=6)
    assert (res.meg, res.witness, res.trusted_bounds) == (
        4, (1, 4, 7, 10), True)
    assert res.explored == _rank(12, (0, 3, 6, 9), 0) == 396
    assert min_meg_bruteforce(G, limit=12) == res


def test_trusted_oracle_on_a_large_mandatory_set():
    # Every vertex of this strongly chordal graph is mandatory, so every
    # block's pool is empty and no block runs a search; a whole-graph
    # search with M as its base took 23 s here, one BFS per vertex.
    G = gen_strongly_chordal(1000, 1)
    start = time.perf_counter()
    res = min_meg_bruteforce(G)
    assert time.perf_counter() - start < 2
    assert (res.meg, res.explored, res.trusted_bounds) == (1000, 1, True)


def test_trusted_search_counts_untested_small_subsets():
    # With fewer than two mandatory vertices, the pool combinations that
    # leave |S| < 2 are counted but not tested: on C5 (no mandatory vertex)
    # the sizes 0 and 1 add 1 + 5 to the 18 subsets explored.
    small = {0: 0, 1: 0}
    for n in range(5, 8):
        for G in connected_graph_classes(n):
            base = len(mandatory_vertices(G))
            if base <= 1:
                small[base] += 1
                res = min_meg_bruteforce(G)
                got = (res.meg, res.witness, res.explored, res.trusted_bounds)
                assert got == rescan_min_meg(G)
    assert small == {0: 5, 1: 6}


def _combinations_covering(pair, seeds, acc0, size, full):
    """The kernel's contract, one subset at a time."""
    hits = []
    for P in itertools.combinations(range(len(pair)), size):
        acc = acc0
        for i, p in enumerate(P):
            acc |= seeds[p]
            for q in P[i + 1:]:
                acc |= pair[p][q]
        if acc == full:
            hits.append(P)
    return hits


def _random_cover_instance(rng, N, width, seeded):
    """Symmetric pair masks over ``width`` bits. Each bit takes one of a
    few cover patterns: a handful of random pairs or, when ``seeded``,
    ``acc0`` or one seed. Few patterns keep hits common at every width."""
    patterns = []
    for _ in range(rng.randrange(1, 5)):
        if seeded and rng.random() < 0.3:
            patterns.append(rng.choice([None] + list(range(N))))
        else:
            count = rng.randrange(1, 2 * N + 2) if N >= 2 else 0
            patterns.append([rng.sample(range(N), 2) for _ in range(count)])
    pair = [[0] * N for _ in range(N)]
    seeds = [0] * N
    acc0 = 0
    for bit in range(width):
        pattern = rng.choice(patterns)
        if pattern is None:
            acc0 |= 1 << bit
        elif isinstance(pattern, int):
            seeds[pattern] |= 1 << bit
        else:
            for p, q in pattern:
                pair[p][q] |= 1 << bit
                pair[q][p] |= 1 << bit
    return pair, seeds, acc0


def test_covering_subsets_matches_combinations():
    # Fields of 2 to 131 bits, so packed fields straddle machine words.
    rng = random.Random(20261019)
    for width in (1, 63, 64, 65, 130):
        full = (1 << width) - 1
        hits = same_leaf = seeded_hits = 0
        for N in range(11):
            for seeded in (False, True):
                for _ in range(3):
                    pair, seeds, acc0 = _random_cover_instance(
                        rng, N, width, seeded)
                    # One packing serves every size, as in a search.
                    packed = _pack(pair, seeds, full)
                    for size in range(N + 1):
                        want = _combinations_covering(pair, seeds, acc0,
                                                      size, full)
                        got = list(_covering_subsets(packed, acc0, size))
                        assert got == want, (width, N, size, seeded)
                        hits += len(got)
                        same_leaf += sum(a[:-1] == b[:-1]
                                         for a, b in zip(got, got[1:]))
                        if acc0 or any(seeds):
                            seeded_hits += len(got)
        # Many hits share a leaf frame, so their order within it is tested.
        assert hits > 1000 and same_leaf > 500 and seeded_hits > 100, width


def test_one_packing_per_search(monkeypatch):
    # Each search runs the one search once, and it packs once, however
    # many sizes it walks: raw search and all_min_meg_sets on K7 walk sizes
    # 2 to 7 of the pool V, trusted search on C7 (no mandatory vertex,
    # one block) skips pool sizes 0 and 1 and tests sizes 2 and 3. Each
    # reads the graph's own adjacency lists.
    searches, packs, sizes = [], [], []
    search, pack, walk = oracle._search, oracle._pack, oracle._covering_subsets
    monkeypatch.setattr(oracle, "_search",
                        lambda *a: searches.append(a) or search(*a))
    monkeypatch.setattr(oracle, "_pack",
                        lambda *a: packs.append(a) or pack(*a))
    monkeypatch.setattr(oracle, "_covering_subsets",
                        lambda *a: sizes.append(a[-1]) or walk(*a))
    for run, G, called, walked in (
            (lambda G: min_meg_bruteforce(G, trust_bounds=False),
             complete_graph(7), ((), range(7)), [2, 3, 4, 5, 6, 7]),
            (min_meg_bruteforce, cycle_graph(7),
             ((), tuple(range(7))), [2, 3]),
            (all_min_meg_sets, complete_graph(7), ((), range(7)),
             [2, 3, 4, 5, 6, 7])):
        searches.clear()
        packs.clear()
        sizes.clear()
        run(G)
        assert [(list(map(tuple, adj)), *rest) for adj, *rest in searches] \
            == [(list(G.adj), *called)]
        assert len(packs) == 1 and sizes == walked


def test_block_search_reads_the_induced_subgraphs_lists(monkeypatch):
    # On every block B, geodesic_edge_rows over B's local adjacency lists
    # (local ids in G's order) numbers the edges as geodesic_edge_masks of
    # the induced subgraph does, and the block search passes those lists
    # for each block it searches (the flower's center lies in four).
    seen = []
    search = oracle._search
    monkeypatch.setattr(oracle, "_search",
                        lambda adj, *a: seen.append(adj) or search(adj, *a))
    graphs = [G for n in range(2, 7) for G in connected_graph_classes(n)]
    for G in graphs + [flower(4, 5)]:
        forced = set(articulation_points(G)).union(mandatory_vertices(G))
        seen.clear()
        oracle.solve_by_cut_decomposition(G, G.n)
        for ids in map(vertex_set, blocks(G)):
            H = induced_subgraph(G, ids)
            adj = [tuple(ids.index(w) for w in G.adj[v] if w in ids)
                   for v in ids]
            assert (list(map(tuple, geodesic_edge_rows(adj, range(H.n))))
                    == list(geodesic_edge_masks(H)))
            if not forced.issuperset(ids):
                assert list(map(tuple, seen.pop(0))) == adj
        assert seen == []


def test_block_search_builds_no_graph(monkeypatch):
    # Two C7s glued at a vertex: each block's search reads lists built in
    # place, where a copied subgraph per block would fill two graphs.
    G = build_graph([(f"a{i}", f"a{(i + 1) % 7}") for i in range(7)]
                    + [(f"b{i}", f"b{i + 1}") for i in range(1, 6)]
                    + [("a0", "b1"), ("b6", "a0")])
    fills = []
    fill = Graph._fill
    monkeypatch.setattr(Graph, "_fill",
                        lambda self, *a: fills.append(a) or fill(self, *a))
    assert len(oracle.solve_by_cut_decomposition(G)) == 4
    assert fills == []


# (meg, witness, explored) in trusted and raw mode, recorded from earlier
# kernels on the benchmark's largest sizes and two beyond them; n > 12 is
# beyond the rescan comparisons above.
_PINNED_SEARCHES = {
    (15, 22, 1): [(10, (2, 4, 5, 6, 7, 8, 9, 10, 12, 13), 9),
                  (10, (2, 4, 5, 6, 7, 8, 9, 10, 12, 13), 30694)],
    (15, 22, 2): [(9, (1, 3, 6, 7, 8, 10, 12, 13, 14), 14),
                  (9, (1, 3, 6, 7, 8, 10, 12, 13, 14), 26906)],
    (15, 45, 1): [(15, tuple(range(15)), 1), (15, tuple(range(15)), 32752)],
    (15, 45, 2): [(15, tuple(range(15)), 1), (15, tuple(range(15)), 32752)],
    (16, 24, 1): [(11, (1, 2, 3, 4, 5, 8, 9, 11, 12, 13, 15), 106),
                  (11, (1, 2, 3, 4, 5, 8, 9, 11, 12, 13, 15), 61831)],
    (16, 24, 2): [(8, (5, 7, 8, 10, 11, 12, 14, 15), 28),
                  (8, (5, 7, 8, 10, 11, 12, 14, 15), 39123)],
    (16, 48, 1): [(16, tuple(range(16)), 1), (16, tuple(range(16)), 65519)],
    (16, 48, 2): [(16, tuple(range(16)), 1), (16, tuple(range(16)), 65519)],
    # Mid-size raw hits, found below frames deeper than the inline levels.
    (17, 26, 1): [(11, (2, 4, 5, 8, 9, 10, 11, 12, 13, 14, 16), 3),
                  (11, (2, 4, 5, 8, 9, 10, 11, 12, 13, 14, 16), 121160)],
    (18, 27, 1): [(13, (1, 2, 4, 5, 7, 8, 9, 10, 12, 13, 15, 16, 17), 3),
                  (13, (1, 2, 4, 5, 7, 8, 9, 10, 12, 13, 15, 16, 17),
                   256882)],
}


@pytest.mark.parametrize("n, m, seed", sorted(_PINNED_SEARCHES))
def test_search_pinned_at_benchmark_sizes(n, m, seed):
    G = gen_random_connected(n, m, seed)
    got = []
    for trust in (True, False):
        res = min_meg_bruteforce(G, trust_bounds=trust, limit=n)
        got.append((res.meg, res.witness, res.explored))
    assert got == _PINNED_SEARCHES[n, m, seed]


def test_all_min_meg_sets_pinned_at_benchmark_sizes():
    assert all_min_meg_sets(gen_random_connected(15, 22, 1), limit=16) == [
        (2, 4, 5, 6, 7, 8, 9, 10, 12, 13), (2, 4, 5, 6, 7, 8, 9, 10, 13, 14),
        (4, 5, 6, 7, 8, 9, 10, 11, 12, 13), (4, 5, 6, 7, 8, 9, 10, 11, 13, 14)]
    assert all_min_meg_sets(gen_random_connected(16, 24, 1), limit=16) == [
        (1, 2, 3, 4, 5, 8, 9, 11, 12, 13, 15),
        (1, 2, 4, 5, 6, 8, 9, 11, 12, 13, 15),
        (2, 3, 4, 5, 8, 9, 10, 11, 12, 13, 15),
        (2, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15),
        (2, 4, 5, 6, 8, 9, 10, 11, 12, 13, 15),
        (2, 4, 5, 6, 8, 9, 10, 11, 12, 14, 15)]


def test_search_pinned_at_widest_and_narrowest_fields():
    # K12 packs 66-bit coverage per field, P2 a single bit.
    for G, raw_explored in ((complete_graph(12), 4083), (path_graph(2), 1)):
        _assert_search_matches_rescan(G)
        for trust, explored in ((True, 1), (False, raw_explored)):
            res = min_meg_bruteforce(G, trust_bounds=trust)
            assert (res.meg, res.witness, res.explored) == (
                G.n, tuple(range(G.n)), explored)
