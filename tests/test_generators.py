import hashlib
import random
import tracemalloc

import pytest

from megsolve import (GenSpec, format_edge_list, gen_bipartite_permutation,
                      gen_bipartite_permutation_with_ordering,
                      gen_distance_hereditary, gen_p4_sparse,
                      gen_random_connected, gen_strongly_chordal, generate,
                      is_connected, recognize_distance_hereditary,
                      recognize_p4_sparse, recognize_strongly_chordal,
                      spider_graph, verify_spider_partition,
                      verify_strong_ordering)
from megsolve import generators
from megsolve.generators import _SparePairs

from graphs_util import (brute_p4_sparse, quadratic_interval_graph,
                         quadratic_random_connected)


def test_same_spec_same_graph():
    for spec in (GenSpec("distance_hereditary", seed=4, n=12),
                 GenSpec("p4_sparse", seed=4, n=12),
                 GenSpec("bipartite_permutation", seed=4, p=5, q=7),
                 GenSpec("strongly_chordal", seed=4, n=12),
                 GenSpec("random", seed=4, n=12, m=20)):
        assert generate(spec) == generate(spec)


def test_different_seeds_usually_differ():
    hits = sum(gen_distance_hereditary(10, s) == gen_distance_hereditary(10, s + 1)
               for s in range(10))
    assert hits <= 2


def test_dh_instances_recognized():
    for seed in range(100):
        n = 2 + seed % 17
        G = gen_distance_hereditary(n, seed)
        assert G.n == n and is_connected(G)
        assert recognize_distance_hereditary(G) is not None


def test_p4_sparse_instances_recognized():
    for seed in range(100):
        n = 1 + seed % 20
        G = gen_p4_sparse(n, seed)
        assert G.n == n and is_connected(G)
        assert recognize_p4_sparse(G)


def test_p4_sparse_instances_pass_literal_scan():
    for seed in range(20):
        G = gen_p4_sparse(8, seed)
        assert brute_p4_sparse(G)


def test_bp_instances_verify_their_ordering():
    for seed in range(100):
        p = 1 + seed % 7
        q = 1 + (seed * 3) % 9
        G, so = gen_bipartite_permutation_with_ordering(p, q, seed)
        assert G.n == p + q and is_connected(G)
        assert verify_strong_ordering(G, so)


def test_bp_plain_wrapper_matches():
    G, _ = gen_bipartite_permutation_with_ordering(4, 6, 9)
    assert gen_bipartite_permutation(4, 6, 9) == G


def test_bp_labels_are_sided():
    G = gen_bipartite_permutation(3, 4, 0)
    assert sorted(G.labels) == ["x0", "x1", "x2", "y0", "y1", "y2", "y3"]


def test_sc_interval_instances_recognized():
    for seed in range(100):
        n = 1 + seed % 25
        G = gen_strongly_chordal(n, seed)
        assert G.n == n and is_connected(G)
        assert recognize_strongly_chordal(G) is not None


def test_sc_block_instances_recognized():
    for seed in range(50):
        n = 2 + seed % 20
        G = gen_strongly_chordal(n, seed, style="block")
        assert G.n == n and is_connected(G)
        assert recognize_strongly_chordal(G) is not None
    with pytest.raises(ValueError):
        gen_strongly_chordal(5, 0, style="mystery")


def test_random_connected_respects_n_and_m():
    rng = random.Random(1)
    for _ in range(40):
        n = rng.randrange(2, 15)
        max_m = n * (n - 1) // 2
        m = rng.randint(n - 1, max_m)
        G = gen_random_connected(n, m, rng.randrange(10**6))
        assert G.n == n and G.m == m and is_connected(G)
    with pytest.raises(ValueError):
        gen_random_connected(5, 3, 0)
    with pytest.raises(ValueError):
        gen_random_connected(4, 7, 0)


def _random_cases():
    for n in (1, 2, 3, 4, 5, 7, 10, 16, 30, 61):
        max_m = n * (n - 1) // 2
        for m in sorted({n - 1, (n - 1 + max_m) // 2, max_m,
                         min(max_m, n + 3)}):
            for seed in range(6):
                yield n, m, seed
    for seed in range(3):
        yield 1000, 2000, seed
    yield 1000, 1500, 7


def test_random_connected_matches_quadratic_reference(monkeypatch):
    # random.sample lists a small population and indexes a large one;
    # record which path each draw took so both are known to be covered.
    paths = set()

    class Recording(_SparePairs):
        def __getitem__(self, j):
            paths.add("index")
            return super().__getitem__(j)

        def __iter__(self):
            paths.add("list")
            return super().__iter__()

    monkeypatch.setattr(generators, "_SparePairs", Recording)
    for n, m, seed in _random_cases():
        got = format_edge_list(gen_random_connected(n, m, seed))
        assert got == format_edge_list(quadratic_random_connected(n, m, seed)), \
            (n, m, seed)
    assert paths == {"index", "list"}


def test_interval_graphs_match_quadratic_reference():
    cases = [(n, seed, None) for n in (1, 2, 3, 4, 5, 8, 13, 40, 97)
             for seed in range(12)]
    cases += [(30, seed, max_len) for seed in range(4)
              for max_len in (1, 2, 30, 200)]
    cases += [(1000, seed, None) for seed in range(2)]
    for n, seed, max_len in cases:
        got = gen_strongly_chordal(n, seed, max_len=max_len)
        want = quadratic_interval_graph(n, seed, max_len=max_len)
        assert format_edge_list(got) == format_edge_list(want), (n, seed, max_len)


def test_spare_pairs_index_agrees_with_iteration():
    rng = random.Random(3)
    for n in (1, 2, 3, 6, 25):
        all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for taken in ((), all_pairs, all_pairs[:1], all_pairs[-1:],
                      rng.sample(all_pairs, len(all_pairs) // 3)):
            seq = _SparePairs(n, set(taken))
            listed = list(seq)
            assert listed == [p for p in all_pairs if p not in set(taken)]
            assert len(seq) == len(listed)
            assert listed == [seq[i] for i in range(len(seq))]
            for bad in (-1, len(seq)):
                with pytest.raises(IndexError):
                    seq[bad]


def test_spare_pairs_sample_like_a_list():
    for n, tree_seed, k in ((6, 1, 4), (9, 2, 20), (80, 3, 12), (80, 4, 200),
                             (80, 5, 2000)):
        rng = random.Random(tree_seed)
        seq = _SparePairs(n, {(rng.randrange(v), v) for v in range(1, n)})
        for seed in range(5):
            a, b = random.Random(seed), random.Random(seed)
            assert a.sample(seq, k) == b.sample(list(seq), k)
            assert a.getstate() == b.getstate()


def test_random_connected_memory_is_linear():
    tracemalloc.start()
    try:
        gen_random_connected(2000, 4000, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_spider_graph_fixture_structure():
    G = spider_graph(3, "thin", head=2, head_edges=((0, 1),))
    s = [G.id_of(f"s{i}") for i in (1, 2, 3)]
    c = [G.id_of(f"c{i}") for i in (1, 2, 3)]
    r = [G.id_of(f"r{i}") for i in (1, 2)]
    part = verify_spider_partition(G, s, c, r)
    assert part is not None and part.kind == "thin"
    assert G.has_edge(r[0], r[1])
    thick = spider_graph(4, "thick")
    tpart = verify_spider_partition(
        thick, [thick.id_of(f"s{i}") for i in (1, 2, 3, 4)],
        [thick.id_of(f"c{i}") for i in (1, 2, 3, 4)], [])
    assert tpart is not None and tpart.kind == "thick"


def test_spider_graph_validation():
    with pytest.raises(ValueError):
        spider_graph(1)
    with pytest.raises(ValueError):
        spider_graph(3, "fuzzy")
    with pytest.raises(ValueError):
        spider_graph(3, "thin", head=1, head_edges=((0, 5),))


def _digest(graphs) -> str:
    h = hashlib.sha256()
    for G in graphs:
        h.update(format_edge_list(G).encode())
    return h.hexdigest()


def test_spider_edges_pinned():
    """P4-sparse graphs and spider fixtures share one spider edge builder;
    the digests pin the exact edge lists of both (seeds 1-5 at n 1-60, and
    2-8 thin or thick legs with heads of 0-4, bare or holding a path)."""
    assert _digest(gen_p4_sparse(n, seed) for seed in range(1, 6)
                   for n in range(1, 61)) == (
        "56ca2d41b1a6e6665985ddad46b591e2fa4cf76d70c33cc4073137d4427bc3d9")

    def spiders():
        for legs in range(2, 9):
            for kind in ("thin", "thick"):
                for head in range(5):
                    yield spider_graph(legs, kind, head)
                    if head >= 2:
                        path = tuple((i, i + 1) for i in range(head - 1))
                        yield spider_graph(legs, kind, head, path)

    assert _digest(spiders()) == (
        "9a26e324e2fe823d4b3cc344e4bea4d9dff17bf7ed7268e1a93083f6207e6594")


def test_genspec_comment_format():
    assert (GenSpec("distance_hereditary", seed=3, n=8).comment()
            == "genspec: class=distance_hereditary seed=3 n=8")
    assert (GenSpec("bipartite_permutation", seed=0, p=4, q=5).comment()
            == "genspec: class=bipartite_permutation seed=0 p=4 q=5")
    spec = GenSpec("strongly_chordal", seed=1, n=6, params={"style": "block"})
    assert spec.comment() == "genspec: class=strongly_chordal seed=1 n=6 style=block"


def test_generate_dispatch_params():
    G = generate(GenSpec("strongly_chordal", seed=1, n=6,
                         params={"style": "block"}))
    assert G == gen_strongly_chordal(6, 1, style="block")
    with pytest.raises(ValueError):
        generate(GenSpec("mystery", seed=0, n=4))


@pytest.mark.parametrize("spec", [
    GenSpec("random", seed=1, n=6, m=7, params={"style": "block"}),
    GenSpec("p4_sparse", seed=1, n=6, params={"style": "block"}),
    GenSpec("distance_hereditary", seed=1, n=6, params={"style": "block"}),
    GenSpec("bipartite_permutation", seed=1, p=3, q=3,
            params={"style": "block"}),
])
def test_generate_passes_params_to_every_class(spec):
    # A parameter that the generator does not take is an error, never a
    # graph whose genspec header records a parameter that was dropped.
    with pytest.raises(TypeError):
        generate(spec)


def test_generator_validations():
    with pytest.raises(ValueError):
        gen_distance_hereditary(0, 1)
    with pytest.raises(ValueError):
        gen_p4_sparse(0, 1)
    with pytest.raises(ValueError):
        gen_bipartite_permutation(0, 3, 1)
    with pytest.raises(ValueError):
        gen_strongly_chordal(0, 1)


def test_single_vertex_edge_cases():
    assert gen_distance_hereditary(1, 0).n == 1
    assert gen_p4_sparse(1, 0).n == 1
    assert gen_strongly_chordal(1, 0).n == 1
    G = gen_bipartite_permutation(1, 1, 0)
    assert G.n == 2 and G.m == 1
