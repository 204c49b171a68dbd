import itertools
import random

import pytest

from megsolve import (LimitExceededError, all_min_meg_sets,
                      gen_random_connected, is_mandatory, is_meg_set,
                      mandatory_bruteforce, mandatory_vertices,
                      min_meg_bruteforce)
from megsolve.graph_core import articulation_points

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
