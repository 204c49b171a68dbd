import dataclasses
import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from megsolve import (CLASSES, GenSpec, Graph, NotConnectedError,
                      PruneSequence, PruneStep, SEO, StrongOrdering,
                      articulation_points, bfs_distances, build_graph,
                      co_components, complement, connected_components,
                      cut_vertices_via_strong_ordering, detect_spider,
                      gen_bipartite_permutation,
                      gen_bipartite_permutation_with_ordering,
                      gen_distance_hereditary, gen_p4_sparse,
                      gen_random_connected, gen_strongly_chordal, generate,
                      is_connected, recognize_bipartite_permutation,
                      recognize_distance_hereditary, recognize_p4_sparse,
                      recognize_strongly_chordal, spider_graph,
                      strong_ordering_from_orders, verify_prune_sequence,
                      verify_seo, verify_spider_partition,
                      verify_strong_ordering)
from megsolve import recognizers
from megsolve.graph_core import iter_bits, mask_components
from megsolve.recognizers import (_Pruning, _chain_or_witness, _p4_stuck,
                                  _spider_masks)

from graphs_util import (all_connected_graphs, backtracking_simple_elimination,
                         brute_bipartite_permutation,
                         brute_distance_hereditary, brute_p4_sparse,
                         complete_bipartite, complete_graph,
                         connected_graph_classes, cycle_graph,
                         exhaustive_spider, extended_graphs, is_chordal,
                         path_graph, quadratic_strong_ordering,
                         random_connected_graph,
                         rescan_distance_hereditary, rescan_prune_steps,
                         rescan_strongly_chordal,
                         scan_p4_sparse, shuffled_ids, star_graph,
                         with_universal)


def three_sun():
    """Chordal but not strongly chordal."""
    return build_graph([("c1", "c2"), ("c2", "c3"), ("c1", "c3"),
                        ("u1", "c1"), ("u1", "c2"),
                        ("u2", "c2"), ("u2", "c3"),
                        ("u3", "c3"), ("u3", "c1")])


def subdivided_claw():
    return build_graph([("c", "m1"), ("m1", "l1"),
                        ("c", "m2"), ("m2", "l2"),
                        ("c", "m3"), ("m3", "l3")])


# ---------------------------------------------------------------------------
# distance-hereditary


def test_dh_frozen_families():
    assert recognize_distance_hereditary(path_graph(6)) is not None
    assert recognize_distance_hereditary(cycle_graph(4)) is not None
    assert recognize_distance_hereditary(cycle_graph(5)) is None
    assert recognize_distance_hereditary(cycle_graph(6)) is None
    assert recognize_distance_hereditary(complete_graph(5)) is not None
    assert recognize_distance_hereditary(star_graph(5)) is not None
    assert recognize_distance_hereditary(complete_bipartite(3, 4)) is not None


def test_dh_certificate_replays():
    G = cycle_graph(4)
    seq = recognize_distance_hereditary(G)
    assert verify_prune_sequence(G, seq)
    assert len(seq.steps) == 3
    kinds = {s.kind for s in seq.steps}
    assert kinds <= {"pendant", "true_twin", "false_twin"}


def test_dh_certificate_json_uses_labels():
    G = star_graph(3)
    seq = recognize_distance_hereditary(G)
    doc = seq.to_json(G)
    assert doc["type"] == "prune_sequence"
    assert all(set(step) == {"vertex", "kind", "partner"}
               for step in doc["steps"])
    assert doc["final"] in G.labels


def test_dh_tampered_certificates_rejected():
    G = path_graph(4)
    seq = recognize_distance_hereditary(G)
    assert verify_prune_sequence(G, seq)
    short = PruneSequence(seq.steps[:-1], seq.final_vertex)
    assert not verify_prune_sequence(G, short)
    flipped = PruneSequence(
        (PruneStep(seq.steps[0].vertex, "true_twin", seq.steps[0].partner),)
        + seq.steps[1:], seq.final_vertex)
    assert not verify_prune_sequence(G, flipped)
    bad_kind = PruneSequence(
        (PruneStep(seq.steps[0].vertex, "zzz", seq.steps[0].partner),)
        + seq.steps[1:], seq.final_vertex)
    assert not verify_prune_sequence(G, bad_kind)
    self_partner = PruneSequence(
        (PruneStep(seq.steps[0].vertex, "pendant", seq.steps[0].vertex),)
        + seq.steps[1:], seq.final_vertex)
    assert not verify_prune_sequence(G, self_partner)
    # ids outside 0..n-1 are rejected, not shifted by or used as indices
    first = seq.steps[0]
    for vertex, partner in ((-1, first.partner), (first.vertex, -1),
                            (G.n, first.partner), (first.vertex, G.n)):
        out_of_range = PruneSequence(
            (PruneStep(vertex, first.kind, partner),) + seq.steps[1:],
            seq.final_vertex)
        assert not verify_prune_sequence(G, out_of_range)
    for final in (-1, G.n):
        assert not verify_prune_sequence(G, PruneSequence(seq.steps, final))


@pytest.mark.parametrize("n", [0, 1])
def test_tiny_graph_certificates_replay(n):
    # Each recognizer answers "yes" on the 0- and 1-vertex graphs, and the
    # certificate it emits replays.
    G = Graph([f"v{i}" for i in range(n)], [])
    seq = recognize_distance_hereditary(G)
    assert seq is not None and verify_prune_sequence(G, seq)
    assert not verify_prune_sequence(
        G, PruneSequence(seq.steps, seq.final_vertex + 1))
    seo = recognize_strongly_chordal(G)
    assert seo is not None and verify_seo(G, seo)
    assert recognize_p4_sparse(G)
    result = recognize_bipartite_permutation(G)
    assert result.verdict == "yes"
    assert result.ordering == StrongOrdering(tuple(range(n)), ())
    assert verify_strong_ordering(G, result.ordering)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_dh_matches_definition_exhaustive(n):
    for G in all_connected_graphs(n):
        got = recognize_distance_hereditary(G)
        assert (got is not None) == brute_distance_hereditary(G)
        if got is not None:
            assert verify_prune_sequence(G, got)


def test_dh_matches_definition_random():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randrange(6, 8)
        G = random_connected_graph(rng, n, extra=rng.randrange(0, n))
        got = recognize_distance_hereditary(G)
        assert (got is not None) == brute_distance_hereditary(G)


# ---------------------------------------------------------------------------
# P4-sparse


def test_p4_sparse_frozen_families():
    assert recognize_p4_sparse(path_graph(4))
    assert not recognize_p4_sparse(path_graph(5))
    assert not recognize_p4_sparse(cycle_graph(5))
    assert recognize_p4_sparse(cycle_graph(4))
    assert recognize_p4_sparse(complete_graph(6))
    assert recognize_p4_sparse(star_graph(6))
    assert recognize_p4_sparse(complete_bipartite(3, 3))


def test_p4_sparse_bull_has_exactly_one_p4():
    bull = build_graph([("a", "b"), ("b", "c"), ("a", "c"),
                        ("d", "a"), ("e", "b")])
    assert recognize_p4_sparse(bull)


def test_p4_sparse_spiders_and_universal_p6():
    assert recognize_p4_sparse(spider_graph(3, "thin", head=2))
    assert recognize_p4_sparse(spider_graph(3, "thick", head=1))
    # a path on 6 with a universal vertex keeps its long induced paths
    assert not recognize_p4_sparse(with_universal(path_graph(6)))


def test_p4_sparse_matches_definition_exhaustive():
    for G in all_connected_graphs(5):
        assert recognize_p4_sparse(G) == brute_p4_sparse(G)


def test_p4_sparse_matches_definition_random():
    rng = random.Random(19)
    for _ in range(80):
        n = rng.randrange(6, 9)
        G = random_connected_graph(rng, n, extra=rng.randrange(0, 2 * n))
        assert recognize_p4_sparse(G) == brute_p4_sparse(G)


def test_p4_sparse_has_no_size_limit():
    assert not recognize_p4_sparse(path_graph(61))
    assert recognize_p4_sparse(gen_p4_sparse(120, seed=0))


def _flip_edge(G: Graph, u: int, v: int) -> Graph:
    edges = set(G.edges())
    edges ^= {(min(u, v), max(u, v))}
    return Graph(G.labels, sorted(edges))


def _random_p4_piece(rng, n: int) -> Graph:
    """A G(n, p) draw or its complement, or a P4-sparse draw with at most
    one edge flipped."""
    if rng.random() < 0.5:
        p = rng.random()
        G = Graph([f"v{i}" for i in range(n)],
                  [e for e in itertools.combinations(range(n), 2)
                   if rng.random() < p])
        return complement(G) if rng.random() < 0.5 else G
    G = gen_p4_sparse(n, rng.randrange(10**6))
    if n < 2 or rng.random() < 0.3:
        return G
    return _flip_edge(G, *rng.sample(range(n), 2))


def _random_p4_inputs(rng) -> Graph:
    """Graphs on 1..11 vertices: one random piece, or the disjoint union
    or the join of two."""
    n = rng.randrange(1, 12)
    shape = rng.randrange(3)
    if shape == 0 or n < 2:
        return _random_p4_piece(rng, n)
    k = rng.randrange(1, n)
    A, B = _random_p4_piece(rng, k), _random_p4_piece(rng, n - k)
    edges = list(A.edges()) + [(k + u, k + v) for u, v in B.edges()]
    if shape == 2:
        edges += [(a, k + b) for a in range(k) for b in range(n - k)]
    return Graph([f"v{i}" for i in range(n)], edges)


def test_p4_sparse_matches_scan_and_definition_random():
    rng = random.Random(23)
    seen = Counter()
    for i in range(1200):
        G = _random_p4_inputs(rng)
        got = recognize_p4_sparse(G)
        assert got == scan_p4_sparse(G), sorted(G.edges())
        if i % 4 == 0:
            assert got == brute_p4_sparse(G), sorted(G.edges())
        split = ("union" if len(connected_components(G)) > 1 else
                 "join" if len(co_components(G)) > 1 else "neither")
        seen[got, split] += 1
    assert min(seen.values()) >= 60 and len(seen) == 6, seen


def _generator_specs(n: int, seeds):
    for cls in CLASSES:
        for seed in seeds:
            if cls == "bipartite_permutation":
                yield GenSpec(cls, seed, p=n // 2, q=n - n // 2)
            elif cls == "random":
                yield GenSpec(cls, seed, n=n, m=2 * n)
            else:
                yield GenSpec(cls, seed, n=n)


def test_p4_sparse_matches_scan_on_generator_families():
    for spec in _generator_specs(12, range(4)):
        G = generate(spec)
        assert recognize_p4_sparse(G) == scan_p4_sparse(G) == brute_p4_sparse(G)
    for spec in _generator_specs(60, (0,)):
        G = generate(spec)
        assert recognize_p4_sparse(G) == scan_p4_sparse(G), spec
    for legs, kind in ((9, "thin"), (9, "thick")):
        G = spider_graph(legs, kind, head=5, head_edges=((0, 1), (2, 3)))
        assert recognize_p4_sparse(G) and scan_p4_sparse(G)


def test_p4_sparse_accepts_large_generated_members():
    for n in (200, 1000):
        for seed in range(3):
            assert recognize_p4_sparse(gen_p4_sparse(n, seed))


def test_p4_sparse_rejects_p5_inside_spider_or_join():
    p5 = tuple((i, i + 1) for i in range(4))
    for kind in ("thin", "thick"):
        G = spider_graph(3, kind, head=5, head_edges=p5)
        assert detect_spider(G) is not None
        assert not recognize_p4_sparse(G)
    assert not recognize_p4_sparse(with_universal(path_graph(5)))


def _check_p4_stuck(G: Graph) -> int:
    """``_p4_stuck`` is 0 iff G is P4-sparse, all of V iff the structural
    gate of co-components and degree-rule spiders refuses G, and otherwise
    a set whose graph and complement are connected and hold no spider."""
    stuck = _p4_stuck(G)
    masks = G.adj_masks
    assert (stuck == 0) == brute_p4_sparse(G), sorted(G.edges())
    refused = len(co_components(G)) < 2 and recognizers.spider_by_degrees(G) is None
    assert (stuck == (1 << G.n) - 1) == refused, sorted(G.edges())
    if stuck:
        assert len(mask_components(masks, stuck)) == 1
        assert len(mask_components(tuple(~m for m in masks), stuck)) == 1
        assert _spider_masks(masks, stuck) is None
    return stuck


def test_p4_stuck_matches_definition_and_gate_exhaustively():
    kinds = Counter()
    for n in range(2, 8):
        for G in connected_graph_classes(n):
            stuck = _check_p4_stuck(G)
            kinds["none" if not stuck else
                  "all" if stuck == (1 << G.n) - 1 else "part"] += 1
    assert kinds == {"none": 176, "part": 92, "all": 727}


def test_p4_stuck_on_spiders_and_generated_graphs():
    for legs in range(2, 6):
        for head in range(4):
            for kind in ("thin", "thick"):
                assert _check_p4_stuck(spider_graph(legs, kind, head=head)) == 0
    p4 = tuple((i, i + 1) for i in range(3))
    for kind in ("thin", "thick"):
        G = spider_graph(3, kind, head=4, head_edges=p4)
        assert _check_p4_stuck(G) == 0
    rng = random.Random(29)
    parts = 0
    for seed in range(40):
        G = gen_p4_sparse(rng.randrange(5, 12), seed)
        assert _check_p4_stuck(G) == 0
        H = _flip_edge(G, *rng.sample(range(G.n), 2))
        if is_connected(H):
            stuck = _check_p4_stuck(H)
            parts += 0 < stuck < (1 << H.n) - 1
    assert parts >= 5


# ---------------------------------------------------------------------------
# spiders


def test_detect_thin_spider():
    G = spider_graph(3, "thin")
    part = detect_spider(G)
    assert part is not None and part.kind == "thin"
    assert G.labels_of(part.s_vertices) == ("s1", "s2", "s3")
    assert G.labels_of(part.c_vertices) == ("c1", "c2", "c3")
    assert part.r_vertices == ()


def test_detect_thick_spider_with_head():
    G = spider_graph(4, "thick", head=2, head_edges=((0, 1),))
    part = detect_spider(G)
    assert part is not None and part.kind == "thick"
    assert G.labels_of(part.r_vertices) == ("r1", "r2")
    # aligned pairing: each leg pairs with the unique body vertex it misses
    for s, c in zip(part.s_vertices, part.c_vertices):
        assert not G.has_edge(s, c)


def test_two_legged_thick_is_reported_thin():
    G = spider_graph(2, "thick")
    part = detect_spider(G)
    assert part is not None and part.kind == "thin"


def test_detect_spider_pairing_follows_legs():
    G = spider_graph(5, "thin", head=1)
    part = detect_spider(G)
    for s, c in zip(part.s_vertices, part.c_vertices):
        assert G.adj[s] == (c,)


def test_non_spiders_rejected():
    assert detect_spider(path_graph(5)) is None
    assert detect_spider(cycle_graph(4)) is None
    assert detect_spider(cycle_graph(6)) is None
    assert detect_spider(complete_graph(5)) is None
    assert detect_spider(star_graph(4)) is None


@pytest.mark.parametrize("n", range(4, 10))
def test_spider_fallback_tests_every_split_once(monkeypatch, n):
    """On a non-spider, the fallback hands ``verify_spider_partition``
    every partition (S, C, R) of the vertices with |S| = |C| >= 2, each
    once, and nothing else."""
    verify = recognizers.verify_spider_partition
    expected = sum(math.comb(n, l) * math.comb(n - l, l)
                   for l in range(2, n // 2 + 1))
    graphs = [cycle_graph(n)] + ([path_graph(n)] if n >= 5 else [])
    for G in graphs:
        seen = []

        def record(G, S, C, R):
            seen.append((tuple(S), tuple(C), tuple(R)))
            return verify(G, S, C, R)

        monkeypatch.setattr(recognizers, "verify_spider_partition", record)
        assert detect_spider(G) is None
        for S, C, R in seen:
            assert sorted(S + C + R) == list(range(n))
            assert len(S) == len(C) >= 2
        assert len({(frozenset(S), frozenset(C)) for S, C, _ in seen}) \
            == len(seen) == expected
    if n == 9:
        assert expected == 3066


def test_verify_spider_partition_axioms():
    G = spider_graph(3, "thin", head=1)
    s = [G.id_of(x) for x in ("s1", "s2", "s3")]
    c = [G.id_of(x) for x in ("c1", "c2", "c3")]
    r = [G.id_of("r1")]
    part = verify_spider_partition(G, s, c, r)
    assert part is not None and part.kind == "thin"
    assert verify_spider_partition(G, s, c, []) is None  # not a partition
    assert verify_spider_partition(G, c, s, r) is None  # roles swapped
    assert verify_spider_partition(G, s[:2], c[:2], r + [s[2], c[2]]) is None
    assert verify_spider_partition(G, [], [], list(range(G.n))) is None


def test_verify_spider_rejects_broken_shapes():
    # body not a clique
    H = build_graph([("s1", "c1"), ("s2", "c2"), ("c1", "r1"), ("c2", "r1")])
    ids = {lab: H.id_of(lab) for lab in H.labels}
    assert verify_spider_partition(
        H, [ids["s1"], ids["s2"]], [ids["c1"], ids["c2"]], [ids["r1"]]) is None
    # leg reaching into the head
    J = build_graph([("s1", "c1"), ("s2", "c2"), ("c1", "c2"),
                     ("c1", "r1"), ("c2", "r1"), ("s1", "r1")])
    jds = {lab: J.id_of(lab) for lab in J.labels}
    assert verify_spider_partition(
        J, [jds["s1"], jds["s2"]], [jds["c1"], jds["c2"]], [jds["r1"]]) is None
    # head ids outside 0..n-1: vertex 6 would go unchecked, or an index
    # error would escape
    K = spider_graph(3, "thin", head=1)
    assert verify_spider_partition(K, (0, 1, 2), (3, 4, 5), (6,)) is not None
    for head in ((-1,), (7,)):
        assert verify_spider_partition(K, (0, 1, 2), (3, 4, 5), head) is None
    assert verify_spider_partition(K, (0, 1, 2), (3, 4, -1), (6,)) is None


def test_detect_spider_beyond_exhaustive_range():
    # big enough that only the degree-based candidates are tried
    for kind in ("thin", "thick"):
        G = spider_graph(7, kind, head=2, head_edges=((0, 1),))
        part = detect_spider(G)
        assert part is not None and part.kind == kind
        assert len(part.s_vertices) == 7 and len(part.r_vertices) == 2


def _spider_found(G: Graph):
    return _spider_masks(G.adj_masks, (1 << G.n) - 1)


def _mask(ids) -> int:
    return sum(1 << v for v in ids)


def test_spider_degree_rules_match_exhaustive_search():
    spiders = 0
    for n in range(1, 7):
        for G in all_connected_graphs(n, degree_sorted=True):
            ref = exhaustive_spider(G)
            found = _spider_found(G)
            assert (found is None) == (ref is None), sorted(G.edges())
            if ref is not None:
                spiders += 1
                assert found == (_mask(ref.s_vertices), _mask(ref.c_vertices),
                                 _mask(ref.r_vertices))
                assert detect_spider(G) == ref
    assert spiders >= 10


def test_spider_degree_rules_on_fixtures():
    # Heads with no internal edge, a clique head and random ones: the degree
    # facts that the proof in ``_spider_masks`` rests on hold on each, and
    # the rules alone find the spider.
    rng = random.Random(31)
    for legs in range(2, 9):
        for head in range(7):
            pairs = list(itertools.combinations(range(head), 2))
            for kind in ("thin", "thick"):
                for head_edges in ((), tuple(pairs), *(
                        tuple(p for p in pairs if rng.random() < 0.5)
                        for _ in range(2))):
                    G = spider_graph(legs, kind, head=head,
                                     head_edges=head_edges)
                    ids = lambda prefix, k: [  # noqa: E731
                        G.id_of(f"{prefix}{i + 1}") for i in range(k)]
                    S, C = ids("s", legs), ids("c", legs)
                    degree = [len(G.adj[v]) for v in range(G.n)]
                    if kind == "thin" or legs == 2:
                        assert [v for v in range(G.n)
                                if degree[v] == 1] == sorted(S)
                    else:
                        assert [v for v in range(G.n)
                                if degree[v] == G.n - 2] == sorted(C)
                    assert _spider_found(G) == (_mask(S), _mask(C),
                                                _mask(ids("r", head)))
                    part = detect_spider(G)
                    assert part == recognizers.spider_by_degrees(G)
                    assert part.kind == ("thin" if legs == 2 else kind)
                    assert set(part.s_vertices) == set(S)


def test_detect_spider_small_with_head():
    G = spider_graph(2, "thin", head=1)
    part = detect_spider(G)
    assert part is not None
    assert part.kind == "thin"
    assert len(part.r_vertices) == 1


# ---------------------------------------------------------------------------
# bipartite permutation


def test_bp_frozen_families():
    assert recognize_bipartite_permutation(path_graph(7)).verdict == "yes"
    assert recognize_bipartite_permutation(star_graph(5)).verdict == "yes"
    assert recognize_bipartite_permutation(complete_bipartite(3, 4)).verdict == "yes"
    assert recognize_bipartite_permutation(cycle_graph(4)).verdict == "yes"
    assert recognize_bipartite_permutation(cycle_graph(5)).verdict == "no"
    assert recognize_bipartite_permutation(cycle_graph(6)).verdict == "no"
    assert recognize_bipartite_permutation(cycle_graph(8)).verdict == "no"
    assert recognize_bipartite_permutation(complete_graph(3)).verdict == "no"


def test_bp_subdivided_claw_is_no():
    assert recognize_bipartite_permutation(subdivided_claw()).verdict == "no"


def test_bp_large_even_cycle_is_no():
    for n in (10, 12, 200):
        res = recognize_bipartite_permutation(cycle_graph(n))
        assert res.verdict == "no"
        assert res.ordering is None


def test_bp_yes_comes_with_verified_ordering():
    for G in (path_graph(6), complete_bipartite(2, 5), cycle_graph(4),
              star_graph(7)):
        res = recognize_bipartite_permutation(G)
        assert res.verdict == "yes"
        assert verify_strong_ordering(G, res.ordering)
        doc = res.ordering.to_json(G)
        assert doc["type"] == "strong_ordering"
        assert len(doc["xOrder"]) + len(doc["yOrder"]) == G.n


def test_bp_single_vertex():
    G = build_graph([], vertices=["a"])
    assert recognize_bipartite_permutation(G).verdict == "yes"


def test_bp_disconnected_rejected():
    G = build_graph([("a", "b"), ("c", "d")])
    with pytest.raises(NotConnectedError):
        recognize_bipartite_permutation(G)


def _labelled_bipartite_graphs():
    """Every labelled connected bipartite graph with sides 0..p-1 and
    p..n-1, p <= n - p, n <= 7."""
    for n in range(2, 8):
        for p in range(1, n // 2 + 1):
            pairs = [(i, j) for i in range(p) for j in range(p, n)]
            for bits in range(1 << len(pairs)):
                G = _bipartite(p, n - p, [e for k, e in enumerate(pairs)
                                          if bits >> k & 1])
                if is_connected(G):
                    yield G


def test_bp_matches_definition_exhaustive_small():
    for n in (2, 3, 4, 5):
        for G in all_connected_graphs(n):
            res = recognize_bipartite_permutation(G)
            assert res.verdict in ("yes", "no")
            assert (res.verdict == "yes") == brute_bipartite_permutation(G)
    checked = 0
    for G in _labelled_bipartite_graphs():
        checked += 1
        res = recognize_bipartite_permutation(G)
        assert (res.verdict == "yes") == brute_bipartite_permutation(G), (
            sorted(G.edges()))
        if res.verdict == "yes":
            assert verify_strong_ordering(G, res.ordering)
    assert checked == 2306


def test_bp_builds_one_candidate(monkeypatch):
    """One layered candidate per connected bipartite graph on two or more
    vertices, "no" included; none once an odd cycle shows."""
    starts = []
    real = recognizers._layered_candidate

    def spy(G, start):
        starts.append(start)
        return real(G, start)

    monkeypatch.setattr(recognizers, "_layered_candidate", spy)

    def candidates(G):
        starts.clear()
        recognize_bipartite_permutation(G)
        return len(starts)

    assert candidates(cycle_graph(200)) == 1
    for n in (2, 3, 4, 5):
        for G in all_connected_graphs(n):
            dist = bfs_distances(G, 0)
            bipartite = all(dist[u] != dist[v] for u, v in G.edges())
            assert candidates(G) == (1 if bipartite else 0)
    for G in _labelled_bipartite_graphs():
        assert candidates(G) == 1


def _low_degree_far_vertices(G, s):
    """The minimum-degree vertices of the last BFS layer from s."""
    dist = bfs_distances(G, s)
    far = [v for v in range(G.n) if dist[v] == max(dist)]
    low = min(len(G.adj[v]) for v in far)
    return [v for v in far if len(G.adj[v]) == low]


def test_bp_every_low_degree_far_vertex_starts_a_strong_ordering():
    """The lemma behind the single start, whatever the tie-break: in a
    connected bipartite permutation graph, every minimum-degree vertex of
    the last BFS layer from any source starts a strong ordering, so the
    candidate from it replays."""
    rng = random.Random(1987)
    members = [shuffled_ids(G, rng) for n in range(2, 8)
               for G in connected_graph_classes(n)
               if brute_bipartite_permutation(G)]
    assert len(members) == 64
    for i in range(150):
        members.append(shuffled_ids(gen_bipartite_permutation(
            rng.randint(1, 30), rng.randint(1, 30), seed=i), rng))
    for G in members:
        for s in range(G.n):
            for z in _low_degree_far_vertices(G, s):
                so = StrongOrdering(*recognizers._layered_candidate(G, z))
                assert verify_strong_ordering(G, so), (sorted(G.edges()), s, z)


def test_bp_decides_shuffled_generated_graphs():
    """Members above the former exhaustive range, whatever their ids: the
    ordering found replays, and its cut test matches the articulation
    points on the interim vertices."""
    rng = random.Random(1987)
    for i in range(60):
        p, q = rng.randint(3, 30), rng.randint(3, 30)
        if p + q <= 10:
            q += 10
        G = shuffled_ids(gen_bipartite_permutation(p, q, seed=i), rng)
        res = recognize_bipartite_permutation(G)
        assert res.verdict == "yes", (p, q, i)
        so = res.ordering
        assert verify_strong_ordering(G, so)
        interim = set(so.x_order[1:-1]) | set(so.y_order[1:-1])
        assert cut_vertices_via_strong_ordering(G, so) == tuple(
            sorted(set(articulation_points(G)) & interim))


def test_bp_results_hash():
    res = recognize_bipartite_permutation(path_graph(5))
    again = recognize_bipartite_permutation(path_graph(5))
    assert res == again and hash(res) == hash(again)
    assert hash(res.ordering) == hash(again.ordering)
    assert len({res, again, recognize_bipartite_permutation(cycle_graph(5))}) == 2


def test_bp_member_started_at_a_low_degree_far_vertex():
    """The last BFS layer from 0 is {1, 2, 3}. The candidate starts at 2,
    the lower id of its two degree-1 vertices; the one from the degree-4
    vertex 1 is not strong."""
    G = _bipartite(4, 4, [(0, 4), (0, 5), (0, 6), (0, 7), (1, 4), (1, 5),
                          (1, 6), (1, 7), (2, 5), (3, 4)])
    res = recognize_bipartite_permutation(G)
    assert res.verdict == "yes"
    assert verify_strong_ordering(G, res.ordering)
    assert res.ordering.x_order[0] == 2
    assert not verify_strong_ordering(
        G, StrongOrdering(*recognizers._layered_candidate(G, 1)))


def test_bp_decides_distance_hereditary_member():
    G = gen_distance_hereditary(12, 56)
    res = recognize_bipartite_permutation(G)
    assert res.verdict == "yes"
    assert verify_strong_ordering(G, res.ordering)


def test_bp_matches_definition_random():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randrange(6, 8)
        G = random_connected_graph(rng, n, extra=rng.randrange(0, 3))
        res = recognize_bipartite_permutation(G)
        assert res.verdict in ("yes", "no")
        if res.verdict == "yes":
            assert verify_strong_ordering(G, res.ordering)
        assert (res.verdict == "yes") == brute_bipartite_permutation(G)


def test_verify_strong_ordering_rejects_scrambles():
    G = path_graph(5)
    res = recognize_bipartite_permutation(G)
    so = res.ordering
    twisted = strong_ordering_from_orders(G, tuple(reversed(so.x_order[:2]))
                                          + so.x_order[2:], so.y_order)
    if len(so.x_order) >= 2:
        assert not verify_strong_ordering(G, twisted)
    with pytest.raises(ValueError):
        verify_strong_ordering(
            G, strong_ordering_from_orders(G, so.x_order + so.y_order, ()))
    with pytest.raises(ValueError):
        verify_strong_ordering(
            G, strong_ordering_from_orders(G, so.x_order, so.y_order[:-1]))


def _outcome(check, G, so):
    try:
        return check(G, so)
    except Exception as exc:  # the exception type is the verdict
        return type(exc)


def _agree(G, so):
    """Same verdict as the quadratic reference."""
    fast = _outcome(verify_strong_ordering, G, so)
    assert fast == _outcome(quadratic_strong_ordering, G, so), (
        sorted(G.edges()), so)
    return fast


def _bipartite(p: int, q: int, edges) -> Graph:
    """Sides 0..p-1 and p..p+q-1; isolated vertices allowed."""
    return Graph([f"v{v}" for v in range(p + q)], edges)


def test_strong_ordering_matches_quadratic_exhaustive():
    verdicts = Counter()
    for n in range(2, 7):
        for p in range(1, n):
            pairs = [(i, j) for i in range(p) for j in range(p, n)]
            orders = list(itertools.product(
                itertools.permutations(range(p)),
                itertools.permutations(range(p, n))))
            for bits in range(1 << len(pairs)):
                G = _bipartite(p, n - p, [e for k, e in enumerate(pairs)
                                          if bits >> k & 1])
                for xs, ys in orders:
                    so = strong_ordering_from_orders(G, xs, ys)
                    verdicts[_agree(G, so)] += 1
    assert verdicts[True] >= 10000 and verdicts[False] >= 10000


def _random_bipartite(rng):
    p = rng.randint(1, 5)
    q = rng.randint(1, 10 - p)
    density = rng.random()
    G = _bipartite(p, q, [(i, j) for i in range(p) for j in range(p, p + q)
                          if rng.random() < density])
    xs, ys = list(range(p)), list(range(p, p + q))
    rng.shuffle(xs)
    rng.shuffle(ys)
    return G, strong_ordering_from_orders(G, xs, ys)


def test_strong_ordering_matches_quadratic_random():
    rng = random.Random(1987)
    verdicts = Counter()
    for _ in range(3000):
        verdicts[_agree(*_random_bipartite(rng))] += 1
    assert verdicts[True] >= 1000 and verdicts[False] >= 1000


def test_strong_ordering_certificate_faults():
    G = _bipartite(2, 3, [(0, 2), (0, 3), (1, 3), (1, 4)])
    so = strong_ordering_from_orders(G, (0, 1), (2, 3, 4))
    assert _agree(G, so) is True
    # an isolated vertex may sit anywhere on its side
    G = _bipartite(2, 3, [(0, 2), (0, 3), (1, 3)])
    so = strong_ordering_from_orders(G, (0, 1), (2, 3, 4))
    assert _agree(G, so) is True
    # ids outside 0..n-1 do not stand in for a vertex (-1 would wrap to 4)
    for stray in (-1, 5):
        assert _agree(G, dataclasses.replace(
            so, y_order=(2, 3, stray))) is ValueError
    # crossing orders fail
    crossed = strong_ordering_from_orders(G, (1, 0), (2, 3, 4))
    assert _agree(G, crossed) is False


def test_strong_ordering_accepts_large_generated():
    for p in (100, 500):
        G, so = gen_bipartite_permutation_with_ordering(p, p, seed=p)
        assert G.n == 2 * p
        assert verify_strong_ordering(G, so)
        res = recognize_bipartite_permutation(G)
        assert res.verdict == "yes"
        assert verify_strong_ordering(G, res.ordering)
        if p == 100:
            assert quadratic_strong_ordering(G, so)
            assert quadratic_strong_ordering(G, res.ordering)


# ---------------------------------------------------------------------------
# strongly chordal


def test_sc_frozen_families():
    assert recognize_strongly_chordal(path_graph(6)) is not None
    assert recognize_strongly_chordal(star_graph(5)) is not None
    assert recognize_strongly_chordal(complete_graph(5)) is not None
    assert recognize_strongly_chordal(cycle_graph(4)) is None
    assert recognize_strongly_chordal(cycle_graph(5)) is None
    assert recognize_strongly_chordal(three_sun()) is None
    assert recognize_strongly_chordal(with_universal(path_graph(6))) is not None


def test_sc_trees_always_pass():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randrange(2, 14)
        T = random_connected_graph(rng, n, extra=0)
        seo = recognize_strongly_chordal(T)
        assert seo is not None
        assert verify_seo(T, seo)


def test_sc_certificate_replays_and_tampering_fails():
    G = with_universal(path_graph(5))
    seo = recognize_strongly_chordal(G)
    assert seo is not None
    assert verify_seo(G, seo)
    doc = seo.to_json(G)
    assert doc["type"] == "simple_elimination"
    assert sorted(doc["order"]) == sorted(G.labels)
    swapped = SEO((seo.order[-1],) + seo.order[1:-1] + (seo.order[0],),
                  seo.chains)
    assert not verify_seo(G, swapped)
    assert not verify_seo(G, SEO(seo.order, seo.chains[:-1]))
    assert not verify_seo(G, SEO(seo.order[:-1], seo.chains[:-1]))


def test_sc_greedy_matches_backtracking_exhaustive():
    for n in (2, 3, 4, 5):
        for G in all_connected_graphs(n):
            greedy = recognize_strongly_chordal(G)
            assert (greedy is not None) == backtracking_simple_elimination(G)
            if greedy is not None:
                assert verify_seo(G, greedy)


def test_sc_greedy_matches_backtracking_random():
    rng = random.Random(59)
    for _ in range(60):
        n = rng.randrange(6, 8)
        G = random_connected_graph(rng, n, extra=rng.randrange(0, n))
        greedy = recognize_strongly_chordal(G)
        assert (greedy is not None) == backtracking_simple_elimination(G)


# ---------------------------------------------------------------------------
# incremental recognizers against the rescanning references


def prune_steps(G):
    """The recognizer's pruning steps up to where they stop, so that a
    non-member shows the steps taken before it gets stuck."""
    state = _Pruning(G)
    steps = []
    while len(steps) < G.n - 1:
        step = state.next_step()
        if step is None:
            break
        steps.append(step)
        state.remove(step.vertex)
    return steps


def assert_same_as_rescan(G):
    seo = recognize_strongly_chordal(G)
    assert seo == rescan_strongly_chordal(G)
    if seo is not None:
        assert verify_seo(G, seo)
    seq = recognize_distance_hereditary(G)
    assert seq == rescan_distance_hereditary(G)
    if seq is not None:
        assert verify_prune_sequence(G, seq)
    assert prune_steps(G) == list(rescan_prune_steps(G))
    return seo is not None, seq is not None


def test_incremental_matches_rescan_random():
    rng = random.Random(2026)
    found_sc = found_dh = 0
    for _ in range(2400):
        n = rng.randrange(1, 12)
        p = rng.random()
        edges = [(u, v) for u, v in itertools.combinations(range(n), 2)
                 if rng.random() < p]
        G = Graph([f"v{j}" for j in range(n)], edges)
        sc, dh = assert_same_as_rescan(G)
        found_sc += sc
        found_dh += dh
    # Both verdicts must be well represented for the comparison to bite.
    assert 400 < found_sc < 2000 and 400 < found_dh < 2000


def generated_instances():
    for n in (12, 60, 200):
        for seed in (1, 2):
            yield gen_distance_hereditary(n, seed)
            yield gen_p4_sparse(n, seed)  # dense, mostly neither class
            yield gen_bipartite_permutation(n // 2, n // 2, seed)
            yield gen_strongly_chordal(n, seed, "interval")
            yield gen_strongly_chordal(n, seed, "block")
            yield gen_random_connected(n, 2 * n, seed)
    for legs in (3, 8, 40):
        yield spider_graph(legs, "thin", head=3)
        yield spider_graph(legs, "thick", head=3)


def test_incremental_matches_rescan_generated():
    verdicts = [assert_same_as_rescan(G) for G in generated_instances()]
    assert {sc for sc, _ in verdicts} == {True, False}
    assert {dh for _, dh in verdicts} == {True, False}


@pytest.mark.parametrize("make", [
    lambda: gen_distance_hereditary(1000, 1),
    lambda: gen_p4_sparse(1000, 1),
    lambda: gen_bipartite_permutation(500, 500, 1),
    lambda: gen_strongly_chordal(1000, 1, "interval"),
    lambda: gen_strongly_chordal(1000, 1, "block"),
    lambda: gen_random_connected(1000, 2000, 1),
    lambda: spider_graph(498, "thin", head=4),
    lambda: spider_graph(498, "thick", head=4),
], ids=["dh", "p4sparse", "bipperm", "sc-interval", "sc-block", "random",
        "spider-thin", "spider-thick"])
def test_incremental_matches_rescan_at_n1000(make):
    G = make()
    assert G.n == 1000
    assert_same_as_rescan(G)


def test_pruning_steps_on_dense_p4_sparse_negatives():
    """Dense P4-sparse graphs are mostly not distance-hereditary, and
    their twins come late in the ascending order: the twin index files
    far up its queue and re-files many vertices whose neighborhoods
    changed before the pruning gets stuck, and every step up to there
    must be the rescan's."""
    twin_steps = 0
    for seed in range(1, 9):
        G = gen_p4_sparse(200, seed)
        steps = prune_steps(G)
        assert steps == list(rescan_prune_steps(G))
        assert len(steps) < G.n - 1
        twin_steps += sum(step.kind != "pendant" for step in steps)
    assert twin_steps >= 50


def test_pruning_files_only_as_far_as_the_first_twin():
    """A cycle on 1..999 plus vertex 0 joined to vertex 1's two
    neighbors: the first twin is 1 with 0, and finding it files only
    vertices 0 and 1, under one closed and one open key each, where an
    index of every vertex would file 2,000 entries."""
    n = 1000
    edges = [(v, v % (n - 1) + 1) for v in range(1, n)] + [(0, 2), (0, n - 1)]
    state = _Pruning(Graph(list(map(str, range(n))), edges))
    assert state.next_step() == PruneStep(1, "false_twin", 0)
    filed = [m.bit_count() for m in (*state.closed.values(),
                                     *state.open.values())]
    assert sum(filed) <= 4


def _simple_chain(masks, alive, v):
    """``_chain_or_witness`` for v in the subgraph induced by ``alive``."""
    shift = len(masks).bit_length()
    cm = {}
    ranked = []
    for u in iter_bits((masks[v] | (1 << v)) & alive):
        cm[u] = closed = (masks[u] | (1 << u)) & alive
        ranked.append(closed.bit_count() << shift | u)
    return _chain_or_witness(cm, ranked, shift)


def test_simple_chain_witness_survives_unrelated_deletions():
    """A non-simple vertex stays non-simple while its witness is alive."""
    rng = random.Random(404)
    checked = 0
    for _ in range(300):
        n = rng.randrange(4, 11)
        G = random_connected_graph(rng, n, extra=rng.randrange(0, 2 * n))
        full = (1 << n) - 1
        for v in range(n):
            chain, witness = _simple_chain(G.adj_masks, full, v)
            assert (chain is None) == (witness != 0)
            if chain is not None:
                continue
            assert 2 <= witness.bit_count() <= 4
            keep = witness | (1 << v)
            for _ in range(5):
                alive = keep | (rng.getrandbits(n) & full)
                assert _simple_chain(G.adj_masks, alive, v)[0] is None
                checked += 1
    assert checked > 500


def test_sc_matches_rescan_on_every_small_graph():
    """Every labeled connected graph up to n = 5, and at least one labeling
    of every isomorphism class at n = 6 and 7 (several for most)."""
    verdicts = Counter()
    for n in range(1, 6):
        for G in all_connected_graphs(n):
            seo = recognize_strongly_chordal(G)
            assert seo == rescan_strongly_chordal(G)
            verdicts[seo is not None] += 1
    for G in itertools.chain(all_connected_graphs(6, degree_sorted=True),
                             extended_graphs(7)):
        seo = recognize_strongly_chordal(G)
        assert seo == rescan_strongly_chordal(G)
        verdicts[seo is not None] += 1
    assert verdicts[True] > 2000 and verdicts[False] > 5000


@pytest.mark.parametrize("make", [
    lambda: gen_strongly_chordal(200, 7, "interval"),
    lambda: gen_strongly_chordal(200, 7, "block"),
    lambda: gen_strongly_chordal(1000, 7, "interval"),
    lambda: gen_strongly_chordal(1000, 7, "block"),
], ids=["interval-200", "block-200", "interval-1000", "block-1000"])
def test_sc_matches_rescan_on_strongly_chordal_generators(make):
    G = make()
    seo = recognize_strongly_chordal(G)
    assert seo is not None and seo == rescan_strongly_chordal(G)


def test_sc_matches_rescan_on_non_chordal_p4_sparse(monkeypatch):
    """These dense graphs have no simplicial vertex, so the two-vertex
    probe settles every test and the chain test never runs."""
    def never(cm, ranked, shift):
        raise AssertionError("chain test on a non-simplicial vertex")

    monkeypatch.setattr(recognizers, "_chain_or_witness", never)
    for seed in (1, 2, 3):
        G = gen_p4_sparse(200, seed)
        assert not is_chordal(G)
        assert recognize_strongly_chordal(G) is None
        assert rescan_strongly_chordal(G) is None


def test_only_simplicial_vertices_reach_the_chain_test(monkeypatch):
    """The two-vertex probe settles every non-simplicial vertex. On this
    interval graph every simplicial vertex tested is also simple, so the
    chain test runs once per vertex; testing every candidate in full made
    4,721 chain tests here. Each failed test files its witness through one
    ``iter_bits`` call; probing from high ids and keeping the highest a
    makes witnesses outlive more eliminations, and so fewer failures
    (probing from low ids, or keeping the lowest a, fails 5,206 times)."""
    chain_test = recognizers._chain_or_witness
    iter_bits = recognizers.iter_bits
    chain_tests = failed_tests = 0

    def counted_chain_test(cm, ranked, shift):
        nonlocal chain_tests
        chain_tests += 1
        ids = (1 << shift) - 1
        closed = sum(1 << (r & ids) for r in ranked)
        assert all(cm[r & ids] & closed == closed for r in ranked)
        return chain_test(cm, ranked, shift)

    def counted_iter_bits(mask):
        nonlocal failed_tests
        failed_tests += 1
        return iter_bits(mask)

    monkeypatch.setattr(recognizers, "_chain_or_witness", counted_chain_test)
    monkeypatch.setattr(recognizers, "iter_bits", counted_iter_bits)
    G = gen_strongly_chordal(1000, 1, "interval")
    seo = recognize_strongly_chordal(G)
    assert (chain_tests, failed_tests) == (1000, 1595)
    assert seo is not None and verify_seo(G, seo)


# ---------------------------------------------------------------------------
# cross-class sanity on random graphs


@st.composite
def seeded_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    extra = draw(st.integers(min_value=0, max_value=n))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    return random_connected_graph(random.Random(seed), n, extra=extra)


@settings(max_examples=50, deadline=None)
@given(seeded_graphs())
def test_yes_answers_always_carry_valid_certificates(G):
    dh = recognize_distance_hereditary(G)
    if dh is not None:
        assert verify_prune_sequence(G, dh)
    seo = recognize_strongly_chordal(G)
    if seo is not None:
        assert verify_seo(G, seo)
    bp = recognize_bipartite_permutation(G)
    if bp.verdict == "yes":
        assert verify_strong_ordering(G, bp.ordering)
