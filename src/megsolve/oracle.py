"""Exhaustive ground-truth computation of minimum MEG sets.

One search, ``_search``, reads ascending adjacency lists, forces a base
set in and enumerates subsets of a pool by increasing cardinality and,
inside each cardinality, in lexicographic order, so the first hit is a
canonical witness. Raw mode, ``all_min_meg_sets`` and
``mandatory_bruteforce`` work on all of G, so the size limit bounds n.
Trusted mode, ``solve_by_cut_decomposition``, searches each block's
own lists (``local_adjacency`` of its ``block_edges``), and the limit
bounds each block's pool.
The kernel, ``_covering_subsets``, walks the subsets of one size, and
subsets share the union of their common prefix. It is bit-sliced
(``_pack`` and ``_covering_subsets`` say how): one packed test covers
every choice of the last position. Only prefixes with three or more
positions left are stack frames; a frame's last three positions run
inline, as two nested loops around that test. It tests every subset,
prunes none, and yields hits in combinations order; ``explored`` is
counted from the witness (``_rank``), not walked.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain

from .errors import LimitExceededError
from .graph_core import (Graph, articulation_points, block_edges, blocks,
                         local_adjacency, non_cut_vertices, vertex_set)
from .monitoring import (geodesic_edge_rows, is_meg_set, mandatory_vertices,
                         require_meg_input)

DEFAULT_VERTEX_LIMIT = 12


@dataclass(frozen=True)
class OracleResult:
    meg: int
    witness: tuple[int, ...]
    explored: int
    trusted_bounds: bool


def _check_size(size: int, limit: int | None) -> None:
    limit = DEFAULT_VERTEX_LIMIT if limit is None else limit
    if size > limit:
        raise LimitExceededError("brute-force oracle", size, limit)


def _rank(n: int, picked, first: int) -> int:
    """The 1-based place of ``picked`` (k ascending positions) in a walk
    over the subsets of ``range(n)`` by size from ``first`` on, each size
    in combinations order: the walk up to size k less, for each index i,
    the C(n - 1 - c, k - i) later subsets that first differ at c = picked[i].
    """
    k = len(picked)
    return sum(math.comb(n, e) for e in range(first, k + 1)) - sum(
        math.comb(n - 1 - c, k - i) for i, c in enumerate(picked))


def _pair_cover_masks(adj, base, pool):
    """The edge masks the search reads over adjacency lists ``adj``, bits
    as in ``geodesic_edge_rows``: (full mask, ``acc0``, ``seeds``, ``pair``).
    ``acc0`` holds the edges that pairs of ``base`` monitor, ``seeds[i]``
    those that ``pool[i]`` monitors with some base vertex, and
    ``pair[i][j]`` those that ``pool[i]`` and ``pool[j]`` monitor.

    Read off ``geodesic_edge_rows``: one BFS per vertex of base and
    pool, each row dropped once read.
    """
    acc0, seeds, pair = 0, [], []
    for i, row in enumerate(geodesic_edge_rows(adj, (*base, *pool))):
        with_base = 0
        for b in base:
            with_base |= row[b]
        if i < len(base):
            acc0 |= with_base
        else:
            seeds.append(with_base)
            pair.append([row[v] for v in pool])
    return (1 << sum(map(len, adj)) // 2) - 1, acc0, seeds, pair


def _pack(pair, seeds, full: int):
    """Pack the search over positions ``0 .. len(pair) - 1`` once, for
    every subset size: returns (full, w, ones, rows, tails).

    A field is w = m + 1 bits, where ``full`` is ``2**m - 1`` and every
    mask lies within it, and a packed int holds field i at bits
    w*i .. w*i + m, its top bit a guard that stays 0. ``ones[L]`` has a 1
    in each of fields 0 .. L - 1. ``rows[p]`` packs ``pair[p][q]`` for
    every q > p at field q - p - 1, and ``tails`` packs ``seeds[q]`` at
    field q.
    """
    n = len(pair)
    w = full.bit_length() + 1
    ones = [sum(1 << w * i for i in range(L)) for L in range(n + 1)]
    rows = [sum(pair[p][q] << w * (q - p - 1) for q in range(p + 1, n))
            for p in range(n)]
    tails = sum(seed << w * q for q, seed in enumerate(seeds))
    return full, w, ones, rows, tails


def _covering_subsets(packed, acc0: int, size: int):
    """Every ``size``-subset P of the positions packed by ``_pack`` whose
    coverage ``acc0 | OR seeds[p] | OR pair[p][q]`` (p, q in P) is
    ``full``.

    Yields each such P as a tuple, in ``itertools.combinations`` order.
    Every subset is tested.

    A prefix keeps its coverage ``acc`` and ``tails``, whose field i is
    what position ``start + i`` would add to it. The child that appends
    p = start + i takes ``acc`` plus field i, and ``tails`` shifted past
    field i ORed with ``rows[p]``, so that its field 0 is again position
    p + 1.

    Only prefixes with three or more positions left are frames of the
    iterative walk; no frame is pushed for a prefix with two left. A
    frame carries its depth and last position (-1 at
    the root); ``path[d]`` holds the position taken at depth d, so the
    prefix of the frame being walked is ``path[1 : depth + 1]``. Frames
    pop in lexicographic order of their prefixes, so each pop overwrites
    only entries of prefixes already done. A frame with three positions
    left walks its children p and grandchildren q in two nested loops
    and pushes nothing; size 2 walks the root's children the same way.

    Grandchild q, with L positions after it, holds the next L subsets,
    which differ in their last position only. Field i of its
    ``tails | rows[q] | acc * ones[L]`` is the coverage of the i-th, and
    adding ``ones[L]`` carries into the guard bit of field i exactly when
    that coverage is all ones; the guard was 0, so no carry reaches field
    i + 1. The guard bits, shifted down by m, are the hits; reading them
    lowest first keeps combinations order.
    """
    full, w, ones, rows, tails = packed
    m = w - 1
    n = len(rows)
    if size <= 1:
        # The empty set, or the one-position subsets of the root.
        if size == 0:
            if acc0 == full:
                yield ()
            return
        o = ones[n]
        hits = ((tails | acc0 * o) + o) >> m & o
        while hits:
            low = hits & -hits
            yield (low.bit_length() - 1) // w,
            hits ^= low
        return
    # (rows[q], ones[L]) of the last two positions' loop, L = n - 1 - q.
    leaves = [(rows[q], ones[n - 1 - q]) for q in range(n - 1)]
    if size == 2:
        for p, (row, o) in enumerate(leaves):
            a = acc0 | tails & full
            tails >>= w
            hits = ((tails | row | a * o) + o) >> m & o
            while hits:
                low = hits & -hits
                yield p, p + 1 + (low.bit_length() - 1) // w
                hits ^= low
        return
    path = [0] * (size - 2)
    stack = [(acc0, tails, -1, 0)]
    while stack:
        acc, tails, last, depth = stack.pop()
        path[depth] = last
        start = last + 1
        left = size - depth
        if left > 3:
            # Children pushed last-first, so they pop in ascending order.
            for i in range(n - start - left, -1, -1):
                p = start + i
                stack.append((acc | tails >> w * i & full,
                              tails >> w * (i + 1) | rows[p], p, depth + 1))
            continue
        for p in range(start, n - 2):
            a1 = acc | tails & full
            tails >>= w
            t1 = tails | rows[p]
            for row, o in leaves[p + 1:]:
                a = a1 | t1 & full
                t1 >>= w
                hits = ((t1 | row | a * o) + o) >> m & o
                while hits:
                    # o = ones[L] ends in field L - 1, and q = n - 1 - L.
                    q = n - 2 - (o.bit_length() - 1) // w
                    low = hits & -hits
                    yield (*path[1:depth + 1], p, q,
                           q + 1 + (low.bit_length() - 1) // w)
                    hits ^= low


def _search(adj, base: tuple[int, ...], pool):
    """The one search, over adjacency lists ``adj``: ``base`` plus ``extra``
    vertices of ``pool``, by increasing ``extra``, packed once. Returns the
    ``_covering_subsets`` hits (positions in ``pool``) of the least
    ``extra`` that has any; sizes that leave |S| < 2 are not tested.
    """
    full, acc0, seeds, pair = _pair_cover_masks(adj, base, pool)
    packed = _pack(pair, seeds, full)
    for extra in range(max(0, 2 - len(base)), len(pool) + 1):
        hits = _covering_subsets(packed, acc0, extra)
        hit = next(hits, None)
        if hit is not None:
            return chain((hit,), hits)
    raise AssertionError("base and pool together must form an MEG set")


def solve_by_cut_decomposition(G: Graph,
                               oracle_limit: int | None = None) -> tuple[int, ...]:
    """The first minimum MEG set in combinations order, found one block
    (biconnected component or bridge) at a time.

    S is an MEG set iff, for every block B, B's cut vertices plus S inside
    B monitor every edge of G[B]: shortest paths between vertices of B
    stay in B; a vertex beyond a cut vertex c of B meets B through c, so c
    stands in for it; and each side hanging at c holds a leaf block, whose
    own test needs a vertex of S there. Cut vertices in S add nothing and
    each non-cut vertex lies in one block, so the minimum MEG sets are the
    unions of one minimum X_B of non-cut vertices per block. All contain
    M, so each block forces ``base`` (its cut vertices and M in it) and
    pools the rest; an empty pool costs no BFS. Every pool is checked
    against ``oracle_limit`` before any search. Of two sets of equal size,
    A comes first iff min(A ^ B) is in A; for the union U of the first
    hits and any other minimum V, min(U ^ V) lies in the pool of a block
    where they differ, so in its first hit (local ids keep G's order).
    """
    require_meg_input(G)
    forced = set(articulation_points(G)).union(mandatory_vertices(G))
    searches = [(ids, tuple(i for i, v in enumerate(ids) if v in forced),
                 tuple(i for i, v in enumerate(ids) if v not in forced))
                for ids in map(vertex_set, blocks(G))]
    _check_size(max(len(pool) for _, _, pool in searches), oracle_limit)
    found = set(mandatory_vertices(G))
    if any(pool for _, _, pool in searches):  # else no block is searched
        for (ids, base, pool), edges in zip(searches, block_edges(G)):
            if pool:
                hits = next(_search(local_adjacency(ids, edges), base, pool))
                found.update(ids[pool[p]] for p in hits)
    return vertex_set(found)


def min_meg_bruteforce(G: Graph, trust_bounds: bool = True,
                       limit: int | None = None) -> OracleResult:
    """The first minimum MEG set W in combinations order, by the block
    search (trusted) or by search over every vertex subset (raw).

    ``explored`` is W's place (``_rank``) in a walk over a pool P: V from
    size 2 (raw) or the non-cut vertices outside M from size 0 (trusted).
    Trusted mode counts it without walking, so where the blocks fit the
    limit but P does not it can exceed any possible walk.
    """
    require_meg_input(G)
    if trust_bounds:
        S = solve_by_cut_decomposition(G, limit)
        M = set(mandatory_vertices(G))
        pool, first = [v for v in non_cut_vertices(G) if v not in M], 0
    else:
        _check_size(G.n, limit)
        M, pool, first = (), range(G.n), 2
        S = next(_search(G.adj, M, pool))
    pos = [bisect_left(pool, v) for v in S if v not in M]
    return OracleResult(len(S), S, _rank(len(pool), pos, first), trust_bounds)


def mandatory_bruteforce(G: Graph, v: int, limit: int | None = None) -> bool:
    """Definition-level mandatory test: V minus {v} fails as an MEG set.

    ``is_meg_set`` skips every edge with both ends in V minus {v}, so only
    the edges at v are searched for an uncovered one.
    """
    require_meg_input(G)
    _check_size(G.n, limit)
    if not 0 <= v < G.n:
        raise ValueError("vertex id out of range")
    rest = tuple(x for x in range(G.n) if x != v)
    return not is_meg_set(G, rest).ok


def all_min_meg_sets(G: Graph, limit: int | None = None) -> list[tuple[int, ...]]:
    """Every minimum MEG set, in lexicographic order.

    Raw enumeration without sandwich-bound pruning, so results can serve
    as an independent check of those bounds.
    """
    require_meg_input(G)
    _check_size(G.n, limit)
    return list(_search(G.adj, (), range(G.n)))
