"""Exhaustive ground-truth computation of minimum MEG sets.

The oracle enumerates candidate subsets by increasing cardinality and, inside
each cardinality, in lexicographic order, so the first hit is a canonical
witness. Per-pair edge coverage comes from
``monitoring.geodesic_edge_masks``, which agrees with the edge-deletion
definition of ``monitoring.monitors``; it is precomputed once per graph so
subset tests reduce to bitmask unions. One iterative kernel,
``_covering_subsets``, walks the subsets of one size and keeps the union of
each prefix, so consecutive subsets share the work of their common prefix.

The kernel is bit-sliced. With m edges, a field is w = m + 1 bits: m
coverage bits and a guard bit on top that stays 0. ``_pack`` builds the
packed rows once per search, and every size is walked from them. A frame
keeps, for each later position, the pairs that position would add to its
prefix, packed as one int with field i for the i-th later position; the
prefix itself lives in one path array indexed by depth. A child frame is
two shifts and an OR. A frame two positions short of the size pushes no
children: it walks them in one loop, and each child tests all its subsets
with one addition: adding 1 to every field carries into a field's guard
bit exactly when that field is all ones, and never beyond it, so the guard
bits mark the covering subsets. Hits are read off lowest field first,
which is the order in which the subsets are counted, so ranks,
``explored`` and witnesses are those of a subset-by-subset scan. It tests
every subset it counts; it prunes none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import LimitExceededError
from .graph_core import Graph, non_cut_vertices
from .monitoring import (geodesic_edge_masks, is_meg_set, mandatory_vertices,
                         require_meg_input)

DEFAULT_VERTEX_LIMIT = 12


@dataclass(frozen=True)
class OracleResult:
    meg: int
    witness: tuple[int, ...]
    explored: int
    trusted_bounds: bool


def _check_size(G: Graph, limit: int | None) -> int:
    limit = DEFAULT_VERTEX_LIMIT if limit is None else limit
    if G.n > limit:
        raise LimitExceededError("brute-force oracle", G.n, limit)
    return limit


def _pair_cover_masks(G: Graph) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """For every vertex pair (a, b), the bitmask ``rows[a][b]`` of the edges
    it monitors (bit i is ``G.edges()[i]``; 0 when it monitors none).

    Read off ``geodesic_edge_masks``, which agrees with the edge-deletion
    definition. Returns (full coverage mask, rows).
    """
    return (1 << G.m) - 1, geodesic_edge_masks(G)


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

    Yields (rank, P) with rank the 1-based place of P among all
    ``size``-subsets in ``itertools.combinations`` order, which is also
    the order of the hits. Every subset is tested.

    Each frame of the iterative walk holds one prefix: its coverage
    ``acc`` and ``tails``, whose field i is what position ``start + i``
    would add to it. The child that appends p = start + i takes ``acc``
    plus field i, and ``tails`` shifted past field i ORed with
    ``rows[p]``, so that its field 0 is again position p + 1. A frame
    carries only its depth and last position (-1 at the root);
    ``path[d]`` holds the position taken at depth d, so the prefix of the
    frame being walked is ``path[1 : depth + 1]``. Frames pop in lexicographic order of their
    prefixes, so each pop overwrites only entries of prefixes already done.

    A frame with two positions left walks its children itself and pushes
    none. Child p, with L positions after it, holds the next L subsets,
    which differ in their last position only. Field i of the child's
    ``tails | acc * ones[L]`` is the coverage of the i-th, and adding
    ``ones[L]`` carries into the guard bit of field i exactly when that
    coverage is all ones; the guard was 0, so no carry reaches field
    i + 1. The guard bits, shifted down by m, are the hits; the i-th has
    rank ``rank + i + 1``, and reading the hits lowest first keeps
    combinations order.
    """
    full, w, ones, rows, tails = packed
    m = w - 1
    n = len(rows)
    if size <= 1:
        # The empty set, or the one-position subsets of the root.
        if size == 0:
            if acc0 == full:
                yield 1, ()
            return
        o = ones[n]
        hits = ((tails | acc0 * o) + o) >> m & o
        while hits:
            low = hits & -hits
            i = (low.bit_length() - 1) // w
            yield i + 1, (i,)
            hits ^= low
        return
    rank = 0
    path = [0] * (size + 1)
    stack = [(acc0, tails, -1, 0)]
    while stack:
        acc, tails, last, depth = stack.pop()
        path[depth] = last
        start = last + 1
        left = size - depth
        if left == 2:
            for p in range(start, n - 1):
                a = acc | tails & full
                tails >>= w
                L = n - 1 - p
                o = ones[L]
                hits = ((tails | rows[p] | a * o) + o) >> m & o
                while hits:
                    low = hits & -hits
                    i = (low.bit_length() - 1) // w
                    yield rank + i + 1, (*path[1:depth + 1], p, p + 1 + i)
                    hits ^= low
                rank += L
            continue
        # Children pushed last-first, so they pop in ascending order.
        for i in range(n - start - left, -1, -1):
            p = start + i
            stack.append((acc | tails >> w * i & full,
                          tails >> w * (i + 1) | rows[p], p, depth + 1))


def min_meg_bruteforce(G: Graph, trust_bounds: bool = True,
                       limit: int | None = None) -> OracleResult:
    """Minimum MEG set by subset search.

    With ``trust_bounds`` the search is restricted to supersets of the
    mandatory vertices within the non-cut vertices; both modes return the
    same minimum cardinality. ``explored`` counts the subsets walked up to
    and including the witness: in trusted mode every combination of pool
    vertices from size 0 on (those leaving |S| < 2 are counted, not
    tested), in raw mode every vertex subset from size 2 on.
    """
    require_meg_input(G)
    _check_size(G, limit)
    full, rows = _pair_cover_masks(G)
    explored = 0
    if trust_bounds:
        base = mandatory_vertices(G)
        pool = [v for v in non_cut_vertices(G) if v not in base]
        acc0 = 0
        for i, a in enumerate(base):
            for b in base[i + 1:]:
                acc0 |= rows[a][b]
        seeds = []
        for v in pool:
            seed = 0
            for b in base:
                seed |= rows[v][b]
            seeds.append(seed)
        packed = _pack([[rows[v][w] for w in pool] for v in pool], seeds,
                       full)
        for extra in range(len(pool) + 1):
            if len(base) + extra >= 2:
                hit = next(_covering_subsets(packed, acc0, extra), None)
                if hit is not None:
                    rank, picked = hit
                    S = tuple(sorted(base + tuple(pool[p] for p in picked)))
                    return OracleResult(len(S), S, explored + rank, True)
            explored += math.comb(len(pool), extra)
        raise AssertionError("no MEG set found inside sandwich bounds")
    packed = _pack(rows, [0] * G.n, full)
    for size in range(2, G.n + 1):
        hit = next(_covering_subsets(packed, 0, size), None)
        if hit is not None:
            rank, combo = hit
            return OracleResult(size, combo, explored + rank, False)
        explored += math.comb(G.n, size)
    raise AssertionError("V itself must be an MEG set")


def mandatory_bruteforce(G: Graph, v: int, limit: int | None = None) -> bool:
    """Definition-level mandatory test: V minus {v} fails as an MEG set.

    ``is_meg_set`` skips every edge with both ends in V minus {v}, so only
    the edges at v are searched for an uncovered one.
    """
    require_meg_input(G)
    _check_size(G, limit)
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
    _check_size(G, limit)
    full, rows = _pair_cover_masks(G)
    packed = _pack(rows, [0] * G.n, full)
    for size in range(2, G.n + 1):
        hits = [combo for _, combo in _covering_subsets(packed, 0, size)]
        if hits:
            return hits
    raise AssertionError("V itself must be an MEG set")
