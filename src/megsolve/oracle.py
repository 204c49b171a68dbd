"""Exhaustive ground-truth computation of minimum MEG sets.

The oracle enumerates candidate subsets by increasing cardinality and, inside
each cardinality, in lexicographic order, so the first hit is a canonical
witness. Per-pair edge coverage comes from
``monitoring.geodesic_edge_masks``, which agrees with the edge-deletion
definition of ``monitoring.monitors``; it is precomputed once per graph so
subset tests reduce to bitmask unions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import LimitExceededError
from .graph_core import Graph, articulation_points
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


def _pair_cover_masks(G: Graph) -> tuple[int, dict[tuple[int, int], int]]:
    """For every vertex pair that monitors some edge, the bitmask of those
    edges (bit i is ``G.edges()[i]``).

    Read off ``geodesic_edge_masks``, which agrees with the edge-deletion
    definition. Returns (full coverage mask, pair -> mask).
    """
    must = geodesic_edge_masks(G)
    cover = {(s, t): must[s][t]
             for s in range(G.n) for t in range(s + 1, G.n) if must[s][t]}
    return (1 << G.m) - 1, cover


def _covers_all(S: tuple[int, ...], full: int,
                cover: dict[tuple[int, int], int]) -> bool:
    got = 0
    for i, a in enumerate(S):
        for b in S[i + 1:]:
            got |= cover.get((a, b), 0)
            if got == full:
                return True
    return got == full


def min_meg_bruteforce(G: Graph, trust_bounds: bool = True,
                       limit: int | None = None) -> OracleResult:
    """Minimum MEG set by subset search.

    With ``trust_bounds`` the search is restricted to supersets of the
    mandatory vertices within the non-cut vertices; both modes return the
    same minimum cardinality.
    """
    require_meg_input(G)
    _check_size(G, limit)
    full, cover = _pair_cover_masks(G)
    explored = 0
    if trust_bounds:
        base = mandatory_vertices(G)
        cut = set(articulation_points(G))
        pool = [v for v in range(G.n)
                if v not in cut and v not in base]
        for extra in range(len(pool) + 1):
            for combo in itertools.combinations(pool, extra):
                S = tuple(sorted(base + combo))
                explored += 1
                if len(S) >= 2 and _covers_all(S, full, cover):
                    return OracleResult(len(S), S, explored, True)
        raise AssertionError("no MEG set found inside sandwich bounds")
    for size in range(2, G.n + 1):
        for combo in itertools.combinations(range(G.n), size):
            explored += 1
            if _covers_all(combo, full, cover):
                return OracleResult(size, combo, explored, False)
    raise AssertionError("V itself must be an MEG set")


def mandatory_bruteforce(G: Graph, v: int, limit: int | None = None) -> bool:
    """Definition-level mandatory test: V minus {v} fails as an MEG set."""
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
    full, cover = _pair_cover_masks(G)
    for size in range(2, G.n + 1):
        hits = [combo for combo in itertools.combinations(range(G.n), size)
                if _covers_all(combo, full, cover)]
        if hits:
            return hits
    raise AssertionError("V itself must be an MEG set")
