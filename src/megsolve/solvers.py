"""MEG-number solvers dispatched by recognized graph class.

Two closed-form routes exist: cut-based (witness = all non-cut vertices;
valid for distance-hereditary and bipartite permutation graphs) and
mandatory-based (witness = the mandatory vertices; valid for strongly
chordal and P4-sparse graphs). A structural solver handles P4-sparse
graphs by case analysis on the complement, and a decomposition solver
splits on cut vertices without claiming minimality.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from .errors import MethodMismatchError, NotConnectedError, NotP4SparseError
from .graph_core import (Graph, articulation_points, bfs_distances,
                         co_components, connected_components,
                         induced_subgraph, is_connected, vertex_set)
from .monitoring import Bounds, bounds, mandatory_vertices, require_meg_input
from .oracle import DEFAULT_VERTEX_LIMIT, min_meg_bruteforce
from .recognizers import (StrongOrdering, recognize_bipartite_permutation,
                          recognize_distance_hereditary, recognize_p4_sparse,
                          recognize_strongly_chordal, spider_by_degrees,
                          verify_strong_ordering)

METHODS = ("auto", "cut", "mandatory", "structural", "oracle", "decomposition")


@dataclass
class MegResult:
    """Solver outcome: which class and method produced which answer."""

    class_used: str
    method: str
    meg: int | None
    witness: tuple[int, ...] | None
    elapsed: float
    minimality_guaranteed: bool
    bounds: Bounds | None = None


def _cut_witness(G: Graph) -> tuple[int, ...]:
    cut = set(articulation_points(G))
    return tuple(v for v in range(G.n) if v not in cut)


def solve_cut_based(G: Graph) -> MegResult:
    """Minimum MEG set = all non-cut vertices.

    Valid on distance-hereditary and bipartite permutation graphs; the
    input must be recognized as one of the two.
    """
    require_meg_input(G)
    t0 = time.perf_counter()
    if recognize_distance_hereditary(G) is not None:
        cls = "distance_hereditary"
    else:
        bp = recognize_bipartite_permutation(G)
        if bp.verdict != "yes":
            raise MethodMismatchError(
                "cut-based solving needs a distance-hereditary or bipartite "
                f"permutation graph (distance-hereditary: no, "
                f"bipartite permutation: {bp.verdict})")
        cls = "bipartite_permutation"
    witness = _cut_witness(G)
    return MegResult(cls, "cut_based", len(witness), witness,
                     time.perf_counter() - t0, True)


def solve_mandatory_based(G: Graph) -> MegResult:
    """Minimum MEG set = the mandatory vertices.

    Valid on strongly chordal and P4-sparse graphs; the input must be
    recognized as one of the two.
    """
    require_meg_input(G)
    t0 = time.perf_counter()
    if recognize_strongly_chordal(G) is not None:
        cls = "strongly_chordal"
    elif recognize_p4_sparse(G):
        cls = "p4_sparse"
    else:
        raise MethodMismatchError(
            "mandatory-based solving needs a strongly chordal or P4-sparse "
            "graph (strongly chordal: no, p4-sparse: no)")
    witness = mandatory_vertices(G)
    return MegResult(cls, "mandatory_based", len(witness), witness,
                     time.perf_counter() - t0, True)


def ecc_le2_exists(G: Graph) -> tuple[bool, int | None]:
    """Does some vertex reach every other vertex within two hops?"""
    if G.n >= 2 and not is_connected(G):
        raise NotConnectedError("eccentricity check needs a connected graph")
    for u in range(G.n):
        if max(bfs_distances(G, u)) <= 2:
            return True, u
    return False, None


def solve_p4_structural(G: Graph) -> MegResult:
    """Case analysis on the complement for P4-sparse-shaped graphs.

    With k >= 2 co-components the graph is a join and the join rules give
    the answer outright; those rules hold for arbitrary connected graphs,
    so this route also solves join-shaped inputs that are not P4-sparse
    (class_used then reports "p4_shape"). With a connected complement
    the graph must be a spider (legs plus head), otherwise it is not
    P4-sparse and the solver refuses. The spider comes from the degree
    rules alone (``spider_by_degrees``): legs and body of a spider are
    fixed by their degrees, so no exhaustive search is needed.
    """
    require_meg_input(G)
    t0 = time.perf_counter()
    cls = "p4_sparse" if recognize_p4_sparse(G) else "p4_shape"
    everyone = tuple(range(G.n))
    cos = co_components(G)
    witness: tuple[int, ...]
    if len(cos) >= 2:
        singles = [c for c in cos if len(c) == 1]
        nontrivial = [c for c in cos if len(c) > 1]
        if len(nontrivial) >= 2 or len(singles) >= 2:
            # Join of two nontrivial graphs, or two universal vertices:
            # every vertex is mandatory.
            witness = everyone
        else:
            v = singles[0][0]
            core = induced_subgraph(G, nontrivial[0])
            rest = tuple(x for x in everyone if x != v)
            if not is_connected(core):
                witness = rest
            else:
                near, _ = ecc_le2_exists(core)
                witness = everyone if near else rest
    else:
        part = spider_by_degrees(G)
        if part is None:
            raise NotP4SparseError(
                "connected complement but no spider partition; "
                "graph is not P4-sparse")
        if part.kind == "thin" or len(part.c_vertices) == 2:
            witness = vertex_set(part.s_vertices + part.r_vertices)
        else:
            witness = everyone
    return MegResult(cls, "p4_structural", len(witness), witness,
                     time.perf_counter() - t0, True)


def cut_vertices_via_strong_ordering(G: Graph, so: StrongOrdering) -> tuple[int, ...]:
    """Cut vertices among the interim vertices of a strong ordering.

    An interim vertex u (neither first nor last on its side) fails to be a
    cut vertex exactly when some neighbor's neighborhood straddles u on
    both sides. The ordering is re-verified before use.
    """
    require_meg_input(G)
    if not verify_strong_ordering(G, so):
        raise ValueError("ordering failed strong-ordering verification")
    result = []
    for side in (so.x_order, so.y_order):
        pos = {v: i for i, v in enumerate(side)}
        for idx in range(1, len(side) - 1):
            u = side[idx]
            straddled = any(
                pos[so.first[w]] < idx < pos[so.last[w]]
                for w in G.adj[u])
            if not straddled:
                result.append(u)
    return tuple(sorted(result))


def _default_piece_solver(oracle_limit: int | None) -> Callable[[Graph], tuple[int, ...]]:
    def solve_piece(H: Graph) -> tuple[int, ...]:
        res = solve(H, method="auto", oracle_limit=oracle_limit)
        if res.witness is None:
            raise MethodMismatchError(
                f"decomposition piece with {H.n} vertices has no applicable "
                "solver")
        return res.witness
    return solve_piece


def solve_by_cut_decomposition(
        G: Graph,
        piece_solver: Callable[[Graph], tuple[int, ...]] | None = None,
        oracle_limit: int | None = None) -> tuple[int, ...]:
    """Assemble an MEG set by splitting on cut vertices.

    Each cut vertex v splits the graph into pieces (component plus v);
    piece solutions are merged and v is dropped. The result is a valid
    MEG set but carries no minimality claim. Piece-solver failures
    propagate.
    """
    require_meg_input(G)
    if piece_solver is None:
        piece_solver = _default_piece_solver(oracle_limit)
    return _decompose(G, piece_solver)


def _decompose(G: Graph, piece_solver) -> tuple[int, ...]:
    """Split pieces at their lowest cut vertex until none is left.

    Pieces are kept on an explicit stack in depth-first order, so deep
    block trees such as long paths need no recursion, and piece_solver
    sees the pieces in the same order as a recursive walk. The answer is
    every label some final piece's solution holds, minus every split
    vertex. That equals merging piece solutions bottom-up and dropping
    each split vertex at its own split: a split puts every vertex but the
    split one into exactly one piece, so a final piece holding a split
    vertex always lies below a split at that vertex.
    """
    found: set[str] = set()
    split: set[str] = set()
    stack = [G]
    while stack:
        H = stack.pop()
        aps = articulation_points(H)
        if not aps:
            found.update(H.labels_of(piece_solver(H)))
            continue
        v = aps[0]
        split.add(H.labels[v])
        rest = [u for u in range(H.n) if u != v]
        shards = connected_components(induced_subgraph(H, rest))
        for shard in reversed(shards):
            members = sorted([rest[i] for i in shard] + [v])
            stack.append(induced_subgraph(H, members))
    return vertex_set(G.id_of(label) for label in found - split)


def solve(G: Graph, method: str = "auto",
          oracle_limit: int | None = None) -> MegResult:
    """Top-level dispatcher.

    Auto mode tries recognizers in order distance-hereditary, bipartite
    permutation, strongly chordal, P4-sparse, then falls back to the
    brute-force oracle on small graphs, and finally to sandwich bounds
    only. Forced methods raise MethodMismatchError when the input is not
    recognized for them.
    """
    require_meg_input(G)
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    limit = DEFAULT_VERTEX_LIMIT if oracle_limit is None else oracle_limit
    t0 = time.perf_counter()
    if method == "cut":
        return solve_cut_based(G)
    if method == "mandatory":
        return solve_mandatory_based(G)
    if method == "structural":
        return solve_p4_structural(G)
    if method == "oracle":
        res = min_meg_bruteforce(G, trust_bounds=True, limit=limit)
        return MegResult("none", "oracle", res.meg, res.witness,
                         time.perf_counter() - t0, True)
    if method == "decomposition":
        witness = solve_by_cut_decomposition(G, oracle_limit=limit)
        return MegResult("none", "decomposition", len(witness), witness,
                         time.perf_counter() - t0, False)

    if recognize_distance_hereditary(G) is not None:
        witness = _cut_witness(G)
        return MegResult("distance_hereditary", "cut_based", len(witness),
                         witness, time.perf_counter() - t0, True)
    if recognize_bipartite_permutation(G).verdict == "yes":
        witness = _cut_witness(G)
        return MegResult("bipartite_permutation", "cut_based", len(witness),
                         witness, time.perf_counter() - t0, True)
    if recognize_strongly_chordal(G) is not None:
        witness = mandatory_vertices(G)
        return MegResult("strongly_chordal", "mandatory_based", len(witness),
                         witness, time.perf_counter() - t0, True)
    if recognize_p4_sparse(G):
        witness = mandatory_vertices(G)
        return MegResult("p4_sparse", "mandatory_based", len(witness),
                         witness, time.perf_counter() - t0, True)
    if G.n <= limit:
        res = min_meg_bruteforce(G, trust_bounds=True, limit=limit)
        return MegResult("none", "oracle", res.meg, res.witness,
                         time.perf_counter() - t0, True)
    return MegResult("none", "none", None, None,
                     time.perf_counter() - t0, False, bounds=bounds(G))
