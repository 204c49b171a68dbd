"""MEG-number solvers dispatched by recognized graph class.

One closed form serves every exact route: on distance-hereditary,
bipartite permutation, strongly chordal and P4-sparse graphs, and on the
join and spider shapes, the minimum MEG set is the set M of mandatory
vertices. ``ROUTES`` serves auto mode, the forced ``cut`` and
``mandatory`` methods and the ``recognize`` command. The method labels
``cut_based``, ``mandatory_based`` and ``p4_structural`` are kept for
report compatibility. The trusted oracle's block search serves auto
mode's fallback and the ``oracle`` and ``decomposition`` methods.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import LimitExceededError, MethodMismatchError, NotP4SparseError
from .graph_core import Graph
from .monitoring import Bounds, bounds, mandatory_vertices, require_meg_input
from .oracle import solve_by_cut_decomposition
from .recognizers import (SEO, PruneSequence, StrongOrdering, _neighbor_ends,
                          _p4_stuck, recognize_bipartite_permutation,
                          recognize_distance_hereditary, recognize_p4_sparse,
                          recognize_strongly_chordal)

METHODS = ("auto", "cut", "mandatory", "structural", "oracle", "decomposition")

# (class, display name, method label, recognize report key, recognizer,
# certificate writer or None), in the order auto mode and ``recognize``
# try them. A recognizer returns its answer, falsy for "no". Recognizers,
# like ``mandatory_vertices`` in ``_walk_routes``, are looked up by
# module-global name on each call, so a tracer that rebinds those names
# sees every call.
ROUTES = (
    ("distance_hereditary", "distance-hereditary", "cut_based",
     "distanceHereditary", lambda G: recognize_distance_hereditary(G),
     PruneSequence.to_json),
    ("bipartite_permutation", "bipartite permutation", "cut_based",
     "bipartitePermutation",
     lambda G: recognize_bipartite_permutation(G).ordering,
     StrongOrdering.to_json),
    ("strongly_chordal", "strongly chordal", "mandatory_based",
     "stronglyChordal", lambda G: recognize_strongly_chordal(G), SEO.to_json),
    ("p4_sparse", "P4-sparse", "mandatory_based", "p4Sparse",
     lambda G: recognize_p4_sparse(G), None),
)


@dataclass
class MegResult:
    """Solver outcome: which class and method produced which answer."""

    class_used: str
    method: str
    meg: int | None
    witness: tuple[int, ...] | None
    minimality_guaranteed: bool
    bounds: Bounds | None = None


def _walk_routes(G: Graph, form: str | None) -> MegResult | None:
    """Solve G by the first route that recognizes it, trying every route
    (``form`` None) or only those labelled ``form``. Every route answers
    with the mandatory vertices.

    When none recognizes G, auto mode gets None and a forced closed form
    raises ``MethodMismatchError`` naming each class it tried.
    """
    tried = []
    for cls, name, label, _, recognize, _ in ROUTES:
        if form is not None and label != form:
            continue
        if recognize(G):
            witness = mandatory_vertices(G)
            return MegResult(cls, label, len(witness), witness, True)
        tried.append(name)
    if form is None:
        return None
    raise MethodMismatchError(
        f"{form.replace('_', '-')} solving needs a {' or '.join(tried)} graph "
        f"({', '.join(f'{name}: no' for name in tried)})")


def solve_p4_structural(G: Graph) -> MegResult:
    """Minimum MEG set of a join, or of a spider found by the degree rules
    (``_spider_masks``): the mandatory vertices.

    One ``_p4_stuck`` walk decides both: other graphs are refused, and
    the join and spider cases hold for any core or head, so shapes that
    are not P4-sparse are solved too (class_used "p4_shape").
    """
    require_meg_input(G)
    stuck = _p4_stuck(G)
    if stuck == (1 << G.n) - 1:
        raise NotP4SparseError(
            "connected complement but no spider partition; "
            "graph is not P4-sparse")
    witness = mandatory_vertices(G)
    return MegResult("p4_shape" if stuck else "p4_sparse", "p4_structural",
                     len(witness), witness, True)


def cut_vertices_via_strong_ordering(G: Graph, so: StrongOrdering) -> tuple[int, ...]:
    """Cut vertices among the interim vertices of a strong ordering.

    An interim vertex u (neither first nor last on its side) fails to be a
    cut vertex exactly when some neighbor's neighborhood straddles u on
    both sides. The ordering is re-verified before use, by the pass that
    finds each neighborhood's first and last position.
    """
    require_meg_input(G)
    ends = _neighbor_ends(G, so)
    if ends is None:
        raise ValueError("ordering failed strong-ordering verification")
    result = []
    for side in (so.x_order, so.y_order):
        for idx in range(1, len(side) - 1):
            u = side[idx]
            if not any(ends[w][0] < idx < ends[w][1] for w in G.adj[u]):
                result.append(u)
    return tuple(sorted(result))


def solve(G: Graph, method: str = "auto",
          oracle_limit: int | None = None) -> MegResult:
    """Top-level dispatcher.

    Auto mode walks ``ROUTES`` (distance-hereditary, bipartite
    permutation, strongly chordal, P4-sparse) and solves by the closed
    form of the first class recognized; otherwise it runs the block search
    of ``solve_by_cut_decomposition`` (method "oracle"), or gives sandwich
    bounds only when a block's pool exceeds the oracle limit. The forced
    ``oracle`` and ``decomposition`` methods run the block search and let
    that LimitExceededError through. The forced methods ``cut`` and
    ``mandatory`` walk only the routes of their closed form and raise
    MethodMismatchError, with the verdicts seen, when none applies;
    ``structural`` raises NotP4SparseError on shapes it cannot solve.
    """
    require_meg_input(G)
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if method == "structural":
        return solve_p4_structural(G)
    if method not in ("oracle", "decomposition"):
        res = _walk_routes(G, None if method == "auto" else f"{method}_based")
        if res is not None:
            return res
    try:
        witness = solve_by_cut_decomposition(G, oracle_limit)
    except LimitExceededError:
        if method != "auto":
            raise
        return MegResult("none", "none", None, None, False, bounds=bounds(G))
    return MegResult("none", method if method == "decomposition" else "oracle",
                     len(witness), witness, True)
