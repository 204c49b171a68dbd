"""Monitoring predicates, MEG-set checking, and mandatory vertices.

A vertex pair (a, b) monitors an edge e when every shortest a-b path goes
through e; equivalently, deleting e strictly increases d(a, b). A set S is
a monitoring edge-geodetic (MEG) set when every edge is monitored by some
pair inside S. All predicates here require a connected graph on at least
two vertices.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import NotConnectedError
from .graph_core import (DistanceMatrix, Graph, bfs_distances, is_connected,
                         non_cut_vertices, vertex_set)

# Path counts saturate at this cap (64-bit signed max). A saturated count
# means "this many or more", so any predicate touching one is indeterminate.
SATURATION_CAP = 2**63 - 1


@dataclass(frozen=True)
class MegSetCheck:
    """Outcome of an MEG-set test; carries one uncovered edge on failure."""

    ok: bool
    uncovered: tuple[int, int] | None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class Bounds:
    """Sandwich bounds on the MEG number of a connected graph."""

    lower: int
    upper: int
    mandatory: tuple[int, ...]
    non_cut: tuple[int, ...]


def require_meg_input(G: Graph) -> None:
    """Reject graphs the monitoring semantics is not defined for."""
    if G.n < 2:
        raise NotConnectedError("need at least two vertices")
    if not is_connected(G):
        raise NotConnectedError("graph must be connected")


def _check_query(G: Graph, a: int, b: int, edge: tuple[int, int]) -> None:
    if not (0 <= a < G.n and 0 <= b < G.n):
        raise ValueError("vertex id out of range")
    if a == b:
        raise ValueError("monitoring pair must be two distinct vertices")
    if not G.has_edge(*edge):
        raise ValueError(f"edge {edge} not in graph")


def monitors(G: Graph, a: int, b: int, edge: tuple[int, int]) -> bool:
    """Ground-truth predicate: does deleting ``edge`` increase d(a, b)?"""
    require_meg_input(G)
    _check_query(G, a, b, edge)
    base = bfs_distances(G, a)[b]
    return bfs_distances(G, a, skip_edge=edge)[b] > base


def shortest_path_counts(
        G: Graph, cap: int = SATURATION_CAP
) -> tuple[DistanceMatrix, tuple[tuple[int, ...], ...]]:
    """Per-source shortest-path counts with saturating addition.

    Returns the distance matrix and a matrix ``counts`` where
    ``counts[s][t]`` is the number of shortest s-t paths, clipped at
    ``cap``. A clipped entry means "cap or more".
    """
    require_meg_input(G)
    adj = G.adj
    dist_rows = []
    count_rows = []
    for s in range(G.n):
        dist = [-1] * G.n
        sigma = [0] * G.n
        dist[s] = 0
        sigma[s] = 1
        queue = deque([s])
        # BFS visits vertices in distance order, so sigma[p] is final when
        # p leaves the queue; each tight edge p-w adds it to sigma[w].
        while queue:
            p = queue.popleft()
            d = dist[p] + 1
            sigma_p = sigma[p]
            for w in adj[p]:
                if dist[w] == -1:
                    dist[w] = d
                    queue.append(w)
                if dist[w] == d:
                    sigma[w] = min(cap, sigma[w] + sigma_p)
        dist_rows.append(tuple(dist))
        count_rows.append(tuple(sigma))
    return DistanceMatrix(tuple(dist_rows)), tuple(count_rows)


def monitors_by_counting(G: Graph, dist: DistanceMatrix,
                         counts: tuple[tuple[int, ...], ...],
                         a: int, b: int, edge: tuple[int, int],
                         cap: int = SATURATION_CAP) -> bool | None:
    """Path-count route for the monitoring predicate.

    The edge (u, v) lies on every shortest a-b path iff exactly one
    orientation is distance-tight and the product of path counts through
    it equals the total a-b count. ``cap`` must match the cap the counts
    were computed with; any involved count at the cap means the true
    value may exceed it, so the verdict is None (indeterminate) and
    callers fall back to ``monitors``.
    """
    _check_query(G, a, b, edge)
    u, v = edge
    total = counts[a][b]
    d_ab = dist[a][b]
    if dist[a][u] + 1 + dist[v][b] == d_ab:
        through_a, through_b = u, v
    elif dist[a][v] + 1 + dist[u][b] == d_ab:
        through_a, through_b = v, u
    else:
        return False  # edge lies on no shortest a-b path
    c1 = counts[a][through_a]
    c2 = counts[through_b][b]
    if total >= cap or c1 >= cap or c2 >= cap:
        return None
    return c1 * c2 == total


def geodesic_edge_masks(G: Graph) -> tuple[tuple[int, ...], ...]:
    """Per source s and target t, the edges on every shortest s-t path.

    Bit i stands for ``G.edges()[i]``; ``masks[s][t]`` is 0 for t == s
    and for t unreachable from s. So ``masks[s][t] >> i & 1`` equals
    ``monitors(G, s, t, G.edges()[i])``.
    """
    return tuple(map(tuple, geodesic_edge_rows(G.adj, range(G.n))))


def geodesic_edge_rows(adj, sources):
    """Yields row s of ``geodesic_edge_masks`` of the graph with ascending
    adjacency lists ``adj``, as a list, for each s in ``sources`` in turn,
    each from its own BFS once the last one is read: ``must[s] = 0`` and,
    further out, ``must[w]`` is the AND over the BFS predecessors p of w
    of ``must[p] | bit(p, w)``: every shortest s-w path ends in one.
    """
    edge_bit: list[dict[int, int]] = [{} for _ in adj]
    edges = ((u, v) for u, a in enumerate(adj) for v in a if u < v)
    for i, (u, v) in enumerate(edges):
        edge_bit[u][v] = edge_bit[v][u] = 1 << i
    for s in sources:
        dist, must = [-1] * len(adj), [0] * len(adj)
        dist[s] = 0
        queue = deque([s])
        while queue:
            p = queue.popleft()
            d = dist[p] + 1
            must_p = must[p]
            bits = edge_bit[p]
            for w in adj[p]:
                if dist[w] == -1:
                    dist[w] = d
                    must[w] = must_p | bits[w]
                    queue.append(w)
                elif dist[w] == d:
                    must[w] &= must_p | bits[w]
        yield must


def is_meg_set(G: Graph, members) -> MegSetCheck:
    """Check whether ``members`` monitors every edge of G.

    Iterates edges in sorted order; for each edge, a deletion BFS runs
    from each member in turn, with early exit on the first monitoring
    pair. On failure the first uncovered edge is reported.

    Three rules keep the work to what a deletion can change:

    - An edge uv with u, v both in S is skipped: the edge itself is the
      only shortest u-v path, so deleting it raises d(u, v) and the pair
      (u, v) monitors it.
    - Base distances come from one BFS per member of S but the last, not
      from all n vertices, since only distances between members enter
      the test; and each member a is compared only with the members after
      it, so no BFS of either kind runs from the last member.
    - Each deletion BFS from a stops as soon as its answer is known.
      BFS settles vertices in distance order, so a vertex's distance is
      final when the BFS first reaches it, and a deletion never shortens
      a distance, so each later member is found at its base distance or
      farther. So the BFS answers "covered" at the first later member
      found farther than its base distance; "not by a" once every later
      member is found at its base distance; and "covered" if its queue
      empties first, since the deletion then cut a later member off.

    Every skipped edge is covered, so the first uncovered edge in
    ``G.edges()`` order is never a skipped one; every other edge gets the
    same per-pair test as a scan of all edges. The result is therefore the
    same ``MegSetCheck`` as that scan's, ``uncovered`` included.
    """
    require_meg_input(G)
    S = vertex_set(members)
    if S and (S[0] < 0 or S[-1] >= G.n):
        raise ValueError("vertex id out of range")
    rank = [-1] * G.n
    for i, a in enumerate(S):
        rank[a] = i
    # (a, a's base row, the number of members after a), but the last a
    sources = [(a, bfs_distances(G, a), left)
               for a, left in zip(S[:-1], range(len(S) - 1, 0, -1))]
    for u, v in G.edges():
        if rank[u] >= 0 and rank[v] >= 0:
            continue
        if not any(_moves_a_later_member(G.adj, a, base_a, rank, left, u, v)
                   for a, base_a, left in sources):
            return MegSetCheck(False, (u, v))
    return MegSetCheck(True, None)


def _moves_a_later_member(adj, a, base_a, rank, left: int,
                          u: int, v: int) -> bool:
    """Whether deleting the edge uv raises d(a, b) above ``base_a[b]`` for
    some member b after a, by a BFS from a that never crosses uv and
    stops as ``is_meg_set`` says: ``rank[w]`` is w's position in S (-1
    outside it), and ``left`` counts the members after a."""
    i = rank[a]
    dist = [-1] * len(adj)
    dist[a] = 0
    queue = [a]
    for p in queue:  # a FIFO queue: the loop reads what it appends
        d = dist[p] + 1
        for w in adj[p]:
            if dist[w] >= 0 or p == u and w == v or p == v and w == u:
                continue
            dist[w] = d
            if rank[w] > i:
                if d > base_a[w]:
                    return True
                left -= 1
                if not left:
                    return False
            queue.append(w)
    return True


def _mandatory_witness(adj, masks: tuple[int, ...], v: int,
                       covered: list[int]) -> int | None:
    """First u in ``adj[v]`` whose covered set contains N(v), or None.

    u's covered set is N[u] together with every vertex adjacent to two
    neighbors of u. ``covered[u]`` holds it once computed, filled here on
    first read; 0 means "not computed yet", as the set always holds u.
    """
    mask_v = masks[v]
    for u in adj[v]:
        got = covered[u]
        if not got:
            once = twice = 0
            for w in adj[u]:
                mask_w = masks[w]
                twice |= once & mask_w
                once |= mask_w
            got = covered[u] = masks[u] | (1 << u) | twice
        if not mask_v & ~got:
            return u
    return None


def is_mandatory(G: Graph, v: int) -> tuple[bool, int | None]:
    """Membership of v in every MEG set, with a witness neighbor.

    v is mandatory iff some neighbor u exists such that every induced
    2-path u-v-x closes into a 4-cycle u-v-x-w (w != v adjacent to both
    u and x). No such x at all counts as satisfied. Such a w exists
    exactly when x is adjacent to at least two neighbors of u, since v is
    always one of them. So u qualifies iff N(v) lies inside N[u] plus the
    vertices adjacent to two neighbors of u; the witness is the first
    qualifying u in ``G.adj[v]``.
    """
    require_meg_input(G)
    if not 0 <= v < G.n:
        raise ValueError("vertex id out of range")
    u = _mandatory_witness(G.adj, G.adj_masks, v, [0] * G.n)
    return u is not None, u


def mandatory_vertices(G: Graph) -> tuple[int, ...]:
    """All vertices contained in every MEG set of G.

    The rule of ``is_mandatory`` with one ``covered`` list shared by every
    v, so each neighbor's covered set is computed at most once: O(m) mask
    operations in total, and often far fewer, since the scan of N(v)
    stops at the first qualifying u. Cached on the graph, so auto mode's
    bounds and the oracle it falls back to scan once.
    """
    if G._mandatory is not None:
        return G._mandatory
    require_meg_input(G)
    adj, masks = G.adj, G.adj_masks
    covered = [0] * G.n
    G._mandatory = tuple(v for v in range(G.n)
                         if _mandatory_witness(adj, masks, v,
                                               covered) is not None)
    return G._mandatory


def bounds(G: Graph) -> Bounds:
    """Mandatory-vertex lower bound and non-cut-vertex upper bound."""
    require_meg_input(G)
    man = mandatory_vertices(G)
    non_cut = non_cut_vertices(G)
    return Bounds(lower=len(man), upper=len(non_cut),
                  mandatory=man, non_cut=non_cut)
