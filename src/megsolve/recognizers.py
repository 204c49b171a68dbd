"""Graph-class recognizers with replayable certificates.

Four classes are decided, each answer yes or no: distance-hereditary
(pendant/twin pruning), P4-sparse (every five vertices induce at most one
P4; decided by splitting into disjoint unions, joins and spiders),
bipartite permutation (one layered strong-ordering candidate from a
vertex of the last BFS layer), and strongly chordal (simple-vertex
elimination). Each positive answer except P4-sparse carries a certificate
that an independent verifier in this module can recheck.

The two eliminations keep per-vertex state that each removal updates
over the removed vertex's adjacency list instead of rebuilding alive
neighborhoods at every step: the pruning keeps alive open neighborhoods,
the pendant set and a lazily filed twin index (``_Pruning``); the
simple-vertex elimination keeps alive closed neighborhoods and their
sizes, and skips vertices whose non-simplicity witness is intact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import NotConnectedError
from .graph_core import Graph, is_connected, iter_bits, mask_components

SPIDER_FALLBACK_LIMIT = 12


# ---------------------------------------------------------------------------
# distance-hereditary: pendant / twin pruning


@dataclass(frozen=True)
class PruneStep:
    vertex: int
    kind: str  # "pendant" | "true_twin" | "false_twin"
    partner: int


@dataclass(frozen=True)
class PruneSequence:
    """Removal order down to a single vertex; replaying it in reverse
    rebuilds the graph by pendant and twin extensions."""

    steps: tuple[PruneStep, ...]
    final_vertex: int

    def to_json(self, G: Graph) -> dict:
        return {
            "type": "prune_sequence",
            "final": G.label(self.final_vertex),
            "steps": [{"vertex": G.label(s.vertex), "kind": s.kind,
                       "partner": G.label(s.partner)} for s in self.steps],
        }


def recognize_distance_hereditary(G: Graph) -> PruneSequence | None:
    """Greedy pruning: repeatedly remove a pendant vertex or a twin.

    Any-choice greedy is complete here because the class is closed under
    induced subgraphs and every member on two or more vertices contains a
    pendant vertex or a twin pair (one-vertex-extension characterization,
    Hammer and Maffray 1990).

    Each step removes the lowest-id pendant vertex if there is one, else
    the first twin of an ascending scan. ``_Pruning`` keeps the state that
    finds both, updated once per removal.
    """
    state = _Pruning(G)
    steps: list[PruneStep] = []
    for _ in range(G.n - 1):
        step = state.next_step()
        if step is None:
            return None
        steps.append(step)
        state.remove(step.vertex)
    final = next((v for v, m in enumerate(state.nb) if m is not None), -1)
    return PruneSequence(tuple(steps), final)


class _Pruning:
    """Alive open neighborhoods of a graph losing vertices, with the
    pendant set and a lazy ascending twin index.

    ``nb[u]`` is the alive open neighborhood of u (None once u is removed)
    and ``pendant`` the mask of alive vertices with exactly one alive
    neighbor; removing v updates both over ``G.adj[v]``.

    The twin index maps a closed (``closed``) or open (``open``)
    neighborhood to the mask of the vertices filed under it. One lazy
    queue, ``todo``, holds every vertex not yet filed under its current
    neighborhoods (all of them at the start, then each removed vertex's
    alive neighbors) and every filed vertex that may have a lower member
    in one of its groups. A removal never separates surviving twins, so a
    new twin pair always involves a vertex whose neighborhood changed.
    ``next_step`` takes ``todo`` lowest first and files each vertex it
    meets, so every alive vertex below it is filed under its current
    neighborhoods with no lower twin; the first vertex that finds a lower
    member in one of its groups is the answer, and a graph with an early
    twin never pays for indexing the rest. A vertex that lands below a
    group's old lowest member puts that member back on ``todo``; the
    group's other members already had a lower member.

    Nothing is unfiled, yet an old entry never answers a query, because
    queries look up current neighborhoods and take the lowest entry
    below the candidate. A re-filed vertex's old neighborhood holds a
    removed vertex, and so does a removed vertex's closed neighborhood,
    so no alive vertex has either. If an alive x has the open
    neighborhood N(w) of a removed w at a twin query, x is no pendant
    (pendants go first), so neither was w; nor was w a true twin of some
    u, since u in N(w) = N(x) would put x in N[u] = N[w]. So w went as a
    false twin of a lower u with N(u) = N(w), and u is still filed
    under it (or went the same way in turn).
    """

    def __init__(self, G: Graph):
        self.adj = G.adj
        self.nb: list[int | None] = list(G.adj_masks)
        self.pendant = 0
        for v, m in enumerate(G.adj_masks):
            if m and not m & (m - 1):
                self.pendant |= 1 << v
        self.closed: dict[int, int] = {}
        self.open: dict[int, int] = {}
        self.todo = (1 << G.n) - 1

    def next_step(self) -> PruneStep | None:
        """The lowest pendant vertex, else the lowest alive vertex with a
        lower twin, paired with the lowest such twin (true twins first),
        else None."""
        nb = self.nb
        if self.pendant:
            v = (self.pendant & -self.pendant).bit_length() - 1
            return PruneStep(v, "pendant", nb[v].bit_length() - 1)
        todo = self.todo
        while todo:
            bit = todo & -todo
            todo ^= bit
            v = bit.bit_length() - 1
            nb_v = nb[v]
            if nb_v is None:
                continue
            for groups, key, kind in ((self.closed, nb_v | bit, "true_twin"),
                                      (self.open, nb_v, "false_twin")):
                group = groups.get(key, 0)
                groups[key] = group | bit
                low = group & -group
                if 0 < low < bit:
                    self.todo = todo
                    return PruneStep(v, kind, low.bit_length() - 1)
                if low > bit:
                    todo |= low
        self.todo = 0
        return None

    def remove(self, v: int) -> None:
        nb = self.nb
        bit = 1 << v
        self.todo |= nb[v]
        nb[v] = None
        pendant = self.pendant & ~bit
        for u in self.adj[v]:
            m = nb[u]
            if m is not None:
                m = nb[u] = m ^ bit
                if not m & (m - 1):  # one alive neighbor left, or none
                    if m:
                        pendant |= 1 << u
                    else:
                        pendant &= ~(1 << u)
        self.pendant = pendant


def verify_prune_sequence(G: Graph, seq: PruneSequence) -> bool:
    """Recheck every pruning step against the shrinking graph; the empty
    graph takes only the recognizer's ``PruneSequence((), -1)``."""
    if G.n == 0:
        return not seq.steps and seq.final_vertex == -1
    if len(seq.steps) != G.n - 1 or not 0 <= seq.final_vertex < G.n:
        return False
    masks = G.adj_masks
    alive = (1 << G.n) - 1
    for step in seq.steps:
        v, w = step.vertex, step.partner
        # Ids at or above n are never alive; a negative id cannot be shifted.
        if v == w or v < 0 or w < 0:
            return False
        if not (alive >> v) & 1 or not (alive >> w) & 1:
            return False
        nb_v = masks[v] & alive
        nb_w = masks[w] & alive
        if step.kind == "pendant":
            if nb_v != 1 << w:
                return False
        elif step.kind == "true_twin":
            if nb_v | (1 << v) != nb_w | (1 << w):
                return False
        elif step.kind == "false_twin":
            if nb_v != nb_w:
                return False
        else:
            return False
        alive &= ~(1 << v)
    return alive == 1 << seq.final_vertex


# ---------------------------------------------------------------------------
# P4-sparse


def recognize_p4_sparse(G: Graph) -> bool:
    """True iff every five vertices induce at most one P4 (``_p4_stuck``
    finds no stuck set)."""
    return not _p4_stuck(G)


def _p4_stuck(G: Graph) -> int:
    """The first vertex set of the Jamison-Olariu walk that is neither
    split nor a spider, as a mask; 0 when G is P4-sparse.

    Walks the structure theorem of Jamison and Olariu (1992): a graph is
    P4-sparse iff it has at most one vertex, or it is a disjoint union of
    P4-sparse graphs, or a join of P4-sparse graphs, or a spider whose
    head is P4-sparse. Vertex sets wait on a stack as bitmasks; a set
    whose graph and complement are both connected must be a spider, found
    by ``_spider_masks``, and only its head is pushed.

    ``solve_p4_structural`` refuses a connected G iff this set is all of
    V, which is the gate "the complement of G is connected and
    ``spider_by_degrees`` is None". The walk pops V first, so it is stuck
    there iff both are connected and ``_spider_masks`` finds no spider on
    V. And ``verify_spider_partition`` accepts every partition that
    ``_spider_masks`` returns on V, which has S stable and anticomplete
    to R, C a clique complete to R, and |S| = |C|:

    - thin: the legs are at least two vertices of degree 1, each seeing
      one stem in C, and |S| = |C| makes the stems distinct;
    - thick: the l = |C| >= 3 body vertices each miss exactly one other
      vertex, a leg. These l non-edges reach all l legs, so each leg is
      missed once: it has degree l - 1 and misses its own body vertex.
    """
    masks = G.adj_masks
    co_masks = tuple(~m for m in masks)
    stack = [(1 << G.n) - 1]
    while stack:
        X = stack.pop()
        if X & (X - 1) == 0:
            continue
        parts = mask_components(masks, X)
        if len(parts) == 1:
            parts = mask_components(co_masks, X)
        if len(parts) > 1:
            stack.extend(parts)
            continue
        spider = _spider_masks(masks, X)
        if spider is None:
            return X
        stack.append(spider[2])
    return 0


# ---------------------------------------------------------------------------
# spider partitions


@dataclass(frozen=True)
class SpiderPartition:
    """Spider (S, C, R): legs S stable, body C a clique, head R complete
    to C and anticomplete to S. s_vertices[i] pairs with c_vertices[i]."""

    kind: str  # "thin" | "thick"
    s_vertices: tuple[int, ...]
    c_vertices: tuple[int, ...]
    r_vertices: tuple[int, ...]

    def to_json(self, G: Graph) -> dict:
        return {
            "type": "spider",
            "kind": self.kind,
            "s": list(G.labels_of(self.s_vertices)),
            "c": list(G.labels_of(self.c_vertices)),
            "r": list(G.labels_of(self.r_vertices)),
        }


def verify_spider_partition(G: Graph, s_set, c_set, r_set) -> SpiderPartition | None:
    """Check all spider axioms; returns the normalized partition or None.

    A two-legged spider is always reported thin (both shapes coincide).
    """
    S = tuple(sorted(s_set))
    C = tuple(sorted(c_set))
    R = tuple(sorted(r_set))
    l = len(S)
    if l < 2 or len(C) != l:
        return None
    if sorted(S + C + R) != list(range(G.n)):
        return None  # not a partition of the vertex ids
    masks = G.adj_masks
    s_mask = sum(1 << v for v in S)
    c_mask = sum(1 << v for v in C)
    for s in S:
        if masks[s] & s_mask:
            return None  # S not stable
        if masks[s] & ~c_mask:
            return None  # legs may touch the body only
    for c in C:
        if masks[c] & c_mask != c_mask & ~(1 << c):
            return None  # C not a clique
    for r in R:
        if masks[r] & c_mask != c_mask:
            return None  # head must see the whole body
        if masks[r] & s_mask:
            return None
    leg_degrees = {len(G.adj[s]) for s in S}
    if leg_degrees == {1}:
        kind = "thin"
        pairing = {}
        for s in S:
            c = G.adj[s][0]
            if c in pairing.values():
                return None
            pairing[s] = c
    elif leg_degrees == {l - 1} and l >= 3:
        kind = "thick"
        pairing = {}
        for s in S:
            missing = c_mask & ~masks[s]
            if missing == 0 or missing & (missing - 1):
                return None
            c = missing.bit_length() - 1
            if c in pairing.values():
                return None
            pairing[s] = c
    else:
        return None
    return SpiderPartition(kind, S, tuple(pairing[s] for s in S), R)


def _spider_masks(masks: tuple[int, ...], X: int) -> tuple[int, int, int] | None:
    """Spider (S, C, R) of the graph induced by X, as masks, or None.

    In a thin spider the legs are exactly the vertices of degree 1, each
    matched to its only neighbor in the body; in a thick spider (three or
    more legs) the body is exactly the vertices of degree |X| - 2, each
    missing only its own leg. Either candidate is kept only if it passes
    every spider axiom: S stable, C a clique, R complete to C and
    anticomplete to S.

    The rules are exact: whenever G[X] is a spider with l legs, they
    return one. Let n = |X| = 2l + |R|.

    - Thin, l >= 2. Legs have degree 1. A body vertex sees the other
      l - 1 body vertices, its leg and all of R: degree l + |R| >= 2. A
      head vertex sees all of C: degree at least l >= 2. So the degree-1
      vertices are exactly S, their neighbours are exactly C, and this
      first candidate is the spider itself.
    - Thick, l >= 3. Legs see the body minus their own vertex: degree
      l - 1. A body vertex misses only its own leg: degree n - 2. A head
      vertex sees C and at most |R| - 1 others: degree at most
      l + |R| - 1 = n - l - 1 < n - 2, and l - 1 < n - 2 as well. So the
      vertices of degree n - 2 are exactly C, the vertices they miss are
      exactly S, and no vertex has degree 1: the body candidate is the
      only one, and it is the spider itself.

    A two-legged spider is thin. Every spider thus passes the axioms as
    one of the candidates, and ``detect_spider``'s split walk can
    never find a partition that these rules missed.
    """
    size = X.bit_count()
    if size < 4:
        return None
    legs = body = 0
    for v in iter_bits(X):
        d = (masks[v] & X).bit_count()
        if d == 1:
            legs |= 1 << v
        elif d == size - 2:
            body |= 1 << v
    candidates = []
    if legs.bit_count() >= 2:
        stems = 0
        for s in iter_bits(legs):
            stems |= masks[s] & X
        candidates.append((legs, stems))
    if body.bit_count() >= 3:
        missed = 0
        for c in iter_bits(body):
            missed |= X & ~masks[c] & ~(1 << c)
        candidates.append((missed, body))
    for S, C in candidates:
        # popcounts equal: the leg-body pairing is a bijection
        if S.bit_count() != C.bit_count() or S & C:
            continue
        R = X & ~S & ~C
        if all(not masks[s] & (S | R) for s in iter_bits(S)) and all(
                masks[c] & (C | R) == (C | R) & ~(1 << c) for c in iter_bits(C)):
            return S, C, R
    return None


def spider_by_degrees(G: Graph) -> SpiderPartition | None:
    """Spider partition of G by the degree rules of ``_spider_masks``,
    normalized by ``verify_spider_partition``, or None."""
    spider = _spider_masks(G.adj_masks, (1 << G.n) - 1)
    if spider is None:
        return None
    return verify_spider_partition(G, *(iter_bits(m) for m in spider))


def detect_spider(G: Graph) -> SpiderPartition | None:
    """Find the spider partition of G if one exists.

    ``spider_by_degrees`` gives the candidate. Graphs on at most
    ``SPIDER_FALLBACK_LIMIT`` vertices that the rules reject additionally
    get an exhaustive search, the split walk: for each leg count
    l = 2 .. n // 2, every leg set S of size l, then every body C of size
    l among the other vertices, the head R being the rest. These are
    exactly the partitions with |S| = |C| >= 2, each tested once by
    ``verify_spider_partition``: 73,656 candidates at n = 12, against the
    3^12 = 531,441 assignments of a vertex to S, C or R. The walk never
    finds one: every partition ``verify_spider_partition`` accepts is a thin
    spider with l >= 2 legs or a thick one with l >= 3, and the proof in
    ``_spider_masks`` shows the degree rules return such a spider, which
    ``verify_spider_partition`` then accepts. In a thin spider the
    degree-1 vertices are exactly the legs (body vertices have degree
    l + |R| >= 2, head vertices at least l); in a thick one the vertices
    of degree n - 2 are exactly the body (legs have degree l - 1, head
    vertices at most l + |R| - 1 < n - 2).
    """
    n = G.n
    part = spider_by_degrees(G)
    if part is None and n <= SPIDER_FALLBACK_LIMIT:
        for l in range(2, n // 2 + 1):
            for S in itertools.combinations(range(n), l):
                rest = [v for v in range(n) if v not in S]
                for C in itertools.combinations(rest, l):
                    R = [v for v in rest if v not in C]
                    part = verify_spider_partition(G, S, C, R)
                    if part is not None:
                        return part
    return part


# ---------------------------------------------------------------------------
# bipartite permutation: strong orderings


@dataclass(frozen=True)
class StrongOrdering:
    """Vertex orders of the two sides of a bipartite graph."""

    x_order: tuple[int, ...]
    y_order: tuple[int, ...]

    def to_json(self, G: Graph) -> dict:
        return {
            "type": "strong_ordering",
            "xOrder": list(G.labels_of(self.x_order)),
            "yOrder": list(G.labels_of(self.y_order)),
        }


@dataclass(frozen=True)
class BipPermResult:
    verdict: str  # "yes" | "no"
    ordering: StrongOrdering | None


def strong_ordering_from_orders(G: Graph, x_order, y_order) -> StrongOrdering:
    """The orders as a ``StrongOrdering``, once they partition the vertex
    set (ValueError otherwise); ``verify_strong_ordering`` decides whether
    they are strong."""
    x_order = tuple(x_order)
    y_order = tuple(y_order)
    if sorted(x_order + y_order) != list(range(G.n)):
        raise ValueError("orders do not partition the vertex set")
    return StrongOrdering(x_order, y_order)


def verify_strong_ordering(G: Graph, so: StrongOrdering) -> bool:
    """Full certificate check, linear in the size of G.

    Raises ValueError when the two orders are not a bipartition of G;
    returns False when any ordering property fails.

    Following Spinrad, Brandstaedt and Stewart ("Bipartite permutation
    graphs", DAM 1987), the orders pass iff every neighborhood is
    consecutive in the opposite order and its ends, f(v) = first and
    l(v) = last position, are non-decreasing along each side; one pass
    over each side (``_neighbor_ends``) checks both. Together they imply
    the two pairwise properties of a strong ordering, so neither needs a
    scan over pairs:

    * Crossing: for a < a' and b' < b with ab, a'b' in E,
      f(a) <= f(a') <= b' < b <= l(a), so ab' in E, and
      f(a') <= b' < b <= l(a) <= l(a'), so a'b in E.
    * Enclosure: N(u) a subset of N(v) on the same side means
      f(v) <= f(u) and l(u) <= l(v); monotone ends give the reverse of
      one of the two, so the firsts or the lasts are equal and
      N(v) minus N(u) is one run.
    """
    return _neighbor_ends(G, so) is not None


def _neighbor_ends(G: Graph,
                   so: StrongOrdering) -> dict[int, tuple[int, int]] | None:
    """(f(v), l(v)) for every non-isolated vertex v, or None when the
    orders are not strong; see ``verify_strong_ordering``, which this
    pass decides, ValueError included."""
    xs, ys = set(so.x_order), set(so.y_order)
    if len(so.x_order) != len(xs) or len(so.y_order) != len(ys):
        raise ValueError("orders repeat vertices")
    if xs & ys or xs | ys != set(range(G.n)):
        raise ValueError("orders do not partition the vertex set")
    for side in (so.x_order, so.y_order):
        for v in side:
            for w in G.adj[v]:
                if (w in xs) == (v in xs):
                    raise ValueError("ordering sides are not a bipartition")
    xpos = {v: i for i, v in enumerate(so.x_order)}
    ypos = {v: i for i, v in enumerate(so.y_order)}
    ends = {}
    for side, pos in ((so.x_order, ypos), (so.y_order, xpos)):
        prev_f = prev_l = -1
        for v in side:
            if not G.adj[v]:
                continue
            ps = [pos[w] for w in G.adj[v]]
            f, l = min(ps), max(ps)
            if l - f + 1 != len(ps) or f < prev_f or l < prev_l:
                return None
            prev_f, prev_l = ends[v] = f, l
    return ends


def _layered_candidate(G: Graph, start: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Order vertices by BFS layers from ``start``; inside a layer, sort by
    the first and last position of the neighbors one layer closer to the
    start, then by degree, then by id. Even layers make the start's side."""
    layers = [[start]]
    pos = {start: 0}  # every vertex reached so far: its place in its layer
    while True:
        prev = layers[-1]
        nxt = list({w for v in prev for w in G.adj[v] if w not in pos})
        if not nxt:
            break
        nxt.sort(key=lambda v: (min(pos[w] for w in G.adj[v] if w in pos),
                                max(pos[w] for w in G.adj[v] if w in pos),
                                len(G.adj[v]), v))
        for i, v in enumerate(nxt):
            pos[v] = i
        layers.append(nxt)
    x_order = [v for i, layer in enumerate(layers) if i % 2 == 0 for v in layer]
    y_order = [v for i, layer in enumerate(layers) if i % 2 == 1 for v in layer]
    return tuple(x_order), tuple(y_order)


def recognize_bipartite_permutation(G: Graph) -> BipPermResult:
    """Decide bipartite permutation membership by one strong-ordering
    candidate.

    The verdict is "yes" with a strong ordering, or "no" when G is not
    bipartite or the candidate is not strong. One BFS from vertex 0 stops
    at an edge inside a layer ("no") or finds the last layer;
    ``_layered_candidate`` runs from its vertex with the smallest
    (degree, id), and the linear-time
    ``verify_strong_ordering`` checks it, so "yes" is always certified.

    "no" is exact: G is a bipartite permutation graph iff it has a strong
    ordering (Spinrad, Brandstaedt and Stewart, DAM 1987); by the lemma
    below, that start is the first vertex x1 of some strong ordering, and
    the candidate from x1 is strong.
    Write f(v) and l(v) for the first and last position of N(v) in the
    opposite order; ``verify_strong_ordering`` relies on them being
    non-decreasing along each side and on each N(v) being consecutive.

    Lemma: in a connected bipartite permutation graph, for any vertex s,
    every minimum-degree vertex z of the last BFS layer L from s (at
    distance D) is the first vertex of some strong ordering. Fix a strong
    ordering x1..xp, y1..yq with L on the X side. If D = 1, G is a star
    with centre s and every leaf starts one; let D >= 2.

    * Balls are intervals. For consecutive x, x' of one side,
      f(x') <= l(x) + 1, or the vertex of the other side right after
      position l(x) would have no neighbor: the vertices up to x end
      before it, the others start after it. So the neighborhood of an interval of one side is
      an interval of the other. The vertices of one side within distance
      r + 1 of s are the neighbors of those of the other side within
      distance r (r >= 1), so each ball around s meets each side in an
      interval. L is X minus the ball of radius D - 1, a prefix plus a
      suffix of X.
    * Far ends are twins. Take x_k in the suffix. If l(x_k) is not the
      last position, every neighbor of the next vertex y of Y comes after
      x_k, in L, so y (not s, as D >= 2) would lie at distance D + 1.
      Hence l(x_k) = l(xp), N(x_k) contains N(xp), and xp is in L too:
      x_k has at least the degree of xp, and exactly that only as a twin
      of xp. The prefix and x1 are symmetric, with first positions. So z,
      of minimum degree in L, is a twin of x1 or of xp.
    * Twins can move. The vertices between two twins have their ends, so
      twins are consecutive, and permuting them keeps the ordering strong
      (see "Ties are twins" below). Reversing both orders keeps every
      neighborhood consecutive and the ends monotone, so it keeps the
      ordering strong too. So z can be moved to the first position.

    The candidate from x1 is strong, for any strong ordering and either
    side (call the side of x1 X):

    * Layers are blocks. The first vertex of Y has a neighbor x with
      f(x) = 0, so f(x1) = 0 by monotone f, and the same holds with the
      sides swapped. The neighborhood of a prefix of one side thus starts
      at the first position and skips none: the vertex at a skipped
      position would have all its neighbors after the prefix while a
      later vertex has one inside it, against monotone f (G is connected,
      so every vertex has a neighbor). The even layers up to 2k are x1
      and the neighborhood of the odd layers up to 2k-1, and the odd
      layers up to 2k+1 are the neighborhood of the even ones up to 2k,
      so the BFS layers from x1 are consecutive blocks, in layer order.
    * Keys are monotone. Suppose layers 0 to k-1 of the candidate match a
      strong ordering, and count positions inside layer k-1. A vertex v
      of layer k has neighbors only in layers k-1 and k+1, so its min
      prev position is f(v) and its max prev position is
      min(l(v), last of layer k-1), both non-decreasing. A vertex whose
      max prev position is below the last vertex of layer k-1 has no
      neighbor in layer k+1, since N(v) is consecutive and layer k+1
      comes right after layer k-1. Among ties on min and max at the last
      vertex, N(v) runs on from f(v) to l(v), so a larger degree means a
      longer prefix of layer k+1 and a larger l(v). The strong ordering
      is thus non-decreasing in the key inside layer k.
    * Ties are twins. Equal min, max and degree give the same f and l,
      hence the same neighborhood. Twins with equal keys are consecutive,
      and reordering them changes no f or l and no position set of any
      other neighborhood, so the ordering stays strong. Sorting layer k
      by the key and then by id is such a reordering; by induction over
      the layers the candidate from x1 is a strong ordering.
    """
    if not is_connected(G):
        raise NotConnectedError("strong-ordering search needs a connected graph")
    if G.n <= 1:
        return BipPermResult("yes", StrongOrdering(tuple(range(G.n)), ()))
    dist = [0] + [-1] * (G.n - 1)
    nxt = [0]
    while nxt:
        layer, nxt = nxt, []
        for v in layer:
            for w in G.adj[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
                elif dist[w] == dist[v]:
                    return BipPermResult("no", None)
    start = min(layer, key=lambda v: (len(G.adj[v]), v))
    so = StrongOrdering(*_layered_candidate(G, start))
    if verify_strong_ordering(G, so):
        return BipPermResult("yes", so)
    return BipPermResult("no", None)


# ---------------------------------------------------------------------------
# strongly chordal: simple-vertex elimination


@dataclass(frozen=True)
class SEO:
    """Simple-vertex elimination order with per-step inclusion chains."""

    order: tuple[int, ...]
    chains: tuple[tuple[int, ...], ...]

    def to_json(self, G: Graph) -> dict:
        return {
            "type": "simple_elimination",
            "order": list(G.labels_of(self.order)),
        }


def _chain_or_witness(cm, ranked: list[int],
                      shift: int) -> tuple[tuple[int, ...] | None, int]:
    """Inclusion chain over N[v], or a witness that v is not simple.

    ``cm[u]`` is the closed neighborhood N[u] and ``ranked`` holds
    ``|N[u]| << shift | u`` for every u in N[v], all in the alive-induced
    subgraph (``1 << shift`` exceeds every id); ``ranked`` is sorted in
    place, that is, by size and then id. Total order by inclusion is
    checked on that order: equal-size distinct sets are incomparable and
    fail the consecutive subset test, and in a chain equal sizes mean
    equal sets, so the chain comes out ordered by size and then id.
    Returns ``(chain, 0)`` when v is simple. Otherwise returns
    ``(None, witness)``, a mask of four vertices {x, y, a, b} (not
    necessarily distinct): x and y consecutive in the sorted list, a in
    N[x] minus N[y] and b in N[y] minus N[x]. While all four stay alive,
    v stays non-simple. The witness comes from the largest-neighborhood
    end with the highest-id a and b, because elimination removes low ids
    first.
    """
    ranked.sort()
    ids = (1 << shift) - 1
    y = ranked[-1] & ids
    cm_y = cm[y]
    for i in range(len(ranked) - 2, -1, -1):
        x = ranked[i] & ids
        cm_x = cm[x]
        only_x = cm_x & ~cm_y
        if only_x:
            a = only_x.bit_length() - 1
            b = (cm_y & ~cm_x).bit_length() - 1
            return None, (1 << x) | (1 << y) | (1 << a) | (1 << b)
        y, cm_y = x, cm_x
    return tuple([r & ids for r in ranked]), 0


def recognize_strongly_chordal(G: Graph) -> SEO | None:
    """Greedy simple-vertex elimination.

    Complete because the class is closed under induced subgraphs and every
    member has a simple vertex (Farber 1983), so any greedy choice leaves
    the invariant intact: a simple vertex stays simple after deletions.

    Each step eliminates the lowest-id simple vertex. The alive closed
    neighborhood ``cm[u]`` of every vertex and its size, kept in
    ``rank[u]`` as the sort key of ``_chain_or_witness``, are updated
    over ``G.adj[v]`` when v is eliminated, so a simple test only sorts
    cached keys and compares cached masks.

    Most tests fail, so a cheaper test runs first. A simple vertex is
    simplicial: for x, y in N(v), N[x] and N[y] are nested, say
    N[x] ⊆ N[y], so x is in N[y] and x, y are adjacent. The alive
    neighbors u of v are probed in descending id order until N[v] minus
    N[u] holds some a; the highest such a is taken. a ≠ v because v is in
    N[u], and a ≠ u because u is in N[u], so u and a are non-adjacent
    neighbors of v, and v is not simple while both are alive. Only a
    simplicial v builds and sorts its keys for the chain test. High ids
    are probed and kept for the same reason as in ``_chain_or_witness``:
    elimination removes low ids first, so such witnesses last longer.

    A vertex that tests non-simple keeps its witness, two vertices from
    the probe or four from ``_chain_or_witness``, and is skipped by later
    scans until one witness vertex is eliminated; only then is it
    retested. The order and chains are those of testing every alive
    vertex at every step.
    """
    shift = G.n.bit_length()
    cm = [m | (1 << u) for u, m in enumerate(G.adj_masks)]
    # |N[u]| << shift | u while u is alive, 0 once it is eliminated
    rank = [(len(nbrs) + 1) << shift | u for u, nbrs in enumerate(G.adj)]
    one = 1 << shift
    alive = (1 << G.n) - 1
    blocked = 0  # tested non-simple, witness intact
    witness = [0] * G.n
    # vertex -> vertices whose witness held it when they were tested
    watchers: list[list[int]] = [[] for _ in range(G.n)]
    order: list[int] = []
    chains: list[tuple[int, ...]] = []
    while alive:
        todo = alive & ~blocked
        while todo:
            v = (todo & -todo).bit_length() - 1
            cm_v = cm[v]
            wit = 0
            for u in reversed(G.adj[v]):
                if rank[u] and (miss := cm_v & ~cm[u]):
                    wit = (1 << u) | (1 << (miss.bit_length() - 1))
                    break
            if not wit:
                ranked = [r for u in G.adj[v] if (r := rank[u])]
                ranked.append(rank[v])
                chain, wit = _chain_or_witness(cm, ranked, shift)
                if chain is not None:
                    break
            witness[v] = wit
            blocked |= 1 << v
            for w in iter_bits(wit):
                watchers[w].append(v)
            todo &= todo - 1
        else:
            return None
        order.append(v)
        chains.append(chain)
        bit = 1 << v
        alive ^= bit
        rank[v] = 0
        for u in G.adj[v]:
            if rank[u]:
                cm[u] ^= bit
                rank[u] -= one
        for u in watchers[v]:
            if witness[u] >> v & 1:
                blocked &= ~(1 << u)
        watchers[v] = []
    return SEO(tuple(order), tuple(chains))


def verify_seo(G: Graph, seo: SEO) -> bool:
    """Recheck that each vertex is simple when its turn comes."""
    if sorted(seo.order) != list(range(G.n)) or len(seo.chains) != G.n:
        return False
    masks = G.adj_masks
    alive = (1 << G.n) - 1
    for v, chain in zip(seo.order, seo.chains):
        members = (masks[v] | (1 << v)) & alive
        if sorted(chain) != sorted(iter_bits(members)):
            return False
        closed = [(masks[u] | (1 << u)) & alive for u in chain]
        for cm_a, cm_b in zip(closed, closed[1:]):
            if cm_a & ~cm_b:
                return False
        alive &= ~(1 << v)
    return True
