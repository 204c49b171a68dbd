"""Graph-class recognizers with replayable certificates.

Four classes are recognized: distance-hereditary (pendant/twin pruning),
P4-sparse (every five vertices induce at most one P4; decided by splitting
into disjoint unions, joins and spiders), bipartite permutation
(strong-ordering search), and strongly chordal (simple-vertex
elimination). Each positive answer except P4-sparse carries a certificate
that an independent verifier in this module can recheck.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import NotConnectedError
from .graph_core import Graph, bfs_distances, iter_bits

DEFAULT_BP_EXHAUSTIVE_LIMIT = 10
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
    the first twin of an ascending scan. Pendants are degree-counted: the
    alive degree of every vertex is decremented when a neighbor goes, so
    the pendant set (alive degree exactly 1) is kept as a bitmask and the
    pendant step reads its lowest bit instead of rescanning the graph.
    """
    masks = G.adj_masks
    alive = (1 << G.n) - 1
    degree = [m.bit_count() for m in masks]
    pendant = 0
    for v, d in enumerate(degree):
        if d == 1:
            pendant |= 1 << v
    steps: list[PruneStep] = []
    for _ in range(G.n - 1):
        if pendant:
            v = (pendant & -pendant).bit_length() - 1
            step = PruneStep(v, "pendant", (masks[v] & alive).bit_length() - 1)
        else:
            step = _first_twin(masks, alive)
            if step is None:
                return None
        steps.append(step)
        v = step.vertex
        alive &= ~(1 << v)
        pendant &= ~(1 << v)
        for u in iter_bits(masks[v] & alive):
            degree[u] -= 1
            if degree[u] == 1:
                pendant |= 1 << u
            elif degree[u] == 0:
                pendant &= ~(1 << u)
    return PruneSequence(tuple(steps), alive.bit_length() - 1)


def _first_twin(masks: tuple[int, ...], alive: int) -> PruneStep | None:
    """First vertex of an ascending scan that twins an earlier one."""
    open_seen: dict[int, int] = {}
    closed_seen: dict[int, int] = {}
    for v in iter_bits(alive):
        nb = masks[v] & alive
        cl = nb | (1 << v)
        if cl in closed_seen:
            return PruneStep(v, "true_twin", closed_seen[cl])
        if nb in open_seen:
            return PruneStep(v, "false_twin", open_seen[nb])
        closed_seen[cl] = v
        open_seen[nb] = v
    return None


def verify_prune_sequence(G: Graph, seq: PruneSequence) -> bool:
    """Recheck every pruning step against the shrinking graph."""
    if len(seq.steps) != G.n - 1:
        return False
    masks = G.adj_masks
    alive = (1 << G.n) - 1
    for step in seq.steps:
        v, w = step.vertex, step.partner
        if v == w or not (alive >> v) & 1 or not (alive >> w) & 1:
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


def _components(masks: tuple[int, ...], X: int) -> list[int]:
    """Components of the subgraph induced by X as vertex masks. Given the
    complemented masks (``~m``), it returns the co-components instead."""
    parts = []
    while X:
        comp = frontier = X & -X
        while frontier:
            reach = 0
            for v in iter_bits(frontier):
                reach |= masks[v]
            frontier = reach & X & ~comp
            comp |= frontier
        parts.append(comp)
        X &= ~comp
    return parts


def recognize_p4_sparse(G: Graph) -> bool:
    """True iff every five vertices induce at most one P4.

    Walks the structure theorem of Jamison and Olariu (1992): a graph is
    P4-sparse iff it has at most one vertex, or it is a disjoint union of
    P4-sparse graphs, or a join of P4-sparse graphs, or a spider whose
    head is P4-sparse. Vertex sets wait on a stack as bitmasks; a set
    whose graph and complement are both connected must be a spider, found
    by ``_spider_masks``, and only its head is pushed.
    """
    masks = G.adj_masks
    co_masks = tuple(~m for m in masks)
    stack = [(1 << G.n) - 1]
    while stack:
        X = stack.pop()
        if X & (X - 1) == 0:
            continue
        parts = _components(masks, X)
        if len(parts) == 1:
            parts = _components(co_masks, X)
        if len(parts) > 1:
            stack.extend(parts)
            continue
        spider = _spider_masks(masks, X)
        if spider is None:
            return False
        stack.append(spider[2])
    return True


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
    all_ids = list(S) + list(C) + list(R)
    if len(set(all_ids)) != len(all_ids) or len(all_ids) != G.n:
        return None
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


def detect_spider(G: Graph) -> SpiderPartition | None:
    """Find the spider partition of G if one exists.

    The degree rules of ``_spider_masks`` give the candidate, which is
    returned normalized by ``verify_spider_partition``. Graphs on at most
    ``SPIDER_FALLBACK_LIMIT`` vertices that the rules reject additionally
    get an exhaustive search over all partitions.
    """
    n = G.n
    spider = _spider_masks(G.adj_masks, (1 << n) - 1)
    if spider is not None:
        return verify_spider_partition(G, *(iter_bits(m) for m in spider))
    if n <= SPIDER_FALLBACK_LIMIT:
        for assign in itertools.product((0, 1, 2), repeat=n):
            S = [v for v in range(n) if assign[v] == 0]
            if len(S) < 2 or 2 * len(S) > n:
                continue
            C = [v for v in range(n) if assign[v] == 1]
            if len(C) != len(S):
                continue
            R = [v for v in range(n) if assign[v] == 2]
            part = verify_spider_partition(G, S, C, R)
            if part is not None:
                return part
    return None


# ---------------------------------------------------------------------------
# bipartite permutation: strong orderings


@dataclass(frozen=True)
class StrongOrdering:
    """Vertex orders of the two sides plus first/last neighbor maps
    (extremes under the opposite side's order)."""

    x_order: tuple[int, ...]
    y_order: tuple[int, ...]
    first: dict
    last: dict

    def to_json(self, G: Graph) -> dict:
        return {
            "type": "strong_ordering",
            "xOrder": list(G.labels_of(self.x_order)),
            "yOrder": list(G.labels_of(self.y_order)),
        }


@dataclass(frozen=True)
class BipPermResult:
    verdict: str  # "yes" | "no" | "unknown"
    ordering: StrongOrdering | None


def strong_ordering_from_orders(G: Graph, x_order, y_order) -> StrongOrdering:
    x_order = tuple(x_order)
    y_order = tuple(y_order)
    if sorted(x_order + y_order) != list(range(G.n)):
        raise ValueError("orders do not partition the vertex set")
    pos = {}
    for i, v in enumerate(x_order):
        pos[v] = i
    for i, v in enumerate(y_order):
        pos[v] = i
    first = {}
    last = {}
    for v in x_order + y_order:
        if G.adj[v]:
            first[v] = min(G.adj[v], key=lambda w: pos[w])
            last[v] = max(G.adj[v], key=lambda w: pos[w])
    return StrongOrdering(x_order, y_order, first, last)


def _two_coloring(G: Graph) -> tuple[list[int], list[int]] | None:
    color = [-1] * G.n
    for s in range(G.n):
        if color[s] != -1:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for w in G.adj[v]:
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return None
    return ([v for v in range(G.n) if color[v] == 0],
            [v for v in range(G.n) if color[v] == 1])


def _consecutive_neighborhoods(G: Graph, so: StrongOrdering) -> bool:
    """Cheap necessary condition used to prefilter candidates."""
    pos = {}
    for i, v in enumerate(so.x_order):
        pos[v] = i
    for i, v in enumerate(so.y_order):
        pos[v] = i
    for v in range(G.n):
        if not G.adj[v]:
            continue
        ps = sorted(pos[w] for w in G.adj[v])
        if ps[-1] - ps[0] + 1 != len(ps):
            return False
    return True


def verify_strong_ordering(G: Graph, so: StrongOrdering) -> bool:
    """Full certificate check, quadratic in the edge count.

    Raises ValueError when the two orders are not a bipartition of G;
    returns False when any ordering property fails.
    """
    xs, ys = set(so.x_order), set(so.y_order)
    if len(so.x_order) != len(xs) or len(so.y_order) != len(ys):
        raise ValueError("orders repeat vertices")
    if xs & ys or len(xs) + len(ys) != G.n:
        raise ValueError("orders do not partition the vertex set")
    for side in (so.x_order, so.y_order):
        for v in side:
            for w in G.adj[v]:
                if (w in xs) == (v in xs):
                    raise ValueError("ordering sides are not a bipartition")
    xpos = {v: i for i, v in enumerate(so.x_order)}
    ypos = {v: i for i, v in enumerate(so.y_order)}
    edges = []
    for v in so.x_order:
        edges.extend((v, w) for w in G.adj[v])
    for a, b in edges:
        pa, pb = xpos[a], ypos[b]
        for a2, b2 in edges:
            if pa < xpos[a2] and ypos[b2] < pb:
                if not (G.has_edge(a, b2) and G.has_edge(a2, b)):
                    return False
    if not _consecutive_neighborhoods(G, so):
        return False
    # Enclosure: nested neighborhoods differ by a consecutive run.
    masks = G.adj_masks
    for side, pos in ((so.x_order, ypos), (so.y_order, xpos)):
        for u in side:
            for v in side:
                if u == v or masks[u] & ~masks[v]:
                    continue
                diff = masks[v] & ~masks[u]
                ps = sorted(pos[w] for w in iter_bits(diff))
                if ps and ps[-1] - ps[0] + 1 != len(ps):
                    return False
    for side, pos in ((so.x_order, ypos), (so.y_order, xpos)):
        prev_f = prev_l = -1
        for v in side:
            if v not in so.first:
                if G.adj[v]:
                    return False
                continue
            f, l = pos[so.first[v]], pos[so.last[v]]
            computed_f = min(pos[w] for w in G.adj[v])
            computed_l = max(pos[w] for w in G.adj[v])
            if f != computed_f or l != computed_l:
                return False
            if f < prev_f or l < prev_l:
                return False
            prev_f, prev_l = f, l
    return True


def _layered_candidate(G: Graph, start: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Order vertices by BFS layers; inside a layer, sort by the position
    extremes of the neighbors one layer closer to the start."""
    layers = [[start]]
    pos = {start: 0}
    seen = {start}
    while True:
        prev = layers[-1]
        nxt = sorted({w for v in prev for w in G.adj[v] if w not in seen})
        if not nxt:
            break
        nxt.sort(key=lambda v: (min(pos[w] for w in G.adj[v] if w in pos),
                                max(pos[w] for w in G.adj[v] if w in pos),
                                v))
        for i, v in enumerate(nxt):
            pos[v] = i
        seen.update(nxt)
        layers.append(nxt)
    x_order = [v for i, layer in enumerate(layers) if i % 2 == 0 for v in layer]
    y_order = [v for i, layer in enumerate(layers) if i % 2 == 1 for v in layer]
    return tuple(x_order), tuple(y_order)


def recognize_bipartite_permutation(
        G: Graph,
        exhaustive_limit: int = DEFAULT_BP_EXHAUSTIVE_LIMIT) -> BipPermResult:
    """Search for a strong ordering.

    The layered heuristic is tried from a double-sweep endpoint and then
    from every vertex; every candidate is fully verified, so "yes" is
    always certified. "no" is certified by non-bipartiteness or, on small
    graphs, by exhausting all orderings; otherwise the verdict is
    "unknown".
    """
    from .graph_core import is_connected

    if G.n == 0 or not is_connected(G):
        raise NotConnectedError("strong-ordering search needs a connected graph")
    coloring = _two_coloring(G)
    if coloring is None:
        return BipPermResult("no", None)
    if G.n == 1:
        so = strong_ordering_from_orders(G, (0,), ())
        return BipPermResult("yes", so)

    def farthest(s: int) -> int:
        dist = bfs_distances(G, s)
        best = max(dist)
        return min(v for v in range(G.n) if dist[v] == best)

    u1 = farthest(0)
    u2 = farthest(u1)
    starts = [u1, u2] + [v for v in range(G.n) if v not in (u1, u2)]
    for start in starts:
        x_order, y_order = _layered_candidate(G, start)
        so = strong_ordering_from_orders(G, x_order, y_order)
        if _consecutive_neighborhoods(G, so) and verify_strong_ordering(G, so):
            return BipPermResult("yes", so)
    if G.n <= exhaustive_limit:
        X, Y = coloring
        for px in itertools.permutations(X):
            for py in itertools.permutations(Y):
                so = strong_ordering_from_orders(G, px, py)
                if _consecutive_neighborhoods(G, so) and verify_strong_ordering(G, so):
                    return BipPermResult("yes", so)
        return BipPermResult("no", None)
    return BipPermResult("unknown", None)


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


def _simple_chain(masks: tuple[int, ...], alive: int,
                  v: int) -> tuple[tuple[int, ...] | None, int]:
    """Inclusion chain over N[v] in the alive-induced subgraph, or a witness.

    Total order by inclusion is checked by sorting on popcount (then id):
    equal-size distinct sets are incomparable and fail the consecutive
    subset test, and in a chain equal sizes mean equal sets, so the chain
    comes out ordered by size and then id. Returns ``(chain, 0)`` when v
    is simple. Otherwise returns ``(None, witness)``, a mask of four
    vertices {x, y, a, b} (not necessarily distinct): x and y consecutive
    in the sorted list, a in N[x] minus N[y] and b in N[y] minus N[x].
    While all four stay alive, v stays non-simple. The witness comes from
    the largest-neighborhood end with the highest-id a and b, because
    elimination removes low ids first.
    """
    closed = []
    members = (masks[v] | (1 << v)) & alive
    while members:
        low = members & -members
        u = low.bit_length() - 1
        cm = (masks[u] | low) & alive
        closed.append((cm.bit_count(), u, cm))
        members ^= low
    closed.sort()
    for i in range(len(closed) - 1, 0, -1):
        _, x, cm_x = closed[i - 1]
        _, y, cm_y = closed[i]
        only_x = cm_x & ~cm_y
        if only_x:
            a = only_x.bit_length() - 1
            b = (cm_y & ~cm_x).bit_length() - 1
            return None, (1 << x) | (1 << y) | (1 << a) | (1 << b)
    return tuple(u for _, u, _ in closed), 0


def is_simple(G: Graph, v: int) -> tuple[bool, tuple[int, ...] | None]:
    """Simple vertex test: closed neighborhoods of N[v] form a chain."""
    if not 0 <= v < G.n:
        raise ValueError("vertex id out of range")
    chain, _ = _simple_chain(G.adj_masks, (1 << G.n) - 1, v)
    return (chain is not None), chain


def recognize_strongly_chordal(G: Graph) -> SEO | None:
    """Greedy simple-vertex elimination.

    Complete because the class is closed under induced subgraphs and every
    member has a simple vertex (Farber 1983), so any greedy choice leaves
    the invariant intact: a simple vertex stays simple after deletions.

    Each step eliminates the lowest-id simple vertex. A vertex that tests
    non-simple keeps the four-vertex witness of ``_simple_chain`` and is
    skipped by later scans until one of those four vertices is eliminated;
    only then is it retested. The order and chains are those of testing
    every alive vertex at every step.
    """
    masks = G.adj_masks
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
            chain, wit = _simple_chain(masks, alive, v)
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
        alive &= ~(1 << v)
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
