"""Fixture builders and slow reference implementations shared by tests.

Everything here recomputes from raw adjacency with its own BFS/DFS code,
deliberately avoiding the package's algorithms, so these helpers can act
as independent ground truth in oracle-style comparisons.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections import deque

from megsolve import (SEO, EdgeListParseError, Graph, PruneSequence, PruneStep,
                      SelfLoopError, SpiderPartition, StrongOrdering,
                      build_graph, mandatory_vertices,
                      verify_spider_partition)
from megsolve.graph_core import (articulation_points, bfs_distances,
                                 vertex_set)
from megsolve.monitoring import (SATURATION_CAP, MegSetCheck,
                                 geodesic_edge_rows, require_meg_input)


def path_graph(k: int) -> Graph:
    labels = [f"v{i}" for i in range(k)]
    return build_graph([(labels[i], labels[i + 1]) for i in range(k - 1)],
                       vertices=labels)


def cycle_graph(k: int) -> Graph:
    labels = [f"v{i}" for i in range(k)]
    return build_graph([(labels[i], labels[(i + 1) % k]) for i in range(k)])


def complete_graph(k: int) -> Graph:
    labels = [f"v{i}" for i in range(k)]
    return build_graph(list(itertools.combinations(labels, 2)),
                       vertices=labels)


def star_graph(leaves: int) -> Graph:
    return build_graph([("c", f"l{i}") for i in range(1, leaves + 1)])


def complete_bipartite(p: int, q: int) -> Graph:
    return build_graph([(f"x{i}", f"y{j}")
                        for i in range(p) for j in range(q)])


def with_universal(G: Graph, label: str = "u") -> Graph:
    edges = [(G.label(u), G.label(v)) for u, v in G.edges()]
    edges += [(label, lab) for lab in G.labels]
    return build_graph(edges, vertices=list(G.labels) + [label])


def _connected_sets(n: int, pairs: list[tuple[int, int]]) -> bool:
    if n == 0:
        return False
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for u, v in pairs:
        adj[u].add(v)
        adj[v].add(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def all_connected_graphs(n: int, degree_sorted: bool = False):
    """Every connected graph on n labeled vertices, by edge subsets.

    With ``degree_sorted``, only those whose degrees do not increase with
    the vertex id: relabeling by degree shows that this still leaves at
    least one graph of every isomorphism class.
    """
    labels = [f"v{i}" for i in range(n)]
    slots = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(slots)):
        pairs = [slots[i] for i in range(len(slots)) if bits >> i & 1]
        if degree_sorted:
            degree = [0] * n
            for u, v in pairs:
                degree[u] += 1
                degree[v] += 1
            if any(degree[i] < degree[i + 1] for i in range(n - 1)):
                continue
        if _connected_sets(n, pairs):
            yield build_graph([(labels[u], labels[v]) for u, v in pairs],
                              vertices=labels)


def canonical_form(G: Graph) -> tuple[tuple[int, int], ...]:
    """Sorted edge list under the least relabeling, equal exactly for
    isomorphic graphs.

    Only relabelings that sort vertices by (degree, sorted neighbor
    degrees) are tried: an isomorphism preserves that key, so isomorphic
    graphs try the same set of relabeled edge lists.
    """
    degree = [len(G.adj[v]) for v in range(G.n)]
    key = {v: (degree[v], sorted(degree[u] for u in G.adj[v]))
           for v in range(G.n)}
    cells = [list(group) for _, group in itertools.groupby(
        sorted(range(G.n), key=key.__getitem__), key=key.__getitem__)]
    edges = G.edges()
    best = None
    for parts in itertools.product(*(itertools.permutations(c) for c in cells)):
        new_id = {v: i for i, v in enumerate(itertools.chain(*parts))}
        form = tuple(sorted(tuple(sorted((new_id[u], new_id[v])))
                            for u, v in edges))
        if best is None or form < best:
            best = form
    return best


def extended_graphs(n: int):
    """Connected graphs on n >= 2 vertices, at least one per isomorphism
    class: each class representative on n - 1 vertices with a new vertex
    n - 1 joined to every non-empty vertex subset. A connected graph has a
    vertex whose deletion leaves it connected, so every class appears."""
    labels = [f"v{i}" for i in range(n)]
    for H in connected_graph_classes(n - 1):
        base = [(labels[u], labels[v]) for u, v in H.edges()]
        for subset in range(1, 1 << (n - 1)):
            yield build_graph(base + [(labels[u], labels[n - 1])
                                      for u in _bits(subset)],
                              vertices=labels)


@functools.cache
def connected_graph_classes(n: int) -> tuple[Graph, ...]:
    """One connected graph on n vertices per isomorphism class (1, 1, 2,
    6, 21, 112 and 853 classes for n = 1 to 7)."""
    if n == 1:
        return (build_graph([], vertices=["v0"]),)
    reps: dict = {}
    for G in extended_graphs(n):
        reps.setdefault(canonical_form(G), G)
    return tuple(reps.values())


def shuffled_ids(G: Graph, rng: random.Random) -> Graph:
    """The same labelled graph with its vertex ids permuted at random."""
    new_id = list(range(G.n))
    rng.shuffle(new_id)
    labels = [None] * G.n
    for v, label in enumerate(G.labels):
        labels[new_id[v]] = label
    return Graph(labels, [(new_id[u], new_id[v]) for u, v in G.edges()])


def random_connected_graph(rng, n: int, extra: int = 0) -> Graph:
    labels = [f"v{i}" for i in range(n)]
    edges = [(labels[rng.randrange(i)], labels[i]) for i in range(1, n)]
    have = {tuple(sorted((int(a[1:]), int(b[1:])))) for a, b in edges}
    spare = [p for p in itertools.combinations(range(n), 2) if p not in have]
    for u, v in rng.sample(spare, min(extra, len(spare))):
        edges.append((labels[u], labels[v]))
    return build_graph(edges, vertices=labels)


def _adj_sets(G: Graph) -> dict[int, set[int]]:
    return {v: set(G.adj[v]) for v in range(G.n)}


def _bfs_plain(adj: dict[int, set[int]], s: int) -> dict[int, int]:
    dist = {s: 0}
    q = deque([s])
    while q:
        u = q.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                q.append(w)
    return dist


def all_geodesics(G: Graph, a: int, b: int) -> list[tuple[int, ...]]:
    """Every shortest a-b path as a vertex tuple, by DFS over tight edges."""
    adj = _adj_sets(G)
    dist_b = _bfs_plain(adj, b)
    if a not in dist_b:
        return []
    paths = []
    stack = [(a, (a,))]
    while stack:
        u, path = stack.pop()
        if u == b:
            paths.append(path)
            continue
        for w in adj[u]:
            if w in dist_b and dist_b[w] == dist_b[u] - 1:
                stack.append((w, path + (w,)))
    return paths


def brute_monitors(G: Graph, a: int, b: int, edge: tuple[int, int]) -> bool:
    lo, hi = min(edge), max(edge)
    paths = all_geodesics(G, a, b)
    if not paths:
        return False
    for path in paths:
        if not any({path[i], path[i + 1]} == {lo, hi}
                   for i in range(len(path) - 1)):
            return False
    return True


def brute_is_meg(G: Graph, members) -> bool:
    members = sorted(members)
    for u, v in G.edges():
        if not any(brute_monitors(G, a, b, (u, v))
                   for a, b in itertools.combinations(members, 2)):
            return False
    return True


def full_scan_is_meg_set(G: Graph, members) -> MegSetCheck:
    """The package's former ``is_meg_set``: base distances from all n
    vertices and one deletion BFS per member for every edge, edges inside
    S included. Reference for ``is_meg_set``, which must return the same
    ``MegSetCheck`` with at most as many BFS runs."""
    require_meg_input(G)
    S = vertex_set(members)
    if S and (S[0] < 0 or S[-1] >= G.n):
        raise ValueError("vertex id out of range")
    dist = [bfs_distances(G, s) for s in range(G.n)]
    for u, v in G.edges():
        covered = False
        for a in S:
            row = bfs_distances(G, a, skip_edge=(u, v))
            base = dist[a]
            for b in S:
                if b <= a:
                    continue
                if row[b] > base[b]:
                    covered = True
                    break
            if covered:
                break
        if not covered:
            return MegSetCheck(False, (u, v))
    return MegSetCheck(True, None)


def sorted_shortest_path_counts(G: Graph, cap: int = SATURATION_CAP):
    """The package's former ``shortest_path_counts``: a distance BFS per
    source, then counts summed over predecessors in sorted-distance order.
    Reference for the single-BFS count, which must return the same
    matrices."""
    require_meg_input(G)
    dist_rows = []
    count_rows = []
    for s in range(G.n):
        dist = bfs_distances(G, s)
        sigma = [0] * G.n
        sigma[s] = 1
        for v in sorted((x for x in range(G.n) if x != s), key=lambda x: dist[x]):
            total = 0
            for w in G.adj[v]:
                if dist[w] + 1 == dist[v]:
                    total += sigma[w]
                    if total >= cap:
                        total = cap
                        break
            sigma[v] = total
        dist_rows.append(tuple(dist))
        count_rows.append(tuple(sigma))
    return tuple(dist_rows), tuple(count_rows)


def brute_min_meg(G: Graph) -> tuple[int, tuple[int, ...]]:
    for size in range(2, G.n + 1):
        for combo in itertools.combinations(range(G.n), size):
            if brute_is_meg(G, combo):
                return size, combo
    raise AssertionError("whole vertex set must monitor everything")


def brute_all_min_meg(G: Graph) -> list[tuple[int, ...]]:
    size, _ = brute_min_meg(G)
    return [c for c in itertools.combinations(range(G.n), size)
            if brute_is_meg(G, c)]


def _tuple_keyed_cover(G: Graph) -> tuple[int, dict[tuple[int, int], int]]:
    """Full coverage mask and a dict from each pair (s, t), s < t, that
    monitors some edge to the mask of those edges."""
    must = list(geodesic_edge_rows(G.adj, range(G.n)))
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


def rescan_min_meg(G: Graph, trust_bounds: bool = True
                   ) -> tuple[int, tuple[int, ...], int, bool]:
    """The oracle's subset search with every subset's pair union rebuilt
    from a tuple-keyed dict: (meg, witness, explored, trusted_bounds) as
    ``min_meg_bruteforce`` reports them. Shares the cover masks, the
    mandatory vertices and the cut vertices with the package; only the
    enumeration is independent."""
    full, cover = _tuple_keyed_cover(G)
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
                    return len(S), S, explored, True
        raise AssertionError("no MEG set found inside sandwich bounds")
    for size in range(2, G.n + 1):
        for combo in itertools.combinations(range(G.n), size):
            explored += 1
            if _covers_all(combo, full, cover):
                return size, combo, explored, False
    raise AssertionError("V itself must be an MEG set")


def rescan_all_min_meg_sets(G: Graph) -> list[tuple[int, ...]]:
    """``all_min_meg_sets`` by the same rescanning enumeration."""
    full, cover = _tuple_keyed_cover(G)
    for size in range(2, G.n + 1):
        hits = [combo for combo in itertools.combinations(range(G.n), size)
                if _covers_all(combo, full, cover)]
        if hits:
            return hits
    raise AssertionError("V itself must be an MEG set")


def brute_mandatory(G: Graph) -> list[int]:
    out = []
    for v in range(G.n):
        rest = [u for u in range(G.n) if u != v]
        if len(rest) < 2 or not brute_is_meg(G, rest):
            out.append(v)
    return out


def per_x_is_mandatory(G: Graph, v: int) -> tuple[bool, int | None]:
    """The 4-cycle rule of ``is_mandatory`` checked one x at a time: the
    first neighbor u of v such that every x in N(v) minus N[u] has a
    common neighbor w != v with u."""
    masks = G.adj_masks
    v_bit = 1 << v
    for u in G.adj[v]:
        mask_u = masks[u]
        rest = masks[v] & ~mask_u & ~(1 << u)
        if all(mask_u & masks[x] & ~v_bit for x in _bits(rest)):
            return True, u
    return False, None


def brute_articulation(G: Graph) -> list[int]:
    adj = _adj_sets(G)
    out = []
    for v in range(G.n):
        rest = [u for u in range(G.n) if u != v]
        if len(rest) < 2:
            continue
        sub = {u: adj[u] - {v} for u in rest}
        if len(_bfs_plain(sub, rest[0])) != len(rest):
            out.append(v)
    return out


def scan_induced_subgraph(G: Graph, members) -> Graph:
    """The subgraph induced by ``members``, labels carried over, read off
    every member's whole adjacency list. Reference for the block lists
    that ``local_adjacency`` builds from ``block_edges``."""
    ids = vertex_set(members)
    remap = {old: new for new, old in enumerate(ids)}
    edges = [(remap[u], remap[v])
             for u in ids for v in G.adj[u] if u < v and v in remap]
    return Graph([G.labels[i] for i in ids], edges)


def _induces_p4_sets(adj: dict[int, set[int]], quad) -> bool:
    for order in itertools.permutations(quad):
        a, b, c, d = order
        if a > d:
            continue
        if (b in adj[a] and c in adj[b] and d in adj[c]
                and c not in adj[a] and d not in adj[a] and d not in adj[b]):
            return True
    return False


def brute_p4_sparse(G: Graph) -> bool:
    """Literal definition: no 5 vertices induce two or more P4s."""
    adj = _adj_sets(G)
    for five in itertools.combinations(range(G.n), 5):
        count = sum(_induces_p4_sets(adj, quad)
                    for quad in itertools.combinations(five, 4))
        if count > 1:
            return False
    return True


def _induces_p4(masks: tuple[int, ...], a: int, b: int, c: int, d: int) -> bool:
    ab = masks[a] >> b & 1
    ac = masks[a] >> c & 1
    ad = masks[a] >> d & 1
    bc = masks[b] >> c & 1
    bd = masks[b] >> d & 1
    cd = masks[c] >> d & 1
    if ab + ac + ad + bc + bd + cd != 3:
        return False
    # Three edges on four vertices form P4, K1,3 or K3+K1; only the path
    # has every degree in {1, 2}.
    da = ab + ac + ad
    db = ab + bc + bd
    dc = ac + bc + cd
    dd = ad + bd + cd
    return 1 <= da <= 2 and 1 <= db <= 2 and 1 <= dc <= 2 and 1 <= dd <= 2


def scan_p4_sparse(G: Graph) -> bool:
    """True iff every five vertices induce at most one P4.

    Streams induced P4s and tests only the five-vertex supersets of each,
    which is equivalent to the direct scan over all 5-subsets: two P4s in
    one 5-set must share three vertices. O(n^5) in the worst case; the
    package's recognizer must agree with it.
    """
    if G.n < 5:
        return True
    masks = G.adj_masks
    n = G.n
    for quad in itertools.combinations(range(n), 4):
        if not _induces_p4(masks, *quad):
            continue
        in_quad = set(quad)
        for w in range(n):
            if w in in_quad:
                continue
            for i in range(4):
                a, b, c = (quad[j] for j in range(4) if j != i)
                if _induces_p4(masks, a, b, c, w):
                    return False
    return True


def exhaustive_spider(G: Graph) -> SpiderPartition | None:
    """Spider partition by trying all 3^n assignments of legs, body and
    head; the package's degree rules must find a spider whenever this
    does."""
    n = G.n
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


def brute_distance_hereditary(G: Graph) -> bool:
    """Every connected induced subgraph preserves distances."""
    adj = _adj_sets(G)
    base = {v: _bfs_plain(adj, v) for v in range(G.n)}
    for size in range(2, G.n + 1):
        for members in itertools.combinations(range(G.n), size):
            keep = set(members)
            sub = {v: adj[v] & keep for v in members}
            dist = _bfs_plain(sub, members[0])
            if len(dist) != size:
                continue
            for v in members:
                dv = _bfs_plain(sub, v)
                if any(dv[u] != base[v][u] for u in members):
                    return False
    return True


def _strong_ok(adj: dict[int, set[int]], xs, ys) -> bool:
    xpos = {v: i for i, v in enumerate(xs)}
    ypos = {v: i for i, v in enumerate(ys)}
    edges = [(a, b) for a in xs for b in adj[a]]
    for (a, b), (a2, b2) in itertools.combinations(edges, 2):
        if xpos[a] < xpos[a2] and ypos[b2] < ypos[b]:
            if b2 not in adj[a] or b not in adj[a2]:
                return False
        if xpos[a2] < xpos[a] and ypos[b] < ypos[b2]:
            if b not in adj[a2] or b2 not in adj[a]:
                return False
    return True


def _consecutive_neighborhoods(G: Graph, so: StrongOrdering) -> bool:
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


def quadratic_strong_ordering(G: Graph, so: StrongOrdering) -> bool:
    """The package's former strong-ordering check, quadratic in the edge
    count: an all-pairs crossing scan and an all-pairs enclosure scan on
    top of the interval and monotone-end checks. Reference for
    ``verify_strong_ordering``.

    Raises ValueError when the two orders are not a bipartition of G;
    returns False when any ordering property fails.
    """
    xs, ys = set(so.x_order), set(so.y_order)
    if len(so.x_order) != len(xs) or len(so.y_order) != len(ys):
        raise ValueError("orders repeat vertices")
    if xs & ys or len(xs) + len(ys) != G.n \
            or not all(0 <= v < G.n for v in xs | ys):
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
                ps = sorted(pos[w] for w in _bits(diff))
                if ps and ps[-1] - ps[0] + 1 != len(ps):
                    return False
    for side, pos in ((so.x_order, ypos), (so.y_order, xpos)):
        prev_f = prev_l = -1
        for v in side:
            if not G.adj[v]:
                continue
            f = min(pos[w] for w in G.adj[v])
            l = max(pos[w] for w in G.adj[v])
            if f < prev_f or l < prev_l:
                return False
            prev_f, prev_l = f, l
    return True


def brute_bipartite_permutation(G: Graph) -> bool:
    """Try every ordering pair of the two color classes."""
    adj = _adj_sets(G)
    color = {0: 0}
    q = deque([0])
    while q:
        u = q.popleft()
        for w in adj[u]:
            if w not in color:
                color[w] = 1 - color[u]
                q.append(w)
            elif color[w] == color[u]:
                return False
    if len(color) != G.n:
        raise ValueError("helper expects a connected graph")
    xs = [v for v in range(G.n) if color[v] == 0]
    ys = [v for v in range(G.n) if color[v] == 1]
    for px in itertools.permutations(xs):
        for py in itertools.permutations(ys):
            if _strong_ok(adj, px, py):
                return True
    return False


def is_chordal(G: Graph) -> bool:
    """Chordality by removing any simplicial vertex until none is left."""
    masks = G.adj_masks
    alive = (1 << G.n) - 1
    while alive:
        for v in _bits(alive):
            nbrs = masks[v] & alive
            if all(not nbrs & ~masks[u] & ~(1 << u) for u in _bits(nbrs)):
                alive &= ~(1 << v)
                break
        else:
            return False
    return True


def backtracking_simple_elimination(G: Graph) -> bool:
    """Strong-chordality check that may remove ANY simple vertex, with
    backtracking, rather than the package's greedy smallest-id choice."""
    adj = _adj_sets(G)

    def simple_in(alive: frozenset, v: int) -> bool:
        closed = []
        for u in (adj[v] & alive) | {v}:
            closed.append((adj[u] & alive) | {u})
        closed.sort(key=len)
        return all(a <= b for a, b in zip(closed, closed[1:]))

    memo: dict[frozenset, bool] = {}

    def rec(alive: frozenset) -> bool:
        if len(alive) <= 1:
            return True
        if alive in memo:
            return memo[alive]
        ok = any(simple_in(alive, v) and rec(alive - {v}) for v in alive)
        memo[alive] = ok
        return ok

    return rec(frozenset(range(G.n)))


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def rescan_prune_steps(G: Graph):
    """Reference pruning that rescans every alive vertex at every step:
    yields the lowest-id pendant vertex, else the first twin of an
    ascending scan, until one vertex is left or no step exists."""
    masks = G.adj_masks
    alive = (1 << G.n) - 1
    remaining = G.n
    while remaining > 1:
        step = None
        for v in _bits(alive):
            nb = masks[v] & alive
            if nb and nb & (nb - 1) == 0:
                step = PruneStep(v, "pendant", nb.bit_length() - 1)
                break
        if step is None:
            open_seen: dict[int, int] = {}
            closed_seen: dict[int, int] = {}
            for v in _bits(alive):
                nb = masks[v] & alive
                cl = nb | (1 << v)
                if cl in closed_seen:
                    step = PruneStep(v, "true_twin", closed_seen[cl])
                    break
                if nb in open_seen:
                    step = PruneStep(v, "false_twin", open_seen[nb])
                    break
                closed_seen[cl] = v
                open_seen[nb] = v
        if step is None:
            return
        yield step
        alive &= ~(1 << step.vertex)
        remaining -= 1


def rescan_distance_hereditary(G: Graph) -> PruneSequence | None:
    """The steps of ``rescan_prune_steps`` as a sequence, or None when they
    stop early. The package's recognizer must return the identical
    sequence."""
    steps = tuple(rescan_prune_steps(G))
    if len(steps) < G.n - 1:
        return None
    alive = (1 << G.n) - 1
    for step in steps:
        alive &= ~(1 << step.vertex)
    return PruneSequence(steps, alive.bit_length() - 1)


def _rescan_chain(masks, alive: int, v: int) -> tuple[int, ...] | None:
    members = (masks[v] | (1 << v)) & alive
    closed = [((masks[u] | (1 << u)) & alive, u) for u in _bits(members)]
    closed.sort(key=lambda t: (t[0].bit_count(), t[0], t[1]))
    for (cm_a, _), (cm_b, _) in zip(closed, closed[1:]):
        if cm_a & ~cm_b:
            return None
    return tuple(u for _, u in closed)


def rescan_strongly_chordal(G: Graph) -> SEO | None:
    """Reference elimination that retests every alive vertex at every
    step and removes the lowest-id simple one. The package's recognizer
    must return the identical order and chains."""
    masks = G.adj_masks
    alive = (1 << G.n) - 1
    order: list[int] = []
    chains: list[tuple[int, ...]] = []
    while alive:
        for v in _bits(alive):
            chain = _rescan_chain(masks, alive, v)
            if chain is not None:
                order.append(v)
                chains.append(chain)
                alive &= ~(1 << v)
                break
        else:
            return None
    return SEO(tuple(order), tuple(chains))


def two_stage_parse_edge_list(text: str):
    """Reference reader, first stage: the line-by-line parser that the
    one-pass reader replaced. Returns (edge label pairs, declared
    vertices) or raises ``EdgeListParseError``."""
    edges: list[tuple[str, str]] = []
    declared: list[str] | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("vertices:"):
            if declared is not None:
                raise EdgeListParseError(line_no, "duplicate vertices header")
            declared = line[len("vertices:"):].split()
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListParseError(
                line_no, f"expected two labels, got {len(parts)}: {line!r}")
        edges.append((parts[0], parts[1]))
    return edges, declared


def two_stage_build(edges, vertices=None):
    """Reference reader, second stage: label interning by a closure, then
    per-edge id validation and bit-by-bit masks. Returns the fields a
    ``Graph`` holds as (labels, adj, adj_masks, m, label index)."""
    order: list[str] = []
    index: dict[str, int] = {}

    def intern(label: str) -> int:
        if label not in index:
            index[label] = len(order)
            order.append(label)
        return index[label]

    if vertices is not None:
        for lab in vertices:
            intern(str(lab))
    id_edges = []
    for a, b in edges:
        a, b = str(a), str(b)
        if a == b:
            raise SelfLoopError(a)
        id_edges.append((intern(a), intern(b)))
    labels = tuple(str(x) for x in order)
    n = len(labels)
    neighbor_sets: list[set[int]] = [set() for _ in range(n)]
    for u, v in id_edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise SelfLoopError(labels[u])
        neighbor_sets[u].add(v)
        neighbor_sets[v].add(u)
    masks = []
    for nb in neighbor_sets:
        mask = 0
        for w in nb:
            mask |= 1 << w
        masks.append(mask)
    return (labels, tuple(tuple(sorted(nb)) for nb in neighbor_sets),
            tuple(masks), sum(len(nb) for nb in neighbor_sets) // 2,
            {lab: i for i, lab in enumerate(labels)})


def two_stage_read(text: str):
    """``two_stage_build`` over ``two_stage_parse_edge_list``."""
    edges, declared = two_stage_parse_edge_list(text)
    return two_stage_build(edges, vertices=declared)


def quadratic_random_connected(n: int, m: int, seed: int) -> Graph:
    """Reference for ``gen_random_connected``: the same draws from a listed
    population of every non-tree pair, O(n^2) time and memory."""
    rng = random.Random(seed)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    spare = [(u, v) for u in range(n) for v in range(u + 1, n)
             if (u, v) not in edges]
    edges.update(rng.sample(spare, m - len(edges)))
    return Graph([f"v{i}" for i in range(n)], sorted(edges))


def quadratic_interval_graph(n: int, seed: int,
                             max_len: int | None = None) -> Graph:
    """Reference for ``gen_strongly_chordal(style="interval")``: the same
    intervals, every pair tested for overlap, O(n^2) time."""
    rng = random.Random(seed)
    if max_len is None:
        max_len = max(2, n // 3)
    span = 3 * n
    raw = sorted((rng.randint(0, span), rng.randint(1, max_len))
                 for _ in range(n))
    intervals: list[tuple[int, int]] = []
    reach = None
    for a, length in raw:
        if reach is not None and a > reach:
            a = reach
        b = a + length
        reach = b if reach is None else max(reach, b)
        intervals.append((a, b))
    edges = [(i, j)
             for i in range(n) for j in range(i + 1, n)
             if intervals[j][0] <= intervals[i][1]
             and intervals[i][0] <= intervals[j][1]]
    return Graph([f"v{i}" for i in range(n)], edges)
