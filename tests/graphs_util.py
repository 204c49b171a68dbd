"""Fixture builders and slow reference implementations shared by tests.

Everything here recomputes from raw adjacency with its own BFS/DFS code,
deliberately avoiding the package's algorithms, so these helpers can act
as independent ground truth in oracle-style comparisons.
"""

from __future__ import annotations

import itertools
from collections import deque

from megsolve import (SEO, Graph, PruneSequence, PruneStep, SpiderPartition,
                      StrongOrdering, build_graph, verify_spider_partition)


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


def brute_mandatory(G: Graph) -> list[int]:
    out = []
    for v in range(G.n):
        rest = [u for u in range(G.n) if u != v]
        if len(rest) < 2 or not brute_is_meg(G, rest):
            out.append(v)
    return out


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
                ps = sorted(pos[w] for w in _bits(diff))
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


def rescan_distance_hereditary(G: Graph) -> PruneSequence | None:
    """Reference pruning that rescans every alive vertex at every step:
    the lowest-id pendant vertex, else the first twin of an ascending scan.
    The package's recognizer must return the identical sequence."""
    masks = G.adj_masks
    alive = (1 << G.n) - 1
    steps: list[PruneStep] = []
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
            return None
        steps.append(step)
        alive &= ~(1 << step.vertex)
        remaining -= 1
    return PruneSequence(tuple(steps), alive.bit_length() - 1)


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
