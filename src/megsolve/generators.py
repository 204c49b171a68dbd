"""Seeded instance generators for the four solvable classes plus fuzz graphs.

Determinism contract: one ``random.Random`` (Mersenne Twister) instance is
seeded per call and consumed in a fixed order, so an identical GenSpec
always yields a bit-identical graph. Construction follows each class's
defining extension rule, and every emitted instance is certified by the
matching recognizer in the test suite.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import GenerationError
from .graph_core import Graph
from .recognizers import StrongOrdering, strong_ordering_from_orders, \
    verify_strong_ordering

CLASSES = ("distance_hereditary", "p4_sparse", "bipartite_permutation",
           "strongly_chordal", "random")


@dataclass
class GenSpec:
    """Reproducible description of one generated instance."""

    cls: str
    seed: int
    n: int | None = None
    p: int | None = None
    q: int | None = None
    m: int | None = None
    params: dict = field(default_factory=dict)

    def comment(self) -> str:
        parts = [f"class={self.cls}", f"seed={self.seed}"]
        for name in ("n", "p", "q", "m"):
            value = getattr(self, name)
            if value is not None:
                parts.append(f"{name}={value}")
        for key in sorted(self.params):
            parts.append(f"{key}={self.params[key]}")
        return "genspec: " + " ".join(parts)


def _labels(n: int, stem: str = "v") -> list[str]:
    return [f"{stem}{i}" for i in range(n)]


def gen_distance_hereditary(n: int, seed: int,
                            weights: tuple[float, float, float] = (0.4, 0.3, 0.3)
                            ) -> Graph:
    """Random pendant / true-twin / false-twin extension sequence.

    A false twin of an isolated anchor would disconnect the graph, so that
    draw degrades to a pendant attachment.
    """
    if n < 1:
        raise ValueError("n must be positive")
    rng = random.Random(seed)
    neighbor_sets: list[set[int]] = [set() for _ in range(n)]
    kinds = ("pendant", "true_twin", "false_twin")
    for new in range(1, n):
        anchor = rng.randrange(new)
        kind = rng.choices(kinds, weights=weights)[0]
        if kind == "false_twin" and not neighbor_sets[anchor]:
            kind = "pendant"
        if kind == "pendant":
            attach = {anchor}
        elif kind == "true_twin":
            attach = set(neighbor_sets[anchor]) | {anchor}
        else:
            attach = set(neighbor_sets[anchor])
        for w in attach:
            neighbor_sets[new].add(w)
            neighbor_sets[w].add(new)
    edges = [(u, v) for u in range(n) for v in neighbor_sets[u] if u < v]
    return Graph(_labels(n), edges)


def _p4_sparse_edges(lo: int, size: int, rng: random.Random,
                     connected: bool) -> list[tuple[int, int]]:
    """Recursive union / join / spider construction on ids lo..lo+size-1."""
    if size == 1:
        return []
    if size == 2:
        if connected or rng.random() < 0.6:
            return [(lo, lo + 1)]
        return []
    shapes = ["join"]
    if not connected:
        shapes.append("union")
    if size >= 4:
        shapes.extend(["spider", "spider"])
    shape = rng.choice(shapes)
    if shape in ("join", "union"):
        left = rng.randint(1, size - 1)
        edges = _p4_sparse_edges(lo, left, rng, False)
        edges += _p4_sparse_edges(lo + left, size - left, rng, False)
        if shape == "join":
            edges += [(a, b) for a in range(lo, lo + left)
                      for b in range(lo + left, lo + size)]
        return edges
    legs = rng.randint(2, size // 2)
    kind = rng.choice(("thin", "thick"))
    s_ids = list(range(lo, lo + legs))
    c_ids = list(range(lo + legs, lo + 2 * legs))
    r_ids = list(range(lo + 2 * legs, lo + size))
    edges = [(c_ids[i], c_ids[j]) for i in range(legs) for j in range(i + 1, legs)]
    for i in range(legs):
        if kind == "thin":
            edges.append((s_ids[i], c_ids[i]))
        else:
            edges.extend((s_ids[i], c_ids[j]) for j in range(legs) if j != i)
    edges.extend((r, c) for r in r_ids for c in c_ids)
    if r_ids:
        edges += _p4_sparse_edges(r_ids[0], len(r_ids), rng, False)
    return edges


def gen_p4_sparse(n: int, seed: int) -> Graph:
    """Random connected P4-sparse graph via its structure recursion."""
    if n < 1:
        raise ValueError("n must be positive")
    rng = random.Random(seed)
    return Graph(_labels(n), _p4_sparse_edges(0, n, rng, True))


def gen_bipartite_permutation_with_ordering(
        p: int, q: int, seed: int,
        window: int | None = None) -> tuple[Graph, StrongOrdering]:
    """Random bipartite permutation graph plus its construction ordering.

    Each left vertex gets a column interval; interval starts and ends are
    nondecreasing and consecutive intervals overlap, which makes the
    natural orders a strong ordering and the graph connected. The
    ordering is verified before it is returned.
    """
    if p < 1 or q < 1:
        raise ValueError("both sides need at least one vertex")
    if window is None:
        window = max(1, 2 * q // p + 1)
    rng = random.Random(seed)
    fs: list[int] = []
    ls: list[int] = []
    f_cur = 0
    l_cur = rng.randint(0, min(q - 1, window - 1))
    for i in range(p):
        fs.append(f_cur)
        ls.append(l_cur)
        if i == p - 1:
            break
        f_cur = rng.randint(f_cur, l_cur)
        lo = max(l_cur, f_cur)
        l_cur = rng.randint(lo, min(q - 1, lo + window))
    ls[-1] = q - 1
    labels = [f"x{i}" for i in range(p)] + [f"y{j}" for j in range(q)]
    edges = [(i, p + j) for i in range(p) for j in range(fs[i], ls[i] + 1)]
    G = Graph(labels, edges)
    so = strong_ordering_from_orders(G, tuple(range(p)),
                                     tuple(range(p, p + q)))
    if not verify_strong_ordering(G, so):
        raise GenerationError(
            f"could not realize a strong ordering for p={p} q={q} seed={seed}")
    return G, so


def gen_bipartite_permutation(p: int, q: int, seed: int,
                              window: int | None = None) -> Graph:
    return gen_bipartite_permutation_with_ordering(p, q, seed, window)[0]


def gen_strongly_chordal(n: int, seed: int, style: str = "interval",
                         max_len: int | None = None) -> Graph:
    """Random strongly chordal graph.

    ``interval`` style samples an interval intersection graph (intervals
    clamped left-to-right to keep it connected); ``block`` style grows a
    tree of cliques. Both families are strongly chordal.
    """
    if n < 1:
        raise ValueError("n must be positive")
    rng = random.Random(seed)
    if style == "block":
        neighbor_sets: list[set[int]] = [set() for _ in range(n)]
        count = 1
        while count < n:
            attach = rng.randrange(count)
            size = rng.randint(1, min(4, n - count))
            block = [attach] + list(range(count, count + size))
            for i, u in enumerate(block):
                for v in block[i + 1:]:
                    neighbor_sets[u].add(v)
                    neighbor_sets[v].add(u)
            count += size
        edges = [(u, v) for u in range(n) for v in neighbor_sets[u] if u < v]
        return Graph(_labels(n), edges)
    if style != "interval":
        raise ValueError(f"unknown style {style!r}")
    if max_len is None:
        max_len = max(2, n // 3)
    span = 3 * n
    raw = sorted((rng.randint(0, span), rng.randint(1, max_len))
                 for _ in range(n))
    intervals: list[tuple[int, int]] = []
    reach = None
    for a, length in raw:
        if reach is not None and a > reach:
            a = reach  # pull the interval back so the graph stays connected
        b = a + length
        reach = b if reach is None else max(reach, b)
        intervals.append((a, b))
    edges = [(i, j)
             for i in range(n) for j in range(i + 1, n)
             if intervals[j][0] <= intervals[i][1]
             and intervals[i][0] <= intervals[j][1]]
    return Graph(_labels(n), edges)


def gen_random_connected(n: int, m: int, seed: int) -> Graph:
    """Uniform-ish connected fuzz graph: random tree plus extra edges."""
    if n < 1:
        raise ValueError("n must be positive")
    max_m = n * (n - 1) // 2
    if not n - 1 <= m <= max_m:
        raise ValueError(f"need n-1 <= m <= {max_m} for n={n}, got m={m}")
    rng = random.Random(seed)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    spare = [(u, v) for u in range(n) for v in range(u + 1, n)
             if (u, v) not in edges]
    edges.update(rng.sample(spare, m - len(edges)))
    return Graph(_labels(n), sorted(edges))


def spider_graph(legs: int, kind: str = "thin", head: int = 0,
                 head_edges: tuple[tuple[int, int], ...] = ()) -> Graph:
    """Deterministic spider: legs s*, body clique c*, head r* complete to
    the body. ``head_edges`` lists extra edges inside the head by r-index."""
    if legs < 2:
        raise ValueError("a spider needs at least two legs")
    if kind not in ("thin", "thick"):
        raise ValueError(f"unknown spider kind {kind!r}")
    labels = ([f"s{i + 1}" for i in range(legs)]
              + [f"c{i + 1}" for i in range(legs)]
              + [f"r{i + 1}" for i in range(head)])
    s_ids = list(range(legs))
    c_ids = list(range(legs, 2 * legs))
    r_ids = list(range(2 * legs, 2 * legs + head))
    edges = [(c_ids[i], c_ids[j]) for i in range(legs) for j in range(i + 1, legs)]
    for i in range(legs):
        if kind == "thin":
            edges.append((s_ids[i], c_ids[i]))
        else:
            edges.extend((s_ids[i], c_ids[j]) for j in range(legs) if j != i)
    edges.extend((r, c) for r in r_ids for c in c_ids)
    for i, j in head_edges:
        if not (0 <= i < head and 0 <= j < head):
            raise ValueError("head edge index out of range")
        edges.append((r_ids[i], r_ids[j]))
    return Graph(labels, edges)


def generate(spec: GenSpec) -> Graph:
    """Dispatch a GenSpec to its generator."""
    if spec.cls == "distance_hereditary":
        return gen_distance_hereditary(spec.n, spec.seed, **spec.params)
    if spec.cls == "p4_sparse":
        return gen_p4_sparse(spec.n, spec.seed)
    if spec.cls == "bipartite_permutation":
        return gen_bipartite_permutation(spec.p, spec.q, spec.seed,
                                         **spec.params)
    if spec.cls == "strongly_chordal":
        return gen_strongly_chordal(spec.n, spec.seed, **spec.params)
    if spec.cls == "random":
        return gen_random_connected(spec.n, spec.m, spec.seed)
    raise ValueError(f"unknown generator class {spec.cls!r}")
