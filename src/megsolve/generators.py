"""Seeded instance generators for the four solvable classes plus fuzz graphs.

Determinism contract: one ``random.Random`` (Mersenne Twister) instance is
seeded per call and consumed in a fixed order, so an identical GenSpec
always yields a bit-identical graph. Construction follows each class's
defining extension rule, and every emitted instance is certified by the
matching recognizer in the test suite.

Generation takes O(n + m) time and memory, up to log factors from sorting
and bisection: random graphs draw their extra edges by index from a lazy
sequence of the non-tree pairs, and interval graphs find each interval's
neighbours by bisection. ``tests/graphs_util.py`` keeps the quadratic
versions as references, and the tests pin the outputs to them.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import combinations, filterfalse

from .errors import GenerationError
from .graph_core import Graph
from .recognizers import StrongOrdering, strong_ordering_from_orders, \
    verify_strong_ordering

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


DH_WEIGHTS = (0.4, 0.3, 0.3)  # pendant, true twin, false twin


def gen_distance_hereditary(n: int, seed: int) -> Graph:
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
        kind = rng.choices(kinds, weights=DH_WEIGHTS)[0]
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
    head = size - 2 * legs
    edges = _spider_edges(lo, legs, kind, head)
    if head:
        edges += _p4_sparse_edges(lo + 2 * legs, head, rng, False)
    return edges


def _spider_edges(lo: int, legs: int, kind: str,
                  head: int) -> list[tuple[int, int]]:
    """Spider on consecutive ids from ``lo``: legs, then the body clique,
    then ``head`` vertices complete to the body. A thin leg i sees body
    vertex i, a thick one every body vertex but i."""
    s_ids = range(lo, lo + legs)
    c_ids = range(lo + legs, lo + 2 * legs)
    r_ids = range(lo + 2 * legs, lo + 2 * legs + head)
    edges = [(c_ids[i], c_ids[j]) for i in range(legs) for j in range(i + 1, legs)]
    for i in range(legs):
        if kind == "thin":
            edges.append((s_ids[i], c_ids[i]))
        else:
            edges.extend((s_ids[i], c_ids[j]) for j in range(legs) if j != i)
    edges.extend((r, c) for r in r_ids for c in c_ids)
    return edges


def gen_p4_sparse(n: int, seed: int) -> Graph:
    """Random connected P4-sparse graph via its structure recursion."""
    if n < 1:
        raise ValueError("n must be positive")
    rng = random.Random(seed)
    return Graph(_labels(n), _p4_sparse_edges(0, n, rng, True))


def gen_bipartite_permutation_with_ordering(
        p: int, q: int, seed: int) -> tuple[Graph, StrongOrdering]:
    """Random bipartite permutation graph plus its construction ordering.

    Each left vertex gets a column interval; interval starts and ends are
    nondecreasing and consecutive intervals overlap, which makes the
    natural orders a strong ordering and the graph connected. The
    ordering is verified before it is returned.
    """
    if p < 1 or q < 1:
        raise ValueError("both sides need at least one vertex")
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


def gen_bipartite_permutation(p: int, q: int, seed: int) -> Graph:
    return gen_bipartite_permutation_with_ordering(p, q, seed)[0]


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
    # Starts never decrease (each is the minimum of the sorted raw start and
    # the running reach), so j > i meets i iff starts[j] <= end of i.
    starts = [a for a, _ in intervals]
    edges = [(i, j) for i, (_, b) in enumerate(intervals)
             for j in range(i + 1, bisect_right(starts, b))]
    return Graph(_labels(n), edges)


class _SparePairs(Sequence):
    """The pairs u < v of range(n) in lexicographic order, minus ``taken``.

    Indexing (0 to len - 1) maps a position to its pair by arithmetic, so
    ``rng.sample`` draws from the n(n-1)/2 pairs without listing them.
    """

    def __init__(self, n: int, taken: set[tuple[int, int]]) -> None:
        self.n = n
        self.taken = taken
        # Pair (u, v) has rank row[u] + v - u - 1; row[u] = u(2n-u-1)/2.
        self.row = [u * (2 * n - u - 1) // 2 for u in range(n)]
        skipped = sorted(self.row[u] + v - u - 1 for u, v in taken)
        # The k-th taken rank has skipped[k] - k free ranks below it.
        self.free_below = [r - k for k, r in enumerate(skipped)]
        self.size = n * (n - 1) // 2 - len(skipped)

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, j: int) -> tuple[int, int]:
        if not 0 <= j < self.size:
            raise IndexError("pair index out of range")
        rank = j + bisect_right(self.free_below, j)
        u = bisect_right(self.row, rank) - 1
        return u, rank - self.row[u] + u + 1

    def __iter__(self):
        return filterfalse(self.taken.__contains__,
                           combinations(range(self.n), 2))


def gen_random_connected(n: int, m: int, seed: int) -> Graph:
    """Uniform-ish connected fuzz graph: random tree plus extra edges."""
    if n < 1:
        raise ValueError("n must be positive")
    max_m = n * (n - 1) // 2
    if not n - 1 <= m <= max_m:
        raise ValueError(f"need n-1 <= m <= {max_m} for n={n}, got m={m}")
    rng = random.Random(seed)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    edges.update(rng.sample(_SparePairs(n, edges), m - len(edges)))
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
    edges = _spider_edges(0, legs, kind, head)
    for i, j in head_edges:
        if not (0 <= i < head and 0 <= j < head):
            raise ValueError("head edge index out of range")
        edges.append((2 * legs + i, 2 * legs + j))
    return Graph(labels, edges)


# Each class's generator and the GenSpec size fields it takes, in order,
# before the seed; a GenSpec's params follow as keyword arguments.
GENERATORS = {
    "distance_hereditary": (gen_distance_hereditary, ("n",)),
    "p4_sparse": (gen_p4_sparse, ("n",)),
    "bipartite_permutation": (gen_bipartite_permutation, ("p", "q")),
    "strongly_chordal": (gen_strongly_chordal, ("n",)),
    "random": (gen_random_connected, ("n", "m")),
}
CLASSES = tuple(GENERATORS)


def generate(spec: GenSpec) -> Graph:
    """Dispatch a GenSpec to its generator."""
    if spec.cls not in GENERATORS:
        raise ValueError(f"unknown generator class {spec.cls!r}")
    gen, fields = GENERATORS[spec.cls]
    return gen(*(getattr(spec, name) for name in fields), spec.seed,
               **spec.params)
