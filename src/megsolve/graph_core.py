"""Immutable simple-graph substrate: construction, distances, connectivity.

Vertices are dense ids 0..n-1; each id carries an external string label.
Every set-valued result is a sorted id tuple so downstream output stays
deterministic. A graph is never mutated: ``bfs_distances`` takes a
``skip_edge`` parameter, and ``is_meg_set`` edits its own list copies.
"""

from __future__ import annotations

import math
import re
from collections import deque
from itertools import chain, count, filterfalse
from operator import eq, itemgetter
from typing import Iterable, Iterator, Sequence

from .errors import EdgeListParseError, SelfLoopError

INF = math.inf


def vertex_set(ids: Iterable[int]) -> tuple[int, ...]:
    """Normalize an id collection into a sorted deduplicated tuple."""
    return tuple(sorted(set(ids)))


class Graph:
    """Simple undirected graph, immutable after construction.

    The constructor checks its arguments (distinct labels, in-range ids,
    no self-loops) and then fills the fields through ``_fill``, the one
    adjacency and mask builder; the edge-list reader and ``build_graph``
    call ``_fill`` directly with ids they produced themselves.
    """

    __slots__ = ("n", "m", "labels", "adj", "adj_masks",
                 "_label_ids", "_connected", "_articulation", "_mandatory")

    def __init__(self, labels: Sequence[str], edges: Iterable[tuple[int, int]]):
        labels = tuple(map(str, labels))
        index = dict(zip(labels, range(len(labels))))
        if len(index) != len(labels):
            raise ValueError("duplicate vertex labels")
        n = len(labels)
        ids: list[int] = []
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise SelfLoopError(labels[u])
            ids.append(u)
            ids.append(v)
        self._fill(index, ids)

    def _fill(self, index: dict[str, int], ids: Sequence[int]) -> None:
        """Set every field from checked input: ``index`` maps distinct
        labels to 0..n-1 in id order, and ``ids`` lists loop-free edges as
        in-range ids ``u0, v0, u1, v1, ...`` (duplicates allowed)."""
        n = len(index)
        nbrs: list[list[int]] = [[] for _ in range(n)]
        pairs = iter(ids)
        for u, v in zip(pairs, pairs):
            nbrs[u].append(v)
            nbrs[v].append(u)
        adj = tuple([tuple(sorted(set(x))) for x in nbrs])
        bit = [1 << i for i in range(n)]
        self.labels = tuple(index)
        self.n = n
        self.adj = adj
        self.m = sum(map(len, adj)) // 2
        self.adj_masks = tuple([sum(map(bit.__getitem__, a)) for a in adj])
        self._label_ids = index
        self._connected = None
        self._articulation = None
        self._mandatory = None

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and 0 <= v < self.n \
            and self.adj_masks[u] >> v & 1 == 1

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, in sorted order."""
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def label(self, v: int) -> str:
        return self.labels[v]

    def id_of(self, label: str) -> int:
        try:
            return self._label_ids[label]
        except KeyError:
            raise KeyError(f"unknown vertex label {label!r}") from None

    def labels_of(self, ids: Iterable[int]) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.labels == other.labels and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.labels, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def build_graph(edges: Iterable[tuple[str, str]],
                vertices: Sequence[str] | None = None) -> Graph:
    """Build a graph from label pairs.

    Ids are assigned in first-appearance order; an optional vertex list is
    registered first, which also allows isolated vertices. Duplicate edges
    collapse; self-loops are rejected.
    """
    flat = [str(x) for a, b in edges for x in (a, b)]
    index: dict[str, int] = {}
    _intern(index, map(str, vertices or ()))
    return _graph_from_ids(index, _ids(index, flat) if flat else ())


def _intern(index: dict[str, int], labels: Iterable[str]) -> None:
    """Give each of ``labels`` not yet in ``index`` the next free id, in
    order of first appearance; the loop runs in C."""
    index.update(zip(filterfalse(index.__contains__, dict.fromkeys(labels)),
                     count(len(index))))


def _ids(index: dict[str, int], labels: list[str]) -> tuple[int, ...]:
    """The ids of ``labels`` (two or more), interning any new ones first.
    Labels already declared by a vertex header are usually all known, and
    then the interning pass is skipped."""
    get = itemgetter(*labels)
    try:
        return get(index)
    except KeyError:
        _intern(index, labels)
        return get(index)


def _graph_from_ids(index: dict[str, int], ids: Sequence[int]) -> Graph:
    """Graph over the labels of ``index`` (ids in order) with the edges
    ``ids[0]-ids[1], ids[2]-ids[3], ...``; a self-loop raises, naming the
    first one. ``index`` becomes the graph's label index."""
    pairs = iter(ids)
    if any(map(eq, pairs, pairs)):
        pairs = iter(ids)
        loop = next(u for u, v in zip(pairs, pairs) if u == v)
        raise SelfLoopError(tuple(index)[loop])
    G = Graph.__new__(Graph)
    G._fill(index, ids)
    return G


def bfs_distances(G: Graph, source: int,
                  skip_edge: tuple[int, int] | None = None) -> list[float]:
    """Hop distances from ``source``; unreachable vertices get INF.

    ``skip_edge`` names one edge to ignore during traversal, giving the
    distances of the graph with that edge deleted.
    """
    if not 0 <= source < G.n:
        raise ValueError(f"source {source} out of range")
    su = sv = -1
    if skip_edge is not None:
        su, sv = skip_edge
        if not G.has_edge(su, sv):
            raise ValueError(f"skip_edge ({su}, {sv}) not in graph")
    dist: list[float] = [INF] * G.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        d = dist[v] + 1
        for w in G.adj[v]:
            if dist[w] is not INF:
                continue
            if skip_edge is not None and ((v == su and w == sv) or (v == sv and w == su)):
                continue
            dist[w] = d
            queue.append(w)
    return dist


def is_connected(G: Graph) -> bool:
    if G._connected is None:
        G._connected = len(mask_components(G.adj_masks, (1 << G.n) - 1)) <= 1
    return G._connected


def connected_components(G: Graph) -> list[tuple[int, ...]]:
    """Components as sorted id tuples, ordered by smallest member."""
    comps = []
    seen = [False] * G.n
    for s in range(G.n):
        if seen[s]:
            continue
        comp = []
        stack = [s]
        seen[s] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in G.adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(tuple(sorted(comp)))
    return comps


def articulation_points(G: Graph) -> tuple[int, ...]:
    """Cut vertices via iterative DFS low-link. The same DFS records the
    blocks for ``blocks`` and the block of each vertex's tree edge for
    ``block_edges``, and all three are cached on the graph together."""
    if G._articulation is not None:
        return G._articulation[0]
    n = G.n
    adj = G.adj
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    closes = [0] * n  # blocks closed at each vertex
    trail: list[int] = []
    at = [0] * n  # trail position of each vertex
    owner = [-1] * n  # the block of each vertex's tree edge
    found: list[tuple[int, ...]] = []
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        stack: list[tuple[int, int]] = [(root, 0)]
        while stack:
            v, i = stack[-1]
            if i < len(adj[v]):
                stack[-1] = (v, i + 1)
                w = adj[v][i]
                if disc[w] == -1:
                    parent[w] = v
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, 0))
                    at[w] = len(trail)
                    trail.append(w)
                elif w != parent[v]:
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            else:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                    if low[v] >= disc[u]:
                        # A block closes at u: u plus the trail from v on,
                        # which is v's subtree minus the blocks closed in it.
                        # Each trail vertex's tree edge lies in this block.
                        closes[u] += 1
                        block = trail[at[v]:]
                        for x in block:
                            owner[x] = len(found)
                        found.append((*block, u))
                        del trail[at[v]:]
    # Every child of a DFS root closes a block at it, so a root is a cut
    # vertex when two blocks close there; any other vertex when one does.
    result = tuple(v for v in range(n)
                   if closes[v] >= (2 if parent[v] == -1 else 1))
    G._articulation = (result, tuple(found), owner)
    return result


def blocks(G: Graph) -> tuple[tuple[int, ...], ...]:
    """Blocks (biconnected components, bridges as blocks of two) as vertex
    tuples, unsorted; every edge lies in exactly one block."""
    articulation_points(G)
    return G._articulation[1]


def block_edges(G: Graph) -> list[list[tuple[int, int]]]:
    """The edges (u, v), u < v, of each block, in the order of ``blocks``,
    from one pass over G's lists: O(n + m) for all blocks together.

    Each vertex but a DFS root has its tree edge in one block, its owner;
    a block owns all its vertices but the last, where it closed. Both
    ends of an edge lie in its block and at most one is that block's
    last vertex, so edge uv lies in v's owner when u is that owner's
    last vertex, and in u's owner otherwise.
    """
    articulation_points(G)
    _, found, owner = G._articulation
    edges: list[list[tuple[int, int]]] = [[] for _ in found]
    for u, a in enumerate(G.adj):
        for v in a:
            if u < v:
                b = owner[v]
                if b < 0 or found[b][-1] != u:
                    b = owner[u]
                edges[b].append((u, v))
    return edges


def local_adjacency(ids: Sequence[int],
                    edges: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Ascending adjacency lists of the graph on the ascending ``ids``
    with ``edges``, in local ids (positions in ``ids``).

    The edges must come as ``block_edges`` gives them: pairs (u, v) with
    u < v, ascending. Each list then fills with its lower neighbors, then
    its higher ones, both ascending, so no list needs sorting, and a
    block costs O(k + edges of the block) steps, however large the graph
    around it."""
    local = dict(zip(ids, range(len(ids))))
    adj: list[list[int]] = [[] for _ in ids]
    for u, v in edges:
        adj[local[u]].append(local[v])
        adj[local[v]].append(local[u])
    return adj


def non_cut_vertices(G: Graph) -> tuple[int, ...]:
    """Every vertex that is not a cut vertex, ascending."""
    cut = set(articulation_points(G))
    return tuple(v for v in range(G.n) if v not in cut)


def complement(G: Graph) -> Graph:
    edges = [(u, v) for u in range(G.n) for v in range(u + 1, G.n)
             if not G.has_edge(u, v)]
    return Graph(G.labels, edges)


def mask_components(masks: Sequence[int], X: int) -> list[int]:
    """Components of the subgraph induced by the vertex mask X, as vertex
    masks ordered by lowest member. Given complemented adjacency masks
    (``~m``), it returns the co-components instead."""
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


def co_components(G: Graph) -> list[tuple[int, ...]]:
    """Connected components of the complement graph, as sorted id tuples
    ordered by smallest member; the complement is never built."""
    co_masks = [~m for m in G.adj_masks]
    parts = mask_components(co_masks, (1 << G.n) - 1)
    return [tuple(iter_bits(c)) for c in parts]


# A first token with one of these prefixes makes a line a comment or the
# vertex header, even when the line holds exactly two tokens.
_NOT_EDGE = ("#", "vertices:")

# Every line that is neither blank nor an edge line (exactly two tokens,
# the first not starting with '#' or 'vertices:'), as group 1, once all
# line breaks are "\n": the first line by ``match``, the others by
# ``finditer``, whose search then jumps from "\n" to "\n". The blank test
# comes second, so an edge line never reaches it; blank lines can stay
# among the edge lines, as ``str.split`` skips them. The re module's
# ``\s`` and ``str.split`` share one whitespace test, so ``[^\S\n]`` is
# whitespace within a line. The tail after group 1 takes the comment lines
# that follow, so a run of comments costs one match; only group 1 is read.
_OTHER_LINE = (r"((?![^\S\n]*(?!#|vertices:)\S+[^\S\n]+\S+[^\S\n]*$)"
               r"(?=[^\S\n]*\S).*)(?:\n[^\S\n]*#.*)*")
_FIRST_LINE = re.compile(_OTHER_LINE, re.M)
_LATER_LINE = re.compile("\n" + _OTHER_LINE, re.M)
# Characters of edge lines split at a time: large enough that the per-chunk
# work stays in C, small enough that a chunk's label strings are a small
# share of a large read.
_CHUNK = 1 << 16


def _lf_lines(text: str) -> str:
    """``text`` with every line break written as "\\n", holding the lines
    of ``text.splitlines()`` under the same numbers."""
    lf = text.replace("\r\n", "\n")
    if ("\r" in lf or "\x0b" in lf or "\x0c" in lf or "\x1c" in lf
            or "\x1d" in lf or "\x1e" in lf or not text.isascii() and (
                "\x85" in lf or "\u2028" in lf or "\u2029" in lf)):
        # From the original: after the replace, "\r\r\n" is one break.
        return "\n".join(text.splitlines())
    return lf


def _read(text: str, index: dict[str, int]) -> list[int]:
    """Read edge-list text into ``index`` (empty on entry) and return the
    ids ``a0, b0, a1, b1, ...`` of its edge lines, with the labels of the
    ``vertices:`` header, if any, interned first.

    One regex pass finds the comment, header and malformed lines and
    checks them in order, a line with the comment lines right after it
    as one match; it keeps only where each run of edge lines
    between them starts and ends. Those runs are then split about
    ``_CHUNK`` characters at a time, cut only at a "\\n", and each chunk's
    labels are interned and mapped to ids before the next is split, so no
    list of the lines or of all the label strings is built."""
    text = _lf_lines(text)
    declared = None
    runs: list[tuple[int, int]] = []
    pos = 0
    first = _FIRST_LINE.match(text)
    for line in chain((first,) if first else (), _LATER_LINE.finditer(text)):
        start = line.start(1)
        if pos < start:
            runs.append((pos, start))
        pos = line.end() + 1  # past the "\n" that ends the last line
        body = line.group(1).strip()
        if body[0] == "#":
            continue
        if body.startswith("vertices:") and declared is None:
            declared = body[len("vertices:"):].split()
            continue
        line_no = text.count("\n", 0, start) + 1
        if body.startswith("vertices:"):
            raise EdgeListParseError(line_no, "duplicate vertices header")
        raise EdgeListParseError(
            line_no, f"expected two labels, got {len(body.split())}: {body!r}")
    runs.append((pos, len(text)))
    if declared:
        _intern(index, declared)
    ids: list[int] = []
    for start, end in runs:
        while start < end:
            cut = text.find("\n", start + _CHUNK, end)
            if cut < 0:
                cut = end
            tokens = text[start:cut].split()
            if tokens:  # a cut at end - 1 leaves a last chunk of one "\n"
                ids += _ids(index, tokens)
            start = cut
    return ids


def graph_from_edge_list(text: str) -> Graph:
    """Read edge-list text into a graph. Blank lines and lines starting
    with '#' are skipped; one optional ``vertices:`` header declares
    labels, which take the first ids wherever it sits; every other line
    holds exactly two labels, given ids in order of first appearance.
    Lines end at any ``str.splitlines`` break. A malformed line raises
    ``EdgeListParseError`` with its 1-based line number, before any
    self-loop raises. The reader holds the text, the label index and one
    id per edge end, never a list of the lines or of all the labels."""
    index: dict[str, int] = {}
    ids = _read(text, index)
    del text  # a caller that passed its only reference frees it here
    return _graph_from_ids(index, ids)


def read_graph_file(path: str) -> Graph:
    """Read a UTF-8 edge-list file; one leading byte-order mark is
    skipped. Bytes that are not UTF-8 raise ``EdgeListParseError`` naming
    the line of the first one, numbered as the parser numbers lines
    (``str.splitlines``). The file's bytes and text are freed before the
    graph is built."""
    return graph_from_edge_list(_file_text(path))


def _file_text(path: str) -> str:
    """The text of a UTF-8 file, without a leading byte-order mark."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        valid = data[:exc.start].decode("utf-8")
        raise EdgeListParseError(len((valid + "x").splitlines()),
                                 str(exc)) from None
    return text[1:] if text.startswith("\ufeff") else text


def format_edge_list(G: Graph, header_comments: Iterable[str] = ()) -> str:
    """Serialize a graph; exact inverse of graph_from_edge_list.

    The vertex header pins the label-to-id assignment, so parsing the
    output reproduces ids, isolated vertices and all. A label that would
    not read back as one edge token (empty, holding whitespace, or
    starting with '#' or ``vertices:``) raises ``ValueError``, and so does
    a header comment holding a line break (any that ``str.splitlines``
    splits on).
    """
    bad = next((lab for lab in G.labels
                if lab.split() != [lab] or lab.startswith(_NOT_EDGE)), None)
    if bad is not None:
        raise ValueError(f"label {bad!r} cannot be written to an edge list")
    comments = list(header_comments)
    bad = next((c for c in comments if "".join(c.splitlines()) != c), None)
    if bad is not None:
        raise ValueError(f"header comment {bad!r} holds a line break")
    lines = [f"# {c}" for c in comments]
    if G.n:
        lines.append("vertices: " + " ".join(G.labels))
    # One string per vertex, its edges to higher ids one line each, keeps
    # the peak near the size of the text.
    for u, nbrs in enumerate(G.adj):
        later = [G.labels[v] for v in nbrs if v > u]
        if later:
            head = G.labels[u] + " "
            lines.append(head + ("\n" + head).join(later))
    return "\n".join(lines) + "\n"


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set-bit positions of a mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
