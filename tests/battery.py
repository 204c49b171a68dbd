"""A fixed report battery: every command form on a fixed set of inputs.

Each line of the table is one input: its key, then ``exit:digest`` for
each form of ``FORMS`` and of ``VERIFY_FORMS``, where digest is the first
12 hex digits of the sha256 of the form's stdout and stderr. The verify
forms check two vertex sets of each graph with at most ``VERIFY_MAX_N``
vertices, its mandatory vertices and its non-cut vertices minus the
lowest; an odd input or a one-vertex graph checks the empty set, and a
larger graph has ``-`` there. Forms run in process through
``cli.main`` on a file named ``graph.edges`` in the working directory, so
no temporary path reaches a report, and with ``MEGSOLVE_ORACLE_LIMIT``
unset. ``tests/test_battery.py`` regenerates the table and compares it
with ``tests/data/battery.tsv``; a change that alters an output
regenerates the file from the repo root with

    PYTHONPATH=src python3 tests/battery.py > tests/data/battery.tsv

and the diff lists exactly the (input, form) pairs that changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import sys
import tempfile

from megsolve import cli
from megsolve.generators import (gen_bipartite_permutation,
                                 gen_distance_hereditary, gen_p4_sparse,
                                 gen_random_connected, gen_strongly_chordal)
from megsolve.graph_core import (Graph, build_graph, format_edge_list,
                                 non_cut_vertices)
from megsolve.monitoring import mandatory_vertices

from graphs_util import connected_graph_classes

PATH = "graph.edges"
FORMS = (
    ("meg",),
    ("meg", "--method", "cut"),
    ("meg", "--method", "mandatory"),
    ("meg", "--method", "structural"),
    ("meg", "--method", "oracle"),
    ("meg", "--method", "decomposition"),
    ("oracle",),
    ("oracle", "--no-trust-bounds"),
    ("cut",),
    ("mandatory",),
)
VERIFY_FORMS = ("verify --set mandatory", "verify --set non-cut minus lowest")
# Verify on DH graphs with n = 200 takes seconds per input.
VERIFY_MAX_N = 60
# The rows of tests/test_solvers.py's _POOL_REACH: random graphs whose
# oracle pool is near the limit.
POOL_REACH = ((30, 36), (60, 66), (60, 72), (60, 78), (200, 220))
ODD_INPUTS = (
    ("bom", b"\xef\xbb\xbfa b\nb c\nc a\nc d\n"),
    ("crlf", b"a b\r\nb c\r\nc a\r\nc d\r\n"),
    ("cr-only", b"a b\rb c\rc a\rc d\r"),
    ("nul", b"a b\nb c\x00\nc a\n"),
    ("late-header", b"a b\nb c\nvertices: d c b a\nc d\nd a\n"),
    ("duplicate-header", b"vertices: a b c\nvertices: a b c\na b\nb c\n"),
    ("self-loop", b"a b\nb b\nb c\n"),
    ("disconnected", b"a b\nb c\nd e\n"),
    ("one-vertex", b"vertices: a\n"),
    ("empty", b""),
)


def glued(pieces, seed: int) -> Graph:
    """Small random connected pieces, each glued at one of its vertices
    to a random vertex of the graph so far: every piece adds blocks."""
    rng = random.Random(seed)
    edges, n = [], 0
    for k in pieces:
        H = gen_random_connected(k, rng.randrange(k - 1, k * (k - 1) // 2 + 1),
                                 rng.randrange(1 << 30))
        ids = list(range(n, n + k))
        if n:
            g = rng.randrange(k)
            ids = ids[:g] + [rng.randrange(n)] + ids[g:-1]
        n = max(ids) + 1
        edges += [(ids[u], ids[v]) for u, v in H.edges()]
    return build_graph(edges)


def cycle_chain(lengths) -> Graph:
    """Cycles of the given lengths in a chain: each meets the next at the
    vertex opposite the one where it meets the previous."""
    edges, joint, n = [], 0, 1
    for k in lengths:
        ring = [joint] + list(range(n, n + k - 1))
        n += k - 1
        edges += [(ring[i], ring[(i + 1) % k]) for i in range(k)]
        joint = ring[k // 2]
    return build_graph(edges)


def flower(petals: int, k: int) -> Graph:
    """``petals`` cycles of length k through one shared vertex."""
    edges = []
    for p in range(petals):
        ring = [0] + [1 + p * (k - 1) + i for i in range(k - 1)]
        edges += [(ring[i], ring[(i + 1) % k]) for i in range(k)]
    return build_graph(edges)


def many_block_inputs():
    """The battery's (key, graph) pairs built to have many blocks: glued
    graphs, cycle chains and flowers."""
    rng = random.Random(26)
    for s in range(40):
        pieces = [rng.randrange(3, 8) for _ in range(rng.randrange(2, 5))]
        yield f"glued-{s:02d}", glued(pieces, s)
    yield "cycles-c6x40", cycle_chain([6] * 40)
    yield "cycles-c4c5c7x12", cycle_chain([4, 5, 7] * 12)
    yield "flower-c5x20", flower(20, 5)
    yield "flower-c7x6", flower(6, 7)


def inputs():
    """Every (key, graph or file bytes) of the battery, in table order."""
    for n in range(1, 8):
        for i, G in enumerate(connected_graph_classes(n)):
            yield f"class-n{n}-{i:03d}", G
    for n in (12, 60, 200):
        for s in (1, 2, 3, 4, 5):
            yield f"dh-n{n}-s{s}", gen_distance_hereditary(n, s)
            yield f"p4sparse-n{n}-s{s}", gen_p4_sparse(n, s)
            yield (f"bipperm-n{n}-s{s}",
                   gen_bipartite_permutation(n // 2, n - n // 2, s))
            yield f"stronglychordal-n{n}-s{s}", gen_strongly_chordal(n, s)
            for m in (n + n // 5, 2 * n):
                yield f"random-n{n}-m{m}-s{s}", gen_random_connected(n, m, s)
    for n in range(13, 17):
        for s in range(1, 11):
            m = n + n // 4
            yield f"random-n{n}-m{m}-s{s}", gen_random_connected(n, m, s)
    for n, m in POOL_REACH:
        for s in range(1, 11):
            yield f"reach-n{n}-m{m}-s{s}", gen_random_connected(n, m, s)
    yield from many_block_inputs()
    yield "path-n2000", build_graph((i, i + 1) for i in range(1999))
    for key, data in ODD_INPUTS:
        yield f"odd-{key}", data


def run(form) -> str:
    """``exit:digest`` of one form on ``PATH``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([form[0], PATH, *form[1:]])
    text = out.getvalue() + "\0" + err.getvalue()
    return f"{code}:{hashlib.sha256(text.encode()).hexdigest()[:12]}"


def verify_sets(data) -> tuple[str, ...] | None:
    """The ``--set`` values of the verify forms on one input, or None."""
    if not isinstance(data, Graph):
        return "", ""
    if data.n > VERIFY_MAX_N:
        return None
    if data.n < 2:
        return "", ""
    sets = mandatory_vertices(data), non_cut_vertices(data)[1:]
    return tuple(",".join(data.labels_of(ids)) for ids in sets)


def table() -> str:
    """The battery's table, run in the working directory."""
    header = [" ".join(f) for f in FORMS] + list(VERIFY_FORMS)
    lines = ["\t".join(["input", *header])]
    for key, data in inputs():
        sets = verify_sets(data)
        if isinstance(data, Graph):
            data = format_edge_list(data).encode()
        with open(PATH, "wb") as fh:
            fh.write(data)
        cells = list(map(run, FORMS))
        if sets is None:
            cells += ["-"] * len(VERIFY_FORMS)
        else:
            cells += [run(("verify", "--set", s)) for s in sets]
        lines.append("\t".join([key, *cells]))
    return "\n".join(lines) + "\n"


def main() -> int:
    os.environ.pop(cli.ORACLE_LIMIT_ENV, None)
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            text = table()
        finally:
            os.chdir(here)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
