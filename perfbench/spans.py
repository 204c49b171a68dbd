"""Span tracer that wraps megsolve functions from the benchmark's side.

Each wrapped call records one span (op, name, parent, start, end) in
memory. ``bfs_distances`` runs up to ~10^5 times per op, so its calls are
folded into the enclosing span as a call count and a total time instead of
one span each. Nothing under ``src/`` is modified: the wrappers are
installed by rebinding module attributes and removed afterwards.
"""

from __future__ import annotations

import json
from time import perf_counter

# (module, function, span name). The wrapper replaces the function in every
# megsolve module namespace that holds it, so calls through imports such as
# ``megsolve.solvers.recognize_p4_sparse`` are seen as well.
TARGETS = (
    ("graph_core", "read_graph_file", "graph_core.parse"),
    ("graph_core", "articulation_points", "graph_core.articulation"),
    ("monitoring", "is_meg_set", "monitoring.is_meg_set"),
    ("monitoring", "mandatory_vertices", "monitoring.mandatory"),
    ("monitoring", "bounds", "monitoring.bounds"),
    ("oracle", "_pair_cover_masks", "oracle.cover_masks"),
    ("oracle", "min_meg_bruteforce", "oracle.search"),
    ("recognizers", "recognize_distance_hereditary", "recognizers.dh"),
    ("recognizers", "recognize_bipartite_permutation", "recognizers.bp"),
    ("recognizers", "recognize_strongly_chordal", "recognizers.sc"),
    ("recognizers", "recognize_p4_sparse", "recognizers.p4"),
    ("recognizers", "detect_spider", "recognizers.spider"),
    ("solvers", "solve", "solvers.solve"),
)
LEAF = ("graph_core", "bfs_distances")
ROOT = "cli.main"

RECOGNIZERS = ("recognizers.dh", "recognizers.bp", "recognizers.sc",
               "recognizers.p4", "recognizers.spider")

# Span outcome taken from the return value: a recognizer verdict, the
# solver's method, or the oracle's explored-subset count.
OUTCOMES = {
    "recognizers.dh": lambda r: "no" if r is None else "yes",
    "recognizers.bp": lambda r: r.verdict,
    "recognizers.sc": lambda r: "no" if r is None else "yes",
    "recognizers.p4": lambda r: "yes" if r else "no",
    "recognizers.spider": lambda r: "no" if r is None else "yes",
    "solvers.solve": lambda r: r.method,
    "oracle.search": lambda r: r.explored,
}

# Span record fields.
OP, NAME, PARENT, START, END, CHILD, BFS_CALLS, BFS_S, OUTCOME = range(9)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.pass_starts: list[int] = []  # span index after each pass
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        outcome = OUTCOMES.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [self.op, name, parent, 0.0, 0.0, 0.0, 0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            start = rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[OUTCOME] = "limit" if type(exc).__name__ == "LimitExceededError" \
                    else type(exc).__name__
                raise
            finally:
                end = rec[END] = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD] += end - start
            if outcome is not None:
                rec[OUTCOME] = outcome(result)
            return result

        return traced

    def _wrap_leaf(self, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                rec = spans[stack[-1]]
                rec[CHILD] += elapsed
                rec[BFS_CALLS] += 1
                rec[BFS_S] += elapsed

        return traced

    def install(self, modules: dict) -> None:
        """Wrap every target in every module of ``modules`` (name -> module)."""
        for mod_name, fn_name, span in TARGETS:
            original = getattr(modules[mod_name], fn_name)
            self._rebind(modules, original, self.wrap(span, original))
        original = getattr(modules[LEAF[0]], LEAF[1])
        self._rebind(modules, original, self._wrap_leaf(original))

    def _rebind(self, modules: dict, original, wrapper) -> None:
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines, times in ms from the first span."""
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "op": s[OP], "name": s[NAME], "parent": s[PARENT],
                    "start_ms": round((s[START] - origin) * 1e3, 4),
                    "end_ms": round((s[END] - origin) * 1e3, 4),
                    "bfs_calls": s[BFS_CALLS],
                    "bfs_ms": round(s[BFS_S] * 1e3, 4),
                    "outcome": s[OUTCOME]}) + "\n")


def layer_totals(spans: list[list], lo: int, hi: int) -> dict:
    """Per-layer totals over ``spans[lo:hi]``: times in ms, counts exact.

    Metric names and what they sum are listed in perfbench/README.md.
    """
    dur = lambda s: s[END] - s[START]  # noqa: E731
    ms = {name: 0.0 for name in ("cli.self", "graph_core.parse",
                                 "graph_core.articulation",
                                 "monitoring.is_meg_set", "monitoring.mandatory",
                                 "monitoring.bounds", "oracle.cover_masks",
                                 "oracle.search", "solvers.self",
                                 "recognizers.negative") + RECOGNIZERS}
    counts = {"graph_core.bfs_calls": 0, "monitoring.is_meg_set_calls": 0,
              "oracle.subsets_explored": 0, "recognizers.unknown_verdicts": 0,
              "solvers.bounds_only": 0, "solvers.solve_calls": 0,
              "solvers.recognizer_calls": 0}
    bfs_s = 0.0
    for s in spans[lo:hi]:
        name = s[NAME]
        bfs_s += s[BFS_S]
        counts["graph_core.bfs_calls"] += s[BFS_CALLS]
        if name == ROOT:
            ms["cli.self"] += dur(s) - s[CHILD]
        elif name == "solvers.solve":
            ms["solvers.self"] += dur(s) - s[CHILD]
            counts["solvers.solve_calls"] += 1
            counts["solvers.bounds_only"] += s[OUTCOME] == "none"
        elif name == "oracle.search":
            ms[name] += dur(s) - s[CHILD]
            if isinstance(s[OUTCOME], int):
                counts["oracle.subsets_explored"] += s[OUTCOME]
        else:
            ms[name] += dur(s)
        if name == "monitoring.is_meg_set":
            counts["monitoring.is_meg_set_calls"] += 1
        if name in RECOGNIZERS:
            if s[OUTCOME] != "yes":
                ms["recognizers.negative"] += dur(s)
            if s[OUTCOME] in ("unknown", "limit"):
                counts["recognizers.unknown_verdicts"] += 1
            if _under_solve(spans, s):
                counts["solvers.recognizer_calls"] += 1
    out = {f"{k}_ms": v * 1e3 for k, v in ms.items()}
    out["graph_core.bfs_ms"] = bfs_s * 1e3
    out.update(counts)
    return out


def _under_solve(spans: list[list], s: list) -> bool:
    parent = s[PARENT]
    while parent >= 0:
        if spans[parent][NAME] == "solvers.solve":
            return True
        parent = spans[parent][PARENT]
    return False
