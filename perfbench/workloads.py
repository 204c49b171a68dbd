"""Seeded corpora, operations and output checks for the four workloads.

A workload turns a seed into a list of edge-list files plus the
``megsolve`` command lines run on them (one command line is one
operation). Every graph is drawn from ``megsolve.generators`` with a
sub-seed taken from one ``random.Random`` seeded by workload and seed, so
the same seed gives byte-identical files. Checks run after the timed loop
and use only library calls on a fresh parse of each file.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from time import perf_counter

# An accepted-set verify costs about m^2 |S|. Across generator seeds the
# edge density of P4-sparse graphs spreads from 0.25 to 0.85 and that of
# distance-hereditary graphs by 2x, so one verify op would vary 10x from
# seed to seed. The verify workload redraws these two families until the
# density lies in a narrow window: around the family's median density at
# that n for distance-hereditary graphs (medians over 200 generator seeds),
# and in the lower quartile for P4-sparse graphs, which keeps the heaviest
# op near 0.5 s instead of letting it fill the pass. The other families
# vary little.
VERIFY_DENSITY = {
    ("p4sparse", 20): (0.38, 0.44), ("p4sparse", 40): (0.38, 0.44),
    ("p4sparse", 60): (0.38, 0.44),
    ("dh", 20): (0.22, 0.26), ("dh", 40): (0.15, 0.18), ("dh", 60): (0.12, 0.14),
}
MAX_DRAWS = 500

# With density fixed, an accepted-set verify of a P4-sparse graph still
# varies 3x with the number of edge-deleted BFS runs, which grows with the
# witness. In these graphs the witness is the mandatory set, and at n=60
# the draws with more than 0.8n mandatory vertices cost up to twice the
# rest; two such ops are half a pass, so they swung the pass by a fifth
# from seed to seed. The verify workload redraws P4-sparse graphs until at
# most this share of the vertices is mandatory. From n=40 on it also
# redraws until no recognizer that auto mode tries before the P4-sparse
# scan accepts the graph: set-up solves every graph for its witness, and
# whether none, one or both n=60 graphs needed the scan (~0.35 s each) made
# set-up vary 4x by seed. At n=20 the scan costs ~1 ms, and only 1 in 15
# draws that meet the density and mandatory rules needs it.
VERIFY_P4_MAX_MANDATORY = 0.8
VERIFY_P4_SCAN_MIN_N = 40

# The only n at which the unrestricted raw subset search is cheap enough to
# rerun as an independent check of every reported meg.
BRUTE_CHECK_MAX_N = 12

# Above this n the P4-sparse scan refuses (LimitExceededError) and
# ``recognize`` reports p4Sparse "unknown". That is the only own-class
# verdict the checks let be anything but "yes".
P4_SCAN_LIMIT = 60


@dataclass
class Entry:
    """One generated graph, written to ``path`` (relative to the repo root)."""

    key: str
    n: int
    m: int
    path: str


@dataclass
class Op:
    """One ``megsolve.cli.main`` call and what its output must satisfy."""

    key: str
    argv: list[str]
    entry: Entry
    expect: dict = field(default_factory=dict)


@dataclass
class Corpus:
    ops: list[Op]
    fingerprint: str  # sha256 of workload, seed and every edge list
    gen_s: float  # time spent in megsolve.generators.generate


# ---------------------------------------------------------------------------
# structure tests for stratifying P4-sparse draws
#
# Which code path a P4-sparse graph takes depends on its shape, and each
# shape comes up in only part of the draws. Auto mode may solve a chordal one
# by the strongly chordal route (~6 ms at n=60) and must solve any other by
# the P4-sparse scan (~350 ms); ``detect_spider`` finds a spider by its
# degrees (~2 ms at n=12) but runs a 3^n search on a join (~1.2 s). Left to
# chance, the number of scans and searches per seed would swing the pass
# time by tens of percent, so the corpora fix the shape. These tests are the
# benchmark's own and call nothing in megsolve.


def has_induced_c4(G) -> bool:
    """True iff some four vertices induce a 4-cycle.

    A P4-sparse graph has no induced cycle longer than four, so for it this
    is exactly "not chordal".
    """
    masks = G.adj_masks
    for u in range(G.n):
        for w in range(u + 1, G.n):
            if masks[u] >> w & 1:
                continue
            common = masks[u] & masks[w]
            while common:
                x = (common & -common).bit_length() - 1
                common &= common - 1
                if common & ~masks[x]:
                    return True
    return False


def complement_connected(G) -> bool:
    """True iff the complement is connected: a connected P4-sparse graph on
    at least two vertices is then a spider, otherwise a join."""
    full = (1 << G.n) - 1
    seen = frontier = 1
    while frontier:
        nxt = 0
        while frontier:
            v = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            nxt |= full & ~G.adj_masks[v] & ~(1 << v)
        frontier = nxt & ~seen
        seen |= frontier
    return seen == full


# ---------------------------------------------------------------------------
# corpus construction


def _family_spec(lib, family: str, n: int, seed: int):
    GenSpec = lib.generators.GenSpec
    if family == "dh":
        return GenSpec("distance_hereditary", seed, n=n)
    if family == "p4sparse":
        return GenSpec("p4_sparse", seed, n=n)
    if family == "bipperm":
        return GenSpec("bipartite_permutation", seed, p=n // 2, q=n - n // 2)
    if family == "sc-interval":
        return GenSpec("strongly_chordal", seed, n=n,
                       params={"style": "interval"})
    if family == "sc-block":
        return GenSpec("strongly_chordal", seed, n=n,
                       params={"style": "block"})
    raise ValueError(f"unknown family {family!r}")


# Generator class named by each family's recognize verdict key.
OWN_CLASS = {
    "dh": "distanceHereditary",
    "p4sparse": "p4Sparse",
    "bipperm": "bipartitePermutation",
    "sc-interval": "stronglyChordal",
}

SOLVE_FAMILIES = ("dh", "p4sparse", "bipperm", "sc-interval", "sc-block",
                  "random")


class _CorpusWriter:
    """Draws graphs in a fixed order and writes them under ``out_dir``."""

    def __init__(self, lib, workload: str, seed: int, out_dir: str):
        self.lib = lib
        self.rng = random.Random(f"{workload}:{seed}")
        self.out_dir = out_dir
        self.files = 0
        self.digest = hashlib.sha256(f"{workload}:{seed}\n".encode())
        self.gen_s = 0.0

    def _generate(self, spec):
        t0 = perf_counter()
        G = self.lib.generators.generate(spec)
        self.gen_s += perf_counter() - t0
        return G

    def family(self, family: str, n: int, key: str, m: int | None = None,
               density: tuple[float, float] | None = None, shape=None) -> Entry:
        """Draw one graph of ``family``; ``m`` only applies to ``random``.

        Draws repeat until the edge density lies in ``density`` and
        ``shape(G)`` holds, for whichever of the two is given.
        """
        if family == "random":
            spec = self.lib.generators.GenSpec(
                "random", self.rng.randrange(2**31), n=n,
                m=2 * n if m is None else m)
            return self.add(key, spec.comment(), self._generate(spec))
        for _ in range(MAX_DRAWS):
            spec = _family_spec(self.lib, family, n, self.rng.randrange(2**31))
            G = self._generate(spec)
            if density is not None and not \
                    density[0] <= G.m / (n * (n - 1) / 2) <= density[1]:
                continue
            if shape is None or shape(G):
                return self.add(key, spec.comment(), G)
        raise RuntimeError(f"{key}: no draw met the density and shape")

    def cycle(self, k: int) -> Entry:
        G = self.lib.graph_core.Graph([f"v{i}" for i in range(k)],
                                      [(i, (i + 1) % k) for i in range(k)])
        return self.add(f"cycle-n{k}", f"cycle n={k}", G)

    def add(self, key: str, header: str, G) -> Entry:
        text = self.lib.graph_core.format_edge_list(G, header_comments=[header])
        path = os.path.join(self.out_dir, f"{self.files:03d}-{key}.edges")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        self.digest.update(text.encode())
        self.files += 1
        return Entry(key, G.n, G.m, path)

    def corpus(self, ops: list[Op]) -> Corpus:
        return Corpus(ops, self.digest.hexdigest(), self.gen_s)


def build_solve(b: _CorpusWriter) -> list[Op]:
    """`meg` (auto) on every family at n in {12, 60, 200, 1000}.

    Two replicates below n=1000 double the samples where ops are cheap,
    without doubling the pass, which the n=1000 graphs dominate. P4-sparse
    graphs are drawn non-chordal, so auto mode has to reach the P4-sparse
    recognizer (ROADMAP item 2) and cannot stop at the strongly chordal one.
    P4-sparse stops at n=200: at n=1000 the strongly chordal recognizer,
    which auto mode runs first, took over 3 s (once 31 s) on 6 of 20 draws,
    so one op could outlast the whole run (see README).
    """
    ops = []
    for n in (12, 60, 200, 1000):
        for rep in range(1 if n == 1000 else 2):
            for family in SOLVE_FAMILIES:
                if family == "p4sparse" and n == 1000:
                    continue
                shape = has_induced_c4 if family == "p4sparse" else None
                e = b.family(family, n, f"{family}-n{n}-r{rep}", shape=shape)
                ops.append(Op(e.key, ["meg", e.path], e))
    return ops


def build_oracle(b: _CorpusWriter) -> list[Op]:
    """Trusted and raw `oracle` on random graphs, n 9..16, sparse and dense.

    Three replicates put a steady cluster in the top decile of op times:
    dense graphs here nearly always have every vertex mandatory, so the raw
    search at n=15 explores all 32752 smaller subsets whatever the seed.
    """
    ops = []
    for n in range(9, 17):
        for density, m in (("sparse", round(1.5 * n)), ("dense", 3 * n)):
            for rep in range(3):
                e = b.family("random", n, f"random-{density}-n{n}-r{rep}", m=m)
                ops.append(Op(e.key + ":trusted", ["oracle", e.path], e,
                              {"trusted": True}))
                ops.append(Op(e.key + ":raw",
                              ["oracle", "--no-trust-bounds", e.path], e,
                              {"trusted": False}))
    return ops


def build_verify(b: _CorpusWriter) -> list[Op]:
    """`verify` of an accepted and a rejected set on every family at n in
    {20, 40, 60}.

    The accepted set is the solver's witness, or the non-cut set when the
    solve gives bounds only. The rejected set drops a mandatory vertex from
    it; without one, it drops a vertex of an exact witness, which leaves a
    set smaller than meg. Either way it is rejected by definition.
    """
    lib, rec = b.lib, b.lib.recognizers
    ops = []

    def p4_shape(G):
        if len(lib.monitoring.mandatory_vertices(G)) > VERIFY_P4_MAX_MANDATORY * G.n:
            return False
        return G.n < VERIFY_P4_SCAN_MIN_N or (
            rec.recognize_distance_hereditary(G) is None
            and rec.recognize_bipartite_permutation(G).verdict != "yes"
            and rec.recognize_strongly_chordal(G) is None)

    for n in (20, 40, 60):
        for rep in range(2):
            for family in SOLVE_FAMILIES:
                e = b.family(family, n, f"{family}-n{n}-r{rep}",
                             density=VERIFY_DENSITY.get((family, n)),
                             shape=p4_shape if family == "p4sparse" else None)
                G = lib.graph_core.read_graph_file(e.path)
                res = lib.solvers.solve(G)
                exact = res.witness is not None
                accepted = res.witness if exact else res.bounds.non_cut
                required = set(lib.monitoring.mandatory_vertices(G))
                mandatory = [v for v in accepted if v in required]
                if not mandatory and not exact:
                    raise RuntimeError(f"{e.key}: no vertex to drop by definition")
                drop = mandatory[0] if mandatory else accepted[0]
                rejected = [v for v in accepted if v != drop]
                for verdict, members in (("accepted", accepted),
                                         ("rejected", rejected)):
                    labels = ",".join(G.labels_of(members))
                    ops.append(Op(f"{e.key}:{verdict}",
                                  ["verify", e.path, "--set", labels], e,
                                  {"isMeg": verdict == "accepted"}))
    return ops


def build_recognize(b: _CorpusWriter) -> list[Op]:
    """`recognize --certificate` on class members at n in {10, 12, 60, 200}
    and on non-members: cycles C9-C12 and C200, random graphs at n 12 and 200.
    P4-sparse members come as one join and one spider at each n. Members at
    n=10 come twice: their 3^10 spider searches (~0.15 s) then hold the
    median op, which would otherwise fall between clusters of op times.
    """
    ops = []
    members = (("dh", None), ("p4sparse", "join"), ("p4sparse", "spider"),
               ("bipperm", None), ("sc-interval", None))
    shapes = {"join": lambda G: not complement_connected(G),
              "spider": complement_connected, None: None}
    for n in (10, 12, 60, 200):
        for rep in range(2 if n == 10 else 1):
            for family, shape in members:
                key = f"{family}-{shape}-n{n}" if shape else f"{family}-n{n}"
                key += f"-r{rep}" if n == 10 else ""
                e = b.family(family, n, key, shape=shapes[shape])
                ops.append(Op(e.key, ["recognize", "--certificate", e.path], e,
                              {"own": OWN_CLASS[family]}))
    for k in (9, 10, 11, 12, 200):
        e = b.cycle(k)
        ops.append(Op(e.key, ["recognize", "--certificate", e.path], e,
                      {"member": False}))
    for n in (12, 200):
        e = b.family("random", n, f"random-n{n}")
        ops.append(Op(e.key, ["recognize", "--certificate", e.path], e))
    return ops


MAKERS = {
    "solve": build_solve,
    "oracle": build_oracle,
    "verify": build_verify,
    "recognize": build_recognize,
}


def build(lib, workload: str, seed: int, out_dir: str) -> Corpus:
    b = _CorpusWriter(lib, workload, seed, out_dir)
    return b.corpus(MAKERS[workload](b))


# ---------------------------------------------------------------------------
# decided outcomes


VERDICT_KEYS = ("distanceHereditary", "bipartitePermutation",
                "stronglyChordal", "p4Sparse")


def decided_units(workload: str) -> int:
    """Outcomes per op that ``decided_rate`` counts."""
    return len(VERDICT_KEYS) if workload == "recognize" else 1


def decided(workload: str, out: str) -> tuple[int, int]:
    """(decided, total) outcomes of one op's report.

    ``solve``: an exact meg, not bounds only. ``recognize``: verdicts that
    are yes or no, not unknown. Every ``oracle`` and ``verify`` op decides.
    """
    result = json.loads(out)["result"]
    if workload == "solve":
        return int(result["meg"] is not None), 1
    if workload == "recognize":
        return sum(result[k] != "unknown" for k in VERDICT_KEYS), len(VERDICT_KEYS)
    return 1, 1


# ---------------------------------------------------------------------------
# output checks


class Checker:
    """Recomputes what each report must agree with, one graph at a time."""

    def __init__(self, lib):
        self.lib = lib
        self._key = None
        self._facts = None

    def facts(self, entry: Entry):
        """Graph, mandatory label set and non-cut label set of ``entry``."""
        if self._key != entry.path:
            lib = self.lib
            G = lib.graph_core.read_graph_file(entry.path)
            mandatory = set(G.labels_of(lib.monitoring.mandatory_vertices(G)))
            cut = set(lib.graph_core.articulation_points(G))
            non_cut = {G.label(v) for v in range(G.n) if v not in cut}
            self._key, self._facts = entry.path, (G, mandatory, non_cut)
        return self._facts

    def check(self, workload: str, op: Op, rc, out: str) -> list[str]:
        if rc != 0:
            return [f"exit {rc!r}"]
        try:
            doc = json.loads(out)
        except json.JSONDecodeError as exc:
            return [f"output is not JSON: {exc}"]
        if doc.get("exit") != 0 or doc["input"]["n"] != op.entry.n \
                or doc["input"]["m"] != op.entry.m:
            return ["report header does not match the input"]
        return getattr(self, f"_check_{workload}")(op, doc["result"])

    def _witness(self, entry: Entry, meg, witness) -> list[str]:
        G, mandatory, non_cut = self.facts(entry)
        errors = []
        if meg != len(witness):
            errors.append(f"meg {meg} != |witness| {len(witness)}")
        if not mandatory <= set(witness):
            errors.append("witness misses a mandatory vertex")
        if not set(witness) <= non_cut:
            errors.append("witness holds a cut vertex")
        if G.n <= BRUTE_CHECK_MAX_N:
            lib = self.lib
            ids = [G.id_of(x) for x in witness]
            if not lib.monitoring.is_meg_set(G, ids).ok:
                errors.append("witness is not an MEG set")
            raw = lib.oracle.min_meg_bruteforce(
                G, trust_bounds=False, limit=BRUTE_CHECK_MAX_N).meg
            if raw != meg:
                errors.append(f"meg {meg} != raw brute force {raw}")
        return errors

    def _check_solve(self, op: Op, result: dict) -> list[str]:
        if result["meg"] is not None:
            errors = self._witness(op.entry, result["meg"], result["witness"])
            if result["minimal"] is not True:
                errors.append("auto mode returned a non-minimal answer")
            return errors
        _, mandatory, non_cut = self.facts(op.entry)
        bnd = result.get("bounds")
        if result["method"] != "none" or bnd is None:
            return ["no meg and no bounds"]
        if set(bnd["mandatory"]) != mandatory or set(bnd["nonCut"]) != non_cut:
            return ["bounds disagree with mandatory / non-cut vertices"]
        if not bnd["lower"] == len(mandatory) <= bnd["upper"] == len(non_cut):
            return ["bound sizes disagree with their vertex lists"]
        return []

    def _check_oracle(self, op: Op, result: dict) -> list[str]:
        errors = self._witness(op.entry, result["meg"], result["witness"])
        if result["trustedBounds"] is not op.expect["trusted"]:
            errors.append("trustedBounds flag does not match the command")
        G = self.facts(op.entry)[0]
        ids = [G.id_of(x) for x in result["witness"]]
        if G.n > BRUTE_CHECK_MAX_N and not self.lib.monitoring.is_meg_set(G, ids).ok:
            errors.append("witness is not an MEG set")
        return errors

    def _check_verify(self, op: Op, result: dict) -> list[str]:
        if result["isMeg"] is not op.expect["isMeg"]:
            return [f"isMeg {result['isMeg']} for the {op.key.split(':')[1]} set"]
        if op.expect["isMeg"]:
            return [] if result["uncovered"] is None else ["accepted set reports an uncovered edge"]
        G = self.facts(op.entry)[0]
        u, v = result["uncovered"]
        return [] if G.has_edge(G.id_of(u), G.id_of(v)) else ["uncovered pair is not an edge"]

    def _check_recognize(self, op: Op, result: dict) -> list[str]:
        lib = self.lib
        rec = lib.recognizers
        G = self.facts(op.entry)[0]
        errors = []
        allowed = {"yes", "no", "unknown"}
        if any(result[k] not in allowed for k in VERDICT_KEYS):
            errors.append("verdict outside yes/no/unknown")
        own = op.expect.get("own")
        if own and result[own] != "yes" and not (
                own == "p4Sparse" and G.n > P4_SCAN_LIMIT and result[own] == "unknown"):
            errors.append(f"generator's own class {own} is {result[own]!r}")
        if op.expect.get("member") is False and "yes" in result.values():
            errors.append("a cycle of length >= 9 got a 'yes' verdict")
        certs = result.get("certificates", {})
        ids = lambda labels: [G.id_of(x) for x in labels]  # noqa: E731
        for key in ("distanceHereditary", "bipartitePermutation", "stronglyChordal"):
            if (result[key] == "yes") != (certs.get(key) is not None):
                errors.append(f"{key} verdict and certificate disagree")
        cert = certs.get("distanceHereditary")
        if cert is not None:
            steps = tuple(rec.PruneStep(G.id_of(s["vertex"]), s["kind"],
                                        G.id_of(s["partner"]))
                          for s in cert["steps"])
            seq = rec.PruneSequence(steps, G.id_of(cert["final"]))
            if not rec.verify_prune_sequence(G, seq):
                errors.append("prune sequence does not replay")
        cert = certs.get("bipartitePermutation")
        if cert is not None:
            so = rec.strong_ordering_from_orders(G, ids(cert["xOrder"]),
                                                 ids(cert["yOrder"]))
            if not rec.verify_strong_ordering(G, so):
                errors.append("strong ordering does not replay")
        cert = certs.get("stronglyChordal")
        if cert is not None and not rec.verify_seo(G, _seo(rec, G, ids(cert["order"]))):
            errors.append("simple elimination order does not replay")
        cert = certs.get("spider")
        if cert is not None:
            part = rec.verify_spider_partition(G, ids(cert["s"]), ids(cert["c"]),
                                               ids(cert["r"]))
            if part is None or part.kind != cert["kind"]:
                errors.append("spider partition does not replay")
        return errors


def _seo(rec, G, order: list[int]):
    """SEO certificate from a bare order: each step's chain is its closed
    neighbourhood sorted by inclusion size, which ``verify_seo`` rechecks."""
    masks = G.adj_masks
    alive = (1 << G.n) - 1
    chains = []
    for v in order:
        members = [u for u in range(G.n) if ((masks[v] | 1 << v) & alive) >> u & 1]
        closed = {u: (masks[u] | 1 << u) & alive for u in members}
        chains.append(tuple(sorted(members, key=lambda u: (closed[u].bit_count(), u))))
        alive &= ~(1 << v)
    return rec.SEO(tuple(order), tuple(chains))
