"""Command-line interface.

Reports are JSON with a top-level schema version and are byte-identical
across runs for the same input and flags; timing is therefore opt-in.
The argument parser is built on the first ``main`` call and reused for
the rest of the process; each call still parses into a fresh namespace.
Exit codes: 0 success, 2 input/parse problems, 3 connectivity or size
preconditions, 4 forced-method mismatch, 5 hard size limits, 6 resources
exhausted (``MemoryError`` or ``RecursionError``).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import time

from .errors import (EdgeListParseError, GenerationError, LimitExceededError,
                     MethodMismatchError, NotConnectedError, SelfLoopError)
from .generators import GENERATORS, GenSpec, generate
from .graph_core import Graph, articulation_points, format_edge_list, \
    is_connected, read_graph_file
from .monitoring import is_meg_set, mandatory_vertices
from .oracle import DEFAULT_VERTEX_LIMIT, min_meg_bruteforce
from .recognizers import detect_spider
from .solvers import METHODS, ROUTES, solve

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_MISMATCH = 4
EXIT_LIMIT = 5
EXIT_RESOURCES = 6

ORACLE_LIMIT_ENV = "MEGSOLVE_ORACLE_LIMIT"

GEN_ALIASES = {
    "dh": "distance_hereditary",
    "distance-hereditary": "distance_hereditary",
    "p4sparse": "p4_sparse",
    "p4-sparse": "p4_sparse",
    "bipperm": "bipartite_permutation",
    "bipartite-permutation": "bipartite_permutation",
    "stronglychordal": "strongly_chordal",
    "strongly-chordal": "strongly_chordal",
    "random": "random",
}


def _oracle_limit() -> int:
    raw = os.environ.get(ORACLE_LIMIT_ENV)
    if raw is None:
        return DEFAULT_VERTEX_LIMIT
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{ORACLE_LIMIT_ENV} must be an integer, got {raw!r}")
    if value < 2:
        raise ValueError(f"{ORACLE_LIMIT_ENV} must be at least 2")
    return value


def _summary(G: Graph, path: str) -> dict:
    return {"n": G.n, "m": G.m, "labels": sorted(G.labels), "path": path}


def _labels_sorted(G: Graph, ids) -> list[str]:
    return sorted(G.labels_of(ids))


def _report(args: argparse.Namespace) -> int:
    """Read ``args.path``, run the command on the graph and print its report.

    The clock starts before the read, so ``--timing`` covers both."""
    started = time.perf_counter()
    G = read_graph_file(args.path)
    report = {
        "schema": 1,
        "command": args.command,
        "input": _summary(G, args.path),
        "result": args.result(G, args),
        "exit": EXIT_OK,
    }
    if args.timing:
        report["elapsedMs"] = round((time.perf_counter() - started) * 1000, 3)
    print(json.dumps(report, sort_keys=True, indent=2))
    return EXIT_OK


def cmd_recognize(G: Graph, args: argparse.Namespace) -> dict:
    _require_connected(G)
    answers = [(key, recognize(G), write)
               for _, _, _, key, recognize, write in ROUTES]
    result: dict = {key: "yes" if answer else "no"
                    for key, answer, _ in answers}
    if args.certificate:
        certs: dict = {key: write(answer, G) if answer else None
                       for key, answer, write in answers if write is not None}
        spider = detect_spider(G)
        if spider is not None:
            certs["spider"] = spider.to_json(G)
        result["certificates"] = certs
    return result


def cmd_meg(G: Graph, args: argparse.Namespace) -> dict:
    res = solve(G, method=args.method, oracle_limit=_oracle_limit())
    result: dict = {
        "class": res.class_used,
        "method": res.method,
        "meg": res.meg,
        "witness": _labels_sorted(G, res.witness) if res.witness is not None else None,
        "minimal": res.minimality_guaranteed,
    }
    if res.bounds is not None:
        result["bounds"] = {
            "lower": res.bounds.lower,
            "upper": res.bounds.upper,
            "mandatory": _labels_sorted(G, res.bounds.mandatory),
            "nonCut": _labels_sorted(G, res.bounds.non_cut),
        }
    return result


def cmd_verify(G: Graph, args: argparse.Namespace) -> dict:
    members = []
    for label in args.set.split(","):
        label = label.strip()
        if not label:
            continue
        try:
            members.append(G.id_of(label))
        except KeyError:
            raise EdgeListParseError(0, f"unknown vertex label {label!r} in --set")
    check = is_meg_set(G, members)
    uncovered = None
    if check.uncovered is not None:
        u, v = check.uncovered
        uncovered = sorted([G.label(u), G.label(v)])
    return {"isMeg": check.ok, "uncovered": uncovered}


def cmd_mandatory(G: Graph, args: argparse.Namespace) -> dict:
    return {"mandatory": _labels_sorted(G, mandatory_vertices(G))}


def cmd_cut(G: Graph, args: argparse.Namespace) -> dict:
    _require_connected(G)
    return {"cutVertices": _labels_sorted(G, articulation_points(G))}


def cmd_oracle(G: Graph, args: argparse.Namespace) -> dict:
    res = min_meg_bruteforce(G, trust_bounds=args.trust_bounds,
                             limit=_oracle_limit())
    return {
        "meg": res.meg,
        "witness": _labels_sorted(G, res.witness),
        "explored": res.explored,
        "trustedBounds": res.trusted_bounds,
    }


def cmd_gen(args: argparse.Namespace) -> int:
    cls = GEN_ALIASES.get(args.cls, args.cls)
    if cls not in GENERATORS:
        raise GenerationError(f"unknown generator class {args.cls!r}")
    used = GENERATORS[cls][1]
    if any(getattr(args, name) is None for name in used):
        flags = " and ".join(f"--{name}" for name in used)
        verb = "is" if len(used) == 1 else "are"
        raise GenerationError(f"{flags} {verb} required for class {args.cls}")
    for name in ("n", "p", "q", "m"):
        if name not in used and getattr(args, name) is not None:
            raise GenerationError(f"--{name} is not used by class {args.cls}")
    spec = GenSpec(cls=cls, seed=args.seed, n=args.n, p=args.p, q=args.q,
                   m=args.m)
    G = generate(spec)
    text = format_edge_list(G, header_comments=[spec.comment()])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    limit = _oracle_limit()
    paths = sorted(p for p in os.listdir(args.corpus) if p.endswith(".edges"))
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["class", "n", "m", "method", "meg", "elapsed_ms",
                     "agreed_with_oracle"])
    for name in paths:
        full = os.path.join(args.corpus, name)
        try:
            G = read_graph_file(full)
            started = time.perf_counter()
            res = solve(G, oracle_limit=limit)
            elapsed = time.perf_counter() - started
        except (EdgeListParseError, SelfLoopError, OSError,
                NotConnectedError, LimitExceededError) as exc:
            writer.writerow([name, "", "", "error", "", "", str(exc)])
            continue
        agreed = ""
        if res.meg is not None and G.n <= limit:
            # The raw oracle: the trusted one is auto mode's own fallback.
            raw = min_meg_bruteforce(G, trust_bounds=False, limit=limit).meg
            agreed = "yes" if raw == res.meg else "no"
        writer.writerow([res.class_used, G.n, G.m, res.method,
                         "" if res.meg is None else res.meg,
                         round(elapsed * 1000, 3), agreed])
    text = buf.getvalue()
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _require_connected(G: Graph) -> None:
    if G.n == 0:
        raise NotConnectedError("graph has no vertices")
    if not is_connected(G):
        raise NotConnectedError("graph must be connected")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="megsolve",
        description="Monitoring edge-geodetic sets on restricted graph classes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, command) -> None:
        p.add_argument("--timing", action="store_true",
                       help="include wall-clock time in the report")
        p.set_defaults(func=_report, result=command)

    p = sub.add_parser("recognize", help="class membership verdicts")
    p.add_argument("path")
    p.add_argument("--certificate", action="store_true",
                   help="attach recognizer certificates")
    add_common(p, cmd_recognize)

    p = sub.add_parser("meg", help="solve for the MEG number")
    p.add_argument("path")
    p.add_argument("--method", default="auto", choices=METHODS)
    add_common(p, cmd_meg)

    p = sub.add_parser("verify", help="check a vertex set for MEG coverage")
    p.add_argument("path")
    p.add_argument("--set", required=True,
                   help="comma-separated vertex labels")
    add_common(p, cmd_verify)

    p = sub.add_parser("mandatory", help="vertices in every MEG set")
    p.add_argument("path")
    add_common(p, cmd_mandatory)

    p = sub.add_parser("cut", help="articulation vertices")
    p.add_argument("path")
    add_common(p, cmd_cut)

    p = sub.add_parser("oracle", help="exhaustive minimum MEG search")
    p.add_argument("path")
    p.add_argument("--trust-bounds", action=argparse.BooleanOptionalAction,
                   default=True, help="search each block with its cut and "
                   "mandatory vertices forced in; off: every vertex subset")
    add_common(p, cmd_oracle)

    p = sub.add_parser("gen", help="emit a generated instance as an edge list")
    p.add_argument("--class", dest="cls", required=True,
                   help="dh | p4sparse | bipperm | stronglychordal | random")
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="solve a corpus directory, emit CSV")
    p.add_argument("corpus")
    p.add_argument("--csv", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_bench)

    return parser


# Exception -> exit code, most specific first; the first match wins.
# EdgeListParseError (also raised for bytes that are not UTF-8) and
# SelfLoopError are ValueErrors, so they exit 2; so does an unreadable path
# (any OSError). Running out of memory or stack exits 6, with the error's
# name when it carries no message (a bare MemoryError).
EXIT_CODES = (
    (NotConnectedError, EXIT_PRECONDITION),
    (MethodMismatchError, EXIT_MISMATCH),
    (LimitExceededError, EXIT_LIMIT),
    (ValueError, EXIT_INPUT),
    (GenerationError, EXIT_INPUT),
    (OSError, EXIT_INPUT),
    (MemoryError, EXIT_RESOURCES),
    (RecursionError, EXIT_RESOURCES),
)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(exc_type for exc_type, _ in EXIT_CODES) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return next(code for exc_type, code in EXIT_CODES
                    if isinstance(exc, exc_type))


if __name__ == "__main__":
    sys.exit(main())
