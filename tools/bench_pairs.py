"""Run the benchmark on two checkouts in alternating pairs and write a
BENCH file, one point of the benchmark trajectory.

Usage, from anywhere:

    python3 tools/bench_pairs.py --parent ../parent --change . \
        --out BENCH_<k>.json --seed 1 --pairs 10 --layer-pairs 1

Each pair runs ``python3 perfbench/run.py --workload W --seed S --trace 0``
for every workload of BENCHMARK.json, at its ``run_seconds``, once in each
checkout, alternating which side goes first, and reads
``perfbench/out/result-W-sS-t0.json`` from that checkout. ``--layer-pairs``
more pairs run with ``--trace 1`` for the per-layer metrics. ``--pairs``
defaults to 10, the fewest that resolve ``recognize``'s
``latency_p50_ms`` and that a claimed gain's nine-of-ten rule reads.
Runs go one at a time, so the two sides never share the host. The harness itself is not
changed: each side runs its own ``perfbench/``.

The output holds, per workload and side, every run's metrics, their
median and quartiles, and the seed, corpus fingerprint, ``report_digest``
and commit of the side. After writing it, the script prints a verdict
table (``verdict_table``): one row per workload and end-to-end metric,
and per workload one line saying whether the two sides' fingerprints and
report digests match. A side's commit is ``git rev-parse HEAD`` of its
checkout; ``dirty`` says whether ``src/`` differs from that commit, and
``src_sha256`` identifies the source that ran either way.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
SPEC_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="parent checkout")
    p.add_argument("--change", required=True, help="change checkout")
    p.add_argument("--out", required=True, help="BENCH file to write")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--layer-pairs", type=int, default=1)
    args = p.parse_args(argv)
    if args.pairs < 1 or args.layer_pairs < 0:
        p.error("--pairs must be at least 1 and --layer-pairs at least 0")
    return args


def _git(root: str, *argv: str) -> str | None:
    try:
        done = subprocess.run(["git", "-C", root, *argv], capture_output=True,
                              text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def describe(root: str) -> dict:
    """Commit, dirtiness and a digest of the Python sources under src/."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read() + b"\0")
    status = _git(root, "status", "--porcelain", "--", "src")
    return {"commit": _git(root, "rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status),
            "src_sha256": digest.hexdigest()}


def run_once(root: str, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{root}: {' '.join(argv[1:])} exited "
                         f"{done.returncode}\n{done.stderr}")
    correct = json.loads(done.stdout.splitlines()[-1])["correct"]
    path = os.path.join(root, "perfbench", "out",
                        f"result-{workload}-s{seed}-t{trace}.json")
    with open(path, encoding="utf-8") as fh:
        detail = json.load(fh)
    return {"trace": trace, "correct": correct,
            "fingerprint": detail["fingerprint"],
            "report_digest": detail["report_digest"],
            "metrics": detail["metrics"],
            "raw_metrics": detail.get("raw_metrics", {})}


def summarize(runs: list[dict]) -> dict:
    """Median and quartiles of each metric over ``runs``."""
    out = {}
    for name in runs[0]["metrics"] if runs else ():
        values = sorted(r["metrics"][name] for r in runs)
        q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                     if len(values) > 1 else values * 3)
        out[name] = {"median": statistics.median(values), "q1": q1, "q3": q3}
    return out


def bench_workload(args, roots: dict, workload: str, seconds: float) -> dict:
    runs = []
    plan = [0] * args.pairs + [1] * args.layer_pairs
    for pair, trace in enumerate(plan):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            print(f"{workload} pair {pair} trace {trace}: {side}",
                  file=sys.stderr, flush=True)
            run = run_once(roots[side], workload, args.seed, seconds, trace)
            runs.append({"pair": pair, "side": side, **run})
    sides = {}
    for side in SIDES:
        mine = [r for r in runs if r["side"] == side]
        first = mine[0]
        sides[side] = {
            **describe(roots[side]),
            "fingerprint": first["fingerprint"],
            "report_digest": first["report_digest"],
            "consistent": all(
                (r["fingerprint"], r["report_digest"], r["correct"])
                == (first["fingerprint"], first["report_digest"], True)
                for r in mine),
            "end_to_end": summarize([r for r in mine if r["trace"] == 0]),
            "per_layer": summarize([r for r in mine if r["trace"] == 1]),
        }
    return {"seed": args.seed, "seconds": seconds, "pairs": args.pairs,
            "layer_pairs": args.layer_pairs, "sides": sides, "runs": runs}


def verdict_table(doc: dict, spec: dict) -> str:
    """Per workload and end-to-end metric of ``spec``: the parent and
    change medians, the parent's quartile spread (q3 - q1), its
    ``spread`` (max - min of its runs, a share of its median), the pairs
    the change wins in the direction of ``better`` (ties win for
    neither), whether the change's median is worse than the parent's by
    more than ``bound``, a share of the parent's median, and whether the
    metric is ``unresolved``: spread over ``bound`` while some change run
    is not better than every parent run. Each workload ends with a line
    saying whether the two sides' fingerprints and report digests match.
    """
    lines = [f"{'workload':10s} {'metric':20s} {'parent':>12s} "
             f"{'change':>12s} {'parent_iqr':>12s} {'spread':>8s} "
             f"{'wins':>6s} over_bound unresolved"]
    for w, entry in doc["workloads"].items():
        sides = entry["sides"]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            # sign * (a - b) > 0 when a is better than b.
            sign = 1 if metric["better"] == "higher" else -1
            parent = sides["parent"]["end_to_end"][name]
            change = sides["change"]["end_to_end"][name]["median"]
            pairs: dict[int, dict] = {}
            for r in entry["runs"]:
                if r["trace"] == 0:
                    pairs.setdefault(r["pair"], {})[r["side"]] = \
                        r["metrics"][name]
            wins = sum(sign * (p["change"] - p["parent"]) > 0
                       for p in pairs.values())
            over = (sign * (parent["median"] - change)
                    > metric["bound"] * abs(parent["median"]))
            runs = [p["parent"] for p in pairs.values()]
            spread = max(runs) - min(runs)
            if spread:
                spread = (spread / abs(parent["median"]) if parent["median"]
                          else math.inf)
            unresolved = spread > metric["bound"] and not all(
                sign * (p["change"] - q) > 0
                for p in pairs.values() for q in runs)
            lines.append(f"{w:10s} {name:20s} {parent['median']:12.4f} "
                         f"{change:12.4f} {parent['q3'] - parent['q1']:12.4f} "
                         f"{spread:8.4f} {f'{wins}/{len(pairs)}':>6s} "
                         f"{'yes' if over else 'no':10s} "
                         f"{'yes' if unresolved else 'no'}")
        same = ["equal" if sides["parent"][key] == sides["change"][key]
                else "differ" for key in ("fingerprint", "report_digest")]
        lines.append(f"{w:10s} fingerprints {same[0]}, report digests "
                     f"{same[1]}")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(SPEC_PATH, encoding="utf-8") as fh:
        spec = json.load(fh)
    roots = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    doc = {
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version(),
                 "system": platform.system()},
        "workloads": {w["name"]: bench_workload(args, roots, w["name"],
                                                spec["run_seconds"])
                      for w in spec["workloads"]},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(verdict_table(doc, spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
