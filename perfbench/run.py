"""megsolve benchmark: seeded corpus, closed-loop CLI operations, checks.

Usage (from anywhere; it works on the checkout that holds this file):

    python3 perfbench/run.py --workload solve --seed 1 --seconds 25 --trace 0

One client in one process runs the workload's operations back to back;
one operation is one in-process ``megsolve.cli.main([...])`` call on an
edge-list file written at set-up, with its stdout captured. Operations run
in whole passes over the corpus until ``--seconds`` is used up. After the
loop every output is checked. ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` times an untraced and then a traced half of the budget and
prints the per-layer metrics. Times are reported at the reference speed of
``speed.py``; the summary also prints them unscaled. The last stdout line
is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from time import perf_counter
from types import SimpleNamespace

import spans
import workloads
from speed import REF_SECONDS, Speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join("perfbench", "out")  # relative to ROOT, git-ignored

WORKLOADS = ("solve", "oracle", "verify", "recognize")
MODULES = ("cli", "generators", "graph_core", "monitoring", "oracle",
           "recognizers", "solvers")
SETUP_REPS = 3
ORACLE_LIMIT = "16"  # MEGSOLVE_ORACLE_LIMIT for the oracle workload

E2E_UNITS = {
    "setup_s": "s", "ops_per_s": "ops/s", "latency_p50_ms": "ms",
    "latency_p90_ms": "ms", "latency_geomean_ms": "ms",
    "decided_rate": "fraction", "success_rate": "fraction",
    "peak_rss_mb": "MB",
}
LAYER_COUNTS = ("graph_core.bfs_calls", "monitoring.is_meg_set_calls",
                "oracle.subsets_explored", "recognizers.unknown_verdicts",
                "solvers.bounds_only")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_megsolve() -> dict:
    """Import megsolve from this checkout's src/ afresh; name -> module."""
    for name in [k for k in sys.modules if k == "megsolve" or k.startswith("megsolve.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"megsolve.{name}") for name in MODULES}
    origin = os.path.realpath(sys.modules["megsolve"].__file__)
    if not origin.startswith(os.path.join(os.path.realpath(SRC), "megsolve") + os.sep):
        raise ImportError(f"megsolve imported from {origin}, not from {SRC}")
    return mods


@dataclass
class Pass:
    """One pass over the ops: each op's (start, end) clock and its output."""

    clock: list[tuple[float, float]]
    outs: list[tuple]

    @property
    def wall(self) -> float:
        return self.clock[-1][1] - self.clock[0][0]

    def scaled(self, speed) -> list[float]:
        """Op times at the reference speed, in seconds."""
        return [(t1 - t0) * speed.scale(t0, t1) for t0, t1 in self.clock]


def run_pass(main, ops, speed, tracer=None) -> Pass:
    clock, outs = [], []
    base = len(tracer.pass_starts) * len(ops) if tracer else 0
    speed.probe()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = base + i
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = main(op.argv)
        except (Exception, SystemExit) as exc:
            rc = f"{type(exc).__name__}: {exc}"
        clock.append((t0, perf_counter()))
        outs.append((rc, out.getvalue()))
        speed.maybe_probe()
    return Pass(clock, outs)


def run_phase(main, ops, budget: float, speed, tracer=None) -> list[Pass]:
    """Whole passes until ``budget`` seconds are used; at least one.

    Another pass starts only if half a (median) pass still fits, so the
    measured time stays within half a pass of the budget. With a tracer,
    span ops are numbered pass * len(ops) + op index.
    """
    passes = []
    start = perf_counter()
    while True:
        gc.collect()
        passes.append(run_pass(main, ops, speed, tracer))
        if tracer is not None:
            tracer.pass_starts.append(len(tracer.spans))
        half = 0.5 * statistics.median(p.wall for p in passes)
        if perf_counter() - start + half > budget:
            return passes


def time_metrics(times: list[list[float]], setup_s: list[float]) -> dict:
    """Time metrics from per-pass op times (seconds) and set-up times."""
    samples = [t for p in times for t in p]
    per_op = [statistics.median(p[i] for p in times) for i in range(len(times[0]))]
    return {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": len(per_op) / statistics.median(sum(p) for p in times),
        "latency_p50_ms": statistics.median(samples) * 1e3,
        "latency_p90_ms": statistics.quantiles(samples, n=10, method="inclusive")[8] * 1e3,
        "latency_geomean_ms": math.exp(statistics.fmean(math.log(t) for t in per_op)) * 1e3,
    }


def layer_metrics(tracer, traced, untraced, speed, gen_ms, detail):
    """Per-layer metrics: mean per traced pass; counts must repeat exactly."""
    edges = [0] + tracer.pass_starts
    per_pass = [spans.layer_totals(tracer.spans, a, b) for a, b in zip(edges, edges[1:])]
    counts = [{k: p[k] for k in LAYER_COUNTS} for p in per_pass]
    detail["counts_per_pass"] = counts
    detail["counts_repeat"] = all(c == counts[0] for c in counts)
    first = per_pass[0]
    metrics = {}
    for name in first:
        if name.endswith("_ms"):
            metrics[name] = statistics.fmean(
                p[name] * speed.scale(q.clock[0][0], q.clock[-1][1])
                for p, q in zip(per_pass, traced))
    metrics.update(counts[0])
    metrics["solvers.recognizers_per_solve"] = (
        first["solvers.recognizer_calls"] / first["solvers.solve_calls"]
        if first["solvers.solve_calls"] else 0.0)
    metrics["generators.gen_ms"] = statistics.median(gen_ms)
    traced_s = statistics.median(sum(p.scaled(speed)) for p in traced)
    untraced_s = statistics.median(sum(p.scaled(speed)) for p in untraced)
    metrics["trace.ops_per_s_ratio"] = untraced_s / traced_s
    units = {k: "ms/pass" if k.endswith("_ms") else "count/pass" for k in metrics}
    units["generators.gen_ms"] = "ms"
    units["solvers.recognizers_per_solve"] = "ratio"
    units["trace.ops_per_s_ratio"] = "ratio"
    return metrics, units


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "megsolve", "__init__.py")):
        print(f"error: no megsolve package under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    if args.workload == "oracle":
        os.environ["MEGSOLVE_ORACLE_LIMIT"] = ORACLE_LIMIT
    else:
        os.environ.pop("MEGSOLVE_ORACLE_LIMIT", None)
    corpus_dir = os.path.join(OUT, f"corpus-{args.workload}-s{args.seed}")
    try:
        return _run(args, corpus_dir)
    finally:
        shutil.rmtree(corpus_dir, ignore_errors=True)


def _run(args, corpus_dir) -> int:
    speed = Speed()
    # Set-up, repeated: fresh import, corpus generation and files, warm-up op.
    setup_raw, setup_s, gen_ms, fingerprints = [], [], [], []
    for _ in range(SETUP_REPS):
        speed.probe(3)
        t0 = perf_counter()
        shutil.rmtree(corpus_dir, ignore_errors=True)
        os.makedirs(corpus_dir)
        mods = import_megsolve()
        lib = SimpleNamespace(**mods)
        corpus = workloads.build(lib, args.workload, args.seed, corpus_dir)
        run_pass(lib.cli.main, corpus.ops[:1], speed)
        t1 = perf_counter()
        speed.probe(3)
        scale = speed.scale(t0, t1)
        setup_raw.append(t1 - t0)
        setup_s.append((t1 - t0) * scale)
        gen_ms.append(corpus.gen_s * scale * 1e3)
        fingerprints.append(corpus.fingerprint)
    ops, main = corpus.ops, lib.cli.main

    budget = args.seconds / 2 if args.trace else args.seconds
    passes = run_phase(main, ops, budget, speed)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    traced, tracer = [], None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install(mods)
        traced = run_phase(tracer.wrap(spans.ROOT, main), ops, budget, speed, tracer)
        tracer.uninstall()

    # Checks, untimed: the first pass in full, every other attempt by equality.
    checker = workloads.Checker(lib)
    first = passes[0].outs
    problems = {}
    decided_num = decided_den = 0
    for op, (rc, out) in zip(ops, first):
        try:
            errs = checker.check(args.workload, op, rc, out)
        except Exception as exc:  # a malformed report must not stop the checks
            errs = [f"check raised {type(exc).__name__}: {exc}"]
        if errs:
            problems[op.key] = errs
        d, t = (0, workloads.decided_units(args.workload)) if errs \
            else workloads.decided(args.workload, out)
        decided_num, decided_den = decided_num + d, decided_den + t
    if args.workload == "oracle":
        megs = {}
        for op, (rc, out) in zip(ops, first):
            if op.key not in problems:
                megs.setdefault(op.entry.key, {})[op.key] = json.loads(out)["result"]["meg"]
        for by_op in megs.values():
            if len(set(by_op.values())) > 1:
                for key in by_op:
                    problems[key] = [f"trusted and raw meg differ: {by_op}"]
    if len(set(fingerprints)) != 1:
        problems["corpus"] = ["set-up repetitions generated different corpora"]
    attempted = failed = 0
    for p in passes + traced:
        for op, got, want in zip(ops, p.outs, first):
            attempted += 1
            if got != want and op.key not in problems:
                problems[op.key] = ["output differs between passes"]
            failed += op.key in problems
    correct = not problems and failed == 0

    report = hashlib.sha256()
    for op, (rc, out) in zip(ops, (traced[0].outs if traced else first)):
        report.update(f"{op.key}\n{rc}\n{out}".encode())
    scaled = [p.scaled(speed) for p in passes]
    raw = [[t1 - t0 for t0, t1 in p.clock] for p in passes]
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "fingerprint": fingerprints[-1], "report_digest": report.hexdigest(),
        "ops": [{"key": op.key, "n": op.entry.n, "m": op.entry.m,
                 "raw_ms": [p[i] * 1e3 for p in raw],
                 "scaled_ms": [p[i] * 1e3 for p in scaled]}
                for i, op in enumerate(ops)],
        "passes_s": [p.wall for p in passes], "problems": problems,
        "probes": len(speed.took), "probe_median_s": statistics.median(speed.took),
    }
    raw_metrics = {}
    if args.trace:
        metrics, units = layer_metrics(tracer, traced, passes, speed, gen_ms, detail)
        tracer.dump(os.path.join(OUT, f"spans-{args.workload}-s{args.seed}.jsonl"))
    else:
        metrics = time_metrics(scaled, setup_s)
        metrics.update({"decided_rate": decided_num / decided_den,
                        "success_rate": 1 - failed / attempted,
                        "peak_rss_mb": rss_mb})
        raw_metrics = time_metrics(raw, setup_raw)
        units = E2E_UNITS
    detail["metrics"], detail["raw_metrics"] = metrics, raw_metrics
    with open(os.path.join(OUT, f"result-{args.workload}-s{args.seed}-t{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"corpus sha256 {fingerprints[-1][:16]}  ops/pass {len(ops)}  "
          f"passes {len(passes)}+{len(traced)}  samples {len(ops) * len(passes)}")
    print(f"  times at the reference speed (perfbench/speed.py); host ran "
          f"{REF_SECONDS / statistics.median(speed.took):.3f}x of it")
    for name, value in metrics.items():
        unscaled = f"  (unscaled {raw_metrics[name]:.4f})" if name in raw_metrics else ""
        print(f"  {name:34s} {value:14.4f} {units[name]}{unscaled}")
    print(f"  {'error_rate':34s} {failed / attempted:14.4f} fraction "
          f"({failed} of {attempted})")
    for key, errs in list(problems.items())[:10]:
        print(f"  FAIL {key}: {'; '.join(errs[:3])}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
