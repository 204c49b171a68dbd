"""Self-check of the benchmark, and the stage baselines it reproduces.

    python3 perfbench/selfcheck.py [--seed 7]

For every workload it runs ``run.py`` three times with one seed for
``SECONDS`` each: traced, traced again, and untraced. It fails (exit 1) unless

- all three runs report ``correct`` and generate the same corpus;
- the two traced runs count exactly the same work per pass
  (graph_core.bfs_calls, oracle.subsets_explored,
  recognizers.unknown_verdicts, solvers.bounds_only, ...);
- the traced and untraced runs capture byte-identical reports (equal
  digests over every op's exit code and stdout).

It then prints, from the traced spans, the ROADMAP item 1 stage baselines
that the workloads cover.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("solve", "oracle", "verify", "recognize")
SECONDS = 2  # one pass at least; enough for the counts and the digests


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(OUT, f"result-{workload}-s{seed}-t{trace}.json"),
              encoding="utf-8") as fh:
        detail = json.load(fh)
    detail["correct"] = final["correct"]
    return detail


def load_spans(workload: str, seed: int) -> list[dict]:
    with open(os.path.join(OUT, f"spans-{workload}-s{seed}.jsonl"),
              encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def op_stages(spans: list[dict], ops: list[dict], key: str) -> dict:
    """Inclusive ms per span name within the first traced attempt of ``key``."""
    index = next(i for i, op in enumerate(ops) if op["key"] == key)
    stages: dict = {}
    for s in spans:
        if s["op"] == index:
            stages[s["name"]] = stages.get(s["name"], 0.0) + s["end_ms"] - s["start_ms"]
    return stages


def baselines(seed: int, details: dict) -> list[str]:
    ops = details["solve"]["ops"]
    st = op_stages(load_spans("solve", seed), ops, "p4sparse-n60-r1")
    lines = [
        f"solve p4sparse-n60-r1: recognize_p4_sparse {st.get('recognizers.p4', 0):.0f} ms "
        f"of a {st['cli.main']:.0f} ms op ({st.get('recognizers.p4', 0) / st['cli.main']:.0%}); "
        "ROADMAP: 291 ms of a 280 ms solve"]
    ops = details["recognize"]["ops"]
    spans = load_spans("recognize", seed)
    for key in ("cycle-n12", "random-n12", "p4sparse-join-n12", "cycle-n10"):
        st = op_stages(spans, ops, key)
        lines.append(
            f"recognize {key}: detect_spider {st.get('recognizers.spider', 0):.0f} ms, "
            f"bipartite permutation {st.get('recognizers.bp', 0):.0f} ms "
            f"of a {st['cli.main']:.0f} ms op")
    lines.append("ROADMAP: detect_spider on C12 takes 1.1 s, all in the 3^n "
                 "fallback; earlier: C10 takes 0.45 s to reach bipartite-permutation 'no'")
    ops = details["verify"]["ops"]
    st = op_stages(load_spans("verify", seed), ops, "p4sparse-n60-r0:accepted")
    n60 = next(op for op in ops if op["key"] == "p4sparse-n60-r0:accepted")
    lines.append(
        f"verify p4sparse-n60-r0 accepted (m={n60['m']}): is_meg_set "
        f"{st.get('monitoring.is_meg_set', 0):.0f} ms; ROADMAP: is_meg_set(G, V) "
        "2.6 s at n=60, m=1553 (not the same set or graph)")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=7)
    args = p.parse_args(argv)
    failures = []
    details = {}
    for workload in WORKLOADS:
        traced = run(workload, args.seed, 1)
        counts_a = traced["counts_per_pass"][0]
        again = run(workload, args.seed, 1)
        untraced = run(workload, args.seed, 0)
        counts_b = again["counts_per_pass"][0]
        runs = (traced, again, untraced)
        checks = {
            "correct": all(r["correct"] for r in runs),
            "same corpus": len({r["fingerprint"] for r in runs}) == 1,
            "counts repeat across runs": counts_a == counts_b,
            "counts repeat across passes": traced["counts_repeat"] and again["counts_repeat"],
            "traced report == untraced report":
                len({r["report_digest"] for r in runs}) == 1,
        }
        for name, ok in checks.items():
            print(f"{workload:9s} {'ok  ' if ok else 'FAIL'} {name}")
            if not ok:
                failures.append(f"{workload}: {name}")
        print(f"{workload:9s}      counts {json.dumps(counts_a)}")
        print(f"{workload:9s}      corpus sha256 {traced['fingerprint']} (seed {args.seed})")
        # The spans file is rewritten by every traced run; keep the second.
        details[workload] = again
    for line in baselines(args.seed, details):
        print(line)
    if failures:
        print("self-check failed: " + "; ".join(failures))
        return 1
    print("self-check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
