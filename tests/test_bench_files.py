"""Every committed BENCH_<k>.json at the repo root, as written by
tools/bench_pairs.py, holds what a point of the benchmark trajectory needs:
every run's metrics, each side's summaries, and what identifies each side."""

import importlib.util
import json
import pathlib
import statistics

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
SIDES = ("parent", "change")


def _names(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[section]}


def test_the_trajectory_has_a_point():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_keys(path):
    doc = json.loads(path.read_text())
    assert {"cpus", "machine", "python", "system"} <= doc["host"].keys()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["workloads"].keys() == {w["name"] for w in spec["workloads"]}
    end_to_end, per_layer = _names("end_to_end"), _names("per_layer")
    for workload, entry in doc["workloads"].items():
        assert isinstance(entry["seed"], int), workload
        assert entry["seconds"] == spec["run_seconds"], workload
        assert entry["pairs"] >= 1 and entry["layer_pairs"] >= 0
        runs = entry["runs"]
        for run in runs:
            assert run["side"] in SIDES and run["trace"] in (0, 1)
            assert run["correct"] is True, (workload, run["pair"])
            names = end_to_end if run["trace"] == 0 else per_layer
            assert names <= run["metrics"].keys(), (workload, run["pair"])
        for side in SIDES:
            got = entry["sides"][side]
            assert {"commit", "dirty", "src_sha256", "fingerprint",
                    "report_digest", "consistent"} <= got.keys()
            mine = [r for r in runs if r["side"] == side]
            assert sum(r["trace"] == 0 for r in mine) == entry["pairs"]
            assert sum(r["trace"] == 1 for r in mine) == entry["layer_pairs"]
            assert got["consistent"] is True
            assert {r["fingerprint"] for r in mine} == {got["fingerprint"]}
            assert {r["report_digest"] for r in mine} == {got["report_digest"]}
            for section, trace, names in (("end_to_end", 0, end_to_end),
                                          ("per_layer", 1, per_layer)):
                if trace == 1 and not entry["layer_pairs"]:
                    assert got[section] == {}
                    continue
                assert names <= got[section].keys(), (workload, side)
                for name, summary in got[section].items():
                    values = [r["metrics"][name] for r in mine
                              if r["trace"] == trace]
                    assert summary["median"] == statistics.median(values)
                    assert (min(values) <= summary["q1"] <= summary["median"]
                            <= summary["q3"] <= max(values))


def _bench_pairs():
    path = ROOT / "tools" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verdict_table_on_synthetic_runs():
    # Ten pairs of one workload. The change wins ops_per_s in nine (pair 3
    # loses), ties latency_p50_ms in every pair, and raises peak_rss_mb by
    # 15% against its 0.1 bound; setup_s wins in all ten by a hair. The
    # parent's latency_p90_ms and latency_geomean_ms runs spread over
    # 2.0-2.9, 37% of their median: p90 is unresolved, since the change's
    # 2.2 is not better than every parent run, and geomean is not, since
    # its 1.5 is.
    bench_pairs = _bench_pairs()
    spec = {"end_to_end": [
        {"name": "ops_per_s", "better": "higher", "bound": 0.25},
        {"name": "latency_p50_ms", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
        {"name": "setup_s", "better": "lower", "bound": 0.25},
        {"name": "latency_p90_ms", "better": "lower", "bound": 0.25},
        {"name": "latency_geomean_ms", "better": "lower", "bound": 0.25}]}
    runs = []
    for pair in range(10):
        runs.append({"pair": pair, "side": "parent", "trace": 0, "metrics": {
            "ops_per_s": 100.0 + pair, "latency_p50_ms": 2.0,
            "peak_rss_mb": 20.0, "setup_s": 0.5,
            "latency_p90_ms": 2.0 + pair / 10,
            "latency_geomean_ms": 2.0 + pair / 10}})
        runs.append({"pair": pair, "side": "change", "trace": 0, "metrics": {
            "ops_per_s": 90.0 if pair == 3 else 120.0 + pair,
            "latency_p50_ms": 2.0, "peak_rss_mb": 23.0, "setup_s": 0.499,
            "latency_p90_ms": 2.2, "latency_geomean_ms": 1.5}})
    # A traced pair is not an end-to-end sample and counts for neither.
    for side in SIDES:
        runs.append({"pair": 10, "side": side, "trace": 1, "metrics": {}})
    sides = {side: {"end_to_end": bench_pairs.summarize(
        [r for r in runs if r["side"] == side and r["trace"] == 0]),
        "fingerprint": "f", "report_digest": side}
        for side in SIDES}
    doc = {"workloads": {"oracle": {"sides": sides, "runs": runs}}}
    lines = bench_pairs.verdict_table(doc, spec).splitlines()
    assert lines[0].split() == ["workload", "metric", "parent", "change",
                                "parent_iqr", "spread", "wins", "over_bound",
                                "unresolved"]
    rows = {cols[1]: cols for cols in map(str.split, lines[1:-1])}
    assert list(rows) == [m["name"] for m in spec["end_to_end"]]
    assert rows["ops_per_s"] == ["oracle", "ops_per_s", "104.5000",
                                 "124.5000", "4.5000", "0.0861", "9/10", "no",
                                 "no"]
    assert rows["latency_p50_ms"][2:] == ["2.0000", "2.0000", "0.0000",
                                          "0.0000", "0/10", "no", "no"]
    assert rows["peak_rss_mb"][2:] == ["20.0000", "23.0000", "0.0000",
                                       "0.0000", "0/10", "yes", "no"]
    assert rows["setup_s"][6:] == ["10/10", "no", "no"]
    assert rows["latency_p90_ms"][2:] == ["2.4500", "2.2000", "0.4500",
                                          "0.3673", "7/10", "no", "yes"]
    assert rows["latency_geomean_ms"][5:] == ["0.3673", "10/10", "no", "no"]
    # The sides share the fingerprint and differ in report digest.
    assert lines[-1].split() == ["oracle", "fingerprints", "equal,",
                                 "report", "digests", "differ"]
