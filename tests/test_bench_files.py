"""Every committed BENCH_<k>.json at the repo root, as written by
tools/bench_pairs.py, holds what a point of the benchmark trajectory needs:
every run's metrics, each side's summaries, and what identifies each side."""

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
