"""The committed report battery (tests/battery.py) still holds: every
command form gives the recorded exit code and output on every input."""

import pathlib

from megsolve import cli

import battery

DATA = pathlib.Path(__file__).resolve().parent / "data" / "battery.tsv"


def test_report_battery(tmp_path, monkeypatch):
    # Every form reads graph.edges from the working directory, so the
    # report's input.path is the same relative path on every run.
    monkeypatch.delenv(cli.ORACLE_LIMIT_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    got = battery.table().splitlines()
    want = DATA.read_text().splitlines()
    changed = [(w, g) for w, g in zip(want, got) if w != g]
    assert changed == [] and len(got) == len(want)
