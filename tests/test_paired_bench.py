"""The summary of scripts/paired_bench.py on synthetic samples; no
benchmark run is started."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "paired_bench.py"
spec = importlib.util.spec_from_file_location("paired_bench", SCRIPT)
paired_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(paired_bench)

METRICS = [{"name": "wall_s", "unit": "s", "better": "lower"},
           {"name": "peak_rss_mb", "unit": "MB", "better": "lower"}]


def runs(walls, rss):
    return [{"wall_s": w, "peak_rss_mb": r} for w, r in zip(walls, rss)]


def test_summary_medians_quartiles_and_pair_counts():
    parent = runs([1.0, 2.0, 3.0, 4.0, 5.0], [32.8, 32.7, 32.9, 32.7, 32.8])
    change = runs([1.5, 2.0, 2.0, 5.0, 4.0], [31.6, 31.7, 31.6, 31.8, 31.6])
    wall, rss = paired_bench.summarize(METRICS, parent, change)
    assert wall["parent"] == (2.0, 3.0, 4.0)
    assert wall["change"] == (2.0, 2.0, 4.0)
    assert wall["ratio"] == pytest.approx(2.0 / 3.0)
    # pair 2 is a tie, which counts for neither side
    assert (wall["better"], wall["pairs"], wall["failed"]) == (2, 5, 0)
    assert rss["better"] == 5 and rss["change"][1] == 31.6


def test_summary_counts_higher_as_better_when_declared():
    metrics = [{"name": "wall_s", "unit": "s", "better": "higher"}]
    [row] = paired_bench.summarize(metrics, runs([1.0, 2.0], [0, 0]),
                                   runs([1.5, 1.0], [0, 0]))
    assert row["better"] == 1


def test_failed_runs_leave_the_medians_and_the_pair_count():
    parent = runs([1.0, 2.0, 3.0], [30.0, 30.0, 30.0])
    change = [None] + runs([0.5, 0.5], [29.0, 29.0])
    wall, _ = paired_bench.summarize(METRICS, parent, change)
    assert wall["failed"] == 1 and wall["pairs"] == 2 and wall["better"] == 2
    assert wall["parent"][1] == 2.0 and wall["change"] == (0.5, 0.5, 0.5)
    [none] = paired_bench.summarize(METRICS[:1], [None], [None])
    assert none["parent"] is None and none["ratio"] is None and none["failed"] == 2


def test_table_rows_follow_the_changes_format():
    rows = paired_bench.summarize(METRICS, runs([0.2, 0.3], [32.76, 32.8]),
                                  runs([0.2, 0.28], [31.64, 31.7]))
    lines = paired_bench.table("avg_linear", rows).splitlines()
    assert lines[0].startswith("| workload | metric | parent | change |")
    assert lines[2] == ("| avg_linear | wall_s | 0.250 [0.225, 0.275] "
                        "| 0.240 [0.220, 0.260] | -4.0 % | 1/2 | 0 |")
    assert lines[3].endswith("| -3.4 % | 2/2 | 0 |")
