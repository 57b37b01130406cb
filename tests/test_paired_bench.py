"""The summary of scripts/paired_bench.py on synthetic samples, and its
check that both checkouts run the same benchmark code; no benchmark run is
started."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "paired_bench.py"
spec = importlib.util.spec_from_file_location("paired_bench", SCRIPT)
paired_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(paired_bench)

METRICS = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
           {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05}]


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
    metrics = [{"name": "wall_s", "unit": "s", "better": "higher", "bound": 0.25}]
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
    assert lines[0].endswith("| failed | verdict |")
    assert lines[2] == ("| avg_linear | wall_s | 0.250 [0.225, 0.275] "
                        "| 0.240 [0.220, 0.260] | -4.0 % | 1/2 | 0 | no regression |")
    assert lines[3].endswith("| -3.4 % | 2/2 | 0 | gain |")
    [none] = paired_bench.summarize(METRICS[:1], [None], [None])
    assert paired_bench.table("avg_linear", [none]).endswith("| 0/0 | 2 | - |")


TEN = [1.0, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]


@pytest.mark.parametrize("change, verdict", [
    # 10/10 pairs lower, medians 0.2 apart against a parent IQR of 0.045
    ([v - 0.2 for v in TEN], "gain"),
    # 9/10 pairs lower suffices
    ([v - 0.2 for v in TEN[:9]] + [2.0], "gain"),
    # 8/10 pairs lower: too few for a gain, and within the bound
    ([v - 0.2 for v in TEN[:8]] + [2.0, 2.0], "no regression"),
    # lower in every pair, but by less than the parent's IQR
    ([v - 0.01 for v in TEN], "no regression"),
    # the median 30 % worse against a 25 % bound
    ([1.3 * v for v in TEN], "regression"),
    # 20 % worse: inside the bound
    ([1.2 * v for v in TEN], "no regression"),
])
def test_verdict_on_a_narrow_parent(change, verdict):
    [row] = paired_bench.summarize(METRICS[:1], runs(TEN, TEN), runs(change, TEN))
    assert row["verdict"] == verdict


def test_verdict_on_a_parent_wider_than_the_bound():
    parent = runs([0.5, 1.0, 1.5, 2.0, 2.5], [0] * 5)  # IQR 1.0 against median 1.5
    [row] = paired_bench.summarize(METRICS[:1], parent, runs([1.4] * 5, [0] * 5))
    assert row["verdict"] == "unresolved"
    # a regression is named before the spread is
    [row] = paired_bench.summarize(METRICS[:1], parent, runs([2.0] * 5, [0] * 5))
    assert row["verdict"] == "regression"
    # every change run better than every parent run resolves the spread;
    # a gap of 0.5 against the IQR of 1.0 is no gain
    parent = runs([1.0, 1.0, 1.5, 2.0, 2.0], [0] * 5)
    [row] = paired_bench.summarize(METRICS[:1], parent, runs([0.9] * 5, [0] * 5))
    assert row["verdict"] == "no regression"


SPEC = {"workloads": [{"name": "es_table1"}, {"name": "avg_linear"},
                      {"name": "mfde_tanh"}]}


def test_workloads_default_to_every_one_of_the_spec():
    assert paired_bench.workload_names(SPEC, None) == ["es_table1", "avg_linear",
                                                       "mfde_tanh"]
    assert paired_bench.workload_names(SPEC, "mfde_tanh") == ["mfde_tanh"]


def test_one_table_holds_every_workload():
    a = paired_bench.summarize(METRICS, runs([0.2, 0.3], [32.76, 32.8]),
                               runs([0.2, 0.28], [31.64, 31.7]))
    b = paired_bench.summarize(METRICS[:1], runs([1.0], [0]), [None])
    lines = paired_bench.tables([("avg_linear", a), ("mfde_tanh", b)]).splitlines()
    assert lines[:2] == paired_bench.table("avg_linear", a).splitlines()[:2]
    assert len(lines) == 2 + 3
    assert [line.split(" | ")[0:2] for line in lines[2:]] == [
        ["| avg_linear", "wall_s"], ["| avg_linear", "peak_rss_mb"],
        ["| mfde_tanh", "wall_s"]]
    assert lines[2:4] == paired_bench.table("avg_linear", a).splitlines()[2:]
    assert lines[4].endswith("| 0/0 | 1 | - |")


def test_main_runs_each_workload_in_turn_and_fails_on_a_failed_run(
        tmp_path, monkeypatch, capsys):
    spec = {**SPEC, "end_to_end": METRICS[:1], "command": [], "run_seconds": 1,
            "paths": ["perfbench"]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    calls = []

    def fake_run(checkout, spec, workload, args):
        calls.append(workload)
        return None if workload == "avg_linear" and len(calls) == 3 else {"wall_s": 1.0}

    monkeypatch.setattr(paired_bench, "run_once", fake_run)
    argv = ["--parent", str(tmp_path), "--change", str(tmp_path), "--pairs", "1"]
    assert paired_bench.main(argv) == 1
    assert calls == ["es_table1"] * 2 + ["avg_linear"] * 2 + ["mfde_tanh"] * 2
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [r.split(" | ")[0] for r in rows] == ["| es_table1", "| avg_linear",
                                                 "| mfde_tanh"]
    assert [r.split(" | ")[-2] for r in rows] == ["0", "1", "0"]
    calls.clear()
    assert paired_bench.main(argv + ["--workload", "mfde_tanh"]) == 0
    assert calls == ["mfde_tanh"] * 2


def _checkout(root: Path, files: dict) -> Path:
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


PATHS = ["perfbench", "bench.cfg"]
BENCH = {"BENCHMARK.json": json.dumps({"paths": PATHS}),
         "perfbench/run.py": "run", "perfbench/sub/w.py": "w",
         "bench.cfg": "cfg", "src/m.py": "m"}


@pytest.mark.parametrize("edit, differ", [
    ({}, []),
    ({"src/m.py": "changed", "perfbench/__pycache__/run.pyc": "x",
      "perfbench/sub/__pycache__/w.pyc": "y"}, []),
    ({"perfbench/run.py": "changed"}, ["perfbench/run.py"]),
    ({"perfbench/sub/new.py": "n"}, ["perfbench/sub/new.py"]),
    ({"bench.cfg": "changed"}, ["bench.cfg"]),
])
def test_benchmark_differences_between_checkouts(tmp_path, edit, differ):
    parent = _checkout(tmp_path / "parent", BENCH)
    change = _checkout(tmp_path / "change", {**BENCH, **edit})
    assert paired_bench.benchmark_differences(parent, change, PATHS) == differ
    # with the sides swapped, a file that only the parent has
    assert paired_bench.benchmark_differences(change, parent, PATHS) == differ


def test_main_refuses_a_pair_with_different_benchmarks(tmp_path, monkeypatch,
                                                         capsys):
    parent = _checkout(tmp_path / "parent", BENCH)
    change = _checkout(tmp_path / "change", {**BENCH, "perfbench/run.py": "other"})
    monkeypatch.setattr(paired_bench, "run_once",
                        lambda *a: pytest.fail("a run started"))
    assert paired_bench.main(["--parent", str(parent), "--change", str(change)]) == 2
    assert "perfbench/run.py" in capsys.readouterr().err
