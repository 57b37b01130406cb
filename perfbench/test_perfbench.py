"""Tests of the benchmark itself, on the reduced-size workloads.

    python3 -m pytest perfbench

They start run.py the way the benchmark is run, with --small.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import COUNT_METRICS, LAYER_METRICS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SOLVER_LAYERS = {"stieltjes", "phase_space", "mfde", "cli", "trace"}
# the metric-name prefixes (layers) each workload runs
LAYERS_RUN = {
    "es_table1": {"esc", "cli", "trace"},
    "avg_linear": SOLVER_LAYERS | {"averaging"},
    "mfde_tanh": SOLVER_LAYERS,
    "mfde_impulse": SOLVER_LAYERS,
}
# run by the layer but not on this workload's call path
SKIPPED = {"avg_linear": {"mfde.residual.s"}}


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
                           "--seconds", "0", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    """Two traced reduced-size runs per workload."""
    return {w: [result(bench("--workload", w, "--small", "--trace", "1"))
                for _ in range(2)]
            for w in workloads.NAMES}


def test_spec_lists_the_tracer_metrics():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(LAYER_METRICS)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_every_layer_metric_is_emitted(traced, workload):
    res = traced[workload][0]
    assert res["correct"] and res["failed"] == 0 and res["attempted"] == 2
    assert {k: v["unit"] for k, v in res["metrics"].items()} == dict(LAYER_METRICS)
    for name, m in res["metrics"].items():
        layer = name.split(".", 1)[0]
        if (layer in LAYERS_RUN[workload] and name != "trace.overhead_frac"
                and name not in SKIPPED.get(workload, ())):
            assert m["value"] > 0, name
        elif layer not in LAYERS_RUN[workload]:
            assert m["value"] == 0, name


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_count_metrics_repeat_exactly(traced, workload):
    first, second = traced[workload]
    for name in COUNT_METRICS:
        assert first["metrics"][name] == second["metrics"][name], name


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_perturbed_output_is_a_failed_run(workload):
    res = result(bench("--workload", workload, "--small", "--perturb"))
    assert not res["correct"]
    assert res["failed"] == res["attempted"] == 1


def test_plain_run_reports_end_to_end_metrics():
    res = result(bench("--workload", "mfde_tanh", "--small"))
    assert res["correct"] and res["failed"] == 0
    assert [(k, v["unit"]) for k, v in res["metrics"].items()] == \
        [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "mfde_tanh", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_impulse_train_is_drawn_from_the_seed():
    train = workloads.impulse_train(7, 2.0)
    assert train == workloads.impulse_train(7, 2.0)
    assert train != workloads.impulse_train(8, 2.0)
    pairs = [tuple(map(float, p.split(":"))) for p in train.split(",")]
    assert len(pairs) == 19
    for k, (t, m) in enumerate(pairs, start=1):
        assert abs(t - 0.1 * k) <= 0.02 and 0.02 <= m <= 0.06
