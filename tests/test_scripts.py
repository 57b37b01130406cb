"""Smoke runs of the experiment scripts, which sit on the public API, and
the comparison of scripts/same_outputs.py on temp trees.

scripts/run_table1.py is left out: it makes two 200 s extremum-seeking runs.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, args", [
    ("run_tanh_example", (["0.5:0.4"],)),
    ("run_averaging_orders", ()),
])
def test_script_runs(name, args, capsys):
    assert _load(name).run(*args) == 0
    assert capsys.readouterr().out


# -- scripts/same_outputs.py, without running either checkout ------------------

same_outputs = _load("same_outputs")


def _tree(root: Path, files: dict) -> Path:
    for name, data in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_bytes(data)
    return root


def test_same_outputs_compares_every_file_byte_for_byte(tmp_path):
    base = {"run_trace.csv": b"t,x\n0,1\n", "stdout": b"done\n", "sub/a": b"1"}
    parent = _tree(tmp_path / "p", base)
    change = _tree(tmp_path / "c", base)
    assert same_outputs.compare_trees(parent, change) == (sorted(base), [])
    _tree(change, {"run_trace.csv": b"t,x\n0,1.0\n", "extra": b""})
    _tree(parent, {"sub/gone": b"x"})
    same, differ = same_outputs.compare_trees(parent, change)
    assert same == ["stdout", "sub/a"]
    assert differ == ["only in change: extra", "differs: run_trace.csv",
                      "only in parent: sub/gone"]


@pytest.mark.parametrize("stdout, code", [(b"same", 0), (b"moved", 1)])
def test_same_outputs_exits_1_on_any_difference(stdout, code, tmp_path,
                                                monkeypatch, capsys):
    def fake_run(checkout, argv, workdir):
        workdir.mkdir(parents=True)
        (workdir / "stdout").write_bytes(stdout if checkout.name == "c" else b"same")

    monkeypatch.setattr(same_outputs, "run_invocation", fake_run)
    for side in ("p", "c"):
        (tmp_path / side / "src" / "measurefde").mkdir(parents=True)
    argv = ["--parent", str(tmp_path / "p"), "--change", str(tmp_path / "c"),
            "--work", str(tmp_path / "work")]
    assert same_outputs.main(argv) == code
    out = capsys.readouterr().out
    assert out.endswith("all outputs identical\n" if code == 0 else
                        f"{len(same_outputs.INVOCATIONS)} differences\n")


def test_same_outputs_refuses_a_directory_without_the_package(tmp_path, capsys):
    (tmp_path / "p" / "src" / "measurefde").mkdir(parents=True)
    with pytest.raises(SystemExit) as exc:
        same_outputs.main(["--parent", str(tmp_path / "p"), "--change", str(tmp_path)])
    assert exc.value.code == 2 and "holds no src/measurefde" in capsys.readouterr().err


def test_same_outputs_runs_the_benchmark_workloads():
    spec = importlib.util.spec_from_file_location(
        "workloads", SCRIPTS.parent / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert same_outputs.IMPULSE_TRAIN == workloads.impulse_train(0, 2.0)
    for name in workloads.NAMES:
        assert same_outputs.INVOCATIONS[name] == workloads.cli_args(name, 0, False, "run")
