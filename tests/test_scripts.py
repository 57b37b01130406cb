"""Smoke runs of the experiment scripts, which sit on the public API.

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
