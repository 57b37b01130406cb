import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import measurefde
from measurefde import averaging, cli, esc, mfde, stieltjes
from measurefde.cli import (CSV_BLOCK_ROWS, _es_params, _write_csv, main,
                            parse_args)


def test_parse_defaults_filled():
    cfg = parse_args(["integrate"])
    assert cfg.subcommand == "integrate"
    assert cfg.params["f"] == "one"
    assert cfg.params["mesh"] == pytest.approx(0.01)


def test_parse_eps_list():
    cfg = parse_args(["avg", "--eps", "0.2,0.1"])
    assert cfg.params["eps"] == "0.2,0.1"


def test_parse_preset_block():
    cfg = parse_args(["es", "--preset", "table1"])
    assert cfg.params["preset"] == "table1"
    p = _es_params(cfg)
    assert (p.k_gain, p.c, p.a, p.omega) == (0.2, 2.0, 0.2, 8.0)
    assert (p.theta_star, p.y_star, p.hessian) == (8.0, 64.0, -1.0)
    assert float(p.delay_fn(8.0)) == pytest.approx(0.5 * np.sin(40.0) ** 2)


def test_empty_argv_is_usage_error(capsys):
    assert main([]) == 2
    assert not capsys.readouterr().out


def test_unknown_flag_is_usage_error():
    assert main(["es", "--bogus", "1"]) == 2


@pytest.mark.parametrize("argv", [
    ["integrate", "--mesh", "0"],
    ["integrate", "--levels", "0"],
    ["mfde", "--sigma", "0"],
    ["mfde", "--tol", "0"],
    ["mfde", "--jumps", "0.05:-1"],
    ["mfde", "--step", "0"],
    ["mfde", "--step", "-1"],
    ["mfde", "--sigma", "0.1", "--step", "5e-324"],   # sigma / step overflows
    ["mfde", "--sigma", "0.1", "--step", "1e-300"],   # too many mesh cells
    ["avg", "--L", "0"],
    ["avg", "--eps0", "0"],
    ["es", "--dt", "0", "--t-end", "1"],
    ["integrate", "--to", "nan"],
    ["mfde", "--sigma", "nan"],
    ["avg", "--L", "nan"],
    ["es", "--t-end", "nan"],
    ["es", "--k", "nan", "--t-end", "1"],
    ["es", "--c", "inf", "--t-end", "1"],
    ["es", "--a", "nan", "--t-end", "1"],
    ["es", "--omega", "nan", "--t-end", "1"],
    ["es", "--theta-star", "nan", "--t-end", "1"],
    ["es", "--y-star", "nan", "--t-end", "1"],
    ["es", "--hessian", "nan", "--t-end", "1"],
    ["es", "--theta-hat0", "nan", "--t-end", "1"],
    ["es", "--washout", "nan", "--t-end", "1"],
    ["es", "--tail-start", "nan", "--t-end", "1"],
    ["es", "--delay", "const:nan", "--t-end", "1"],
    ["mfde", "--tol", "inf"],
    ["mfde", "--t0", "nan"],
    ["mfde", "--t0", "inf"],
    ["mfde", "--step", "inf"],
    ["mfde", "--jumps", "nan:0.1", "--sigma", "1"],
    ["mfde", "--jumps", "0.5:nan", "--sigma", "1"],
    ["mfde", "--jumps", "0.5:inf", "--sigma", "1"],
    ["avg", "--eps", "0.1,0.1"],
    ["avg", "--L", "inf"],
    ["avg", "--eps0", "inf"],
    ["avg", "--phi0", "nan"],
    ["avg", "--a0", "inf"],
    ["avg", "--b0", "nan"],
    ["avg", "--case", "sine", "--phi0", "inf"],
    ["es", "--omega", "0", "--t-end", "1"],
    ["es", "--omega", "-8", "--t-end", "1"],
    ["es", "--washout", "-1", "--t-end", "1"],
    ["integrate", "--levels", "2.5"],
    ["integrate", "--levels", "0.5"],
    ["es", "--pde-grid", "2.5", "--t-end", "1"],
    ["es", "--preset", "table1", "--t-end", "1", "--pde-grid", "-3"],
    ["es", "--predictor", "maybe", "--t-end", "1"],
    ["es", "--preset", "tablex", "--t-end", "1"],
    ["es", "--delay", "const:abc", "--t-end", "1"],
    ["mfde", "--jumps", "0.5", "--sigma", "1"],
    ["mfde", "--jumps", "0.5:0.1:2", "--sigma", "1"],
    ["avg", "--eps", ","],
    ["avg", "--eps", "0.1,abc"],
    ["mfde", "--sigma", "abc"],
    ["mfde", "--config", "no_such_file.ini"],
    ["mfde", "--config", os.devnull],
    ["avg", "--eps", "0.3"],
    ["avg", "--eps", "0.1,0"],
    ["es", "--delay", "cubic", "--t-end", "1"],
], ids=" ".join)
def test_bad_argument_is_usage_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv + ([] if argv[0] == "integrate" else ["--out", "x"])) == 2
    out, err = capsys.readouterr()
    assert err.startswith("usage error") and not out
    assert not list(tmp_path.iterdir())             # nothing written on exit 2


def test_seed_key_is_not_accepted(tmp_path, monkeypatch, capsys):
    # no run read the seed key; a summary that still carries it is refused
    monkeypatch.chdir(tmp_path)
    Path("old_summary.txt").write_text("[mfde]\nsigma = 0.3\nseed = 0\n")
    assert main(["mfde", "--config", "old_summary.txt", "--out", "x"]) == 2
    assert main(["mfde", "--seed", "0", "--out", "x"]) == 2
    assert [f.name for f in tmp_path.iterdir()] == ["old_summary.txt"]


def test_malformed_config_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("bad.ini").write_text("[mfde]\nsigma 0.3\n")
    Path("twice.ini").write_text("[mfde]\nsigma = 0.3\nsigma = 0.4\n")
    for name in ("bad.ini", "twice.ini"):
        assert main(["mfde", "--config", name, "--out", "x"]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("usage error") and name in err and not out
    assert sorted(f.name for f in tmp_path.iterdir()) == ["bad.ini", "twice.ini"]


@pytest.mark.parametrize("error", [
    mfde.ConvergenceError("no convergence", 1e-3),
    mfde.HypothesisViolationError("delay ahead"),
    averaging.AvgConditionError("aperiodic"),
    esc.AssumptionViolationError("no bracket"),
    stieltjes.IntegrandError("nan sample"),
    stieltjes.IntegratorDomainError("nan density"),
], ids=lambda e: type(e).__name__)
def test_typed_numerical_error_is_exit_1(error, monkeypatch, capsys):
    def fails(cfg):
        raise error

    monkeypatch.setitem(cli.RUNNERS, "integrate", fails)
    assert main(["integrate"]) == 1
    out, err = capsys.readouterr()
    assert err == f"error: {error}\n" and not out


def test_integrate_prints_value_and_ladder(capsys):
    code = main(["integrate", "--f", "t2", "--density", "zero",
                 "--jumps", "0.5:1", "--from", "0", "--to", "1"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert out[0] == "value,0.25"
    assert out[1] == "level,approximation,abs_delta"
    assert all(line.split(",")[1] == "0.25" for line in out[2:])


def test_integrate_over_a_point_prints_zeros(capsys):
    code = main(["integrate", "--jumps", "1:2", "--from", "1", "--to", "1",
                 "--levels", "3"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out == ["value,0", "level,approximation,abs_delta",
                   "0,0,0", "1,0,0", "2,0,0"]


def test_mfde_writes_outputs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(["mfde", "--example", "tanh", "--sigma", "0.3",
                 "--step", "0.01", "--out", "run"])
    assert code == 0
    data = np.genfromtxt("run_trajectory.csv", delimiter=",", names=True)
    assert {"t", "value_0", "post_jump_value_0"} <= set(data.dtype.names)
    summary = Path("run_summary.txt").read_text()
    assert "[mfde]" in summary and "residual" in summary


def test_avg_writes_report_and_roundtrips(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["avg", "--case", "linear", "--eps", "0.2,0.1",
                 "--L", "0.5", "--out", "first"]) == 0
    data = np.genfromtxt("first_report.csv", delimiter=",", names=True)
    assert set(data.dtype.names) == {"eps", "sup_error", "J_times_eps",
                                     "pass_", "slope"} \
        or set(data.dtype.names) == {"eps", "sup_error", "J_times_eps",
                                     "pass", "slope"}
    assert main(["avg", "--config", "first_summary.txt", "--out", "second"]) == 0
    assert Path("first_report.csv").read_bytes() \
        == Path("second_report.csv").read_bytes()


def test_es_writes_trace_pde_and_summary(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(["es", "--preset", "table1", "--t-end", "2",
                 "--pde-grid", "5", "--out", "es1"])
    assert code == 0
    header = Path("es1_trace.csv").read_text().splitlines()[0]
    assert header == "t,theta,theta_hat,y,G,H_hat,U,Gamma,phi,sigma,feas_margin"
    pde_header = Path("es1_pde.csv").read_text().splitlines()[0]
    assert pde_header == "t,x,alpha"
    assert "[es]" in Path("es1_summary.txt").read_text()


def test_write_csv_matches_per_value_formatter(tmp_path):
    # more than two blocks, the last one partial
    n = 2 * CSV_BLOCK_ROWS + 37
    special = np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324, 0.1, 1e300])
    columns = (np.arange(n) * 1e-3, np.resize(special, n),
               np.resize(special[::-1], n),
               np.random.default_rng(0).standard_normal(n) * 1e5)
    path = tmp_path / "out.csv"
    _write_csv(str(path), "a,b,c,d", columns)
    expected = "a,b,c,d\n" + "".join(
        ",".join(f"{v:.17g}" for v in row) + "\n"
        for row in np.column_stack(columns))
    assert path.read_bytes() == expected.encode()


def test_es_roundtrip_bit_identical(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["es", "--preset", "table1", "--t-end", "1.5",
                 "--pde-grid", "0", "--out", "a"]) == 0
    assert main(["es", "--config", "a_summary.txt", "--out", "b"]) == 0
    assert Path("a_trace.csv").read_bytes() == Path("b_trace.csv").read_bytes()
    assert not Path("a_pde.csv").exists()           # pde_grid = 0: no view


def test_es_feasibility_maps_to_exit_one(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(["es", "--preset", "table1", "--t-end", "20",
                 "--theta-hat0", "0", "--pde-grid", "0", "--out", "fail"])
    assert code == 1
    assert Path("fail_trace.csv").exists()          # partial outputs flushed
    assert "feasibility" in Path("fail_summary.txt").read_text()


def test_avg_case_config_path_is_usage_error(tmp_path, monkeypatch, capsys):
    # a case read from another file would leave the summary describing a
    # different run; --config is the way to load values from a file
    monkeypatch.chdir(tmp_path)
    Path("c.ini").write_text("[avg]\ncase = sine\nL = 0.5\n")
    code = main(["avg", "--case", "config:c.ini", "--out", "x"])
    assert code == 2
    assert capsys.readouterr().err.startswith("usage error")
    assert not list(tmp_path.glob("x_*"))           # nothing written on exit 2


def test_unknown_config_key_rejected(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("bad.cfg").write_text("[avg]\nnonsense = 1\n")
    code = main(["avg", "--config", "bad.cfg", "--out", "x"])
    assert code == 2
    assert not list(tmp_path.glob("x_*"))           # nothing written on exit 2


@pytest.mark.parametrize("line", ["predictor = maybe", "preset = tablex"])
def test_bad_config_value_is_usage_error(line, tmp_path, monkeypatch, capsys):
    # config-file values meet the checks that flags meet
    monkeypatch.chdir(tmp_path)
    Path("bad.cfg").write_text(f"[es]\nt_end = 1\n{line}\n")
    assert main(["es", "--config", "bad.cfg", "--out", "x"]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("usage error") and not out
    assert not list(tmp_path.glob("x_*"))           # nothing written on exit 2


def test_preset_is_a_layer_under_file_values_and_flags(tmp_path):
    # the Table-1 block fills what neither the file nor a flag sets
    cfg_path = tmp_path / "p.cfg"
    cfg_path.write_text("[es]\npreset = table1\nomega = 16\ndt = 5e-4\n")
    cfg = parse_args(["es", "--config", str(cfg_path), "--omega", "12"])
    p = _es_params(cfg)
    assert (p.omega, p.dt, p.theta_hat0, p.k_gain) == (12.0, 5e-4, 7.5, 0.2)
    assert _es_params(parse_args(["es"])).theta_hat0 == 0.0


def test_predictor_off_is_result_not_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(["es", "--preset", "table1", "--t-end", "3",
                 "--predictor", "off", "--pde-grid", "0", "--out", "off"])
    assert code == 0
    text = Path("off_summary.txt").read_text()
    assert "status = completed" in text


def test_mfde_roundtrip_bit_identical(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["mfde", "--example", "tanh", "--sigma", "0.3",
                 "--step", "0.01", "--jumps", "0.1:0.2", "--out", "m1"]) == 0
    assert main(["mfde", "--config", "m1_summary.txt", "--out", "m2"]) == 0
    assert Path("m1_trajectory.csv").read_bytes() \
        == Path("m2_trajectory.csv").read_bytes()


def test_es_constant_delay_flag(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(["es", "--delay", "const:0.25", "--theta-hat0", "7.5",
                 "--t-end", "2", "--pde-grid", "0", "--out", "cd"])
    assert code == 0
    data = np.genfromtxt("cd_trace.csv", delimiter=",", names=True)
    # constant delay: sigma - t = 0.25 everywhere
    assert np.allclose(data["sigma"] - data["t"], 0.25, atol=1e-8)
    assert np.allclose(data["t"] - data["phi"], 0.25, atol=1e-12)


def test_constant_delay_kernels_keep_float_and_array_shape():
    p = _es_params(parse_args(["es", "--delay", "const:0.25"]))
    for fn, value in ((p.delay_fn, 0.25), (p.delay_grad, 0.0)):
        out = fn(7.5)
        assert type(out) is float and out == value
        arr = fn(np.linspace(0.0, 1.0, 6).reshape(2, 3))
        assert isinstance(arr, np.ndarray) and arr.shape == (2, 3)
        assert np.all(arr == value)


def test_cli_import_does_not_load_scipy():
    src = str(Path(measurefde.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, measurefde.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_cli_paths_run_on_numpy_core(tmp_path):
    # numpy.random (+6 MB resident) and numpy.ma (+1.6 MB) stay unloaded on
    # every subcommand: the sampled averaging checks draw from random.Random
    # and sorted unions go through stieltjes._union instead of np.unique
    src = str(Path(measurefde.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    runs = [["integrate"], ["mfde", "--example", "tanh", "--sigma", "0.5", "--step", "1e-2"],
            ["avg", "--case", "linear", "--eps", "0.2,0.1", "--L", "0.5"],
            ["es", "--preset", "table1", "--t-end", "5"]]   # plain es aborts at 5 s
    code = (f"import sys\nfrom measurefde import cli\nfor argv in {runs!r}:\n"
            "    assert cli.main(argv) == 0, argv\n"
            "    print([m for m in ('numpy.random', 'numpy.ma') if m in sys.modules])\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path, check=True,
                         capture_output=True, text=True).stdout
    assert [line for line in out.splitlines() if line.startswith("[")] == ["[]"] * len(runs)
