"""The ES output path works in blocks without the blocks showing.

sigma, the transport check, the tail metrics and the trace CSV must not
depend on the block sizes, and the whole `es` run must hold a bounded number
of float64 per trace row: the blocks' temporaries are fixed in size, so only
the trace itself grows with t_end.
"""

import contextlib
import dataclasses
import io
import math
import tracemalloc

import numpy as np
import pytest

from _oracles import tail_metrics_by_mask
from measurefde import cli, esc
from measurefde._g17 import g17_rows

# 20001 rows: more than two default blocks, and a partial last block at
# both the default size and 7 rows
T_END = 20.0
ROWS = 20001
CASES = {
    "table1": {},      # phi is not monotone here: several crossings exist
    "const_0.3": {"delay_fn": esc.constant_delay(0.3),
                  "delay_grad": esc.constant_delay(0.0)},
    "predictor_off": {"predictor_on": False},
}
BLOCK_SIZES = (10 ** 9, 7)


@pytest.fixture(scope="module", params=sorted(CASES))
def case_trace(request):
    p = esc.table1_params(t_end=T_END, **CASES[request.param])
    trace = esc.simulate(p)
    assert len(trace.times) == ROWS
    for size in (esc.BLOCK_ROWS, cli.CSV_BLOCK_ROWS, 7):
        assert ROWS > 2 * size and ROWS % size != 0
    if request.param == "table1":
        assert trace.flags["delay_rate_exceeded_fraction"] > 0.0
    return p, trace


@pytest.mark.parametrize("size", BLOCK_SIZES)
def test_sigma_and_transport_check_independent_of_block_size(case_trace, size,
                                                             monkeypatch):
    _, trace = case_trace
    err = esc.transport_diagnostic(trace).boundary_max_err
    monkeypatch.setattr(esc, "BLOCK_ROWS", size)
    assert np.array_equal(esc.prediction_times(trace), trace.sigma_t)
    assert esc.transport_diagnostic(trace).boundary_max_err == err


@pytest.mark.parametrize("size", BLOCK_SIZES)
def test_trace_csv_independent_of_block_size(case_trace, size, tmp_path,
                                             monkeypatch):
    _, tr = case_trace
    columns = _columns(tr)
    cli._write_csv(str(tmp_path / "default.csv"), "h", columns)
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", size)
    cli._write_csv(str(tmp_path / "patched.csv"), "h", columns)
    assert (tmp_path / "patched.csv").read_bytes() \
        == (tmp_path / "default.csv").read_bytes()


def test_delay_rate_flag_matches_whole_trace_rule(case_trace):
    p, tr = case_trace
    rate = np.diff(tr.times - tr.phi_t) / p.dt
    assert tr.flags["delay_rate_exceeded_fraction"] \
        == float(np.mean(np.abs(rate) >= 1.0))


def _columns(tr):
    return (tr.times, tr.theta, tr.theta_hat, tr.y, tr.G, tr.H_hat, tr.U,
            tr.Gamma, tr.phi_t, tr.sigma_t, tr.feas_margin)


@pytest.mark.parametrize("size", (esc.BLOCK_ROWS, 7))
@pytest.mark.parametrize("where", ("on_sample", "between", "zero", "last"))
def test_tail_metrics_match_the_mask_rule(case_trace, where, size,
                                          monkeypatch):
    _, tr = case_trace
    tail_start = {"on_sample": float(tr.times[15000]),
                  "between": 0.5 * float(tr.times[15000] + tr.times[15001]),
                  "zero": 0.0, "last": float(tr.times[-1])}[where]
    monkeypatch.setattr(esc, "BLOCK_ROWS", size)
    assert esc.tail_metrics(tr, tail_start) == tail_metrics_by_mask(tr, tail_start)


@pytest.mark.parametrize("size", (esc.BLOCK_ROWS, 7))
def test_nan_in_the_tail_gives_nan(case_trace, size, monkeypatch):
    # the nan sits in neither the first nor the last block of the tail, where
    # a Python max over the block maxima would drop it
    _, tr = case_trace
    theta = tr.theta.copy()
    theta[17000] = np.nan
    tr = dataclasses.replace(tr, theta=theta)
    monkeypatch.setattr(esc, "BLOCK_ROWS", size)
    got, want = esc.tail_metrics(tr, 5.0), tail_metrics_by_mask(tr, 5.0)
    assert math.isnan(got["theta_err"]) and math.isnan(want["theta_err"])
    assert (got["y_err"], got["u_abs"]) == (want["y_err"], want["u_abs"])


@pytest.mark.parametrize("after", ("next_float", "nan"))
def test_empty_tail_raises_as_the_mask_rule(case_trace, after):
    _, tr = case_trace
    tail_start = math.nextafter(float(tr.times[-1]), math.inf) \
        if after == "next_float" else math.nan
    messages = []
    for metrics in (esc.tail_metrics, tail_metrics_by_mask):
        with pytest.raises(ValueError) as err:
            metrics(tr, tail_start)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_g17_block_peak_per_value(case_trace):
    # every full block of the trace CSV: the kernel's temporaries, the text
    # it returns included, against 8 bytes of float64 per value in the block
    _, tr = case_trace
    peaks = []
    for lo in range(0, ROWS - cli.CSV_BLOCK_ROWS + 1, cli.CSV_BLOCK_ROWS):
        block = np.column_stack([col[lo:lo + cli.CSV_BLOCK_ROWS]
                                 for col in _columns(tr)])
        tracemalloc.start()
        try:
            g17_rows(block)
            peaks.append(tracemalloc.get_traced_memory()[1] / block.size)
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 120.0


def _es_peak_bytes(t_end: float, out: str) -> int:
    cfg = cli.parse_args(["es", "--preset", "table1", "--t-end", str(t_end),
                          "--dt", "2e-3", "--out", out])
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run(cfg) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_es_run_memory_per_trace_row(tmp_path):
    # 10001 and 30001 rows: both past one full block, so the difference is
    # what the trace itself costs; 11 output columns plus the loop's buffers,
    # which array("d", [0.0]) * n sizes exactly (11.38 measured; 11.88 with
    # the 1/16 over-allocation of array("d", bytes(8 * n)))
    peak_20 = _es_peak_bytes(20.0, str(tmp_path / "a"))
    peak_60 = _es_peak_bytes(60.0, str(tmp_path / "b"))
    per_row = (peak_60 - peak_20) / (8 * (30001 - 10001))
    assert per_row <= 11.5


def test_es_run_peak_above_its_trace_columns(tmp_path):
    # 30001 rows: what the run holds beyond its 11 output columns is the
    # loop's fixed buffers, one CSV block being turned into text, one block
    # of each trace-level pass and the transport view
    peak = _es_peak_bytes(60.0, str(tmp_path / "a"))
    assert peak - 11 * 8 * 30001 <= 1.0e6
