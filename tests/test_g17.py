"""The numpy %.17g kernel writes exactly the bytes Python's formatter does.

Hypothesis draws floats, raw 64-bit patterns and whole blocks of many
columns; the explicit cases are the places an integer path can go wrong:
exact half-way ties (round half to even), both neighbours of every power of
ten in and around the kernel's range, the range edges, and the values Python
formats itself.
"""

import contextlib
import io
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from measurefde import cli, esc
from measurefde._g17 import g17_rows


def _expected(values, cols=1) -> bytes:
    vals = [b"%.17g" % v for v in np.asarray(values, dtype=float).tolist()]
    return b"".join(b",".join(vals[i:i + cols]) + b"\n"
                    for i in range(0, len(vals), cols))


def _assert_exact(values, cols=1):
    values = np.asarray(values, dtype=float)
    assert g17_rows(values.reshape(-1, cols)) == _expected(values, cols)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True),
                min_size=1, max_size=40))
def test_matches_formatter_on_floats(values):
    _assert_exact(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=40))
def test_matches_formatter_on_bit_patterns(patterns):
    _assert_exact(np.array(patterns, dtype=np.uint64).view(np.float64))


@st.composite
def _blocks(draw):
    """1-64 rows of 1-11 columns: |x| log-uniform from 1e-12 to 1e16 around
    the kernel's range, with subnormals, zeros, nan and infinities mixed in,
    each value of either sign."""
    shape = draw(st.tuples(st.integers(1, 64), st.integers(1, 11)))

    def values(elements, dtype=np.float64):
        return draw(arrays(dtype, shape, elements=elements))

    block = 10.0 ** values(st.floats(-12.0, 16.0))
    kind = values(st.sampled_from(("magnitude",) * 4
                                  + ("subnormal", "zero", "nan", "inf")), "U9")
    subnormal = values(st.floats(5e-324, 2.225073858507201e-308))
    block[kind == "subnormal"] = subnormal[kind == "subnormal"]
    block[kind == "zero"] = 0.0
    block[kind == "nan"] = math.nan
    block[kind == "inf"] = math.inf
    return np.where(values(st.booleans(), bool), -block, block)


@settings(max_examples=200, deadline=None)
@given(_blocks())
def test_matches_formatter_on_blocks(block):
    _assert_exact(block.ravel(), cols=block.shape[1])


def test_exact_ties_round_half_to_even():
    # N * 2**-m with N odd and N * 5**m an 18-digit integer: the exact
    # decimal expansion ends in a 5 just past the 17th digit
    ties = []
    for m in range(1, 40):
        lo = -(-10 ** 17 // 5 ** m)
        hi = min((10 ** 18 - 1) // 5 ** m, 2 ** 53 - 1)
        if lo > hi:
            continue
        for N in np.linspace(lo, hi, 40).astype(np.int64).tolist():
            N |= 1
            if N <= hi:
                ties.append(math.ldexp(N, -m))
    assert len(ties) > 500
    _assert_exact(ties + [-t for t in ties])


def test_neighbours_of_powers_of_ten_and_range_edges():
    centres = [float(f"1e{k}") for k in range(-12, 19)]
    centres += [1e-11, 1e15, 1e17, 2.0 ** 52, 2.0 ** 53]
    values = []
    for c in centres:
        v = c
        for _ in range(3):
            v = math.nextafter(v, 0.0)
        for _ in range(7):
            values.append(v)
            v = math.nextafter(v, math.inf)
    _assert_exact(values + [-v for v in values])


def test_specials_and_layout():
    specials = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                np.nan, np.inf, -np.inf, 1e300, 0.1, 1.0, 100.0, 1e-5,
                -0.0001, 123456.789]
    _assert_exact(specials)
    _assert_exact(np.resize(specials, 5 * 7), cols=7)
    assert g17_rows(np.empty((0, 3))) == b""


def test_es_trace_csv_reads_back_bit_for_bit(tmp_path, monkeypatch):
    # 20001 rows of the table-1 run: every column of _trace.csv parses
    # back to the simulated arrays exactly
    monkeypatch.chdir(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["es", "--preset", "table1", "--t-end", "20",
                         "--pde-grid", "0", "--out", "rt"]) == 0
    tr = esc.simulate(esc.table1_params(t_end=20.0))
    columns = (tr.times, tr.theta, tr.theta_hat, tr.y, tr.G, tr.H_hat, tr.U,
               tr.Gamma, tr.phi_t, tr.sigma_t, tr.feas_margin)
    data = np.loadtxt("rt_trace.csv", delimiter=",", skiprows=1)
    assert data.shape == (20001, len(columns))
    for j, col in enumerate(columns):
        assert np.array_equal(data[:, j].view(np.uint64),
                              np.asarray(col, dtype=float).view(np.uint64))
