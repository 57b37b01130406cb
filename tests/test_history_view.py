"""The Picard solver's absolute-time history view against segment().

The view reads x(t + clip(theta, -depth, 0)) straight from a trajectory's
arrays, here through one-row batches; segment() materialises the same
history as a RegulatedFn.  They must agree wherever the read is not decided
by rounding at a discontinuity.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import history, trajectory_value_at
from measurefde.mfde import (MfdeProblem, ProblemBounds, Trajectory,
                             _HistoryView, solve_picard)
from measurefde.phase_space import HistoryRangeError, RegulatedFn, segment
from measurefde.stieltjes import Integrator

# reads closer than this to a discontinuity are decided by theta -> tau rounding
SIDE_GAP = 1e-9


def random_trajectory(rng, dim, n_jumps):
    """Random mesh, values and jump rows after a random polyline history
    with a nonzero tail; the values start at phi0(0)."""
    ws = -rng.uniform(0.5, 3.0)
    th = np.unique(np.concatenate([[ws], rng.uniform(ws, 0.0, 6), [0.0]]))
    phi0 = RegulatedFn.polyline(th, rng.normal(0.0, 1.0, (len(th), dim)),
                                tail_value=rng.normal(0.0, 1.0, dim) + 2.0)
    t0 = float(rng.uniform(-1.0, 1.0))
    n = int(rng.integers(3, 30))
    mesh = t0 + np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.3, n - 1))])
    vals = rng.normal(0.0, 1.0, (n, dim))
    vals[0] = phi0.eval(0.0)
    post = vals.copy()
    rows = rng.choice(n, size=min(n_jumps, n), replace=False)
    post[rows] += rng.normal(0.0, 1.0, (len(rows), dim))
    return Trajectory(mesh, vals, post, phi0, t0)


def discontinuities(x):
    """Absolute times where x jumps: jump rows and the initial-history tail."""
    rows = np.nonzero((x.post_jump_values != x.values).any(axis=1))[0]
    return np.concatenate([x.mesh[rows], [x.t0 + x.initial_history.window_start]])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]), st.integers(0, 4),
       st.sampled_from([None, 0.07, 0.4, 1.5, 6.0, "t0", "node"]), st.booleans())
def test_view_matches_segment(seed, dim, n_jumps, depth, below_t0):
    rng = np.random.default_rng(seed)
    x = random_trajectory(rng, dim, n_jumps)
    ws = x.initial_history.window_start
    t = float(rng.uniform(x.t0 + ws, x.t0) if below_t0
              else rng.uniform(x.t0, x.mesh[-1]))
    if depth == "t0":  # the cut lands exactly on t0
        depth = t - x.t0 if t > x.t0 else None
    elif depth == "node":  # ... or exactly on a node of phi0 or of the mesh
        nodes = np.concatenate([x.t0 + x.initial_history.thetas, x.mesh])
        depth = t - float(rng.choice(nodes[nodes < t]))
    thetas = np.concatenate([rng.uniform(-(t - x.t0) + ws - 1.0, 0.5, 200),
                             x.mesh - t, [0.0]])
    tau = t + np.clip(thetas, -np.inf if depth is None else -depth, 0.0)
    far = np.abs(tau[:, None] - discontinuities(x)[None, :]).min(axis=1) > SIDE_GAP
    view = history(x, t, depth).eval(thetas)
    ref = segment(x, t, depth).eval(thetas)
    assert np.max(np.abs(view - ref)[far], initial=0.0) <= 1e-11


def test_view_reads_left_value_at_jump_and_post_value_after():
    phi0 = RegulatedFn.constant(0.0, window_start=-1.0)
    mesh = np.array([0.0, 0.5, 1.0])
    vals = np.array([[0.0], [0.5], [1.0]])
    post = np.array([[0.0], [3.0], [1.0]])      # jump of 2.5 right after t = 0.5
    x = Trajectory(mesh, vals, post, phi0, 0.0)
    view = history(x, 1.0)
    assert view(-0.5) == 0.5
    assert view(-0.5 + 1e-9) == pytest.approx(3.0, abs=1e-8)
    # a node within the 1e-12 mesh-hit tolerance, on either side, is a hit
    assert x.value_at(0.5 + 5e-13)[0] == 0.5
    assert x.value_at(0.5 - 5e-13)[0] == 0.5
    assert history(x, 0.5)(0.0) == 0.5
    # theta > 0 never reads the future
    assert history(x, 0.75)(0.2) == view(-0.25) == 2.0


def test_view_does_not_alias_trajectory_storage():
    rng = np.random.default_rng(3)
    x = random_trajectory(rng, 2, 2)
    t = float(x.mesh[5])
    view = _HistoryView(x, np.array([t]), None)
    for theta in (0.0, np.array([0.0]), x.mesh[2:6] - t):
        out = view.eval(theta)
        assert not np.shares_memory(out, x.values)
        assert not np.shares_memory(out, x.post_jump_values)


def test_segment_does_not_alias_trajectory_storage():
    rng = np.random.default_rng(3)
    x = random_trajectory(rng, 2, 2)
    for depth in (None, 0.3):
        hist = segment(x, float(x.mesh[5]) + 0.01, depth)
        for arr in (hist.tail_value, hist.left, hist.right):
            assert not np.shares_memory(arr, x.values)
            assert not np.shares_memory(arr, x.post_jump_values)


def test_view_range_errors():
    rng = np.random.default_rng(4)
    x = random_trajectory(rng, 1, 0)
    ws = x.initial_history.window_start
    history(x, float(x.mesh[-1]) + 5e-10)
    history(x, x.t0 + ws)
    with pytest.raises(HistoryRangeError):
        history(x, float(x.mesh[-1]) + 1e-8)
    with pytest.raises(HistoryRangeError):
        history(x, x.t0 + ws - 1e-9)


def test_solve_with_delay_below_history_window_raises():
    phi = RegulatedFn.constant(2.0, window_start=-1.0)
    p = MfdeProblem(f=lambda t, psi: psi(0.0), rho_delay=lambda t, psi: t - 100.0,
                    g=Integrator.identity(), phi0=phi, t0=0.0, sigma=1.0,
                    bounds=ProblemBounds(lambda s: 2.0, lambda s: 1.0,
                                         lambda s: 1.0, lambda s: 0.5))
    with pytest.raises(HistoryRangeError):
        solve_picard(p, step=0.25)


@pytest.mark.parametrize("dim", [1, 2])
def test_vectorised_value_at_matches_pointwise_loop(dim):
    rng = np.random.default_rng(11 + dim)
    x = random_trajectory(rng, dim, 3)
    jumps = x.mesh[(x.post_jump_values != x.values).any(axis=1)]
    mids = 0.5 * (x.mesh[:-1] + x.mesh[1:])
    below = x.t0 + np.linspace(x.initial_history.window_start - 0.5, 0.0, 17)
    ts = np.concatenate([x.mesh, jumps, mids, rng.uniform(x.t0, x.mesh[-1], 50),
                         below])
    # leave out where the two differ by design: t0 itself, and the 1e-12
    # band above each node
    gap = ts[:, None] - x.mesh[None, :]
    ts = ts[(ts != x.t0) & ~((gap > 0) & (gap <= 1e-12)).any(axis=1)]
    assert np.array_equal(x.value_at(ts), trajectory_value_at(x, ts))
    for t in ts[::7]:
        assert np.array_equal(x.value_at(float(t)), trajectory_value_at(x, float(t)))
    # in those places value_at reads the node's left value and phi0(0)
    rows = np.nonzero((x.post_jump_values[:-1] != x.values[:-1]).any(axis=1))[0]
    assert len(rows) > 0
    band = x.mesh[rows] + 5e-13
    assert np.array_equal(x.value_at(band), x.values[rows])
    assert not np.allclose(trajectory_value_at(x, band), x.values[rows])
    x.values[0] += 1.0
    assert np.array_equal(x.value_at(x.t0), x.initial_history.eval(0.0))
    assert np.array_equal(trajectory_value_at(x, x.t0), x.values[0])
