import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from measurefde.mfde import (MfdeProblem, ProblemBounds, Trajectory,
                             _HistoryView)
from measurefde.phase_space import (EXP_WEIGHT, UNIFORM_WEIGHT,
                                    HistoryRangeError, InfiniteNormError,
                                    RegulatedFn, check_memory_bounds,
                                    check_shift_bound, exp_weight_candidates,
                                    phase_norm, segment, shift)


def make_traj(mesh, values, phi0, post=None):
    vals = np.asarray(values, dtype=float)[:, None]
    post_arr = vals.copy() if post is None else np.asarray(post, float)[:, None]
    return Trajectory(np.asarray(mesh, float), vals, post_arr, phi0, float(mesh[0]))


# -- norms ----------------------------------------------------------------------


def test_norm_zero_function():
    phi = RegulatedFn.constant(0.0, window_start=-2.0, tail_value=0.0)
    assert phase_norm(phi, EXP_WEIGHT) == 0.0


def test_norm_constant_exp_weight():
    phi = RegulatedFn.constant(3.0, window_start=-1.5, tail_value=0.0)
    # sup of 3 / e^theta over [-1.5, 0] sits at the left end
    assert phase_norm(phi, EXP_WEIGHT) == pytest.approx(3.0 * math.exp(1.5), rel=1e-12)


def test_norm_decaying_profile():
    th = np.linspace(-4.0, 0.0, 2001)
    phi = RegulatedFn.polyline(th, 2.0 * np.exp(2.0 * th), tail_value=0.0)
    assert phase_norm(phi, EXP_WEIGHT) == pytest.approx(2.0, rel=1e-6)


def test_norm_infinite_for_nonzero_tail():
    phi = RegulatedFn.constant(1.0, window_start=-1.0)  # tail defaults to 1
    with pytest.raises(InfiniteNormError):
        phase_norm(phi, EXP_WEIGHT)


def test_norm_uniform_weight_includes_tail():
    phi = RegulatedFn.constant(0.5, window_start=-1.0, tail_value=2.0)
    assert phase_norm(phi, UNIFORM_WEIGHT) == pytest.approx(2.0)


# -- shift -----------------------------------------------------------------------


def _linear_history():
    th = np.linspace(-3.0, 0.0, 301)
    return RegulatedFn.polyline(th, th, tail_value=0.0)


def test_shift_zero_is_identity():
    phi = _linear_history()
    assert shift(phi, 0.0) is phi


def test_shift_branches():
    phi = _linear_history()
    sh = shift(phi, 1.0)
    assert sh(0.0) == pytest.approx(0.0)            # phi(0)
    assert sh(-0.5) == pytest.approx(0.0)           # frozen phi(0-)
    assert sh(-2.0) == pytest.approx(-1.0)          # phi(1 + theta) = phi(-1)


def test_shift_frozen_value_is_left_limit():
    # discontinuous at 0: the value phi(0) = right[-1] differs from the left
    # limit phi(0-) = left[-1]
    phi = RegulatedFn([-1.0, 0.0], [2.0, 2.0], [2.0, 5.0], tail_value=0.0)
    assert phi(0.0) == 5.0 and phi(-1e-9) == 2.0
    sh = shift(phi, 0.5)
    assert sh(0.0) == pytest.approx(5.0)
    assert sh(-0.25) == pytest.approx(2.0)


@settings(max_examples=15, deadline=None)
@given(st.floats(0.001, 1.5, allow_subnormal=False),
       st.floats(0.001, 1.5, allow_subnormal=False))
def test_shift_composition(t, s):
    phi = _linear_history()
    lhs = shift(shift(phi, s), t)
    rhs = shift(phi, t + s)
    deep = np.linspace(-3.0 - t - s + 1e-6, -(t + s) - 1e-6, 41)
    assert np.allclose(lhs.eval(deep), rhs.eval(deep), atol=1e-9)
    mid = np.linspace(-(t + s) + 1e-6, -1e-6, 17)
    # both freeze the same left limit on the middle band
    assert np.allclose(lhs.eval(mid), rhs.eval(mid), atol=1e-9)


# -- segment -----------------------------------------------------------------------


def test_segment_before_t0_plain():
    phi = _linear_history()
    traj = make_traj([0.0, 1.0], [0.0, 1.0], phi)
    hist = segment(traj, -1.0)
    assert hist(0.0) == pytest.approx(-1.0)
    assert hist(-1.5) == pytest.approx(-2.5)


def test_segment_before_window_errors():
    phi = _linear_history()
    traj = make_traj([0.0, 1.0], [0.0, 1.0], phi)
    with pytest.raises(HistoryRangeError):
        segment(traj, -4.0)
    edge = segment(traj, -3.0)  # the window start itself: only the tail is left
    assert edge(0.0) == edge(-1.0) == 0.0


def test_segment_at_start_returns_history():
    phi = _linear_history()
    traj = make_traj([0.0, 1.0], [0.0, 1.0], phi)
    assert segment(traj, 0.0) is phi


def test_segment_linear_splice():
    phi0 = RegulatedFn.constant(0.0, window_start=-2.0, tail_value=0.0)
    traj = make_traj(np.linspace(0.0, 1.0, 11), np.linspace(0.0, 1.0, 11), phi0)
    hist = segment(traj, 1.0)
    for theta in (-0.75, -0.5, -0.1, 0.0):
        assert hist(theta) == pytest.approx(1.0 + theta, abs=1e-12)
    assert hist(-1.5) == pytest.approx(0.0)


def test_segment_value_at_zero_matches_trajectory():
    phi0 = RegulatedFn.constant(1.0, window_start=-1.0, tail_value=0.0)
    mesh = np.linspace(0.0, 2.0, 21)
    traj = make_traj(mesh, np.cos(mesh), phi0)
    for t in (0.4, 1.3, 2.0):
        hist = segment(traj, t)
        assert hist(0.0) == pytest.approx(float(traj.value_at(t)[0]), abs=1e-14)


def test_segment_time_consistency():
    phi0 = RegulatedFn.constant(0.0, window_start=-3.0, tail_value=0.0)
    mesh = np.linspace(0.0, 2.0, 41)
    traj = make_traj(mesh, np.sin(mesh), phi0)
    t, delta = 1.2, 0.55
    h1 = segment(traj, t)
    h2 = segment(traj, t + delta)
    thetas = np.linspace(-1.0, -delta, 13)
    assert np.allclose(h1.eval(thetas + delta), h2.eval(thetas), atol=1e-9)


def test_segment_splits_at_jump():
    phi0 = RegulatedFn.constant(0.0, window_start=-1.0, tail_value=0.0)
    mesh = np.array([0.0, 0.5, 1.0])
    vals = np.array([0.0, 0.0, 1.0])
    post = np.array([0.0, 1.0, 1.0])     # unit jump right after t = 0.5
    traj = make_traj(mesh, vals, phi0, post=post)
    hist = segment(traj, 1.0)
    assert hist(-0.5) == pytest.approx(0.0)           # left value at the jump
    assert hist(-0.5 + 1e-9) == pytest.approx(1.0, abs=1e-6)
    assert hist(0.0) == pytest.approx(1.0)


def test_segment_depth_truncation():
    phi0 = RegulatedFn.constant(0.0, window_start=-1.0, tail_value=0.0)
    mesh = np.linspace(0.0, 10.0, 101)
    traj = make_traj(mesh, mesh, phi0)
    hist = segment(traj, 10.0, max_depth=2.0)
    assert hist.window_start == pytest.approx(-2.0)
    assert hist(-1.0) == pytest.approx(9.0)
    assert hist(0.0) == pytest.approx(10.0)


def test_segment_depth_window_without_node_inside():
    # no mesh node lies in [t - max_depth, t] = [1.25, 1.5]
    phi0 = RegulatedFn.constant(0.0, window_start=-1.0)
    traj = make_traj([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], phi0)
    hist = segment(traj, 1.5, 0.25)
    assert hist.window_start == -0.25
    assert np.array_equal(hist.tail_value, traj.value_at(1.5 - 0.25))
    assert hist(-1.0) == 1.25
    assert hist(-0.1) == pytest.approx(1.4, abs=1e-15)


@pytest.mark.parametrize("offset", [5e-13, -5e-13])
def test_segment_depth_cut_within_mesh_hit_of_jump_node(offset):
    # t - max_depth lies within 1e-12 of the jump node t = 1 (jump 1 -> 11)
    phi0 = RegulatedFn.constant(0.0, window_start=-1.0)
    traj = make_traj([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0], phi0,
                     post=[0.0, 11.0, 2.0, 3.0])
    hist = segment(traj, 2.5, 1.5 - offset)
    for theta in (-1.4, -1.0, -0.7, -0.2):
        # the first cell runs from the post-jump value, as value_at reads it
        assert hist(theta) == pytest.approx(traj.value_at(2.5 + theta)[0], abs=1e-11)
    assert hist(-1.4) == pytest.approx(10.1, abs=1e-11)
    assert hist(-3.0) == 1.0    # below the window: the left value at the node


def test_segment_depth_cut_on_t0_freezes_x_at_t0():
    # t - max_depth = t0: below the window the history is x(t0), not phi0's tail
    phi0 = RegulatedFn.constant(1.0, window_start=-1.0, tail_value=0.0)
    traj = make_traj([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], phi0)
    hist = segment(traj, 1.0, 1.0)
    assert hist(-2.0) == 1.0 == _HistoryView(traj, np.array([1.0]), 1.0)(-2.0)[0]
    assert hist(-0.5) == pytest.approx(1.5, abs=1e-15)


def test_segment_depth_cut_at_t0_keeps_a_jump_of_phi0_at_zero():
    # phi0(0) = 5 differs from phi0(0-) = 2; the cut history at t0 keeps both
    phi0 = RegulatedFn([-1.0, 0.0], [2.0, 2.0], [2.0, 5.0], tail_value=0.0)
    traj = make_traj([0.0, 1.0], [5.0, 5.0], phi0)
    hist = segment(traj, 0.0, 0.5)
    assert hist.window_start == -0.5
    assert hist(0.0) == 5.0 and hist(-0.25) == 2.0 and hist(-1.0) == 2.0


def test_segment_beyond_range_errors():
    phi0 = RegulatedFn.constant(0.0, window_start=-1.0, tail_value=0.0)
    traj = make_traj([0.0, 1.0], [0.0, 1.0], phi0)
    with pytest.raises(HistoryRangeError):
        segment(traj, 1.5)


@pytest.mark.parametrize("dim", [1, 2])
def test_single_segment_eval_matches_general_path(dim):
    # the jump-free fast path (np.interp) and the general rule of _read
    # read the same function
    rng = np.random.default_rng(dim)
    th = np.concatenate([[-2.0], np.sort(rng.uniform(-2.0, 0.0, 9)), [0.0]])
    vals = rng.normal(0.0, 1.0, (len(th), dim))
    tail = rng.normal(0.0, 1.0, dim) + 3.0
    one = RegulatedFn.polyline(th, vals, tail_value=tail)
    left = vals.copy()
    left[0] += 7.0  # never read: the tail holds there, and forces the general path
    two = RegulatedFn(th, left, vals, tail)
    assert len(one.segments) == len(two.segments) == 1
    exact = np.concatenate([[-2.0, 0.0, -3.0, -2.0 - 1e-12, 0.5], th])
    assert np.array_equal(one.eval(exact), two.eval(exact))
    for p in exact:
        assert np.array_equal(one.eval(p), two.eval(p))
    inside = rng.uniform(-2.5, 0.0, 40)
    # the two line formulas may differ in the last bits
    assert np.allclose(one.eval(inside), two.eval(inside), rtol=0.0, atol=1e-14)
    assert np.array_equal(one.eval(-3.0), tail)


# -- norm axioms as properties ----------------------------------------------------


def _random_polyline(rng):
    n = rng.integers(5, 20)
    th = np.unique(np.concatenate([[-2.0], np.sort(rng.uniform(-2.0, 0.0, n)), [0.0]]))
    vals = rng.normal(0.0, 1.0, len(th))
    return RegulatedFn.polyline(th, vals, tail_value=0.0)


def test_norm_positive_definite():
    rng = np.random.default_rng(7)
    phi = _random_polyline(rng)
    assert phase_norm(phi, EXP_WEIGHT) > 0
    zero = RegulatedFn.constant(0.0, window_start=-2.0, tail_value=0.0)
    assert phase_norm(zero, EXP_WEIGHT) == 0.0


@settings(max_examples=20, deadline=None)
@given(st.floats(-3.0, 3.0), st.integers(0, 10_000))
def test_norm_homogeneity(alpha, seed):
    rng = np.random.default_rng(seed)
    phi = _random_polyline(rng)
    scaled = RegulatedFn.polyline(phi.thetas, alpha * phi.left, tail_value=0.0)
    assert phase_norm(scaled, EXP_WEIGHT) \
        == pytest.approx(abs(alpha) * phase_norm(phi, EXP_WEIGHT), rel=1e-9, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_norm_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    th = np.unique(np.concatenate([[-2.0], np.sort(rng.uniform(-2.0, 0.0, 12)), [0.0]]))
    va = rng.normal(0.0, 1.0, len(th))
    vb = rng.normal(0.0, 1.0, len(th))
    na = phase_norm(RegulatedFn.polyline(th, va, tail_value=0.0), EXP_WEIGHT)
    nb = phase_norm(RegulatedFn.polyline(th, vb, tail_value=0.0), EXP_WEIGHT)
    nab = phase_norm(RegulatedFn.polyline(th, va + vb, tail_value=0.0), EXP_WEIGHT)
    assert nab <= na + nb + 1e-9


def test_norm_along_trajectory_is_regulated():
    # dyadic approach to an interior time: one-sided oscillations shrink
    phi0 = RegulatedFn.constant(1.0, window_start=-1.0, tail_value=0.0)
    mesh = np.array([0.0, 0.5, 1.0])
    traj = make_traj(mesh, [1.0, 1.0, 2.0], phi0, post=[1.0, 2.0, 2.0])
    t_hat = 0.5
    from_left = [phase_norm(segment(traj, t_hat - 2.0 ** -k), EXP_WEIGHT)
                 for k in range(3, 10)]
    diffs = np.abs(np.diff(from_left))
    assert diffs[-1] < 1e-2
    assert np.all(np.diff(diffs) < 0.0)  # one-sided oscillation shrinks
    from_right = [phase_norm(segment(traj, t_hat + 2.0 ** -k), EXP_WEIGHT)
                  for k in range(3, 10)]
    assert abs(from_right[-1] - from_right[-2]) < 1e-2


# -- bounding-constant checks ------------------------------------------------------


def test_memory_bounds_zero_trajectory():
    phi0 = RegulatedFn.constant(0.0, window_start=-1.0, tail_value=0.0)
    traj = make_traj(np.linspace(0, 1, 11), np.zeros(11), phi0)
    reports = check_memory_bounds(traj, exp_weight_candidates(), EXP_WEIGHT)
    assert all(r.worst_ratio == 0.0 for r in reports)


def test_memory_bounds_random_corpus():
    rng = np.random.default_rng(42)
    consts = exp_weight_candidates()
    for _ in range(10):
        phi0 = _random_polyline(rng)
        mesh = np.linspace(0.0, 1.5, 31)
        start = float(phi0.value_at_zero()[0])
        vals = start + rng.normal(0.0, 0.3, len(mesh)).cumsum()
        traj = make_traj(mesh, vals, phi0)
        for rep in check_memory_bounds(traj, consts, EXP_WEIGHT):
            assert rep.passed, rep.summary()


def test_shift_bound_random_corpus():
    rng = np.random.default_rng(3)
    k = exp_weight_candidates().k
    for _ in range(10):
        phi = _random_polyline(rng)
        t = float(rng.uniform(0.0, 2.0))
        rep = check_shift_bound(phi, t, k, EXP_WEIGHT)
        assert rep.passed, rep.summary()


def test_shift_bound_equality_at_zero():
    phi = _linear_history()
    rep = check_shift_bound(phi, 0.0, exp_weight_candidates().k, EXP_WEIGHT)
    assert rep.worst_ratio == pytest.approx(1.0, abs=1e-12)
    assert rep.passed


def test_doubling_search_certifies_scaled_constant():
    # deliberately halve a valid constant: certification should scale it back
    phi = _linear_history()
    too_small = lambda t: 0.2 * (math.exp(t) - 1.0)
    rep = check_shift_bound(phi, 1.0, too_small, EXP_WEIGHT)
    assert not rep.passed
    assert rep.certified
    assert rep.certified_scale >= 2.0
