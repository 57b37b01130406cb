import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import erfc

from _oracles import check_bounds, march_heun
from measurefde.averaging import linear_periodic_problem
from measurefde.mfde import (ConvergenceError, HypothesisViolationError,
                             MfdeProblem, ProblemBounds, delayed_time_series,
                             gamma_apply, initial_trajectory, build_mesh,
                             residual, solve_picard, tanh_kernel_problem)
from measurefde.phase_space import RegulatedFn, segment
from measurefde.stieltjes import Integrator

ZERO_BOUNDS = ProblemBounds(lambda s: 0.0, lambda s: 0.0,
                            lambda s: 0.0, lambda s: 0.0)


def simple_problem(f, g, sigma=1.0, phi_value=2.0, bounds=None, tol=1e-11,
                   rho=None):
    phi = RegulatedFn.constant(phi_value, window_start=-2.0, tail_value=0.0)
    return MfdeProblem(
        f=f, rho_delay=rho or (lambda t, psi: t), g=g, phi0=phi, t0=0.0,
        sigma=sigma, bounds=bounds or ProblemBounds(
            lambda s: 2.0, lambda s: 1.0, lambda s: 1.0, lambda s: 0.5),
        tol=tol, history_depth=3.0)


def test_gamma_zero_rhs_is_constant_extension():
    p = simple_problem(lambda t, psi: 0.0, Integrator.identity(),
                       bounds=ZERO_BOUNDS)
    x0 = initial_trajectory(p, build_mesh(p, 0.1))
    out = gamma_apply(x0, p)
    assert np.allclose(out.values, 2.0, atol=0)


def test_gamma_history_independent_rhs():
    p = simple_problem(lambda t, psi: 1.0, Integrator.identity())
    x0 = initial_trajectory(p, build_mesh(p, 0.05), kind="ramp")
    out = gamma_apply(x0, p)
    assert np.allclose(out.values[:, 0], 2.0 + out.mesh, atol=1e-12)


def test_gamma_jump_contribution():
    g = Integrator.with_jumps(lambda s: 1.0, [(0.4, 1.0)])
    p = simple_problem(lambda t, psi: 1.0, g)
    x0 = initial_trajectory(p, build_mesh(p, 0.05))
    out = gamma_apply(x0, p)
    before = out.values[out.mesh <= 0.4][:, 0]
    after = out.values[out.mesh > 0.4][:, 0]
    assert np.allclose(before, 2.0 + out.mesh[out.mesh <= 0.4], atol=1e-12)
    assert np.allclose(after, 3.0 + out.mesh[out.mesh > 0.4], atol=1e-12)


def test_gamma_rejects_future_delay():
    p = simple_problem(lambda t, psi: 1.0, Integrator.identity(),
                       rho=lambda t, psi: t + 1.0)
    x0 = initial_trajectory(p, build_mesh(p, 0.25))
    with pytest.raises(HypothesisViolationError):
        gamma_apply(x0, p)


def test_solve_zero_rhs_one_pass():
    p = simple_problem(lambda t, psi: 0.0, Integrator.identity(),
                       bounds=ZERO_BOUNDS)
    x, iters, delta = solve_picard(p, step=0.1)
    assert np.allclose(x.values, 2.0)
    assert iters <= 2
    assert delta == 0.0


def test_solve_method_of_steps():
    # x'(t) = x(t - 1) with unit history gives x(t) = 1 + t on [0, 1]
    phi = RegulatedFn.constant(1.0, window_start=-1.5, tail_value=0.0)
    p = MfdeProblem(f=lambda t, psi: psi(-1.0), rho_delay=lambda t, psi: t,
                    g=Integrator.identity(), phi0=phi, t0=0.0, sigma=1.0,
                    bounds=ProblemBounds(lambda s: 1.5, lambda s: 1.0,
                                         lambda s: 1.0, lambda s: 0.0),
                    tol=1e-11, history_depth=3.0)
    x, _, _ = solve_picard(p, step=0.02)
    assert np.max(np.abs(x.values[:, 0] - (1.0 + x.mesh))) < 1e-12


@pytest.mark.parametrize("depth", [-1.0, 0.0, math.nan, math.inf])
def test_history_depth_is_none_or_finite_and_positive(depth):
    # x'(t) = -x(t - 0.5) with unit history gives x(1) = 0.125.  A depth of
    # -1 or 0 clipped every read to x(t) and returned the delay-free
    # e^-1 = 0.3679 without an error; nan ended in a ConvergenceError
    # with delta = nan
    phi = RegulatedFn.constant(1.0, window_start=-1.0)
    p = MfdeProblem(f=lambda t, psi: -psi(-0.5), rho_delay=lambda t, psi: t,
                    g=Integrator.identity(), phi0=phi, t0=0.0, sigma=1.0,
                    bounds=ProblemBounds(lambda s: 1.0, lambda s: 1.0,
                                         lambda s: 0.0, lambda s: 0.0),
                    history_depth=1.0)
    x, _, _ = solve_picard(p, step=0.01)
    assert abs(x.values[-1, 0] - 0.125) <= 1e-12
    assert solve_picard(replace(p, history_depth=None), step=0.01)[0].values[-1, 0] \
        == x.values[-1, 0]
    with pytest.raises(ValueError, match="history_depth"):
        replace(p, history_depth=depth)
    with pytest.raises(ValueError, match="history_depth"):
        replace(linear_periodic_problem(), history_depth=depth)


def test_impulse_consistency_exact():
    g = Integrator.with_jumps(lambda s: 1.0, [(0.5, 0.75)])
    v = 2.0
    p = simple_problem(lambda t, psi: v, g)
    x, _, _ = solve_picard(p, step=0.05)
    i = int(np.argmin(np.abs(x.mesh - 0.5)))
    assert x.post_jump_values[i][0] - x.values[i][0] == v * 0.75


def test_residual_detects_corruption():
    p = simple_problem(lambda t, psi: 1.0, Integrator.identity())
    x, _, _ = solve_picard(p, step=0.05)
    assert residual(x, p) < 1e-10
    x.values[10] += 1.0
    assert residual(x, p) >= 1.0 - 1e-6


def test_uniqueness_under_initial_guess():
    phi = RegulatedFn.constant(1.0, window_start=-1.5, tail_value=0.0)
    p = MfdeProblem(f=lambda t, psi: psi(-0.3) * 0.5, rho_delay=lambda t, psi: t,
                    g=Integrator.identity(), phi0=phi, t0=0.0, sigma=1.0,
                    bounds=ProblemBounds(lambda s: 2.0, lambda s: 0.5,
                                         lambda s: 0.5, lambda s: 0.0),
                    tol=1e-10, history_depth=3.0)
    xa, _, _ = solve_picard(p, step=0.02, initial_guess="constant")
    xb, _, _ = solve_picard(p, step=0.02, initial_guess="ramp")
    assert xa.sup_distance(xb) <= 10.0 * p.tol


def test_convergence_error_carries_delta():
    # expanding map on a single forced window: certificate lies, iteration runs out
    phi = RegulatedFn.constant(1.0, window_start=-1.0, tail_value=0.0)
    p = MfdeProblem(f=lambda t, psi: 4.0 * psi(0.0), rho_delay=lambda t, psi: t,
                    g=Integrator.identity(), phi0=phi, t0=0.0, sigma=2.0,
                    bounds=ZERO_BOUNDS, tol=1e-12, max_iters=12,
                    history_depth=2.0)
    with pytest.raises(ConvergenceError) as err:
        solve_picard(p, step=0.05)
    assert err.value.final_delta > 0


def test_continuous_case_matches_marching_oracle():
    phi = RegulatedFn.constant(1.0, window_start=-2.0, tail_value=0.0)
    p = MfdeProblem(f=lambda t, psi: -psi(0.0) + 0.5 * psi(-0.5),
                    rho_delay=lambda t, psi: t, g=Integrator.identity(),
                    phi0=phi, t0=0.0, sigma=1.5,
                    bounds=ProblemBounds(lambda s: 2.0, lambda s: 1.5,
                                         lambda s: 1.0, lambda s: 0.0),
                    tol=1e-10, history_depth=3.0)
    x, _, _ = solve_picard(p, step=0.01)
    ot, ov = march_heun(p, 2e-4)
    gap = np.max(np.abs(x.values[:, 0] - np.interp(x.mesh, ot, ov)))
    assert gap < 5e-4


def test_value_at_is_jump_aware():
    g = Integrator.with_jumps(lambda s: 1.0, [(0.5, 1.0)])
    p = simple_problem(lambda t, psi: 1.0, g)
    x, _, _ = solve_picard(p, step=0.25)
    assert float(x.value_at(0.5)[0]) == pytest.approx(2.5, abs=1e-12)
    assert float(x.value_at(0.5 + 1e-9)[0]) == pytest.approx(3.5, abs=1e-6)
    # midpoint between mesh points interpolates from the post-jump value
    assert float(x.value_at(0.625)[0]) == pytest.approx(3.625, abs=1e-9)


# -- hypothesis sampling reports ---------------------------------------------------


def test_check_bounds_zero_rhs():
    p = simple_problem(lambda t, psi: 0.0, Integrator.identity(),
                       bounds=ProblemBounds(lambda s: 1e-9, lambda s: 1e-9,
                                            lambda s: 1e-9, lambda s: 1e-9))
    reports = check_bounds(p, n_samples=6, seed=1)
    assert all(r.worst_ratio == 0.0 for r in reports)


def test_check_bounds_pointwise_evaluation_rhs():
    # f(s, psi) = psi(0) is 1-Lipschitz in the weighted norm since rho(0) = 1
    p = simple_problem(lambda t, psi: psi(0.0), Integrator.identity(),
                       bounds=ProblemBounds(lambda s: 5.0, lambda s: 1.0,
                                            lambda s: 10.0, lambda s: 1.0))
    reports = {r.name: r for r in check_bounds(p, n_samples=10, seed=2)}
    assert reports["history-lipschitz (L)"].worst_ratio <= 1.0 + 1e-9
    assert reports["shift-lipschitz (L2)"].note == "sampled evidence only"


def test_check_bounds_tanh_example():
    p = tanh_kernel_problem(sigma=1.0)
    for rep in check_bounds(p, n_samples=8, seed=3):
        assert rep.passed, rep.summary()


# -- built-in example ---------------------------------------------------------------


def test_tanh_example_zero_history_gives_zero_rhs():
    p = tanh_kernel_problem()
    zero = RegulatedFn.constant(0.0, window_start=-9.0, tail_value=0.0)
    assert p.f(0.3, zero) == 0.0
    assert p.f(1.7, zero) == 0.0


def test_tanh_example_delay_sign():
    p = tanh_kernel_problem()
    assert p.rho_delay(0.0, p.phi0) <= 0.0
    hist = RegulatedFn.constant(0.7, window_start=-9.0, tail_value=0.0)
    for t in (0.0, 0.5, 2.0, 7.0):
        assert p.rho_delay(t, hist) <= t


def test_tanh_example_kernel_constant_closed_form():
    # int_{-inf}^0 |T| e^theta dtheta completes the square to
    # e * sqrt(pi)/2 * erfc(1)
    p = tanh_kernel_problem()
    closed = math.e * math.sqrt(math.pi) / 2.0 * erfc(1.0)
    assert p.bounds.L(0.0) == pytest.approx(closed, abs=1e-8)


def test_tanh_solution_properties(tanh_run):
    p, x = tanh_run["problem"], tanh_run["traj"]
    assert residual(x, p) <= 10.0 * p.tol
    r = delayed_time_series(p, x)
    assert np.all(r <= x.mesh + 1e-9)
    assert np.all(np.diff(r) >= -1e-7)


def test_vector_valued_problem():
    phi = RegulatedFn.polyline(np.array([-1.0, 0.0]),
                               np.array([[1.0, 2.0], [1.0, 2.0]]),
                               tail_value=np.zeros(2))
    rotate = np.array([[0.0, 1.0], [-1.0, 0.0]])
    p = MfdeProblem(f=lambda t, psi: psi.eval(0.0) @ rotate.T,
                    rho_delay=lambda t, psi: t, g=Integrator.identity(),
                    phi0=phi, t0=0.0, sigma=1.0,
                    bounds=ProblemBounds(lambda s: 3.0, lambda s: 1.0,
                                         lambda s: 1.0, lambda s: 0.0),
                    tol=1e-10, history_depth=2.0)
    x, _, _ = solve_picard(p, step=0.01)
    # linear rotation system: [cos t + 2 sin t, 2 cos t - sin t]
    expect = np.column_stack([np.cos(x.mesh) + 2.0 * np.sin(x.mesh),
                              2.0 * np.cos(x.mesh) - np.sin(x.mesh)])
    assert np.max(np.abs(x.values - expect)) < 5e-5   # second order in the step


def test_tanh_example_with_impulses():
    p = tanh_kernel_problem(sigma=1.0, jumps=((0.5, 0.4),))
    x, _, _ = solve_picard(p, step=0.01)
    i = int(np.argmin(np.abs(x.mesh - 0.5)))
    jump = float(x.post_jump_values[i][0] - x.values[i][0])
    hist = segment(x, 0.5, p.history_depth)
    r = p.rho_delay(0.5, hist)
    expected = float(p.f(0.5, segment(x, r, p.history_depth))) * 0.4
    assert jump == pytest.approx(expected, rel=1e-12)
    assert residual(x, p) <= 10.0 * p.tol


def test_impulsive_linear_closed_form():
    # x' = x with a multiplicative impulse: x(tau+) = (1 + delta) x(tau);
    # after the jump, the density integrand must run from the post-jump state
    tau, delta = 0.7, 1.0
    phi = RegulatedFn.constant(1.0, window_start=-1.0, tail_value=0.0)
    g = Integrator.with_jumps(lambda s: 1.0, [(tau, delta)])
    p = MfdeProblem(f=lambda t, psi: psi(0.0), rho_delay=lambda t, psi: t, g=g,
                    phi0=phi, t0=0.0, sigma=1.5,
                    bounds=ProblemBounds(lambda s: 12.0, lambda s: 1.0,
                                         lambda s: 1.0, lambda s: 0.0),
                    tol=1e-11, history_depth=2.0)
    x, _, _ = solve_picard(p, step=0.005)
    exact = np.where(x.mesh <= tau, np.exp(x.mesh),
                     (1.0 + delta) * np.exp(x.mesh))
    assert np.max(np.abs(x.values[:, 0] - exact)) < 5e-5


@pytest.mark.parametrize("step", [5e-4, 2.5e-4])
def test_post_jump_read_clears_mesh_hit_at_small_steps(step):
    # x' = x with a unit impulse at 0.5: x(1) = 4e.  Below h = 1e-3 a
    # post-jump read at t_j + 1e-9 h fell inside the mesh-hit tolerance,
    # saw the pre-jump value and left an O(h) error (-4.5e-4 at 5e-4)
    g = Integrator.with_jumps(lambda s: 1.0, [(0.5, 1.0)])
    p = simple_problem(lambda t, psi: psi(0.0), g)
    x, _, _ = solve_picard(p, step=step)
    assert abs(x.values[-1, 0] - 4.0 * math.e) <= 1e-6


@pytest.mark.parametrize("t0", [0.0, 1e5, 1e6])
def test_post_jump_read_at_large_times(t0):
    # x' = x with a unit impulse at t0 + 0.5: x(t0 + 1) = 4e.  A post-jump
    # read nudged to mesh[j] + 1e-9 h rounded back onto the node once the
    # float spacing near t0 passed the nudge, and missed by -1.8e-3 at 1e6
    g = Integrator.with_jumps(1.0, [(t0 + 0.5, 1.0)])
    p = replace(simple_problem(lambda t, psi: psi(0.0), g), t0=t0)
    x, _, _ = solve_picard(p, step=2e-3)
    assert x.mesh[-1] == t0 + 1.0
    assert abs(x.values[-1, 0] - 4.0 * math.e) <= 1e-5


def test_window_partition_with_callable_density_far_from_zero():
    # windows are sized from g increments over the mesh, so a callable
    # density is sampled O(mesh) times at t0 = 1e6, not integrated from 0
    samples = [0]

    def unit(s):
        samples[0] += np.size(s)
        return np.ones_like(s)

    sols = {}
    for t0 in (0.0, 1e6):
        samples[0] = 0
        p = replace(simple_problem(lambda t, psi: psi(0.0), Integrator(density=unit),
                                   phi_value=1.0), t0=t0)
        sols[t0], _, _ = solve_picard(p, step=0.01)
        assert samples[0] <= 20 * len(sols[t0].mesh)
    assert np.max(np.abs(sols[1e6].mesh - 1e6 - sols[0.0].mesh)) <= 1e-9
    assert np.max(np.abs(sols[1e6].values - sols[0.0].values)) <= 1e-9
    assert np.max(np.abs(sols[0.0].values[:, 0] - np.exp(sols[0.0].mesh))) < 1e-4


def test_window_partition_covers_and_caps():
    from measurefde.mfde import _partition_windows
    gvals = np.linspace(0.0, 4.0, 201)
    K = 2.0
    windows = _partition_windows(K, gvals, cap=0.45)
    assert windows[0][0] == 0 and windows[-1][1] == 200
    for (i0, i1), (j0, _) in zip(windows, windows[1:]):
        assert i1 == j0
    for i0, i1 in windows:
        assert K * (gvals[i1] - gvals[i0]) <= 0.45 + 1e-12 or i1 == i0 + 1
    assert _partition_windows(0.1, gvals) == [(0, 200)]


def _windows(p, step):
    from measurefde.mfde import _mesh_caches, _partition_windows, contraction_rate
    mesh = build_mesh(p, step)
    windows = _partition_windows(contraction_rate(p), p.g.values_at(mesh, mesh[0]))
    return windows, _mesh_caches(p, mesh)[2] != 0


def test_warm_start_takes_two_sweeps_per_window(tanh_run):
    # each window after the first starts from the solved right limit at its
    # base node, extended linearly: one sweep to converge, one to confirm.
    # The ramp guess is never warm-started, so it keeps its 297 sweeps.
    p = tanh_run["problem"]
    windows, _ = _windows(p, 2e-3)
    assert len(windows) == 112
    assert tanh_run["iters"] == 2 * len(windows) == 224
    _, iters, _ = solve_picard(p, step=2e-3, initial_guess="ramp")
    assert iters == 297


def test_warm_start_across_impulses():
    # the seed-0 train of 19 impulses that `--jumps` takes in the benchmark
    from measurefde.cli import _parse_jumps
    rng = np.random.default_rng(0)
    times = 0.1 * np.arange(1, 20) + rng.uniform(-0.02, 0.02, 19)
    sizes = rng.uniform(0.02, 0.06, 19)
    p = tanh_kernel_problem(sigma=2.0, jumps=_parse_jumps(
        ",".join(f"{t:.6f}:{m:.6f}" for t, m in zip(times, sizes))))
    windows, jumps = _windows(p, 2e-3)
    # every impulse opens a window, whose guess starts from the post-jump
    # value, and the window after it takes its slope from that right limit
    assert sum(bool(jumps[i0]) for i0, _ in windows[1:]) == 19
    xw, iters_w, _ = solve_picard(p, step=2e-3)
    xr, iters_r, _ = solve_picard(p, step=2e-3, initial_guess="ramp")
    assert (iters_w, iters_r) == (276, 356)
    assert xw.sup_distance(xr) <= 10.0 * p.tol
    assert residual(xw, p) < 1e-8


def test_build_mesh_pins_jump_nodes_and_stays_small():
    # jumps on a grid node (0.5) and within 1e-12 above one (0.3), and a
    # jump of phi0 at theta = -0.25 that adds the node 0.25
    from measurefde.mfde import _mesh_caches
    g = Integrator.with_jumps(1.0, [(0.3 + 4e-13, 0.2), (0.5, 0.1)])
    phi = RegulatedFn([-1.0, -0.25, 0.0], [1.0, 1.0, 2.0], [1.0, 2.0, 2.0], 1.0)
    p = MfdeProblem(f=lambda t, psi: 0.0, rho_delay=lambda t, psi: t, g=g,
                    phi0=phi, t0=0.0, sigma=1.0, bounds=ZERO_BOUNDS)
    mesh = build_mesh(p, 0.1)
    grid = np.linspace(0.0, 1.0, 11)
    assert np.array_equal(mesh, np.insert(grid, 3, 0.25))
    # each jump lands on the node it is read at
    assert mesh[np.flatnonzero(_mesh_caches(p, mesh)[2])].tolist() == [grid[3], 0.5]
    # the peak stays within 4x the returned mesh (12x with a set of floats)
    import tracemalloc
    p = replace(p, sigma=4.0)
    tracemalloc.start()
    try:
        mesh = build_mesh(p, 1e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(mesh) == 40_001 and peak <= 4 * mesh.nbytes


def test_difference_equation_matches_direct_recursion():
    # with a pure-jump g the measure equation is the difference equation
    # x(tau_k+) = x(tau_k) + f(tau_k, x_rho(tau_k)), and x is constant between
    # the jumps; this also reads histories at and next to jump nodes
    taus = [0.5 * k for k in range(1, 9)]

    def f(s, psi):
        return -0.4 * psi(0.0) + 0.25 * psi(-1.0)

    def rho(s, psi):
        return s - (0.3 + 0.2 * np.tanh(psi(0.0)) ** 2)

    p = MfdeProblem(f=f, rho_delay=rho,
                    g=Integrator.pure_jumps([(tau, 1.0) for tau in taus]),
                    phi0=RegulatedFn.constant(1.0, window_start=-2.0), t0=0.0,
                    sigma=4.25, tol=1e-13,
                    bounds=ProblemBounds(lambda s: 1.0, lambda s: 0.65,
                                         lambda s: 0.65, lambda s: 0.16))
    x, _, _ = solve_picard(p, step=2e-3)
    posts = [1.0]  # x on (tau_k, tau_k+1], from (-inf, tau_1] on

    def x_at(r):
        return posts[np.searchsorted(taus, r)]

    for tau in taus:
        now = x_at(tau)
        r = tau - (0.3 + 0.2 * math.tanh(now) ** 2)
        posts.append(now - 0.4 * x_at(r) + 0.25 * x_at(r - 1.0))
    rows = np.searchsorted(x.mesh, taus)
    assert np.array_equal(x.mesh[rows], taus)
    err = max(np.max(np.abs(x.values[:, 0] - [x_at(t) for t in x.mesh])),
              np.max(np.abs(x.post_jump_values[rows, 0] - posts[1:])))
    # 0.0 measured; the bound allows four ulps of |x| <= 1
    assert err <= 4 * np.spacing(1.0)


def test_build_mesh_refuses_more_cells_than_it_may_ask_for(monkeypatch):
    # the cell count sigma / step decides before anything is allocated; a
    # subnormal step makes it inf, which math.ceil raised OverflowError on
    from measurefde import mfde
    p = simple_problem(lambda t, psi: 0.0, Integrator.identity())
    for step in (5e-324, 1e-300):
        for build in (build_mesh, solve_picard):
            with pytest.raises(ValueError, match="mesh cells"):
                build(p, step)
    monkeypatch.setattr(mfde, "MAX_CELLS", 10)
    assert len(build_mesh(p, 0.1)) == 11
    with pytest.raises(ValueError, match="mesh cells"):
        build_mesh(p, 0.0999)
