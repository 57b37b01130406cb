import math

import numpy as np
import pytest
from scipy.special import erfc

from _oracles import march_heun
from measurefde.mfde import (ConvergenceError, HypothesisViolationError,
                             MfdeProblem, ProblemBounds, check_bounds,
                             delayed_time_series, gamma_apply,
                             initial_trajectory, build_mesh, residual,
                             solve_picard, tanh_kernel_problem)
from measurefde.phase_space import RegulatedFn
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
    p = MfdeProblem(f=lambda t, psi: rotate @ np.atleast_1d(psi.eval(0.0)),
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
    hist = x.history_at(0.5, p.history_depth)
    r = p.rho_delay(0.5, hist)
    expected = float(p.f(0.5, x.history_at(r, p.history_depth))) * 0.4
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
