import math
from dataclasses import replace

import numpy as np
import pytest

from _oracles import averaged_rhs
from measurefde.averaging import (AvgConditionError, _original_problem,
                                  check_problem, compare, error_constant,
                                  estimate_constants, linear_periodic_problem,
                                  make_averaged_rule, sine_problem,
                                  solve_averaged, solve_original,
                                  sup_difference)
from measurefde.mfde import HypothesisViolationError, residual
from measurefde.phase_space import RegulatedFn
from measurefde.stieltjes import Integrator

UNIT_CONSTS = {k: 1.0 for k in ("C", "C2", "C3", "C4", "M", "Kp")}


def test_averaged_rhs_time_independent():
    p = linear_periodic_problem(a0=1.0, b0=0.0)
    psi = RegulatedFn.constant(3.0, window_start=-1.0)
    assert float(averaged_rhs(p, psi)[0]) == pytest.approx(3.0, abs=1e-10)


def test_averaged_rhs_pure_sine_vanishes():
    p = sine_problem()
    psi = RegulatedFn.constant(5.0, window_start=-1.0)
    assert float(averaged_rhs(p, psi)[0]) == pytest.approx(0.0, abs=1e-10)


def test_averaged_rhs_one_plus_cos():
    p = linear_periodic_problem(a0=1.0, b0=1.0)
    psi = RegulatedFn.constant(2.0, window_start=-1.0)
    assert float(averaged_rhs(p, psi)[0]) == pytest.approx(2.0, abs=1e-10)


def test_averaged_rule_matches_direct_quadrature():
    p = linear_periodic_problem()
    rule = make_averaged_rule(p, 64)
    psi = RegulatedFn.constant(1.7, window_start=-1.0)
    assert float(rule(psi)[0]) == pytest.approx(float(averaged_rhs(p, psi)[0]),
                                                abs=1e-9)


def test_averaged_rule_with_jump_integrator():
    # h = identity + unit jump at T/2: the atom adds f(T/2, psi) / T
    base = linear_periodic_problem()
    T = base.T
    h = Integrator.with_jumps(lambda s: 1.0, [(T / 2.0, 1.0)])
    p = replace(base, h=h, alpha=T + 1.0)
    rule = make_averaged_rule(p, 64)
    psi = RegulatedFn.constant(1.0, window_start=-1.0)
    expected = (T + (1.0 + math.cos(T / 2.0)) * 1.0) / T
    assert float(rule(psi)[0]) == pytest.approx(expected, abs=1e-9)


# -- solves -------------------------------------------------------------------------


def test_original_zero_rhs():
    p = linear_periodic_problem(a0=0.0, b0=0.0)
    x = solve_original(p, 0.1, step=0.05)
    assert np.allclose(x.values, 1.0, atol=1e-12)


def test_original_constant_rhs():
    p = replace(linear_periodic_problem(a0=0.0, b0=0.0),
                f=lambda s, psi: 3.0, f_vectorized=False)
    eps = 0.1
    x = solve_original(p, eps, step=0.02)
    assert np.allclose(x.values[:, 0], 1.0 + eps * 3.0 * x.mesh, atol=1e-10)


def test_original_linear_closed_form():
    p = linear_periodic_problem(L=0.25)
    eps = 0.05
    x = solve_original(p, eps, step=0.004)
    exact = np.exp(eps * (x.mesh + np.sin(x.mesh)))
    assert np.max(np.abs(x.values[:, 0] - exact)) < 1e-6


def test_averaged_pure_sine_is_frozen():
    p = sine_problem(L=0.5)
    y = solve_averaged(p, 0.1, step=0.02)
    assert np.allclose(y.values, 1.0, atol=1e-9)


def test_averaged_linear_closed_form():
    p = linear_periodic_problem(L=0.25)
    eps = 0.05
    y = solve_averaged(p, eps, step=0.004, n_panels=128)
    assert np.max(np.abs(y.values[:, 0] - np.exp(eps * y.mesh))) < 1e-6


def test_constant_rhs_degenerate_agreement():
    p = replace(linear_periodic_problem(a0=1.0, b0=0.0, L=0.5),
                f=lambda s, psi: 2.0, f_vectorized=False)
    eps = 0.1
    x = solve_original(p, eps, step=0.01)
    y = solve_averaged(p, eps, step=0.01, n_panels=64)
    assert sup_difference(x, y) < 1e-9


def test_eps_domain_enforced():
    p = linear_periodic_problem()
    with pytest.raises(ValueError):
        solve_original(p, 0.5)
    with pytest.raises(ValueError):
        solve_averaged(p, -0.1)


def _dual_problem(**changes):
    # eps^2 term against its own pure-jump integrator
    base = linear_periodic_problem(a0=0.0, b0=0.0, L=0.4)
    h2 = Integrator.pure_jumps([(1.0, 1.0), (3.0, 0.5)])
    return replace(base, f=lambda s, psi: 1.0, f_vectorized=False,
                   g_pert=lambda s, psi, eps: 2.0, h_pert=h2, **changes)


def test_dual_integrator_perturbation():
    # closed-form staircase
    p = _dual_problem()
    eps = 0.2
    x = solve_original(p, eps, step=0.02)
    expected = 1.0 + eps * x.mesh \
        + eps * eps * 2.0 * ((x.mesh > 1.0) * 1.0 + (x.mesh > 3.0) * 0.5)
    assert np.max(np.abs(x.values[:, 0] - expected)) < 1e-8
    # the dual solution is a fixed point of the two-term solution operator
    assert residual(x, _original_problem(p, eps)) <= 10 * p.solver_tol


def test_dual_integrator_checks_monotone_delay():
    # the jumps of h_pert push the delayed time backwards along the solution
    p = _dual_problem(rho_delay=lambda s, psi, eps: s - 2.0 * (psi(0.0) - 1.0))
    with pytest.raises(HypothesisViolationError):
        solve_original(p, 0.2, step=0.02)


# -- constants and the guaranteed bound ----------------------------------------------


def test_error_constant_unit_arithmetic():
    p = replace(linear_periodic_problem(), T=1.0, alpha=1.0, L=1.0, eps0=1.0,
                consts=UNIT_CONSTS)
    assert error_constant(p) == pytest.approx(6.0 * math.exp(4.0), rel=1e-12)


def test_error_constant_vanishes_with_m_and_coupling():
    tiny = dict(UNIT_CONSTS, M=1e-12, C2=1e-12)
    p = replace(linear_periodic_problem(), consts=tiny)
    assert error_constant(p) < 1e-6


def test_error_constant_m_scaling_structure():
    # doubling M doubles both additive terms and leaves the exponent alone
    c1 = dict(UNIT_CONSTS)
    c2 = dict(UNIT_CONSTS, M=2.0)
    p1 = replace(linear_periodic_problem(), T=1.0, alpha=1.0, L=1.0, eps0=1.0,
                 consts=c1)
    p2 = replace(p1, consts=c2)
    j1, j2 = error_constant(p1), error_constant(p2)
    # additive part: K1 + M*(L/T+eps0)*alpha = 2(M + C2 C3 L) + 2 M
    assert j2 / j1 == pytest.approx((2 * (2 + 1) + 2 * 2) / (2 * (1 + 1) + 2 * 1),
                                    rel=1e-12)


def test_error_constant_rejects_nonpositive():
    p = replace(linear_periodic_problem(), consts=dict(UNIT_CONSTS, C3=0.0))
    with pytest.raises(ValueError):
        error_constant(p)


def test_estimate_constants_cover_sampled_data():
    p = replace(linear_periodic_problem(), consts={})
    est = estimate_constants(p, n_samples=20, seed=0)
    assert est["C"] >= 1.9        # true Lipschitz constant is 2
    assert est["M"] > 0 and est["Kp"] == 1.0


# -- structural condition checks ------------------------------------------------------


def test_check_problem_passes_on_corpus():
    for p in (linear_periodic_problem(), sine_problem()):
        results = check_problem(p, n_samples=8, seed=0)
        assert all(ok for _, _, ok in results)


def test_check_problem_rejects_aperiodic_f():
    p = replace(linear_periodic_problem(),
                f=lambda s, psi: s * psi(0.0), f_vectorized=False)
    with pytest.raises(AvgConditionError):
        check_problem(p, n_samples=6, seed=0)


def test_check_problem_rejects_future_delay():
    p = replace(linear_periodic_problem(),
                rho_delay=lambda s, psi, eps: s + 1.0)
    with pytest.raises(AvgConditionError):
        check_problem(p, n_samples=6, seed=0)


# -- comparison ------------------------------------------------------------------------


def test_compare_degenerate_constant_case():
    p = replace(linear_periodic_problem(a0=1.0, b0=0.0, L=0.5),
                f=lambda s, psi: 2.0, f_vectorized=False)
    rep = compare(p, [0.2, 0.1], check=False)
    assert all(err < 1e-8 for err in rep.measured_errors)
    assert math.isnan(rep.slope)        # fit skipped as degenerate
    assert rep.all_passed


def test_compare_two_eps_order_one():
    p = linear_periodic_problem(L=0.5)
    rep = compare(p, [0.2, 0.1])
    assert 0.7 <= rep.slope <= 1.3
    assert rep.all_passed
    for eps, err, bound, ok, _ in rep.rows():
        assert err <= bound
        assert ok


@pytest.mark.parametrize("p", [
    linear_periodic_problem(L=0.5),
    # f = 0 lets the averaged solve converge at once: only the eps^2 term
    # against h_pert can fail to converge
    replace(linear_periodic_problem(L=0.5), f=lambda s, psi: 0.0,
            f_vectorized=False, g_pert=lambda s, psi, eps: 2.0,
            h_pert=Integrator.pure_jumps([(1.0, 1.0), (2.0, 0.5)])),
], ids=["single", "dual"])
def test_compare_records_failures(p):
    p = replace(p, max_iters=1, solver_tol=1e-14)
    rep = compare(p, [0.2], check=False)
    assert rep.failures[0.2].startswith("ConvergenceError")
    assert math.isnan(rep.measured_errors[0])
    assert not rep.all_passed


def test_horizon_monotonicity():
    eps = 0.2
    e_short = sup_difference(
        solve_original(linear_periodic_problem(L=0.5), eps),
        solve_averaged(linear_periodic_problem(L=0.5), eps))
    e_long = sup_difference(
        solve_original(linear_periodic_problem(L=1.0), eps),
        solve_averaged(linear_periodic_problem(L=1.0), eps))
    assert e_long >= e_short - 1e-9


def test_original_with_jumpy_integrator_closed_form():
    # constant forcing against h = identity plus a jump: exact staircase ramp
    base = linear_periodic_problem(a0=0.0, b0=0.0, L=0.6)
    h = Integrator.with_jumps(lambda s: 1.0, [(1.5, 2.0)])
    p = replace(base, f=lambda s, psi: 3.0, f_vectorized=False, h=h,
                alpha=base.T + 0.0)   # alpha unused by the solve itself
    eps = 0.2
    x = solve_original(p, eps, step=0.01)
    expected = 1.0 + eps * 3.0 * (x.mesh + 2.0 * (x.mesh > 1.5))
    assert np.max(np.abs(x.values[:, 0] - expected)) < 1e-10
    i = int(np.argmin(np.abs(x.mesh - 1.5)))
    assert x.post_jump_values[i][0] - x.values[i][0] == eps * 3.0 * 2.0
