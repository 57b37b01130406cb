import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import averaged_rhs, per_row
from measurefde import cli
from measurefde.averaging import (AvgConditionError, _one_row, _original_problem,
                                  _random_extension, _slope,
                                  check_problem, compare, error_constant,
                                  estimate_constants, history_gap_norm,
                                  linear_periodic_problem,
                                  make_averaged_rule, sine_problem,
                                  solve_averaged, solve_original,
                                  sup_difference)
from measurefde.mfde import HypothesisViolationError, residual
from measurefde.phase_space import (EXP_WEIGHT, UNIFORM_WEIGHT, InfiniteNormError,
                                    RegulatedFn, phase_norm)
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
    assert float(rule(_one_row(psi, None), 1)[0, 0]) == pytest.approx(
        float(averaged_rhs(p, psi)[0]), abs=1e-9)


def test_averaged_rule_with_jump_integrator():
    # h = identity + unit jump at T/2: the atom adds f(T/2, psi) / T
    base = linear_periodic_problem()
    T = base.T
    h = Integrator.with_jumps(lambda s: 1.0, [(T / 2.0, 1.0)])
    p = replace(base, h=h, alpha=T + 1.0)
    rule = make_averaged_rule(p, 64)
    psi = RegulatedFn.constant(1.0, window_start=-1.0)
    expected = (T + (1.0 + math.cos(T / 2.0)) * 1.0) / T
    assert float(rule(_one_row(psi, None), 1)[0, 0]) == pytest.approx(expected, abs=1e-9)


# -- solves -------------------------------------------------------------------------


@pytest.mark.parametrize("averaged", [False, True])
def test_batched_solves_match_per_row_oracle(averaged):
    # h jumps at T/4, so the original solve has an impulse and the averaged
    # rule adds an atom to its repeated rows; per_row calls f and rho_delay
    # once per row of every batch
    base = linear_periodic_problem(L=0.5)
    p = replace(base, h=Integrator.with_jumps(lambda s: 1.0, [(base.T / 4.0, 1.0)]),
                alpha=base.T + 1.0)
    rows = replace(p, f=per_row(p.f), rho_delay=per_row(p.rho_delay))
    if averaged:
        x, y = (solve_averaged(q, 0.2, step=0.05, n_panels=8) for q in (p, rows))
    else:
        x, y = (solve_original(q, 0.2, step=0.05) for q in (p, rows))
        assert (x.post_jump_values - x.values).max() > 0.1
    assert np.array_equal(x.mesh, y.mesh)
    assert x.sup_distance(y) <= 1e-12 * np.abs(y.values).max()


def test_original_zero_rhs():
    p = linear_periodic_problem(a0=0.0, b0=0.0)
    x = solve_original(p, 0.1, step=0.05)
    assert np.allclose(x.values, 1.0, atol=1e-12)


def test_original_constant_rhs():
    p = replace(linear_periodic_problem(a0=0.0, b0=0.0),
                f=lambda s, psi: 3.0)
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
                f=lambda s, psi: 2.0)
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


# h(t) = t plus the jumps before t; the horizon L / eps = 4 holds both
JUMPY_H = Integrator.with_jumps(1.0, [(1.0, 1.0), (3.0, 0.5)])


def _pert_problem(**changes):
    # f = 1 and the eps^2 term g_pert = 2, both integrated against JUMPY_H
    base = linear_periodic_problem(a0=0.0, b0=0.0, L=0.8)
    return replace(base, **{"f": lambda s, psi: 1.0, "h": JUMPY_H,
                             "g_pert": lambda s, psi, eps: 2.0, **changes})


def test_perturbation_integrated_against_h():
    # closed-form staircase x = 1 + (eps + 2 eps^2) h(t), on both sides of
    # each jump
    p = _pert_problem()
    eps = 0.2
    x = solve_original(p, eps, step=0.02)
    rate = eps + 2.0 * eps * eps
    left = x.mesh + (x.mesh > 1.0) * 1.0 + (x.mesh > 3.0) * 0.5
    right = x.mesh + (x.mesh >= 1.0) * 1.0 + (x.mesh >= 3.0) * 0.5
    assert np.max(np.abs(x.values[:, 0] - (1.0 + rate * left))) < 1e-8
    assert np.max(np.abs(x.post_jump_values[:, 0] - (1.0 + rate * right))) < 1e-8
    assert residual(x, _original_problem(p, eps)) <= 10 * p.solver_tol


def test_perturbation_checks_monotone_delay():
    # with f = 0, the jumps of the eps^2 term alone push the delayed time
    # backwards along the solution
    p = _pert_problem(f=lambda s, psi: 0.0,
                      rho_delay=lambda s, psi, eps: s - 2.0 * (psi(0.0) - 1.0))
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


def test_gap_norm_reads_the_tail_as_phase_norm():
    # histories equal on their window whose tails differ: under exp(theta)
    # the weighted distance is infinite, under the flat weight it is 1
    a = RegulatedFn.constant(1.0, window_start=-1.0, tail_value=1.0)
    b = RegulatedFn.constant(1.0, window_start=-1.0, tail_value=0.0)
    diff = RegulatedFn.constant(0.0, window_start=-1.0, tail_value=1.0)
    for norm in (lambda: history_gap_norm(a, b, EXP_WEIGHT),
                 lambda: phase_norm(diff, EXP_WEIGHT)):
        with pytest.raises(InfiniteNormError):
            norm()
    assert history_gap_norm(a, b, UNIFORM_WEIGHT) == phase_norm(diff, UNIFORM_WEIGHT) == 1.0


def test_estimate_constants_kp_is_the_weights_shift_growth():
    for weight, kp in ((EXP_WEIGHT, math.e), (UNIFORM_WEIGHT, 1.0)):
        p = replace(linear_periodic_problem(), consts={}, weight=weight)
        assert estimate_constants(p, n_samples=2, seed=0)["Kp"] == kp


def state_lagged(s, psi, eps):
    """A delay that reads the history, so that the sampled shift pairs of
    the checks see it move."""
    return s - 0.1 * eps * np.tanh(psi(0.0) ** 2)


def test_sampled_checks_keep_their_draws():
    # exact values of the checks at seed 0, recorded before the shift pairs
    # of check_problem and estimate_constants were read through one helper:
    # they hold only if the draws keep their order
    base = linear_periodic_problem()
    lagged = replace(base, rho_delay=state_lagged)
    common = [("f periodicity", 8.881784197001252e-16, True),
              ("h period increment", 1.7763568394002505e-15, True),
              ("delay below current time", 0.0, True)]
    ratio = "delay shift ratio vs eps*C3 (report only)"
    assert check_problem(base, seed=0) == common + [(ratio, 0.0, True)]
    assert check_problem(lagged, seed=0) == common + [(ratio, 1.3267332350822143, False)]
    est = {"M": 5.790928432483373, "C": 2.6588373946380335, "C2": 0.8700523531026046,
           "C3": 1e-06, "C4": 1e-06, "Kp": 1.0}
    assert estimate_constants(replace(base, consts={}), n_samples=20, seed=0) == est
    est.update(C3=0.04763555402725621, C4=0.01772285230524015)
    assert estimate_constants(replace(lagged, consts={}), n_samples=20, seed=0) == est


def test_random_extension_starts_from_phi0_at_zero():
    # the Gaussian steps start after the node at t0, so C2 and C3 are
    # sampled along an extension that does not jump right after t0
    p = linear_periodic_problem()
    x = _random_extension(p, random.Random(0), 65)
    phi_at_0 = p.phi0.value_at_zero()
    assert np.array_equal(x.values[0], phi_at_0)
    assert np.array_equal(x.value_at(0.0), phi_at_0)
    assert np.abs(x.value_at(1e-9) - phi_at_0).max() <= 1e-6
    assert np.abs(x.values[1] - phi_at_0).max() > 0.0


# -- structural condition checks ------------------------------------------------------


def test_check_problem_passes_on_corpus():
    for p in (linear_periodic_problem(), sine_problem()):
        results = check_problem(p, n_samples=8, seed=0)
        assert all(ok for _, _, ok in results)


def test_sampled_checks_draw_on_phi0_window_for_unbounded_depth():
    # history_depth=None: random histories span phi0's window
    p = replace(linear_periodic_problem(L=0.5), history_depth=None)
    report = compare(p, [0.2, 0.1])
    assert list(report.rows()) == list(compare(p, [0.2, 0.1], check=False).rows())
    assert report.all_passed
    assert all(v > 0 for v in estimate_constants(p, n_samples=4).values())


def test_sampled_checks_call_f_in_the_batch_convention():
    # f written for the solver's batch convention alone: len(s) fails on a
    # float time, so the sampled checks must pass arrays and batch views too
    p = replace(linear_periodic_problem(L=0.5), f=lambda s, psi: np.full(len(s), 2.0))
    report = compare(p, [0.2, 0.1])
    assert list(report.rows()) == list(compare(p, [0.2, 0.1], check=False).rows())
    assert max(report.measured_errors) < 1e-12 and report.all_passed
    est = estimate_constants(p, n_samples=4)
    assert est["M"] == pytest.approx(2.0 * 1.5 + 1e-6)
    assert est["C"] == est["C2"] == 1e-6    # f ignores its history


def test_check_problem_rejects_aperiodic_f():
    p = replace(linear_periodic_problem(),
                f=lambda s, psi: s * psi(0.0))
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
                f=lambda s, psi: 2.0)
    rep = compare(p, [0.2, 0.1], check=False)
    assert all(err < 1e-8 for err in rep.measured_errors)
    assert math.isnan(rep.slope)        # fit skipped as degenerate
    assert rep.all_passed


def test_compare_repeated_eps_fits_no_slope():
    # the same eps twice is one point of the eps-order fit, which a line
    # does not determine: nan, and no 0 / 0 in the closed-form slope
    rep = compare(linear_periodic_problem(L=0.5), [0.1, 0.1])
    assert rep.measured_errors[0] == rep.measured_errors[1] > 1e-12
    assert math.isnan(rep.slope)
    assert rep.all_passed


def test_compare_two_eps_order_one():
    p = linear_periodic_problem(L=0.5)
    rep = compare(p, [0.2, 0.1])
    assert 0.7 <= rep.slope <= 1.3
    assert rep.all_passed
    for eps, err, bound, ok, _ in rep.rows():
        assert err <= bound
        assert ok


def test_compare_estimates_a_missing_constant():
    # C3 left out: compare fills it from estimate_constants and says so
    p = linear_periodic_problem(L=0.5)
    consts = {k: v for k, v in p.consts.items() if k != "C3"}
    rep = compare(replace(p, consts=consts), [0.2, 0.1])
    assert rep.estimate_based
    c3 = estimate_constants(replace(p, consts=consts))["C3"]
    assert rep.theoretical_J == error_constant(replace(p, consts={**consts, "C3": c3}))
    assert not compare(p, [0.2, 0.1]).estimate_based


distinct_xs = st.lists(st.integers(-1000, 1000), min_size=2, max_size=8, unique=True)
finite = st.floats(-1e3, 1e3, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(distinct_xs, st.data())
def test_slope_matches_polyfit(xs, data):
    x = np.array(xs) / 64.0
    y = np.array(data.draw(st.lists(finite, min_size=len(xs), max_size=len(xs))))
    # the slope's own scale, for fits whose slope cancels to about zero
    scale = (np.abs(y).max() + 1.0) / np.ptp(x)
    assert math.isclose(_slope(x, y), np.polyfit(x, y, 1)[0],
                        rel_tol=1e-12, abs_tol=1e-12 * scale)


@settings(max_examples=200, deadline=None)
@given(distinct_xs, finite, finite)
def test_slope_recovers_exact_lines(xs, m, c):
    x = np.array(xs) / 64.0
    scale = abs(m) + (abs(c) + 1.0) / np.ptp(x)
    assert math.isclose(_slope(x, m * x + c), m, rel_tol=1e-12, abs_tol=1e-12 * scale)


def test_avg_path_fits_its_slope_without_lapack(tmp_path, monkeypatch, capsys):
    def lapack(*args, **kwargs):
        raise AssertionError("the eps-order fit called a LAPACK least-squares solver")

    monkeypatch.setattr(np, "polyfit", lapack)
    monkeypatch.setattr(np.linalg, "lstsq", lapack)
    rep = compare(linear_periodic_problem(L=0.5), [0.2, 0.1])
    assert 0.7 <= rep.slope <= 1.3
    monkeypatch.chdir(tmp_path)
    assert cli.main(["avg", "--case", "linear", "--eps", "0.2,0.1", "--L", "0.5"]) == 0


@pytest.mark.parametrize("p", [
    linear_periodic_problem(L=0.5),
    # f = 0 lets the averaged solve converge at once: only the eps^2 term
    # against h can fail to converge
    replace(linear_periodic_problem(L=0.5), f=lambda s, psi: 0.0,
            h=Integrator.with_jumps(1.0, [(1.0, 1.0), (2.0, 0.5)]),
            g_pert=lambda s, psi, eps: 2.0),
], ids=["single", "perturbed"])
def test_compare_records_failures(p):
    p = replace(p, max_iters=1, solver_tol=1e-14)
    rep = compare(p, [0.2], check=False)
    assert rep.failures[0.2].startswith("ConvergenceError")
    assert math.isnan(rep.measured_errors[0])
    assert not rep.all_passed


def test_compare_propagates_programming_errors():
    # only the solver's typed failures become failure rows
    def f(s, psi):
        raise TypeError("not a solver failure")

    p = replace(linear_periodic_problem(L=0.5), f=f)
    with pytest.raises(TypeError, match="not a solver failure"):
        compare(p, [0.2], check=False)


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
    p = replace(base, f=lambda s, psi: 3.0, h=h,
                alpha=base.T + 0.0)   # alpha unused by the solve itself
    eps = 0.2
    x = solve_original(p, eps, step=0.01)
    expected = 1.0 + eps * 3.0 * (x.mesh + 2.0 * (x.mesh > 1.5))
    assert np.max(np.abs(x.values[:, 0] - expected)) < 1e-10
    i = int(np.argmin(np.abs(x.mesh - 1.5)))
    assert x.post_jump_values[i][0] - x.values[i][0] == eps * 3.0 * 2.0
