import math

import numpy as np
import pytest

from measurefde.esc import (EsParams, EsTrace, FeasibilityError, SimState,
                            constant_delay, lyapunov_diagnostic,
                            prediction_times, simulate, sin5sq_delay,
                            sin5sq_delay_grad, static_map, step, table1_params,
                            tail_metrics, transport_diagnostic)

from _oracles import delayed_output, prediction_time, predictor_integral

ZERO_DELAY = constant_delay(0.0)
ZERO_GRAD = lambda th: 0.0 * np.asarray(th, dtype=float)


def quick_params(**kw):
    defaults = dict(delay_fn=ZERO_DELAY, delay_grad=ZERO_GRAD, t_end=5.0,
                    dt=1e-3, theta_hat0=7.5)
    defaults.update(kw)
    return EsParams(**defaults)


# -- parameter validation -----------------------------------------------------------


def test_params_reject_positive_hessian():
    with pytest.raises(ValueError):
        quick_params(hessian=1.0)


def test_params_reject_zero_amplitude():
    with pytest.raises(ValueError):
        quick_params(a=0.0)


def test_params_reject_coarse_step():
    with pytest.raises(ValueError):
        quick_params(dt=0.05)


def test_params_reject_negative_delay():
    with pytest.raises(ValueError):
        quick_params(delay_fn=lambda th: -0.1 * np.ones_like(np.asarray(th)))


def test_central_difference_fallback():
    p = quick_params(delay_fn=sin5sq_delay, delay_grad=None)
    assert p.delay_grad(0.3) == pytest.approx(sin5sq_delay_grad(0.3), abs=1e-5)


# -- static map and signals -----------------------------------------------------------


def test_static_map_table1_values():
    p = table1_params()
    assert static_map(p, 8.0) == 64.0
    assert static_map(p, 9.0) == 63.5


def test_static_map_vertex():
    p = quick_params(theta_star=2.0, y_star=-1.0, hessian=-3.0)
    assert static_map(p, 2.0) == -1.0


def _frozen_trace(p, theta_const, n=4001):
    times = np.arange(n) * p.dt
    theta = np.full(n, theta_const)
    zeros = np.zeros(n)
    return EsTrace(params=p, times=times, theta=theta, theta_hat=theta.copy(),
                   y=np.full(n, static_map(p, theta_const)), G=zeros.copy(),
                   H_hat=zeros.copy(), U=zeros.copy(), Gamma=zeros.copy(),
                   phi_t=times - float(p.delay_fn(theta_const)),
                   sigma_t=times + float(p.delay_fn(theta_const)),
                   feas_margin=np.ones(n), flags={})


def test_dither_amplitudes_table1():
    p = table1_params()
    assert 8.0 / p.a ** 2 == pytest.approx(200.0)
    assert 2.0 * math.pi / p.omega == pytest.approx(math.pi / 4.0)


def _frozen_output(**kw):
    """simulate() with a negligible probe and no gain: theta stays at theta_hat0."""
    p = quick_params(a=1e-9, k_gain=0.0, t_end=2.0, **kw)
    return p, simulate(p)


def test_delayed_output_no_delay():
    p, tr = _frozen_output(theta_hat0=7.3)
    assert tr.y == pytest.approx(np.full(len(tr.times), static_map(p, 7.3)))


def test_delayed_output_constant_theta_any_delay():
    p, tr = _frozen_output(theta_hat0=8.0, delay_fn=sin5sq_delay,
                           delay_grad=sin5sq_delay_grad)
    d = float(sin5sq_delay(8.0))
    assert d == pytest.approx(0.5 * math.sin(40.0) ** 2)
    assert np.all(tr.phi_t < tr.times)
    assert tr.y == pytest.approx(np.full(len(tr.times), p.y_star))


def test_delay_and_prediction_time_zero_delay():
    p = quick_params(t_end=1.0)
    assert np.array_equal(simulate(p).phi_t, np.arange(1001) * p.dt)
    tr = _frozen_trace(p, 7.0)
    assert prediction_times(p, tr)[1000] == pytest.approx(1.0, abs=1e-9)


def test_prediction_time_constant_delay():
    d0 = 0.3
    p = quick_params(delay_fn=constant_delay(d0))
    tr = _frozen_trace(p, 7.0)
    assert prediction_times(p, tr)[1000] == pytest.approx(1.0 + d0, abs=1e-9)


def test_prediction_time_frozen_state_closed_form():
    p = quick_params(delay_fn=sin5sq_delay, delay_grad=sin5sq_delay_grad)
    theta0 = 7.9
    tr = _frozen_trace(p, theta0)
    d = float(sin5sq_delay(theta0))
    assert prediction_times(p, tr)[2000] == pytest.approx(2.0 + d, abs=1e-9)


def test_oracles_match_simulated_trace(table1_run):
    # the loop's delayed output, cumulative-trapezoid predictor and the
    # vectorised sigma inversion against scalar recomputations from the trace
    p, tr = table1_run["params"], table1_run["trace"]
    idx = np.linspace(1, len(tr.times) - 1, 200).astype(int)
    for i in idx:
        t = float(tr.times[i])
        assert abs(delayed_output(p, tr, t) - tr.y[i]) <= 1e-12
        assert abs(prediction_time(p, tr, t) - tr.sigma_t[i]) <= 1e-9
        assert abs(predictor_integral(p, tr, t) - tr.Gamma[i]) <= 1e-9


# -- predictor integral -----------------------------------------------------------------


def test_predictor_integral_zero_control():
    p = quick_params(delay_fn=constant_delay(0.4))
    tr = _frozen_trace(p, 7.0)
    assert predictor_integral(p, tr, 2.0) == 0.0


def test_predictor_integral_constant_closed_form():
    d0, u0, h0 = 0.4, 0.7, -1.5
    p = quick_params(delay_fn=constant_delay(d0), delay_grad=ZERO_GRAD)
    tr = _frozen_trace(p, 7.0)
    tr.U[:] = u0
    tr.H_hat[:] = h0
    assert predictor_integral(p, tr, 2.0) == pytest.approx(h0 * u0 * d0, rel=1e-9)


def test_predictor_integral_empty_interval():
    p = quick_params()            # zero delay: phi(t) = t
    tr = _frozen_trace(p, 7.0)
    tr.U[:] = 1.0
    assert predictor_integral(p, tr, 2.0) == 0.0


def test_predictor_integral_flags_infeasible_node():
    p = quick_params(delay_fn=constant_delay(0.4),
                     delay_grad=lambda th: np.ones_like(np.asarray(th, float)))
    tr = _frozen_trace(p, 7.0)
    tr.U[:] = 1.0
    tr.H_hat[:] = 2.0             # 1 - 2*1*1 < 0
    with pytest.raises(FeasibilityError) as err:
        predictor_integral(p, tr, 2.0)
    assert err.value.time <= 2.0


# -- stepping ------------------------------------------------------------------------


def test_filter_decay_without_gain():
    p = quick_params(k_gain=0.0, u0=1.0, t_end=2.0)
    tr = simulate(p)
    expect = np.exp(-p.c * tr.times)
    assert np.max(np.abs(tr.U - expect)) < 1e-9


def test_equilibrium_with_tiny_probe():
    p = quick_params(a=1e-9, theta_hat0=8.0, t_end=1.0)
    tr = simulate(p)
    assert np.max(np.abs(tr.theta - 8.0)) < 1e-8
    assert np.max(np.abs(tr.y - p.y_star)) < 1e-12
    assert np.max(np.abs(tr.G)) < 1e-6


def test_first_step_probe_value():
    p = quick_params(theta_hat0=0.0)
    state = SimState(p)
    step(p, state)
    step(p, state)
    assert state.theta[1] == pytest.approx(p.a * math.sin(p.omega * p.dt), abs=1e-15)


def test_simulate_deterministic():
    p = table1_params(t_end=3.0)
    t1 = simulate(p)
    t2 = simulate(p)
    for name in ("theta", "y", "G", "H_hat", "U", "Gamma", "sigma_t"):
        assert np.array_equal(getattr(t1, name), getattr(t2, name))


def test_trace_time_order_invariants():
    p = table1_params(t_end=5.0)
    tr = simulate(p)
    assert np.all(tr.phi_t <= tr.times + 1e-12)
    assert np.all(tr.sigma_t >= tr.times - 1e-12)
    d = tr.times - tr.phi_t
    pos = d > 1e-12
    assert np.all(tr.sigma_t[pos] - tr.times[pos] > 0)


def test_phi_sigma_inversion(table1_run):
    p, tr = table1_run["params"], table1_run["trace"]
    th_sigma = tr.theta_at(tr.sigma_t)
    phi_of_sigma = tr.sigma_t - np.asarray(p.delay_fn(th_sigma), dtype=float)
    assert np.max(np.abs(phi_of_sigma - tr.times)) <= 1e-9


def test_feasibility_margin_positive_on_stock_run(table1_run):
    tr = table1_run["trace"]
    assert float(np.min(tr.feas_margin)) > 0.0


def test_feasibility_abort_far_start():
    p = table1_params(t_end=20.0, theta_hat0=0.0)
    with pytest.raises(FeasibilityError) as err:
        simulate(p)
    assert err.value.trace is not None
    assert len(err.value.trace.times) > 100     # partial trace retained


def test_divergence_flag_instead_of_error():
    # without the predictor, a blow-up truncates and flags
    p = quick_params(delay_fn=constant_delay(2.0), predictor_on=False,
                     k_gain=30.0, c=5.0, theta_hat0=4.0, t_end=40.0,
                     divergence_cap=1e4)
    tr = simulate(p)
    assert tr.flags["diverged"]
    assert tr.flags["abort_reason"].startswith("divergence")
    assert len(tr.times) < 40001


def test_dither_period_autocorrelation(table1_run):
    tr = table1_run["trace"]
    p = table1_run["params"]
    s = tr.theta - tr.theta_hat              # the injected probe a sin(omega t)
    seg = s[: 40000]
    lags = np.arange(600, 1000)
    ac = [float(np.dot(seg[:-lag], seg[lag:])) for lag in lags]
    best = lags[int(np.argmax(ac))]
    assert abs(best * p.dt - 2.0 * math.pi / p.omega) <= p.dt


def test_assumption_rate_warning_flag(table1_run):
    # the stock dither drives |dD/dt| above one on a large fraction of steps
    flags = table1_run["trace"].flags
    assert flags["delay_rate_warning"]
    assert 0.0 < flags["delay_rate_exceeded_fraction"] < 1.0


# -- demodulation identities -------------------------------------------------------


def demod_means(theta_tilde: float):
    """One-period means of the raw products for a frozen estimate, no delay.

    The products oscillate with amplitude of order y*/a^2, so the mean is
    taken on a uniform grid spanning exactly one period, where the
    trapezoid rule is spectrally exact for trigonometric content.
    """
    p = quick_params(theta_hat0=8.0 + theta_tilde, k_gain=0.0, u0=0.0,
                     t_end=4.0, predictor_on=False)
    tr = simulate(p)
    period = 2.0 * math.pi / p.omega
    lo = 2.0          # past the washout transient
    tt = np.linspace(lo, lo + period, 4097)
    y = np.interp(tt, tr.times, tr.y)
    m_sig = (2.0 / p.a) * np.sin(p.omega * tt)
    n_sig = -(8.0 / p.a ** 2) * np.cos(2.0 * p.omega * tt)
    mean_ny = np.trapezoid(n_sig * y, tt) / period
    mean_my = np.trapezoid(m_sig * y, tt) / period
    return mean_ny, mean_my, p


def test_hessian_recovery_one_period():
    mean_ny, _, p = demod_means(0.5)
    assert abs(mean_ny - p.hessian) <= 0.01 * abs(p.hessian)


def test_gradient_recovery_one_period():
    theta_tilde = 0.5
    _, mean_my, p = demod_means(theta_tilde)
    target = p.hessian * theta_tilde
    assert abs(mean_my - target) <= 0.01 * abs(target)


def test_estimate_doubles_with_probe_amplitude():
    # classical no-delay loop converges to a probe-sized neighborhood and the
    # tail theta error scales roughly with the probe amplitude
    outs = []
    for a in (0.1, 0.2):
        p = quick_params(a=a, theta_hat0=7.0, t_end=30.0, predictor_on=False)
        tr = simulate(p)
        err = tail_metrics(tr, 25.0)["theta_err"]
        assert err <= a + 1.0 / p.omega + 0.05
        outs.append(err)
    ratio = outs[1] / outs[0]
    assert 1.5 <= ratio <= 3.0


# -- transport view and energy diagnostic ---------------------------------------------


def test_transport_view_zero_delay_is_flat():
    p = quick_params(theta_hat0=7.0, t_end=2.0)
    tr = simulate(p)
    diag = transport_diagnostic(p, tr, n_x=7)
    spread = np.max(diag.alpha, axis=1) - np.min(diag.alpha, axis=1)
    assert np.max(spread) < 1e-9
    assert diag.boundary_max_err < 1e-9


def test_transport_view_constant_state():
    p = quick_params(delay_fn=sin5sq_delay, delay_grad=sin5sq_delay_grad,
                     a=1e-12, theta_hat0=8.0, t_end=2.0, k_gain=0.0)
    tr = simulate(p)
    diag = transport_diagnostic(p, tr, n_x=9)
    assert np.max(np.abs(diag.alpha - 8.0)) < 1e-9


def test_transport_boundary_identities(table1_run):
    diag = transport_diagnostic(table1_run["params"], table1_run["trace"], n_x=21)
    assert diag.boundary_max_err <= 1e-6


def test_lyapunov_zero_state():
    p = quick_params(a=1e-9, theta_hat0=8.0, t_end=2.0, k_gain=0.0)
    tr = simulate(p)
    _, v, ok = lyapunov_diagnostic(p, tr)
    assert np.max(v) < 1e-12
    assert ok


def test_lyapunov_reduces_to_error_energy():
    # decaying estimate, no control: V collapses to the squared average error
    p = quick_params(a=1e-9, theta_hat0=8.0, t_end=4.0, k_gain=0.0)
    tr = simulate(p)
    tr.theta_hat = 8.0 + np.exp(-tr.times)      # synthetic decaying error
    tr.theta = tr.theta_hat + (tr.theta - 8.0)
    ts, v, ok = lyapunov_diagnostic(p, tr)
    assert ok
    tail = v[len(v) // 2:]
    assert np.all(np.diff(tail) <= 1e-12)


def test_lyapunov_trend_on_stock_run(table1_run):
    _, v, ok = lyapunov_diagnostic(table1_run["params"], table1_run["trace"])
    assert ok


def test_tail_metrics_requires_samples():
    p = quick_params(t_end=1.0)
    tr = simulate(p)
    with pytest.raises(ValueError):
        tail_metrics(tr, 5.0)
