"""Extremum-seeking simulator for a quadratic map under state-dependent output delay.

The plant output is y(t) = Q(theta(t - D(theta(t)))) for a locally quadratic
map Q with unknown maximizer.  A sinusoidal probe is injected, the delayed
output is demodulated into gradient and curvature estimates, and a
predictor-feedback term compensates the state-dependent delay through the
integral of U / (1 - H_hat * grad D(G) * U) over the delay interval.  The
delay is realized by direct history lookup; the transport view over the unit
interval is reconstructed afterwards as a diagnostic.

Demodulated estimates: the raw products M*y and N*y carry oscillations at
the dither frequency proportional to the map's offset and curvature.  The
simulator removes the slowly varying output component with a one-pole
washout before demodulating and passes the products through a one-period
moving average, which realizes their period-average values (the quantities
the predictor theory uses) while leaving both one-period mean identities
intact.  Setting washout = 0 disables both stages and uses the raw products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Smallest predictor denominator 1 - H_hat * grad D(G) * U the loop accepts.
DENOM_FLOOR = 1e-6


class FeasibilityError(RuntimeError):
    """Predictor denominator fell to or below the floor."""

    def __init__(self, message: str, time: float, trace: "EsTrace | None" = None):
        super().__init__(message)
        self.time = time
        self.trace = trace


class AssumptionViolationError(RuntimeError):
    """The delayed-time inversion could not bracket a solution."""


def sin5sq_delay(theta):
    """Half of sin(5 theta)^2, the stock state-dependent delay."""
    s = np.sin(5.0 * np.asarray(theta, dtype=float))
    return 0.5 * s * s


def sin5sq_delay_grad(theta):
    th = np.asarray(theta, dtype=float)
    return 5.0 * np.sin(5.0 * th) * np.cos(5.0 * th)


def constant_delay(d0: float):
    def fn(theta):
        return d0 * np.ones_like(np.asarray(theta, dtype=float))
    return fn


def central_diff_grad(delay_fn, h: float = 1e-6):
    def grad(theta):
        return (delay_fn(theta + h) - delay_fn(theta - h)) / (2.0 * h)
    return grad


@dataclass(frozen=True)
class EsParams:
    """Controller and map parameters plus solver settings.

    hessian must be negative (maximum seeking), the probe amplitude nonzero,
    and omega * dt small enough to resolve the dither.
    """

    k_gain: float = 0.2
    c: float = 2.0
    a: float = 0.2
    omega: float = 8.0
    theta_star: float = 8.0
    y_star: float = 64.0
    hessian: float = -1.0
    delay_fn: Callable = sin5sq_delay
    delay_grad: Callable | None = sin5sq_delay_grad
    theta_hat0: float = 0.0
    dt: float = 1e-3
    t_end: float = 200.0
    predictor_on: bool = True
    washout: float = 1.0              # rad/s; 0 disables washout and averaging
    u0: float = 0.0
    divergence_cap: float = 1e6

    def __post_init__(self):
        if self.hessian >= 0:
            raise ValueError("hessian must be negative (maximum seeking)")
        if self.a == 0:
            raise ValueError("probe amplitude must be nonzero")
        if self.omega * self.dt > 0.05:
            raise ValueError("omega * dt must stay at or below 0.05")
        probe = np.linspace(-20.0, 20.0, 801)
        if np.any(np.asarray(self.delay_fn(probe)) < -1e-12):
            raise ValueError("delay_fn must be nonnegative")
        if self.delay_grad is None:
            object.__setattr__(self, "delay_grad", central_diff_grad(self.delay_fn))


def table1_params(**overrides) -> EsParams:
    """Stock parameter set: gain 0.2, filter 2 rad/s, probe 0.2 at 8 rad/s,
    maximizer 8 with peak 64, curvature -1, delay half sin(5 theta)^2.

    The initial estimate starts at 7.5: the predictor feasibility condition
    bounds the usable estimate error for this delay shape (the denominator
    1 - H_hat * grad D * U crosses zero once the estimate error reaches one
    unit or so), so the default sits inside that basin while still crossing
    a substantial delay variation on its way to the maximizer.
    """
    defaults = dict(k_gain=0.2, c=2.0, a=0.2, omega=8.0, theta_star=8.0,
                    y_star=64.0, hessian=-1.0, delay_fn=sin5sq_delay,
                    delay_grad=sin5sq_delay_grad, theta_hat0=7.5,
                    dt=1e-3, t_end=200.0, predictor_on=True)
    defaults.update(overrides)
    return EsParams(**defaults)


@dataclass
class EsTrace:
    params: EsParams
    times: np.ndarray
    theta: np.ndarray
    theta_hat: np.ndarray
    y: np.ndarray
    G: np.ndarray
    H_hat: np.ndarray
    U: np.ndarray
    Gamma: np.ndarray
    phi_t: np.ndarray          # delayed time t - D(theta(t))
    sigma_t: np.ndarray        # prediction time, inverse of phi
    feas_margin: np.ndarray    # 1 - H_hat * grad D(G) * U
    flags: dict = field(default_factory=dict)

    def theta_at(self, t):
        """theta(t) with the probing extension theta_hat0 + a sin(omega t)
        for t <= 0 and a frozen value beyond the end of the trace."""
        p = self.params
        tq = np.asarray(t, dtype=float)
        scalar = tq.ndim == 0
        tq = np.atleast_1d(tq)
        out = np.empty_like(tq)
        past = tq <= 0.0
        out[past] = p.theta_hat0 + p.a * np.sin(p.omega * tq[past])
        live = ~past
        out[live] = np.interp(tq[live], self.times, self.theta)
        return float(out[0]) if scalar else out


def static_map(p: EsParams, theta):
    """Quadratic map value y* + (H/2)(theta - theta*)^2."""
    th = np.asarray(theta, dtype=float)
    d = th - p.theta_star
    res = p.y_star + 0.5 * p.hessian * d * d
    return float(res) if res.ndim == 0 else res


# -- the simulation loop -------------------------------------------------------


def _period_steps(p: EsParams) -> int:
    """Steps in one dither period, the moving-average window length."""
    return max(1, int(round(2.0 * math.pi / (p.omega * p.dt))))


class SimState:
    """Preallocated per-run buffers, advanced in place by step()."""

    __slots__ = ("p", "n", "n_steps", "t", "theta_hat", "U", "y_bar",
                 "times", "theta", "y", "G", "H_hat", "U_arr", "Gamma",
                 "phi", "margin", "cum_g", "cum_h", "integrand", "ctrap",
                 "m_window", "aborted", "abort_reason")

    def __init__(self, p: EsParams):
        self.p = p
        self.n = 0
        self.n_steps = int(round(p.t_end / p.dt))
        n1 = self.n_steps + 1
        self.t = 0.0
        self.theta_hat = p.theta_hat0
        self.U = p.u0
        self.y_bar = None
        self.times = np.arange(n1) * p.dt
        for name in ("theta", "y", "G", "H_hat", "U_arr", "Gamma",
                     "phi", "margin", "integrand", "ctrap"):
            setattr(self, name, np.zeros(n1))
        self.cum_g = np.zeros(n1 + 1)
        self.cum_h = np.zeros(n1 + 1)
        self.m_window = _period_steps(p)
        self.aborted = False
        self.abort_reason = ""

    # retained theta_hat history is implicit: theta array carries it


def _theta_delayed(state: SimState, tau: float) -> float:
    p = state.p
    if tau <= 0.0:
        return p.theta_hat0 + p.a * math.sin(p.omega * tau)
    j = int(tau / p.dt)
    if j >= state.n:
        return float(state.theta[state.n])
    frac = tau / p.dt - j
    return float(state.theta[j] + frac * (state.theta[j + 1] - state.theta[j]))


def step(p: EsParams, state: SimState) -> SimState:
    """Advance the closed loop by one fixed step.

    Computes the probe, delayed output, demodulated estimates, predictor
    term and feasibility margin at the current time, then advances the
    filter state and the estimate with a fourth-order explicit rule holding
    the bracket k * (G + Gamma) over the step.
    """
    n = state.n
    t = n * p.dt
    state.t = t
    delay_fn = p.delay_fn
    grad = p.delay_grad

    theta = state.theta_hat + p.a * math.sin(p.omega * t)
    state.theta[n] = theta
    d = float(delay_fn(theta))
    phi = t - d
    state.phi[n] = phi
    y = p.y_star + 0.5 * p.hessian * (_theta_delayed(state, phi) - p.theta_star) ** 2
    state.y[n] = y

    if state.y_bar is None:
        state.y_bar = y
    if p.washout > 0.0:
        y_w = y - state.y_bar
        decay = math.exp(-p.washout * p.dt)
        state.y_bar = y + (state.y_bar - y) * decay
    else:
        y_w = y

    td = phi if p.predictor_on else t
    m_sig = (2.0 / p.a) * math.sin(p.omega * td)
    n_sig = -(8.0 / (p.a * p.a)) * math.cos(2.0 * p.omega * td)
    g_raw = m_sig * y_w
    h_raw = n_sig * y_w
    state.cum_g[n + 1] = state.cum_g[n] + g_raw
    state.cum_h[n + 1] = state.cum_h[n] + h_raw
    if p.washout > 0.0:
        m = state.m_window
        lo = n + 1 - m if n + 1 >= m else 0
        g_est = (state.cum_g[n + 1] - state.cum_g[lo]) / m
        h_est = (state.cum_h[n + 1] - state.cum_h[lo]) / m
    else:
        g_est, h_est = g_raw, h_raw
    state.G[n] = g_est
    state.H_hat[n] = h_est

    u = state.U
    state.U_arr[n] = u
    dn = 1.0 - h_est * float(grad(g_est)) * u
    state.margin[n] = dn

    gamma = 0.0
    if p.predictor_on:
        if dn <= DENOM_FLOOR:
            state.aborted = True
            state.abort_reason = (f"feasibility: denominator {dn:.3e} "
                                  f"at t={t:.6f}")
            return state
        state.integrand[n] = u / dn
        if n > 0:
            state.ctrap[n] = state.ctrap[n - 1] + 0.5 * p.dt * (
                state.integrand[n - 1] + state.integrand[n])
        if n > 0 and phi < t:
            lo_t = max(phi, 0.0)
            j = min(int(lo_t / p.dt), n - 1)
            frac = lo_t / p.dt - j
            i_lo = state.integrand[j] + frac * (state.integrand[j + 1]
                                                - state.integrand[j])
            partial = (state.times[j + 1] - lo_t) * 0.5 * (
                i_lo + state.integrand[j + 1])
            gamma = h_est * (state.ctrap[n] - state.ctrap[j + 1] + partial)
    state.Gamma[n] = gamma

    if n >= state.n_steps:
        state.n = n + 1
        return state

    # advance [U, theta_hat] one step of classic RK4 with the bracket held
    w = p.k_gain * (g_est + gamma)
    c = p.c
    dt = p.dt
    u0 = state.U
    h0 = state.theta_hat
    k1u = c * (w - u0)
    k1h = u0
    u_mid = u0 + 0.5 * dt * k1u
    k2u = c * (w - u_mid)
    k2h = u_mid
    u_mid2 = u0 + 0.5 * dt * k2u
    k3u = c * (w - u_mid2)
    k3h = u_mid2
    u_end = u0 + dt * k3u
    k4u = c * (w - u_end)
    k4h = u_end
    state.U = u0 + dt / 6.0 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
    state.theta_hat = h0 + dt / 6.0 * (k1h + 2.0 * k2h + 2.0 * k3h + k4h)
    state.n = n + 1

    if not math.isfinite(state.theta_hat) or abs(state.theta_hat) > p.divergence_cap:
        state.aborted = True
        state.abort_reason = f"divergence: |theta_hat| at t={t:.6f}"
    return state


def simulate(p: EsParams) -> EsTrace:
    """Run the closed loop over [0, t_end] and return the full trace.

    A feasibility violation raises FeasibilityError carrying the partial
    trace; divergence of the estimate (predictor off) truncates the trace
    and sets flags['diverged'] instead of raising.
    """
    state = SimState(p)
    while state.n <= state.n_steps and not state.aborted:
        step(p, state)
    n_have = state.n if not state.aborted else max(state.n, 1)
    trace = _finalize(p, state, n_have)
    if state.aborted and state.abort_reason.startswith("feasibility"):
        raise FeasibilityError(state.abort_reason,
                               time=state.t, trace=trace)
    return trace


def _finalize(p: EsParams, state: SimState, n_have: int) -> EsTrace:
    sl = slice(0, n_have)
    times = state.times[sl]
    d_vals = times - state.phi[sl]
    flags: dict = {}
    if state.aborted:
        flags["diverged"] = state.abort_reason.startswith("divergence")
        flags["abort_reason"] = state.abort_reason
    if n_have > 1:
        rate = np.diff(d_vals) / p.dt
        frac = float(np.mean(np.abs(rate) >= 1.0))
        flags["delay_rate_exceeded_fraction"] = frac
        flags["delay_rate_warning"] = bool(frac > 0.0)
    trace = EsTrace(params=p, times=times.copy(), theta=state.theta[sl].copy(),
                    theta_hat=state.theta[sl] - p.a * np.sin(p.omega * times),
                    y=state.y[sl].copy(), G=state.G[sl].copy(),
                    H_hat=state.H_hat[sl].copy(), U=state.U_arr[sl].copy(),
                    Gamma=state.Gamma[sl].copy(), phi_t=state.phi[sl].copy(),
                    sigma_t=np.full(n_have, np.nan), feas_margin=state.margin[sl].copy(),
                    flags=flags)
    trace.sigma_t = prediction_times(p, trace)
    return trace


def prediction_times(p: EsParams, trace: EsTrace, tol: float = 1e-10,
                     max_expand: int = 8) -> np.ndarray:
    """Vectorised inversion of the delayed time over the whole trace.

    theta is extended past the end of the trace by its final value, which
    keeps the bracket well defined near t_end.
    """
    ts = trace.times
    if len(ts) == 0:
        return np.array([])
    d_vals = ts - trace.phi_t
    d_run = np.maximum.accumulate(d_vals)

    def phi_of(s):
        th = np.interp(s, ts, trace.theta)
        return s - np.asarray(p.delay_fn(th), dtype=float)

    lo = ts.copy()
    hi = ts + d_run + 1.0
    for _ in range(max_expand):
        short = phi_of(hi) < ts
        if not short.any():
            break
        hi[short] += d_run[short] + 1.0
    else:
        raise AssumptionViolationError("prediction-time bracket failed to close")
    span = float(np.max(hi - lo))
    n_iter = max(1, int(math.ceil(math.log2(span / tol))))
    for _ in range(n_iter):
        mid = 0.5 * (lo + hi)
        below = phi_of(mid) < ts
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


# -- metrics and diagnostics ---------------------------------------------------


def tail_metrics(trace: EsTrace, tail_start: float) -> dict:
    """Max deviations |theta - theta*|, |y - y*|, |U| for t >= tail_start."""
    p = trace.params
    mask = trace.times >= tail_start
    if not mask.any():
        raise ValueError(f"empty tail: no samples at or after {tail_start}")
    return {
        "theta_err": float(np.max(np.abs(trace.theta[mask] - p.theta_star))),
        "y_err": float(np.max(np.abs(trace.y[mask] - p.y_star))),
        "u_abs": float(np.max(np.abs(trace.U[mask]))),
    }


@dataclass
class PdeDiag:
    x_grid: np.ndarray
    times: np.ndarray
    alpha: np.ndarray            # shape (n_times, n_x)
    boundary_max_err: float


def _transport_grid(p: EsParams, trace: EsTrace, n_x: int, max_times: int,
                    read: Callable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Signal carried along the delay interval, on a time-decimated grid.

    Returns (idx, xs, grid) with grid[i, j] = read(phi(s)) at
    s = t_i + xs[j] (sigma(t_i) - t_i), t_i = trace.times[idx[i]] and
    phi(s) = s - D(theta(s)).
    """
    stride = max(1, len(trace.times) // max_times)
    idx = np.arange(0, len(trace.times), stride)
    ts = trace.times[idx]
    sg = trace.sigma_t[idx]
    xs = np.linspace(0.0, 1.0, n_x)
    grid = np.empty((len(ts), n_x))
    for col, x in enumerate(xs):
        s = ts + x * (sg - ts)
        th_s = trace.theta_at(s)
        phi_s = s - np.asarray(p.delay_fn(th_s), dtype=float)
        grid[:, col] = read(phi_s)
    return idx, xs, grid


def transport_diagnostic(p: EsParams, trace: EsTrace, n_x: int = 21,
                         max_times: int = 400) -> PdeDiag:
    """Transport view alpha(x, t) = theta(phi(t + x (sigma(t) - t))).

    The stored alpha matrix is decimated in time; the boundary identities
    alpha(1, t) = theta(t) and alpha(0, t) = theta(t - D(theta(t))) are
    evaluated at every stored time and the worst violation is reported.
    """
    idx, xs, alpha = _transport_grid(p, trace, n_x, max_times, trace.theta_at)

    # inflow boundary via the prediction-time inversion, on the full grid
    th_sigma = trace.theta_at(trace.sigma_t)
    phi_of_sigma = trace.sigma_t - np.asarray(p.delay_fn(th_sigma), dtype=float)
    err1 = float(np.max(np.abs(trace.theta_at(phi_of_sigma) - trace.theta)))
    # outflow boundary against the trace's own delayed time, decimated grid
    err0 = float(np.max(np.abs(alpha[:, 0] - trace.theta_at(trace.phi_t[idx]))))
    return PdeDiag(xs, trace.times[idx], alpha, max(err0, err1))


def lyapunov_diagnostic(p: EsParams, trace: EsTrace, n_x: int = 33,
                        max_times: int = 400,
                        transient_fraction: float = 0.25) -> tuple[np.ndarray, np.ndarray, bool]:
    """Energy functional along the run, built from period-averaged signals.

    The filter output is transported over the unit interval the same way as
    the diagnostic state, the backstepping image w(x, t) = u(x, t) -
    k H [avg estimate error + (sigma - t) * int_0^x u] is formed by
    quadrature in x, and V(t) = err^2/2 + (1/2) int e^x w^2 dx + w(1,t)^2/2.
    Returns (times, V, nonincreasing_after_transient) with a 5 percent
    ripple allowance.  Qualitative diagnostic only.
    """
    m = _period_steps(p)
    kern = np.ones(m) / m
    err_av = np.convolve(trace.theta_hat - p.theta_star, kern, mode="full")[:len(trace.times)]
    u_av_series = np.convolve(trace.U, kern, mode="full")[:len(trace.times)]

    def u_at(tq):
        tq = np.asarray(tq, dtype=float)
        out = np.where(tq <= 0.0, 0.0, np.interp(tq, trace.times, u_av_series))
        return out

    idx, xs, u_grid = _transport_grid(p, trace, n_x, max_times, u_at)
    ts = trace.times[idx]
    sg = trace.sigma_t[idx]
    kh = p.k_gain * p.hessian
    cumint = np.concatenate([np.zeros((len(ts), 1)),
                             np.cumsum(0.5 * (u_grid[:, 1:] + u_grid[:, :-1])
                                       * np.diff(xs)[None, :], axis=1)], axis=1)
    w = u_grid - kh * (err_av[idx][:, None] + (sg - ts)[:, None] * cumint)
    exp_x = np.exp(xs)
    v = (0.5 * err_av[idx] ** 2
         + 0.5 * np.trapezoid(exp_x[None, :] * w * w, xs, axis=1)
         + 0.5 * w[:, -1] ** 2)
    start = int(len(ts) * transient_fraction)
    running_min = np.minimum.accumulate(v[start:]) if start < len(v) else v[-1:]
    ok = bool(np.all(v[start:] <= 1.05 * running_min + 1e-12 * max(1.0, v[0]))) \
        if start < len(v) else True
    return ts, v, ok
