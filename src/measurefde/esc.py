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
from array import array
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


def _backend(theta):
    """(math, theta) for a float, np.float64 included, and (np, array) for
    anything else: the loop's scalar calls skip numpy's per-call overhead."""
    if isinstance(theta, float):
        return math, theta
    return np, np.asarray(theta, dtype=float)


def sin5sq_delay(theta):
    """Half of sin(5 theta)^2, the stock state-dependent delay."""
    xp, th = _backend(theta)
    s = xp.sin(5.0 * th)
    return 0.5 * s * s


def sin5sq_delay_grad(theta):
    xp, th = _backend(theta)
    return 5.0 * xp.sin(5.0 * th) * xp.cos(5.0 * th)


def constant_delay(d0: float):
    """D(theta) = d0: a float for a float theta, else an array of its shape."""
    def fn(theta):
        xp, th = _backend(theta)
        return d0 if xp is math else np.full(th.shape, d0)
    return fn


def central_diff_grad(delay_fn):
    h = 1e-6

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
    washout: float = 1.0              # rad/s, >= 0; 0 disables washout and averaging
    u0: float = 0.0
    divergence_cap: float = 1e6

    def __post_init__(self):
        for name in ("k_gain", "c", "a", "omega", "theta_star", "y_star",
                     "hessian", "theta_hat0", "washout", "u0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.hessian >= 0:
            raise ValueError("hessian must be negative (maximum seeking)")
        if self.a == 0:
            raise ValueError("probe amplitude must be nonzero")
        if not self.omega > 0:
            raise ValueError("omega must be positive")
        if self.washout < 0:
            raise ValueError("washout must be nonnegative")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not 0 <= self.t_end < math.inf:
            raise ValueError("t_end must be finite and nonnegative")
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
    a substantial delay variation on its way to the maximizer.  Every other
    value is the EsParams default.
    """
    return EsParams(**{"theta_hat0": 7.5, **overrides})


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
        tq = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.interp(tq, self.times, self.theta)
        past = tq <= 0.0
        out[past] = p.theta_hat0 + p.a * np.sin(p.omega * tq[past])
        return float(out[0]) if np.ndim(t) == 0 else out

    def phi_at(self, s: np.ndarray) -> np.ndarray:
        """The delayed time s - D(theta(s)) at times s >= 0."""
        th = np.interp(s, self.times, self.theta)
        return s - np.asarray(self.params.delay_fn(th), dtype=float)


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
    """Preallocated per-run buffers, advanced in place by step().

    The buffers are array("d"): indexing one returns a Python float, so the
    loop's arithmetic never passes through numpy scalars.  `k` holds the
    per-run constants step() reads, bound once here so the loop neither
    recomputes them nor looks up EsParams attributes on every step.
    integrand, ctrap, cum_g and cum_h serve the loop only; simulate() drops
    them before the trace is assembled.  cum_g and cum_h are rings of
    r = min(m_window, n_steps + 2) + 1 running sums: entry i % r holds the
    sum over the first i samples, and the moving average reads only the
    last period.  A run shorter than a period never wraps its rings.
    """

    __slots__ = ("k", "n", "n_steps", "t", "theta_hat", "U", "y_bar",
                 "theta", "y", "G", "H_hat", "U_arr", "Gamma",
                 "phi", "margin", "cum_g", "cum_h", "integrand", "ctrap",
                 "m_window", "aborted", "abort_reason")

    def __init__(self, p: EsParams):
        a, dt = p.a, p.dt
        self.k = (dt, 0.5 * dt, dt / 6.0, p.theta_hat0, a, p.omega,
                  2.0 * p.omega, 2.0 / a, -(8.0 / (a * a)),
                  math.exp(-p.washout * dt), p.washout > 0.0, p.y_star,
                  0.5 * p.hessian, p.theta_star, p.k_gain, p.c,
                  p.predictor_on, p.divergence_cap, p.delay_fn, p.delay_grad)
        self.n = 0
        self.n_steps = int(round(p.t_end / dt))
        n1 = self.n_steps + 1
        self.t = 0.0
        self.theta_hat = p.theta_hat0
        self.U = p.u0
        self.y_bar = None
        for name in ("theta", "y", "G", "H_hat", "U_arr", "Gamma",
                     "phi", "margin", "integrand", "ctrap"):
            setattr(self, name, array("d", [0.0]) * n1)
        self.m_window = _period_steps(p)
        ring = min(self.m_window, self.n_steps + 2) + 1
        self.cum_g = array("d", [0.0]) * ring
        self.cum_h = array("d", [0.0]) * ring
        self.aborted = False
        self.abort_reason = ""

    # retained theta_hat history is implicit: theta array carries it


def step(p: EsParams, state: SimState) -> SimState:
    """Advance the closed loop by one fixed step.

    Computes the probe, delayed output, demodulated estimates, predictor
    term and feasibility margin at the current time, then advances the
    filter state and the estimate with a fourth-order explicit rule holding
    the bracket k * (G + Gamma) over the step.  The constants of p are
    read from state.k, where SimState(p) bound them.
    """
    (dt, half_dt, sixth_dt, theta_hat0, a, omega, two_omega, m_amp, n_amp,
     decay, washout_on, y_star, half_h, theta_star, k_gain, c,
     predictor_on, divergence_cap, delay_fn, grad) = state.k
    n = state.n
    t = n * dt
    state.t = t
    th = state.theta

    theta = state.theta_hat + a * math.sin(omega * t)
    th[n] = theta
    d = float(delay_fn(theta))
    phi = t - d
    state.phi[n] = phi
    # theta at the delayed time: the probing extension before 0, the stored
    # samples interpolated after, and the newest sample past the end
    if phi <= 0.0:
        theta_del = theta_hat0 + a * math.sin(omega * phi)
    else:
        j = int(phi / dt)
        if j >= n:
            theta_del = th[n]
        else:
            frac = phi / dt - j
            theta_del = th[j] + frac * (th[j + 1] - th[j])
    y = y_star + half_h * (theta_del - theta_star) ** 2
    state.y[n] = y

    if state.y_bar is None:
        state.y_bar = y
    if washout_on:
        y_w = y - state.y_bar
        state.y_bar = y + (state.y_bar - y) * decay
    else:
        y_w = y

    td = phi if predictor_on else t
    m_sig = m_amp * math.sin(omega * td)
    n_sig = n_amp * math.cos(two_omega * td)
    g_raw = m_sig * y_w
    h_raw = n_sig * y_w
    cum_g, cum_h = state.cum_g, state.cum_h
    m, r = state.m_window, len(cum_g)
    now, new, old = n % r, (n + 1) % r, (n + 2) % r
    cum_g[new] = cum_g[now] + g_raw
    cum_h[new] = cum_h[now] + h_raw
    if washout_on:
        # slot `old` holds the sum up to n + 1 - m, or is still 0.0 while
        # fewer than m samples have been taken
        g_est = (cum_g[new] - cum_g[old]) / m
        h_est = (cum_h[new] - cum_h[old]) / m
    else:
        g_est, h_est = g_raw, h_raw
    state.G[n] = g_est
    state.H_hat[n] = h_est

    u = state.U
    state.U_arr[n] = u
    dn = 1.0 - h_est * float(grad(g_est)) * u
    state.margin[n] = dn

    gamma = 0.0
    if predictor_on:
        if dn <= DENOM_FLOOR:
            state.aborted = True
            state.abort_reason = (f"feasibility: denominator {dn:.3e} "
                                  f"at t={t:.6f}")
            return state
        integrand, ctrap = state.integrand, state.ctrap
        integrand[n] = u / dn
        if n > 0:
            ctrap[n] = ctrap[n - 1] + half_dt * (integrand[n - 1] + integrand[n])
        if n > 0 and phi < t:
            lo_t = max(phi, 0.0)
            j = min(int(lo_t / dt), n - 1)
            frac = lo_t / dt - j
            i_lo = integrand[j] + frac * (integrand[j + 1] - integrand[j])
            partial = ((j + 1) * dt - lo_t) * 0.5 * (i_lo + integrand[j + 1])
            gamma = h_est * (ctrap[n] - ctrap[j + 1] + partial)
    state.Gamma[n] = gamma

    if n >= state.n_steps:
        state.n = n + 1
        return state

    # advance [U, theta_hat] one step of classic RK4 with the bracket held
    w = k_gain * (g_est + gamma)
    u0 = state.U
    h0 = state.theta_hat
    k1u = c * (w - u0)
    k1h = u0
    u_mid = u0 + half_dt * k1u
    k2u = c * (w - u_mid)
    k2h = u_mid
    u_mid2 = u0 + half_dt * k2u
    k3u = c * (w - u_mid2)
    k3h = u_mid2
    u_end = u0 + dt * k3u
    k4u = c * (w - u_end)
    k4h = u_end
    state.U = u0 + sixth_dt * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
    state.theta_hat = h0 + sixth_dt * (k1h + 2.0 * k2h + 2.0 * k3h + k4h)
    state.n = n + 1

    if not math.isfinite(state.theta_hat) or abs(state.theta_hat) > divergence_cap:
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
    state.integrand = state.ctrap = state.cum_g = state.cum_h = None
    n_have = state.n if not state.aborted else max(state.n, 1)
    trace = _finalize(p, state, n_have)
    if state.aborted and state.abort_reason.startswith("feasibility"):
        raise FeasibilityError(state.abort_reason,
                               time=state.t, trace=trace)
    return trace


# Rows per block of the trace-level passes below: each block's temporaries
# stay in cache, and no pass allocates whole-trace scratch arrays.
BLOCK_ROWS = 8192
# Bisection tolerance on sigma, and the bracket doublings allowed to close it.
SIGMA_TOL = 1e-10
SIGMA_MAX_EXPAND = 8


def _blocks(n: int, start: int = 0):
    """Slices covering range(start, n) in steps of BLOCK_ROWS."""
    for lo in range(start, n, BLOCK_ROWS):
        yield slice(lo, min(lo + BLOCK_ROWS, n))


def _finalize(p: EsParams, state: SimState, n_have: int) -> EsTrace:
    def view(buf):
        return np.frombuffer(buf)[:n_have]

    # whole-trace columns are computed in place: no whole-trace temporaries
    times = np.arange(n_have, dtype=float)
    times *= p.dt
    theta, phi = view(state.theta), view(state.phi)
    theta_hat = p.omega * times
    np.sin(theta_hat, out=theta_hat)
    theta_hat *= p.a
    np.subtract(theta, theta_hat, out=theta_hat)
    flags: dict = {}
    if state.aborted:
        flags["diverged"] = state.abort_reason.startswith("divergence")
        flags["abort_reason"] = state.abort_reason
    if n_have > 1:
        # steps where |d/dt D(theta(t))| >= 1, D = t - phi, one block at a time
        exceeded = 0
        for sl in _blocks(n_have - 1):
            pair = slice(sl.start, sl.stop + 1)
            rate = np.diff(times[pair] - phi[pair]) / p.dt
            exceeded += int(np.count_nonzero(np.abs(rate) >= 1.0))
        frac = exceeded / (n_have - 1)
        flags["delay_rate_exceeded_fraction"] = frac
        flags["delay_rate_warning"] = bool(frac > 0.0)
    trace = EsTrace(params=p, times=times, theta=theta,
                    theta_hat=theta_hat,
                    y=view(state.y), G=view(state.G), H_hat=view(state.H_hat),
                    U=view(state.U_arr), Gamma=view(state.Gamma), phi_t=phi,
                    sigma_t=np.empty(0),        # set just below
                    feas_margin=view(state.margin), flags=flags)
    trace.sigma_t = prediction_times(trace)
    return trace


def prediction_times(trace: EsTrace) -> np.ndarray:
    """Vectorised inversion of the delayed time over the whole trace.

    sigma(t) is the bisection's crossing of trace.phi_at(s) = t inside the
    bracket [t, t + k (max D so far + 1)]; where the delay rate reaches 1,
    phi is not monotone and several crossings may exist.  theta is extended
    past the end of the trace by its final value, which keeps the bracket
    well defined near t_end.  The work runs in blocks of BLOCK_ROWS times;
    the bisection count comes from the widest bracket over the whole trace,
    so sigma does not depend on the block size.
    """
    ts = trace.times
    n = len(ts)
    out = np.empty(n)
    if n == 0:
        return out

    # first pass: close each bracket and keep its upper end in `out`
    d_max = -np.inf
    span = 0.0
    for sl in _blocks(n):
        t_blk = ts[sl]
        d_run = np.maximum.accumulate(t_blk - trace.phi_t[sl])
        np.maximum(d_run, d_max, out=d_run)
        d_max = d_run[-1]
        hi = t_blk + d_run + 1.0
        for _ in range(SIGMA_MAX_EXPAND):
            short = trace.phi_at(hi) < t_blk
            if not short.any():
                break
            hi[short] += d_run[short] + 1.0
        else:
            raise AssumptionViolationError("prediction-time bracket failed to close")
        out[sl] = hi
        span = np.maximum(span, np.max(hi - t_blk))
    n_iter = max(1, int(math.ceil(math.log2(float(span) / SIGMA_TOL))))

    # second pass: bisect every bracket n_iter times
    for sl in _blocks(n):
        t_blk = ts[sl]
        lo, hi = t_blk, out[sl]
        for _ in range(n_iter):
            mid = 0.5 * (lo + hi)
            below = trace.phi_at(mid) < t_blk
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        out[sl] = 0.5 * (lo + hi)
    return out


# -- metrics and diagnostics ---------------------------------------------------


def tail_metrics(trace: EsTrace, tail_start: float) -> dict:
    """Max deviations |theta - theta*|, |y - y*|, |U| for t >= tail_start.

    The tail is the slice of the (increasing) times from tail_start on, and
    each maximum is taken one block at a time; a nan in the tail gives nan.
    """
    p = trace.params
    n = len(trace.times)
    start = int(np.searchsorted(trace.times, tail_start))
    if start == n:
        raise ValueError(f"empty tail: no samples at or after {tail_start}")
    out = {}
    for key, col, ref in (("theta_err", trace.theta, p.theta_star),
                          ("y_err", trace.y, p.y_star), ("u_abs", trace.U, 0.0)):
        worst = -np.inf
        for sl in _blocks(n, start):
            dev = col[sl] - ref
            worst = np.maximum(worst, np.max(np.abs(dev, out=dev)))
        out[key] = float(worst)
    return out


@dataclass
class PdeDiag:
    x_grid: np.ndarray
    times: np.ndarray
    alpha: np.ndarray            # shape (n_times, n_x)
    boundary_max_err: float


def transport_diagnostic(trace: EsTrace, n_x: int = 21) -> PdeDiag:
    """Transport view alpha(x, t) = theta(phi(t + x (sigma(t) - t))).

    The stored alpha matrix is decimated in time to at most about 400 rows;
    the boundary identities alpha(1, t) = theta(t) and
    alpha(0, t) = theta(t - D(theta(t))) are evaluated at every stored time
    and the worst violation is reported; phi is trace.phi_at.
    """
    stride = max(1, len(trace.times) // 400)
    idx = np.arange(0, len(trace.times), stride)
    ts = trace.times[idx]
    sg = trace.sigma_t[idx]
    xs = np.linspace(0.0, 1.0, n_x)
    alpha = np.empty((len(ts), n_x))
    for col, x in enumerate(xs):
        alpha[:, col] = trace.theta_at(trace.phi_at(ts + x * (sg - ts)))

    # inflow boundary via the prediction-time inversion, on the full grid
    err1 = 0.0
    for sl in _blocks(len(trace.times)):
        alpha_1 = trace.theta_at(trace.phi_at(trace.sigma_t[sl]))
        err1 = np.maximum(err1, np.max(np.abs(alpha_1 - trace.theta[sl])))
    err1 = float(err1)
    # outflow boundary against the trace's own delayed time, decimated grid
    err0 = float(np.max(np.abs(alpha[:, 0] - trace.theta_at(trace.phi_t[idx]))))
    return PdeDiag(xs, trace.times[idx], alpha, max(err0, err1))
