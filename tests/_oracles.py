"""Independent reference computations used to cross-check the solvers.

The marching oracle integrates the delay equation forward with an explicit
trapezoid (Heun) scheme on a fine fixed step, maintaining its own history
buffer and interpolating it directly; it shares nothing with the Picard
fixed-point path except the problem callables themselves.

The extremum-seeking oracles recompute, from a finished trace, the delayed
output, the prediction time and the predictor integral at a single time.
They read the trace through EsTrace.theta_at and np.interp only, so they
share no arithmetic with the running loop in esc.step or with the
vectorised inversion in esc.prediction_times.
"""

from __future__ import annotations

import numpy as np

from measurefde.esc import (DENOM_FLOOR, AssumptionViolationError,
                            FeasibilityError, static_map)


class AbsHistory:
    """History view theta -> x(t_ref + theta) over the marching buffers."""

    __slots__ = ("t_ref", "times", "vals", "n", "phi0", "t0")

    def __init__(self, t_ref, times, vals, n, phi0, t0):
        self.t_ref, self.times, self.vals, self.n = t_ref, times, vals, n
        self.phi0, self.t0 = phi0, t0

    def __call__(self, theta):
        tq = self.t_ref + np.asarray(theta, dtype=float)
        scalar = tq.ndim == 0
        tq = np.atleast_1d(tq)
        out = np.empty(len(tq))
        past = tq <= self.t0
        if past.any():
            out[past] = np.atleast_1d(self.phi0.eval(tq[past] - self.t0))[:, 0]
        live = ~past
        if live.any():
            out[live] = np.interp(tq[live], self.times[:self.n], self.vals[:self.n])
        return float(out[0]) if scalar else out


def march_heun(problem, step: float):
    """Explicit trapezoid marching for scalar problems with identity g.

    Returns (times, values) on the fine grid.
    """
    if problem.g.jumps:
        raise ValueError("marching oracle assumes a continuous integrator")
    n_steps = int(round(problem.sigma / step))
    times = np.empty(n_steps + 2)
    vals = np.empty(n_steps + 2)
    times[0] = problem.t0
    vals[0] = float(np.atleast_1d(problem.phi0.value_at_zero())[0])

    def rhs(s, n):
        hist = AbsHistory(s, times, vals, n, problem.phi0, problem.t0)
        r = problem.rho_delay(s, hist)
        delayed = AbsHistory(r, times, vals, n, problem.phi0, problem.t0)
        return float(problem.f(s, delayed)) * float(problem.g.density(s))

    for i in range(n_steps):
        s = times[i]
        k1 = rhs(s, i + 1)
        times[i + 1] = s + step
        vals[i + 1] = vals[i] + step * k1       # predictor, visible to k2
        k2 = rhs(s + step, i + 2)
        vals[i + 1] = vals[i] + 0.5 * step * (k1 + k2)
    return times[:n_steps + 1], vals[:n_steps + 1]


# -- extremum seeking ----------------------------------------------------------


def delayed_output(p, trace, t: float) -> float:
    """Map output through the state-dependent lag: Q(theta(t - D(theta(t)))).

    The initial probing history extends to arbitrarily negative times, so
    the delayed argument never underflows the stored history.
    """
    d = float(p.delay_fn(trace.theta_at(t)))
    return float(static_map(p, trace.theta_at(t - d)))


def prediction_time(p, trace, t: float, tol: float = 1e-10) -> float:
    """sigma(t) solving phi(sigma) = t by scalar bisection on [t, t + Dmax + 1],
    with phi(s) = s - D(theta(s))."""
    def phi(s):
        return float(s - p.delay_fn(trace.theta_at(s)))

    mask = trace.times <= t
    d_seen = trace.times[mask] - trace.phi_t[mask]
    d_max = float(d_seen.max()) if d_seen.size else 0.0
    lo, hi = t, t + d_max + 1.0
    f_hi = phi(hi) - t
    tries = 0
    while f_hi < 0.0 and tries < 8:
        hi += d_max + 1.0
        f_hi = phi(hi) - t
        tries += 1
    if f_hi < 0.0:
        raise AssumptionViolationError(
            f"could not bracket the prediction time at t={t}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if phi(mid) < t:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def predictor_integral(p, trace, t: float) -> float:
    """Predictor term Gamma(t) = H_hat(t) * int_{phi(t)}^{t} U / (1 - H_hat
    grad D(G) U) dtau, trapezoid over the stored mesh with linear endpoint
    interpolation.  Raises FeasibilityError when a node denominator falls
    to the floor."""
    phi = float(t - p.delay_fn(trace.theta_at(t)))
    if phi >= t:
        return 0.0
    ts = trace.times
    lo = max(phi, float(ts[0]))
    i0 = int(np.searchsorted(ts, lo, side="left"))
    i1 = int(np.searchsorted(ts, t, side="right")) - 1
    nodes = [lo] + [float(x) for x in ts[i0:i1 + 1] if lo < float(x) < t] + [t]
    u = np.interp(nodes, ts, trace.U)
    hh = np.interp(nodes, ts, trace.H_hat)
    gg = np.interp(nodes, ts, trace.G)
    dn = 1.0 - hh * np.asarray(p.delay_grad(gg)) * u
    bad = np.nonzero(dn <= DENOM_FLOOR)[0]
    if bad.size:
        t_bad = nodes[int(bad[0])]
        raise FeasibilityError(
            f"predictor denominator {dn[bad[0]]:.3e} at tau={t_bad:.6f}",
            time=float(t_bad), trace=trace)
    integrand = u / dn
    h_now = float(np.interp(t, ts, trace.H_hat))
    return h_now * float(np.trapezoid(integrand, nodes))
