"""Independent reference computations used to cross-check the solvers.

The marching oracle integrates the delay equation forward with an explicit
trapezoid (Heun) scheme on a fine fixed step, maintaining its own history
buffer and interpolating it directly; it shares nothing with the Picard
fixed-point path except the problem callables themselves.

The averaged right-hand side oracle computes f0 with the adaptive
integrate, as a reference for the fixed rule of make_averaged_rule.

The trajectory oracle is the per-point loop Trajectory.value_at ran before
it was vectorised, kept as a reference for the vectorised lookup.

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
from measurefde.stieltjes import integrate


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


def averaged_rhs(p, psi) -> np.ndarray:
    """Time average (1/T) int_0^T f(s, psi) dh(s) for a frozen history."""
    return integrate(lambda s: p.f(s, psi), p.h, 0.0, p.T) / p.T


def trajectory_value_at(traj, t):
    """Left-continuous interpolation, one point at a time: on (t_i, t_{i+1}]
    the value runs from the post-jump value at t_i to the stored value at
    t_{i+1}; at t_0 it is the stored value and below it the initial history.

    Trajectory.value_at differs from this on purpose in two places.  Within
    1e-12 above a node it returns the node's stored (left) value, since it
    checks both neighbours for a mesh hit; this loop checks only the right
    one and interpolates from the post-jump value.  At t == t0 it returns
    phi0(0), where this loop returns values[0].
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty((len(ts), traj.dim))
    for n, tt in enumerate(ts):
        if tt <= traj.mesh[0]:
            out[n] = traj.values[0] if tt == traj.mesh[0] \
                else np.atleast_1d(traj.initial_history(tt - traj.t0))
            continue
        j = int(np.searchsorted(traj.mesh, tt, side="left"))
        j = min(j, len(traj.mesh) - 1)
        if abs(traj.mesh[j] - tt) <= 1e-12:
            out[n] = traj.values[j]
            continue
        j -= 1
        span = traj.mesh[j + 1] - traj.mesh[j]
        lam = (tt - traj.mesh[j]) / span
        out[n] = traj.post_jump_values[j] + lam * (traj.values[j + 1]
                                                   - traj.post_jump_values[j])
    return out[0] if np.ndim(t) == 0 else out


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
        return float(problem.f(s, delayed)) * float(problem.g.density)

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
