"""Independent reference computations used to cross-check the solvers.

The marching oracle integrates the delay equation forward with an explicit
trapezoid (Heun) scheme on a fine fixed step, maintaining its own history
buffer and interpolating it directly; it shares nothing with the Picard
fixed-point path except the problem callables themselves.

The averaged right-hand side oracle computes f0 with the adaptive
integrate, as a reference for the fixed rule of make_averaged_rule.

The per-row oracle lifts a function of one time and one history to the
batched calling convention of the solver: it calls the function once per
row, on a one-row view of that row, which the solver itself never does.

The trajectory oracle is the per-point loop Trajectory.value_at ran before
it was vectorised, kept as a reference for the vectorised lookup.

The bounds oracle spot-checks the bound functions a problem declares.  On
random subintervals it compares the integral of f on a random history
against that of M, and the integrals of the differences of f and rho_delay
between two random histories (or two shifts of one random trajectory)
against those of L, L3 and L2 times the gap between them.  The Picard
solver reads L, L2 and L3 to size its contraction windows, so a declared
constant that fails here would make the window certificate dishonest.

The extremum-seeking oracles recompute, from a finished trace, the delayed
output, the prediction time and the predictor integral at a single time.
They read the trace through EsTrace.theta_at and np.interp only, so they
share no arithmetic with the running loop in esc.step or with the
vectorised inversion in esc.prediction_times.  The tail-metrics oracle is
the whole-trace boolean-mask rule that esc.tail_metrics replaced with a
blocked reduction over the slice of the tail.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from measurefde.averaging import _random_history, history_gap_norm
from measurefde.esc import (DENOM_FLOOR, AssumptionViolationError,
                            FeasibilityError, static_map)
from measurefde.mfde import build_mesh, initial_trajectory
from measurefde.phase_space import RegulatedFn, _ratio, segment
from measurefde.stieltjes import integrate
from measurefde.trajectory import _HistoryView


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


class OneRow:
    """Row i of a batch history view as one history: reads return that row
    alone, as a RegulatedFn would, through a one-row view of it."""

    __slots__ = ("view", "dim")

    def __init__(self, view, i: int = 0):
        self.view, self.dim = view.take([i // view.rep]), view.dim

    def eval(self, theta):
        return self.view.eval(theta)[0]

    __call__ = RegulatedFn.__call__


def history(x, t: float, depth=None) -> OneRow:
    """The history x_t of trajectory x alone, read through the solver's view."""
    return OneRow(_HistoryView(x, np.array([t]), depth))


def per_row(fn):
    """fn, which takes one time and one history (and any further arguments),
    lifted to the batched convention: one call per row of the batch."""
    def lifted(s, view, *args):
        return [fn(si, OneRow(view, i), *args) for i, si in enumerate(s.tolist())]
    return lifted


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


# -- declared bounds -----------------------------------------------------------


@dataclass(frozen=True)
class HypothesisReport:
    name: str
    worst_ratio: float
    passed: bool
    note: str = ""

    def summary(self) -> str:
        return (f"{self.name}: worst ratio {self.worst_ratio:.4g} "
                f"({'pass' if self.passed else 'FAIL'})"
                + (f" [{self.note}]" if self.note else ""))


def check_bounds(p, n_samples: int = 20, seed: int = 0) -> list[HypothesisReport]:
    """Worst ratio of each sampled integral inequality of the first term
    (f, g) to its declared bound: pointwise M, history Lipschitz L, shift
    Lipschitz L2 and delay Lipschitz L3."""
    panel = max(0.01, p.sigma / 128.0)
    rng = np.random.default_rng(seed)
    history_rng = random.Random(seed)     # _random_history draws from random.Random
    depth = min(p.history_depth or 3.0, 3.0)
    t_end = p.t0 + p.sigma
    worst = dict.fromkeys(("pointwise (M)", "history-lipschitz (L)",
                           "shift-lipschitz (L2)", "delay-lipschitz (L3)"), 0.0)

    x_rand = initial_trajectory(p, build_mesh(p, p.sigma / 64.0))
    x_rand.values += rng.normal(0.0, 0.3, x_rand.values.shape).cumsum(axis=0) \
        * math.sqrt(1.0 / len(x_rand.mesh))
    x_rand.post_jump_values = x_rand.values.copy()

    def ratio(name, lhs, bound):
        rhs = float(integrate(bound, p.g, u1, u2, panel)[0])
        worst[name] = max(worst[name], _ratio(float(np.linalg.norm(lhs)), rhs))

    def f_gap(h1, h2):
        return lambda s: np.asarray(p.f(s, h1)) - np.asarray(p.f(s, h2))

    for _ in range(n_samples):
        u1, u2 = np.sort(rng.uniform(p.t0, t_end, 2))
        if u2 - u1 < 1e-6:
            u2 = min(t_end, u1 + 0.1)
        psi = _random_history(history_rng, p.phi0.dim, depth)
        chi = _random_history(history_rng, p.phi0.dim, depth)
        ratio("pointwise (M)", integrate(lambda s: p.f(s, psi), p.g, u1, u2, panel),
              p.bounds.M_fn)
        gap = history_gap_norm(psi, chi, p.weight)
        ratio("history-lipschitz (L)", integrate(f_gap(psi, chi), p.g, u1, u2, panel),
              lambda s: p.bounds.L(s) * gap)
        a, b = np.sort(rng.uniform(p.t0, t_end, 2))
        xa = segment(x_rand, float(a), p.history_depth)
        xb = segment(x_rand, float(b), p.history_depth)
        ratio("shift-lipschitz (L2)", integrate(f_gap(xa, xb), p.g, u1, u2, panel),
              lambda s: p.bounds.L2(s) * abs(a - b))
        lag = integrate(lambda s: abs(p.rho_delay(s, psi) - p.rho_delay(s, chi)),
                        p.g, u1, u2, panel)
        ratio("delay-lipschitz (L3)", lag, lambda s: p.bounds.L3(s) * gap)

    notes = {"shift-lipschitz (L2)": "sampled evidence only"}
    return [HypothesisReport(name, w, w <= 1.0 + 1e-7, notes.get(name, ""))
            for name, w in worst.items()]


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


def tail_metrics_by_mask(trace, tail_start: float) -> dict:
    """Max deviations |theta - theta*|, |y - y*|, |U| over the samples with
    t >= tail_start, each taken at once through a boolean mask."""
    p = trace.params
    mask = trace.times >= tail_start
    if not mask.any():
        raise ValueError(f"empty tail: no samples at or after {tail_start}")
    return {
        "theta_err": float(np.max(np.abs(trace.theta[mask] - p.theta_star))),
        "y_err": float(np.max(np.abs(trace.y[mask] - p.y_star))),
        "u_abs": float(np.max(np.abs(trace.U[mask]))),
    }
