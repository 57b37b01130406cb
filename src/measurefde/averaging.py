"""Periodic averaging comparison for slowly forced measure equations.

Builds the time average f0 of a T-periodic right-hand side, solves the
original eps-scaled system against the integrator h and the averaged
autonomous system against plain time on the horizon [0, L/eps], measures the
sup difference, fits its eps-scaling, and evaluates the guaranteed error
constant assembled from the declared problem constants.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from . import phase_space  # segment read at call time: perfbench/tracer.py patches it
from .mfde import (ConvergenceError, HypothesisViolationError, MfdeProblem,
                   ProblemBounds, Trajectory, _check_depth, _rows, solve_picard)
from .phase_space import UNIFORM_WEIGHT, HistoryRangeError, RegulatedFn, Weight
from .stieltjes import (Integrator, IntegrandError, IntegratorDomainError,
                        _sample, _simpson_rule, _union)
from .trajectory import _HistoryView


class AvgConditionError(ValueError):
    """A sampled structural condition (periodicity, shift, delay sign) failed."""


REQUIRED_CONSTS = ("C", "C2", "C3", "C4", "M", "Kp")
# the solver's typed failures, which compare records per eps
SOLVER_ERRORS = (ConvergenceError, HypothesisViolationError, IntegratorDomainError,
                 IntegrandError, HistoryRangeError)


@dataclass(frozen=True)
class AvgProblem:
    """Data for the eps-forced system and its averaged counterpart.

    consts must carry honest bounds: C (history Lipschitz of f), C2 (shift
    Lipschitz), C3 (delay shift sensitivity per unit eps), C4 (delay history
    Lipschitz), M (sup bound for f and the perturbation), Kp (bound for the
    norm-growth envelope on the horizon).

    The eps^2 perturbation g_pert is integrated against h, as f is.
    f, rho_delay and g_pert are called as MfdeProblem calls its right-hand
    sides, with an array of times and a batch view of one history per time;
    the solves pass whole batches, check_problem and estimate_constants
    one-row ones.
    history_depth is None or finite and positive, as in MfdeProblem.
    """

    f: Callable[[np.ndarray, _HistoryView], object]
    h: Integrator
    rho_delay: Callable[[np.ndarray, _HistoryView, float], object]
    phi0: RegulatedFn
    T: float
    alpha: float
    L: float
    eps0: float
    consts: dict
    g_pert: Callable[[np.ndarray, _HistoryView, float], object] | None = None
    weight: Weight = UNIFORM_WEIGHT
    history_depth: float = 1.0
    solver_tol: float = 1e-9
    max_iters: int = 100

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (self.T, self.alpha, self.L, self.eps0)):
            raise ValueError("T, alpha, L, eps0 must all be finite and positive")
        _check_depth(self.history_depth)

    def const(self, name: str) -> float:
        try:
            return float(self.consts[name])
        except KeyError as exc:
            raise KeyError(f"missing problem constant {name!r}") from exc


# -- random test data for the sampled checks ---------------------------------
# drawn from Python's random.Random: numpy.random would add 6 MB of resident
# memory and 19 modules to every averaging run for a few hundred numbers


def _sample_depth(p: AvgProblem) -> float:
    """The window [-depth, 0] of the sampled checks' random histories:
    history_depth, or phi0's window when that is None."""
    return -p.phi0.window_start if p.history_depth is None else p.history_depth


def _gaussians(rng: random.Random, sd: float, rows: int, cols: int) -> np.ndarray:
    return np.array([[rng.gauss(0.0, sd) for _ in range(cols)] for _ in range(rows)])


def _random_history(rng: random.Random, dim: int, depth: float) -> RegulatedFn:
    n = rng.randrange(8, 24)
    thetas = _union([-depth], [rng.uniform(-depth, 0.0) for _ in range(n - 2)], [0.0])
    vals = np.cumsum(_gaussians(rng, 1.0 / math.sqrt(len(thetas)), len(thetas), dim),
                     axis=0)
    return RegulatedFn.polyline(thetas, vals, tail_value=np.zeros(dim))


def _one_row(psi: RegulatedFn, depth: float | None) -> _HistoryView:
    """psi as the solver hands a history to f and rho_delay: a one-row batch
    view, at t0 = 0, of a trajectory that starts from psi."""
    vals = np.tile(psi.value_at_zero(), (2, 1))
    x = Trajectory(np.array([0.0, 1.0]), vals, vals.copy(), psi, 0.0)
    return _HistoryView(x, np.zeros(1), depth)


def _f_at(p: AvgProblem, t: float, view: _HistoryView) -> np.ndarray:
    """f at the one time t on a one-row view: its row."""
    return _rows(p.f, np.array([t]), view)[0]


def _delay_at(p: AvgProblem, t: float, view: _HistoryView, eps: float) -> float:
    """rho_delay at the one time t on a one-row view."""
    return float(_rows(lambda s, v: p.rho_delay(s, v, eps), np.array([t]), view)[0, 0])


def _random_extension(p: AvgProblem, rng: random.Random, n: int) -> Trajectory:
    """A random regulated extension of phi0 over [0, 2T]: n nodes, the
    first at phi0(0), and n - 1 Gaussian steps of standard deviation
    0.5 / sqrt(n) from it."""
    mesh = np.linspace(0.0, 2.0 * p.T, n)
    steps = np.zeros((n, p.phi0.dim))
    steps[1:] = _gaussians(rng, 0.5, n - 1, p.phi0.dim)
    vals = np.atleast_1d(p.phi0.value_at_zero()) + steps.cumsum(axis=0) / math.sqrt(n)
    return Trajectory(mesh, vals, vals.copy(), p.phi0, 0.0)


def _shift_pair(p: AvgProblem, rng: random.Random, x: Trajectory):
    """Two times a < b drawn on x's mesh and the one-row views of x's
    segments at them, or None when they lie within 1e-6 of each other."""
    a, b = sorted(rng.uniform(0.0, float(x.mesh[-1])) for _ in range(2))
    if b - a < 1e-6:
        return None
    xa, xb = (_one_row(phase_space.segment(x, u, p.history_depth), p.history_depth)
              for u in (a, b))
    return b - a, xa, xb


def history_gap_norm(a: RegulatedFn, b: RegulatedFn, weight: Weight) -> float:
    """Weighted sup norm of the difference of two histories, tails included."""
    tail = weight.tail_sup(a.tail_value - b.tail_value)
    lo = min(a.window_start, b.window_start)
    grid = _union(a.thetas, b.thetas, np.linspace(lo, 0.0, 257))
    ratios = np.linalg.norm(a.eval(grid) - b.eval(grid), axis=1) / weight.rho(grid)
    return max(float(np.max(ratios)), tail)


def check_problem(p: AvgProblem, n_samples: int = 12,
                  seed: int = 0) -> list[tuple[str, float, bool]]:
    """Sampled checks: T-periodicity of f, constant period increment of h,
    and the delayed time staying at or below the current time; raises
    AvgConditionError on the first that fails.  The sample times, eps values
    and random histories come from random.Random(seed)."""
    rng = random.Random(seed)
    results = []
    worst_per = 0.0
    worst_shift = 0.0
    worst_delay = 0.0
    for _ in range(n_samples):
        t = rng.uniform(0.0, 3.0 * p.T)
        psi = _one_row(_random_history(rng, p.phi0.dim, _sample_depth(p)),
                       p.history_depth)
        fv = _f_at(p, t, psi)
        fvT = _f_at(p, t + p.T, psi)
        worst_per = max(worst_per, float(np.max(np.abs(fv - fvT))))
        worst_shift = max(worst_shift, abs(p.h.value_at(t + p.T) - p.h.value_at(t)
                                           - p.alpha))
        eps = rng.uniform(1e-3, p.eps0)
        worst_delay = max(worst_delay, _delay_at(p, t, psi, eps) - t)
    results.append(("f periodicity", worst_per, worst_per <= 1e-8))
    results.append(("h period increment", worst_shift, worst_shift <= 1e-10))
    results.append(("delay below current time", worst_delay, worst_delay <= 1e-12))
    if "C3" in p.consts:
        # shift sensitivity of the delay against eps * C3, sampled along one
        # random regulated extension; reported as a worst ratio
        x = _random_extension(p, rng, 65)
        worst_ratio = 0.0
        c3 = p.const("C3")
        for _ in range(n_samples):
            t = rng.uniform(0.0, p.T)
            eps = rng.uniform(1e-3, p.eps0)
            pair = _shift_pair(p, rng, x)
            if pair is None:
                continue
            shift, xa, xb = pair
            gap = abs(_delay_at(p, t, xa, eps) - _delay_at(p, t, xb, eps))
            worst_ratio = max(worst_ratio, gap / (eps * c3 * shift))
        results.append(("delay shift ratio vs eps*C3 (report only)", worst_ratio,
                        worst_ratio <= 1.0 + 1e-9))
    for name, worst, ok in results:
        if not ok and "(report only)" not in name:
            raise AvgConditionError(f"{name} violated by {worst:.3e}")
    return results


# -- the averaged right-hand side --------------------------------------------


def make_averaged_rule(p: AvgProblem, n_panels: int = 64):
    """Precompute a fixed quadrature rule for the averaged right-hand side.

    Returns f0(psi, rows) evaluating (1/T) * [sum w_i f(s_i, psi) + jump
    atoms] on a batched history psi with that many rows, one row each, from
    one call of f over every (row, node) pair.  Simpson panels are laid out
    between the jump times of h on [0, T); the jump at 0 belongs to the
    period, the jump at T does not.
    """
    cuts = p.h.cuts(0.0, p.T)
    nodes = []
    weights = []
    for a, b in zip(cuts, cuts[1:]):
        xs, w = _simpson_rule(a, b, max(1, int(math.ceil(n_panels * (b - a) / p.T))))
        nodes.append(xs)
        weights.append(w * _sample(p.h.density, xs))
    s_nodes = np.concatenate(nodes)
    s_weights = np.concatenate(weights)
    atoms = p.h.jumps_in(0.0, p.T)
    k = len(s_nodes)

    def f0(psi, rows: int):
        s = s_nodes[None, :].repeat(rows, axis=0).ravel()
        total = s_weights @ _rows(p.f, s, psi.repeat(k)).reshape(rows, k, -1)
        for t, m in atoms:
            total = total + m * _rows(p.f, np.full(rows, t), psi)
        return total / p.T
    return f0


# -- the two initial value problems -------------------------------------------


def _problem(p: AvgProblem, eps: float, f: Callable, g: Integrator,
             scale: float) -> MfdeProblem:
    """x' = eps f against g on [0, L/eps], bounds eps * scale * M, C, C2."""
    M, C, C2, C4 = (p.const(name) for name in ("M", "C", "C2", "C4"))
    bounds = ProblemBounds(
        M_fn=lambda s: eps * M * scale,
        L=lambda s: eps * C * scale,
        L2=lambda s: eps * C2 * scale,
        L3=lambda s: C4,
    )
    return MfdeProblem(f=lambda s, psi: eps * f(s, psi),
                       rho_delay=lambda s, psi: p.rho_delay(s, psi, eps),
                       g=g, phi0=p.phi0, t0=0.0, sigma=p.L / eps, bounds=bounds,
                       tol=p.solver_tol, max_iters=p.max_iters, weight=p.weight,
                       history_depth=p.history_depth)


def _original_problem(p: AvgProblem, eps: float) -> MfdeProblem:
    # the solver's _rows shapes what f returns, one row per time; the eps^2
    # term rides in the one integrand against h, which _problem scales by eps
    f = lambda s, psi: np.asarray(p.f(s, psi), float)
    if p.g_pert is not None:
        f = lambda s, psi: _rows(p.f, s, psi) + eps * _rows(
            lambda t, v: p.g_pert(t, v, eps), s, psi)
    return _problem(p, eps, f, p.h, 1.0 + eps)


def _default_steps(p: AvgProblem, eps: float) -> tuple[float, float]:
    horizon = p.L / eps
    step_orig = max(min(p.T / 256.0, horizon / 500.0), horizon / 2500.0)
    step_avg = max(min(p.T / 64.0, horizon / 400.0), horizon / 1600.0)
    return step_orig, step_avg


def solve_original(p: AvgProblem, eps: float,
                   step: float | None = None) -> Trajectory:
    """Solve the eps-forced system on [0, L/eps] against the integrator h."""
    _require_eps(p, eps)
    if step is None:
        step, _ = _default_steps(p, eps)
    traj, _iters, _delta = solve_picard(_original_problem(p, eps), step=step)
    return traj


def solve_averaged(p: AvgProblem, eps: float, step: float | None = None,
                   n_panels: int = 64) -> Trajectory:
    """Solve the averaged autonomous system on [0, L/eps] against plain time."""
    _require_eps(p, eps)
    if step is None:
        _, step = _default_steps(p, eps)
    f0 = make_averaged_rule(p, n_panels)
    prob = _problem(p, eps, lambda s, psi: f0(psi, len(s)), Integrator.identity(),
                    p.alpha / p.T)
    traj, _iters, _delta = solve_picard(prob, step=step)
    return traj


def _require_eps(p: AvgProblem, eps: float):
    if not (0.0 < eps <= p.eps0):
        raise ValueError(f"eps must lie in (0, {p.eps0}]")


# -- comparison ----------------------------------------------------------------


@dataclass
class AvgReport:
    """What compare measured per eps, and the fitted eps-order.

    slope is the closed-form least-squares slope of log sup error on log eps
    over the solved eps whose error is above 1e-12, nan when fewer than two
    distinct eps remain.
    """

    eps_list: list[float]
    measured_errors: list[float]
    theoretical_J: float
    slope: float
    passes: list[bool]
    failures: dict = field(default_factory=dict)
    estimate_based: bool = False

    @property
    def all_passed(self) -> bool:
        return all(self.passes) and not self.failures

    def rows(self):
        for eps, err, ok in zip(self.eps_list, self.measured_errors, self.passes):
            yield eps, err, self.theoretical_J * eps, ok, self.slope


def _slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of a line through the points (x_i, y_i), at least
    two distinct x: sum (x - mean x)(y - mean y) / sum (x - mean x)^2.  The
    closed form needs no LAPACK, which np.polyfit would page in for a few
    flops."""
    dx = x - x.mean()
    return float((dx * (y - y.mean())).sum() / (dx * dx).sum())


def sup_difference(x: Trajectory, y: Trajectory) -> float:
    """Sup distance on the union mesh, interpolating the smoother trajectory."""
    best = 0.0
    yx = np.atleast_2d(y.value_at(x.mesh))
    best = max(best, float(np.max(np.linalg.norm(x.values - yx, axis=1))))
    best = max(best, float(np.max(np.linalg.norm(x.post_jump_values - yx, axis=1))))
    xy = np.atleast_2d(x.value_at(y.mesh))
    best = max(best, float(np.max(np.linalg.norm(xy - y.values, axis=1))))
    return best


def error_constant(p: AvgProblem) -> float:
    """Guaranteed comparison constant J for the sup error over [0, L/eps].

    J = exp(K2 * (L/T + eps0) * alpha) * (K1 + M * (L/T + eps0) * alpha)
    with K1 = 2 alpha (M + C2 C3 L) and K2 = (C + C2 C4) Kp.
    """
    vals = {name: p.const(name) for name in REQUIRED_CONSTS}
    if any(v <= 0 for v in vals.values()):
        bad = [k for k, v in vals.items() if v <= 0]
        raise ValueError(f"constants must be positive, got nonpositive {bad}")
    k1 = 2.0 * p.alpha * (vals["M"] + vals["C2"] * vals["C3"] * p.L)
    k2 = (vals["C"] + vals["C2"] * vals["C4"]) * vals["Kp"]
    horizon_factor = (p.L / p.T + p.eps0) * p.alpha
    return math.exp(k2 * horizon_factor) * (k1 + vals["M"] * horizon_factor)


def estimate_constants(p: AvgProblem, n_samples: int = 40, seed: int = 0) -> dict:
    """Randomized estimates for missing constants (documented as estimates).

    Shift-sensitive quantities (C2, C3) are sampled along one random
    regulated extension of the initial history, the others on random history
    pairs; all of them come from random.Random(seed).  Estimates carry a 1.5x
    headroom factor and small floors so the error constant stays finite and
    positive.
    """
    rng = random.Random(seed)
    x = _random_extension(p, rng, 129)

    M = C = C2 = C3 = C4 = 0.0
    for _ in range(n_samples):
        t = rng.uniform(0.0, p.T)
        eps = rng.uniform(1e-3, p.eps0)
        psi = _random_history(rng, p.phi0.dim, _sample_depth(p))
        chi = _random_history(rng, p.phi0.dim, _sample_depth(p))
        vpsi, vchi = _one_row(psi, p.history_depth), _one_row(chi, p.history_depth)
        f_psi = _f_at(p, t, vpsi)
        M = max(M, float(np.linalg.norm(f_psi)))
        gap = history_gap_norm(psi, chi, p.weight)
        if gap > 1e-9:
            dC = np.linalg.norm(f_psi - _f_at(p, t, vchi)) / gap
            C = max(C, float(dC))
            dr = abs(_delay_at(p, t, vpsi, eps) - _delay_at(p, t, vchi, eps)) / gap
            C4 = max(C4, dr)
        pair = _shift_pair(p, rng, x)
        if pair is not None:
            shift, xa, xb = pair
            dC2 = np.linalg.norm(_f_at(p, t, xa) - _f_at(p, t, xb)) / shift
            C2 = max(C2, float(dC2))
            d3 = abs(_delay_at(p, t, xa, eps) - _delay_at(p, t, xb, eps)) / (eps * shift)
            C3 = max(C3, d3)
    return {"M": M * 1.5 + 1e-6, "C": C * 1.5 + 1e-6, "C2": C2 * 1.5 + 1e-6,
            "C3": C3 * 1.5 + 1e-6, "C4": C4 * 1.5 + 1e-6,
            "Kp": p.weight.shift_growth(1.0)}


def linear_periodic_problem(a0: float = 1.0, b0: float = 1.0, phi_c: float = 1.0,
                            L: float = 1.0, eps0: float = 0.2) -> AvgProblem:
    """Scalar corpus problem f(s, psi) = (a0 + b0 cos s) psi(0), no delay.

    Solutions have the closed forms x(t) = phi_c exp(eps (a0 t + b0 sin t))
    and y(t) = phi_c exp(eps a0 t), making the eps-order of the sup error
    checkable analytically.  Constants are honest bounds over the reachable
    set of those solutions (f itself is linear, hence unbounded over the
    whole history space).
    """
    if not all(math.isfinite(v) for v in (a0, b0, phi_c)):
        raise ValueError("a0, b0 and phi_c must be finite")
    reach = abs(phi_c) * math.exp(abs(a0) * L + eps0 * abs(b0))
    lip_traj = eps0 * (abs(a0) + abs(b0)) * reach
    consts = {
        "C": abs(a0) + abs(b0),
        "C2": (abs(a0) + abs(b0)) * lip_traj * 1.2 + 1e-6,
        "C3": 0.01,   # delay is identically s: any positive bound is honest
        "C4": 0.01,
        "M": (abs(a0) + abs(b0)) * reach * 1.1,
        "Kp": 1.0,
    }

    def f(s, psi):
        return (a0 + b0 * np.cos(s)) * psi(0.0)

    return AvgProblem(f=f, h=Integrator.identity(),
                      rho_delay=lambda s, psi, eps: s,
                      phi0=RegulatedFn.constant(phi_c, window_start=-1.0),
                      T=2.0 * math.pi, alpha=2.0 * math.pi, L=L, eps0=eps0,
                      consts=consts, weight=UNIFORM_WEIGHT, history_depth=1.0)


def sine_problem(phi_c: float = 1.0, L: float = 1.0, eps0: float = 0.2) -> AvgProblem:
    """Pure-oscillation corpus case: f(s, psi) = sin(s) psi(0), average zero."""
    p = linear_periodic_problem(a0=0.0, b0=1.0, phi_c=phi_c, L=L, eps0=eps0)

    def f(s, psi):
        return np.sin(s) * psi(0.0)

    return replace(p, f=f)


def compare(p: AvgProblem, eps_list: Sequence[float],
            check: bool = True) -> AvgReport:
    """Solve both systems per eps, measure sup errors, fit the eps-order.

    The solver's typed failures (SOLVER_ERRORS) are recorded per eps and
    excluded from the fit; any other error propagates.  The pass flag per
    eps is error <= J * eps.
    """
    if check:
        check_problem(p)
    estimate_based = False
    consts = dict(p.consts)
    missing = [k for k in REQUIRED_CONSTS if k not in consts]
    if missing:
        est = estimate_constants(p)
        consts.update({k: est[k] for k in missing})
        p = replace(p, consts=consts)
        estimate_based = True

    eps_list = [float(e) for e in eps_list]
    errors: dict[float, float] = {}
    failures: dict[float, str] = {}
    for eps in eps_list:
        try:
            x = solve_original(p, eps)
            y = solve_averaged(p, eps)
            errors[eps] = sup_difference(x, y)
        except SOLVER_ERRORS as exc:
            failures[eps] = f"{type(exc).__name__}: {exc}"

    J = error_constant(p)
    measured = [errors.get(eps, math.nan) for eps in eps_list]
    passes = [not math.isnan(err) and err <= J * eps
              for eps, err in zip(eps_list, measured)]
    fit_pts = [(eps, err) for eps, err in zip(eps_list, measured)
               if not math.isnan(err) and err > 1e-12]
    # a line through fewer than two distinct eps is not determined
    if len({eps for eps, _ in fit_pts}) >= 2:
        slope = _slope(np.log([e for e, _ in fit_pts]), np.log([v for _, v in fit_pts]))
    else:
        slope = math.nan
    return AvgReport(eps_list, measured, J, slope, passes, failures, estimate_based)
