"""Periodic averaging comparison for slowly forced measure equations.

Builds the time average f0 of a T-periodic right-hand side, solves the
original eps-scaled system against the integrator h and the averaged
autonomous system against plain time on the horizon [0, L/eps], measures the
sup difference, fits its eps-scaling, and evaluates the guaranteed error
constant assembled from the declared problem constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .mfde import (MfdeProblem, ProblemBounds, Trajectory, _random_history,
                   solve_picard)
from .phase_space import UNIFORM_WEIGHT, RegulatedFn, Weight
from .stieltjes import Integrator, _sample, _simpson_rule


class AvgConditionError(ValueError):
    """A sampled structural condition (periodicity, shift, delay sign) failed."""


REQUIRED_CONSTS = ("C", "C2", "C3", "C4", "M", "Kp")


@dataclass(frozen=True)
class AvgProblem:
    """Data for the eps-forced system and its averaged counterpart.

    consts must carry honest bounds: C (history Lipschitz of f), C2 (shift
    Lipschitz), C3 (delay shift sensitivity per unit eps), C4 (delay history
    Lipschitz), M (sup bound for f and the perturbation), Kp (bound for the
    norm-growth envelope on the horizon).
    """

    f: Callable[[float, RegulatedFn], object]
    h: Integrator
    rho_delay: Callable[[float, RegulatedFn, float], float]
    phi0: RegulatedFn
    T: float
    alpha: float
    L: float
    eps0: float
    consts: dict
    g_pert: Callable[[float, RegulatedFn, float], object] | None = None
    h_pert: Integrator | None = None     # distinct integrator for the eps^2 term
    weight: Weight = UNIFORM_WEIGHT
    history_depth: float = 1.0
    solver_tol: float = 1e-9
    max_iters: int = 100
    f_vectorized: bool = False           # f accepts an array of times

    def __post_init__(self):
        if min(self.T, self.alpha, self.L, self.eps0) <= 0:
            raise ValueError("T, alpha, L, eps0 must all be positive")

    def const(self, name: str) -> float:
        try:
            return float(self.consts[name])
        except KeyError as exc:
            raise KeyError(f"missing problem constant {name!r}") from exc


def check_problem(p: AvgProblem, n_samples: int = 12, seed: int = 0,
                  raise_on_fail: bool = True) -> list[tuple[str, float, bool]]:
    """Sampled checks: T-periodicity of f, constant period increment of h,
    and the delayed time staying at or below the current time."""
    rng = np.random.default_rng(seed)
    results = []
    worst_per = 0.0
    worst_shift = 0.0
    worst_delay = 0.0
    for _ in range(n_samples):
        t = float(rng.uniform(0.0, 3.0 * p.T))
        psi = _random_history(rng, p.phi0.dim, p.history_depth)
        fv = np.asarray(p.f(t, psi), dtype=float)
        fvT = np.asarray(p.f(t + p.T, psi), dtype=float)
        worst_per = max(worst_per, float(np.max(np.abs(fv - fvT))))
        worst_shift = max(worst_shift, abs(p.h.value_at(t + p.T) - p.h.value_at(t)
                                           - p.alpha))
        eps = float(rng.uniform(1e-3, p.eps0))
        r = float(p.rho_delay(t, psi, eps))
        worst_delay = max(worst_delay, r - t)
    results.append(("f periodicity", worst_per, worst_per <= 1e-8))
    results.append(("h period increment", worst_shift, worst_shift <= 1e-10))
    results.append(("delay below current time", worst_delay, worst_delay <= 1e-12))
    if "C3" in p.consts:
        # shift sensitivity of the delay against eps * C3, sampled along one
        # random regulated extension; reported as a worst ratio
        from .mfde import Trajectory
        from .phase_space import segment

        mesh = np.linspace(0.0, 2.0 * p.T, 65)
        base = np.atleast_1d(p.phi0.value_at_zero())
        vals = np.tile(base, (len(mesh), 1)) \
            + rng.normal(0.0, 0.5, (len(mesh), p.phi0.dim)).cumsum(axis=0) / 8.0
        x = Trajectory(mesh, vals, vals.copy(), p.phi0, 0.0)
        worst_ratio = 0.0
        c3 = p.const("C3")
        for _ in range(n_samples):
            t = float(rng.uniform(0.0, p.T))
            eps = float(rng.uniform(1e-3, p.eps0))
            a, b = np.sort(rng.uniform(0.0, float(mesh[-1]), 2))
            if b - a < 1e-6:
                continue
            xa = segment(x, float(a), p.history_depth)
            xb = segment(x, float(b), p.history_depth)
            gap = abs(p.rho_delay(t, xa, eps) - p.rho_delay(t, xb, eps))
            worst_ratio = max(worst_ratio, gap / (eps * c3 * (b - a)))
        results.append(("delay shift ratio vs eps*C3 (report only)", worst_ratio,
                        worst_ratio <= 1.0 + 1e-9))
    if raise_on_fail:
        for name, worst, ok in results:
            if not ok and "(report only)" not in name:
                raise AvgConditionError(f"{name} violated by {worst:.3e}")
    return results


# -- the averaged right-hand side --------------------------------------------


def make_averaged_rule(p: AvgProblem, n_panels: int = 64):
    """Precompute a fixed quadrature rule for the averaged right-hand side.

    Returns f0(psi) evaluating (1/T) * [sum w_i f(s_i, psi) + jump atoms].
    Simpson panels are laid out between the jump times of h on [0, T); the
    jump at 0 belongs to the period, the jump at T does not.
    """
    cuts = [0.0] + [t for t, _ in p.h.jumps if 0.0 < t < p.T] + [p.T]
    nodes = []
    weights = []
    for a, b in zip(cuts, cuts[1:]):
        xs, w = _simpson_rule(a, b, max(1, int(math.ceil(n_panels * (b - a) / p.T))))
        nodes.append(xs)
        weights.append(w * _sample(p.h.density, xs))
    s_nodes = np.concatenate(nodes)
    s_weights = np.concatenate(weights)
    atoms = [(t, m) for t, m in p.h.jumps if 0.0 <= t < p.T]

    if p.f_vectorized:
        def f0(psi):
            total = s_weights @ np.atleast_1d(np.asarray(p.f(s_nodes, psi), float))
            for t, m in atoms:
                total = total + m * np.asarray(p.f(t, psi), float)
            return np.atleast_1d(total) / p.T
    else:
        def f0(psi):
            total = sum(w * np.atleast_1d(np.asarray(p.f(float(s), psi), float))
                        for s, w in zip(s_nodes, s_weights))
            for t, m in atoms:
                total = total + m * np.atleast_1d(np.asarray(p.f(t, psi), float))
            return total / p.T
    return f0


# -- the two initial value problems -------------------------------------------


def _original_problem(p: AvgProblem, eps: float) -> MfdeProblem:
    horizon = p.L / eps
    M = p.const("M")
    C = p.const("C")
    C2 = p.const("C2")
    C4 = p.const("C4")
    rhs = lambda s, psi: eps * np.atleast_1d(np.asarray(p.f(s, psi), float))
    # the eps^2 perturbation is a second integral term, against h_pert if set
    pert = lambda s, psi: eps * eps * np.atleast_1d(
        np.asarray(p.g_pert(s, psi, eps), float))
    extra_terms = () if p.g_pert is None else ((pert, p.h_pert or p.h),)
    bounds = ProblemBounds(
        M_fn=lambda s: eps * M * (1.0 + eps),
        L=lambda s: eps * C * (1.0 + eps),
        L2=lambda s: eps * C2 * (1.0 + eps),
        L3=lambda s: C4,
    )
    return MfdeProblem(f=rhs, rho_delay=lambda s, psi: p.rho_delay(s, psi, eps),
                       g=p.h, phi0=p.phi0, t0=0.0, sigma=horizon, bounds=bounds,
                       tol=p.solver_tol, max_iters=p.max_iters, weight=p.weight,
                       history_depth=p.history_depth, extra_terms=extra_terms)


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
    scale = p.alpha / p.T
    bounds = ProblemBounds(
        M_fn=lambda s: eps * p.const("M") * scale,
        L=lambda s: eps * p.const("C") * scale,
        L2=lambda s: eps * p.const("C2") * scale,
        L3=lambda s: p.const("C4"),
    )
    prob = MfdeProblem(f=lambda s, psi: eps * f0(psi),
                       rho_delay=lambda s, psi: p.rho_delay(s, psi, eps),
                       g=Integrator.identity(), phi0=p.phi0, t0=0.0,
                       sigma=p.L / eps, bounds=bounds, tol=p.solver_tol,
                       max_iters=p.max_iters, weight=p.weight,
                       history_depth=p.history_depth)
    traj, _iters, _delta = solve_picard(prob, step=step)
    return traj


def _require_eps(p: AvgProblem, eps: float):
    if not (0.0 < eps <= p.eps0):
        raise ValueError(f"eps must lie in (0, {p.eps0}]")


# -- comparison ----------------------------------------------------------------


@dataclass
class AvgReport:
    eps_list: list[float]
    measured_errors: list[float]
    theoretical_J: float
    slope: float                    # nan when the fit is degenerate
    passes: list[bool]
    failures: dict = field(default_factory=dict)
    estimate_based: bool = False

    @property
    def all_passed(self) -> bool:
        return all(self.passes) and not self.failures

    def rows(self):
        for eps, err, ok in zip(self.eps_list, self.measured_errors, self.passes):
            yield eps, err, self.theoretical_J * eps, ok, self.slope


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
    pairs.  Estimates carry a 1.5x headroom factor and small floors so the
    error constant stays finite and positive.
    """
    from .mfde import Trajectory, history_gap_norm
    from .phase_space import segment

    rng = np.random.default_rng(seed)
    mesh = np.linspace(0.0, 2.0 * p.T, 129)
    base = np.atleast_1d(p.phi0.value_at_zero())
    vals = np.tile(base, (len(mesh), 1)) \
        + rng.normal(0.0, 0.5, (len(mesh), p.phi0.dim)).cumsum(axis=0) \
        / math.sqrt(len(mesh))
    x = Trajectory(mesh, vals, vals.copy(), p.phi0, 0.0)

    M = C = C2 = C3 = C4 = 0.0
    for _ in range(n_samples):
        t = float(rng.uniform(0.0, p.T))
        eps = float(rng.uniform(1e-3, p.eps0))
        psi = _random_history(rng, p.phi0.dim, p.history_depth)
        chi = _random_history(rng, p.phi0.dim, p.history_depth)
        M = max(M, float(np.linalg.norm(np.asarray(p.f(t, psi), float))))
        gap = history_gap_norm(psi, chi, p.weight)
        if gap > 1e-9:
            dC = np.linalg.norm(np.asarray(p.f(t, psi), float)
                                - np.asarray(p.f(t, chi), float)) / gap
            C = max(C, float(dC))
            dr = abs(p.rho_delay(t, psi, eps) - p.rho_delay(t, chi, eps)) / gap
            C4 = max(C4, float(dr))
        a, b = np.sort(rng.uniform(0.0, float(mesh[-1]), 2))
        if b - a > 1e-6:
            xa = segment(x, float(a), p.history_depth)
            xb = segment(x, float(b), p.history_depth)
            dC2 = np.linalg.norm(np.asarray(p.f(t, xa), float)
                                 - np.asarray(p.f(t, xb), float)) / (b - a)
            C2 = max(C2, float(dC2))
            d3 = abs(p.rho_delay(t, xa, eps) - p.rho_delay(t, xb, eps)) \
                / (eps * (b - a))
            C3 = max(C3, float(d3))
    return {"M": M * 1.5 + 1e-6, "C": C * 1.5 + 1e-6, "C2": C2 * 1.5 + 1e-6,
            "C3": C3 * 1.5 + 1e-6, "C4": C4 * 1.5 + 1e-6,
            "Kp": p.weight.shift_growth(1.0) if p.weight.kind == "exp_pos" else 1.0}


def linear_periodic_problem(a0: float = 1.0, b0: float = 1.0, phi_c: float = 1.0,
                            L: float = 1.0, eps0: float = 0.2) -> AvgProblem:
    """Scalar corpus problem f(s, psi) = (a0 + b0 cos s) psi(0), no delay.

    Solutions have the closed forms x(t) = phi_c exp(eps (a0 t + b0 sin t))
    and y(t) = phi_c exp(eps a0 t), making the eps-order of the sup error
    checkable analytically.  Constants are honest bounds over the reachable
    set of those solutions (f itself is linear, hence unbounded over the
    whole history space).
    """
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
                      consts=consts, weight=UNIFORM_WEIGHT, history_depth=1.0,
                      f_vectorized=True)


def sine_problem(phi_c: float = 1.0, L: float = 1.0, eps0: float = 0.2) -> AvgProblem:
    """Pure-oscillation corpus case: f(s, psi) = sin(s) psi(0), average zero."""
    p = linear_periodic_problem(a0=0.0, b0=1.0, phi_c=phi_c, L=L, eps0=eps0)

    def f(s, psi):
        return np.sin(s) * psi(0.0)

    return replace(p, f=f)


def compare(p: AvgProblem, eps_list: Sequence[float],
            step: float | None = None, n_panels: int = 64,
            check: bool = True) -> AvgReport:
    """Solve both systems per eps, measure sup errors, fit the eps-order.

    Solver failures are recorded per eps and excluded from the fit; the
    pass flag per eps is error <= J * eps.
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
            x = solve_original(p, eps, step=step)
            y = solve_averaged(p, eps, step=step, n_panels=n_panels)
            errors[eps] = sup_difference(x, y)
        except Exception as exc:
            failures[eps] = f"{type(exc).__name__}: {exc}"

    J = error_constant(p)
    measured = [errors.get(eps, math.nan) for eps in eps_list]
    passes = [not math.isnan(err) and err <= J * eps
              for eps, err in zip(eps_list, measured)]
    fit_pts = [(eps, err) for eps, err in zip(eps_list, measured)
               if not math.isnan(err) and err > 1e-12]
    if len(fit_pts) >= 2:
        le = np.log([e for e, _ in fit_pts])
        lv = np.log([v for _, v in fit_pts])
        slope = float(np.polyfit(le, lv, 1)[0])
    else:
        slope = math.nan
    return AvgReport(eps_list, measured, J, slope, passes, failures, estimate_based)
