"""Solver for measure functional differential equations with state-dependent delay.

The problem is the integral equation
    x(t) = x(t0) + sum_k int_{t0}^{t} f_k(s, x_{rho(s, x_s)}) dg_k(s),
    x_{t0} = phi,
with each g_k nondecreasing and left-continuous, solved by Picard iteration
of the solution operator on a jump-aware mesh.  The horizon is partitioned
into windows whenever the computable contraction certificate exceeds one.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Callable

import numpy as np

from .phase_space import (_MESH_HIT, EXP_WEIGHT, HistoryRangeError,
                          RegulatedFn, Weight, _ratio, segment)
from .stieltjes import Integrator, _sample, _simpson_rule


class HypothesisViolationError(ValueError):
    """The delay map returned a time above the current time."""


class ConvergenceError(RuntimeError):
    def __init__(self, message: str, final_delta: float):
        super().__init__(message)
        self.final_delta = final_delta


@dataclass(frozen=True)
class ProblemBounds:
    """Declared bound functions used by the hypothesis checks and the
    contraction certificate: pointwise bound M, history Lipschitz L,
    shift Lipschitz L2 and delay Lipschitz L3."""

    M_fn: Callable[[float], float]
    L: Callable[[float], float]
    L2: Callable[[float], float]
    L3: Callable[[float], float]


@dataclass(frozen=True)
class MfdeProblem:
    """x = x(t0) + sum of int f_k dg_k: (f, g) is the first term and
    extra_terms holds any further (f_k, g_k) pairs, all read at the same
    delayed history."""

    f: Callable[[float, RegulatedFn], object]
    rho_delay: Callable[[float, RegulatedFn], float]
    g: Integrator
    phi0: RegulatedFn
    t0: float
    sigma: float
    bounds: ProblemBounds
    tol: float = 1e-9
    max_iters: int = 80
    weight: Weight = EXP_WEIGHT
    history_depth: float | None = None
    extra_terms: tuple[tuple[Callable, Integrator], ...] = ()

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.tol <= 0 or self.max_iters <= 0:
            raise ValueError("tol and max_iters must be positive")

    @property
    def terms(self) -> tuple:
        return ((self.f, self.g),) + self.extra_terms


@dataclass
class Trajectory:
    """Solution values on a sorted mesh, with explicit post-jump values.

    The stored value at a jump time is the left value; the post-jump value
    sits alongside, so the trajectory is left-continuous and jumps to the
    right of each jump time of g.  Histories returned by history_at are
    built from copies and share no storage with the value arrays; at t0
    without a depth cut it is the initial history itself.
    """

    mesh: np.ndarray
    values: np.ndarray
    post_jump_values: np.ndarray
    initial_history: RegulatedFn
    t0: float

    def copy(self) -> "Trajectory":
        return Trajectory(self.mesh.copy(), self.values.copy(),
                          self.post_jump_values.copy(), self.initial_history, self.t0)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def history_at(self, t: float, max_depth: float | None = None) -> RegulatedFn:
        return segment(self, t, max_depth)

    def value_at(self, t) -> np.ndarray:
        """x at absolute times t: phi0(t - t0) at or below t0, the stored
        left value within _MESH_HIT of a mesh node, and on (t_i, t_{i+1}]
        the line from the post-jump value at t_i to the stored value at
        t_{i+1}.  Never returns memory shared with the value arrays."""
        mesh, post = self.mesh, self.post_jump_values
        if isinstance(t, float):  # one point: no index or mask arrays
            if t <= self.t0:
                return self.initial_history.eval(t - self.t0)
            j = min(int(mesh.searchsorted(t)), len(mesh) - 1)
            for node in (j, j - 1):
                if abs(mesh[node] - t) <= _MESH_HIT:
                    return self.values[node].copy()
            lam = (t - mesh[j - 1]) / (mesh[j] - mesh[j - 1])
            return post[j - 1] + lam * (self.values[j] - post[j - 1])
        ts = np.asarray(t, dtype=float)
        flat = np.atleast_1d(ts)
        past = flat <= self.t0
        if past.all():  # tanh's lag reads mostly inside phi0: no mesh work
            out = self.initial_history.eval(flat - self.t0)
        else:
            out = np.empty((len(flat), self.dim))
            if past.any():
                out[past] = self.initial_history.eval(flat[past] - self.t0)
            tl = flat[~past]
            j = np.minimum(mesh.searchsorted(tl), len(mesh) - 1)
            lam = (tl - mesh[j - 1]) / (mesh[j] - mesh[j - 1])
            live = post[j - 1] + lam[:, None] * (self.values[j] - post[j - 1])
            for node in (j - 1, j):  # the right neighbour wins a double hit
                hit = np.abs(mesh[node] - tl) <= _MESH_HIT
                if hit.any():
                    live[hit] = self.values[node[hit]]
            out[~past] = live
        return out[0] if ts.ndim == 0 else out

    def sup_distance(self, other: "Trajectory") -> float:
        d1 = np.abs(self.values - other.values).max()
        d2 = np.abs(self.post_jump_values - other.post_jump_values).max()
        return float(max(d1, d2))


def build_mesh(p: MfdeProblem, step: float) -> np.ndarray:
    """Uniform base mesh plus jump times of every g_k plus shifted history
    breakpoints."""
    t_end = p.t0 + p.sigma
    n = max(2, int(math.ceil(p.sigma / step)))
    pts = set(np.linspace(p.t0, t_end, n + 1).tolist())
    for _, g in p.terms:
        pts.update(t for t, _ in g.jumps if p.t0 < t < t_end)
    for bp in p.phi0.breakpoints:
        cand = p.t0 - float(bp)
        if p.t0 < cand < t_end:
            pts.add(cand)
    mesh = np.array(sorted(pts))
    # drop numerically coincident points
    keep = np.concatenate([[True], np.diff(mesh) > 1e-12])
    return mesh[keep]


def initial_trajectory(p: MfdeProblem, mesh: np.ndarray,
                       kind: str = "constant") -> Trajectory:
    """Constant extension of phi(0), or a unit-slope ramp for uniqueness tests."""
    x0 = np.atleast_1d(p.phi0.value_at_zero())
    vals = np.tile(x0, (len(mesh), 1)).astype(float)
    if kind == "ramp":
        vals = vals + (mesh - p.t0)[:, None]
    elif kind != "constant":
        raise ValueError(f"unknown initial guess {kind!r}")
    return Trajectory(mesh, vals, vals.copy(), p.phi0, p.t0)


class _HistoryView:
    """The history x_t as theta -> x(t + clip(theta, -depth, 0)), read
    through Trajectory.value_at without building a RegulatedFn.  Valid only
    while x is not written: f and rho_delay get it for the length of a call.
    """

    __slots__ = ("x", "t", "lo", "dim")

    def __init__(self, x: Trajectory, t: float, depth: float | None):
        end = float(x.mesh[-1])
        if t > end + 1e-9:
            raise HistoryRangeError(f"time {t} beyond computed range {end}")
        if t < x.t0 + x.initial_history.window_start - 1e-12:
            raise HistoryRangeError(
                f"time {t} below the initial history window at {x.t0}")
        self.x, self.t, self.dim = x, min(t, end), x.dim
        self.lo = -math.inf if depth is None else -depth

    def eval(self, theta) -> np.ndarray:
        if isinstance(theta, float):
            return self.x.value_at(self.t + min(max(theta, self.lo), 0.0))
        return self.x.value_at(self.t + np.minimum(np.maximum(theta, self.lo), 0.0))

    def __call__(self, theta):
        res = self.eval(theta)
        if self.dim == 1:
            return float(res[0]) if res.ndim == 1 else res[:, 0]
        return res


def _delayed_rhs(p: MfdeProblem, x: Trajectory, s: float) -> tuple[list, float]:
    """Every f_k evaluated on the history at the delayed time, plus the
    delayed time."""
    hist_s = _HistoryView(x, s, p.history_depth)
    r = float(p.rho_delay(s, hist_s))
    if r > s + 1e-9:
        raise HypothesisViolationError(f"rho({s}, x_s) = {r} exceeds s")
    hist_r = hist_s if abs(r - s) <= 1e-14 else _HistoryView(x, r, p.history_depth)
    return [np.atleast_1d(np.asarray(f(s, hist_r), dtype=float))
            for f, _ in p.terms], r


def _jump_sum(fs: list, caches: list, j: int) -> np.ndarray:
    """Sum of f_k * (jump of g_k) over the terms jumping at mesh index j."""
    return reduce(operator.add, [f * jump_at[j] for f, (_, _, jump_at)
                                 in zip(fs, caches) if jump_at[j]])


def _advance(p: MfdeProblem, x: Trajectory, caches: list, any_jump: np.ndarray,
             i0: int, i1: int, base_val: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One application of the solution operator on mesh indices [i0, i1].

    Returns (values, post_jump_values) for that index range, reading all
    histories from the iterate x.  Simpson on each mesh cell for the density
    part of every term; a jump at the left endpoint of a cell belongs to that
    cell.
    """
    mesh = x.mesh
    dim = x.dim
    n_pts = i1 - i0 + 1
    vals = np.empty((n_pts, dim))
    post = np.empty((n_pts, dim))
    vals[0] = base_val
    f_left, _ = _delayed_rhs(p, x, float(mesh[i0]))
    post[0] = vals[0] + (_jump_sum(f_left, caches, i0) if any_jump[i0] else 0.0)
    acc = vals[0].astype(float).copy()
    for j in range(i0, i1):
        k = j - i0
        h = mesh[j + 1] - mesh[j]
        smid = 0.5 * (mesh[j] + mesh[j + 1])
        f_mid, _ = _delayed_rhs(p, x, float(smid))
        f_right, _ = _delayed_rhs(p, x, float(mesh[j + 1]))
        if any_jump[j]:
            # density integrand over (t_j, t_{j+1}) starts from the
            # post-jump history, read clear of the node's mesh hit; the
            # jump atoms themselves use the left value
            t_post = float(mesh[j]) + max(1e-9 * h, 10 * _MESH_HIT)
            f_post, _ = _delayed_rhs(p, x, t_post)
        else:
            f_post = f_left
        inc = reduce(operator.add, [
            (h / 6.0) * (fp * dn[j] + 4.0 * fm * dm[j] + fr * dn[j + 1])
            for fp, fm, fr, (dn, dm, _) in zip(f_post, f_mid, f_right, caches)])
        if any_jump[j]:
            inc = inc + _jump_sum(f_left, caches, j)
        acc = acc + inc
        vals[k + 1] = acc
        post[k + 1] = acc + (_jump_sum(f_right, caches, j + 1)
                             if any_jump[j + 1] else 0.0)
        f_left = f_right
    return vals, post


def _mesh_caches(p: MfdeProblem, mesh: np.ndarray) -> tuple[list, np.ndarray]:
    """Per-term (density at nodes, density at midpoints, jump at node) arrays,
    and the mask of nodes where some term jumps."""
    mids = 0.5 * (mesh[:-1] + mesh[1:])
    caches = []
    for _, g in p.terms:
        jump_at = np.zeros(len(mesh))
        for t, m in g.jumps:
            hits = np.nonzero(np.abs(mesh - t) <= _MESH_HIT)[0]
            if hits.size:
                jump_at[hits[0]] = m
        caches.append((_sample(g.density, mesh), _sample(g.density, mids), jump_at))
    any_jump = np.any([jump_at != 0 for _, _, jump_at in caches], axis=0)
    return caches, any_jump


def gamma_apply(x: Trajectory, p: MfdeProblem) -> Trajectory:
    """Apply the solution operator to a candidate trajectory on its mesh."""
    base = np.atleast_1d(p.phi0.value_at_zero())
    vals, post = _advance(p, x, *_mesh_caches(p, x.mesh), 0, len(x.mesh) - 1, base)
    return Trajectory(x.mesh.copy(), vals, post, p.phi0, p.t0)


def contraction_rate(p: MfdeProblem) -> float:
    """Computable contraction certificate constant per unit of g-variation."""
    s_grid = np.linspace(p.t0, p.t0 + p.sigma, 65)
    lip = max(p.bounds.L(float(s)) + p.bounds.L2(float(s)) * p.bounds.L3(float(s))
              for s in s_grid)
    return lip * p.weight.shift_growth(p.sigma)


def _partition_windows(K: float, gvals: np.ndarray, cap: float = 0.45) -> list[tuple[int, int]]:
    n = len(gvals)
    if K * (gvals[-1] - gvals[0]) < 1.0:
        return [(0, n - 1)]
    windows = []
    i = 0
    while i < n - 1:
        j = i + 1
        while j < n - 1 and K * (gvals[j + 1] - gvals[i]) <= cap:
            j += 1
        windows.append((i, j))
        i = j
    return windows


def solve_picard(p: MfdeProblem, step: float | None = None,
                 initial_guess: str = "constant") -> tuple[Trajectory, int, float]:
    """Picard iteration from a chosen initial guess.

    Iterates x <- Gamma(x) windowwise until the sup change over the window
    mesh falls below tol; windows are sized so the contraction certificate
    K * (summed g_k-variation) stays below one half whenever the
    whole-horizon estimate is not already below one.
    """
    if step is None:
        step = p.sigma / 2000.0
    mesh = build_mesh(p, step)
    gvals = reduce(operator.add, (g.values_at(mesh) for _, g in p.terms))
    caches, any_jump = _mesh_caches(p, mesh)
    windows = _partition_windows(contraction_rate(p), gvals)

    x = initial_trajectory(p, mesh, initial_guess)
    total_iters = 0
    final_delta = 0.0
    for (i0, i1) in windows:
        base = np.atleast_1d(p.phi0.value_at_zero()) if i0 == 0 else x.values[i0].copy()
        delta = math.inf
        for _ in range(p.max_iters):
            total_iters += 1
            vals, post = _advance(p, x, caches, any_jump, i0, i1, base)
            delta = max(float(np.abs(vals - x.values[i0:i1 + 1]).max()),
                        float(np.abs(post - x.post_jump_values[i0:i1 + 1]).max()))
            x.values[i0:i1 + 1] = vals
            x.post_jump_values[i0:i1 + 1] = post
            if delta < p.tol:
                break
        else:
            raise ConvergenceError(
                f"window [{mesh[i0]:.6g}, {mesh[i1]:.6g}] did not converge "
                f"in {p.max_iters} iterations (delta={delta:.3e})", delta)
        final_delta = max(final_delta, delta)
    _assert_monotone_delay(p, x)
    return x, total_iters, final_delta


def delayed_time_series(p: MfdeProblem, x: Trajectory) -> np.ndarray:
    out = np.empty(len(x.mesh))
    for i, s in enumerate(x.mesh.tolist()):
        out[i] = float(p.rho_delay(s, _HistoryView(x, s, p.history_depth)))
    return out


def _assert_monotone_delay(p: MfdeProblem, x: Trajectory, tol: float = 1e-7):
    r = delayed_time_series(p, x)
    if np.any(r > x.mesh + 1e-9):
        raise HypothesisViolationError("delayed time exceeds current time on mesh")
    if np.any(np.diff(r) < -tol):
        worst = float(np.min(np.diff(r)))
        raise HypothesisViolationError(
            f"delayed time not nondecreasing along the solution (min step {worst:.3e})")


def residual(x: Trajectory, p: MfdeProblem) -> float:
    """Sup-norm defect of the integral equation over the mesh."""
    gx = gamma_apply(x, p)
    return x.sup_distance(gx)


# -- hypothesis sampling ------------------------------------------------------


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


def _random_history(rng: np.random.Generator, dim: int, depth: float) -> RegulatedFn:
    n = int(rng.integers(8, 24))
    thetas = np.sort(rng.uniform(-depth, 0.0, n - 2))
    thetas = np.concatenate([[-depth], thetas, [0.0]])
    thetas = np.unique(thetas)
    vals = np.cumsum(rng.normal(0.0, 1.0 / math.sqrt(len(thetas)),
                                (len(thetas), dim)), axis=0)
    return RegulatedFn.polyline(thetas, vals, tail_value=np.zeros(dim))


def history_gap_norm(a: RegulatedFn, b: RegulatedFn, weight: Weight,
                     n_grid: int = 257) -> float:
    """Weighted sup norm of the pointwise difference of two histories."""
    lo = min(a.window_start, b.window_start)
    grid = np.union1d(np.union1d(a.sample_points(), b.sample_points()),
                      np.linspace(lo, 0.0, n_grid))
    va = np.atleast_2d(a.eval(grid))
    vb = np.atleast_2d(b.eval(grid))
    ratios = np.linalg.norm(va - vb, axis=1) / weight.rho(grid)
    best = float(np.max(ratios))
    if weight.kind == "constant_one":
        best = max(best, float(np.linalg.norm(a.tail_value - b.tail_value)))
    return best


def check_bounds(p: MfdeProblem, n_samples: int = 20,
                 seed: int = 0) -> list[HypothesisReport]:
    """Randomized spot checks of the declared bound functions.

    Samples history pairs and subintervals, then compares the integral
    inequalities for the pointwise bound, the two Lipschitz bounds and the
    delay bound against the declared M, L, L2, L3.  Report only; a failure
    means the declared constants are not honest on the sampled data.
    """
    from .stieltjes import QuadConfig, integrate

    qc = QuadConfig(base_mesh=max(0.01, p.sigma / 128.0))
    rng = np.random.default_rng(seed)
    dim = p.phi0.dim
    depth = min(p.history_depth or 3.0, 3.0)
    t_end = p.t0 + p.sigma
    worst = {"pointwise (M)": 0.0, "history-lipschitz (L)": 0.0,
             "shift-lipschitz (L2)": 0.0, "delay-lipschitz (L3)": 0.0}

    mesh = build_mesh(p, p.sigma / 64.0)
    x_rand = initial_trajectory(p, mesh)
    x_rand.values += rng.normal(0.0, 0.3, x_rand.values.shape).cumsum(axis=0) \
        * math.sqrt(1.0 / len(mesh))
    x_rand.post_jump_values = x_rand.values.copy()

    for _ in range(n_samples):
        u1, u2 = np.sort(rng.uniform(p.t0, t_end, 2))
        if u2 - u1 < 1e-6:
            u2 = min(t_end, u1 + 0.1)
        psi = _random_history(rng, dim, depth)
        chi = _random_history(rng, dim, depth)

        lhs = np.linalg.norm(integrate(lambda s: p.f(s, psi), p.g, u1, u2, qc))
        rhs = float(integrate(lambda s: p.bounds.M_fn(s), p.g, u1, u2, qc)[0])
        worst["pointwise (M)"] = max(worst["pointwise (M)"], _ratio(lhs, rhs))

        gap = history_gap_norm(psi, chi, p.weight)
        lhs = np.linalg.norm(integrate(
            lambda s: np.asarray(p.f(s, psi)) - np.asarray(p.f(s, chi)), p.g, u1, u2, qc))
        rhs = float(integrate(lambda s: p.bounds.L(s) * gap, p.g, u1, u2, qc)[0])
        worst["history-lipschitz (L)"] = max(worst["history-lipschitz (L)"],
                                             _ratio(lhs, rhs))

        a, b = np.sort(rng.uniform(p.t0, t_end, 2))
        xa = segment(x_rand, float(a), p.history_depth)
        xb = segment(x_rand, float(b), p.history_depth)
        lhs = np.linalg.norm(integrate(
            lambda s: np.asarray(p.f(s, xa)) - np.asarray(p.f(s, xb)), p.g, u1, u2, qc))
        rhs = float(integrate(lambda s: p.bounds.L2(s) * abs(a - b), p.g, u1, u2, qc)[0])
        worst["shift-lipschitz (L2)"] = max(worst["shift-lipschitz (L2)"],
                                            _ratio(lhs, rhs))

        lhs = float(integrate(
            lambda s: abs(p.rho_delay(s, psi) - p.rho_delay(s, chi)), p.g, u1, u2, qc)[0])
        rhs = float(integrate(lambda s: p.bounds.L3(s) * gap, p.g, u1, u2, qc)[0])
        worst["delay-lipschitz (L3)"] = max(worst["delay-lipschitz (L3)"],
                                            _ratio(lhs, rhs))

    notes = {"shift-lipschitz (L2)": "sampled evidence only"}
    return [HypothesisReport(name, w, w <= 1.0 + 1e-7, notes.get(name, ""))
            for name, w in worst.items()]


# -- built-in worked example --------------------------------------------------

KERNEL_CUTOFF = 6.0  # kernel tail beyond -6 is below 1e-12 in integral mass


def _kernel(theta):
    th = np.asarray(theta, dtype=float)
    return np.exp(-th * th + th)


def _simpson_nodes(a: float, b: float, max_h: float) -> tuple[np.ndarray, np.ndarray]:
    return _simpson_rule(a, b, max(1, int(math.ceil((b - a) / (2.0 * max_h)))))


def tanh_kernel_problem(sigma: float = 2.0, t0: float = 0.0,
                        amplitude: float = 0.5, tol: float = 1e-9,
                        kernel_h: float = 0.0125,
                        jumps: tuple = ()) -> MfdeProblem:
    """Scalar problem with a saturating distributed right-hand side.

    f(t, psi) = cos^2(t) * int_{-inf}^{0} T(theta) tanh(psi(theta)) dtheta and
    a history-dependent lag rho(t, psi) = t - int_{-inf}^{-t} |T| tanh(|psi|)
    with kernel T(theta) = exp(-theta^2 + theta), truncated at theta = -6
    where the remaining mass is below 1e-12.  The initial history is
    amplitude * exp(theta) with a zero tail; g is the identity plus any
    caller-supplied impulses.
    """
    nodes, w = _simpson_nodes(-KERNEL_CUTOFF, 0.0, kernel_h)
    kw = _kernel(nodes) * w               # kernel already positive

    def f(t: float, psi) -> float:
        vals = np.tanh(psi(nodes))
        return float(math.cos(t) ** 2 * np.dot(kw, vals))

    def rho(t: float, psi) -> float:
        if t >= KERNEL_CUTOFF:
            return float(t)
        r_nodes, r_w = _simpson_nodes(-KERNEL_CUTOFF, -t, kernel_h)
        lag = float(np.dot(_kernel(r_nodes) * r_w, np.tanh(np.abs(psi(r_nodes - t)))))
        return float(t - lag)

    c_bar = float(np.dot(kw, np.exp(nodes)))   # int |T| e^theta
    depth = KERNEL_CUTOFF + sigma + 1.0
    theta_grid = np.linspace(-depth, 0.0, 1024)
    phi0 = RegulatedFn.polyline(theta_grid, amplitude * np.exp(theta_grid),
                                tail_value=0.0)
    bounds = ProblemBounds(
        M_fn=lambda s: 1.0,             # sup |T/e^theta| = 1 forces |f| <= 1
        L=lambda s: c_bar,
        L2=lambda s: 3.0,               # translation constant 2*1 plus sup |T| = 1
        L3=lambda s: 1.0,
    )
    g = Integrator.identity() if not jumps \
        else Integrator.with_jumps(1.0, tuple(jumps))
    return MfdeProblem(f=f, rho_delay=rho, g=g, phi0=phi0,
                       t0=t0, sigma=sigma, bounds=bounds, tol=tol,
                       weight=EXP_WEIGHT, history_depth=depth)
