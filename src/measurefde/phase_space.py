"""Regulated history functions on (-inf, 0], stored on node arrays.

A history is stored like a Trajectory: ascending nodes ending at theta = 0,
the value (left limit) and the right limit at each node, and a constant tail
value for theta <= the first node.  One reading rule (_read) serves both.
The weighted sup norm, the freeze-and-translate shift operator and history
extraction from trajectories all operate on this representation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .stieltjes import _union


# a time this close to a node reads the node's stored (left) value
_MESH_HIT = 1e-12
# A bound check passes within BOUND_SLACK of 1, and certifies a failing
# candidate if at most MAX_DOUBLINGS doublings of it pass.
BOUND_SLACK = 1e-9
MAX_DOUBLINGS = 10


class PhaseSpaceError(ValueError):
    pass


class InfiniteNormError(PhaseSpaceError):
    """Exponential weight with a nonzero tail has no finite norm."""


class HistoryRangeError(PhaseSpaceError):
    """Requested time lies outside the representable range."""


def _hits(node, x):
    """Whether a read at x lands on the node (floats or arrays)."""
    return abs(node - x) <= _MESH_HIT


def _lerp(nodes, left, right, j, x):
    """The line from right[j - 1] to left[j] at x (floats or arrays)."""
    lam = (x - nodes[j - 1]) / (nodes[j] - nodes[j - 1])
    return right[j - 1] + lam[..., None] * (left[j] - right[j - 1])


def _read(nodes, left, right, x):
    """The one reading rule of node arrays at the 1-d array x above
    nodes[0]: a node hit reads the node's left value (the right neighbour
    wins a double hit), and on (nodes[i], nodes[i+1]] the line from
    right[i] to left[i+1].  Never returns memory shared with left or
    right."""
    j = np.minimum(nodes.searchsorted(x), len(nodes) - 1)
    out = _lerp(nodes, left, right, j, x)
    for node in (j - 1, j):
        hit = _hits(nodes[node], x)
        if hit.any():
            out[hit] = left[node[hit]]
    return out


class RegulatedFn:
    """Regulated function on (-inf, 0] with a finite active window.

    phi is the tail value on theta <= thetas[0], left[i] at the node
    thetas[i], and on (thetas[i], thetas[i+1]] the line from right[i] to
    left[i+1], as _read reads it; left[0] is never read.  The one exception
    is theta = 0 itself, which reads right[-1]: it differs from the left
    limit phi(0-) = left[-1] only after a jump at 0.
    """

    __slots__ = ("thetas", "left", "right", "tail_value", "dim", "_smooth",
                 "_at_zero")

    def __init__(self, thetas, left, right, tail_value):
        t = np.asarray(thetas, dtype=float)
        left = np.asarray(left, dtype=float).reshape(len(t), -1)
        right = np.asarray(right, dtype=float).reshape(left.shape)
        if len(t) < 2 or t[-1] != 0.0 or np.any(np.diff(t) <= 0):
            raise ValueError("need >= 2 strictly increasing thetas ending at 0")
        tail = np.atleast_1d(np.asarray(tail_value, dtype=float))
        if tail.shape != (left.shape[1],):
            raise ValueError("tail dimension mismatch")
        self.thetas, self.left, self.right, self.tail_value = t, left, right, tail
        self.dim = left.shape[1]
        # jump-free: np.interp over (thetas, left) reads it
        self._smooth = np.array_equal(left[:-1], right[:-1])
        self._at_zero = None if np.array_equal(left[-1], right[-1]) else right[-1]

    # -- basic geometry ---------------------------------------------------

    @property
    def window_start(self) -> float:
        return float(self.thetas[0])

    @property
    def breakpoints(self) -> np.ndarray:
        """The window start, the nodes where phi jumps, and 0."""
        return np.array([th[0] for th, _ in self.segments] + [0.0])

    @property
    def segments(self) -> tuple:
        """The jump-free pieces as (thetas, values), split at the inner
        jumps; each opens at its first node's right limit."""
        jumps = (self.left[1:-1] != self.right[1:-1]).any(axis=1)
        cuts = [0, *(1 + np.flatnonzero(jumps)).tolist(), len(self.thetas) - 1]
        return tuple((self.thetas[a:b + 1], np.vstack([self.right[a], self.left[a + 1:b + 1]]))
                     for a, b in zip(cuts, cuts[1:]))

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, value, window_start: float = -1.0, tail_value=None) -> "RegulatedFn":
        v = np.atleast_1d(np.asarray(value, dtype=float))
        return cls.polyline([window_start, 0.0], [v, v], tail_value)

    @classmethod
    def polyline(cls, thetas, values, tail_value=None) -> "RegulatedFn":
        """Continuous polyline through samples ending at theta = 0."""
        v = np.asarray(values, dtype=float).reshape(len(thetas), -1)
        return cls(thetas, v, v, v[0] if tail_value is None else tail_value)

    # -- evaluation ---------------------------------------------------------

    def eval(self, theta) -> np.ndarray:
        """Vectorised evaluation; returns shape (n, dim) for array input."""
        th = np.asarray(theta, dtype=float)
        scalar = th.ndim == 0
        th = np.atleast_1d(th)
        if self._smooth:  # one np.interp per dimension
            cols = [np.interp(th, self.thetas, self.left[:, d]) for d in range(self.dim)]
            out = cols[0][:, None] if self.dim == 1 else np.stack(cols, axis=1)
        else:
            out = _read(self.thetas, self.left, self.right, np.minimum(th, 0.0))
        out[th <= self.thetas[0]] = self.tail_value
        if self._at_zero is not None:
            out[th == 0.0] = self._at_zero
        return out[0] if scalar else out

    def __call__(self, theta):
        """Scalar-friendly evaluation: floats in/out for one-dimensional data."""
        res = self.eval(theta)
        if self.dim == 1:
            return float(res[0]) if res.ndim == 1 else res[..., 0]
        return res

    def value_at_zero(self) -> np.ndarray:
        return self.eval(0.0)


@dataclass(frozen=True)
class Weight:
    """Weight rho for the weighted history norm sup |phi(theta)| / rho(theta).

    kind "exp_pos" is rho(theta) = exp(theta); kind "constant_one" is a flat
    weight on a truncated window (plain sup norm).  Both have rho(0) = 1 and
    the translation envelope p(t) = sup_{theta <= -t} rho(t+theta)/rho(theta)
    locally bounded (exp(t) and 1 respectively).
    """

    kind: str = "exp_pos"

    def __post_init__(self):
        if self.kind not in ("exp_pos", "constant_one"):
            raise ValueError(f"unknown weight kind {self.kind!r}")

    def rho(self, theta):
        th = np.asarray(theta, dtype=float)
        return np.exp(th) if self.kind == "exp_pos" else np.ones_like(th)

    def tail_sup(self, tail) -> float:
        """The tail's share of the weighted sup norm: |tail| for the flat
        weight, 0 for exp(theta), under which a nonzero tail has none."""
        size = float(np.linalg.norm(tail))
        if self.kind == "exp_pos" and size > 0.0:
            raise InfiniteNormError("exp weight requires a zero tail value")
        return size if self.kind == "constant_one" else 0.0

    def shift_growth(self, t: float) -> float:
        """Default bound constant sup k3 style growth for this weight."""
        return math.exp(t) if self.kind == "exp_pos" else 1.0


EXP_WEIGHT = Weight("exp_pos")
UNIFORM_WEIGHT = Weight("constant_one")


def phase_norm(phi: RegulatedFn, weight: Weight = EXP_WEIGHT) -> float:
    """Weighted sup norm over the window, exact at the samples and refined
    between them on 64 points per jump-free piece.

    The tail enters as Weight.tail_sup rules: the flat weight includes it,
    and the exponential weight raises InfiniteNormError unless it is zero.
    """
    best = weight.tail_sup(phi.tail_value)
    for thetas, values in phi.segments:
        pts = _union(thetas, np.linspace(thetas[0], thetas[-1], 64))
        vals = np.stack([np.interp(pts, thetas, col) for col in values.T], axis=1)
        ratios = np.linalg.norm(vals, axis=1) / weight.rho(pts)
        best = max(best, float(np.max(ratios)))
    return max(best, float(np.linalg.norm(phi.right[-1])))  # phi(0); rho(0) = 1


def shift(phi: RegulatedFn, t: float) -> RegulatedFn:
    """Freeze-and-translate operator on histories.

    The result keeps phi(0) at theta = 0, holds the left limit phi(0-) on
    [-t, 0), and translates the deeper past: phi(t + theta) for theta < -t.
    """
    if t < 0:
        raise ValueError("shift requires t >= 0")
    if t < 1e-12:  # below representable window resolution
        return phi
    frozen = phi.left[-1:]
    return RegulatedFn(np.append(phi.thetas - t, 0.0), np.vstack([phi.left, frozen]),
                       np.vstack([phi.right[:-1], frozen, phi.right[-1:]]),
                       phi.tail_value)


def _check_range(traj, t_lo: float, t_hi: float) -> None:
    """Raise HistoryRangeError unless trajectory traj holds x on [t_lo, t_hi]."""
    end = float(traj.mesh[-1])
    if t_hi > end + 1e-9:
        raise HistoryRangeError(f"time {t_hi} beyond computed range {end}")
    if t_lo < traj.t0 + traj.initial_history.window_start - 1e-12:
        raise HistoryRangeError(
            f"time {t_lo} below the initial history window at {traj.t0}")


def segment(traj, t: float, max_depth: float | None = None) -> RegulatedFn:
    """History x_t of a trajectory, theta -> x(t + theta), valued by the
    rule of traj.value_at (duck-typed trajectory).

    Its nodes are phi0's, shifted by t0 - t, and then the mesh nodes below
    t, with their values; the node at t0 keeps phi0's value and opens the
    mesh's first cell.  The last node is theta = 0 with the value x(t): a
    node that t hits is left out, so a jump exactly at t belongs to the
    future.  max_depth cuts the window at -max_depth, with a node there on
    the line of its cell, and freezes x(t - max_depth) as the tail, for
    solvers that declare a finite memory depth.
    """
    t0, phi0, mesh = traj.t0, traj.initial_history, traj.mesh
    _check_range(traj, t, t)
    depth = math.inf if max_depth is None else max_depth
    if _hits(t, t0):
        if -depth <= phi0.window_start:
            return phi0
        t = t0
    t = min(t, float(mesh[-1]))
    reach = phi0.window_start + (t0 - t)  # phi0's first node, as placed below
    lo = max(-depth, reach)
    tail = phi0.tail_value if lo == reach else traj.value_at(t + lo)
    if lo >= 0.0:  # t at phi0's window start: only the tail is left
        return RegulatedFn.constant(tail)
    k = int(mesh.searchsorted(t))
    j = int(mesh.searchsorted(t + lo, side="right")) - 1
    if j > 0:  # the cut lies past t0: the mesh nodes from the one below it
        th, left, right = mesh[j:k] - t, traj.values[j:k], traj.post_jump_values[j:k]
    else:
        th = np.concatenate([phi0.thetas + (t0 - t), mesh[1:k] - t])
        left = np.vstack([phi0.left, traj.values[1:k]])
        right = np.vstack([phi0.right[:-1], traj.post_jump_values[:max(k, 1)]])
    n = int(th.searchsorted(0.0))
    n -= n > 1 and _hits(th[n - 1], 0.0)
    end = traj.value_at(t)
    # x(t-) is x(t) but at t0, where phi0 may jump at 0
    end_left = phi0.left[-1] if t == t0 else end
    th = np.append(th[:n], 0.0)
    left, right = np.vstack([left[:n], end_left]), np.vstack([right[:n], end])
    i = max(int(th.searchsorted(lo, side="right")) - 1, 0)  # lo in [th[i], th[i+1])
    left[i] = right[i] = _lerp(th, left, right, i + 1, lo)
    th[i] = lo
    return RegulatedFn(th[i:], left[i:], right[i:], tail)


# -- numeric checks of the phase-space bounding constants -------------------


@dataclass(frozen=True)
class BoundCandidates:
    """Candidate envelope functions for the history-norm inequalities."""

    k1: Callable[[float], float]
    k2: Callable[[float], float]
    k3: Callable[[float], float]
    k: Callable[[float], float]


def exp_weight_candidates() -> BoundCandidates:
    """Derived proposals for the exponential weight, validated empirically."""
    return BoundCandidates(
        k1=lambda u: 1.0,
        k2=lambda u: math.exp(u),
        k3=lambda u: math.exp(u),
        k=lambda u: math.exp(u) - 1.0,
    )


@dataclass(frozen=True)
class BoundReport:
    name: str
    worst_ratio: float            # max of lhs / rhs over the sample grid
    certified_scale: float        # smallest 2^m making the candidate pass
    doublings: int
    passed: bool                  # candidate passes unscaled
    certified: bool               # some scale within the doubling budget passes

    def summary(self) -> str:
        flag = "pass" if self.passed else ("certified" if self.certified else "FAIL")
        return (f"{self.name}: worst ratio {self.worst_ratio:.6g}, "
                f"scale {self.certified_scale:g} ({flag})")


def _certify(name: str, worst: float) -> BoundReport:
    passed = worst <= 1.0 + BOUND_SLACK
    doublings = 0
    scale = 1.0
    certified = passed
    if not passed and math.isfinite(worst):
        doublings = max(0, math.ceil(math.log2(worst)))
        certified = doublings <= MAX_DOUBLINGS
        scale = 2.0 ** doublings
    return BoundReport(name, worst, scale, doublings, passed, certified)


def check_memory_bounds(traj, consts: BoundCandidates, weight: Weight,
                        n_grid: int = 24) -> list[BoundReport]:
    """Check the pointwise and history-norm growth inequalities on a trajectory.

    Inequality (b): |y(t)| <= k1(t - t0) * ||y_t||; inequality (c):
    ||y_t|| <= k2(t - t0) ||y_{t0}|| + k3(t - t0) sup_{[t0, t]} |y|.
    Statistical evidence only; failing candidates are rescaled by doubling
    and the certified scale is reported.
    """
    t0 = traj.t0
    t_end = float(traj.mesh[-1])
    grid = np.linspace(t0, t_end, n_grid)
    norm0 = phase_norm(traj.initial_history, weight)
    worst_b = 0.0
    worst_c = 0.0
    running_sup = 0.0
    for t in grid:
        hist = segment(traj, float(t))
        nt = phase_norm(hist, weight)
        yt = float(np.linalg.norm(hist.value_at_zero()))
        running_sup = max(running_sup, yt, _sup_on(traj, t0, float(t)))
        dt = float(t - t0)
        rhs_b = consts.k1(dt) * nt
        worst_b = max(worst_b, _ratio(yt, rhs_b))
        rhs_c = consts.k2(dt) * norm0 + consts.k3(dt) * running_sup
        worst_c = max(worst_c, _ratio(nt, rhs_c))
    return [_certify("pointwise-vs-norm (k1)", worst_b),
            _certify("norm-growth (k2,k3)", worst_c)]


def check_shift_bound(phi: RegulatedFn, t: float, k: Callable[[float], float],
                      weight: Weight) -> BoundReport:
    """Check ||S(t) phi|| <= (1 + k(t)) ||phi|| for one history and shift."""
    lhs = phase_norm(shift(phi, t), weight)
    rhs = (1.0 + k(t)) * phase_norm(phi, weight)
    return _certify(f"shift-bound t={t:g}", _ratio(lhs, rhs))


def _sup_on(traj, a: float, b: float) -> float:
    m = (traj.mesh >= a - 1e-12) & (traj.mesh <= b + 1e-12)
    if not np.any(m):
        return 0.0
    vals = np.linalg.norm(np.atleast_2d(traj.values[m]), axis=1)
    post = np.linalg.norm(np.atleast_2d(traj.post_jump_values[m]), axis=1)
    return float(max(vals.max(), post.max()))


def _ratio(lhs: float, rhs: float) -> float:
    if lhs <= 1e-300:
        return 0.0
    if rhs <= 1e-300:
        return math.inf
    return float(lhs / rhs)
