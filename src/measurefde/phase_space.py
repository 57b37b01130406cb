"""Finite representations of regulated history functions on (-inf, 0].

A history carries a finite active window [window_start, 0] made of polyline
segments with explicit lateral limits at the breakpoints, plus a constant
tail value for theta <= window_start.  The weighted sup norm, the
freeze-and-translate shift operator and history extraction from trajectories
all operate on this representation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


# a time this close to a trajectory's mesh node reads the node's stored
# (left) value
_MESH_HIT = 1e-12


class PhaseSpaceError(ValueError):
    pass


class InfiniteNormError(PhaseSpaceError):
    """Exponential weight with a nonzero tail has no finite norm."""


class HistoryRangeError(PhaseSpaceError):
    """Requested time lies outside the representable range."""


@dataclass(frozen=True)
class Segment:
    """One polyline piece; first/last samples are the lateral limits."""

    thetas: np.ndarray
    values: np.ndarray  # shape (len(thetas), dim)

    def __post_init__(self):
        t = np.asarray(self.thetas, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if len(t) < 2 or v.shape[0] != len(t):
            raise ValueError("segment needs matching thetas/values with >= 2 samples")
        if np.any(np.diff(t) <= 0):
            raise ValueError("segment thetas must be strictly increasing")
        object.__setattr__(self, "thetas", t)
        object.__setattr__(self, "values", v)


class RegulatedFn:
    """Regulated function on (-inf, 0] with a finite active window.

    Value conventions: at an interior breakpoint the value is the left
    limit (the left segment's last sample) unless an explicit point value
    overrides it; at theta <= window_start the value is the constant tail;
    the value at 0 is always defined.
    """

    __slots__ = ("segments", "tail_value", "dim", "_bounds", "point_values")

    def __init__(self, segments: Sequence[Segment], tail_value,
                 point_values: Sequence[tuple[float, np.ndarray]] = ()):
        if not segments:
            raise ValueError("need at least one segment")
        segs = tuple(segments)
        for left, right in zip(segs, segs[1:]):
            if abs(left.thetas[-1] - right.thetas[0]) > 1e-12:
                raise ValueError("segments must be contiguous")
        if abs(segs[-1].thetas[-1]) > 1e-12:
            raise ValueError("last segment must end at theta = 0")
        if segs[0].thetas[0] > 0:
            raise ValueError("window start must be nonpositive")
        self.segments = segs
        self.dim = segs[0].values.shape[1]
        tail = np.atleast_1d(np.asarray(tail_value, dtype=float))
        if tail.shape != (self.dim,):
            raise ValueError("tail dimension mismatch")
        self.tail_value = tail
        self._bounds = np.array([s.thetas[0] for s in segs] + [0.0])
        self.point_values = tuple((float(t), np.atleast_1d(np.asarray(v, float)))
                                  for t, v in point_values)

    # -- basic geometry ---------------------------------------------------

    @property
    def window_start(self) -> float:
        return float(self._bounds[0])

    @property
    def breakpoints(self) -> np.ndarray:
        return self._bounds.copy()

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, value, window_start: float = -1.0, tail_value=None) -> "RegulatedFn":
        v = np.atleast_1d(np.asarray(value, dtype=float))
        if window_start >= 0:
            raise ValueError("window_start must be negative")
        tail = v if tail_value is None else tail_value
        seg = Segment(np.array([window_start, 0.0]), np.stack([v, v]))
        return cls([seg], tail)

    @classmethod
    def polyline(cls, thetas, values, tail_value=None) -> "RegulatedFn":
        """Single continuous segment from samples ending at theta = 0."""
        t = np.asarray(thetas, dtype=float)
        v = np.asarray(values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        seg = Segment(t, v)
        tail = v[0] if tail_value is None else tail_value
        return cls([seg], tail)

    @classmethod
    def from_callable(cls, fn, window_start: float, n_samples: int = 256,
                      tail_value=0.0) -> "RegulatedFn":
        t = np.linspace(window_start, 0.0, n_samples)
        vals = np.stack([np.atleast_1d(np.asarray(fn(float(x)), float)) for x in t])
        dim = vals.shape[1]
        tail = np.broadcast_to(np.atleast_1d(np.asarray(tail_value, float)), (dim,))
        return cls([Segment(t, vals)], np.array(tail))

    # -- evaluation ---------------------------------------------------------

    def eval(self, theta) -> np.ndarray:
        """Vectorised evaluation; returns shape (n, dim) for array input."""
        th = np.asarray(theta, dtype=float)
        scalar = th.ndim == 0
        th = np.atleast_1d(th)
        out = np.empty((len(th), self.dim))
        tail_mask = th <= self._bounds[0]
        if len(self.segments) == 1:  # one np.interp per dimension
            seg = self.segments[0]
            for d in range(self.dim):
                out[:, d] = np.interp(th, seg.thetas, seg.values[:, d])
        elif not tail_mask.all():
            active = ~tail_mask
            ta = th[active]
            idx = np.searchsorted(self._bounds, ta, side="left")
            idx = np.clip(idx - 1, 0, len(self.segments) - 1)
            vals = np.empty((len(ta), self.dim))
            for si in np.unique(idx):
                seg = self.segments[si]
                m = idx == si
                for d in range(self.dim):
                    vals[m, d] = np.interp(ta[m], seg.thetas, seg.values[:, d])
            out[active] = vals
        out[tail_mask] = self.tail_value
        for t_pv, v_pv in self.point_values:
            hit = th == t_pv
            if np.any(hit):
                out[hit] = v_pv
        return out[0] if scalar else out

    def __call__(self, theta):
        """Scalar-friendly evaluation: floats in/out for one-dimensional data."""
        res = self.eval(theta)
        if self.dim == 1:
            res = np.asarray(res)
            return float(res[..., 0]) if res.ndim == 1 else res[..., 0]
        return res

    def value_at_zero(self) -> np.ndarray:
        return self.eval(0.0)

    def left_limit(self, theta: float) -> np.ndarray:
        if theta <= self._bounds[0]:
            return self.tail_value.copy()
        i = int(np.searchsorted(self._bounds, theta, side="left"))
        if i > 0 and abs(self._bounds[i] - theta) < 1e-15 and i - 1 < len(self.segments):
            return self.segments[i - 1].values[-1].copy()
        return np.atleast_1d(self.eval(theta))

    def right_limit(self, theta: float) -> np.ndarray:
        if theta < self._bounds[0]:
            return self.tail_value.copy()
        i = int(np.searchsorted(self._bounds, theta, side="left"))
        if i < len(self.segments) and abs(self._bounds[i] - theta) < 1e-15:
            return self.segments[i].values[0].copy()
        return np.atleast_1d(self.eval(theta))

    def sample_points(self) -> np.ndarray:
        return np.concatenate([s.thetas for s in self.segments])

    def scaled(self, alpha: float) -> "RegulatedFn":
        segs = [Segment(s.thetas.copy(), alpha * s.values) for s in self.segments]
        pv = [(t, alpha * v) for t, v in self.point_values]
        return RegulatedFn(segs, alpha * self.tail_value, pv)


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

    def shift_growth(self, t: float) -> float:
        """Default bound constant sup k3 style growth for this weight."""
        return math.exp(t) if self.kind == "exp_pos" else 1.0


EXP_WEIGHT = Weight("exp_pos")
UNIFORM_WEIGHT = Weight("constant_one")


def phase_norm(phi: RegulatedFn, weight: Weight = EXP_WEIGHT,
               grid_per_segment: int = 64) -> float:
    """Weighted sup norm over the window, exact up to grid resolution.

    For the exponential weight the tail must be zero (otherwise the sup over
    theta -> -inf diverges); the flat weight includes the tail value.
    """
    tail_norm = float(np.linalg.norm(phi.tail_value))
    if weight.kind == "exp_pos" and tail_norm > 0.0:
        raise InfiniteNormError("exp weight requires a zero tail value")
    best = tail_norm if weight.kind == "constant_one" else 0.0
    for seg in phi.segments:
        pts = np.union1d(seg.thetas,
                         np.linspace(seg.thetas[0], seg.thetas[-1], grid_per_segment))
        # exact at samples; refined between them
        vals = np.empty((len(pts), phi.dim))
        for d in range(phi.dim):
            vals[:, d] = np.interp(pts, seg.thetas, seg.values[:, d])
        ratios = np.linalg.norm(vals, axis=1) / weight.rho(pts)
        best = max(best, float(np.max(ratios)))
    for t_pv, v_pv in phi.point_values:
        best = max(best, float(np.linalg.norm(v_pv)) / float(weight.rho(t_pv)))
    return best


def shift(phi: RegulatedFn, t: float) -> RegulatedFn:
    """Freeze-and-translate operator on histories.

    The result keeps phi(0) at theta = 0, holds the left limit phi(0-) on
    [-t, 0), and translates the deeper past: phi(t + theta) for theta < -t.
    """
    if t < 0:
        raise ValueError("shift requires t >= 0")
    if t < 1e-12:  # below representable window resolution
        return phi
    segs = [Segment(s.thetas - t, s.values.copy()) for s in phi.segments]
    frozen = phi.left_limit(0.0)
    segs.append(Segment(np.array([-t, 0.0]), np.stack([frozen, frozen])))
    pv = [(pt - t, v) for pt, v in phi.point_values if pt < 0.0]
    at_zero = phi.value_at_zero()
    if not np.array_equal(at_zero, frozen):
        pv.append((0.0, at_zero))
    return RegulatedFn(segs, phi.tail_value, pv)


def segment(traj, t: float, max_depth: float | None = None) -> RegulatedFn:
    """History x_t of a trajectory, theta -> x(t + theta), valued by the
    rule of traj.value_at (duck-typed trajectory).

    The pieces are phi0's segments shifted by t0 - t, then the trajectory's
    cells up to t, split at jump rows: the stored (left) value ends a piece
    and the post-jump value opens the next.  A jump exactly at t belongs to
    the future.  max_depth clips the window to [-max_depth, 0] and freezes
    x(t - max_depth) as the tail, for solvers that declare a finite memory
    depth.
    """
    t0, phi0, mesh = traj.t0, traj.initial_history, traj.mesh
    if t > mesh[-1] + 1e-9:
        raise HistoryRangeError(f"time {t} beyond computed range {mesh[-1]}")
    if t < t0 + phi0.window_start - 1e-12:
        raise HistoryRangeError(f"time {t} below the initial history window at {t0}")
    depth = math.inf if max_depth is None else max_depth
    if abs(t - t0) <= _MESH_HIT:
        if -depth <= phi0.window_start:
            return phi0
        t = t0
    t = min(t, float(mesh[-1]))
    reach = t0 + phi0.window_start - t
    lo = max(-depth, reach)
    end = traj.value_at(t)
    pieces = [(s.thetas + (t0 - t), s.values) for s in phi0.segments]
    # trajectory nodes from the one at or below t + lo to the last below t
    # (a mesh hit at t is left out); before t0 there are none
    i = max(int(mesh.searchsorted(t + lo, side="right")) - 1, 0)
    k = int(mesh.searchsorted(t - _MESH_HIT))
    th = np.append(mesh[i:k] - t, 0.0)
    left = np.vstack([traj.values[i:k], end])
    right = np.vstack([traj.post_jump_values[i:k], end])
    jumps = 1 + np.flatnonzero((left[1:-1] != right[1:-1]).any(axis=1))
    cuts = [0, *jumps.tolist(), len(th) - 1]
    pieces += [(th[a:b + 1], np.vstack([right[a], left[a + 1:b + 1]]))
               for a, b in zip(cuts, cuts[1:])]
    segs = [Segment(*c) for c in (_clip(th, v, lo) for th, v in pieces) if c]
    tail = phi0.tail_value if lo == reach else traj.value_at(t + lo)
    if not segs:  # t at phi0's window start: only the tail is left
        segs = [Segment(np.array([-1.0, 0.0]), np.stack([tail, tail]))]
    pv = [(pt + t0 - t, v) for pt, v in phi0.point_values
          if lo < pt + t0 - t < 0.0]
    if not np.array_equal(segs[-1].values[-1], end):
        pv.append((0.0, end))
    return RegulatedFn(segs, tail, pv)


def _clip(thetas: np.ndarray, values: np.ndarray, lo: float):
    """A piece restricted to [lo, 0], interpolated inside the piece at a
    cut end; None when no part of positive length is left."""
    a, b = max(thetas[0], lo), min(thetas[-1], 0.0)
    if a >= b:
        return None
    th = np.concatenate([[a], thetas[(thetas > a) & (thetas < b)], [b]])
    return th, np.stack([np.interp(th, thetas, col) for col in values.T], axis=1)


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


def _certify(name: str, worst: float, max_doublings: int = 10,
             slack: float = 1e-9) -> BoundReport:
    passed = worst <= 1.0 + slack
    doublings = 0
    scale = 1.0
    certified = passed
    if not passed and math.isfinite(worst):
        doublings = max(0, math.ceil(math.log2(worst)))
        certified = doublings <= max_doublings
        scale = 2.0 ** doublings
    return BoundReport(name, worst, scale, doublings, passed, certified)


def check_memory_bounds(traj, consts: BoundCandidates, weight: Weight,
                        n_grid: int = 24, max_doublings: int = 10) -> list[BoundReport]:
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
    return [_certify("pointwise-vs-norm (k1)", worst_b, max_doublings),
            _certify("norm-growth (k2,k3)", worst_c, max_doublings)]


def check_shift_bound(phi: RegulatedFn, t: float, k: Callable[[float], float],
                      weight: Weight, max_doublings: int = 10) -> BoundReport:
    """Check ||S(t) phi|| <= (1 + k(t)) ||phi|| for one history and shift."""
    lhs = phase_norm(shift(phi, t), weight)
    rhs = (1.0 + k(t)) * phase_norm(phi, weight)
    return _certify(f"shift-bound t={t:g}", _ratio(lhs, rhs), max_doublings)


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
