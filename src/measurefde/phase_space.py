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
        out[tail_mask] = self.tail_value
        active = ~tail_mask
        if np.any(active):
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


def truncate_shift(phi: RegulatedFn, s: float) -> RegulatedFn:
    """History seen from s time units earlier: theta -> phi(theta + s), s <= 0.

    Discards the part of phi above s.  s below the window start is not
    representable and raises.
    """
    if s > 0:
        raise ValueError("truncate_shift requires s <= 0")
    if s == 0.0:
        return phi
    if s < phi.window_start - 1e-12:
        raise HistoryRangeError(
            f"time offset {s} below representable window start {phi.window_start}")
    segs = []
    for seg in phi.segments:
        if seg.thetas[0] >= s:
            break
        if seg.thetas[-1] <= s:
            segs.append(Segment(seg.thetas - s, seg.values.copy()))
        else:
            keep = seg.thetas < s
            t_cut = np.append(seg.thetas[keep], s)
            end_val = np.atleast_1d(np.array(
                [np.interp(s, seg.thetas, seg.values[:, d]) for d in range(phi.dim)]))
            v_cut = np.vstack([seg.values[keep], end_val[None, :]])
            segs.append(Segment(t_cut - s, v_cut))
    pv = [(pt - s, v) for pt, v in phi.point_values if pt < s]
    cut_val = np.atleast_1d(phi.eval(s))
    if not segs:
        # s coincides with the window start: constant tail window
        w = min(-1.0, phi.window_start)
        segs = [Segment(np.array([w, 0.0]), np.stack([phi.tail_value, phi.tail_value]))]
        if not np.array_equal(cut_val, phi.tail_value):
            pv.append((0.0, cut_val))
        return RegulatedFn(segs, phi.tail_value, pv)
    if not np.array_equal(cut_val, segs[-1].values[-1]):
        pv.append((0.0, cut_val))
    return RegulatedFn(segs, phi.tail_value, pv)


def _seg_nocheck(thetas: np.ndarray, values: np.ndarray) -> Segment:
    """Segment constructor for hot paths with known-valid inputs."""
    seg = object.__new__(Segment)
    object.__setattr__(seg, "thetas", thetas)
    object.__setattr__(seg, "values", values)
    return seg


def _interp_row(t: float, t_lo: float, t_hi: float,
                v_lo: np.ndarray, v_hi: np.ndarray) -> np.ndarray:
    span = t_hi - t_lo
    lam = 0.0 if span <= 0 else (t - t_lo) / span
    return v_lo + lam * (v_hi - v_lo)


def segment(traj, t: float, max_depth: float | None = None) -> RegulatedFn:
    """History window of a trajectory at time t (duck-typed trajectory).

    Splices stored trajectory values (for times in (t0, t]) with the initial
    history below t0.  Discontinuities appear only at jump times, where the
    stored value is the left value and the post-jump value opens the next
    piece.  max_depth truncates the window to [-max_depth, 0] with a frozen
    tail, for solvers that declare a finite memory depth.
    """
    t0 = traj.t0
    phi0: RegulatedFn = traj.initial_history
    if t < t0 - 1e-12:
        out = truncate_shift(phi0, t - t0)
        if max_depth is not None and out.window_start < -max_depth:
            out = _truncate_window(out, max_depth)
        return out
    mesh = traj.mesh
    if t > mesh[-1] + 1e-9:
        raise HistoryRangeError(f"time {t} beyond computed range {mesh[-1]}")
    t = min(t, float(mesh[-1]))
    if abs(t - t0) <= 1e-12:
        if max_depth is not None and phi0.window_start < -max_depth:
            return _truncate_window(phi0, max_depth)
        return phi0

    values = traj.values
    post = traj.post_jump_values
    j = int(np.searchsorted(mesh, t, side="right")) - 1
    j = min(max(j, 0), len(mesh) - 1)
    exact_end = abs(mesh[j] - t) <= 1e-12

    cut = -max_depth if max_depth is not None else -math.inf
    lo_time = t + cut
    segs: list[Segment] = []
    pv: list[tuple[float, np.ndarray]] = []
    tail = phi0.tail_value

    if lo_time > t0:
        # window starts inside the trajectory: no initial-history part
        i_start = int(np.searchsorted(mesh, lo_time, side="left"))
        i_start = min(max(i_start, 1), j)
        if mesh[i_start] - t <= cut + 1e-12:
            thetas = mesh[i_start:j + 1] - t
            vals = values[i_start:j + 1]
            jump_rows = np.nonzero(
                (post[i_start:j + 1] != values[i_start:j + 1]).any(axis=1))[0]
            tail = values[i_start]
        else:
            start_val = _interp_row(lo_time, mesh[i_start - 1], mesh[i_start],
                                    post[i_start - 1], values[i_start])
            thetas = np.concatenate([[cut], mesh[i_start:j + 1] - t])
            vals = np.vstack([start_val[None, :], values[i_start:j + 1]])
            jump_rows = 1 + np.nonzero(
                (post[i_start:j + 1] != values[i_start:j + 1]).any(axis=1))[0]
            tail = start_val
        mesh_rows = np.arange(i_start - 1, j + 1)[-len(thetas):]
    else:
        thetas = mesh[:j + 1] - t
        vals = values[:j + 1]
        jump_rows = np.nonzero((post[:j + 1] != values[:j + 1]).any(axis=1))[0]
        mesh_rows = np.arange(0, j + 1)
        offset = t0 - t
        for seg_ in phi0.segments:
            th = seg_.thetas + offset
            sv = seg_.values
            if th[-1] <= cut:
                continue
            if th[0] < cut:
                k = int(np.searchsorted(th, cut, side="right"))
                start_val = np.array([np.interp(cut, th, sv[:, d])
                                      for d in range(sv.shape[1])])
                th = np.concatenate([[cut], th[k:]])
                sv = np.vstack([start_val[None, :], sv[k:]])
                tail = start_val
            segs.append(_seg_nocheck(th, sv))
        pv.extend((pt + offset, v) for pt, v in phi0.point_values
                  if pt < 0.0 and pt + offset > cut)
        for pt, v in phi0.point_values:
            if pt == 0.0:
                pv.append((offset, v))  # junction keeps the value phi(0) = x(t0)

    # split the trajectory part at jump rows (stored value is the left value,
    # the post-jump value reopens the next piece)
    start_row = 0
    override = None
    for jr in jump_rows:
        if jr >= len(thetas) - 1 and exact_end:
            break  # jump exactly at t belongs to the future
        if jr > start_row:
            piece_t = thetas[start_row:jr + 1]
            piece_v = vals[start_row:jr + 1]
            if override is not None:
                piece_v = piece_v.copy()
                piece_v[0] = override
            segs.append(_seg_nocheck(piece_t, piece_v))
        start_row = jr
        override = post[mesh_rows[jr]]

    piece_t = thetas[start_row:]
    piece_v = vals[start_row:]
    if override is not None:
        piece_v = piece_v.copy()
        piece_v[0] = override
    if exact_end:
        piece_t = piece_t.copy()
        piece_t[-1] = 0.0
    else:
        jj = min(j + 1, len(mesh) - 1)
        end_val = _interp_row(t, mesh[j], mesh[jj], post[j], values[jj])
        piece_t = np.concatenate([piece_t, [0.0]])
        piece_v = np.vstack([piece_v, end_val[None, :]])
    if len(piece_t) == 1:
        piece_t = np.array([piece_t[0] - 1e-12, 0.0])
        piece_v = np.vstack([piece_v, piece_v])
    segs.append(_seg_nocheck(piece_t, piece_v))
    return RegulatedFn(segs, tail, pv)


def _truncate_window(phi: RegulatedFn, depth: float) -> RegulatedFn:
    """Restrict the active window to [-depth, 0], freezing the cut value as tail."""
    cut = -depth
    segs = []
    for seg in phi.segments:
        if seg.thetas[-1] <= cut:
            continue
        if seg.thetas[0] >= cut:
            segs.append(seg)
        else:
            m = seg.thetas > cut
            start_val = np.array([np.interp(cut, seg.thetas, seg.values[:, d])
                                  for d in range(phi.dim)])
            t_new = np.concatenate([[cut], seg.thetas[m]])
            v_new = np.vstack([start_val[None, :], seg.values[m]])
            segs.append(Segment(t_new, v_new))
    tail = np.atleast_1d(phi.eval(cut))
    pv = [(t, v) for t, v in phi.point_values if t > cut]
    return RegulatedFn(segs, tail, pv)


def history_to_csv(phi: RegulatedFn, path) -> None:
    """Serialize a scalar history as theta,value,left_limit,right_limit rows."""
    if phi.dim != 1:
        raise ValueError("CSV serialization supports scalar histories")
    rows = []
    for seg in phi.segments:
        for th in seg.thetas:
            th = float(th)
            rows.append((th, float(phi(th)), float(phi.left_limit(th)[0]),
                         float(phi.right_limit(th)[0])))
    seen = set()
    with open(path, "w", newline="\n") as fh:
        fh.write("theta,value,left_limit,right_limit\n")
        for row in rows:
            if row[0] in seen:
                continue
            seen.add(row[0])
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def history_from_csv(path, tail_value=0.0) -> RegulatedFn:
    """Rebuild a scalar history from theta,value,left_limit,right_limit rows."""
    data = np.genfromtxt(path, delimiter=",", names=True)
    thetas = np.atleast_1d(data["theta"])
    order = np.argsort(thetas)
    thetas = thetas[order]
    vals = np.atleast_1d(data["value"])[order]
    left = np.atleast_1d(data["left_limit"])[order]
    right = np.atleast_1d(data["right_limit"])[order]
    segs: list[Segment] = []
    pv: list[tuple[float, np.ndarray]] = []
    cur_t = [thetas[0]]
    cur_v = [right[0]]
    for i in range(1, len(thetas)):
        cur_t.append(thetas[i])
        cur_v.append(left[i])
        if vals[i] != left[i] and thetas[i] != 0.0:
            pv.append((float(thetas[i]), np.array([vals[i]])))
        if right[i] != left[i] and i < len(thetas) - 1:
            segs.append(Segment(np.array(cur_t), np.array(cur_v)[:, None]))
            cur_t, cur_v = [thetas[i]], [right[i]]
    if vals[-1] != left[-1]:
        pv.append((float(thetas[-1]), np.array([vals[-1]])))
    segs.append(Segment(np.array(cur_t), np.array(cur_v)[:, None]))
    return RegulatedFn(segs, tail_value, pv)


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
