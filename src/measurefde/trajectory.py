"""Solution trajectories on a jump-aware mesh, and the view through which
the Picard sweep reads their histories at absolute times.

Trajectory.value_at is the one rule for x(t).  _HistoryView hands the
right-hand sides a batch of histories with one row per time, read through
that rule without building a RegulatedFn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .phase_space import RegulatedFn, _check_range, _read


@dataclass
class Trajectory:
    """Solution values on a sorted mesh, with explicit post-jump values.

    The stored value at a jump time is the left value; the post-jump value
    sits alongside, so the trajectory is left-continuous and jumps to the
    right of each jump time of g.
    """

    mesh: np.ndarray
    values: np.ndarray
    post_jump_values: np.ndarray
    initial_history: RegulatedFn
    t0: float

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def value_at(self, t) -> np.ndarray:
        """x at absolute times t, a float or a 1-d array: phi0(t - t0) at
        or below t0, and above it the mesh read by phase_space._read: the
        stored (left) value at a node hit, and on (t_i, t_{i+1}] the line
        from the post-jump value at t_i to the stored value at t_{i+1}.
        Never returns memory shared with the value arrays."""
        phi0, t0 = self.initial_history, self.t0
        ts = np.asarray(t, dtype=float)
        flat = np.atleast_1d(ts)
        past = flat <= t0
        if past.all():  # tanh's lag reads mostly inside phi0: no mesh work
            out = phi0.eval(flat - t0)
        else:
            out = np.empty((len(flat), self.dim))
            if past.any():
                out[past] = phi0.eval(flat[past] - t0)
            out[~past] = _read(self.mesh, self.values, self.post_jump_values, flat[~past])
        return out[0] if ts.ndim == 0 else out

    def sup_distance(self, other: "Trajectory") -> float:
        d1 = np.abs(self.values - other.values).max()
        d2 = np.abs(self.post_jump_values - other.post_jump_values).max()
        return float(max(d1, d2))


class _HistoryView:
    """A batch of histories x_t, one per entry of the 1-d array t, each read
    as theta -> x(t + clip(theta, -depth, 0)) through Trajectory.value_at
    without building a RegulatedFn.

    Every read returns one row per time, and a theta array of shape (n, m)
    gives row i its own m points.  A post index j >= 0 reads the right limit
    post_jump_values[j] at theta = 0.  Valid only while x is not written:
    f and rho_delay get it for the length of a call.  reads[0] is the most
    points a read made for one of its rows, shared with the views made from
    it; a row repeated k times counts k times.

    settled is a time at or below which x will not change for the rest of
    the pass that made the view: a read at an absolute time t + clip(theta)
    <= settled, other than a right limit, returns the same bits on every
    later view with the same settled.  The Picard solver sets it to the base
    node of the window it sweeps; every other view has -inf, which settles
    nothing.
    """

    __slots__ = ("x", "t", "lo", "dim", "post", "rep", "reads", "settled")

    def __init__(self, x: Trajectory, t: np.ndarray, depth: float | None, post=None,
                 settled: float = -math.inf):
        t_hi = float(t.max())
        _check_range(x, float(t.min()), t_hi)
        if t_hi > x.mesh[-1]:
            t = np.minimum(t, x.mesh[-1])
        self.x, self.dim, self.t, self.post, self.rep = x, x.dim, t, post, 1
        self.lo = -math.inf if depth is None else -depth
        self.reads, self.settled = [0], settled

    def _like(self, t, post, rep: int = 1) -> "_HistoryView":
        view = object.__new__(_HistoryView)
        view.x, view.dim, view.lo, view.reads = self.x, self.dim, self.lo, self.reads
        view.t, view.post, view.rep, view.settled = t, post, rep, self.settled
        return view

    def take(self, rows) -> "_HistoryView":
        """The rows of a batch without repeats that rows selects, as a batch."""
        post = None if self.post is None else self.post[rows]
        return self._like(self.t[rows], post)

    def repeat(self, k: int) -> "_HistoryView":
        """The batch with every row repeated k times in place; reads shared
        by all rows are made once per distinct row."""
        return self._like(self.t, self.post, self.rep * k)

    def eval(self, theta) -> np.ndarray:
        x, t, post, rep = self.x, self.t, self.post, self.rep
        th = np.maximum(np.asarray(theta, dtype=float), self.lo)
        th = np.minimum(th, 0.0, out=th if th.ndim else None)
        if th.ndim == 2 and rep > 1:  # every repeated row reads its own points
            t, rep = np.repeat(t, rep), 1
            post = None if post is None else np.repeat(post, self.rep)
        tau = t if th.ndim == 0 else t[:, None]
        if post is not None:
            j = np.broadcast_to(post.reshape(tau.shape), np.broadcast_shapes(tau.shape, th.shape))
            right = (j >= 0) & (th == 0.0)
        if th.ndim == 2:  # the absolute read times
            th += tau
        else:
            th = tau + th
        self.reads[0] = max(self.reads[0], th.size * rep // len(self.t))
        out = x.value_at(th.ravel()).reshape(th.shape + (self.dim,))
        if post is not None:
            out[right] = x.post_jump_values[j[right]]
        return out if rep == 1 else np.repeat(out, rep, axis=0)

    __call__ = RegulatedFn.__call__
