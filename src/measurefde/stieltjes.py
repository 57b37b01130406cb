"""Stieltjes integration against nondecreasing, left-continuous integrators.

An integrator g is stored as an absolutely continuous part (a nonnegative
density, either a constant or a callable) plus a finite sorted list of
positive jumps, normalised so that g(0) = 0.  g is left-continuous by
convention: the value at a jump time excludes the jump, so g(t+) - g(t)
equals the jump magnitude there.  Integrals of a regulated f against g pick
up f(tau) * jump(tau) at every jump with a <= tau < b; the jump at b belongs
to the interval to the right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

PANEL = 1.0 / 512.0        # max width of one Simpson panel
CHUNK_PANELS = 2 ** 16     # panels per block of a long gap: memory stays flat
GRONWALL_GRID = 129        # check_gronwall's uniform grid points on [a, b]
GRONWALL_SLACK = 1e-8      # relative slack of both of its inequalities


class IntegratorDomainError(ValueError):
    """The density part failed to integrate to a finite value."""


class IntegrandError(ValueError):
    """The integrand produced a non-finite sample."""


@dataclass(frozen=True)
class Integrator:
    """Nondecreasing, left-continuous function on the real line with g(0) = 0:
    g(t) = int_0^t density + (jumps below t) - (jumps below 0).

    The density is a nonnegative constant or a callable; a constant is
    integrated in closed form.
    """

    density: float | Callable[[float], float] = 0.0
    jumps: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if not callable(self.density):
            c = float(self.density)
            if not (math.isfinite(c) and c >= 0.0):
                raise ValueError("a constant density must be finite and nonnegative")
            object.__setattr__(self, "density", c)
        jumps = tuple((float(t), float(m)) for t, m in self.jumps)
        times = [t for t, _ in jumps]
        if not all(math.isfinite(t) for t in times):
            raise ValueError("jump times must be finite")
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("jump times must be strictly increasing")
        # 0 < m < inf is false for nan as well
        if not all(0 < m < math.inf for _, m in jumps):
            raise ValueError("jump magnitudes must be finite and strictly positive")
        times = np.array(times, dtype=float)
        # cum[k]: the first k magnitudes, less those below 0 so that g(0) = 0
        cum = np.concatenate(([0.0], np.cumsum([m for _, m in jumps])))
        object.__setattr__(self, "jumps", jumps)
        object.__setattr__(self, "_jump_times", times)
        object.__setattr__(self, "_jump_cum", cum - cum[np.searchsorted(times, 0.0)])

    # -- constructors ---------------------------------------------------

    @classmethod
    def identity(cls) -> "Integrator":
        """g(t) = t."""
        return cls(1.0)

    @classmethod
    def pure_jumps(cls, jumps: Sequence[tuple[float, float]]) -> "Integrator":
        return cls(0.0, tuple(jumps))

    @classmethod
    def with_jumps(cls, density: float | Callable[[float], float],
                   jumps: Sequence[tuple[float, float]]) -> "Integrator":
        return cls(density, tuple(jumps))

    # -- evaluation -----------------------------------------------------

    def jumps_in(self, a: float, b: float) -> list[tuple[float, float]]:
        """Jumps with a <= tau < b (the ownership convention for [a, b])."""
        return [(t, m) for t, m in self.jumps if a <= t < b]

    def cuts(self, a: float, b: float) -> list[float]:
        """a, the jump times strictly inside (a, b), and b: Simpson's cuts."""
        return [a, *(t for t, _ in self.jumps if a < t < b), b]

    def value_at(self, t: float) -> float:
        """g(t): :meth:`values_at` at one point."""
        return float(self.values_at(np.array([t]))[0])

    def values_at(self, ts: np.ndarray, origin: float = 0.0) -> np.ndarray:
        """g(ts) - g(origin) on a 1-D array of times in any order, so g itself
        by default: density * (t - origin) for a constant, else composite
        Simpson over the gaps between origin and the sorted times, whose cost
        grows with their spread and not with |origin|."""
        ts = np.asarray(ts, dtype=float)
        if isinstance(self.density, float):
            dens = self.density * (ts - origin)
        else:
            dens = np.empty_like(ts)
            acc, prev_t = 0.0, float(origin)
            for i in np.argsort(ts, kind="stable"):
                t = float(ts[i])
                acc += _simpson_density(self.density, prev_t, t)
                dens[i] = acc
                prev_t = t
        cum, times = self._jump_cum, self._jump_times
        out = dens + (cum[np.searchsorted(times, ts, "left")]
                      - cum[np.searchsorted(times, origin, "left")])
        if not np.all(np.isfinite(out)):
            raise IntegratorDomainError("integrator produced non-finite values")
        return out


def _simpson_density(density, a: float, b: float) -> float:
    """Signed integral of the density over [a, b], composite Simpson."""
    if a == b:
        return 0.0
    if b < a:
        return -_simpson_density(density, b, a)
    return sum(float(np.dot(w, _sample(density, xs)))
               for xs, w in _simpson_blocks(a, b, PANEL))


def _simpson_blocks(a: float, b: float, panel: float):
    """Composite Simpson nodes and weights on [a, b], panels at most panel
    wide, yielded in blocks of at most CHUNK_PANELS panels, so memory does
    not grow with b - a; a single block is ``_simpson_rule(a, b, n)``."""
    n = max(1, int(math.ceil((b - a) / panel)))
    for k0 in range(0, n, CHUNK_PANELS):
        k1 = min(k0 + CHUNK_PANELS, n)
        lo = a if k0 == 0 else a + (b - a) * (k0 / n)
        hi = b if k1 == n else a + (b - a) * (k1 / n)
        yield _simpson_rule(lo, hi, k1 - k0)


def _simpson_rule(a, b, panels, cols: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The package's one composite Simpson builder: nodes a + j h on [a, b],
    j = 0 .. 2 panels, the last at b exactly as np.linspace places it, and
    their weights, h/3 included.  Floats give one rule as 1-d arrays; arrays
    of ends and panel counts give one row each, padded to at least cols
    nodes with zero-weight nodes at b.  An empty interval gets zero weights."""
    one = np.ndim(a) == np.ndim(b) == np.ndim(panels) == 0
    lo, hi = np.atleast_1d(a), np.atleast_1d(b)
    twice = 2 * np.atleast_1d(panels)
    step = np.maximum(hi - lo, 0.0) / twice
    j = np.arange(max(int(twice.max()) + 1, cols))
    nodes = j * step[:, None]
    nodes += lo[:, None]
    np.minimum(nodes, hi[:, None], out=nodes)
    rows = np.arange(len(twice))
    nodes[rows, twice] = hi
    weights = np.full(len(j), 2.0)
    weights[1::2] = 4.0
    weights[0] = 1.0
    weights = weights * (j <= twice[:, None])
    weights[rows, twice] = 1.0
    weights *= step[:, None] / 3.0
    return (nodes[0], weights[0]) if one else (nodes, weights)


def _sample(fn, xs: np.ndarray) -> np.ndarray:
    """Evaluate a constant, or a scalar callable (vectorised when possible)."""
    if isinstance(fn, float):
        return np.full(xs.shape, fn)
    try:
        out = np.asarray(fn(xs), dtype=float)
        if out.shape == xs.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.array([float(fn(float(x))) for x in xs])


def _union(*arrays) -> np.ndarray:
    """Sorted distinct values of the arrays taken together: np.union1d and
    np.unique, bit for bit on non-NaN input, with the same sort and the same
    neighbour mask, but without the numpy.ma import that np.unique makes."""
    x = np.sort(np.concatenate(arrays, axis=None))
    keep = np.empty(x.shape, dtype=bool)
    keep[:1] = True
    keep[1:] = x[1:] != x[:-1]
    return x[keep]


def _as_vec(value) -> np.ndarray:
    v = np.atleast_1d(np.asarray(value, dtype=float))
    if not np.all(np.isfinite(v)):
        raise IntegrandError("integrand sample is not finite")
    return v


def integrate(f: Callable[[float], object], g: Integrator, a: float, b: float,
              panel: float = PANEL,
              breakpoints: Sequence[float] = ()) -> np.ndarray:
    """Approximate the Stieltjes integral of f against g over [a, b].

    Composite Simpson of f * density, with panels at most panel wide, on
    subintervals split at all jump times of g and at caller-declared
    breakpoints of f, plus sum of f(tau) * jump over jumps with
    a <= tau < b.  a > b is handled by a sign flip.  f returns a scalar or a
    vector of one fixed length.
    """
    if not (math.isfinite(panel) and panel > 0):
        raise ValueError("panel must be finite and positive")
    if a > b:
        return -integrate(f, g, b, a, panel, breakpoints)
    probe = _as_vec(f(a))
    total = np.zeros_like(probe)
    if a == b:
        return total
    pts = sorted({*g.cuts(a, b), *(t for t in breakpoints if a < t < b)})
    for u, v in zip(pts, pts[1:]):
        total += _simpson_segment(f, g.density, u, v, panel)
    for tau, mag in g.jumps_in(a, b):
        total += _as_vec(f(tau)) * mag
    return total


def _simpson_segment(f, density, a: float, b: float, panel: float) -> np.ndarray:
    # the segment ends sit on declared breakpoints or jump times, where a
    # regulated f may be discontinuous: sample its one-sided values there
    # (the point value at the breakpoint itself has no mass here); a few ulps
    # at least, so the nudge still moves the end far from t = 0
    nudge = max(1e-13, 1e-12 * (b - a), 4.0 * math.ulp(max(abs(a), abs(b))))
    total = 0.0
    for xs, w in _simpson_blocks(a, b, panel):
        pts = xs.tolist()
        if pts[0] == a:
            pts[0] = a + nudge
        if pts[-1] == b:
            pts[-1] = b - nudge
        fx = _as_vec([f(x) for x in pts]).reshape(len(pts), -1)
        total = total + np.einsum("i,i,ij->j", w, _sample(density, xs), fx)
    return total


def refine_ladder(f, g: Integrator, a: float, b: float, levels: int,
                  n0: int = 8) -> list[np.ndarray]:
    """Tagged Riemann-Stieltjes sums on successively halved dyadic meshes.

    Division points include every jump time of g, and each subinterval is
    tagged at its left endpoint, so a jump's contribution is f at the jump
    itself.  Used as an independent convergence oracle for :func:`integrate`;
    over a point, as there, every level is zero in f's shape.
    """
    if levels <= 0:
        raise ValueError("levels must be positive")
    if a > b:
        return [-v for v in refine_ladder(f, g, b, a, levels, n0)]
    if a == b:
        zero = np.zeros_like(_as_vec(f(a)))
        return [zero.copy() for _ in range(levels)]
    out = []
    for level in range(levels):
        n = n0 * (2 ** level)
        div = _union(np.linspace(a, b, n + 1), g.cuts(a, b))
        gv = g.values_at(div)
        tags = div[:-1]
        fx = np.stack([_as_vec(f(float(t))) for t in tags])
        out.append(np.einsum("i,ij->j", np.diff(gv), fx))
    return out


@dataclass(frozen=True)
class GronwallReport:
    times: np.ndarray
    psi_values: np.ndarray
    hypothesis_rhs: np.ndarray     # k + l * int_a^xi psi dg
    bound_values: np.ndarray       # k * exp(l (g(xi) - g(a)))
    hypothesis_ok: np.ndarray
    bound_ok: np.ndarray
    status: str                    # "ok" | "hypothesis-not-satisfied" | "bound-violated"

    @property
    def passed(self) -> bool:
        return self.status != "bound-violated"


def check_gronwall(psi: Callable[[float], float], k: float, l: float,
                   g: Integrator, a: float, b: float) -> GronwallReport:
    """Grid verification of the Gronwall implication for psi against g.

    At every grid point xi the hypothesis psi(xi) <= k + l * int_a^xi psi dg
    and the conclusion psi(xi) <= k * exp(l (g(xi) - g(a))) are evaluated.
    A hypothesis failure downgrades the report instead of failing it: the
    implication is vacuous there.
    """
    grid = _union(np.linspace(a, b, GRONWALL_GRID), g.cuts(a, b))
    psi_vals = np.array([float(psi(float(x))) for x in grid])
    if np.any(psi_vals < 0):
        raise ValueError("psi must be nonnegative")
    gv = g.values_at(grid)
    cum = np.zeros_like(grid)
    for i in range(1, len(grid)):
        piece = integrate(psi, g, float(grid[i - 1]), float(grid[i]))
        cum[i] = cum[i - 1] + float(piece[0])
    hyp_rhs = k + l * cum
    bound = k * np.exp(l * (gv - gv[0]))
    tol = GRONWALL_SLACK * (1.0 + np.abs(hyp_rhs))
    hyp_ok = psi_vals <= hyp_rhs + tol
    bound_ok = psi_vals <= bound + GRONWALL_SLACK * (1.0 + np.abs(bound))
    if not bool(np.all(hyp_ok)):
        status = "hypothesis-not-satisfied"
    elif not bool(np.all(bound_ok)):
        status = "bound-violated"
    else:
        status = "ok"
    return GronwallReport(grid, psi_vals, hyp_rhs, bound, hyp_ok, bound_ok, status)
