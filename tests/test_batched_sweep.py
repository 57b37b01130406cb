"""The batched Picard sweep against the per-row oracle.

The solver calls rho_delay and f once per batch of times, with a
history view whose reads return one row per time.  The same functions lifted
by the per-row oracle of _oracles.py, which calls them once per row on a
one-row view, must give the same solution operator and raise the same typed
errors.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import OneRow, per_row
from measurefde import averaging, cli, mfde
from measurefde.mfde import (ConvergenceError, HypothesisViolationError,
                             MfdeProblem,
                             ProblemBounds, Trajectory, _HistoryView,
                             _lag_rules, _kernel, build_mesh,
                             delayed_time_series, gamma_apply,
                             initial_trajectory, residual, solve_picard,
                             tanh_kernel_problem)
from measurefde.phase_space import (UNIFORM_WEIGHT, HistoryRangeError,
                                    RegulatedFn, segment)
from measurefde.stieltjes import Integrator, _simpson_rule

BOUNDS = ProblemBounds(lambda s: 2.0, lambda s: 1.0, lambda s: 1.0, lambda s: 0.5)


def random_problem(rng, dim, n_jumps, fault):
    """Linear delay problem in both calling conventions: s is a float with
    one history, or an array with one history row per time."""
    t0 = float(rng.uniform(-1.0, 1.0))
    sigma = float(rng.uniform(0.5, 1.5))
    lag = float(rng.uniform(0.05, 0.8))
    a = rng.normal(0.0, 0.6, (dim, dim))
    b = rng.normal(0.0, 0.6, dim)
    d0, d1 = rng.uniform(0.0, 0.5, 2)

    def f(s, psi):
        s = np.asarray(s)[..., None]
        return np.sin(s) * psi.eval(-lag) + psi.eval(0.0) @ a.T + np.cos(s) * b

    def rho(s, psi):
        r = s - d0 - d1 * np.tanh(psi.eval(0.0)[..., 0]) ** 2
        if fault == "late":
            r = r + 1.5 * (np.asarray(s) > t0 + 0.5 * sigma)
        elif fault == "deep":
            r = r - 10.0
        return r

    jumps = sorted(rng.uniform(t0, t0 + sigma, n_jumps).tolist())
    g = Integrator.with_jumps(float(rng.uniform(0.5, 1.5)),
                              [(t, float(rng.uniform(0.1, 0.6))) for t in jumps])
    phi = RegulatedFn.polyline(np.array([-2.0, -1.0, 0.0]),
                               rng.normal(0.0, 1.0, (3, dim)), tail_value=np.zeros(dim))
    return MfdeProblem(f=f, rho_delay=rho, g=g, phi0=phi, t0=t0, sigma=sigma,
                       bounds=BOUNDS, tol=1e-11, history_depth=2.0)


def one_per_row(p):
    """p with rho_delay and f called once per row, through per_row."""
    return replace(p, f=per_row(p.f), rho_delay=per_row(p.rho_delay))


def outcome(fn):
    try:
        return fn()
    except (HypothesisViolationError, HistoryRangeError, ConvergenceError) as exc:
        return type(exc)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]), st.integers(0, 3),
       st.sampled_from([None, None, "late", "deep"]))
def test_batched_sweep_matches_per_row_adapter(seed, dim, n_jumps, fault):
    rng = np.random.default_rng(seed)
    batched = random_problem(rng, dim, n_jumps, fault)
    rows = one_per_row(batched)
    x = initial_trajectory(batched, build_mesh(batched, float(rng.uniform(0.01, 0.1))))
    x.values += rng.normal(0.0, 0.3, x.values.shape)
    x.post_jump_values = x.values + (rng.uniform(size=x.values.shape) < 0.2)

    ga, gb = outcome(lambda: gamma_apply(x, batched)), outcome(lambda: gamma_apply(x, rows))
    if fault == "late":
        assert ga is gb is HypothesisViolationError
    elif fault == "deep":
        assert ga is gb is HistoryRangeError
    else:
        scale = 1.0 + np.abs(gb.values).max()
        assert np.abs(ga.values - gb.values).max() <= 1e-12 * scale
        assert np.abs(ga.post_jump_values - gb.post_jump_values).max() <= 1e-12 * scale
    # the lag itself reads only x_s, so it is defined for every fault
    ra, rb = delayed_time_series(batched, x), delayed_time_series(rows, x)
    assert np.abs(ra - rb).max() <= 1e-12 * (1.0 + np.abs(rb).max())

    if fault is None and dim == 1:
        sa = outcome(lambda: solve_picard(batched, step=0.05))
        sb = outcome(lambda: solve_picard(rows, step=0.05))
        if isinstance(sa, type) or isinstance(sb, type):
            assert sa is sb   # both reject a delay that runs backwards, say
        else:
            assert sa[0].sup_distance(sb[0]) <= 1e-10


def test_batched_view_reads_rows_and_right_limits():
    phi0 = RegulatedFn.constant(0.0, window_start=-1.0)
    mesh = np.array([0.0, 0.5, 1.0])
    x = Trajectory(mesh, np.array([[0.0], [0.5], [1.0]]),
                   np.array([[0.0], [3.0], [1.0]]), phi0, 0.0)
    view = _HistoryView(x, np.array([0.5, 0.5, 1.0]), None, np.array([-1, 1, -1]))
    assert view(0.0).tolist() == [0.5, 3.0, 1.0]           # left, right limit, node
    assert view(np.array([-0.25, 0.0])).tolist() == [[0.25, 0.5], [0.25, 3.0], [2.0, 1.0]]
    per_row = view(np.array([[-0.5], [0.0], [-0.25]]))     # each row its own points
    assert per_row.tolist() == [[0.0], [3.0], [2.0]]
    assert [OneRow(view, i)(0.0) for i in range(3)] == [0.5, 3.0, 1.0]
    rep = view.repeat(2)
    assert rep(0.0).tolist() == [0.5, 0.5, 3.0, 3.0, 1.0, 1.0]
    own = rep(np.array([[0.0], [-0.1], [0.0], [-0.3], [-0.4], [0.0]]))[:, 0]
    assert own.tolist() == pytest.approx([0.5, 0.4, 3.0, 0.2, 2.6, 1.0], abs=1e-15)
    with pytest.raises(HistoryRangeError):
        _HistoryView(x, np.array([0.5, 1.0 + 1e-8]), None)
    with pytest.raises(HistoryRangeError):
        _HistoryView(x, np.array([-1.0 - 1e-9, 0.5]), None)


def test_tanh_lag_rules_are_simpson_rows():
    # one zero-padded row per t, each bit for bit the single composite
    # Simpson rule on [-6, -t], at most 0.0125 per half panel, with the
    # kernel folded into the weights
    t = np.array([0.0, 0.013, 0.4, 2.0, 5.99, 6.0, 9.0])
    nodes, weights = _lag_rules(t, 0.0125)
    for i, ti in enumerate(t):
        if ti >= 6.0:
            assert not weights[i].any() and np.all(nodes[i] == -ti)
            continue
        xs, w = _simpson_rule(-6.0, -ti, max(1, math.ceil((6.0 - ti) / 0.025)))
        k = len(xs)
        assert nodes[i, :k].tobytes() == xs.tobytes() and nodes[i, k - 1] == -ti
        assert weights[i, :k].tobytes() == (w * _kernel(xs)).tobytes()
        assert not weights[i, k:].any() and np.all(nodes[i, k:] == -ti)


@pytest.mark.parametrize("jumps", [(), ((0.5, 0.4),)])
def test_tanh_batched_rows_equal_scalar_calls(jumps):
    p = tanh_kernel_problem(sigma=7.0, jumps=jumps)
    rng = np.random.default_rng(5)
    x = initial_trajectory(p, build_mesh(p, 0.05))
    x.values += np.cumsum(rng.normal(0.0, 0.05, x.values.shape), axis=0)
    x.post_jump_values = x.values.copy()
    s = np.sort(np.concatenate([rng.uniform(0.0, 7.0, 40), [0.0, 5.999, 6.0, 7.0]]))
    view = _HistoryView(x, s, p.history_depth)
    r = p.rho_delay(s, view)
    fx = p.f(s, view)
    assert r.shape == fx.shape == s.shape
    for i, si in enumerate(s.tolist()):
        row = OneRow(view, i)
        assert abs(r[i] - p.rho_delay(si, row)) <= 1e-13
        assert abs(fx[i] - p.f(si, row)) <= 1e-13
        # the scalar forms also take a materialised history
        hist = segment(x, si, p.history_depth)
        assert abs(p.rho_delay(si, hist) - p.rho_delay(si, row)) <= 1e-11
        assert abs(p.f(si, hist) - p.f(si, row)) <= 1e-11


def test_residual_memory_stays_flat_over_a_long_mesh():
    # 10,001 nodes: a whole-mesh batch of the tanh right-hand side reads
    # 20,001 rows x 481 kernel nodes, 77 MB per array; batches sized to
    # BATCH_READS history points keep the peak near the trajectory's own size
    p = tanh_kernel_problem(sigma=20.0)
    x = initial_trajectory(p, build_mesh(p, 2e-3))
    assert len(x.mesh) == 10001
    tracemalloc.start()
    try:
        residual(x, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_tanh_lag_rule_cache_is_exact_and_unaliased():
    # the batched lag keeps the last batch's Simpson rules: repeated,
    # changed and returning times must all give a fresh problem's bits
    p = tanh_kernel_problem(sigma=2.0)
    x = initial_trajectory(p, build_mesh(p, 0.05))
    x.values += np.cumsum(np.random.default_rng(7).normal(0.0, 0.05, x.values.shape), axis=0)
    x.post_jump_values = x.values.copy()

    def lag(q, t):
        return q.rho_delay(t, _HistoryView(x, t, q.history_depth))

    a, b = np.linspace(0.0, 0.4, 17), np.linspace(0.4, 0.9, 19)
    for t in (a, a, b, a):
        r = lag(p, t)
        assert np.array_equal(r, lag(tanh_kernel_problem(sigma=2.0), t.copy()))
        r[:] = np.nan                      # the caller owns what it gets back
    t = np.linspace(1.0, 1.3, 13)
    lag(p, t)
    t += 0.05                              # times written in place are new times
    assert np.array_equal(lag(p, t), lag(tanh_kernel_problem(sigma=2.0), t.copy()))


def test_batch_reads_budget_does_not_change_results(monkeypatch):
    # every row is computed on its own and the cumulative sum carries on
    # from the last node of the batch before, so where batches split moves
    # no bit: 2**6 reads gives one-cell tanh batches, 2**20 whole windows
    rng = np.random.default_rng(0)
    times = 0.1 * np.arange(1, 20) + rng.uniform(-0.02, 0.02, 19)
    sizes = rng.uniform(0.02, 0.06, 19)
    train = cli._parse_jumps(",".join(f"{t:.6f}:{m:.6f}" for t, m in zip(times, sizes)))
    avg = averaging.linear_periodic_problem(L=1.0)
    rows = one_per_row(random_problem(np.random.default_rng(7), 1, 2, None))
    solves = {
        "original": lambda: averaging.solve_original(avg, 0.1),
        "averaged": lambda: averaging.solve_averaged(avg, 0.1),
        "tanh_impulses": lambda: solve_picard(tanh_kernel_problem(jumps=train), 2e-3)[0],
        "per_row": lambda: solve_picard(rows, 0.01)[0],
    }
    results = []
    for reads in (2**6, 2**14, 2**20):
        monkeypatch.setattr(mfde, "BATCH_READS", reads)
        results.append({k: solve() for k, solve in solves.items()})
    for other in results[1:]:
        for k, x in results[0].items():
            assert np.array_equal(x.values, other[k].values), k
            assert np.array_equal(x.post_jump_values, other[k].post_jump_values), k


def test_view_counts_reads_per_row_with_repeats():
    phi0 = RegulatedFn.constant(1.0, window_start=-1.0)
    mesh = np.linspace(0.0, 1.0, 5)
    x = Trajectory(mesh, np.ones((5, 1)), np.ones((5, 1)), phi0, 0.0)
    view = _HistoryView(x, np.array([0.25, 0.5, 1.0]), None)
    view(0.0)
    assert view.reads[0] == 1
    view(np.linspace(-0.5, 0.0, 4))           # points shared by every row
    assert view.reads[0] == 4
    view(0.0)                                 # the most for one row is kept
    assert view.reads[0] == 4
    rep = view.repeat(7)
    assert rep.reads is view.reads            # made from the batch: one count
    rep(0.0)
    assert view.reads[0] == 7
    rep(np.zeros((21, 2)))                    # each repeated row its own points
    assert view.reads[0] == 14
    rep.repeat(3)(np.array([-0.1, 0.0]))
    assert view.reads[0] == 42
    view.take([1])(np.linspace(-0.5, 0.0, 100))  # made from the batch too
    assert view.reads[0] == 100


def test_one_point_rows_in_one_long_window_keep_memory_flat():
    # x' = -x/50 reads psi(0) once per row: batches of 8,191 cells, so a
    # window of 40,000 cells is six of them.  One whole-window batch
    # (80,001 rows) peaks at 10.7 MB, the capped batches at 5.6 MB.
    c = 0.02
    p = MfdeProblem(f=lambda s, psi: -c * psi(0.0), rho_delay=lambda s, psi: s,
                    g=Integrator.identity(),
                    phi0=RegulatedFn.constant(1.0, window_start=-1.0),
                    t0=0.0, sigma=40.0, bounds=ProblemBounds(*(lambda s: c,) * 3,
                                                             lambda s: 0.0),
                    weight=UNIFORM_WEIGHT, history_depth=1.0)
    tracemalloc.start()
    try:
        x, _, _ = solve_picard(p, step=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(x.mesh) == 40001
    assert mfde._partition_windows(mfde.contraction_rate(p), x.mesh) == [(0, 40000)]
    assert abs(x.values[-1, 0] - math.exp(-0.8)) <= 1e-9
    assert peak < 7 * 2**20


def test_averaging_sweep_batches_are_few(monkeypatch, tmp_path):
    # the benchmark's 4-eps averaging run made 2,391 batched calls of f
    # with 16-cell batches; one-point rows of the original system now fill
    # a window after its opening batch, and the averaged rule's 129 repeated
    # rows per time allow 63 cells; the sampled checks' one-row calls are
    # not the solver's and are not counted
    calls = [0]
    sampling = [False]
    make = averaging.linear_periodic_problem

    def counted(*args, **kwargs):
        p = make(*args, **kwargs)

        def f(s, psi):
            calls[0] += np.ndim(s) > 0 and not sampling[0]
            return p.f(s, psi)
        return replace(p, f=f)

    def paused(check):
        def run(*args, **kwargs):
            sampling[0] = True
            try:
                return check(*args, **kwargs)
            finally:
                sampling[0] = False
        return run

    monkeypatch.setattr(averaging, "linear_periodic_problem", counted)
    for name in ("check_problem", "estimate_constants"):
        monkeypatch.setattr(averaging, name, paused(getattr(averaging, name)))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["avg", "--case", "linear", "--eps", "0.2,0.1,0.05,0.025",
                     "--L", "1", "--out", "run"]) == 0
    assert calls[0] <= 700


def test_batches_are_sized_by_the_most_reads_per_row_so_far():
    # a cheap range (a lag served from a memo, say) between wide ones must
    # not size the next wide range past BATCH_READS
    def reads_of(a: int) -> int:
        return (481, 160, 160, 481, 1, 481, 3, 3, 481)[min(a // 16, 8)]

    ranges = []

    def run(a: int, b: int) -> int:
        ranges.append((a, b))
        return reads_of(a)

    mfde._in_batches(400, run)
    assert ranges[0] == (0, 16) and ranges[-1][1] == 400
    assert all(b0 == a1 for (_, b0), (a1, _) in zip(ranges, ranges[1:]))
    for a, b in ranges[1:]:
        assert (2 * (b - a) + 1) * reads_of(a) <= mfde.BATCH_READS
