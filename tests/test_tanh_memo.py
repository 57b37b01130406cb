"""The tanh example's per-time memo of what it reads from phi0, and f's
reuse of its settled kernel columns across a window's sweeps.

rho keeps the lag of every row whose reads all lie in phi0, and f keeps
the part of its kernel integral over the columns that no time of the
horizon reads above t0.  f also keeps the products of its last batch's
other columns, for a later batch of the same reads whose view settles
them.  A kept value must carry the bits a memo-free evaluation gives, and
no row that reads the iterate, and no other history, may be served one.
"""

from dataclasses import replace

import numpy as np
import pytest

from measurefde import mfde
from measurefde.mfde import (HypothesisViolationError, _HistoryView,
                             build_mesh, gamma_apply, initial_trajectory,
                             residual, solve_picard, tanh_kernel_problem)
from measurefde.phase_space import RegulatedFn
from measurefde.trajectory import Trajectory


def seed0_train(t0: float) -> tuple:
    """The benchmark's seed-0 impulse train on [t0, t0 + 2]: impulses at
    t0 + 0.1 k +- 0.02, k = 1 .. 19, of sizes 0.02-0.06."""
    rng = np.random.default_rng(0)
    times = 0.1 * np.arange(1, 20) + rng.uniform(-0.02, 0.02, 19)
    sizes = rng.uniform(0.02, 0.06, 19)
    return tuple((t0 + float(t), float(m)) for t, m in zip(times, sizes))


def noisy(p, step: float, seed: int) -> Trajectory:
    x = initial_trajectory(p, build_mesh(p, step))
    x.values += np.cumsum(np.random.default_rng(seed).normal(0.0, 0.05, x.values.shape),
                          axis=0)
    x.post_jump_values = x.values.copy()
    return x


def lag(p, x, t):
    return p.rho_delay(t, _HistoryView(x, t, p.history_depth))


def rhs(p, x, t, at):
    return p.f(t, _HistoryView(x, at, p.history_depth))


@pytest.mark.parametrize("t0", [0.0, 1e6])
@pytest.mark.parametrize("train", [False, True])
def test_memo_equals_memo_free_evaluation(monkeypatch, t0, train):
    jumps = seed0_train(t0) if train else ()
    p = tanh_kernel_problem(sigma=2.0, t0=t0, jumps=jumps)
    x, iters, _ = solve_picard(p, 2e-3)
    defect = residual(x, p)
    # with no room in the memo every row is computed afresh
    monkeypatch.setattr(mfde, "MEMO_SIZE", 0)
    q = tanh_kernel_problem(sigma=2.0, t0=t0, jumps=jumps)
    y, iters_q, _ = solve_picard(q, 2e-3)
    assert iters == iters_q
    assert np.array_equal(x.values, y.values)
    assert np.array_equal(x.post_jump_values, y.post_jump_values)
    assert residual(y, q) == defect
    # batches the solve never made, served from p's memo, against fresh
    # rows of q: a row's bits do not depend on its batch
    rng = np.random.default_rng(1)
    half = np.sort(np.concatenate([x.mesh, 0.5 * (x.mesh[1:] + x.mesh[:-1])]))
    for t in (half[5:40], half[::7], rng.permutation(half)[:50], half[-1:]):
        r = lag(p, x, t)
        assert np.array_equal(r, lag(q, x, t))
        assert np.array_equal(rhs(p, x, t, r), rhs(q, x, t, r))


def test_kept_batches_make_no_lag_reads():
    p = tanh_kernel_problem(sigma=2.0)
    x, _, _ = solve_picard(p, 2e-3)
    t = x.mesh[1:200]
    view = _HistoryView(x, t, p.history_depth)
    r = p.rho_delay(t, view)
    assert view.reads[0] == 0
    fview = _HistoryView(x, r, p.history_depth)
    p.f(t, fview)
    assert fview.reads[0] == 160   # 481 kernel columns, 321 of them kept


@pytest.mark.parametrize("t0", [-5.0, -0.5])
def test_rows_that_read_the_iterate_are_never_kept(t0):
    # the lag at t reads up to min(t, -t): the iterate for every t > t0
    # at t0 = -5, and at t0 = -0.5 for |t| < 0.5, where t >= 0.5 is kept
    p = tanh_kernel_problem(sigma=2.0, t0=t0)
    fresh = tanh_kernel_problem(sigma=2.0, t0=t0)
    x = noisy(p, 0.05, 3)
    # rows at t > 0 alone make a batch whose rows the memo may keep
    for t in (x.mesh, x.mesh[x.mesh > 0.0]):
        if not len(t):
            continue
        latest = np.minimum(t, -t)
        before = [lag(p, x, t) for _ in range(2)]
        assert np.array_equal(before[0], before[1])
        x.values += 0.3
        x.post_jump_values += 0.3
        after = lag(p, x, t)
        assert np.array_equal(after, lag(fresh, x, t))
        moved = latest > t0 + 1e-6
        assert moved.any() and np.all(after[moved] != before[0][moved])
        assert np.array_equal(after[latest <= t0], before[0][latest <= t0])
        # f after the change, on rows kept before it, against fresh rows
        assert np.array_equal(rhs(p, x, t, after), rhs(fresh, x, t, after))


def test_right_limit_at_t0_is_never_kept():
    # the lag at t = t0 = 0 reads theta = 0, where a post index reads the
    # iterate's right limit in place of phi0(0)
    p = tanh_kernel_problem(sigma=2.0)
    x = noisy(p, 0.05, 4)
    x.post_jump_values[0] += 0.5
    t = x.mesh[:10]
    post = np.full(len(t), -1)
    post[0] = 0
    plain = lag(p, x, t)
    right = p.rho_delay(t, _HistoryView(x, t, p.history_depth, post))
    fresh = tanh_kernel_problem(sigma=2.0)
    assert right[0] != plain[0]
    assert np.array_equal(right, fresh.rho_delay(t, _HistoryView(x, t, p.history_depth, post)))


def test_head_columns_read_past_t0_are_never_kept():
    # stretched past the horizon it was built for, the problem reads the
    # iterate in f's head columns at times beyond t0 + 2
    p = replace(tanh_kernel_problem(sigma=2.0), sigma=3.0)
    fresh = tanh_kernel_problem(sigma=2.0)
    x = noisy(p, 0.05, 5)
    t = x.mesh[x.mesh > 1.5]
    before = [rhs(p, x, t, t) for _ in range(2)]
    assert np.array_equal(before[0], before[1])
    x.values *= 1.5
    x.post_jump_values *= 1.5
    after = rhs(p, x, t, t)
    assert np.array_equal(after, rhs(fresh, x, t, t))
    assert np.all(after != before[0])


def test_other_histories_are_never_served_kept_values():
    p = tanh_kernel_problem(sigma=2.0)
    x, _, _ = solve_picard(p, 2e-3)
    t = x.mesh[:751:3]
    r = lag(p, x, t)
    fx = rhs(p, x, t, r)
    phi = p.phi0
    fresh = tanh_kernel_problem(sigma=2.0)
    # the same values on another object are computed afresh, to the same bits
    same = Trajectory(x.mesh, x.values, x.post_jump_values,
                      RegulatedFn(phi.thetas, phi.left, phi.right, phi.tail_value), 0.0)
    assert np.array_equal(lag(p, same, t), r)
    assert np.array_equal(rhs(p, same, t, r), fx)
    # another initial history, or the same one from another t0, at times
    # the memo holds: never served kept values
    other = Trajectory(x.mesh, x.values, x.post_jump_values,
                       RegulatedFn(phi.thetas, 1.5 * phi.left, 1.5 * phi.right, 0.0), 0.0)
    later = Trajectory(x.mesh + 0.5, x.values, x.post_jump_values, phi, 0.5)
    for y, s in ((other, t), (later, t + 0.5)):
        ry = lag(p, y, s)
        assert np.array_equal(ry, lag(fresh, y, s))
        assert not np.array_equal(ry, lag(p, x, s))
        fy = rhs(p, y, s, r)
        assert np.array_equal(fy, rhs(fresh, y, s, r))
        assert not np.array_equal(fy, fx)


def test_kept_values_are_returned_as_new_arrays():
    p = tanh_kernel_problem(sigma=2.0)
    x, _, _ = solve_picard(p, 2e-3)
    t = x.mesh[10:50]
    r, fx = lag(p, x, t), rhs(p, x, t, t - 0.2)
    for _ in range(2):
        a, b = lag(p, x, t), rhs(p, x, t, t - 0.2)
        assert np.array_equal(a, r) and np.array_equal(b, fx)
        a[:] = np.nan
        b[:] = np.nan


@pytest.mark.parametrize("t0", [0.0, -0.5, 1e6])
@pytest.mark.parametrize("train", [False, True])
def test_settled_reuse_keeps_the_bits(monkeypatch, t0, train):
    # the solve's trajectory is taken before its delay check, which the
    # seed-0 train fails at t0 = -0.5 after the sweeps
    jumps, solved = seed0_train(t0) if train else (), []
    check = mfde._assert_monotone_delay

    def recorded(p, x):
        solved.append(x)
        check(p, x)

    def solve():
        p = tanh_kernel_problem(sigma=2.0, t0=t0, jumps=jumps)
        try:
            return (*solve_picard(p, 2e-3)[1:], solved[-1])
        except HypothesisViolationError as err:
            return str(err), None, solved[-1]

    monkeypatch.setattr(mfde, "_assert_monotone_delay", recorded)
    iters, delta, x = solve()
    # every sweep's views settle nothing, so f reads all of its columns
    sweep = mfde._sweep
    monkeypatch.setattr(mfde, "_sweep", lambda *args: sweep(*args[:6]))
    assert solve()[:2] == (iters, delta)
    y = solved[-1]
    assert np.array_equal(x.values, y.values)
    assert np.array_equal(x.post_jump_values, y.post_jump_values)


@pytest.mark.parametrize("t0", [0.0, 1e6])
@pytest.mark.parametrize("train", [False, True])
def test_later_sweeps_read_few_rest_columns(monkeypatch, t0, train):
    # f's rest columns are its reads of at most 160 shared points per row
    # (the 321 head columns are read through the memo's own views); the
    # first sweep of each window reads all 160 of them, a later one only
    # those some row reads above the window's base node
    rest = {}
    read = _HistoryView.eval

    def counted(view, theta):
        theta = np.asarray(theta)
        if theta.ndim == 1 and theta.size <= 160 and view.settled > -np.inf:
            rest.setdefault(view.settled, []).append(theta.size)
        return read(view, theta)

    monkeypatch.setattr(_HistoryView, "eval", counted)
    jumps = seed0_train(t0) if train else ()
    solve_picard(tanh_kernel_problem(sigma=2.0, t0=t0, jumps=jumps), 2e-3)
    assert len(rest) > 100
    assert all(sizes[0] == 160 for sizes in rest.values())
    later = [n for sizes in rest.values() for n in sizes[1:]]
    assert later and max(later) <= 4


def test_no_reuse_outside_a_solve():
    p = tanh_kernel_problem(sigma=2.0)
    x, _, _ = solve_picard(p, 2e-3)
    # a change inside the last window, whose batch f still keeps
    x.values[-4] += 0.25
    x.post_jump_values[-4] += 0.25
    fresh = tanh_kernel_problem(sigma=2.0)
    gx, gy = gamma_apply(x, p), gamma_apply(x, fresh)
    assert np.array_equal(gx.values, gy.values)
    assert np.array_equal(gx.post_jump_values, gy.post_jump_values)
    assert residual(x, p) == residual(x, fresh)
    # one problem solved at two steps, against fresh problems
    for step in (4e-3, 2e-3):
        y, iters, delta = solve_picard(p, step)
        z, iters_z, delta_z = solve_picard(tanh_kernel_problem(sigma=2.0), step)
        assert (iters, delta) == (iters_z, delta_z)
        assert np.array_equal(y.values, z.values)
        assert np.array_equal(y.post_jump_values, z.post_jump_values)


def test_columns_read_above_settled_or_at_a_right_limit_are_read_again():
    # one row at a jump node whose view settles every time up to that
    # node: only its theta = 0 read, a right limit, is read again; two rows
    # with one above the node read again what lies above it
    p = tanh_kernel_problem(sigma=2.0, t0=1e6)
    fresh = tanh_kernel_problem(sigma=2.0, t0=1e6)
    x = noisy(p, 0.05, 6)
    for t, post, changed in ((x.mesh[4:5], np.array([4]), [x.post_jump_values[4:5]]),
                             (x.mesh[4:9:4], None, [x.values[6:7], x.post_jump_values[6:7]])):
        def view():
            return _HistoryView(x, t, p.history_depth, post, x.mesh[4])

        before = p.f(t, view())
        assert np.array_equal(p.f(t, view()), before)
        for values in changed:
            values += 0.5
        after = p.f(t, view())
        assert np.array_equal(after, fresh.f(t, _HistoryView(x, t, p.history_depth, post)))
        assert after[-1] != before[-1]


class Rows:
    """A stand-in for a batch view: take keeps the rows a mask selects."""

    def __init__(self, t):
        self.t = t

    def take(self, rows):
        return Rows(self.t[rows])


def recaller(memo, asked):
    """recall on the times given, with a compute that records the times it
    is asked for, returns their negatives and marks all but 0.4 to keep."""
    def negate(times, rows):
        assert np.array_equal(rows.t, times)
        asked.append(times.tolist())
        return -times, times != 0.4

    def recall(*times):
        t = np.array(times)
        return memo.recall(t, Rows(t), negate)
    return recall


def test_memo_keeps_only_times_above_the_last_kept():
    memo, asked = mfde._TimeMemo(), []
    recall = recaller(memo, asked)
    assert recall(0.3, 0.1, 0.2).tolist() == [-0.3, -0.1, -0.2]
    assert memo.n == 3
    # at or below the last kept time 0.3: computed and not kept
    assert recall(0.3, 0.25, 0.05).tolist() == [-0.3, -0.25, -0.05]
    assert asked[-1] == [0.25, 0.05] and memo.n == 3
    # only the missing rows are computed, and 0.4 is not marked to keep
    assert recall(0.5, 0.2, 0.4).tolist() == [-0.5, -0.2, -0.4]
    assert asked[-1] == [0.5, 0.4] and memo.n == 4
    got = recall(0.1, 0.2, 0.25, 0.3, 0.4, 0.5, 0.05)
    assert got.tolist() == [-0.1, -0.2, -0.25, -0.3, -0.4, -0.5, -0.05]
    assert asked[-1] == [0.25, 0.4, 0.05]
    # kept values come back as new arrays, with nothing computed
    for _ in range(2):
        got = recall(0.1, 0.5)
        assert got.tolist() == [-0.1, -0.5] and len(asked) == 4
        got[:] = np.nan


def test_empty_memo_computes_every_row(monkeypatch):
    monkeypatch.setattr(mfde, "MEMO_SIZE", 0)
    memo, asked = mfde._TimeMemo(), []
    recall = recaller(memo, asked)
    for _ in range(2):
        assert recall(0.3, 0.1).tolist() == [-0.3, -0.1]
        assert asked[-1] == [0.3, 0.1]
    assert memo.n == 0 and len(memo.keys) == 0


def test_batches_in_decreasing_time_order_equal_fresh_rows():
    # mesh times the solve kept, between midpoints below the last kept
    # time, which are computed afresh on every call
    p = tanh_kernel_problem(sigma=2.0)
    x, _, _ = solve_picard(p, 2e-3)
    fresh = tanh_kernel_problem(sigma=2.0)
    mid = 0.5 * (x.mesh[1:] + x.mesh[:-1])
    t = np.concatenate([x.mesh[100:400], mid[100:400]])
    t = np.sort(t)[::-1].copy()
    for _ in range(2):
        r = lag(p, x, t)
        assert np.array_equal(r, lag(fresh, x, t))
        assert np.array_equal(rhs(p, x, t, r), rhs(fresh, x, t, r))


def test_lag_rules_built_once_per_window(monkeypatch):
    # the solve builds the lag rules on each window's first sweep; the
    # t = 0 row (it reads theta = 0, never kept) adds one in the first
    # window, and one each in the monotone-delay check and residual
    p = tanh_kernel_problem(sigma=2.0)
    builds, windows = [0], []
    rules, partition = mfde._lag_rules, mfde._partition_windows

    def counted(*args):
        builds[0] += 1
        return rules(*args)

    def recorded(*args):
        windows.extend(partition(*args))
        return windows

    monkeypatch.setattr(mfde, "_lag_rules", counted)
    monkeypatch.setattr(mfde, "_partition_windows", recorded)
    x, _, _ = solve_picard(p, 2e-3)
    residual(x, p)
    assert len(windows) > 100
    assert builds[0] <= len(windows) + 3


def test_tanh_observed_order():
    # sup |x_h - x_{5e-4}| on the nodes of x_h measured 1.19e-8, 1.40e-9
    # and 2.84e-10 at h = 4e-3, 2e-3, 1e-3: halving ratios 8.5 and 4.9.
    # The finest error sits below tol = 1e-9 and holds the reference's own
    # error, so each ratio may move by a factor 1.5 and each error by 2.
    ref = solve_picard(tanh_kernel_problem(sigma=2.0), 5e-4)[0]
    errs = []
    for h in (4e-3, 2e-3, 1e-3):
        x = solve_picard(tanh_kernel_problem(sigma=2.0), h)[0]
        errs.append(float(np.abs(x.values - ref.value_at(x.mesh)).max()))
    for err, measured in zip(errs, (1.19e-8, 1.40e-9, 2.84e-10)):
        assert measured / 2 <= err <= 2 * measured
    for (a, b), measured in zip(zip(errs, errs[1:]), (8.5, 4.9)):
        assert measured / 1.5 <= a / b <= 1.5 * measured
