import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from measurefde.stieltjes import (Integrator, IntegrandError, _simpson_rule,
                                  _union, check_gronwall, integrate,
                                  refine_ladder)

IDENTITY = Integrator.identity()


def test_identity_value():
    assert IDENTITY.value_at(3.0) == pytest.approx(3.0, abs=1e-13)


def test_left_continuity_at_jump():
    g = Integrator.pure_jumps([(0.5, 1.0)])
    assert g.value_at(0.5) == 0.0
    assert g.value_at(0.5 + 1e-9) == 1.0


def test_density_plus_jump_value():
    g = Integrator.with_jumps(lambda s: 1.0, [(1.0, 2.0)])
    # density integral 2 plus jump 2
    assert g.value_at(2.0) == pytest.approx(4.0, abs=1e-12)


def test_integrator_validation():
    with pytest.raises(ValueError):
        Integrator.pure_jumps([(0.5, -1.0)])
    with pytest.raises(ValueError):
        Integrator.pure_jumps([(0.5, 1.0), (0.5, 1.0)])
    with pytest.raises(ValueError):
        Integrator.pure_jumps([(1.0, 1.0), (0.5, 1.0)])
    # a nan time would pass the ordering check and then be dropped by the
    # searches; a nan or infinite magnitude is no jump size
    for jump in ((math.nan, 0.1), (math.inf, 0.1), (-math.inf, 0.1),
                 (0.5, math.nan), (0.5, math.inf)):
        with pytest.raises(ValueError):
            Integrator.with_jumps(1.0, [jump])
        with pytest.raises(ValueError):
            Integrator.pure_jumps([(0.2, 1.0), jump])
    for density in (-1.0, -1e-300, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            Integrator.with_jumps(density, [(0.5, 1.0)])
    for panel in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            integrate(lambda s: 1.0, IDENTITY, 0.0, 1.0, panel=panel)


DENSITIES = {"exp": np.exp, "square": lambda s: s * s,
             "one_plus_cos2": lambda s: 1.0 + np.cos(s) ** 2}


@pytest.mark.parametrize("jumps", [(), ((-0.4, 0.2), (0.3, 0.7), (1.1, 0.1))],
                         ids=["no_jumps", "jumps"])
@pytest.mark.parametrize("name", sorted(DENSITIES))
def test_value_at_matches_quad_oracle(name, jumps):
    # scipy's adaptive quad on the density plus the left-continuous jump sum,
    # normalised to g(0) = 0
    density = DENSITIES[name]
    g = Integrator(density=density, jumps=jumps)
    ts = [-0.7, -0.4, 0.0, 0.3, 0.3 + 1e-9, 1.1, 1.7, 2.0]
    for t in ts:
        dens, _ = quad(density, 0.0, t, epsabs=1e-14, epsrel=1e-13, limit=200)
        jump = math.fsum(m for tau, m in jumps if tau < t) \
            - math.fsum(m for tau, m in jumps if tau < 0.0)
        assert g.value_at(t) == pytest.approx(dens + jump, abs=1e-12)
    assert np.allclose(g.values_at(np.array(ts)), [g.value_at(t) for t in ts],
                       rtol=0.0, atol=1e-12)


def test_chunked_simpson_matches_single_block(monkeypatch):
    from measurefde import stieltjes
    g = Integrator(density=np.exp, jumps=((0.5, 1.0),))
    ts = np.array([-1.3, 0.7, 2.0])
    whole = g.values_at(ts)
    monkeypatch.setattr(stieltjes, "CHUNK_PANELS", 7)
    assert np.allclose(g.values_at(ts), whole, rtol=1e-14, atol=0.0)


def test_integrate_memory_flat_over_long_segment(monkeypatch):
    import tracemalloc

    from measurefde import stieltjes
    monkeypatch.setattr(stieltjes, "CHUNK_PANELS", 1024)
    tracemalloc.start()
    try:
        val = integrate(lambda s: 1.0, Integrator.identity(), 0.0, 200.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert float(val[0]) == pytest.approx(200.0, rel=1e-13)
    assert peak < 10 * 2**20       # 102,400 panels in one block: 85 MiB


def test_integrate_in_blocks_matches_single_block(monkeypatch):
    from measurefde import stieltjes
    f = lambda s: 2.0 + math.cos(s)
    g = Integrator(density=lambda s: 1.0 + 0.5 * np.sin(s), jumps=((5.0, 1.0),))
    monkeypatch.setattr(stieltjes, "CHUNK_PANELS", 10**9)
    whole = integrate(f, g, 0.0, 20.0)
    monkeypatch.setattr(stieltjes, "CHUNK_PANELS", 1024)
    assert np.allclose(integrate(f, g, 0.0, 20.0), whole, rtol=1e-14, atol=0.0)


def test_constant_density_matches_constant_callable():
    jumps = ((0.25, 0.5), (1.5, 2.0))
    as_float = Integrator(density=2.5, jumps=jumps)
    as_callable = Integrator(density=lambda s: 2.5 * np.ones_like(s), jumps=jumps)
    ts = np.array([1.75, -0.3, 0.0, 0.25, 0.5, 1.5, 3.0])
    # closed form against Simpson: equal up to the rounding of the weights
    assert np.allclose(as_float.values_at(ts), as_callable.values_at(ts),
                       rtol=1e-14, atol=0.0)
    assert as_float.value_at(3.0) == 2.5 * 3.0 + 2.5
    # the solvers sample the density at their own nodes: bit-identical there
    f = lambda s: np.array([np.sin(s), s])
    assert np.array_equal(integrate(f, as_float, -0.5, 2.0),
                          integrate(f, as_callable, -0.5, 2.0))


def test_constant_integrand_matches_value_difference():
    for g in (IDENTITY,
              Integrator.with_jumps(lambda s: np.exp(s), [(0.3, 0.7), (1.1, 0.1)]),
              Integrator(density=lambda s: s * s, jumps=((0.25, 2.0),))):
        val = float(integrate(lambda s: 1.0, g, 0.0, 2.0)[0])
        assert val == pytest.approx(g.value_at(2.0) - g.value_at(0.0), abs=1e-12)


def test_riemann_case():
    assert float(integrate(lambda s: s, IDENTITY, 0.0, 1.0)[0]) \
        == pytest.approx(0.5, abs=1e-14)


def test_pure_jump_square_against_oracle():
    g = Integrator.pure_jumps([(0.5, 1.0)])
    val = float(integrate(lambda s: s * s, g, 0.0, 1.0)[0])
    ladder = refine_ladder(lambda s: s * s, g, 0.0, 1.0, 4)
    assert val == pytest.approx(0.25, abs=1e-12)
    assert float(ladder[-1][0]) == pytest.approx(val, abs=1e-12)


def test_jump_ownership_endpoints():
    # jump at a is included, jump at b is excluded
    g = Integrator.pure_jumps([(0.0, 1.0), (1.0, 3.0)])
    val = float(integrate(lambda s: 1.0, g, 0.0, 1.0)[0])
    assert val == 1.0


def test_integrate_over_a_point_is_zero():
    # [a, a) owns no jump, not even one at a; the zero has f's shape
    g = Integrator.with_jumps(1.0, [(1.0, 2.0)])
    for f, want in ((lambda s: 5.0, [0.0]), (lambda s: np.array([1.0, s]), [0.0, 0.0])):
        assert integrate(f, g, 1.0, 1.0).tolist() == want


def test_cuts_are_the_ends_and_the_jumps_strictly_inside():
    g = Integrator.with_jumps(1.0, [(-1.0, 1.0), (0.0, 1.0), (0.5, 1.0), (1.0, 1.0)])
    assert g.cuts(0.0, 1.0) == [0.0, 0.5, 1.0]
    assert g.cuts(-2.0, 2.0) == [-2.0, -1.0, 0.0, 0.5, 1.0, 2.0]
    assert g.cuts(0.6, 0.7) == [0.6, 0.7]
    assert IDENTITY.cuts(0.0, 3.0) == [0.0, 3.0]


def test_sign_flip_for_reversed_limits():
    fwd = integrate(lambda s: s, IDENTITY, 0.0, 1.0)
    rev = integrate(lambda s: s, IDENTITY, 1.0, 0.0)
    assert float(fwd[0]) == pytest.approx(-float(rev[0]), abs=1e-14)


def test_nonfinite_integrand_rejected():
    with pytest.raises(IntegrandError):
        integrate(lambda s: math.inf, IDENTITY, 0.0, 1.0)


def test_vector_integrand():
    val = integrate(lambda s: np.array([1.0, s]), IDENTITY, 0.0, 1.0)
    assert np.allclose(val, [1.0, 0.5], atol=1e-13)


def test_ladder_constant_exact_every_level():
    g = Integrator.with_jumps(lambda s: 1.0, [(0.4, 0.5)])
    ladder = refine_ladder(lambda s: 3.0, g, 0.0, 1.0, 4)
    expected = 3.0 * (g.value_at(1.0) - g.value_at(0.0))
    for level in ladder:
        assert float(level[0]) == pytest.approx(expected, abs=1e-12)


def test_ladder_error_halves_for_linear_integrand():
    ladder = [float(v[0]) for v in refine_ladder(lambda s: s, IDENTITY, 0.0, 1.0, 5)]
    errors = [abs(v - 0.5) for v in ladder]
    for e_prev, e_next in zip(errors, errors[1:]):
        assert e_next == pytest.approx(e_prev / 2.0, rel=1e-9)


def test_ladder_constant_once_jumps_separated():
    g = Integrator.pure_jumps([(0.3, 1.0), (0.7, 2.0)])
    ladder = [float(v[0]) for v in refine_ladder(lambda s: s, g, 0.0, 1.0, 4)]
    assert ladder[0] == pytest.approx(ladder[-1], abs=1e-12)
    assert ladder[-1] == pytest.approx(0.3 * 1.0 + 0.7 * 2.0, abs=1e-12)


@pytest.mark.parametrize("f, want", [(lambda s: 5.0, [0.0]),
                                     (lambda s: np.array([1.0, s]), [0.0, 0.0])],
                         ids=["scalar", "vector"])
def test_ladder_over_a_point_is_zero_at_every_level(f, want):
    # as integrate: [a, a) owns no jump, and each level has f's shape
    g = Integrator.with_jumps(1.0, [(1.0, 2.0)])
    assert [v.tolist() for v in refine_ladder(f, g, 1.0, 1.0, 3)] == [want] * 3


def test_ladder_reversed_limits_flip_the_sign():
    g = Integrator.with_jumps(lambda s: 1.0, [(0.4, 0.5)])
    fwd = refine_ladder(lambda s: s, g, 0.0, 1.0, 3)
    rev = refine_ladder(lambda s: s, g, 1.0, 0.0, 3)
    assert [v.tolist() for v in rev] == [(-v).tolist() for v in fwd]


# -- the Simpson rule builder --------------------------------------------------


def _old_simpson_rule(a, b, panels):
    """The single rule as np.linspace and a 1-4-2 weight pattern build it."""
    xs = np.linspace(a, b, 2 * panels + 1)
    w = np.ones(len(xs))
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (b - a) / (2 * panels) / 3.0
    return xs, w


@settings(max_examples=200, deadline=None)
@given(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.integers(1, 300))
@example(-6.0, -0.013, 240)          # a + (b - a) is not b: the last node
@example(-6.0, 0.0, 240)
@example(0.0, 2 * math.pi, 64)
def test_single_simpson_rule_is_linspace_bit_for_bit(a, b, panels):
    assume(b - a >= 1e-6)
    xs, w = _simpson_rule(a, b, panels)
    want_xs, want_w = _old_simpson_rule(a, b, panels)
    assert xs.tobytes() == want_xs.tobytes() and w.tobytes() == want_w.tobytes()


def test_simpson_rows_are_padded_single_rules():
    lo = np.array([-6.0, 0.0, 1.0, 2.0])
    hi = np.array([-0.3, 0.1, 1.0, 1.5])       # the last two are empty
    panels = np.array([229, 3, 1, 1])
    nodes, weights = _simpson_rule(lo, hi, panels, cols=500)
    assert nodes.shape == weights.shape == (4, 500)
    for i in range(2):
        xs, w = _simpson_rule(float(lo[i]), float(hi[i]), int(panels[i]))
        k = len(xs)
        assert nodes[i, :k].tobytes() == xs.tobytes()
        assert weights[i, :k].tobytes() == w.tobytes()
        assert np.all(nodes[i, k:] == hi[i]) and not weights[i, k:].any()
    for i in (2, 3):
        assert np.all(nodes[i] == hi[i]) and not weights[i].any()
    # without cols, the rows are as long as the longest rule
    assert _simpson_rule(lo, hi, panels)[0].shape == (4, 459)


# -- Gronwall ------------------------------------------------------------------


def test_gronwall_zero_initial_bound():
    for xi in (0.0, 0.5, 3.0):
        rep = check_gronwall(lambda x: 0.0, 0.0, 1.0, IDENTITY, 0.0, xi)
        assert rep.bound_values[-1] == 0.0


def test_gronwall_identity_analytic():
    rep = check_gronwall(lambda x: 1.0, 1.0, 1.0, IDENTITY, 0.0, 1.0)
    assert rep.bound_values[-1] == pytest.approx(math.e, rel=1e-12)


def test_gronwall_with_jump():
    g = Integrator.with_jumps(lambda s: 1.0, [(0.5, 1.0)])
    # variation over [0, 1] is 2, so the bound is exp(4)
    rep = check_gronwall(lambda x: 1.0, 1.0, 2.0, g, 0.0, 1.0)
    assert rep.bound_values[-1] == pytest.approx(math.exp(4.0), rel=1e-12)


def test_check_gronwall_constant_psi_passes():
    rep = check_gronwall(lambda x: 2.0, 2.0, 3.0, IDENTITY, 0.0, 1.0)
    assert rep.status == "ok"
    assert rep.passed


def test_check_gronwall_equality_case():
    rep = check_gronwall(lambda x: math.exp(2.0 * x), 1.0, 2.0,
                         IDENTITY, 0.0, 1.0)
    assert rep.status == "ok"


def test_check_gronwall_flags_broken_hypothesis():
    # grows faster than its own integral inequality allows: hypothesis fails,
    # which is reported, not treated as a bound failure
    rep = check_gronwall(lambda x: math.exp(5.0 * x), 1.0, 1.0,
                         IDENTITY, 0.0, 1.0)
    assert rep.status == "hypothesis-not-satisfied"
    assert rep.passed


# -- property tests -------------------------------------------------------------


def _random_integrator(density_scale: float, jumps: list[tuple[float, float]]):
    cleaned = []
    last = -1.0
    for t, m in sorted(jumps):
        if t > last + 1e-6:
            cleaned.append((t, m))
            last = t
    return Integrator(density=lambda s, a=density_scale: a * (1.0 + np.cos(s) ** 2),
                      jumps=tuple(cleaned))


@settings(max_examples=30, deadline=None)
@given(st.floats(0.0, 2.0), st.lists(st.tuples(st.floats(0.0, 3.0),
                                                st.floats(0.01, 2.0)), max_size=4),
       st.floats(-1.0, 4.0), st.floats(-1.0, 4.0))
def test_eval_monotone(scale, jumps, t1, t2):
    g = _random_integrator(scale, jumps)
    lo, hi = sorted((t1, t2))
    assert g.value_at(lo) <= g.value_at(hi) + 1e-10


@settings(max_examples=20, deadline=None)
@given(st.floats(0.1, 2.0), st.lists(st.tuples(st.floats(0.1, 1.9),
                                                st.floats(0.05, 1.0)), max_size=3),
       st.floats(0.3, 1.7))
def test_additivity_split(scale, jumps, b):
    g = _random_integrator(scale, jumps)
    f = lambda s: np.sin(s) + 2.0
    whole = float(integrate(f, g, 0.0, 2.0)[0])
    parts = float(integrate(f, g, 0.0, b)[0]) + float(integrate(f, g, b, 2.0)[0])
    assert whole == pytest.approx(parts, abs=1e-9)


def test_additivity_split_exactly_at_jump():
    g = Integrator.with_jumps(lambda s: 1.0, [(1.0, 2.0)])
    f = lambda s: s + 1.0
    whole = float(integrate(f, g, 0.0, 2.0)[0])
    left = float(integrate(f, g, 0.0, 1.0)[0])      # excludes the jump at 1
    right = float(integrate(f, g, 1.0, 2.0)[0])     # owns the jump at 1
    assert whole == pytest.approx(left + right, abs=1e-12)
    assert right == pytest.approx(2.5 + 2.0 * f(1.0), abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_linearity(alpha, beta):
    g = Integrator.with_jumps(lambda s: 1.0, [(0.5, 1.0)])
    f1 = lambda s: np.sin(s)
    f2 = lambda s: s * s
    combo = float(integrate(lambda s: alpha * f1(s) + beta * f2(s), g, 0.0, 1.0)[0])
    split = alpha * float(integrate(f1, g, 0.0, 1.0)[0]) \
        + beta * float(integrate(f2, g, 0.0, 1.0)[0])
    assert combo == pytest.approx(split, abs=2e-9)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 3), st.floats(0.2, 1.5))
def test_oracle_agrees_with_integrate(poly_degree, scale):
    g = _random_integrator(scale, [(0.6, 0.4)])
    f = lambda s: s ** poly_degree
    val = float(integrate(f, g, 0.0, 2.0)[0])
    ladder = refine_ladder(f, g, 0.0, 2.0, 7)
    assert float(ladder[-1][0]) == pytest.approx(val, abs=5e-3 * max(1.0, abs(val)))


def test_caller_declared_breakpoints_sharpen_discontinuous_integrand():
    # f has a step at 0.3; declaring it as a breakpoint splits the panels
    # there and restores full accuracy
    f = lambda s: 1.0 if s < 0.3 else 2.0
    exact = 0.3 + 2.0 * 0.7
    with_bp = float(integrate(f, IDENTITY, 0.0, 1.0, breakpoints=(0.3,))[0])
    assert with_bp == pytest.approx(exact, abs=1e-12)



@pytest.mark.parametrize("c", [0.5, 1e3, 1e5, 1e6])
def test_breakpoint_end_samples_one_sided_at_any_t(c):
    # the Simpson end samples must land on the step's own side of c, so the
    # right half integrates f = 1 over [c, c + 1] and the left half f = 0
    step_at_c = lambda s: 1.0 if s >= c else 0.0
    val = float(integrate(step_at_c, IDENTITY, c - 1.0, c + 1.0,
                          breakpoints=[c])[0])
    assert val == 1.0


def test_check_gronwall_with_jumpy_integrator():
    # sharp solution of psi = 1 + 2 int psi dg for g with a unit jump at 0.5:
    # exponential in the continuous part, factor (1 + 2 * jump) at the jump;
    # it satisfies the hypothesis with equality and stays under the bound
    g = Integrator.with_jumps(lambda s: 1.0, [(0.5, 1.0)])
    psi = lambda x: math.exp(2.0 * x) * (3.0 if x > 0.5 else 1.0)
    rep = check_gronwall(psi, 1.0, 2.0, g, 0.0, 1.0)
    assert rep.status == "ok"
    # the exponential bound is not attained across the jump
    i = int(np.argmin(np.abs(rep.times - 1.0)))
    assert rep.psi_values[i] < rep.bound_values[i]


def test_nonfinite_density_rejected():
    from measurefde.stieltjes import IntegratorDomainError
    g = Integrator(density=lambda s: np.inf)
    with pytest.raises(IntegratorDomainError):
        g.value_at(1.0)
    with pytest.raises(IntegratorDomainError):
        g.values_at(np.array([0.5, 1.0]))


_UNION_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
                          st.floats(allow_nan=False))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_UNION_FLOATS, max_size=40), min_size=1, max_size=3))
@example([[]])
@example([[], []])
@example([[-0.0]])
@example([[0.0, -0.0, 0.0], [-0.0]])
@example([np.linspace(0.0, 1.0, 9), []])
def test_union_matches_numpy_bit_for_bit(parts):
    # plain lists, empty ones included, as refine_ladder passes its jump times;
    # ±0.0 and repeats check that the same member of each run of equals is kept
    want = np.unique(np.concatenate(parts, axis=None))
    got = _union(*parts)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    if len(parts) == 2:
        assert got.tobytes() == np.union1d(*parts).tobytes()
