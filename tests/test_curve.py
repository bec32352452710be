"""Curve representations and the L2 vector algebra."""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from loadspace import (
    AnalyticCurve,
    Harmonic,
    Interval,
    SampledCurve,
    add,
    analyze,
    average_power,
    distance,
    energy,
    evaluate,
    inner_product,
    integrate,
    norm,
    sample,
    scale,
)

from conftest import UNIT, analytic_curves, intervals


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_interval_rejects_empty_and_reversed():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    with pytest.raises(ValueError):
        Interval(0.0, math.inf)


def test_interval_rejects_a_length_that_overflows():
    # finite endpoints whose difference is inf would give f0 = 0 and an infinite energy
    with pytest.raises(ValueError, match="interval length must be finite"):
        Interval(-1e308, 1e308)
    assert Interval(-1e308, 7e307).duration == pytest.approx(1.7e308)


def test_interval_duration_and_f0():
    iv = Interval(1.0, 3.0)
    assert iv.duration == 2.0
    assert iv.f0 == 0.5


def test_analytic_curve_validation():
    with pytest.raises(ValueError, match="order"):
        AnalyticCurve(UNIT, 0.0, (Harmonic(0, 1.0, 0.0),))
    with pytest.raises(ValueError, match="duplicate"):
        AnalyticCurve(UNIT, 0.0, (Harmonic(3, 1.0, 0.0), Harmonic(3, 0.0, 1.0)))
    with pytest.raises(ValueError, match="finite"):
        AnalyticCurve(UNIT, 0.0, (Harmonic(1, math.nan, 0.0),))


@pytest.mark.parametrize("order", [1.7, 2.0, True, np.float64(3.0)])
def test_analytic_curve_rejects_non_integer_order(order):
    with pytest.raises(ValueError, match="harmonic order must be an integer"):
        AnalyticCurve(UNIT, 1.0, (Harmonic(order, 1.0, 0.0),))


def test_analytic_curve_drops_zero_harmonics_and_sorts():
    c = AnalyticCurve(UNIT, 1.0, (Harmonic(7, 0.0, 2.0), Harmonic(2, 0.0, 0.0), Harmonic(3, 1.0, 0.0)))
    assert [h.order for h in c.harmonics] == [3, 7]


def test_analytic_curve_is_dense_read_only_and_unhashable():
    c = AnalyticCurve(UNIT, 2.0, (Harmonic(3, 0.0, -1.5), Harmonic(1, 4.0, 0.0)))
    assert np.array_equal(c.a, [4.0, 0.0, 0.0]) and np.array_equal(c.b, [0.0, 0.0, -1.5])
    assert c.harmonics == (Harmonic(1, 4.0, 0.0), Harmonic(3, 0.0, -1.5))
    with pytest.raises(ValueError):
        c.a[0] = 1.0
    with pytest.raises(TypeError):
        hash(c)


@pytest.mark.parametrize("order", [2**20 + 1, 10**9, 2**64 + 1])
def test_analytic_curve_refuses_an_order_too_high_to_store(order):
    # its arrays are as long as its highest order: refused as an int, before any rounding or allocation
    with pytest.raises(ValueError, match=f"harmonic order {order} outside 1..{2**20}"):
        AnalyticCurve(UNIT, 0.0, ((order, 1.0, 0.0),))


def test_sampled_curve_validation():
    with pytest.raises(ValueError, match="at least 2"):
        SampledCurve(UNIT, np.array([1.0]))
    with pytest.raises(ValueError, match="one-dimensional"):
        SampledCurve(UNIT, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="finite"):
        SampledCurve(UNIT, np.array([1.0, math.inf]))


def test_sampled_curve_is_immutable():
    c = SampledCurve(UNIT, np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        c.values[0] = 9.0


def test_sampled_times_span_interval():
    c = SampledCurve(Interval(2.0, 4.0), np.array([0.0, 1.0, 4.0]))
    assert np.array_equal(c.times(), [2.0, 3.0, 4.0])


@settings(max_examples=200, deadline=None)
@given(intervals(start_bound=1e6, max_length=1e4), st.integers(min_value=2, max_value=500))
@example(Interval(0.0, 5e-324), 3)  # a step that underflows to zero, which linspace scales in another order
@example(Interval(-12.25, 987.75), 8761)
def test_sample_grid_is_linspace_bit_for_bit(interval, n):
    c = SampledCurve(interval, np.zeros(n))
    assert c.times().tobytes() == np.linspace(interval.t1, interval.t2, n).tobytes()


@pytest.mark.parametrize("n", [2.5, 3.0, True, "3"])
def test_sample_refuses_non_integer_counts(l1, n):
    with pytest.raises(ValueError, match="sample count must be an integer"):
        sample(l1, n)


def test_sample_accepts_numpy_integer_counts(l1):
    assert sample(l1, np.int64(3)).values.size == 3


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_reference_load_at_zero(l1):
    # 50 + 20 sin 0 + 10 cos 0 + 5 sin 0
    assert evaluate(l1, 0.0) == 60.0


def test_evaluate_constant_anywhere():
    c = AnalyticCurve(UNIT, 50.0)
    for t in (0.0, 0.3, 1.0):
        assert evaluate(c, t) == 50.0


def test_evaluate_sampled_hits_nodes():
    values = np.array([3.0, -1.0, 4.0, 1.5])
    c = SampledCurve(UNIT, values)
    assert np.array_equal(evaluate(c, c.times()), values)


def test_evaluate_sampled_interpolates_midpoint():
    c = SampledCurve(UNIT, np.array([0.0, 10.0]))
    assert evaluate(c, 0.25) == pytest.approx(2.5)


def test_evaluate_outside_interval_raises(l1):
    with pytest.raises(ValueError, match="outside"):
        evaluate(l1, 1.5)
    with pytest.raises(ValueError, match="outside"):
        evaluate(l1, -0.1)


@pytest.mark.parametrize("t", [math.nan, np.array([0.5, math.nan])])
def test_evaluate_rejects_nan_time(t):
    with pytest.raises(ValueError, match="outside"):
        evaluate(AnalyticCurve(UNIT, 50.0), t)
    with pytest.raises(ValueError, match="outside"):
        evaluate(SampledCurve(UNIT, [1.0, 2.0, 3.0]), t)


def test_evaluate_accepts_arrays(l1):
    t = np.linspace(0.0, 1.0, 11)
    out = evaluate(l1, t)
    assert out.shape == (11,)
    assert out[0] == 60.0


def _exact_value(c: AnalyticCurve, t: float) -> float:
    """c(t) with each order's phase n t/T0 taken exactly as a fraction and reduced to the nearest whole turn."""
    total = c.constant
    for n, cos_amp, sin_amp in c.harmonics:
        x = n * Fraction(t) / Fraction(c.interval.duration)
        r = 2.0 * math.pi * float(x - round(x))
        total += cos_amp * math.cos(r) + sin_amp * math.sin(r)
    return total


# (t1, T0); the last three put t1 at a non-integer number of periods, where t1/T0 rounded before its
# reduction modulo 1 is off by up to ulp(t1/T0) turns (4.4e-8 at 1e9/0.1), which order n multiplies by n
FAR_FROM_ZERO = [(0.0, 1.0), (1e3, 1.0), (1e6, 1.0), (1e9, 1.0), (1e6, 0.3), (1e9, 0.1), (1.7e9, 86400.0)]


@pytest.mark.parametrize(
    "t1, t0", FAR_FROM_ZERO, ids=[str(t1) if t0 == 1.0 else f"{t1}-{t0}" for t1, t0 in FAR_FROM_ZERO]
)
def test_evaluate_and_sample_hold_their_accuracy_far_from_zero(l1, t1, t0):
    # reference load 1 moved to [t1, t1 + T0]: phases taken from absolute times lose
    # about t1 * eps turns per order (2.1e-7 at t1 = 1e6, 2.5e-4 at 1e9)
    c = AnalyticCurve(Interval(t1, t1 + t0), l1.constant, l1.harmonics)
    tol = 1e-12 * (abs(c.constant) + sum(abs(a) + abs(b) for _, a, b in c.harmonics))
    t = t1 + t0 * np.arange(1, 8) / 8.3
    assert np.abs(evaluate(c, t) - [_exact_value(c, x) for x in t.tolist()]).max() <= tol
    # sample i is the value at the exact step t1 + i*T0/2000 that `analyze` integrates on, not at the rounded
    # `times()`, which lie up to ulp(t1)/T0 turns off it (1.2e-6 at 1e9/0.1, where b_100 missed by 2.6e-6)
    s = sample(c, 2001)
    steps = [Fraction(t1) + Fraction(c.interval.duration) * i / 2000 for i in range(2001)]
    assert np.abs(s.values - [_exact_value(c, x) for x in steps]).max() <= tol
    assert analyze(s, 100).b[99] == pytest.approx(5.0, abs=1e-8)


# ---------------------------------------------------------------------------
# add / scale
# ---------------------------------------------------------------------------

def test_add_constant_and_swing():
    c1 = AnalyticCurve(UNIT, 50.0)
    c2 = AnalyticCurve(UNIT, 50.0, (Harmonic(1, 0.0, 20.0),))
    s = add(c1, c2)
    assert s.constant == 100.0
    assert s.harmonics == (Harmonic(1, 0.0, 20.0),)
    # pointwise oracle on a dense grid
    t = np.linspace(0.0, 1.0, 10_000)
    assert np.allclose(evaluate(s, t), evaluate(c1, t) + evaluate(c2, t), rtol=0, atol=1e-9)


def test_add_additive_inverse_gives_zero(l1):
    z = add(l1, scale(-1.0, l1))
    assert z.constant == 0.0
    assert z.harmonics == ()
    assert norm(z) == 0.0


def test_add_zero_identity(l1):
    z = AnalyticCurve(UNIT, 0.0)
    assert add(l1, z) == l1


def test_add_rejects_incompatible_intervals(l1):
    other = AnalyticCurve(Interval(0.0, 2.0), 1.0)
    with pytest.raises(ValueError, match="incompatible intervals"):
        add(l1, other)


def test_add_mixed_resamples_analytic_onto_grid(l1):
    sampled = SampledCurve(UNIT, np.arange(11, dtype=float))
    s = add(l1, sampled)
    assert isinstance(s, SampledCurve)
    assert s.values.size == 11
    assert np.array_equal(s.values, evaluate(l1, sampled.times()) + sampled.values)


def test_add_two_sampled_prefers_finer_grid():
    coarse = SampledCurve(UNIT, np.array([0.0, 2.0, 0.0]))
    fine = SampledCurve(UNIT, np.zeros(9))
    s = add(coarse, fine)
    assert s.values.size == 9
    # linear interpolant of the coarse curve evaluated on the fine grid
    assert np.allclose(s.values, evaluate(coarse, fine.times()), rtol=0, atol=1e-12)


def test_scale_one_is_identity(l1):
    assert scale(1.0, l1) == l1


def test_scale_zero_gives_zero(l1):
    z = scale(0.0, l1)
    assert z.constant == 0.0
    assert z.harmonics == ()


def test_scale_doubles_coefficients(l1):
    d = scale(2.0, l1)
    assert d.constant == 100.0
    assert d.harmonics == (Harmonic(5, 0.0, 40.0), Harmonic(20, 20.0, 0.0), Harmonic(100, 0.0, 10.0))
    t = np.linspace(0.0, 1.0, 1000)
    assert np.allclose(evaluate(d, t), 2.0 * evaluate(l1, t), rtol=1e-12, atol=0)


def test_scale_sampled():
    c = SampledCurve(UNIT, np.array([1.0, -2.0, 3.0]))
    assert np.array_equal(scale(-2.0, c).values, [-2.0, 4.0, -6.0])


@pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind", ["analytic", "sampled"])
def test_scale_refuses_a_non_finite_factor(l1, kind, a):
    # inf * 0.0 is nan: without the up-front check a sampled curve warns in the multiply
    # and an analytic one is refused for its amplitudes
    c = l1 if kind == "analytic" else SampledCurve(UNIT, [0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="scale factor must be finite"):
        scale(a, c)


# ---------------------------------------------------------------------------
# inner product, norm, distance
# ---------------------------------------------------------------------------

def test_inner_product_zero_with_itself():
    z = AnalyticCurve(UNIT, 0.0)
    assert inner_product(z, z) == 0.0


def test_inner_product_sine_cosine_orthogonal():
    s = AnalyticCurve(UNIT, 0.0, (Harmonic(1, 0.0, 1.0),))
    c = AnalyticCurve(UNIT, 0.0, (Harmonic(1, 1.0, 0.0),))
    assert inner_product(s, c) == 0.0


def test_inner_product_reference_loads(l1, l2):
    # 50*40 + (20*5 + 10*10 + 5*20)/2
    assert inner_product(l1, l2) == 2150.0


def test_inner_product_sampled_matches_exact(l1, l2):
    ip = inner_product(sample(l1, 256), sample(l2, 256))
    assert ip == pytest.approx(2150.0, abs=1e-6)


def test_inner_product_rejects_incompatible_intervals(l1):
    other = AnalyticCurve(Interval(0.0, 2.0), 1.0)
    with pytest.raises(ValueError, match="incompatible intervals"):
        inner_product(l1, other)


def test_norm_examples(l1):
    assert norm(AnalyticCurve(UNIT, 0.0)) == 0.0
    assert norm(AnalyticCurve(UNIT, -7.0)) == 7.0
    assert norm(l1) == pytest.approx(math.sqrt(2762.5), rel=1e-12)


def test_norm_of_large_and_tiny_values_is_finite_and_nonzero():
    assert norm(SampledCurve(UNIT, [1e200] * 4)) == pytest.approx(1e200, rel=1e-15)
    assert norm(SampledCurve(UNIT, [-1e-200] * 4)) == pytest.approx(1e-200, rel=1e-15)
    swing = AnalyticCurve(UNIT, 1e200, (Harmonic(1, 1e200, -1e200),))
    assert norm(swing) == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15)
    # on [0, 1e308] the integral of the squares overflows, the norm does not
    long = Interval(0.0, 1e308)
    assert norm(SampledCurve(long, [1.9] * 4)) == pytest.approx(1.9e154, rel=1e-15)
    assert norm(AnalyticCurve(long, -1.9, (Harmonic(3, 2.0, 0.0),))) == pytest.approx(math.sqrt(5.61) * 1e154)


def magnitudes():
    """Zero, or a finite float whose square neither overflows nor underflows."""
    signs = st.sampled_from((-1.0, 1.0))
    return st.builds(lambda s, m: s * m, signs, st.one_of(st.just(0.0), st.floats(1e-100, 1e150)))


@settings(max_examples=200, deadline=None)
@given(st.lists(magnitudes(), min_size=2, max_size=60), intervals())
def test_sampled_norm_is_the_square_root_of_the_self_product(values, iv):
    c = SampledCurve(iv, values)
    expected = math.sqrt(inner_product(c, c))
    assert abs(norm(c) - expected) <= 4 * math.ulp(expected)


@settings(max_examples=200, deadline=None)
@given(analytic_curves(interval=None, amp_bound=1e150))
def test_analytic_norm_is_the_square_root_of_the_self_product(c):
    amps = [abs(c.constant), *(abs(a) for h in c.harmonics for a in (h.cos_amp, h.sin_amp))]
    assume(max(amps) == 0 or max(amps) > 1e-100)  # squares of smaller peaks underflow
    expected = math.sqrt(inner_product(c, c))
    assert abs(norm(c) - expected) <= 4 * math.ulp(expected)


def test_distance_to_self_is_zero(l1):
    assert distance(l1, l1) == 0.0


def test_distance_constant_to_swing():
    c1 = AnalyticCurve(UNIT, 50.0)
    c2 = AnalyticCurve(UNIT, 50.0, (Harmonic(1, 0.0, 20.0),))
    assert distance(c1, c2) == pytest.approx(math.sqrt(200.0), rel=1e-12)


def test_distance_matches_norm_identity(l1, l2):
    expected = math.sqrt(norm(l1) ** 2 - 2.0 * inner_product(l1, l2) + norm(l2) ** 2)
    assert distance(l1, l2) == pytest.approx(expected, rel=1e-9)


# ---------------------------------------------------------------------------
# energy, average power, sub-interval integrals
# ---------------------------------------------------------------------------

def test_energy_of_reference_loads(l1, l2):
    assert energy(l1) == 50.0
    assert energy(l2) == 40.0
    assert energy(AnalyticCurve(UNIT, 0.0)) == 0.0


def test_average_power(l1):
    assert average_power(l1) == 50.0
    assert average_power(AnalyticCurve(Interval(0.0, 4.0), 3.0)) == 3.0


def test_energy_sampled_is_trapezoid():
    c = SampledCurve(UNIT, np.array([0.0, 1.0, 0.0]))
    assert energy(c) == 0.5


def _trapezoid_halving_the_ends(c: SampledCurve) -> float:
    """The step times the sum less half the ends: the trapezoid rule as `energy` computes it in the normal range."""
    v = c.values
    dt = c.interval.duration / (v.size - 1)
    return float(dt * (np.add.reduce(v) - 0.5 * (v[0] + v[-1])))


def _sample_arrays(**elements):
    """2 to 200 samples, each drawn from st.floats(**elements)."""
    return st.integers(min_value=2, max_value=200).flatmap(
        lambda n: hnp.arrays(np.float64, n, elements=st.floats(**elements))
    )


@settings(max_examples=300, deadline=None)
@given(intervals(), _sample_arrays(min_value=-1e3, max_value=1e3, allow_subnormal=False))
# normal ends that cancel to a subnormal sum, which halves inexactly: the rest is normal, so nothing changes
@example(UNIT, np.array([2.225073858507202e-308, 1.0, -2.2250738585072014e-308]))
def test_energy_of_normal_samples_is_unchanged(interval, values):
    c = SampledCurve(interval, values)
    assert energy(c) == _trapezoid_halving_the_ends(c)


_BELOW_NORMAL = 2.0**-1030  # 200 samples of this size and their doubled sum stay in the fixed-point subnormal range


@settings(max_examples=300, deadline=None)
@given(intervals(), _sample_arrays(min_value=-_BELOW_NORMAL, max_value=_BELOW_NORMAL))
# halving the ends rounded 2.5e-324 to 0.0: energy was 2.5e-323, where integrate gives 1e-323
@example(Interval(0.0, 5.0), np.array([5e-324, 0.0]))
def test_energy_below_the_normal_range_rounds_once(interval, values):
    c = SampledCurve(interval, values)
    dt = Fraction(interval.duration / (values.size - 1))
    v = [Fraction(x) for x in values.tolist()]
    assert energy(c) == float(dt * (sum(v) - (v[0] + v[-1]) / 2))


def test_integrate_analytic_half_interval(l1):
    # closed form: 25 + 4/pi over [0, 1/2]
    assert integrate(l1, 0.0, 0.5) == pytest.approx(25.0 + 4.0 / math.pi, rel=1e-12)
    assert integrate(l1, 0.0, 1.0) == pytest.approx(50.0, rel=1e-12)


def test_integrate_degenerate_and_bounds(l1):
    assert integrate(l1, 0.3, 0.3) == 0.0
    with pytest.raises(ValueError, match="out of order"):
        integrate(l1, 0.7, 0.3)
    with pytest.raises(ValueError, match="outside"):
        integrate(l1, -0.1, 0.5)


@pytest.mark.parametrize("kind", ["analytic", "sampled"])
@pytest.mark.parametrize("lo, hi", [(math.nan, 0.5), (0.1, math.nan), (math.nan, math.nan)])
def test_integrate_refuses_nan_bounds(l1, kind, lo, hi):
    c = l1 if kind == "analytic" else sample(l1, 101)
    with pytest.raises(ValueError, match="bounds must be finite"):
        integrate(c, lo, hi)


def test_integrate_sampled_partition_additivity(l1):
    c = sample(l1, 1001)
    cuts = np.linspace(0.0, 1.0, 8)  # cell edges fall between grid points
    parts = sum(integrate(c, a, b) for a, b in zip(cuts[:-1], cuts[1:]))
    assert parts == pytest.approx(integrate(c, 0.0, 1.0), abs=1e-10)
    assert integrate(c, 0.0, 1.0) == pytest.approx(energy(c), abs=1e-12)


# ---------------------------------------------------------------------------
# algebraic properties
# ---------------------------------------------------------------------------

GRID = np.linspace(0.0, 1.0, 1000)


@settings(max_examples=60, deadline=None)
@given(analytic_curves(), analytic_curves())
def test_addition_commutes(c1, c2):
    assert np.allclose(evaluate(add(c1, c2), GRID), evaluate(add(c2, c1), GRID), rtol=0, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(analytic_curves(), analytic_curves(), analytic_curves())
def test_addition_associates(c1, c2, c3):
    left = evaluate(add(add(c1, c2), c3), GRID)
    right = evaluate(add(c1, add(c2, c3)), GRID)
    assert np.allclose(left, right, rtol=0, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-20, max_value=20), analytic_curves(), analytic_curves())
def test_scaling_distributes_over_addition(a, c1, c2):
    left = evaluate(scale(a, add(c1, c2)), GRID)
    right = evaluate(add(scale(a, c1), scale(a, c2)), GRID)
    assert np.allclose(left, right, rtol=0, atol=1e-6)


@settings(max_examples=60, deadline=None)
@given(analytic_curves())
def test_identity_and_inverse(c):
    zero = AnalyticCurve(c.interval, 0.0)
    assert add(c, zero) == c
    assert norm(add(c, scale(-1.0, c))) == 0.0


@settings(max_examples=60, deadline=None)
@given(analytic_curves(), analytic_curves())
def test_inner_product_symmetry(c1, c2):
    assert inner_product(c1, c2) == pytest.approx(inner_product(c2, c1), rel=1e-9, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(analytic_curves(), analytic_curves(), analytic_curves())
def test_inner_product_additivity(c1, c2, c3):
    lhs = inner_product(add(c1, c2), c3)
    rhs = inner_product(c1, c3) + inner_product(c2, c3)
    scale_ref = 1.0 + abs(lhs) + abs(rhs)
    assert abs(lhs - rhs) <= 1e-9 * scale_ref


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-20, max_value=20), analytic_curves(), analytic_curves())
def test_inner_product_homogeneity(a, c1, c2):
    lhs = inner_product(scale(a, c1), c2)
    rhs = a * inner_product(c1, c2)
    assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs) + abs(rhs))


@settings(max_examples=60, deadline=None)
@given(analytic_curves())
def test_inner_product_positive_definite(c):
    assert inner_product(c, c) >= 0.0


def test_inner_product_axioms_on_sampled_pair(l1, l2):
    # sampled counterparts of the axioms, at the looser quadrature tolerance
    s1, s2 = sample(l1, 501), sample(l2, 501)
    assert inner_product(s1, s2) == pytest.approx(inner_product(s2, s1), rel=1e-6)
    lhs = inner_product(add(s1, s2), s1)
    rhs = inner_product(s1, s1) + inner_product(s2, s1)
    assert lhs == pytest.approx(rhs, rel=1e-6)
    assert inner_product(s1, s1) >= 0.0


@settings(max_examples=60, deadline=None)
@given(analytic_curves(), analytic_curves())
def test_cauchy_schwarz(c1, c2):
    bound = norm(c1) * norm(c2)
    assert abs(inner_product(c1, c2)) <= bound + 1e-9 * (1.0 + bound)


@settings(max_examples=30, deadline=None)
@given(analytic_curves(interval=None, max_order=8))
def test_axioms_hold_off_unit_interval(c):
    # the algebra does not depend on [0, 1]
    t = np.linspace(c.interval.t1, c.interval.t2, 500)
    assert np.allclose(evaluate(scale(3.0, c), t), 3.0 * evaluate(c, t), rtol=1e-9, atol=1e-9)
    assert inner_product(c, c) >= 0.0


# ---------------------------------------------------------------------------
# quadrature behavior
# ---------------------------------------------------------------------------

def test_sampled_inner_product_converges(l1, l2):
    """Sampling the reference loads resolves their inner product immediately.

    Both operands are trig polynomials aligned with the interval, so the
    trapezoid sum hits the exact value once the grid resolves every
    harmonic in the product (discrete orthogonality); afterwards the
    error sits at rounding level for any sample count.
    """
    for n in (256, 512, 1024):
        ip = inner_product(sample(l1, n), sample(l2, n))
        assert abs(ip - 2150.0) <= 1e-9 * 2150.0


def test_trapezoid_error_ratio_on_nonperiodic_integrand():
    """Composite trapezoid is second order on generic smooth integrands.

    The aligned-harmonic case above converges instantly, so the textbook
    O(h^2) decay is demonstrated on a polynomial product: t^2 against
    t^3, whose integral is 1/6. Error should shrink about 4x per
    doubling; 3.5x is the acceptance floor.
    """
    exact = 1.0 / 6.0
    errors = []
    for n in (65, 129, 257, 513):
        t = np.linspace(0.0, 1.0, n)
        ip = inner_product(SampledCurve(UNIT, t**2), SampledCurve(UNIT, t**3))
        errors.append(abs(ip - exact))
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine >= 3.5
