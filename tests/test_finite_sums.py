"""Trapezoid sums near the float maximum: finite in, finite out or a ValueError, and no warning.

`energy`, sampled `inner_product`, `integrate` and `spot_payment` make one
call each to `curve._guarded_sum`, which compares a peak bound with one
scalar before it sums. Where the plain sum cannot overflow it runs as it always
has; where it might, it runs under `np.errstate` and is kept if finite, and
otherwise the values are divided by powers of two near their peaks, as
`norm` divides them. Below the normal range a spot bill or a sampled
integral divides samples under 1 so too, so that no product w_i * v_i rounds
to the subnormal grid. A spot plan whose weights would overflow builds them
from prices divided by a power of two, and scales each bill back. Flat
payments, dynamism bills, and analytic energies, values, integrals, inner
products and spot bills that overflow are refused too. The suite turns every
warning into an error.
"""
from __future__ import annotations

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from loadspace import (
    AnalyticCurve,
    DynamismPlan,
    Interval,
    PriceFrequencyFunction,
    SampledCurve,
    add,
    analyze,
    average_power,
    classic_payment,
    dynamism_payment,
    energy,
    Spectrum,
    SpotPlan,
    evaluate,
    inner_product,
    integrate,
    sample,
    spot_payment,
)
from loadspace.curve import _common_grid, _trapezoid

from conftest import UNIT, intervals

BIG = SampledCurve(UNIT, [1e308] * 6)


def test_energy_near_the_float_maximum_is_finite():
    # the plain sum of six 1e308 samples overflows; the true energy is 1e308
    assert energy(BIG) == pytest.approx(1e308, rel=1e-15)
    assert average_power(BIG) == energy(BIG)
    assert classic_payment(1.0, BIG) == energy(BIG)
    assert energy(SampledCurve(UNIT, [-1e308, 1e308] * 3)) == 0.0


def test_flat_billing_that_overflows_is_refused():
    # 2 * 1e308 and 1e308 * 10 are beyond the float range: refused, where both returned inf
    with pytest.raises(ValueError, match="flat payment overflows the float range"):
        classic_payment(2.0, BIG)
    with pytest.raises(ValueError, match=r"integral on \[0.0, 1e\+308\] overflows the float range"):
        energy(AnalyticCurve(Interval(0.0, 1e308), 10.0))
    assert energy(AnalyticCurve(Interval(0.0, 1e307), 10.0)) == 1e308


def test_an_integral_that_overflows_is_refused():
    wide = SampledCurve(UNIT, [1e200] * 3)
    with pytest.raises(ValueError, match="overflows"):
        inner_product(wide, wide)  # 1e400
    with pytest.raises(ValueError, match="overflows"):
        energy(SampledCurve(Interval(0.0, 1e300), [1e10] * 3))  # 1e310
    with pytest.raises(ValueError, match="overflows"):
        inner_product(AnalyticCurve(UNIT, 1e200), wide)  # an analytic operand's peak is read off its grid
    with pytest.raises(ValueError, match=r"integral on \[0.0, 1e\+300\] overflows"):
        integrate(SampledCurve(Interval(0.0, 1e300), [1e10] * 3), 0.0, 1e300)  # 1e310
    with pytest.raises(ValueError, match="spot payment overflows"):
        spot_payment(SpotPlan(UNIT, [6.0, 6.0]), BIG)  # 6e308


def test_analytic_results_that_overflow_are_refused():
    # each of these returned inf or NaN, most with a numpy warning
    long = Interval(0.0, 1e300)
    big = AnalyticCurve(long, 1e10)  # 1e310 over the interval
    with pytest.raises(ValueError, match="spot payment overflows the float range"):
        spot_payment(SpotPlan(long, [1.0, 1.0]), big)
    with pytest.raises(ValueError, match="spot payment overflows the float range"):
        spot_payment(SpotPlan(long, [1e10, 1e10]), AnalyticCurve(long, 1.0))  # finite cycles, 1e310 billed
    with pytest.raises(ValueError, match=r"integral on \[0.0, 1e\+300\] overflows the float range"):
        integrate(big, 0.0, 1e300)
    with pytest.raises(ValueError, match=r"integral on \[0.0, 1e\+300\] overflows the float range"):
        inner_product(big, big)
    swing = AnalyticCurve(UNIT, 0.0, ((1, 1e200, 0.0),))
    with pytest.raises(ValueError, match=r"integral on \[0.0, 1.0\] overflows the float range"):
        inner_product(swing, swing)  # 5e399, in the harmonics' dot product
    with pytest.raises(ValueError, match="value of the curve overflows the float range"):
        evaluate(AnalyticCurve(UNIT, 1e308, ((1, 1e308, 1e308),)), 0.125)  # 1e308 (1 + sqrt 2)
    # just inside the range they are billed as before
    assert spot_payment(SpotPlan(long, [1.0, 3.0]), AnalyticCurve(long, 1e7)) == pytest.approx(2e307, rel=1e-15)
    assert integrate(AnalyticCurve(long, 1e7), 0.0, 1e300) == pytest.approx(1e307, rel=1e-15)
    assert evaluate(AnalyticCurve(UNIT, 1e307, ((1, 1e307, 1e307),)), 0.125) == pytest.approx(1e307 * (1 + 2**0.5))
    # a plain product overflows, the inner product does not: (T0 * 1e10) * 1e-10, and the harmonics' dot 1e400
    assert inner_product(big, AnalyticCurve(long, 1e-10)) == pytest.approx(1e300, rel=1e-15)
    brief = AnalyticCurve(Interval(0.0, 1e-300), 0.0, ((1, 1e200, 0.0),))
    assert inner_product(brief, brief) == pytest.approx(5e99, rel=1e-15)
    # bounds whose sum overflows, though the integral is finite: 5e297 + (T0/2 pi) sin(2 pi/3)
    far = AnalyticCurve(Interval(0.0, 1.5e308), 1e-10, ((1, 1.0, 0.0),))
    expected = 1e-10 * 0.5e308 + 1.5e308 / (2 * math.pi) * math.sin(2 * math.pi / 3)
    assert integrate(far, 1e308, 1.5e308) == pytest.approx(expected, rel=1e-13)


def _dynamism_plan(alpha0: float, price: float) -> DynamismPlan:
    pff = PriceFrequencyFunction(price, 10.0, 0.0)
    return DynamismPlan(alpha0, pff, pff)


def test_a_dynamism_bill_that_overflows_is_refused():
    # each returned an infinite total, most after a numpy overflow warning
    swing = analyze(AnalyticCurve(UNIT, 1e10, [(1, 1e10, 0.0)]), 2)
    with pytest.raises(ValueError, match="dynamism payment overflows the float range"):
        dynamism_payment(_dynamism_plan(1e300, 1e300), swing)  # amounts of 1e310
    with pytest.raises(ValueError, match="dynamism payment overflows the float range"):
        dynamism_payment(_dynamism_plan(1e300, 1.0), swing)  # the energy part: 1e300 * 1e10
    rising = Spectrum(UNIT, 0.0, [(n, 1e308, 0.0) for n in (1, 2, 3)], 3)
    with pytest.raises(ValueError, match="dynamism payment overflows the float range"):
        dynamism_payment(_dynamism_plan(1.0, 1.0), rising)  # amounts of 1e308 that sum to 3e308
    with pytest.raises(ValueError, match="dynamism payment overflows the float range"):
        dynamism_payment(_dynamism_plan(1.0, 1e300), Spectrum(Interval(0.0, 1e10), 1.0, [(1, 1.0, 0.0)], 1))


def test_zero_coefficients_at_prices_that_overflow_bill_nothing():
    # price 1e300 times T0 1e10 is past the float range at every order, and inf * 0 was NaN: each bill was refused
    long = Interval(0.0, 1e10)
    dear, cheap = _dynamism_plan(1.0, 1e300), _dynamism_plan(1.0, 1.0)
    bill = dynamism_payment(dear, Spectrum(long, 1.0, [], 2))
    assert (bill.total, bill.non_dynamic, bill.dynamic) == (5e9, 5e9, 0.0)
    assert [item.label for item in bill.line_items] == ["energy"]
    # zeros of either sign, against a supply: each amount is the zero a finite price gives, sign for sign
    zeros = Spectrum(long, 1.0, [(1, -0.0, 0.0), (2, 0.0, -0.0)], 2)
    for supply in (None, Spectrum(long, 1.0, [(1, -3.0, 0.0)], 1), zeros):
        got, want = dynamism_payment(dear, zeros, supply), dynamism_payment(cheap, zeros, supply)
        assert got.total == 5e9 and np.signbit(got.lines[1:, 3]).tolist() == np.signbit(want.lines[1:, 3]).tolist()
    # cosines only, beta at 1e300: billed as at a finite beta, bit for bit
    cosines = Spectrum(long, 1.0, [(1, 3.0, 0.0), (2, -2e-5, 0.0)], 2)
    for supply in (None, zeros):
        got = dynamism_payment(DynamismPlan(1.0, cheap.alpha, dear.beta), cosines, supply)
        want = dynamism_payment(cheap, cosines, supply)
        assert got.total == want.total and got.lines[:, 3].tobytes() == want.lines[:, 3].tobytes()
    # the analysis of a constant load: its orders are zero
    flat = analyze(SampledCurve(long, np.full(17, 1.0)), 2)
    assert not flat.a.any() and not flat.b.any()
    assert dynamism_payment(dear, flat).total == 1e10
    # a nonzero coefficient at such an order is still refused, however small
    with pytest.raises(ValueError, match="dynamism payment overflows the float range"):
        dynamism_payment(dear, Spectrum(long, 1.0, [(2, 0.0, 1e-300)], 2))


def test_a_dynamism_bill_near_the_float_maximum_keeps_a_finite_total():
    # the supply's signs make the amounts 1e308, 1e308 and -1e308: partial sums overflow, the total does not
    rising = Spectrum(UNIT, 0.0, [(n, 1e308, 0.0) for n in (1, 2, 3)], 3)
    supply = Spectrum(UNIT, 0.0, [(1, 1.0, 0.0), (2, 1.0, 0.0), (3, -1.0, 0.0)], 3)
    bill = dynamism_payment(_dynamism_plan(1.0, 1.0), rising, supply)
    assert (bill.total, bill.dynamic) == (1e308, 1e308)
    assert bill.lines[1:, 3].tolist() == [1e308, 0.0, 1e308, 0.0, -1e308, 0.0]
    # past the guard's bound (4 amounts of at most 20 * 2e306) with no sum that overflows: the plain sum, bit for bit
    near = Spectrum(UNIT, 1.0, [(1, 2e306, -3e305), (2, 7e305, 0.0)], 2)
    bill = dynamism_payment(_dynamism_plan(20.0, 20.0), near)
    assert bill.dynamic == float(np.add.reduce(bill.lines[1:, 3], initial=0.0))
    assert bill.dynamic == pytest.approx(20.0 * 3e306, rel=1e-15)


@pytest.mark.parametrize("t2", [1e308, 1.7e308, 5e307, 1e300])
@pytest.mark.parametrize("shape", ["alternating", "wave", "noise"])
def test_an_analysis_whose_sums_would_overflow_equals_the_unit_interval_analysis(t2, shape):
    # dt * v overflows on [0, 1e308] (dt = 1e308/99, v = 1e10), and with t1 = 0 the coefficients do not depend
    # on T0: the samples divided by a power of two near their peak, and dt by one near T0, give the coefficients
    # of [0, 1] within one ulp of 2 max|v|, the bound of every coefficient (0.23 ulp measured, on the
    # alternating samples at 1.7e308, where dt rounds most differently); 2/T0 (2e-308) is never formed
    values = {
        "alternating": np.resize([1e10, -1e10], 100),
        "wave": 1e10 + 3e9 * np.sin(np.arange(100.0)),
        "noise": np.random.default_rng(2).normal(0.0, 1e10, 97),
    }[shape]
    unit = analyze(SampledCurve(UNIT, values), 10, drop_tol=0.0)
    huge = analyze(SampledCurve(Interval(0.0, t2), values), 10, drop_tol=0.0)
    ulp = np.spacing(2.0 * np.max(np.abs(values)))
    assert abs(huge.a0 - unit.a0) <= ulp
    assert np.max(np.abs(huge._coef - unit._coef)) <= ulp


def test_a_spectrum_that_overflows_is_refused_without_a_warning():
    # a0 = 2e308 is past the float maximum; the sums of the scaled samples are not, nor are they refused
    with pytest.raises(ValueError, match="spectrum orders and coefficients must be finite"):
        analyze(SampledCurve(UNIT, [1e308] * 100), 10)
    # alternating samples near the maximum: every coefficient up to order 10 is finite (about 3.4e306)
    swing = analyze(SampledCurve(UNIT, np.resize([1.7e308, -1.7e308], 100)), 10)
    assert np.isfinite(swing._coef).all() and swing._peak > 1e306
    # v_0 + v_(N-1) overflows on an interval so short that dt * peak * N does not
    ends = analyze(SampledCurve(Interval(0.0, 1e-300), [1.7e308] + [0.0] * 7 + [1.7e308]), 2, drop_tol=0.0)
    assert ends.a0 == pytest.approx(1.7e308 / 4, rel=1e-15)  # (2/T0) (T0/8) (v_0 + v_8)/2


def test_spot_bills_and_integrals_near_the_float_maximum_are_finite():
    # the plain dot product of six 1e308 samples with their weights overflows; the true values do not
    assert spot_payment(SpotPlan(UNIT, [1.0, 1.0]), BIG) == pytest.approx(1e308, rel=1e-15)
    assert integrate(BIG, 0.0, 1.0) == pytest.approx(1e308, rel=1e-15)
    assert integrate(BIG, 0.1, 0.7) == pytest.approx(6e307, rel=1e-15)
    up = SampledCurve(UNIT, [8e307, 0.0, -8e307])
    assert spot_payment(SpotPlan(UNIT, [6.0, 1.0]), up) == pytest.approx(1e308, rel=1e-15)


def test_a_plan_whose_weights_overflow_bills_without_a_warning():
    # price times T0 beyond the float maximum: the weights are built from the prices divided by a power
    # of two, and the bill scaled back, with no warning
    iv = Interval(0.0, 1e10)
    bill = spot_payment(SpotPlan(iv, [1e300, 1e300]), SampledCurve(iv, [0.0, 1e-20, 0.0, 0.0, 1e-20]))
    assert bill == pytest.approx(3.75e289, rel=1e-12)


def test_products_that_overflow_integrate_to_a_finite_value():
    # every product 1e400 overflows, but on an interval 1e-200 long the integral is 1e200
    short = Interval(0.0, 1e-200)
    wide = SampledCurve(short, [1e200] * 3)
    assert inner_product(wide, wide) == pytest.approx(1e200, rel=1e-15)
    assert inner_product(AnalyticCurve(short, 1e200), wide) == pytest.approx(1e200, rel=1e-15)


def test_samples_near_the_float_maximum_interpolate_onto_a_finer_grid():
    # np.interp's slope (0 - 1e308)/0.5 overflows; of the samples divided by a power of two near their peak it does not
    coarse = SampledCurve(UNIT, [1e308, 0.0, 1e308])
    assert add(coarse, SampledCurve(UNIT, np.zeros(5))).values.tolist() == [1e308, 5e307, 0.0, 5e307, 1e308]
    assert inner_product(coarse, SampledCurve(UNIT, np.ones(5))) == pytest.approx(5e307, rel=1e-15)


def _plain(values: np.ndarray, iv: Interval) -> float:
    """`_trapezoid` with its overflows silenced: what the sum gave before the peak check."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _trapezoid(values, iv)


_huge_samples = st.integers(min_value=2, max_value=60).flatmap(
    lambda n: hnp.arrays(
        np.float64,
        n,
        elements=st.one_of(
            st.floats(min_value=-1.7e308, max_value=1.7e308), st.sampled_from([1e308, -1e308, 1.7976931348623157e308])
        ),
    )
)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([UNIT, Interval(0.0, 1e-300), Interval(-3.0, 1.7e308), Interval(0.0, 1e308)]),
       _huge_samples.filter(lambda v: v.size >= 4))
def test_an_analysis_near_the_float_maximum_is_finite_or_refused(iv, values):
    c = SampledCurve(iv, values)
    try:
        s = analyze(c, (values.size - 2) // 2, drop_tol=0.0)
    except ValueError as exc:
        assert "must be finite" in str(exc)
    else:
        assert math.isfinite(s.a0) and np.isfinite(s._coef).all()


@settings(max_examples=200, deadline=None)
@given(st.one_of(intervals(), st.just(UNIT), st.just(Interval(0.0, 1e-200))), _huge_samples, _huge_samples)
def test_sums_keep_their_bits_where_they_stay_finite(iv, v1, v2):
    c1, c2 = SampledCurve(iv, v1), SampledCurve(iv, v2)
    g1, g2 = _common_grid(c1, c2)
    with np.errstate(over="ignore"):
        product = g1 * g2
    for got, plain in ((lambda: energy(c1), _plain(v1, iv)), (lambda: inner_product(c1, c2), _plain(product, iv))):
        if math.isfinite(plain):
            assert np.float64(got()).tobytes() == np.float64(plain).tobytes()
        else:
            try:
                assert math.isfinite(got())
            except ValueError as exc:
                assert "overflows" in str(exc)


def _normal_samples(n: int):
    """Zero, or 1 to 2**20 in magnitude: scaled by 2**k for k in -900..1000, every sample and sum stays normal."""
    size = st.one_of(st.just(0.0), st.floats(min_value=1.0, max_value=2.0**20))
    return hnp.arrays(np.float64, n, elements=st.one_of(size, size.map(lambda x: -x)))


def _scaled(k: int, c: SampledCurve) -> SampledCurve:
    return SampledCurve(c.interval, np.ldexp(c.values, k))


def _expected(value: float, k: int) -> float | None:
    """value * 2**k, or None where that overflows."""
    try:
        return math.ldexp(value, k)
    except OverflowError:
        return None


@settings(max_examples=200, deadline=None)
@given(
    intervals(),
    st.integers(min_value=2, max_value=60).flatmap(_normal_samples),
    st.integers(min_value=2, max_value=60).flatmap(_normal_samples),
    st.integers(min_value=-900, max_value=1000),
    st.integers(min_value=-900, max_value=1000),
)
# resampled onto 49 points, v1 * 2**999 overflows np.interp's slopes in time units; a retry in grid steps
# rounds otherwise than the unscaled samples do (8.10599702086861e+299 against 77.46592881944322 * 2**990)
@example(Interval(0.0, 0.5), np.array([0.0] * 47 + [356963.0]), np.eye(49)[47], 999, -9)
def test_samples_scaled_by_a_power_of_two_give_results_scaled_bit_for_bit(iv, v1, v2, k, j):
    # near the top of the range the plain sums overflow and the scaled path runs; it
    # gives what the plain sum of smaller samples gives, scaled, or refuses an overflow
    c1, c2 = SampledCurve(iv, v1), SampledCurve(iv, v2)
    cases = [(energy, (c1,), k, energy(c1))]
    if -900 <= k + j <= 990:  # products of interpolated samples stay normal
        cases.append((inner_product, (c1, c2), k + j, inner_product(c1, c2)))
    for f, curves, shift, unscaled in cases:
        args = [_scaled(k, curves[0]), *(_scaled(j, c) for c in curves[1:])]
        expected = _expected(unscaled, shift)
        if expected is None:
            with pytest.raises(ValueError, match="overflows"):
                f(*args)
        else:
            assert np.float64(f(*args)).tobytes() == np.float64(expected).tobytes()


@settings(max_examples=200, deadline=None)
@given(
    intervals(max_length=1e10),
    st.integers(min_value=2, max_value=60).flatmap(_normal_samples),
    st.floats(min_value=1.0, max_value=1e300),
    st.lists(st.floats(min_value=1.0, max_value=2.0), min_size=1, max_size=30),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.integers(min_value=-900, max_value=1000),
)
@example(Interval(0.0, 1e10), np.array([0.0, 1.0, 0.0, 0.0, 1.0]), 1e300, [1.0, 1.0], 0.1, 0.6, 0)
def test_spot_bills_and_integrals_of_scaled_samples_scale_bit_for_bit(iv, values, base, factors, u1, u2, k):
    # prices up to 2e300, within a factor 2 of each other so that every weight stays normal: where the top
    # price times T0 is beyond the float range, the weights are built from scaled prices and the bill scaled
    # back; either way samples * 2**k bill the bill * 2**k, or are refused as overflowing. The reference
    # samples are scaled by 2**-300, where no bill overflows
    plan = SpotPlan(iv, [base * f for f in factors])
    lo, hi = sorted(min(iv.t1 + u * iv.duration, iv.t2) for u in (u1, u2))
    assume(hi - lo >= 1e-3 * iv.duration)
    c = SampledCurve(iv, values)
    for f in (lambda c: spot_payment(plan, c), lambda c: integrate(c, lo, hi)):
        expected = _expected(f(_scaled(-300, c)), k + 300)
        if expected is None:
            with pytest.raises(ValueError, match="overflows"):
                f(_scaled(k, c))
        else:
            assert np.float64(f(_scaled(k, c))).tobytes() == np.float64(expected).tobytes()


def test_a_bill_below_the_normal_range_leaves_samples_above_one_as_they_are():
    # the bill is subnormal because the price is (1e-318): the samples, 1e9 to 1e10, are not divided by their
    # peak, which would round each product w_i * v_i to the subnormal grid (5.5e-313 off); the plan holds the
    # weights w of the price scaled by 2**-e, with e, and bills <w, v> * 2**e
    c = SampledCurve(UNIT, np.linspace(1e9, 1e10, 97))
    plan = SpotPlan(UNIT, [1e-318])
    got = spot_payment(plan, c)
    _, w, _, e = plan._weights
    exact = float(sum(Fraction(v) * Fraction(x) for v, x in zip(c.values, w)) * Fraction(2) ** e)
    assert abs(got - exact) <= c.values.size * 5e-324  # half a subnormal ulp per product


@pytest.mark.parametrize("prices", [[1e-318], [5e-324], [1e-310, 3e-312], [2.2e-308, 2.2e-308]])
def test_a_plan_priced_below_the_normal_range_bills_with_one_rounding(prices):
    # price times the step 1/96 below the normal range: weights built from the prices would round to the
    # subnormal grid ([1e-318] billed 5.499069213968076e-309, 1.7e-4 off the exact 5.4999931167258e-309), so
    # they are built from the prices scaled up by a power of two, and the bill is scaled back once
    c = SampledCurve(UNIT, np.linspace(1e9, 1e10, 97))
    v, m = [Fraction(x) for x in c.values], 96 // len(prices)  # each cycle on grid points j*m .. (j + 1)*m
    exact = sum(
        Fraction(p) * (sum(v[j * m : (j + 1) * m + 1]) - (v[j * m] + v[(j + 1) * m]) / 2) / 96
        for j, p in enumerate(prices)
    )
    got = spot_payment(SpotPlan(UNIT, prices), c)
    assert abs(Fraction(got) - exact) <= Fraction(5e-324) + exact / 2**50  # a subnormal ulp, or 4 ulps
    if len(set(prices)) == 1:
        assert got == pytest.approx(classic_payment(prices[0], c), rel=1e-12)


def test_a_subnormal_interval_interpolates_in_grid_steps():
    # np.linspace(0, 5e-324, 3) is [0, 0, 5e-324]: interpolated on those times, t = 0 read sample 1
    c = SampledCurve(Interval(0.0, 5e-324), [1.0, -1.0, 1.0])
    assert evaluate(c, 0.0) == 1.0
    assert evaluate(c, 5e-324) == 1.0
    # the five-point grid's times are [0, 0, 0, 0, 5e-324] too, so each point is taken at its exact step,
    # i/4 of the interval, as `sample` takes it
    assert add(c, SampledCurve(c.interval, np.zeros(5))).values.tolist() == [1.0, 0.0, -1.0, 0.0, 1.0]
    wave = AnalyticCurve(c.interval, 1.0, ((1, 1.0, 0.0),))
    assert add(wave, SampledCurve(c.interval, np.zeros(5))).values.tolist() == sample(wave, 5).values.tolist()
    # a grid that rises, with subnormal steps (1e-309): each slope overflows even for samples divided
    # by their peak, so time is counted in grid steps there too
    fine = SampledCurve(Interval(0.0, 1e-306), np.resize([1.0, -1.0], 1001))
    assert [evaluate(fine, t) for t in (0.0, 1e-309, 1e-306)] == [1.0, -1.0, 1.0]
    assert abs(evaluate(fine, 5e-310)) < 1e-13


def test_evaluate_near_the_float_maximum_interpolates_in_grid_steps():
    # the slope (-1e308 - 1e308)/0.5 overflows in time units: np.interp alone gives -inf at 0.25, silently
    c = SampledCurve(UNIT, [1e308, -1e308, 1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert evaluate(c, 0.25) == 0.0
        assert evaluate(c, np.float64(0.75)) == 0.0
        assert evaluate(c, np.array([0.0, 0.25, 0.5, 0.75, 1.0])).tolist() == [1e308, 0.0, -1e308, 0.0, 1e308]
        assert evaluate(c, [[0.125], [1.0]]).tolist() == [[5e307], [1e308]]


@settings(max_examples=200, deadline=None)
@given(intervals(), st.integers(min_value=2, max_value=60).flatmap(_normal_samples), st.floats(0.0, 1.0))
def test_evaluate_keeps_its_bits_where_time_units_do_not_overflow(iv, values, u):
    c = SampledCurve(iv, values)
    t = np.array([iv.t1, min(iv.t1 + u * iv.duration, iv.t2), iv.t2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = evaluate(c, t)
        scalar = evaluate(c, float(t[1]))
    expected = np.interp(t, c.times(), c.values)
    assert got.tobytes() == expected.tobytes()
    assert np.float64(scalar).tobytes() == expected[1].tobytes()
