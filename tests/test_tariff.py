"""Tariff plans: flat, spot, dynamism, rates, gradients, incentives."""
from __future__ import annotations

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from loadspace import (
    AnalyticCurve,
    Harmonic,
    Interval,
    DynamismPlan,
    DynamismRates,
    FlatPlan,
    PriceFrequencyFunction,
    SampledCurve,
    Spectrum,
    SpotPlan,
    add,
    analyze,
    classic_payment,
    curve,
    dynamism_payment,
    energy,
    incentive_direction,
    integrate,
    mu_index_cos,
    mu_index_sin,
    payment_gradient,
    price_frequency_value,
    rates_payment,
    sample,
    scale,
    spot_payment,
    to_mu_vector,
    unit_price_from_gross,
)

from conftest import UNIT, analytic_curves, intervals

# full-precision totals of the four reference bills, frozen from an
# independent evaluation of the payment formula with log10 pricing
L1P1 = (1000.0, 769.0308998699195, 1769.0308998699195)
L2P1 = (800.0, 859.0308998699195, 1659.0308998699195)
L1P2 = (500.0, 1040.3089986991945, 1540.3089986991945)
L2P2 = (400.0, 1940.3089986991945, 2340.3089986991945)


def _with_coefficient(s: Spectrum, n: int, which: str, value: float) -> Spectrum:
    """Copy of a spectrum with one (a_n or b_n) coefficient replaced."""
    coeffs = {h.order: [h.cos_amp, h.sin_amp] for h in s.harmonics}
    pair = coeffs.setdefault(n, [0.0, 0.0])
    pair[0 if which == "a" else 1] = value
    harmonics = tuple(Harmonic(k, a, b) for k, (a, b) in sorted(coeffs.items()))
    return Spectrum(s.interval, s.a0, harmonics, s.n_max)


def _all_positive_supply(orders, n_max: int = 100) -> Spectrum:
    return Spectrum(UNIT, 1.0, tuple(Harmonic(n, 1.0, 1.0) for n in sorted(orders)), n_max)


# ---------------------------------------------------------------------------
# price-frequency functions
# ---------------------------------------------------------------------------

def test_pff_reference_values(plan1, plan2):
    assert price_frequency_value(plan1.beta, 5.0) == 20.0
    assert price_frequency_value(plan1.alpha, 20.0) == pytest.approx(23.9031, abs=1e-4)
    assert price_frequency_value(plan1.beta, 100.0) == 26.0
    assert price_frequency_value(plan2.alpha, 20.0) == pytest.approx(49.0309, abs=1e-4)
    assert price_frequency_value(plan2.beta, 100.0) == 70.0
    assert price_frequency_value(plan1.alpha, 0.0) == 20.0


def test_pff_piecewise_boundary():
    pff = PriceFrequencyFunction(base=20.0, cutoff=10.0, slope=3.0)
    assert pff.value(9.999999) == 20.0
    assert pff.value(10.0) == 23.0  # 20 + 3*log10(10)


def test_pff_log_offset_variant():
    # the shifted-logarithm variant is available but changes the values
    shifted = PriceFrequencyFunction(base=20.0, cutoff=10.0, slope=3.0, log_offset=9.0)
    assert shifted.value(20.0) == pytest.approx(20.0 + 3.0 * math.log10(11.0), rel=1e-12)
    assert shifted.value(20.0) != pytest.approx(23.9031, abs=1e-4)


def test_pff_validation():
    with pytest.raises(ValueError, match="base"):
        PriceFrequencyFunction(base=0.0, cutoff=10.0, slope=3.0)
    with pytest.raises(ValueError, match="cutoff"):
        PriceFrequencyFunction(base=20.0, cutoff=-1.0, slope=3.0)
    with pytest.raises(ValueError, match="log_offset"):
        PriceFrequencyFunction(base=20.0, cutoff=10.0, slope=3.0, log_offset=10.0)
    pff = PriceFrequencyFunction(base=20.0, cutoff=10.0, slope=3.0)
    with pytest.raises(ValueError, match="nonnegative"):
        pff.value(-1.0)


@pytest.mark.parametrize("f", [math.nan, math.inf, np.array([1.0, math.nan])])
def test_pff_rejects_non_finite_frequency(plan1, f):
    with pytest.raises(ValueError, match="finite"):
        price_frequency_value(plan1.alpha, f)


def test_pff_names_only_the_first_bad_frequency(plan1):
    with pytest.raises(ValueError, match=r"nonnegative, got -2\.0$"):
        price_frequency_value(plan1.alpha, np.array([1.0, -2.0, math.nan, 4.0]))
    # on an interval this short n*f0 is inf for every order: one is named, not all n_max
    tiny = analyze(AnalyticCurve(Interval(0.0, 1.5e-323), 1.0), 1000)
    with pytest.raises(ValueError, match=r"nonnegative, got inf$"):
        dynamism_payment(plan1, tiny)


def test_pff_rejects_prices_that_go_nonpositive():
    with pytest.raises(ValueError, match="slope"):
        PriceFrequencyFunction(base=20.0, cutoff=10.0, slope=-5.0)
    with pytest.raises(ValueError, match="cutoff must be positive"):
        PriceFrequencyFunction(base=1.0, cutoff=0.5, slope=10.0)


def test_pff_array_matches_scalar(plan2):
    f = np.array([0.0, 3.0, 9.999, 10.0, 20.0, 100.0, 1e6])
    prices = price_frequency_value(plan2.alpha, f)
    assert prices.shape == f.shape
    assert prices.tolist() == [price_frequency_value(plan2.alpha, x) for x in f.tolist()]
    assert isinstance(price_frequency_value(plan2.alpha, 20.0), float)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=-100.0, max_value=100.0),
    st.floats(min_value=-100.0, max_value=100.0),
    st.floats(min_value=-100.0, max_value=100.0),
    st.floats(min_value=-100.0, max_value=100.0),
    st.lists(st.floats(min_value=0.0, max_value=1e12), min_size=1, max_size=20),
)
def test_accepted_pff_prices_are_positive(base, cutoff, slope, log_offset, freqs):
    try:
        pff = PriceFrequencyFunction(base, cutoff, slope, log_offset)
    except ValueError:
        return
    assert np.all(price_frequency_value(pff, np.array(freqs)) > 0.0)


# ---------------------------------------------------------------------------
# classic payments
# ---------------------------------------------------------------------------

def test_classic_payment_reference_load(l1):
    assert classic_payment(20.0, l1) == 1000.0


def test_classic_payment_zero_curve():
    assert classic_payment(5.0, AnalyticCurve(UNIT, 0.0)) == 0.0


def test_classic_payment_cannot_separate_equal_energy():
    triple = (
        AnalyticCurve(UNIT, 50.0),
        AnalyticCurve(UNIT, 50.0, (Harmonic(1, 0.0, 20.0),)),
        AnalyticCurve(UNIT, 50.0, (Harmonic(2, 30.0, 0.0),)),
    )
    payments = {classic_payment(20.0, c) for c in triple}
    assert payments == {1000.0}


def test_classic_payment_below_the_normal_range_rounds_once():
    # the energy, 1.5 subnormal ulps, rounds to 2, and the price 10 would make that 20 ulps where the
    # bill is 15; scaled up, the energy is priced first and the bill rounded once
    c = SampledCurve(Interval(0.0, 1.5), [5e-324, 5e-324])
    assert energy(c) == 2 * 5e-324
    assert classic_payment(10.0, c) == 15 * 5e-324


def test_classic_payment_rejects_bad_price(l1):
    with pytest.raises(ValueError, match="positive"):
        classic_payment(0.0, l1)


@pytest.mark.parametrize("price", [math.nan, math.inf, -math.inf, -1.0])
def test_classic_payment_rejects_non_finite_price(l1, price):
    with pytest.raises(ValueError, match="finite and positive"):
        classic_payment(price, l1)


def test_unit_price_from_gross():
    assert unit_price_from_gross(1000.0, 50.0) == 20.0
    assert unit_price_from_gross(0.0, 5.0) == 0.0
    with pytest.raises(ValueError, match="positive"):
        unit_price_from_gross(10.0, 0.0)


@pytest.mark.parametrize("cost, energy_", [(1.0, math.nan), (1.0, math.inf), (1.0, -2.0),
                                           (math.nan, 5.0), (math.inf, 5.0)])
def test_unit_price_from_gross_rejects_non_finite(cost, energy_):
    with pytest.raises(ValueError, match="finite"):
        unit_price_from_gross(cost, energy_)


def test_unit_price_round_trip():
    c = AnalyticCurve(Interval(0.0, 2.0), 3.0)  # energy 6
    price = unit_price_from_gross(42.0, 6.0)
    assert classic_payment(price, c) == 42.0


# ---------------------------------------------------------------------------
# spot payments
# ---------------------------------------------------------------------------

def test_spot_plan_validation():
    with pytest.raises(ValueError, match="at least one"):
        SpotPlan(UNIT, ())
    with pytest.raises(ValueError, match="positive"):
        SpotPlan(UNIT, (10.0, -1.0))
    assert SpotPlan(UNIT, (1.0, 2.0, 3.0)).cycle_count == 3


def test_spot_two_cycles_reference_load(l1):
    plan = SpotPlan(UNIT, (10.0, 30.0))
    assert spot_payment(plan, l1) == pytest.approx(1000.0 - 80.0 / math.pi, rel=1e-12)


def test_spot_single_cycle_equals_classic(l1):
    assert spot_payment(SpotPlan(UNIT, (20.0,)), l1) == pytest.approx(
        classic_payment(20.0, l1), rel=1e-12
    )


@settings(max_examples=40, deadline=None)
@given(
    analytic_curves(max_order=8),
    st.floats(min_value=0.1, max_value=50.0),
    st.integers(min_value=1, max_value=24),
)
def test_spot_uniform_prices_degenerate_to_classic(c, p, n):
    plan = SpotPlan(c.interval, (p,) * n)
    expected = p * (c.interval.duration * c.constant)
    assert abs(spot_payment(plan, c) - expected) <= 1e-9 * (1.0 + abs(expected))


def test_spot_sampled_matches_per_cycle_trapezoid(l1):
    c = sample(l1, 1001)  # odd count puts t = 0.5 exactly on the grid
    plan = SpotPlan(UNIT, (10.0, 30.0))
    t, v = c.times(), c.values
    mid = 500
    dt = t[1] - t[0]
    first = dt * (np.sum(v[: mid + 1]) - 0.5 * (v[0] + v[mid]))
    second = dt * (np.sum(v[mid:]) - 0.5 * (v[mid] + v[-1]))
    assert spot_payment(plan, c) == pytest.approx(10.0 * first + 30.0 * second, rel=1e-12)


# The sampled spot kernel finds each bound's cell by arithmetic on the uniform
# step, so its edge cases are bounds that land on grid points, many bounds per
# cell, a single cell, and a t1 that is large against the cell width.
_spot_starts = st.sampled_from([-12.25, 1e3])
_spot_lengths = st.floats(min_value=0.1, max_value=10.0)
_spot_intervals = st.builds(lambda t1, length: Interval(t1, t1 + length), _spot_starts, _spot_lengths)


def _samples(n: int, allow_subnormal: bool = True):
    return hnp.arrays(np.float64, n, elements=st.floats(min_value=-1e3, max_value=1e3, allow_subnormal=allow_subnormal))


@st.composite
def sampled_curves(draw, interval=intervals(), allow_subnormal: bool = True):
    """2 to 200 samples in [-1e3, 1e3] on a drawn interval.

    Pass allow_subnormal=False where the tolerance is relative to the curve's
    size alone: subnormal samples carry fewer significant bits than that asks.
    """
    n_samples = draw(st.integers(min_value=2, max_value=200))
    return SampledCurve(draw(interval), draw(_samples(n_samples, allow_subnormal)))


def _reference_integral(c, lo: float, hi: float) -> float:
    """Integral of c over [lo, hi], computed apart from the package's kernel.

    A sampled curve integrates its linear interpolant on the exact-step grid
    t1 + i*h, h = T0/(N-1), in offsets from t1 counted in steps (grid point
    i at i): split at every grid point strictly inside the bounds, one
    trapezoid per piece, so a whole cell weighs exactly h. An analytic
    curve takes its closed form one scalar term at a time, in phases reduced
    exactly with fractions: unlike the package, it is accurate to a few ulps
    of each term wherever the bounds sit in time.
    """
    iv = c.interval
    if isinstance(c, SampledCurve):
        h = iv.duration / (c.values.size - 1)
        grid = np.arange(c.values.size, dtype=float)
        a, b = (lo - iv.t1) / h, (hi - iv.t1) / h
        knots = np.concatenate(([a], grid[(grid > a) & (grid < b)], [b]))
        v = np.interp(knots, grid, c.values)
        return float(0.5 * h * np.sum((knots[1:] - knots[:-1]) * (v[1:] + v[:-1])))
    # order n adds (T0/(pi n)) sin(pi d) (a_n cos(pi m) + b_n sin(pi m)), d = n (hi - lo)/T0 and
    # m = n (hi + lo)/T0 taken exactly as fractions, so that every sine and cosine sees an exact
    # offset of at most half a turn from a whole number of turns and whole periods add exactly 0
    total = c.constant * (hi - lo)
    t0 = Fraction(iv.duration)
    for n, ca, sa in c.harmonics:
        _, sin_d = _turns(n * (Fraction(hi) - Fraction(lo)) / t0)
        cos_m, sin_m = _turns(n * (Fraction(hi) + Fraction(lo)) / t0)
        total += iv.duration / (math.pi * n) * sin_d * (ca * cos_m + sa * sin_m)
    return total


def _turns(x: Fraction) -> tuple[float, float]:
    """(cos(pi x), sin(pi x)) for an exact x, reduced to the nearest half-integer k/2 first: those of pi (x - k/2)
    turned by k quarter turns, exactly, so that a half-integer x gives an exact 0 where cos(pi/2) is 6e-17."""
    k = round(2 * x)
    r = math.pi * float(x - Fraction(k, 2))
    c, s = math.cos(r), math.sin(r)
    return ((c, s), (-s, c), (-c, -s), (s, -c))[k % 4]


def _peak(c) -> float:
    """A bound on the curve's magnitude over its interval."""
    if isinstance(c, SampledCurve):
        return float(np.max(np.abs(c.values)))
    return abs(c.constant) + sum(abs(a) for h in c.harmonics for a in h[1:])


def _abs_tol(size: float) -> float:
    """1e-12 of a magnitude, but at least a few of its ulps: 1e-12 * size underflows when size is subnormal."""
    return max(1e-12 * size, 4 * math.ulp(size))


@st.composite
def _curves_and_bounds(draw):
    c = draw(
        st.one_of(
            sampled_curves(_spot_intervals, allow_subnormal=False),
            _spot_intervals.flatmap(lambda iv: analytic_curves(interval=iv, max_order=40)),
        )
    )
    lo, hi = sorted(draw(st.floats(min_value=c.interval.t1, max_value=c.interval.t2)) for _ in range(2))
    return c, lo, hi


@settings(max_examples=200, deadline=None)
@given(_curves_and_bounds())
# a subnormal constant: the two sides round 5e-324 * 0.5 in different orders, to 5e-324 and to 0.0
@example((AnalyticCurve(Interval(-12.25, -2.25), 5e-324), -3.0, -2.5))
def test_integrate_matches_reference_integral(case):
    c, lo, hi = case
    # a signed load can cancel to a small integral, and the analytic closed form is a difference
    # of two values of its antiderivative, so the absolute part scales with the whole interval's size
    size = c.interval.duration * _peak(c)
    assert integrate(c, lo, hi) == pytest.approx(_reference_integral(c, lo, hi), rel=1e-12, abs=_abs_tol(size))


def _spot_per_cycle(plan: SpotPlan, c) -> tuple[float, float]:
    """Sum of p_k times the reference integral over cycle k, and the same sum of absolute terms."""
    bounds = np.linspace(plan.interval.t1, plan.interval.t2, plan.cycle_count + 1)
    terms = [p * _reference_integral(c, bounds[k], bounds[k + 1]) for k, p in enumerate(plan.unit_prices)]
    return sum(terms), sum(abs(x) for x in terms)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(sampled_curves(), analytic_curves(interval=None, max_order=40)),
    st.data(),
)
def test_spot_payment_equals_per_cycle_integrals(c, data):
    n_samples = c.values.size if isinstance(c, SampledCurve) else 50
    cycles = data.draw(st.integers(min_value=1, max_value=3 * n_samples))  # above N too
    prices = data.draw(st.lists(st.floats(min_value=0.01, max_value=500.0), min_size=cycles, max_size=cycles))
    plan = SpotPlan(c.interval, tuple(prices))
    expected, magnitude = _spot_per_cycle(plan, c)
    # a signed load can cancel to a total near zero; rounding in either sum
    # is set by the terms, so the absolute tolerance scales with their sum
    # (which is |total| for a nonnegative load)
    assert spot_payment(plan, c) == pytest.approx(expected, rel=1e-12, abs=1e-12 * (1.0 + magnitude))


def _piece_sums(c: SampledCurve, bounds: np.ndarray) -> np.ndarray:
    """Integrals of a sampled curve between consecutive bounds by the merged-knot kernel the plan weights replaced.

    Positions count steps h = T0/(N-1) from t1: grid point i at i, a bound at x = (bound - t1)/h in cell
    k = min(floor(x), N - 2), merged into the grid just after the point that opens its cell; each piece
    between neighbouring knots is one trapezoid of the linear interpolant, and each integral sums its own.
    A bound's value is v_k (1 - f) + v_(k+1) f, f = x - k: the form v_k + (v_(k+1) - v_k) f would cancel v_k
    against most of itself near the cell's end and keep an error of an ulp of v_k, not of the value. Samples whose
    peak is below 1 are divided by a power of two near it first and the integrals scaled back (both exact), as
    the package scales them: subnormal samples would otherwise round each term, 5e-324 * 0.5 to 0.
    """
    n, peak = c.values.size, float(np.max(np.abs(c.values)))
    scale = math.ldexp(1.0, math.frexp(peak)[1] - 1) if 0.0 < peak < 1.0 else 1.0
    v = c.values / scale
    h = c.interval.duration / (n - 1)
    if h == 0.0:
        return np.zeros(bounds.size - 1)
    x = (bounds - c.interval.t1) / h
    k = np.minimum(x.astype(np.intp), n - 2)
    at = k + np.arange(1, k.size + 1)
    grid = np.ones(n + k.size, dtype=bool)
    grid[at] = False
    position = np.empty(grid.size)
    position[grid] = np.arange(n)
    position[at] = x
    value = np.empty(grid.size)
    value[grid] = v
    f = x - k
    value[at] = v[k] * (1.0 - f) + v[k + 1] * f
    pieces = (value[1:] + value[:-1]) * (position[1:] - position[:-1])
    return 0.5 * h * np.add.reduceat(pieces, at)[:-1] * scale


def _assert_as_the_piece_sums(got: float, c: SampledCurve, bounds: np.ndarray, prices: np.ndarray) -> None:
    """got is within (N + C) * 2**-52 of the piece-sum kernel's p @ integrals, relative to the sum of absolute
    per-cycle terms, each cycle's integral taken of |v|: C cycles, N samples, so N + C pieces at most. Each
    piece may also round below the normal range, by the smallest subnormal 2**-1074 at most, which the
    kernel's price then multiplies."""
    want = float(_piece_sums(c, bounds) @ prices)
    magnitude = float(_piece_sums(SampledCurve(c.interval, np.abs(c.values)), bounds) @ prices)
    pieces = c.values.size + prices.size
    assert abs(got - want) <= pieces * (2.0**-52 * magnitude + 2.0**-1074 * max(1.0, prices.max())), (got, want)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(sampled_curves(), sampled_curves(st.builds(lambda t1, length: Interval(t1, t1 + length),
                                                         st.sampled_from([1e3, 1e6]), _spot_lengths))),
    st.data(),
)
def test_spot_bills_and_integrals_match_the_piece_sum_kernel(c, data):
    cycles = data.draw(st.integers(min_value=1, max_value=3 * c.values.size))  # more cycles than cells too
    plan = SpotPlan(c.interval, data.draw(_spot_prices(cycles)))
    _assert_as_the_piece_sums(spot_payment(plan, c), c, plan._bounds, plan.unit_prices)
    lo, hi = sorted(data.draw(st.floats(min_value=c.interval.t1, max_value=c.interval.t2)) for _ in range(2))
    assume(lo < hi)
    _assert_as_the_piece_sums(integrate(c, lo, hi), c, np.array([lo, hi]), np.ones(1))


def test_a_bound_near_a_cell_end_integrates_as_the_piece_sum_kernel():
    # the bound sits at 0.99 of cell 0, where the interpolant is 0.009 of v_0: interpolated as
    # v_0 + (v_1 - v_0) f, the reference kept an ulp of v_0 and missed the integral by 29 ulps of itself
    c = SampledCurve(Interval(-0.296875, 3.953125), [2e-12] + [0.0] * 14)
    _assert_as_the_piece_sums(integrate(c, 0.00390625, 1.0), c, np.array([0.00390625, 1.0]), np.ones(1))


def test_subnormal_samples_bill_as_the_piece_sum_kernel():
    # a draw of the property above: the bound at 2.5 sits mid-cell, where the unscaled reference took
    # 5e-324 * 0.5 + 5e-324 * 0.5 as 0 and read 0 for a bill of 5 * 5e-324, exact in the package
    c = SampledCurve(Interval(0.0, 5.0), [5e-324, 5e-324])
    plan = SpotPlan(c.interval, [1.0, 1.0])
    assert spot_payment(plan, c) == 2.5e-323
    _assert_as_the_piece_sums(spot_payment(plan, c), c, plan._bounds, plan.unit_prices)
    _assert_as_the_piece_sums(integrate(c, 0.0, 5.0), c, np.array([0.0, 5.0]), np.ones(1))


def test_a_year_of_readings_bills_as_the_piece_sum_kernel():
    # the benchmark's shape: 35,040 quarter-hours over 365 days, 8,760 hourly prices
    rng = np.random.default_rng(3)
    c = SampledCurve(Interval(0.0, 35_039 / 96), rng.normal(40.0, 10.0, 35_040))
    plan = SpotPlan(c.interval, rng.uniform(20.0, 40.0, 8760))
    _assert_as_the_piece_sums(spot_payment(plan, c), c, plan._bounds, plan.unit_prices)


def test_one_plan_billing_one_sample_count_after_another_bills_as_fresh_plans():
    plan = SpotPlan(UNIT, np.linspace(10.0, 30.0, 24))
    curves = {n: SampledCurve(UNIT, np.linspace(5.0, 50.0, n) ** 1.5) for n in (96, 97)}
    for n in (96, 97, 96):
        assert spot_payment(plan, curves[n]) == spot_payment(SpotPlan(UNIT, plan.unit_prices), curves[n])


def _assert_spot_matches_per_cycle_integrals(plan: SpotPlan, c) -> None:
    expected, magnitude = _spot_per_cycle(plan, c)
    assert spot_payment(plan, c) == pytest.approx(expected, rel=1e-12, abs=1e-12 * (1.0 + magnitude))


def _spot_prices(cycles: int):
    return st.lists(st.floats(min_value=0.01, max_value=500.0), min_size=cycles, max_size=cycles)


@settings(max_examples=100, deadline=None)
@given(_spot_starts, _spot_lengths, st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=8), st.data())
def test_spot_kernel_with_bounds_on_grid_points(t1, length, cycles, cells_per_cycle, data):
    n_samples = cycles * cells_per_cycle + 1  # the cycle count divides N - 1
    c = SampledCurve(Interval(t1, t1 + length), data.draw(_samples(n_samples)))
    _assert_spot_matches_per_cycle_integrals(SpotPlan(c.interval, data.draw(_spot_prices(cycles))), c)


@settings(max_examples=5, deadline=None)
@given(_spot_starts, _spot_lengths, st.data())
def test_spot_kernel_with_more_cycles_than_cells(t1, length, data):
    c = SampledCurve(Interval(t1, t1 + length), data.draw(_samples(96)))
    prices = data.draw(hnp.arrays(np.float64, 8760, elements=st.floats(min_value=0.01, max_value=500.0)))
    _assert_spot_matches_per_cycle_integrals(SpotPlan(c.interval, prices), c)


@settings(max_examples=100, deadline=None)
@given(_spot_starts, _spot_lengths, st.integers(min_value=1, max_value=50), st.data())
def test_spot_kernel_on_two_samples(t1, length, cycles, data):
    c = SampledCurve(Interval(t1, t1 + length), data.draw(_samples(2)))
    _assert_spot_matches_per_cycle_integrals(SpotPlan(c.interval, data.draw(_spot_prices(cycles))), c)


def _one_shot_weights(interval: Interval, n: int, bounds: np.ndarray, prices: np.ndarray):
    """The spot weights formed over all bounds at once, as the kernel built them before it took blocks: the
    reference that `_weights` matches bit for bit at any block size (see its docstring for the formulas)."""
    h = interval.duration / (n - 1)
    if h == 0.0:
        return 0, np.zeros(n), 0.0
    f = bounds - interval.t1
    f /= h
    k = f.astype(np.intp)
    np.minimum(k, n - 2, out=k)
    f -= k
    first = int(k[0])
    k -= first
    shared = k[1:] == k[:-1]
    mid = np.zeros(f.size)
    np.copyto(mid[1:], f[:-1], where=shared)
    closing = f - mid
    closing *= h
    closing[1:] *= prices
    closing[0] *= 0.0
    mid += f
    mid *= 0.5
    opening = 1.0 - f
    opening *= 0.5 * h
    np.multiply(opening[:-1], prices, out=opening[:-1], where=~shared)
    np.multiply(opening[:-1], 0.0, out=opening[:-1], where=shared)
    opening[-1] *= 0.0
    to_next = closing * mid
    np.subtract(1.0, mid, out=mid)
    closing *= mid
    np.add(f, 1.0, out=mid)
    mid *= opening
    to_next += mid
    np.subtract(1.0, f, out=f)
    f *= opening
    closing += f
    start = np.flatnonzero(np.concatenate(([True], ~shared)))
    closing = np.add.reduceat(closing, start)
    to_next = np.add.reduceat(to_next, start)
    counts = np.diff(k)
    counts[0] += 1
    counts[-1] += 1
    k = k[start]
    w = np.repeat(prices, counts)
    w[0] = 0.0
    w[1:][k] = 0.0
    w[:-1] += w[1:]
    w *= 0.5 * h
    w[k] += closing
    w[1:][k] += to_next
    return first, w, float(np.add.reduce(w))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@st.composite
def _weight_cases(draw):
    """(interval, sample count, bounds, read-only prices): a plan's equal cycles, from one to above the block
    size and past the cell count; cycles on grid points; sorted random bounds, which crowd some cells and
    leave others empty; or a two-bound sub-interval at unit price, as `integrate` takes it."""
    t1 = draw(st.sampled_from([0.0, -12.25, 1e6, -2.5e9]))
    iv = Interval(t1, t1 + draw(st.floats(min_value=0.01, max_value=1e4)))
    n = draw(st.integers(min_value=2, max_value=400))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kind = draw(st.sampled_from(["cycles", "grid", "random", "sub-interval"]))
    if kind == "sub-interval":
        bounds = np.sort([draw(st.floats(min_value=iv.t1, max_value=iv.t2)) for _ in range(2)])
        return iv, n, bounds, _read_only(np.ones(1))
    if kind == "grid":
        m = draw(st.integers(min_value=1, max_value=200))
        n = m * draw(st.integers(min_value=1, max_value=8)) + 1
    else:
        m = draw(st.integers(min_value=1, max_value=1500))
    bounds = np.linspace(iv.t1, iv.t2, m + 1)
    if kind == "random":
        bounds[1:-1] = np.sort(rng.uniform(iv.t1, iv.t2, m - 1))
    return iv, n, bounds, _read_only(rng.uniform(0.01, 500.0, m))


_YEAR = Interval(0.0, 365.0)


@pytest.mark.parametrize("block", [1, 2, 7, None])
@settings(max_examples=100, deadline=None)
@given(_weight_cases())
# a year of 15-minute samples under hourly prices: nine blocks at the default size
@example((_YEAR, 35_040, np.linspace(0.0, 365.0, 8_761), _read_only(np.linspace(10.0, 30.0, 8_760))))
# a bound inside every cell: a block ends in a cell next to the one the next block starts in
@example((UNIT, 98, np.linspace(0.0, 1.0, 97), _read_only(np.linspace(1.0, 2.0, 96))))
def test_spot_weights_built_a_block_at_a_time_keep_the_one_shot_bits(block, case):
    interval, n, bounds, prices = case
    with mock.patch.object(curve, "_BLOCK", block or curve._BLOCK):
        first, w, total = curve._weights(interval, n, bounds.copy(), prices)
    ref_first, ref_w, ref_total = _one_shot_weights(interval, n, bounds.copy(), prices)
    assert first == ref_first
    assert w.dtype == ref_w.dtype and w.tobytes() == ref_w.tobytes()
    assert total.hex() == ref_total.hex()


def test_a_cycle_takes_no_rounding_from_the_cycles_before_it():
    # a large, cheap first cycle, then a dear one over zeros: billed as a difference of a
    # running total, the second cycle would pay 500 times that total's last-digit rounding
    c = SampledCurve(Interval(-12.25, -8.75), [890.0, 0.0, 0.0, 0.0])
    _assert_spot_matches_per_cycle_integrals(SpotPlan(c.interval, [0.01, 500.0, 1.0]), c)


def test_whole_periods_in_each_cycle_bill_only_their_cell_widths():
    # order 4 over 4 cycles: each cycle holds one period, up to the rounding of its linspace bounds.
    # As a difference of two antiderivative values, the dear last cycle billed -2.47e-12 against
    # an exact -1.47e-12 and a tolerance of 1e-12
    c = AnalyticCurve(Interval(0.0, 6.732300588697727), 0.0, ((4, 12.0, 0.0),))
    _assert_spot_matches_per_cycle_integrals(SpotPlan(c.interval, [1.0, 1.0, 1.0, 276.0]), c)


def test_integrals_on_a_subnormal_step_follow_energy():
    # a subnormal step h = T0/(N-1) weights the cells as energy does, and no sample difference
    # is divided by it (1e300 / h would overflow)
    c = SampledCurve(Interval(0.0, 1e-310), [0.0, 1e300, -1e300, 0.0])
    assert integrate(c, 0.0, 1e-310) == pytest.approx(energy(c), rel=1e-12)
    assert spot_payment(SpotPlan(c.interval, [2.0]), c) == pytest.approx(classic_payment(2.0, c), rel=1e-12)
    assert integrate(c, 0.0, 5e-311) == pytest.approx(c.interval.duration / 3 * 1e300 * (1 / 2 + 1 / 4), rel=1e-12)
    # T0/(N-1) underflows to zero, so every cell weighs zero in all three
    c = SampledCurve(Interval(0.0, 5e-324), [1.0, 2.0, 3.0])
    assert energy(c) == integrate(c, 0.0, 5e-324) == spot_payment(SpotPlan(c.interval, [1.0, 2.0]), c) == 0.0


def _assert_one_cycle_spot_plan_bills_as_classic(c, p: float) -> None:
    # a signed load can cancel to a total near zero, so the absolute part
    # of the tolerance scales with the curve's peak over its interval
    size = p * c.interval.duration * _peak(c)
    expected = classic_payment(p, c)
    assert spot_payment(SpotPlan(c.interval, [p]), c) == pytest.approx(expected, rel=1e-12, abs=_abs_tol(size))


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(sampled_curves(), analytic_curves(interval=None, max_order=40)),
    st.floats(min_value=0.01, max_value=500.0),
)
# subnormal samples, whose bills differ in the last subnormal place: 1e-12 of their size is 0.0
@example(SampledCurve(Interval(0.0, 1.0), [4.4e-311, 2.2e-311]), 1.0)
# energy halved the subnormal ends to 0.0 and billed 5e-323, against a spot bill of 2e-323
@example(SampledCurve(Interval(0.0, 5.0), [5e-324, 0.0]), 2.0)
# each product w_i * v_i rounded to the subnormal grid, and the spot bill missed the flat one by 43 ulps
@example(SampledCurve(Interval(0.0, 1.0), [1.18708732e-308] * 97), 0.01171875)
# the flat bill priced an energy already rounded to the subnormal grid: 1e-322 against a spot bill of 7.4e-323
@example(SampledCurve(Interval(0.0, 1.5), [5e-324, 5e-324]), 10.0)
def test_one_cycle_spot_plan_bills_as_classic(c, p):
    _assert_one_cycle_spot_plan_bills_as_classic(c, p)


# Far from zero, t1 = 1e3 against T0 <= 10, a grid point's time and its offset
# i*h round differently; the flat bill weights every cell by the exact step h,
# and so must the spot bill. An analytic curve's sin and cos at absolute times
# t ~ 1e4 carry the rounding of w*t; the flat bill is exact there.
@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        sampled_curves(st.builds(lambda length: Interval(1e3, 1e3 + length), _spot_lengths), allow_subnormal=False),
        st.builds(lambda t1, length: Interval(t1, t1 + length), st.sampled_from([1e3, 1e4]), _spot_lengths).flatmap(
            lambda iv: analytic_curves(interval=iv, max_order=40)
        ),
    ),
    st.floats(min_value=0.01, max_value=500.0),
)
# summed over the rounded cell widths of t1 + i*h, this bill missed by 19 times the tolerance
@example(SampledCurve(Interval(1e3, 1e3 + 0.1), np.round(1e3 * np.sin(np.arange(185)))), 1.0)
# integrated at absolute times, this bill missed by 9 times the tolerance
@example(AnalyticCurve(Interval(1e4, 1e4 + 0.1), 0.0, ((40, 50.0, 0.0),)), 500.0)
def test_one_cycle_spot_plan_bills_as_classic_far_from_zero(c, p):
    _assert_one_cycle_spot_plan_bills_as_classic(c, p)


@pytest.mark.parametrize("t1", [0.0, 1.046875, -9.7, 1e4])
@pytest.mark.parametrize(
    "length, order, amplitudes, price", [(9.410288492904023, 38, (0.0, 18.0), 28.0), (9.9, 1, (50.0, 50.0), 500.0)]
)
def test_whole_periods_of_a_harmonic_bill_exactly_zero(t1, length, order, amplitudes, price):
    # offsets enter as n*u/T0 turns modulo 1, so t2 is exactly n turns on from t1; taken as w*u
    # radians, the second curve at t1 = 0 billed -9.6e-12 against a tolerance of 1e-12, and the
    # first, found by hypothesis at t1 = 1.046875, billed -1.02e-12
    c = AnalyticCurve(Interval(t1, t1 + length), 0.0, ((order, *amplitudes),))
    assert spot_payment(SpotPlan(c.interval, [price]), c) == 0.0
    assert integrate(c, c.interval.t1, c.interval.t2) == 0.0


def test_half_periods_of_a_cosine_bill_exactly_zero():
    # each of the 8 cycles is half a period of order 4, from a crest to a trough or back: its integral is
    # sin((k + 1) pi) - sin(k pi) = 0, which cos(pi (2k + 1)/2) taken as about 6e-17 made 8.8e-16 or -2.6e-15;
    # hypothesis drew the plan, whose last price 283 made the bill -7.5e-13 against a tolerance of 1e-12
    c = AnalyticCurve(Interval(0.0, 5.0), 0.0, ((4, 36.0, 0.0),))
    bounds = np.linspace(0.0, 5.0, 9)
    assert [integrate(c, lo, hi) for lo, hi in zip(bounds, bounds[1:])] == [0.0] * 8
    assert spot_payment(SpotPlan(c.interval, [1.0] * 7 + [283.0]), c) == 0.0


def test_a_start_a_hair_before_zero_bills_half_periods_as_zero():
    # t1 = -7.8e-61 is -1.6e-61 of a turn, which reduced modulo 1 rounds up to a whole turn; rotated by the
    # factors of one turn, sin(8 pi) = -9.8e-16 at order 4, the plan that hypothesis drew billed -1.0e-12
    c = AnalyticCurve(Interval(-7.796889521502568e-61, 5.0), 0.0, ((4, 20.0, 0.0),))
    _assert_spot_matches_per_cycle_integrals(SpotPlan(c.interval, [1.0] * 7 + [130.0]), c)


_NOT_VECTORS = [
    "12",
    b"12",
    {1.0: 2.0, 3.0: 4.0},
    {1.0, 2.0},
    True,
    (True, 2.0),
    [1.0, np.True_],
    [[1.0, 2.0]],
    [np.array([1.0, 2.0])],
    np.ones((2, 2)),
    np.array(3.0),
    np.float64(3.0),
    np.array([True, False]),
]


@pytest.mark.parametrize("values", _NOT_VECTORS, ids=repr)
@pytest.mark.parametrize("vector", [lambda v: SpotPlan(UNIT, v), lambda v: DynamismRates(UNIT, v)],
                         ids=["spot", "rates"])
def test_price_and_rate_vectors_refuse_anything_but_flat_reals(vector, values):
    with pytest.raises(ValueError, match="must be .*real numbers"):
        vector(values)


@pytest.mark.parametrize(
    "values",
    [lambda: [10.0, 30], lambda: (10.0, 30.0), lambda: np.array([10.0, 30.0]), lambda: np.array([10, 30]),
     lambda: (x for x in (10.0, 30.0)), lambda: [np.float64(10.0), np.int64(30)]],
    ids=["list", "tuple", "float array", "int array", "generator", "numpy scalars"],
)
def test_price_and_rate_vectors_accept_flat_reals(values):
    spot, rates = SpotPlan(UNIT, values()), DynamismRates(UNIT, values())
    for vector in (spot.unit_prices, rates.lam):
        assert vector.dtype == np.float64 and not vector.flags.writeable
        assert vector.tolist() == [10.0, 30.0]


def test_spot_interval_mismatch_raises(l1):
    plan = SpotPlan(Interval(0.0, 2.0), (10.0, 30.0))
    with pytest.raises(ValueError, match="partition"):
        spot_payment(plan, l1)


# ---------------------------------------------------------------------------
# dynamism payments
# ---------------------------------------------------------------------------

def test_reference_bills_full_precision(l1, l2, plan1, plan2):
    cases = (
        (plan1, l1, L1P1),
        (plan1, l2, L2P1),
        (plan2, l1, L1P2),
        (plan2, l2, L2P2),
    )
    for plan, load, (non_dyn, dyn, total) in cases:
        bill = dynamism_payment(plan, analyze(load, 100))
        assert bill.non_dynamic == pytest.approx(non_dyn, abs=1e-9)
        assert bill.dynamic == pytest.approx(dyn, abs=1e-9)
        assert bill.total == pytest.approx(total, abs=1e-9)


def test_bill_parts_sum_exactly(l1, plan1):
    bill = dynamism_payment(plan1, analyze(l1, 100))
    assert bill.total == bill.non_dynamic + bill.dynamic


def test_bill_line_items_decompose_the_parts(l1, plan1):
    bill = dynamism_payment(plan1, analyze(l1, 100))
    energy_items = [it for it in bill.line_items if it.label == "energy"]
    harmonic_items = [it for it in bill.line_items if it.label != "energy"]
    assert len(energy_items) == 1
    assert energy_items[0].amount == bill.non_dynamic
    assert sum(it.amount for it in harmonic_items) == pytest.approx(bill.dynamic, rel=1e-12)
    # one item per nonzero coefficient: b5, a20, b100
    assert [(it.label, it.frequency) for it in harmonic_items] == [
        ("sin", 5.0),
        ("cos", 20.0),
        ("sin", 100.0),
    ]


def test_zero_spectrum_bills_zero(plan1):
    bill = dynamism_payment(plan1, analyze(AnalyticCurve(UNIT, 0.0), 3))
    assert bill.non_dynamic == 0.0
    assert bill.dynamic == 0.0
    assert bill.total == 0.0


def test_negative_coefficients_charged_positively(l1, plan1):
    # default polarity follows the load itself, so flipping a sign cannot
    # turn a charge into a credit
    s = analyze(l1, 100)
    flipped = _with_coefficient(s, 5, "b", -20.0)
    assert dynamism_payment(plan1, flipped).dynamic == pytest.approx(
        dynamism_payment(plan1, s).dynamic, rel=1e-12
    )
    item = next(it for it in dynamism_payment(plan1, flipped).line_items if it.label == "sin" and it.frequency == 5.0)
    assert item.unit_price > 0 and item.amount > 0


def test_supply_polarity_flips_line_item(l1, plan1):
    s = analyze(l1, 100)
    supply = _with_coefficient(s, 20, "a", -3.0)
    bill = dynamism_payment(plan1, s, supply)
    a20_price = price_frequency_value(plan1.alpha, 20.0)
    expected_total = L1P1[2] - 2.0 * a20_price * 10.0
    assert bill.total == pytest.approx(expected_total, abs=1e-9)
    item = next(it for it in bill.line_items if it.label == "cos")
    assert item.amount < 0  # surfaced as a signed line item
    assert item.unit_price == a20_price  # the published price, not a signed one


def test_supply_zero_coefficient_falls_back_to_load_sign(l1, plan1):
    s = analyze(l1, 100)
    supply = _with_coefficient(s, 5, "b", 0.0)
    assert dynamism_payment(plan1, s, supply).total == pytest.approx(
        dynamism_payment(plan1, s).total, rel=1e-12
    )


def test_supply_interval_mismatch_raises(l1, plan1):
    other = analyze(AnalyticCurve(Interval(0.0, 2.0), 1.0), 1)
    with pytest.raises(ValueError, match="incompatible intervals"):
        dynamism_payment(plan1, analyze(l1, 100), other)


def test_payment_linear_in_spectrum_under_fixed_supply(plan1):
    rng = np.random.default_rng(42)
    orders = (1, 3, 4, 7, 9)
    supply = _all_positive_supply(orders, n_max=10)

    def random_curve():
        harmonics = tuple(Harmonic(n, rng.uniform(-8, 8), rng.uniform(-8, 8)) for n in orders)
        return AnalyticCurve(UNIT, rng.uniform(5, 40), harmonics)

    for _ in range(10):
        c1, c2 = random_curve(), random_curve()
        joint = dynamism_payment(plan1, analyze(add(c1, c2), 10), supply).total
        split = (
            dynamism_payment(plan1, analyze(c1, 10), supply).total
            + dynamism_payment(plan1, analyze(c2, 10), supply).total
        )
        assert joint == pytest.approx(split, rel=1e-9)


def _nonzero_coefficients():
    return st.floats(min_value=0.1, max_value=100.0).flatmap(lambda x: st.sampled_from([x, -x]))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_dynamism_bill_is_linear_in_the_load_under_fixed_supply(data):
    # every supply coefficient is nonzero, so no order falls back to the load's own sign
    interval = data.draw(intervals(max_length=20.0))
    n_max = data.draw(st.integers(min_value=1, max_value=30))
    plan = DynamismPlan(data.draw(st.floats(min_value=0.1, max_value=100.0)), data.draw(_pffs()), data.draw(_pffs()))
    sup = data.draw(st.lists(st.tuples(_nonzero_coefficients(), _nonzero_coefficients()),
                             min_size=n_max, max_size=n_max))
    supply = Spectrum(interval, 1.0, [(n, a, b) for n, (a, b) in enumerate(sup, start=1)], n_max)
    x = data.draw(analytic_curves(interval=interval, max_order=n_max))
    y = data.draw(analytic_curves(interval=interval, max_order=n_max))
    a = data.draw(st.floats(min_value=-10.0, max_value=10.0))

    def bill(c):
        return dynamism_payment(plan, analyze(c, n_max, drop_tol=0.0), supply)

    bx, by = bill(x), bill(y)
    joint = bill(add(scale(a, x), y))
    magnitude = abs(a) * np.abs(bx.lines[:, 3]).sum() + np.abs(by.lines[:, 3]).sum()
    assert joint.total == pytest.approx(a * bx.total + by.total, rel=1e-12, abs=1e-12 * magnitude)


def test_bill_to_dict_shape(l1, plan1):
    d = dynamism_payment(plan1, analyze(l1, 100)).to_dict()
    assert set(d) == {"non_dynamic", "dynamic", "total", "line_items"}
    assert d["total"] == d["non_dynamic"] + d["dynamic"]
    assert all(set(item) == {"label", "frequency", "coefficient", "unit_price", "amount"} for item in d["line_items"])


def _reference_price(pff: PriceFrequencyFunction, f: float) -> float:
    if f < pff.cutoff:
        return pff.base
    return pff.base + pff.slope * math.log10(f - pff.log_offset)


def _reference_polarity(supply_coeff: float, load_coeff: float) -> float:
    if supply_coeff != 0.0:
        return math.copysign(1.0, supply_coeff)
    if load_coeff != 0.0:
        return math.copysign(1.0, load_coeff)
    return 1.0


def _per_coefficient_bill(plan: DynamismPlan, s: Spectrum, supply: Spectrum | None = None):
    """The dynamism bill one coefficient at a time: (non_dynamic, dynamic, line item tuples).

    Scalar polarity and one price evaluation per coefficient, kept as the
    reference for the array billing path.
    """
    t0, f0 = s.interval.duration, s.interval.f0
    non_dynamic = plan.alpha0 * 0.5 * t0 * s.a0
    items = [("energy", 0.0, s.a0, plan.alpha0, non_dynamic)]
    dynamic = 0.0
    for n, a, b in s.harmonics:
        f = n * f0
        sup_a, sup_b = supply.coefficient(n) if supply is not None else (a, b)
        for label, coef, sup, pff in (("cos", a, sup_a, plan.alpha), ("sin", b, sup_b, plan.beta)):
            if coef != 0.0:
                price = _reference_price(pff, f)
                amount = t0 * _reference_polarity(sup, coef) * price * coef
                items.append((label, f, coef, price, amount))
                dynamic += amount
    return non_dynamic, dynamic, items


def _reference_gradient(plan: DynamismPlan, interval: Interval, orders, supply: Spectrum) -> dict:
    t0 = interval.duration
    g = {0: t0 * 0.5 * plan.alpha0}
    for n in orders:
        sup_a, sup_b = supply.coefficient(n)
        f = n * interval.f0
        g[mu_index_cos(n)] = t0 * _reference_polarity(sup_a, 0.0) * _reference_price(plan.alpha, f)
        g[mu_index_sin(n)] = t0 * _reference_polarity(sup_b, 0.0) * _reference_price(plan.beta, f)
    return g


_coefficients = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(min_value=-1e3, max_value=1e3))


@st.composite
def _spectra(draw, interval: Interval, n_max: int) -> Spectrum:
    a = draw(st.lists(_coefficients, min_size=n_max, max_size=n_max))
    b = draw(st.lists(_coefficients, min_size=n_max, max_size=n_max))
    rows = [(n, x, y) for n, x, y in zip(range(1, n_max + 1), a, b)]
    return Spectrum(interval, draw(_coefficients), rows, n_max)


@st.composite
def _pffs(draw) -> PriceFrequencyFunction:
    base = draw(st.floats(min_value=1.0, max_value=100.0))
    cutoff = draw(st.floats(min_value=0.01, max_value=50.0))
    gap = draw(st.floats(min_value=0.5, max_value=60.0))  # cutoff - log_offset
    slope = draw(st.floats(min_value=0.0, max_value=50.0))
    assume(base + slope * math.log10(gap) > 0.0)
    return PriceFrequencyFunction(base, cutoff, slope, cutoff - gap)


@st.composite
def _billing_cases(draw):
    interval = draw(intervals(max_length=20.0))
    n_max = draw(st.integers(min_value=1, max_value=30))
    plan = DynamismPlan(draw(st.floats(min_value=0.1, max_value=100.0)), draw(_pffs()), draw(_pffs()))
    supply_n_max = draw(st.sampled_from([None, n_max, draw(st.integers(min_value=1, max_value=30))]))
    supply = None if supply_n_max is None else draw(_spectra(interval, supply_n_max))
    return plan, draw(_spectra(interval, n_max)), supply


@settings(max_examples=300, deadline=None)
@given(_billing_cases())
def test_array_bill_equals_per_coefficient_bill(case):
    plan, s, supply = case
    non_dynamic, dynamic, items = _per_coefficient_bill(plan, s, supply)
    bill = dynamism_payment(plan, s, supply)
    assert [(it.label, it.frequency, it.coefficient) for it in bill.line_items] == [x[:3] for x in items]
    for got, (_, _, _, price, amount) in zip(bill.line_items, items):
        assert got.unit_price == pytest.approx(price, rel=1e-15, abs=0.0)
        assert got.amount == pytest.approx(amount, rel=1e-15, abs=0.0)
    magnitude = sum(abs(x[4]) for x in items)
    assert bill.non_dynamic == non_dynamic
    assert bill.dynamic == pytest.approx(dynamic, rel=1e-12, abs=1e-12 * magnitude)
    assert bill.total == pytest.approx(non_dynamic + dynamic, rel=1e-12, abs=1e-12 * magnitude)


@settings(max_examples=200, deadline=None)
@given(_billing_cases(), st.sets(st.integers(min_value=1, max_value=40), max_size=12))
def test_gradient_equals_per_order_definition(case, orders):
    plan, s, supply = case
    supply = s if supply is None else supply
    g = payment_gradient(plan, s.interval, orders=orders, supply=supply)
    expected = _reference_gradient(plan, s.interval, sorted(orders), supply)
    assert g.dense().shape == (1 + 2 * max(orders, default=0),)
    assert dict(g.coords) == pytest.approx(expected, rel=1e-15, abs=0.0)


def _gradient_at_the_orders(plan: DynamismPlan, interval: Interval, orders, supply: Spectrum | None) -> np.ndarray:
    """The plan gradient with its prices evaluated at the requested orders alone: t0 * polarity * price, each
    sign from the supply's (a_n, b_n), zero above its n_max, or positive with no supply."""
    n = np.array(sorted(orders), dtype=np.intp)
    t0, f = interval.duration, n * interval.f0
    sup_a = sup_b = np.ones(n.size)
    if supply is not None:
        inside, k = n <= supply.n_max, np.minimum(n, supply.n_max) - 1
        sup_a, sup_b = np.where(inside, supply.a[k], 0.0), np.where(inside, supply.b[k], 0.0)

    def signed(sup, pff):  # the polarity is positive where the supply's coefficient is zero
        return t0 * np.copysign(1.0, np.where(sup != 0.0, sup, 1.0)) * price_frequency_value(pff, f)

    g = np.zeros(1 + 2 * (int(n[-1]) if n.size else 0))
    g[0] = t0 * 0.5 * plan.alpha0
    g[mu_index_cos(n)], g[mu_index_sin(n)] = signed(sup_a, plan.alpha), signed(sup_b, plan.beta)
    return g


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=-1e3, max_value=1e3),
    st.floats(min_value=1e-3, max_value=1e4),
    st.sets(st.integers(min_value=1, max_value=60), max_size=12),
    _pffs(),
    _pffs(),
    st.data(),
)
def test_the_gradient_is_the_bills_signed_price_column_bit_for_bit(t1, t0, orders, alpha, beta, data):
    # the gradient reads the price-times-t0 column a bill's order lines are built from, at the requested
    # orders alone, signed by the supply; each entry keeps the bits of the per-order evaluation
    assume(t1 < t1 + t0)
    interval = Interval(t1, t1 + t0)
    plan = DynamismPlan(data.draw(st.floats(min_value=0.1, max_value=100.0)), alpha, beta)
    spectra = st.integers(min_value=1, max_value=60).flatmap(lambda k: _spectra(interval, k))
    supply = data.draw(st.none() | spectra)
    if data.draw(st.booleans()):  # a plan that holds the columns of a bill, at this key or another
        dynamism_payment(plan, data.draw(spectra))
    held = plan._columns
    expected = _gradient_at_the_orders(plan, interval, orders, supply)
    assert payment_gradient(plan, interval, orders, supply).values.tobytes() == expected.tobytes()
    assert plan._columns is held  # the gradient leaves what the plan holds for its next bill


# ---------------------------------------------------------------------------
# gradients and incentives
# ---------------------------------------------------------------------------

def test_gradient_reference_plan_values(plan1):
    g = dict(payment_gradient(plan1, UNIT, orders=(5, 20, 100)).coords)
    assert g[0] == 10.0
    assert g[mu_index_cos(5)] == 20.0 and g[mu_index_sin(5)] == 20.0
    assert g[mu_index_cos(20)] == pytest.approx(23.9031, abs=1e-4)
    assert g[mu_index_sin(100)] == 26.0


def test_gradient_matches_finite_differences(l1, plan1, plan2):
    s = analyze(l1, 100)
    supply = _all_positive_supply((5, 20, 100))
    eps = 1e-4
    for plan in (plan1, plan2):
        g = dict(payment_gradient(plan, UNIT, orders=(5, 20, 100), supply=supply).coords)
        # energy coordinate: perturb a0
        up = dynamism_payment(plan, Spectrum(UNIT, s.a0 + eps, s.harmonics, 100), supply).total
        dn = dynamism_payment(plan, Spectrum(UNIT, s.a0 - eps, s.harmonics, 100), supply).total
        fd = (up - dn) / (2 * eps)
        assert fd == pytest.approx(g[0], rel=1e-6)
        for n in (5, 20, 100):
            for which, k in (("a", mu_index_cos(n)), ("b", mu_index_sin(n))):
                base = s.coefficient(n)[0 if which == "a" else 1]
                up = dynamism_payment(plan, _with_coefficient(s, n, which, base + eps), supply).total
                dn = dynamism_payment(plan, _with_coefficient(s, n, which, base - eps), supply).total
                fd = (up - dn) / (2 * eps)
                assert fd == pytest.approx(g[k], rel=1e-6)


def test_gradient_follows_supply_signs(plan1):
    supply = Spectrum(UNIT, 1.0, (Harmonic(20, -3.0, 2.0),), 100)
    g = dict(payment_gradient(plan1, UNIT, orders=(20,), supply=supply).coords)
    a20 = price_frequency_value(plan1.alpha, 20.0)
    b20 = price_frequency_value(plan1.beta, 20.0)
    assert g[mu_index_cos(20)] == -a20
    assert g[mu_index_sin(20)] == b20


def test_gradient_flat_pff_is_constant():
    flat = PriceFrequencyFunction(base=20.0, cutoff=10.0, slope=0.0)
    plan = DynamismPlan(alpha0=20.0, alpha=flat, beta=flat)
    g = dict(payment_gradient(plan, UNIT, orders=(1, 7, 50)).coords)
    for n in (1, 7, 50):
        assert g[mu_index_cos(n)] == 20.0
        assert g[mu_index_sin(n)] == 20.0


def test_gradient_scales_with_duration(plan1):
    iv = Interval(0.0, 2.0)
    g = dict(payment_gradient(plan1, iv, orders=(4,)).coords)
    # f = 4 * f0 = 2 < cutoff, price stays at base; entries carry T0
    assert g[0] == 2.0 * 10.0
    assert g[mu_index_cos(4)] == 2.0 * 20.0


def test_gradient_argument_validation(plan1):
    with pytest.raises(ValueError, match="interval"):
        payment_gradient(plan1, orders=(5,))
    with pytest.raises(ValueError, match="orders"):
        payment_gradient(plan1, UNIT)
    with pytest.raises(ValueError, match=">= 1"):
        payment_gradient(plan1, UNIT, orders=(0,))
    rates = DynamismRates(UNIT, (1.0, 2.0, 3.0))
    with pytest.raises(ValueError, match="do not apply"):
        payment_gradient(rates, orders=(1,))


def test_incentive_is_negated_gradient(plan1):
    g = payment_gradient(plan1, UNIT, orders=(5, 20, 100))
    d = incentive_direction(plan1, UNIT, orders=(5, 20, 100))
    assert np.array_equal(d.dense(201), -g.dense(201))


def test_moving_along_incentive_reduces_payment(l1, plan1):
    s = analyze(l1, 100)
    supply = _all_positive_supply((5, 20, 100))
    base = dynamism_payment(plan1, s, supply).total
    d = dict(incentive_direction(plan1, UNIT, orders=(5, 20, 100), supply=supply).coords)
    step = 0.01
    moved = Spectrum(UNIT, s.a0 + step * d[0], s.harmonics, 100)
    for n in (5, 20, 100):
        a, b = moved.coefficient(n)
        moved = _with_coefficient(moved, n, "a", a + step * d[mu_index_cos(n)])
        moved = _with_coefficient(moved, n, "b", b + step * d[mu_index_sin(n)])
    assert dynamism_payment(plan1, moved, supply).total < base


def test_best_single_coordinate_move_is_largest_gradient_entry(l1, plan1):
    s = analyze(l1, 100)
    supply = _all_positive_supply((5, 20, 100))
    base = dynamism_payment(plan1, s, supply).total
    g = dict(payment_gradient(plan1, UNIT, orders=(5, 20, 100), supply=supply).coords)

    drops = {}
    moved = Spectrum(UNIT, s.a0 - 1.0, s.harmonics, 100)
    drops[0] = base - dynamism_payment(plan1, moved, supply).total
    for n in (5, 20, 100):
        a, b = s.coefficient(n)
        drops[mu_index_cos(n)] = base - dynamism_payment(
            plan1, _with_coefficient(s, n, "a", a - 1.0), supply
        ).total
        drops[mu_index_sin(n)] = base - dynamism_payment(
            plan1, _with_coefficient(s, n, "b", b - 1.0), supply
        ).total

    for k, drop in drops.items():
        assert drop == pytest.approx(g[k], rel=1e-9)
    best = max(drops.values())
    best_gradient = max(g.values())
    assert best == pytest.approx(best_gradient, rel=1e-9)
    assert g[max(drops, key=drops.get)] == pytest.approx(best_gradient, rel=1e-9)


# ---------------------------------------------------------------------------
# rate vectors
# ---------------------------------------------------------------------------

def test_rates_validation():
    with pytest.raises(ValueError, match="non-empty"):
        DynamismRates(UNIT, ())
    with pytest.raises(ValueError, match="finite"):
        DynamismRates(UNIT, (1.0, math.nan))


def test_rates_payment_is_weighted_sum(l1):
    rates = DynamismRates(UNIT, (2.0, 0.0, 0.0, 0.0, 0.0))
    mu = to_mu_vector(analyze(l1, 2))
    # only mu0 = 50 falls inside the rate vector's support
    assert rates_payment(rates, mu) == 100.0


def test_rates_payment_ignores_coordinates_beyond_truncation(l1):
    mu = to_mu_vector(analyze(l1, 100))  # has coordinates up to index 200
    rates = DynamismRates(UNIT, (1.0,) * 11)  # truncation order 5
    expected = float(np.sum(mu.dense(201)[:11]))
    assert rates_payment(rates, mu) == pytest.approx(expected, rel=1e-12)


def test_rates_payment_interval_mismatch(l1):
    rates = DynamismRates(Interval(0.0, 2.0), (1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="incompatible intervals"):
        rates_payment(rates, to_mu_vector(analyze(l1, 1)))


def test_rates_gradient_is_t0_times_lambda():
    iv = Interval(0.0, 2.5)
    lam = (3.0, -1.0, 0.5)
    g = payment_gradient(DynamismRates(iv, lam))
    assert np.array_equal(g.dense(), 2.5 * np.asarray(lam))
    with pytest.raises(ValueError, match="incompatible intervals"):
        payment_gradient(DynamismRates(iv, lam), UNIT)
