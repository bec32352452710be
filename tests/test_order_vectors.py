"""Fixed cost per meter: held per-order vectors, and nothing left behind.

An interval holds its length and the phase of t1. A dynamism plan holds the
frequency and price columns of the order lines of the last (T0, n_max) it
billed, and `analyze` takes its conjugated phase vector from a cache keyed
on values (the phase, n_max). The held and cached arrays are read-only and
exact; spot plans, curves and spectra are never kept; and billing many
meters leaves no traced memory behind. A spot plan holds its own cycle
arrays and the sample layout of the last sample count it billed: a reused
plan, spot or dynamism, bills as a fresh one does, and what it holds goes
with the plan. A sampled curve records its peak, the default drop
threshold of `analyze` takes the norm only when an order is near it, and
a dynamism bill builds its lines on first read; each gives the bits the
eager computation gave. A pickled or copied value stores only its fields,
its arrays read-only, and leaves held weights, columns and parts behind.
"""
from __future__ import annotations

import copy
import dataclasses
import gc
import json
import math
import pickle
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from loadspace import (
    AnalyticCurve,
    Bill,
    CostCharacteristic,
    DynamismPlan,
    Interval,
    PriceFrequencyFunction,
    SampledCurve,
    Spectrum,
    SpotPlan,
    analyze,
    classic_payment,
    dynamism_payment,
    energy,
    integrate,
    norm,
    payment_gradient,
    price_frequency_value,
    pricing_from_cost,
    rates_payment,
    spot_payment,
    supply_cost,
    synthesize,
    to_mu_vector,
)
from loadspace import spectrum, tariff
from loadspace.curve import _t1_turns, _weights

from conftest import UNIT, analytic_curves, intervals
from test_tariff import _pffs, _samples, _spot_intervals, _spot_prices


@settings(max_examples=100, deadline=None)
@given(intervals(max_length=20.0), st.integers(min_value=1, max_value=1200), _pffs(), _pffs())
def test_cached_order_vectors_are_read_only_and_bit_identical(interval, n_max, alpha, beta):
    f0 = interval.f0
    orders = np.arange(1, n_max + 1)
    offset = (interval.t1 / interval.duration) % 1.0
    columns = tariff._order_columns(alpha, beta, interval.duration, orders)
    cached = {
        "frequencies": (columns[:, 0], np.repeat(orders * f0, 2)),
        "alpha prices": (columns[::2, 1], price_frequency_value(alpha, orders * f0)),
        "beta prices": (columns[1::2, 1], price_frequency_value(beta, orders * f0)),
        "phase": (
            spectrum._conjugate_phase(offset, n_max),
            np.conjugate(np.exp(-2j * np.pi * offset * np.arange(n_max + 1))),
        ),
    }
    for name, (got, fresh) in cached.items():
        assert not got.flags.writeable, name
        assert got.dtype == fresh.dtype and got.tobytes() == fresh.tobytes(), name
        with pytest.raises(ValueError, match="read-only"):
            got[0] = 0.0


def _stacked_analysis(c: SampledCurve, n_max: int) -> tuple[float, np.ndarray]:
    """(a0, [a; b]) of sampled `analyze` in the unconjugated formulation.

    The phase exp(-2 pi i n t1/T0) times the rfft, times 2/T0, then
    a_n = Re and b_n = -Im copied out with np.stack, and the default drop.
    """
    v, iv = c.values, c.interval
    h = iv.duration / (v.size - 1)
    x = h * v[:-1]
    x[0] = 0.5 * h * (v[0] + v[-1])
    z = np.fft.rfft(x)[: n_max + 1]
    z *= np.exp(-2j * np.pi * _t1_turns(iv) * np.arange(n_max + 1))
    z *= 2.0 / iv.duration
    ab = np.stack((z.real[1:], -z.imag[1:]))
    np.copyto(ab, 0.0, where=(np.abs(ab) <= 1e-12 * norm(c)).all(axis=0))
    return float(z[0].real), ab


def _looped_lines(plan: DynamismPlan, s, supply=None) -> np.ndarray:
    """A dynamism bill's lines filled one price function at a time, polarity from copysign."""
    iv, n_max = s.interval, s.n_max
    t0 = iv.duration
    f = np.arange(1, n_max + 1) * iv.f0
    if supply is None:
        sup_a, sup_b = s.a, s.b
    else:
        k = np.minimum(np.arange(n_max), supply.n_max - 1)
        inside = np.arange(n_max) < supply.n_max
        sup_a, sup_b = np.where(inside, supply.a[k], 0.0), np.where(inside, supply.b[k], 0.0)
    lines = np.empty((1 + 2 * n_max, 4))
    lines[0] = (0.0, s.a0, plan.alpha0, plan.alpha0 * 0.5 * t0 * s.a0)
    for first, coef, sup, pff in ((1, s.a, sup_a, plan.alpha), (2, s.b, sup_b, plan.beta)):
        price = price_frequency_value(pff, f)
        rows = lines[first::2]
        rows[:, 0] = f
        rows[:, 1] = coef
        rows[:, 2] = price
        rows[:, 3] = t0 * np.copysign(1.0, np.where(sup != 0.0, sup, coef)) * price * coef
    return lines


def _bits(x: np.ndarray) -> bytes:
    """The bytes of x with -0.0 read as 0.0 (adding 0.0 changes nothing else)."""
    return (np.asarray(x, dtype=float) + 0.0).tobytes()


@st.composite
def _meters(draw, max_samples: int = 160):
    n_samples = draw(st.integers(min_value=4, max_value=max_samples))
    values = draw(hnp.arrays(np.float64, n_samples, elements=st.floats(min_value=-1e3, max_value=1e3)))
    t1 = draw(st.one_of(st.sampled_from([0.0, -12.25, 1e3]), st.floats(min_value=-50.0, max_value=50.0)))
    return SampledCurve(Interval(t1, t1 + draw(st.floats(min_value=0.1, max_value=30.0))), values)


@settings(max_examples=200, deadline=None)
@given(_meters(), st.data())
def test_analysis_and_bill_equal_the_stacked_and_looped_formulation(c, data):
    n_max = data.draw(st.integers(min_value=1, max_value=(c.values.size - 2) // 2))
    plan = DynamismPlan(data.draw(st.floats(min_value=0.1, max_value=100.0)), data.draw(_pffs()), data.draw(_pffs()))
    s = analyze(c, n_max)
    a0, ab = _stacked_analysis(c, n_max)
    # the conjugated form can differ from the stacked one only in the sign of a zero
    assert s.a0 == a0 and _bits(s.a) == _bits(ab[0]) and _bits(s.b) == _bits(ab[1])
    assert dynamism_payment(plan, s).lines.tobytes() == _looped_lines(plan, s).tobytes()
    other = data.draw(_meters())
    supply = analyze(
        SampledCurve(c.interval, other.values),
        data.draw(st.integers(min_value=1, max_value=(other.values.size - 2) // 2)),
    )
    assert dynamism_payment(plan, s, supply).lines.tobytes() == _looped_lines(plan, s, supply).tobytes()


def test_equal_but_distinct_plans_give_equal_bills(l1):
    s = analyze(l1, 100)

    def plan(base, cutoff, slope):
        return DynamismPlan(20.0, PriceFrequencyFunction(base, cutoff, slope), PriceFrequencyFunction(base, cutoff, slope))

    first = plan(20.0, 10.0, 3.0)
    expected = dynamism_payment(first, s)
    del vars(first)["_columns"]  # the plan's held order columns: its next bill computes them afresh
    for other in (plan(20.0, 10.0, 3.0), plan(20, 10, 3), first):
        assert other is first or other.alpha is not first.alpha
        assert dynamism_payment(other, s) == expected
    assert spot_payment(SpotPlan(UNIT, [10.0, 30.0]), l1) == spot_payment(SpotPlan(UNIT, np.array([10.0, 30.0])), l1)


def test_billing_keeps_no_plan_curve_or_spectrum_alive(plan1):
    plan = SpotPlan(UNIT, tuple(np.linspace(10.0, 30.0, 24)))
    curve = SampledCurve(UNIT, np.linspace(5.0, 50.0, 97))
    s = analyze(curve, 40)
    spot_payment(plan, curve)
    dynamism_payment(plan1, s)
    refs = [weakref.ref(plan), weakref.ref(curve), weakref.ref(s)]
    del plan, curve, s
    gc.collect()
    assert [r() for r in refs] == [None, None, None]


def test_billing_a_meter_fleet_leaves_no_traced_memory_behind(plan1):
    # A name string made per call (the `flags.writeable` setter's "setflags", the
    # "accumulate" behind np.cumsum) is kept by CPython's type attribute cache in
    # whichever slot its address picks; the strings kept between meters spread
    # those addresses, as a real fleet's other work does.
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing")
    spot = SpotPlan(UNIT, np.linspace(10.0, 30.0, 24))
    values = np.linspace(5.0, 50.0, 97)

    def meter():
        curve = SampledCurve(UNIT, values)
        return dynamism_payment(plan1, analyze(curve, 40)).total + spot_payment(spot, curve)

    meter()  # fills the plan's order columns and the phase cache
    tracemalloc.start()
    try:
        spacers = []
        for i in range(1000):
            meter()
            spacers.append("x" * (i % 24))
        del spacers
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 4096


# Interval(0, 2e-323) is four of the smallest subnormal steps long: T0/(N-1) is
# nonzero up to N = 8 and underflows to zero from N = 9 on.
_TINY = Interval(0.0, 2e-323)


@st.composite
def _plans_and_curves(draw):
    """A spot plan and 2 to 10 curves on its interval: sampled at a few sample counts, which recur, and analytic."""
    iv = draw(st.one_of(_spot_intervals, st.just(_TINY)))
    plan = SpotPlan(iv, draw(st.integers(min_value=1, max_value=60).flatmap(_spot_prices)))
    sampled = st.sampled_from([2, 5, 9, 10, 25, 96]).flatmap(_samples).map(lambda v: SampledCurve(iv, v))
    curves = st.one_of(sampled, analytic_curves(interval=iv, max_harmonics=3, max_order=12))
    return plan, draw(st.lists(curves, min_size=2, max_size=10))


def _float_bits(x: float) -> bytes:
    return np.float64(x).tobytes()


@settings(max_examples=150, deadline=None)
@given(_plans_and_curves())
# sampled at two counts, an analytic curve, and steps that underflow to zero (N = 10), interleaved
@example((
    SpotPlan(_TINY, [1.0, 3.0, 2.0]),
    [
        SampledCurve(_TINY, [1.0, 2.0]),
        SampledCurve(_TINY, np.arange(10.0)),
        AnalyticCurve(_TINY, 1.0, ((1, 1.0, 0.5), (3, 0.2, 0.1))),
        SampledCurve(_TINY, [2.0, 1.0]),
        SampledCurve(_TINY, np.arange(5.0)),
        SampledCurve(_TINY, np.arange(10.0)),
    ],
))
def test_a_reused_spot_plan_bills_as_a_fresh_plan(case):
    plan, curves = case
    for c in curves:
        fresh = SpotPlan(plan.interval, plan.unit_prices)
        assert _float_bits(spot_payment(plan, c)) == _float_bits(spot_payment(fresh, c))


def test_threads_sharing_a_spot_plan_bill_as_fresh_plans():
    # four threads on two cores bill one plan at three sample counts, switching often: each
    # thread reads the plan's (N, weights, sum) triple once, so it never bills with another N's weights
    plan = SpotPlan(UNIT, np.linspace(10.0, 30.0, 24))
    curves = [SampledCurve(UNIT, np.linspace(5.0, 50.0, n) ** 1.5) for n in (96, 97, 25)]
    expected = [_float_bits(spot_payment(SpotPlan(UNIT, plan.unit_prices), c)) for c in curves]
    wrong: list[str] = []

    def bill(first: int) -> None:
        for i in range(first, first + 600):
            k = i % len(curves)
            try:
                if _float_bits(spot_payment(plan, curves[k])) != expected[k]:
                    wrong.append(f"curve {k} billed another amount")
            except ValueError as exc:  # one N's samples scattered by another N's layout
                wrong.append(f"curve {k}: {exc}")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=bill, args=(first,)) for first in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def _traced_after(run) -> tuple[int, int]:
    """(traced bytes that `run()` returns held, traced bytes left once that is dropped), over the baseline."""
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        held = run()
        holding = tracemalloc.get_traced_memory()[0] - baseline
        del held
        gc.collect()
        return holding, tracemalloc.get_traced_memory()[0] - baseline
    finally:
        tracemalloc.stop()


def test_a_spot_plan_frees_its_weights_with_it():
    # a year of 15-minute readings under hourly prices; a cache of weights kept apart
    # from the plan would keep these (280 KB) after the plan is gone
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing")
    year = Interval(0.0, 365.0)
    c = SampledCurve(year, np.linspace(5.0, 50.0, 35_040))
    prices = np.linspace(10.0, 30.0, 8_760)
    spot_payment(SpotPlan(year, prices), c)  # a first bill, so that nothing it sets up once is counted

    def bill():
        plan = SpotPlan(year, prices)
        spot_payment(plan, c)
        return plan

    holding, retained = _traced_after(bill)
    assert holding > 300 * 1024  # the prices (70 KB) and the weights (280 KB); the plan holds no bounds
    assert retained < 4096


def test_a_year_spot_bill_peaks_below_the_merged_knot_kernel():
    # the plan (bounds, prices) and its weights formed in place peak at about 1.08 MiB
    # traced, where the merged-knot kernel's layout and knot values reached 1.58 MiB
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing")
    year = Interval(0.0, 365.0)
    c = SampledCurve(year, np.linspace(5.0, 50.0, 35_040))
    prices = np.linspace(10.0, 30.0, 8_760)
    spot_payment(SpotPlan(year, prices), c)  # a first bill, so that nothing it sets up once is counted
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        spot_payment(SpotPlan(year, prices), c)
        peak = tracemalloc.get_traced_memory()[1] - baseline
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20


def test_year_spot_weights_peak_at_w_plus_a_few_cycle_length_arrays():
    # 35,040 samples under 8,760 cycles: w is 280 KB and an array over the 8,761 bounds 70 KB. The
    # bounds are taken over as offsets, and the prices and per-bound terms go a block at a time, so the
    # peak reads w plus 2.0 bound-length arrays (the cells, and one array's worth of blocks); the bound
    # leaves one more array of margin. Read-only prices, as a plan holds them: np.repeat copies such an
    # input whole, and forming each bound's terms at once read w plus 5.0 arrays
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing")
    year = Interval(0.0, 365.0)
    prices = np.linspace(10.0, 30.0, 8_760)
    prices.setflags(write=False)
    _weights(year, 35_040, np.linspace(year.t1, year.t2, 8_761), prices)  # one-time allocations out of the way
    bounds = np.linspace(year.t1, year.t2, 8_761)
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        _, w, _ = _weights(year, 35_040, bounds, prices)
        peak = tracemalloc.get_traced_memory()[1] - baseline
    finally:
        tracemalloc.stop()
    assert w.size == 35_040
    assert peak < w.nbytes + 3 * bounds.nbytes


def test_analytic_integrals_keep_no_long_phase_vectors():
    # the analytic kernel forms phase factors at the present orders alone; entries of
    # the phase cache are as long as the largest sampled n_max + 1 (here 41), where
    # one per offset up to each curve's top order would be 2**16 + 1 factors (1 MiB)
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing")
    n_max = 40
    analyze(SampledCurve(UNIT, np.linspace(5.0, 50.0, 97)), n_max)

    def integrate_all():
        for k in range(40):
            iv = Interval(0.37 * k, 0.37 * k + 1.0)  # 40 distinct offsets t1/T0 mod 1
            c = AnalyticCurve(iv, 1.0, ((1, 1.0, 0.5), (2**16, 0.25, -0.5)))
            integrate(c, iv.t1, iv.t2 - 0.25)
            spot_payment(SpotPlan(iv, [1.0, 2.0, 3.0]), c)

    _, retained = _traced_after(integrate_all)
    assert retained < spectrum._conjugate_phase.cache_info().maxsize * (n_max + 1) * 16


# ---------------------------------------------------------------------------
# the recorded peak, the default drop threshold, bill lines built on first read
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=2, max_value=120).flatmap(
        lambda n: hnp.arrays(np.float64, n, elements=st.floats(allow_nan=False, allow_infinity=False))
    )
)
def test_a_sampled_curve_records_its_peak(values):
    assert SampledCurve(UNIT, values)._peak == float(np.max(np.abs(values)))


@st.composite
def _meters_of_any_size(draw):
    """A sampled curve from subnormal to 1e300 in magnitude, of mixed sign, with an n_max it resolves.

    Some are constant or near constant, so that orders sit near or at zero and
    the default threshold needs the exact norm.
    """
    n = draw(st.integers(min_value=4, max_value=160))
    size = draw(st.sampled_from([5e-324, 1e-320, 1e-310, 1e-300, 1e-150, 1e-5, 1.0, 7.5, 1e3, 1e150, 1e300]))
    shape = draw(st.sampled_from(["mixed", "constant", "near constant"]))
    unit = hnp.arrays(np.float64, n, elements=st.floats(min_value=-1.0, max_value=1.0))
    if shape == "mixed":
        values = size * draw(unit)
    elif shape == "constant":
        values = np.full(n, size * draw(st.sampled_from([1.0, -1.0, 0.0, 0.3])))
    else:
        values = size * (1.0 + draw(st.sampled_from([1e-9, 1e-12, 1e-14])) * draw(unit))
    t1 = draw(st.sampled_from([0.0, -12.25, 1e3]))
    c = SampledCurve(Interval(t1, t1 + draw(st.floats(min_value=1e-3, max_value=1e3))), values)
    return c, draw(st.integers(min_value=1, max_value=(n - 2) // 2))


def _bound_meter(ratio: float) -> tuple[SampledCurve, int]:
    """A 65-sample meter whose smallest order (order 3's cosine) is `ratio` times the bound 2e-12 sqrt(T0) peak."""
    t = np.arange(65) / 64
    values = 1.0 + 0.5 * np.cos(2 * np.pi * t) + 0.25 * np.sin(4 * np.pi * t)
    amplitude = ratio * 2e-12 * np.max(np.abs(values))  # the small order moves the peak by 1e-12 of itself
    return SampledCurve(UNIT, values + amplitude * np.cos(6 * np.pi * t)), 3


@settings(max_examples=300, deadline=None)
@given(_meters_of_any_size())
@example(_bound_meter(1.001))  # every order just above the bound: norm is skipped
@example(_bound_meter(0.999))  # one just below it, far above 1e-12 * norm(c): the exact threshold runs
@example(_bound_meter(0.25))  # one below 1e-12 * norm(c): that order is dropped
def test_the_default_drop_tol_is_1e_12_times_the_norm_bit_for_bit(case):
    c, n_max = case
    got, want = analyze(c, n_max), analyze(c, n_max, drop_tol=1e-12 * norm(c))
    assert np.float64(got.a0).tobytes() == np.float64(want.a0).tobytes()
    assert got.a.tobytes() == want.a.tobytes() and got.b.tobytes() == want.b.tobytes()


def _counting(monkeypatch, module, name: str) -> list:
    """Replace module.name by a wrapper that appends to the returned list on every call."""
    calls: list = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_the_default_drop_tol_computes_norm_only_near_the_bound(monkeypatch, l1):
    calls = _counting(monkeypatch, spectrum, "norm")
    meter = SampledCurve(UNIT, 20.0 + 10.0 * np.sin(np.linspace(0.0, 2 * np.pi, 96)) + np.linspace(0.0, 1.0, 96) ** 3)
    cases = [
        (meter, 40, None, 0),
        (_bound_meter(1.001)[0], 3, None, 0),
        (_bound_meter(0.999)[0], 3, None, 1),
        (SampledCurve(UNIT, np.full(96, 7.0)), 40, None, 1),  # a constant: every order near zero
        (SampledCurve(UNIT, np.zeros(96)), 40, None, 1),
        (meter, 40, 0.5, 0),  # an explicit threshold
        (l1, 40, None, 1),  # analytic curves keep the exact threshold
    ]
    for c, n_max, drop_tol, expected in cases:
        calls.clear()
        analyze(c, n_max, drop_tol)
        assert len(calls) == expected, (c, n_max, drop_tol)
    assert not analyze(_bound_meter(0.25)[0], 3).a[2]  # below 1e-12 * norm(c): dropped


def _eager_bill(plan: DynamismPlan, s, supply=None) -> tuple[float, float, np.ndarray]:
    """(non_dynamic, dynamic, lines) as a bill was computed before its lines were deferred: the table filled
    first, the amounts scaled in its column and the dynamic part summed from that column."""
    iv, n_max = s.interval, s.n_max
    t0 = iv.duration
    columns = tariff._order_columns(plan.alpha, plan.beta, iv.duration, np.arange(1, n_max + 1))[:, :2]
    non_dynamic = plan.alpha0 * 0.5 * t0 * s.a0
    lines = np.empty((1 + 2 * n_max, 4))
    lines[0] = (0.0, s.a0, plan.alpha0, non_dynamic)
    body = lines[1:]
    body[:, ::2] = columns
    coef, amount = body[:, 1], body[:, 3]
    coef[::2] = s.a
    coef[1::2] = s.b
    np.multiply(columns[:, 1], t0, out=amount)
    amount *= coef
    if supply is None:
        np.absolute(amount, out=amount)
    else:
        sup = np.zeros(2 * n_max)  # the supply's interleaved coefficients, zero above its n_max
        kept = supply._coef[: 2 * n_max]
        sup[: kept.size] = kept
        amount *= tariff._polarity(sup, coef)
    return non_dynamic, float(np.add.reduce(lines[1:, 3], initial=0.0)), lines


def _any_spectrum(c: SampledCurve, data) -> Spectrum:
    """A spectrum on c's interval at an n_max that c resolves: the analysis of c, the constructor's spectrum with
    c's values as (a0, a_1, b_1, ...), or the analysis of the analytic curve with those amplitudes, at an n_max
    that may truncate it or pad it with zeros."""
    n_max = data.draw(st.integers(min_value=1, max_value=(c.values.size - 2) // 2))
    source = data.draw(st.sampled_from(["sampled", "constructor", "analytic"]))
    if source == "sampled":
        return analyze(c, n_max)
    v = c.values
    rows = [(n, v[2 * n - 1], v[2 * n]) for n in range(1, n_max + 1)]
    if source == "constructor":
        return Spectrum(c.interval, v[0], rows, n_max)
    return analyze(AnalyticCurve(c.interval, 0.5 * v[0], rows), data.draw(st.integers(1, n_max + 2)))


@settings(max_examples=200, deadline=None)
@given(_meters(), _meters(), st.data())
def test_a_bill_built_on_first_read_equals_the_eager_bill(c, other, data):
    plan = DynamismPlan(data.draw(st.floats(min_value=0.1, max_value=100.0)), data.draw(_pffs()), data.draw(_pffs()))
    s = _any_spectrum(c, data)
    supply = _any_spectrum(SampledCurve(c.interval, other.values), data)
    for sup in (None, supply):
        non_dynamic, dynamic, lines = _eager_bill(plan, s, sup)
        eager = Bill(non_dynamic, dynamic, lines)
        assert _float_bits(dynamism_payment(plan, s, sup).total) == _float_bits(eager.total)
        bill = dynamism_payment(plan, s, sup)
        assert bill.lines.tobytes() == lines.tobytes()
        assert json.dumps(bill.to_dict()) == json.dumps(eager.to_dict())
        assert bill == eager


def test_the_total_builds_no_lines_and_the_first_read_builds_them_once(monkeypatch, plan1):
    calls = _counting(monkeypatch, tariff, "_bill_lines")
    s = analyze(SampledCurve(UNIT, np.linspace(5.0, 50.0, 97) ** 1.5), 40)
    bill = dynamism_payment(plan1, s)
    bill.total, bill.dynamic, bill.non_dynamic
    assert calls == []
    lines = bill.lines
    assert len(calls) == 1 and lines.shape == (81, 4) and not lines.flags.writeable
    bill.lines, bill.line_items, bill.to_dict(), repr(bill)
    assert len(calls) == 1 and bill.lines is lines


def test_bill_fields_stay_read_only(plan1):
    s = analyze(SampledCurve(UNIT, np.linspace(5.0, 50.0, 97)), 40)
    for read_lines_first in (False, True):
        bill = dynamism_payment(plan1, s)
        if read_lines_first:
            bill.lines
        for name in ("non_dynamic", "dynamic", "lines"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(bill, name, 0.0)
        with pytest.raises(ValueError, match="read-only"):
            bill.lines[0, 0] = 1.0
        with pytest.raises(AttributeError, match="no attribute 'missing'"):
            bill.missing


def test_threads_reading_the_lines_of_one_bill_get_equal_tables(plan1):
    # four threads on two cores read the lines of fresh bills at once: each may build
    # the table, and every read gives the eager table
    s = analyze(SampledCurve(UNIT, np.linspace(5.0, 50.0, 97) ** 1.5), 40)
    expected = _eager_bill(plan1, s)[2].tobytes()
    bills = [dynamism_payment(plan1, s) for _ in range(300)]
    got: list[list[bytes]] = [[] for _ in range(4)]

    def read(out: list[bytes]) -> None:
        out.extend(bill.lines.tobytes() for bill in bills)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(out,)) for out in got]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[expected] * len(bills)] * 4


# ---------------------------------------------------------------------------
# held constants: an interval's length and phase, a plan's order columns,
# and sampled `analyze`'s path, each equal to the computation it stands for
# ---------------------------------------------------------------------------

def _phase_turns(t1: float, t2: float) -> float:
    """The phase of t1 in turns as `_t1_turns` forms it, from the endpoints alone."""
    t0 = t2 - t1
    turns = (math.fmod(t1, t0) / t0) % 1.0
    return turns if turns < 1.0 else 0.0


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    intervals(),
    st.tuples(st.floats(min_value=-1e300, max_value=1e300), st.floats(min_value=1e-300, max_value=1e300))
    .filter(lambda p: p[0] < p[0] + p[1]).map(lambda p: Interval(p[0], p[0] + p[1])),
    st.sampled_from([Interval(0.0, 5e-324), Interval(-1e308, 7e307), Interval(1e6, 1e6 + 0.25), Interval(-3.0, 0.0)]),
))
def test_an_interval_holds_its_length(iv):
    assert [f.name for f in dataclasses.fields(Interval)] == ["t1", "t2"]
    for copy_ in (iv, pickle.loads(pickle.dumps(iv)), copy.deepcopy(iv), copy.copy(iv)):
        assert _float_bits(copy_.duration) == _float_bits(iv.t2 - iv.t1)
        assert _float_bits(_t1_turns(copy_)) == _float_bits(_phase_turns(iv.t1, iv.t2))
        assert copy_ == iv and hash(copy_) == hash(iv) and repr(copy_) == repr(iv)
        assert copy_ == Interval(iv.t1, iv.t2) and hash(copy_) == hash(Interval(iv.t1, iv.t2))
    with pytest.raises(dataclasses.FrozenInstanceError):
        iv.duration = 1.0


def _analysis_by_the_plain_formula(c: SampledCurve, n_max: int, drop_tol: float | None) -> tuple[float, bytes, float]:
    """(a0, coefficient bytes, peak) of sampled `analyze` by its docstring's formula, written out from the
    endpoints alone: the ends folded in numpy scalars, conj(rfft(x)[:n+1]) times the conjugated phase at
    t1/T0 mod 1 and 2/T0, then the orders whose larger magnitude is at most the threshold zeroed, the peak
    taken before that."""
    v, iv = c.values, c.interval
    t0 = iv.t2 - iv.t1
    dt = t0 / (v.size - 1)
    x = dt * v[:-1]
    x[0] = 0.5 * dt * (v[0] + v[-1])
    w = np.conjugate(np.fft.rfft(x)[: n_max + 1])
    w *= np.conjugate(np.exp(-2j * np.pi * _phase_turns(iv.t1, iv.t2) * np.arange(n_max + 1)))
    w *= 2.0 / t0
    coef = w[1:].view(float)
    ab = coef.reshape(n_max, 2).T
    top = np.maximum(np.abs(ab[0]), np.abs(ab[1]))
    np.copyto(ab, 0.0, where=top <= (1e-12 * norm(c) if drop_tol is None else drop_tol))
    return float(w[0].real), coef.tobytes(), float(np.max(top))


@st.composite
def _meters_at_any_phase(draw):
    """A sampled curve with t1 at 0, at a whole multiple of T0 or elsewhere, magnitudes subnormal to 1e300,
    some with symmetric or integer samples (whose bins hold exact zeros), and an n_max it resolves."""
    n = draw(st.integers(min_value=4, max_value=120))
    t0 = draw(st.sampled_from([1.0, 0.75, 7.0, 1e-3, 365.0])) if draw(st.booleans()) else draw(st.floats(1e-3, 1e3))
    t1 = draw(st.sampled_from([0.0, t0, -3.0 * t0, 96.0 * t0, 2.5, -7.25, 1e6, 0.1]))
    size = draw(st.sampled_from([5e-324, 1e-310, 1e-5, 1.0, 1e3, 1e150, 1e300]))
    shape = draw(st.sampled_from(["mixed", "integers", "symmetric", "constant"]))
    if shape == "mixed":
        values = draw(hnp.arrays(np.float64, n, elements=st.floats(min_value=-1.0, max_value=1.0)))
    else:
        values = np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), dtype=float)
        if shape == "symmetric":
            values[1:-1] += values[1:-1][::-1]
        elif shape == "constant":
            values[:] = values[0]
    c = SampledCurve(Interval(t1, t1 + t0), size * values)
    return c, draw(st.integers(min_value=1, max_value=(n - 2) // 2))


@settings(max_examples=300, deadline=None)
@given(_meters_at_any_phase(), st.sampled_from([None, 0.0, 1e-3]))
# the phase factors of t1 = 0 are 1 - 0j, and multiplying by them changes the sign of some zeros: this meter's
# conjugated bin 1 is (-1/6, -0), and scaled by 2/T0 alone it would keep b_1 = -0.0 where the formula gives +0.0
@example((SampledCurve(UNIT, [0.0, 1.0, 1.0, 1.0]), 1), 0.0)
def test_sampled_analysis_equals_the_plain_formula_bit_for_bit(case, drop_tol):
    c, n_max = case
    s = analyze(c, n_max, drop_tol)
    a0, coef, peak = _analysis_by_the_plain_formula(c, n_max, drop_tol)
    assert _float_bits(s.a0) == _float_bits(a0)
    assert s._coef.tobytes() == coef  # the sign of every zero included
    assert _float_bits(s._peak) == _float_bits(peak)


@st.composite
def _billing_keys(draw):
    """Two to five spectra on two intervals at several n_max, each with a supply on its interval."""
    ivs = [Interval(0.0, 1.0), Interval(draw(st.sampled_from([0.0, 3.0, -7.25])), 3.0 + draw(st.floats(1.0, 400.0)))]
    keys = []
    for _ in range(draw(st.integers(min_value=2, max_value=5))):
        iv = draw(st.sampled_from(ivs))
        n_max = draw(st.sampled_from([1, 3, 40]))
        load = draw(hnp.arrays(np.float64, 97, elements=st.floats(min_value=-1e3, max_value=1e3)))
        supply = draw(hnp.arrays(np.float64, 97, elements=st.floats(min_value=-1e3, max_value=1e3)))
        keys.append((analyze(SampledCurve(iv, load), n_max), analyze(SampledCurve(iv, supply), n_max)))
    return keys


@settings(max_examples=100, deadline=None)
@given(_pffs(), _pffs(), _billing_keys())
def test_a_dynamism_plan_billed_at_alternating_keys_bills_as_a_fresh_plan(alpha, beta, keys):
    plan = DynamismPlan(20.0, alpha, beta)
    unread = []
    for s, supply in keys + keys[::-1]:
        for sup in (None, supply):
            fresh = dynamism_payment(DynamismPlan(20.0, alpha, beta), s, sup)
            bill = dynamism_payment(plan, s, sup)
            assert _float_bits(bill.total) == _float_bits(fresh.total)
            assert bill.lines.tobytes() == fresh.lines.tobytes()
            unread.append((dynamism_payment(plan, s, sup), fresh))
    # lines built on first read, after the plan has moved on to other keys
    for bill, fresh in unread:
        assert bill.lines.tobytes() == fresh.lines.tobytes()


def test_threads_sharing_a_dynamism_plan_bill_as_fresh_plans(plan1):
    # four threads on two cores bill one plan at three (interval, n_max) keys, switching often: each bill
    # reads the plan's held order columns once, so it never bills with another key's columns
    meters = [SampledCurve(iv, np.linspace(5.0, 50.0, 97) ** 1.5) for iv in (UNIT, Interval(0.0, 7.0))]
    spectra = [analyze(meters[0], 40), analyze(meters[1], 40), analyze(meters[0], 3)]
    fresh = [dynamism_payment(dataclasses.replace(plan1), s) for s in spectra]
    expected = [(_float_bits(b.total), b.lines.tobytes()) for b in fresh]
    wrong: list[str] = []

    def bill(first: int) -> None:
        for i in range(first, first + 600):
            k = i % len(spectra)
            got = dynamism_payment(plan1, spectra[k])
            if (_float_bits(got.total), got.lines.tobytes()) != expected[k]:
                wrong.append(f"spectrum {k} billed another amount")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=bill, args=(first,)) for first in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


# ---------------------------------------------------------------------------
# pickle and copy: a value is rebuilt from the fields it stores, its arrays
# read-only and its views formed afresh, and what it held is left behind
# ---------------------------------------------------------------------------

PFF = PriceFrequencyFunction(20.0, 10.0, 3.0)
_COPIES = {
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
    "pickle protocol 0": lambda x: pickle.loads(pickle.dumps(x, protocol=0)),
    "deepcopy": copy.deepcopy,
    "copy": copy.copy,
}


def _values(c: SampledCurve, n_max: int, alpha, beta, prices) -> dict:
    """One value of each frozen class on c's interval; the plans have billed, so they hold weights and columns."""
    iv, s = c.interval, analyze(c, n_max)
    mu = to_mu_vector(s)
    cost = CostCharacteristic(iv, np.cos(np.arange(1.0 + 2 * n_max)), n_max)
    spot, plan = SpotPlan(iv, prices), DynamismPlan(20.0, alpha, beta)
    spot_payment(spot, c)
    # trailing zero orders and a -0.0, which a copy keeps as they are
    supply = Spectrum(iv, c.values[0], [(1, -0.0, c.values[1])], n_max + 1)
    return {
        "sampled": c, "analytic": synthesize(s), "spectrum": s, "supply": supply, "vector": mu, "spot": spot,
        "plan": plan, "rates": pricing_from_cost(cost, 2.0), "cost": cost, "bill": dynamism_payment(plan, s, supply),
    }


def _billed(v: dict, n_max: int) -> list[bytes]:
    """The bits of every bill, payment, analysis and gradient the values give."""
    c, s, plan = v["sampled"], v["spectrum"], v["plan"]
    bills = (dynamism_payment(plan, s), dynamism_payment(plan, s, v["supply"]), v["bill"])
    floats = (
        spot_payment(v["spot"], c), spot_payment(v["spot"], v["analytic"]), classic_payment(2.0, c),
        energy(c), norm(c), norm(v["analytic"]), rates_payment(v["rates"], v["vector"]),
        supply_cost(v["cost"], v["vector"]),
    )
    return [
        *map(_float_bits, floats),
        *(_float_bits(b.total) + b.lines.tobytes() for b in bills),
        *(analyze(x, n_max)._coef.tobytes() for x in (c, v["analytic"])),
        payment_gradient(plan, c.interval, range(1, n_max + 1), v["supply"]).values.tobytes(),
        to_mu_vector(s).values.tobytes(),
    ]


@settings(max_examples=60, deadline=None)
@given(
    _meters().flatmap(lambda c: st.tuples(st.just(c), st.integers(min_value=1, max_value=(c.values.size - 2) // 2))),
    _pffs(),
    _pffs(),
    st.integers(min_value=1, max_value=30).flatmap(_spot_prices),
)
# the analysis whose pickled copy once held `a` and `b` apart from `_coef`, writable
@example((SampledCurve(Interval(0, 1), np.arange(10.0) ** 2), 3), PFF, PFF, [10.0, 30.0])
def test_every_value_round_trips_through_pickle_and_copy(case, alpha, beta, prices):
    c, n_max = case
    values = _values(c, n_max, alpha, beta, prices)
    expected = _billed(values, n_max)
    for name, value in values.items():
        fields = type(value).__dataclass_fields__
        for how, copier in _COPIES.items():
            got = copier(value)
            assert type(got) is type(value) and set(vars(got)) == set(fields), (name, how)  # nothing held
            for field in fields:
                want, have = getattr(value, field), getattr(got, field)
                if isinstance(want, np.ndarray):
                    assert have.tobytes() == want.tobytes() and not have.flags.writeable, (name, how, field)
                else:
                    assert _float_bits(have) == _float_bits(want) if isinstance(want, float) else have == want
            if name != "sampled":  # a sampled curve is equal only to itself; its fields are compared above
                assert got == value, (name, how)
            if hasattr(value, "_coef"):
                for view in (got.a, got.b):
                    assert np.shares_memory(view, got._coef) and not view.flags.writeable, (name, how)
            assert _billed({**values, name: got}, n_max) == expected, (name, how)
    assert hash(copy.deepcopy(values["plan"])) == hash(values["plan"])


def test_a_copied_plan_leaves_its_weights_and_columns_behind():
    year = Interval(0.0, 365.0)
    plan = SpotPlan(year, np.linspace(0.1, 0.5, 8_760))
    before = len(pickle.dumps(plan))
    spot_payment(plan, SampledCurve(year, np.ones(35_040)))
    assert plan._weights[0] == 35_040
    assert len(pickle.dumps(plan)) == before  # 8,760 prices, not the 35,040 weights
    dynamism = DynamismPlan(20.0, PFF, PFF)
    dynamism_payment(dynamism, analyze(SampledCurve(year, np.arange(96.0)), 40))
    assert "_columns" in vars(dynamism)
    assert all("_columns" not in vars(copier(dynamism)) for copier in _COPIES.values())
