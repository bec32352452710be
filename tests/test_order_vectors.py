"""Fixed cost per meter: shared per-order vectors, and nothing left behind.

`dynamism_payment` takes the frequency and price columns of its order
lines, and `analyze` its conjugated phase vector, from caches keyed on
values (two price functions, f0, n_max; the phase offset, n_max). The
cached arrays are read-only and exact; spot plans, curves and spectra are
never kept; and billing many meters leaves no traced memory behind. A spot
plan holds its own cycle arrays and the sample layout of the last sample
count it billed: a reused plan bills as a fresh one does, and the layout
goes with the plan.
"""
from __future__ import annotations

import gc
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
    DynamismPlan,
    Interval,
    PriceFrequencyFunction,
    SampledCurve,
    SpotPlan,
    analyze,
    dynamism_payment,
    integrate,
    norm,
    price_frequency_value,
    spot_payment,
)
from loadspace import spectrum, tariff
from loadspace.curve import _t1_turns

from conftest import UNIT, analytic_curves, intervals
from test_tariff import _pffs, _samples, _spot_intervals, _spot_prices


@settings(max_examples=100, deadline=None)
@given(intervals(max_length=20.0), st.integers(min_value=1, max_value=1200), _pffs(), _pffs())
def test_cached_order_vectors_are_read_only_and_bit_identical(interval, n_max, alpha, beta):
    f0 = interval.f0
    orders = np.arange(1, n_max + 1)
    offset = (interval.t1 / interval.duration) % 1.0
    columns = tariff._order_columns(alpha, beta, f0, n_max)
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
    tariff._order_columns.cache_clear()
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

    meter()  # fills the per-order caches
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
    # thread reads the plan's (N, layout) pair once, so it never bills with another N's layout
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


def test_a_spot_plan_frees_its_layout_with_it():
    # a year of 15-minute readings under hourly prices; a cache of layouts kept apart
    # from the plan would keep this one (about 1 MiB) after the plan is gone
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
    assert holding > 768 * 1024  # the price tuple (280 KB), the cycle arrays and the layout (670 KB)
    assert retained < 4096


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
