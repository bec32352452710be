"""Fixed cost per meter: shared per-order vectors, and nothing left behind.

`dynamism_payment` takes the frequency and price columns of its order
lines, and `analyze` its conjugated phase vector, from caches keyed on
values (two price functions, f0, n_max; the phase offset, n_max). The
cached arrays are read-only and exact; spot plans, curves and spectra are
never kept; and billing many meters leaves no traced memory behind.
"""
from __future__ import annotations

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from loadspace import (
    DynamismPlan,
    Interval,
    PriceFrequencyFunction,
    SampledCurve,
    SpotPlan,
    analyze,
    dynamism_payment,
    norm,
    price_frequency_value,
    spot_payment,
)
from loadspace import spectrum, tariff

from conftest import UNIT, intervals
from test_tariff import _pffs


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
    z *= np.exp(-2j * np.pi * ((iv.t1 / iv.duration) % 1.0) * np.arange(n_max + 1))
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
