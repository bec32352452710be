"""Fixed cost per meter: shared per-order vectors, and nothing left behind.

`dynamism_payment` takes its order frequencies and price vectors, and
`analyze` its phase vector, from caches keyed on values (a price function,
f0, n_max, the phase offset). The cached arrays are read-only and exact;
spot plans, curves and spectra are never kept; and billing many meters
leaves no traced memory behind.
"""
from __future__ import annotations

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loadspace import (
    DynamismPlan,
    PriceFrequencyFunction,
    SampledCurve,
    SpotPlan,
    analyze,
    dynamism_payment,
    price_frequency_value,
    spot_payment,
)
from loadspace import spectrum, tariff

from conftest import UNIT, intervals
from test_tariff import _pffs


@settings(max_examples=100, deadline=None)
@given(intervals(max_length=20.0), st.integers(min_value=1, max_value=1200), _pffs())
def test_cached_order_vectors_are_read_only_and_bit_identical(interval, n_max, pff):
    f0 = interval.f0
    orders = np.arange(1, n_max + 1)
    offset = (interval.t1 / interval.duration) % 1.0
    cached = {
        "frequencies": (tariff._order_frequencies(f0, n_max), orders * f0),
        "prices": (tariff._order_prices(pff, f0, n_max), price_frequency_value(pff, orders * f0)),
        "phase": (spectrum._phase(offset, n_max), np.exp(-2j * np.pi * offset * np.arange(n_max + 1))),
    }
    for name, (got, fresh) in cached.items():
        assert not got.flags.writeable, name
        assert got.dtype == fresh.dtype and got.tobytes() == fresh.tobytes(), name
        with pytest.raises(ValueError, match="read-only"):
            got[0] = 0.0


def test_equal_but_distinct_plans_give_equal_bills(l1):
    s = analyze(l1, 100)

    def plan(base, cutoff, slope):
        return DynamismPlan(20.0, PriceFrequencyFunction(base, cutoff, slope), PriceFrequencyFunction(base, cutoff, slope))

    first = plan(20.0, 10.0, 3.0)
    expected = dynamism_payment(first, s)
    tariff._order_prices.cache_clear()
    tariff._order_frequencies.cache_clear()
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
