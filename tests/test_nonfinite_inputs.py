"""Every public numeric entry point refuses NaN, +inf and -inf with ValueError.

The suite turns warnings into errors, so an entry point that warns (an
invalid multiply, an overflow) before it refuses, or that returns a value,
fails here as well.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from loadspace import (
    AnalyticCurve,
    CostCharacteristic,
    CostObservation,
    DynamismPlan,
    DynamismRates,
    DynamismVector,
    FlatPlan,
    Harmonic,
    Interval,
    PriceFrequencyFunction,
    SampledCurve,
    Spectrum,
    SpotPlan,
    analyze,
    classic_payment,
    evaluate,
    integrate,
    price_frequency_value,
    pricing_from_cost,
    scale,
    unit_price_from_gross,
)

from conftest import UNIT

L = AnalyticCurve(UNIT, 50.0, (Harmonic(2, 3.0, -4.0),))
S = SampledCurve(UNIT, [0.0, 2.0, 4.0, 3.0])  # inf * 0.0 is nan: the zero makes an unchecked multiply warn
PFF = PriceFrequencyFunction(base=20.0, cutoff=10.0, slope=3.0)
CC = CostCharacteristic(UNIT, [1.0, 0.5, -0.5], 1)

# each entry takes one non-finite number x and passes it where the entry point reads a number
ENTRY_POINTS = {
    "Interval t1": lambda x: Interval(x, 1.0),
    "Interval t2": lambda x: Interval(0.0, x),
    "SampledCurve value": lambda x: SampledCurve(UNIT, [0.0, x, 1.0]),
    "AnalyticCurve constant": lambda x: AnalyticCurve(UNIT, x),
    "AnalyticCurve cos amplitude": lambda x: AnalyticCurve(UNIT, 1.0, (Harmonic(1, x, 0.0),)),
    "AnalyticCurve sin amplitude": lambda x: AnalyticCurve(UNIT, 1.0, (Harmonic(1, 0.0, x),)),
    "scale analytic": lambda x: scale(x, L),
    "scale sampled": lambda x: scale(x, S),
    "evaluate analytic": lambda x: evaluate(L, x),
    "evaluate sampled": lambda x: evaluate(S, np.array([0.5, x])),
    "integrate lo": lambda x: integrate(S, x, 0.5),
    "integrate hi": lambda x: integrate(L, 0.5, x),
    "analyze drop_tol": lambda x: analyze(S, 1, drop_tol=x),
    "Spectrum a0": lambda x: Spectrum(UNIT, x, (), 2),
    "Spectrum order": lambda x: Spectrum(UNIT, 1.0, ((x, 1.0, 0.0),), 2),
    "Spectrum coefficient": lambda x: Spectrum(UNIT, 1.0, ((1, 1.0, x),), 2),
    "DynamismVector index": lambda x: DynamismVector(UNIT, ((x, 1.0),)),
    "DynamismVector value": lambda x: DynamismVector(UNIT, ((0, 1.0), (2, x))),
    "PriceFrequencyFunction base": lambda x: PriceFrequencyFunction(base=x, cutoff=10.0, slope=3.0),
    "PriceFrequencyFunction cutoff": lambda x: PriceFrequencyFunction(base=20.0, cutoff=x, slope=3.0),
    "PriceFrequencyFunction slope": lambda x: PriceFrequencyFunction(base=20.0, cutoff=10.0, slope=x),
    "PriceFrequencyFunction log_offset": lambda x: PriceFrequencyFunction(20.0, 10.0, 3.0, log_offset=x),
    "price_frequency_value": lambda x: price_frequency_value(PFF, x),
    "price_frequency_value array": lambda x: price_frequency_value(PFF, np.array([1.0, x])),
    "FlatPlan": lambda x: FlatPlan(x),
    "SpotPlan price": lambda x: SpotPlan(UNIT, (10.0, x)),
    "DynamismPlan alpha0": lambda x: DynamismPlan(x, PFF, PFF),
    "DynamismRates rate": lambda x: DynamismRates(UNIT, (1.0, x)),
    "classic_payment": lambda x: classic_payment(x, L),
    "unit_price_from_gross cost": lambda x: unit_price_from_gross(x, 5.0),
    "unit_price_from_gross energy": lambda x: unit_price_from_gross(1.0, x),
    "CostObservation cost": lambda x: CostObservation(L, x),
    "CostCharacteristic iota": lambda x: CostCharacteristic(UNIT, [1.0, x, 0.0], 1),
    "pricing_from_cost markup": lambda x: pricing_from_cost(CC, x),
}


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_public_entry_points_refuse_non_finite_numbers(call, x):
    with pytest.raises(ValueError):
        call(x)
