"""The package's public names."""
from __future__ import annotations

import loadspace

PUBLIC = [
    "Interval", "Harmonic", "AnalyticCurve", "SampledCurve", "LoadCurve", "add", "scale", "evaluate",
    "sample", "inner_product", "norm", "distance", "energy", "average_power", "integrate",
    "Spectrum", "MuCoord", "DynamismVector", "mu_index_cos", "mu_index_sin", "analyze", "synthesize",
    "to_mu_vector", "parseval_energy", "truncation_error",
    "PriceFrequencyFunction", "FlatPlan", "SpotPlan", "DynamismPlan", "DynamismRates", "TariffPlan",
    "LineItem", "Bill", "classic_payment", "unit_price_from_gross", "spot_payment",
    "price_frequency_value", "dynamism_payment", "rates_payment", "payment_gradient", "incentive_direction",
    "CostCharacteristic", "CostObservation", "supply_cost", "calibrate_iota", "pricing_from_cost",
    "ScenarioCheck", "ScenarioReport", "builtin_loads", "builtin_plans", "reproduce_table1", "case1_demo",
    "__version__",
]


def test_public_names_are_the_modules_names():
    assert loadspace.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(loadspace, name) is not None
    for module in (loadspace.curve, loadspace.spectrum, loadspace.tariff, loadspace.calibrate, loadspace.scenarios):
        for name in module.__all__:
            assert getattr(loadspace, name) is getattr(module, name)


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from loadspace import *", namespace)
    assert set(PUBLIC) <= set(namespace)
