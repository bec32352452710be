"""Supply-cost characteristics and least-squares calibration."""
from __future__ import annotations

import math

import numpy as np
import pytest

from loadspace import (
    AnalyticCurve,
    CostCharacteristic,
    CostObservation,
    DynamismVector,
    Harmonic,
    Interval,
    analyze,
    calibrate_iota,
    payment_gradient,
    pricing_from_cost,
    rates_payment,
    supply_cost,
    to_mu_vector,
)

from conftest import UNIT


def _random_load(rng, n_max, interval=UNIT):
    harmonics = tuple(
        Harmonic(n, rng.uniform(-10, 10), rng.uniform(-10, 10)) for n in range(1, n_max + 1)
    )
    return AnalyticCurve(interval, rng.uniform(5.0, 60.0), harmonics)


def _observations(rng, iota, n_max, count, interval=UNIT, noise=0.0):
    obs = []
    for _ in range(count):
        load = _random_load(rng, n_max, interval)
        mu = to_mu_vector(analyze(load, n_max)).dense(len(iota))
        cost = float(mu @ iota) + (rng.normal(0.0, noise) if noise else 0.0)
        obs.append(CostObservation(load, cost))
    return tuple(obs)


# ---------------------------------------------------------------------------
# supply_cost
# ---------------------------------------------------------------------------

def test_supply_cost_of_zero_vector_is_zero():
    cc = CostCharacteristic(UNIT, np.ones(5), 2)
    assert supply_cost(cc, DynamismVector(UNIT, ((0, 0.0),))) == 0.0


def test_supply_cost_constant_load():
    cc = CostCharacteristic(UNIT, np.array([1.0, 0.0, 0.0]), 1)
    mu = to_mu_vector(analyze(AnalyticCurve(UNIT, 50.0), 1))
    assert supply_cost(cc, mu) == 50.0  # mu0 = 50 on a unit interval


def test_supply_cost_matches_naive_sum():
    rng = np.random.default_rng(7)
    iota = rng.uniform(-2, 2, size=9)
    cc = CostCharacteristic(UNIT, iota, 4)
    load = _random_load(rng, 4)
    mu = to_mu_vector(analyze(load, 4))
    expected = sum(iota[k] * v for k, v in mu.coords)
    assert supply_cost(cc, mu) == pytest.approx(expected, rel=1e-12)


def test_supply_cost_ignores_coordinates_beyond_characteristic():
    cc = CostCharacteristic(UNIT, np.ones(3), 1)
    mu = to_mu_vector(analyze(_random_load(np.random.default_rng(1), 5), 5))
    truncated = sum(v for k, v in mu.coords if k < 3)
    assert supply_cost(cc, mu) == pytest.approx(truncated, rel=1e-12)


def test_supply_cost_interval_mismatch():
    cc = CostCharacteristic(UNIT, np.ones(3), 1)
    mu = to_mu_vector(analyze(AnalyticCurve(Interval(0.0, 2.0), 5.0), 1))
    with pytest.raises(ValueError, match="disagree"):
        supply_cost(cc, mu)


def test_characteristic_validation():
    with pytest.raises(ValueError, match="length 5"):
        CostCharacteristic(UNIT, np.ones(4), 2)  # needs 1 + 2*n_max = 5
    cc = CostCharacteristic(UNIT, np.ones(5), 2)
    with pytest.raises(ValueError):
        cc.iota[0] = 99.0


def test_characteristic_compares_by_value_and_is_unhashable():
    cc = CostCharacteristic(UNIT, np.arange(3.0), 1)
    assert cc == cc
    assert cc == CostCharacteristic(UNIT, [0.0, 1.0, 2.0], 1)
    assert cc != CostCharacteristic(UNIT, np.array([0.0, 1.0, 2.5]), 1)
    assert cc != CostCharacteristic(Interval(0.0, 2.0), np.arange(3.0), 1)
    assert cc != CostCharacteristic(UNIT, np.arange(5.0), 2)
    assert cc != "cc"
    with pytest.raises(TypeError):
        hash(cc)


# ---------------------------------------------------------------------------
# calibrate_iota
# ---------------------------------------------------------------------------

def test_calibration_recovers_exact_characteristic():
    rng = np.random.default_rng(2024)
    for n_max in (1, 2, 3, 5):
        k = 1 + 2 * n_max
        iota_true = rng.uniform(-3, 3, size=k)
        obs = _observations(rng, iota_true, n_max, count=k)
        cc = calibrate_iota(obs, n_max)
        assert cc.n_max == n_max
        assert cc.interval == UNIT
        assert np.max(np.abs(cc.iota - iota_true)) <= 1e-9 * max(1.0, np.abs(iota_true).max())


def test_calibration_overdetermined_noiseless():
    rng = np.random.default_rng(11)
    iota_true = rng.uniform(-3, 3, size=7)
    obs = _observations(rng, iota_true, 3, count=30)
    cc = calibrate_iota(obs, 3)
    assert np.allclose(cc.iota, iota_true, atol=1e-9)


def test_calibration_residual_is_orthogonal_to_design():
    rng = np.random.default_rng(5)
    iota_true = rng.uniform(-3, 3, size=7)
    obs = _observations(rng, iota_true, 3, count=40, noise=0.5)
    cc = calibrate_iota(obs, 3)
    x = np.array([to_mu_vector(analyze(o.load, 3)).dense(7) for o in obs])
    y = np.array([o.observed_cost for o in obs])
    r = x @ cc.iota - y
    gradient = x.T @ r
    assert np.abs(gradient).max() <= 1e-7 * max(1.0, np.abs(x.T @ y).max())


def test_calibration_on_basis_aligned_loads():
    # one observation per coordinate direction gives a diagonal system
    loads = [AnalyticCurve(UNIT, 4.0)]
    for n in (1, 2):
        loads.append(AnalyticCurve(UNIT, 0.0, (Harmonic(n, 3.0, 0.0),)))
        loads.append(AnalyticCurve(UNIT, 0.0, (Harmonic(n, 0.0, 3.0),)))
    costs = (8.0, 1.5, -3.0, 6.0, 0.0)
    obs = tuple(CostObservation(c, y) for c, y in zip(loads, costs))
    cc = calibrate_iota(obs, 2)
    diag = np.array([4.0] + [3.0 / math.sqrt(2.0)] * 4)
    assert np.allclose(cc.iota, np.asarray(costs) / diag, atol=1e-12)


def test_calibration_underdetermined_raises():
    rng = np.random.default_rng(3)
    obs = _observations(rng, np.ones(7), 3, count=6)
    with pytest.raises(ValueError, match="underdetermined"):
        calibrate_iota(obs, 3)
    with pytest.raises(ValueError, match="underdetermined"):
        calibrate_iota((), 3)


def test_calibration_degenerate_observations_raise():
    load = _random_load(np.random.default_rng(4), 2)
    obs = tuple(CostObservation(load, 1.0) for _ in range(5))
    with pytest.raises(ValueError, match="degenerate observation set"):
        calibrate_iota(obs, 2)


def test_calibration_zero_loads_are_degenerate():
    zero = AnalyticCurve(UNIT, 0.0)
    obs = tuple(CostObservation(zero, 0.0) for _ in range(3))
    with pytest.raises(ValueError, match="degenerate observation set"):
        calibrate_iota(obs, 1)


def test_calibration_mixed_intervals_raise():
    a = CostObservation(AnalyticCurve(UNIT, 1.0), 1.0)
    b = CostObservation(AnalyticCurve(Interval(0.0, 2.0), 1.0), 2.0)
    with pytest.raises(ValueError, match="incompatible intervals"):
        calibrate_iota((a, b, a), 1)


def test_calibration_argument_validation():
    obs = _observations(np.random.default_rng(6), np.ones(3), 1, count=3)
    with pytest.raises(ValueError, match="n_max"):
        calibrate_iota(obs, 0)


# ---------------------------------------------------------------------------
# pricing_from_cost
# ---------------------------------------------------------------------------

def test_pricing_at_unit_markup_copies_the_characteristic():
    rng = np.random.default_rng(8)
    iota = rng.uniform(-2, 2, size=7)
    cc = CostCharacteristic(UNIT, iota, 3)
    rates = pricing_from_cost(cc, 1.0)
    assert rates.interval == UNIT
    assert np.array_equal(np.asarray(rates.lam), iota)


def test_pricing_rejects_nonpositive_markup():
    cc = CostCharacteristic(UNIT, np.ones(3), 1)
    with pytest.raises(ValueError, match="positive"):
        pricing_from_cost(cc, 0.0)


def test_rates_payment_tracks_markup_times_cost():
    rng = np.random.default_rng(9)
    iota = rng.uniform(-2, 2, size=9)
    cc = CostCharacteristic(UNIT, iota, 4)
    mu = to_mu_vector(analyze(_random_load(rng, 4), 4))
    cost = supply_cost(cc, mu)
    for a in (0.5, 1.0, 3.0):
        rates = pricing_from_cost(cc, a)
        # T0 = 1 here, so the payment is the marked-up cost
        assert rates_payment(rates, mu) == pytest.approx(a * cost, rel=1e-12)


def test_gradient_of_derived_rates_is_markup_times_iota():
    rng = np.random.default_rng(10)
    for a in (0.5, 1.0, 3.0):
        iota = rng.uniform(-2, 2, size=7)
        cc = CostCharacteristic(UNIT, iota, 3)
        g = payment_gradient(pricing_from_cost(cc, a))
        assert np.array_equal(g.dense(), a * iota)  # bitwise on a unit interval
        assert int(np.argmax(g.dense())) == int(np.argmax(iota))
