"""Supply-cost characteristics and least-squares calibration."""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loadspace import (
    AnalyticCurve,
    CostCharacteristic,
    CostObservation,
    DynamismVector,
    Harmonic,
    Interval,
    SampledCurve,
    analyze,
    calibrate_iota,
    payment_gradient,
    pricing_from_cost,
    rates_payment,
    supply_cost,
    to_mu_vector,
)
from loadspace.calibrate import _fit_iota

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
    # read as a stream, too: the design matrix has fewer rows than unknowns
    with pytest.raises(ValueError, match="underdetermined: 6 observations for 7 unknowns"):
        _fit_iota(iter(obs), 3)
    with pytest.raises(ValueError, match="underdetermined: 0 observations for 7 unknowns"):
        _fit_iota(iter(()), 3)


def test_calibration_reads_a_generator_as_it_reads_a_tuple():
    rng = np.random.default_rng(10)
    obs = _observations(rng, rng.uniform(-2.0, 2.0, size=7), 3, count=12, noise=0.1)
    from_tuple = calibrate_iota(obs, 3)
    assert calibrate_iota((o for o in obs), 3).iota.tobytes() == from_tuple.iota.tobytes()
    cc, residuals = _fit_iota(iter(obs), 3)
    assert cc.iota.tobytes() == from_tuple.iota.tobytes()
    assert residuals == [o.observed_cost - supply_cost(cc, to_mu_vector(analyze(o.load, 3))) for o in obs]


def _sampled_load(rng, n_max, interval=UNIT):
    return SampledCurve(interval, rng.uniform(-50.0, 50.0, rng.integers(2 * n_max + 2, 2 * n_max + 64)))


@settings(max_examples=60, deadline=None)
@given(
    n_max=st.integers(min_value=1, max_value=5),
    data=st.data(),
    as_generator=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_streamed_fit_matches_the_two_pass_fit_bit_for_bit(n_max, data, as_generator, seed):
    k = 1 + 2 * n_max
    analytic = data.draw(st.lists(st.booleans(), min_size=k, max_size=3 * k), label="analytic")
    rng = np.random.default_rng(seed)
    obs = tuple(
        CostObservation((_random_load if a else _sampled_load)(rng, n_max), float(rng.uniform(-100.0, 100.0)))
        for a in analytic
    )
    cc, residuals = _fit_iota((o for o in obs) if as_generator else obs, n_max)
    # the reference holds every mu vector, then copies their values into the design matrix
    mus = [to_mu_vector(analyze(o.load, n_max)) for o in obs]
    costs = [o.observed_cost for o in obs]
    iota = np.linalg.lstsq(np.array([mu.values for mu in mus]), np.array(costs), rcond=1e-10)[0]
    reference = CostCharacteristic(UNIT, iota, n_max)
    assert cc.iota.tobytes() == iota.tobytes()
    assert residuals == [cost - supply_cost(reference, mu) for cost, mu in zip(costs, mus)]


def test_an_interval_mismatch_stops_the_stream_at_its_observation():
    taken = []

    def stream():
        for j, t2 in enumerate((1.0, 1.0, 2.0, 1.0)):
            taken.append(j)
            yield CostObservation(AnalyticCurve(Interval(0.0, t2), 1.0), 1.0)

    with pytest.raises(ValueError, match="incompatible intervals"):
        _fit_iota(stream(), 1)
    assert taken == [0, 1, 2]


def test_an_analysis_error_in_the_stream_propagates_unchanged():
    short = SampledCurve(UNIT, [1.0, 2.0, 3.0])  # too few samples for order 1
    with pytest.raises(ValueError) as direct:
        analyze(short, 1)
    obs = _observations(np.random.default_rng(8), np.ones(3), 1, count=2)
    stream = iter((*obs, CostObservation(short, 1.0), *obs))
    with pytest.raises(ValueError) as streamed:
        _fit_iota(stream, 1)
    assert type(streamed.value) is ValueError
    assert streamed.value.args == direct.value.args
    assert len(list(stream)) == 2  # nothing after the failing observation was read


def test_calibration_memory_is_one_design_row_per_observation():
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing")
    n_max = 50
    k = 1 + 2 * n_max

    def stream(count):
        rng = np.random.default_rng(count)
        for _ in range(count):
            yield CostObservation(_sampled_load(rng, n_max), float(rng.uniform(0.0, 100.0)))

    def peak(count):
        tracemalloc.start()
        try:
            _fit_iota(stream(count), n_max)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    _fit_iota(stream(k), n_max)  # one-time allocations (caches, lazy imports) out of the way
    few, many = k, 5 * k
    # each observation adds its row of K floats, in an array grown by at most half again, and its cost;
    # holding a mu vector per observation and a second copy of it in the matrix would add about 2.4 rows
    assert (peak(many) - peak(few)) / (many - few) < 1.75 * 8 * k


def test_a_sized_observation_set_peaks_at_its_final_design_matrix():
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing")
    n_max, count = 50, 300
    k = 1 + 2 * n_max
    rng = np.random.default_rng(300)
    obs = [CostObservation(_sampled_load(rng, n_max), float(rng.uniform(0.0, 100.0))) for _ in range(count)]
    calibrate_iota(obs, n_max)  # one-time allocations (caches, lazy imports) out of the way

    def peak(func, *args):
        tracemalloc.start()
        try:
            func(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    transients = max(peak(lambda o: to_mu_vector(analyze(o.load, n_max)), o) for o in obs)
    # the (300, 101) matrix is 242,400 bytes, and the costs and residuals fit in the 10 %; grown by np.fromiter
    # from a generator it would pass through a 450-row buffer (363,600 bytes), where a list's length sizes it once
    assert peak(calibrate_iota, obs, n_max) <= 1.1 * (8 * count * k + transients)


class _Claimed:
    """An observation set whose len() claims `claimed` observations while it yields those of `obs`."""

    def __init__(self, obs, claimed: int) -> None:
        self.obs, self.claimed = obs, claimed

    def __len__(self) -> int:
        return self.claimed

    def __iter__(self):
        return iter(self.obs)


def test_an_observation_set_that_yields_other_than_its_count_is_refused():
    obs = _observations(np.random.default_rng(12), np.ones(5), 2, count=8)
    reference = calibrate_iota(obs, 2)
    assert calibrate_iota(_Claimed(obs, 8), 2) == reference
    with pytest.raises(ValueError, match="observations changed while read: 7 read where 9 were counted"):
        calibrate_iota(_Claimed(obs[:7], 9), 2)
    with pytest.raises(ValueError, match="observations changed while read: more than the 6 counted"):
        calibrate_iota(_Claimed(obs, 6), 2)
    with pytest.raises(ValueError, match="more than the 6 counted"):
        _fit_iota(iter(obs), 2, 6)
    # -1: the count is not known, and every observation is read
    cc, residuals = _fit_iota(iter(obs), 2, -1)
    assert cc == reference and len(residuals) == 8


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
