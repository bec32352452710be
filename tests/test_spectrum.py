"""Fourier analysis, dynamism coordinates, Parseval."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from loadspace import (
    AnalyticCurve,
    DynamismRates,
    DynamismVector,
    Harmonic,
    Interval,
    MuCoord,
    SampledCurve,
    Spectrum,
    add,
    analyze,
    builtin_plans,
    energy,
    evaluate,
    incentive_direction,
    inner_product,
    mu_index_cos,
    mu_index_sin,
    norm,
    parseval_energy,
    payment_gradient,
    sample,
    scale,
    synthesize,
    to_mu_vector,
    truncation_error,
)

from conftest import UNIT, amplitudes, analytic_curves

SQRT_HALF = math.sqrt(0.5)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_reference_loads_exactly(l1, l2):
    s1 = analyze(l1, 100)
    assert s1.a0 == 100.0
    assert s1.harmonics == (Harmonic(5, 0.0, 20.0), Harmonic(20, 10.0, 0.0), Harmonic(100, 0.0, 5.0))
    s2 = analyze(l2, 100)
    assert s2.a0 == 80.0
    assert s2.harmonics == (Harmonic(5, 0.0, 5.0), Harmonic(20, 10.0, 0.0), Harmonic(100, 0.0, 20.0))


def test_analyze_constant_has_no_harmonics():
    s = analyze(AnalyticCurve(UNIT, 7.0), 4)
    assert s.a0 == 14.0
    assert s.harmonics == ()


def test_analyze_truncates_above_nmax(l1):
    s = analyze(l1, 50)
    assert [h.order for h in s.harmonics] == [5, 20]


def test_analyze_sampled_recovers_coefficients(l1):
    s = analyze(sample(l1, 10_001), 100)
    assert s.a0 == pytest.approx(100.0, abs=1e-3)
    assert s.coefficient(5)[1] == pytest.approx(20.0, abs=1e-3)
    assert s.coefficient(20)[0] == pytest.approx(10.0, abs=1e-3)
    assert s.coefficient(100)[1] == pytest.approx(5.0, abs=1e-3)


def test_analyze_sampled_constant_profile():
    s = analyze(sample(AnalyticCurve(UNIT, 3.0), 64), 5)
    assert s.a0 == pytest.approx(6.0, rel=1e-12)
    assert s.harmonics == ()  # rounding-level coefficients fall below the drop threshold


def test_analyze_resolvability_error():
    c = sample(AnalyticCurve(UNIT, 1.0), 10)
    with pytest.raises(ValueError, match="insufficient samples for order n_max"):
        analyze(c, 5)
    analyze(c, 4)  # N = 10 resolves n_max = 4


def test_analyze_rejects_bad_nmax(l1):
    with pytest.raises(ValueError, match="n_max"):
        analyze(l1, 0)


@pytest.mark.parametrize("n_max", [2.5, 3.0, True, "3", None])
def test_analyze_rejects_non_integer_nmax(l1, n_max):
    with pytest.raises(ValueError, match="n_max must be an integer"):
        analyze(l1, n_max)
    with pytest.raises(ValueError, match="n_max must be an integer"):
        analyze(sample(l1, 64), n_max)


def test_analyze_accepts_numpy_integer_nmax(l1):
    assert analyze(l1, np.int64(100)) == analyze(l1, 100)


def test_analyze_drop_threshold_configurable():
    c = AnalyticCurve(UNIT, 50.0, (Harmonic(2, 1e-9, 0.0),))
    assert analyze(c, 4).coefficient(2)[0] == 1e-9  # above default 1e-12*norm
    assert analyze(c, 4, drop_tol=1e-6).coefficient(2) == (0.0, 0.0)


@pytest.mark.parametrize("drop_tol", [math.nan, math.inf, -math.inf, -1.0])
def test_analyze_rejects_non_finite_or_negative_drop_tol(l1, drop_tol):
    for c in (l1, sample(l1, 256)):
        with pytest.raises(ValueError, match="drop_tol"):
            analyze(c, 100, drop_tol=drop_tol)
    assert analyze(l1, 100, drop_tol=0.0) == analyze(l1, 100)


def _trapezoid_spectrum(c: SampledCurve, n_max: int) -> tuple[float, np.ndarray, np.ndarray]:
    """Definitional trapezoid sums for a0, a_n, b_n, as an explicit cos/sin matrix.

    The phase 2*pi*n*t_i/T0 is formed from t1/T0 reduced modulo 1 plus
    i/(N-1); the reduction is exact for integer n and keeps large offsets
    accurate.
    """
    iv, v = c.interval, c.values
    n_samples = v.size
    w = np.full(n_samples, iv.duration / (n_samples - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    offset = (iv.t1 / iv.duration) % 1.0 + np.arange(n_samples) / (n_samples - 1)
    phase = 2.0 * np.pi * np.outer(np.arange(1, n_max + 1), offset)
    scale_ = 2.0 / iv.duration
    return scale_ * float(w @ v), scale_ * (np.cos(phase) @ (w * v)), scale_ * (np.sin(phase) @ (w * v))


@st.composite
def sampled_for_analysis(draw):
    n_max = draw(st.integers(min_value=1, max_value=60))
    n_samples = draw(st.integers(min_value=2 * n_max + 2, max_value=2 * n_max + 300))
    t1 = draw(st.one_of(
        st.floats(min_value=-10.0, max_value=10.0),
        st.floats(min_value=-1e6, max_value=1e6),
    ))
    t0 = draw(st.floats(min_value=0.01, max_value=100.0))
    values = draw(hnp.arrays(np.float64, n_samples, elements=st.floats(min_value=-1e3, max_value=1e3)))
    return SampledCurve(Interval(t1, t1 + t0), values), n_max


@settings(max_examples=200, deadline=None)
@given(sampled_for_analysis())
def test_fft_analyze_equals_trapezoid_matrix(case):
    c, n_max = case
    a0, a, b = _trapezoid_spectrum(c, n_max)
    s = analyze(c, n_max, drop_tol=0.0)
    tol = 1e-10 * (1.0 + float(np.max(np.abs(c.values))))
    assert abs(s.a0 - a0) <= tol
    got = np.array([s.coefficient(n) for n in range(1, n_max + 1)])
    assert np.max(np.abs(got[:, 0] - a)) <= tol
    assert np.max(np.abs(got[:, 1] - b)) <= tol


def test_spectrum_validation():
    with pytest.raises(ValueError, match="outside"):
        Spectrum(UNIT, 0.0, (Harmonic(5, 1.0, 0.0),), n_max=4)
    with pytest.raises(ValueError, match="duplicate"):
        Spectrum(UNIT, 0.0, (Harmonic(1, 1.0, 0.0), Harmonic(1, 0.0, 1.0)), n_max=4)


@pytest.mark.parametrize("n_max", [2.5, 3.0, True])
def test_spectrum_rejects_non_integer_nmax(n_max):
    with pytest.raises(ValueError, match="n_max must be an integer"):
        Spectrum(UNIT, 0.0, (), n_max=n_max)


def test_spectrum_rejects_non_integer_order_and_non_finite_values():
    with pytest.raises(ValueError, match="integer"):
        Spectrum(UNIT, 0.0, (Harmonic(1.5, 1.0, 0.0),), n_max=4)
    with pytest.raises(ValueError, match="finite"):
        Spectrum(UNIT, 0.0, (Harmonic(1, math.nan, 0.0),), n_max=4)
    with pytest.raises(ValueError, match="finite"):
        Spectrum(UNIT, math.inf, (), n_max=4)


def test_spectrum_is_dense_and_read_only():
    s = Spectrum(UNIT, 2.0, (Harmonic(3, 0.0, -1.5), Harmonic(1, 4.0, 0.0)), n_max=4)
    assert np.array_equal(s.a, [4.0, 0.0, 0.0, 0.0])
    assert np.array_equal(s.b, [0.0, 0.0, -1.5, 0.0])
    assert s.harmonics == (Harmonic(1, 4.0, 0.0), Harmonic(3, 0.0, -1.5))
    assert s.coefficient(3) == (0.0, -1.5)
    assert s.coefficient(2) == s.coefficient(5) == s.coefficient(0) == (0.0, 0.0)
    with pytest.raises(ValueError):
        s.a[0] = 1.0


# ---------------------------------------------------------------------------
# synthesize and round trips
# ---------------------------------------------------------------------------

def test_synthesize_rebuilds_reference_load(l1):
    assert synthesize(analyze(l1, 100)) == l1


def test_synthesize_constant_only():
    s = Spectrum(UNIT, 14.0, (), n_max=1)
    assert synthesize(s) == AnalyticCurve(UNIT, 7.0)


def test_roundtrip_spectrum_exact(l1):
    s = analyze(l1, 100)
    assert analyze(synthesize(s), 100) == s


@settings(max_examples=60, deadline=None)
@given(analytic_curves(interval=None, max_harmonics=5, max_order=12))
def test_roundtrip_through_spectrum(c):
    n_max = max((h.order for h in c.harmonics), default=1)
    rebuilt = synthesize(analyze(c, n_max))
    t = np.linspace(c.interval.t1, c.interval.t2, 400)
    assert np.allclose(
        evaluate(rebuilt, t), evaluate(c, t), rtol=0, atol=1e-9 * (1.0 + norm(c))
    )


@settings(max_examples=60, deadline=None)
@given(analytic_curves(max_harmonics=5, max_order=10, amp_bound=40.0))
def test_roundtrip_coefficients_within_1e12(c):
    s = analyze(c, 10)
    again = analyze(synthesize(s), 10)
    assert again.a0 == pytest.approx(s.a0, abs=1e-12)
    assert {h.order for h in again.harmonics} == {h.order for h in s.harmonics}
    for h in s.harmonics:
        a, b = again.coefficient(h.order)
        assert a == pytest.approx(h.cos_amp, abs=1e-12)
        assert b == pytest.approx(h.sin_amp, abs=1e-12)


# ---------------------------------------------------------------------------
# dynamism coordinates
# ---------------------------------------------------------------------------

def test_mu_indexing_layout():
    assert mu_index_cos(1) == 1 and mu_index_sin(1) == 2
    assert mu_index_cos(5) == 9 and mu_index_sin(5) == 10
    assert mu_index_cos(100) == 199 and mu_index_sin(100) == 200


def test_to_mu_vector_reference_load(l1):
    mu = dict(to_mu_vector(analyze(l1, 100)).coords)
    assert mu[0] == 50.0
    assert mu[mu_index_sin(5)] == pytest.approx(20.0 * SQRT_HALF, rel=1e-15)
    assert mu[mu_index_cos(20)] == pytest.approx(10.0 * SQRT_HALF, rel=1e-15)
    assert mu[mu_index_sin(100)] == pytest.approx(5.0 * SQRT_HALF, rel=1e-15)


def test_to_mu_vector_zero_spectrum():
    s = analyze(AnalyticCurve(UNIT, 0.0), 3)
    mu = to_mu_vector(s)
    assert mu.coords == (MuCoord(0, 0.0),)


def test_mu_zero_tracks_energy_scale():
    iv = Interval(0.0, 4.0)
    c = AnalyticCurve(iv, 3.0)
    mu = dict(to_mu_vector(analyze(c, 1)).coords)
    # mu0 = (a0/2)*sqrt(T0) = 3*2; and mu0^2 = norm^2 = 36
    assert mu[0] == pytest.approx(6.0, rel=1e-15)
    assert mu[0] ** 2 == pytest.approx(inner_product(c, c), rel=1e-12)


def test_to_mu_vector_is_dense_over_all_orders(l1):
    mu = to_mu_vector(analyze(l1, 100))
    assert mu.dense().shape == (201,)
    assert [k for k, _ in mu.coords] == [0, mu_index_sin(5), mu_index_cos(20), mu_index_sin(100)]
    assert np.array_equal(mu.dense(), mu.values)
    assert np.array_equal(mu.dense(250)[:201], mu.values)


def test_dynamism_vector_validation_and_dense():
    with pytest.raises(ValueError, match="duplicate"):
        DynamismVector(UNIT, (MuCoord(1, 1.0), MuCoord(1, 2.0)))
    with pytest.raises(ValueError, match=">= 0"):
        DynamismVector(UNIT, (MuCoord(-1, 1.0),))
    v = DynamismVector(UNIT, (MuCoord(3, 2.0), MuCoord(0, 1.0)))
    assert v.coords[0].index == 0  # sorted on construction
    assert np.array_equal(v.dense(), [1.0, 0.0, 0.0, 2.0])
    assert np.array_equal(v.dense(6), [1.0, 0.0, 0.0, 2.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="too small"):
        v.dense(2)


# ---------------------------------------------------------------------------
# Parseval
# ---------------------------------------------------------------------------

def test_parseval_reference_load(l1):
    s = analyze(l1, 100)
    assert parseval_energy(s) == 2762.5
    nsq = inner_product(l1, l1)
    assert abs(parseval_energy(s) - nsq) <= 1e-9 * nsq
    mu = to_mu_vector(s)
    assert sum(v * v for _, v in mu.coords) == pytest.approx(nsq, rel=1e-12)


def test_parseval_trivial_cases():
    assert parseval_energy(analyze(AnalyticCurve(UNIT, 5.0), 1)) == 25.0
    assert parseval_energy(analyze(AnalyticCurve(UNIT, 0.0), 1)) == 0.0


@settings(max_examples=60, deadline=None)
@given(analytic_curves(interval=None, max_harmonics=10, max_order=20))
def test_parseval_analytic(c):
    n_max = max((h.order for h in c.harmonics), default=1)
    nsq = inner_product(c, c)
    assert abs(parseval_energy(analyze(c, n_max)) - nsq) <= 1e-9 * (1.0 + nsq)


@settings(max_examples=15, deadline=None)
@given(analytic_curves(max_harmonics=6, max_order=12, amp_bound=30.0))
def test_parseval_sampled(c):
    sampled = sample(c, 10_001)
    nsq = inner_product(sampled, sampled)
    pe = parseval_energy(analyze(sampled, 12))
    assert abs(pe - nsq) <= 1e-3 * (1.0 + nsq)


# ---------------------------------------------------------------------------
# linearity and the energy split
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(analytic_curves(max_order=10), analytic_curves(max_order=10))
def test_analysis_is_linear_in_addition(c1, c2):
    s = analyze(add(c1, c2), 10)
    s1, s2 = analyze(c1, 10), analyze(c2, 10)
    assert s.a0 == pytest.approx(s1.a0 + s2.a0, abs=1e-12)
    for n in range(1, 11):
        a, b = s.coefficient(n)
        a1, b1 = s1.coefficient(n)
        a2, b2 = s2.coefficient(n)
        assert a == pytest.approx(a1 + a2, abs=1e-9)
        assert b == pytest.approx(b1 + b2, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-10, max_value=10), analytic_curves(max_order=10))
def test_analysis_is_homogeneous(a, c):
    s = analyze(scale(a, c), 10)
    base = analyze(c, 10)
    assert s.a0 == pytest.approx(a * base.a0, abs=1e-9)
    for h in base.harmonics:
        got_a, got_b = s.coefficient(h.order)
        assert got_a == pytest.approx(a * h.cos_amp, abs=1e-9)
        assert got_b == pytest.approx(a * h.sin_amp, abs=1e-9)


def test_harmonics_accumulate_zero_energy():
    # each pure-harmonic basis curve integrates to zero; energy rides on a0 alone
    for n in (1, 2, 7):
        pure = synthesize(Spectrum(UNIT, 0.0, (Harmonic(n, 1.3, -0.4),), n_max=n))
        assert energy(pure) == 0.0
    with_dc = synthesize(Spectrum(UNIT, 6.0, (Harmonic(3, 2.0, 2.0),), n_max=3))
    assert energy(with_dc) == 3.0


# ---------------------------------------------------------------------------
# truncation error
# ---------------------------------------------------------------------------

def test_truncation_error_zero_when_resolved(l1):
    assert truncation_error(l1, analyze(l1, 100)) <= 1e-9


def test_truncation_error_of_dropped_harmonic(l1):
    # dropping the order-100 sine of amplitude 5 leaves residual norm 5*sqrt(1/2)
    err = truncation_error(l1, analyze(l1, 50))
    assert err == pytest.approx(5.0 * SQRT_HALF, rel=1e-12)


def test_truncation_error_zero_curve():
    z = AnalyticCurve(UNIT, 0.0)
    assert truncation_error(z, analyze(z, 1)) == 0.0


def test_truncation_error_rejects_mismatched_interval(l1):
    s = analyze(AnalyticCurve(Interval(0.0, 2.0), 1.0), 1)
    with pytest.raises(ValueError, match="incompatible intervals"):
        truncation_error(l1, s)


# ---------------------------------------------------------------------------
# values the package builds equal the ones its constructors parse
# ---------------------------------------------------------------------------

def _assert_same_spectrum(s: Spectrum, n_max: int) -> None:
    rebuilt = Spectrum(s.interval, s.a0, s.harmonics, s.n_max)
    assert s.n_max == n_max and s == rebuilt
    assert s.a.tobytes() == rebuilt.a.tobytes() and s.b.tobytes() == rebuilt.b.tobytes()
    assert not (s.a.flags.writeable or s.b.flags.writeable)


def _assert_same_vector(v: DynamismVector) -> None:
    rebuilt = DynamismVector(v.interval, v.coords)
    assert v == rebuilt
    # value for value (+0.0 and -0.0 alike: `coords` lists no zero coordinate)
    assert np.array_equal(v.values, rebuilt.dense(v.values.size))
    assert not v.values.flags.writeable


drop_tols = st.one_of(st.none(), st.just(0.0), st.floats(min_value=0.0, max_value=1e3))


@settings(max_examples=150, deadline=None)
@given(sampled_for_analysis(), drop_tols)
def test_sampled_analysis_equals_its_constructor_rebuild(case, drop_tol):
    c, n_max = case
    s = analyze(c, n_max, drop_tol)
    _assert_same_spectrum(s, n_max)
    _assert_same_vector(to_mu_vector(s))


@settings(max_examples=150, deadline=None)
@given(analytic_curves(interval=None, max_order=30), st.integers(min_value=1, max_value=40), drop_tols)
def test_analytic_analysis_equals_its_constructor_rebuild(c, n_max, drop_tol):
    s = analyze(c, n_max, drop_tol)
    _assert_same_spectrum(s, n_max)
    _assert_same_vector(to_mu_vector(s))


@settings(max_examples=100, deadline=None)
@given(
    analytic_curves(max_order=20),
    st.sets(st.integers(min_value=1, max_value=25), max_size=8),
    st.booleans(),
    hnp.arrays(np.float64, st.integers(min_value=1, max_value=30), elements=amplitudes()),
)
def test_gradients_equal_their_constructor_rebuild(c, orders, with_supply, lam):
    supply = analyze(c, 20) if with_supply else None
    for plan in builtin_plans():
        _assert_same_vector(payment_gradient(plan, UNIT, orders=orders, supply=supply))
        _assert_same_vector(incentive_direction(plan, UNIT, orders=orders, supply=supply))
    rates = DynamismRates(UNIT, tuple(lam))
    _assert_same_vector(payment_gradient(rates))
    _assert_same_vector(incentive_direction(rates))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_to_mu_vector_refuses_overflowing_coordinates():
    # mu_0 = (a0/2)*sqrt(T0) = 0.5e308 * 20 is past the largest float
    with pytest.raises(ValueError, match="finite"):
        to_mu_vector(Spectrum(Interval(0.0, 400.0), 1e308, (), 1))
