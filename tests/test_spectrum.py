"""Fourier analysis, dynamism coordinates, Parseval."""
from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from loadspace import (
    AnalyticCurve,
    Bill,
    CostCharacteristic,
    DynamismRates,
    DynamismVector,
    Harmonic,
    Interval,
    MuCoord,
    SampledCurve,
    Spectrum,
    SpotPlan,
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
from loadspace import spectrum
from loadspace.cli import _read_profile
from loadspace.curve import _t1_turns
from loadspace.spectrum import _conjugate_phase, _parseval_check

from conftest import UNIT, amplitudes, analytic_curves, intervals
from test_order_vectors import _analysis_by_the_plain_formula

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
    i/(N-1); the reduction is exact for integer n, and t1/T0 is reduced as
    a fraction, so large offsets stay accurate.
    """
    iv, v = c.interval, c.values
    n_samples = v.size
    w = np.full(n_samples, iv.duration / (n_samples - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    offset = float(Fraction(iv.t1) / Fraction(iv.duration) % 1) + np.arange(n_samples) / (n_samples - 1)
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
# t1/T0 = 100000012.2, which rounds by 6.2e-9 turns before its reduction modulo 1: order 60's phase by 3.7e-7
@example((SampledCurve(Interval(1e6 + 0.123, 1e6 + 0.133), np.linspace(-1e3, 1e3, 130)), 60))
def test_fft_analyze_equals_trapezoid_matrix(case):
    c, n_max = case
    a0, a, b = _trapezoid_spectrum(c, n_max)
    s = analyze(c, n_max, drop_tol=0.0)
    tol = 1e-10 * (1.0 + float(np.max(np.abs(c.values))))
    assert abs(s.a0 - a0) <= tol
    got = np.array([s.coefficient(n) for n in range(1, n_max + 1)])
    assert np.max(np.abs(got[:, 0] - a)) <= tol
    assert np.max(np.abs(got[:, 1] - b)) <= tol


def _next_prime(n: int) -> int:
    while any(n % f == 0 for f in range(2, math.isqrt(n) + 1)):
        n += 1
    return n


def _one_rfft_spectrum(c: SampledCurve, n_max: int) -> tuple[float, np.ndarray]:
    """(a0, interleaved a_n, b_n) from one rfft of length N-1, by the trapezoid sum with h = T0/(N-1) taken out,

        a_n + i b_n = (2/(N-1)) conj(rfft(x)_n) conj(exp(-2 pi i n t1/T0)),  x = v[:-1], x_0 = (v_0 + v_(N-1))/2,

    so that no partial sum overflows where the samples do not; the phase factors are `analyze`'s own, so that
    only the transform differs."""
    v = c.values
    x = v[:-1].copy()
    x[0] = 0.5 * (v[0] + v[-1])
    w = np.conjugate(np.fft.rfft(x)[: n_max + 1]) * _conjugate_phase(_t1_turns(c.interval), n_max)
    w *= 2.0 / (v.size - 1)
    return w[0].real, w[1:].view(float)


@st.composite
def prime_factor_lengths(draw):
    """A sampled curve of N = q*p + 1 samples, p a prime above the bound and q in 2..40 (so coprime to it), on an
    interval with t1 at or far past T0, or on [0, 1e308], where dt * v overflows for samples near 1e10."""
    p = _next_prime(draw(st.integers(spectrum._PRIME_FACTOR_BOUND + 1, 3000)))
    q = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(draw(st.sampled_from([0.0, 50.0])), 10.0, q * p + 1)
    if draw(st.booleans()):
        iv, values = Interval(0.0, 1e308), np.where(np.arange(values.size) % 2, -1e10, 1e10) + 1e8 * values
    else:
        t0 = draw(st.sampled_from([1.0, 0.01, 365.0]))
        t1 = draw(st.sampled_from([0.0, -7.25, 3.0 * t0, 1e6, 1e9 + 0.5]))
        iv = Interval(t1, t1 + t0)
    n_max = min(draw(st.integers(1, 2000)), (q * p - 1) // 2)
    return SampledCurve(iv, values), n_max, q, p


@settings(max_examples=40, deadline=None)
@given(prime_factor_lengths())
def test_a_prime_factor_length_analyzes_as_one_rfft(case):
    c, n_max, q, p = case
    assert spectrum._prime_factor_split(q * p) == (q, p)
    s = analyze(c, n_max, drop_tol=0.0)
    a0, coef = _one_rfft_spectrum(c, n_max)
    # |a_n|, |b_n| <= 2 max|v|; the two factorizations round differently, by at most 2e-16 max|v| on 150 draws
    # like these, and a wrong bin or conjugate would be off by a coefficient's own size
    tol = 1e-14 * float(np.max(np.abs(c.values)))
    assert abs(s.a0 - a0) <= tol
    assert np.max(np.abs(s._coef - coef)) <= tol


def test_only_lengths_with_a_large_prime_factor_take_the_two_dimensional_transform(monkeypatch):
    shapes, rfft = [], np.fft.rfft

    def recording_rfft(x, *args, **kwargs):
        shapes.append(x.shape)
        return rfft(x, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", recording_rfft)
    # a fleet meter's day (N - 1 = 95), a calibration week (672) and every profile of the CLI's golden cases
    # but the manifests and the profiles that do not parse (walk.csv) or whose a0 overflows (big.csv)
    curves = [SampledCurve(UNIT, np.cos(np.arange(n)) + n % 7) for n in (96, 673)]
    golden = Path(__file__).resolve().parent / "golden" / "inputs"
    unanalyzable = {"big.csv", "manifest.csv", "manifest4.csv", "walk.csv"}
    curves += [_read_profile(str(path)) for path in sorted(golden.glob("*.csv")) if path.name not in unanalyzable]
    for c in curves:
        n_max = min(10, (c.values.size - 2) // 2)
        shapes.clear()
        s = analyze(c, n_max, drop_tol=0.0)
        assert shapes == [(c.values.size - 1,)]
        a0, coef, _ = _analysis_by_the_plain_formula(c, n_max, 0.0)
        assert np.float64(s.a0).tobytes() == np.float64(a0).tobytes() and s._coef.tobytes() == coef
    year = SampledCurve(Interval(0.0, 365.0), 50.0 + 10.0 * np.sin(np.arange(35_040) * (2 * np.pi / 96)))
    shapes.clear()
    s = analyze(year, 1000, drop_tol=0.0)
    assert shapes == [(37, 947)]
    a0, coef, peak = _analysis_by_the_plain_formula(year, 1000, 0.0)
    assert abs(s.a0 - a0) <= 1e-15 * abs(a0)
    assert np.max(np.abs(s._coef - np.frombuffer(coef))) <= 1e-15 * max(abs(a0), peak)


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


def test_spectrum_coefficient_accepts_integer_orders_of_any_integer_type():
    s = Spectrum(UNIT, 2.0, [(5, 1.0, -2.0)], n_max=5)
    assert s.coefficient(np.int64(5)) == s.coefficient(5) == (1.0, -2.0)


@pytest.mark.parametrize("order", [True, 2.5, 5.0, "5"], ids=["bool", "fraction", "integral-float", "str"])
def test_spectrum_coefficient_refuses_an_order_that_is_not_an_integer(order):
    s = Spectrum(UNIT, 2.0, [(1, 4.0, 0.0), (5, 1.0, -2.0)], n_max=5)
    with pytest.raises(ValueError, match="order must be an integer"):
        s.coefficient(order)


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


@pytest.mark.parametrize(
    "size, message",
    [(-1, "size must be >= 0"), (2.5, "size must be an integer"), (4.0, "size must be an integer"),
     (True, "size must be an integer"), ("4", "size must be an integer")],
    ids=["negative", "fraction", "integral-float", "bool", "str"],
)
def test_dynamism_vector_dense_refuses_a_bad_size(size, message):
    v = DynamismVector(UNIT, (MuCoord(0, 1.0), MuCoord(3, 2.0)))
    with pytest.raises(ValueError, match=message):
        v.dense(size)


def test_dynamism_vector_dense_of_size_zero_holds_only_zero_coordinates():
    assert DynamismVector(UNIT, ()).dense(0).shape == (0,)
    assert np.array_equal(DynamismVector(UNIT, (MuCoord(0, 1.0),)).dense(np.int64(2)), [1.0, 0.0])
    with pytest.raises(ValueError, match="too small"):
        DynamismVector(UNIT, (MuCoord(0, 1.0),)).dense(0)


# one parser takes the outside rows of all three constructors; each refuses an index past
# its bound on the floats, before anything is cast or allocated (a cast of 1e19 warns, and
# 1e12 coordinates are 8 TB): AnalyticCurve orders 1..2**20 (given as ints, the only orders
# it takes), Spectrum orders 1..n_max and DynamismVector indices 0..2**21; payment_gradient orders
# share AnalyticCurve's bound, since the gradient is a DynamismVector holding order n's sine at 2n
ROW_CONSTRUCTORS = {
    "AnalyticCurve order": lambda i: AnalyticCurve(UNIT, 1.0, ((i, 1.0, 0.0),)),
    "Spectrum order": lambda i: Spectrum(UNIT, 1.0, ((i, 1.0, 0.0),), 4),
    "DynamismVector index": lambda i: DynamismVector(UNIT, ((0, 1.0), (i, 1.0))),
}
INDICES_PAST_BOUNDS = {
    "AnalyticCurve order": [(10**19, "outside"), (-(10**19), ">= 1"), (10**12, "outside"), (2**20 + 1, "outside")],
    "Spectrum order": [(1e19, "outside"), (-1e19, ">= 1"), (1e12, "outside"), (5, "outside"), (0, ">= 1")],
    "DynamismVector index": [(1e19, "outside"), (-1e19, ">= 0"), (1e12, "outside"), (2**21 + 1, "outside")],
    "payment_gradient order": [(10**19, "outside"), (-(10**19), ">= 1"), (10**7, "outside"), (2**20 + 1, "outside")],
}
BOUNDED = {**ROW_CONSTRUCTORS, "payment_gradient order": lambda i: payment_gradient(builtin_plans()[0], UNIT, [1, i])}


@pytest.mark.parametrize(
    "name, index, message",
    [(name, i, m) for name, cases in INDICES_PAST_BOUNDS.items() for i, m in cases],
)
def test_row_constructors_refuse_an_index_past_the_bound_before_allocating(name, index, message):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message):
            BOUNDED[name](index)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024


@pytest.mark.parametrize("name", ROW_CONSTRUCTORS)
def test_row_constructors_refuse_an_int_too_large_for_a_float(name):
    with pytest.raises(ValueError, match="finite"):
        ROW_CONSTRUCTORS[name](-(10**400))


@pytest.mark.parametrize("name", ["Spectrum order", "DynamismVector index"])
@pytest.mark.parametrize("index", [1.5, 2.0 + 2**-40], ids=["half", "just-above-two"])
def test_row_constructors_refuse_a_fractional_index_in_range(name, index):
    with pytest.raises(ValueError, match="must be an integer"):
        ROW_CONSTRUCTORS[name](index)


@st.composite
def _rows(draw, lo: int, width: int, forms):
    """Distinct-index (index, value, ...) rows in any order, in one of `forms`, and their expected dense array."""
    indices = draw(st.lists(st.integers(min_value=lo, max_value=lo + 40), unique=True, max_size=8))
    values = st.floats(allow_nan=False, allow_infinity=False)
    rows = [(i, *(draw(values) for _ in range(width - 1))) for i in indices]
    size = max(indices, default=0) + 1 - lo
    expected = np.zeros((width - 1, size))
    for i, *v in rows:
        expected[:, i - lo] = v
    form = draw(st.sampled_from(forms))
    if form == "array":
        rows = np.array(rows, dtype=float).reshape(-1, width)
    elif form == "named":
        rows = [(Harmonic if width == 3 else MuCoord)(*row) for row in rows]
    return rows, expected


def _same_bits(got: np.ndarray, expected: np.ndarray) -> bool:
    return got.dtype == np.float64 and got.shape == expected.shape and got.tobytes() == expected.tobytes()


@settings(max_examples=200, deadline=None)
@given(_rows(1, 3, ["tuples", "named"]), st.floats(-1e3, 1e3))
def test_analytic_curve_rows_land_bit_for_bit_in_zeros(case, constant):
    # no array form: a float array's orders are floats, which an AnalyticCurve refuses
    rows, expected = case
    c = AnalyticCurve(UNIT, constant, rows)
    assert _same_bits(c.a, expected[0]) and _same_bits(c.b, expected[1])
    present = [n for n in range(1, expected.shape[1] + 1) if expected[0, n - 1] != 0.0 or expected[1, n - 1] != 0.0]
    assert c.harmonics == tuple(Harmonic(n, expected[0, n - 1], expected[1, n - 1]) for n in present)
    assert c == AnalyticCurve(UNIT, constant, rows[::-1])


@settings(max_examples=200, deadline=None)
@given(_rows(1, 3, ["tuples", "named", "array"]), st.integers(min_value=0, max_value=5))
def test_spectrum_rows_land_bit_for_bit_in_zeros(case, extra):
    rows, expected = case
    n_max = max(expected.shape[1], 1) + extra
    s = Spectrum(UNIT, 2.0, rows, n_max)
    padded = np.zeros((2, n_max))
    padded[:, : expected.shape[1]] = expected
    assert _same_bits(s.a, padded[0]) and _same_bits(s.b, padded[1])
    present = [n for n in range(1, n_max + 1) if padded[0, n - 1] != 0.0 or padded[1, n - 1] != 0.0]
    assert s.harmonics == tuple(Harmonic(n, padded[0, n - 1], padded[1, n - 1]) for n in present)
    assert s == Spectrum(UNIT, 2.0, rows[::-1], n_max)


@settings(max_examples=200, deadline=None)
@given(_rows(0, 2, ["tuples", "named", "array"]))
def test_dynamism_vector_rows_land_bit_for_bit_in_zeros(case):
    rows, expected = case
    v = DynamismVector(UNIT, rows)
    assert _same_bits(v.values, expected[0]) and _same_bits(v.dense(), expected[0])
    nonzero = [k for k in range(1, expected.shape[1]) if expected[0, k] != 0.0]
    assert v.coords == tuple(MuCoord(k, expected[0, k]) for k in [0, *nonzero])
    assert v == DynamismVector(UNIT, rows[::-1])


def test_value_types_compare_by_value():
    other_iv = Interval(0.0, 2.0)
    lines = np.arange(12.0).reshape(3, 4)
    cases = [  # (a value, an equal one, unequal ones)
        (
            AnalyticCurve(UNIT, 1.0, ((2, 1.0, 0.0),)),
            AnalyticCurve(UNIT, 1.0, ((5, 0.0, 0.0), (2, 1.0, 0.0))),  # a trailing zero order does not count
            [
                AnalyticCurve(UNIT, 1.0),
                AnalyticCurve(other_iv, 1.0, ((2, 1.0, 0.0),)),
                AnalyticCurve(UNIT, 2.0, ((2, 1.0, 0.0),)),
            ],
        ),
        (
            DynamismVector(UNIT, ((0, 1.0), (3, 2.0))),
            DynamismVector(UNIT, ((0, 1.0), (3, 2.0), (7, 0.0))),  # nor a trailing zero coordinate
            [DynamismVector(UNIT, ((0, 1.0), (3, 2.5))), DynamismVector(other_iv, ((0, 1.0), (3, 2.0)))],
        ),
        (
            Spectrum(UNIT, 2.0, ((1, 1.0, 0.0),), 2),
            Spectrum(UNIT, 2.0, np.array([[1.0, 1.0, 0.0]]), 2),
            [Spectrum(UNIT, 2.0, ((1, 1.0, 0.0),), 3), Spectrum(UNIT, 3.0, ((1, 1.0, 0.0),), 2)],
        ),
        (Bill(1.0, 2.0, lines), Bill(1.0, 2.0, lines.copy()), [Bill(1.0, 2.5, lines), Bill(1.0, 2.0, lines[:2])]),
        (
            CostCharacteristic(UNIT, [0.0, 1.0, 2.0], 1),
            CostCharacteristic(UNIT, np.array([0.0, 1.0, 2.0]), 1),
            [CostCharacteristic(UNIT, [0.0, 1.0, 2.5], 1), CostCharacteristic(other_iv, [0.0, 1.0, 2.0], 1)],
        ),
        (
            SpotPlan(UNIT, [10.0, 30.0]),
            SpotPlan(UNIT, np.array([10.0, 30.0])),
            [SpotPlan(UNIT, [10.0, 30.5]), SpotPlan(other_iv, [10.0, 30.0])],
        ),
        (
            DynamismRates(UNIT, [1.0, -2.0]),
            DynamismRates(UNIT, np.array([1.0, -2.0])),
            [DynamismRates(UNIT, [1.0, -2.5]), DynamismRates(other_iv, [1.0, -2.0])],
        ),
    ]
    for value, same, others in cases:
        assert value == same and not value != same
        assert all(value != other and other != value for other in others)
        assert value != object() and value.__eq__(object()) is NotImplemented
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)


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


def test_parseval_energy_of_large_finite_coefficients_is_inf_without_a_warning():
    # harmonics near 1e200, whose squares overflow; the pytest settings turn a warning into an error
    s = analyze(SampledCurve(Interval(0.0, 8.0), [1e200 * (1 + i % 3) for i in range(9)]), 3)
    assert max(abs(s.a0), *np.abs(s.a), *np.abs(s.b)) > 1e199
    assert parseval_energy(s) == math.inf


def coefficients():
    """Zero, or a finite float whose square neither overflows nor underflows."""
    signs = st.sampled_from((-1.0, 1.0))
    return st.builds(lambda s, m: s * m, signs, st.one_of(st.just(0.0), st.floats(1e-100, 1e150)))


@settings(max_examples=200, deadline=None)
@given(
    st.floats(0.1, 10.0),
    coefficients(),
    st.lists(st.tuples(coefficients(), coefficients()), min_size=1, max_size=40),
)
def test_parseval_energy_is_the_unscaled_sum_bit_for_bit(t0, a0, ab):
    s = Spectrum(Interval(0.0, t0), a0, [(n, a, b) for n, (a, b) in enumerate(ab, start=1)], len(ab))
    # on contiguous copies, as the library sums them: a dot on the strided views `a` and `b` may round otherwise
    a, b = np.ascontiguousarray(s.a), np.ascontiguousarray(s.b)
    assert parseval_energy(s) == t0 * a0 * a0 / 4.0 + 0.5 * t0 * float(a @ a + b @ b)


@settings(max_examples=200, deadline=None)
@given(intervals(), hnp.arrays(float, st.integers(4, 64), elements=coefficients()))
def test_parseval_check_is_the_unscaled_energies_and_their_ratio_bit_for_bit(iv, values):
    # in range: no square of a value or coefficient overflows or underflows
    c = SampledCurve(iv, values)
    s = analyze(c, (values.size - 2) // 2)
    pe, nsq = parseval_energy(s), inner_product(c, c)
    assert _parseval_check(c, s) == (pe, nsq, pe / nsq if nsq > 0 else None)


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

def _assert_views_of_one_array(x: Spectrum | AnalyticCurve) -> None:
    """`a` and `b` are the views _coef[::2] and _coef[1::2] of one read-only interleaved float64 array."""
    coef = x._coef
    assert coef.dtype == np.float64 and coef.ndim == 1 and coef.flags.c_contiguous and not coef.flags.writeable
    assert x.a.size == x.b.size == coef.size // 2
    if coef.size:
        assert x.a.strides == x.b.strides == (16,)
        start = coef.__array_interface__["data"][0]
        assert (x.a.__array_interface__["data"][0], x.b.__array_interface__["data"][0]) == (start, start + 8)
    assert not (x.a.flags.writeable or x.b.flags.writeable)


def _assert_same_spectrum(s: Spectrum, n_max: int) -> None:
    rebuilt = Spectrum(s.interval, s.a0, s.harmonics, s.n_max)
    assert s.n_max == n_max and s == rebuilt
    assert s.a.tobytes() == rebuilt.a.tobytes() and s.b.tobytes() == rebuilt.b.tobytes()
    _assert_views_of_one_array(s)
    _assert_views_of_one_array(rebuilt)


def _assert_same_curve(c: AnalyticCurve) -> None:
    rebuilt = AnalyticCurve(c.interval, c.constant, c.harmonics)
    assert c == rebuilt
    _assert_views_of_one_array(c)
    _assert_views_of_one_array(rebuilt)


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


@settings(max_examples=150, deadline=None)
@given(
    intervals().flatmap(lambda iv: st.tuples(analytic_curves(interval=iv), analytic_curves(interval=iv))),
    st.floats(min_value=-10, max_value=10),
    st.integers(min_value=1, max_value=40),
    drop_tols,
)
def test_built_curves_equal_their_constructor_rebuild(pair, k, n_max, drop_tol):
    c1, c2 = pair
    _assert_same_curve(add(c1, c2))
    _assert_same_curve(scale(k, c1))
    _assert_same_curve(synthesize(analyze(c1, n_max, drop_tol)))


@settings(max_examples=150, deadline=None)
@given(analytic_curves(interval=None, max_order=30), st.integers(min_value=0, max_value=10))
def test_synthesize_inverts_analyze_exactly(c, extra):
    n_max = max((h.order for h in c.harmonics), default=1) + extra
    assert synthesize(analyze(c, n_max, drop_tol=0.0)) == c


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


@pytest.mark.parametrize("t2", [5e-324, 1e-310, 1e-309])
def test_analyze_refuses_an_interval_too_short_for_its_scale_without_a_warning(t2):
    # 2/T0 overflows, and inf * 0.0 would make the scaling multiply warn before the refusal
    with pytest.raises(ValueError, match=rf"interval \[0.0, {t2}\] too short"):
        analyze(SampledCurve(Interval(0.0, t2), np.arange(10.0)), 2)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_to_mu_vector_refuses_overflowing_coordinates():
    # mu_0 = (a0/2)*sqrt(T0) = 0.5e308 * 20 is past the largest float
    with pytest.raises(ValueError, match="finite"):
        to_mu_vector(Spectrum(Interval(0.0, 400.0), 1e308, (), 1))
