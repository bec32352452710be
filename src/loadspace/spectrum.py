"""Fourier analysis of load curves and the orthonormal dynamism coordinates.

A Spectrum holds the classic Fourier data of a curve on [t1, t2]: the
zero-frequency coefficient a0 (so that T0/2 * a0 is the energy consumed)
and per-order pairs (a_n, b_n) for the cosine and sine components at
frequency n*f0. A DynamismVector holds the same information projected on
the orthonormal basis (1/sqrt(T0), sqrt(2/T0)*cos, sqrt(2/T0)*sin), which
is the coordinate system in which Parseval's identity holds exactly and
in which pricing gradients and cost characteristics are expressed.

Coordinate indexing is shared across the package: index 0 is the energy
coordinate, order n contributes the cosine coordinate 2n-1 and the sine
coordinate 2n.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .curve import (
    AnalyticCurve,
    Interval,
    LoadCurve,
    SampledCurve,
    _analytic,
    _dense_rows,
    _eq_by,
    _frozen,
    _phase_factors,
    _power_of_two_near,
    _require_int,
    _scaled_parseval,
    _scaled_square_norm,
    _SUM_LIMIT,
    _t1_turns,
    _UNIT,
    distance,
    norm,
)

__all__ = [
    "Spectrum",
    "MuCoord",
    "DynamismVector",
    "mu_index_cos",
    "mu_index_sin",
    "analyze",
    "synthesize",
    "to_mu_vector",
    "parseval_energy",
    "truncation_error",
]


def mu_index_cos(n: int) -> int:
    """Flat coordinate index of the order-n cosine component."""
    return 2 * n - 1


def mu_index_sin(n: int) -> int:
    """Flat coordinate index of the order-n sine component."""
    return 2 * n


@dataclass(frozen=True, init=False, eq=False)
class Spectrum:
    """Truncated Fourier description of a curve on its interval.

    Stored densely: a0 plus the read-only array `_coef` = (a_1, b_1, ...,
    a_n_max, b_n_max), interleaved as bill lines are, zeros where absent, as
    in an AnalyticCurve; its views `a` = `_coef[::2]` and `b` = `_coef[1::2]`
    hold order n's cosine and sine coefficients at n-1. The
    constructor takes the present orders (1..n_max) as (order, a_n, b_n)
    rows, Harmonic tuples or a (k, 3) array, through the row parser it shares
    with AnalyticCurve and DynamismVector; `n_max`, `harmonics` and
    `coefficient` are views of the arrays. Two spectra are equal when
    interval, a0 and both arrays are.
    """

    interval: Interval
    a0: float
    a: np.ndarray
    b: np.ndarray

    def __init__(self, interval: Interval, a0: float, harmonics, n_max: int) -> None:
        n_max = _require_int(n_max, "n_max", 1)
        coef = _dense_rows(harmonics, "harmonic order", 1, n_max, n_max, a0).reshape(-1)
        peak = float(np.maximum.reduce(np.abs(coef)))
        _frozen(self, interval=interval, a0=float(a0), a=coef[::2], b=coef[1::2], _coef=coef, _peak=peak)

    __eq__ = _eq_by("interval", "a0", "a", "b")
    _peak = math.inf  # a bound on every |a_n| and |b_n|: what `dynamism_payment`'s overflow guard reads

    @property
    def n_max(self) -> int:
        """Truncation order: the length of `a` and `b`."""
        return self.a.size

    harmonics = AnalyticCurve.harmonics

    def coefficient(self, n: int) -> tuple[float, float]:
        """(a_n, b_n) for order n; (0, 0) when the order is absent.

        ValueError unless n is an integer (bool is refused).
        """
        n = _require_int(n, "order")
        if 1 <= n <= self.n_max:
            return (float(self.a[n - 1]), float(self.b[n - 1]))
        return (0.0, 0.0)


class MuCoord(NamedTuple):
    index: int
    value: float


@dataclass(frozen=True, init=False, eq=False)
class DynamismVector:
    """Coordinates mu_k of a curve in the orthonormal basis.

    Stored densely as the read-only float array `values`, mu_0 first. The
    constructor takes (index, value) pairs, MuCoord tuples or a (k, 2)
    array, and the array runs up to the largest index given, at most 2**21.
    `coords` is a sparse view: index 0 plus every nonzero coordinate.
    """

    interval: Interval
    values: np.ndarray

    def __init__(self, interval: Interval, coords) -> None:
        # 2**21: the sine coordinate of the highest order an AnalyticCurve may hold
        values = _dense_rows(coords, "coordinate index", 0, 2 * 2**20, None, width=2).reshape(-1)
        _frozen(self, interval=interval, values=values)

    __eq__ = _eq_by("interval", "coords")  # the sparse view: trailing zeros do not count

    @property
    def coords(self) -> tuple[MuCoord, ...]:
        """Index 0 and every nonzero coordinate, ascending, as MuCoord tuples."""
        index = [0, *(np.flatnonzero(self.values[1:]) + 1).tolist()]
        return tuple(MuCoord(k, v) for k, v in zip(index, self.values[index].tolist()))

    def dense(self, size: int | None = None) -> np.ndarray:
        """Coordinates as a new dense vector of the given length (default: the stored one).

        A size that is not an integer >= 0, or is below the last nonzero
        coordinate, raises ValueError.
        """
        size = self.values.size if size is None else _require_int(size, "size", 0)
        if np.any(self.values[size:]):
            raise ValueError(f"size {size} too small for coordinate index {np.flatnonzero(self.values)[-1]}")
        out = np.zeros(size)
        out[: min(size, self.values.size)] = self.values[:size]
        return out


def _dense_vector(interval: Interval, values: np.ndarray) -> DynamismVector:
    """The DynamismVector whose coordinate k is values[k], stored as given, not copied."""
    if not np.all(np.isfinite(values)):
        raise ValueError("coordinate indices and values must be finite")
    return _frozen(DynamismVector.__new__(DynamismVector), interval=interval, values=values)


@functools.lru_cache(maxsize=32)
def _conjugate_phase(offset: float, n_max: int) -> np.ndarray:
    """The read-only conjugated phase factors conj(exp(-2 pi i n offset)), n = 0..n_max, once per key.

    `offset` is `_t1_turns(interval)`, so every interval with the same
    offset shares one entry and no curve is kept.
    """
    shift = _phase_factors(offset, np.arange(n_max + 1))
    shift.setflags(write=False)
    return shift


# A length N - 1 = q * p whose largest prime factor p exceeds this is transformed as a q x p array: on a
# grid of q >= 2 and primes p from 211 to 7,027, no length with p above it ran slower than its one rfft
_PRIME_FACTOR_BOUND = 700


@functools.lru_cache(maxsize=8)
def _prime_factor_split(m: int) -> tuple[int, int] | None:
    """(q, p) with q * p = m and p the largest prime factor of m, if p > _PRIME_FACTOR_BOUND, q > 1 and p
    does not divide q (so that q and p are coprime); None otherwise."""
    rest, p, f = m, 1, 2
    while f * f <= rest:
        while rest % f == 0:
            rest, p = rest // f, f
        f += 1
    p = max(p, rest)  # a rest above 1 is a prime larger than every factor divided out
    q = m // p
    return (q, p) if p > _PRIME_FACTOR_BOUND and q > 1 and q % p else None


def _good_thomas_bins(v: np.ndarray, dt: float, fold: float, n_max: int, q: int, p: int) -> np.ndarray:
    """conj(rfft(x)[: n_max + 1]) for x = dt * v[:-1] with x[0] = fold, by the prime-factor index map of
    Good (1958) and Thomas (1963): with m = q * p and q, p coprime, bin k of x's length-m DFT is entry
    (k mod q, k mod p) of the 2-D DFT of y[r, i] = x[(i*q + r*p) mod m], and bin m - k is its conjugate."""
    m = q * p
    y = np.empty((q, p))
    for r in range(q):  # with r*p = c*q + b, row r is x[b::q] rotated left by c
        c, b = divmod(r * p, q)
        y[r, : p - c] = v[b + c * q : m : q]
        y[r, p - c :] = v[b : c * q : q]
    y *= dt
    y[0, 0] = fold
    z = np.fft.rfft(y, axis=1)
    del y  # freed before the index arrays below are made: the peak is y and z, as it is x and rfft(x)
    np.fft.fft(z, axis=0, out=z)
    k = np.arange(n_max + 1)
    upper = k % p > p // 2  # past the rfft's half row: bin k is the conjugate of bin m - k, which is in it
    j = np.where(upper, m - k, k)
    w = z[j % q, j % p]
    np.conjugate(w, out=w, where=~upper)
    return w


def analyze(c: LoadCurve, n_max: int, drop_tol: float | None = None) -> Spectrum:
    """Fourier-analyze a curve up to order n_max.

    The analytic path reads coefficients directly (a_n = cos amplitude,
    b_n = sin amplitude, a0 = 2*constant) and is exact; orders above
    n_max are truncated. The sampled path evaluates the coefficient
    integrals

        a_n = (2/T0) * integral of l(t) cos(2 pi n f0 t) dt
        b_n = (2/T0) * integral of l(t) sin(2 pi n f0 t) dt

    by trapezoid quadrature on the sample grid t_i = t1 + i*h, h = T0/(N-1).
    Every order-n harmonic repeats after N-1 steps, so the last sample
    folds onto the first and the quadrature is one real FFT of length N-1:

        x_0 = h*(v_0 + v_{N-1})/2,  x_i = h*v_i  (0 < i < N-1)
        w_n = conj(rfft(x)_n) * conj(exp(-2 pi i n t1/T0))
        a_n = (2/T0) Re w_n,  b_n = (2/T0) Im w_n

    with t1/T0 reduced modulo 1 exactly (`_t1_turns`) before the phase is formed. w_n is the
    conjugate of the phase-shifted bin, so b_n is its imaginary part with
    no sign flip, and `a`, `b` are strided views of the one complex array
    w, not copies. This is the same trapezoid sum an n_max x N cos/sin
    matrix would give, in O(N log N) time and O(N) memory.

    Where N-1 = q*p with p its largest prime factor, p > 700 and p not a
    factor of q > 1 (a year of 15-minute readings: 35,039 = 37 x 947), one
    rfft is slow, and the same sum is formed as a q x p two-dimensional DFT
    by the prime-factor map of Good and Thomas (`_good_thomas_bins`): only
    the last bits differ. Every other length takes the one rfft.

    Where a sum could overflow (peak * (h*N + 2) past half the float maximum),
    v and h are first divided by powers of two near the peak and T0, and the
    sums scaled back by 2/(T0 / 2**e), in (2, 4] where 2/T0 may be subnormal,
    then by the first power: exact, so only a coefficient that overflows
    (refused) or falls below the normal range differs from the plain sum.

    Parameters
    ----------
    c : LoadCurve
        Curve to analyze.
    n_max : int
        Truncation order, an integer >= 1 (bool is refused). Sampled
        curves must satisfy N >= 2*n_max + 2 so order n_max is resolvable
        on the grid, i.e. lies in the rfft output.
    drop_tol : float, optional
        A finite threshold >= 0 (0 keeps every nonzero order). Orders whose
        |a_n| and |b_n| are both at most this threshold are zeroed; a kept
        order keeps both values. Defaults to 1e-12 * norm(c); a sampled
        curve computes that norm only when an order is near it.

    Raises
    ------
    ValueError
        On a non-integer or non-positive n_max, a sampled curve with too
        few points, a NaN, infinite or negative drop_tol, or coefficients
        that overflow.
    """
    n_max = _require_int(n_max, "n_max", 1)
    if drop_tol is not None and not (math.isfinite(drop_tol) and drop_tol >= 0):
        raise ValueError(f"drop_tol must be finite and nonnegative, got {drop_tol}")

    if isinstance(c, AnalyticCurve):
        a0 = 2.0 * c.constant
        coef = np.zeros(2 * n_max)
        kept = c._coef[: 2 * n_max]
        coef[: kept.size] = kept
    else:
        v = c.values
        n_samples = v.size
        if n_samples < 2 * n_max + 2:
            raise ValueError(
                f"insufficient samples for order n_max={n_max}: "
                f"need at least {2 * n_max + 2}, got {n_samples}"
            )
        iv = c.interval
        t0 = iv.duration
        if not math.isfinite(scale := 2.0 / t0):  # inf * 0.0 would make the scaling below warn
            raise ValueError(f"interval [{iv.t1}, {iv.t2}] too short to analyze: 2/T0 overflows")
        dt = t0 / (n_samples - 1)
        s = 1.0
        # each partial sum of the FFT is at most dt * peak * N, and v_0 + v_(N-1) at most 2 peak; past the
        # bound, every sum of v / s and dt / 2**e is below 4, s and 2**e powers of two near the peak and T0
        if c._peak * (dt * n_samples + 2.0) > _SUM_LIMIT:
            s, e = _power_of_two_near(c._peak), math.frexp(t0)[1]
            v, scale = v / s, 2.0 / math.ldexp(t0, -e)
            dt = math.ldexp(t0, -e) / (n_samples - 1)
        fold = 0.5 * dt * (v.item(0) + v.item(-1))
        if n_samples > 2 * _PRIME_FACTOR_BOUND and (split := _prime_factor_split(n_samples - 1)):
            w = _good_thomas_bins(v, dt, fold, n_max, *split)
        else:
            x = dt * v[:-1]
            x[0] = fold
            # a new array, not the rfft buffer conjugated in place: the spectrum's views
            # would keep all N/2 bins alive where it needs n_max + 1
            w = np.conjugate(np.fft.rfft(x)[: n_max + 1])
        # at a phase of 0 the factors are 1 - 0j, kept: skipping them would change the sign of some zeros
        w *= _conjugate_phase(_t1_turns(iv), n_max)
        w *= scale
        if s != 1.0:
            with np.errstate(over="ignore"):  # a coefficient that overflows is refused below
                w *= s
        w = w.view(float)
        a0 = w.item(0)
        coef = w[2:]  # a_1, b_1, a_2, b_2, ...: Re and Im of each w_n, interleaved as bill lines are

    magnitude = np.abs(coef)
    top = np.maximum(magnitude[::2], magnitude[1::2])  # per order: the larger of |a_n| and |b_n|
    # On a sampled curve's trapezoid grid norm(c) <= sqrt(T0) * peak. An order above twice 1e-12
    # times that bound is above 1e-12 * norm(c) with the rounding of the computed norm to spare, so
    # when every order is, the default threshold drops none, and neither norm nor the mask is needed
    if not (
        drop_tol is None
        and isinstance(c, SampledCurve)
        and np.minimum.reduce(top) > 2e-12 * math.sqrt(c.interval.duration) * c._peak
    ):
        # copyto with a mask, not a boolean-index assignment, which builds index arrays on every call
        np.copyto(coef.reshape(n_max, 2).T, 0.0, where=top <= (1e-12 * norm(c) if drop_tol is None else drop_tol))
    # np.maximum carries a NaN through, so the largest magnitude is finite only if every coefficient is
    if not (math.isfinite(a0) and math.isfinite(peak := float(np.maximum.reduce(magnitude)))):
        raise ValueError("spectrum orders and coefficients must be finite")
    spec = Spectrum.__new__(Spectrum)
    coef.setflags(write=False)  # and a and b, its views made below; set directly, not by `_frozen`'s loop
    object.__setattr__(spec, "interval", c.interval)
    object.__setattr__(spec, "a0", a0)
    object.__setattr__(spec, "a", coef[::2])
    object.__setattr__(spec, "b", coef[1::2])
    object.__setattr__(spec, "_coef", coef)  # what `dynamism_payment` bills, as it is
    object.__setattr__(spec, "_peak", peak)
    return spec


def synthesize(s: Spectrum) -> AnalyticCurve:
    """Curve with constant a0/2 and the spectrum's harmonics (the Fourier series), sharing its arrays."""
    return _analytic(s.interval, 0.5 * s.a0, s._coef)


def to_mu_vector(s: Spectrum) -> DynamismVector:
    """Project a spectrum onto the orthonormal basis.

    mu_0 = (a0/2)*sqrt(T0); the order-n cosine coordinate is
    a_n*sqrt(T0/2) and the sine coordinate b_n*sqrt(T0/2). With this
    normalization the sum of squared coordinates equals the squared L2
    norm of the curve.
    """
    t0 = s.interval.duration
    mu = np.empty(1 + 2 * s.n_max)
    mu[0] = 0.5 * s.a0 * np.sqrt(t0)
    np.multiply(s._coef, np.sqrt(0.5 * t0), out=mu[1:])
    return _dense_vector(s.interval, mu)


def parseval_energy(s: Spectrum) -> float:
    """Squared L2 norm implied by the coefficients.

    T0*a0^2/4 + (T0/2)*sum(a_n^2 + b_n^2); equals norm(source)^2 up to
    quadrature error in the coefficients.

    As `norm` does, the coefficients are divided by a power of two near
    their largest magnitude before they are squared, so coefficients whose
    squares overflow give inf without a warning. Scaling by a power of two
    is exact, so wherever no square overflows or underflows the result is
    the unscaled sum bit for bit.
    """
    m, q = _scaled_parseval(s.interval.duration, 0.5 * s.a0, s._coef)
    return m * (m * q)


def _parseval_check(curve: LoadCurve, spec: Spectrum) -> tuple[float, float, float | None]:
    """(pe, nsq, ratio): the spectrum's Parseval energy, the curve's squared norm and pe / nsq (None if nsq is 0)."""
    # Both energies are formed from values divided by a power of two near their peak, m or s, so a
    # curve whose squares overflow still gets its ratio. Scaling is exact: in range, pe is
    # parseval_energy(spec), nsq is inner_product(curve, curve) and ratio is pe / nsq.
    m, p = _scaled_parseval(spec.interval.duration, 0.5 * spec.a0, spec._coef)
    pe = m * (m * p)
    s, q = _scaled_square_norm(curve)
    nsq = s * (s * q)
    if not (math.isfinite(p) and math.isfinite(q)):  # T0 times a mean square overflows: the ratio on [0, 1]
        p, q = _scaled_parseval(1.0, 0.5 * spec.a0, spec._coef)[1], _scaled_square_norm(curve, _UNIT)[1]
    ratio = (m / s) * ((m / s) * p) / q if q > 0 else None
    return pe, nsq, ratio


def truncation_error(c: LoadCurve, s: Spectrum) -> float:
    """L2 distance between a curve and its reconstruction from a spectrum."""
    return distance(c, synthesize(s))
