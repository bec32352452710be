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
    Harmonic,
    Interval,
    LoadCurve,
    _frozen,
    _power_of_two_near,
    _require_int,
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


def _indices(column: np.ndarray, name: str) -> np.ndarray:
    """A finite float column of indices as integers; ValueError on a fraction or a repeat."""
    index = column.astype(np.intp)
    if np.any(index != column):
        raise ValueError(f"every {name} must be an integer")
    ordered = np.sort(index)
    repeated = ordered[1:][ordered[1:] == ordered[:-1]]
    if repeated.size:
        raise ValueError(f"duplicate {name} {repeated[0]}")
    return index


@dataclass(frozen=True, init=False, eq=False)
class Spectrum:
    """Truncated Fourier description of a curve on its interval.

    Stored densely: a0 plus read-only float arrays `a` and `b` of length
    n_max, where a[n-1], b[n-1] are the cosine and sine coefficients of
    order n and every absent order holds zeros. The constructor takes the
    present orders as (order, a_n, b_n) rows, Harmonic tuples or a (k, 3)
    array; `n_max`, `harmonics` and `coefficient` are views of the arrays.
    Two spectra are equal when interval, a0 and both arrays are.
    """

    interval: Interval
    a0: float
    a: np.ndarray
    b: np.ndarray

    def __init__(self, interval: Interval, a0: float, harmonics, n_max: int) -> None:
        n_max = _require_int(n_max, "n_max")
        if n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {n_max}")
        rows = np.asarray(harmonics, dtype=float).reshape(-1, 3)
        if not (np.isfinite(a0) and np.all(np.isfinite(rows))):
            raise ValueError("spectrum orders and coefficients must be finite")
        orders = _indices(rows[:, 0], "harmonic order")
        outside = orders[(orders < 1) | (orders > n_max)]
        if outside.size:
            raise ValueError(f"harmonic order {outside[0]} outside 1..{n_max}")
        ab = np.zeros((2, n_max))
        ab[:, orders - 1] = rows[:, 1:].T
        _frozen(self, interval=interval, a0=float(a0), a=ab[0], b=ab[1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Spectrum):
            return NotImplemented
        same = (self.interval, self.a0) == (other.interval, other.a0)
        return same and np.array_equal(self.a, other.a) and np.array_equal(self.b, other.b)

    @property
    def n_max(self) -> int:
        """Truncation order: the length of `a` and `b`."""
        return self.a.size

    @property
    def harmonics(self) -> tuple[Harmonic, ...]:
        """The orders with a nonzero coefficient, ascending, as Harmonic tuples."""
        present = np.flatnonzero((self.a != 0.0) | (self.b != 0.0))
        return tuple(
            Harmonic(n, a, b)
            for n, a, b in zip((present + 1).tolist(), self.a[present].tolist(), self.b[present].tolist())
        )

    def coefficient(self, n: int) -> tuple[float, float]:
        """(a_n, b_n) for order n; (0, 0) when the order is absent."""
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
    array, and the array runs up to the largest index given.
    `coords` is a sparse view: index 0 plus every nonzero coordinate.
    """

    interval: Interval
    values: np.ndarray

    def __init__(self, interval: Interval, coords) -> None:
        pairs = np.asarray(coords, dtype=float).reshape(-1, 2)
        if not np.all(np.isfinite(pairs)):
            raise ValueError("coordinate indices and values must be finite")
        index = _indices(pairs[:, 0], "coordinate index")
        if index.size and index.min() < 0:
            raise ValueError("coordinate indices must be >= 0")
        values = np.zeros(1 + (int(index.max()) if index.size else 0))
        values[index] = pairs[:, 1]
        _frozen(self, interval=interval, values=values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DynamismVector):
            return NotImplemented
        return self.interval == other.interval and self.coords == other.coords

    @property
    def coords(self) -> tuple[MuCoord, ...]:
        """Index 0 and every nonzero coordinate, ascending, as MuCoord tuples."""
        index = [0, *(np.flatnonzero(self.values[1:]) + 1).tolist()]
        return tuple(MuCoord(k, v) for k, v in zip(index, self.values[index].tolist()))

    def dense(self, size: int | None = None) -> np.ndarray:
        """Coordinates as a new dense vector of the given length (default: the stored one).

        A size below the last nonzero coordinate raises ValueError.
        """
        if size is None:
            size = self.values.size
        if np.any(self.values[size:]):
            raise ValueError(f"size {size} too small for coordinate index {np.flatnonzero(self.values)[-1]}")
        out = np.zeros(size)
        out[: min(size, self.values.size)] = self.values[:size]
        return out


def _spectrum(interval: Interval, a0: float, ab: np.ndarray) -> Spectrum:
    """The Spectrum with coefficient arrays (a, b) = ab, stored as given, not copied."""
    return _frozen(Spectrum.__new__(Spectrum), interval=interval, a0=float(a0), a=ab[0], b=ab[1])


def _dense_vector(interval: Interval, values: np.ndarray) -> DynamismVector:
    """The DynamismVector whose coordinate k is values[k], stored as given, not copied."""
    if not np.all(np.isfinite(values)):
        raise ValueError("coordinate indices and values must be finite")
    return _frozen(DynamismVector.__new__(DynamismVector), interval=interval, values=values)


@functools.lru_cache(maxsize=32)
def _phase(offset: float, n_max: int) -> np.ndarray:
    """The read-only phase factors exp(-2 pi i n offset), n = 0..n_max, computed once per key.

    `offset` is t1/T0 reduced modulo 1, so every interval with the same
    offset shares one entry and no curve is kept.
    """
    shift = np.exp(-2j * np.pi * offset * np.arange(n_max + 1))
    shift.setflags(write=False)
    return shift


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
        z_n = exp(-2 pi i n t1/T0) * rfft(x)_n
        a_n = (2/T0) Re z_n,  b_n = -(2/T0) Im z_n

    with t1/T0 reduced modulo 1 before the phase is formed. This is the
    same trapezoid sum an n_max x N cos/sin matrix would give, in
    O(N log N) time and O(N) memory.

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
        order keeps both values. Defaults to 1e-12 * norm(c).

    Raises
    ------
    ValueError
        On a non-integer or non-positive n_max, a sampled curve with too
        few points, a NaN, infinite or negative drop_tol, or coefficients
        that overflow.
    """
    n_max = _require_int(n_max, "n_max")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if drop_tol is None:
        drop_tol = 1e-12 * norm(c)
    elif not (math.isfinite(drop_tol) and drop_tol >= 0):
        raise ValueError(f"drop_tol must be finite and nonnegative, got {drop_tol}")

    if isinstance(c, AnalyticCurve):
        a0 = 2.0 * c.constant
        ab = np.zeros((2, n_max))
        for n, ca, sa in c.harmonics:
            if n <= n_max:
                ab[:, n - 1] = ca, sa
    else:
        v = c.values
        n_samples = v.size
        if n_samples < 2 * n_max + 2:
            raise ValueError(
                f"insufficient samples for order n_max={n_max}: "
                f"need at least {2 * n_max + 2}, got {n_samples}"
            )
        iv = c.interval
        dt = iv.duration / (n_samples - 1)
        x = dt * v[:-1]
        x[0] = 0.5 * dt * (v[0] + v[-1])
        z = np.fft.rfft(x)[: n_max + 1]
        z *= _phase((iv.t1 / iv.duration) % 1.0, n_max)
        z *= 2.0 / iv.duration
        a0 = float(z[0].real)
        ab = np.stack((z.real[1:], -z.imag[1:]))

    # copyto with a mask, not a boolean-index assignment, which builds index arrays on every call
    np.copyto(ab, 0.0, where=(np.abs(ab) <= drop_tol).all(axis=0))
    if not (math.isfinite(a0) and np.isfinite(ab).all()):
        raise ValueError("spectrum orders and coefficients must be finite")
    return _spectrum(c.interval, a0, ab)


def synthesize(s: Spectrum) -> AnalyticCurve:
    """Curve with constant a0/2 and the spectrum's harmonics (the Fourier series)."""
    return AnalyticCurve(s.interval, 0.5 * s.a0, s.harmonics)


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
    half = np.sqrt(0.5 * t0)
    mu[1::2] = s.a * half
    mu[2::2] = s.b * half
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
    t0 = s.interval.duration
    m = _power_of_two_near(max(abs(s.a0), float(np.max(np.abs(s.a))), float(np.max(np.abs(s.b)))))
    a0, a, b = s.a0 / m, s.a / m, s.b / m
    return m * (m * (t0 * a0 * a0 / 4.0 + 0.5 * t0 * float(a @ a + b @ b)))


def truncation_error(c: LoadCurve, s: Spectrum) -> float:
    """L2 distance between a curve and its reconstruction from a spectrum."""
    return distance(c, synthesize(s))
