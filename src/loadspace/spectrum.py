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

import bisect
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .curve import AnalyticCurve, Harmonic, Interval, LoadCurve, distance, norm

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


@dataclass(frozen=True)
class Spectrum:
    """Truncated Fourier description of a curve: a0 plus (order, a_n, b_n) pairs."""

    interval: Interval
    a0: float
    harmonics: tuple[Harmonic, ...]
    n_max: int

    def __post_init__(self) -> None:
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        ordered = tuple(sorted((Harmonic(*h) for h in self.harmonics), key=lambda h: h.order))
        seen = set()
        for h in ordered:
            if h.order in seen:
                raise ValueError(f"duplicate harmonic order {h.order}")
            if not 1 <= h.order <= self.n_max:
                raise ValueError(f"harmonic order {h.order} outside 1..{self.n_max}")
            seen.add(h.order)
        object.__setattr__(self, "harmonics", ordered)

    def coefficient(self, n: int) -> tuple[float, float]:
        """(a_n, b_n) for order n; (0, 0) when the order is absent.

        Binary search over the harmonics, which are sorted by order.
        """
        i = bisect.bisect_left(self.harmonics, n, key=lambda h: h.order)
        if i < len(self.harmonics) and self.harmonics[i].order == n:
            h = self.harmonics[i]
            return (h.cos_amp, h.sin_amp)
        return (0.0, 0.0)


class MuCoord(NamedTuple):
    index: int
    value: float


@dataclass(frozen=True)
class DynamismVector:
    """Sparse coordinates mu_k of a curve in the orthonormal basis."""

    interval: Interval
    coords: tuple[MuCoord, ...]

    def __post_init__(self) -> None:
        ordered = tuple(sorted((MuCoord(int(k), float(v)) for k, v in self.coords)))
        indices = [c.index for c in ordered]
        if indices and indices[0] < 0:
            raise ValueError("coordinate indices must be >= 0")
        if len(set(indices)) != len(indices):
            raise ValueError("duplicate coordinate index")
        object.__setattr__(self, "coords", ordered)

    def dense(self, size: int | None = None) -> np.ndarray:
        """Coordinates as a dense vector of the given length (default: minimal)."""
        needed = 1 + max((c.index for c in self.coords), default=0)
        if size is None:
            size = needed
        elif size < needed:
            raise ValueError(f"size {size} too small for coordinate index {needed - 1}")
        out = np.zeros(size)
        for k, v in self.coords:
            out[k] = v
        return out


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
        Harmonics with |a_n| and |b_n| both below this threshold are
        omitted from the result. Defaults to 1e-12 * norm(c).

    Raises
    ------
    ValueError
        On a non-integer or non-positive n_max, or a sampled curve with
        too few points.
    """
    if isinstance(n_max, bool) or not isinstance(n_max, numbers.Integral):
        raise ValueError(f"n_max must be an integer, got {n_max!r}")
    n_max = int(n_max)
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if drop_tol is None:
        drop_tol = 1e-12 * norm(c)

    if isinstance(c, AnalyticCurve):
        a0 = 2.0 * c.constant
        pairs = [h for h in c.harmonics if h.order <= n_max]
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
        orders = np.arange(n_max + 1)
        shift = np.exp(-2j * np.pi * ((iv.t1 / iv.duration) % 1.0) * orders)
        z = (2.0 / iv.duration) * (np.fft.rfft(x)[: n_max + 1] * shift)
        a0 = float(z[0].real)
        pairs = [
            Harmonic(n, a, b)
            for n, a, b in zip(range(1, n_max + 1), z.real[1:].tolist(), (-z.imag[1:]).tolist())
        ]

    kept = tuple(
        h for h in pairs if abs(h.cos_amp) > drop_tol or abs(h.sin_amp) > drop_tol
    )
    return Spectrum(c.interval, a0, kept, n_max)


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
    coords = [MuCoord(0, 0.5 * s.a0 * np.sqrt(t0))]
    half = np.sqrt(0.5 * t0)
    for n, a, b in s.harmonics:
        coords.append(MuCoord(mu_index_cos(n), a * half))
        coords.append(MuCoord(mu_index_sin(n), b * half))
    return DynamismVector(s.interval, tuple(coords))


def parseval_energy(s: Spectrum) -> float:
    """Squared L2 norm implied by the coefficients.

    T0*a0^2/4 + (T0/2)*sum(a_n^2 + b_n^2); equals norm(source)^2 up to
    quadrature error in the coefficients.
    """
    t0 = s.interval.duration
    acc = t0 * s.a0 * s.a0 / 4.0
    for _, a, b in s.harmonics:
        acc += 0.5 * t0 * (a * a + b * b)
    return acc


def truncation_error(c: LoadCurve, s: Spectrum) -> float:
    """L2 distance between a curve and its reconstruction from a spectrum."""
    return distance(c, synthesize(s))
