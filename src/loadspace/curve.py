"""Load curves on a fixed time interval and their L2 vector algebra.

A load curve is a real-valued power trajectory l(t) on [t1, t2]. Two
representations are supported: trigonometric polynomials whose harmonics
are integer multiples of the interval's fundamental frequency f0 = 1/T0
(AnalyticCurve), and uniformly sampled series (SampledCurve). Analytic
curves admit exact integrals and inner products; sampled curves fall back
to composite trapezoid quadrature on their grid.

All types are immutable and every operation is a pure function, so values
can be shared freely across threads.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

__all__ = [
    "Interval",
    "Harmonic",
    "AnalyticCurve",
    "SampledCurve",
    "LoadCurve",
    "add",
    "scale",
    "evaluate",
    "sample",
    "inner_product",
    "norm",
    "distance",
    "energy",
    "average_power",
    "integrate",
]


@dataclass(frozen=True)
class Interval:
    """Closed time interval [t1, t2] with t1 < t2 strictly."""

    t1: float
    t2: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t1) and math.isfinite(self.t2)):
            raise ValueError("interval endpoints must be finite")
        if not self.t1 < self.t2:
            raise ValueError(f"interval requires t1 < t2, got [{self.t1}, {self.t2}]")

    @property
    def duration(self) -> float:
        """Length T0 = t2 - t1."""
        return self.t2 - self.t1

    @property
    def f0(self) -> float:
        """Fundamental frequency 1/T0; every harmonic is an integer multiple."""
        return 1.0 / self.duration


class Harmonic(NamedTuple):
    """One harmonic component: cos_amp*cos(2*pi*n*f0*t) + sin_amp*sin(2*pi*n*f0*t)."""

    order: int
    cos_amp: float
    sin_amp: float


def _require_int(value, name: str) -> int:
    """`value` as an int; ValueError unless it is an integer (bool is refused)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _frozen(obj, **fields):
    """Set a frozen instance's fields and return it; arrays are stored as given (no copy), read-only."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            # not `value.flags.writeable = False`: that setter looks `setflags` up by a
            # name string made per call, and CPython's type attribute cache keeps such
            # strings alive, so a fleet of small meters piles up traced memory
            value.setflags(write=False)
        object.__setattr__(obj, name, value)
    return obj


def _canonical_harmonics(harmonics) -> tuple[Harmonic, ...]:
    """Sort by order, validate, and drop components that are exactly zero."""
    seen: set[int] = set()
    kept: list[Harmonic] = []
    for h in harmonics:
        h = Harmonic(_require_int(h[0], "harmonic order"), float(h[1]), float(h[2]))
        if h.order < 1:
            raise ValueError(f"harmonic order must be >= 1, got {h.order}")
        if h.order in seen:
            raise ValueError(f"duplicate harmonic order {h.order}")
        if not (math.isfinite(h.cos_amp) and math.isfinite(h.sin_amp)):
            raise ValueError(f"harmonic {h.order} has non-finite amplitude")
        seen.add(h.order)
        if h.cos_amp != 0.0 or h.sin_amp != 0.0:
            kept.append(h)
    return tuple(sorted(kept, key=lambda h: h.order))


@dataclass(frozen=True)
class AnalyticCurve:
    """Trig polynomial: constant + sum of harmonics aligned with f0 = 1/T0.

    Alignment means each component completes a whole number of periods on
    the interval, so its integral over [t1, t2] is exactly zero and Fourier
    analysis reads coefficients off directly. Arbitrary closed forms must
    be sampled first.
    """

    interval: Interval
    constant: float
    harmonics: tuple[Harmonic, ...] = ()

    def __post_init__(self) -> None:
        if not math.isfinite(self.constant):
            raise ValueError("constant term must be finite")
        object.__setattr__(self, "harmonics", _canonical_harmonics(self.harmonics))


@dataclass(frozen=True, eq=False)
class SampledCurve:
    """Power samples on the uniform grid t_i = t1 + i*(T0/(N-1)), i = 0..N-1."""

    interval: Interval
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise ValueError("sample values must be one-dimensional")
        if v.size < 2:
            raise ValueError(f"need at least 2 samples, got {v.size}")
        if not np.isfinite(v).all():
            raise ValueError("sample values must be finite")
        _frozen(self, values=v.copy())

    def times(self) -> np.ndarray:
        """The sample grid, endpoints included."""
        return np.linspace(self.interval.t1, self.interval.t2, self.values.size)


LoadCurve = Union[AnalyticCurve, SampledCurve]


def _require_same_interval(c1: LoadCurve, c2: LoadCurve) -> Interval:
    if c1.interval != c2.interval:
        raise ValueError(
            f"incompatible intervals: [{c1.interval.t1}, {c1.interval.t2}] "
            f"vs [{c2.interval.t1}, {c2.interval.t2}]"
        )
    return c1.interval


def sample(c: AnalyticCurve, n: int) -> SampledCurve:
    """Render an analytic curve onto an n-point uniform grid."""
    if _require_int(n, "sample count") < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    t = np.linspace(c.interval.t1, c.interval.t2, n)
    return SampledCurve(c.interval, _evaluate_analytic(c, t))


def _evaluate_analytic(c: AnalyticCurve, t: np.ndarray) -> np.ndarray:
    out = np.full_like(t, c.constant, dtype=float)
    w0 = 2.0 * np.pi * c.interval.f0
    for n, ca, sa in c.harmonics:
        phase = (w0 * n) * t
        if ca != 0.0:
            out += ca * np.cos(phase)
        if sa != 0.0:
            out += sa * np.sin(phase)
    return out


def evaluate(c: LoadCurve, t):
    """Evaluate a curve at time t (scalar or array) inside its interval.

    Analytic curves use the closed form; sampled curves interpolate
    linearly between neighboring grid points. Times outside [t1, t2],
    NaN included, raise ValueError.
    """
    ts = np.asarray(t, dtype=float)
    iv = c.interval
    if not np.all((iv.t1 <= ts) & (ts <= iv.t2)):
        raise ValueError(f"time outside interval [{iv.t1}, {iv.t2}]")
    if isinstance(c, AnalyticCurve):
        out = _evaluate_analytic(c, ts)
    else:
        out = np.interp(ts, c.times(), c.values)
    return float(out) if np.isscalar(t) or ts.ndim == 0 else out


def _common_grid(c1: LoadCurve, c2: LoadCurve) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Align two curves (at least one sampled) on the finer of their grids."""
    n1 = c1.values.size if isinstance(c1, SampledCurve) else 0
    n2 = c2.values.size if isinstance(c2, SampledCurve) else 0
    n = max(n1, n2)
    t = np.linspace(c1.interval.t1, c1.interval.t2, n)

    def on_grid(c: LoadCurve) -> np.ndarray:
        if isinstance(c, AnalyticCurve):
            return _evaluate_analytic(c, t)
        if c.values.size == n:
            return c.values
        return np.interp(t, c.times(), c.values)

    return t, on_grid(c1), on_grid(c2)


def add(c1: LoadCurve, c2: LoadCurve) -> LoadCurve:
    """Pointwise sum of two curves on the same interval.

    Analytic + analytic merges harmonics by order and stays analytic.
    If either operand is sampled, both are resampled onto the finer grid
    and added there; the grid is the resolution bottleneck regardless.
    """
    iv = _require_same_interval(c1, c2)
    if isinstance(c1, AnalyticCurve) and isinstance(c2, AnalyticCurve):
        merged: dict[int, list[float]] = {}
        for h in c1.harmonics + c2.harmonics:
            amp = merged.setdefault(h.order, [0.0, 0.0])
            amp[0] += h.cos_amp
            amp[1] += h.sin_amp
        harmonics = tuple(Harmonic(n, ca, sa) for n, (ca, sa) in merged.items())
        return AnalyticCurve(iv, c1.constant + c2.constant, harmonics)
    _, v1, v2 = _common_grid(c1, c2)
    return SampledCurve(iv, v1 + v2)


def scale(a: float, c: LoadCurve) -> LoadCurve:
    """Scalar multiple a*c."""
    if isinstance(c, AnalyticCurve):
        harmonics = tuple(Harmonic(h.order, a * h.cos_amp, a * h.sin_amp) for h in c.harmonics)
        return AnalyticCurve(c.interval, a * c.constant, harmonics)
    return SampledCurve(c.interval, a * c.values)


def _trapezoid(values: np.ndarray, t1: float, t2: float) -> float:
    dt = (t2 - t1) / (values.size - 1)
    return float(dt * (values.sum() - 0.5 * (values[0] + values[-1])))


def inner_product(c1: LoadCurve, c2: LoadCurve) -> float:
    """Inner product (c1, c2) = integral of c1(t)*c2(t) over [t1, t2].

    For two analytic curves the value is exact: distinct harmonics are
    orthogonal, each harmonic is orthogonal to the constant, and matching
    orders contribute (T0/2)*(cos_amp1*cos_amp2 + sin_amp1*sin_amp2).
    Any sampled operand drops the computation onto the finer grid with
    composite trapezoid quadrature.

    Parameters
    ----------
    c1, c2 : LoadCurve
        Curves on the same interval.

    Returns
    -------
    float
        The L2 inner product. Symmetric and bilinear; (c, c) >= 0.

    Raises
    ------
    ValueError
        If the intervals differ.
    """
    iv = _require_same_interval(c1, c2)
    if isinstance(c1, AnalyticCurve) and isinstance(c2, AnalyticCurve):
        total = iv.duration * c1.constant * c2.constant
        amps2 = {h.order: (h.cos_amp, h.sin_amp) for h in c2.harmonics}
        for n, ca, sa in c1.harmonics:
            if n in amps2:
                cb, sb = amps2[n]
                total += 0.5 * iv.duration * (ca * cb + sa * sb)
        return total
    t, v1, v2 = _common_grid(c1, c2)
    return _trapezoid(v1 * v2, iv.t1, iv.t2)


def _power_of_two_near(peak: float) -> float:
    """2**e with peak / 2**e in [1, 2), or 1 for a zero peak; dividing by it is exact."""
    return math.ldexp(1.0, math.frexp(peak)[1] - 1) if peak > 0 else 1.0


def norm(c: LoadCurve) -> float:
    """L2 norm sqrt((c, c)); zero exactly for the zero curve.

    As `math.hypot` does, the values are divided by a power of two near
    their largest magnitude before they are squared, so a finite curve
    whose squares would overflow (or underflow) still gets its finite,
    nonzero norm. Scaling by a power of two is exact, so wherever no
    square overflows or underflows the result is sqrt(inner_product(c, c))
    bit for bit.
    """
    s, total = _scaled_square_norm(c)
    return s * math.sqrt(total)


def _scaled_square_norm(c: LoadCurve) -> tuple[float, float]:
    """(s, q): s a power of two near the curve's peak, q = (c, c)/s**2 from the values divided by s.

    s * (s * q) is inner_product(c, c) bit for bit wherever that neither overflows nor underflows.
    """
    iv = c.interval
    if isinstance(c, AnalyticCurve):
        amps = [abs(c.constant), *(abs(a) for h in c.harmonics for a in (h.cos_amp, h.sin_amp))]
        s = _power_of_two_near(max(amps))
        a0 = c.constant / s
        total = iv.duration * a0 * a0
        for _, ca, sa in c.harmonics:
            ca, sa = ca / s, sa / s
            total += 0.5 * iv.duration * (ca * ca + sa * sa)
    else:
        s = _power_of_two_near(float(np.abs(c.values).max()))
        w = c.values / s
        w *= w
        total = _trapezoid(w, iv.t1, iv.t2)
    return s, total


def distance(c1: LoadCurve, c2: LoadCurve) -> float:
    """L2 distance norm(c1 - c2) between curves on the same interval."""
    return norm(add(c1, scale(-1.0, c2)))


def energy(c: LoadCurve) -> float:
    """Integral of the curve over its interval.

    Exactly T0*constant for analytic curves, since every aligned harmonic
    integrates to zero over the full interval.
    """
    if isinstance(c, AnalyticCurve):
        return c.interval.duration * c.constant
    return _trapezoid(c.values, c.interval.t1, c.interval.t2)


def average_power(c: LoadCurve) -> float:
    """Mean power energy(c) / T0."""
    return energy(c) / c.interval.duration


def integrate(c: LoadCurve, lo: float, hi: float) -> float:
    """Integral of the curve over a sub-interval [lo, hi].

    Analytic curves use the closed-form antiderivative. Sampled curves
    integrate their linear interpolant exactly, splitting at every grid
    point that falls strictly inside (lo, hi); as a consequence the
    integrals over the cells of any partition of [t1, t2] sum exactly
    (up to rounding) to the full-interval integral.

    Raises
    ------
    ValueError
        If a bound is not finite, [lo, hi] is not contained in the curve's
        interval, or lo > hi.
    """
    iv = c.interval
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"integration bounds must be finite, got [{lo}, {hi}]")
    if lo > hi:
        raise ValueError(f"integration bounds out of order: {lo} > {hi}")
    if lo < iv.t1 or hi > iv.t2:
        raise ValueError(f"integration bounds outside interval [{iv.t1}, {iv.t2}]")
    if lo == hi:
        return 0.0
    if isinstance(c, AnalyticCurve):
        total = c.constant * (hi - lo)
        w0 = 2.0 * np.pi * iv.f0
        for n, ca, sa in c.harmonics:
            w = w0 * n
            total += ca * (math.sin(w * hi) - math.sin(w * lo)) / w
            total += sa * (math.cos(w * lo) - math.cos(w * hi)) / w
        return float(total)
    t = c.times()
    inside = t[(t > lo) & (t < hi)]
    knots = np.concatenate(([lo], inside, [hi]))
    v = np.interp(knots, t, c.values)
    return float(0.5 * np.sum((knots[1:] - knots[:-1]) * (v[1:] + v[:-1])))


def _antiderivative(c: LoadCurve, bounds: np.ndarray) -> np.ndarray:
    """An antiderivative F of the curve at every entry of `bounds`, in one pass.

    `bounds` must lie inside the curve's interval; only differences of F
    are meaningful, and F(hi) - F(lo) is the integral over [lo, hi].
    Analytic curves use the closed form `integrate` uses, vectorised over
    the bounds. Sampled curves take the cumulative trapezoid sum at the
    grid points and add the linear interpolant's integral over the partial
    cell each bound closes, found by binary search. Time and memory are
    O(N + len(bounds)).
    """
    iv = c.interval
    if isinstance(c, AnalyticCurve):
        out = c.constant * (bounds - iv.t1)
        w0 = 2.0 * np.pi * iv.f0
        for n, ca, sa in c.harmonics:
            w = w0 * n
            out += (ca * np.sin(w * bounds) - sa * np.cos(w * bounds)) / w
        return out
    t, v = c.times(), c.values
    dt = t[1:] - t[:-1]
    # ufuncs and t.searchsorted, not np.cumsum, np.clip and np.searchsorted: those reach
    # numpy through per-call name lookups whose objects CPython keeps alive (see _frozen)
    cumulative = np.concatenate(([0.0], np.add.accumulate(0.5 * dt * (v[1:] + v[:-1]))))
    k = t.searchsorted(bounds, side="right") - 1
    np.minimum(np.maximum(k, 0, out=k), v.size - 2, out=k)
    step = bounds - t[k]
    slope = (v[k + 1] - v[k]) / dt[k]
    return cumulative[k] + step * (v[k] + 0.5 * slope * step)
