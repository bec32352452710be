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
        if not math.isfinite(self.t2 - self.t1):
            raise ValueError(f"interval length must be finite, got [{self.t1}, {self.t2}]")

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


def _uniform_grid(interval: Interval, num: int) -> np.ndarray:
    """np.linspace(t1, t2, num) for num >= 2, bit for bit: the same arithmetic without its per-call overhead."""
    step = interval.duration / (num - 1)
    if step == 0.0:  # a subnormal interval, which linspace scales in another order
        return np.linspace(interval.t1, interval.t2, num)
    grid = np.arange(num) * step
    grid += interval.t1
    grid[-1] = interval.t2
    return grid


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


def _harmonic_arrays(constant: float, harmonics, n_max: int) -> np.ndarray:
    """Outside (order, a_n, b_n) rows (tuples or a (k, 3) array) as a new (2, n_max) array, order n in column n-1.

    ValueError on a non-finite constant or value, or an order that is not an
    integer, repeats, or is outside 1..n_max.
    """
    rows = np.asarray(harmonics, dtype=float).reshape(-1, 3)
    if not (math.isfinite(constant) and np.all(np.isfinite(rows))):
        raise ValueError("constant, harmonic orders and amplitudes must be finite")
    orders = _indices(rows[:, 0], "harmonic order")
    outside = orders[(orders < 1) | (orders > n_max)]
    if outside.size:
        raise ValueError(f"harmonic order {outside[0]} outside 1..{n_max}")
    ab = np.zeros((2, n_max))
    ab[:, orders - 1] = rows[:, 1:].T
    return ab


@dataclass(frozen=True, init=False, eq=False)
class AnalyticCurve:
    """Trig polynomial: constant + sum of harmonics aligned with f0 = 1/T0.

    Alignment means each component completes a whole number of periods on
    the interval, so its integral over [t1, t2] is exactly zero and Fourier
    analysis reads coefficients off directly. Arbitrary closed forms must
    be sampled first.

    Stored as a Spectrum is (`harmonics` is a view): the constant plus
    read-only float arrays `a`, `b`, order n at position n-1, zeros where
    absent, up to the highest order (at most 2**20). Equal when interval,
    constant and harmonics are.
    """

    interval: Interval
    constant: float
    a: np.ndarray
    b: np.ndarray

    def __init__(self, interval: Interval, constant: float, harmonics=()) -> None:
        # stricter than Spectrum: 2.0, True and np.float64(3.0) are not orders of a curve
        rows = [(_require_int(h[0], "harmonic order"), h[1], h[2]) for h in harmonics]
        n_max = max((row[0] for row in rows), default=0)
        if n_max > 2**20:
            raise ValueError(f"harmonic order {n_max} outside 1..{2**20}")
        ab = _harmonic_arrays(constant, rows, n_max)
        _frozen(self, interval=interval, constant=float(constant), a=ab[0], b=ab[1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, AnalyticCurve):
            return NotImplemented
        return (self.interval, self.constant, self.harmonics) == (other.interval, other.constant, other.harmonics)

    @property
    def harmonics(self) -> tuple[Harmonic, ...]:
        """The orders with a nonzero entry in `a` or `b`, ascending, as Harmonic tuples."""
        present = _present(self)
        return tuple(
            Harmonic(n, a, b)
            for n, a, b in zip((present + 1).tolist(), self.a[present].tolist(), self.b[present].tolist())
        )


def _present(c) -> np.ndarray:
    """Positions n - 1 of the orders n whose a_n or b_n is nonzero, ascending (an AnalyticCurve or a Spectrum)."""
    return np.flatnonzero((c.a != 0.0) | (c.b != 0.0))


def _analytic(interval: Interval, constant: float, ab) -> AnalyticCurve:
    """The AnalyticCurve with amplitude arrays (a, b) = ab, stored as given, not copied; ValueError unless finite."""
    if not (math.isfinite(constant) and np.isfinite(ab[0]).all() and np.isfinite(ab[1]).all()):
        raise ValueError("curve amplitudes must be finite")
    curve = AnalyticCurve.__new__(AnalyticCurve)
    return _frozen(curve, interval=interval, constant=float(constant), a=ab[0], b=ab[1])


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
        if not np.logical_and.reduce(np.isfinite(v)):
            raise ValueError("sample values must be finite")
        _frozen(self, values=v.copy())

    def times(self) -> np.ndarray:
        """The sample grid, endpoints included."""
        return _uniform_grid(self.interval, self.values.size)


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
    t = _uniform_grid(c.interval, n)
    return SampledCurve(c.interval, _evaluate_analytic(c, t))


def _evaluate_analytic(c: AnalyticCurve, t: np.ndarray) -> np.ndarray:
    out = np.full_like(t, c.constant, dtype=float)
    w0 = 2.0 * np.pi * c.interval.f0
    for i in _present(c).tolist():
        phase = (w0 * (i + 1)) * t
        if c.a[i] != 0.0:
            out += c.a[i] * np.cos(phase)
        if c.b[i] != 0.0:
            out += c.b[i] * np.sin(phase)
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
    t = _uniform_grid(c1.interval, n)

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
        ab = np.zeros((2, max(c1.a.size, c2.a.size)))
        for c in (c1, c2):
            ab[:, : c.a.size] += (c.a, c.b)
        return _analytic(iv, c1.constant + c2.constant, ab)
    _, v1, v2 = _common_grid(c1, c2)
    return SampledCurve(iv, v1 + v2)


def scale(a: float, c: LoadCurve) -> LoadCurve:
    """Scalar multiple a*c; ValueError unless a is finite."""
    if not math.isfinite(a):
        raise ValueError(f"scale factor must be finite, got {a}")
    if isinstance(c, AnalyticCurve):
        return _analytic(c.interval, a * c.constant, (a * c.a, a * c.b))
    return SampledCurve(c.interval, a * c.values)


def _trapezoid(values: np.ndarray, t1: float, t2: float) -> float:
    dt = (t2 - t1) / (values.size - 1)
    return float(dt * (np.add.reduce(values) - 0.5 * (values[0] + values[-1])))


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
        n = min(c1.a.size, c2.a.size)
        dot = c1.a[:n] @ c2.a[:n] + c1.b[:n] @ c2.b[:n]
        return iv.duration * c1.constant * c2.constant + 0.5 * iv.duration * float(dot)
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
    if isinstance(c, AnalyticCurve):
        return _scaled_parseval(c.interval.duration, c.constant, c.a, c.b)
    s = _power_of_two_near(float(np.maximum.reduce(np.abs(c.values))))
    w = c.values / s
    w *= w
    return s, _trapezoid(w, c.interval.t1, c.interval.t2)


def _scaled_parseval(t0: float, constant: float, a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """`_scaled_square_norm` of constant + sum_n (a_n cos + b_n sin) on length t0, from Parseval and no curve."""
    s = _power_of_two_near(float(np.maximum.reduce(np.abs(np.concatenate(([constant], a, b))))))
    c0, a, b = constant / s, a / s, b / s
    return s, t0 * c0 * c0 + 0.5 * t0 * float(a @ a + b @ b)


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

    Computed as spot billing computes its cycles: the closed form for
    analytic curves, and for sampled curves the exact integral of the
    linear interpolant on the grid t1 + i*h, h = T0/(N-1), the trapezoid
    rule `energy` and `analyze` use. Integrals over the cells of any
    partition of [t1, t2] therefore sum (up to rounding) to the
    full-interval integral.

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
    return float(_integrals(c, np.array([lo, hi]))[0])


def _integrals(c: LoadCurve, bounds: np.ndarray, layout=None) -> np.ndarray:
    """Integrals of the curve between consecutive entries of `bounds`, in one pass.

    `bounds` must be ascending and inside the curve's interval (this is not
    checked). Analytic curves take differences of the closed-form
    antiderivative in offsets from t1. Sampled curves integrate their linear
    interpolant on the knots `_sample_layout` merges (`layout` is that
    layout, if given), each integral summing its own trapezoid pieces, with
    the exact step h = T0/(N-1) of `energy` and `analyze`. Time and memory
    are O(N + len(bounds)).
    """
    iv = c.interval
    if isinstance(c, AnalyticCurve):
        u = bounds - iv.t1
        i = _present(c)
        # order n adds (a'*sin(w*u) + b'*(1 - cos(w*u)))/w, (a', b') its amplitudes rotated to t1
        # as `analyze` rotates its bins, so that sin and cos see offsets, not absolute times, and
        # w*u taken in turns n*u/T0 modulo 1, so that a whole number of periods adds exactly 0;
        # the phase factors of spectrum's `_conjugate_phase`, formed at the present orders alone
        shift = np.conjugate(np.exp(-2j * np.pi * ((iv.t1 / iv.duration) % 1.0) * (i + 1)))
        a, b = c.a[i] * shift.real + c.b[i] * shift.imag, c.b[i] * shift.real - c.a[i] * shift.imag
        out = c.constant * u
        turns = u / iv.duration
        for n, a_n, b_n in zip((i + 1).tolist(), a.tolist(), b.tolist()):
            phase = 2.0 * np.pi * ((n * turns) % 1.0)
            out += (a_n * np.sin(phase) + b_n * (1.0 - np.cos(phase))) / ((2.0 * np.pi * iv.f0) * n)
        return out[1:] - out[:-1]
    v = c.values
    layout = layout or _sample_layout(iv, v.size, bounds)
    if layout is None:  # a subnormal interval whose step underflows: every cell weighs zero, as in `energy`
        return np.zeros(bounds.size - 1)
    half_step, k, k1, fraction, at, grid, widths = layout
    value = np.empty(grid.size)
    value[grid] = v
    vk = v[k]
    value[at] = vk + (v[k1] - vk) * fraction
    pieces = value[1:] + value[:-1]
    pieces *= widths
    # each integral adds only its own pieces: differences of a running total would
    # carry that total's rounding into every integral, magnified by a cycle's price
    return half_step * np.add.reduceat(pieces, at)[:-1]


def _sample_layout(interval: Interval, n: int, bounds: np.ndarray) -> tuple | None:
    """What no sample value enters of integrating n samples on `interval` between consecutive `bounds`.

    Positions count steps h = T0/(n-1) from t1: grid point i at i, a bound at x = (bound - t1)/h in cell
    k = floor(x) (t2 in the last), merged into the grid just after the point that opens its cell. Returns
    (h/2, k, k + 1, x - k, the bounds' slots, the grid slot mask, the knot widths), or None if h underflows.
    """
    h = interval.duration / (n - 1)
    if h == 0.0:
        return None
    x = (bounds - interval.t1) / h
    # truncation is floor for positions at or above 0, and t2 belongs to the last cell;
    # np.minimum, not np.clip: that reaches numpy through per-call name lookups whose
    # objects CPython keeps alive (see _frozen)
    k = np.minimum(x.astype(np.intp), n - 2)
    at = k + np.arange(1, k.size + 1)
    grid = np.ones(n + k.size, dtype=bool)
    grid[at] = False
    position = np.empty(grid.size)
    position[grid] = np.arange(n)
    position[at] = x
    return 0.5 * h, k, k + 1, x - k, at, grid, position[1:] - position[:-1]
