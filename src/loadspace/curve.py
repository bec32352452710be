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
import sys
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


def _require_int(value, name: str, least: int | None = None) -> int:
    """`value` as an int; ValueError unless it is an integer (bool is refused) and, if given, at least `least`."""
    # an int passes before the Integral check, an abstract-class lookup that costs more than the rest
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
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


def _dense_rows(rows, name: str, lo: int, hi: int, size: int | None, constant: float = 0.0, width: int = 3):
    """Outside (index, value, ...) rows (tuples or a (k, width) array, any order) as a new (width - 1, size) array.

    Index i's values land in column i - lo; `size` None runs to the largest index (with no rows, to 0).
    ValueError on a value, index or `constant` that is not finite, then on an index outside lo..hi,
    checked on the floats before the index is cast or the array allocated, then on one that is fractional or repeats.
    """
    try:
        table = np.asarray(rows, dtype=float).reshape(-1, width)
    except OverflowError:  # a Python int beyond any float
        raise ValueError(f"every {name} and value must be finite") from None
    if not (math.isfinite(constant) and np.isfinite(table).all()):
        raise ValueError(f"every {name} and value must be finite")
    column = table[:, 0]
    floats = column.tolist()
    if floats and not lo <= min(floats) <= max(floats) <= hi:  # on the floats: the cast cannot hold 1e19
        bad = next(i for i in floats if not lo <= i <= hi)
        if bad < lo:
            raise ValueError(f"every {name} must be >= {lo}, got {bad:.17g}")
        raise ValueError(f"{name} {bad:.17g} outside {lo}..{hi}")
    index = column.astype(np.intp)
    indices = index.tolist()
    if indices != floats:  # the cast truncated a fraction
        raise ValueError(f"every {name} must be an integer, got {next(i for i, j in zip(floats, indices) if i != j)}")
    if len(set(indices)) < len(indices):
        ordered = sorted(indices)
        raise ValueError(f"duplicate {name} {next(i for i, j in zip(ordered, ordered[1:]) if i == j)}")
    out = np.zeros((width - 1, max(indices, default=0) + 1 - lo if size is None else size))
    out.T[index - lo] = table[:, 1:]
    return out


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
        # stricter than Spectrum: 2.0, True and np.float64(3.0) are not orders of a curve; and the
        # highest order is bounded here, as the int given, which a float may not name (2**64 + 1)
        rows = [(_require_int(h[0], "harmonic order"), h[1], h[2]) for h in harmonics]
        n_max = max([row[0] for row in rows], default=0)
        if n_max > 2**20:
            raise ValueError(f"harmonic order {n_max} outside 1..{2**20}")
        ab = _dense_rows(rows, "harmonic order", 1, 2**20, n_max, constant)
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
        """The grid np.linspace(t1, t2, N): each t1 + i*h rounded, where quadrature counts exact steps h."""
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
    """Render an analytic curve onto an n-point uniform grid: sample i is c at the exact step t1 + i*T0/(n-1)."""
    n = _require_int(n, "sample count", 2)
    return SampledCurve(c.interval, _evaluate_analytic(c, np.arange(n) / (n - 1)))


def _t1_turns(interval: Interval) -> float:
    """t1/T0 modulo 1, the phase of t1 in turns, rounded once: the remainder fmod(t1, T0) is exact, where
    t1/T0 would round by up to ulp(t1/T0) turns before the reduction, an error order n multiplies by n."""
    return (math.fmod(interval.t1, interval.duration) / interval.duration) % 1.0


def _phase_factors(offset: float, orders: np.ndarray) -> np.ndarray:
    """conj(exp(-2 pi i n offset)) for each order n, offset = `_t1_turns(interval)`: the phase of t1, whose
    bits `analyze` and `_rotated_to_t1` share (exp(+2 pi i n offset) differs in the last bits)."""
    return np.conjugate(np.exp(-2j * np.pi * offset * orders))


def _rotated_to_t1(c: AnalyticCurve):
    """Each present order n of c as (n, a', b'): its amplitudes rotated to t1 by `analyze`'s phase factors
    (formed at these orders alone), so that its term is a' cos(x) + b' sin(x) at x = 2 pi n (t - t1)/T0."""
    i = _present(c)
    shift = _phase_factors(_t1_turns(c.interval), i + 1)
    a, b = c.a[i] * shift.real + c.b[i] * shift.imag, c.b[i] * shift.real - c.a[i] * shift.imag
    return zip((i + 1).tolist(), a.tolist(), b.tolist())


def _split(x):
    """Veltkamp's split of x, |x| <= 1: (hi, lo) with hi + lo == x exactly and at most 26 significant bits each."""
    c = 134217729.0 * x
    hi = c - (c - x)
    return hi, x - hi


def _evaluate_analytic(c: AnalyticCurve, turns: np.ndarray) -> np.ndarray:
    """c at the times t1 + turns*T0, order n adding a' cos(x) + b' sin(x), (a', b') from `_rotated_to_t1` and
    x = 2 pi (n turns mod 1): offsets from t1 in turns, never absolute times, so rounding does not grow with t1."""
    out = np.full_like(turns, c.constant, dtype=float)
    for n, a_n, b_n in _rotated_to_t1(c):
        x = 2.0 * np.pi * ((n * turns) % 1.0)
        out += a_n * np.cos(x) + b_n * np.sin(x)
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
        out = _evaluate_analytic(c, (ts - iv.t1) / iv.duration)
    else:
        out = np.interp(ts, c.times(), c.values)
    return float(out) if np.isscalar(t) or ts.ndim == 0 else out


def _common_grid(c1: LoadCurve, c2: LoadCurve) -> tuple[np.ndarray, np.ndarray]:
    """The values of two curves (at least one sampled) on the finer of their grids."""
    n = max(c.values.size for c in (c1, c2) if isinstance(c, SampledCurve))
    t = np.linspace(c1.interval.t1, c1.interval.t2, n)

    def on_grid(c: LoadCurve) -> np.ndarray:
        if isinstance(c, AnalyticCurve):
            return _evaluate_analytic(c, (t - c.interval.t1) / c.interval.duration)
        if c.values.size == n:
            return c.values
        return np.interp(t, c.times(), c.values)

    return on_grid(c1), on_grid(c2)


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
    v1, v2 = _common_grid(c1, c2)
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
    total, ends = np.add.reduce(values), values[0] + values[-1]
    if 0.5 * ends * 2.0 != ends and np.maximum.reduce(np.abs(values)) < sys.float_info.min:
        # below the normal range halving the ends can round (0.5 * 5e-324 is 0.0); halve the
        # step instead: doubling the sum is exact, so, as in `integrate`, the product rounds once
        return float(0.5 * dt * (2.0 * total - ends))
    return float(dt * (total - 0.5 * ends))


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
    v1, v2 = _common_grid(c1, c2)
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
    checked). Analytic curves take each integral's closed form in offsets
    s = t - t1 from t1, as a product whose whole periods cancel exactly (see
    `_analytic_integrals`). Sampled curves integrate their linear
    interpolant on the knots `_sample_layout` merges (`layout` is that
    layout, if given), each integral summing its own trapezoid pieces, with
    the exact step h = T0/(N-1) of `energy` and `analyze`. Time and memory
    are O(N + len(bounds)).
    """
    iv = c.interval
    if isinstance(c, AnalyticCurve):
        return _analytic_integrals(c, bounds - iv.t1)
    v = c.values
    layout = layout or _sample_layout(iv, v.size, bounds)
    if layout is None:  # a subnormal interval whose step underflows: every cell weighs zero, as in `energy`
        return np.zeros(bounds.size - 1)
    half_step, k, k1, fraction, at, grid, widths = layout
    value = np.empty(grid.size)
    value[grid] = v
    vk = v[k]
    value[at] = vk + (v[k1] - vk) * fraction
    pieces = value[:-1]  # in place: the output lags the input, so numpy needs no copy
    pieces += value[1:]
    pieces *= widths
    # each integral adds only its own pieces: differences of a running total would
    # carry that total's rounding into every integral, magnified by a cycle's price
    return half_step * np.add.reduceat(pieces, at)[:-1]


def _analytic_integrals(c: AnalyticCurve, s: np.ndarray) -> np.ndarray:
    """Integrals of an analytic curve between consecutive offsets s from t1 (ascending, within [0, T0]).

    Between s_lo and s_hi, order n adds (T0/(pi n)) sin(pi d) (a' cos(pi m) + b' sin(pi m)), with
    d = n (s_hi - s_lo)/T0 and m = n (s_hi + s_lo)/T0. A difference of two values of the antiderivative
    would keep their rounding, of the order of the curve's size, where whole periods cancel to almost
    nothing, and a price would magnify it. Here d is reduced to r = d - j, j the nearest integer, with
    error-free sums and products, and sin(pi d) = (-1)**j sin(pi r) is accurate to a few ulps of itself.
    """
    t0 = c.interval.duration
    out = c.constant * s
    out = out[1:] - out[:-1]
    pair = (s[1:] + s[:-1]) / t0
    # s_hi - s_lo = width + rest exactly (Fast2Sum, s_hi >= s_lo >= 0), both scaled by a power of two to T0 in [0.5, 1)
    width = s[1:] - s[:-1]
    rest = (-s[:-1]) - (width - s[1:])
    unit, exponent = math.frexp(t0)
    width, rest = np.ldexp(width, -exponent), np.ldexp(rest, -exponent)
    (w_hi, w_lo), (u_hi, u_lo) = _split(width), _split(unit)
    for n, a_n, b_n in _rotated_to_t1(c):
        nw_hi, nw_lo = n * w_hi, n * w_lo  # exact: n < 2**21 and 26-bit halves
        j = np.rint((nw_hi + nw_lo) / unit)
        # n (s_hi - s_lo) - j T0, the first difference exact (Sterbenz), the rest far below an ulp of it
        r = ((nw_hi - j * u_hi) + (nw_lo - j * u_lo) + n * rest) / unit
        m = np.pi * ((n * pair) % 2.0)
        term = np.sin(np.pi * r) * (a_n * np.cos(m) + b_n * np.sin(m))
        term *= 1.0 - 2.0 * (j % 2.0)
        out += (t0 / (np.pi * n)) * term
    return out


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
