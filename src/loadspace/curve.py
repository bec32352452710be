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

import copyreg
import math
import numbers
import sys
from dataclasses import dataclass, field
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
    """Closed time interval [t1, t2] with t1 < t2 strictly; fields, equality, hash and repr are (t1, t2).

    Its length `duration`, T0 = t2 - t1, is stored once, at construction, for every call on the interval to read.
    """

    t1: float
    t2: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t1) and math.isfinite(self.t2)):
            raise ValueError("interval endpoints must be finite")
        if not self.t1 < self.t2:
            raise ValueError(f"interval requires t1 < t2, got [{self.t1}, {self.t2}]")
        if not math.isfinite(duration := self.t2 - self.t1):
            raise ValueError(f"interval length must be finite, got [{self.t1}, {self.t2}]")
        object.__setattr__(self, "duration", duration)

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


def _frozen(obj, fields: dict, _set=object.__setattr__, _array=np.ndarray):
    """Set a frozen instance's fields and return it, arrays as given (no copy), read-only: the one builder of every
    value and its `__setstate__`. Stored arrays are plain ndarrays, and `_set`, `_array` save lookups per field."""
    for name, value in fields.items():
        if type(value) is _array:
            # not `value.flags.writeable = False`: that setter looks `setflags` up by a
            # name string made per call, and CPython's type attribute cache keeps such
            # strings alive, so a fleet of small meters piles up traced memory
            value.setflags(write=False)
        _set(obj, name, value)
    return obj


class _Value:
    """Base of the value classes: a copy or unpickled value is rebuilt by `_frozen` from its dataclass fields, all it
    stores, its arrays read-only and its views new; what it held for its next call (weights, columns, parts) is not."""

    def __reduce__(self):
        return copyreg.__newobj__, (type(self),), {name: getattr(self, name) for name in self.__dataclass_fields__}

    __setstate__ = _frozen


def _eq_by(*names: str):
    """An `__eq__` for a value class: NotImplemented for another type, else equal when each named
    attribute is, arrays compared by value."""

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return all(
            np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
            for x, y in ((getattr(self, name), getattr(other, name)) for name in names)
        )

    return __eq__


def _dense_rows(rows, name: str, lo: int, hi: int, size: int | None, constant: float = 0.0, width: int = 3):
    """Outside (index, value, ...) rows (tuples or a (k, width) array, any order) as a new (size, width - 1) array.

    Index i's values land in row i - lo (`.reshape(-1)` interleaves them); `size` None: up to the largest index, or empty.
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
    out = np.zeros((max(indices, default=0) + 1 - lo if size is None else size, width - 1))
    out[index - lo] = table[:, 1:]
    return out


@dataclass(frozen=True, init=False, eq=False)
class AnalyticCurve(_Value):
    """Trig polynomial: constant + sum of harmonics aligned with f0 = 1/T0.

    Alignment means each component completes a whole number of periods on
    the interval, so its integral over [t1, t2] is exactly zero and Fourier
    analysis reads coefficients off directly. Arbitrary closed forms must
    be sampled first.

    Stored as a Spectrum is: the constant plus the read-only array `_coef` =
    (a_1, b_1, ..., a_n, b_n), zeros where absent, n the highest order (at
    most 2**20). `a` = `_coef[::2]`, `b` = `_coef[1::2]` and `harmonics` are
    formed from it at each read. Equal when interval, constant and harmonics are.
    """

    interval: Interval
    constant: float
    _coef: np.ndarray

    def __init__(self, interval: Interval, constant: float, harmonics=()) -> None:
        # stricter than Spectrum: 2.0, True and np.float64(3.0) are not orders of a curve; and the
        # highest order is bounded here, as the int given, which a float may not name (2**64 + 1)
        rows = [(_require_int(h[0], "harmonic order"), h[1], h[2]) for h in harmonics]
        n_max = max([row[0] for row in rows], default=0)
        if n_max > 2**20:
            raise ValueError(f"harmonic order {n_max} outside 1..{2**20}")
        coef = _dense_rows(rows, "harmonic order", 1, 2**20, n_max, constant).reshape(-1)
        _frozen(self, {"interval": interval, "constant": float(constant), "_coef": coef})

    __eq__ = _eq_by("interval", "constant", "harmonics")  # the sparse view: trailing zeros do not count

    a = property(lambda self: self._coef[::2], doc="The cosine amplitudes, order n at n - 1: a view of `_coef`.")
    b = property(lambda self: self._coef[1::2], doc="The sine amplitudes, order n at n - 1: a view of `_coef`.")

    @property
    def harmonics(self) -> tuple[Harmonic, ...]:
        """The orders with a nonzero entry in `a` or `b`, ascending, as Harmonic tuples."""
        present = _present(self)
        pairs = self._coef.reshape(-1, 2)[present].tolist()
        return tuple(Harmonic(n, a, b) for n, (a, b) in zip((present + 1).tolist(), pairs))


def _present(c) -> np.ndarray:
    """Positions n - 1 of the orders n whose a_n or b_n is nonzero, ascending (an AnalyticCurve or a Spectrum)."""
    return np.flatnonzero((c.a != 0.0) | (c.b != 0.0))


def _analytic(interval: Interval, constant: float, coef: np.ndarray) -> AnalyticCurve:
    """The AnalyticCurve with amplitudes coef = (a_1, b_1, ...), held as given, not copied; ValueError unless finite."""
    if not (math.isfinite(constant) and np.isfinite(coef).all()):
        raise ValueError("curve amplitudes must be finite")
    curve = AnalyticCurve.__new__(AnalyticCurve)
    return _frozen(curve, {"interval": interval, "constant": float(constant), "_coef": coef})


@dataclass(frozen=True, init=False, eq=False)
class SampledCurve(_Value):
    """Power samples on the uniform grid t_i = t1 + i*(T0/(N-1)), i = 0..N-1.

    `values` is a read-only copy of the samples given. The largest sample magnitude is kept as the private
    `_peak`, for bounds that take no pass over the samples.
    """

    interval: Interval
    values: np.ndarray
    _peak: float = field(repr=False)

    def __init__(self, interval: Interval, values) -> None:
        v = np.asarray(values, dtype=float)
        if v.ndim != 1:
            raise ValueError("sample values must be one-dimensional")
        if v.size < 2:
            raise ValueError(f"need at least 2 samples, got {v.size}")
        # np.maximum carries a NaN through, so the peak is finite only if every sample is
        peak = float(np.maximum.reduce(np.abs(v)))
        if not math.isfinite(peak):
            raise ValueError("sample values must be finite")
        v = v.copy()  # after the peak: a view of a larger table is copied once its |v| is freed
        _frozen(self, {"interval": interval, "values": v, "_peak": peak})

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
    t1/T0 would round by up to ulp(t1/T0) turns before the reduction, an error order n multiplies by n.
    A phase a hair below zero reduces to a whole turn, 1.0, which is taken as 0: its factors are exact, where
    those of one turn carry sin(2 pi n) = -2.4e-16 n."""
    turns = (math.fmod(interval.t1, interval.duration) / interval.duration) % 1.0
    return turns if turns < 1.0 else 0.0


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


@np.errstate(over="ignore", invalid="ignore")  # a value that overflows is refused, with no warning
def _evaluate_analytic(c: AnalyticCurve, turns: np.ndarray) -> np.ndarray:
    """c at the times t1 + turns*T0, order n adding a' cos(x) + b' sin(x), (a', b') from `_rotated_to_t1` and
    x = 2 pi (n turns mod 1): offsets from t1 in turns, never absolute times, so rounding does not grow with t1."""
    out = np.full_like(turns, c.constant, dtype=float)
    for n, a_n, b_n in _rotated_to_t1(c):
        x = 2.0 * np.pi * ((n * turns) % 1.0)
        out += a_n * np.cos(x) + b_n * np.sin(x)
    if np.isfinite(out).all():
        return out
    raise _overflow("a value of the curve")


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
        out = _interpolate(c, ts)
    return float(out) if np.isscalar(t) or ts.ndim == 0 else out


def _rises(interval: Interval, n: int) -> bool:
    """Whether np.linspace(t1, t2, n) rises. Each rounded point lies within 2 ulps of t1 + i*h, so steps above
    4 ulps of the endpoints keep it rising, and 8 leave a margin; a step of a few ulps or less repeats points
    (on [0, 5e-324] all but the last are 0), where np.interp picks a wrong neighbour."""
    return interval.duration / (n - 1) >= 8.0 * math.ulp(max(abs(interval.t1), abs(interval.t2)))


def _interpolate(c: SampledCurve, t: np.ndarray, turns: np.ndarray | None = None) -> np.ndarray:
    """c at the times t in its interval, linear between neighboring grid points; where t are rounded times
    that repeat, `turns` gives their exact fractions of the interval, and time is counted in grid steps."""
    iv, n = c.interval, c.values.size
    rises = turns is None and _rises(iv, n)
    if rises and np.isfinite(v := np.interp(t, c.times(), c.values)).all():
        return v
    # np.interp's slopes overflow (silently) for samples near the float maximum or steps far shorter than the
    # samples are large: divide the samples by a power of two near their peak, as `norm` does, which scales
    # each slope and value exactly; where a slope still overflows, or the grid repeats, count time in steps
    s = _power_of_two_near(c._peak)
    with np.errstate(over="ignore"):
        if rises and np.isfinite(v := s * np.interp(t, c.times(), c.values / s)).all():
            return v
        steps = ((t - iv.t1) / iv.duration if turns is None else turns) * (n - 1)
        return s * np.interp(steps, np.arange(n), c.values / s)


def _common_grid(c1: LoadCurve, c2: LoadCurve) -> tuple[np.ndarray, np.ndarray]:
    """The values of two curves (at least one sampled) on the finer of their grids; where its rounded times
    repeat, at the exact fractions i/(n-1) of the interval, as `sample` takes them."""
    n = max(c.values.size for c in (c1, c2) if isinstance(c, SampledCurve))
    iv = c1.interval
    t = np.linspace(iv.t1, iv.t2, n)
    exact = None if _rises(iv, n) else np.arange(n) / (n - 1)

    def on_grid(c: LoadCurve) -> np.ndarray:
        if isinstance(c, AnalyticCurve):
            return _evaluate_analytic(c, (t - iv.t1) / iv.duration if exact is None else exact)
        return c.values if c.values.size == n else _interpolate(c, t, exact)

    return on_grid(c1), on_grid(c2)


def add(c1: LoadCurve, c2: LoadCurve) -> LoadCurve:
    """Pointwise sum of two curves on the same interval.

    Analytic + analytic merges harmonics by order and stays analytic.
    If either operand is sampled, both are resampled onto the finer grid
    and added there; the grid is the resolution bottleneck regardless.
    """
    iv = _require_same_interval(c1, c2)
    if isinstance(c1, AnalyticCurve) and isinstance(c2, AnalyticCurve):
        coef = np.zeros(max(c1._coef.size, c2._coef.size))
        for c in (c1, c2):
            coef[: c._coef.size] += c._coef
        return _analytic(iv, c1.constant + c2.constant, coef)
    v1, v2 = _common_grid(c1, c2)
    return SampledCurve(iv, v1 + v2)


def scale(a: float, c: LoadCurve) -> LoadCurve:
    """Scalar multiple a*c; ValueError unless a is finite."""
    if not math.isfinite(a):
        raise ValueError(f"scale factor must be finite, got {a}")
    if isinstance(c, AnalyticCurve):
        return _analytic(c.interval, a * c.constant, a * c._coef)
    return SampledCurve(c.interval, a * c.values)


# A sum of N terms of magnitude at most p is at most N*p, and their trapezoid integral on [t1, t2] at
# most (t2 - t1)*p: while p*(N + t2 - t1) is below this, no partial sum, end or integral can overflow,
# with a factor 2 to spare for rounding
_SUM_LIMIT = sys.float_info.max / 2
_NORMAL_MIN = sys.float_info.min  # the smallest normal float: below it, products round to the subnormal grid


def _trapezoid(values: np.ndarray, interval: Interval) -> float:
    # in Python floats, which round as numpy's do at less cost per operation, and overflow without a warning
    dt = interval.duration / (values.size - 1)
    total, ends = float(np.add.reduce(values)), values.item(0) + values.item(-1)
    if 0.5 * ends * 2.0 != ends and np.maximum.reduce(np.abs(values)) < _NORMAL_MIN:
        # below the normal range halving the ends can round (0.5 * 5e-324 is 0.0); halve the
        # step instead: doubling the sum is exact, so, as in `integrate`, the product rounds once
        return 0.5 * dt * (2.0 * total - ends)
    return dt * (total - 0.5 * ends)


def _overflow(what) -> ValueError:
    """The refusal of a result beyond the float range, naming `what`: a str, or the bounds (lo, hi) of an integral."""
    what = what if isinstance(what, str) else "the integral on [{}, {}]".format(*what)
    return ValueError(f"{what} overflows the float range")


def _guarded_sum(total_of, arg, reach: float, what, v: np.ndarray, peak: float, exponent=0, v2=None, peak2=1.0):
    """total_of(v * v2, arg) * 2**exponent (v2 None: of v), |v| <= peak and |v2| <= peak2: the one overflow rule
    of every sampled sum. peak * peak2 * reach bounds each product, partial sum and the result (reach: N + T0
    for `_trapezoid` on an interval, the sum of the nonnegative weights w for `np.ndarray.dot` with w).

    Within `_SUM_LIMIT` this is the plain call, bit for bit; past it, `_rescaled`. One exception: below the
    normal range each product w_i * v_i of a dot with weights would round to the subnormal grid, so there the
    values are divided by a power of two near their peak (at most 1: exact, and no smaller than they were)
    and the total is scaled back with one rounding. `_trapezoid` forms no such product of its own and keeps
    its plain bits (a sum of subnormals is exact, and it rounds once).
    ValueError if the result overflows, naming `what`: a str, or the bounds (lo, hi) of an integral.
    """
    bound = peak * peak2 * reach
    if bound <= _SUM_LIMIT and (bound >= _NORMAL_MIN or bound == 0.0 or total_of is _trapezoid):
        return math.ldexp(total_of(v if v2 is None else v * v2, arg), exponent)
    if bound <= _SUM_LIMIT:
        s = min(_power_of_two_near(peak), 1.0)
        return math.ldexp(total_of(v / s, arg), exponent + math.frexp(s)[1] - 1)
    return _rescaled(lambda s, s2: total_of(v / s if v2 is None else v / s * (v2 / s2), arg), what,
                     lambda: (peak, peak2), exponent)


def _rescaled(total_of, what, peaks, exponent=0) -> float:
    """total_of(1, 1) * 2**exponent, total_of(s, s2) a total bilinear in two vectors that it takes divided by s
    and s2: the one overflow rule of every sum of products. The plain total is kept if finite, else s and s2
    are powers of two near the two vectors' peaks (the pair peaks() returns), as `norm` takes them, and the
    total is scaled back once. ValueError if the result overflows, naming `what` as `_overflow` takes it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        total = total_of(1.0, 1.0)
        if not math.isfinite(total):
            s, s2 = map(_power_of_two_near, peaks())
            total = total_of(s, s2)
            exponent += math.frexp(s)[1] + math.frexp(s2)[1] - 2
        total = float(np.ldexp(total, exponent))
    if math.isfinite(total):
        return total
    raise _overflow(what)


def _grid_peak(c: LoadCurve, values: np.ndarray) -> float:
    """A bound on |values|, c on a grid: a sampled curve's recorded peak bounds its interpolant."""
    return c._peak if isinstance(c, SampledCurve) else float(np.maximum.reduce(np.abs(values)))


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
        If the intervals differ, or the integral overflows the float range.
    """
    iv = _require_same_interval(c1, c2)
    if isinstance(c1, AnalyticCurve) and isinstance(c2, AnalyticCurve):
        n, t0 = min(c1.a.size, c2.a.size), iv.duration

        def total_of(s1, s2):
            dot = (c1.a[:n] / s1) @ (c2.a[:n] / s2) + (c1.b[:n] / s1) @ (c2.b[:n] / s2)
            return t0 * (c1.constant / s1) * (c2.constant / s2) + 0.5 * t0 * float(dot)

        def peaks():
            return [_coefficient_peak(c.constant, c._coef[: 2 * n]) for c in (c1, c2)]

        return _rescaled(total_of, (iv.t1, iv.t2), peaks)
    v1, v2 = _common_grid(c1, c2)
    reach = v1.size + iv.duration
    return _guarded_sum(_trapezoid, iv, reach, (iv.t1, iv.t2), v1, _grid_peak(c1, v1), 0, v2, _grid_peak(c2, v2))


def _power_of_two_near(peak: float) -> float:
    """2**e with peak / 2**e in [1, 2), or 1 for a zero peak; dividing by it is exact."""
    return math.ldexp(1.0, math.frexp(peak)[1] - 1) if peak > 0 else 1.0


_UNIT = Interval(0.0, 1.0)


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
    if math.isfinite(total):
        return s * math.sqrt(total)
    # only on an interval so long that T0 times the mean square overflows: take sqrt(T0) apart
    s, total = _scaled_square_norm(c, _UNIT)
    return s * math.sqrt(c.interval.duration) * math.sqrt(total)


def _scaled_square_norm(c: LoadCurve, interval: Interval | None = None) -> tuple[float, float]:
    """(s, q): s a power of two near the curve's peak, q = (c, c)/s**2 from the values divided by s, with the
    values taken on `interval` (default: the curve's own), so that on [0, 1] q is the mean square/s**2.

    s * (s * q) is inner_product(c, c) bit for bit wherever that neither overflows nor underflows.
    """
    iv = interval or c.interval
    if isinstance(c, AnalyticCurve):
        return _scaled_parseval(iv.duration, c.constant, c._coef)
    s = _power_of_two_near(c._peak)
    w = c.values / s
    w *= w
    return s, _trapezoid(w, iv)


def _scaled_parseval(t0: float, constant: float, coef: np.ndarray) -> tuple[float, float]:
    """`_scaled_square_norm` of constant + sum_n (a_n cos + b_n sin) on length t0 by Parseval, coef (a_1, b_1, ...)."""
    s = _power_of_two_near(_coefficient_peak(constant, coef))
    c0, a, b = constant / s, coef[::2] / s, coef[1::2] / s  # contiguous: a dot on strided views may round otherwise
    return s, t0 * c0 * c0 + 0.5 * t0 * float(a @ a + b @ b)


def _coefficient_peak(constant: float, coef: np.ndarray) -> float:
    """The largest magnitude among a constant and a coefficient array."""
    return float(np.maximum.reduce(np.abs(np.concatenate(([constant], coef)))))


def distance(c1: LoadCurve, c2: LoadCurve) -> float:
    """L2 distance norm(c1 - c2) between curves on the same interval."""
    return norm(add(c1, scale(-1.0, c2)))


def energy(c: LoadCurve) -> float:
    """Integral of the curve over its interval.

    Exactly T0*constant for analytic curves, since every aligned harmonic
    integrates to zero over the full interval. The trapezoid sum of a
    sampled curve whose sum could overflow is taken as `norm` takes its
    squares, divided by a power of two near the peak: the result is the
    finite integral, or a ValueError if the integral overflows.
    """
    iv = c.interval
    if isinstance(c, SampledCurve):
        return _guarded_sum(_trapezoid, iv, c.values.size + iv.duration, (iv.t1, iv.t2), c.values, c._peak)
    if math.isfinite(total := iv.duration * c.constant):
        return total
    raise _overflow((iv.t1, iv.t2))


def average_power(c: LoadCurve) -> float:
    """Mean power energy(c) / T0."""
    return energy(c) / c.interval.duration


def integrate(c: LoadCurve, lo: float, hi: float) -> float:
    """Integral of the curve over a sub-interval [lo, hi].

    Computed as spot billing computes its cycles: the closed form for
    analytic curves, and for sampled curves the exact integral of the
    linear interpolant on the grid t1 + i*h, h = T0/(N-1), the trapezoid
    rule `energy` and `analyze` use: a one-cycle, unit-price plan on the
    cells that [lo, hi] touches, its weights (see `_weights`) dotted with
    those samples. Integrals over the cells of any partition of [t1, t2]
    therefore sum (up to rounding) to the full-interval integral.

    Raises
    ------
    ValueError
        If a bound is not finite, [lo, hi] is not contained in the curve's
        interval, lo > hi, or the integral overflows.
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
        return float(_analytic_integrals(c, np.array([lo, hi]) - iv.t1, (lo, hi))[0])
    first, w, w_sum = _weights(iv, c.values.size, np.array([lo, hi]), np.ones(1))
    return _guarded_sum(np.ndarray.dot, w, w_sum, (lo, hi), c.values[first : first + w.size], c._peak)


@np.errstate(over="ignore", invalid="ignore")  # an integral that overflows is refused, with no warning
def _analytic_integrals(c: AnalyticCurve, s: np.ndarray, what) -> np.ndarray:
    """Integrals of an analytic curve between consecutive offsets s from t1 (ascending, within [0, T0]);
    ValueError naming `what` (as `_overflow` takes it) if one overflows.

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
    if not np.isfinite(pair).all():  # offsets past half the float maximum, where halving each is exact
        pair = (0.5 * s[1:] + 0.5 * s[:-1]) / (0.5 * t0)
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
        # pi m = q quarter turns + pi f, f = m - q/2 exact in [-1/4, 1/4]: cos and sin of whole quarter turns
        # are 0 or +-1 exactly, so a cycle that ends on a half period is not left with cos(pi/2) = 6e-17
        m = (n * pair) % 2.0
        q = np.rint(2.0 * m)
        k = q.astype(int)
        f, cq, sq = np.pi * (m - 0.5 * q), _QUARTER_COS[k % 4], _QUARTER_COS[(k - 1) % 4]
        term = np.sin(np.pi * r) * (np.cos(f) * (a_n * cq + b_n * sq) + np.sin(f) * (b_n * cq - a_n * sq))
        term *= 1.0 - 2.0 * (j % 2.0)
        out += (t0 / (np.pi * n)) * term
    if np.isfinite(out).all():
        return out
    raise _overflow(what)


_QUARTER_COS = np.array([1.0, 0.0, -1.0, 0.0])  # cos(k pi/2), k = 0..3
_BLOCK = 1024  # cycles, then bounds, that `_weights` takes per step: each of its temporaries stays near 8 KiB


def _weights(interval: Interval, n: int, bounds: np.ndarray, prices: np.ndarray) -> tuple[int, np.ndarray, float]:
    """(first, w, sum of w): v[first:first + w.size] @ w is the exact integral of the linear interpolant of n
    samples v on `interval` against the price prices[j] between bounds[j] and bounds[j + 1] (ascending, inside).

    Positions count steps h = T0/(n-1) from t1: grid point i at i, a bound at x = (bound - t1)/h in cell
    k = min(floor(x), n - 2), at offset f = x - k. Each piece [alpha, beta] of a cell between neighbouring
    knots lies in one cycle, of price p, and adds p h (beta - alpha)(1 - (alpha + beta)/2) to the weight of
    the cell's first sample and p h (beta - alpha)(alpha + beta)/2 to the next one's: a weight sums such
    nonnegative terms, never a difference of prices or of running totals, which would carry the rounding of
    earlier cycles into later ones. Time is O(n + len(bounds)).

    `bounds` is taken over and turned into the offsets in place. Memory at its peak is w, the offsets and
    their cells, and the temporaries of one block of `_BLOCK` cycles or bounds (a year of 15-minute samples
    under hourly prices, 35,040 x 8,761: w's 0.27 MiB, two 0.07 MiB arrays and under 0.07 MiB of block).
    Every term is the same IEEE product or sum as the direct formulas in the comments, at most with its
    operands swapped, and a weight takes its terms in the same order at any block size but for the one
    weight two blocks share, which adds a term from each to 0: the weights keep their bits.
    """
    h = interval.duration / (n - 1)
    if h == 0.0:  # a subnormal interval whose step underflows: every cell weighs zero, as in `energy`
        return 0, np.zeros(n), 0.0
    f = bounds  # each bound's position x = (bound - t1)/h, then its offset x - k
    f -= interval.t1
    f /= h
    # truncation is floor at or above 0, and t2 belongs to the last cell; np.minimum, not np.clip: that
    # reaches numpy through per-call name lookups whose objects CPython keeps alive (see _frozen)
    k = f.astype(np.intp)
    np.minimum(k, n - 2, out=k)
    f -= k
    first = int(k[0])
    k -= first
    # whole cells, p h/2 to each sample: cycle j's price on cells k_j .. k_(j+1) - 1 at w[1 + cell], then 0 at
    # w[0] and on each cell that holds a bound; sample i takes cells i - 1 and i. np.repeat copies a read-only
    # input whole, so it takes a block of cycles at a time
    w, m = np.empty(int(k[-1]) + 2), prices.size
    for j in range(0, m, _BLOCK):
        cells = k[j : j + _BLOCK + 1]
        w[cells[0] + 1 : cells[-1] + 1] = np.repeat(prices[j : j + _BLOCK], cells[1:] - cells[:-1])
    w[0] = 0.0
    w[1:][k] = 0.0
    w[:-1] += w[1:]  # in place: the output lags the input, so numpy needs no copy
    w *= 0.5 * h
    # bound j closes a piece of cycle j - 1 from the bound before it in its cell (else from the cell's
    # start), and opens one of cycle j to the cell's end unless a later bound shares the cell:
    #   lo = [0, where(shared, f[:-1], 0)]           mid = 0.5 (lo + f)
    #   closing = [0, prices] (h (f - lo))           opening = [where(shared, 0, prices), 0] (0.5 h (1 - f))
    #   to_next = closing mid + opening (1 + f)      closing = closing (1 - mid) + opening (1 - f)
    # summed per cell and added to w[cell], then to_next to w[cell + 1], for bounds a .. b - 1 at a time. A
    # block takes every bound in its last cell; the one weight two blocks touch lies between two cells that
    # hold bounds, so its whole-cell part is 0 and its two terms add to the same bits in either order
    a = 0
    while a <= m:
        b = a + _BLOCK
        b = m + 1 if b > m else int(k.searchsorted(k[b - 1], "right"))
        fb, kb = f[a:b], k[a:b]
        lone = np.ones(fb.size, bool)  # the first bound in its cell; a lone one sums to itself
        np.not_equal(kb[1:], kb[:-1], out=lone[1:])
        shared = ~lone[1:]
        mid = np.zeros(fb.size)  # lo, then mid
        np.copyto(mid[1:], fb[:-1], where=shared)
        closing = fb - mid
        closing *= h
        closing[1:] *= prices[a : b - 1]
        closing[0] *= prices[a - 1] if a else 0.0
        mid += fb
        mid *= 0.5
        opening = 1.0 - fb
        opening *= 0.5 * h
        opening[:-1] *= np.where(shared, 0.0, prices[a : b - 1])
        opening[-1] *= prices[b - 1] if b <= m else 0.0
        to_next = closing * mid
        np.subtract(1.0, mid, out=mid)
        closing *= mid
        np.add(fb, 1.0, out=mid)
        mid *= opening
        to_next += mid
        np.subtract(1.0, fb, out=fb)
        fb *= opening
        closing += fb
        start = np.flatnonzero(lone)
        cells = kb[start]
        w[cells] += np.add.reduceat(closing, start)
        w[1:][cells] += np.add.reduceat(to_next, start)
        a = b
    return first, w, float(np.add.reduce(w))
