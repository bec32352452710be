"""Tariff plans and payment computation.

Three plan families are implemented. FlatPlan charges a single unit price
on total energy. SpotPlan splits the interval into N equal cycles and
charges per-cycle unit prices on per-cycle energy. DynamismPlan charges
energy through alpha0 and every harmonic through a pair of
price-frequency coefficient functions alpha(f), beta(f), which are stored
as absolute values; polarity is applied at billing time so that price and
coefficient agree in sign (a fluctuation aligned with the supply side is
always a nonnegative charge).

DynamismRates is the fourth, lower-level form: a dense vector of signed
per-coordinate rates lambda_k over the shared mu indexing, typically
derived from a calibrated cost characteristic. Payments under rates are
T0 * sum(lambda_k * mu_k) with no polarity adjustment.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

import numpy as np

from .curve import Interval, LoadCurve, _antiderivative, _require_int, energy
from .spectrum import DynamismVector, Spectrum, _dense_vector, mu_index_cos, mu_index_sin

__all__ = [
    "PriceFrequencyFunction",
    "FlatPlan",
    "SpotPlan",
    "DynamismPlan",
    "DynamismRates",
    "TariffPlan",
    "LineItem",
    "Bill",
    "classic_payment",
    "unit_price_from_gross",
    "spot_payment",
    "price_frequency_value",
    "dynamism_payment",
    "rates_payment",
    "payment_gradient",
    "incentive_direction",
]


@dataclass(frozen=True)
class PriceFrequencyFunction:
    """Piecewise price per unit coefficient amplitude as a function of frequency.

    value(f) = base for 0 <= f < cutoff, and base + slope*log10(f - log_offset)
    for f >= cutoff. The constructor requires cutoff > log_offset so the
    logarithm argument stays positive on the whole upper branch, and
    slope >= 0 with a positive price at the cutoff, so the published price
    is positive at every frequency.
    """

    base: float
    cutoff: float
    slope: float
    log_offset: float = 0.0

    def __post_init__(self) -> None:
        for name in ("base", "cutoff", "slope", "log_offset"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.base <= 0:
            raise ValueError(f"base price must be positive, got {self.base}")
        if self.cutoff <= 0:
            raise ValueError(f"cutoff must be positive, got {self.cutoff}")
        if self.cutoff <= self.log_offset:
            raise ValueError(
                f"cutoff {self.cutoff} must exceed log_offset {self.log_offset}"
            )
        if self.slope < 0:
            raise ValueError(f"slope must be nonnegative, got {self.slope}")
        at_cutoff = self.base + self.slope * math.log10(self.cutoff - self.log_offset)
        if at_cutoff <= 0:
            raise ValueError(f"price at the cutoff must be positive, got {at_cutoff}")

    def value(self, f):
        return price_frequency_value(self, f)


def price_frequency_value(pff: PriceFrequencyFunction, f):
    """Evaluate a price-frequency function at frequencies f >= 0 (absolute value).

    Takes a scalar, giving a float, or an array, giving an array of the
    same shape. NaN, inf and negative frequencies raise ValueError.
    """
    fs = np.asarray(f, dtype=float)
    if not ((0.0 <= fs) & (fs < np.inf)).all():
        raise ValueError(f"frequency must be finite and nonnegative, got {f}")
    upper = pff.base + pff.slope * np.log10(np.maximum(fs, pff.cutoff) - pff.log_offset)
    price = np.where(fs < pff.cutoff, pff.base, upper)
    return float(price) if price.ndim == 0 else price


def _real_tuple(values, name: str) -> tuple[float, ...]:
    """A flat sequence or 1-D array of real numbers as a tuple of floats.

    A str, bytes, mapping, set, bool or array of another dimension raises
    ValueError, as does an entry that is a bool or itself iterable. Other
    entries go through float(), whose own error a non-numeric one raises;
    so does iterating a value that is not iterable at all.

    The checks use concrete types and attributes, not the collections.abc
    classes, whose isinstance caches would grow on first use.
    """
    if (
        isinstance(values, (str, bytes, bytearray, set, frozenset, bool))
        or hasattr(values, "keys")
        or getattr(values, "ndim", 1) != 1
    ):
        raise ValueError(f"{name} must be a flat sequence of real numbers, got {type(values).__name__}")
    items = tuple(values)
    # one check per distinct entry type, not per entry: a year of hourly prices is 8,760 entries
    for kind in set(map(type, items)):
        if issubclass(kind, (bool, np.bool_)) or (hasattr(kind, "__iter__") and not issubclass(kind, str)):
            raise ValueError(f"{name} must be real numbers, got an entry of type {kind.__name__}")
    return tuple(map(float, items))


@dataclass(frozen=True)
class FlatPlan:
    unit_price: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.unit_price) and self.unit_price > 0):
            raise ValueError(f"unit price must be positive, got {self.unit_price}")


@dataclass(frozen=True)
class SpotPlan:
    """Per-cycle unit prices over N equal sub-intervals of `interval`."""

    interval: Interval
    unit_prices: tuple[float, ...]

    def __post_init__(self) -> None:
        prices = _real_tuple(self.unit_prices, "spot prices")
        if not prices:
            raise ValueError("spot plan needs at least one cycle price")
        if not all(math.isfinite(p) and p > 0 for p in prices):
            raise ValueError("spot prices must be positive and finite")
        object.__setattr__(self, "unit_prices", prices)

    @property
    def cycle_count(self) -> int:
        return len(self.unit_prices)


@dataclass(frozen=True)
class DynamismPlan:
    """Energy price alpha0 plus price-frequency functions for cos and sin terms."""

    alpha0: float
    alpha: PriceFrequencyFunction
    beta: PriceFrequencyFunction

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha0) and self.alpha0 > 0):
            raise ValueError(f"alpha0 must be positive, got {self.alpha0}")


@dataclass(frozen=True)
class DynamismRates:
    """Signed per-coordinate rates lambda_k over the flat mu indexing."""

    interval: Interval
    lam: tuple[float, ...]

    def __post_init__(self) -> None:
        lam = _real_tuple(self.lam, "rates")
        if not lam:
            raise ValueError("rates vector must be non-empty")
        if not all(math.isfinite(x) for x in lam):
            raise ValueError("rates must be finite")
        object.__setattr__(self, "lam", lam)


TariffPlan = Union[FlatPlan, SpotPlan, DynamismPlan]


class LineItem(NamedTuple):
    label: str
    frequency: float
    coefficient: float
    unit_price: float
    amount: float


@dataclass(frozen=True, eq=False)
class Bill:
    """Payment split into the energy part and the fluctuation part.

    `lines` is a read-only (1 + 2*n_max, 4) array over the shared mu
    indexing: row 0 is the energy line, row 2n-1 the order-n cosine line
    and row 2n the sine line, with columns frequency, coefficient,
    published unit price and signed amount. `line_items` is built from it
    on each read: the energy line plus one LineItem per nonzero
    coefficient. Two bills are equal when both parts and `lines` are.
    """

    non_dynamic: float
    dynamic: float
    lines: np.ndarray

    def __eq__(self, other) -> bool:
        if not isinstance(other, Bill):
            return NotImplemented
        parts = (self.non_dynamic, self.dynamic) == (other.non_dynamic, other.dynamic)
        return parts and np.array_equal(self.lines, other.lines)

    @property
    def total(self) -> float:
        return self.non_dynamic + self.dynamic

    @property
    def line_items(self) -> tuple[LineItem, ...]:
        rows = self.lines.tolist()
        return (LineItem("energy", *rows[0]), *(
            LineItem("cos" if k % 2 else "sin", *row)
            for k, row in enumerate(rows[1:], start=1)
            if row[1] != 0.0
        ))

    def to_dict(self) -> dict:
        return {
            "non_dynamic": self.non_dynamic,
            "dynamic": self.dynamic,
            "total": self.total,
            "line_items": [item._asdict() for item in self.line_items],
        }


def classic_payment(unit_price: float, c: LoadCurve) -> float:
    """Flat tariff: unit price times total energy."""
    if not (math.isfinite(unit_price) and unit_price > 0):
        raise ValueError(f"unit price must be finite and positive, got {unit_price}")
    return unit_price * energy(c)


def unit_price_from_gross(gross_cost: float, gross_energy: float) -> float:
    """Flat unit price recovering a gross cost over a gross delivered energy."""
    if not (math.isfinite(gross_energy) and gross_energy > 0):
        raise ValueError(f"gross energy must be finite and positive, got {gross_energy}")
    if not math.isfinite(gross_cost):
        raise ValueError(f"gross cost must be finite, got {gross_cost}")
    return gross_cost / gross_energy


def spot_payment(plan: SpotPlan, c: LoadCurve) -> float:
    """Spot tariff: sum of cycle price times cycle energy over N equal cycles.

    The plan's interval must coincide with the curve's, otherwise the
    cycle grid would not partition the curve's domain.
    """
    if plan.interval != c.interval:
        raise ValueError(
            "spot cycles do not partition the curve interval: plan is on "
            f"[{plan.interval.t1}, {plan.interval.t2}], curve on "
            f"[{c.interval.t1}, {c.interval.t2}]"
        )
    bounds = np.linspace(plan.interval.t1, plan.interval.t2, plan.cycle_count + 1)
    F = _antiderivative(c, bounds)
    return float((F[1:] - F[:-1]) @ np.asarray(plan.unit_prices))


@functools.lru_cache(maxsize=32)
def _order_frequencies(f0: float, n_max: int) -> np.ndarray:
    """The read-only frequencies n*f0 of orders 1..n_max, computed once per (f0, n_max)."""
    f = np.arange(1, n_max + 1) * f0
    f.setflags(write=False)
    return f


@functools.lru_cache(maxsize=32)
def _order_prices(pff: PriceFrequencyFunction, f0: float, n_max: int) -> np.ndarray:
    """The read-only published prices pff(n*f0) of orders 1..n_max, computed once per key.

    The key holds only values (a frozen price function, f0, n_max), so
    equal plans share an entry and no plan, curve or spectrum is kept.
    """
    price = price_frequency_value(pff, _order_frequencies(f0, n_max))
    price.setflags(write=False)
    return price


def _polarity(supply: np.ndarray, load) -> np.ndarray:
    """Sign convention for price coefficients, order by order.

    The sign comes from the supply side so that supply-aligned fluctuation
    is charged, not credited. Where the supply coefficient is exactly zero
    the load's own sign is used; where both vanish the term contributes
    nothing and the sign is moot.
    """
    return np.copysign(1.0, np.where(supply != 0.0, supply, load))


def _supply_coefficients(supply: Spectrum, orders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The supply's (a_n, b_n) at each of `orders`, zero above its n_max."""
    inside = orders <= supply.n_max
    k = np.minimum(orders, supply.n_max) - 1
    return np.where(inside, supply.a[k], 0.0), np.where(inside, supply.b[k], 0.0)


def dynamism_payment(plan: DynamismPlan, s: Spectrum, supply: Spectrum | None = None) -> Bill:
    """Bill a load spectrum under a dynamism plan.

    non_dynamic = alpha0 * (T0/2) * a0 charges the energy; the dynamic
    part charges every harmonic present in the spectrum:

        dynamic = T0 * sum_n (alpha_n * a_n + beta_n * b_n)

    where alpha_n = sign * alpha(n*f0) and the sign is matched to the
    supply spectrum (default: the load itself, the one-source case where
    the generation curve equals the load curve). Harmonics absent from
    the load spectrum produce no line items; a zero coefficient
    contributes zero. Line items carry the tariff's published price; the
    polarity sign lands in the amount. A supply spectrum of another n_max
    counts as zero above its own.
    """
    if supply is not None and supply.interval != s.interval:
        raise ValueError("incompatible intervals: supply spectrum on a different interval")
    iv, n_max = s.interval, s.n_max
    t0 = iv.duration
    f = _order_frequencies(iv.f0, n_max)
    sup_a, sup_b = (s.a, s.b) if supply is None else _supply_coefficients(supply, np.arange(1, n_max + 1))
    non_dynamic = plan.alpha0 * 0.5 * t0 * s.a0
    lines = np.empty((1 + 2 * n_max, 4))
    lines[0] = (0.0, s.a0, plan.alpha0, non_dynamic)
    for first, coef, sup, pff in ((1, s.a, sup_a, plan.alpha), (2, s.b, sup_b, plan.beta)):
        price = _order_prices(pff, iv.f0, n_max)
        rows = lines[first::2]
        rows[:, 0] = f
        rows[:, 1] = coef
        rows[:, 2] = price
        rows[:, 3] = t0 * _polarity(sup, coef) * price * coef
    lines.setflags(write=False)
    # starting from +0.0, as a running sum would, keeps an all-zero dynamic part from reading -0.0
    dynamic = float(lines[1:, 3].sum(initial=0.0))
    return Bill(non_dynamic, dynamic, lines)


def rates_payment(rates: DynamismRates, mu: DynamismVector) -> float:
    """Payment T0 * sum(lambda_k * mu_k) under a signed rate vector.

    Coordinates of mu beyond the rate vector's length lie outside its
    truncation order and are not charged.
    """
    if rates.interval != mu.interval:
        raise ValueError("incompatible intervals: rates and coordinates disagree")
    k = min(len(rates.lam), mu.values.size)
    return rates.interval.duration * float(np.dot(rates.lam[:k], mu.values[:k]))


def payment_gradient(
    plan: DynamismPlan | DynamismRates,
    interval: Interval | None = None,
    orders: Sequence[int] | None = None,
    supply: Spectrum | None = None,
) -> DynamismVector:
    """Gradient of the payment, indexed by the shared flat coordinates.

    For a DynamismPlan the payment is linear in the spectrum
    coefficients (a0, a_n, b_n) once the polarity convention is fixed,
    and the gradient is taken in that coefficient space:
    T0 * (alpha0/2, alpha_1, beta_1, ...) restricted to the requested
    orders. With no supply spectrum all signs are positive (the absolute
    convention); otherwise each sign follows the supply coefficient, a
    zero supply coefficient leaving the positive default.

    For a DynamismRates vector the payment T0 * sum(lambda_k * mu_k) is
    already a function of the normalized mu coordinates and the gradient
    is simply T0 * lambda over every stored coordinate; `orders` and
    `supply` do not apply. The two cases use different charts (raw
    coefficients vs normalized mu), matching how each payment is defined.

    Parameters
    ----------
    plan : DynamismPlan or DynamismRates
    interval : Interval, optional
        Billing interval. Required for a DynamismPlan; for rates it
        defaults to the rates' own interval and must match it if given.
    orders : sequence of int, optional
        Harmonic orders to include (DynamismPlan only).
    supply : Spectrum, optional
        Fixes the polarity convention (DynamismPlan only).
    """
    if isinstance(plan, DynamismRates):
        if orders is not None or supply is not None:
            raise ValueError("orders and supply do not apply to a rates vector")
        if interval is None:
            interval = plan.interval
        elif interval != plan.interval:
            raise ValueError("incompatible intervals: rates defined elsewhere")
        return _dense_vector(interval, interval.duration * np.asarray(plan.lam))

    if interval is None:
        raise ValueError("an interval is required to evaluate plan frequencies")
    if orders is None:
        raise ValueError("orders are required for a dynamism plan gradient")
    n = np.array(sorted({_require_int(k, "order") for k in orders}), dtype=np.intp)
    if n.size and n[0] < 1:
        raise ValueError("orders must be >= 1")
    t0 = interval.duration
    f = n * interval.f0
    sup_a, sup_b = (1.0, 1.0) if supply is None else _supply_coefficients(supply, n)
    g = np.zeros(1 + 2 * (int(n[-1]) if n.size else 0))
    g[0] = t0 * 0.5 * plan.alpha0
    g[mu_index_cos(n)] = t0 * _polarity(sup_a, 1.0) * price_frequency_value(plan.alpha, f)
    g[mu_index_sin(n)] = t0 * _polarity(sup_b, 1.0) * price_frequency_value(plan.beta, f)
    return _dense_vector(interval, g)


def incentive_direction(
    plan: DynamismPlan | DynamismRates,
    interval: Interval | None = None,
    orders: Sequence[int] | None = None,
    supply: Spectrum | None = None,
) -> DynamismVector:
    """Negated payment gradient: the steepest payment-reducing direction."""
    g = payment_gradient(plan, interval, orders, supply)
    return _dense_vector(g.interval, -g.values)
