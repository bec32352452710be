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

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

import numpy as np

from .curve import Interval, LoadCurve, _antiderivative, energy
from .spectrum import DynamismVector, MuCoord, Spectrum, mu_index_cos, mu_index_sin

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
    logarithm argument stays positive on the whole upper branch.
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

    def value(self, f: float) -> float:
        return price_frequency_value(self, f)


def price_frequency_value(pff: PriceFrequencyFunction, f: float) -> float:
    """Evaluate a price-frequency function at frequency f >= 0 (absolute value)."""
    if f < 0:
        raise ValueError(f"frequency must be nonnegative, got {f}")
    if f < pff.cutoff:
        return pff.base
    arg = f - pff.log_offset
    if arg <= 0:
        raise ValueError(f"logarithm argument must be positive, got {arg}")
    return pff.base + pff.slope * math.log10(arg)


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
        prices = tuple(float(p) for p in self.unit_prices)
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
        lam = tuple(float(x) for x in self.lam)
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


@dataclass(frozen=True)
class Bill:
    """Payment split into the energy part and the fluctuation part."""

    non_dynamic: float
    dynamic: float
    line_items: tuple[LineItem, ...]

    @property
    def total(self) -> float:
        return self.non_dynamic + self.dynamic

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
    return float(np.diff(_antiderivative(c, bounds)) @ np.asarray(plan.unit_prices))


def _polarity(supply_coeff: float, load_coeff: float) -> float:
    """Sign convention for a price coefficient.

    The sign comes from the supply side so that supply-aligned fluctuation
    is charged, not credited. When the supply coefficient is exactly zero
    the load's own sign is used; if both vanish the term contributes
    nothing and the sign is moot.
    """
    if supply_coeff != 0.0:
        return math.copysign(1.0, supply_coeff)
    if load_coeff != 0.0:
        return math.copysign(1.0, load_coeff)
    return 1.0


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
    polarity sign lands in the amount.
    """
    if supply is not None and supply.interval != s.interval:
        raise ValueError("incompatible intervals: supply spectrum on a different interval")
    t0 = s.interval.duration
    f0 = s.interval.f0
    non_dynamic = plan.alpha0 * 0.5 * t0 * s.a0
    items = [LineItem("energy", 0.0, s.a0, plan.alpha0, non_dynamic)]
    dynamic = 0.0
    for n, a, b in s.harmonics:
        f = n * f0
        sup_a, sup_b = supply.coefficient(n) if supply is not None else (a, b)
        if a != 0.0:
            price = price_frequency_value(plan.alpha, f)
            amount = t0 * _polarity(sup_a, a) * price * a
            items.append(LineItem("cos", f, a, price, amount))
            dynamic += amount
        if b != 0.0:
            price = price_frequency_value(plan.beta, f)
            amount = t0 * _polarity(sup_b, b) * price * b
            items.append(LineItem("sin", f, b, price, amount))
            dynamic += amount
    return Bill(non_dynamic, dynamic, tuple(items))


def rates_payment(rates: DynamismRates, mu: DynamismVector) -> float:
    """Payment T0 * sum(lambda_k * mu_k) under a signed rate vector.

    Coordinates of mu beyond the rate vector's length lie outside its
    truncation order and are not charged.
    """
    if rates.interval != mu.interval:
        raise ValueError("incompatible intervals: rates and coordinates disagree")
    t0 = rates.interval.duration
    k_max = len(rates.lam)
    return t0 * sum(rates.lam[k] * v for k, v in mu.coords if k < k_max)


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
        t0 = interval.duration
        coords = tuple(MuCoord(k, t0 * lam_k) for k, lam_k in enumerate(plan.lam))
        return DynamismVector(interval, coords)

    if interval is None:
        raise ValueError("an interval is required to evaluate plan frequencies")
    if orders is None:
        raise ValueError("orders are required for a dynamism plan gradient")
    order_list = sorted(set(int(n) for n in orders))
    if order_list and order_list[0] < 1:
        raise ValueError("orders must be >= 1")
    t0 = interval.duration
    f0 = interval.f0
    coords = [MuCoord(0, t0 * 0.5 * plan.alpha0)]
    for n in order_list:
        f = n * f0
        sup_a, sup_b = supply.coefficient(n) if supply is not None else (1.0, 1.0)
        sign_a = _polarity(sup_a, 0.0)
        sign_b = _polarity(sup_b, 0.0)
        coords.append(MuCoord(mu_index_cos(n), t0 * sign_a * price_frequency_value(plan.alpha, f)))
        coords.append(MuCoord(mu_index_sin(n), t0 * sign_b * price_frequency_value(plan.beta, f)))
    return DynamismVector(interval, tuple(coords))


def incentive_direction(
    plan: DynamismPlan | DynamismRates,
    interval: Interval | None = None,
    orders: Sequence[int] | None = None,
    supply: Spectrum | None = None,
) -> DynamismVector:
    """Negated payment gradient: the steepest payment-reducing direction."""
    g = payment_gradient(plan, interval, orders, supply)
    return DynamismVector(g.interval, tuple(MuCoord(k, -v) for k, v in g.coords))
