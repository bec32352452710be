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

from .curve import (AnalyticCurve, Interval, LoadCurve, _analytic_integrals, _eq_by, _frozen, _guarded_sum, _NORMAL_MIN,
                    _overflow, _power_of_two_near, _SUM_LIMIT, _require_int, _rescaled, _trapezoid, _Value, _weights,
                    energy)
from .spectrum import DynamismVector, Spectrum, _dense_vector, _padded, mu_index_cos, mu_index_sin

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
    valid = (0.0 <= fs) & (fs < np.inf)
    if not valid.all():
        raise ValueError(f"frequency must be finite and nonnegative, got {fs[~valid].flat[0]}")
    upper = pff.base + pff.slope * np.log10(np.maximum(fs, pff.cutoff) - pff.log_offset)
    price = np.where(fs < pff.cutoff, pff.base, upper)
    return float(price) if price.ndim == 0 else price


def _real_vector(values, name: str) -> np.ndarray:
    """A flat sequence or 1-D array of real numbers as a new float64 array.

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
    return np.fromiter(map(float, items), float, len(items))


@dataclass(frozen=True)
class FlatPlan:
    unit_price: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.unit_price) and self.unit_price > 0):
            raise ValueError(f"unit price must be positive, got {self.unit_price}")


@dataclass(frozen=True, eq=False)
class SpotPlan(_Value):
    """Per-cycle prices over N equal cycles of `interval`: one read-only float array, equal by value, unhashable.

    It stores the prices. It holds the weights of the last sample count it billed (`_weights`), which a
    copy or an unpickled plan leaves behind, and not its N + 1 cycle bounds: those are formed afresh where a
    bill needs them (`_bounds`), and the weight build turns them into offsets in place.
    """

    interval: Interval
    unit_prices: np.ndarray

    __eq__ = _eq_by("interval", "unit_prices")
    _weights = (0, None, 0.0, 0)  # (N, w, reach, exponent): none billed yet, as no curve has 0 samples

    def __post_init__(self) -> None:
        prices = _real_vector(self.unit_prices, "spot prices")
        if not prices.size:
            raise ValueError("spot plan needs at least one cycle price")
        if not np.logical_and.reduce((0.0 < prices) & (prices < np.inf)):
            raise ValueError("spot prices must be positive and finite")
        _frozen(self, {"unit_prices": prices})

    @property
    def cycle_count(self) -> int:
        return self.unit_prices.size

    @property
    def _bounds(self) -> np.ndarray:
        """The N + 1 cycle bounds, t1 to t2: a new array at each read."""
        return np.linspace(self.interval.t1, self.interval.t2, self.unit_prices.size + 1)


@dataclass(frozen=True)
class DynamismPlan(_Value):
    """Energy price alpha0 plus price-frequency functions for cos and sin terms.

    Equal and hashed by those three fields. It holds the order columns (`_order_columns`) of the last
    (T0, n_max) it billed as (T0, n_max, columns, prices times T0, their top), as a SpotPlan holds its
    weights: replaced in one assignment, so no thread pairs one key's columns with another's.
    """

    alpha0: float
    alpha: PriceFrequencyFunction
    beta: PriceFrequencyFunction

    _columns = (0.0, 0, None, None, 0.0)  # none billed yet: no interval has T0 = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha0) and self.alpha0 > 0):
            raise ValueError(f"alpha0 must be positive, got {self.alpha0}")


@dataclass(frozen=True, eq=False)
class DynamismRates(_Value):
    """Signed rates lambda_k over the flat mu indexing: one read-only float array, equal by value, unhashable."""

    interval: Interval
    lam: np.ndarray

    __eq__ = _eq_by("interval", "lam")

    def __post_init__(self) -> None:
        lam = _real_vector(self.lam, "rates")
        if not lam.size:
            raise ValueError("rates vector must be non-empty")
        if not np.isfinite(lam).all():
            raise ValueError("rates must be finite")
        _frozen(self, {"lam": lam})


TariffPlan = Union[FlatPlan, SpotPlan, DynamismPlan]


class LineItem(NamedTuple):
    label: str
    frequency: float
    coefficient: float
    unit_price: float
    amount: float


@dataclass(frozen=True, eq=False)
class Bill(_Value):
    """Payment split into the energy part and the fluctuation part.

    `lines` is a read-only (1 + 2*n_max, 4) array over the shared mu
    indexing: row 0 is the energy line, row 2n-1 the order-n cosine line
    and row 2n the sine line, with columns frequency, coefficient,
    published unit price and signed amount. A bill from `dynamism_payment`
    builds `lines` on its first read and keeps it, so a caller that needs
    only `total` (a meter fleet, say) never fills the table. The line
    items are the energy line plus one per nonzero coefficient, read from
    `lines` one row at a time by one private row generator, `_rows`:
    `line_items` and `to_dict` build them from it on each read, and the
    CLI's JSON output writes them from it without holding them all. Two
    bills are equal when both parts and `lines` are.
    """

    non_dynamic: float
    dynamic: float
    lines: np.ndarray

    __eq__ = _eq_by("non_dynamic", "dynamic", "lines")

    def __getattr__(self, name: str):
        # reached only while `lines` is unset, on a bill that holds the parts to build it from; two
        # threads reading it at once may each build it, and the arrays are equal
        parts = vars(self).get("_parts")
        if name != "lines" or parts is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return _frozen(self, {"lines": _bill_lines(*parts)}).lines

    @property
    def total(self) -> float:
        return self.non_dynamic + self.dynamic

    def _rows(self):
        """Each line item as a plain (label, frequency, coefficient, unit_price, amount) tuple, in order,
        one `lines` row converted at a time."""
        lines = self.lines
        yield ("energy", *lines[0].tolist())
        for k in range(1, lines.shape[0]):
            row = lines[k].tolist()
            if row[1] != 0.0:
                yield ("cos" if k % 2 else "sin", *row)

    @property
    def line_items(self) -> tuple[LineItem, ...]:
        return tuple(map(LineItem._make, self._rows()))

    def to_dict(self) -> dict:
        return {
            "non_dynamic": self.non_dynamic,
            "dynamic": self.dynamic,
            "total": self.total,
            "line_items": [dict(zip(LineItem._fields, row)) for row in self._rows()],
        }


def classic_payment(unit_price: float, c: LoadCurve) -> float:
    """Flat tariff: unit price times total energy.

    A sampled energy below the normal range is rounded to the subnormal grid, an error the price would
    magnify: there the samples are divided by a power of two near their peak (exact), the energy of those
    is priced, and the payment is rounded once as it is scaled back.
    """
    if not (math.isfinite(unit_price) and unit_price > 0):
        raise ValueError(f"unit price must be finite and positive, got {unit_price}")
    payment = unit_price * (e := energy(c))
    if abs(e) < _NORMAL_MIN and not isinstance(c, AnalyticCurve) and 0.0 < c._peak < 1.0:
        s = _power_of_two_near(c._peak)
        if math.isfinite(scaled := unit_price * _trapezoid(c.values / s, c.interval)):
            payment = math.ldexp(scaled, math.frexp(s)[1] - 1)
    if math.isfinite(payment):
        return payment
    raise _overflow("the flat payment")


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
    cycle grid would not partition the curve's domain. N samples v bill
    <w, v>, w the weights of the plan's price curve on their grid (the
    paper's classic paradigm), each cycle as `integrate` takes it; the plan
    keeps w for the last N it billed. ValueError if the payment overflows.
    """
    if plan.interval is not c.interval and plan.interval != c.interval:
        raise ValueError(
            "spot cycles do not partition the curve interval: plan is on "
            f"[{plan.interval.t1}, {plan.interval.t2}], curve on "
            f"[{c.interval.t1}, {c.interval.t2}]"
        )
    if isinstance(c, AnalyticCurve):
        cycles, prices = _analytic_integrals(c, plan._bounds - c.interval.t1, "the spot payment"), plan.unit_prices
        return _rescaled(lambda s, s2: float((cycles / s) @ (prices / s2)), "the spot payment",
                         lambda: (float(np.maximum.reduce(np.abs(cycles))), float(np.maximum.reduce(prices))))
    # (N, w, reach, exponent), replaced as one tuple: no thread pairs one N's samples with another N's w
    held = plan._weights
    if held[0] != (n := c.values.size):
        top, h = float(np.maximum.reduce(plan.unit_prices)), plan.interval.duration / (n - 1)
        # weights sum to about top price * T0: where that could overflow they come from prices / 2**e, bills scaled back
        e = 0 if math.isfinite(top * plan.interval.duration * 2.0) else math.frexp(top)[1] + 1
        if top * h < _NORMAL_MIN:
            # weights below the normal range would round to the subnormal grid: build them from prices scaled
            # up by a power of two, to top * h near 1 (top at most 2**1000), and scale the bill back once
            e = max(math.frexp(top)[1] + math.frexp(h)[1], math.frexp(top)[1] - 1000)
        prices = np.ldexp(plan.unit_prices, -e) if e else plan.unit_prices
        _, w, w_sum = _weights(plan.interval, n, plan._bounds, prices)
        held = (n, w, math.inf if e > 0 else w_sum, e)  # prices scaled down: the guard's slow path
        vars(plan)["_weights"] = held
    return _guarded_sum(np.ndarray.dot, held[1], held[2], "the spot payment", c.values, c._peak, held[3])


def _order_columns(alpha: PriceFrequencyFunction, beta: PriceFrequencyFunction, t0: float, orders) -> np.ndarray:
    """The read-only frequency, published-price and price-times-t0 columns of each order's two lines.

    With f0 = 1/t0, row 2j is order n = orders[j]'s cosine line, (n*f0, alpha(n*f0), alpha(n*f0)*t0), and
    row 2j+1 its sine line, with beta: at orders 1..n_max, the interleaving of `Bill.lines[1:]`. A
    DynamismPlan holds those of the last (t0, n_max) it billed; `payment_gradient` reads its orders' own.
    """
    f = orders * (1.0 / t0)
    columns = np.empty((orders.size, 2, 3))
    columns[:, :, 0] = f[:, None]
    columns[:, 0, 1] = price_frequency_value(alpha, f)
    columns[:, 1, 1] = price_frequency_value(beta, f)
    with np.errstate(over="ignore"):  # a price times t0 past the float range: a bill that needs it is refused
        columns[:, :, 2] = columns[:, :, 1] * t0
    columns = columns.reshape(2 * orders.size, 3)
    columns.setflags(write=False)
    return columns


def _bill_lines(alpha0: float, columns: np.ndarray, a0: float, non_dynamic: float, coef, amount) -> np.ndarray:
    """A dynamism bill's read-only `lines`: the energy line, then per order line its frequency, coefficient
    (`coef`, interleaved), published price and signed amount (`amount`), `columns` the plan's order columns."""
    lines = np.empty((1 + coef.size, 4))
    lines[0] = (0.0, a0, alpha0, non_dynamic)
    body = lines[1:]
    body[:, ::2] = columns[:, :2]
    body[:, 1] = coef
    body[:, 3] = amount
    lines.setflags(write=False)
    return lines


def _polarity(supply: np.ndarray, load) -> np.ndarray:
    """Sign convention for price coefficients, order by order.

    The sign comes from the supply side so that supply-aligned fluctuation
    is charged, not credited. Where the supply coefficient is exactly zero
    the load's own sign is used; where both vanish the term contributes
    nothing and the sign is moot.
    """
    return np.copysign(1.0, np.where(supply != 0.0, supply, load))


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
    counts as zero above its own. The bill's `lines` are built on first read.
    """
    if supply is not None and supply.interval != s.interval:
        raise ValueError("incompatible intervals: supply spectrum on a different interval")
    coef = s._coef  # interleaved as lines are
    t0, n_max = s.interval.duration, coef.size // 2
    non_dynamic = plan.alpha0 * 0.5 * t0 * s.a0
    held = plan._columns  # read once: another thread may replace it with another key's
    if held[0] != t0 or held[1] != n_max:
        columns = _order_columns(plan.alpha, plan.beta, t0, np.arange(1, n_max + 1))
        held = (t0, n_max, columns, columns[:, 2], float(np.maximum.reduce(columns[:, 2], initial=0.0)))
        vars(plan)["_columns"] = held
    _, _, columns, prices, top = held
    # each amount and partial sum is at most 2 n_max times the top price times t0 times the largest coefficient
    if fits := top * (2 * n_max) * s._peak <= _SUM_LIMIT:
        amount = prices * coef  # t0 * price * coef
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # an amount that overflows is refused below
            amount = prices * coef
        np.copyto(amount, coef, where=coef == 0.0)  # inf * 0 is NaN: a zero coefficient's amount is that zero
    # times the polarity: multiplying by a sign is exact, so this is the amount t0 * polarity * price * coef bit for bit
    if supply is None:
        np.absolute(amount, out=amount)  # the load's own sign: copysign(1, coef) * coef = |coef|
    else:
        amount *= _polarity(_padded(supply._coef, n_max), coef)
    if fits:
        # starting from +0.0, as a running sum would, keeps an all-zero dynamic part from reading -0.0
        dynamic = float(np.add.reduce(amount, initial=0.0))
    else:  # an amount that overflowed makes the peak inf; `_rescaled` keeps a sum that does not overflow, or refuses it
        peak = float(np.maximum.reduce(np.abs(amount)))
        dynamic = _rescaled(lambda d, _: float(np.add.reduce(amount / d, initial=0.0)), "the dynamism payment",
                            lambda: (peak, 1.0)) if math.isfinite(peak) else math.inf
    if not math.isfinite(non_dynamic + dynamic):
        raise _overflow("the dynamism payment")
    parts = (plan.alpha0, columns, s.a0, non_dynamic, coef, amount)
    return _frozen(Bill.__new__(Bill), {"non_dynamic": non_dynamic, "dynamic": dynamic, "_parts": parts})


def rates_payment(rates: DynamismRates, mu: DynamismVector) -> float:
    """Payment T0 * sum(lambda_k * mu_k) under a signed rate vector.

    Coordinates of mu beyond the rate vector's length lie outside its
    truncation order and are not charged.
    """
    if rates.interval != mu.interval:
        raise ValueError("incompatible intervals: rates and coordinates disagree")
    k = min(rates.lam.size, mu.values.size)
    return rates.interval.duration * float(rates.lam[:k] @ mu.values[:k])


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
        Harmonic orders to include, each in 1..2**20 (DynamismPlan only).
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
        return _dense_vector(interval, interval.duration * plan.lam)

    if interval is None:
        raise ValueError("an interval is required to evaluate plan frequencies")
    if orders is None:
        raise ValueError("orders are required for a dynamism plan gradient")
    orders = sorted({_require_int(k, "order", 1) for k in orders})
    if (n_max := orders[-1] if orders else 0) > 2**20:  # refused before g is allocated, as AnalyticCurve does
        raise ValueError(f"order {n_max} outside 1..{2**20}")
    n = np.array(orders, dtype=np.intp)
    lines = np.stack((mu_index_cos(n), mu_index_sin(n)), axis=1).reshape(-1)  # each order's two, as a bill's
    g = np.zeros(1 + 2 * n_max)
    g[0] = interval.duration * 0.5 * plan.alpha0
    # a bill's price times t0 at these lines alone, times a sign (exact): t0 * polarity * price bit for bit
    g[lines] = _order_columns(plan.alpha, plan.beta, interval.duration, n)[:, 2]
    if supply is not None:
        g[lines] *= _polarity(_padded(supply._coef, n_max)[lines - 1], 1.0)
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
