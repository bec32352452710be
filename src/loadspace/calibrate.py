"""Supply-cost characteristic: evaluation, least-squares fitting, pricing.

The cost of serving a load is modeled as linear in the load's dynamism
coordinates, gamma = sum(iota_k * mu_k), where the vector iota is an
inherent property of the supply system. Given enough (load, cost)
observations the vector can be recovered by ordinary least squares, and
any positive multiple of it yields a pricing whose gradient points along
the system's actual cost response.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sized

import numpy as np

from .curve import Interval, LoadCurve, _eq_by, _frozen, _require_int, _Value
from .spectrum import DynamismVector, _dense_vector, analyze, to_mu_vector
from .tariff import DynamismRates

__all__ = [
    "CostCharacteristic",
    "CostObservation",
    "supply_cost",
    "calibrate_iota",
    "pricing_from_cost",
]

_RANK_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class CostCharacteristic(_Value):
    """Cost response iota_k per unit mu_k, truncated at order n_max (K = 1 + 2*n_max).

    Two characteristics are equal when interval, n_max and the read-only array iota are.
    """

    interval: Interval
    iota: np.ndarray
    n_max: int

    def __post_init__(self) -> None:
        v = np.asarray(self.iota, dtype=float)
        _require_int(self.n_max, "n_max", 1)
        k = 1 + 2 * self.n_max
        if v.shape != (k,):
            raise ValueError(f"iota must have length {k} for n_max={self.n_max}, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("iota entries must be finite")
        _frozen(self, {"iota": v.copy()})

    __eq__ = _eq_by("interval", "n_max", "iota")


@dataclass(frozen=True)
class CostObservation:
    """One observed pairing of a served load with its realized supply cost."""

    load: LoadCurve
    observed_cost: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.observed_cost):
            raise ValueError("observed cost must be finite")


def supply_cost(cc: CostCharacteristic, mu: DynamismVector) -> float:
    """Cost sum(iota_k * mu_k) over the characteristic's support.

    Coordinates of mu beyond the truncation order K = 1 + 2*n_max lie
    outside the cost model and contribute nothing.
    """
    if cc.interval != mu.interval:
        raise ValueError("incompatible intervals: characteristic and coordinates disagree")
    k = min(cc.iota.size, mu.values.size)
    return float(cc.iota[:k] @ mu.values[:k])


def calibrate_iota(observations: Iterable[CostObservation], n_max: int) -> CostCharacteristic:
    """Fit the cost characteristic from (load, cost) observations.

    Builds the design matrix whose rows are the dense mu vectors of each
    observed load (analyzed up to n_max) and solves the least-squares
    problem min ||X iota - costs|| in one SVD-based solve, whose rank is
    the gate. With noiseless observations generated by some true iota the
    recovery is exact up to solver rounding.

    Parameters
    ----------
    observations : iterable of CostObservation
        At least K = 1 + 2*n_max on a common interval, in any iterable, read once: each load is analyzed as it
        arrives and its row written into the design matrix, which is allocated once, at its final size, for a
        sized iterable (a list or tuple), and grows as ``np.fromiter`` grows an array for a generator.
    n_max : int
        Truncation order of the fitted characteristic.

    Raises
    ------
    ValueError
        "underdetermined" when fewer than K observations are given;
        "degenerate observation set" when the design matrix is rank
        deficient (rank gate at 1e-10 times the largest singular value);
        "observations changed while read" when a sized iterable yields more or fewer than its len.
    """
    return _fit_iota(observations, n_max, len(observations) if isinstance(observations, Sized) else -1)[0]


def _fit_iota(
    observations: Iterable[CostObservation], n_max: int, count: int = -1
) -> tuple[CostCharacteristic, list[float]]:
    """`calibrate_iota` of `count` observations (-1: unknown), with each residual cost - supply_cost(cc, mu), in order."""
    _require_int(n_max, "n_max", 1)
    k = 1 + 2 * n_max
    interval, read, it = None, 0, iter(observations)

    def rows():
        nonlocal interval, read
        for read, obs in enumerate(it, start=1):
            interval = interval or obs.load.interval
            if obs.load.interval != interval:
                raise ValueError("incompatible intervals within the observation set")
            yield to_mu_vector(analyze(obs.load, n_max)).values, obs.observed_cost
        if read < count:  # np.fromiter asks for no row past the count, so only a short iterable gets here
            raise ValueError(f"observations changed while read: {read} read where {count} were counted")

    table = np.fromiter(rows(), np.dtype([("mu", float, (k,)), ("cost", float)]), count)
    if next(it, None) is not None:
        raise ValueError(f"observations changed while read: more than the {count} counted")
    design, costs = table["mu"], table["cost"]  # (M, K) and (M,): each row written once, as its load is read
    if len(design) < k:
        raise ValueError(f"underdetermined: {len(design)} observations for {k} unknowns")
    # LAPACK gelsd counts as the rank the singular values above rcond times the largest
    iota, _, rank, _ = np.linalg.lstsq(design, costs, rcond=_RANK_RTOL)
    if rank < k:
        raise ValueError(f"degenerate observation set: design matrix rank {rank} < {k}")
    cc = CostCharacteristic(interval, iota, n_max)
    return cc, [cost - supply_cost(cc, _dense_vector(interval, row)) for cost, row in zip(map(float, costs), design)]


def pricing_from_cost(cc: CostCharacteristic, a: float) -> DynamismRates:
    """Rates lambda = a * iota: the cost-aligned pricing scaled by a > 0.

    Any positive a keeps the payment gradient proportional to the cost
    response, so the cheapest direction of load change for the subscriber
    is also the cheapest for the system.
    """
    if not (math.isfinite(a) and a > 0):
        raise ValueError(f"scale a must be positive, got {a}")
    return DynamismRates(cc.interval, a * cc.iota)
