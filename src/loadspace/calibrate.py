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

import numpy as np

from .curve import Interval, LoadCurve, _require_int
from .spectrum import DynamismVector, analyze, to_mu_vector
from .tariff import DynamismRates

__all__ = [
    "CostCharacteristic",
    "CostObservation",
    "supply_cost",
    "calibrate_iota",
    "pricing_from_cost",
]

_RANK_RTOL = 1e-10


@dataclass(frozen=True)
class CostCharacteristic:
    """Cost response iota_k per unit mu_k, truncated at order n_max (K = 1 + 2*n_max)."""

    interval: Interval
    iota: np.ndarray
    n_max: int

    def __post_init__(self) -> None:
        v = np.asarray(self.iota, dtype=float)
        if _require_int(self.n_max, "n_max") < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        k = 1 + 2 * self.n_max
        if v.shape != (k,):
            raise ValueError(f"iota must have length {k} for n_max={self.n_max}, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("iota entries must be finite")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "iota", v)


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


def calibrate_iota(
    observations: list[CostObservation],
    n_max: int,
    ridge: float = 0.0,
) -> CostCharacteristic:
    """Fit the cost characteristic from (load, cost) observations.

    Builds the design matrix whose rows are the dense mu vectors of each
    observed load (analyzed up to n_max) and solves the least-squares
    problem min ||X iota - costs||. With noiseless observations generated
    by some true iota the recovery is exact up to solver rounding.

    Parameters
    ----------
    observations : list of CostObservation
        At least K = 1 + 2*n_max observations on a common interval.
    n_max : int
        Truncation order of the fitted characteristic.
    ridge : float, optional
        Finite nonnegative Tikhonov weight for noisy data; 0 (the
        default) solves plain least squares.

    Raises
    ------
    ValueError
        "underdetermined" when fewer than K observations are given;
        "degenerate observation set" when the design matrix is rank
        deficient (rank gate at 1e-10 times the largest singular value).
    """
    if _require_int(n_max, "n_max") < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if not (math.isfinite(ridge) and ridge >= 0):
        raise ValueError(f"ridge must be finite and nonnegative, got {ridge}")
    if not observations:
        raise ValueError("underdetermined: no observations")
    interval = observations[0].load.interval
    for obs in observations:
        if obs.load.interval != interval:
            raise ValueError("incompatible intervals within the observation set")

    k = 1 + 2 * n_max
    m = len(observations)
    if m < k:
        raise ValueError(f"underdetermined: {m} observations for {k} unknowns")

    x = np.empty((m, k))
    y = np.empty(m)
    for i, obs in enumerate(observations):
        x[i] = to_mu_vector(analyze(obs.load, n_max)).values
        y[i] = obs.observed_cost

    singular = np.linalg.svd(x, compute_uv=False)
    rank = int(np.sum(singular > _RANK_RTOL * singular[0])) if singular[0] > 0 else 0
    if rank < k:
        raise ValueError(f"degenerate observation set: design matrix rank {rank} < {k}")

    if ridge > 0:
        gram = x.T @ x + ridge * np.eye(k)
        iota = np.linalg.solve(gram, x.T @ y)
    else:
        iota, *_ = np.linalg.lstsq(x, y, rcond=None)
    return CostCharacteristic(interval, iota, n_max)


def pricing_from_cost(cc: CostCharacteristic, a: float) -> DynamismRates:
    """Rates lambda = a * iota: the cost-aligned pricing scaled by a > 0.

    Any positive a keeps the payment gradient proportional to the cost
    response, so the cheapest direction of load change for the subscriber
    is also the cheapest for the system.
    """
    if not (math.isfinite(a) and a > 0):
        raise ValueError(f"scale a must be positive, got {a}")
    return DynamismRates(cc.interval, tuple(a * cc.iota))
