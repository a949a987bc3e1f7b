"""Contract payouts: equity participation with a compounding floor.

The account value at time t is the larger of the asset price and a
guarantee growing at rate ``r_G`` from the initial level ``K``:

    V_t = max(S_t, K * (1 + r_G)**t).

A survivor collects V_T at maturity.  Surrendering at an interior date
t in {1, .., T-1} collects V_t shaved by a penalty factor (1 - l);
surrender exactly at maturity or never pays the surrender leg nothing,
and death before the relevant date voids both legs.  All payouts are
reported discounted to time 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from rifa.errors import ConfigurationError, NumericalError
from rifa.lattice import MarketParams, Path, _real


@dataclass(frozen=True, slots=True)
class BenefitSpec:
    """Contract terms.

    K:         initial guarantee level, >= 0
    r_G:       guaranteed growth rate, > -1
    l:         surrender penalty fraction, in [0, 1]
    surrender: whether the contract carries a surrender option, a bool
    """

    K: float
    r_G: float
    l: float
    surrender: bool = True

    def __post_init__(self):
        for name in ("K", "r_G", "l"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        if self.K < 0.0 or not math.isfinite(self.K):
            raise ConfigurationError(f"K must be finite and nonnegative, got {self.K}")
        if self.r_G <= -1.0 or not math.isfinite(self.r_G):
            raise ConfigurationError(f"r_G must exceed -1, got {self.r_G}")
        if not (0.0 <= self.l <= 1.0):
            raise ConfigurationError(f"l must lie in [0, 1], got {self.l}")
        if not isinstance(self.surrender, (bool, np.bool_)):
            raise ConfigurationError(
                f"surrender must be true or false, got {self.surrender!r}"
            )
        object.__setattr__(self, "surrender", bool(self.surrender))


def guarantee_value(spec: BenefitSpec, market: MarketParams, path: Path, t: int) -> float:
    """Account value V_t = max(S_t, K*(1+r_G)**t), undiscounted."""
    if not (0 <= t <= market.T):
        raise ConfigurationError(f"t must lie in [0, {market.T}], got {t}")
    return max(path.prices[t], _floor(spec, t))


def _floor(spec: BenefitSpec, t: int) -> float:
    """K*(1+r_G)**t; a zero K is a zero floor, also where the power overflows.

    Raises NumericalError where the floor passes the float range: by the
    power's OverflowError, or by the product, which overflows to inf
    without raising.
    """
    try:
        floor = spec.K and spec.K * (1.0 + spec.r_G) ** t
    except OverflowError:
        floor = math.inf
    if floor == math.inf:
        raise NumericalError("the guarantee floor passes the float range")
    return floor


def discounted_payoffs(
    spec: BenefitSpec, market: MarketParams, path: Path
) -> tuple[float, np.ndarray]:
    """Discounted payout coefficients of both contract legs along a path.

    Returns ``(survival_pay, surrender_pays)``: the discounted maturity
    payout V_T/(1+r)**T, and an array indexed by t = 0..T whose entry t
    is the discounted surrender payout (1-l) * V_t / (1+r)**t for
    interior dates 1 <= t <= T-1 and zero elsewhere.  A contract without
    the surrender option has an all-zero surrender leg.  Raises
    NumericalError where a payout passes the float range.
    """
    T = market.T
    disc = market.discount
    survival_pay = guarantee_value(spec, market, path, T) * disc**T
    surrender_pays = np.zeros(T + 1)
    if spec.surrender:
        for t in range(1, T):
            surrender_pays[t] = (
                (1.0 - spec.l) * guarantee_value(spec, market, path, t) * disc**t
            )
    _check_finite(survival_pay, surrender_pays)
    return survival_pay, surrender_pays


def payoff_table(
    spec: BenefitSpec, market: MarketParams, prices: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``discounted_payoffs`` of every path row S_0 .. S_T of a price array.

    Returns ``(survival, surrender)`` of shapes (paths,) and (paths, T+1).
    Raises NumericalError where a payout passes the float range.
    """
    T = market.T
    floor = np.array([_floor(spec, t) for t in range(T + 1)])
    discount = np.array([market.discount**t for t in range(T + 1)])
    value = np.maximum(prices, floor)
    surrender = np.zeros_like(value)
    if spec.surrender:
        surrender[:, 1:T] = (1.0 - spec.l) * value[:, 1:T] * discount[1:T]
    survival = value[:, T] * discount[T]
    _check_finite(survival, surrender)
    return survival, surrender


def _check_finite(survival, surrender) -> None:
    if not (np.isfinite(survival).all() and np.isfinite(surrender).all()):
        raise NumericalError("contract payouts pass the float range")
