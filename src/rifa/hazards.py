"""Decrement-time models: death and surrender hazards on the lattice.

Both decrement times are Cox (doubly stochastic) constructions: the time
is the first integer ``t`` at which an accumulated hazard exceeds an
independent unit-exponential threshold, giving the discrete CDF

    F(t) = 1 - exp(-Lambda_t),    Lambda_0 = 0.

Two concrete hazard families are built in.  Death accumulates a
Gompertz-type load ``b * exp(c*s)`` per step, independent of the market.
Surrender accumulates ``(a - S_s)**2 / d`` per step, so policyholders
are most loyal when the asset trades near their reference level ``a``
and increasingly likely to lapse the further price drifts from it.
A contract without a surrender option is modelled by an infinite
surrender time, i.e. a CDF that is identically zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from rifa.errors import ConfigurationError, ContractError
from rifa.lattice import Path, _real


@dataclass(frozen=True, slots=True)
class Theta:
    """One point of the hazard-model parameter space.

    a: surrender reference price level (a >= 0)
    b: baseline death hazard (b > 0)
    c: death hazard growth rate (c > 0)
    d: surrender dispersion scale (d > 0)
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        if not 0.0 <= self.a < math.inf:
            raise ConfigurationError(f"a must be nonnegative and finite, got {self.a}")
        if not 0.0 < self.b < math.inf:
            raise ConfigurationError(f"b must be positive and finite, got {self.b}")
        if not 0.0 < self.c < math.inf:
            raise ConfigurationError(f"c must be positive and finite, got {self.c}")
        if not 0.0 < self.d < math.inf:
            raise ConfigurationError(f"d must be positive and finite, got {self.d}")


@dataclass(frozen=True, slots=True)
class ParamBox:
    """Compact parameter box: a product of closed intervals, one per field.

    Degenerate (single-point) intervals are allowed; each interval must be
    ordered and lie inside the admissible range of the field.
    """

    a: tuple[float, float]
    b: tuple[float, float]
    c: tuple[float, float]
    d: tuple[float, float]

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            try:
                lo, hi = getattr(self, name)
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"{name} must be an interval [lo, hi], got {getattr(self, name)!r}"
                ) from None
            lo, hi = _real(name, lo), _real(name, hi)
            object.__setattr__(self, name, (lo, hi))
            if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
                raise ConfigurationError(
                    f"interval for {name} must be ordered and finite, got [{lo}, {hi}]"
                )
        # endpoint admissibility via the point validator
        self.corner_low()
        self.corner_high()

    def corner_low(self) -> Theta:
        return Theta(self.a[0], self.b[0], self.c[0], self.d[0])

    def corner_high(self) -> Theta:
        return Theta(self.a[1], self.b[1], self.c[1], self.d[1])

    def contains(self, theta: Theta, tol: float = 0.0) -> bool:
        return (
            self.a[0] - tol <= theta.a <= self.a[1] + tol
            and self.b[0] - tol <= theta.b <= self.b[1] + tol
            and self.c[0] - tol <= theta.c <= self.c[1] + tol
            and self.d[0] - tol <= theta.d <= self.d[1] + tol
        )


def gompertz_cdf(theta: Theta, t: int) -> float:
    """P(death time <= t): F(t) = 1 - exp(-sum_{s<t} b*exp(c*s)).

    Nondecreasing in t, b and c; F(0) = 0.  A load past the float range
    makes death certain: F(t) = 1.
    """
    if t < 0:
        raise ContractError(f"t must be nonnegative, got {t}")
    if t == 0:
        return 0.0
    try:
        load = theta.b * sum(math.exp(theta.c * s) for s in range(t))
    except OverflowError:
        return 1.0
    return -math.expm1(-load)


def surrender_cdf(path: Path, theta: Theta, t: int, enabled: bool = True) -> float:
    """P(surrender time <= t) along a path.

    F(t) = 1 - exp(-(1/d) * sum_{s<t} (a - S_s)**2), a function of the
    price prefix S_0..S_{t-1} only.  With the surrender option disabled
    the time is infinite and the CDF is identically zero.  A load past
    the float range makes surrender certain: F(t) = 1.
    """
    if t < 0 or t > len(path.prices) - 1:
        raise ContractError(f"t must lie in [0, {len(path.prices) - 1}], got {t}")
    if not enabled or t == 0:
        return 0.0
    try:
        load = sum((theta.a - s) ** 2 for s in path.prices[:t]) / theta.d
    except OverflowError:
        return 1.0
    return -math.expm1(-load)
