"""Dependence between death and surrender times: copula families.

Supported families: independence, Clayton (param > 0), Gumbel
(param >= 1) and Frank (param != 0).  Gumbel at 1 and Frank near 0
degenerate to independence and are evaluated through an exact product
branch rather than the generic formula, which would be 0/0 there.

The joint law of the two decrement times is specified on the survival
scale: with marginal survival functions ubar, vbar the joint survival
probability is the survival transform

    C_hat(ubar, vbar) = ubar + vbar - 1 + C(1 - ubar, 1 - vbar),

which is itself a copula and inherits 2-increasingness from C.  All
probability masses of joint events used by the pricing layer reduce to
rectangle sums of C_hat and are therefore nonnegative up to rounding.

Sampling draws (U, V) with uniform marginals and copula C by inverting
the conditional CDF v -> dC(u, v)/du: closed-form inverses for Clayton
and Frank, bisection to 1e-10 for Gumbel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from rifa.errors import ConfigurationError, ContractError, NumericalError
from rifa.hazards import Theta, gompertz_cdf, surrender_cdf
from rifa.lattice import Path

FAMILIES = ("independence", "clayton", "gumbel", "frank")

# below this magnitude the Frank generator is numerically 0/0; the family
# converges to independence, so evaluate that branch instead
_FRANK_INDEP_EPS = 1e-8

# negative joint-event mass beyond this is treated as an implementation
# error rather than rounding noise
SLICE_TOL = 1e-12

# Clayton's textbook form is used while its powers stay below this
_CLAYTON_POW_MAX = 1e300

_BISECT_TOL = 1e-10
_BISECT_MAX_ITERS = 80


@dataclass(frozen=True, slots=True)
class CopulaSpec:
    """Copula family plus its single parameter (None for independence)."""

    family: str
    param: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigurationError(
                f"unknown copula family {self.family!r}, expected one of {FAMILIES}"
            )
        if self.family == "independence":
            if self.param is not None:
                raise ConfigurationError("independence copula takes no parameter")
            return
        if self.param is None or not math.isfinite(self.param):
            raise ConfigurationError(f"{self.family} copula requires a finite parameter")
        if self.family == "clayton" and self.param <= 0.0:
            raise ConfigurationError(f"clayton parameter must be > 0, got {self.param}")
        if self.family == "gumbel" and self.param < 1.0:
            raise ConfigurationError(f"gumbel parameter must be >= 1, got {self.param}")
        if self.family == "frank" and self.param == 0.0:
            raise ConfigurationError("frank parameter must be nonzero")

    @property
    def is_independence(self) -> bool:
        """True when the family degenerates to the product copula."""
        if self.family == "independence":
            return True
        if self.family == "gumbel" and self.param == 1.0:
            return True
        if self.family == "frank" and abs(self.param) < _FRANK_INDEP_EPS:
            return True
        return False


def _clayton_positive(alpha: float, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Clayton C(u, v) for u, v in (0, 1].

    The textbook form (u^-alpha + v^-alpha - 1)^(-1/alpha) overflows once a
    power passes the float range.  Where one would pass _CLAYTON_POW_MAX,
    C = w * (1 + (w/z)^alpha - w^alpha)^(-1/alpha) with w = min(u, v) and
    z = max(u, v) is used instead: its bases lie in (0, 1] and its bracket
    in [1, 2], and C -> w as w -> 0.  Elsewhere the textbook form stays,
    because Clayton optimizer paths, and so printed argmax digits, follow
    its last bits.
    """
    w = np.minimum(u, v)
    z = np.maximum(u, v)
    tiny = w <= _CLAYTON_POW_MAX ** (-1.0 / alpha)
    uc = np.where(tiny, 0.5, u)
    vc = np.where(tiny, 0.5, v)
    textbook = (uc**-alpha + vc**-alpha - 1.0) ** (-1.0 / alpha)
    factored = w * (1.0 + (w / z) ** alpha - w**alpha) ** (-1.0 / alpha)
    return np.where(tiny, factored, textbook)


def _eval_array(spec: CopulaSpec, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Vectorised C(u, v); inputs assumed already validated to [0, 1]."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if spec.is_independence:
        return u * v
    if spec.family == "clayton":
        zero = (u <= 0.0) | (v <= 0.0)
        uc = np.where(zero, 0.5, u)
        vc = np.where(zero, 0.5, v)
        return np.where(zero, 0.0, _clayton_positive(spec.param, uc, vc))
    if spec.family == "gumbel":
        beta = spec.param
        zero = (u <= 0.0) | (v <= 0.0)
        uc = np.where(zero, 0.5, u)
        vc = np.where(zero, 0.5, v)
        with np.errstate(divide="ignore"):
            x = -np.log(uc)
            y = -np.log(vc)
        out = np.exp(-((x**beta + y**beta) ** (1.0 / beta)))
        return np.where(zero, 0.0, out)
    # frank
    delta = spec.param
    g1 = math.expm1(-delta)
    gu = np.expm1(-delta * u)
    gv = np.expm1(-delta * v)
    return -np.log1p(gu * gv / g1) / delta


def copula_eval(spec: CopulaSpec, u: float, v: float) -> float:
    """C(u, v) for scalar arguments in [0, 1]."""
    if not (0.0 <= u <= 1.0) or not (0.0 <= v <= 1.0):
        raise ContractError(f"copula arguments must lie in [0, 1], got ({u}, {v})")
    return float(_eval_array(spec, np.asarray(u), np.asarray(v)))


def _survival_array(spec: CopulaSpec, ubar: np.ndarray, vbar: np.ndarray) -> np.ndarray:
    """Vectorised survival transform C_hat(ubar, vbar)."""
    ubar = np.asarray(ubar, dtype=float)
    vbar = np.asarray(vbar, dtype=float)
    if spec.is_independence:
        return ubar * vbar
    return ubar + vbar - 1.0 + _eval_array(spec, 1.0 - ubar, 1.0 - vbar)


def survival_transform(spec: CopulaSpec, u_bar: float, v_bar: float) -> float:
    """Joint survival probability C_hat from marginal survival levels."""
    if not (0.0 <= u_bar <= 1.0) or not (0.0 <= v_bar <= 1.0):
        raise ContractError(
            f"survival levels must lie in [0, 1], got ({u_bar}, {v_bar})"
        )
    return float(_survival_array(spec, np.asarray(u_bar), np.asarray(v_bar)))


def joint_survival(
    path: Path,
    theta: Theta,
    spec: CopulaSpec,
    s: int,
    t: int,
    surrender_enabled: bool = True,
) -> float:
    """P(death time > s, surrender time > t | path prefix)."""
    T = len(path.prices) - 1
    if not (0 <= s <= T) or not (0 <= t <= T):
        raise ContractError(f"(s, t) must lie in [0, {T}]^2, got ({s}, {t})")
    death_surv = 1.0 - gompertz_cdf(theta, s)
    surr_surv = 1.0 - surrender_cdf(path, theta, t, enabled=surrender_enabled)
    return survival_transform(spec, death_surv, surr_surv)


def surrender_slice_prob(
    path: Path,
    theta: Theta,
    spec: CopulaSpec,
    t: int,
    surrender_enabled: bool = True,
) -> float:
    """P(death time > t, surrender time = t | path prefix), 1 <= t <= T.

    Rectangle mass of the survival transform between consecutive
    surrender levels; a value below -1e-12 indicates an inconsistent
    joint law and raises, smaller negatives are clipped to 0.
    """
    T = len(path.prices) - 1
    if not (1 <= t <= T):
        raise ContractError(f"t must lie in [1, {T}], got {t}")
    death_surv = 1.0 - gompertz_cdf(theta, t)
    surr_prev = 1.0 - surrender_cdf(path, theta, t - 1, enabled=surrender_enabled)
    surr_now = 1.0 - surrender_cdf(path, theta, t, enabled=surrender_enabled)
    mass = survival_transform(spec, death_surv, surr_prev) - survival_transform(
        spec, death_surv, surr_now
    )
    if mass < -SLICE_TOL:
        raise NumericalError(f"joint slice mass {mass} below -{SLICE_TOL}")
    return max(mass, 0.0)


def _conditional_gumbel(beta: float, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """dC/du for the Gumbel family, elementwise; u, v in (0, 1)."""
    x = -np.log(u)
    y = -np.log(v)
    a = x**beta + y**beta
    return np.exp(-(a ** (1.0 / beta))) / u * x ** (beta - 1.0) * a ** (1.0 / beta - 1.0)


def sample_pairs(
    spec: CopulaSpec, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw n pairs with uniform marginals and copula `spec`.

    Consumes exactly two uniform blocks of length n from the generator,
    in a fixed order, for every family.
    """
    u = rng.random(n)
    w = rng.random(n)
    if spec.is_independence:
        return u, w
    # conditional-inverse step needs interior points
    u = np.clip(u, 1e-15, 1.0 - 1e-15)
    w = np.clip(w, 1e-15, 1.0 - 1e-15)
    if spec.family == "clayton":
        alpha = spec.param
        v = (1.0 + u**-alpha * (w ** (-alpha / (alpha + 1.0)) - 1.0)) ** (-1.0 / alpha)
        return u, v
    if spec.family == "frank":
        delta = spec.param
        g1 = math.expm1(-delta)
        gu = np.expm1(-delta * u)
        gv = w * g1 / (np.exp(-delta * u) - w * gu)
        v = -np.log1p(gv) / delta
        return u, v
    # gumbel: no closed-form conditional inverse, bisect on v
    beta = spec.param
    lo = np.zeros(n)
    hi = np.ones(n)
    for _ in range(_BISECT_MAX_ITERS):
        mid = 0.5 * (lo + hi)
        too_low = _conditional_gumbel(beta, u, mid) < w
        lo = np.where(too_low, mid, lo)
        hi = np.where(too_low, hi, mid)
        if float(np.max(hi - lo)) < _BISECT_TOL:
            break
    else:
        raise NumericalError(
            f"copula conditional inversion did not reach {_BISECT_TOL}",
            best_value=float(np.max(hi - lo)),
        )
    return u, 0.5 * (lo + hi)


def sample_pair(spec: CopulaSpec, rng: np.random.Generator) -> tuple[float, float]:
    """One (U, V) draw with uniform marginals and the given copula."""
    u, v = sample_pairs(spec, 1, rng)
    return float(u[0]), float(v[0])
