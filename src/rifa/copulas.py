"""Dependence between death and surrender times: copula families.

Supported families: independence, Clayton (param > 0), Gumbel
(param >= 1) and Frank (param != 0 with exp(-param) finite, so
param >= about -709.78).  Gumbel at 1 and Clayton and Frank near 0
degenerate to independence and are evaluated through an exact product
branch rather than the generic formula, which would be 0/0 (Frank) or
lose its digits (Clayton) there.

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
from rifa.lattice import Path, _real

FAMILIES = ("independence", "clayton", "gumbel", "frank")

# below this magnitude the Frank generator is numerically 0/0; the family
# converges to independence, so evaluate that branch instead
_FRANK_INDEP_EPS = 1e-8
# below this parameter Clayton's u**-alpha is within alpha*|ln u| of 1, so
# the textbook form keeps few digits, and from about 1e-10 its rounding
# makes surrender slice masses negative; the family converges to
# independence, so evaluate that branch instead
_CLAYTON_INDEP_EPS = 1e-8

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
        if self.param is not None:
            object.__setattr__(self, "param", _real("param", self.param))
        if self.param is None or not math.isfinite(self.param):
            raise ConfigurationError(f"{self.family} copula requires a finite parameter")
        if self.family == "clayton" and self.param <= 0.0:
            raise ConfigurationError(f"clayton parameter must be > 0, got {self.param}")
        if self.family == "gumbel" and self.param < 1.0:
            raise ConfigurationError(f"gumbel parameter must be >= 1, got {self.param}")
        if self.family == "frank":
            if self.param == 0.0:
                raise ConfigurationError("frank parameter must be nonzero")
            try:
                math.expm1(-self.param)
            except OverflowError:
                raise ConfigurationError(
                    f"frank parameter {self.param} is too negative: exp(-param) overflows"
                ) from None

    @property
    def is_independence(self) -> bool:
        """True when the family degenerates to the product copula."""
        if self.family == "independence":
            return True
        if self.family == "gumbel" and self.param == 1.0:
            return True
        if self.family == "frank" and abs(self.param) < _FRANK_INDEP_EPS:
            return True
        if self.family == "clayton" and self.param < _CLAYTON_INDEP_EPS:
            return True
        return False


def _clayton(alpha: float, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Clayton C(u, v) for u, v in [0, 1].

    The textbook form (u^-alpha + v^-alpha - 1)^(-1/alpha) overflows once a
    power passes the float range.  Where one would pass _CLAYTON_POW_MAX,
    C = w * (1 + (w/z)^alpha - w^alpha)^(-1/alpha) with w = min(u, v) and
    z = max(u, v) is used instead: its bases lie in [0, 1] and its bracket
    in [1, 2], and C -> w as w -> 0.  Elsewhere the textbook form stays,
    because Clayton optimizer paths, and so printed argmax digits, follow
    its last bits.  At w = 0 the textbook form already gives +0.0 (0^-alpha
    is inf and inf^(-1/alpha) is +0.0), the factored form's value, so zeros
    stay on it; they are common (the kernel's first survival column is
    exactly 1), while positive pairs below the switch are rare, and the
    factored form is only evaluated when one of those occurs.
    """
    w = np.minimum(u, v)
    tiny = (w > 0.0) & (w <= _CLAYTON_POW_MAX ** (-1.0 / alpha))
    # the powers overflow only at zeros, which give +0.0, and on tiny pairs,
    # whose values are replaced below
    with np.errstate(divide="ignore", over="ignore"):
        out = (u**-alpha + v**-alpha - 1.0) ** (-1.0 / alpha)
    if tiny.any():
        z = np.maximum(u, v)
        ratio = w / np.where(z > 0.0, z, 1.0)  # w = z = 0 gives ratio 0, not 0/0
        factored = w * (1.0 + ratio**alpha - w**alpha) ** (-1.0 / alpha)
        out = np.where(tiny, factored, out)
    return out


def _eval_array(spec: CopulaSpec, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Vectorised C(u, v); inputs assumed already validated to [0, 1]."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if spec.is_independence:
        return u * v
    if spec.family == "clayton":
        return _clayton(spec.param, u, v)
    if spec.family == "gumbel":
        beta = spec.param
        zero = (u <= 0.0) | (v <= 0.0)
        uc = np.where(zero, 0.5, u)
        vc = np.where(zero, 0.5, v)
        with np.errstate(divide="ignore"):
            x = -np.log(uc)
            y = -np.log(vc)
        with np.errstate(over="ignore"):
            power_sum = x**beta + y**beta
        root = power_sum ** (1.0 / beta)
        # At large beta the power sum overflows, or underflows below the
        # normal range and loses its digits.  There _gumbel_root takes over;
        # elsewhere the direct form stays, bit for bit.
        lost = (power_sum < np.finfo(float).tiny) | (power_sum == np.inf)
        if lost.any():
            root = np.where(lost, _gumbel_root(beta, x, y), root)
        return np.where(zero, 0.0, np.exp(-root))
    # frank
    delta = spec.param
    g1 = math.expm1(-delta)
    gu = np.expm1(-delta * u)
    gv = np.expm1(-delta * v)
    y = gu * gv / g1
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -np.log1p(y) / delta
    # Near y = -1, where strong positive dependence takes it, 1 + y cancels
    # and y may round to -1 or beyond.  Where y <= -1/2 (so delta > 0),
    # with w = min(u, v) and z = max(u, v),
    #   1 + y = e^(-delta w) * ratio,
    #   ratio = (-expm1(-delta z) - e^(-delta (z-w)) expm1(-delta (1-z)))
    #           / -expm1(-delta),
    # whose terms are all nonnegative, so C = w - log(ratio) / delta keeps
    # its digits.  Elsewhere the direct form stays, bit for bit.
    near = y <= -0.5
    if near.any():
        w = np.minimum(u, v)
        z = np.maximum(u, v)
        edge = np.exp(-delta * (z - w)) * np.expm1(-delta * (1.0 - z))
        ratio = (-np.expm1(-delta * z) - edge) / -g1
        out = np.where(near, w - np.log(ratio) / delta, out)
    return out


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


def _gumbel_root(beta: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(x^beta + y^beta)^(1/beta), x, y >= 0, at any beta.

    The root is m * (1 + (w/m)^beta)^(1/beta) with m = max(x, y) and
    w = min(x, y), whose base lies in [1, 2], so neither overflow nor
    underflow of the power sum loses it; x = y = 0 gives 0, not 0/0.
    """
    m = np.maximum(x, y)
    ratio = np.minimum(x, y) / np.where(m > 0.0, m, 1.0)
    return m * (1.0 + ratio**beta) ** (1.0 / beta)


def _conditional_gumbel(beta: float, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """dC/du for the Gumbel family, elementwise; u, v in (0, 1)."""
    x = -np.log(u)
    y = -np.log(v)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        a = x**beta + y**beta
        xb = x ** (beta - 1.0)
        out = np.exp(-(a ** (1.0 / beta))) / u * xb * a ** (1.0 / beta - 1.0)
    # At large beta the power sum a overflows, or a or x^(beta-1) underflows
    # below the normal range, and the form above fails.  There the root
    # a^(1/beta) is _gumbel_root's, and x^(beta-1) * a^(1/beta-1) = (x / root)^(beta - 1).
    # Only those entries are replaced, so the others keep their bits.
    tiny = np.finfo(float).tiny
    if min(a.min(), xb.min()) < tiny or a.max() == np.inf:
        lost = (a < tiny) | (a == np.inf) | (xb < tiny)
        x, u = x[lost], u[lost]
        root = _gumbel_root(beta, x, y[lost])
        out[lost] = np.exp(-root) / u * (x / root) ** (beta - 1.0)
    return out


def sample_pairs(
    spec: CopulaSpec,
    n: int,
    rng: np.random.Generator,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw n pairs with uniform marginals and copula `spec`.

    Consumes exactly two uniform blocks of length n from the generator,
    in a fixed order, for every family.  The pairs are written into
    `out`, two distinct float64 arrays of length n that are returned,
    or into two new arrays when it is None; the draws are the same
    either way.  Clipping and the Clayton inverse run in place, so with
    `out` independence allocates nothing and Clayton only its u**-alpha
    factor and a mask; Frank and Gumbel keep their temporaries.  Buffers
    that share memory raise ContractError: the second block would
    overwrite the first.
    """
    if out is None:
        out = (np.empty(n), np.empty(n))
    elif np.shares_memory(out[0], out[1]):
        raise ContractError("out must be two arrays that do not share memory")
    # v is computed in the buffer that holds the second block w
    u, w = out
    rng.random(n, out=u)
    rng.random(n, out=w)
    if spec.is_independence:
        return u, w
    # conditional-inverse step needs interior points
    np.clip(u, 1e-15, 1.0 - 1e-15, out=u)
    np.clip(w, 1e-15, 1.0 - 1e-15, out=w)
    if spec.family == "clayton":
        # v = (1 + u**-alpha * (w**(-alpha/(alpha+1)) - 1))**(-1/alpha)
        alpha = spec.param
        w **= -alpha / (alpha + 1.0)
        w -= 1.0
        with np.errstate(over="ignore"):
            scaled = u**-alpha
            scaled *= w
        # At large alpha and small u the scaled term overflows, and the form
        # above would give v = 0.  There v = u * (u**alpha + w**(-alpha/(alpha+1))
        # - 1)**(-1/alpha), the same value with u**alpha in place of u**-alpha.
        far = np.flatnonzero(scaled == np.inf)
        u_far = u[far]
        v_far = u_far * (u_far**alpha + w[far]) ** (-1.0 / alpha)
        np.add(scaled, 1.0, out=w)
        w **= -1.0 / alpha
        w[far] = v_far
        return u, w
    if spec.family == "frank":
        delta = spec.param
        g1 = math.expm1(-delta)
        gu = np.expm1(-delta * u)
        y = w * g1 / (np.exp(-delta * u) - w * gu)
        # log(1 + y) by log1p, except where y <= -1/2 or is not finite: near
        # -1, where strong positive dependence takes it, y has lost its
        # digits and may round to -1 or beyond.  There the same quantity is
        # the log of 1 + y = (w e^-delta + (1-w) e^(-delta u)) / (w + (1-w)
        # e^(-delta u)), a ratio of positive sums
        near = ~((y > -0.5) & (y < np.inf))
        wn = w[near]
        tail = np.log1p(-wn) - delta * u[near]
        log_wn = np.log(wn)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.log1p(y, out=w)
        w[near] = np.logaddexp(log_wn - delta, tail) - np.logaddexp(log_wn, tail)
        np.negative(w, out=w)
        w /= delta
        return u, w
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
    np.add(lo, hi, out=w)
    w *= 0.5
    return u, w
