"""Worst-case valuation of the contract over the hazard parameter box.

The filtration generated by the market is atomic: conditioning on the
full market history is conditioning on a lattice path.  For a fixed
hazard parameter point the conditional discounted contract value on a
path is

    G(path, theta) = survival_pay * P(no decrement through T)
                   + sum_t surrender_pay[t] * P(alive at t, surrender at t),

with both probabilities produced by the copula-coupled hazard models.
The worst-case price replaces G by its per-path supremum over the box
(suprema over equivalent model families act pathwise here because all
models share the market's null sets), then integrates under the
risk-neutral weights:

    robust_price = sum_paths q_weight * sup_theta G(path, theta).

Monotone reduction: every admissible copula is 2-increasing, so both the
joint survival mass and each surrender slice mass are nondecreasing in
the death survival level, which is itself decreasing in b and c.  Hence
G is nonincreasing in (b, c) for every family, and the supremum pins
them at the lower box corner (the infimum at the upper corner), leaving
a 2-dimensional search over (a, d).  That search runs deterministic
multistart Nelder-Mead on box-normalised coordinates, a dense grid, or
both (hybrid), per the optimizer configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import minimize

from rifa.benefits import BenefitSpec, discounted_payoffs
from rifa.copulas import CopulaSpec, _survival_array, SLICE_TOL
from rifa.errors import ConfigurationError, NumericalError
from rifa.hazards import ParamBox, Theta
from rifa.lattice import MarketParams, Path, enumerate_paths

OPTIMIZER_METHODS = ("nelder_mead", "grid", "hybrid")

# simplex-size tolerance in box-normalised coordinates
_XATOL = 1e-8
# resolution of the pre-multistart screening batch (coarser than any
# validation grid, so cross-checks against grid oracles stay meaningful)
_SCREEN_POINTS_PER_DIM = 17


@dataclass(frozen=True, slots=True)
class OptimizerConfig:
    """Search settings for all box optimizations.

    method:              nelder_mead, grid, or hybrid (both, best of)
    multistarts:         Nelder-Mead starts on a fixed Latin pattern
    tolerance:           absolute function tolerance for convergence
    max_iters:           Nelder-Mead iteration cap per start
    grid_points_per_dim: grid resolution for grid/hybrid methods
    """

    method: str = "nelder_mead"
    multistarts: int = 5
    tolerance: float = 1e-8
    max_iters: int = 500
    grid_points_per_dim: int = 64

    def __post_init__(self):
        if self.method not in OPTIMIZER_METHODS:
            raise ConfigurationError(
                f"method must be one of {OPTIMIZER_METHODS}, got {self.method!r}"
            )
        if self.multistarts < 1:
            raise ConfigurationError("multistarts must be >= 1")
        if not (self.tolerance > 0.0):
            raise ConfigurationError("tolerance must be positive")
        if self.max_iters < 1:
            raise ConfigurationError("max_iters must be >= 1")
        if self.grid_points_per_dim < 2:
            raise ConfigurationError("grid_points_per_dim must be >= 2")


@dataclass(frozen=True, slots=True)
class PathOptimum:
    """Worst-case value of one path: index, value, attaining parameters."""

    index: int
    q_weight: float
    value: float
    theta: Theta


@dataclass(frozen=True, slots=True)
class EvaluationReport:
    """Result of a robust valuation, optionally with the classical side.

    robust_price:  weighted sum of per-path worst-case values
    per_path:      the per-path optima, ascending path index
    sup_classical: best single-model price over the box (None if not run)
    argmax_outer:  parameter point attaining sup_classical
    delta:         robust_price - sup_classical (None if not run)
    """

    robust_price: float
    per_path: tuple[PathOptimum, ...]
    sup_classical: float | None = None
    argmax_outer: Theta | None = None
    delta: float | None = None

    def __post_init__(self):
        if self.sup_classical is not None:
            if self.delta is None or not math.isclose(
                self.delta, self.robust_price - self.sup_classical, abs_tol=1e-12
            ):
                raise NumericalError("delta must equal robust_price - sup_classical")
            # pathwise domination makes the robust price an upper bound
            if self.delta < -1e-9:
                raise NumericalError(
                    f"robust price {self.robust_price} below classical supremum "
                    f"{self.sup_classical}"
                )


# (point, path) pairs per kernel block: up to 1024 paths (T <= 10) each
# (points, paths, T+1) temporary takes 8*(T+1) kB; beyond that a block is
# one point and the temporaries grow with the path count.  Larger blocks
# measured slower on the classical screen
_BLOCK_PAIRS = 1 << 10


class _Kernel:
    """Conditional values G(path, theta) for blocks of (a, d) points.

    Built once per path sequence and death-parameter pair (b, c): payouts,
    risk-neutral weights and price prefix sums are stored with one row per
    path, and the death leg is computed here, once.  The prefix sums make
    the surrender hazard an O(1) quadratic in a per date, so a value costs
    O(T) exponentials.
    """

    __slots__ = (
        "T", "spec", "surr_on", "f1", "q", "v_surv", "v_pay", "cum1", "cum2", "tt"
    )

    def __init__(
        self,
        paths: Sequence[Path],
        b: float,
        c: float,
        spec: CopulaSpec,
        benefit: BenefitSpec,
        market: MarketParams,
    ):
        T = self.T = market.T
        self.spec = spec
        self.surr_on = benefit.surrender
        self.q = np.array([p.q_weight for p in paths])
        # death survival P(death > t), t = 0..T
        loads = b * np.exp(c * np.arange(T, dtype=float))
        f1 = self.f1 = np.exp(-np.concatenate(([0.0], np.cumsum(loads))))
        payoffs = [discounted_payoffs(benefit, market, p) for p in paths]
        self.v_surv = np.array([sp for sp, _ in payoffs])
        # surrender payouts at interior dates 1..T-1; under independence
        # they enter only through their product with death survival
        self.v_pay = np.array([ip for _, ip in payoffs])[:, 1:T]
        if spec.is_independence:
            self.v_pay = self.v_pay * f1[1:T]
        prices = np.array([p.prices for p in paths])[:, :-1]
        zero = np.zeros((len(paths), 1))
        self.cum1 = np.concatenate((zero, np.cumsum(prices, axis=1)), axis=1)
        self.cum2 = np.concatenate((zero, np.cumsum(prices**2, axis=1)), axis=1)
        self.tt = np.arange(T + 1, dtype=float)

    def values(self, a: np.ndarray, d: np.ndarray) -> np.ndarray:
        """G at paired (a, d) points: shape (points, paths)."""
        T, f1 = self.T, self.f1
        if not self.surr_on:
            return np.broadcast_to(self.v_surv * f1[T], (a.shape[0], self.q.shape[0]))
        a = a[:, None, None]
        # float_power squares through libm pow, as the Python-float classical
        # route did; the array route used to square as a*a, so robust
        # per-path values may move in the last ulp.  The classical band's
        # Nelder-Mead path depends on that last bit
        load = self.tt * np.float_power(a, 2.0) - 2.0 * a * self.cum1 + self.cum2
        f2 = np.exp(load / -d[:, None, None])
        if self.spec.is_independence:
            survival = f1[T] * f2[..., T]
            slices = f2[..., 0 : T - 1] - f2[..., 1:T]
        else:
            # joint survival P(death > t, surrender > t) for t = 1..T
            joint = _survival_array(self.spec, f1[1:], f2[..., 1:])
            upper = _survival_array(self.spec, f1[1:T], f2[..., 0 : T - 1])
            survival = joint[..., T - 1]
            slices = upper - joint[..., : T - 1]
        if float(slices.min(initial=0.0)) < -SLICE_TOL:
            raise NumericalError("negative surrender slice mass beyond tolerance")
        if not self.spec.is_independence:
            slices = np.clip(slices, 0.0, None)
        return self.v_surv * survival + (slices * self.v_pay).sum(axis=-1)


_Objective = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _objective(kernel: _Kernel, price: bool) -> _Objective:
    """Vectorised (a, d) objective on a kernel.

    price=False gives G itself on a one-path kernel; price=True gives the
    single-model price, an exact q-weighted sum over the kernel's paths in
    path order.  Points go through the kernel in blocks of at most
    _BLOCK_PAIRS (point, path) pairs, so memory stays flat.
    """
    q = kernel.q
    step = max(1, _BLOCK_PAIRS // q.shape[0])

    def f(a: np.ndarray, d: np.ndarray) -> np.ndarray:
        out = np.empty(a.shape[0])
        for i in range(0, a.shape[0], step):
            g = kernel.values(a[i : i + step], d[i : i + step])
            out[i : i + step] = (
                [math.fsum((q * row).tolist()) for row in g] if price else g[:, 0]
            )
        return out

    return f


def _at(f: _Objective, a: float, d: float) -> float:
    """Scalar value of a vectorised objective."""
    return float(f(np.array([a], dtype=float), np.array([d], dtype=float))[0])


def _latin_starts(k: int, ndim: int) -> list[tuple[float, ...]]:
    """k deterministic starts on a Latin pattern over the unit cube."""
    fractions = [(i + 0.5) / k for i in range(k)]
    if ndim == 1:
        return [(f,) for f in fractions]
    perm = list(range(0, k, 2)) + list(range(1, k, 2))
    return [(fractions[i], fractions[perm[i]]) for i in range(k)]


def _optimize_ad(
    f: _Objective,
    a_iv: tuple[float, float],
    d_iv: tuple[float, float],
    cfg: OptimizerConfig,
    maximize: bool,
    extra_points: Sequence[tuple[float, float]] = (),
) -> tuple[float, tuple[float, float]]:
    """Optimize a smooth objective over the (a, d) rectangle.

    `f` maps paired arrays of a and d to objective values.  Candidate
    points come from multistart Nelder-Mead, the dense grid, the
    rectangle corners and midpoint, and any caller-supplied extras; the
    first best candidate wins.
    """
    sign = -1.0 if maximize else 1.0
    a_lo, a_hi = a_iv
    d_lo, d_hi = d_iv
    free = [i for i, (lo, hi) in enumerate((a_iv, d_iv)) if hi > lo]

    def to_point(z: Sequence[float]) -> tuple[float, float]:
        vals = [a_lo, d_lo]
        for j, i in enumerate(free):
            lo, hi = (a_iv, d_iv)[i]
            vals[i] = lo + min(max(z[j], 0.0), 1.0) * (hi - lo)
        return vals[0], vals[1]

    candidates: list[tuple[float, float]] = [
        (a_lo, d_lo),
        (a_lo, d_hi),
        (a_hi, d_lo),
        (a_hi, d_hi),
        (0.5 * (a_lo + a_hi), 0.5 * (d_lo + d_hi)),
    ]
    for a, d in extra_points:
        candidates.append((min(max(a, a_lo), a_hi), min(max(d, d_lo), d_hi)))

    if free and cfg.method in ("grid", "hybrid"):
        n = cfg.grid_points_per_dim
        a_grid = np.linspace(a_lo, a_hi, n) if a_hi > a_lo else np.array([a_lo])
        d_grid = np.linspace(d_lo, d_hi, n) if d_hi > d_lo else np.array([d_lo])
        aa, dd = np.meshgrid(a_grid, d_grid, indexing="ij")
        aa, dd = aa.ravel(), dd.ravel()
        best = int(np.argmin(sign * f(aa, dd)))
        candidates.append((float(aa[best]), float(dd[best])))

    converged = None
    if free and cfg.method in ("nelder_mead", "hybrid"):
        # space-filling screen: its best point seeds one extra polish run,
        # so multistart locality cannot miss a basin the screen can see
        starts = _latin_starts(cfg.multistarts, len(free))
        n_screen = _SCREEN_POINTS_PER_DIM if len(free) == 2 else _SCREEN_POINTS_PER_DIM**2
        axes = [np.linspace(0.0, 1.0, n_screen)] * len(free)
        mesh = np.meshgrid(*axes, indexing="ij") if len(free) == 2 else axes
        zz = np.stack([m.ravel() for m in mesh], axis=1)
        pts = np.array([to_point(z) for z in zz])
        starts.append(tuple(zz[int(np.argmin(sign * f(pts[:, 0], pts[:, 1])))]))
        converged = 0
        for z0 in starts:
            res = minimize(
                lambda z: sign * _at(f, *to_point(z)),
                np.asarray(z0),
                method="Nelder-Mead",
                bounds=[(0.0, 1.0)] * len(free),
                options={
                    "maxiter": cfg.max_iters,
                    "fatol": cfg.tolerance,
                    "xatol": _XATOL,
                },
            )
            candidates.append(to_point(res.x))
            converged += bool(res.success)

    pts = np.array(candidates, dtype=float)
    vals = f(pts[:, 0], pts[:, 1])
    best = min(range(len(candidates)), key=lambda i: sign * vals[i])
    best_val = float(vals[best])
    if converged == 0:
        raise NumericalError(
            f"Nelder-Mead failed to converge within {cfg.max_iters} iterations "
            f"on all {len(starts)} starts",
            best_value=best_val,
        )
    if not math.isfinite(best_val):
        raise NumericalError(f"objective returned non-finite value {best_val}")
    return best_val, candidates[best]


def conditional_value(
    path: Path,
    theta: Theta,
    spec: CopulaSpec,
    benefit: BenefitSpec,
    market: MarketParams,
) -> float:
    """Discounted conditional contract value G(path, theta)."""
    kernel = _Kernel([path], theta.b, theta.c, spec, benefit, market)
    return _at(_objective(kernel, price=False), theta.a, theta.d)


def pathwise_esssup(
    path: Path,
    box: ParamBox,
    spec: CopulaSpec,
    benefit: BenefitSpec,
    market: MarketParams,
    cfg: OptimizerConfig,
    extra_thetas: Sequence[Theta] = (),
) -> tuple[float, Theta]:
    """Per-path supremum of the conditional value over the box.

    (b, c) are pinned to their lower bounds by the monotone certificate;
    the remaining (a, d) rectangle is searched per the configuration.
    """
    b, c = box.b[0], box.c[0]
    value, (a_star, d_star) = _optimize_ad(
        _objective(_Kernel([path], b, c, spec, benefit, market), price=False),
        box.a,
        box.d,
        cfg,
        maximize=True,
        extra_points=[(t.a, t.d) for t in extra_thetas],
    )
    return value, Theta(a_star, b, c, d_star)


def robust_price(
    box: ParamBox,
    spec: CopulaSpec,
    benefit: BenefitSpec,
    market: MarketParams,
    cfg: OptimizerConfig,
    extra_thetas: Sequence[Theta] = (),
) -> EvaluationReport:
    """Worst-case price: q-weighted per-path suprema, robust side only.

    Path results are combined by an exact sum in ascending path-index
    order.
    """
    optima = []
    for path in enumerate_paths(market):
        value, theta = pathwise_esssup(
            path, box, spec, benefit, market, cfg, extra_thetas
        )
        optima.append(PathOptimum(path.index, path.q_weight, value, theta))
    total = math.fsum(opt.q_weight * opt.value for opt in optima)
    return EvaluationReport(robust_price=total, per_path=tuple(optima))


def classical_price(
    theta: Theta,
    spec: CopulaSpec,
    benefit: BenefitSpec,
    market: MarketParams,
) -> float:
    """Price under one fixed hazard model: E_Q of the conditional value."""
    kernel = _Kernel(enumerate_paths(market), theta.b, theta.c, spec, benefit, market)
    return _at(_objective(kernel, price=True), theta.a, theta.d)


def _optimize_classical(
    box: ParamBox,
    spec: CopulaSpec,
    benefit: BenefitSpec,
    market: MarketParams,
    cfg: OptimizerConfig,
    maximize: bool,
) -> tuple[float, Theta]:
    # monotone certificate: worst case pins (b, c) low, best case high
    b, c = (box.b[0], box.c[0]) if maximize else (box.b[1], box.c[1])
    kernel = _Kernel(enumerate_paths(market), b, c, spec, benefit, market)
    value, (a_star, d_star) = _optimize_ad(
        _objective(kernel, price=True), box.a, box.d, cfg, maximize=maximize
    )
    return value, Theta(a_star, b, c, d_star)


def sup_classical(
    box: ParamBox,
    spec: CopulaSpec,
    benefit: BenefitSpec,
    market: MarketParams,
    cfg: OptimizerConfig,
) -> tuple[float, Theta]:
    """Largest single-model price over the box, with its attaining point."""
    return _optimize_classical(box, spec, benefit, market, cfg, maximize=True)


def inf_classical(
    box: ParamBox,
    spec: CopulaSpec,
    benefit: BenefitSpec,
    market: MarketParams,
    cfg: OptimizerConfig,
) -> tuple[float, Theta]:
    """Smallest single-model price over the box, with its attaining point."""
    return _optimize_classical(box, spec, benefit, market, cfg, maximize=False)


def evaluate(
    box: ParamBox,
    spec: CopulaSpec,
    benefit: BenefitSpec,
    market: MarketParams,
    cfg: OptimizerConfig,
) -> EvaluationReport:
    """Full robust-versus-classical evaluation.

    The classical argmax is injected as a candidate into every per-path
    search, which guarantees the domination robust >= sup_classical holds
    in floating point, not just in theory.
    """
    sup_val, theta_star = sup_classical(box, spec, benefit, market, cfg)
    robust = robust_price(box, spec, benefit, market, cfg, extra_thetas=(theta_star,))
    return EvaluationReport(
        robust_price=robust.robust_price,
        per_path=robust.per_path,
        sup_classical=sup_val,
        argmax_outer=theta_star,
        delta=robust.robust_price - sup_val,
    )
