"""Arbitrage verdicts, explicit constructions, and portfolio simulation.

A premium p for the insurance benefit admits no robust asymptotic
arbitrage exactly when it does not exceed the robust price, with a
second sufficient route through the single-model infimum:

* condition (i):  p is at most the smallest classical price over the
  parameter box, so no seller-side construction can profit;
* condition (ii): p is strictly below the robust price, so the combined
  position cannot be made quasi-surely nonnegative with positive mean.

When both fail the premium is too high and an explicit arbitrage
exists: hedge the pathwise worst-case claim in the complete market and
average the premium-minus-benefit balance over an ever larger pool of
conditionally independent clients.  The Monte-Carlo half of the module
streams such pools one trial at a time (`portfolio_trials`) and verifies
the constructed pair within an explicit law-of-large-numbers error budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .benefits import BenefitSpec, payoff_table
from .copulas import CopulaSpec, sample_pairs
from .errors import ConfigurationError, ContractError, VerificationError
from .hazards import ParamBox, Theta, gompertz_cdf, surrender_cdf
from .lattice import (
    Claim,
    MarketParams,
    Path,
    _is_int,
    path_arrays,
    strategy_gain,
    superhedge,
)
from .robust_eval import (
    EvaluationReport,
    OptimizerConfig,
    conditional_values,
    inf_classical,
)

__all__ = [
    "COMPARISON_BAND",
    "Verdict",
    "ArbitragePair",
    "PortfolioSample",
    "VerificationReport",
    "nrifa_check",
    "construct_arbitrage",
    "portfolio_trials",
    "lln_rms",
    "verify_arbitrage",
]

# numerical slack applied to the strict/non-strict premium comparisons
COMPARISON_BAND = 1e-9


@dataclass(frozen=True, slots=True)
class Verdict:
    """Outcome of the no-arbitrage characterization for one premium.

    Stores the premium, the robust price, the box infimum of the
    classical price and its attaining point argmin_outer; the rest is
    derived from them:

    margin_i  = inf_classical - premium; condition (i) holds when this
                is >= -COMPARISON_BAND
    margin_ii = robust_price - premium; condition (ii) holds when this
                is > COMPARISON_BAND
    theta_prime witnesses the failure of (i): a model whose classical
    price lies below the premium.  boundary_case flags premiums within
    the comparison band of the robust price, where the verdict falls to
    the non-strict side without asserting strict profitability.
    """

    premium: float
    robust_price: float
    inf_classical: float
    argmin_outer: Theta

    @property
    def margin_i(self) -> float:
        return self.inf_classical - self.premium

    @property
    def margin_ii(self) -> float:
        return self.robust_price - self.premium

    @property
    def status(self) -> str:
        """Condition (i) first, then condition (ii)."""
        if self.margin_i >= -COMPARISON_BAND:
            return "NRIFA_by_i"
        return "NRIFA_by_ii" if self.margin_ii > COMPARISON_BAND else "RIFA_exists"

    @property
    def theta_prime(self) -> Theta | None:
        return None if self.status == "NRIFA_by_i" else self.argmin_outer

    @property
    def boundary_case(self) -> bool:
        return self.status == "RIFA_exists" and abs(self.margin_ii) <= COMPARISON_BAND

    @property
    def is_nrifa(self) -> bool:
        return self.status != "RIFA_exists"


@dataclass(frozen=True, slots=True)
class ArbitragePair:
    """Explicit arbitrage: a hedge plus equal-weight client averaging.

    holdings[t] lists the asset position held over step t+1 for each of
    the 2**t time-t prefix nodes, so the trading strategy is predictable
    by construction.  claim_values is the hedged pathwise worst-case
    claim in ascending path-index order, cost its replication price, and
    shortfall = premium - cost the guaranteed terminal cushion.
    """

    premium: float
    claim_values: tuple[float, ...]
    holdings: tuple[np.ndarray, ...]
    cost: float
    strict_case: bool

    def __post_init__(self):
        n = len(self.claim_values)
        if n < 1 or n & (n - 1):
            raise ContractError("claim must cover a full binary path space")
        levels = n.bit_length() - 1
        if len(self.holdings) != levels:
            raise ContractError(
                f"need {levels} holding levels, got {len(self.holdings)}"
            )
        for t, h in enumerate(self.holdings):
            if len(h) != 1 << t:
                raise ContractError(f"holding level {t} must have {1 << t} nodes")

    @property
    def shortfall(self) -> float:
        return self.premium - self.cost


@dataclass(frozen=True, slots=True)
class PortfolioSample:
    """One simulated client pool on one drawn market path.

    exit_cells[j] = (T+2)*tau_death + tau_surrender codes client j's two
    exit times, each in 1..T+1 with T+1 standing for survival beyond the
    horizon T; it is the client's index into the path's flat payout
    table.  The cells take the smallest unsigned type that holds
    (T+1)(T+3): one byte per client through T = 14, two beyond.
    portfolio_values[i] is the average of (premium - benefit) over the
    first n_schedule[i] clients.
    """

    trial: int
    path_index: int
    exit_cells: np.ndarray
    n_schedule: tuple[int, ...]
    portfolio_values: tuple[float, ...]
    premium: float
    conditional_value: float

    def __post_init__(self):
        if len(self.portfolio_values) != len(self.n_schedule):
            raise ContractError("one portfolio value per schedule entry required")
        if len(self.exit_cells) != self.n_schedule[-1]:
            raise ContractError("client draws must cover the largest pool size")


@dataclass(frozen=True, slots=True)
class VerificationReport:
    """Summary of a Monte-Carlo check of one arbitrage pair.

    The check passes when no payoff fell below its error budget
    (worst_violation is 0) and, if strict profit is required, some
    model's mean payoff is positive (strict_ok).
    """

    n_clients: int
    trials: int
    thetas: tuple[Theta, ...]
    mean_payoffs: tuple[float, ...]
    min_payoff: float
    worst_violation: float
    strict_required: bool

    @property
    def strict_ok(self) -> bool:
        return (not self.strict_required) or max(self.mean_payoffs) > 0.0

    @property
    def passed(self) -> bool:
        return self.worst_violation >= 0.0 and self.strict_ok


def _check_premium(premium: float) -> None:
    if not (math.isfinite(premium) and premium >= 0.0):
        raise ContractError(f"premium must be finite and >= 0, got {premium}")


def _check_request(
    premium: float, report: EvaluationReport, box: ParamBox, market: MarketParams
) -> None:
    """Reject a premium, or a report computed for another box or lattice."""
    _check_premium(premium)
    if len(report.per_path) != 1 << market.T:
        raise ContractError(
            f"report covers {len(report.per_path)} paths, "
            f"the market has {1 << market.T}"
        )
    for opt in report.per_path:
        if not box.contains(opt.theta):
            raise ContractError("report was computed for a different parameter box")


def _check_schedule(n_schedule: Sequence[int]) -> tuple[int, ...]:
    sched = tuple(n_schedule)
    if not sched:
        raise ContractError("client count schedule must be nonempty")
    prev = 0
    for n in sched:
        if not (_is_int(n) and n > prev):
            raise ContractError(
                f"schedule must be strictly increasing positive integers, got {sched}"
            )
        prev = int(n)
    return tuple(int(n) for n in sched)


def _check_run(
    n_schedule: Sequence[int], trials: int, seed: int
) -> tuple[tuple[int, ...], int, int]:
    """Validated schedule, trial count and seed, all as Python ints.

    The seed must be a Python int before it reaches a SeedSequence, so
    that a numpy seed gives the same entropy, and before seed arithmetic,
    which would wrap in a fixed-width numpy integer.
    """
    sched = _check_schedule(n_schedule)
    if not (_is_int(trials) and trials >= 1):
        raise ContractError(f"trials must be a positive integer, got {trials}")
    if not (_is_int(seed) and seed >= 0):
        raise ConfigurationError(f"seed must be a nonnegative integer, got {seed}")
    return sched, int(trials), int(seed)


def nrifa_check(
    premium: float,
    report: EvaluationReport,
    box: ParamBox,
    spec: CopulaSpec,
    benefit: BenefitSpec,
    market: MarketParams,
    cfg: OptimizerConfig,
) -> Verdict:
    """Decide absence of robust asymptotic arbitrage for a premium.

    Condition (i) is checked first against the box infimum of the
    classical price (non-strict, within COMPARISON_BAND); condition (ii)
    against the robust price (strict).  Either one yields NRIFA; when
    both fail the premium admits an explicit arbitrage.
    """
    _check_request(premium, report, box, market)
    inf_val, theta_min = inf_classical(box, spec, benefit, market, cfg)
    return Verdict(premium, report.robust_price, inf_val, theta_min)


def construct_arbitrage(
    premium: float,
    report: EvaluationReport,
    box: ParamBox,
    spec: CopulaSpec,
    benefit: BenefitSpec,
    market: MarketParams,
) -> ArbitragePair:
    """Build the explicit arbitrage for a premium at or above the robust price.

    The hedge replicates the pathwise worst-case claim, whose cost is
    the robust price; selling insurance at the premium and averaging
    over a growing client pool then leaves the constant cushion
    premium - cost plus a vanishing sampling error.
    """
    _check_request(premium, report, box, market)
    # the verdict's rule, by the same expressions as its margin_ii
    margin_ii = report.robust_price - premium
    if margin_ii > COMPARISON_BAND:
        raise ContractError(
            f"premium {premium} is below the robust price "
            f"{report.robust_price}; no arbitrage exists"
        )
    claim = Claim(tuple(opt.value for opt in report.per_path))
    cost, holdings = superhedge(market, claim)
    return ArbitragePair(
        premium=premium,
        claim_values=claim.values,
        holdings=tuple(holdings),
        cost=cost,
        strict_case=margin_ii < -COMPARISON_BAND,
    )


def _count_levels(
    cdf: np.ndarray, draws: np.ndarray, mask: np.ndarray, out: np.ndarray
) -> np.ndarray:
    # Adds to `out` the number of levels CDF(1..T) strictly below each draw.
    # The CDF is nondecreasing, so 1 plus that count is the generalized
    # inverse: the smallest t with CDF(t) >= draw, T+1 when none.  Each
    # comparison goes into `mask` (bool, shaped like draws) and is added
    # through its uint8 view, skipping a buffered cast for uint8 `out`.
    hits = mask.view(np.uint8)
    for level in cdf[1:]:
        np.greater(draws, level, out=mask)
        out += hits
    return out


def _payout_table(survival_pay: float, surrender_pays: np.ndarray) -> np.ndarray:
    # The flat (T+2)**2 table of payouts by exit cell (T+2)*td + ts:
    # table[td, ts] = pays[ts] if td > min(ts, T) else 0.0, where
    # pays = (surrender_pays[0..T], survival_pay).  A client alive at
    # min(tau_surrender, T) is paid the surrender leg (zero at T) or, at
    # T+1, the survival leg.
    T = len(surrender_pays) - 1
    pays = np.append(surrender_pays, survival_pay)
    t = np.arange(T + 2)
    return np.where(t[:, None] > np.minimum(t, T), pays, 0.0).ravel()


def portfolio_trials(
    theta: Theta,
    spec: CopulaSpec,
    benefit: BenefitSpec,
    market: MarketParams,
    n_schedule: Sequence[int],
    trials: int,
    seed: int,
    premium: float = 0.0,
) -> Iterator[PortfolioSample]:
    """Simulate equal-weight client pools under one hazard model, lazily.

    The arguments are checked on the call: `trials` and `seed` may be
    Python or numpy integers, not bools, and `premium` is finite and
    >= 0.  The returned iterator draws one trial per step.  A trial
    draws a market path from the risk-neutral weights, then a pool of
    conditionally independent clients: one copula draw per client, mapped
    to its exit cell by counting the CDF levels below it (the death levels
    below u, then (T+2)*tau_death + 1, then the surrender levels below v).
    Its payouts are one `take` of the drawn path's payout table at the
    cells.  Per-trial generators are derived from (seed, trial), so
    results are reproducible.

    All trials share one workspace for the draws and the level
    comparisons, and the surrender levels are computed once per drawn
    path.  The payout table, (T+2)**2 floats, is rebuilt each trial, so
    memory does not grow with the number of distinct paths drawn.  Apart
    from short-lived temporaries (the table, take's intp copy of the
    cells, the copula's), a trial allocates only the exit cells its
    sample keeps, so no two samples share memory.
    """
    sched, trials, seed = _check_run(n_schedule, trials, seed)
    _check_premium(premium)
    prices, q = path_arrays(market)
    survival, surrender = payoff_table(benefit, market, prices)
    g = conditional_values(prices, q, theta, spec, benefit, market)
    T = market.T
    n_max = sched[-1]
    death_cdf = np.array([gompertz_cdf(theta, t) for t in range(T + 1)])
    cell_dtype = np.min_scalar_type((T + 1) * (T + 3))
    draws = (np.empty(n_max), np.empty(n_max))
    mask = np.empty(n_max, bool)
    # surrender levels per drawn path, from the same scalar calls: they are
    # compared exactly, and np.expm1 may differ from math.expm1 in the last bit
    surr_cdfs: dict[int, np.ndarray] = {}

    def trial(k: int) -> PortfolioSample:
        rng = np.random.default_rng([seed, k])
        i = int(rng.choice(q.shape[0], p=q))
        if i not in surr_cdfs:
            path = Path.from_row(prices, q, i)
            surr_cdfs[i] = np.array(
                [surrender_cdf(path, theta, t, benefit.surrender) for t in range(T + 1)]
            )
        u, v = sample_pairs(spec, n_max, rng, out=draws)
        cells = _count_levels(death_cdf, u, mask, np.zeros(n_max, cell_dtype))
        cells *= T + 2
        cells += T + 3  # (T+2)*tau_death + 1, as tau_death is 1 + the count
        _count_levels(surr_cdfs[i], v, mask, cells)
        # u is spent: it takes the payouts, then their running sums.  take's
        # mode="clip" writes to u directly; the cells are all in range.
        x = _payout_table(survival[i], surrender[i]).take(cells, out=u, mode="clip")
        cum = np.cumsum(x, out=x)
        return PortfolioSample(
            trial=k,
            path_index=i,
            exit_cells=cells,
            n_schedule=sched,
            portfolio_values=tuple(premium - cum[n - 1] / n for n in sched),
            premium=premium,
            conditional_value=float(g[i]),
        )

    return map(trial, range(trials))


def lln_rms(samples: Iterable[PortfolioSample]) -> tuple[np.ndarray, np.ndarray]:
    """Root-mean-square gap to the conditional limit per pool size.

    Returns (rms_error, mean_value) arrays over the common schedule; the
    error of a trial at pool size n is the difference between the
    realized average and its conditional limit premium - G(path, theta).
    `samples` may be a one-shot iterable: it is read once, in order,
    keeping only each trial's pool values and conditional limit.
    """
    vals, limits = [], []
    for s in samples:
        if vals and s.n_schedule != sched:
            raise ContractError("samples mix different schedules")
        sched = s.n_schedule
        vals.append(s.portfolio_values)
        limits.append(s.premium - s.conditional_value)
    if not vals:
        raise ContractError("need at least one sample")
    vals = np.array(vals)
    errs = vals - np.array(limits)[:, None]
    return np.sqrt(np.mean(errs * errs, axis=0)), vals.mean(axis=0)


def _spread(x: np.ndarray) -> float:
    """np.std of the payouts x, by its operations in its order (numpy 2.x _var).

    The deviations overwrite x.
    """
    dev = np.subtract(x, np.add.reduce(x) / x.shape[0], out=x)
    return float(np.sqrt(np.add.reduce(np.square(dev, out=dev)) / x.shape[0]))


def verify_arbitrage(
    pair: ArbitragePair,
    premium: float,
    thetas: Sequence[Theta],
    spec: CopulaSpec,
    benefit: BenefitSpec,
    market: MarketParams,
    trials: int,
    seed: int,
    n_clients: int = 100000,
) -> VerificationReport:
    """Monte-Carlo check of a constructed arbitrage pair.

    For every sampled model and trial the realized combined payoff
    (hedge gain plus averaged premium-minus-benefit balance) must stay
    above -5 * sigma / sqrt(n); in the strict case at least one model
    must show a strictly positive empirical mean.  Violations raise
    VerificationError with the partial report attached.
    """
    if not isinstance(pair, ArbitragePair):
        raise ContractError("pair must come from construct_arbitrage")
    if not thetas:
        raise ContractError("need at least one model to sample")
    # validated before the first model: the payoff buffer and the later
    # models' seeds are formed from them
    sched, trials, seed = _check_run([n_clients], trials, seed)
    n_clients = sched[0]
    prices, q = path_arrays(market)
    survival, surrender = payoff_table(benefit, market, prices)
    holdings = list(pair.holdings)
    means: list[float] = []
    min_payoff = math.inf
    worst_violation = 0.0
    for j, theta in enumerate(thetas):
        payoffs = np.empty(trials)
        # Trials are read as they are drawn and none is kept, so memory
        # does not grow with the trial count.
        for s in portfolio_trials(
            theta, spec, benefit, market, sched, trials, seed + 7919 * j, premium
        ):
            path = Path.from_row(prices, q, s.path_index)
            payoff = s.portfolio_values[-1] + strategy_gain(market, holdings, path)
            payoffs[s.trial] = payoff
            min_payoff = min(min_payoff, payoff)
            # the budget is >= 0: only a negative payoff can break it
            if payoff < 0.0:
                payouts = _payout_table(survival[s.path_index], surrender[s.path_index])
                budget = 5.0 * _spread(payouts.take(s.exit_cells)) / math.sqrt(n_clients)
                if payoff < -budget:
                    worst_violation = min(worst_violation, payoff + budget)
        means.append(float(np.mean(payoffs)))
    report = VerificationReport(
        n_clients=n_clients,
        trials=trials,
        thetas=tuple(thetas),
        mean_payoffs=tuple(means),
        min_payoff=min_payoff,
        worst_violation=worst_violation,
        strict_required=pair.strict_case,
    )
    if not report.passed:
        detail = (
            f"payoff violated the LLN budget by {-worst_violation}"
            if worst_violation < 0.0
            else "no sampled model showed a positive mean payoff"
        )
        raise VerificationError(
            f"arbitrage verification failed: {detail}", report=report
        )
    return report
