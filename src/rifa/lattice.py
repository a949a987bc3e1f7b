"""Binomial market lattice: paths, risk-neutral weights, replication.

The market is a one-asset binomial model with per-step up/down returns
``u`` and ``v`` and riskless rate ``r``.  No-arbitrage requires
``v < r < u``, which makes the risk-neutral one-step probabilities

    q_u = (r - v) / (u - v),    q_d = (u - r) / (u - v)

strictly positive and unique, so the market is complete and every
terminal-measurable claim is exactly replicable.

All claim values and replication arithmetic are in discounted units
(time-t cash divided by ``(1+r)**t``).  Paths are numbered by binary
index: bit ``t`` of the index is 1 exactly when step ``t+1`` is an up
move, so index 0 is the all-down path and index ``2**T - 1`` all-up.

``path_arrays`` is the one place that lays the lattice out: a price
array of shape ``(2**T, T+1)`` whose row is the path index and whose
column is the date, and the risk-neutral weight of each row.  ``Path``
and ``enumerate_paths`` are a per-path view of those arrays, for the
scalar reference functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from rifa.errors import ConfigurationError, ContractError, ResourceError

# path_arrays and superhedge materialise O(2**T) state; above this the
# request is refused rather than left to exhaust memory.
MAX_LATTICE_STEPS = 24


def _is_int(x) -> bool:
    """True for Python and numpy integers; bool is an int subclass, not a count."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _real(name: str, x) -> float:
    """x as a float: Python and numpy reals pass, bool (an int) does not."""
    if isinstance(x, bool) or not isinstance(x, (int, float, np.integer, np.floating)):
        raise ConfigurationError(f"{name} must be a real number, got {x!r}")
    try:
        return float(x)
    except OverflowError:  # a Python int past the float range
        digits = int(abs(x).bit_length() * math.log10(2))  # the count, or one less
        digits += abs(x) >= 10**digits
        raise ConfigurationError(
            f"{name} must lie in the float range, got an integer of {digits} digits"
        ) from None


@dataclass(frozen=True, slots=True)
class MarketParams:
    """Static description of the binomial market.

    s0: initial asset price, > 0
    u:  up return per step
    v:  down return per step, -1 < v < r < u
    r:  riskless rate per step
    T:  number of steps, >= 1
    """

    s0: float
    u: float
    v: float
    r: float
    T: int

    def __post_init__(self):
        for name in ("s0", "u", "v", "r"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        if not 0.0 < self.s0 < math.inf:
            raise ConfigurationError(f"s0 must be positive and finite, got {self.s0}")
        if not _is_int(self.T) or self.T < 1:
            raise ConfigurationError(f"T must be an integer >= 1, got {self.T!r}")
        object.__setattr__(self, "T", int(self.T))
        if not (-1.0 < self.v < self.r < self.u < math.inf):
            raise ConfigurationError(
                f"returns must satisfy -1 < v < r < u, got v={self.v}, r={self.r}, u={self.u}"
            )

    @property
    def discount(self) -> float:
        """One-period discount factor 1/(1+r)."""
        return 1.0 / (1.0 + self.r)


@dataclass(frozen=True, slots=True)
class Path:
    """One full scenario of the market filtration.

    index:    binary path index (bit t set <=> step t+1 is up)
    prices:   asset prices S_0 .. S_T (undiscounted)
    q_weight: risk-neutral probability of the path
    """

    index: int
    prices: tuple[float, ...]
    q_weight: float

    @classmethod
    def from_row(cls, prices: np.ndarray, q: np.ndarray, index: int) -> "Path":
        """The path of row ``index`` of ``path_arrays``."""
        return cls(index, tuple(prices[index].tolist()), float(q[index]))


@dataclass(frozen=True, slots=True)
class Claim:
    """Terminal-measurable payoff in discounted units, one value per path.

    values[i] is the discounted payoff on the path with binary index i.
    """

    values: tuple[float, ...]

    def __post_init__(self):
        n = len(self.values)
        if n == 0 or n & (n - 1):
            raise ContractError(f"claim must cover 2**T paths, got {n} values")
        if not all(math.isfinite(x) for x in self.values):
            raise ContractError("claim values must all be finite")


def risk_neutral_probs(market: MarketParams) -> tuple[float, float]:
    """Unique one-step martingale probabilities (q_u, q_d)."""
    span = market.u - market.v
    q_u = (market.r - market.v) / span
    q_d = (market.u - market.r) / span
    return q_u, q_d


def path_arrays(market: MarketParams) -> tuple[np.ndarray, np.ndarray]:
    """Prices and risk-neutral weights of all 2**T paths.

    Returns ``(prices, q)``: ``prices[i, t]`` is S_t on the path with
    binary index i and ``q[i]`` that path's weight.  Both are running
    products over the steps in date order, S_0 * f_1 * .. * f_t.
    """
    T = market.T
    if T > MAX_LATTICE_STEPS:
        raise ResourceError(
            f"T={T} exceeds the enumeration cap of {MAX_LATTICE_STEPS} steps"
        )
    q_u, q_d = risk_neutral_probs(market)
    up = ((np.arange(1 << T)[:, None] >> np.arange(T)) & 1).astype(bool)
    factors = np.where(up, 1.0 + market.u, 1.0 + market.v)
    start = np.full((1 << T, 1), market.s0)
    prices = np.cumprod(np.hstack((start, factors)), axis=1)
    q = np.cumprod(np.where(up, q_u, q_d), axis=1)[:, -1]
    return prices, q


def enumerate_paths(market: MarketParams) -> list[Path]:
    """All 2**T paths in ascending binary-index order, as Path views."""
    prices, q = path_arrays(market)
    return [Path.from_row(prices, q, index) for index in range(q.shape[0])]


def binomial_call(market: MarketParams, strike: float) -> float:
    """Undiscounted risk-neutral expectation of (S_T - strike)^+.

    Closed binomial sum over the number of up moves; no path enumeration.
    """
    if strike < 0.0:
        raise ConfigurationError(f"strike must be nonnegative, got {strike}")
    q_u, q_d = risk_neutral_probs(market)
    T = market.T
    total = 0.0
    for k in range(T + 1):
        s_term = market.s0 * (1.0 + market.u) ** k * (1.0 + market.v) ** (T - k)
        if s_term > strike:
            total += math.comb(T, k) * q_u**k * q_d ** (T - k) * (s_term - strike)
    return total


def _discounted_price_tree(market: MarketParams) -> list[np.ndarray]:
    """Discounted prices on the binary prefix tree.

    Level t holds 2**t nodes indexed by the prefix bits of the path index
    (bit s set <=> step s+1 was up).  Discounted so the tree is a
    Q-martingale node by node.
    """
    disc = market.discount
    up, down = (1.0 + market.u) * disc, (1.0 + market.v) * disc
    levels = [np.array([market.s0])]
    for t in range(market.T):
        prev = levels[-1]
        nxt = np.empty(2 << t)
        nxt[: 1 << t] = prev * down  # bit t clear: down move
        nxt[1 << t :] = prev * up  # bit t set: up move
        levels.append(nxt)
    return levels


def superhedge(market: MarketParams, claim: Claim) -> tuple[float, list[np.ndarray]]:
    """Exact replication of a claim by backward induction.

    Returns ``(cost, holdings)`` where ``cost = E_Q[claim]`` and
    ``holdings[t]`` is the asset position held over step ``t+1``, one
    entry per prefix node (indexed by path-index bits 0..t-1).  Holdings
    depend on the path prefix only, so the strategy is predictable.  On
    every path, ``cost + sum_t holdings * (price move) == claim`` in
    discounted units, exactly up to float rounding.
    """
    T = market.T
    if T > MAX_LATTICE_STEPS:
        raise ResourceError(
            f"T={T} exceeds the replication cap of {MAX_LATTICE_STEPS} steps"
        )
    if len(claim.values) != (1 << T):
        raise ContractError(
            f"claim covers {len(claim.values)} paths but the market has {1 << T}"
        )
    q_u, q_d = risk_neutral_probs(market)
    prices = _discounted_price_tree(market)

    value = np.asarray(claim.values, dtype=float)
    holdings: list[np.ndarray] = [np.empty(0)] * T
    for t in range(T - 1, -1, -1):
        half = 1 << t
        v_down, v_up = value[:half], value[half:]
        s_down, s_up = prices[t + 1][:half], prices[t + 1][half:]
        # complete one-step market: unique holding and martingale value
        holdings[t] = (v_up - v_down) / (s_up - s_down)
        value = q_u * v_up + q_d * v_down
    return float(value[0]), holdings


def strategy_gain(
    market: MarketParams, holdings: Sequence[np.ndarray], path: Path
) -> float:
    """Discounted terminal gain of a self-financing position along a path."""
    disc = market.discount
    gain = 0.0
    for t in range(market.T):
        prefix = path.index & ((1 << t) - 1)
        s_now = path.prices[t] * disc**t
        s_next = path.prices[t + 1] * disc ** (t + 1)
        gain += float(holdings[t][prefix]) * (s_next - s_now)
    return gain
