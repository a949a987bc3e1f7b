"""Binomial market: paths, martingale identities, pricing, replication."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rifa.errors import ConfigurationError, ContractError, ResourceError
from rifa.lattice import (
    MAX_LATTICE_STEPS,
    Claim,
    MarketParams,
    Path,
    binomial_call,
    enumerate_paths,
    path_arrays,
    risk_neutral_probs,
    strategy_gain,
    superhedge,
)


def test_risk_neutral_probs_reference_market(market_paper):
    q_u, q_d = risk_neutral_probs(market_paper)
    assert q_u == pytest.approx(0.75, abs=1e-15)
    assert q_d == pytest.approx(0.25, abs=1e-15)


def test_market_steps_are_integers():
    """T rejects bools and floats, and stores numpy integers as int."""
    for bad in (True, False, 2.0, "2"):
        with pytest.raises(ConfigurationError, match="T must be"):
            MarketParams(s0=100.0, u=0.1, v=-0.1, r=0.05, T=bad)
    market = MarketParams(s0=100.0, u=0.1, v=-0.1, r=0.05, T=np.int64(4))
    assert market.T == 4 and type(market.T) is int
    assert market == MarketParams(s0=100.0, u=0.1, v=-0.1, r=0.05, T=4)


def test_market_validation_rejects_bad_orderings():
    with pytest.raises(ConfigurationError):
        MarketParams(s0=-1.0, u=0.1, v=-0.1, r=0.05, T=2)
    with pytest.raises(ConfigurationError):
        MarketParams(s0=100.0, u=0.05, v=-0.1, r=0.05, T=2)  # r must be < u
    with pytest.raises(ConfigurationError):
        MarketParams(s0=100.0, u=0.1, v=0.2, r=0.05, T=2)
    with pytest.raises(ConfigurationError):
        MarketParams(s0=100.0, u=0.1, v=-1.5, r=0.05, T=2)  # v must exceed -1
    with pytest.raises(ConfigurationError):
        MarketParams(s0=100.0, u=0.1, v=-0.1, r=0.05, T=0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigurationError):
            MarketParams(s0=bad, u=0.1, v=-0.1, r=0.05, T=2)
        with pytest.raises(ConfigurationError):
            MarketParams(s0=100.0, u=bad, v=-0.1, r=0.05, T=2)
    # an int past the float range raised OverflowError
    with pytest.raises(ConfigurationError, match="s0 .* 401 digits"):
        MarketParams(s0=10**400, u=0.1, v=-0.1, r=0.05, T=2)


def _reference_paths(market):
    """(prices, weight) of every path from a per-path, per-step loop."""
    q_u, q_d = risk_neutral_probs(market)
    up, down = 1.0 + market.u, 1.0 + market.v
    paths = []
    for index in range(1 << market.T):
        s, weight = market.s0, 1.0
        prices = [s]
        for t in range(market.T):
            if (index >> t) & 1:
                s *= up
                weight *= q_u
            else:
                s *= down
                weight *= q_d
            prices.append(s)
        paths.append((prices, weight))
    return paths


@pytest.mark.parametrize(
    "s0, u, v, r",
    [(100.0, 0.1, -0.1, 0.05), (37.3, 0.3, -0.2, 0.01), (1.0, 0.07, -0.03, 0.02)],
)
@pytest.mark.parametrize("T", [1, 4, 8, 12])
def test_path_arrays_match_reference_loop(T, s0, u, v, r):
    """The array lattice equals the per-path loop bit for bit."""
    market = MarketParams(s0=s0, u=u, v=v, r=r, T=T)
    prices, q = path_arrays(market)
    assert prices.shape == (1 << T, T + 1) and q.shape == (1 << T,)
    reference = _reference_paths(market)

    def hexes(xs):
        return [float.hex(x) for x in xs]

    assert [hexes(row) for row in prices.tolist()] == [hexes(p) for p, _ in reference]
    assert hexes(q.tolist()) == hexes([w for _, w in reference])
    paths = enumerate_paths(market)
    assert [p.prices for p in paths] == [tuple(row) for row in prices.tolist()]
    assert [p.q_weight for p in paths] == q.tolist()


@pytest.mark.parametrize("T", [1, 4, 8, 12])
def test_price_columns_repeat_over_prefixes(T):
    """Column t depends only on the row mod 2**t: the prefix tree's premise."""
    prices, _ = path_arrays(MarketParams(s0=100.0, u=0.1, v=-0.1, r=0.05, T=T))
    for t in range(T + 1):
        column = prices[:, t]
        assert np.array_equal(column, np.tile(column[: 1 << t], 1 << (T - t)))


def test_lattice_cap_fits_uint16_exit_cells():
    # portfolio_trials codes a client's exit times, each in 1..T+1, as the
    # cell (T+2)*tau_death + tau_surrender <= (T+1)(T+3), in the smallest
    # unsigned type that holds it; at the cap that is two bytes
    T = MAX_LATTICE_STEPS
    assert np.min_scalar_type((T + 1) * (T + 3)) == np.uint16


def _ups(market, path):
    # v < r < u: an up step outgrows the riskless rate, a down step does not
    steps = zip(path.prices, path.prices[1:])
    return [after / before > 1.0 + market.r for before, after in steps]


def test_enumerate_paths_index_encoding(market_small):
    paths = enumerate_paths(market_small)
    assert len(paths) == 16
    assert [p.index for p in paths] == list(range(16))
    up, down = 1.0 + market_small.u, 1.0 + market_small.v
    for p in paths:
        assert p.prices[0] == market_small.s0
        for t, is_up in enumerate(_ups(market_small, p)):
            # bit t of the index records the move over step t+1
            assert ((p.index >> t) & 1) == is_up
            ratio = p.prices[t + 1] / p.prices[t]
            assert ratio == pytest.approx(up if is_up else down, rel=1e-15)


def test_path_weights_sum_to_one(market_small):
    paths = enumerate_paths(market_small)
    assert math.fsum(p.q_weight for p in paths) == pytest.approx(1.0, abs=1e-12)
    q_u, q_d = risk_neutral_probs(market_small)
    for p in paths:
        ups = sum(_ups(market_small, p))
        assert ups == bin(p.index).count("1")
        assert p.q_weight == pytest.approx(q_u**ups * q_d ** (4 - ups), rel=1e-13)


def test_lattice_cap_enforced():
    big = MarketParams(s0=100.0, u=0.1, v=-0.1, r=0.05, T=MAX_LATTICE_STEPS + 1)
    with pytest.raises(ResourceError):
        path_arrays(big)
    with pytest.raises(ResourceError):
        enumerate_paths(big)


def test_martingale_node_identity(market_paper):
    """Each node's discounted price is the Q-mean of its successors."""
    q_u, q_d = risk_neutral_probs(market_paper)
    disc = market_paper.discount
    for p in enumerate_paths(market_paper):
        for t in range(market_paper.T):
            s = p.prices[t] * disc**t
            s_up = p.prices[t] * (1.0 + market_paper.u) * disc ** (t + 1)
            s_dn = p.prices[t] * (1.0 + market_paper.v) * disc ** (t + 1)
            assert q_u * s_up + q_d * s_dn == pytest.approx(s, abs=1e-9)


def _call_by_paths(market, strike):
    # undiscounted terminal expectation, matching the closed form's contract
    return math.fsum(
        p.q_weight * max(p.prices[-1] - strike, 0.0)
        for p in enumerate_paths(market)
    )


@pytest.mark.parametrize("strike", [0.0, 50.0, 100.0, 101.0 * 1.01**7, 250.0])
@pytest.mark.parametrize("T", [1, 4, 8])
def test_binomial_call_matches_path_enumeration(strike, T):
    market = MarketParams(s0=100.0, u=0.1, v=-0.1, r=0.05, T=T)
    closed = binomial_call(market, strike)
    brute = _call_by_paths(market, strike)
    assert closed == pytest.approx(brute, rel=1e-10, abs=1e-12)


def test_binomial_call_rejects_negative_strike(market_small):
    with pytest.raises(ConfigurationError):
        binomial_call(market_small, -1.0)


def test_claim_validation():
    with pytest.raises(ContractError):
        Claim((1.0, 2.0, 3.0))  # not a power of two
    with pytest.raises(ContractError):
        Claim((1.0, math.inf))
    assert Claim((1.0, 2.0)).values == (1.0, 2.0)


def test_superhedge_replicates_random_claims():
    """Criterion: replication identity on 50 random claims, T in 1..8."""
    rng = np.random.default_rng(2024)
    for trial in range(50):
        T = int(rng.integers(1, 9))
        market = MarketParams(s0=100.0, u=0.1, v=-0.1, r=0.05, T=T)
        values = tuple(float(v) for v in rng.uniform(-50.0, 150.0, 1 << T))
        cost, holdings = superhedge(market, Claim(values))
        for p in enumerate_paths(market):
            gain = strategy_gain(market, holdings, p)
            assert cost + gain == pytest.approx(values[p.index], abs=1e-9)


def test_superhedge_cost_is_expectation(market_small):
    rng = np.random.default_rng(7)
    values = tuple(float(v) for v in rng.uniform(0.0, 100.0, 16))
    cost, _ = superhedge(market_small, Claim(values))
    paths = enumerate_paths(market_small)
    expected = math.fsum(p.q_weight * values[p.index] for p in paths)
    assert cost == pytest.approx(expected, rel=1e-12)


def test_constant_claim_needs_no_hedging(market_small):
    cost, holdings = superhedge(market_small, Claim((42.0,) * 16))
    assert cost == pytest.approx(42.0, abs=1e-12)
    for level in holdings:
        assert np.all(level == 0.0)


def test_strategy_gain_zero_holdings(market_small):
    paths = enumerate_paths(market_small)
    holdings = [np.zeros(1 << t) for t in range(market_small.T)]
    for p in paths:
        assert strategy_gain(market_small, holdings, p) == 0.0


def test_holdings_are_predictable(market_small):
    """Two paths sharing a t-prefix accrue identical gains through t."""
    rng = np.random.default_rng(5)
    values = tuple(float(v) for v in rng.uniform(0.0, 100.0, 16))
    _, holdings = superhedge(market_small, Claim(values))
    paths = enumerate_paths(market_small)
    # indices 0b0011 and 0b1011 share the first three moves
    pa, pb = paths[0b0011], paths[0b1011]
    # zero out the final rebalance so only the shared prefix accrues gains
    trunc = [holdings[t] for t in range(3)] + [np.zeros(8)]
    ga = strategy_gain(market_small, trunc, pa)
    gb = strategy_gain(market_small, trunc, pb)
    assert ga == pytest.approx(gb, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    T=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_replication_property(T, seed):
    market = MarketParams(s0=100.0, u=0.1, v=-0.1, r=0.05, T=T)
    rng = np.random.default_rng(seed)
    values = tuple(float(v) for v in rng.uniform(-10.0, 10.0, 1 << T))
    cost, holdings = superhedge(market, Claim(values))
    for p in enumerate_paths(market):
        assert cost + strategy_gain(market, holdings, p) == pytest.approx(
            values[p.index], abs=1e-9
        )


def test_path_is_frozen(market_small):
    p = enumerate_paths(market_small)[0]
    with pytest.raises(AttributeError):
        p.index = 3
    assert isinstance(p, Path)
