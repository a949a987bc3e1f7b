"""Contract payouts: guarantee floor, discounting, surrender penalties."""

import math

import numpy as np
import pytest

from rifa.benefits import BenefitSpec, discounted_payoffs, guarantee_value, payoff_table
from rifa.errors import ConfigurationError, NumericalError
from rifa.lattice import MarketParams, enumerate_paths, path_arrays


def test_spec_validation():
    BenefitSpec(K=0.0, r_G=-0.5, l=1.0, surrender=False)
    with pytest.raises(ConfigurationError):
        BenefitSpec(K=-1.0, r_G=0.0, l=0.5)
    with pytest.raises(ConfigurationError):
        BenefitSpec(K=100.0, r_G=-1.0, l=0.5)
    with pytest.raises(ConfigurationError):
        BenefitSpec(K=100.0, r_G=0.0, l=1.5)
    with pytest.raises(ConfigurationError):
        BenefitSpec(K=100.0, r_G=0.0, l=-0.1)
    # "no" priced with a surrender option; numpy bools are stored as bool
    for surrender in ("no", 0, 1.0, None):
        with pytest.raises(ConfigurationError, match="surrender"):
            BenefitSpec(K=100.0, r_G=0.0, l=0.5, surrender=surrender)
    assert BenefitSpec(K=100.0, r_G=0.0, l=0.5, surrender=np.True_).surrender is True
    assert BenefitSpec(K=100.0, r_G=0.0, l=0.5, surrender=np.False_).surrender is False


def test_guarantee_value_hand_computed(market_small):
    spec = BenefitSpec(K=100.0, r_G=0.02, l=0.3)
    all_up = enumerate_paths(market_small)[0b1111]
    all_dn = enumerate_paths(market_small)[0b0000]
    # up path: price always beats the guarantee
    assert guarantee_value(spec, market_small, all_up, 4) == pytest.approx(
        100.0 * 1.1**4, rel=1e-14
    )
    # down path: guarantee floor binds
    assert guarantee_value(spec, market_small, all_dn, 4) == pytest.approx(
        100.0 * 1.02**4, rel=1e-14
    )
    assert guarantee_value(spec, market_small, all_dn, 0) == 100.0
    with pytest.raises(ConfigurationError):
        guarantee_value(spec, market_small, all_up, 5)


def test_floor_is_exact_max(market_small):
    spec = BenefitSpec(K=95.0, r_G=0.0, l=0.0)
    for path in enumerate_paths(market_small):
        for t in range(market_small.T + 1):
            v = guarantee_value(spec, market_small, path, t)
            assert v == max(path.prices[t], 95.0)


def test_discounted_payoffs_hand_computed(market_small):
    spec = BenefitSpec(K=100.0, r_G=0.02, l=0.3)
    path = enumerate_paths(market_small)[0b0011]  # up, up, down, down
    survival_pay, surrender_pays = discounted_payoffs(spec, market_small, path)
    disc = 1.0 / 1.05
    vt = [max(s, 100.0 * 1.02**t) for t, s in enumerate(path.prices)]
    assert survival_pay == pytest.approx(vt[4] * disc**4, rel=1e-14)
    assert surrender_pays.shape == (5,)
    assert surrender_pays[0] == 0.0 and surrender_pays[4] == 0.0
    for t in (1, 2, 3):
        assert surrender_pays[t] == pytest.approx(0.7 * vt[t] * disc**t, rel=1e-14)


def test_surrender_leg_vanishes_without_option(market_small):
    spec = BenefitSpec(K=100.0, r_G=0.02, l=0.3, surrender=False)
    for path in enumerate_paths(market_small):
        _, surrender_pays = discounted_payoffs(spec, market_small, path)
        assert np.all(surrender_pays == 0.0)


def test_full_penalty_kills_surrender_value(market_small):
    spec = BenefitSpec(K=100.0, r_G=0.02, l=1.0)
    path = enumerate_paths(market_small)[0b0101]
    _, surrender_pays = discounted_payoffs(spec, market_small, path)
    assert np.all(surrender_pays == 0.0)


def test_zero_guarantee_is_pure_equity(market_small):
    spec = BenefitSpec(K=0.0, r_G=0.0, l=0.0)
    disc = 1.0 / 1.05
    for path in enumerate_paths(market_small):
        survival_pay, surrender_pays = discounted_payoffs(spec, market_small, path)
        assert survival_pay == pytest.approx(path.prices[-1] * disc**4, rel=1e-14)
        for t in (1, 2, 3):
            assert surrender_pays[t] == pytest.approx(
                path.prices[t] * disc**t, rel=1e-14
            )


def test_huge_guarantee_is_deterministic_bond(market_small):
    """With the floor always binding, every path pays the same amounts."""
    spec = BenefitSpec(K=1e6, r_G=0.0, l=0.25)
    ref = discounted_payoffs(spec, market_small, enumerate_paths(market_small)[0])
    for path in enumerate_paths(market_small)[1:]:
        survival_pay, surrender_pays = discounted_payoffs(spec, market_small, path)
        assert survival_pay == ref[0]
        assert np.array_equal(surrender_pays, ref[1])


def test_penalty_scales_linearly(market_small):
    lo = BenefitSpec(K=100.0, r_G=0.02, l=0.2)
    hi = BenefitSpec(K=100.0, r_G=0.02, l=0.6)
    path = enumerate_paths(market_small)[0b1001]
    _, pays_lo = discounted_payoffs(lo, market_small, path)
    _, pays_hi = discounted_payoffs(hi, market_small, path)
    np.testing.assert_allclose(pays_hi[1:4], pays_lo[1:4] * (0.4 / 0.8), rtol=1e-14)


def test_growth_rate_raises_floor(market_small):
    flat = BenefitSpec(K=100.0, r_G=0.0, l=0.0)
    grow = BenefitSpec(K=100.0, r_G=0.05, l=0.0)
    all_dn = enumerate_paths(market_small)[0b0000]
    for t in range(1, market_small.T + 1):
        assert guarantee_value(grow, market_small, all_dn, t) > guarantee_value(
            flat, market_small, all_dn, t
        )


def test_maturity_pay_dominates_late_surrender(market_paper, benefit_paper):
    """At equal dates, the surrender leg never pays more than the account."""
    disc = market_paper.discount
    for path in enumerate_paths(market_paper)[:32]:
        survival_pay, surrender_pays = discounted_payoffs(
            benefit_paper, market_paper, path
        )
        for t in range(1, market_paper.T):
            full = guarantee_value(benefit_paper, market_paper, path, t) * disc**t
            assert surrender_pays[t] <= full + 1e-12


@pytest.mark.parametrize(
    "spec",
    [
        BenefitSpec(K=100.0, r_G=0.01, l=0.1),
        BenefitSpec(K=100.0, r_G=0.01, l=0.1, surrender=False),
        BenefitSpec(K=100.0, r_G=0.01, l=1.0),
        BenefitSpec(K=100.0, r_G=0.01, l=0.0),
        BenefitSpec(K=100.0, r_G=0.0, l=0.1),
        BenefitSpec(K=0.0, r_G=0.05, l=0.3),
        BenefitSpec(K=180.0, r_G=0.03, l=0.2),
        BenefitSpec(K=0.0, r_G=1e300, l=0.1),
    ],
    ids=[
        "paper", "no-surrender", "l=1", "l=0", "r_G=0", "K=0", "high-floor",
        "K=0-overflowing-growth",
    ],
)
def test_payoff_table_rows_equal_discounted_payoffs(spec, market_paper):
    """Row i of the table is bit for bit the per-path payout of path i."""
    survival, surrender = payoff_table(spec, market_paper, path_arrays(market_paper)[0])
    assert surrender.shape == (1 << market_paper.T, market_paper.T + 1)
    for path in enumerate_paths(market_paper):
        survival_pay, surrender_pays = discounted_payoffs(spec, market_paper, path)
        assert survival[path.index] == survival_pay
        assert surrender[path.index].tolist() == surrender_pays.tolist()


@pytest.mark.parametrize(
    "spec",
    [BenefitSpec(K=100.0, r_G=1e300, l=0.1), BenefitSpec(K=1.7e308, r_G=0.01, l=0.1)],
    ids=["overflowing-floor", "overflowing-payout"],
)
def test_payoff_routes_refuse_payouts_past_the_float_range(spec, market_paper):
    """Both routes raise NumericalError where a payout passes the float range.

    The per-path route raised OverflowError or returned inf payouts there.
    """
    with pytest.raises(NumericalError):
        payoff_table(spec, market_paper, path_arrays(market_paper)[0])
    for path in enumerate_paths(market_paper):
        with pytest.raises(NumericalError):
            discounted_payoffs(spec, market_paper, path)


def test_guarantee_value_refuses_a_floor_past_the_float_range(market_paper):
    """K = 1.7e308 at r_G = 0.01: K * 1.01**t overflows to inf from t = 6 on.

    guarantee_value handed out that inf; it raises NumericalError there,
    and keeps its value at every t where the floor is finite.
    """
    spec = BenefitSpec(K=1.7e308, r_G=0.01, l=0.1)
    path = enumerate_paths(market_paper)[0]
    refused = []
    for t in range(market_paper.T + 1):
        floor = spec.K * 1.01**t
        if math.isinf(floor):
            refused.append(t)
            with pytest.raises(NumericalError, match="float range"):
                guarantee_value(spec, market_paper, path, t)
        else:
            value = guarantee_value(spec, market_paper, path, t)
            assert value.hex() == max(path.prices[t], floor).hex()
    assert refused == [6, 7, 8]


def test_payoff_table_of_a_zero_guarantee_ignores_its_growth_rate(market_paper):
    """K = 0 is a zero floor at any r_G, also where (1 + r_G)**t overflows.

    A positive K there exits the CLI with code 3 (``test_cli``'s payout tests).
    """
    prices = path_arrays(market_paper)[0]
    huge = payoff_table(BenefitSpec(K=0.0, r_G=1e300, l=0.1), market_paper, prices)
    small = payoff_table(BenefitSpec(K=0.0, r_G=0.01, l=0.1), market_paper, prices)
    assert [x.tolist() for x in huge] == [x.tolist() for x in small]
