"""Arbitrage decisions, explicit constructions, and pool simulation."""

import math
import pathlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from rifa import arbitrage_lab
from rifa.arbitrage_lab import (
    COMPARISON_BAND,
    ArbitragePair,
    Verdict,
    _check_schedule,
    _count_levels,
    _payout_table,
    _spread,
    construct_arbitrage,
    lln_rms,
    nrifa_check,
    portfolio_trials,
    verify_arbitrage,
)
from rifa.benefits import BenefitSpec, discounted_payoffs, payoff_table
from rifa.cli import parse_config
from rifa.copulas import CopulaSpec, joint_survival, sample_pairs
from rifa.errors import ConfigurationError, ContractError, VerificationError
from rifa.hazards import ParamBox, Theta, gompertz_cdf, surrender_cdf
from rifa.lattice import (
    MAX_LATTICE_STEPS,
    MarketParams,
    Path,
    enumerate_paths,
    path_arrays,
    strategy_gain,
)
from rifa.robust_eval import (
    OptimizerConfig,
    classical_price,
    conditional_value,
    conditional_values,
    evaluate,
)

PAPER_CFG = pathlib.Path(__file__).resolve().parents[1] / "paper.cfg"
BOX = ParamBox(a=(50.0, 340.0), b=(0.02, 0.03), c=(0.01, 0.05), d=(1e4, 1e5))
CFG = OptimizerConfig(multistarts=3)


@pytest.fixture(scope="module")
def report(market_small_mod, benefit_paper_mod, independence_mod):
    return evaluate(BOX, independence_mod, benefit_paper_mod, market_small_mod, CFG)


@pytest.fixture(scope="module")
def market_small_mod():
    from rifa.lattice import MarketParams

    return MarketParams(s0=100.0, u=0.1, v=-0.1, r=0.05, T=4)


@pytest.fixture(scope="module")
def benefit_paper_mod():
    return BenefitSpec(K=100.0, r_G=0.02, l=0.3)


@pytest.fixture(scope="module")
def independence_mod():
    return CopulaSpec("independence")


def _check(premium, report, market, benefit, spec):
    return nrifa_check(premium, report, BOX, spec, benefit, market, CFG)


def test_verdict_statuses_partition_premium_axis(
    report, market_small_mod, benefit_paper_mod, independence_mod
):
    args = (report, market_small_mod, benefit_paper_mod, independence_mod)
    low = _check(10.0, *args)
    assert low.status == "NRIFA_by_i" and low.is_nrifa
    assert low.theta_prime is None
    assert low.margin_i >= 0.0

    mid = _check(0.5 * (low.inf_classical + report.robust_price), *args)
    assert mid.status == "NRIFA_by_ii" and mid.is_nrifa
    assert mid.theta_prime is not None
    assert BOX.contains(mid.theta_prime, tol=1e-9)
    # the witness model prices the contract below the premium
    witness_price = classical_price(
        mid.theta_prime, independence_mod, benefit_paper_mod, market_small_mod
    )
    assert witness_price < mid.premium

    high = _check(report.robust_price + 1.0, *args)
    assert high.status == "RIFA_exists" and not high.is_nrifa
    assert not high.boundary_case
    assert high.theta_prime is not None


def test_verdict_boundary_case(
    report, market_small_mod, benefit_paper_mod, independence_mod
):
    args = (report, market_small_mod, benefit_paper_mod, independence_mod)
    at_robust = _check(report.robust_price, *args)
    assert at_robust.status == "RIFA_exists"
    assert at_robust.boundary_case
    just_below = _check(report.robust_price - 10.0 * COMPARISON_BAND, *args)
    assert just_below.status == "NRIFA_by_ii"


def test_verdict_monotone_in_premium(
    report, market_small_mod, benefit_paper_mod, independence_mod
):
    """Statuses move one way as the premium sweeps upward."""
    args = (report, market_small_mod, benefit_paper_mod, independence_mod)
    order = {"NRIFA_by_i": 0, "NRIFA_by_ii": 1, "RIFA_exists": 2}
    premiums = np.linspace(0.0, report.robust_price + 5.0, 12)
    ranks = [order[_check(float(p), *args).status] for p in premiums]
    assert all(a <= b for a, b in zip(ranks, ranks[1:]))


def test_nrifa_check_input_validation(
    report, market_small_mod, benefit_paper_mod, independence_mod
):
    with pytest.raises(ContractError):
        _check(-1.0, report, market_small_mod, benefit_paper_mod, independence_mod)
    with pytest.raises(ContractError):
        _check(
            math.nan, report, market_small_mod, benefit_paper_mod, independence_mod
        )
    # a report computed on a different box is rejected
    other_box = ParamBox(a=(50.0, 340.0), b=(0.025, 0.03), c=(0.02, 0.05), d=(1e4, 1e5))
    with pytest.raises(ContractError):
        nrifa_check(
            90.0,
            report,
            other_box,
            independence_mod,
            benefit_paper_mod,
            market_small_mod,
            CFG,
        )
    # a report computed on another lattice is rejected
    shorter = replace(market_small_mod, T=market_small_mod.T - 1)
    with pytest.raises(ContractError):
        _check(90.0, report, shorter, benefit_paper_mod, independence_mod)


def test_verdict_derives_margins_and_status():
    """A verdict stores the prices and the infimum's point; the rest follows."""
    theta = Theta(100.0, 0.02, 0.01, 1e4)
    rifa = Verdict(premium=100.0, robust_price=90.0, inf_classical=80.0, argmin_outer=theta)
    assert (rifa.margin_i, rifa.margin_ii) == (80.0 - 100.0, 90.0 - 100.0)
    assert rifa.status == "RIFA_exists" and not rifa.is_nrifa
    assert rifa.theta_prime is theta and not rifa.boundary_case
    by_i = Verdict(premium=1.0, robust_price=2.0, inf_classical=1.5, argmin_outer=theta)
    assert by_i.status == "NRIFA_by_i" and by_i.is_nrifa and by_i.theta_prime is None
    by_ii = Verdict(premium=1.8, robust_price=2.0, inf_classical=1.5, argmin_outer=theta)
    assert by_ii.status == "NRIFA_by_ii" and by_ii.theta_prime is theta
    edge = Verdict(premium=2.0, robust_price=2.0, inf_classical=1.5, argmin_outer=theta)
    assert edge.status == "RIFA_exists" and edge.boundary_case


def test_construct_refuses_cheap_premium(
    report, market_small_mod, benefit_paper_mod, independence_mod
):
    with pytest.raises(ContractError):
        construct_arbitrage(
            report.robust_price - 1.0,
            report,
            BOX,
            independence_mod,
            benefit_paper_mod,
            market_small_mod,
        )


def test_construct_at_robust_price_is_nonstrict(
    report, market_small_mod, benefit_paper_mod, independence_mod
):
    pair = construct_arbitrage(
        report.robust_price,
        report,
        BOX,
        independence_mod,
        benefit_paper_mod,
        market_small_mod,
    )
    assert not pair.strict_case
    assert pair.shortfall == pytest.approx(0.0, abs=1e-9)
    assert pair.cost == pytest.approx(report.robust_price, abs=1e-9)


def test_construct_hedge_replicates_worst_claim(
    report, market_small_mod, benefit_paper_mod, independence_mod
):
    """premium + hedge gain - worst claim == shortfall on every path."""
    premium = report.robust_price + 1.0
    pair = construct_arbitrage(
        premium, report, BOX, independence_mod, benefit_paper_mod, market_small_mod
    )
    assert pair.strict_case
    assert pair.shortfall == pytest.approx(1.0, abs=1e-9)
    holdings = list(pair.holdings)
    for path in enumerate_paths(market_small_mod):
        gain = strategy_gain(market_small_mod, holdings, path)
        residual = premium + gain - pair.claim_values[path.index]
        assert residual == pytest.approx(pair.shortfall, abs=1e-9)


def test_claim_values_come_from_report(
    report, market_small_mod, benefit_paper_mod, independence_mod
):
    pair = construct_arbitrage(
        report.robust_price,
        report,
        BOX,
        independence_mod,
        benefit_paper_mod,
        market_small_mod,
    )
    assert pair.claim_values == tuple(opt.value for opt in report.per_path)


def _band_edges(robust):
    """Premiums at robust -/+ the band, their float neighbours, and robust."""
    edges = []
    for edge in (robust - COMPARISON_BAND, robust + COMPARISON_BAND):
        edges += [math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)]
    return edges + [robust]


def test_construct_arbitrage_follows_the_verdict_at_the_band_edge():
    """construct_arbitrage refuses exactly the premiums the verdict calls NRIFA_by_ii.

    On paper.cfg's box and optimizer, T = 2..6 and K in {80, 90, 100, 110},
    at premiums on either edge of the comparison band; the verdict is built
    with an infimum of 0, so condition (i) fails and (ii) alone decides.
    """
    cfg = parse_config(str(PAPER_CFG))
    box = cfg.theta_box
    for T in range(2, 7):
        market = replace(cfg.market, T=T)
        for K in (80.0, 90.0, 100.0, 110.0):
            benefit = replace(cfg.benefit, K=K)
            report = evaluate(box, cfg.copula, benefit, market, cfg.optimizer)
            for premium in _band_edges(report.robust_price):
                verdict = Verdict(premium, report.robust_price, 0.0, box.corner_low())
                case = (T, K, premium)
                if verdict.status == "NRIFA_by_ii":
                    with pytest.raises(ContractError, match="no arbitrage exists"):
                        construct_arbitrage(premium, report, box, cfg.copula, benefit, market)
                    assert report.robust_price - premium > COMPARISON_BAND, case
                    continue
                pair = construct_arbitrage(premium, report, box, cfg.copula, benefit, market)
                assert report.robust_price - premium <= COMPARISON_BAND, case
                assert pair.strict_case == (not verdict.boundary_case), case


def test_arbitrage_pair_validation():
    with pytest.raises(ContractError):
        ArbitragePair(
            premium=10.0,
            claim_values=(1.0, 2.0, 3.0),  # not a binary path space
            holdings=(np.zeros(1),),
            cost=2.0,
            strict_case=True,
        )
    with pytest.raises(ContractError):
        ArbitragePair(
            premium=10.0,
            claim_values=(1.0, 2.0),
            holdings=(np.zeros(2),),  # level 0 must have one node
            cost=2.0,
            strict_case=True,
        )
    pair = ArbitragePair(
        premium=10.0, claim_values=(1.0, 2.0), holdings=(np.zeros(1),), cost=2.0,
        strict_case=True,
    )
    assert pair.shortfall == 10.0 - 2.0


def test_schedule_validation():
    """Pool sizes are strictly increasing positive integers, not bools."""
    for bad in ((100, 100), (), (True, 10), (np.bool_(True), 10)):
        with pytest.raises(ContractError):
            _check_schedule(bad)


def test_schedule_stored_as_tuple_of_ints():
    """A list or numpy schedule is kept as the tuple of ints, so it hashes."""
    sched = _check_schedule([10, np.int64(100)])
    assert sched == (10, 100) and type(sched) is tuple
    assert all(type(n) is int for n in sched)


def _simulate(*args, **kwargs):
    """Every trial of a portfolio_trials stream, as a list."""
    return list(portfolio_trials(*args, **kwargs))


def _exit_times(sample, T):
    """The exit times (tau_death, tau_surrender) that a sample's cells code."""
    return np.divmod(sample.exit_cells, T + 2)


def test_simulate_portfolio_deterministic(
    market_small_mod, benefit_paper_mod, independence_mod
):
    theta = Theta(150.0, 0.025, 0.03, 2e4)
    a = _simulate(
        theta, independence_mod, benefit_paper_mod, market_small_mod,
        [50, 100], trials=3, seed=11,
    )
    b = _simulate(
        theta, independence_mod, benefit_paper_mod, market_small_mod,
        [50, 100], trials=3, seed=11,
    )
    for sa, sb in zip(a, b):
        assert sa.path_index == sb.path_index
        assert sa.portfolio_values == sb.portfolio_values
        assert np.array_equal(sa.exit_cells, sb.exit_cells)
    # trials use independent streams
    assert any(
        not np.array_equal(a[i].exit_cells, a[j].exit_cells)
        for i in range(3)
        for j in range(i + 1, 3)
    )


def test_simulate_portfolio_validation(
    market_small_mod, benefit_paper_mod, independence_mod
):
    theta = Theta(150.0, 0.025, 0.03, 2e4)
    with pytest.raises(ContractError):
        portfolio_trials(
            theta, independence_mod, benefit_paper_mod, market_small_mod,
            [100, 50], trials=1, seed=1,
        )
    with pytest.raises(ContractError):
        portfolio_trials(
            theta, independence_mod, benefit_paper_mod, market_small_mod,
            [100], trials=0, seed=1,
        )
    with pytest.raises(ConfigurationError):
        portfolio_trials(
            theta, independence_mod, benefit_paper_mod, market_small_mod,
            [100], trials=1, seed=-1,
        )
    # a premium of nan or inf made nan pool values
    for premium in (math.nan, math.inf, -1.0):
        with pytest.raises(ContractError, match="premium"):
            portfolio_trials(
                theta, independence_mod, benefit_paper_mod, market_small_mod,
                [100], trials=1, seed=1, premium=premium,
            )


@pytest.mark.parametrize(
    "schedule, trials, seed, error",
    [
        ([True, 10], 1, 1, ContractError),
        ([1, 10], True, 1, ContractError),
        ([1, 10], 1, False, ConfigurationError),
        ([1, 10], 1, True, ConfigurationError),
    ],
    ids=["schedule", "trials", "seed_false", "seed_true"],
)
def test_simulate_portfolio_rejects_booleans(
    market_small_mod, benefit_paper_mod, independence_mod, schedule, trials, seed, error
):
    """bool is an int subclass, but no count or seed of the API takes one."""
    theta = Theta(150.0, 0.025, 0.03, 2e4)
    with pytest.raises(error):
        portfolio_trials(
            theta, independence_mod, benefit_paper_mod, market_small_mod,
            schedule, trials=trials, seed=seed,
        )


def _fingerprint(samples):
    """Every stored bit of a sample list, in comparable form."""
    return [
        (
            s.trial,
            s.path_index,
            s.exit_cells.dtype.str,
            s.exit_cells.tobytes(),
            s.n_schedule,
            [float(x).hex() for x in s.portfolio_values],
            s.conditional_value.hex(),
        )
        for s in samples
    ]


def test_simulate_portfolio_accepts_numpy_integers(
    market_small_mod, benefit_paper_mod, independence_mod
):
    """numpy counts and seeds give the samples of the equal Python ints."""
    theta = Theta(150.0, 0.025, 0.03, 2e4)
    args = (theta, independence_mod, benefit_paper_mod, market_small_mod)
    plain = _simulate(*args, [50, 100], trials=3, seed=11)
    from_numpy = _simulate(
        *args, [np.int32(50), np.int64(100)], trials=np.int64(3), seed=np.uint32(11)
    )
    assert _fingerprint(from_numpy) == _fingerprint(plain)
    assert type(from_numpy[0].n_schedule[0]) is int


def _cell_dtype(T):
    return np.min_scalar_type((T + 1) * (T + 3))


def _cells(tau_death, tau_surrender, T, dtype):
    """Exit cells (T+2)*tau_death + tau_surrender, formed in intp."""
    return ((T + 2) * np.asarray(tau_death, np.intp) + tau_surrender).astype(dtype)


def _payouts(tau_death, tau_surrender, survival_pay, surrender_pays, dtype=None):
    """Payouts as a trial takes them, from cells of the given dtype.

    The default is the cell dtype portfolio_trials uses at this horizon.
    """
    T = len(surrender_pays) - 1
    cells = _cells(tau_death, tau_surrender, T, dtype or _cell_dtype(T))
    table = _payout_table(survival_pay, surrender_pays)
    return table.take(cells, out=np.empty(len(cells)), mode="clip")


def _allocating_trials(theta, spec, benefit, market, sched, trials, seed, premium):
    """Oracle for portfolio_trials: every buffer of every trial is new."""
    prices, q = path_arrays(market)
    survival, surrender = payoff_table(benefit, market, prices)
    g = conditional_values(prices, q, theta, spec, benefit, market)
    T = market.T
    death_cdf = np.array([gompertz_cdf(theta, t) for t in range(T + 1)])
    trials_out = []
    for k in range(trials):
        rng = np.random.default_rng([seed, k])
        i = int(rng.choice(q.shape[0], p=q))
        path = Path.from_row(prices, q, i)
        surr_cdf = np.array(
            [surrender_cdf(path, theta, t, benefit.surrender) for t in range(T + 1)]
        )
        u, v = sample_pairs(spec, sched[-1], rng)
        tau1 = _searchsorted_exit_times(death_cdf, u)
        tau2 = _searchsorted_exit_times(surr_cdf, v)
        cells = _cells(tau1, tau2, T, _cell_dtype(T))
        x = _payouts(tau1, tau2, survival[i], surrender[i], np.intp)
        cum = np.cumsum(x)
        values = [float(premium - cum[n - 1] / n).hex() for n in sched]
        trials_out.append((
            k, i, cells.dtype.str, cells.tobytes(), sched, values,
            float(g[i]).hex(),
        ))
    return trials_out


def test_spread_is_np_std(market_small_mod, benefit_paper_mod, independence_mod):
    """The verification budget's spread has np.std's bits, on a trial's payouts."""
    theta = Theta(150.0, 0.025, 0.03, 2e4)
    prices, _ = path_arrays(market_small_mod)
    survival, surrender = payoff_table(benefit_paper_mod, market_small_mod, prices)
    for s in _simulate(
        theta, independence_mod, benefit_paper_mod, market_small_mod, [7, 300, 4001],
        trials=4, seed=3,
    ):
        i = s.path_index
        x = _payout_table(survival[i], surrender[i]).take(s.exit_cells)
        assert _spread(x.copy()).hex() == float(np.std(x)).hex()


@pytest.mark.parametrize(
    "spec",
    [
        CopulaSpec("independence"),
        CopulaSpec("clayton", 2.0),
        CopulaSpec("gumbel", 2.0),
        CopulaSpec("frank", -4.0),
    ],
    ids=lambda spec: spec.family,
)
def test_trial_workspace_matches_allocating_oracle(
    spec, market_small_mod, benefit_paper_mod
):
    """Reusing one workspace per call changes no bit and leaks no buffer.

    The second run draws 30 trials on 8 paths, so paths repeat and reuse
    their surrender levels.
    """
    theta = Theta(150.0, 0.025, 0.03, 2e4)
    market_t3 = MarketParams(s0=100.0, u=0.1, v=-0.1, r=0.05, T=3)
    for market, trials in ((market_small_mod, 6), (market_t3, 30)):
        run = (theta, spec, benefit_paper_mod, market, (7, 50, 300), trials, 5, 80.0)
        samples = _simulate(*run[:5], trials=trials, seed=run[6], premium=run[7])
        assert _fingerprint(samples) == _allocating_trials(*run)
        arrays = [s.exit_cells for s in samples]
        for j, a in enumerate(arrays):
            for b in arrays[j + 1:]:
                assert not np.shares_memory(a, b)


def test_samples_keep_one_exit_cell_per_client(benefit_paper_mod, independence_mod):
    """A T=8 run keeps trials * n_max bytes of exit data, plus a fixed slack.

    The cells are one byte per client through T = 14 and two from T = 15,
    and decode to the exit times they code.
    """
    theta = Theta(150.0, 0.025, 0.03, 2e4)
    trials, n_max = 20, 100_000

    def run(T, n):
        market = MarketParams(s0=100.0, u=0.1, v=-0.1, r=0.05, T=T)
        return _simulate(
            theta, independence_mod, benefit_paper_mod, market, [n],
            trials=trials, seed=2,
        )

    run(8, n_max)  # first-call set-up is not the samples'
    tracemalloc.start()
    try:
        samples = run(8, n_max)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(samples) == trials
    assert kept <= trials * n_max + 64 * 1024
    cases = [(8, np.uint8, samples), (14, np.uint8, run(14, 1_000)),
             (15, np.uint16, run(15, 1_000))]
    for T, dtype, runs in cases:
        for s in runs:
            assert s.exit_cells.dtype == dtype
            tau1, tau2 = _exit_times(s, T)
            assert 1 <= tau1.min() and max(tau1.max(), tau2.max()) <= T + 1
            assert np.array_equal(_cells(tau1, tau2, T, dtype), s.exit_cells)


def test_portfolio_values_recomputable_from_exit_times(
    market_small_mod, benefit_paper_mod, independence_mod
):
    """Average balances match a hand rebuild from the stored exit times."""
    theta = Theta(150.0, 0.025, 0.03, 2e4)
    premium = 80.0
    samples = _simulate(
        theta, independence_mod, benefit_paper_mod, market_small_mod,
        [10, 100, 1000], trials=4, seed=3, premium=premium,
    )
    paths = enumerate_paths(market_small_mod)
    T = market_small_mod.T
    for s in samples:
        survival_pay, surrender_pays = discounted_payoffs(
            benefit_paper_mod, market_small_mod, paths[s.path_index]
        )
        assert s.exit_cells.nbytes == s.n_schedule[-1]
        x = np.array([
            _payout_rule(t1, t2, T, survival_pay, surrender_pays)
            for t1, t2 in zip(*_exit_times(s, T))
        ])
        for j, n in enumerate(s.n_schedule):
            assert s.portfolio_values[j] == pytest.approx(
                premium - float(np.mean(x[:n])), abs=1e-12
            )


@pytest.mark.parametrize(
    "spec",
    [
        CopulaSpec("independence"),
        CopulaSpec("clayton", 3.0),
        CopulaSpec("gumbel", 2.0),
        CopulaSpec("frank", -4.0),
    ],
    ids=lambda spec: spec.family,
)
def test_sample_conditional_value_is_scalar_value_on_drawn_path(
    spec, market_small_mod, benefit_paper_mod
):
    """Each trial's G, read from the all-path table, is G on its own path."""
    theta = Theta(150.0, 0.025, 0.03, 2e4)
    samples = _simulate(
        theta, spec, benefit_paper_mod, market_small_mod, [10], trials=12, seed=8
    )
    paths = enumerate_paths(market_small_mod)
    assert len({s.path_index for s in samples}) > 1
    for s in samples:
        expected = conditional_value(
            paths[s.path_index], theta, spec, benefit_paper_mod, market_small_mod
        )
        assert type(s.conditional_value) is float
        assert type(s.path_index) is int
        assert s.conditional_value == expected


def _payout_rule(t1, t2, T, survival_pay, surrender_pays):
    """Contract rule for one client: survival leg, surrender leg, or 0."""
    if t1 > T and t2 > T:
        return survival_pay
    if 1 <= t2 < T and t1 > t2:
        return surrender_pays[t2]
    return 0.0


@pytest.mark.parametrize("surrender", [True, False])
def test_client_payouts_follow_per_client_rule(market_small_mod, surrender):
    """One lookup per client equals the contract rule on every exit pair."""
    T = market_small_mod.T
    benefit = BenefitSpec(K=100.0, r_G=0.02, l=0.3, surrender=surrender)
    path = enumerate_paths(market_small_mod)[5]
    survival_pay, surrender_pays = discounted_payoffs(benefit, market_small_mod, path)
    pairs = [(t1, t2) for t1 in range(1, T + 2) for t2 in range(1, T + 2)]
    tau_death, tau_surrender = np.array(pairs, dtype=np.int16).T
    got = _payouts(tau_death, tau_surrender, survival_pay, surrender_pays)
    for x, (t1, t2) in zip(got, pairs):
        assert x == _payout_rule(t1, t2, T, survival_pay, surrender_pays), (t1, t2)


@pytest.mark.parametrize("dtype", [np.int8, np.int16], ids=["int8", "int16"])
def test_client_payouts_at_lattice_cap(dtype):
    """Every exit pair at T = MAX_LATTICE_STEPS, where one-byte cells would wrap."""
    T = MAX_LATTICE_STEPS
    # distinct legs, and no surrender payout at the horizon itself
    surrender_pays = 1.0 + np.arange(T + 1) / 64.0
    surrender_pays[T] = 0.0
    survival_pay = 1000.0
    pairs = [(t1, t2) for t1 in range(1, T + 2) for t2 in range(1, T + 2)]
    tau_death, tau_surrender = np.array(pairs, dtype=dtype).T
    got = _payouts(tau_death, tau_surrender, survival_pay, surrender_pays)
    for x, (t1, t2) in zip(got, pairs):
        assert x == _payout_rule(t1, t2, T, survival_pay, surrender_pays), (t1, t2)


@pytest.mark.parametrize("T", [MAX_LATTICE_STEPS, 125])
def test_client_payouts_uint16_cells_equal_intp(T):
    """uint16 cells give the intp cells' payouts up to T+1 = 126 (int8 exit times)."""
    assert _cell_dtype(T) == np.uint16
    surrender_pays = 1.0 + np.arange(T + 1) / 64.0
    surrender_pays[T] = 0.0
    pairs = [(t1, t2) for t1 in range(1, T + 2) for t2 in range(1, T + 2)]
    tau_death, tau_surrender = np.array(pairs, dtype=np.int8).T
    expect = _payouts(tau_death, tau_surrender, 1000.0, surrender_pays, np.intp)
    got = _payouts(tau_death, tau_surrender, 1000.0, surrender_pays)
    assert got.tobytes() == expect.tobytes()


def test_client_payouts_write_into_out_without_a_copy():
    """The payouts go into out with their bits; take's intp copy of the cells is
    its only temporary."""
    rng = np.random.default_rng(3)
    T, n = 8, 100_000
    surrender_pays = rng.random(T + 1)
    surrender_pays[T] = 0.0
    tau_death, tau_surrender = rng.integers(1, T + 2, (2, n)).astype(np.int8)
    expect = [
        _payout_rule(t1, t2, T, 7.5, surrender_pays)
        for t1, t2 in zip(tau_death.tolist(), tau_surrender.tolist())
    ]
    cells = _cells(tau_death, tau_surrender, T, _cell_dtype(T))
    table, out = _payout_table(7.5, surrender_pays), np.empty(n)
    tracemalloc.start()
    try:
        got = table.take(cells, out=out, mode="clip")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got is out
    assert [x.hex() for x in out.tolist()] == [float(x).hex() for x in expect]
    assert peak < n * np.dtype(np.intp).itemsize + cells.nbytes


def _searchsorted_exit_times(cdf, draws):
    """Reference generalized inverse by binary search over CDF(1..T)."""
    return (np.searchsorted(cdf[1:], draws, side="left") + 1).astype(np.int16)


_DEATH = Theta(120.0, 0.05, 0.2, 5e3)
_SLOW_DEATH = Theta(300.0, 0.002, 0.01, 1e4)
EXIT_TIME_CDFS = {
    "gompertz": np.array([gompertz_cdf(_DEATH, t) for t in range(9)]),
    "surrender_off": np.zeros(9),
    # ties, and levels saturated at 1.0 before the horizon
    "tied_saturated": np.array([0.0, 0.1, 0.1, 0.1, 0.5, 1.0, 1.0, 1.0]),
    "T1": np.array([0.0, 0.3]),
    "T_max": np.array(
        [gompertz_cdf(_SLOW_DEATH, t) for t in range(MAX_LATTICE_STEPS + 1)]
    ),
}


@pytest.mark.parametrize("cdf", EXIT_TIME_CDFS.values(), ids=EXIT_TIME_CDFS.keys())
def test_exit_times_equal_searchsorted(cdf):
    """Counting levels below a draw is the binary-search inverse, exactly."""
    rng = np.random.default_rng(5)
    levels = cdf[1:]
    draws = np.concatenate((
        rng.random(20_000),
        levels,
        np.nextafter(levels, -np.inf),
        np.nextafter(levels, np.inf),
        [0.0],
    ))
    expect = _searchsorted_exit_times(cdf, draws)
    counts = np.zeros(draws.shape, np.uint8)
    assert _count_levels(cdf, draws, np.empty(draws.shape, bool), counts) is counts
    assert np.array_equal(1 + counts, expect)


def test_exit_time_marginals_match_cdfs(
    market_small_mod, benefit_paper_mod, independence_mod
):
    """Empirical exit-time CDFs track the analytic ones, 4 sigma."""
    theta = Theta(120.0, 0.05, 0.2, 5e3)
    n = 200_000
    samples = _simulate(
        theta, independence_mod, benefit_paper_mod, market_small_mod,
        [n], trials=1, seed=21,
    )
    s = samples[0]
    path = enumerate_paths(market_small_mod)[s.path_index]
    T = market_small_mod.T
    tau_death, tau_surrender = _exit_times(s, T)
    for t in range(1, T + 1):
        exact1 = gompertz_cdf(theta, t)
        emp1 = float(np.mean(tau_death <= t))
        se1 = math.sqrt(exact1 * (1.0 - exact1) / n) + 1e-12
        assert abs(emp1 - exact1) <= 4.0 * se1
        exact2 = surrender_cdf(path, theta, t)
        emp2 = float(np.mean(tau_surrender <= t))
        se2 = math.sqrt(exact2 * (1.0 - exact2) / n) + 1e-12
        assert abs(emp2 - exact2) <= 4.0 * se2


@pytest.mark.parametrize(
    "spec",
    [CopulaSpec("independence"), CopulaSpec("clayton", 3.0)],
    ids=["independence", "clayton"],
)
def test_survival_frequency_matches_joint_law(
    spec, market_small_mod, benefit_paper_mod
):
    """P(both exits beyond horizon) matches the survival copula, 4 sigma."""
    theta = Theta(120.0, 0.05, 0.2, 5e3)
    n = 200_000
    s = _simulate(
        theta, spec, benefit_paper_mod, market_small_mod, [n], trials=1, seed=33
    )[0]
    path = enumerate_paths(market_small_mod)[s.path_index]
    T = market_small_mod.T
    exact = joint_survival(path, theta, spec, T, T)
    tau_death, tau_surrender = _exit_times(s, T)
    emp = float(np.mean((tau_death > T) & (tau_surrender > T)))
    se = math.sqrt(exact * (1.0 - exact) / n)
    assert abs(emp - exact) <= 4.0 * se


def test_lln_rms_decays(market_small_mod, benefit_paper_mod, independence_mod):
    theta = Theta(150.0, 0.025, 0.03, 2e4)
    samples = _simulate(
        theta, independence_mod, benefit_paper_mod, market_small_mod,
        [100, 10000], trials=30, seed=5, premium=80.0,
    )
    rms, mean_v = lln_rms(samples)
    assert rms.shape == (2,) and mean_v.shape == (2,)
    assert rms[1] < rms[0]
    # pooled averages track the mean conditional limit across trials
    limit = float(np.mean([s.premium - s.conditional_value for s in samples]))
    assert abs(mean_v[1] - limit) <= 3.0 * rms[1]


def test_lln_rms_validation(market_small_mod, benefit_paper_mod, independence_mod):
    theta = Theta(150.0, 0.025, 0.03, 2e4)
    a = _simulate(
        theta, independence_mod, benefit_paper_mod, market_small_mod,
        [10], trials=1, seed=1,
    )
    b = _simulate(
        theta, independence_mod, benefit_paper_mod, market_small_mod,
        [20], trials=1, seed=1,
    )
    # a list, and a one-shot generator
    for wrap in (list, lambda samples: (s for s in samples)):
        with pytest.raises(ContractError, match="at least one sample"):
            lln_rms(wrap([]))
        with pytest.raises(ContractError, match="mix different schedules"):
            lln_rms(wrap(a + b))


def test_lln_rms_reads_a_generator_as_a_list(
    market_small_mod, benefit_paper_mod, independence_mod
):
    """A one-shot generator gives the list's result, bit for bit."""
    samples = _simulate(
        Theta(150.0, 0.025, 0.03, 2e4), independence_mod, benefit_paper_mod,
        market_small_mod, [100, 1000, 3000], trials=9, seed=4, premium=80.0,
    )

    def hexes(result):
        return [[x.hex() for x in a.tolist()] for a in result]

    assert hexes(lln_rms(s for s in samples)) == hexes(lln_rms(samples))


def test_degenerate_pool_has_exactly_zero_error(independence_mod):
    """A riskless benefit leaves zero sampling error, bit for bit."""
    from rifa.lattice import MarketParams

    # vanishing death hazard plus no surrender option: every client
    # collects the same maturity amount.  A zero rate and a dyadic
    # guarantee keep every partial sum exactly representable, so the
    # pool averages cancel the conditional limit without rounding.
    market = MarketParams(s0=100.0, u=0.1, v=-0.1, r=0.0, T=4)
    benefit = BenefitSpec(K=float(1 << 20), r_G=0.0, l=0.0, surrender=False)
    theta = Theta(100.0, 5e-324, 1e-3, 1e4)
    samples = _simulate(
        theta, independence_mod, benefit, market,
        [100, 1000], trials=5, seed=9, premium=50.0,
    )
    rms, _ = lln_rms(samples)
    assert rms[0] == 0.0 and rms[1] == 0.0


def test_verify_arbitrage_passes_for_valid_pair(
    report, market_small_mod, benefit_paper_mod, independence_mod
):
    premium = report.robust_price + 1.0
    pair = construct_arbitrage(
        premium, report, BOX, independence_mod, benefit_paper_mod, market_small_mod
    )
    thetas = [Theta(100.0, 0.02, 0.01, 1e4), Theta(300.0, 0.03, 0.05, 9e4)]
    out = verify_arbitrage(
        pair, premium, thetas, independence_mod, benefit_paper_mod,
        market_small_mod, trials=4, seed=17, n_clients=4000,
    )
    assert out.passed and out.strict_ok
    assert out.worst_violation == 0.0
    assert len(out.mean_payoffs) == 2
    assert max(out.mean_payoffs) > 0.0


def test_verify_arbitrage_clayton_is_pinned(market_small_mod, benefit_paper_mod):
    """Monte Carlo means and the worst payoff stay fixed to the last bit."""
    spec = CopulaSpec("clayton", 2.0)
    rep = evaluate(BOX, spec, benefit_paper_mod, market_small_mod, CFG)
    premium = rep.robust_price + 1.0
    pair = construct_arbitrage(
        premium, rep, BOX, spec, benefit_paper_mod, market_small_mod
    )
    thetas = [Theta(100.0, 0.02, 0.01, 1e4), Theta(300.0, 0.03, 0.05, 9e4)]
    out = verify_arbitrage(
        pair, premium, thetas, spec, benefit_paper_mod, market_small_mod,
        trials=4, seed=17, n_clients=4000,
    )
    assert rep.robust_price.hex() == "0x1.800dfd7e6a8bcp+6"
    assert [m.hex() for m in out.mean_payoffs] == [
        "0x1.00eb4d2885b10p+2", "0x1.00e9f841c7504p+5"
    ]
    assert out.min_payoff.hex() == "0x1.246fb7adbb5d0p+0"
    assert out.passed


def test_verify_arbitrage_nonstrict_needs_no_profit(
    report, market_small_mod, benefit_paper_mod, independence_mod
):
    premium = report.robust_price
    pair = construct_arbitrage(
        premium, report, BOX, independence_mod, benefit_paper_mod, market_small_mod
    )
    out = verify_arbitrage(
        pair, premium, [Theta(100.0, 0.02, 0.01, 1e4)], independence_mod,
        benefit_paper_mod, market_small_mod, trials=3, seed=23, n_clients=4000,
    )
    assert out.passed
    assert not out.strict_required


def test_verify_arbitrage_detects_underfunded_premium(
    report, market_small_mod, benefit_paper_mod, independence_mod
):
    """Crediting less premium than the hedge assumed breaks the floor."""
    premium = report.robust_price + 1.0
    pair = construct_arbitrage(
        premium, report, BOX, independence_mod, benefit_paper_mod, market_small_mod
    )
    with pytest.raises(VerificationError) as exc:
        verify_arbitrage(
            pair, premium - 5.0, [Theta(100.0, 0.02, 0.01, 1e4)], independence_mod,
            benefit_paper_mod, market_small_mod, trials=3, seed=29, n_clients=4000,
        )
    assert exc.value.report is not None
    assert not exc.value.report.passed
    # the budget's payout spread, computed only for a negative payoff
    assert exc.value.report.worst_violation.hex() == "-0x1.2b4ff525274d8p+0"


def test_verify_arbitrage_validation(
    report, market_small_mod, benefit_paper_mod, independence_mod
):
    pair = construct_arbitrage(
        report.robust_price, report, BOX, independence_mod, benefit_paper_mod,
        market_small_mod,
    )
    with pytest.raises(ContractError):
        verify_arbitrage(
            pair, 90.0, [], independence_mod, benefit_paper_mod,
            market_small_mod, trials=1, seed=1,
        )
    with pytest.raises(ContractError):
        verify_arbitrage(
            "not a pair", 90.0, [Theta(100.0, 0.02, 0.01, 1e4)], independence_mod,
            benefit_paper_mod, market_small_mod, trials=1, seed=1,
        )
    for trials, seed, error in ((True, 1, ContractError), (1, True, ConfigurationError)):
        with pytest.raises(error):
            verify_arbitrage(
                pair, 90.0, [Theta(100.0, 0.02, 0.01, 1e4)], independence_mod,
                benefit_paper_mod, market_small_mod, trials=trials, seed=seed,
            )
    # a nan or inf premium passed, with nan means and an inf min_payoff
    for premium in (math.nan, math.inf, -1.0):
        with pytest.raises(ContractError, match="premium"):
            verify_arbitrage(
                pair, premium, [Theta(100.0, 0.02, 0.01, 1e4)], independence_mod,
                benefit_paper_mod, market_small_mod, trials=2, seed=1, n_clients=100,
            )


def test_verify_arbitrage_accepts_numpy_integers(
    report, market_small_mod, benefit_paper_mod, independence_mod
):
    """numpy arguments give the Python-int report, with no seed wrap-around."""
    premium = report.robust_price + 1.0
    pair = construct_arbitrage(
        premium, report, BOX, independence_mod, benefit_paper_mod, market_small_mod
    )
    thetas = [Theta(100.0, 0.02, 0.01, 1e4), Theta(300.0, 0.03, 0.05, 9e4)]
    run = (pair, premium, thetas, independence_mod, benefit_paper_mod, market_small_mod)
    # the second model's seed, seed + 7919, lies past the int64 range
    seed = 2**63 - 1
    plain = verify_arbitrage(*run, trials=3, seed=seed, n_clients=2000)
    from_numpy = verify_arbitrage(
        *run, trials=np.int64(3), seed=np.int64(seed), n_clients=np.int32(2000)
    )
    assert from_numpy == plain
    assert type(from_numpy.trials) is int and type(from_numpy.n_clients) is int


@pytest.mark.parametrize(
    "trials, seed, n_clients, error",
    [
        (0, 1, 100, ContractError),
        (np.int64(0), 1, 100, ContractError),
        (2, 1, 0, ContractError),
        (2, -1, 100, ConfigurationError),
    ],
    ids=["trials", "numpy_trials", "n_clients", "seed"],
)
def test_verify_arbitrage_validates_before_simulating(
    report, market_small_mod, benefit_paper_mod, independence_mod, monkeypatch,
    trials, seed, n_clients, error,
):
    """Bad counts fail before any model's trials are even requested."""
    pair = construct_arbitrage(
        report.robust_price, report, BOX, independence_mod, benefit_paper_mod,
        market_small_mod,
    )
    requested = []
    monkeypatch.setattr(
        arbitrage_lab, "portfolio_trials", lambda *args: requested.append(args)
    )
    with pytest.raises(error):
        verify_arbitrage(
            pair, 90.0, [Theta(100.0, 0.02, 0.01, 1e4)], independence_mod,
            benefit_paper_mod, market_small_mod, trials=trials, seed=seed,
            n_clients=n_clients,
        )
    assert requested == []


def test_verify_arbitrage_memory_does_not_grow_with_trials(
    report, market_small_mod, benefit_paper_mod, independence_mod
):
    """Trials are read as drawn: 10x the trials adds less than one trial's bytes."""
    premium = report.robust_price + 1.0
    pair = construct_arbitrage(
        premium, report, BOX, independence_mod, benefit_paper_mod, market_small_mod
    )
    n_clients = 10_000

    def peak(trials):
        tracemalloc.start()
        try:
            verify_arbitrage(
                pair, premium, [Theta(200.0, 0.025, 0.03, 5e4)], independence_mod,
                benefit_paper_mod, market_small_mod, trials=trials, seed=13,
                n_clients=n_clients,
            )
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # first-call set-up is not a trial's
    # two trials' worth of one-byte exit cells
    assert abs(peak(200) - peak(20)) < 2 * n_clients


def test_verify_arbitrage_holds_one_model_of_samples(
    report, market_small_mod, benefit_paper_mod, independence_mod
):
    """Each model's samples are freed before the next model is simulated."""
    premium = report.robust_price + 1.0
    pair = construct_arbitrage(
        premium, report, BOX, independence_mod, benefit_paper_mod, market_small_mod
    )
    thetas = [
        Theta(100.0, 0.02, 0.01, 1e4),
        Theta(200.0, 0.025, 0.03, 5e4),
        Theta(300.0, 0.03, 0.05, 9e4),
    ]
    trials, n_clients = 200, 10_000
    # one exit-cell byte per client and trial
    one_model = trials * n_clients
    tracemalloc.start()
    try:
        verify_arbitrage(
            pair, premium, thetas, independence_mod, benefit_paper_mod,
            market_small_mod, trials=trials, seed=13, n_clients=n_clients,
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * one_model
