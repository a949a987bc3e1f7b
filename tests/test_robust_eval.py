"""Robust valuation: path values, box optima, domination, determinism."""

import math

import numpy as np
import pytest

from rifa.benefits import BenefitSpec, discounted_payoffs
from rifa.copulas import CopulaSpec, joint_survival, surrender_slice_prob
from rifa.errors import ConfigurationError
from rifa.hazards import ParamBox, Theta
from rifa.lattice import MarketParams, binomial_call, enumerate_paths
from rifa.robust_eval import (
    _BLOCK_PAIRS,
    EvaluationReport,
    OptimizerConfig,
    PathOptimum,
    _Kernel,
    _at,
    _objective,
    classical_price,
    conditional_value,
    evaluate,
    inf_classical,
    pathwise_esssup,
    robust_price,
    sup_classical,
)


def _definitional_value(path, theta, spec, benefit, market):
    """Conditional value straight from the decomposition into decrements.

    Survivors collect the maturity leg on the joint-survival event; each
    interior date contributes its surrender payout times the probability
    of lapsing exactly then while still alive.
    """
    T = market.T
    survival_pay, surrender_pays = discounted_payoffs(benefit, market, path)
    total = survival_pay * joint_survival(
        path, theta, spec, T, T, surrender_enabled=benefit.surrender
    )
    for t in range(1, T):
        total += surrender_pays[t] * surrender_slice_prob(
            path, theta, spec, t, surrender_enabled=benefit.surrender
        )
    return total


THETAS = [
    Theta(100.0, 0.02, 0.01, 1e4),
    Theta(50.0, 0.03, 0.05, 1e5),
    Theta(340.0, 0.025, 0.02, 3e4),
    Theta(0.0, 0.001, 0.2, 2e3),
]

COPULAS = [
    CopulaSpec("independence"),
    CopulaSpec("clayton", 2.0),
    CopulaSpec("gumbel", 1.8),
    CopulaSpec("frank", -2.0),
]


@pytest.mark.parametrize("spec", COPULAS, ids=[c.family for c in COPULAS])
def test_conditional_value_matches_definitional_oracle(
    spec, market_small, benefit_paper
):
    """Vectorised path evaluator vs the decrement decomposition, tol 1e-12."""
    for path in enumerate_paths(market_small):
        for theta in THETAS:
            fast = conditional_value(path, theta, spec, benefit_paper, market_small)
            slow = _definitional_value(path, theta, spec, benefit_paper, market_small)
            assert fast == pytest.approx(slow, abs=1e-12)


@pytest.mark.parametrize("spec", COPULAS, ids=[c.family for c in COPULAS])
def test_one_period_market(spec, benefit_paper):
    """T=1 has no interior surrender dates: G is the maturity leg alone."""
    market = MarketParams(s0=100.0, u=0.1, v=-0.1, r=0.05, T=1)
    box = ParamBox(a=(50.0, 340.0), b=(0.02, 0.03), c=(0.01, 0.05), d=(1e4, 1e5))
    paths = enumerate_paths(market)
    for path in paths:
        for theta in THETAS:
            fast = conditional_value(path, theta, spec, benefit_paper, market)
            slow = _definitional_value(path, theta, spec, benefit_paper, market)
            assert fast == pytest.approx(slow, abs=1e-12)
    theta = THETAS[0]
    expect = math.fsum(
        p.q_weight * conditional_value(p, theta, spec, benefit_paper, market)
        for p in paths
    )
    assert classical_price(theta, spec, benefit_paper, market) == expect
    report = robust_price(box, spec, benefit_paper, market, OptimizerConfig())
    assert len(report.per_path) == len(paths)
    assert report.robust_price >= expect


def test_conditional_value_without_surrender(market_small, independence):
    from rifa.hazards import gompertz_cdf

    benefit = BenefitSpec(K=100.0, r_G=0.02, l=0.3, surrender=False)
    theta = THETAS[0]
    for path in enumerate_paths(market_small)[:4]:
        survival_pay, _ = discounted_payoffs(benefit, market_small, path)
        expect = survival_pay * (1.0 - gompertz_cdf(theta, market_small.T))
        got = conditional_value(path, theta, independence, benefit, market_small)
        assert got == pytest.approx(expect, abs=1e-14)


def test_conditional_value_decreasing_in_death_params(
    market_small, benefit_paper, independence
):
    """Central finite differences in b and c are negative, 100 samples."""
    rng = np.random.default_rng(1234)
    paths = enumerate_paths(market_small)
    h = 1e-6
    for _ in range(100):
        path = paths[int(rng.integers(len(paths)))]
        a = float(rng.uniform(50.0, 340.0))
        b = float(rng.uniform(0.021, 0.029))
        c = float(rng.uniform(0.011, 0.049))
        d = float(rng.uniform(1.1e4, 0.9e5))

        def val(bb, cc):
            return conditional_value(
                path, Theta(a, bb, cc, d), independence, benefit_paper, market_small
            )

        db = (val(b + h, c) - val(b - h, c)) / (2.0 * h)
        dc = (val(b, c + h) - val(b, c - h)) / (2.0 * h)
        assert db < 0.0
        assert dc < 0.0


def test_pathwise_esssup_beats_dense_grid(market_small, benefit_paper, independence):
    """Monotone pinning plus 2D search dominates a coarse 4D grid scan."""
    box = ParamBox(a=(50.0, 340.0), b=(0.02, 0.03), c=(0.01, 0.05), d=(1e4, 1e5))
    cfg = OptimizerConfig(multistarts=5, grid_points_per_dim=32)
    grid_a = np.linspace(*box.a, 9)
    grid_b = np.linspace(*box.b, 5)
    grid_c = np.linspace(*box.c, 5)
    grid_d = np.linspace(*box.d, 9)
    for path in enumerate_paths(market_small)[::5]:
        value, theta_star = pathwise_esssup(
            path, box, independence, benefit_paper, market_small, cfg
        )
        assert box.contains(theta_star, tol=1e-9)
        best_grid = max(
            conditional_value(
                path, Theta(a, b, c, d), independence, benefit_paper, market_small
            )
            for a in grid_a
            for b in grid_b
            for c in grid_c
            for d in grid_d
        )
        assert value >= best_grid - 1e-9
        # and the reported value is attained, not just claimed
        assert value == pytest.approx(
            conditional_value(
                path, theta_star, independence, benefit_paper, market_small
            ),
            abs=1e-10,
        )


def test_esssup_pins_death_params_low(market_small, benefit_paper, independence):
    box = ParamBox(a=(50.0, 340.0), b=(0.02, 0.03), c=(0.01, 0.05), d=(1e4, 1e5))
    cfg = OptimizerConfig(multistarts=3)
    for path in enumerate_paths(market_small)[:3]:
        _, theta_star = pathwise_esssup(
            path, box, independence, benefit_paper, market_small, cfg
        )
        assert theta_star.b == box.b[0]
        assert theta_star.c == box.c[0]


def test_nm_and_grid_methods_agree(market_small, benefit_paper, independence):
    box = ParamBox(a=(50.0, 340.0), b=(0.02, 0.03), c=(0.01, 0.05), d=(1e4, 1e5))
    nm = OptimizerConfig(method="nelder_mead", multistarts=5)
    grid = OptimizerConfig(method="grid", grid_points_per_dim=64)
    for path in enumerate_paths(market_small)[::3]:
        v_nm, _ = pathwise_esssup(
            path, box, independence, benefit_paper, market_small, nm
        )
        v_grid, _ = pathwise_esssup(
            path, box, independence, benefit_paper, market_small, grid
        )
        assert v_nm == pytest.approx(v_grid, rel=1e-3)
        # polish can only improve on the grid scan it dominates
        assert v_nm >= v_grid - 1e-6


def test_hybrid_dominates_grid(market_small, benefit_paper, independence):
    box = ParamBox(a=(50.0, 340.0), b=(0.02, 0.03), c=(0.01, 0.05), d=(1e4, 1e5))
    grid = OptimizerConfig(method="grid", grid_points_per_dim=16)
    hybrid = OptimizerConfig(method="hybrid", multistarts=3, grid_points_per_dim=16)
    path = enumerate_paths(market_small)[0b0110]
    v_grid, _ = pathwise_esssup(
        path, box, independence, benefit_paper, market_small, grid
    )
    v_hyb, _ = pathwise_esssup(
        path, box, independence, benefit_paper, market_small, hybrid
    )
    assert v_hyb >= v_grid - 1e-12


def test_classical_price_is_path_expectation(market_small, benefit_paper):
    """The single-model price is the exact q-weighted sum, bit for bit."""
    paths = enumerate_paths(market_small)
    for spec in COPULAS:
        for theta in THETAS:
            direct = classical_price(theta, spec, benefit_paper, market_small)
            brute = math.fsum(
                p.q_weight
                * conditional_value(p, theta, spec, benefit_paper, market_small)
                for p in paths
            )
            assert direct == brute


def test_singleton_box_collapses_everything(market_small, benefit_paper, independence):
    theta = Theta(120.0, 0.025, 0.02, 5e4)
    box = ParamBox(
        a=(theta.a, theta.a),
        b=(theta.b, theta.b),
        c=(theta.c, theta.c),
        d=(theta.d, theta.d),
    )
    cfg = OptimizerConfig(multistarts=2)
    fixed = classical_price(theta, independence, benefit_paper, market_small)
    sup_v, sup_t = sup_classical(box, independence, benefit_paper, market_small, cfg)
    inf_v, _ = inf_classical(box, independence, benefit_paper, market_small, cfg)
    report = evaluate(box, independence, benefit_paper, market_small, cfg)
    assert sup_v == pytest.approx(fixed, abs=1e-12)
    assert inf_v == pytest.approx(fixed, abs=1e-12)
    assert sup_t == theta
    assert report.robust_price == pytest.approx(fixed, abs=1e-10)
    assert report.delta == pytest.approx(0.0, abs=1e-10)


def test_survival_only_closed_form(market_paper, box_paper, independence):
    """No surrender option: price reduces to mortality times a call package."""
    benefit = BenefitSpec(K=100.0, r_G=0.02, l=0.3, surrender=False)
    cfg = OptimizerConfig(multistarts=3)
    report = evaluate(box_paper, independence, benefit, market_paper, cfg)
    T = market_paper.T
    disc = market_paper.discount
    b, c = box_paper.b[0], box_paper.c[0]
    load = b * sum(math.exp(c * s) for s in range(T))
    strike = 100.0 * 1.02**T
    closed = (
        math.exp(-load)
        * disc**T
        * (strike + binomial_call(market_paper, strike))
    )
    assert report.robust_price == pytest.approx(closed, abs=1e-9)
    assert report.sup_classical == pytest.approx(closed, abs=1e-9)
    assert report.delta == pytest.approx(0.0, abs=1e-9)


def test_evaluate_report_structure(market_small, benefit_paper, independence):
    box = ParamBox(a=(50.0, 340.0), b=(0.02, 0.03), c=(0.01, 0.05), d=(1e4, 1e5))
    cfg = OptimizerConfig(multistarts=3)
    report = evaluate(box, independence, benefit_paper, market_small, cfg)
    assert len(report.per_path) == 1 << market_small.T
    assert [p.index for p in report.per_path] == list(range(16))
    assert math.fsum(p.q_weight for p in report.per_path) == pytest.approx(
        1.0, abs=1e-12
    )
    assert report.robust_price == pytest.approx(
        math.fsum(p.q_weight * p.value for p in report.per_path), abs=1e-12
    )
    for p in report.per_path:
        assert box.contains(p.theta, tol=1e-9)
    # pathwise domination holds exactly thanks to candidate injection
    assert report.delta is not None and report.delta >= 0.0
    assert box.contains(report.argmax_outer, tol=1e-9)


def test_inf_below_sup(market_small, benefit_paper, independence):
    box = ParamBox(a=(50.0, 340.0), b=(0.02, 0.03), c=(0.01, 0.05), d=(1e4, 1e5))
    cfg = OptimizerConfig(multistarts=3)
    sup_v, _ = sup_classical(box, independence, benefit_paper, market_small, cfg)
    inf_v, inf_t = inf_classical(box, independence, benefit_paper, market_small, cfg)
    assert inf_v < sup_v
    # best case pins death parameters high
    assert inf_t.b == box.b[1]
    assert inf_t.c == box.c[1]
    mid = Theta(150.0, 0.025, 0.03, 5e4)
    mid_v = classical_price(mid, independence, benefit_paper, market_small)
    assert inf_v <= mid_v + 1e-9 <= sup_v + 2e-9


def test_robust_price_thread_count_invariance(
    market_small, benefit_paper, independence, monkeypatch
):
    """Byte-identical reports for 1, 2, and auto worker counts."""
    box = ParamBox(a=(50.0, 340.0), b=(0.02, 0.03), c=(0.01, 0.05), d=(1e4, 1e5))
    cfg = OptimizerConfig(multistarts=3)
    results = []
    for setting in ("1", "2", "0"):
        monkeypatch.setenv("RIFA_THREADS", setting)
        report = robust_price(box, independence, benefit_paper, market_small, cfg)
        results.append((repr(report.robust_price), repr(report.per_path)))
    assert results[0] == results[1] == results[2]


@pytest.mark.parametrize("spec", COPULAS, ids=[c.family for c in COPULAS])
def test_kernel_block_equals_single_points(spec, market_small, benefit_paper):
    """A block of points gives bit for bit the values of length-1 calls."""
    paths = enumerate_paths(market_small)
    kernel = _Kernel(paths, 0.02, 0.01, spec, benefit_paper, market_small)
    rng = np.random.default_rng(7)
    # enough points to span several blocks of the price objective
    n = 2 * _BLOCK_PAIRS // len(paths) + 3
    a = np.concatenate(([t.a for t in THETAS], rng.uniform(50.0, 340.0, n)))
    d = np.concatenate(([t.d for t in THETAS], rng.uniform(1e4, 1e5, n)))
    block = kernel.values(a, d)
    for i in range(a.shape[0]):
        single = kernel.values(a[i : i + 1], d[i : i + 1])
        assert np.array_equal(block[i], single[0])
    price = _objective(kernel, price=True)
    assert price(a, d).tolist() == [_at(price, x, y) for x, y in zip(a, d)]


@pytest.mark.parametrize("spec", COPULAS, ids=[c.family for c in COPULAS])
def test_robust_price_per_path_is_pathwise_esssup(spec, market_small, benefit_paper):
    box = ParamBox(a=(50.0, 340.0), b=(0.02, 0.03), c=(0.01, 0.05), d=(1e4, 1e5))
    cfg = OptimizerConfig(multistarts=2)
    report = robust_price(box, spec, benefit_paper, market_small, cfg)
    for path, opt in zip(enumerate_paths(market_small), report.per_path):
        value, theta = pathwise_esssup(
            path, box, spec, benefit_paper, market_small, cfg
        )
        assert opt.value == value
        assert opt.theta == theta


def test_optimizer_config_validation():
    with pytest.raises(ConfigurationError):
        OptimizerConfig(method="newton")
    with pytest.raises(ConfigurationError):
        OptimizerConfig(multistarts=0)
    with pytest.raises(ConfigurationError):
        OptimizerConfig(tolerance=0.0)
    with pytest.raises(ConfigurationError):
        OptimizerConfig(max_iters=0)
    with pytest.raises(ConfigurationError):
        OptimizerConfig(grid_points_per_dim=1)


def test_report_validation_rejects_bad_delta():
    opt = PathOptimum(0, 1.0, 5.0, THETAS[0])
    with pytest.raises(Exception):
        EvaluationReport(
            robust_price=5.0, per_path=(opt,), sup_classical=4.0, delta=0.5
        )


def test_copula_changes_the_price(market_small, benefit_paper):
    """Dependence structure moves the value: families disagree somewhere."""
    theta = Theta(150.0, 0.025, 0.03, 2e4)
    prices = {
        spec.family: classical_price(theta, spec, benefit_paper, market_small)
        for spec in COPULAS
    }
    assert max(prices.values()) - min(prices.values()) > 1e-4
