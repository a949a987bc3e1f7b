"""Robust valuation: path values, box optima, domination, determinism."""

import dataclasses
import gc
import hashlib
import itertools
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from rifa.arbitrage_lab import nrifa_check
from rifa.benefits import BenefitSpec, discounted_payoffs
from rifa.copulas import CopulaSpec, joint_survival, surrender_slice_prob
from rifa.errors import ConfigurationError, NumericalError
from rifa.hazards import ParamBox, Theta
from rifa.lattice import MarketParams, binomial_call, enumerate_paths, path_arrays
from rifa import robust_eval
from rifa.robust_eval import (
    _TREE_PAIRS,
    EvaluationReport,
    OptimizerConfig,
    PathOptimum,
    _Kernel,
    _Objective,
    _by_group,
    _centered_bound,
    _clip,
    _first_best,
    _fsum_rows,
    _optimize_ad,
    _path_objective,
    _price_objective,
    _row_sum,
    _sort_simplex,
    _sum_margin,
    classical_price,
    conditional_value,
    conditional_values,
    evaluate,
    inf_classical,
    minimize,
    pathwise_esssup,
    robust_price,
    sup_classical,
    sup_classical_batch,
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
    """Vectorised path evaluator vs the decrement decomposition, tol 1e-12.

    a = 1e160 and 1e306 put the surrender load past the float range, where
    the kernel formed 0 * inf at date 0 and, at 1e306, inf - inf later.
    """
    huge_a = [Theta(1e160, 0.02, 0.01, 1e4), Theta(1e306, 0.025, 0.02, 3e4)]
    for path in enumerate_paths(market_small):
        for theta in THETAS + huge_a:
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


@pytest.mark.parametrize("T", [8, 12])
@pytest.mark.parametrize("spec", COPULAS, ids=[c.family for c in COPULAS])
def test_classical_price_is_path_expectation_on_larger_lattices(spec, T, benefit_paper):
    """The same exact sum over 256 and 4,096 paths (a block of 2 points at T=12)."""
    market = MarketParams(s0=100.0, u=0.1, v=-0.1, r=0.05, T=T)
    prices, q = path_arrays(market)
    for theta in THETAS:
        g = conditional_values(prices, q, theta, spec, benefit_paper, market)
        brute = math.fsum((q * g).tolist())
        assert classical_price(theta, spec, benefit_paper, market).hex() == brute.hex()


@pytest.mark.parametrize("spec", COPULAS, ids=[c.family for c in COPULAS])
def test_sweep_optima_are_exact_path_expectations(spec, market_paper, benefit_paper):
    """Each step of a 31-step a-sweep, priced in blocks of many points, is an fsum."""
    boxes = [
        ParamBox(a=(a, a), b=(0.02, 0.03), c=(0.01, 0.05), d=(1e4, 1e5))
        for a in np.linspace(50.0, 350.0, 31).tolist()
    ]
    cfg = OptimizerConfig()
    optima = sup_classical_batch(
        boxes, [benefit_paper] * len(boxes), spec, market_paper, cfg
    )
    prices, q = path_arrays(market_paper)
    for price, theta in optima:
        g = conditional_values(prices, q, theta, spec, benefit_paper, market_paper)
        assert price.hex() == math.fsum((q * g).tolist()).hex()


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


def test_robust_price_is_repeatable(market_small, benefit_paper, independence):
    """Two runs give byte-identical reports."""
    box = ParamBox(a=(50.0, 340.0), b=(0.02, 0.03), c=(0.01, 0.05), d=(1e4, 1e5))
    cfg = OptimizerConfig(multistarts=3)
    first, second = (
        repr(robust_price(box, independence, benefit_paper, market_small, cfg))
        for _ in range(2)
    )
    assert first == second


def _assert_block_equals_single_points(spec, market, benefit):
    """A block of points gives bit for bit the values of length-1 calls."""
    prices, q = path_arrays(market)
    kernel = _Kernel(prices, q, 0.02, 0.01, spec, benefit, market)
    rng = np.random.default_rng(7)
    # enough points to span several blocks of the price objective
    step = _TREE_PAIRS // len(q)
    n = 2 * step + 3
    a = np.concatenate(([t.a for t in THETAS], rng.uniform(50.0, 340.0, n)))
    d = np.concatenate(([t.d for t in THETAS], rng.uniform(1e4, 1e5, n)))
    rows = rng.integers(len(q), size=a.shape[0])
    # then runs of equal a: a screen row of 289 points, runs of one, and a
    # run across a block boundary
    runs = [289, 1, 1, 5, 1, step + 7, 2, 1]
    run_a = np.repeat(rng.uniform(50.0, 340.0, len(runs)), runs)
    start = a.shape[0] + sum(runs[:-3])
    assert start // step != (start + runs[-3] - 1) // step
    a = np.concatenate((a, run_a))
    d = np.concatenate((d, rng.uniform(1e4, 1e5, run_a.shape[0])))
    rows = np.concatenate((rows, rng.integers(len(q), size=run_a.shape[0])))
    block = kernel.values(rows, a, d)
    for i in range(a.shape[0]):
        single = kernel.values(rows[i : i + 1], a[i : i + 1], d[i : i + 1])
        assert np.array_equal(block[i], single[0])
    # every path at every point, on the prefix tree and paired: more pairs
    # than one block of either route
    every = np.tile(np.arange(len(q)), a.shape[0])
    aa, dd = np.repeat(a, len(q)), np.repeat(d, len(q))
    assert every.shape[0] > _TREE_PAIRS
    # in calls of at most 2**16 pairs, which bounds the test's memory
    chunks = (slice(i, i + (1 << 16)) for i in range(0, every.shape[0], 1 << 16))
    paired = np.concatenate([kernel.values(every[s], aa[s], dd[s]) for s in chunks]).tolist()
    every_path = kernel.every_path(a, d)
    assert every_path.ravel().tolist() == paired
    # a block that shares one a forms its load once, as a column
    ends = a.shape[0] - run_a.shape[0] + np.cumsum(runs)
    for lo, hi in zip((ends - runs).tolist(), ends.tolist()):
        assert kernel.every_path(a[lo:hi], d[lo:hi]).tolist() == every_path[lo:hi].tolist()
    assert _path_objective(kernel).values(every, aa, dd).tolist() == paired
    price = _price_objective(kernel).values
    single = [price(rows[i : i + 1], a[i : i + 1], d[i : i + 1])[0] for i in range(a.shape[0])]
    assert price(rows, a, d).tolist() == single


@pytest.mark.parametrize("spec", COPULAS, ids=[c.family for c in COPULAS])
def test_kernel_block_equals_single_points(spec, market_small, benefit_paper):
    """Both routes and every block size agree at T = 4: date sums of 3 terms."""
    _assert_block_equals_single_points(spec, market_small, benefit_paper)


@pytest.mark.parametrize("spec", COPULAS, ids=[c.family for c in COPULAS])
def test_kernel_block_equals_single_points_at_t10(spec, benefit_paper):
    """Both routes and every block size agree at T = 10, where the date sum
    has 9 terms and takes numpy's 8-accumulator order (``_row_sum``)."""
    market = MarketParams(s0=100.0, u=0.1, v=-0.1, r=0.05, T=10)
    _assert_block_equals_single_points(spec, market, benefit_paper)


# sha256 prefixes, per family, of G's bytes on every path over THETAS at
# T = 9 and T = 12 (conditional_values), and of repr(evaluate) on the paper
# box at T = 10 with the default optimizer; recorded with numpy 2.4 on
# x86-64.  The recorded CLI runs print 12 digits, so only these pin G's bits
# past T = 8, where the date sum adds 8 or more terms.
G_DIGESTS = {
    "independence": ("85c32e37500a0902", "c52fc6c6c92847d9", "37ab03affcf96556"),
    "clayton": ("de104ac163710c23", "5f170f7d014fe163", "52cbe7fce5722b05"),
    "gumbel": ("7799ce4a860b76f4", "b7550be78bfe84a8", "7c16fee5dc8d9d7e"),
    "frank": ("0f022d532c66764a", "bf13eaf2476bdcf5", "7903c8048cf61657"),
}


@pytest.mark.parametrize("spec", COPULAS, ids=[c.family for c in COPULAS])
def test_g_bytes_are_pinned_beyond_t8(spec, benefit_paper, box_paper):
    """G at T = 9 and 12, and evaluate at T = 10, keep their recorded bytes."""
    got = []
    for T in (9, 12):
        market = MarketParams(s0=100.0, u=0.1, v=-0.1, r=0.05, T=T)
        prices, q = path_arrays(market)
        g = [conditional_values(prices, q, t, spec, benefit_paper, market) for t in THETAS]
        got.append(hashlib.sha256(b"".join(x.tobytes() for x in g)).hexdigest()[:16])
    market = MarketParams(s0=100.0, u=0.1, v=-0.1, r=0.05, T=10)
    report = evaluate(box_paper, spec, benefit_paper, market, OptimizerConfig())
    got.append(hashlib.sha256(repr(report).encode()).hexdigest()[:16])
    assert tuple(got) == G_DIGESTS[spec.family]


def _hexes(values):
    return [float.hex(x) for x in np.asarray(values, dtype=float).ravel().tolist()]


@pytest.mark.parametrize("spec", COPULAS, ids=[c.family for c in COPULAS])
def test_a_sweep_is_the_same_in_any_tile_and_either_screen(spec, benefit_paper):
    """A 31-step a-sweep gives the same bits in small tiles and on exact sums.

    Each step pins a, so its screen points form one run; with _TREE_PAIRS
    at 256 the runs split across many blocks and tiles.  With the node
    estimates turned off the price screen takes the exact prices instead.
    """
    market = MarketParams(s0=100.0, u=0.1, v=-0.1, r=0.05, T=6)
    box = ParamBox(a=(50.0, 340.0), b=(0.02, 0.03), c=(0.01, 0.05), d=(1e4, 1e5))
    boxes = [dataclasses.replace(box, a=(a, a)) for a in np.linspace(50.0, 350.0, 31)]

    def sweep():
        optima = sup_classical_batch(boxes, [benefit_paper] * 31, spec, market, OptimizerConfig())
        return [(float.hex(v), float.hex(t.a), float.hex(t.d)) for v, t in optima]

    default = sweep()
    with mock.patch.object(robust_eval, "_TREE_PAIRS", 256):
        assert sweep() == default
    with mock.patch.object(_Kernel, "price_estimates", return_value=None):
        assert sweep() == default


@pytest.mark.parametrize("T", [1, 2, 3, 8, 9, 10, 12])
@pytest.mark.parametrize("spec", COPULAS, ids=[c.family for c in COPULAS])
def test_price_estimates_bound_the_exact_price(spec, T):
    """The node estimates lie within their radii of the correctly rounded price.

    The points span loads from none to ones that underflow the survival, so
    some estimates are withdrawn (None) and the rest must hold their bound,
    one point per call and, as the a-sweep's screen calls them, 64 points
    that share one a in one call.  T = 12 sums the one-dot estimate of
    independence in several dot products.
    """
    market = MarketParams(s0=100.0, u=0.1, v=-0.1, r=0.05, T=T)
    prices, q = path_arrays(market)
    kernel = _Kernel(prices, q, 0.02, 0.01, spec, BenefitSpec(100.0, 0.01, 0.1), market)
    rng = np.random.default_rng(T)
    for a, d in (
        (rng.uniform(0.0, 400.0, 40), np.exp(rng.uniform(0.0, 14.0, 40))),
        (np.full(17, 120.0), np.linspace(1e4, 1e5, 17)),
    ):
        exact = _fsum_rows(q * kernel.every_path(a, d))
        for i in range(a.shape[0]):
            out = kernel.price_estimates(a[i : i + 1], d[i : i + 1])
            if out is not None:
                est, rad = out
                assert abs(est[0] - exact[i]) <= rad[0]
                assert rad[0] < 1e-12 * abs(exact[i])
    a, d = np.full(64, 137.0), np.linspace(1e4, 1e5, 64)
    exact = _fsum_rows(q * kernel.every_path(a, d))
    est, rad = kernel.price_estimates(a, d)
    assert (np.abs(est - exact) <= rad).all()
    assert (rad < 1e-12 * np.abs(exact)).all()
    # on the paper's box the estimate always holds
    assert kernel.price_estimates(*np.array([[50.0, 340.0], [1e4, 1e5]])) is not None
    # payouts beyond 2**400 leave the bound's range: the screen takes exact prices
    huge = _Kernel(prices, q, 0.02, 0.01, spec, BenefitSpec(1e306, 0.01, 0.1), market)
    assert huge.price_estimates(np.array([100.0]), np.array([1e4])) is None


_ROUTE_CASES = [(spec, T) for spec in COPULAS for T in (1, 2, 3, 8, 9, 10, 12)]


@pytest.mark.parametrize("surrender", [True, False], ids=["surrender", "no_surrender"])
@pytest.mark.parametrize(
    "spec, T",
    _ROUTE_CASES + [(COPULAS[0], 14)],
    ids=[f"{spec.family}-{T}" for spec, T in _ROUTE_CASES] + ["independence-14"],
)
def test_tree_route_equals_paired_route(spec, T, surrender):
    """every_path walks the prefix tree yet gives values() bit for bit.

    T = 1 has no surrender date and T = 2, 3 the first nodes whose parent
    is not the root.  T = 9, 10 and 12 put 8 or more terms in the date
    sum, where numpy's pairwise order differs from a sequential sum.
    T = 14 gathers each block of pairs from 16,384 paths.
    """
    market = MarketParams(s0=100.0, u=0.1, v=-0.1, r=0.05, T=T)
    benefit = BenefitSpec(K=100.0, r_G=0.01, l=0.1, surrender=surrender)
    prices, q = path_arrays(market)
    kernel = _Kernel(prices, q, 0.02, 0.01, spec, benefit, market)
    rng = np.random.default_rng(T)
    a = np.concatenate(([50.0, 50.0, 340.0, 340.0], rng.uniform(50.0, 340.0, 4)))
    d = np.concatenate(([1e4, 1e5, 1e4, 1e5], rng.uniform(1e4, 1e5, 4)))
    paths = len(q)
    paired = kernel.values(
        np.tile(np.arange(paths), a.shape[0]), np.repeat(a, paths), np.repeat(d, paths)
    )
    tree = kernel.every_path(a, d)
    assert tree.shape == (a.shape[0], paths)
    assert _hexes(tree) == _hexes(paired)


def test_paired_route_gathers_from_contiguous_node_columns():
    """A block of values copies its pairs' chains, not the lattice.

    At T = 16 one (T+1) x 2**T float array takes 8.9 MB.  A 1,024-pair call
    gathers (3, T+1, 1,024) floats from the tree's node columns; a gather
    source that is not C-contiguous would first be copied whole.
    """
    market = MarketParams(s0=100.0, u=0.1, v=-0.1, r=0.05, T=16)
    prices, q = path_arrays(market)
    kernel = _Kernel(
        prices, q, 0.02, 0.01, CopulaSpec("independence"), BenefitSpec(100.0, 0.01, 0.1), market
    )
    rng = np.random.default_rng(16)
    rows = rng.integers(len(q), size=1024)
    a, d = rng.uniform(50.0, 340.0, 1024), rng.uniform(1e4, 1e5, 1024)
    kernel.values(rows[:1], a[:1], d[:1])
    tracemalloc.start()
    try:
        kernel.values(rows, a, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 17 * 2**16 * 8
    assert all(x.flags.c_contiguous for x in kernel.tree if isinstance(x, np.ndarray))


@pytest.mark.parametrize("T", [2, 3, 8])
def test_kernel_takes_one_path_or_all(T, benefit_paper, independence):
    """Price arrays of 2 or 2**T - 1 rows are refused when the kernel is built."""
    market = MarketParams(s0=100.0, u=0.1, v=-0.1, r=0.05, T=T)
    prices, q = path_arrays(market)
    for n in (2, (1 << T) - 1):
        with pytest.raises(ValueError, match="takes 1 or"):
            _Kernel(prices[:n], q[:n], 0.02, 0.01, independence, benefit_paper, market)
    one = _Kernel(prices[:1], q[:1], 0.02, 0.01, independence, benefit_paper, market)
    with pytest.raises(ValueError, match="all 2\\*\\*T paths"):
        one.every_path(np.array([100.0]), np.array([1e4]))


@pytest.mark.parametrize("T", [1, 2, 3, 8])
@pytest.mark.parametrize("spec", COPULAS, ids=[c.family for c in COPULAS])
def test_one_path_chain_equals_its_tree_column(spec, T, benefit_paper):
    """conditional_value, a chain of one path's nodes, is its every_path column.

    The chain numbers date t's node t, the tree 2**(t-1) + p mod 2**(t-1).
    """
    market = MarketParams(s0=100.0, u=0.1, v=-0.1, r=0.05, T=T)
    prices, q = path_arrays(market)
    kernel = _Kernel(prices, q, 0.02, 0.01, spec, benefit_paper, market)
    for theta in THETAS:
        theta = dataclasses.replace(theta, b=0.02, c=0.01)
        tree = kernel.every_path(np.array([theta.a]), np.array([theta.d]))[0]
        chains = [
            conditional_value(path, theta, spec, benefit_paper, market)
            for path in enumerate_paths(market)
        ]
        assert _hexes(chains) == _hexes(tree)


def _tiled(a, d, rows):
    """The candidates (a, d) as that many equal rows; one row is shared by every group."""
    return np.tile(a, (rows, 1)), np.tile(d, (rows, 1))


_SCREEN = np.linspace(0.0, 1.0, 17)
_SCREEN_A, _SCREEN_D = (
    x.ravel()
    for x in np.meshgrid(50.0 + 290.0 * _SCREEN, 1e4 + 9e4 * _SCREEN, indexing="ij")
)


def _refuse(route):
    return mock.patch.object(_Kernel, route, side_effect=AssertionError(route))


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["min", "max"])
@pytest.mark.parametrize("T", [4, 8, 10])
@pytest.mark.parametrize("spec", COPULAS, ids=[c.family for c in COPULAS])
def test_tree_route_first_best_equals_paired_route(spec, T, sign):
    """Shared screen points pick the same point and value per path on both routes.

    A shared row walks the prefix tree, and the same points tiled per path
    take the paired route.  At T = 8 and 10 the 289 points of the screen
    span several tiles, and T=4 also checks against one matrix of every value.
    """
    market = MarketParams(s0=100.0, u=0.1, v=-0.1, r=0.05, T=T)
    prices, q = path_arrays(market)
    kernel = _Kernel(prices, q, 0.02, 0.01, spec, BenefitSpec(100.0, 0.01, 0.1), market)
    f, n = _path_objective(kernel), _SCREEN_A.size
    with _refuse("values"):
        tree = _first_best(f, len(q), *_tiled(_SCREEN_A, _SCREEN_D, 1), sign)
    with _refuse("every_path"):
        paired = _first_best(f, len(q), *_tiled(_SCREEN_A, _SCREEN_D, len(q)), sign)
    assert tree[0].tolist() == paired[0].tolist()
    assert _hexes(tree[1]) == _hexes(paired[1])
    assert (n > _TREE_PAIRS // len(q)) == (T > 4)
    if T == 4:
        every = kernel.every_path(_SCREEN_A, _SCREEN_D)
        assert tree[0].tolist() == np.argmin(sign * every, axis=0).tolist()


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["min", "max"])
def test_first_best_of_a_flat_objective_is_the_first_point(sign):
    """Without surrender every point ties, and every route picks index 0."""
    market = MarketParams(s0=100.0, u=0.1, v=-0.1, r=0.05, T=8)
    prices, q = path_arrays(market)
    benefit = BenefitSpec(K=100.0, r_G=0.01, l=0.1, surrender=False)
    kernel = _Kernel(prices, q, 0.02, 0.01, CopulaSpec("independence"), benefit, market)
    paths, price = _path_objective(kernel), _price_objective(kernel)
    for f, groups, rows in (
        (paths, len(q), 1),
        (paths, len(q), len(q)),
        # three single-model prices: every point is a contender
        (price, 3, 1),
        (price, 3, 3),
    ):
        best, _ = _first_best(f, groups, *_tiled(_SCREEN_A, _SCREEN_D, rows), sign)
        assert best.tolist() == [0] * groups


_NAN_VALUES = np.array(
    [
        # points along the first axis, groups along the second
        [3.0, 1.0, math.nan, 2.0, -math.inf, 0.0, 5.0],
        [3.0, 0.5, 1.0, math.nan, -math.inf, -0.0, math.inf],
        [1.0, 0.5, math.nan, 2.0, 7.0, 0.0, -1.0],
        [math.nan, 0.5, -1.0, math.nan, math.inf, 0.0, math.nan],
        [1.0, math.inf, 0.0, -3.0, -math.inf, -0.0, -1.0],
    ]
)


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["min", "max"])
def test_first_best_handles_nan_and_ties_as_argmin(sign):
    """Injected nan, inf and exact ties give np.argmin's index on every route.

    Point a of group g has value _NAN_VALUES[a, g].  The screen gives exact
    values, or finite values off by 0.1 with radius 0.25, so that the
    contenders are evaluated exactly.  Tiles of one or two points make the
    running best carry across tiles.
    """
    values = _NAN_VALUES
    n, groups = values.shape

    def exact_values(rows, a, d):
        return values[a.astype(np.intp), rows]

    def exact(a, d):
        v = values[a.astype(np.intp), np.arange(groups)[:, None]]
        return v, np.zeros_like(v)

    def estimated(a, d):
        v, _ = exact(a, d)
        finite = np.isfinite(v)
        return np.where(finite, v + 0.1, v), np.where(finite, 0.25, 0.0)

    expect = np.argmin(sign * values, axis=0)
    for pairs in (groups, 2 * groups, _TREE_PAIRS):
        with mock.patch.object(robust_eval, "_TREE_PAIRS", pairs):
            for screen, rows in itertools.product((exact, estimated), (1, groups)):
                f = _Objective(exact_values, screen)
                a, d = _tiled(np.arange(n, dtype=float), np.zeros(n), rows)
                best, value = _first_best(f, groups, a, d, sign)
                assert best.tolist() == expect.tolist()
                assert _hexes(value) == _hexes(values[expect, np.arange(groups)])


def test_row_sum_follows_numpy_order():
    """_row_sum adds a row in the order of numpy's sum(axis=-1), bit for bit."""
    rng = np.random.default_rng(11)
    for n in range(1, 24):
        # mixed magnitudes make the summation order visible in the last bits
        x = rng.standard_normal((64, n)) * 10.0 ** rng.integers(-8, 9, (64, n))
        x[0] = -0.0
        expect = x.sum(axis=-1)
        assert _hexes(_row_sum([x[:, i] for i in range(n)])) == _hexes(expect)
    assert float.hex(float(_row_sum([-0.0]))) == float.hex(np.sum([-0.0]))


def _outcome(f):
    """The hex bits of f(), or the class of the error it raises."""
    try:
        return float(f()).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc)


def _assert_fsum_rows(x):
    """_fsum_rows gives fsum's bits or raises its error, on both routes, unwarned."""
    x = np.asarray(x, dtype=float)
    expect = [_outcome(lambda r=r: math.fsum(r)) for r in x.tolist()]
    for direct in (0, robust_eval._FSUM_DIRECT):
        with warnings.catch_warnings(), mock.patch.object(
            robust_eval, "_FSUM_DIRECT", direct
        ):
            warnings.simplefilter("error")
            assert [_outcome(lambda r=r: _fsum_rows(r[None, :])[0]) for r in x] == expect
            if all(isinstance(e, str) for e in expect):
                assert _hexes(_fsum_rows(x)) == expect


_MIXED = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300),
    st.builds(
        lambda m, e: m * 10.0**e,
        st.floats(min_value=-1.0, max_value=1.0),
        st.integers(min_value=-300, max_value=300),
    ),
)


@settings(max_examples=200, deadline=None)
@given(
    entries=st.lists(_MIXED, min_size=1, max_size=12),
    shape=st.tuples(st.integers(1, 4), st.integers(1, 300)),
    seed=st.integers(0, 2**32 - 1),
    cancel=st.booleans(),
)
def test_fsum_rows_matches_fsum(entries, shape, seed, cancel):
    """Mixed signs and magnitudes 1e-300..1e300, with or without exact cancellation.

    A few drawn entries are spread over the block, with random signs, by
    a seeded generator: drawing every element would cost far more time.
    """
    rng = np.random.default_rng(seed)
    x = np.array(entries)[rng.integers(len(entries), size=shape)]
    x *= rng.choice([-1.0, 1.0], size=shape)
    if cancel:
        # the row and its negation, shuffled: the exact sum is 0 or the odd term
        x = np.concatenate([x, -x[:, ::-1], x[:, :1]], axis=1)
        x = np.random.default_rng(x.shape[1]).permuted(x, axis=1)
    _assert_fsum_rows(x)


@pytest.mark.parametrize(
    "row",
    [
        [-0.0] * 3,
        [0.0, -0.0],
        [1.0, -1.0],
        [5e-324] * 7 + [-1e-323],
        [2.2e-308, 5e-324, -1e-310],
        [1.0, 2.0**-53],
        [1.0, 2.0**-53, 2.0**-105],
        [1.0, -(2.0**-54), 2.0**-107],
        # the lo sum rounds to a tie just under 1.0, whose gap below is half
        # the gap above; the exact sum rounds down to 1 - 2**-53
        [2.0**46, -(2.0**46), 1.0, 2.0**-7, -0.501 * 2.0**-53, -(2.0**-7)],
        [1e300, 1.0, -1e300],
        [1e16, 1.0, 1.0, -1e16],
        [math.inf, 1.0],
        [-math.inf, -math.inf],
        [math.nan, 1.0],
        [math.inf, -math.inf],
        [1e308, 1e308],
        [1.7976931348623157e308, 1e292],
        [1.7976931348623157e308, -1.7976931348623157e308, 1.0],
    ],
)
@pytest.mark.parametrize("n", [None, 1, 2, 255, 256, 300])
def test_fsum_rows_special_rows(row, n):
    """Signed zeros, subnormals, ties, inf, nan and overflow behave as in fsum.

    n=None takes the row as written; otherwise it is repeated or cut to n.
    """
    _assert_fsum_rows(np.resize(np.array(row), (2, n or len(row))))


def test_fsum_rows_certifies_price_blocks():
    """Rows of q-weighted values take the vectorised route, without fsum.

    Short rows may not: the exact sum of two terms is often a rounding
    tie, which the certificate cannot separate from its neighbours.  Rows
    of negative terms near max|x|, whose hi parts sit on the finer grid
    below sigma and sum to about -n * max|x|, need the full headroom 2**M.
    """
    rng = np.random.default_rng(5)
    for n in (64, 255, 256, 257, 300, 4096):
        for x in (
            rng.random((32, n)) * rng.random(n),
            rng.random((32, n)) * 2.0**-20 - 2.0,
        ):
            with mock.patch.object(robust_eval, "_FSUM_DIRECT", 0), mock.patch(
                "math.fsum", side_effect=AssertionError("fell back")
            ):
                got = _fsum_rows(x)
            assert _hexes(got) == [math.fsum(r).hex() for r in x.tolist()]


class _Rows:
    """Kernel stand-in for the price objective: point a is row int(a) of g.

    Its copula is not independence, so the screen blocks _TREE_PAIRS pairs.
    """

    spec = CopulaSpec("clayton", 2.0)

    def __init__(self, q, g):
        self.q, self.g = q, g

    def every_path(self, a, d):
        return self.g[a.astype(np.intp)]

    def price_estimates(self, a, d, parts=False):
        # numpy's path sums, within _sum_margin of the exact ones in any
        # order of addition, so the screen's ranking is exercised
        x = self.q * self.every_path(a, d)
        with np.errstate(over="ignore", invalid="ignore"):
            est, mag = x.sum(axis=1), np.abs(x).sum(axis=1)
        if 2.0**-900 <= mag.min() and mag.max() < math.inf and np.isfinite(est).all():
            return est, _sum_margin(x.shape[1]) * mag
        return None


def _argmin_or_error(f):
    """f() as a list, or the class of the error it raises."""
    try:
        return f()
    except (OverflowError, ValueError) as exc:
        return type(exc)


_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 1.5e308]), _MIXED)


@settings(max_examples=150, deadline=None)
@given(
    entries=st.lists(_ENTRIES, min_size=1, max_size=12),
    shape=st.tuples(st.integers(1, 24), st.integers(1, 48)),
    seed=st.integers(0, 2**32 - 1),
    ties=st.lists(st.tuples(st.integers(0, 23), st.integers(0, 23)), max_size=8),
    nudged=st.lists(st.integers(0, 23), max_size=4),
    bad=st.lists(
        st.tuples(st.integers(0, 23), st.sampled_from([math.inf, -math.inf, math.nan])),
        max_size=2,
    ),
)
def test_certified_first_best_equals_exact_argmin(entries, shape, seed, ties, nudged, bad):
    """Estimates and contenders pick np.argmin of the exact sums, with their values.

    Blocks of the given entries carry positive path weights, mixed signs,
    zeros, exact ties (copied points), near ties (a copy with one term
    moved by one ulp) and non-finite terms; two groups go through
    ``_by_group``.  Blocks of at most 64 pairs split a group's points, and
    tiles of 1 or 3 points carry the running best across tiles.
    """
    points, paths = shape
    rng = np.random.default_rng(seed)
    g = np.array(entries)[rng.integers(len(entries), size=shape)]
    q = rng.random(paths) + 2.0**-20
    for i, j in ties:
        g[j % points] = g[i % points]
    for i in nudged:
        k = rng.integers(paths)
        g[(i + 1) % points] = g[i % points]
        g[(i + 1) % points, k] = np.nextafter(g[i % points, k], math.inf)
    for i, x in bad:
        g[i % points, rng.integers(paths)] = x
    blocks = [g, -g[::-1]]
    with mock.patch.object(robust_eval, "_TREE_PAIRS", 64):
        objectives = [_price_objective(_Rows(q, b)) for b in blocks]
    f = _by_group(objectives, np.arange(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sign in (1.0, -1.0):

            def exact():
                picks = []
                for b in blocks:
                    v = _fsum_rows(q * b)
                    k = int(np.argmin(sign * v))
                    picks.append((k, float(v[k]).hex()))
                return picks

            def certified(rows):
                a, d = _tiled(np.arange(points, dtype=float), np.zeros(points), rows)
                best, value = _first_best(f, 2, a, d, sign)
                return list(zip(best.tolist(), _hexes(value)))

            expect = _argmin_or_error(exact)
            # tiles of 1, 3 and every point, of a shared row or one per group
            for pairs, rows in itertools.product((2, 6, _TREE_PAIRS), (1, 2)):
                with mock.patch.object(robust_eval, "_TREE_PAIRS", pairs):
                    assert _argmin_or_error(lambda: certified(rows)) == expect


def test_screen_contenders_are_few(market_paper, benefit_paper, independence):
    """Certified estimates leave under 2% of the a-sweep's screen to exact sums."""
    box = ParamBox(a=(50.0, 340.0), b=(0.02, 0.03), c=(0.01, 0.05), d=(1e4, 1e5))
    boxes = [dataclasses.replace(box, a=(a, a)) for a in np.linspace(50.0, 350.0, 31)]
    real, screens = robust_eval._first_best, []

    def spy(f, groups, a, d, sign):
        exact = []

        def counted(rows, a, d):
            exact.append(a.size)
            return f.values(rows, a, d)

        out = real(_Objective(counted, f.screen), groups, a, d, sign)
        screens.append((groups * a.shape[1], sum(exact)))
        return out

    with mock.patch.object(robust_eval, "_first_best", spy):
        sup_classical_batch(
            boxes, [benefit_paper] * 31, independence, market_paper, OptimizerConfig()
        )
    # the fixed candidates, then the 17**2-point screen of d
    [_, (screened, contenders)] = screens
    assert screened == 31 * 289
    assert contenders < 0.02 * screened


def _exact_first_best(f, a, d, sign):
    """np.argmin of sign * each row's exact values, and the value there."""
    rows = np.broadcast_to(np.arange(a.shape[0])[:, None], a.shape)
    v = f.values(rows.ravel(), a.ravel(), d.ravel()).reshape(a.shape)
    j = np.argmin(sign * v, axis=1)
    return j.tolist(), _hexes(v[np.arange(a.shape[0]), j])


def _counting_runs(f):
    """f, and the list of how many points each call of its run bounds prices."""
    priced = []

    def runs(rows, a, d):
        priced.append(a.size)
        return f.runs(rows, a, d)

    return f._replace(runs=runs), priced


@settings(max_examples=80, deadline=None)
@given(
    T=st.sampled_from([2, 4, 6, 8]),
    pins=st.lists(st.floats(0.0, 400.0), min_size=1, max_size=3),
    death=st.sampled_from([(0.02, 0.01), (0.03, 0.05), (0.001, 0.2)]),
    K=st.floats(50.0, 150.0),
    decade=st.floats(2.0, 5.5),
    decades=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
    n=st.integers(2, 80),
    copies=st.lists(st.integers(1, 79), max_size=6),
    runs=st.integers(1, 3),
    tile=st.sampled_from([None, 7, 25]),
)
def test_run_bounds_pick_the_exact_first_best(
    T, pins, death, K, decade, decades, n, copies, runs, tile
):
    """Pinned-a screens pick np.argmin's point and value with and without run bounds.

    Each row pins its own a; its d rise through runs of n points (all
    equal at zero decades), some copied from the point before, which tie
    it.  The screen that prices every point, and the exact values, agree
    with the bounded one in both directions, in one tile or in tiles of 7
    or 25 points that cut the runs.  Run bounds price points only in the
    tiles where some run has three or more.
    """
    market = MarketParams(s0=100.0, u=0.1, v=-0.1, r=0.05, T=T)
    prices, q = path_arrays(market)
    benefit = BenefitSpec(K=K, r_G=0.01, l=0.1)
    kernel = _Kernel(prices, q, *death, CopulaSpec("independence"), benefit, market)
    f, priced = _counting_runs(_price_objective(kernel))
    every = _Objective(f.values, f.screen)
    d = np.geomspace(10.0**decade, 10.0 ** (decade + decades), n)
    for k in copies:
        d[k % n] = d[k % n - 1] if k % n else d[0]
    a, d = np.repeat(np.array(pins)[:, None], runs * n, axis=1), np.tile(d, (len(pins), runs))
    pairs = _TREE_PAIRS if tile is None else tile * len(pins)
    # whether a tile holds a run of three or more points, which has inner
    # points a bound may rule out; other tiles take the plain screen
    width = d.shape[1] if tile is None else tile
    inner = any(
        j // width == (j - 2) // width and d[0, j - 2] <= d[0, j - 1] <= d[0, j]
        for j in range(2, d.shape[1])
    )
    with mock.patch.object(robust_eval, "_TREE_PAIRS", pairs):
        for sign in (1.0, -1.0):
            bounded = _first_best(f, len(pins), a, d, sign)
            screened = _first_best(every, len(pins), a, d, sign)
            got = (bounded[0].tolist(), _hexes(bounded[1]))
            assert got == (screened[0].tolist(), _hexes(screened[1]))
            assert got == _exact_first_best(f, a, d, sign)
    assert bool(priced) == inner


@pytest.mark.parametrize("T", [1, 2, 6, 8, 12])
def test_run_rows_bound_the_prices_between_two_points(T, independence):
    """Between two points of a run that pins a, the centered bound holds every price.

    For each pair i < j of 48 points of rising d, from levels near 1 to
    ones that underflow, each inner point's exact price lies on the right
    side of ``_centered_bound`` from the two ends' rows, for maximization
    and minimization.  Points without estimates (magnitudes that
    underflow) have no slope rows.
    """
    market = MarketParams(s0=100.0, u=0.1, v=-0.1, r=0.05, T=T)
    prices, q = path_arrays(market)
    kernel = _Kernel(prices, q, 0.02, 0.01, independence, BenefitSpec(100.0, 0.01, 0.1), market)
    f = _price_objective(kernel)
    d = np.geomspace(10.0, 1e7, 48)
    for pinned in (0.0, 60.0, 150.0, 400.0):
        a = np.full(d.shape, pinned)
        # one point per call: a point without estimates withdraws its block's
        rows = np.concatenate(
            [f.runs(np.zeros(1, np.intp), a[k : k + 1], d[k : k + 1]) for k in range(d.size)],
            axis=1,
        )
        price = f.values(None, a, d)
        bounded = np.isfinite(rows[2])
        assert bounded.sum() >= 24
        i, j = np.meshgrid(*[np.flatnonzero(bounded)] * 2, indexing="ij")
        i, j = i[j - i > 1], j[j - i > 1]
        span = d[np.stack((i, i + 1, j - 1, j))]
        k = np.arange(d.size)
        inner = bounded & (i[:, None] < k) & (k < j[:, None])
        for sign in (1.0, -1.0):
            low = _centered_bound(sign, span, rows[:, np.stack((i, j))])
            assert np.isfinite(low).all()
            assert (sign * price >= low[:, None])[inner].all()


def _table_objective(table, plus, minus, slack):
    """Exact values table[d], radius 0, slope rows D+ = plus(d), D- = minus(d).

    The price's slack is slack, the slopes' 0.
    """

    def values(rows, a, d):
        return np.array([table[x] for x in d.tolist()])

    def runs(rows, a, d):
        v = values(rows, a, d)
        zero = np.zeros_like(v)
        return np.stack((v, zero, plus(d), minus(d), np.full_like(v, slack), zero))

    def screen(a, d):
        v = values(None, a, d.ravel()).reshape(d.shape)
        return v, np.zeros_like(v)

    return _Objective(values, screen, runs=runs)


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["min", "max"])
def test_run_bounds_keep_a_tie_their_bound_meets(sign):
    """A point whose bound equals the best bracket is priced: it may tie first.

    Values -sign * d, slope rows D+ and D- (one of them d, the other 0) of
    the right sign, no slack.  On d = (1, 2, 2) the bound of the inner
    point meets the priced end's value, and the inner point, a tie, is
    np.argmin's pick.
    """
    d = np.array([[1.0, 2.0, 2.0]])
    parts = (np.zeros_like, np.copy) if sign > 0 else (np.copy, np.zeros_like)
    f = _table_objective({1.0: -sign, 2.0: -2.0 * sign}, *parts, 0.0)
    best, value = _first_best(f, 1, np.zeros_like(d), d, sign)
    assert best.tolist() == [1]
    assert value.tolist() == [-sign * 2.0]


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["min", "max"])
def test_run_bounds_add_the_slack(sign):
    """A point that beats its run's ends by less than their slack is priced.

    Slope rows D+ = D- = 0, a flat run, bound the values of the run
    d = (1, 2, 3) by 1 + 2 * slack: its inner value 1 + 1.5 slack beats
    the second run's 1 + slack, so a bound without slack would rule out
    the winner (for minimization, negated).
    """
    eps = 2.0**-40
    d = np.array([[1.0, 2.0, 3.0, 0.5, 0.6]])
    price = [1.0, 1.0 + 1.5 * eps, 1.0, 1.0 + eps, 1.0]
    table = {x: -sign * p for x, p in zip(d[0].tolist(), price)}
    f = _table_objective(table, np.zeros_like, np.zeros_like, eps)
    best, value = _first_best(f, 1, np.zeros_like(d), d, sign)
    assert best.tolist() == [1]
    assert value.tolist() == [-sign * (1.0 + 1.5 * eps)]


def _negative_load_a(kernel):
    """The first a above S_0 = 100 at which some computed node load is negative."""
    a = 100.0
    for _ in range(64):
        a = math.nextafter(a, math.inf)
        if kernel._levels(kernel.tree, np.array([a]), np.array([1e4]))[0].min() < 0.0:
            return a
    raise AssertionError("no negative load near S_0")


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["min", "max"])
def test_runs_without_a_bound_price_every_point(sign, independence):
    """A run with a negative load, or without estimates, prices all its points.

    Estimates are missing without surrender and for payouts past 2**400.
    The control, a = 300 with surrender, prices fewer points.
    """
    market = MarketParams(s0=100.0, u=0.1, v=-0.1, r=0.05, T=6)
    prices, q = path_arrays(market)
    benefit = BenefitSpec(K=100.0, r_G=0.01, l=0.1)

    def kernel(**changes):
        spec = dataclasses.replace(benefit, **changes)
        return _Kernel(prices, q, 0.02, 0.01, independence, spec, market)

    with_surrender = kernel()
    d = np.linspace(1e4, 1e5, 60)[None]
    cases = [
        (with_surrender, _negative_load_a(with_surrender), True),
        (kernel(surrender=False), 150.0, True),
        (kernel(K=1e306), 150.0, True),
        (with_surrender, 300.0, False),
    ]
    for k, pinned, every in cases:
        f, priced = _counting_runs(_price_objective(k))
        a = np.full(d.shape, pinned)
        best = _first_best(f, 1, a, d, sign)
        assert (best[0].tolist(), _hexes(best[1])) == _exact_first_best(f, a, d, sign)
        assert (sum(priced) == d.size) == every


def test_run_bounds_price_few_of_the_sweeps_screen(market_paper, benefit_paper, independence):
    """paper.cfg's 31-step a-sweep prices at most 6% of its screen points.

    In at most 5 calls of the run rows: a silent fall back to the screen
    that prices every point, or a bound that rules out fewer points, fails
    here.
    """
    box = ParamBox(a=(50.0, 340.0), b=(0.02, 0.03), c=(0.01, 0.05), d=(1e4, 1e5))
    boxes = [dataclasses.replace(box, a=(a, a)) for a in np.linspace(50.0, 350.0, 31)]
    real, screens = robust_eval._first_best, []

    def spy(f, groups, a, d, sign):
        f, priced = _counting_runs(f)
        out = real(f, groups, a, d, sign)
        screens.append((groups * a.shape[1], priced))
        return out

    with mock.patch.object(robust_eval, "_first_best", spy):
        sup_classical_batch(
            boxes, [benefit_paper] * 31, independence, market_paper, OptimizerConfig()
        )
    # the fixed candidates, then the 17**2-point screen of d
    [_, (screened, priced)] = screens
    assert screened == 31 * 289
    assert 0 < sum(priced) <= 0.06 * screened
    assert len(priced) <= 5


def _without_brackets(kernel):
    """The price objective with no estimates: minimize compares exact values."""
    return _Objective(*_price_objective(kernel)[:2])


@pytest.mark.parametrize("T", [6, 8])
@pytest.mark.parametrize("method", ["nelder_mead", "hybrid"])
@pytest.mark.parametrize("spec", COPULAS, ids=[c.family for c in COPULAS])
def test_searches_are_the_same_with_and_without_estimates(spec, method, T, benefit_paper):
    """The classical band, and evaluate, keep their bits without estimates.

    With the estimates on, under independence the simplex of a search
    with a pinned (the sweep's, and one inf_classical) settles its
    decisions from brackets and sums prices exactly only where one stays
    open, and every screen ranks by estimates; with
    price_estimates returning None every bracket is an exact price, and
    without brackets minimize compares exact values alone.
    """
    market = MarketParams(s0=100.0, u=0.1, v=-0.1, r=0.05, T=T)
    box = ParamBox(a=(50.0, 340.0), b=(0.02, 0.03), c=(0.01, 0.05), d=(1e4, 1e5))
    boxes = [dataclasses.replace(box, a=(a, a)) for a in np.linspace(50.0, 350.0, 7)]
    cfg = OptimizerConfig(method=method, grid_points_per_dim=16)

    def run():
        band = sup_classical_batch(boxes, [benefit_paper] * 7, spec, market, cfg)
        low = [inf_classical(b, spec, benefit_paper, market, cfg) for b in (box, boxes[3])]
        report = evaluate(box, spec, benefit_paper, market, cfg)
        values = [v for v, _ in band + low] + [report.sup_classical, report.robust_price]
        thetas = [t for _, t in band + low] + [report.argmax_outer]
        return _hexes(values), [float.hex(x) for t in thetas for x in (t.a, t.d)]

    default = run()
    with mock.patch.object(_Kernel, "price_estimates", return_value=None):
        assert run() == default
    with mock.patch.object(robust_eval, "_price_objective", _without_brackets):
        assert run() == default


@pytest.mark.parametrize("xatol, fatol", [(1e-8, 1e-8), (1e-2, 1e-3)])
@pytest.mark.parametrize("ndim", [1, 2])
def test_minimize_with_brackets_takes_the_exact_steps(ndim, xatol, fatol):
    """Brackets of any width give the exact run's points, bit for bit.

    Quadratics with interior minima, and tilted ones whose minimum is the
    corner 0, bracketed with radii from 0 to 1e5 fatol and estimates off
    by up to 0.9 radius.  Near convergence values differ by about fatol, so
    comparisons and, at the coarse tolerances, fatol tests open and are
    settled by exact values; narrow brackets need few of them.
    """
    rng = np.random.default_rng(5)
    centers = rng.uniform(-0.2, 1.2, (28, ndim))
    scales = rng.uniform(0.5, 50.0, 28)
    slopes = np.where(np.arange(28) < 14, 0.0, rng.uniform(10.0, 1000.0, 28))
    radii = fatol * np.array([0.0, 1e-4, 1e-2, 0.3, 1.0, 100.0, 1e5])[np.arange(28) % 7]
    calls = []

    def g(rows, z):
        return scales[rows] * ((z - centers[rows]) ** 2).sum(axis=1) + slopes[rows] * z.sum(axis=1)

    def fun(rows, z):
        calls.append(rows.size)
        return g(rows, z)

    def bracket(rows, z):
        r = radii[rows]
        return g(rows, z) + 0.9 * r * np.sin(1e3 * z.sum(axis=1)), r

    x0 = rng.uniform(0.0, 1.0, (28, ndim))
    exact = minimize(fun, x0, 500, xatol, fatol)
    calls.clear()
    lazy = minimize(fun, x0, 500, xatol, fatol, bracket)
    assert lazy.x.tolist() == exact.x.tolist()
    assert (lazy.converged.tolist(), lazy.nfev) == (exact.converged.tolist(), exact.nfev)
    assert ((lazy.fun <= exact.fun) & (exact.fun <= lazy.fun_hi)).all()
    assert 0 < sum(calls) < lazy.nfev


def test_bitwise_equal_points_compare_equal_without_an_exact_value():
    """Equal points of one problem need no exact value to compare.

    f(z) = z from the start 0: the reflection and the outside contraction
    both clip to 0, vertex 0 itself, so the new vertex 1 equals vertex 0.
    Brackets of radius 1e-6 separate every two distinct points, so only
    equal points overlap: the run makes no call to fun, and ends where the
    run on exact values does, its value bracketed.
    """
    calls = []

    def fun(rows, z):
        calls.append(rows.size)
        return z[:, 0].copy()

    def bracket(rows, z):
        return z[:, 0] + 4e-7, np.full(rows.size, 1e-6)

    x0 = np.zeros((1, 1))
    exact = minimize(fun, x0, 500, 1e-8, 1e-8)
    calls.clear()
    lazy = minimize(fun, x0, 500, 1e-8, 1e-8, bracket)
    assert calls == []
    assert lazy.x.tolist() == exact.x.tolist() == [[0.0]]
    assert (lazy.converged.tolist(), lazy.nfev) == (exact.converged.tolist(), exact.nfev)
    assert lazy.fun[0] <= exact.fun[0] <= lazy.fun_hi[0]
    assert lazy.fun[0] < lazy.fun_hi[0]


def test_a_sweep_sums_few_prices_exactly(market_paper, benefit_paper, independence):
    """The paper's 31-step a-sweep sums at most 64 points' prices exactly.

    Each exact price walks every path (``_Kernel.every_path``); estimates
    settle the screens' rankings and the simplex's decisions, so only
    contenders, winners and open comparisons are summed, and a candidate
    equal to an earlier one of its step is not summed again.  Summing every
    Nelder-Mead point took 2,021, and summing repeated candidates 259.
    """
    box = ParamBox(a=(50.0, 340.0), b=(0.02, 0.03), c=(0.01, 0.05), d=(1e4, 1e5))
    boxes = [dataclasses.replace(box, a=(a, a)) for a in np.linspace(50.0, 350.0, 31)]
    summed, real = [], _Kernel.every_path

    def counted(self, a, d):
        summed.append(a.shape[0])
        return real(self, a, d)

    with mock.patch.object(_Kernel, "every_path", counted):
        sup_classical_batch(
            boxes, [benefit_paper] * 31, independence, market_paper, OptimizerConfig()
        )
    assert 0 < sum(summed) <= 64


def test_searches_free_their_kernels_without_the_cycle_collector(
    market_paper, benefit_paper, box_paper
):
    """No reference cycle holds a kernel: its arrays go when its search returns.

    With the cycle collector off, kernels kept alive by a cycle would stay
    until a full collection, on top of the next stage's peak memory.
    """
    spec, cfg = CopulaSpec("clayton", 2.0), OptimizerConfig(method="hybrid", grid_points_per_dim=8)
    boxes = [box_paper, dataclasses.replace(box_paper, b=(0.025, 0.03))]

    def kernels():
        return sum(isinstance(o, _Kernel) for o in gc.get_objects())

    gc.collect()
    gc.disable()
    try:
        before = kernels()
        evaluate(box_paper, spec, benefit_paper, market_paper, cfg)
        sup_classical_batch(boxes, [benefit_paper] * 2, spec, market_paper, cfg)
        assert kernels() == before
    finally:
        gc.enable()


def test_grid_search_memory_is_flat_in_points(benefit_paper, independence):
    """A T=10 grid search never holds a (points x paths) matrix of values.

    Its 4,096 shared points on 1,024 paths would take 256 blocks of
    _TREE_PAIRS floats.
    """
    market = MarketParams(s0=100.0, u=0.1, v=-0.1, r=0.05, T=10)
    box = ParamBox(a=(50.0, 340.0), b=(0.02, 0.03), c=(0.01, 0.05), d=(1e4, 1e5))
    cfg = OptimizerConfig(method="grid", grid_points_per_dim=64)
    tracemalloc.start()
    try:
        robust_price(box, independence, benefit_paper, market, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * _TREE_PAIRS * 8
    # the paths' equal rectangles share one row of grid axes: one row per
    # path would add 2 x 1,024 x 64 floats, 1 MiB, to a peak of about 1 MB
    assert peak < 1.5 * 2**20


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
    for tolerance in (0.0, math.nan, math.inf):
        with pytest.raises(ConfigurationError):
            OptimizerConfig(tolerance=tolerance)
    with pytest.raises(ConfigurationError):
        OptimizerConfig(max_iters=0)
    with pytest.raises(ConfigurationError):
        OptimizerConfig(grid_points_per_dim=1)


@pytest.mark.parametrize("field", ["multistarts", "max_iters", "grid_points_per_dim"])
def test_optimizer_config_counts_are_integers(field):
    """Counts reject floats and bools, and store numpy integers as int."""
    for bad in (2.5, 10.0, True, False, "3"):
        with pytest.raises(ConfigurationError, match=field):
            OptimizerConfig(**{field: bad})
    cfg = OptimizerConfig(**{field: np.int64(7)})
    assert getattr(cfg, field) == 7 and type(getattr(cfg, field)) is int


def test_optimizer_config_rejects_boolean_tolerance():
    with pytest.raises(ConfigurationError, match="tolerance"):
        OptimizerConfig(tolerance=True)


def test_report_validation_rejects_bad_delta():
    """A robust price below the classical supremum breaks pathwise domination."""
    opt = PathOptimum(0, 1.0, 5.0, THETAS[0])
    with pytest.raises(NumericalError, match="below classical supremum"):
        EvaluationReport(robust_price=5.0, per_path=(opt,), sup_classical=5.0 + 1e-8)
    # within the 1e-9 slack the report stands; delta is derived, not stored
    near = EvaluationReport(robust_price=5.0, per_path=(opt,), sup_classical=5.0 + 5e-10)
    assert near.delta == 5.0 - (5.0 + 5e-10)
    assert EvaluationReport(robust_price=5.0, per_path=(opt,)).delta is None


def test_copula_changes_the_price(market_small, benefit_paper):
    """Dependence structure moves the value: families disagree somewhere."""
    theta = Theta(150.0, 0.025, 0.03, 2e4)
    prices = {
        spec.family: classical_price(theta, spec, benefit_paper, market_small)
        for spec in COPULAS
    }
    assert max(prices.values()) - min(prices.values()) > 1e-4


_NM_LO = np.array([50.0, 1e4])
_NM_WIDTH = np.array([290.0, 9e4])
# z = 0 takes scipy's zero-coordinate step, z = 1 its reflection inside
_NM_STARTS = [(0.0, 0.0), (1.0, 1.0), (0.1, 0.7), (0.9, 0.3), (0.5, 0.5)]


def _negated_value(kernel, row, free):
    """-G on one path of the kernel, in box-normalised coordinates z."""

    def g(z):
        pt = _NM_LO.copy()
        pt[free] = _NM_LO[free] + z * _NM_WIDTH[free]
        return -float(kernel.values(np.array([row]), pt[:1], pt[1:])[0])

    return g


def _value_rows(k):
    """Rows of k values: every combination of a pool with ties, nan, signed
    zeros and infinities, then random rows drawn from few values, so that
    ties and nans are common."""
    pool = [-np.inf, -1.0, -0.0, 0.0, 1.0, np.inf, np.nan]
    rng = np.random.default_rng(11)
    return np.concatenate(
        (
            np.array(list(itertools.product(pool, repeat=k))),
            rng.choice([np.nan, -0.0, 0.0, 0.5, 0.5, 2.0], size=(100_000, k)),
        )
    )


def _sorted_order(rows, first):
    """The vertex order in which ``_sort_simplex`` leaves rows whose first
    `first` values it is given in argsort's order."""
    # P[vertex, (index, value), row]: the index row shows the permutation
    index = np.broadcast_to(np.arange(rows.shape[1], dtype=float), rows.shape).copy()
    head = np.argsort(rows[:, :first], axis=1, kind="stable")
    index[:, :first] = head
    values = rows.copy()
    values[:, :first] = np.take_along_axis(rows, head, axis=1)
    P = np.stack((index, values)).transpose(2, 0, 1)
    _sort_simplex(P, lambda x, y: x[-1] <= y[-1], first)
    return P[:, 0].T


@pytest.mark.parametrize("k", [2, 3], ids=["1-D", "2-D"])
def test_sort_network_gives_argsort_order(k):
    """minimize's vertex sort orders value rows as np.argsort does.

    A numpy whose argsort breaks ties otherwise fails here instead of
    moving printed digits.
    """
    rows = _value_rows(k)
    assert np.array_equal(_sorted_order(rows, 1), np.argsort(rows, axis=1))


@pytest.mark.parametrize("k", [2, 3], ids=["1-D", "2-D"])
def test_sort_inserts_the_last_vertex_in_argsort_order(k):
    """After a step without shrink only the last vertex is new: moved into
    the sorted rest, it lands where np.argsort's stable order puts it,
    among ties, nan, signed zeros and infinities."""
    rows = _value_rows(k)
    assert np.array_equal(_sorted_order(rows, k - 1), np.argsort(rows, axis=1, kind="stable"))


def test_clip_gives_np_clip_bits():
    """minimize's in-place clip to [0, 1] gives np.clip's bits, signed zeros
    and nan signs included, at lengths that fill whole SIMD lanes and leave
    scalar tails, on contiguous and strided arrays."""
    pool = [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, -1.5, 1.5, 0.25, 1.0, -5e-324, 5e-324]
    rng = np.random.default_rng(5)
    for size in [*range(1, 70), 255, 256, 257, 1537]:
        x = rng.choice(pool, 2 * size)
        assert _clip(x[:size].copy()).tobytes() == np.clip(x[:size], 0.0, 1.0).tobytes()
        y = x.copy()
        _clip(y[::2])
        assert y[::2].tobytes() == np.clip(x[::2], 0.0, 1.0).tobytes()


@pytest.mark.parametrize("maxiter", [500, 6, "median"])
@pytest.mark.parametrize("free", [[0, 1], [0], [1]], ids=["a-d", "a", "d"])
def test_lockstep_nelder_mead_matches_scipy(free, maxiter, market_small, benefit_paper):
    """Every problem of a batch ends exactly where scipy's Nelder-Mead does.

    Problems come from the four families on several paths, in 2-D and on
    boxes with d or a fixed.  Without surrender G is flat in (a, d), so
    every contraction fails and the simplex shrinks.  The "median" cap is
    the median of scipy's iteration counts, so it stops some problems after
    others have converged and left the batch; the same problems in a
    shuffled order must give the same results.  x and fun match bit for
    bit.  fun is called once
    for the initial simplex, then at least once and at most three times
    per step: the reflections, the trial points and the shrunken vertices.
    """
    prices, q = path_arrays(market_small)
    problems, starts = [], []
    for spec in COPULAS:
        for surrender in (True, False):
            benefit = dataclasses.replace(benefit_paper, surrender=surrender)
            kernel = _Kernel(prices, q, 0.02, 0.01, spec, benefit, market_small)
            for row, z0 in enumerate(_NM_STARTS):
                problems.append(_negated_value(kernel, 3 * row, free))
                starts.append(z0[: len(free)])
    x0 = np.array(starts)
    calls = []

    def fun(rows, z):
        calls.append(rows)
        return np.array([problems[r](zi) for r, zi in zip(rows, z)])

    def scipy_runs(options):
        return [
            optimize.minimize(
                g, z0, method="Nelder-Mead", bounds=[(0.0, 1.0)] * len(free), options=options
            )
            for g, z0 in zip(problems, x0)
        ]

    options = {"maxiter": 500, "xatol": 1e-8, "fatol": 1e-8}
    if maxiter == "median":
        options["maxiter"] = int(np.median([e.nit for e in scipy_runs(options)]))
    else:
        options["maxiter"] = maxiter
    res = minimize(fun, x0, **options)
    expect = scipy_runs(options)
    steps = max(e.nit for e in expect) - 1
    assert calls[0].size == x0.size + x0.shape[0]
    assert 1 + steps <= len(calls) <= 1 + 3 * steps
    assert _hexes(res.x) == _hexes([e.x for e in expect])
    assert _hexes(res.fun) == _hexes([e.fun for e in expect])
    assert res.converged.tolist() == [e.success for e in expect]
    assert res.success == all(e.success for e in expect)
    assert res.nfev == sum(e.nfev for e in expect)
    # without a bracket, the upper ends are the values themselves
    assert _hexes(res.fun_hi) == _hexes(res.fun)
    if maxiter == "median":
        assert 0 < res.converged.sum() < res.converged.size
    order = np.random.default_rng(7).permutation(len(problems))
    shuffled = minimize(lambda rows, z: fun(order[rows], z), x0[order], **options)
    assert _hexes(shuffled.x) == _hexes([expect[i].x for i in order])
    assert _hexes(shuffled.fun) == _hexes([expect[i].fun for i in order])
    assert shuffled.converged.tolist() == [expect[i].success for i in order]
    assert shuffled.nfev == res.nfev
    for i, e in enumerate(expect):
        alone = minimize(lambda rows, z: fun(rows + i, z), x0[i : i + 1], **options)
        assert _hexes(alone.x) == _hexes(e.x)
        assert alone.nfev == e.nfev
    if len(free) == 2:
        # after the first call, a repeated problem is a shrink's N vertices
        assert any(np.unique(rows).size < rows.size for rows in calls[1:])


@pytest.mark.parametrize("spec", COPULAS, ids=[c.family for c in COPULAS])
def test_theta_fields_are_python_floats(spec, market_small, benefit_paper):
    box = ParamBox(a=(50.0, 340.0), b=(0.02, 0.03), c=(0.01, 0.05), d=(1e4, 1e5))
    cfg = OptimizerConfig(multistarts=2)
    report = evaluate(box, spec, benefit_paper, market_small, cfg)
    verdict = nrifa_check(
        report.robust_price + 1.0, report, box, spec, benefit_paper, market_small, cfg
    )
    assert verdict.theta_prime is not None
    thetas = [p.theta for p in report.per_path]
    thetas += [report.argmax_outer, verdict.theta_prime]
    for theta in thetas:
        assert [type(getattr(theta, f)) for f in "abcd"] == [float] * 4
    # the report's repr shows plain Python numbers, not numpy scalars
    for opt in report.per_path:
        assert (type(opt.index), type(opt.q_weight), type(opt.value)) == (int, float, float)


def test_nonconvergence_raises_with_best_value(market_small, benefit_paper, independence):
    """max_iters=1 runs one Nelder-Mead iteration, so no start converges."""
    box = ParamBox(a=(50.0, 340.0), b=(0.02, 0.03), c=(0.01, 0.05), d=(1e4, 1e5))
    cfg = OptimizerConfig(max_iters=1)
    with pytest.raises(NumericalError, match="failed to converge within 1 iter") as info:
        evaluate(box, independence, benefit_paper, market_small, cfg)
    corners = [
        classical_price(theta, independence, benefit_paper, market_small)
        for theta in (Theta(a, 0.02, 0.01, d) for a in box.a for d in box.d)
    ]
    assert info.value.best_value >= max(corners)
    # the robust search reports the best value of the first path
    with pytest.raises(NumericalError) as robust:
        robust_price(box, independence, benefit_paper, market_small, cfg)
    path = enumerate_paths(market_small)[0]
    with pytest.raises(NumericalError) as single:
        pathwise_esssup(path, box, independence, benefit_paper, market_small, cfg)
    assert robust.value.best_value == single.value.best_value
    assert math.isfinite(single.value.best_value)


def test_minimize_reports_the_value_at_x_where_a_vertex_is_nan():
    """fun is the objective at x, also where the final simplex holds a nan.

    The start (0.88, 0.3) puts its first step at z0 = 0.924, where the
    objective is nan, and maxiter = 1 ends the run on that simplex.  scipy
    reports the least value of the final simplex, nan; x, the best vertex,
    is the same on both sides.
    """

    def g(z):
        return np.where(z[:, 0] > 0.9, np.nan, (z[:, 0] - 0.3) ** 2 + (z[:, 1] - 0.6) ** 2)

    x0 = np.array([[0.88, 0.3]])
    res = minimize(lambda rows, z: g(z), x0, 1, 1e-8, 1e-8)
    expect = optimize.minimize(
        lambda z: float(g(z[None, :])[0]),
        x0[0],
        method="Nelder-Mead",
        bounds=[(0.0, 1.0)] * 2,
        options={"maxiter": 1, "xatol": 1e-8, "fatol": 1e-8},
    )
    assert math.isnan(expect.fun)
    assert res.x.tolist() == [expect.x.tolist()]
    assert _hexes(res.fun) == _hexes(g(res.x))
    assert not math.isnan(res.fun[0])


@pytest.mark.parametrize("spec", COPULAS, ids=[c.family for c in COPULAS])
def test_optimize_ad_values_are_the_objective_at_the_returned_points(
    spec, market_small, benefit_paper
):
    """Each group's value is what its objective gives at the returned point.

    Per path for the robust search, and per price for both ends of the
    classical band, under Nelder-Mead and hybrid.
    """
    box = ParamBox(a=(50.0, 340.0), b=(0.02, 0.03), c=(0.01, 0.05), d=(1e4, 1e5))
    prices, q = path_arrays(market_small)
    kernel = _Kernel(prices, q, 0.02, 0.01, spec, benefit_paper, market_small)
    for method in ("nelder_mead", "hybrid"):
        cfg = OptimizerConfig(method=method, multistarts=3, grid_points_per_dim=8)
        for f, groups, maximize in (
            (_path_objective(kernel), len(q), True),
            (_price_objective(kernel), 1, True),
            (_price_objective(kernel), 1, False),
        ):
            optima = _optimize_ad(f, groups, box.a, box.d, cfg, maximize)
            value, a, d = (np.array(x) for x in zip(*optima))
            assert _hexes(value) == _hexes(f.values(np.arange(groups), a, d))


def test_max_iters_allows_that_many_iterations(
    monkeypatch, market_small, benefit_paper, independence
):
    """max_iters=k runs each start as scipy does with maxiter=k+1.

    scipy counts the initial simplex as iteration 1, so a start that scipy
    reports converged after nit iterations needs max_iters >= nit.
    """
    box = ParamBox(a=(50.0, 340.0), b=(0.02, 0.03), c=(0.01, 0.05), d=(1e4, 1e5))
    calls = []
    real = robust_eval.minimize

    def spy(fun, x0, maxiter, xatol, fatol, bracket=None):
        calls.append((fun, x0, xatol, fatol))
        return real(fun, x0, maxiter, xatol, fatol, bracket)

    monkeypatch.setattr(robust_eval, "minimize", spy)
    sup_classical(box, independence, benefit_paper, market_small, OptimizerConfig())
    [(fun, x0, xatol, fatol)] = calls
    runs = [
        optimize.minimize(
            lambda z, row=row: float(fun(np.array([row]), z[None, :])[0]),
            z0,
            method="Nelder-Mead",
            bounds=[(0.0, 1.0)] * 2,
            options={"xatol": xatol, "fatol": fatol},
        )
        for row, z0 in enumerate(x0)
    ]
    assert all(run.success for run in runs)
    k = min(run.nit for run in runs)
    sup_classical(
        box, independence, benefit_paper, market_small, OptimizerConfig(max_iters=k)
    )
    with pytest.raises(NumericalError, match=f"within {k - 1} iterations"):
        sup_classical(
            box,
            independence,
            benefit_paper,
            market_small,
            OptimizerConfig(max_iters=k - 1),
        )


def test_degenerate_rectangle_runs_no_search(market_small, benefit_paper, independence):
    box = ParamBox(a=(120.0, 120.0), b=(0.02, 0.03), c=(0.01, 0.05), d=(5e4, 5e4))
    # any Nelder-Mead run would fail to converge at this cap
    cfg = OptimizerConfig(max_iters=1)
    report = evaluate(box, independence, benefit_paper, market_small, cfg)
    corner = Theta(120.0, 0.02, 0.01, 5e4)
    assert report.argmax_outer == corner
    assert report.sup_classical == classical_price(
        corner, independence, benefit_paper, market_small
    )
    for path, opt in zip(enumerate_paths(market_small), report.per_path):
        assert opt.theta == corner
        assert opt.value == conditional_value(
            path, corner, independence, benefit_paper, market_small
        )


@pytest.mark.parametrize("method", ["nelder_mead", "hybrid", "grid"])
def test_one_period_market_evaluates(method, benefit_paper):
    """T=1 has no interior surrender date: every kernel slice is empty."""
    market = MarketParams(s0=100.0, u=0.1, v=-0.1, r=0.05, T=1)
    box = ParamBox(a=(50.0, 340.0), b=(0.02, 0.03), c=(0.01, 0.05), d=(1e4, 1e5))
    cfg = OptimizerConfig(method=method, multistarts=2, grid_points_per_dim=8)
    for spec in COPULAS:
        report = evaluate(box, spec, benefit_paper, market, cfg)
        for path, opt in zip(enumerate_paths(market), report.per_path):
            value, theta = pathwise_esssup(
                path, box, spec, benefit_paper, market, cfg, (report.argmax_outer,)
            )
            assert (opt.value, opt.theta) == (value, theta)
        assert report.delta >= 0.0
