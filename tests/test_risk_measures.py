"""Conditional risk measures: greedy vs oracle, axioms, entropic family."""

import math

import numpy as np
import pytest
from scipy import optimize

from rifa.copulas import CopulaSpec
from rifa.errors import ContractError, ResourceError
from rifa.hazards import Theta
from rifa.lattice import path_arrays
from risk_measures import (
    ORACLE_BLOCK_LIMIT,
    CondRiskValue,
    FiniteCondSpace,
    avar_robust_oracle,
    cond_avar,
    entropic_sup,
    two_step,
)
from rifa.robust_eval import classical_price, conditional_values, robust_price


def _random_space(rng, max_atoms_per_block=ORACLE_BLOCK_LIMIT):
    n_blocks = int(rng.integers(1, 5))
    sizes = [int(rng.integers(1, max_atoms_per_block + 1)) for _ in range(n_blocks)]
    n = sum(sizes)
    probs = rng.uniform(0.05, 1.0, n)
    probs /= probs.sum()
    atoms = tuple((f"w{i}", float(p)) for i, p in enumerate(probs))
    partition, start = [], 0
    for size in sizes:
        partition.append(tuple(range(start, start + size)))
        start += size
    return FiniteCondSpace(atoms, tuple(partition))


def test_space_validation():
    with pytest.raises(ContractError):
        FiniteCondSpace((), ())
    with pytest.raises(ContractError):
        FiniteCondSpace((("w0", 0.0), ("w1", 1.0)), ((0, 1),))
    with pytest.raises(ContractError):
        FiniteCondSpace((("w0", 0.6), ("w1", 0.6)), ((0, 1),))
    with pytest.raises(ContractError):  # atom in two blocks
        FiniteCondSpace((("w0", 0.5), ("w1", 0.5)), ((0, 1), (1,)))
    with pytest.raises(ContractError):  # uncovered atom
        FiniteCondSpace((("w0", 0.5), ("w1", 0.5)), ((0,),))
    with pytest.raises(ContractError):  # empty block
        FiniteCondSpace((("w0", 1.0),), ((0,), ()))


def test_single_block_helper():
    space = FiniteCondSpace.single_block([0.25, 0.25, 0.5])
    assert space.n_blocks == 1
    assert space.block_mass(0) == pytest.approx(1.0, abs=1e-15)
    assert space.partition == ((0, 1, 2),)


def test_cond_risk_value_validation():
    with pytest.raises(ContractError):
        CondRiskValue(())
    with pytest.raises(ContractError):
        CondRiskValue((1.0, math.nan))


def test_cond_avar_hand_example():
    """Three atoms, lambda 0.4: tail fills 0.3 then 0.1 of the worst."""
    space = FiniteCondSpace.single_block([0.5, 0.3, 0.2])
    x = [4.0, -2.0, 1.0]
    got = cond_avar(space, x, 0.4)
    # -X = (-4, 2, -1); worst 0.3 mass at 2, next 0.1 at -1
    assert got.values[0] == pytest.approx((0.3 * 2.0 + 0.1 * -1.0) / 0.4, abs=1e-14)


def test_cond_avar_two_block_hand_example():
    space = FiniteCondSpace(
        (("w0", 0.25), ("w1", 0.25), ("w2", 0.25), ("w3", 0.25)),
        ((0, 1), (2, 3)),
    )
    got = cond_avar(space, [1.0, 3.0, 0.0, 8.0], 0.5)
    # per block the cap is exactly one atom's conditional mass
    assert got.values == pytest.approx((-1.0, 0.0), abs=1e-14)


def test_cond_avar_lambda_endpoints():
    space = FiniteCondSpace.single_block([0.5, 0.3, 0.2])
    x = np.array([4.0, -2.0, 1.0])
    # lambda = 1: plain expectation of -X
    full = cond_avar(space, x, 1.0)
    assert full.values[0] == pytest.approx(float(np.dot(space.probs, -x)), abs=1e-14)
    # lambda below the smallest atom: worst single outcome
    tiny = cond_avar(space, x, 0.05)
    assert tiny.values[0] == pytest.approx(2.0, abs=1e-14)


def test_cond_avar_monotone_in_lambda():
    space = FiniteCondSpace.single_block([0.2, 0.3, 0.1, 0.4])
    x = [3.0, -1.0, 7.0, 0.5]
    lambdas = [0.05, 0.1, 0.3, 0.6, 1.0]
    vals = [cond_avar(space, x, lam).values[0] for lam in lambdas]
    assert all(a >= b - 1e-14 for a, b in zip(vals, vals[1:]))


def test_cond_avar_rejects_bad_inputs():
    space = FiniteCondSpace.single_block([0.5, 0.5])
    with pytest.raises(ContractError):
        cond_avar(space, [1.0, 2.0], 0.0)
    with pytest.raises(ContractError):
        cond_avar(space, [1.0, 2.0], 1.5)
    with pytest.raises(ContractError):
        cond_avar(space, [1.0], 0.5)
    with pytest.raises(ContractError):
        cond_avar(space, [1.0, math.inf], 0.5)


def test_greedy_matches_vertex_oracle_on_200_instances():
    """Independent LP-vertex enumeration agrees with the greedy fill."""
    rng = np.random.default_rng(8080)
    for _ in range(200):
        space = _random_space(rng)
        x = rng.normal(0.0, 10.0, len(space.atoms))
        lam = float(rng.uniform(0.01, 1.0))
        fast = cond_avar(space, x, lam)
        slow = avar_robust_oracle(space, x, lam)
        for a, b in zip(fast.values, slow.values):
            assert a == pytest.approx(b, abs=1e-9)


def test_oracle_block_limit():
    n = ORACLE_BLOCK_LIMIT + 1
    space = FiniteCondSpace.single_block([1.0 / n] * n)
    with pytest.raises(ResourceError):
        avar_robust_oracle(space, list(range(n)), 0.5)
    # the greedy route has no such limit
    cond_avar(space, list(range(n)), 0.5)


def test_cond_avar_coherence_axioms_1000_pairs():
    """Monotonicity, cash additivity, homogeneity, subadditivity."""
    rng = np.random.default_rng(31337)
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        probs = rng.uniform(0.05, 1.0, n)
        probs /= probs.sum()
        space = FiniteCondSpace.single_block(probs)
        x = rng.normal(0.0, 5.0, n)
        y = rng.normal(0.0, 5.0, n)
        lam = float(rng.uniform(0.05, 1.0))

        rho = lambda v: cond_avar(space, v, lam).values[0]
        # subadditivity
        assert rho(x + y) <= rho(x) + rho(y) + 1e-10
        # positive homogeneity
        t = float(rng.uniform(0.1, 5.0))
        assert rho(t * x) == pytest.approx(t * rho(x), rel=1e-10, abs=1e-12)
        # cash additivity: sure money reduces risk one for one
        m = float(rng.normal(0.0, 3.0))
        assert rho(x + m) == pytest.approx(rho(x) - m, abs=1e-10)
        # monotonicity
        bump = np.abs(rng.normal(0.0, 1.0, n))
        assert rho(x + bump) <= rho(x) + 1e-12


def test_entropic_endpoints():
    """c = 0 gives the mean of -X; saturating c gives its maximum."""
    rng = np.random.default_rng(99)
    for _ in range(50):
        n = int(rng.integers(2, 10))
        probs = rng.uniform(0.05, 1.0, n)
        probs /= probs.sum()
        space = FiniteCondSpace.single_block(probs)
        x = rng.normal(0.0, 5.0, n)
        z = -x
        mean = float(np.dot(probs, z))
        top = float(np.max(z))
        assert entropic_sup(space, x, 0.0).values[0] == pytest.approx(mean, abs=1e-9)
        assert entropic_sup(space, x, 50.0).values[0] == pytest.approx(top, abs=1e-9)


def test_entropic_saturation_with_tied_maxima():
    space = FiniteCondSpace.single_block([0.3, 0.3, 0.4])
    x = [-5.0, -5.0, 0.0]  # -X has two tied maxima carrying mass 0.6
    c_star = -math.log(0.6)
    assert entropic_sup(space, x, c_star + 1e-12).values[0] == pytest.approx(
        5.0, abs=1e-12
    )


def test_entropic_matches_tilt_root_oracle():
    """Independent check: solve the entropy constraint with brentq."""
    rng = np.random.default_rng(4242)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        probs = rng.uniform(0.05, 1.0, n)
        probs /= probs.sum()
        space = FiniteCondSpace.single_block(probs)
        x = rng.normal(0.0, 3.0, n)
        z = -x
        if float(np.ptp(z)) < 1e-6:
            continue
        argmax_mass = float(probs[z >= z.max() - 1e-15].sum())
        c = float(rng.uniform(0.05, 0.95)) * -math.log(argmax_mass)

        def entropy_gap(beta):
            w = probs * np.exp(beta * (z - z.max()))
            norm = w.sum()
            q = w / norm
            mean = float(np.dot(q, z))
            return beta * mean - (math.log(norm) + beta * z.max()) - c

        beta_star = optimize.brentq(entropy_gap, 0.0, 1e6, xtol=1e-12)
        w = probs * np.exp(beta_star * (z - z.max()))
        oracle = float(np.dot(w / w.sum(), z))
        got = entropic_sup(space, x, c).values[0]
        assert got == pytest.approx(oracle, abs=1e-7)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_entropic_matches_constrained_solver():
    """Full-blown SLSQP on the density polytope agrees on small blocks."""
    rng = np.random.default_rng(606)
    for _ in range(10):
        n = 4
        probs = rng.uniform(0.1, 1.0, n)
        probs /= probs.sum()
        space = FiniteCondSpace.single_block(probs)
        x = rng.normal(0.0, 2.0, n)
        z = -x
        c = 0.15

        def neg_value(g):
            return -float(np.dot(probs * g, z))

        cons = [
            {"type": "eq", "fun": lambda g: float(np.dot(probs, g)) - 1.0},
            {
                "type": "ineq",
                "fun": lambda g: c
                - float(np.dot(probs * g, np.log(np.maximum(g, 1e-300)))),
            },
        ]
        res = optimize.minimize(
            neg_value,
            np.ones(n),
            method="SLSQP",
            bounds=[(1e-12, None)] * n,
            constraints=cons,
            options={"maxiter": 500, "ftol": 1e-12},
        )
        assert res.success
        got = entropic_sup(space, x, c).values[0]
        assert got == pytest.approx(-res.fun, abs=1e-6)


def test_entropic_monotone_in_budget():
    space = FiniteCondSpace.single_block([0.4, 0.35, 0.25])
    x = [1.0, -3.0, 0.5]
    budgets = [0.0, 0.01, 0.1, 0.5, 1.0, 5.0]
    vals = [entropic_sup(space, x, c).values[0] for c in budgets]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_entropic_rejects_bad_budget():
    space = FiniteCondSpace.single_block([1.0])
    with pytest.raises(ContractError):
        entropic_sup(space, [1.0], -0.1)
    with pytest.raises(ContractError):
        entropic_sup(space, [1.0], math.inf)


def test_two_step_hand_example():
    space = FiniteCondSpace(
        (("w0", 0.25), ("w1", 0.25), ("w2", 0.25), ("w3", 0.25)),
        ((0, 1), (2, 3)),
    )
    rho = CondRiskValue((2.0, 6.0))
    assert two_step(space, [0.5, 0.5], rho) == pytest.approx(4.0, abs=1e-15)
    assert two_step(space, [1.0, 0.0], rho) == pytest.approx(2.0, abs=1e-15)


def test_two_step_validation():
    space = FiniteCondSpace.single_block([0.5, 0.5])
    rho = CondRiskValue((1.0,))
    with pytest.raises(ContractError):
        two_step(space, [0.5, 0.5], rho)  # too many outer weights
    with pytest.raises(ContractError):
        two_step(space, [0.7], rho)  # doesn't sum to 1
    with pytest.raises(ContractError):
        two_step(space, [1.0], CondRiskValue((1.0, 2.0)))


def test_two_step_with_conditional_expectation_is_tower_rule():
    """lam = 1 inner risk plus matching outer weights = plain expectation."""
    rng = np.random.default_rng(11)
    probs = rng.uniform(0.1, 1.0, 6)
    probs /= probs.sum()
    atoms = tuple((f"w{i}", float(p)) for i, p in enumerate(probs))
    space = FiniteCondSpace(atoms, ((0, 1, 2), (3, 4), (5,)))
    x = rng.normal(0.0, 4.0, 6)
    inner = cond_avar(space, x, 1.0)
    q = np.array([space.block_mass(k) for k in range(space.n_blocks)])
    composed = two_step(space, q, inner)
    assert composed == pytest.approx(float(np.dot(probs, -x)), abs=1e-12)


def test_two_step_on_lattice_claim(market_small, benefit_paper, independence):
    """Cross-module composition: partition paths by their first move."""
    from rifa.hazards import Theta
    from rifa.lattice import enumerate_paths
    from rifa.robust_eval import classical_price, conditional_value

    paths = enumerate_paths(market_small)
    theta = Theta(150.0, 0.025, 0.03, 2e4)
    atoms = tuple((f"p{p.index}", p.q_weight) for p in paths)
    down = tuple(p.index for p in paths if not (p.index & 1))
    up = tuple(p.index for p in paths if p.index & 1)
    space = FiniteCondSpace(atoms, (down, up))
    x = [
        -conditional_value(p, theta, independence, benefit_paper, market_small)
        for p in paths
    ]
    inner = cond_avar(space, x, 1.0)  # conditional expectation of the benefit
    q = np.array([space.block_mass(k) for k in range(2)])
    composed = two_step(space, q, inner)
    direct = classical_price(theta, independence, benefit_paper, market_small)
    assert composed == pytest.approx(direct, abs=1e-12)


_FAMILIES = [
    CopulaSpec("independence"),
    CopulaSpec("clayton", 2.0),
    CopulaSpec("gumbel", 1.8),
    CopulaSpec("frank", -2.0),
]


@pytest.mark.parametrize("spec", _FAMILIES, ids=[c.family for c in _FAMILIES])
def test_qp_evaluation_dominates_two_step_evaluations(
    spec, market_small, benefit_paper, box_paper, optimizer_default
):
    """The robust price bounds every two-step price that agrees on the priors.

    The priors are the distinct per-path optima of ``robust_price`` and 8
    points drawn in the box.  Atom (path p, prior k) has weight q_p / K,
    one block per path, and outcome x = -G(p, prior k).  AVaR at
    lambda = 1/(2K) is each path's largest value over the priors, so it
    meets the robust price exactly; at lambda = 1 it is the mean of the
    priors' single-model prices.  Entropic balls lie in between.
    """
    report = robust_price(box_paper, spec, benefit_paper, market_small, optimizer_default)
    rng = np.random.default_rng(4)
    edges = (box_paper.a, box_paper.b, box_paper.c, box_paper.d)
    drawn = [Theta(*(rng.uniform(lo, hi) for lo, hi in edges)) for _ in range(8)]
    priors = list(dict.fromkeys(opt.theta for opt in report.per_path)) + drawn
    K = len(priors)
    prices, q = path_arrays(market_small)
    G = np.stack(
        [conditional_values(prices, q, t, spec, benefit_paper, market_small) for t in priors],
        axis=1,
    )
    paths = range(len(q))
    atoms = tuple((f"p{p}k{k}", float(q[p]) / K) for p in paths for k in range(K))
    space = FiniteCondSpace(atoms, tuple(tuple(range(p * K, (p + 1) * K)) for p in paths))
    x = -G.ravel()

    def price(rho):
        return two_step(space, q, rho)

    assert price(cond_avar(space, x, 1.0 / (2 * K))) == report.robust_price
    classical = [classical_price(t, spec, benefit_paper, market_small) for t in priors]
    assert price(cond_avar(space, x, 1.0)) == pytest.approx(
        math.fsum(classical) / K, rel=1e-12, abs=0.0
    )
    for c in (0.01, 0.5, 5.0):
        assert price(entropic_sup(space, x, c)) <= report.robust_price
