"""Copula families: axioms, survival transform, closed forms, samplers."""

import math
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from rifa.copulas import (
    CopulaSpec,
    copula_eval,
    joint_survival,
    sample_pair,
    sample_pairs,
    surrender_slice_prob,
    survival_transform,
)
from rifa.errors import ConfigurationError, ContractError
from rifa.hazards import Theta
from rifa.lattice import enumerate_paths

SPECS = [
    CopulaSpec("independence"),
    CopulaSpec("clayton", 1.0),
    CopulaSpec("clayton", 4.0),
    CopulaSpec("gumbel", 1.0),
    CopulaSpec("gumbel", 2.5),
    CopulaSpec("frank", 3.0),
    CopulaSpec("frank", -3.0),
]

IDS = [f"{s.family}-{s.param}" for s in SPECS]


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        CopulaSpec("gaussian", 0.5)
    with pytest.raises(ConfigurationError):
        CopulaSpec("independence", 0.5)
    with pytest.raises(ConfigurationError):
        CopulaSpec("clayton", -1.0)
    with pytest.raises(ConfigurationError):
        CopulaSpec("clayton", None)
    with pytest.raises(ConfigurationError):
        CopulaSpec("gumbel", 0.9)
    with pytest.raises(ConfigurationError):
        CopulaSpec("frank", 0.0)
    with pytest.raises(ConfigurationError):
        CopulaSpec("frank", math.inf)


def test_is_independence_degeneracies():
    assert CopulaSpec("independence").is_independence
    assert CopulaSpec("gumbel", 1.0).is_independence
    assert CopulaSpec("frank", 1e-9).is_independence
    assert not CopulaSpec("frank", 1e-3).is_independence
    assert not CopulaSpec("clayton", 1e-6).is_independence


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_boundary_axioms_on_grid(spec):
    """Grounded/uniform-margin axioms on a 101-point grid, tol 1e-12."""
    grid = np.linspace(0.0, 1.0, 101)
    for x in grid:
        assert abs(copula_eval(spec, x, 0.0)) <= 1e-12
        assert abs(copula_eval(spec, 0.0, x)) <= 1e-12
        assert abs(copula_eval(spec, x, 1.0) - x) <= 1e-12
        assert abs(copula_eval(spec, 1.0, x) - x) <= 1e-12


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_two_increasing_on_random_rectangles(spec):
    """Rectangle mass nonnegative (within -1e-12) on 2000 random boxes."""
    rng = np.random.default_rng(314)
    lo = rng.uniform(0.0, 1.0, (2000, 2))
    hi = lo + rng.uniform(0.0, 1.0, (2000, 2)) * (1.0 - lo)
    for (u1, v1), (u2, v2) in zip(lo, hi):
        mass = (
            copula_eval(spec, u2, v2)
            - copula_eval(spec, u1, v2)
            - copula_eval(spec, u2, v1)
            + copula_eval(spec, u1, v1)
        )
        assert mass >= -1e-12


def test_clayton_closed_form_value():
    # alpha=1: C(u,v) = uv / (u + v - uv); at (0.5, 0.5) this is 1/3
    spec = CopulaSpec("clayton", 1.0)
    assert copula_eval(spec, 0.5, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-15)
    for u, v in [(0.2, 0.7), (0.9, 0.1), (0.5, 0.25)]:
        assert copula_eval(spec, u, v) == pytest.approx(
            u * v / (u + v - u * v), rel=1e-13
        )


@pytest.mark.parametrize("alpha", [0.5, 2.0, 4.0, 10.0])
def test_clayton_matches_textbook_form(alpha):
    """(u^-a + v^-a - 1)^(-1/a) to 1e-12 relative wherever it stays finite."""
    spec = CopulaSpec("clayton", alpha)
    levels = np.concatenate(
        (np.geomspace(1e-12, 1.0, 25), np.linspace(0.05, 0.95, 19))
    )
    for u in levels:
        for v in levels:
            textbook = (u**-alpha + v**-alpha - 1.0) ** (-1.0 / alpha)
            assert copula_eval(spec, u, v) == pytest.approx(textbook, rel=1e-12)


def test_clayton_tiny_argument_is_finite_limit():
    # u^-4 overflows at u = 5e-324; C(u, v) -> u as u -> 0
    spec = CopulaSpec("clayton", 4.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = copula_eval(spec, 5e-324, 0.5)
        assert copula_eval(spec, 0.5, 5e-324) == value
    assert math.isfinite(value)
    assert value == 5e-324


def test_frank_symmetric_and_sign():
    pos = CopulaSpec("frank", 3.0)
    neg = CopulaSpec("frank", -3.0)
    indep = CopulaSpec("independence")
    for u, v in [(0.3, 0.6), (0.8, 0.2)]:
        assert copula_eval(pos, u, v) == pytest.approx(copula_eval(pos, v, u), abs=1e-15)
        # positive dependence raises C above uv, negative pushes it below
        assert copula_eval(pos, u, v) > copula_eval(indep, u, v)
        assert copula_eval(neg, u, v) < copula_eval(indep, u, v)


def test_gumbel_at_one_is_product():
    spec = CopulaSpec("gumbel", 1.0)
    rng = np.random.default_rng(1)
    for u, v in rng.uniform(0.0, 1.0, (50, 2)):
        assert copula_eval(spec, u, v) == pytest.approx(u * v, abs=1e-14)


def test_copula_eval_rejects_out_of_range():
    spec = CopulaSpec("independence")
    with pytest.raises(ContractError):
        copula_eval(spec, -0.1, 0.5)
    with pytest.raises(ContractError):
        copula_eval(spec, 0.5, 1.1)


def test_survival_transform_independence_is_product():
    """Product factorisation of joint survival, tol 1e-15."""
    spec = CopulaSpec("independence")
    grid = np.linspace(0.0, 1.0, 51)
    for ub in grid:
        for vb in grid:
            assert abs(survival_transform(spec, ub, vb) - ub * vb) <= 1e-15


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_survival_transform_axioms(spec):
    """The survival transform is itself a copula: check its margins."""
    for x in np.linspace(0.0, 1.0, 21):
        assert survival_transform(spec, x, 1.0) == pytest.approx(x, abs=1e-12)
        assert survival_transform(spec, 1.0, x) == pytest.approx(x, abs=1e-12)
        assert abs(survival_transform(spec, x, 0.0)) <= 1e-12
        assert abs(survival_transform(spec, 0.0, x)) <= 1e-12


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_survival_transform_consistency(spec):
    """C_hat(ubar, vbar) = ubar + vbar - 1 + C(1-ubar, 1-vbar)."""
    rng = np.random.default_rng(9)
    for ub, vb in rng.uniform(0.0, 1.0, (200, 2)):
        direct = survival_transform(spec, ub, vb)
        via_c = ub + vb - 1.0 + copula_eval(spec, 1.0 - ub, 1.0 - vb)
        assert direct == pytest.approx(via_c, abs=5e-15)


def test_joint_survival_reduces_to_marginals(market_small, independence):
    from rifa.hazards import gompertz_cdf, surrender_cdf

    theta = Theta(a=120.0, b=0.02, c=0.01, d=1e4)
    path = enumerate_paths(market_small)[0b0110]
    for s in range(5):
        for t in range(5):
            expect = (1.0 - gompertz_cdf(theta, s)) * (
                1.0 - surrender_cdf(path, theta, t)
            )
            assert joint_survival(path, theta, independence, s, t) == pytest.approx(
                expect, abs=1e-15
            )


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_surrender_slices_telescope(spec, market_small):
    """Slices at fixed t sum against the survival terms they came from."""
    theta = Theta(a=120.0, b=0.02, c=0.01, d=1e4)
    path = enumerate_paths(market_small)[0b1010]
    T = market_small.T
    for t in range(1, T):
        s_prev = joint_survival(path, theta, spec, t, t - 1)
        s_now = joint_survival(path, theta, spec, t, t)
        assert surrender_slice_prob(path, theta, spec, t) == pytest.approx(
            s_prev - s_now, abs=1e-14
        )
        assert surrender_slice_prob(path, theta, spec, t) >= 0.0


def test_slice_prob_with_surrender_disabled(market_small, independence):
    theta = Theta(a=120.0, b=0.02, c=0.01, d=1e4)
    path = enumerate_paths(market_small)[0]
    for t in range(1, market_small.T):
        assert surrender_slice_prob(
            path, theta, independence, t, surrender_enabled=False
        ) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_sampler_uniform_marginals_ks(spec):
    """KS test on both marginals at the 1% level with 10^6 draws."""
    rng = np.random.default_rng(20240817)
    u, v = sample_pairs(spec, 1_000_000, rng)
    for name, sample in (("u", u), ("v", v)):
        stat, pvalue = stats.kstest(sample, "uniform")
        assert pvalue > 0.01, f"{spec.family} marginal {name}: KS p={pvalue}"


@pytest.mark.parametrize(
    "spec,sign",
    [
        (CopulaSpec("clayton", 4.0), 1),
        (CopulaSpec("gumbel", 2.5), 1),
        (CopulaSpec("frank", 5.0), 1),
        (CopulaSpec("frank", -5.0), -1),
    ],
    ids=["clayton", "gumbel", "frank+", "frank-"],
)
def test_sampler_dependence_sign(spec, sign):
    rng = np.random.default_rng(77)
    u, v = sample_pairs(spec, 50_000, rng)
    corr = float(np.corrcoef(u, v)[0, 1])
    assert sign * corr > 0.2


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_sampler_matches_copula_cdf(spec):
    """Empirical P(U<=u, V<=v) tracks C(u, v) at interior checkpoints."""
    # distinct stream per family so one unlucky draw block cannot fail all
    seed = [5150, zlib.crc32(f"{spec.family}:{spec.param}".encode())]
    rng = np.random.default_rng(seed)
    n = 200_000
    u, v = sample_pairs(spec, n, rng)
    for uq, vq in [(0.25, 0.25), (0.5, 0.5), (0.75, 0.4)]:
        emp = float(np.mean((u <= uq) & (v <= vq)))
        exact = copula_eval(spec, uq, vq)
        # binomial four-sigma band
        band = 4.0 * math.sqrt(exact * (1.0 - exact) / n)
        assert abs(emp - exact) <= band


def test_sample_pair_scalar_wrapper(independence):
    rng = np.random.default_rng(3)
    u, v = sample_pair(independence, rng)
    assert 0.0 <= u <= 1.0 and 0.0 <= v <= 1.0


def test_sampler_is_deterministic():
    spec = CopulaSpec("gumbel", 2.0)
    a = sample_pairs(spec, 1000, np.random.default_rng(42))
    b = sample_pairs(spec, 1000, np.random.default_rng(42))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


@settings(max_examples=60, deadline=None)
@given(
    u1=st.floats(min_value=0.0, max_value=1.0),
    u2=st.floats(min_value=0.0, max_value=1.0),
    v1=st.floats(min_value=0.0, max_value=1.0),
    v2=st.floats(min_value=0.0, max_value=1.0),
    idx=st.integers(min_value=0, max_value=len(SPECS) - 1),
)
def test_rectangle_mass_property(u1, u2, v1, v2, idx):
    spec = SPECS[idx]
    ua, ub = sorted((u1, u2))
    va, vb = sorted((v1, v2))
    mass = (
        copula_eval(spec, ub, vb)
        - copula_eval(spec, ua, vb)
        - copula_eval(spec, ub, va)
        + copula_eval(spec, ua, va)
    )
    assert mass >= -1e-12
