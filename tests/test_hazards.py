"""Decrement models: parameter validation, CDF shapes, predictability."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rifa.errors import ConfigurationError, ContractError
from rifa.hazards import ParamBox, Theta, gompertz_cdf, surrender_cdf
from rifa.lattice import enumerate_paths


def test_theta_validation():
    Theta(a=0.0, b=1e-300, c=1e-300, d=1e-300)  # boundary-adjacent but legal
    with pytest.raises(ConfigurationError):
        Theta(a=-0.1, b=0.02, c=0.01, d=1e4)
    with pytest.raises(ConfigurationError):
        Theta(a=100.0, b=0.0, c=0.01, d=1e4)
    with pytest.raises(ConfigurationError):
        Theta(a=100.0, b=0.02, c=0.0, d=1e4)
    with pytest.raises(ConfigurationError):
        Theta(a=100.0, b=0.02, c=0.01, d=0.0)
    good = {"a": 100.0, "b": 0.02, "c": 0.01, "d": 1e4}
    for field in good:
        for bad in (math.nan, math.inf):
            with pytest.raises(ConfigurationError):
                Theta(**{**good, field: bad})


def test_param_box_validation(box_paper):
    assert box_paper.corner_low() == Theta(50.0, 0.02, 0.01, 1e4)
    assert box_paper.corner_high() == Theta(340.0, 0.03, 0.05, 1e5)
    with pytest.raises(ConfigurationError):
        ParamBox(a=(340.0, 50.0), b=(0.02, 0.03), c=(0.01, 0.05), d=(1e4, 1e5))
    with pytest.raises(ConfigurationError):
        ParamBox(a=(50.0, 340.0), b=(-0.1, 0.03), c=(0.01, 0.05), d=(1e4, 1e5))
    # singleton intervals are fine
    pt = ParamBox(a=(100.0, 100.0), b=(0.02, 0.02), c=(0.01, 0.01), d=(1e4, 1e4))
    assert pt.corner_low() == pt.corner_high()
    # an interval is a pair; a list or a 1-D array of two is one
    rest = {"b": (0.02, 0.03), "c": (0.01, 0.05), "d": (1e4, 1e5)}
    assert ParamBox(a=[50.0, 340.0], **rest) == box_paper
    assert ParamBox(a=np.array([50.0, 340.0]), **rest) == box_paper
    for bad in ((50.0,), (50.0, 100.0, 340.0), 50.0, None, np.array(50.0)):
        with pytest.raises(ConfigurationError, match="a must be an interval"):
            ParamBox(a=bad, **rest)


def test_param_box_contains(box_paper):
    assert box_paper.contains(Theta(200.0, 0.025, 0.03, 5e4))
    assert box_paper.contains(box_paper.corner_low())
    assert not box_paper.contains(Theta(341.0, 0.025, 0.03, 5e4))
    assert box_paper.contains(Theta(340.0 + 1e-10, 0.025, 0.03, 5e4), tol=1e-9)


def test_gompertz_cdf_hand_value():
    theta = Theta(a=100.0, b=0.02, c=0.01, d=1e4)
    # t=2: load = b*(1 + e^c)
    load = 0.02 * (1.0 + math.exp(0.01))
    assert gompertz_cdf(theta, 2) == pytest.approx(1.0 - math.exp(-load), rel=1e-14)
    assert gompertz_cdf(theta, 0) == 0.0
    with pytest.raises(ContractError):
        gompertz_cdf(theta, -1)


def test_gompertz_cdf_monotone_in_time_and_params():
    base = Theta(a=100.0, b=0.02, c=0.01, d=1e4)
    vals = [gompertz_cdf(base, t) for t in range(10)]
    assert all(lo <= hi for lo, hi in zip(vals, vals[1:]))
    assert all(0.0 <= v < 1.0 for v in vals)
    bigger_b = Theta(a=100.0, b=0.03, c=0.01, d=1e4)
    bigger_c = Theta(a=100.0, b=0.02, c=0.05, d=1e4)
    for t in range(1, 10):
        assert gompertz_cdf(bigger_b, t) > gompertz_cdf(base, t)
    # the growth rate only enters from the second step onward
    assert gompertz_cdf(bigger_c, 1) == gompertz_cdf(base, 1)
    for t in range(2, 10):
        assert gompertz_cdf(bigger_c, t) > gompertz_cdf(base, t)


def test_surrender_cdf_hand_value(market_small):
    path = enumerate_paths(market_small)[0b0101]
    theta = Theta(a=100.0, b=0.02, c=0.01, d=1e4)
    t = 3
    load = sum((theta.a - s) ** 2 for s in path.prices[:3]) / theta.d
    assert surrender_cdf(path, theta, t) == pytest.approx(
        1.0 - math.exp(-load), rel=1e-14
    )
    assert surrender_cdf(path, theta, 0) == 0.0


def test_surrender_cdf_disabled(market_small):
    theta = Theta(a=100.0, b=0.02, c=0.01, d=1e4)
    for path in enumerate_paths(market_small):
        for t in range(market_small.T + 1):
            assert surrender_cdf(path, theta, t, enabled=False) == 0.0


def test_surrender_cdf_is_predictable(market_small):
    """F2(t) must depend only on prices strictly before t."""
    theta = Theta(a=100.0, b=0.02, c=0.01, d=1e4)
    paths = enumerate_paths(market_small)
    # 0b0001 and 0b1001 share prices S_0..S_2 (first three moves differ at step 4)
    pa, pb = paths[0b0001], paths[0b0101]
    assert pa.prices[:2] == pb.prices[:2]
    for t in range(3):
        assert surrender_cdf(pa, theta, t) == surrender_cdf(pb, theta, t)


def test_surrender_cdf_monotone_in_d(market_small):
    """Larger dispersion scale weakens the surrender hazard."""
    path = enumerate_paths(market_small)[0]
    tight = Theta(a=150.0, b=0.02, c=0.01, d=1e3)
    loose = Theta(a=150.0, b=0.02, c=0.01, d=1e5)
    for t in range(1, market_small.T + 1):
        assert surrender_cdf(path, tight, t) > surrender_cdf(path, loose, t)


def test_surrender_cdf_bounds_check(market_small):
    theta = Theta(a=100.0, b=0.02, c=0.01, d=1e4)
    path = enumerate_paths(market_small)[0]
    with pytest.raises(ContractError):
        surrender_cdf(path, theta, market_small.T + 1)
    with pytest.raises(ContractError):
        surrender_cdf(path, theta, -1)


def test_cdfs_are_one_where_the_load_passes_the_float_range(market_small):
    """exp(c*s) and (a - S_s)**2 overflow: the decrement is certain, F = 1.

    Both raised OverflowError; finite loads keep their values.
    """
    path = enumerate_paths(market_small)[0]
    fast = Theta(a=1e160, b=0.02, c=102.0, d=1e4)
    # exp(102 * 7) overflows from t = 8 on
    assert [gompertz_cdf(fast, t) for t in (8, 9, 20)] == [1.0] * 3
    assert [surrender_cdf(path, fast, t) for t in range(5)] == [0.0] + [1.0] * 4
    assert surrender_cdf(path, fast, 4, enabled=False) == 0.0
    # finite loads: the same arithmetic as before, so the same values
    slow = Theta(a=120.0, b=0.02, c=0.01, d=1e4)
    load = 0.02 * sum(math.exp(0.01 * s) for s in range(4))
    assert gompertz_cdf(slow, 4) == -math.expm1(-load)
    load = sum((120.0 - s) ** 2 for s in path.prices[:4]) / 1e4
    assert surrender_cdf(path, slow, 4) == -math.expm1(-load)


def test_gompertz_is_a_cox_model():
    """The Gompertz CDF is the Cox form 1 - exp(-Lambda_t) of its loads."""
    theta = Theta(a=100.0, b=0.02, c=0.03, d=1e4)
    T = 8
    lams = [0.0]
    for t in range(T):
        lams.append(lams[-1] + theta.b * math.exp(theta.c * t))
    for t, lam in enumerate(lams):
        assert gompertz_cdf(theta, t) == pytest.approx(-math.expm1(-lam), rel=1e-13)


@settings(max_examples=60, deadline=None)
@given(
    b=st.floats(min_value=1e-4, max_value=0.5),
    c=st.floats(min_value=1e-4, max_value=0.5),
    t=st.integers(min_value=0, max_value=12),
)
def test_gompertz_cdf_in_unit_interval(b, c, t):
    theta = Theta(a=100.0, b=b, c=c, d=1e4)
    v = gompertz_cdf(theta, t)
    # huge accumulated loads round to 1.0 in float, so the bound is closed
    assert 0.0 <= v <= 1.0
    if t > 0:
        assert v > 0.0
