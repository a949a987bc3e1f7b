"""Shared fixtures: small reference configurations and the bundled one."""

import json
import pathlib

import pytest

from rifa.benefits import BenefitSpec
from rifa.copulas import CopulaSpec
from rifa.hazards import ParamBox
from rifa.lattice import MarketParams
from rifa.robust_eval import OptimizerConfig

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
PAPER_CFG = REPO_ROOT / "paper.cfg"


@pytest.fixture(scope="session")
def market_small():
    return MarketParams(s0=100.0, u=0.1, v=-0.1, r=0.05, T=4)


@pytest.fixture(scope="session")
def market_paper():
    return MarketParams(s0=100.0, u=0.1, v=-0.1, r=0.05, T=8)


@pytest.fixture(scope="session")
def benefit_paper():
    return BenefitSpec(K=100.0, r_G=0.01, l=0.1, surrender=True)


@pytest.fixture(scope="session")
def independence():
    return CopulaSpec("independence")


@pytest.fixture(scope="session")
def box_paper():
    return ParamBox(a=(50.0, 340.0), b=(0.02, 0.03), c=(0.01, 0.05), d=(1e4, 1e5))


@pytest.fixture(scope="session")
def optimizer_default():
    return OptimizerConfig()


@pytest.fixture(scope="session")
def optimizer_fast():
    # cheap settings for small lattices in module-level tests
    return OptimizerConfig(method="nelder_mead", multistarts=3, grid_points_per_dim=16)


@pytest.fixture
def write_config(tmp_path):
    """Write a config dict as JSON and return its path."""

    def _write(doc, name="run.cfg"):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    return _write


@pytest.fixture
def base_config_doc():
    """A small, fast, valid configuration document (T=4)."""
    return {
        "market": {"s0": 100.0, "u": 0.1, "v": -0.1, "r": 0.05, "T": 4},
        "benefit": {"K": 100.0, "r_G": 0.01, "l": 0.1, "surrender": True},
        "theta_box": {
            "a": [50.0, 340.0],
            "b": [0.02, 0.03],
            "c": [0.01, 0.05],
            "d": [1e4, 1e5],
        },
        "copula": {"family": "independence", "param": None},
        "optimizer": {
            "method": "nelder_mead",
            "multistarts": 3,
            "tolerance": 1e-8,
            "max_iters": 500,
            "grid_points": 16,
        },
        "premium": 90.0,
        "seed": 1,
    }
