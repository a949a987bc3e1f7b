"""Robust valuation of finance-linked insurance benefits under model uncertainty.

The package prices benefits whose payout is contingent both on a binomial
market and on policyholder decrement times (death, surrender) whose law is
only known up to a parameter box.  The headline quantity is the worst-case
premium over that box, computed pathwise on the market lattice.  On top of
the pricing core sit an arbitrage detector/constructor, with a lazy
Monte Carlo stream of client pools to verify it, and a batch CLI.
"""

import importlib

from rifa.arbitrage_lab import (
    ArbitragePair,
    PortfolioSample,
    VerificationReport,
    Verdict,
    construct_arbitrage,
    lln_rms,
    nrifa_check,
    portfolio_trials,
    verify_arbitrage,
)
from rifa.benefits import BenefitSpec, discounted_payoffs, guarantee_value
from rifa.copulas import (
    CopulaSpec,
    copula_eval,
    joint_survival,
    sample_pairs,
    surrender_slice_prob,
    survival_transform,
)
from rifa.errors import (
    ConfigurationError,
    ContractError,
    NumericalError,
    ResourceError,
    VerificationError,
)
from rifa.hazards import (
    ParamBox,
    Theta,
    gompertz_cdf,
    surrender_cdf,
)
from rifa.lattice import (
    Claim,
    MarketParams,
    Path,
    binomial_call,
    enumerate_paths,
    risk_neutral_probs,
    strategy_gain,
    superhedge,
)
from rifa.robust_eval import (
    EvaluationReport,
    OptimizerConfig,
    PathOptimum,
    classical_price,
    conditional_value,
    evaluate,
    inf_classical,
    pathwise_esssup,
    robust_price,
    sup_classical,
    sup_classical_batch,
)

__all__ = [
    "ArbitragePair",
    "BenefitSpec",
    "Claim",
    "ConfigurationError",
    "ContractError",
    "CopulaSpec",
    "EvaluationReport",
    "MarketParams",
    "NumericalError",
    "OptimizerConfig",
    "ParamBox",
    "Path",
    "PathOptimum",
    "PortfolioSample",
    "ResourceError",
    "RunConfig",
    "Theta",
    "VerificationError",
    "VerificationReport",
    "Verdict",
    "binomial_call",
    "canonical_json",
    "classical_price",
    "conditional_value",
    "construct_arbitrage",
    "copula_eval",
    "discounted_payoffs",
    "enumerate_paths",
    "evaluate",
    "gompertz_cdf",
    "guarantee_value",
    "inf_classical",
    "joint_survival",
    "lln_rms",
    "main",
    "nrifa_check",
    "parse_config",
    "pathwise_esssup",
    "portfolio_trials",
    "risk_neutral_probs",
    "robust_price",
    "sample_pairs",
    "strategy_gain",
    "sup_classical",
    "sup_classical_batch",
    "superhedge",
    "surrender_cdf",
    "surrender_slice_prob",
    "survival_transform",
    "verify_arbitrage",
]

__version__ = "0.1.0"

_CLI_NAMES = ("RunConfig", "canonical_json", "main", "parse_config")


def __getattr__(name: str):
    # the CLI loads on first use, so that ``python -m rifa.cli`` runs it
    # as __main__ without an imported copy beside it
    if name == "cli" or name in _CLI_NAMES:
        cli = importlib.import_module("rifa.cli")
        return cli if name == "cli" else getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
