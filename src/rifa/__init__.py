"""Robust valuation of finance-linked insurance benefits under model uncertainty.

The package prices benefits whose payout is contingent both on a binomial
market and on policyholder decrement times (death, surrender) whose law is
only known up to a parameter box.  The headline quantity is the worst-case
premium over that box, computed pathwise on the market lattice.  On top of
the pricing core sit risk-measure utilities on finite conditional spaces,
an arbitrage detector/constructor, and a batch CLI.
"""

from rifa.arbitrage_lab import (
    ArbitragePair,
    PortfolioSample,
    VerificationReport,
    Verdict,
    construct_arbitrage,
    lln_rms,
    nrifa_check,
    simulate_portfolio,
    verify_arbitrage,
)
from rifa.benefits import BenefitSpec, discounted_payoffs, guarantee_value
from rifa.cli import RunConfig, canonical_json, main, parse_config
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
from rifa.risk_measures import (
    CondRiskValue,
    FiniteCondSpace,
    avar_robust_oracle,
    cond_avar,
    entropic_sup,
    two_step,
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
    "CondRiskValue",
    "ConfigurationError",
    "ContractError",
    "CopulaSpec",
    "EvaluationReport",
    "FiniteCondSpace",
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
    "avar_robust_oracle",
    "binomial_call",
    "canonical_json",
    "classical_price",
    "cond_avar",
    "conditional_value",
    "construct_arbitrage",
    "copula_eval",
    "discounted_payoffs",
    "entropic_sup",
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
    "risk_neutral_probs",
    "robust_price",
    "sample_pairs",
    "simulate_portfolio",
    "strategy_gain",
    "sup_classical",
    "sup_classical_batch",
    "superhedge",
    "surrender_cdf",
    "surrender_slice_prob",
    "survival_transform",
    "two_step",
    "verify_arbitrage",
]

__version__ = "0.1.0"
