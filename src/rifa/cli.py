"""Batch command-line front end.

Four subcommands drive the engine from a JSON configuration file:

* ``price``     robust and classical prices with per-path statistics
* ``sweep``     CSV of classical supremum prices along one parameter axis
* ``check``     no-arbitrage verdict for the configured premium
* ``simulate``  CSV of law-of-large-numbers diagnostics for client pools

Output is buffered and written only on success, so downstream pipelines
never see a truncated document.  Exit codes: 0 success, 2 invalid
configuration, 3 numerical failure, 10 arbitrage found by ``check``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .benefits import BenefitSpec
from .copulas import CopulaSpec
from .errors import (
    ConfigurationError,
    ContractError,
    NumericalError,
    ResourceError,
)
from .hazards import ParamBox, Theta
from .lattice import MarketParams, _is_int, _real
from .arbitrage_lab import lln_rms, nrifa_check, portfolio_trials
from .robust_eval import OptimizerConfig, evaluate, sup_classical_batch

__all__ = [
    "RunConfig",
    "parse_config",
    "canonical_json",
    "main",
]

SWEEP_AXES = ("a", "b", "c", "d", "l", "K", "r_G")

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_NUMERICAL = 3
_EXIT_RIFA = 10


@dataclass(frozen=True, slots=True)
class RunConfig:
    """One batch run: market, contract, model box, and search settings."""

    market: MarketParams
    benefit: BenefitSpec
    theta_box: ParamBox
    copula: CopulaSpec
    optimizer: OptimizerConfig
    premium: float | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.premium is not None:
            object.__setattr__(self, "premium", _real("premium", self.premium))
            if not (math.isfinite(self.premium) and self.premium >= 0.0):
                raise ConfigurationError(f"premium must be >= 0, got {self.premium}")
        if self.seed is not None:
            if not (_is_int(self.seed) and self.seed >= 0):
                raise ConfigurationError(
                    f"seed must be a nonnegative integer, got {self.seed!r}"
                )
            object.__setattr__(self, "seed", int(self.seed))


# config keys named differently from their dataclass fields
_CONFIG_KEYS = {"grid_points_per_dim": "grid_points"}


def _section(doc: dict, name: str, cls):
    """Build dataclass ``cls`` from config section ``name``, one key per field."""
    if name not in doc:
        raise ConfigurationError(f"missing config section {name!r}")
    section = doc[name]
    if not isinstance(section, dict):
        raise ConfigurationError(f"section {name!r} must be an object")
    keys = {_CONFIG_KEYS.get(f.name, f.name): f for f in fields(cls)}
    unknown = set(section) - set(keys)
    if unknown:
        raise ConfigurationError(f"unknown keys in {name!r}: {sorted(unknown)}")
    # every key is required unless its field defaults to None
    missing = {key for key, f in keys.items() if f.default is not None} - set(section)
    if missing:
        raise ConfigurationError(f"missing keys in {name!r}: {sorted(missing)}")
    try:
        return cls(**{keys[key].name: value for key, value in section.items()})
    except ConfigurationError as exc:
        message = str(exc)
        for field, key in _CONFIG_KEYS.items():
            message = message.replace(field, key)
        raise ConfigurationError(f"{name}: {message}") from None


def parse_config(path: str) -> RunConfig:
    """Read and validate a JSON run configuration."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path!r}: {exc}") from exc
    except ValueError as exc:  # bad JSON, bad UTF-8, or an integer past 4300 digits
        raise ConfigurationError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigurationError("config root must be an object")
    unknown = set(doc) - {f.name for f in fields(RunConfig)}
    if unknown:
        raise ConfigurationError(f"unknown top-level keys: {sorted(unknown)}")
    return RunConfig(
        market=_section(doc, "market", MarketParams),
        benefit=_section(doc, "benefit", BenefitSpec),
        theta_box=_section(doc, "theta_box", ParamBox),
        copula=_section(doc, "copula", CopulaSpec),
        optimizer=(
            _section(doc, "optimizer", OptimizerConfig)
            if "optimizer" in doc
            else OptimizerConfig()
        ),
        premium=doc.get("premium"),
        seed=doc.get("seed"),
    )


def canonical_json(config: RunConfig) -> str:
    """Serialize a RunConfig so that re-parsing reproduces it exactly."""
    sections = ("market", "benefit", "theta_box", "copula", "optimizer")
    doc = {}
    for name in sections:
        section = asdict(getattr(config, name))
        doc[name] = {_CONFIG_KEYS.get(k, k): v for k, v in section.items()}
    if config.premium is not None:
        doc["premium"] = config.premium
    if config.seed is not None:
        doc["seed"] = config.seed
    # json writes the theta_box interval tuples as lists
    return json.dumps(doc, indent=2) + "\n"


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _mean(values: list[float]) -> float:
    """fsum(values) / len(values), also where that sum overflows a float.

    Scaled by a power of two s <= 1/n, the sum stays finite, and it takes
    the same bits, times s, wherever both sums are normal.
    """
    try:
        return math.fsum(values) / len(values)
    except OverflowError:
        s = 2.0 ** -(len(values) - 1).bit_length()
        return math.fsum(v * s for v in values) / len(values) / s


def _fmt_theta(theta: Theta) -> str:
    return (
        f"a={_fmt(theta.a)} b={_fmt(theta.b)} c={_fmt(theta.c)} d={_fmt(theta.d)}"
    )


def _cmd_price(args) -> tuple[str, int]:
    config = parse_config(args.config)
    if args.echo_config:
        return canonical_json(config), _EXIT_OK
    report = evaluate(
        config.theta_box,
        config.copula,
        config.benefit,
        config.market,
        config.optimizer,
    )
    values = [opt.value for opt in report.per_path]
    lines = [
        f"robust_price = {_fmt(report.robust_price)}",
        f"sup_classical = {_fmt(report.sup_classical)}",
        f"delta = {_fmt(report.delta)}",
        f"argmax_outer = {_fmt_theta(report.argmax_outer)}",
        f"per_path_count = {len(values)}",
        f"per_path_min = {_fmt(min(values))}",
        f"per_path_max = {_fmt(max(values))}",
        f"per_path_mean = {_fmt(_mean(values))}",
    ]
    return "\n".join(lines) + "\n", _EXIT_OK


def _swept_configs(config: RunConfig, axis: str, value: float):
    """Collapse a box axis to the sweep point, or replace a benefit term."""
    if axis in ("a", "b", "c", "d"):
        return replace(config.theta_box, **{axis: (value, value)}), config.benefit
    return config.theta_box, replace(config.benefit, **{axis: value})


def _cmd_sweep(args) -> tuple[str, int]:
    config = parse_config(args.config)
    if not (math.isfinite(args.lo) and math.isfinite(args.hi) and args.lo <= args.hi):
        raise ConfigurationError(f"need lo <= hi, got [{args.lo}, {args.hi}]")
    if args.steps < 1:
        raise ConfigurationError(f"steps must be >= 1, got {args.steps}")
    grid = np.linspace(args.lo, args.hi, args.steps).tolist()
    boxes, benefits = zip(*(_swept_configs(config, args.axis, value) for value in grid))
    optima = sup_classical_batch(
        boxes, benefits, config.copula, config.market, config.optimizer
    )
    rows = ["axis_value,price"]
    rows += [f"{_fmt(value)},{_fmt(price)}" for value, (price, _) in zip(grid, optima)]
    return "\n".join(rows) + "\n", _EXIT_OK


def _cmd_check(args) -> tuple[str, int]:
    config = parse_config(args.config)
    if config.premium is None:
        raise ConfigurationError("check requires a premium in the config")
    report = evaluate(
        config.theta_box,
        config.copula,
        config.benefit,
        config.market,
        config.optimizer,
    )
    verdict = nrifa_check(
        config.premium,
        report,
        config.theta_box,
        config.copula,
        config.benefit,
        config.market,
        config.optimizer,
    )
    lines = [
        f"status = {verdict.status}",
        f"premium = {_fmt(verdict.premium)}",
        f"robust_price = {_fmt(verdict.robust_price)}",
        f"inf_classical = {_fmt(verdict.inf_classical)}",
        f"margin_i = {_fmt(verdict.margin_i)}",
        f"margin_ii = {_fmt(verdict.margin_ii)}",
        f"boundary_case = {str(verdict.boundary_case).lower()}",
    ]
    if verdict.theta_prime is not None:
        lines.append(f"theta_prime = {_fmt_theta(verdict.theta_prime)}")
    code = _EXIT_OK if verdict.is_nrifa else _EXIT_RIFA
    return "\n".join(lines) + "\n", code


def _decade_schedule(n_max: int) -> list[int]:
    if n_max < 100:
        return [n_max]
    sched = []
    n = 100
    while n < n_max:
        sched.append(n)
        n *= 10
    sched.append(n_max)
    return sched


def _cmd_simulate(args) -> tuple[str, int]:
    config = parse_config(args.config)
    if config.premium is None:
        raise ConfigurationError("simulate requires a premium in the config")
    if config.seed is None:
        raise ConfigurationError("simulate requires a seed in the config")
    if args.n_max < 1:
        raise ConfigurationError(f"--n-max must be >= 1, got {args.n_max}")
    if args.trials < 1:
        raise ConfigurationError(f"--trials must be >= 1, got {args.trials}")
    box = asdict(config.theta_box)
    theta = Theta(**{name: 0.5 * (lo + hi) for name, (lo, hi) in box.items()})
    sched = _decade_schedule(args.n_max)
    # trials are read as drawn and none is kept: memory does not grow with --trials
    rms, mean_v = lln_rms(portfolio_trials(
        theta, config.copula, config.benefit, config.market, sched, args.trials,
        config.seed, config.premium,
    ))
    rows = ["n,rms_error,mean_V"]
    for n, r, m in zip(sched, rms, mean_v):
        rows.append(f"{n},{_fmt(float(r))},{_fmt(float(m))}")
    return "\n".join(rows) + "\n", _EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rifa",
        description="Robust valuation and arbitrage checks for "
        "finance-linked insurance benefits on a binomial market.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_price = sub.add_parser("price", help="robust and classical prices")
    p_price.add_argument("--config", required=True, help="JSON config path")
    p_price.add_argument(
        "--echo-config",
        action="store_true",
        help="print the parsed config as canonical JSON and exit",
    )

    p_sweep = sub.add_parser("sweep", help="CSV price sweep along one axis")
    p_sweep.add_argument("--config", required=True, help="JSON config path")
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sweep.add_argument("--lo", required=True, type=float)
    p_sweep.add_argument("--hi", required=True, type=float)
    p_sweep.add_argument("--steps", required=True, type=int)

    p_check = sub.add_parser("check", help="no-arbitrage verdict")
    p_check.add_argument("--config", required=True, help="JSON config path")

    p_sim = sub.add_parser("simulate", help="CSV of pool convergence diagnostics")
    p_sim.add_argument("--config", required=True, help="JSON config path")
    p_sim.add_argument("--n-max", type=int, default=100000, dest="n_max")
    p_sim.add_argument("--trials", type=int, default=200)

    return parser


_DISPATCH = {
    "price": _cmd_price,
    "sweep": _cmd_sweep,
    "check": _cmd_check,
    "simulate": _cmd_simulate,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        output, code = _DISPATCH[args.command](args)
    except (ConfigurationError, ContractError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return _EXIT_CONFIG
    except (NumericalError, ResourceError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return _EXIT_NUMERICAL
    sys.stdout.write(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
