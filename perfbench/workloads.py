"""The four benchmark workloads: their inputs, one operation each, and the checks.

Every workload is built from ``paper.cfg`` in this directory (a frozen copy
of the flagship configuration).  ``prepare`` writes the workload's config
into the run's work directory and returns it together with a zero-argument
operation.  An operation drives ``rifa`` exactly as a user would and returns
an ``Outcome``: the text it printed (or a canonical dump of the API results),
its exit code, its headline numbers and its labels (statuses and other exact
values).

``rifa`` is imported inside the functions, after ``run.py`` has put the
checkout's ``src`` first on ``sys.path``.  Operations look every ``rifa``
function up on its module at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# headline numbers must match the reference to this relative tolerance
REL_TOL = 1e-9

# the seed whose outputs reference.json records
RECORDED_SEED = 1


@dataclass(frozen=True)
class Outcome:
    """What one operation produced, in the form the checks compare."""

    text: str
    exit_code: int
    numbers: dict[str, float]
    labels: dict[str, object]


@dataclass(frozen=True)
class Workload:
    """One workload: how to build its operation and what must hold of it.

    Why each workload exists is recorded in BENCHMARK.json and README.md.

    seeded: name prefixes of headline numbers and labels that depend on the
            benchmark seed; they are compared with the reference only on
            the recorded seed.
    invariants: checks that hold on every seed.
    """

    name: str
    prepare: Callable[[dict, Path, int], tuple[Path, Callable[[], Outcome]]]
    invariants: Callable[[Outcome], list[str]]
    seeded: tuple[str, ...] = ()

    def is_seeded(self, key: str) -> bool:
        return key.startswith(self.seeded)


def load_base_config(bench_dir: Path) -> dict:
    with open(bench_dir / "paper.cfg", encoding="utf-8") as fh:
        return json.load(fh)


def write_config(workdir: Path, name: str, doc: dict) -> Path:
    path = workdir / f"{name}.cfg"
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path


def _run_cli(argv: list[str]) -> tuple[int, str]:
    from rifa import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _csv_rows(text: str) -> tuple[str, list[list[str]]]:
    lines = text.splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


# --- price_flagship -----------------------------------------------------


def _parse_price(text: str) -> dict[str, float]:
    numbers = {}
    for line in text.splitlines():
        key, _, value = line.partition(" = ")
        if "=" in value:  # a parameter point: "a=340 b=0.02 c=0.01 d=10000"
            for part in value.split():
                field, _, v = part.partition("=")
                numbers[f"{key}.{field}"] = float(v)
        else:
            numbers[key] = float(value)
    return numbers


def _prepare_price(base: dict, workdir: Path, seed: int):
    cfg = write_config(workdir, "price_flagship", base)
    argv = ["price", "--config", str(cfg)]

    def op() -> Outcome:
        code, text = _run_cli(argv)
        return Outcome(text, code, _parse_price(text), {})

    return cfg, op


# --- sweep_classical ----------------------------------------------------

SWEEP_ARGS = ["--axis", "a", "--lo", "50", "--hi", "350", "--steps", "31"]


def _prepare_sweep(base: dict, workdir: Path, seed: int):
    cfg = write_config(workdir, "sweep_classical", base)
    argv = ["sweep", "--config", str(cfg), *SWEEP_ARGS]

    def op() -> Outcome:
        code, text = _run_cli(argv)
        header, rows = _csv_rows(text)
        numbers = {}
        for i, (x, price) in enumerate(rows):
            numbers[f"axis_value[{i}]"] = float(x)
            numbers[f"price[{i}]"] = float(price)
        return Outcome(text, code, numbers, {"header": header})

    return cfg, op


# --- simulate_pool ------------------------------------------------------

SIMULATE_ARGS = ["--n-max", "100000", "--trials", "200"]
SIMULATE_SCHEDULE = [100, 1000, 10000, 100000]


def _prepare_simulate(base: dict, workdir: Path, seed: int):
    doc = copy.deepcopy(base)
    doc["seed"] = seed
    cfg = write_config(workdir, "simulate_pool", doc)
    argv = ["simulate", "--config", str(cfg), *SIMULATE_ARGS]

    def op() -> Outcome:
        code, text = _run_cli(argv)
        header, rows = _csv_rows(text)
        numbers = {}
        for n, rms, mean_v in rows:
            numbers[f"rms_error[{n}]"] = float(rms)
            numbers[f"mean_V[{n}]"] = float(mean_v)
        labels = {"header": header, "n": [int(row[0]) for row in rows]}
        return Outcome(text, code, numbers, labels)

    return cfg, op


def _simulate_invariants(out: Outcome) -> list[str]:
    if out.labels.get("n") != SIMULATE_SCHEDULE:
        return [f"pool sizes {out.labels.get('n')} != {SIMULATE_SCHEDULE}"]
    rms = [out.numbers[f"rms_error[{n}]"] for n in SIMULATE_SCHEDULE]
    if not all(math.isfinite(x) for x in rms):
        return [f"non-finite rms_error {rms}"]
    if any(later >= earlier for earlier, later in zip(rms, rms[1:])):
        return [f"rms_error does not fall as n grows: {rms}"]
    return []


# --- hedge_clayton ------------------------------------------------------

HEDGE_PREMIUM = 100.0
VERIFY_TRIALS = 50
VERIFY_CLIENTS = 100_000


def _prepare_hedge(base: dict, workdir: Path, seed: int):
    doc = copy.deepcopy(base)
    doc["copula"] = {"family": "clayton", "param": 2.0}
    doc["premium"] = HEDGE_PREMIUM
    cfg = write_config(workdir, "hedge_clayton", doc)

    def op() -> Outcome:
        from rifa import arbitrage_lab, cli, robust_eval

        c = cli.parse_config(str(cfg))
        box = c.theta_box
        report = robust_eval.evaluate(box, c.copula, c.benefit, c.market, c.optimizer)
        verdict = arbitrage_lab.nrifa_check(
            c.premium, report, box, c.copula, c.benefit, c.market, c.optimizer
        )
        pair = arbitrage_lab.construct_arbitrage(
            c.premium, report, box, c.copula, c.benefit, c.market
        )
        check = arbitrage_lab.verify_arbitrage(
            pair,
            c.premium,
            [box.corner_low(), box.corner_high(), report.argmax_outer],
            c.copula,
            c.benefit,
            c.market,
            VERIFY_TRIALS,
            seed,
            n_clients=VERIFY_CLIENTS,
        )
        numbers = {
            "robust_price": report.robust_price,
            "sup_classical": report.sup_classical,
            "delta": report.delta,
            "inf_classical": verdict.inf_classical,
            "hedge_cost": pair.cost,
            "shortfall": pair.shortfall,
            "verify.min_payoff": float(check.min_payoff),
        }
        for j, mean in enumerate(check.mean_payoffs):
            numbers[f"verify.mean_payoffs[{j}]"] = float(mean)
        labels = {
            "status": verdict.status,
            "strict_case": pair.strict_case,
            "verify.passed": check.passed,
        }
        text = json.dumps(
            {"numbers": {k: repr(v) for k, v in numbers.items()}, "labels": labels},
            sort_keys=True,
        )
        return Outcome(text, 0, numbers, labels)

    return cfg, op


def _hedge_invariants(out: Outcome) -> list[str]:
    problems = []
    if out.labels.get("status") != "RIFA_exists":
        problems.append(f"status {out.labels.get('status')} != RIFA_exists")
    robust, cost = out.numbers["robust_price"], out.numbers["hedge_cost"]
    if not abs(cost - robust) <= REL_TOL * abs(robust):
        problems.append(f"hedge cost {cost!r} != robust price {robust!r}")
    if out.labels.get("verify.passed") is not True:
        problems.append("arbitrage verification did not pass")
    return problems


def _no_invariants(out: Outcome) -> list[str]:
    return []


WORKLOADS = {
    w.name: w
    for w in (
        Workload("price_flagship", _prepare_price, _no_invariants),
        Workload("sweep_classical", _prepare_sweep, _no_invariants),
        Workload(
            "simulate_pool",
            _prepare_simulate,
            _simulate_invariants,
            seeded=("rms_error", "mean_V"),
        ),
        Workload(
            "hedge_clayton",
            _prepare_hedge,
            _hedge_invariants,
            seeded=("verify.mean_payoffs", "verify.min_payoff"),
        ),
    )
}


def relative_error(value: float, reference: float) -> float:
    err = abs(value - reference) / abs(reference) if reference != 0.0 else abs(value)
    return err if math.isfinite(err) else sys.float_info.max


def check(
    workload: Workload, out: Outcome, reference: dict, seed: int, first_text: str | None
) -> tuple[float, list[str]]:
    """Compare one outcome with the reference; return (max relerr, problems)."""
    same_seed = seed == reference["seed"]
    problems = []
    if out.exit_code != reference["exit_code"]:
        problems.append(f"exit code {out.exit_code} != {reference['exit_code']}")
    for key, expected in reference["labels"].items():
        if (same_seed or not workload.is_seeded(key)) and out.labels.get(key) != expected:
            problems.append(f"{key} = {out.labels.get(key)!r}, expected {expected!r}")

    def compared(numbers):
        return {k: v for k, v in numbers.items() if same_seed or not workload.is_seeded(k)}

    expected, got = compared(reference["numbers"]), compared(out.numbers)
    if set(expected) != set(got):
        problems.append(f"headline numbers {sorted(got)} != {sorted(expected)}")
    worst = 0.0
    for key in expected.keys() & got.keys():
        err = relative_error(got[key], expected[key])
        worst = max(worst, err)
        if err > REL_TOL:
            problems.append(f"{key} = {got[key]!r}, reference {expected[key]!r}")
    problems += workload.invariants(out)
    if first_text is not None and out.text != first_text:
        problems.append("output differs from the first operation of this run")
    return worst, problems


def reference_entry(out: Outcome, seed: int) -> dict:
    return {
        "seed": seed,
        "exit_code": out.exit_code,
        "numbers": out.numbers,
        "labels": out.labels,
        "text": out.text,
    }
