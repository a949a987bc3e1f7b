"""The benchmark's output gate, run with the tests.

``perfbench/reference.json`` holds what each benchmark workload produced on
a known-good commit, and a benchmark run fails every operation whose output
differs.  These tests run the same workloads (``perfbench/workloads.py``) and
compare, so a change that would fail that gate fails here first.  The
reference file is only read.
"""

import json
import sys

import pytest

from rifa import arbitrage_lab, cli, robust_eval

from conftest import REPO_ROOT

BENCH_DIR = REPO_ROOT / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH_DIR))
    return workloads


@pytest.fixture(scope="module")
def reference():
    with open(BENCH_DIR / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", ["price_flagship", "sweep_classical", "simulate_pool"])
def test_workload_output_matches_reference(name, workloads, reference, tmp_path):
    """stdout and exit code, byte for byte, at the recorded seed."""
    entry = reference[name]
    base = workloads.load_base_config(BENCH_DIR)
    _, op = workloads.WORKLOADS[name].prepare(base, tmp_path, entry["seed"])
    out = op()
    assert (out.exit_code, out.text) == (entry["exit_code"], entry["text"])


def test_hedge_clayton_matches_reference_outside_monte_carlo(
    workloads, reference, tmp_path
):
    """The Clayton valuation, verdict and hedge, by repr; not the simulated check."""
    entry = reference["hedge_clayton"]
    recorded = json.loads(entry["text"])
    base = workloads.load_base_config(BENCH_DIR)
    cfg, _ = workloads.WORKLOADS["hedge_clayton"].prepare(base, tmp_path, entry["seed"])
    c = cli.parse_config(str(cfg))
    box = c.theta_box
    report = robust_eval.evaluate(box, c.copula, c.benefit, c.market, c.optimizer)
    verdict = arbitrage_lab.nrifa_check(
        c.premium, report, box, c.copula, c.benefit, c.market, c.optimizer
    )
    pair = arbitrage_lab.construct_arbitrage(
        c.premium, report, box, c.copula, c.benefit, c.market
    )
    numbers = {
        "robust_price": report.robust_price,
        "sup_classical": report.sup_classical,
        "delta": report.delta,
        "inf_classical": verdict.inf_classical,
        "hedge_cost": pair.cost,
        "shortfall": pair.shortfall,
    }
    assert {k: repr(v) for k, v in numbers.items()} == {
        k: recorded["numbers"][k] for k in numbers
    }
    assert (verdict.status, pair.strict_case) == (
        recorded["labels"]["status"],
        recorded["labels"]["strict_case"],
    )
