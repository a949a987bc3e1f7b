"""Command-line interface: config parsing, outputs, exit codes."""

import dataclasses
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import rifa
from rifa.cli import (
    _CONFIG_KEYS,
    SWEEP_AXES,
    _mean,
    _swept_configs,
    canonical_json,
    main,
    parse_config,
)
from rifa.copulas import CopulaSpec
from rifa.errors import ConfigurationError, ContractError
from rifa.hazards import Theta
from rifa.robust_eval import sup_classical, sup_classical_batch

from conftest import PAPER_CFG


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def printed_numbers(text):
    """Every token of an output that parses as a float, nan and inf included."""
    numbers = []
    for token in re.split(r"[\s,=]+", text):
        try:
            numbers.append(float(token))
        except ValueError:
            pass
    return numbers


def parse_report(text):
    """key = value lines into a dict, values kept as strings."""
    out = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def test_parse_config_round_trip(write_config, base_config_doc):
    path = write_config(base_config_doc)
    config = parse_config(path)
    assert config.market.T == 4
    assert config.premium == 90.0
    assert config.seed == 1
    # canonical form re-parses to the same canonical form
    text = canonical_json(config)
    path2 = write_config(json.loads(text), name="round.cfg")
    assert canonical_json(parse_config(path2)) == text


def test_parse_config_optional_fields(write_config, base_config_doc):
    del base_config_doc["premium"]
    del base_config_doc["seed"]
    del base_config_doc["optimizer"]
    config = parse_config(write_config(base_config_doc))
    assert config.premium is None
    assert config.seed is None
    # optimizer falls back to defaults
    assert config.optimizer.method == "nelder_mead"
    assert config.optimizer.multistarts == 5
    text = canonical_json(config)
    assert '"premium"' not in text and '"seed"' not in text


DROP = object()  # the key is removed from the config


# id: (section or None for the top level, key, value set there)
MALFORMED = {
    "missing-section": (None, "market", DROP),
    "unknown-top-key": (None, "extra", 1),
    "missing-market-key": ("market", "s0", DROP),
    "unknown-market-key": ("market", "volatility", 0.2),
    "bool-T": ("market", "T", True),
    "float-T": ("market", "T", 4.0),
    "null-s0": ("market", "s0", None),
    "huge-int-s0": ("market", "s0", 10**400),
    "string-surrender": ("benefit", "surrender", "yes"),
    "int-surrender": ("benefit", "surrender", 0),
    "string-K": ("benefit", "K", "100"),
    "huge-int-K": ("benefit", "K", 10**400),
    "short-interval": ("theta_box", "a", [50.0]),
    "long-interval": ("theta_box", "a", [50.0, 100.0, 340.0]),
    "scalar-interval": ("theta_box", "a", 50.0),
    "huge-int-endpoint": ("theta_box", "a", [50, 10**400]),
    "reversed-interval": ("theta_box", "b", [0.03, 0.02]),
    "bad-family": ("copula", "family", "gaussian"),
    "bool-param": ("copula", "param", True),
    "huge-int-param": ("copula", "param", 10**400),
    "float-multistarts": ("optimizer", "multistarts", 2.5),
    "float-grid-points": ("optimizer", "grid_points", 1.5),
    "huge-int-tolerance": ("optimizer", "tolerance", 10**400),
    "negative-premium": (None, "premium", -5.0),
    "huge-int-premium": (None, "premium", 10**400),
    "float-seed": (None, "seed", 1.5),
}


@pytest.mark.parametrize("section, key, value", MALFORMED.values(), ids=MALFORMED)
def test_parse_config_rejects_malformed(
    section, key, value, write_config, base_config_doc
):
    """The file is refused, and so is the record built with the same value.

    Clayton's parameter is checked here; independence takes none at all.
    """
    base_config_doc["copula"] = {"family": "clayton", "param": 2.0}
    parsed = parse_config(write_config(base_config_doc, name="valid.cfg"))
    target = base_config_doc if section is None else base_config_doc[section]
    sets_a_field = value is not DROP and key in target
    if value is DROP:
        del target[key]
    else:
        target[key] = value
    with pytest.raises(ConfigurationError) as exc:
        parse_config(write_config(base_config_doc))
    if not sets_a_field:
        return
    # the message names the section and the key as the file spells it
    assert str(exc.value).startswith(f"{section}: " if section else key)
    assert re.search(rf"\b{key}\b", str(exc.value))
    record = parsed if section is None else getattr(parsed, section)
    field = {k: f for f, k in _CONFIG_KEYS.items()}.get(key, key)
    with pytest.raises(ConfigurationError, match=field):
        dataclasses.replace(record, **{field: value})


def test_parse_config_missing_file():
    with pytest.raises(ConfigurationError):
        parse_config("/nonexistent/rifa.cfg")


def test_parse_config_invalid_json(tmp_path):
    # bad UTF-8 and an integer past json's 4300 digits raised a bare ValueError
    path = tmp_path / "broken.cfg"
    for content in (b"{not json", b"\xff{}", b'{"seed": ' + b"1" * 5000 + b"}"):
        path.write_bytes(content)
        with pytest.raises(ConfigurationError, match="is not valid JSON"):
            parse_config(str(path))


def test_cli_reports_config_errors_as_exit_2(write_config, base_config_doc, capsys):
    # down exceeds up; Python's json reads and writes NaN and Infinity; an
    # int past the float range exited 1 with an OverflowError traceback
    bad = (("u", -0.5), ("s0", math.nan), ("s0", math.inf), ("s0", 10**400))
    for key, value in bad:
        doc = {**base_config_doc, "market": {**base_config_doc["market"], key: value}}
        code, out, err = run_cli(["price", "--config", write_config(doc)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: market: ") and err.count("\n") == 1


def test_cli_reports_resource_errors_as_exit_3(write_config, base_config_doc, capsys):
    base_config_doc["market"]["T"] = 25  # beyond the lattice cap
    path = write_config(base_config_doc)
    code, out, err = run_cli(["price", "--config", path], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("error:")


def test_cli_rejects_frank_parameter_beyond_float_range(
    write_config, base_config_doc, capsys
):
    base_config_doc["copula"] = {"family": "frank", "param": -1000.0}
    code, out, err = run_cli(["price", "--config", write_config(base_config_doc)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error:")


def test_cli_prices_gumbel_at_large_beta(write_config, capsys):
    """Gumbel(1000) on paper.cfg prices; its power sum overflowed, and it exited 3."""
    doc = json.loads(PAPER_CFG.read_text(encoding="utf-8"))
    doc["copula"] = {"family": "gumbel", "param": 1000.0}
    code, out, err = run_cli(["price", "--config", write_config(doc)], capsys)
    assert (code, err) == (0, "")
    assert out.startswith("robust_price = ")


def test_cli_prices_clayton_near_zero_as_independence(write_config, capsys):
    """Clayton(1e-10) on paper.cfg prints independence's bytes; it exited 3.

    Clayton(1e-8) stays on the textbook form, which lies 3e-9 off.
    """
    doc = json.loads(PAPER_CFG.read_text(encoding="utf-8"))
    independence = run_cli(["price", "--config", str(PAPER_CFG)], capsys)
    assert independence[0] == 0
    doc["copula"] = {"family": "clayton", "param": 1e-10}
    assert run_cli(["price", "--config", write_config(doc)], capsys) == independence
    doc["copula"]["param"] = 1e-8
    code, out, _ = run_cli(["price", "--config", write_config(doc)], capsys)
    assert code == 0
    assert parse_report(out)["robust_price"] == "95.6138438186"


def test_cli_prices_payouts_whose_path_sum_overflows(write_config, capsys):
    """K = 1e306: the per-path values sum past the float range, their mean does not.

    price raised OverflowError from fsum and exited 1; check and sweep ran.
    """
    doc = json.loads(PAPER_CFG.read_text(encoding="utf-8"))
    doc["benefit"]["K"] = 1e306
    code, out, err = run_cli(["price", "--config", write_config(doc)], capsys)
    assert (code, err) == (0, "")
    report = parse_report(out)
    lo, mean, hi = (float(report[f"per_path_{k}"]) for k in ("min", "mean", "max"))
    assert math.isfinite(mean) and lo <= mean <= hi
    assert report["per_path_mean"] == "8.48418184722e+305"


# id: (axis, interval)
OVERFLOWING_BOXES = {
    "c": ("c", [101.0, 102.0]),
    "d": ("d", [1e-320, 1e-300]),
    "a1e160": ("a", [1e160, 2e160]),
    "a1e306": ("a", [1e306, 2e306]),
}
FAMILIES = {
    "independence": None,
    "clayton": 2.0,
    "frank": -2.0,
    "gumbel": 1.8,
}
COMMANDS = {
    "price": [],
    "check": [],
    "sweep": ["--axis", "a", "--lo", "50", "--hi", "350", "--steps", "3"],
    "simulate": ["--n-max", "1000", "--trials", "4"],
}


@pytest.mark.parametrize("command", list(COMMANDS))
@pytest.mark.parametrize("family", list(FAMILIES))
@pytest.mark.parametrize("box", list(OVERFLOWING_BOXES))
def test_cli_runs_quietly_where_a_hazard_load_overflows(
    box, family, command, write_config, capsys
):
    """paper.cfg with c up to 102, d down to 1e-320 or a past 1e160 runs, exit 0, unwarned.

    exp(c*s) passes the float range in the death loads, and the surrender
    load in the kernel, over a tiny d or with a huge a: all give survival
    0, their limit.  check and simulate warned at c; simulate raised
    OverflowError from the scalar Gompertz CDF and exited 1; price, check
    and sweep warned at d.  At a = 1e160 the date-0 load was 0 * inf and
    from a = 1e305 later loads were inf - inf, so G was nan: price and
    check exited 3, simulate printed nan.  The suite turns every
    RuntimeWarning into an error.
    """
    axis, interval = OVERFLOWING_BOXES[box]
    doc = json.loads(PAPER_CFG.read_text(encoding="utf-8"))
    doc["theta_box"][axis] = interval
    doc["copula"] = {"family": family, "param": FAMILIES[family]}
    args = [command, "--config", write_config(doc), *COMMANDS[command]]
    code, out, err = run_cli(args, capsys)
    assert (code, err) == (0, "")
    numbers = printed_numbers(out)
    assert numbers and all(math.isfinite(x) for x in numbers)


@pytest.mark.parametrize("command", list(COMMANDS))
@pytest.mark.parametrize("field, value", [("K", 1.7e308), ("r_G", 1e300)], ids=["K", "r_G"])
def test_cli_exits_3_where_payouts_pass_the_float_range(
    field, value, command, write_config, capsys
):
    """A guarantee past the float range is a numerical failure: exit 3, one line.

    K = 1.7e308 made the floor inf: price, check and sweep exited 3 for a
    nan in the search, blamed on convergence, and simulate printed nan.
    r_G = 1e300 raised OverflowError from the floor's power and exited 1.
    """
    doc = json.loads(PAPER_CFG.read_text(encoding="utf-8"))
    doc["benefit"][field] = value
    args = [command, "--config", write_config(doc), *COMMANDS[command]]
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "float range" in err


def test_mean_keeps_the_bits_of_a_finite_sum():
    """_mean is fsum / n wherever the sum is finite, and finite past it."""
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 255, 256, 257):
        values = (rng.random(n) * 10.0 ** rng.integers(-300, 300)).tolist()
        assert float.hex(_mean(values)) == float.hex(math.fsum(values) / n)
    big = [1.7e308, 1.6e308, 1.5e308]
    with pytest.raises(OverflowError):
        math.fsum(big)
    assert float.hex(_mean(big)) == float.hex(math.fsum([x / 4 for x in big]) / 3 * 4)


def test_cli_reports_memory_errors_as_exit_3(
    write_config, base_config_doc, capsys, monkeypatch
):
    def out_of_memory(*args, **kwargs):
        # a generator: the error comes while lln_rms reads the trials
        raise MemoryError("Unable to allocate 72.8 TiB")
        yield

    monkeypatch.setattr("rifa.cli.portfolio_trials", out_of_memory)
    path = write_config(base_config_doc)
    code, out, err = run_cli(["simulate", "--config", path, "--n-max", "100"], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("error:")


def test_package_exports_resolve():
    """Every name in rifa.__all__ is an attribute of the package."""
    missing = [name for name in rifa.__all__ if not hasattr(rifa, name)]
    assert missing == []
    assert len(set(rifa.__all__)) == len(rifa.__all__)


def test_price_echo_config(write_config, base_config_doc, capsys):
    path = write_config(base_config_doc)
    code, out, _ = run_cli(["price", "--config", path, "--echo-config"], capsys)
    assert code == 0
    assert out == canonical_json(parse_config(path))
    # echoed text is valid JSON with the fixed section order
    doc = json.loads(out)
    assert list(doc) == ["market", "benefit", "theta_box", "copula",
                         "optimizer", "premium", "seed"]


ECHO_PAPER_CFG = """\
{
  "market": {
    "s0": 100.0,
    "u": 0.1,
    "v": -0.1,
    "r": 0.05,
    "T": 8
  },
  "benefit": {
    "K": 100.0,
    "r_G": 0.01,
    "l": 0.1,
    "surrender": true
  },
  "theta_box": {
    "a": [
      50.0,
      340.0
    ],
    "b": [
      0.02,
      0.03
    ],
    "c": [
      0.01,
      0.05
    ],
    "d": [
      10000.0,
      100000.0
    ]
  },
  "copula": {
    "family": "independence",
    "param": null
  },
  "optimizer": {
    "method": "nelder_mead",
    "multistarts": 5,
    "tolerance": 1e-08,
    "max_iters": 500,
    "grid_points": 64
  },
  "premium": 90.0,
  "seed": 1
}
"""

ECHO_MINIMAL = """\
{
  "market": {
    "s0": 100.0,
    "u": 0.1,
    "v": -0.1,
    "r": 0.05,
    "T": 4
  },
  "benefit": {
    "K": 100.0,
    "r_G": 0.02,
    "l": 0.3,
    "surrender": false
  },
  "theta_box": {
    "a": [
      50.0,
      340.0
    ],
    "b": [
      0.02,
      0.03
    ],
    "c": [
      0.01,
      0.05
    ],
    "d": [
      10000.0,
      100000.0
    ]
  },
  "copula": {
    "family": "clayton",
    "param": 2.0
  },
  "optimizer": {
    "method": "nelder_mead",
    "multistarts": 5,
    "tolerance": 1e-08,
    "max_iters": 500,
    "grid_points": 64
  }
}
"""


def test_price_echo_config_is_pinned(write_config, capsys):
    """The echo is a stable format: compare it with literal text."""
    paper = str(PAPER_CFG)
    assert run_cli(["price", "--config", paper, "--echo-config"], capsys) == (
        0, ECHO_PAPER_CFG, ""
    )
    # integers widen to floats; no optimizer, premium or seed in the file
    minimal = write_config({
        "market": {"s0": 100, "u": 0.1, "v": -0.1, "r": 0.05, "T": 4},
        "benefit": {"K": 100, "r_G": 0.02, "l": 0.3, "surrender": False},
        "theta_box": {"a": [50, 340], "b": [0.02, 0.03], "c": [0.01, 0.05],
                      "d": [1e4, 1e5]},
        "copula": {"family": "clayton", "param": 2},
    })
    assert run_cli(["price", "--config", minimal, "--echo-config"], capsys) == (
        0, ECHO_MINIMAL, ""
    )


def test_price_output_shape(write_config, base_config_doc, capsys):
    path = write_config(base_config_doc)
    code, out, err = run_cli(["price", "--config", path], capsys)
    assert code == 0 and err == ""
    report = parse_report(out)
    assert list(report) == [
        "robust_price", "sup_classical", "delta", "argmax_outer",
        "per_path_count", "per_path_min", "per_path_max", "per_path_mean",
    ]
    robust = float(report["robust_price"])
    sup = float(report["sup_classical"])
    delta = float(report["delta"])
    assert report["per_path_count"] == "16"
    assert delta == pytest.approx(robust - sup, abs=1e-9)
    assert delta >= 0.0
    lo, hi = float(report["per_path_min"]), float(report["per_path_max"])
    assert lo <= robust <= hi


def test_price_deterministic_across_runs(write_config, base_config_doc, capsys):
    path = write_config(base_config_doc)
    first = run_cli(["price", "--config", path], capsys)
    second = run_cli(["price", "--config", path], capsys)
    assert first[0] == 0
    assert first == second


def test_price_reports_nonconvergence_as_exit_3(write_config, base_config_doc, capsys):
    # one Nelder-Mead iteration cannot meet the tolerances
    base_config_doc["optimizer"]["max_iters"] = 1
    code, out, err = run_cli(["price", "--config", write_config(base_config_doc)], capsys)
    assert code == 3
    assert out == ""
    assert "Nelder-Mead failed to converge" in err


def test_check_exit_codes_by_premium(write_config, base_config_doc, capsys):
    # establish the price landscape once
    path = write_config(base_config_doc)
    _, out, _ = run_cli(["price", "--config", path], capsys)
    robust = float(parse_report(out)["robust_price"])

    base_config_doc["premium"] = 10.0
    code, out, _ = run_cli(
        ["check", "--config", write_config(base_config_doc, "low.cfg")], capsys
    )
    assert code == 0
    assert parse_report(out)["status"] == "NRIFA_by_i"
    assert "theta_prime" not in parse_report(out)

    base_config_doc["premium"] = robust - 1.0
    code, out, _ = run_cli(
        ["check", "--config", write_config(base_config_doc, "mid.cfg")], capsys
    )
    assert code == 0
    report = parse_report(out)
    assert report["status"] == "NRIFA_by_ii"
    assert "theta_prime" in report

    base_config_doc["premium"] = robust + 5.0
    code, out, _ = run_cli(
        ["check", "--config", write_config(base_config_doc, "high.cfg")], capsys
    )
    assert code == 10
    report = parse_report(out)
    assert report["status"] == "RIFA_exists"
    assert report["boundary_case"] == "false"
    assert float(report["margin_ii"]) == pytest.approx(-5.0, abs=1e-6)


def test_check_requires_premium(write_config, base_config_doc, capsys):
    del base_config_doc["premium"]
    code, _, err = run_cli(
        ["check", "--config", write_config(base_config_doc)], capsys
    )
    assert code == 2 and "premium" in err


def test_sweep_csv_shape_and_collapse(write_config, base_config_doc, capsys):
    path = write_config(base_config_doc)
    code, out, _ = run_cli(
        ["sweep", "--config", path, "--axis", "b", "--lo", "0.02", "--hi", "0.03",
         "--steps", "5"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "axis_value,price"
    assert len(lines) == 6
    values = [tuple(map(float, row.split(","))) for row in lines[1:]]
    assert [v for v, _ in values] == pytest.approx([0.02, 0.0225, 0.025, 0.0275, 0.03])
    # classical sup prices fall as mortality rises
    prices = [p for _, p in values]
    assert all(a >= b - 1e-9 for a, b in zip(prices, prices[1:]))


def test_sweep_single_step_matches_library(write_config, base_config_doc, capsys):
    from rifa.hazards import ParamBox
    from rifa.robust_eval import sup_classical

    path = write_config(base_config_doc)
    code, out, _ = run_cli(
        ["sweep", "--config", path, "--axis", "d", "--lo", "2e4", "--hi", "2e4",
         "--steps", "1"],
        capsys,
    )
    assert code == 0
    _, price = map(float, out.strip().splitlines()[1].split(","))
    config = parse_config(path)
    box = config.theta_box
    collapsed = ParamBox(a=box.a, b=box.b, c=box.c, d=(2e4, 2e4))
    expect, _ = sup_classical(
        collapsed, config.copula, config.benefit, config.market, config.optimizer
    )
    assert price == pytest.approx(expect, abs=1e-9)


def test_sweep_benefit_axis(write_config, base_config_doc, capsys):
    path = write_config(base_config_doc)
    code, out, _ = run_cli(
        ["sweep", "--config", path, "--axis", "l", "--lo", "0.0", "--hi", "0.9",
         "--steps", "4"],
        capsys,
    )
    assert code == 0
    rows = [tuple(map(float, r.split(","))) for r in out.strip().splitlines()[1:]]
    prices = [p for _, p in rows]
    # harsher surrender penalties never raise the best-case price
    assert all(a >= b - 1e-9 for a, b in zip(prices, prices[1:]))


def test_sweep_rejects_bad_ranges(write_config, base_config_doc, capsys):
    path = write_config(base_config_doc)
    code, _, err = run_cli(
        ["sweep", "--config", path, "--axis", "b", "--lo", "0.03", "--hi", "0.02",
         "--steps", "3"],
        capsys,
    )
    assert code == 2 and "lo" in err
    code, _, err = run_cli(
        ["sweep", "--config", path, "--axis", "b", "--lo", "0.02", "--hi", "0.03",
         "--steps", "0"],
        capsys,
    )
    assert code == 2 and "steps" in err
    with pytest.raises(SystemExit):
        main(["sweep", "--config", path, "--axis", "zz", "--lo", "0", "--hi", "1",
              "--steps", "2"])


SWEEP_RANGES = {"a": (50.0, 350.0), "d": (1e4, 1e5), "b": (0.02, 0.03), "l": (0.0, 0.9)}


def _hexes(optima):
    return [(p.hex(), t.a.hex(), t.d.hex()) for p, t in optima]


def _paper_config(family, param, method):
    doc = json.loads(PAPER_CFG.read_text(encoding="utf-8"))
    doc["copula"] = {"family": family, "param": param}
    doc["optimizer"].update(method=method, grid_points=16)
    return doc


@pytest.mark.parametrize("method", ["grid", "hybrid"])
@pytest.mark.parametrize(
    "family, param", [("independence", None), ("clayton", 2.0)], ids=["indep", "clayton"]
)
@pytest.mark.parametrize("axis", list(SWEEP_RANGES))
def test_batched_sweep_equals_per_step_sup_classical(
    axis, family, param, method, write_config
):
    """One lockstep search over all steps gives each step's sup bit for bit."""
    config = parse_config(write_config(_paper_config(family, param, method)))
    steps = [_swept_configs(config, axis, v) for v in np.linspace(*SWEEP_RANGES[axis], 4)]
    boxes, benefits = zip(*steps)
    args = (config.copula, config.market, config.optimizer)
    batched = sup_classical_batch(boxes, benefits, *args)
    single = [
        sup_classical(box, config.copula, benefit, *args[1:]) for box, benefit in steps
    ]
    assert _hexes(batched) == _hexes(single)


def test_batched_sweep_without_free_axis(write_config):
    """The single-peak sweep of criterion 10 pins b, c and d: no search runs."""
    doc = _paper_config("independence", None, "nelder_mead")
    box = doc["theta_box"]
    for name, end in (("b", 0), ("c", 0), ("d", 1)):
        box[name] = [box[name][end]] * 2
    config = parse_config(write_config(doc))
    steps = [_swept_configs(config, "a", v) for v in np.linspace(50.0, 350.0, 7)]
    boxes, benefits = zip(*steps)
    args = (config.copula, config.market, config.optimizer)
    batched = sup_classical_batch(boxes, benefits, *args)
    single = [
        sup_classical(box, config.copula, benefit, *args[1:]) for box, benefit in steps
    ]
    assert _hexes(batched) == _hexes(single)


def test_batched_sweep_checks_its_pairs(write_config):
    """Boxes and benefits pair up one to one; an empty batch has no optima."""
    config = parse_config(write_config(_paper_config("independence", None, "nelder_mead")))
    box, benefit = config.theta_box, config.benefit
    box2, benefit2 = _swept_configs(config, "a", 60.0)[0], _swept_configs(config, "K", 95.0)[1]
    args = (config.copula, config.market, config.optimizer)
    for boxes, benefits in (([box, box2, box], [benefit, benefit2]), ([box, box2], [benefit])):
        with pytest.raises(ContractError, match="boxes but"):
            sup_classical_batch(boxes, benefits, *args)
    assert sup_classical_batch([], [], *args) == []


def test_run_config_counts_reject_bools(write_config, base_config_doc):
    """seed and premium reject bools; a numpy integer seed is stored as int."""
    config = parse_config(write_config(base_config_doc))
    for field in ("seed", "premium"):
        with pytest.raises(ConfigurationError, match=field):
            dataclasses.replace(config, **{field: True})
    seeded = dataclasses.replace(config, seed=np.int64(3))
    assert seeded.seed == 3 and type(seeded.seed) is int
    assert canonical_json(seeded) == canonical_json(dataclasses.replace(config, seed=3))


def _reals(value):
    """value as a float and as each other real type that holds it exactly."""
    ints = [int(value), np.int64(value)] if value.is_integer() else []
    return [value, np.float64(value), *ints]


_PAPER = parse_config(str(PAPER_CFG))
# every real-valued field that is not a box endpoint: (record, field)
REAL_FIELDS = {
    **{f"market.{n}": (_PAPER.market, n) for n in ("s0", "u", "v", "r")},
    **{f"benefit.{n}": (_PAPER.benefit, n) for n in ("K", "r_G", "l")},
    **{f"theta.{n}": (Theta(100.0, 0.02, 0.01, 1e4), n) for n in "abcd"},
    "copula.param": (CopulaSpec("clayton", 2.0), "param"),
    "optimizer.tolerance": (_PAPER.optimizer, "tolerance"),
    "premium": (_PAPER, "premium"),
}


@pytest.mark.parametrize("name", list(REAL_FIELDS))
def test_real_fields_reject_bools_and_store_floats(name):
    """A real-valued field takes Python and numpy reals, stored as float, not bools."""
    record, field = REAL_FIELDS[name]
    value = getattr(record, field)
    with pytest.raises(ConfigurationError, match=field):
        dataclasses.replace(record, **{field: True})
    for x in _reals(value):
        stored = getattr(dataclasses.replace(record, **{field: x}), field)
        assert type(stored) is float and stored == value


@pytest.mark.parametrize("name", "abcd")
def test_box_endpoints_reject_bools_and_store_floats(name):
    box = _PAPER.theta_box
    lo, hi = getattr(box, name)
    with pytest.raises(ConfigurationError, match=name):
        dataclasses.replace(box, **{name: (True, hi)})
    for x in _reals(lo):
        stored = getattr(dataclasses.replace(box, **{name: (x, np.float64(hi))}), name)
        assert [type(end) for end in stored] == [float, float] and stored == (lo, hi)


SWEEP_PAPER_A = (
    "axis_value,price\n"
    "50,84.3182752229\n"
    "60,82.0440013874\n"
    "70,80.9069766636\n"
    "80,81.6648149724\n"
    "90,82.441574704\n"
    "100,83.1879481312\n"
    "110,83.8585585075\n"
    "120,84.4160501979\n"
    "130,84.8343628147\n"
    "140,85.1008036372\n"
    "150,85.2166882079\n"
    "160,85.9318367124\n"
    "170,87.0561945654\n"
    "180,87.9220992632\n"
    "190,88.604727062\n"
    "200,89.1361619352\n"
    "210,89.5341011652\n"
    "220,89.8209698407\n"
    "230,90.0239722659\n"
    "240,90.1679636181\n"
    "250,90.271339579\n"
    "260,90.3462811802\n"
    "270,90.400716085\n"
    "280,90.4400430152\n"
    "290,90.4681578388\n"
    "300,90.4879816866\n"
    "310,90.501738077\n"
    "320,90.5111184589\n"
    "330,90.5173968859\n"
    "340,90.5215182441\n"
    "350,90.524170005\n"
)


def test_sweep_output_is_pinned(capsys):
    """The benchmark sweep on paper.cfg prints the same CSV as before batching."""
    argv = ["sweep", "--config", str(PAPER_CFG), "--axis", "a", "--lo", "50",
            "--hi", "350", "--steps", "31"]
    assert run_cli(argv, capsys) == (0, SWEEP_PAPER_A, "")


def test_sweep_axes_cover_box_and_benefit():
    assert SWEEP_AXES == ("a", "b", "c", "d", "l", "K", "r_G")


def test_simulate_csv_and_determinism(write_config, base_config_doc, capsys):
    path = write_config(base_config_doc)
    argv = ["simulate", "--config", path, "--n-max", "1000", "--trials", "20"]
    code, out1, _ = run_cli(argv, capsys)
    assert code == 0
    code, out2, _ = run_cli(argv, capsys)
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert lines[0] == "n,rms_error,mean_V"
    rows = [r.split(",") for r in lines[1:]]
    assert [int(r[0]) for r in rows] == [100, 1000]
    rms = [float(r[1]) for r in rows]
    assert rms[1] < rms[0]
    assert all(math.isfinite(float(r[2])) for r in rows)


SIMULATE_PINNED = {
    ("independence", None): (
        "n,rms_error,mean_V\n"
        "100,2.75730933148,7.90036896149\n"
        "1000,1.23784407513,7.18241524221\n"
    ),
    ("clayton", 2.0): (
        "n,rms_error,mean_V\n"
        "100,2.42560180301,1.44647922573\n"
        "1000,0.85647198216,1.43626988349\n"
    ),
    ("gumbel", 1.8): (
        "n,rms_error,mean_V\n"
        "100,2.78738665902,4.91675828847\n"
        "1000,0.935338776535,4.21898502707\n"
    ),
    ("frank", -2.0): (
        "n,rms_error,mean_V\n"
        "100,2.82293348371,9.2006950679\n"
        "1000,0.817236047676,7.94193608846\n"
    ),
}


@pytest.mark.parametrize(
    "family, param", list(SIMULATE_PINNED), ids=[f for f, _ in SIMULATE_PINNED]
)
def test_simulate_output_is_pinned(family, param, write_config, base_config_doc, capsys):
    """Seeded draws, their order and the exit-time inversion stay fixed."""
    doc = dict(base_config_doc, copula={"family": family, "param": param}, seed=7)
    argv = ["simulate", "--config", write_config(doc), "--n-max", "1000",
            "--trials", "8"]
    assert run_cli(argv, capsys) == (0, SIMULATE_PINNED[family, param], "")


def test_cli_simulate_memory_does_not_grow_with_trials(capsys):
    """Trials are read as drawn: 10x the trials adds less than one trial's cells."""
    n_max = 100_000

    def peak(trials):
        argv = ["simulate", "--config", str(PAPER_CFG), "--n-max", str(n_max),
                "--trials", str(trials)]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            capsys.readouterr()

    peak(1)  # first-call set-up is not a trial's
    # one exit-cell byte per client
    assert peak(200) - peak(20) < n_max


def test_simulate_requires_premium_and_seed(write_config, base_config_doc, capsys):
    doc = dict(base_config_doc)
    del doc["seed"]
    code, _, err = run_cli(
        ["simulate", "--config", write_config(doc, "noseed.cfg"), "--n-max", "100",
         "--trials", "1"],
        capsys,
    )
    assert code == 2 and "seed" in err
    doc = dict(base_config_doc)
    del doc["premium"]
    code, _, err = run_cli(
        ["simulate", "--config", write_config(doc, "noprem.cfg"), "--n-max", "100",
         "--trials", "1"],
        capsys,
    )
    assert code == 2 and "premium" in err


def test_simulate_rejects_bad_sizes(write_config, base_config_doc, capsys):
    path = write_config(base_config_doc)
    code, _, err = run_cli(
        ["simulate", "--config", path, "--n-max", "0", "--trials", "1"], capsys
    )
    assert code == 2
    code, _, err = run_cli(
        ["simulate", "--config", path, "--n-max", "100", "--trials", "0"], capsys
    )
    assert code == 2


def test_cli_loads_on_first_use():
    """`python -W error -m rifa.cli` runs, and the CLI names resolve on use.

    rifa imported the CLI, so runpy warned that 'rifa.cli' was already in
    sys.modules.  `import rifa; rifa.cli.parse_config` and `from rifa
    import main` still work in a fresh interpreter.
    """
    src = str(pathlib.Path(rifa.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath}
    probe = (
        "import sys, rifa\n"
        "assert 'rifa.cli' not in sys.modules\n"
        f"config = rifa.cli.parse_config({str(PAPER_CFG)!r})\n"
        "from rifa import RunConfig, main\n"
        "assert isinstance(config, RunConfig) and main is rifa.cli.main\n"
    )
    for args in (["-m", "rifa.cli", "--help"], ["-c", probe]):
        proc = subprocess.run(
            [sys.executable, "-W", "error", *args],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, "")


def test_python_m_rifa_runs_the_cli(write_config, base_config_doc, capsys):
    """`python -m rifa` prints what main prints, with nothing on stderr."""
    path = write_config(base_config_doc)
    src = str(pathlib.Path(rifa.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath}
    proc = subprocess.run(
        [sys.executable, "-m", "rifa", "price", "--config", path],
        capture_output=True, text=True, env=env, timeout=120,
    )
    code, out, _ = run_cli(["price", "--config", path], capsys)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, "")
