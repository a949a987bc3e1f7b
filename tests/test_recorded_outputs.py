"""CLI runs through every screening route, replayed against recorded bytes.

``recorded_outputs.json`` holds the exit code and stdout of each run below,
recorded on a known-good commit with

    PYTHONPATH=src python tests/test_recorded_outputs.py --record

which adds only the runs missing from the file and exits non-zero, writing
nothing, if a recorded run's bytes differ; to re-record a run on purpose,
delete its entry first.

The runs cover what ``test_bench_reference.py`` does not: ``check`` on
``paper.cfg`` (the classical sup and inf) at premiums that give each verdict
status, one of them the robust price as printed (a boundary case), and
``check`` under Clayton(2) at premium 100, Frank(-2) and Gumbel(1.8),
``check`` with a pinned at 195 (the classical inf screens one run of d)
and at 150 (a flat run, where RIFA exists),
sweeps along a (paper.cfg's 31 steps over 50..350, the same without
surrender, 7 steps with Clayton(2), 7 at T=10 and 7 under the grid and the
hybrid method, and 21 steps over 140..160, whose runs of d are flat),
where each step's screen points share one a, sweeps along
d, b and K (shared rectangles, one kernel or one per step), ``price`` on
a T=6 Clayton(2) config with the grid and the
hybrid method, ``price`` with Gumbel(1.8) under the hybrid method, and
``price`` on paper.cfg at T=10 and T=12, ``check`` with Clayton(2) at
T=12, ``simulate`` with Clayton(2) at T=14 and T=15, either side of the
one-byte exit cell, and ``simulate`` at T=8 with each other family:
paper.cfg's independence, Frank(-2) and Gumbel(1.8).  Each test runs one
of them in-process and compares the bytes.
"""

import contextlib
import io
import json
import pathlib
import sys
import tempfile

import pytest

from rifa.cli import main

HERE = pathlib.Path(__file__).resolve().parent
RECORDED = HERE / "recorded_outputs.json"
PAPER_CFG = HERE.parent / "paper.cfg"


def _clayton_t6(method):
    doc = json.loads(PAPER_CFG.read_text(encoding="utf-8"))
    doc["market"]["T"] = 6
    doc["copula"] = {"family": "clayton", "param": 2.0}
    doc["optimizer"].update(method=method, grid_points=16)
    return doc


def _horizon(T, copula=None):
    doc = json.loads(PAPER_CFG.read_text(encoding="utf-8"))
    doc["market"]["T"] = T
    if copula is not None:
        doc["copula"] = copula
    return doc


def _premium(premium, copula=None):
    doc = json.loads(PAPER_CFG.read_text(encoding="utf-8"))
    doc["premium"] = premium
    if copula is not None:
        doc["copula"] = copula
    return doc


def _no_surrender():
    doc = json.loads(PAPER_CFG.read_text(encoding="utf-8"))
    doc["benefit"]["surrender"] = False
    return doc


def _pinned_a(a):
    doc = json.loads(PAPER_CFG.read_text(encoding="utf-8"))
    doc["theta_box"]["a"] = [a, a]
    return doc


def _method(method):
    doc = json.loads(PAPER_CFG.read_text(encoding="utf-8"))
    doc["optimizer"]["method"] = method
    return doc


def _gumbel_hybrid():
    doc = _horizon(8, GUMBEL_18)
    doc["optimizer"]["method"] = "hybrid"
    return doc


def _sweep(axis, lo, hi, steps):
    return ["sweep", "--axis", axis, "--lo", lo, "--hi", hi, "--steps", steps]


CLAYTON_2 = {"family": "clayton", "param": 2.0}
FRANK_M2 = {"family": "frank", "param": -2.0}
GUMBEL_18 = {"family": "gumbel", "param": 1.8}
_SIMULATE = ["simulate", "--n-max", "1000", "--trials", "8"]

# name: (config document, or None for paper.cfg; command and its options)
RUNS = {
    "check": (None, ["check"]),
    "check_60": (_premium(60.0), ["check"]),
    "check_100": (_premium(100.0), ["check"]),
    # paper.cfg's robust price to 12 digits, within the comparison band
    "check_boundary": (_premium(95.6138435374), ["check"]),
    # the classical inf under each other family
    "check_clayton_100": (_premium(100.0, CLAYTON_2), ["check"]),
    "check_frank": (_horizon(8, FRANK_M2), ["check"]),
    "check_gumbel": (_horizon(8, GUMBEL_18), ["check"]),
    # a pinned a: inf_classical screens one run of d, minimizing
    "check_a_pinned": (_pinned_a(195.0), ["check"]),
    # a = 150 pins a run of d that is flat, where RIFA exists: the
    # classical inf screens it minimizing, the sup maximizing
    "check_a_150": (_pinned_a(150.0), ["check"]),
    # the benchmark's a-sweep, and a Clayton one: each step pins a
    "sweep_a": (None, _sweep("a", "50", "350", "31")),
    "sweep_a_clayton": (_horizon(8, CLAYTON_2), _sweep("a", "50", "350", "7")),
    # without surrender the price has no node estimate: exact values only
    "sweep_a_no_surrender": (_no_surrender(), _sweep("a", "50", "350", "31")),
    "sweep_a_t10": (_horizon(10), _sweep("a", "50", "350", "7")),
    # each step's fixed candidates end in a 64-point grid run of d
    "sweep_a_grid": (_method("grid"), _sweep("a", "50", "350", "7")),
    "sweep_a_hybrid": (_method("hybrid"), _sweep("a", "50", "350", "7")),
    # the steps near a = 150, whose runs of d are flat
    "sweep_a_flat": (None, _sweep("a", "140", "160", "21")),
    "sweep_d": (None, _sweep("d", "1e4", "1e5", "7")),
    "sweep_b": (None, _sweep("b", "0.02", "0.03", "5")),
    "sweep_K": (None, _sweep("K", "90", "110", "5")),
    "price_clayton_t6_grid": (_clayton_t6("grid"), ["price"]),
    "price_clayton_t6_hybrid": (_clayton_t6("hybrid"), ["price"]),
    # T=10: date sums of 8 or more terms take numpy's 8-accumulator order
    "price_t10": (_horizon(10), ["price"]),
    # T=12: blocks of pairs gathered from 4,096 paths, and the Clayton band
    "price_t12": (_horizon(12), ["price"]),
    "check_clayton_t12": (_horizon(12, CLAYTON_2), ["check"]),
    "price_gumbel_hybrid": (_gumbel_hybrid(), ["price"]),
    # the largest horizon whose exit cells fit one byte, and the first past it
    "simulate_clayton_t14": (_horizon(14, CLAYTON_2), _SIMULATE),
    "simulate_clayton_t15": (_horizon(15, CLAYTON_2), _SIMULATE),
    # the other three families at paper.cfg's T=8
    "simulate": (None, _SIMULATE),
    "simulate_frank": (_horizon(8, FRANK_M2), _SIMULATE),
    "simulate_gumbel": (_horizon(8, GUMBEL_18), _SIMULATE),
}


def _run(name, directory):
    """(exit code, stdout) of one run, in-process."""
    doc, (command, *options) = RUNS[name]
    path = PAPER_CFG
    if doc is not None:
        path = pathlib.Path(directory) / f"{name}.cfg"
        path.write_text(json.dumps(doc), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([command, "--config", str(path), *options])
    return code, out.getvalue()


@pytest.mark.parametrize("name", list(RUNS))
def test_cli_output_matches_recording(name, tmp_path):
    recorded = json.loads(RECORDED.read_text(encoding="utf-8"))[name]
    assert _run(name, tmp_path) == (recorded["exit_code"], recorded["stdout"])


def _record():
    """Add the runs missing from the recording; refuse if a recorded run moved."""
    doc = json.loads(RECORDED.read_text(encoding="utf-8")) if RECORDED.exists() else {}
    moved = []
    with tempfile.TemporaryDirectory() as directory:
        for name in RUNS:
            code, text = _run(name, directory)
            entry = {"exit_code": code, "stdout": text}
            if name not in doc:
                doc[name] = entry
                print(f"recorded {name}")
            elif doc[name] != entry:
                moved.append(name)
    if moved:
        sys.exit(
            f"output differs from the recording for: {', '.join(moved)}; "
            "delete an entry to re-record it"
        )
    RECORDED.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_recorded_outputs.py --record")
    _record()
