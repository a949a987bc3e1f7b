"""Layer microbenchmarks of the traced run.

They do not depend on the workload: every traced run measures the same
inputs, all on the flagship configuration (``paper.cfg``), and records each
input size next to its metric.  ``price`` at T = 6, 8 and 10 runs in a fresh
interpreter per T, so its peak resident memory is its own.
"""

from __future__ import annotations

import copy
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from workloads import write_config

# scalar kernel: every flagship path at each of these (a, d) fractions of the
# box, with (b, c) at the low corner where the per-path supremum sits
_SCALAR_FRACTIONS = [(fa, fd) for fa in (0.0, 0.25, 0.5, 0.75, 1.0) for fd in (0.0, 0.5, 1.0)]
_SCALAR_REPEATS = 3
_GRID_POINTS_PER_DIM = 64
_SUPERHEDGE_REPEATS = 200
_PAIRS = 100_000
_PAIRS_REPEATS = 10
SCALING_T = (6, 8, 10)

# grid oracle: the Nelder-Mead robust price may not fall below the grid one
GAP_TOL = -1e-9

_PRICE_CHILD = """
import contextlib, io, json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from rifa import cli
out = io.StringIO()
start = time.perf_counter()
with contextlib.redirect_stdout(out):
    code = cli.main(["price", "--config", sys.argv[2]])
wall = time.perf_counter() - start
rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"exit_code": code, "wall_s": wall, "stdout": out.getvalue(), "rss_kb": rss_kb}))
"""


def _price_in_child(src: Path, cfg: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", _PRICE_CHILD, str(src), str(cfg)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def run(src: Path, workdir: Path, base: dict, seed: int) -> tuple[dict, dict, list[str]]:
    """Return (metrics, input sizes, problems)."""
    from rifa import cli, copulas, lattice, robust_eval
    from rifa.hazards import Theta

    config = cli.parse_config(str(write_config(workdir, "micro_flagship", base)))
    box, spec, benefit, market = config.theta_box, config.copula, config.benefit, config.market
    metrics, sizes, problems = {}, {}, []

    paths = lattice.enumerate_paths(market)
    thetas = [
        Theta(
            box.a[0] + fa * (box.a[1] - box.a[0]),
            box.b[0],
            box.c[0],
            box.d[0] + fd * (box.d[1] - box.d[0]),
        )
        for fa, fd in _SCALAR_FRACTIONS
    ]
    rates = []
    for _ in range(_SCALAR_REPEATS):
        start = time.perf_counter()
        for theta in thetas:
            for path in paths:
                robust_eval.conditional_value(path, theta, spec, benefit, market)
        rates.append(len(thetas) * len(paths) / (time.perf_counter() - start))
    metrics["robust_eval.kernel_scalar_points_per_s"] = statistics.median(rates)
    sizes["kernel_scalar"] = {"paths": len(paths), "thetas": len(thetas), "repeats": _SCALAR_REPEATS}

    grid_cfg = robust_eval.OptimizerConfig(
        method="grid", grid_points_per_dim=_GRID_POINTS_PER_DIM
    )
    start = time.perf_counter()
    grid = robust_eval.robust_price(box, spec, benefit, market, grid_cfg)
    points = len(paths) * _GRID_POINTS_PER_DIM**2
    metrics["robust_eval.kernel_grid_points_per_s"] = points / (time.perf_counter() - start)
    sizes["kernel_grid"] = {"paths": len(paths), "points_per_dim": _GRID_POINTS_PER_DIM, "points": points}

    claim = lattice.Claim(tuple(opt.value for opt in grid.per_path))
    times = []
    for _ in range(_SUPERHEDGE_REPEATS):
        start = time.perf_counter()
        lattice.superhedge(market, claim)
        times.append(time.perf_counter() - start)
    metrics["lattice.superhedge_s"] = statistics.median(times)
    sizes["superhedge"] = {"claim": "flagship grid-oracle per-path suprema", "paths": len(claim.values)}

    pair_spec = copulas.CopulaSpec("clayton", 2.0)
    rng = np.random.default_rng(seed)
    times = []
    for _ in range(_PAIRS_REPEATS):
        start = time.perf_counter()
        copulas.sample_pairs(pair_spec, _PAIRS, rng)
        times.append(time.perf_counter() - start)
    metrics["copulas.pairs_per_s"] = _PAIRS / statistics.median(times)
    sizes["sample_pairs"] = {"copula": "clayton(2.0)", "pairs": _PAIRS, "repeats": _PAIRS_REPEATS}

    for T in SCALING_T:
        doc = copy.deepcopy(base)
        doc["market"]["T"] = T
        child = _price_in_child(src, write_config(workdir, f"micro_T{T}", doc))
        if child["exit_code"] != 0:
            problems.append(f"price at T={T} exited with {child['exit_code']}")
        metrics[f"robust_eval.evaluate_s.T{T}"] = child["wall_s"]
        if T == 8:
            nm_price = float(child["stdout"].splitlines()[0].partition(" = ")[2])
        if T == max(SCALING_T):
            metrics[f"robust_eval.peak_rss_mb.T{T}"] = child["rss_kb"] / 1024.0
    sizes["scaling"] = {"T": list(SCALING_T), "paths": [2**T for T in SCALING_T]}

    # price prints 12 significant digits, far finer than the gap tolerance
    gap = nm_price - grid.robust_price
    metrics["robust_eval.grid_oracle_gap"] = gap
    sizes["grid_oracle"] = {"nelder_mead": nm_price, "grid": grid.robust_price}
    if gap < GAP_TOL:
        problems.append(f"grid oracle gap {gap!r} < {GAP_TOL}")
    return metrics, sizes, problems
