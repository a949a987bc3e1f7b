"""A traced run prints and reports what an untraced one does.

The benchmark's traced runs (``perfbench/spans.py``) wrap every public
``rifa`` function in a timing span, and some spans also read the wrapped
function's result.  A lazy trial stream returned under a name whose result a
span reads would be drained by the tracer before its caller saw a trial.
The tracer is installed in a fresh interpreter, so that its wrappers do not
outlive the test, and a small ``rifa simulate`` and ``verify_arbitrage`` are
compared with the same calls made there before it was installed.  The
benchmark's files are only read.
"""

import json
import subprocess
import sys

from conftest import REPO_ROOT

_CHILD = """
import contextlib, io, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import spans
from rifa import arbitrage_lab, cli, robust_eval

def simulate():
    out = io.StringIO()
    argv = ["simulate", "--config", sys.argv[3], "--n-max", "1000", "--trials", "6"]
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()

def verify():
    c = cli.parse_config(sys.argv[3])
    box = c.theta_box
    report = robust_eval.evaluate(box, c.copula, c.benefit, c.market, c.optimizer)
    premium = report.robust_price + 1.0
    pair = arbitrage_lab.construct_arbitrage(
        premium, report, box, c.copula, c.benefit, c.market
    )
    check = arbitrage_lab.verify_arbitrage(
        pair, premium, [box.corner_low(), box.corner_high()], c.copula,
        c.benefit, c.market, 4, 3, n_clients=2000,
    )
    return repr(check)

plain = [simulate(), verify()]
tracer = spans.Tracer()
spans.install(tracer)
traced = [simulate(), verify()]
names = sorted({s.name for s in tracer.spans})
print(json.dumps({"plain": plain, "traced": traced, "spans": names}))
"""


def test_traced_simulate_and_verify_match_untraced(write_config, base_config_doc):
    cfg = write_config(base_config_doc)
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(REPO_ROOT / "src"),
         str(REPO_ROOT / "perfbench"), cfg],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    run = json.loads(proc.stdout)
    (code, text), _ = run["plain"]
    assert code == 0 and text.startswith("n,rms_error,mean_V\n")
    assert run["traced"] == run["plain"]
    # the tracer was live on both paths
    assert {"arbitrage_lab.portfolio_trials", "arbitrage_lab.verify_arbitrage"} <= set(
        run["spans"]
    )
