"""In-memory span tracer for the traced run.

``install`` replaces every public ``rifa`` function with a timing wrapper in
each module namespace where a caller looks the name up (``rifa.cli.evaluate``,
``rifa.arbitrage_lab.superhedge``, ...), plus scipy's ``minimize`` as
``rifa.robust_eval`` sees it.  A span is named ``<module>.<function>`` after
the module that defines the function; the module is its layer.  Spans are
kept in memory and written out by ``dump`` when the run ends.
``risk_measures`` is not wrapped: nothing in the pipeline calls it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

LAYERS = ("lattice", "hazards", "copulas", "benefits", "robust_eval", "arbitrage_lab", "cli")


@dataclass(frozen=True, slots=True)
class Span:
    id: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float

    @property
    def layer(self) -> str:
        return self.name.partition(".")[0]


def _nelder_mead_counts(res):
    return (("nm_nfev", res.nfev), ("nm_converged", int(res.success)))


def _client_counts(samples):
    return (("clients", sum(len(s.tau_death) for s in samples)),)


# counters read from a wrapped function's result, keyed by function name
_COUNTERS = {"simulate_portfolio": _client_counts}


class Tracer:
    """Records spans (name, start, end, parent, operation id) and counters."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.op = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            op = self.op
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(sid, parent, op, name, start, end))
            if counter is not None:
                with self._lock:
                    for key, n in counter(result):
                        self.counts[op, key] += n
            return result

        return traced

    def dump(self, path: Path, meta: dict) -> None:
        origin = min((s.start for s in self.spans), default=0.0)
        doc = {
            **meta,
            "fields": ["id", "parent", "op", "name", "start_s", "end_s"],
            "spans": [
                [s.id, s.parent, s.op, s.name, s.start - origin, s.end - origin]
                for s in sorted(self.spans, key=lambda s: s.id)
            ],
            "counts": [[op, key, n] for (op, key), n in sorted(self.counts.items())],
        }
        path.write_text(json.dumps(doc), encoding="utf-8")


def install(tracer: Tracer) -> None:
    """Wrap rifa's public functions where their callers look them up."""
    modules = {name: importlib.import_module(f"rifa.{name}") for name in LAYERS}
    for holder in modules.values():
        for attr, obj in list(vars(holder).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            owner = obj.__module__.removeprefix("rifa.")
            if owner in modules:
                span = f"{owner}.{attr}"
                setattr(holder, attr, tracer.wrap(span, obj, _COUNTERS.get(attr)))
    robust_eval = modules["robust_eval"]
    robust_eval.minimize = tracer.wrap(
        "robust_eval.minimize", robust_eval.minimize, _nelder_mead_counts
    )


# per-operation span time (s) of one function
_SPAN_SECONDS = {
    "robust_eval.robust_price_s": "robust_eval.robust_price",
    "robust_eval.sup_classical_s": "robust_eval.sup_classical",
    "robust_eval.inf_classical_s": "robust_eval.inf_classical",
    "lattice.enumerate_paths_s": "lattice.enumerate_paths",
    "copulas.sample_pairs_s": "copulas.sample_pairs",
    "arbitrage_lab.nrifa_check_s": "arbitrage_lab.nrifa_check",
    "arbitrage_lab.construct_arbitrage_s": "arbitrage_lab.construct_arbitrage",
    "arbitrage_lab.verify_arbitrage_s": "arbitrage_lab.verify_arbitrage",
    "arbitrage_lab.simulate_portfolio_s": "arbitrage_lab.simulate_portfolio",
}

# per-operation call count of one or more functions
_SPAN_CALLS = {
    "robust_eval.pathwise_esssup_calls": ("robust_eval.pathwise_esssup",),
    "robust_eval.nm_runs": ("robust_eval.minimize",),
    "lattice.enumerate_paths_calls": ("lattice.enumerate_paths",),
    "lattice.strategy_gain_calls": ("lattice.strategy_gain",),
    "benefits.discounted_payoffs_calls": ("benefits.discounted_payoffs",),
    "hazards.cdf_calls": ("hazards.gompertz_cdf", "hazards.surrender_cdf", "hazards.cox_cdf"),
}

# per-operation self time (s) of every span of one layer
_SELF_LAYERS = ("robust_eval", "lattice", "benefits", "hazards", "arbitrage_lab")


def summarize(tracer: Tracer, ops: list[int]) -> dict[str, float]:
    """Per-layer metrics from the spans of the given operations.

    Times and counts are totals within one operation, reported as the median
    over operations; self time is a span's duration minus its children's.
    """
    wanted = set(ops)
    spans = [s for s in tracer.spans if s.op in wanted]
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    per_op = {op: defaultdict(float) for op in ops}
    for s in spans:
        acc = per_op[s.op]
        acc[s.name] += s.end - s.start
        acc[s.name + "#calls"] += 1
        acc[s.layer + "#self"] += (s.end - s.start) - child_time[s.id]

    def median(key):
        return statistics.median(per_op[op][key] for op in ops)

    metrics = {name: median(fn) for name, fn in _SPAN_SECONDS.items()}
    for name, fns in _SPAN_CALLS.items():
        metrics[name] = statistics.median(
            sum(per_op[op][fn + "#calls"] for fn in fns) for op in ops
        )
    for layer in _SELF_LAYERS:
        metrics[f"{layer}.self_s"] = median(layer + "#self")

    def counted(key):
        return [tracer.counts.get((op, key), 0.0) for op in ops]

    metrics["robust_eval.nm_nfev"] = statistics.median(counted("nm_nfev"))
    runs = sum(per_op[op]["robust_eval.minimize#calls"] for op in ops)
    metrics["robust_eval.nm_converged_ratio"] = (
        sum(counted("nm_converged")) / runs if runs else 0.0
    )
    esssup = [s.end - s.start for s in spans if s.name == "robust_eval.pathwise_esssup"]
    metrics["robust_eval.pathwise_esssup_s_p50"] = statistics.median(esssup) if esssup else 0.0
    sim_s = sum(per_op[op]["arbitrage_lab.simulate_portfolio"] for op in ops)
    metrics["arbitrage_lab.clients_per_s"] = sum(counted("clients")) / sim_s if sim_s else 0.0
    return metrics
