"""Benchmark of the rifa pipeline: one workload per run, one closed-loop client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload price_flagship --seed 1 --seconds 15 --trace 0

The run times ``SETUP_REPEATS`` fresh interpreters that import ``rifa`` from
the checkout's ``src`` and parse the workload config, half of them before
the operations and half after.  It runs the workload's operation back to
back (the next starts when the last returns) for ``--seconds`` seconds,
timing each from outside the package and checking each output against
``reference.json``.

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json.  With
``--trace 1`` it spends half the time untraced and half traced, runs the layer
microbenchmarks, and reports the per-layer metrics instead.  The last line of
standard output is the result as one JSON object; a fuller record, and the
spans of a traced run, go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import micro
import spans
from workloads import WORKLOADS, check, load_base_config

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# set-up probes per run: half before the operations, half after, so that
# the median spans the run rather than one moment of machine load
SETUP_REPEATS = 4

_SETUP_CHILD = """
import json, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import rifa
imported = time.perf_counter()
rifa.cli.parse_config(sys.argv[2])
parsed = time.perf_counter()
print(json.dumps({"file": rifa.__file__, "import_s": imported - start,
                  "parse_config_s": parsed - imported}))
"""


class SetupError(Exception):
    """The checkout cannot be benchmarked."""


def _inside_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def probe_setup(cfg: Path) -> tuple[float, float, float]:
    """Time one fresh interpreter that imports rifa and parses the config.

    Returns (wall time from spawn to exit, import time, parse time).
    """
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(cfg)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SetupError(f"set-up interpreter failed:\n{proc.stderr}")
    child = json.loads(proc.stdout.splitlines()[-1])
    if not _inside_src(child["file"]):
        raise SetupError(f"set-up imported rifa from {child['file']}, not {SRC}")
    return wall, child["import_s"], child["parse_config_s"]


class OpLoop:
    """Runs one workload's operation in a closed loop and checks every output."""

    def __init__(self, workload, op, reference: dict, seed: int):
        self.workload = workload
        self.op = op
        self.reference = reference
        self.seed = seed
        self.first_text: str | None = None
        self.attempted = 0
        self.failures: list[str] = []
        self.result_relerr = 0.0

    def run(self, seconds: float, tracer=None) -> list[tuple[float, float]]:
        """Run operations until `seconds` have passed; return (wall, cpu) pairs."""
        op = self.op if tracer is None else tracer.wrap("bench.op", self.op)
        samples = []
        deadline = time.perf_counter() + seconds
        while True:
            if tracer is not None:
                tracer.op = self.attempted
            self.attempted += 1
            wall, cpu = time.perf_counter(), time.process_time()
            try:
                out = op()
            except Exception:
                out = None
                problems = [traceback.format_exc()]
            wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
            samples.append((wall, cpu))
            if out is not None:
                relerr, problems = check(
                    self.workload, out, self.reference, self.seed, self.first_text
                )
                self.result_relerr = max(self.result_relerr, relerr)
                if self.first_text is None:
                    self.first_text = out.text
            if problems:
                self.failures.append(f"op {self.attempted - 1}: " + "; ".join(problems))
            if time.perf_counter() >= deadline:
                return samples


def environment(seed: int) -> dict:
    import numpy
    import rifa
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "RIFA_THREADS": os.environ.get("RIFA_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "rifa": rifa.__version__,
        "platform": platform.platform(),
        "seed": seed,
    }


def _median(samples, i):
    return statistics.median(s[i] for s in samples)


def _declared_metrics(trace: bool) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def benchmark(args) -> tuple[dict, dict]:
    if not (SRC / "rifa" / "__init__.py").is_file():
        raise SetupError(f"no rifa source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import rifa

    if not _inside_src(rifa.__file__):
        raise SetupError(f"imported rifa from {rifa.__file__}, not {SRC}")
    units = _declared_metrics(bool(args.trace))
    workload = WORKLOADS[args.workload]
    with open(BENCH_DIR / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)[workload.name]
    workdir = OUT_DIR / f"{workload.name}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    base = load_base_config(BENCH_DIR)
    cfg, op = workload.prepare(base, workdir, args.seed)

    setup = [probe_setup(cfg) for _ in range(SETUP_REPEATS // 2)]
    loop = OpLoop(workload, op, reference, args.seed)
    record = {"workload": workload.name, "env": environment(args.seed)}
    problems = []
    if not args.trace:
        samples = loop.run(args.seconds)
        metrics = {
            "op_s_p50": _median(samples, 0),
            "op_cpu_s_p50": _median(samples, 1),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record["op_samples"] = samples
    else:
        untraced = loop.run(args.seconds / 2)
        metrics, record["micro_sizes"], problems = micro.run(SRC, workdir, base, args.seed)
        tracer = spans.Tracer()
        spans.install(tracer)
        first_traced = loop.attempted
        traced = loop.run(args.seconds / 2, tracer)
        metrics.update(spans.summarize(tracer, list(range(first_traced, loop.attempted))))
        metrics["trace.overhead_s"] = _median(traced, 0) - _median(untraced, 0)
        metrics["check.error_rate"] = len(loop.failures) / loop.attempted
        metrics["check.result_relerr"] = loop.result_relerr
        record["op_samples"] = {"untraced": untraced, "traced": traced}
        tracer.dump(
            OUT_DIR / f"{workload.name}-seed{args.seed}-spans.json",
            {"workload": workload.name, "seed": args.seed, "traced_ops": [first_traced, loop.attempted]},
        )
    setup += [probe_setup(cfg) for _ in range(SETUP_REPEATS - len(setup))]
    record["setup_samples"] = setup
    if args.trace:
        metrics["cli.import_s"] = _median(setup, 1)
        metrics["cli.parse_config_s"] = _median(setup, 2)
    else:
        metrics["setup_s"] = _median(setup, 0)
    if set(metrics) != set(units):
        raise SetupError(
            f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json"
        )
    record.update(
        attempted=loop.attempted,
        failed=len(loop.failures),
        error_rate=len(loop.failures) / loop.attempted,
        result_relerr=loop.result_relerr,
        failures=loop.failures,
        problems=problems,
        metrics=metrics,
    )
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=2), encoding="utf-8")
    return {
        "correct": not loop.failures and not problems,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(metrics)},
    }, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    try:
        result, record = benchmark(args)
    except SetupError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    print(
        f"# {record['workload']} seed={args.seed} trace={args.trace} "
        f"ops={record['attempted']} failed={record['failed']} "
        f"error_rate={record['error_rate']} result_relerr={record['result_relerr']:.3g}"
    )
    print("# env " + json.dumps(record["env"]))
    for line in record["failures"][:5] + record["problems"]:
        print("# failure: " + line.strip().replace("\n", " | "))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
