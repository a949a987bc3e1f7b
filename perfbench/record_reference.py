"""Record the reference outputs the benchmark checks against.

Runs one operation of every workload at the recorded seed on the checkout's
``src`` and writes ``reference.json``.  Run it only on a commit whose outputs
are known good, from the root of the checkout:

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import sys

from run import BENCH_DIR, OUT_DIR, SRC


def main() -> int:
    sys.path.insert(0, str(SRC))
    from workloads import RECORDED_SEED, WORKLOADS, load_base_config, reference_entry

    base = load_base_config(BENCH_DIR)
    reference = {}
    for name, workload in WORKLOADS.items():
        workdir = OUT_DIR / f"reference-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        _, op = workload.prepare(base, workdir, RECORDED_SEED)
        reference[name] = reference_entry(op(), RECORDED_SEED)
        print(f"recorded {name}", file=sys.stderr)
    path = BENCH_DIR / "reference.json"
    path.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
