#!/usr/bin/env python3
"""Set-up probe: run one workload's program path on its smallest input in a
fresh process, and print "ready" when its first cell or suite starts.

run.py times a probe from process start to its "ready" line. That covers
interpreter start, the package imports, config parsing and, for a pooled
workload, pool start-up up to the moment a worker enters ``harness.run_cell``;
for ``verify-suite`` it ends where ``verify.run_verify`` is entered. The
program builds its surrogates inside each cell or suite, so they count in the
task times, not here; a change that moves them before the first cell shows here.

    python3 bench/setup_probe.py synthetic-table
"""
import functools
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def announcing(fn):
    @functools.wraps(fn)
    def first_entry(*args, **kwargs):
        print("ready", flush=True)
        return fn(*args, **kwargs)

    return first_entry


def main() -> int:
    workload = workloads.make(sys.argv[1], ROOT, ROOT / ".bench_out")
    owner, attr = workload.first_op
    setattr(owner, attr, announcing(getattr(owner, attr)))
    workload.run_smallest()
    return 0


if __name__ == "__main__":
    sys.exit(main())
